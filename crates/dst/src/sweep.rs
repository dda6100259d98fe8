//! Parallel seed-sweep engine.
//!
//! [`sweep`] is the multi-worker replacement for running seeds one at a
//! time: a pool of worker threads (default
//! `std::thread::available_parallelism()`) pulls seed chunks from a
//! shared atomic cursor, runs each seed's fully self-contained
//! simulation on its own [`SeedRunner`], and folds it into a
//! worker-local [`Tally`]; the tallies merge when the workers join.
//! Determinism lives entirely inside the run of one seed — every
//! universe owns its scheduler, fabric, injector, boards and trace,
//! nothing is process-global, and a runner's state is rewound between
//! seeds — and the tally's retained set is the lowest failing seeds
//! whatever the arrival order, so the report is identical whatever the
//! worker count; only wall-clock time changes.
//!
//! A tally keeps **streaming summaries**, not observations, so a
//! million-seed sweep runs in O(max_failures) memory instead of
//! O(seeds) observations-plus-logs.
//!
//! Failing seeds can be persisted as a corpus file
//! ([`SweepReport::write_corpus`]) of one-line repros, optionally
//! ddmin-minimized first (`shrink_failures`), so a red CI run hands the
//! developer `dst replay --seed 0x2d --buggy` instead of a log dump.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use faultsim::RunStats;

use crate::scenario::{KillShape, ScenarioCfg, SeedRunner};
use crate::shrink::{shrink_schedule, Shrunk};
use crate::verdict::{Failure, Tally};

/// Seeds claimed per cursor pull. Small enough that workers stay
/// balanced at the tail of a sweep, large enough that the cursor is not
/// contended.
const CHUNK: u64 = 8;

/// How a sweep is shaped: the seed range and the engine knobs.
#[derive(Debug, Clone)]
pub struct SweepCfg {
    /// First seed.
    pub start: u64,
    /// Number of seeds (`start..start + count`).
    pub count: u64,
    /// Worker threads; `0` means `std::thread::available_parallelism()`.
    pub jobs: usize,
    /// Cap on retained failure summaries (the lowest failing seeds are
    /// kept; everything beyond the cap is counted, not stored).
    pub max_failures: usize,
    /// ddmin-minimize each retained failure after the sweep, so corpus
    /// lines carry a minimal event set.
    pub shrink_failures: bool,
}

impl Default for SweepCfg {
    fn default() -> Self {
        SweepCfg {
            start: 0,
            count: 100,
            jobs: 0,
            max_failures: 100,
            shrink_failures: false,
        }
    }
}

impl SweepCfg {
    /// Reject degenerate sweep shapes. The one validation site for the
    /// engine knobs, shared by [`sweep`] and [`SweepBuilder::build`].
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.count == 0 {
            return Err(SweepError::InvalidConfig("seed count must be at least 1".into()));
        }
        // `start..start + count` must not wrap: checked once, with a
        // clean error instead of a debug panic / silent empty range.
        self.start
            .checked_add(self.count)
            .ok_or(SweepError::SeedRangeOverflow { start: self.start, count: self.count })?;
        Ok(())
    }

    /// Typed builder starting from the defaults; [`SweepBuilder::build`]
    /// runs [`SweepCfg::validate`].
    pub fn builder() -> SweepBuilder {
        SweepBuilder { cfg: SweepCfg::default() }
    }
}

/// Builder for [`SweepCfg`]; see [`SweepCfg::builder`].
#[derive(Debug, Clone)]
pub struct SweepBuilder {
    cfg: SweepCfg,
}

impl SweepBuilder {
    /// First seed (`--start`).
    pub fn start(mut self, s: u64) -> Self {
        self.cfg.start = s;
        self
    }

    /// Seed count (`--seeds`).
    pub fn count(mut self, n: u64) -> Self {
        self.cfg.count = n;
        self
    }

    /// Worker threads; 0 = auto (`--jobs`).
    pub fn jobs(mut self, n: usize) -> Self {
        self.cfg.jobs = n;
        self
    }

    /// Failure-retention cap (`--max-failures`).
    pub fn max_failures(mut self, n: usize) -> Self {
        self.cfg.max_failures = n;
        self
    }

    /// ddmin-minimize retained failures (`--shrink-failures`).
    pub fn shrink_failures(mut self, on: bool) -> Self {
        self.cfg.shrink_failures = on;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<SweepCfg, SweepError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Ways a sweep can be rejected before any seed runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// `start + count` does not fit in a `u64`: the range cannot be
    /// represented, let alone iterated.
    SeedRangeOverflow {
        /// Requested first seed.
        start: u64,
        /// Requested seed count.
        count: u64,
    },
    /// The scenario or engine configuration is degenerate.
    InvalidConfig(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::SeedRangeOverflow { start, count } => write!(
                f,
                "seed range overflows: start {start:#x} + count {count} exceeds u64::MAX"
            ),
            SweepError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// What a sweep found, in aggregate.
#[derive(Debug)]
pub struct SweepReport {
    /// First seed swept.
    pub start: u64,
    /// Seeds swept.
    pub count: u64,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Seeds with every applicable oracle green.
    pub green: u64,
    /// Seeds with at least one violation.
    pub failing: u64,
    /// Seeds whose run hung (subset of `failing`: the hang itself may
    /// or may not be an oracle violation, but it is always counted).
    pub hung: u64,
    /// Bounded failure map, keyed by seed: the lowest
    /// `SweepCfg::max_failures` failing seeds.
    pub failures: BTreeMap<u64, Failure>,
    /// The ddmin result for each retained failure that shrank, when
    /// `SweepCfg::shrink_failures` ran.
    pub shrunk: BTreeMap<u64, Shrunk>,
    /// Failing seeds beyond the cap — counted so the bound is never a
    /// silent truncation.
    pub dropped_failures: u64,
    /// Wall-clock duration of the sweep (excludes corpus writing).
    pub elapsed: Duration,
    /// [`Tally::stats`]: `handoff` and `alloc` summed over every seed
    /// run (`dst explore --stats` divides by `count`), `coverage` the
    /// exact union of `(rank, decision-kind, phase)` edges the whole
    /// sweep touched, with its order-independent signature.
    pub stats: RunStats,
}

impl SweepReport {
    /// Seeds per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 { self.count as f64 / secs } else { f64::INFINITY }
    }

    /// Render the retained failures as corpus lines (plus a counted
    /// overflow marker), ready for corpus writing or aggregation
    /// across shapes: the failure record, then the shape when it is not
    /// the default pair (so a line from a `--shape all` sweep names its
    /// schedule family), the shrunk events, and a paste-able replay
    /// command.
    pub fn corpus_lines(&self, scenario: &ScenarioCfg) -> Vec<String> {
        let (field, flag) = match scenario.shape {
            KillShape::Pair => Default::default(),
            shape => (format!(" shape={shape}"), format!(" --shape {shape}")),
        };
        let buggy = if scenario.buggy_dedup { " --buggy" } else { "" };
        let mut lines: Vec<String> = Vec::new();
        for (seed, fail) in &self.failures {
            let shrunk = self.shrunk.get(seed).map(|s| format!(" shrunk=[{}]", s.events_text()));
            lines.push(format!(
                "{fail}{field}{} repro=\"dst replay --seed {seed:#x} --ranks {} --iters {}{flag}{buggy}\"",
                shrunk.unwrap_or_default(),
                scenario.ranks,
                scenario.max_iter
            ));
        }
        if self.dropped_failures > 0 {
            lines.push(format!(
                "# +{} more failing seed(s) beyond --max-failures {}",
                self.dropped_failures,
                self.failures.len()
            ));
        }
        lines
    }

    /// Write the failing seeds as a corpus of one-line repros. When
    /// there are no failures the filesystem is untouched (CI uploads
    /// the file exactly when it exists) and the summary reports zero
    /// lines. Otherwise the returned [`CorpusWrite`] says where the
    /// file went, how many repro lines it holds, and how many failing
    /// seeds were beyond the retention cap (rendered as a trailing
    /// comment marker, counted here so truncation is never silent).
    pub fn write_corpus(
        &self,
        path: &Path,
        scenario: &ScenarioCfg,
    ) -> std::io::Result<CorpusWrite> {
        let summary = CorpusWrite {
            path: path.to_path_buf(),
            lines: self.failures.len(),
            overflow: self.dropped_failures,
        };
        if self.failures.is_empty() {
            return Ok(summary);
        }
        write_lines(path, &self.corpus_lines(scenario))?;
        Ok(summary)
    }
}

/// What [`SweepReport::write_corpus`] did: where, how much, and what
/// fell past the retention cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusWrite {
    /// Destination path (as given by the caller).
    pub path: PathBuf,
    /// Repro lines written. `0` means no failures — the file was not
    /// created or touched.
    pub lines: usize,
    /// Failing seeds beyond the retention cap, counted in the file's
    /// trailing overflow marker.
    pub overflow: u64,
}

impl CorpusWrite {
    /// Whether a file was actually created.
    pub fn created(&self) -> bool {
        self.lines > 0
    }
}

impl std::fmt::Display for CorpusWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.created() {
            return write!(f, "no failures; corpus {} not written", self.path.display());
        }
        write!(f, "wrote {} repro line(s) to {}", self.lines, self.path.display())?;
        if self.overflow > 0 {
            write!(f, " (+{} beyond the retention cap)", self.overflow)?;
        }
        Ok(())
    }
}

/// Write pre-rendered corpus lines to `path` — the shared sink behind
/// [`SweepReport::write_corpus`], [`crate::fuzz::FuzzReport::write_corpus`],
/// and the CLI's cross-shape aggregation.
pub fn write_lines(path: &Path, lines: &[String]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    f.flush()
}

/// Sweep `cfg.count` seeds from `cfg.start` over a worker pool and
/// aggregate the verdicts.
///
/// Per-seed verdicts are identical to the serial path regardless of
/// `jobs` (each simulation is self-contained); the failure map is
/// bounded by `cfg.max_failures`; `shrink_failures` additionally
/// minimizes each retained failure after the sweep.
pub fn sweep(cfg: &SweepCfg, scenario: &ScenarioCfg) -> Result<SweepReport, SweepError> {
    scenario.validate().map_err(SweepError::InvalidConfig)?;
    cfg.validate()?;

    // A worker is one thread whatever the rank count (its ranks are
    // coroutines on it) and it never blocks, so one per core fills the
    // machine.
    let jobs = match cfg.jobs {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    };
    // More workers than seeds just park on an empty cursor.
    let jobs = jobs.min(cfg.count.min(usize::MAX as u64) as usize).max(1);

    let begun = Instant::now();
    // The cursor hands out *offsets* in `0..count`, never absolute
    // seeds, so claiming a chunk can never overflow even at the top of
    // the u64 seed space.
    let cursor = AtomicU64::new(0);

    let tally = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    // One runner and one tally per worker: every seed
                    // this worker claims reuses the same rank stacks
                    // and universe state, and nothing is shared with
                    // the other workers until the join.
                    let mut runner = SeedRunner::new(scenario.ranks);
                    let mut tally = Tally::new(cfg.max_failures);
                    loop {
                        let claim =
                            cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                                (c < cfg.count).then(|| c.saturating_add(CHUNK).min(cfg.count))
                            });
                        let Ok(begin) = claim else { break };
                        let end = begin.saturating_add(CHUNK).min(cfg.count);
                        for seed in cfg.start + begin..cfg.start + end {
                            // Zero retention: the oracles judge only the
                            // trace, outcomes, stats and hang flags, and
                            // a failing seed re-runs to the identical
                            // log when one is wanted.
                            let obs = runner.run_seed_quiet(seed, scenario);
                            tally.record(seed, &obs);
                            // The schedule buffers go back to the runner
                            // for the next seed (§8.10).
                            runner.recycle(obs);
                        }
                    }
                    tally
                })
            })
            .collect();
        workers.into_iter().fold(Tally::new(cfg.max_failures), |mut all, worker| {
            all.merge(worker.join().expect("a sweep worker panicked"));
            all
        })
    });

    let mut shrunk = BTreeMap::new();
    if cfg.shrink_failures {
        // Shrink only the retained (bounded) set, after the sweep, so
        // no minimization effort is wasted on seeds that get evicted.
        for (seed, fail) in &tally.failures {
            if let Some(s) = shrink_schedule(&fail.schedule, scenario, None) {
                shrunk.insert(*seed, s);
            }
        }
    }

    Ok(SweepReport {
        start: cfg.start,
        count: cfg.count,
        jobs,
        green: tally.green,
        failing: tally.failing,
        hung: tally.hung,
        stats: tally.stats(),
        failures: tally.failures,
        shrunk,
        dropped_failures: tally.dropped,
        elapsed: begun.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflowing_range_is_rejected_cleanly() {
        let cfg = SweepCfg { start: u64::MAX, count: 2, ..SweepCfg::default() };
        match sweep(&cfg, &ScenarioCfg::default()) {
            Err(SweepError::SeedRangeOverflow { start, count }) => {
                assert_eq!(start, u64::MAX);
                assert_eq!(count, 2);
            }
            other => panic!("expected overflow error, got {other:?}"),
        }
    }

    #[test]
    fn zero_count_and_degenerate_scenarios_are_rejected() {
        let cfg = SweepCfg { count: 0, ..SweepCfg::default() };
        assert!(matches!(sweep(&cfg, &ScenarioCfg::default()), Err(SweepError::InvalidConfig(_))));

        let bad = ScenarioCfg { ranks: 0, ..ScenarioCfg::default() };
        let cfg = SweepCfg::default();
        assert!(matches!(sweep(&cfg, &bad), Err(SweepError::InvalidConfig(_))));
    }

    #[test]
    fn sweep_builder_validates_in_one_place() {
        assert!(SweepCfg::builder().count(0).build().is_err());
        assert!(matches!(
            SweepCfg::builder().start(u64::MAX).count(2).build(),
            Err(SweepError::SeedRangeOverflow { .. })
        ));
        let cfg = SweepCfg::builder().start(5).count(10).jobs(2).build().unwrap();
        assert_eq!((cfg.start, cfg.count, cfg.jobs), (5, 10, 2));
    }

    #[test]
    fn corpus_lines_carry_the_schedule_and_a_usable_repro() {
        let cfg = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        let sweep_cfg =
            SweepCfg { start: 0x2d, count: 1, shrink_failures: true, ..SweepCfg::default() };
        let mut report = sweep(&sweep_cfg, &cfg).unwrap();
        report.failures.get_mut(&0x2d).unwrap().triage = "rank 3 waits on T_N".into();
        let lines = report.corpus_lines(&cfg);
        assert_eq!(
            lines,
            ["schedule seed=0x2d kills=[2:AfterSend:2,3:AfterSend:3] oracles=no-duplicate,markers-monotone \
              triage=[rank 3 waits on T_N] shrunk=[kill 2 at AfterSend#2] \
              repro=\"dst replay --seed 0x2d --ranks 4 --iters 3 --buggy\""]
        );
        // A non-default shape is named as a field and in the command.
        let validate = ScenarioCfg { shape: KillShape::Validate, ..ScenarioCfg::default() };
        let line = &report.corpus_lines(&validate)[0];
        assert!(line.contains(" shape=validate ") && line.contains("--iters 3 --shape validate\""));
    }
}
