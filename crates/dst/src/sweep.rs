//! Parallel seed-sweep engine.
//!
//! [`sweep`] is the multi-worker replacement for running seeds one at a
//! time: a pool of worker threads (default
//! `std::thread::available_parallelism()`) pulls seed chunks from a
//! shared atomic cursor, runs each seed's fully self-contained
//! simulation on its own [`SeedRunner`] (plus the oracles), and streams
//! a compact per-seed verdict into an aggregator. Determinism lives
//! entirely inside the run of one seed — every universe owns its
//! scheduler, fabric, injector, boards and trace, nothing is
//! process-global, and a runner's state is rewound between seeds — so
//! the per-seed verdicts are identical whatever the worker count; only
//! wall-clock time changes.
//!
//! The aggregator keeps **streaming summaries**, not observations: a
//! green seed costs three counter bumps, and a failing seed is folded
//! into a bounded [`FailureSummary`] map that retains the *lowest*
//! failing seeds (eviction by largest key, so the retained set is also
//! independent of arrival order). A million-seed sweep therefore runs
//! in O(max_failures) memory instead of O(seeds) observations-plus-logs.
//!
//! Failing seeds can be persisted as a corpus file
//! ([`SweepReport::write_corpus`]) of one-line repros, optionally
//! ddmin-minimized first (`shrink_failures`), so a red CI run hands the
//! developer `dst replay --seed 0x2d --buggy` instead of a log dump.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use faultsim::{CoverageStats, RunStats};

use crate::coverage::CoverageSet;
use crate::oracle::check_all;
use crate::scenario::{Observation, ScenarioCfg, SeedRunner};
use crate::shrink::shrink;

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

/// Compact record of one failing seed — everything needed to report
/// and reproduce it, nothing that grows with the run (no observation,
/// no decision log).
#[derive(Debug, Clone)]
pub struct FailureSummary {
    /// The failing seed.
    pub seed: u64,
    /// Violated oracle names, deduplicated, in oracle order.
    pub oracles: Vec<String>,
    /// Full violation messages.
    pub violations: Vec<String>,
    /// The seed-derived kill-set, rendered.
    pub kills: Vec<String>,
    /// Whether the run hung (deadlock or livelock verdict).
    pub hung: bool,
    /// One line for hung runs — `deadlock at step N` or `livelock
    /// (budget)`, then who waits on whom — from the hang triager;
    /// empty for non-hang failures. Computed from
    /// the quiet observation's trace — no re-run.
    pub triage: String,
    /// Minimal event set from ddmin, when `shrink_failures` ran.
    pub shrunk: Option<ShrunkSummary>,
}

/// Rendered result of shrinking one failing seed.
#[derive(Debug, Clone)]
pub struct ShrunkSummary {
    /// The locally minimal events, rendered one per entry.
    pub events: Vec<String>,
    /// Schedules the shrinker executed to get there.
    pub runs: usize,
}

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
    pub failures: BTreeMap<u64, FailureSummary>,
    /// Failing seeds beyond the cap — counted so the bound is never a
    /// silent truncation.
    pub dropped_failures: u64,
    /// Wall-clock duration of the sweep (excludes corpus writing).
    pub elapsed: Duration,
    /// Every statistic family on the one [`RunStats`] surface:
    /// `handoff` and `alloc` are summed over every seed run (`dst
    /// explore --stats` divides by `count` for per-schedule numbers;
    /// alloc is zeros unless the binary installs
    /// [`allocstats::StatsAlloc`] — the `dst` binary does), and
    /// `coverage` is the **true union** over all runs: distinct
    /// `(rank, decision-kind, phase)` edges the whole sweep touched,
    /// with its order-independent signature.
    pub stats: RunStats,
}

impl SweepReport {
    /// Seeds per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 { self.count as f64 / secs } else { f64::INFINITY }
    }

    /// Render the retained failures as one-line repros (plus a counted
    /// overflow marker), ready for corpus writing or aggregation
    /// across shapes.
    pub fn corpus_lines(&self, scenario: &ScenarioCfg) -> Vec<String> {
        let mut lines: Vec<String> =
            self.failures.values().map(|f| corpus_line(f, scenario)).collect();
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

/// One line per failure: seed, verdict, schedule, and a paste-able
/// repro command. Non-default kill shapes are carried both as a field
/// (`shape=…`) and inside the repro command, so a corpus line from a
/// `--shape all` sweep replays the exact same schedule family.
fn corpus_line(fail: &FailureSummary, scenario: &ScenarioCfg) -> String {
    let mut line = format!("seed={:#x} oracles={}", fail.seed, fail.oracles.join(","));
    if scenario.shape != crate::scenario::KillShape::Pair {
        line.push_str(&format!(" shape={}", scenario.shape));
    }
    if fail.hung {
        line.push_str(" hung");
    }
    if !fail.kills.is_empty() {
        line.push_str(&format!(" kills=[{}]", fail.kills.join("; ")));
    }
    if let Some(s) = &fail.shrunk {
        line.push_str(&format!(" shrunk=[{}]", s.events.join("; ")));
    }
    if !fail.triage.is_empty() {
        line.push_str(&format!(" triage=[{}]", fail.triage));
    }
    line.push_str(&format!(
        " repro=\"dst replay --seed {:#x} --ranks {} --iters {}{}{}\"",
        fail.seed,
        scenario.ranks,
        scenario.max_iter,
        if scenario.shape != crate::scenario::KillShape::Pair {
            format!(" --shape {}", scenario.shape)
        } else {
            String::new()
        },
        if scenario.buggy_dedup { " --buggy" } else { "" }
    ));
    line
}

/// The streaming aggregator workers fold verdicts into. This is the
/// single merge/attribution site for the whole chain: per-run
/// [`RunStats`] merge here, and the coverage union is tracked exactly
/// (a `BTreeSet` of edge hashes — deterministic, order-independent)
/// rather than by the disjoint-union approximation.
pub(crate) struct Aggregate {
    green: u64,
    failing: u64,
    hung: u64,
    dropped: u64,
    cap: usize,
    failures: BTreeMap<u64, FailureSummary>,
    stats: RunStats,
    /// Union of every run's coverage edges.
    edges: BTreeSet<u64>,
}

impl Aggregate {
    fn new(cap: usize) -> Self {
        Aggregate {
            green: 0,
            failing: 0,
            hung: 0,
            dropped: 0,
            cap,
            failures: BTreeMap::new(),
            stats: RunStats::default(),
            edges: BTreeSet::new(),
        }
    }

    /// The aggregated stats with `coverage` overwritten from the exact
    /// edge union (signature = XOR over the union's members).
    fn run_stats(&self) -> RunStats {
        let mut stats = self.stats;
        stats.coverage = CoverageStats {
            edges: self.edges.len() as u64,
            signature: self.edges.iter().fold(0, |d, e| d ^ e),
        };
        stats
    }

    fn record(&mut self, verdict: SeedVerdict) {
        let SeedVerdict { hung, failure, stats, coverage } = verdict;
        // `stats.coverage` folds as the approximation; `run_stats()`
        // overwrites it from the exact union below.
        self.stats.merge(&stats);
        for e in coverage.iter() {
            self.edges.insert(e);
        }
        if hung {
            self.hung += 1;
        }
        match failure {
            None => self.green += 1,
            Some(f) => {
                self.failing += 1;
                self.failures.insert(f.seed, f);
                if self.failures.len() > self.cap {
                    // Evict the highest seed: the retained set is the
                    // lowest `cap` failing seeds no matter which worker
                    // found what first.
                    let highest = *self.failures.keys().next_back().expect("non-empty");
                    self.failures.remove(&highest);
                    self.dropped += 1;
                }
            }
        }
    }
}

/// The compact per-seed result a worker streams into the aggregator.
pub(crate) struct SeedVerdict {
    hung: bool,
    failure: Option<FailureSummary>,
    stats: RunStats,
    /// The run's full edge set, moved out of the observation so the
    /// aggregator can union exactly.
    coverage: CoverageSet,
}

/// Run one seed and fold it into a verdict.
///
/// Seeds run **zero-retention** ([`SeedRunner::run_seed_quiet`]): the
/// scheduler never accumulates a decision log or delay list, because
/// the oracles judge only the trace, outcomes, stats and hang flags.
/// Nothing is lost: the summary carries the seed, and replay/shrinking
/// re-run it with full recording — determinism makes the re-run the
/// identical schedule, so the log is recoverable on demand instead of
/// being paid for on every green seed.
fn verdict_of(seed: u64, scenario: &ScenarioCfg, runner: &mut SeedRunner) -> SeedVerdict {
    let mut obs = runner.run_seed_quiet(seed, scenario);
    let verdict = fold_verdict(seed, &mut obs);
    // The observation's buffers go back to the runner: the next seed's
    // schedule copy reuses them (§8.10).
    runner.recycle(obs);
    verdict
}

/// Judge one observation and compress it to the streaming verdict.
/// Takes the observation by `&mut` so its coverage set can be moved
/// out and the caller can recycle the remaining buffers.
pub(crate) fn fold_verdict(seed: u64, obs: &mut Observation) -> SeedVerdict {
    let stats = obs.stats;
    let coverage = std::mem::replace(&mut obs.coverage, CoverageSet::empty());
    let violations = check_all(obs);
    if violations.is_empty() {
        return SeedVerdict { hung: obs.hung, failure: None, stats, coverage };
    }
    let mut oracles: Vec<String> = Vec::new();
    for v in &violations {
        if !oracles.iter().any(|o| o.as_str() == v.oracle) {
            oracles.push(v.oracle.to_string());
        }
    }
    let summary = FailureSummary {
        seed,
        oracles,
        violations: violations.iter().map(|v| v.to_string()).collect(),
        kills: obs.schedule.kills.iter().map(|k| k.to_string()).collect(),
        hung: obs.hung,
        // The trace survives Retention::Quiet precisely so that a hang
        // can be triaged here without re-running the seed.
        triage: if obs.hung { crate::triage::triage(obs).one_line() } else { String::new() },
        shrunk: None,
    };
    SeedVerdict { hung: obs.hung, failure: Some(summary), stats, coverage }
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
    let agg = Mutex::new(Aggregate::new(cfg.max_failures.max(1)));

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                // One runner per worker: every seed this worker claims
                // reuses the same rank stacks and universe state.
                let mut runner = SeedRunner::new(scenario.ranks);
                loop {
                    let claim = cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                        if c >= cfg.count {
                            None
                        } else {
                            Some(c.saturating_add(CHUNK).min(cfg.count))
                        }
                    });
                    let begin = match claim {
                        Ok(b) => b,
                        Err(_) => break,
                    };
                    let end = begin.saturating_add(CHUNK).min(cfg.count);
                    for off in begin..end {
                        let verdict = verdict_of(cfg.start + off, scenario, &mut runner);
                        agg.lock().unwrap().record(verdict);
                    }
                }
            });
        }
    });

    let mut agg = agg.into_inner().unwrap();
    if cfg.shrink_failures {
        // Shrink only the retained (bounded) set, after the sweep, so
        // no minimization effort is wasted on seeds that get evicted.
        for fail in agg.failures.values_mut() {
            if let Some(s) = shrink(fail.seed, scenario, None) {
                fail.shrunk = Some(ShrunkSummary {
                    events: s.events.iter().map(|e| e.to_string()).collect(),
                    runs: s.runs,
                });
            }
        }
    }

    Ok(SweepReport {
        start: cfg.start,
        count: cfg.count,
        jobs,
        green: agg.green,
        failing: agg.failing,
        hung: agg.hung,
        stats: agg.run_stats(),
        failures: agg.failures,
        dropped_failures: agg.dropped,
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
    fn aggregate_keeps_lowest_seeds_whatever_the_arrival_order() {
        let fail = |seed| FailureSummary {
            seed,
            oracles: vec!["x".into()],
            violations: vec![],
            kills: vec![],
            hung: false,
            triage: String::new(),
            shrunk: None,
        };
        let verdict = |seed| SeedVerdict {
            hung: false,
            failure: Some(fail(seed)),
            stats: RunStats::default(),
            coverage: CoverageSet::empty(),
        };
        let mut a = Aggregate::new(2);
        let mut b = Aggregate::new(2);
        for s in [9u64, 3, 7, 1] {
            a.record(verdict(s));
        }
        for s in [1u64, 7, 3, 9] {
            b.record(verdict(s));
        }
        let keys = |agg: &Aggregate| agg.failures.keys().copied().collect::<Vec<_>>();
        assert_eq!(keys(&a), vec![1, 3]);
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(a.dropped, 2);
        assert_eq!(a.failing, 4);
    }

    /// The aggregator's coverage is the exact union, not the summed
    /// approximation: overlapping runs must not double-count edges or
    /// cancel signatures.
    #[test]
    fn aggregate_coverage_is_the_exact_union() {
        let mk = |edges: &[u64]| {
            let mut c = CoverageSet::new();
            for &e in edges {
                c.insert(e);
            }
            SeedVerdict {
                hung: false,
                failure: None,
                stats: RunStats { coverage: c.stats(), ..Default::default() },
                coverage: c,
            }
        };
        let mut agg = Aggregate::new(4);
        agg.record(mk(&[10, 20]));
        agg.record(mk(&[20, 30]));
        agg.record(mk(&[10, 20]));
        let stats = agg.run_stats();
        assert_eq!(stats.coverage.edges, 3);
        assert_eq!(stats.coverage.signature, 10 ^ 20 ^ 30);
        assert_eq!(agg.green, 3);
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
    fn corpus_line_carries_a_usable_repro() {
        let fail = FailureSummary {
            seed: 0x2d,
            oracles: vec!["no-duplicate".into()],
            violations: vec!["dup".into()],
            kills: vec!["kill 2 at AfterSend#1".into()],
            hung: false,
            triage: "rank 3 waits on T_N from rank 2 (DEAD)".into(),
            shrunk: Some(ShrunkSummary { events: vec!["kill 2 at AfterSend#1".into()], runs: 3 }),
        };
        let cfg = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        let line = corpus_line(&fail, &cfg);
        assert!(line.contains("seed=0x2d"));
        assert!(line.contains("oracles=no-duplicate"));
        assert!(line.contains("triage=[rank 3 waits on T_N from rank 2 (DEAD)]"));
        assert!(line.contains("--buggy"));
        assert!(line.contains("dst replay --seed 0x2d"));
        assert!(!line.contains('\n'));
    }
}
