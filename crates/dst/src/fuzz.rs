//! Coverage-guided schedule fuzzing (`dst fuzz`, DESIGN.md §8.11).
//!
//! A blind sweep (`dst explore`) walks seeds in order; whether seed
//! N+1 exercises anything seed N didn't is luck. The fuzzer closes the
//! loop: every run's [`CoverageSet`] of `(rank, decision-kind,
//! protocol-phase)` edges is unioned into a global edge set, schedules
//! that contributed a **novel** edge join the corpus, and the budget
//! is spent mutating corpus entries instead of drawing fresh seeds —
//! with *energy* weighted toward entries that found new coverage
//! recently, the AFL-style schedule that keeps the search at the
//! frontier.
//!
//! ### Mutators
//!
//! | mutator | what it changes |
//! |---|---|
//! | seed nudge | flips one bit of the scheduler seed (new interleaving, same kills) |
//! | kill-site shift | moves one kill a few hook occurrences, or rehooks it |
//! | victim swap | re-targets one kill at a different (still distinct) rank |
//! | mask flip | toggles one drain index in the delay mask (`None` ⇄ sparse mask) |
//! | cross-shape splice | combines the kill lists of two corpus entries |
//!
//! Because corpus entries originate from *all seven* [`KillShape`]s
//! during the seeding phase, the splice mutator composes failure
//! patterns no single shape derives — e.g. a root-chain prefix with a
//! validate-window kill.
//!
//! ### Determinism
//!
//! Everything is a pure function of `(FuzzCfg, ScenarioCfg, corpus
//! file)`: one master [`SplitMix64`] stream drives seeding, parent
//! selection and mutation; the corpus is an order-preserving `Vec`;
//! the global edge union is one [`CoverageSet`]. Two runs with the same
//! inputs produce byte-identical decision logs, corpus files, and
//! coverage signatures — `tests/fuzz_determinism.rs` referees.
//!
//! Mutated schedules are not derivable from a single seed, so a
//! failure record carries the *full* schedule (kills + mask) in its
//! one-line text form: it parses back with `str::parse::<Schedule>`
//! for [`crate::run_schedule`] and [`crate::shrink_schedule`], and a
//! corpus file holding the line replays it first
//! (`dst fuzz --corpus FILE --budget 1`).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use faultsim::{HookKind, RunStats};

use crate::scenario::{Kill, KillShape, Retention, ScenarioCfg, Schedule, SeedRunner};
use crate::sched::SplitMix64;
use crate::sweep::CorpusWrite;
use crate::verdict::Tally;

/// Stream salt: the fuzzer's master PRNG never collides with the
/// scheduler or kill-derivation streams of any seed it runs.
const FUZZ_SALT: u64 = 0x6675_7A7A_6572_2121;

/// Hooks the kill-site shift and victim swap mutators draw from —
/// the ordinary protocol points plus the validate window (the fuzzer
/// may move a kill *into* the consensus, something only the Validate
/// shape's derivation does).
const MUTATE_HOOKS: [HookKind; 5] = [
    HookKind::Tick,
    HookKind::AfterSend,
    HookKind::AfterRecvComplete,
    HookKind::BeforeValidate,
    HookKind::AfterValidate,
];

/// Drain-call window mask flips operate in — matches the masked
/// shape's derivation window, so flipped indices always land where
/// kills do.
const MASK_WINDOW: u64 = 300;

/// Maximum kills a mutated schedule may carry (the deepest shape —
/// cascade — derives up to 4; splice respects the same bound).
const MAX_KILLS: usize = 4;

/// Peak mutation energy: a corpus entry that just found novel edges is
/// picked this many times more often than a fully stale one.
const ENERGY_MAX: u64 = 16;

/// Executions per energy half-life: an entry's energy halves every
/// this many runs since it last contributed a novel edge.
const ENERGY_HALF_LIFE: u64 = 256;

/// How the fuzzer spends its budget.
#[derive(Debug, Clone)]
pub struct FuzzCfg {
    /// Master seed: fixes seeding, parent selection and mutations.
    pub seed: u64,
    /// Total schedule executions (seeding + mutation).
    pub budget: u64,
    /// Cap on retained failure records (all failures are counted).
    pub max_failures: usize,
    /// Evolved-corpus path: loaded (if the file exists) before
    /// seeding, written back after the campaign by the CLI.
    pub corpus: Option<PathBuf>,
}

impl Default for FuzzCfg {
    fn default() -> Self {
        FuzzCfg { seed: 0, budget: 1000, max_failures: 100, corpus: None }
    }
}

impl FuzzCfg {
    /// Reject degenerate fuzz configurations.
    pub fn validate(&self) -> Result<(), FuzzError> {
        if self.budget == 0 {
            return Err(FuzzError::InvalidConfig("fuzz budget must be at least 1".into()));
        }
        Ok(())
    }
}

/// Ways a fuzz campaign can fail to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzError {
    /// The fuzz or scenario configuration is degenerate.
    InvalidConfig(String),
    /// The corpus file could not be read or parsed.
    Corpus(String),
}

impl std::fmt::Display for FuzzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuzzError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            FuzzError::Corpus(m) => write!(f, "corpus error: {m}"),
        }
    }
}

impl std::error::Error for FuzzError {}

/// One corpus member: a schedule that contributed at least one novel
/// coverage edge when it ran.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The coverage-novel schedule.
    pub schedule: Schedule,
    /// Novel edges this entry contributed when first run.
    pub novel_edges: u64,
    /// Execution index at which this entry (or a mutant of it) last
    /// contributed a novel edge — the energy clock.
    pub last_novel: u64,
}

/// A failure found by the fuzzer: the one [`crate::Failure`] record.
pub use crate::verdict::Failure as FuzzFailure;

impl FuzzFailure {
    /// The failure as one corpus line, with the campaign that found it.
    pub fn line(&self, cfg: &FuzzCfg, scenario: &ScenarioCfg) -> String {
        format!(
            "{self} repro=\"dst fuzz --seed {:#x} --budget {} --ranks {} --iters {}\"",
            cfg.seed, cfg.budget, scenario.ranks, scenario.max_iter
        )
    }
}

/// What a fuzz campaign found.
#[derive(Debug)]
pub struct FuzzReport {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Schedule executions performed.
    pub executed: u64,
    /// Schedules the corpus file held; they run first, budget allowing.
    pub loaded: u64,
    /// Executions spent in the seeding phase (shape-derived seeds).
    pub seeded: u64,
    /// Executions that contributed at least one novel coverage edge.
    pub novel: u64,
    /// Runs with every applicable oracle green.
    pub green: u64,
    /// Runs with at least one violation.
    pub failing: u64,
    /// Runs that hung.
    pub hung: u64,
    /// The evolved corpus (every coverage-novel schedule, in discovery
    /// order — loaded entries that re-proved novel first).
    pub corpus: Vec<CorpusEntry>,
    /// Every distinct coverage edge discovered, in sorted order (the
    /// exact union behind `stats.coverage`, collected once at the end;
    /// tests assert subset relations against it).
    pub discovered: BTreeSet<u64>,
    /// Retained failure records (bounded by `FuzzCfg::max_failures`).
    pub failures: Vec<FuzzFailure>,
    /// Failures beyond the cap — counted, never silently dropped.
    pub dropped_failures: u64,
    /// Aggregated per-run statistics; `coverage` is the exact global
    /// union (distinct edges + order-independent signature).
    pub stats: RunStats,
    /// Wall-clock duration (excludes corpus writing).
    pub elapsed: Duration,
}

impl FuzzReport {
    /// Distinct coverage edges the campaign discovered.
    pub fn edges(&self) -> u64 {
        self.stats.coverage.edges
    }

    /// Order-independent digest of the discovered edge set.
    pub fn signature(&self) -> u64 {
        self.stats.coverage.signature
    }

    /// Render the evolved corpus, one parseable line per entry.
    pub fn corpus_lines(&self) -> Vec<String> {
        let mut lines = vec![format!("# dst fuzz corpus v1 edges={:#x}", self.signature())];
        lines.extend(
            self.corpus
                .iter()
                .map(|e| format!("schedule {} novel={}", e.schedule, e.novel_edges)),
        );
        lines
    }

    /// Write the evolved corpus (same [`CorpusWrite`] surface as
    /// [`crate::sweep::SweepReport::write_corpus`]). Unlike the
    /// failure corpus, an evolved corpus is written even when no run
    /// failed — it is the campaign's accumulated knowledge.
    pub fn write_corpus(&self, path: &Path) -> std::io::Result<CorpusWrite> {
        let lines = self.corpus_lines();
        crate::sweep::write_lines(path, &lines)?;
        Ok(CorpusWrite { path: path.to_path_buf(), lines: self.corpus.len(), overflow: 0 })
    }
}

/// Load a corpus file written by either engine as seed schedules
/// for a `ranks`-rank scenario. Every line is blank, a `#` comment, or
/// `schedule <schedule> key=value…` (DESIGN.md §8.4); anything else —
/// and a kill naming a rank the scenario does not have — is an error
/// naming the line, not a silent skip. A missing file is an empty
/// corpus (first campaign).
fn load_corpus(path: &Path, ranks: usize) -> Result<Vec<Schedule>, FuzzError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(FuzzError::Corpus(format!("{}: {e}", path.display()))),
    };
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = |e: String| FuzzError::Corpus(format!("{}:{}: {e}", path.display(), i + 1));
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rest = line
            .strip_prefix("schedule ")
            .ok_or_else(|| at(format!("not a `schedule …` line or a `#` comment: {line}")))?;
        // The schedule is the leading `seed= kills=[…]` and, when it
        // follows directly, `mask=[…]`; engine fields come after.
        let toks: Vec<&str> = rest.split_whitespace().collect();
        let len = if toks.get(2).is_some_and(|t| t.starts_with("mask=")) { 3 } else { 2 };
        let schedule: Schedule = toks[..len.min(toks.len())].join(" ").parse().map_err(at)?;
        if let Some(k) = schedule.kills.iter().find(|k| k.victim >= ranks) {
            return Err(at(format!(
                "kills rank {} but the scenario has {ranks} ranks \
                 (was this corpus evolved at a different --ranks?)",
                k.victim
            )));
        }
        out.push(schedule);
    }
    Ok(out)
}

/// Mutation energy of a corpus entry at execution index `now`:
/// [`ENERGY_MAX`] right after it contributes novelty, halving every
/// [`ENERGY_HALF_LIFE`] executions, floor 1 (nothing starves).
fn energy(entry: &CorpusEntry, now: u64) -> u64 {
    let age = now.saturating_sub(entry.last_novel) / ENERGY_HALF_LIFE;
    (ENERGY_MAX >> age.min(63)).max(1)
}

/// Energy-weighted parent pick. Walks the corpus twice (sum, then
/// cumulative draw) — corpus sizes are bounded by the edge space, so
/// this stays cheap and allocation-free.
fn pick_parent(corpus: &[CorpusEntry], now: u64, rng: &mut SplitMix64) -> usize {
    let total: u64 = corpus.iter().map(|e| energy(e, now)).sum();
    let mut draw = rng.next_u64() % total.max(1);
    for (i, e) in corpus.iter().enumerate() {
        let w = energy(e, now);
        if draw < w {
            return i;
        }
        draw -= w;
    }
    corpus.len() - 1
}

/// Apply one mutation to `s` (already a copy of the parent).
/// `partner` is the splice mate (energy-ignored, uniform draw).
fn mutate(
    s: &mut Schedule,
    partner: Option<&Schedule>,
    scenario: &ScenarioCfg,
    rng: &mut SplitMix64,
) {
    // Drawing the mutator and its operands from one stream keeps the
    // whole campaign a function of the master seed.
    match rng.below(5) {
        // Seed nudge: one bit of the interleaving seed.
        0 => s.seed ^= 1u64 << rng.below(64),
        // Kill-site shift: move one kill ±1..8 occurrences, or rehook.
        1 => {
            if s.kills.is_empty() {
                add_kill(s, scenario, rng);
            } else {
                let i = rng.below(s.kills.len());
                if rng.below(4) == 0 {
                    s.kills[i].hook = MUTATE_HOOKS[rng.below(MUTATE_HOOKS.len())];
                } else {
                    let delta = 1 + rng.below(8) as u64;
                    s.kills[i].occurrence = if rng.below(2) == 0 {
                        s.kills[i].occurrence.saturating_add(delta)
                    } else {
                        s.kills[i].occurrence.saturating_sub(delta).max(1)
                    };
                }
            }
        }
        // Victim swap: re-target one kill, keeping victims distinct.
        2 => {
            if s.kills.is_empty() {
                add_kill(s, scenario, rng);
            } else {
                let i = rng.below(s.kills.len());
                let v = rng.below(scenario.ranks);
                if !s.kills.iter().enumerate().any(|(j, k)| j != i && k.victim == v) {
                    s.kills[i].victim = v;
                }
            }
        }
        // Mask flip: toggle one drain index in the delay mask.
        3 => {
            let idx = rng.below(MASK_WINDOW as usize) as u64;
            let mask = s.delay_mask.get_or_insert_with(Vec::new);
            match mask.binary_search(&idx) {
                Ok(pos) => {
                    mask.remove(pos);
                }
                Err(pos) => mask.insert(pos, idx),
            }
            if mask.is_empty() {
                s.delay_mask = None;
            }
        }
        // Cross-shape splice: this schedule's kill prefix + the
        // partner's suffix, victims deduplicated, count capped. The
        // partner's mask rides along when this schedule has none.
        _ => {
            if let Some(p) = partner {
                let keep = if s.kills.is_empty() { 0 } else { 1 + rng.below(s.kills.len()) };
                s.kills.truncate(keep);
                for k in &p.kills {
                    if s.kills.len() >= MAX_KILLS.min(scenario.ranks - 1) {
                        break;
                    }
                    if !s.kills.iter().any(|have| have.victim == k.victim) {
                        s.kills.push(*k);
                    }
                }
                if s.delay_mask.is_none() {
                    if let Some(m) = &p.delay_mask {
                        s.delay_mask = Some(m.clone());
                    }
                }
            } else {
                s.seed = s.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            }
        }
    }
}

/// Grow an empty kill-set by one seed-stream kill (mutators that need
/// a kill to act on call this instead of no-oping).
fn add_kill(s: &mut Schedule, scenario: &ScenarioCfg, rng: &mut SplitMix64) {
    s.kills.push(Kill {
        victim: rng.below(scenario.ranks),
        hook: MUTATE_HOOKS[rng.below(MUTATE_HOOKS.len())],
        occurrence: 1 + rng.below(25) as u64,
    });
}

/// The state one campaign execution reads and updates.
struct Campaign<'a> {
    scenario: &'a ScenarioCfg,
    runner: SeedRunner,
    /// Verdicts keyed by execution index, so the retained failures are
    /// the first `max_failures` found.
    tally: Tally,
    /// One entry per run that found a novel edge.
    corpus: Vec<CorpusEntry>,
    executed: u64,
}

impl Campaign<'_> {
    /// Run `schedule`, judge it, and keep it in the corpus when it
    /// touched an edge no earlier run did (crediting `parent`, the
    /// corpus entry it was mutated from).
    fn run(&mut self, schedule: &Schedule, parent: Option<usize>) {
        let obs = self.runner.run_schedule_with(schedule, self.scenario, Retention::Quiet);
        self.executed += 1;
        let fresh = self.tally.record(self.executed, &obs);
        if fresh > 0 {
            if let Some(p) = parent {
                self.corpus[p].last_novel = self.executed;
            }
            self.corpus.push(CorpusEntry {
                schedule: schedule.clone(),
                novel_edges: fresh,
                last_novel: self.executed,
            });
        }
        self.runner.recycle(obs);
    }
}

/// Run a coverage-guided fuzzing campaign.
///
/// Phase 1 (seeding) derives schedules through all seven kill shapes
/// round-robin from the master stream; phase 2 mutates energy-picked
/// corpus entries until the budget is spent. Every run is
/// oracle-checked; the report carries the exact coverage union, the
/// evolved corpus, and bounded failure records.
pub fn fuzz(cfg: &FuzzCfg, scenario: &ScenarioCfg) -> Result<FuzzReport, FuzzError> {
    scenario.validate().map_err(FuzzError::InvalidConfig)?;
    cfg.validate()?;
    if scenario.buggy_dedup {
        return Err(FuzzError::InvalidConfig(
            "fuzzing targets the hardened ring (the buggy configuration's known \
             Fig. 8 defect would dominate the corpus)"
                .into(),
        ));
    }

    let loaded = match &cfg.corpus {
        Some(p) => load_corpus(p, scenario.ranks)?,
        None => Vec::new(),
    };

    let begun = Instant::now();
    let mut rng = SplitMix64::new(cfg.seed ^ FUZZ_SALT);
    let mut c = Campaign {
        scenario,
        runner: SeedRunner::new(scenario.ranks),
        tally: Tally::new(cfg.max_failures),
        corpus: Vec::new(),
        executed: 0,
    };

    // Scratch buffers reused across the whole campaign.
    let mut scratch = Schedule::default();
    let mut derive_cfg = *scenario;

    // Phase 0: replay the loaded corpus — its entries are the prior
    // campaigns' knowledge and claim their edges first.
    for schedule in loaded.iter().take(cfg.budget.min(usize::MAX as u64) as usize) {
        c.run(schedule, None);
    }

    // Phase 1: seeding across all seven shapes, round-robin. An eighth
    // of the budget (at least 64 runs, at most half) buys breadth; the
    // rest goes to the frontier — and, while the corpus is still empty
    // (tiny budget), to more seeding.
    let seed_budget = (cfg.budget / 8).max(64).min(cfg.budget / 2).max(1);
    let mut seeded = 0u64;
    let mut shape_i = 0usize;
    while c.executed < cfg.budget {
        let seeding = seeded < seed_budget;
        if seeding || c.corpus.is_empty() {
            derive_cfg.shape = KillShape::ALL[shape_i % KillShape::ALL.len()];
            shape_i += 1;
            Schedule::from_seed_into(rng.next_u64(), &derive_cfg, &mut scratch);
            seeded += u64::from(seeding);
            c.run(&scratch, None);
            continue;
        }
        // Phase 2: mutation at the frontier.
        let p = pick_parent(&c.corpus, c.executed, &mut rng);
        // Uniform splice mate (may equal the parent; harmless).
        let partner =
            (c.corpus.len() > 1).then(|| c.corpus[rng.below(c.corpus.len())].schedule.clone());
        scratch.clone_from_pooled(&c.corpus[p].schedule);
        mutate(&mut scratch, partner.as_ref(), scenario, &mut rng);
        c.run(&scratch, Some(p));
    }

    Ok(FuzzReport {
        seed: cfg.seed,
        executed: c.executed,
        loaded: loaded.len() as u64,
        seeded,
        novel: c.corpus.len() as u64,
        green: c.tally.green,
        failing: c.tally.failing,
        hung: c.tally.hung,
        corpus: c.corpus,
        stats: c.tally.stats(),
        dropped_failures: c.tally.dropped,
        failures: c.tally.failures.into_values().collect(),
        discovered: c.tally.edges.iter().collect(),
        elapsed: begun.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_lines_round_trip() {
        let masked = Schedule {
            seed: 0xBEEF,
            kills: vec![
                Kill { victim: 2, hook: HookKind::AfterSend, occurrence: 3 },
                Kill { victim: 0, hook: HookKind::BeforeValidate, occurrence: 1 },
            ],
            delay_mask: Some(vec![1, 5, 299]),
        };
        assert_eq!(
            masked.to_string(),
            "seed=0xbeef kills=[2:AfterSend:3,0:BeforeValidate:1] mask=[1,5,299]"
        );
        // No mask stays `None`, an empty one stays `Some`.
        let bare = Schedule { seed: 1, kills: Vec::new(), delay_mask: None };
        let pinned = Schedule { delay_mask: Some(Vec::new()), ..bare.clone() };
        for s in [&masked, &bare, &pinned] {
            assert_eq!(&s.to_string().parse::<Schedule>().unwrap(), s);
        }
        for bad in [
            "",
            "seed=12 kills=[]",
            "kills=[]",
            "seed=0x1",
            "seed=0x1 kills=[1:Tick:2",
            "seed=0x1 kills=[1:Tock:2]",
            "seed=0x1 kills=[1:Tick]",
            "seed=0x1 kills=[1:Tick:0]",
            "seed=0x1 kills=[] mask=[x]",
            "seed=0x1 kills=[] novel=3",
            "seed=0x1 kills=[] mask=[] novel=3",
        ] {
            assert!(bad.parse::<Schedule>().is_err(), "{bad:?} parsed");
        }
    }

    /// A corpus file is blank lines, `#` comments and `schedule …`
    /// lines of either engine; everything else is an error naming the
    /// line, so nothing unread is ever overwritten.
    #[test]
    fn corpus_loader_reads_both_engines_and_rejects_the_rest() {
        let dir = std::env::temp_dir().join(format!("dst-fuzz-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus");
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            load_corpus(&path, 4)
        };
        let loaded = load(
            b"# dst fuzz corpus v1 edges=0x1\n\n\
              schedule seed=0x2 kills=[1:Tick:4] mask=[7] novel=3\n\
              schedule seed=0x2d kills=[2:AfterSend:2] oracles=no-duplicate hung \
              triage=[rank 0 waits] repro=\"dst replay --seed 0x2d --buggy\"\n",
        )
        .unwrap();
        assert_eq!(
            loaded.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            ["seed=0x2 kills=[1:Tick:4] mask=[7]", "seed=0x2d kills=[2:AfterSend:2]"]
        );
        assert!(load(b"").unwrap().is_empty());
        for (bytes, needle) in [
            (&b"# ok\ngarbage line\n"[..], "corpus:2: not a `schedule"),
            (b"schedule seed=0x1 kills=[1:Tick:2\n", "corpus:1: unterminated kills"),
            (b"schedule seed=0x1\n", "corpus:1: expected kills=["),
            (b"schedule seed=0x1 kills=[4:Tick:2]\n", "corpus:1: kills rank 4"),
            (b"schedule seed=0x1 kills=[1:Tick:0]\n", "corpus:1: occurrences are 1-based"),
            (b"schedule seed=0x1 kills=[] \xff\n", "valid UTF-8"),
        ] {
            match load(bytes) {
                Err(FuzzError::Corpus(m)) => assert!(m.contains(needle), "{m}"),
                other => panic!("{:?} loaded as {other:?}", String::from_utf8_lossy(bytes)),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(load_corpus(&path, 4).unwrap().is_empty(), "a missing file is an empty corpus");
    }

    #[test]
    fn energy_decays_with_staleness() {
        let entry = |last_novel| CorpusEntry {
            schedule: Schedule { seed: 0, kills: Vec::new(), delay_mask: None },
            novel_edges: 1,
            last_novel,
        };
        let now = 10 * ENERGY_HALF_LIFE;
        assert_eq!(energy(&entry(now), now), ENERGY_MAX);
        assert_eq!(energy(&entry(now - ENERGY_HALF_LIFE), now), ENERGY_MAX / 2);
        assert_eq!(energy(&entry(0), now), 1, "stale entries keep a floor of 1");
    }

    #[test]
    fn mutations_respect_schedule_invariants() {
        let scenario = ScenarioCfg::default();
        let mut rng = SplitMix64::new(42);
        let mut s = Schedule {
            seed: 7,
            kills: vec![Kill { victim: 1, hook: HookKind::Tick, occurrence: 4 }],
            delay_mask: None,
        };
        let partner = Schedule {
            seed: 9,
            kills: vec![
                Kill { victim: 0, hook: HookKind::AfterSend, occurrence: 2 },
                Kill { victim: 2, hook: HookKind::AfterRecvComplete, occurrence: 9 },
            ],
            delay_mask: Some(vec![3, 7]),
        };
        for _ in 0..2000 {
            mutate(&mut s, Some(&partner), &scenario, &mut rng);
            assert!(s.kills.len() <= MAX_KILLS.min(scenario.ranks - 1));
            let mut victims: Vec<usize> = s.kills.iter().map(|k| k.victim).collect();
            victims.sort_unstable();
            let n = victims.len();
            victims.dedup();
            assert_eq!(n, victims.len(), "mutation produced duplicate victims");
            for k in &s.kills {
                assert!(k.victim < scenario.ranks);
                assert!(k.occurrence >= 1);
            }
            if let Some(m) = &s.delay_mask {
                assert!(!m.is_empty(), "empty mask must collapse to None");
                assert!(m.windows(2).all(|w| w[0] < w[1]), "mask must stay sorted+dedup");
                assert!(m.iter().all(|&i| i < MASK_WINDOW));
            }
        }
    }

    #[test]
    fn fuzz_rejects_degenerate_configs() {
        let scenario = ScenarioCfg::default();
        let bad = FuzzCfg { budget: 0, ..FuzzCfg::default() };
        assert!(matches!(fuzz(&bad, &scenario), Err(FuzzError::InvalidConfig(_))));
        let buggy = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        assert!(matches!(
            fuzz(&FuzzCfg::default(), &buggy),
            Err(FuzzError::InvalidConfig(_))
        ));
    }

    /// A tiny campaign finds edges, builds a corpus, and stays green
    /// on the hardened ring.
    #[test]
    fn small_campaign_builds_a_corpus() {
        let scenario = ScenarioCfg::default();
        let cfg = FuzzCfg { seed: 1, budget: 30, ..FuzzCfg::default() };
        let report = fuzz(&cfg, &scenario).unwrap();
        assert_eq!(report.executed, 30);
        assert!(report.edges() > 0, "no coverage edges discovered");
        assert!(!report.corpus.is_empty(), "no corpus entries retained");
        assert_eq!(report.green + report.failing, 30);
        assert_eq!(
            report.corpus.iter().map(|e| e.novel_edges).sum::<u64>(),
            report.edges(),
            "corpus novel-edge counts must sum to the union size"
        );
    }
}
