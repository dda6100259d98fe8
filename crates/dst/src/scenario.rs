//! Seed → schedule → observation.
//!
//! A schedule is everything that distinguishes one simulated execution
//! from another: the PRNG seed (which fixes every scheduler decision),
//! the kill-set (which ranks are fail-stopped, where in the protocol),
//! and optionally an explicit delay-mask (which mailbox drains hold
//! messages back). A [`SeedRunner`] executes schedules over the
//! fault-tolerant ring, one [`Observation`] each — the run's own
//! outcomes, trace and verdicts, which the [`crate::oracle`] checkers
//! judge. It is the only executor — the ring is its first
//! [`crate::Workload`] — and sweeps, fuzz campaigns and shrinks hold
//! one and reuse it; the free [`run_seed`] / [`run_schedule`] build
//! one for a single call.
//!
//! Kill-sets are themselves derived from the seed
//! ([`Schedule::from_seed`]), so the whole explored space is indexed by
//! a single `u64`: `dst replay --seed 0xBEEF` reconstructs kills,
//! delays, and interleaving from nothing but that number.

use faultsim::{FaultPlan, HookKind, RunStats};
use ftmpi::{Process, RankOutcome, ReportBuffers, RunReport, TimedEvent, UniversePool};
use ftring::{RingConfig, RingStats};

use crate::coverage::CoverageSet;
use crate::figures::{ring, On};
use crate::sched::{Scheduler, SplitMix64};
use crate::workload::{Kills, Workload};

/// Stream salt so kill derivation never collides with the scheduler's
/// decision stream for the same seed.
pub(crate) const KILL_SALT: u64 = 0x6B69_6C6C_7365_7421;

/// Every hook kind, `Tick` last.
pub(crate) const HOOKS: [HookKind; 9] = [
    HookKind::BeforeSend, HookKind::AfterSend, HookKind::BeforeRecvPost,
    HookKind::AfterRecvComplete, HookKind::BeforeCollective, HookKind::AfterCollective,
    HookKind::BeforeValidate, HookKind::AfterValidate, HookKind::Tick,
];

/// The protocol points kill derivation draws from for "ordinary" kills.
const KILL_HOOKS: [HookKind; 3] =
    [HookKind::Tick, HookKind::AfterSend, HookKind::AfterRecvComplete];

/// Seed-derived kill-shape taxonomy (DESIGN.md §8.8).
///
/// A shape names a *family* of fail-stop patterns; the seed then picks
/// the concrete victims, protocol points and occurrences from the
/// salted kill stream. [`KillShape::Pair`] is the derivation every PR
/// up to 6 explored (0–2 kills anywhere) and stays byte-identical —
/// the frozen golden logs and every recorded seed depend on it. The
/// other shapes push into the regimes the related work shows repair
/// logic breaks in: chains of root deaths, failures *during* the
/// termination consensus, and failures spread across laps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KillShape {
    /// Legacy derivation: 0–2 kills, any victims, ordinary hooks.
    Pair,
    /// Three distinct victims (capped at `ranks - 1`), ordinary hooks,
    /// independent occurrences. At 4 ranks this can reduce the ring to
    /// a single survivor, exercising the paper's alone-in-the-
    /// communicator abort.
    Triple,
    /// The initial root plus its immediate successor(s) — ranks
    /// `0..len` — dying within a few hook occurrences of each other:
    /// the takeover window under maximum pressure.
    RootChain,
    /// Cascading takeover: ranks `0, 1, 2, …` die in strictly
    /// increasing protocol time, so each newly elected root dies in
    /// turn.
    Cascade,
    /// At least one kill lands on a validate hook
    /// (`BeforeValidate`/`AfterValidate`) — failures during the
    /// `MPI_Comm_validate_all` agreement itself; a second victim may
    /// die at an ordinary point to force repair traffic into the
    /// consensus window.
    Validate,
    /// Two to three kills spaced many hook occurrences apart, so
    /// failures land in different laps with full recovery in between.
    Spaced,
    /// Delay-mask-coupled: one or two ordinary kills *plus* an
    /// explicit seed-derived delay-mask (the only shape that populates
    /// [`Schedule::delay_mask`] during exploration). Forced delays pin
    /// message hold-back to exact drain calls instead of leaving it to
    /// the scheduler's random stream, concentrating reorderings around
    /// the failure window — the regime ddmin shrinking replays, now
    /// explored at sweep volume.
    Masked,
}

impl KillShape {
    /// Every shape, in taxonomy order (`dst explore --shape all`
    /// sweeps these).
    pub const ALL: [KillShape; 7] = [
        KillShape::Pair,
        KillShape::Triple,
        KillShape::RootChain,
        KillShape::Cascade,
        KillShape::Validate,
        KillShape::Spaced,
        KillShape::Masked,
    ];

    /// Stable CLI / corpus name.
    pub fn name(self) -> &'static str {
        match self {
            KillShape::Pair => "pair",
            KillShape::Triple => "triple",
            KillShape::RootChain => "root-chain",
            KillShape::Cascade => "cascade",
            KillShape::Validate => "validate",
            KillShape::Spaced => "spaced",
            KillShape::Masked => "masked",
        }
    }

    /// Parse a CLI name (the inverse of [`KillShape::name`]).
    pub fn from_name(s: &str) -> Option<KillShape> {
        match s {
            "pair" => Some(KillShape::Pair),
            "triple" => Some(KillShape::Triple),
            "root-chain" => Some(KillShape::RootChain),
            "cascade" => Some(KillShape::Cascade),
            "validate" => Some(KillShape::Validate),
            "spaced" => Some(KillShape::Spaced),
            "masked" => Some(KillShape::Masked),
            _ => None,
        }
    }
}

impl Default for KillShape {
    fn default() -> Self {
        KillShape::Pair
    }
}

impl std::fmt::Display for KillShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The step budget [`ScenarioBuilder::build`] grants at least, per rank
/// per lap: a failure-free run takes ≈ 3.4, and recovery a few more.
const STEPS_PER_RANK_LAP: u64 = 16;

/// What the ring under test should look like.
///
/// Every field is plain data, so the config is `Copy` — an
/// [`Observation`] carries its scenario by value and "cloning" a
/// config costs nothing. Construct one with [`ScenarioCfg::builder`]
/// (which funnels through the single [`ScenarioCfg::validate`]) or by
/// struct-update off [`ScenarioCfg::default`] in tests.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioCfg {
    /// World size.
    pub ranks: usize,
    /// Ring iterations.
    pub max_iter: u64,
    /// Run the deliberately broken configuration (dedup disabled, the
    /// paper's Fig. 8 double-completion bug) instead of the hardened
    /// ring. Oracles that assume a correct ring are gated off.
    pub buggy_dedup: bool,
    /// Logical-step budget: the livelock backstop. A deadlock is
    /// detected where it happens and never waits for it. A schedule
    /// costs steps in proportion to its messages, ≈ 3.4 per rank per
    /// lap failure-free, so [`ScenarioBuilder::build`] raises it to
    /// 16 per rank per lap where that is more.
    pub step_budget: u64,
    /// Kill-shape family the seed-derived schedules draw from
    /// (hardened ring only; the buggy configuration keeps its own
    /// Fig. 8 derivation).
    pub shape: KillShape,
}

impl Default for ScenarioCfg {
    fn default() -> Self {
        ScenarioCfg {
            ranks: 4,
            max_iter: 3,
            buggy_dedup: false,
            step_budget: 200_000,
            shape: KillShape::Pair,
        }
    }
}

impl ScenarioCfg {
    /// Reject degenerate configurations before they reach a universe.
    ///
    /// `ranks < 2` has no ring to pass a token around (and kill
    /// derivation draws from `ranks - 1` buckets), `max_iter == 0`
    /// silently does nothing, and `step_budget == 0` declares every
    /// run a livelock before its first grant.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks < 2 {
            return Err(format!("ranks must be at least 2 (got {})", self.ranks));
        }
        if self.max_iter == 0 {
            return Err("iters must be at least 1".to_string());
        }
        if self.step_budget == 0 {
            return Err("step budget must be at least 1".to_string());
        }
        if self.buggy_dedup && self.shape != KillShape::Pair {
            return Err(format!(
                "kill shape {} only applies to the hardened ring (the buggy \
                 configuration derives its own Fig. 8 schedules)",
                self.shape
            ));
        }
        Ok(())
    }

    /// The ring configuration this scenario runs.
    pub fn ring_config(&self) -> RingConfig {
        if self.buggy_dedup {
            // DedupStrategy::None is exactly the ring with the
            // iteration-marker check reverted.
            RingConfig::no_dedup(self.max_iter)
        } else {
            RingConfig::with_root_failover(self.max_iter)
        }
    }

    /// Typed builder starting from the defaults. [`ScenarioBuilder::build`]
    /// is the only way out, and it runs [`ScenarioCfg::validate`] — so
    /// every CLI entry point (`explore`, `replay`, `fuzz`) shares one
    /// validation site instead of re-deriving the flag rules.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder { cfg: ScenarioCfg::default() }
    }
}

/// Builder for [`ScenarioCfg`]; see [`ScenarioCfg::builder`].
#[derive(Debug, Clone, Copy)]
pub struct ScenarioBuilder {
    cfg: ScenarioCfg,
}

impl ScenarioBuilder {
    /// World size (`--ranks`).
    pub fn ranks(mut self, n: usize) -> Self {
        self.cfg.ranks = n;
        self
    }

    /// Ring iterations (`--iters`).
    pub fn max_iter(mut self, n: u64) -> Self {
        self.cfg.max_iter = n;
        self
    }

    /// Run the deliberately broken dedup configuration (`--buggy-dedup`).
    pub fn buggy_dedup(mut self, on: bool) -> Self {
        self.cfg.buggy_dedup = on;
        self
    }

    /// Kill-shape family (`--shape`).
    pub fn shape(mut self, s: KillShape) -> Self {
        self.cfg.shape = s;
        self
    }

    /// Validate and produce the config — the single validation funnel.
    /// The step budget grows to 16 per rank per lap if that is more
    /// than the default.
    pub fn build(mut self) -> Result<ScenarioCfg, String> {
        let owed = STEPS_PER_RANK_LAP.saturating_mul(self.cfg.ranks as u64);
        let owed = owed.saturating_mul(self.cfg.max_iter);
        self.cfg.step_budget = self.cfg.step_budget.max(owed);
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// One injected fail-stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    /// World rank to kill.
    pub victim: usize,
    /// Protocol point the kill triggers at.
    pub hook: HookKind,
    /// Which occurrence of the hook (1-based).
    pub occurrence: u64,
}

impl std::fmt::Display for Kill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kill {} at {:?}#{}", self.victim, self.hook, self.occurrence)
    }
}

/// A complete named execution: seed plus derived (or shrunk) kill-set
/// and delay-mask.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Seed for every scheduler decision.
    pub seed: u64,
    /// Fail-stops to inject.
    pub kills: Vec<Kill>,
    /// `None`: delays fire randomly from the seed (exploration).
    /// `Some`: exactly these drain calls delay — replay of a shrunk
    /// schedule, or a [`KillShape::Masked`] derivation.
    pub delay_mask: Option<Vec<u64>>,
}

impl Schedule {
    /// Derive the canonical schedule for `seed` under `cfg`: the
    /// kill-set comes from a salted stream of the same seed shaped by
    /// `cfg.shape`. Delays are left to the scheduler's own randomness
    /// for every shape except [`KillShape::Masked`], which derives an
    /// explicit delay-mask from the same stream (after its kills, so
    /// the kill draws stay independent of the mask width).
    pub fn from_seed(seed: u64, cfg: &ScenarioCfg) -> Self {
        let mut s = Schedule::default();
        Schedule::from_seed_into(seed, cfg, &mut s);
        s
    }

    /// [`Schedule::from_seed`] into an existing schedule, reusing its
    /// kill and mask buffers — the steady-state path (DESIGN.md §8.10):
    /// a [`SeedRunner`] derives thousands of schedules back-to-back and
    /// this keeps the derivation allocation-free after the first seed.
    /// The PRNG draw sequence is identical to the allocating path (only
    /// the collection target differs), so the two derive byte-identical
    /// schedules — the frozen-pair pin and the golden logs referee.
    pub fn from_seed_into(seed: u64, cfg: &ScenarioCfg, out: &mut Schedule) {
        out.seed = seed;
        out.kills.clear();
        let mut rng = SplitMix64::new(seed ^ KILL_SALT);
        if cfg.buggy_dedup {
            derive_buggy(&mut rng, cfg, &mut out.kills);
        } else {
            let kills = &mut out.kills;
            match cfg.shape {
                // Frozen: the golden decision logs and every recorded
                // pair seed name schedules through this draw sequence.
                KillShape::Pair => {
                    let want = rng.below(3);
                    ordinary_kills(&mut rng, cfg.ranks, want, kills)
                }
                KillShape::Triple => ordinary_kills(&mut rng, cfg.ranks, 3, kills),
                KillShape::RootChain => derive_root_chain(&mut rng, cfg, kills),
                KillShape::Cascade => derive_cascade(&mut rng, cfg, kills),
                KillShape::Validate => derive_validate(&mut rng, cfg, kills),
                KillShape::Spaced => derive_spaced(&mut rng, cfg, kills),
                // The mask supplies the pressure, so the kill-set stays
                // simple, and never empty: a mask without a failure
                // exercises nothing the pair shape's random delays don't.
                KillShape::Masked => {
                    let want = 1 + rng.below(2);
                    ordinary_kills(&mut rng, cfg.ranks, want, kills)
                }
            }
        }
        if !cfg.buggy_dedup && cfg.shape == KillShape::Masked {
            let mask = out.delay_mask.get_or_insert_with(Vec::new);
            mask.clear();
            derive_delay_mask(&mut rng, mask);
        } else {
            out.delay_mask = None;
        }
    }

    /// Copy `src`'s content into `self`, reusing `self`'s kill/mask
    /// buffers instead of allocating fresh ones (the derived
    /// `Clone::clone` can't). This is what lets the [`SeedRunner`]
    /// recycle retained observations: a recycled schedule's buffers
    /// flow back into the next run's `Observation::schedule`, so
    /// corpus retention (fuzz mode) costs no per-run heap traffic.
    pub fn clone_from_pooled(&mut self, src: &Schedule) {
        self.seed = src.seed;
        self.kills.clear();
        self.kills.extend_from_slice(&src.kills);
        match &src.delay_mask {
            Some(m) => {
                let mask = self.delay_mask.get_or_insert_with(Vec::new);
                mask.clear();
                mask.extend_from_slice(m);
            }
            None => self.delay_mask = None,
        }
    }
}

/// The one text form of a schedule (DESIGN.md §8.4):
/// `seed=0x… kills=[v:Hook:occ,…]`, then ` mask=[i,…]` when the delay
/// mask is explicit. Hooks are spelled as their `Debug` names.
impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kill = |k: &Kill| format!("{}:{:?}:{}", k.victim, k.hook, k.occurrence);
        let kills: Vec<String> = self.kills.iter().map(kill).collect();
        write!(f, "seed={:#x} kills=[{}]", self.seed, kills.join(","))?;
        if let Some(mask) = &self.delay_mask {
            let mask: Vec<String> = mask.iter().map(u64::to_string).collect();
            write!(f, " mask=[{}]", mask.join(","))?;
        }
        Ok(())
    }
}

/// The comma-separated items of a `key=[…]` token.
fn bracketed<'a>(tok: &'a str, key: &str) -> Result<impl Iterator<Item = &'a str>, String> {
    let inner = tok
        .strip_prefix(key)
        .and_then(|t| t.strip_prefix("=["))
        .ok_or_else(|| format!("expected {key}=[…], got {tok:?}"))?;
    let inner = inner.strip_suffix(']').ok_or_else(|| format!("unterminated {key}: {tok}"))?;
    Ok(inner.split(',').filter(|t| !t.is_empty()))
}

/// One `victim:Hook:occurrence` triple.
fn parse_kill(trip: &str) -> Result<Kill, String> {
    let bad = || format!("expected victim:Hook:occurrence, got {trip:?}");
    let mut parts = trip.split(':');
    let (Some(victim), Some(hook), Some(occurrence), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(bad());
    };
    let kill = Kill {
        victim: victim.parse().map_err(|_| bad())?,
        hook: HOOKS.into_iter().find(|h| format!("{h:?}") == hook).ok_or_else(bad)?,
        occurrence: occurrence.parse().map_err(|_| bad())?,
    };
    if kill.occurrence == 0 {
        return Err(format!("occurrences are 1-based, got {trip:?}"));
    }
    Ok(kill)
}

/// Inverse of the `Display` form; anything after the mask is an error,
/// and so is a mask whose indices are not strictly ascending (every
/// writer emits them sorted and deduplicated, and the fuzzer's mask flip
/// binary-searches them).
impl std::str::FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut toks = s.split_whitespace();
        let seed = toks.next().unwrap_or_default();
        let seed = seed
            .strip_prefix("seed=0x")
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| format!("expected seed=0x<hex>, got {seed:?}"))?;
        let kills = bracketed(toks.next().unwrap_or_default(), "kills")?
            .map(parse_kill)
            .collect::<Result<_, _>>()?;
        let delay_mask = match toks.next() {
            None => None,
            Some(tok) => {
                let mask: Vec<u64> = bracketed(tok, "mask")?
                    .map(|i| i.parse().map_err(|_| format!("bad mask index {i:?}")))
                    .collect::<Result<_, _>>()?;
                if mask.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("mask indices must be strictly ascending, got {tok:?}"));
                }
                Some(mask)
            }
        };
        match toks.next() {
            Some(extra) => Err(format!("unexpected {extra:?} after the schedule")),
            None => Ok(Schedule { seed, kills, delay_mask }),
        }
    }
}

/// Fixed-capacity victim scratch: no shape draws more than 3 distinct
/// victims, so the dedup set lives on the stack and derivation never
/// allocates for it.
#[derive(Default)]
struct Victims {
    buf: [usize; 3],
    len: usize,
}

impl Victims {
    fn push(&mut self, v: usize) {
        self.buf[self.len] = v;
        self.len += 1;
    }

    fn contains(&self, v: usize) -> bool {
        self.buf[..self.len].contains(&v)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.buf[..self.len].iter().copied()
    }
}

/// The Fig. 8 bug needs a victim dying after forwarding the token so
/// the predecessor's resend duplicates it; derive 1–2 such kills among
/// non-root ranks.
fn derive_buggy(rng: &mut SplitMix64, cfg: &ScenarioCfg, kills: &mut Vec<Kill>) {
    let n = 1 + rng.below(2);
    let mut victims = Victims::default();
    while victims.len < n && victims.len < cfg.ranks - 1 {
        let v = 1 + rng.below(cfg.ranks - 1);
        if !victims.contains(v) {
            victims.push(v);
        }
    }
    for v in victims.iter() {
        kills.push(Kill {
            victim: v,
            hook: HookKind::AfterSend,
            occurrence: 1 + rng.below(cfg.max_iter as usize) as u64,
        });
    }
}

/// Up to `want` (≤ 3) distinct victims drawn uniformly from
/// `0..ranks`, never more than `ranks - 1` (at least one rank always
/// survives the *plan* — though with every other rank dead it may
/// legitimately end alone and abort, per Fig. 5).
fn distinct_victims(rng: &mut SplitMix64, ranks: usize, want: usize) -> Victims {
    let mut victims = Victims::default();
    while victims.len < want && victims.len < ranks - 1 {
        let v = rng.below(ranks);
        if !victims.contains(v) {
            victims.push(v);
        }
    }
    victims
}

/// A kill of `victim` at one of the first 25 occurrences of an ordinary
/// protocol point.
fn ordinary_kill(rng: &mut SplitMix64, victim: usize) -> Kill {
    Kill {
        victim,
        hook: KILL_HOOKS[rng.below(KILL_HOOKS.len())],
        occurrence: 1 + rng.below(25) as u64,
    }
}

/// Up to `want` distinct victims, then an ordinary kill of each: the
/// pair, triple and masked shapes.
fn ordinary_kills(rng: &mut SplitMix64, ranks: usize, want: usize, kills: &mut Vec<Kill>) {
    for v in distinct_victims(rng, ranks, want).iter() {
        kills.push(ordinary_kill(rng, v));
    }
}

/// The initial root and its immediate successor(s) — ranks `0..len` —
/// dying within a few hook occurrences of one another.
fn derive_root_chain(rng: &mut SplitMix64, cfg: &ScenarioCfg, kills: &mut Vec<Kill>) {
    let len = (2 + rng.below(2)).min(cfg.ranks - 1);
    let base = 1 + rng.below(12) as u64;
    for v in 0..len {
        kills.push(Kill {
            victim: v,
            hook: KILL_HOOKS[rng.below(KILL_HOOKS.len())],
            occurrence: base + rng.below(3) as u64,
        });
    }
}

/// Cascading takeover: ranks `0, 1, 2, …` die at strictly increasing
/// occurrences, so each newly elected root dies in turn.
fn derive_cascade(rng: &mut SplitMix64, cfg: &ScenarioCfg, kills: &mut Vec<Kill>) {
    let max_chain = (cfg.ranks - 1).min(4);
    let len = 2 + rng.below(max_chain.saturating_sub(1).max(1));
    let len = len.min(max_chain);
    let mut occurrence = 1 + rng.below(8) as u64;
    for v in 0..len {
        kills.push(Kill {
            victim: v,
            hook: KILL_HOOKS[rng.below(KILL_HOOKS.len())],
            occurrence,
        });
        occurrence += 1 + rng.below(6) as u64;
    }
}

/// One or two victims with at least one kill on a validate hook —
/// failure *during* the `MPI_Comm_validate_all` agreement. A second
/// victim (when drawn) dies either in the consensus too or at an
/// ordinary point, pushing repair traffic into the validate window.
fn derive_validate(rng: &mut SplitMix64, cfg: &ScenarioCfg, kills: &mut Vec<Kill>) {
    const VALIDATE_HOOKS: [HookKind; 2] =
        [HookKind::BeforeValidate, HookKind::AfterValidate];
    let n = 1 + rng.below(2);
    let victims = distinct_victims(rng, cfg.ranks, n);
    for (i, v) in victims.iter().enumerate() {
        if i == 0 || rng.below(2) == 0 {
            kills.push(Kill {
                victim: v,
                hook: VALIDATE_HOOKS[rng.below(VALIDATE_HOOKS.len())],
                occurrence: 1 + rng.below(2) as u64,
            });
        } else {
            kills.push(ordinary_kill(rng, v));
        }
    }
}

/// Two to three kills spaced 15–34 hook occurrences apart: failures in
/// different laps, full recovery (detector fire, resend, possible
/// takeover) completing between them.
fn derive_spaced(rng: &mut SplitMix64, cfg: &ScenarioCfg, kills: &mut Vec<Kill>) {
    let n = 2 + rng.below(2);
    let victims = distinct_victims(rng, cfg.ranks, n);
    let mut occurrence = 1 + rng.below(10) as u64;
    for v in victims.iter() {
        kills.push(Kill {
            victim: v,
            hook: KILL_HOOKS[rng.below(KILL_HOOKS.len())],
            occurrence,
        });
        occurrence += 15 + rng.below(20) as u64;
    }
}

/// Seed-derived forced-delay set for [`KillShape::Masked`]: 4–24 drain
/// calls drawn from the first 300 (the window the kill occurrences
/// above land in), deduplicated and sorted. Drains past the window
/// deliver in full, so a masked run always makes progress — the mask
/// concentrates reordering, it cannot starve the ring.
fn derive_delay_mask(rng: &mut SplitMix64, mask: &mut Vec<u64>) {
    let n = 4 + rng.below(21);
    for _ in 0..n {
        mask.push(rng.below(300) as u64);
    }
    mask.sort_unstable();
    mask.dedup();
}

/// Everything the oracles can see about one executed schedule.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The schedule that was run.
    pub schedule: Schedule,
    /// The scenario it ran under.
    pub cfg: ScenarioCfg,
    /// How each rank ended, indexed by world rank: a survivor with its
    /// ring stats.
    pub outcomes: Vec<RankOutcome<RingStats>>,
    /// Whether the run hung: the scheduler ended it with a deadlock or
    /// a livelock verdict and every rank aborted.
    pub hung: bool,
    /// The step at which no suspended rank was enabled any more — the
    /// deadlock, reported where it happened.
    pub deadlock_at: Option<u64>,
    /// Whether the step budget (the livelock backstop) ran out.
    pub budget_exhausted: bool,
    /// The protocol trace with logical-step timestamps.
    pub trace: Vec<TimedEvent>,
    /// The scheduler's decision log, one line per decision.
    pub log: String,
    /// Drain calls that delayed delivery during this run.
    pub delay_calls: Vec<u64>,
    /// Every per-run statistic on one surface ([`faultsim::RunStats`]):
    /// scheduling counters, the coverage summary, and heap-allocation
    /// counters for the whole schedule — the rank bodies and the
    /// harness's own work (schedule derivation, scheduler construction,
    /// observation assembly), all on the calling thread and each
    /// allocation counted once by the [`allocstats::StatsAlloc`] global
    /// allocator this crate installs.
    pub stats: RunStats,
    /// The run's full coverage-edge set (summarized by
    /// `stats.coverage`), harvested from the scheduler — the fuzzer's
    /// novelty signal.
    pub coverage: CoverageSet,
}

/// How much per-run history a schedule execution retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Record the full decision log and delay list (replay, shrinking,
    /// anything a human will read).
    Full,
    /// Retain only what verdicts need: trace, outcomes, stats, hang
    /// flags. `Observation::log` and `Observation::delay_calls` come
    /// back empty. Sweeps run this way; a failing seed is re-run with
    /// [`Retention::Full`] — determinism guarantees the identical
    /// schedule — when its log is wanted.
    Quiet,
}

/// The one schedule executor: a persistent [`UniversePool`] at a fixed
/// rank count, running schedules back-to-back without per-run stack
/// mappings or universe-state reallocation. The runner keeps one
/// [`Scheduler`] and one fault plan and resets them in place for every
/// run; an observation handed back through [`SeedRunner::recycle`]
/// lends the next run its buffers, so a warm runner's schedule
/// allocates nothing the rank bodies do not.
///
/// A schedule's observation does not depend on what the runner ran
/// before it: the pool starts the ranks in rank order on their
/// coroutine stacks and its reset protocol rewinds all shared state
/// (the golden-log suite renders every pinned seed both on a fresh
/// runner and through ONE runner, against the same goldens). The sweep
/// engine holds one runner per worker, a fuzz campaign and a shrink
/// one each; [`run_seed`] and [`run_schedule`] build one for a single
/// call.
pub struct SeedRunner {
    pub(crate) pool: UniversePool,
    /// The scheduler of every run, reset for the next.
    pub(crate) sched: Scheduler,
    /// The running schedule's kills as a fault plan, refilled per run.
    plan: FaultPlan,
    /// Scratch schedule reused across [`SeedRunner::run_seed`] calls:
    /// [`Schedule::from_seed_into`] rewrites it in place, so the
    /// kill/mask vectors warm up once and steady-state derivation
    /// stops allocating per seed.
    derive: Schedule,
    /// Recycled schedule buffers ([`SeedRunner::recycle`]): the next
    /// run's `Observation::schedule` is built by
    /// [`Schedule::clone_from_pooled`] into one of these instead of a
    /// fresh `clone()`, so retaining observations (fuzz corpus,
    /// failure summaries) adds no per-run heap traffic.
    schedules: Vec<Schedule>,
    /// A recycled observation's outcomes and trace, and the last run's
    /// generations: the next ring run's report is built in them.
    reports: ReportBuffers<RingStats>,
    /// A recycled observation's coverage set, for the scheduler to
    /// record the next run's into.
    coverage: CoverageSet,
}

impl SeedRunner {
    /// A runner for universes of `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        SeedRunner {
            pool: UniversePool::new(ranks),
            sched: Scheduler::new(ranks, 0, 0),
            plan: FaultPlan::none(),
            derive: Schedule::default(),
            schedules: Vec::new(),
            reports: ReportBuffers::default(),
            coverage: CoverageSet::default(),
        }
    }

    /// The rank count this runner's pool was built for.
    pub fn ranks(&self) -> usize {
        self.pool.size()
    }

    /// Return an observation's buffers to the runner once its verdict
    /// is extracted: its outcomes, trace and coverage set hold the next
    /// run's, and a small stack of spare schedules the next
    /// observations' copies. Its log and delay list drop.
    pub fn recycle(&mut self, obs: Observation) {
        if self.schedules.len() < 4 {
            self.schedules.push(obs.schedule);
        }
        self.reports.outcomes = obs.outcomes;
        self.reports.trace = obs.trace;
        self.coverage = obs.coverage;
    }

    /// Execute one schedule deterministically and observe the result —
    /// the single execution path every entry point funnels into.
    pub fn run_schedule_with(
        &mut self,
        schedule: &Schedule,
        cfg: &ScenarioCfg,
        retention: Retention,
    ) -> Observation {
        assert_eq!(
            cfg.ranks,
            self.pool.size(),
            "scenario rank count does not match this runner's pool"
        );
        // Everything a schedule allocates happens on this thread — the
        // harness's own work (scheduler reset, plan fold, observation
        // assembly) and, since simulated ranks are coroutines driven
        // from here, the rank bodies too — so one snapshot pair counts
        // each allocation exactly once.
        let alloc_before = allocstats::snapshot();
        let ring = Ring { config: cfg.ring_config(), kills: &schedule.kills };
        let plan = plan_in(std::mem::take(&mut self.plan), &schedule.kills);
        self.arm(schedule.seed, cfg.step_budget, retention, schedule.delay_mask.as_deref());
        let reports = std::mem::take(&mut self.reports);
        let RunReport { outcomes, hung, trace, generations, stats, .. } =
            self.run_in(&ring, &plan, reports);
        self.plan = plan;
        self.reports.generations = generations;

        // The observation's schedule copy reuses a recycled buffer when
        // there is one (§8.10: retention must not cost a fresh clone
        // per run).
        let mut own_schedule = self.schedules.pop().unwrap_or_default();
        own_schedule.clone_from_pooled(schedule);

        let sched = &mut self.sched;
        let mut obs = Observation {
            schedule: own_schedule,
            cfg: *cfg,
            outcomes,
            hung,
            deadlock_at: sched.deadlock_at(),
            budget_exhausted: sched.budget_exhausted(),
            trace,
            log: sched.log_text(),
            delay_calls: sched.delay_calls(),
            // Handoff + coverage summary, via the one RunStats surface
            // the pool assembled; `alloc` is overwritten below.
            stats,
            coverage: sched.take_coverage(std::mem::take(&mut self.coverage)),
        };
        // Snapshot *after* assembly so the observation's own work
        // counts. This interval contains the one `report.stats.alloc`
        // covers (the pool's drive loop), so it replaces that figure
        // instead of adding to it.
        obs.stats.alloc = allocstats::snapshot().since(&alloc_before);
        obs
    }

    /// Derive the schedule for `seed` and run it with the full decision
    /// log ([`Retention::Full`]).
    pub fn run_seed(&mut self, seed: u64, cfg: &ScenarioCfg) -> Observation {
        self.run_seed_with(seed, cfg, Retention::Full)
    }

    /// [`SeedRunner::run_seed`] without log retention
    /// ([`Retention::Quiet`]) — the sweep engine's per-seed workhorse.
    pub fn run_seed_quiet(&mut self, seed: u64, cfg: &ScenarioCfg) -> Observation {
        self.run_seed_with(seed, cfg, Retention::Quiet)
    }

    /// Derive into the runner's scratch schedule (no per-seed
    /// allocation once the vectors are warm) and execute it, counting
    /// the derivation's heap traffic into the observation so seed-level
    /// entry points report whole-schedule numbers.
    fn run_seed_with(
        &mut self,
        seed: u64,
        cfg: &ScenarioCfg,
        retention: Retention,
    ) -> Observation {
        let before = allocstats::snapshot();
        let mut schedule = std::mem::take(&mut self.derive);
        Schedule::from_seed_into(seed, cfg, &mut schedule);
        let derive = allocstats::snapshot().since(&before);
        let mut obs = self.run_schedule_with(&schedule, cfg, retention);
        self.derive = schedule;
        obs.stats.alloc.add(&derive);
        obs
    }
}

/// The fault-tolerant ring as a [`Workload`]: the first implementor,
/// its plan the kills of one schedule whatever the seed.
struct Ring<'a> {
    config: RingConfig,
    kills: &'a [Kill],
}

impl Workload for Ring<'_> {
    type Report = RingStats;

    fn body(&self, p: &mut Process) -> ftmpi::Result<RingStats> {
        ring(p, &self.config, On::World, 1)
    }

    fn kills(&self, _seed: u64, _ranks: usize) -> Kills {
        Kills::Plan(plan(self.kills))
    }
}

/// `kills` as a fault plan.
pub(crate) fn plan(kills: &[Kill]) -> FaultPlan {
    plan_in(FaultPlan::none(), kills)
}

/// `kills` as a fault plan, in `plan`'s allocation.
fn plan_in(mut plan: FaultPlan, kills: &[Kill]) -> FaultPlan {
    plan.clear();
    kills.iter().fold(plan, |p, k| p.kill_at(k.victim, k.hook, k.occurrence))
}

/// Convenience: run one schedule, full log, on a runner built for this
/// call.
pub fn run_schedule(schedule: &Schedule, cfg: &ScenarioCfg) -> Observation {
    SeedRunner::new(cfg.ranks).run_schedule_with(schedule, cfg, Retention::Full)
}

/// Convenience: derive the schedule for `seed` and run it, full log,
/// on a runner built for this call.
pub fn run_seed(seed: u64, cfg: &ScenarioCfg) -> Observation {
    SeedRunner::new(cfg.ranks).run_seed(seed, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_derivation_is_deterministic_and_in_range() {
        let cfg = ScenarioCfg::default();
        for seed in 0..50 {
            let a = Schedule::from_seed(seed, &cfg);
            let b = Schedule::from_seed(seed, &cfg);
            assert_eq!(a.kills, b.kills);
            assert!(a.kills.len() <= 2);
            for k in &a.kills {
                assert!(k.victim < cfg.ranks);
                assert!(k.occurrence >= 1);
            }
        }
    }

    /// Every shape derives deterministically, keeps victims in range
    /// and distinct, and never names more than `ranks - 1` victims.
    #[test]
    fn every_shape_derives_deterministically_and_in_range() {
        for ranks in [2usize, 4, 8] {
            for shape in KillShape::ALL {
                let cfg = ScenarioCfg { ranks, shape, ..ScenarioCfg::default() };
                for seed in 0..200 {
                    let a = Schedule::from_seed(seed, &cfg);
                    let b = Schedule::from_seed(seed, &cfg);
                    assert_eq!(a.kills, b.kills, "{shape} seed {seed} not deterministic");
                    assert!(
                        a.kills.len() <= ranks - 1,
                        "{shape} seed {seed} kills every rank: {:?}",
                        a.kills
                    );
                    let mut victims: Vec<usize> =
                        a.kills.iter().map(|k| k.victim).collect();
                    victims.sort_unstable();
                    let before = victims.len();
                    victims.dedup();
                    assert_eq!(before, victims.len(), "{shape} seed {seed} repeats a victim");
                    for k in &a.kills {
                        assert!(k.victim < ranks, "{shape} seed {seed} out-of-range victim");
                        assert!(k.occurrence >= 1, "{shape} seed {seed} zero occurrence");
                    }
                }
            }
        }
    }

    /// Each shape's structural signature is reachable from the seed
    /// stream: the schedules a shape promises actually occur.
    #[test]
    fn every_shape_signature_is_reachable() {
        let seeds = 0..300u64;
        let cfg_for = |shape| ScenarioCfg { shape, ..ScenarioCfg::default() };

        // Triple: three victims at 4 ranks (the cap allows it).
        assert!(
            seeds.clone().any(|s| {
                Schedule::from_seed(s, &cfg_for(KillShape::Triple)).kills.len() == 3
            }),
            "no triple-kill schedule in the window"
        );

        // RootChain: victims are exactly 0..len with occurrences within
        // a 3-wide window, for every seed.
        for s in seeds.clone() {
            let kills = Schedule::from_seed(s, &cfg_for(KillShape::RootChain)).kills;
            assert!(kills.len() >= 2);
            for (i, k) in kills.iter().enumerate() {
                assert_eq!(k.victim, i, "root-chain victims must be 0..len");
            }
            let lo = kills.iter().map(|k| k.occurrence).min().unwrap();
            let hi = kills.iter().map(|k| k.occurrence).max().unwrap();
            assert!(hi - lo <= 2, "root-chain kills not in close succession");
        }

        // Cascade: victims 0..len, occurrences strictly increasing.
        let mut saw_len_3 = false;
        for s in seeds.clone() {
            let kills = Schedule::from_seed(s, &cfg_for(KillShape::Cascade)).kills;
            assert!(kills.len() >= 2);
            saw_len_3 |= kills.len() == 3;
            for (i, k) in kills.iter().enumerate() {
                assert_eq!(k.victim, i, "cascade victims must be 0..len");
            }
            for w in kills.windows(2) {
                assert!(
                    w[1].occurrence > w[0].occurrence,
                    "cascade occurrences must strictly increase"
                );
            }
        }
        assert!(saw_len_3, "no length-3 cascade in the window");

        // Validate: the first kill is always on a validate hook.
        for s in seeds.clone() {
            let kills = Schedule::from_seed(s, &cfg_for(KillShape::Validate)).kills;
            assert!(!kills.is_empty());
            assert!(
                matches!(kills[0].hook, HookKind::BeforeValidate | HookKind::AfterValidate),
                "validate shape must kill inside the agreement"
            );
        }

        // Spaced: consecutive kills at least 15 occurrences apart.
        for s in seeds.clone() {
            let kills = Schedule::from_seed(s, &cfg_for(KillShape::Spaced)).kills;
            assert!(kills.len() >= 2);
            for w in kills.windows(2) {
                assert!(
                    w[1].occurrence >= w[0].occurrence + 15,
                    "spaced kills must be widely separated"
                );
            }
        }

        // Masked: the only shape that populates the delay mask —
        // non-empty, bounded, sorted, all indices in the drain window.
        for s in seeds {
            let sch = Schedule::from_seed(s, &cfg_for(KillShape::Masked));
            assert!(!sch.kills.is_empty(), "masked shape must kill someone");
            assert!(sch.kills.len() <= 2);
            let mask = sch.delay_mask.expect("masked shape must derive a delay mask");
            assert!(!mask.is_empty() && mask.len() <= 24, "mask out of bounds");
            assert!(mask.iter().all(|&i| i < 300), "mask index past drain window");
            assert!(
                mask.windows(2).all(|w| w[0] < w[1]),
                "mask must be sorted and deduplicated"
            );
        }

        // Every other shape leaves delays to the scheduler stream.
        for shape in KillShape::ALL.into_iter().filter(|s| *s != KillShape::Masked) {
            let sch = Schedule::from_seed(7, &cfg_for(shape));
            assert!(sch.delay_mask.is_none(), "{shape} must not derive a mask");
        }
    }

    /// The Pair derivation is frozen: adding the taxonomy must not
    /// move a single legacy schedule (golden logs + every recorded
    /// seed depend on this). Pinned against schedules recorded before
    /// the `KillShape` refactor.
    #[test]
    fn pair_derivation_is_frozen() {
        let cfg = ScenarioCfg::default();
        // Seed 0x7f3's pre-taxonomy schedule (double_kill_seeds.rs).
        let s = Schedule::from_seed(0x7f3, &cfg);
        assert_eq!(
            s.kills,
            vec![
                Kill { victim: 0, hook: HookKind::Tick, occurrence: 7 },
                Kill { victim: 1, hook: HookKind::AfterRecvComplete, occurrence: 2 },
            ]
        );
    }

    #[test]
    fn shape_names_round_trip() {
        for shape in KillShape::ALL {
            assert_eq!(KillShape::from_name(shape.name()), Some(shape));
        }
        assert_eq!(KillShape::from_name("all"), None);
        assert_eq!(KillShape::from_name("bogus"), None);
    }

    /// `--shape` is a hardened-ring concept; the buggy configuration
    /// rejects any other shape at validation.
    #[test]
    fn buggy_rejects_non_pair_shapes() {
        let cfg = ScenarioCfg {
            buggy_dedup: true,
            shape: KillShape::Cascade,
            ..ScenarioCfg::default()
        };
        assert!(cfg.validate().is_err());
        let ok = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn buggy_schedules_always_kill_a_non_root() {
        let cfg = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        for seed in 0..50 {
            let s = Schedule::from_seed(seed, &cfg);
            assert!(!s.kills.is_empty());
            for k in &s.kills {
                assert!(k.victim >= 1 && k.victim < cfg.ranks);
                assert_eq!(k.hook, HookKind::AfterSend);
            }
        }
    }
}
