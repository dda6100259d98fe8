//! The seeded scheduler (the heart of the harness).
//!
//! One [`Scheduler`] decides one `ftmpi` universe through the
//! [`SchedHook`] instrumentation. Under a hook the runtime runs every
//! rank as a coroutine on one thread: a rank *arrives* at a scheduling
//! point, and with every live rank suspended there the runtime asks
//! [`SchedHook::next`] which one resumes — the arriving rank itself,
//! which then switches straight to it, or the driver after an exit. The
//! whole interleaving is therefore a *sequence of decisions*, and each
//! decision (which rank runs next, which ready request completes,
//! which sender matches, how many queued envelopes are delivered) is
//! drawn from a splitmix64 PRNG seeded with a single `u64` — so one
//! seed names one complete schedule, reproducible forever, and the
//! decision log it leaves behind is byte-identical across runs.
//!
//! The scheduler is a plain decision structure — the enabled and the
//! blocked ranks, three PRNG streams, the log, coverage and the budget.
//! It owns no thread handle, never blocks and takes no lock: the
//! harness lends it `&mut` to the run (`UniverseConfig::sim`) and reads
//! the log once the run has returned it.
//!
//! ### Dispatch
//!
//! * [`SchedHook::arrive`] sets a suspended rank's bit in `waiting`
//!   (enabled) or, at [`SchedPoint::Blocked`] — the runtime found
//!   nothing for it to do — in `blocked`. [`SchedHook::wake`] (a
//!   delivery to that rank) moves one bit back, [`SchedHook::wake_all`]
//!   (kill, abort, validate / barrier / split decision) ORs `blocked`
//!   into `waiting` word by word; both are bitmaps sized for every rank.
//! * [`SchedHook::next`] takes the `rng.below(len)`-th enabled rank in
//!   ascending order and logs `grant`, so a schedule costs steps in
//!   proportion to the messages it moves, not to ranks × messages. A
//!   draw of the rank that arrived last is a *self-grant*
//!   ([`SchedHook::run_stats`]). The number of draws is the **logical
//!   clock**.
//! * **Deadlock is a verdict.** `waiting` empty with `blocked`
//!   non-empty means every suspended rank waits for an event only
//!   another suspended rank could cause: the scheduler logs `deadlock`
//!   at that step ([`Scheduler::deadlock_at`]) and ends the run. The
//!   step budget is the **livelock** backstop: a schedule that keeps
//!   granting without anyone exiting is ended when the clock passes
//!   it, logged as `budget-exhausted`.
//! * Either way `next` then hands every suspended rank
//!   `StepOutcome::Abort`, lowest rank first and without touching the
//!   PRNG, until all of them have left; each dumps the requests it is
//!   parked on as it goes, which for a deadlock is the wait-for graph
//!   at the step it formed.
//!
//! ### Recording toggle (zero-retention exploration)
//!
//! [`Scheduler::new`] is the one constructor and records every
//! decision into the log (replay, shrinking, tests). The
//! [`Scheduler::quiet`] modifier runs the *same* schedule — every PRNG
//! stream advances identically — but retains nothing: no `SchedEvent`
//! allocation per step, no delay list. Exploration sweeps run quiet; a
//! failing seed is simply re-run recorded (same seed, same schedule, by
//! determinism) when its log is wanted.
//!
//! ### Delays
//!
//! A mailbox drain with `q` queued envelopes asks for a choice among
//! `q + 1` alternatives; answering `k < q` delivers only the first `k`
//! and *delays* the rest (per-pair FIFO is preserved because only a
//! prefix is taken). By default delays fire randomly; the
//! [`Scheduler::delay_mask`] modifier pins exactly which drain calls
//! delay (each drain compares its index with the next one due), which
//! is what makes the delay-set a first-class, minimizable part of a
//! failure schedule. The two modifiers compose.
//!
//! ### Coverage
//!
//! Alongside the decision log, every decision sets a bit in a
//! [`CoverageSet`] of `(rank, decision-kind, protocol-phase)` edges —
//! the feedback signal for `dst fuzz` (DESIGN.md §8.11). Collection is
//! recording-independent (quiet schedulers cover too), touches no PRNG
//! stream, and never writes the log, so it is schedule-invisible: the
//! golden logs referee that adding coverage changed nothing.
//!
//! ### Limitation
//!
//! A simulated rank gives up the thread only at a scheduling point.
//! All `ftmpi` library blocking funnels through one (`wait_loop`);
//! application closures that spin on `yield_now` without calling the
//! runtime would wedge the simulation and must not be used under it.
//! A loop around `test` / `iprobe` that also sends is always enabled
//! and never blocks: if it cannot finish it is a livelock, and the
//! budget is what ends it.

use std::fmt::Write as _;

use crate::coverage::{mix, CoverageSet, EdgeKind, PHASE_CAP};
use faultsim::{ChoiceKind, HandoffStats, Rank, RunStats, SchedHook, SchedPoint, StepOutcome};

/// Deterministic splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform draw in `0..n` (`n > 0`): the draw modulo `n`, taken
    /// with a mask when `n` is a power of two.
    pub fn below(&mut self, n: usize) -> usize {
        let (draw, n) = (self.next_u64(), n as u64);
        (if n.is_power_of_two() { draw & (n - 1) } else { draw % n }) as usize
    }
}

/// A set of ranks as a bitmap, one bit per rank, with its size.
struct RankSet {
    words: Vec<u64>,
    len: usize,
}

impl RankSet {
    /// Empty set for ranks `0..n`: it never allocates again.
    fn new(n: usize) -> Self {
        RankSet { words: vec![0; n.div_ceil(64)], len: 0 }
    }

    /// Add `rank`, which is not in the set.
    fn insert(&mut self, rank: Rank) {
        debug_assert_eq!(self.words[rank / 64] >> (rank % 64) & 1, 0, "rank {rank} filed twice");
        self.words[rank / 64] |= 1 << (rank % 64);
        self.len += 1;
    }

    /// Take `rank` out; `false` if it was not in the set. A branch, not
    /// `len -= usize::from(had)`: rustc 1.95's optimiser drops that
    /// decrement once this is inlined into `wake`.
    fn remove(&mut self, rank: Rank) -> bool {
        let (word, bit) = (&mut self.words[rank / 64], 1 << (rank % 64));
        if *word & bit == 0 {
            return false;
        }
        *word ^= bit;
        self.len -= 1;
        true
    }

    /// Take out the `k`-th member in ascending order (`k < len`).
    fn take_nth(&mut self, mut k: usize) -> Rank {
        let mut i = 0;
        // A one-word set needs no bit count.
        while self.words.len() > 1 && k >= self.words[i].count_ones() as usize {
            k -= self.words[i].count_ones() as usize;
            i += 1;
        }
        // Clear the `k` lowest members; the next one is the pick.
        let bit = (0..k).fold(self.words[i], |word, _| word & (word - 1)).trailing_zeros();
        self.words[i] ^= 1 << bit;
        self.len -= 1;
        i * 64 + bit as usize
    }

    /// Move every member of `other` into this set (the two are disjoint).
    fn take_all(&mut self, other: &mut RankSet) {
        for (mine, theirs) in self.words.iter_mut().zip(&mut other.words) {
            *mine |= std::mem::take(theirs);
        }
        self.len += std::mem::take(&mut other.len);
    }
}

/// One recorded scheduler decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedEvent {
    /// `rank` was granted the execution token.
    Grant {
        /// The granted rank.
        rank: Rank,
    },
    /// An `n`-way choice by `rank` was answered with `pick`.
    Choice {
        /// The choosing rank.
        rank: Rank,
        /// What kind of decision this was.
        kind: ChoiceKind,
        /// Number of alternatives.
        n: usize,
        /// The chosen alternative.
        pick: usize,
        /// For [`ChoiceKind::Drain`]: the global drain-call index (the
        /// handle the delay mask keys on).
        call: Option<u64>,
    },
    /// `victim` was fail-stopped.
    Kill {
        /// The killed rank.
        victim: Rank,
    },
    /// `rank` left the universe.
    Exit {
        /// The departing rank.
        rank: Rank,
    },
    /// No suspended rank is enabled: the run deadlocked at this step.
    Deadlock,
    /// The step budget ran out: the livelock backstop fired.
    Budget,
}

impl std::fmt::Display for SchedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedEvent::Grant { rank } => write!(f, "grant {rank}"),
            SchedEvent::Choice { rank, kind, n, pick, call } => {
                let kind = match kind {
                    ChoiceKind::WaitAny => "waitany",
                    ChoiceKind::AnySource => "anysource",
                    ChoiceKind::Drain => "drain",
                };
                write!(f, "choice {rank} {kind} {pick}/{n}")?;
                if let Some(c) = call {
                    write!(f, " call={c}")?;
                }
                Ok(())
            }
            SchedEvent::Kill { victim } => write!(f, "kill {victim}"),
            SchedEvent::Exit { rank } => write!(f, "exit {rank}"),
            SchedEvent::Deadlock => write!(f, "deadlock"),
            SchedEvent::Budget => write!(f, "budget-exhausted"),
        }
    }
}

/// Out of 16: how often a drain call delays in exploration mode.
const DELAY_WEIGHT: u64 = 4;

/// The seeded scheduler. Construct, lend `&mut` to
/// [`ftmpi::UniverseConfig::sim`], and read it after the run.
pub struct Scheduler {
    /// Enabled ranks suspended at a step point: a grant takes the
    /// PRNG's pick among them in ascending rank order.
    waiting: RankSet,
    /// Ranks suspended at [`SchedPoint::Blocked`]: not drawn until
    /// `wake` / `wake_all` moves them to `waiting`.
    blocked: RankSet,
    /// The rank whose arrival is the latest event, until the next
    /// decision consumes it: a grant drawing this rank is a self-grant.
    /// An exit is not an arrival, so it leaves this alone and the
    /// grant after it is never one.
    stepped: Option<Rank>,
    /// Grant and waitany/anysource decisions. Kept separate from the
    /// delay streams so installing a delay mask (which suppresses the
    /// delay-decision draws) cannot shift scheduling decisions — masked
    /// replay of the full delay-set must reproduce the exploration run
    /// exactly, or shrinking would be unsound.
    rng: SplitMix64,
    /// Exploration-mode "should this drain delay?" decisions.
    rng_delay: SplitMix64,
    /// "How much of the queue to withhold" draws for delaying drains.
    rng_amount: SplitMix64,
    steps: u64,
    /// Livelock is declared once `steps` passes this.
    budget: u64,
    /// The run is over (deadlock or budget): every suspended rank is
    /// in `waiting` and is handed `Abort`.
    aborted: bool,
    /// The step at which no suspended rank was enabled, if that is how
    /// the run ended.
    deadlock_at: Option<u64>,
    /// When false ([`Scheduler::quiet`]), no event or delay-call history
    /// is retained — the PRNG streams still advance identically, so the
    /// schedule is the same, only log-free.
    record: bool,
    log: Vec<SchedEvent>,
    /// Global drain-call counter (handle for the delay mask).
    drain_calls: u64,
    /// Drain calls that delayed (pick < queue length).
    delays: Vec<u64>,
    /// When set ([`Scheduler::delay_mask`]): exactly these drain calls
    /// delay. Descending, so the next one due is the last.
    delay_mask: Option<Vec<u64>>,
    /// Grants actually issued (excludes the budget-exhausting draw).
    grants: u64,
    /// Grants that drew the rank that had just stepped.
    self_grants: u64,
    /// `waiting.len()` summed over the grants.
    enabled: u64,
    /// Coverage-edge set for this run (always collected; quiet mode
    /// only suppresses the *log*, not the coverage signal).
    coverage: CoverageSet,
    /// Fail-stops delivered so far, saturated at [`PHASE_CAP`] — the
    /// protocol-phase coordinate of every coverage edge.
    kills_seen: u8,
}

impl Scheduler {
    /// Scheduler for `n` ranks: every decision drawn from `seed`,
    /// livelock declared after `budget` steps, delays fired at random
    /// from the seed, and the full decision log recorded. The one constructor;
    /// [`Scheduler::quiet`] and [`Scheduler::delay_mask`] modify it.
    pub fn new(n: usize, seed: u64, budget: u64) -> Self {
        Scheduler {
            waiting: RankSet::new(n),
            blocked: RankSet::new(n),
            stepped: None,
            rng: SplitMix64::new(seed),
            rng_delay: SplitMix64::new(seed ^ 0x64656C_61797321),
            rng_amount: SplitMix64::new(seed ^ 0x616D6F_756E7421),
            steps: 0,
            budget,
            aborted: false,
            deadlock_at: None,
            record: true,
            log: Vec::new(),
            drain_calls: 0,
            delays: Vec::new(),
            delay_mask: None,
            grants: 0,
            self_grants: 0,
            enabled: 0,
            coverage: CoverageSet::new(n),
            kills_seen: 0,
        }
    }

    /// Zero retention: the identical schedule (every PRNG stream
    /// advances the same way) with no decision log and no delay list.
    /// Sweeps run quiet; a failing seed is re-run recorded to recover
    /// its log deterministically.
    pub fn quiet(mut self) -> Self {
        self.record = false;
        self
    }

    /// Pin the delays: drain calls whose index is in `mask` are forced
    /// to delay, every other drain delivers in full. Grant and
    /// waitany/anysource decisions still come from the seed. Shrinking
    /// replays masks it minimizes; the `masked` kill shape sweeps
    /// seed-derived ones (quiet, at volume).
    pub fn delay_mask(mut self, mask: &[u64]) -> Self {
        let mut mask = mask.to_vec();
        mask.sort_unstable_by(|a, b| b.cmp(a));
        mask.dedup();
        self.delay_mask = Some(mask);
        self
    }

    /// The decision log so far, one event per line — byte-identical for
    /// identical `(seed, kills, mask)` inputs. Empty for a
    /// [`Scheduler::quiet`] scheduler.
    pub fn log_text(&self) -> String {
        // One buffer, `fmt::Write` appends — no per-line `format!`
        // allocation. ~16 bytes of payload per line plus the prefix.
        let mut out = String::with_capacity(self.log.len() * 24);
        for (i, ev) in self.log.iter().enumerate() {
            let _ = writeln!(out, "{i:06} {ev}");
        }
        out
    }

    /// The recorded decisions.
    pub fn events(&self) -> Vec<SchedEvent> {
        self.log.clone()
    }

    /// Drain-call indices that delayed delivery (the schedule's
    /// delay-set, the shrinker's second dimension). Empty for a
    /// [`Scheduler::quiet`] scheduler.
    pub fn delay_calls(&self) -> Vec<u64> {
        self.delays.clone()
    }

    /// Whether the step budget — the livelock backstop — ended the run.
    /// Recording-independent.
    pub fn budget_exhausted(&self) -> bool {
        self.aborted && self.deadlock_at.is_none()
    }

    /// The step at which the run deadlocked — ranks suspended, none of
    /// them enabled — or `None` if it did not. Recording-independent.
    pub fn deadlock_at(&self) -> Option<u64> {
        self.deadlock_at
    }

    /// Steps taken so far (the logical clock): one per grant, plus the
    /// draw that exhausted the budget if one did.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Move the run's coverage-edge set out of the scheduler (leaving
    /// an empty, unallocated placeholder). Call once, after the run:
    /// the fuzzer unions the full set; copying it through the hook
    /// trait would cost an allocation per harvest.
    pub fn take_coverage(&mut self) -> CoverageSet {
        std::mem::take(&mut self.coverage)
    }

    /// End the run: from here on every suspended rank is handed
    /// `Abort`, so all of them count as enabled.
    fn end_run(&mut self, verdict: SchedEvent, edge: EdgeKind) {
        self.aborted = true;
        self.waiting.take_all(&mut self.blocked);
        self.coverage.record(0, edge, self.kills_seen);
        if self.record {
            self.log.push(verdict);
        }
    }
}

impl SchedHook for Scheduler {
    fn arrive(&mut self, rank: Rank, point: SchedPoint) {
        // A rank arrives only while running: `next` took it out when
        // it was granted.
        if point == SchedPoint::Blocked && !self.aborted {
            self.blocked.insert(rank);
        } else {
            self.waiting.insert(rank);
        }
        self.stepped = Some(rank);
    }

    fn wake(&mut self, rank: Rank) {
        // Most deliveries find the receiver running, enabled or gone.
        if self.blocked.remove(rank) {
            self.waiting.insert(rank);
        }
    }

    fn wake_all(&mut self) {
        self.waiting.take_all(&mut self.blocked);
    }

    fn next(&mut self) -> Option<(Rank, StepOutcome)> {
        let stepped = self.stepped.take();
        if self.waiting.len == 0 {
            if self.blocked.len == 0 {
                return None;
            }
            // Every suspended rank waits for an event only a running
            // rank could cause, and none can run.
            self.deadlock_at = Some(self.steps);
            self.end_run(SchedEvent::Deadlock, EdgeKind::Deadlock);
        }
        if !self.aborted {
            self.steps += 1;
            if self.steps > self.budget {
                self.end_run(SchedEvent::Budget, EdgeKind::Budget);
            }
        }
        if self.aborted {
            return Some((self.waiting.take_nth(0), StepOutcome::Abort));
        }
        let enabled = self.waiting.len;
        let rank = self.waiting.take_nth(self.rng.below(enabled));
        self.grants += 1;
        self.enabled += enabled as u64;
        self.coverage.record(rank, EdgeKind::Grant, self.kills_seen);
        if self.record {
            self.log.push(SchedEvent::Grant { rank });
        }
        if stepped == Some(rank) {
            self.self_grants += 1;
        }
        Some((rank, StepOutcome::Run))
    }

    fn choose(&mut self, rank: Rank, kind: ChoiceKind, n: usize) -> usize {
        assert!(n >= 1, "a choice needs at least one alternative");
        let (pick, call) = match kind {
            ChoiceKind::Drain => {
                let call = self.drain_calls;
                self.drain_calls += 1;
                // `n` alternatives = queue length q + 1; q is the
                // full-delivery answer.
                let q = n - 1;
                let delay = match &mut self.delay_mask {
                    Some(mask) => mask.last() == Some(&call) && mask.pop().is_some(),
                    None => q > 0 && self.rng_delay.next_u64() % 16 < DELAY_WEIGHT,
                };
                let pick = if delay && q > 0 { self.rng_amount.below(q) } else { q };
                if pick < q && self.record {
                    self.delays.push(call);
                }
                (pick, Some(call))
            }
            ChoiceKind::WaitAny | ChoiceKind::AnySource => (self.rng.below(n), None),
        };
        let ekind = match kind {
            ChoiceKind::WaitAny => EdgeKind::WaitAny,
            ChoiceKind::AnySource => EdgeKind::AnySource,
            // `pick < n - 1` ⇔ a suffix of the queue was withheld.
            ChoiceKind::Drain if pick < n - 1 => EdgeKind::DrainDelay,
            ChoiceKind::Drain => EdgeKind::DrainFull,
        };
        self.coverage.record(rank, ekind, self.kills_seen);
        if self.record {
            self.log.push(SchedEvent::Choice { rank, kind, n, pick, call });
        }
        pick
    }

    fn on_exit(&mut self, rank: Rank) {
        self.coverage.record(rank, EdgeKind::Exit, self.kills_seen);
        if self.record {
            self.log.push(SchedEvent::Exit { rank });
        }
    }

    fn on_kill(&mut self, victim: Rank) {
        // The kill edge carries the phase *entered by* this kill (the
        // first kill is phase-1 behavior), then later decisions see
        // the bumped counter.
        self.kills_seen = (self.kills_seen + 1).min(PHASE_CAP);
        self.coverage.record(victim, EdgeKind::Kill, self.kills_seen);
        if self.record {
            self.log.push(SchedEvent::Kill { victim });
        }
    }

    fn now(&mut self) -> u64 {
        self.steps
    }

    fn run_stats(&self) -> RunStats {
        RunStats {
            handoff: HandoffStats {
                steps: self.steps,
                grants: self.grants,
                self_grants: self.self_grants,
                enabled: self.enabled,
                // No thread parks, and the transport counter is the
                // pool's to fill in.
                ..HandoffStats::default()
            },
            coverage: self.coverage.stats(),
            // Attributed by the executor, not the scheduler.
            alloc: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `n` ranks the way the runtime's driver does: every rank
    /// arrives once, then each granted rank "runs" by arriving again
    /// until it has taken `laps` steps (`None`: until aborted) and
    /// exits.
    fn drive(sched: &mut Scheduler, n: usize, laps: Option<usize>) {
        let mut taken = vec![0usize; n];
        for rank in 0..n {
            sched.arrive(rank, SchedPoint::Enter);
        }
        while let Some((rank, outcome)) = sched.next() {
            taken[rank] += 1;
            if outcome == StepOutcome::Abort || Some(taken[rank]) == laps {
                sched.on_exit(rank);
            } else {
                sched.arrive(rank, SchedPoint::Tick);
            }
        }
    }

    /// The scheduler's rank sets against the sorted `Vec`s they
    /// replaced: random `arrive` / `wake` / `wake_all` / `next`
    /// sequences, budget and deadlock aborts included, grant the same
    /// ranks with the same outcomes, at word counts 1 to 3.
    #[test]
    fn rank_sets_grant_what_sorted_vecs_grant() {
        /// The scheduler's former dispatch: sorted `Vec`s, a grant is
        /// `waiting.remove(rng.below(len))`.
        struct Model {
            waiting: Vec<Rank>,
            blocked: Vec<Rank>,
            rng: SplitMix64,
            steps: u64,
            budget: u64,
            aborted: bool,
        }
        impl Model {
            fn file(list: &mut Vec<Rank>, rank: Rank) {
                let pos = list.binary_search(&rank).unwrap_err();
                list.insert(pos, rank);
            }
            fn wake_all(&mut self) {
                self.waiting.append(&mut self.blocked);
                self.waiting.sort_unstable();
            }
            fn next(&mut self) -> Option<(Rank, StepOutcome)> {
                if self.waiting.is_empty() {
                    if self.blocked.is_empty() {
                        return None;
                    }
                    self.aborted = true;
                    self.wake_all();
                }
                if !self.aborted {
                    self.steps += 1;
                    if self.steps > self.budget {
                        self.aborted = true;
                        self.wake_all();
                    }
                }
                if self.aborted {
                    return Some((self.waiting.remove(0), StepOutcome::Abort));
                }
                let idx = self.rng.below(self.waiting.len());
                Some((self.waiting.remove(idx), StepOutcome::Run))
            }
        }
        let mut ops = SplitMix64::new(0x5E7);
        let (mut deadlocks, mut budgets) = (0, 0);
        for n in [1usize, 3, 8, 64, 65, 130] {
            for trial in 0..40u64 {
                let (seed, budget) = (trial * 7919 + n as u64, 50 + ops.below(400) as u64);
                let mut sched = Scheduler::new(n, seed, budget).quiet();
                let mut model = Model {
                    waiting: Vec::new(),
                    blocked: Vec::new(),
                    rng: SplitMix64::new(seed),
                    steps: 0,
                    budget,
                    aborted: false,
                };
                // Every rank enters; the granted rank then arrives
                // enabled or blocked, or leaves, and wakes others.
                let mut live = n;
                for rank in 0..n {
                    sched.arrive(rank, SchedPoint::Enter);
                    Model::file(&mut model.waiting, rank);
                }
                loop {
                    let grant = sched.next();
                    assert_eq!(grant, model.next(), "{n} ranks, trial {trial}");
                    let Some((rank, outcome)) = grant else { break };
                    for _ in 0..ops.below(3) {
                        let other = ops.below(n);
                        sched.wake(other);
                        if let Ok(pos) = model.blocked.binary_search(&other) {
                            model.blocked.remove(pos);
                            Model::file(&mut model.waiting, other);
                        }
                    }
                    if ops.below(50) == 0 {
                        sched.wake_all();
                        model.wake_all();
                    }
                    if outcome == StepOutcome::Abort || ops.below(4 * n as usize) == 0 {
                        sched.on_exit(rank);
                        live -= 1;
                    } else if ops.below(3) == 0 && !model.aborted {
                        sched.arrive(rank, SchedPoint::Blocked);
                        Model::file(&mut model.blocked, rank);
                    } else {
                        sched.arrive(rank, SchedPoint::Tick);
                        Model::file(&mut model.waiting, rank);
                    }
                }
                assert_eq!(live, 0, "{n} ranks, trial {trial}: every rank left");
                deadlocks += u64::from(sched.deadlock_at().is_some());
                budgets += u64::from(sched.budget_exhausted());
            }
        }
        assert!(deadlocks > 0 && budgets > 0, "{deadlocks} deadlocks, {budgets} budgets");
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn grants_every_step_and_logs_them() {
        let mut sched = Scheduler::new(2, 42, 1000);
        drive(&mut sched, 2, Some(10));
        let events = sched.events();
        let grants = events.iter().filter(|e| matches!(e, SchedEvent::Grant { .. })).count();
        let exits = events.iter().filter(|e| matches!(e, SchedEvent::Exit { .. })).count();
        assert_eq!((grants, exits), (20, 2));
        assert!(!sched.budget_exhausted());
        assert_eq!(sched.next(), None, "nobody is waiting after the last exit");
    }

    /// Once the budget fires every waiting rank is handed `Abort`,
    /// lowest first, with no further draws or steps.
    #[test]
    fn budget_exhaustion_aborts_every_rank() {
        let mut sched = Scheduler::new(3, 1, 25);
        drive(&mut sched, 3, None);
        assert!(sched.budget_exhausted());
        assert_eq!(sched.steps(), 26);
        let events = sched.events();
        let budget_at = events.iter().position(|e| *e == SchedEvent::Budget).unwrap();
        assert_eq!(
            events[budget_at + 1..],
            [0, 1, 2].map(|rank| SchedEvent::Exit { rank }),
            "after the budget event the ranks leave in rank order"
        );
        assert_eq!(sched.run_stats().handoff.grants, 25);
    }

    /// A rank that arrived blocked is never drawn; `wake` re-enables
    /// exactly the rank it names, `wake_all` everyone, and a wake for
    /// a rank that is not blocked is a no-op.
    #[test]
    fn blocked_ranks_are_not_drawn_until_woken() {
        let mut sched = Scheduler::new(3, 9, 1000);
        sched.arrive(0, SchedPoint::Blocked);
        sched.arrive(1, SchedPoint::Tick);
        sched.arrive(2, SchedPoint::Blocked);
        for _ in 0..20 {
            assert_eq!(sched.next(), Some((1, StepOutcome::Run)), "the only enabled rank");
            sched.arrive(1, SchedPoint::Tick);
        }
        sched.wake(1); // enabled already
        sched.wake(2);
        let mut seen = [0usize; 3];
        for _ in 0..40 {
            let (rank, _) = sched.next().unwrap();
            seen[rank] += 1;
            sched.arrive(rank, SchedPoint::Tick);
        }
        assert!(seen[0] == 0 && seen[1] > 0 && seen[2] > 0, "{seen:?}");
        sched.wake_all();
        let (mut drew_zero, mut grants) = (false, 60u64);
        while !drew_zero {
            let (rank, _) = sched.next().unwrap();
            drew_zero = rank == 0;
            grants += 1;
            sched.arrive(rank, SchedPoint::Tick);
        }
        let stats = sched.run_stats().handoff;
        assert_eq!((stats.steps, stats.grants), (grants, grants));
        // One enabled rank for 20 grants, two for 40, three since.
        assert_eq!(stats.enabled, 20 + 2 * 40 + 3 * (grants - 60));
        assert_eq!(sched.deadlock_at(), None);
    }

    /// Suspended ranks with none enabled is the deadlock: logged at
    /// the step it happens, no PRNG draw, no step taken, and every
    /// rank is handed `Abort` lowest first.
    #[test]
    fn no_enabled_rank_is_a_deadlock_verdict() {
        for quiet in [false, true] {
            let sched = Scheduler::new(3, 4, 1000);
            let mut sched = if quiet { sched.quiet() } else { sched };
            for rank in 0..3 {
                sched.arrive(rank, SchedPoint::Enter);
            }
            // Each rank runs once, then blocks.
            for _ in 0..3 {
                let (rank, outcome) = sched.next().unwrap();
                assert_eq!(outcome, StepOutcome::Run);
                sched.arrive(rank, SchedPoint::Blocked);
            }
            for rank in 0..3 {
                assert_eq!(sched.next(), Some((rank, StepOutcome::Abort)));
                sched.on_exit(rank);
            }
            assert_eq!(sched.next(), None);
            assert_eq!(sched.deadlock_at(), Some(3));
            assert!(!sched.budget_exhausted(), "a deadlock is not a livelock");
            assert_eq!(sched.steps(), 3, "the verdict takes no step");
            if !quiet {
                let events = sched.events();
                let at = events.iter().position(|e| *e == SchedEvent::Deadlock).unwrap();
                assert_eq!(events[at + 1..], [0, 1, 2].map(|rank| SchedEvent::Exit { rank }));
                assert!(sched.log_text().contains(" deadlock\n"));
            }
        }
    }

    /// The budget aborts blocked ranks too, and a rank arriving
    /// blocked after the verdict is still handed its `Abort`.
    #[test]
    fn budget_exhaustion_reaches_blocked_ranks() {
        let mut sched = Scheduler::new(3, 1, 10);
        sched.arrive(0, SchedPoint::Tick);
        sched.arrive(1, SchedPoint::Blocked);
        while let Some((0, StepOutcome::Run)) = sched.next() {
            sched.arrive(0, SchedPoint::Tick);
        }
        // Rank 0 took the first `Abort`; rank 2 shows up blocked.
        assert!(sched.budget_exhausted());
        assert_eq!(sched.deadlock_at(), None);
        sched.arrive(2, SchedPoint::Blocked);
        assert_eq!(sched.next(), Some((1, StepOutcome::Abort)));
        assert_eq!(sched.next(), Some((2, StepOutcome::Abort)));
        assert_eq!(sched.next(), None);
    }

    #[test]
    fn quiet_scheduler_runs_the_same_schedule_logfree() {
        // Drive recorded and quiet schedulers through an identical call
        // sequence: picks must match draw for draw, while the quiet one
        // retains nothing — with random delays and with a pinned mask.
        for mask in [None, Some([1u64, 3])] {
            let build = || {
                let sched = Scheduler::new(1, 77, 1000);
                match &mask {
                    Some(m) => sched.delay_mask(m),
                    None => sched,
                }
            };
            let (mut recorded, mut quiet) = (build(), build().quiet());
            for n in [4usize, 2, 7, 3, 5] {
                assert_eq!(
                    recorded.choose(0, ChoiceKind::Drain, n),
                    quiet.choose(0, ChoiceKind::Drain, n)
                );
                assert_eq!(
                    recorded.choose(0, ChoiceKind::WaitAny, n),
                    quiet.choose(0, ChoiceKind::WaitAny, n)
                );
            }
            assert!(!recorded.events().is_empty());
            if let Some(m) = mask {
                assert_eq!(recorded.delay_calls(), m, "exactly the masked drains delay");
            }
            assert!(quiet.events().is_empty());
            assert!(quiet.log_text().is_empty());
            assert!(quiet.delay_calls().is_empty());
        }
    }

    #[test]
    fn quiet_budget_exhaustion_is_still_visible() {
        let mut sched = Scheduler::new(2, 1, 25).quiet();
        drive(&mut sched, 2, None);
        assert!(sched.budget_exhausted(), "aborted flag works without the log");
        assert!(sched.events().is_empty());
    }

    #[test]
    fn delay_mask_forces_exact_delays() {
        let mut sched = Scheduler::new(1, 9, 100).delay_mask(&[1]);
        // Drain call 0: full delivery of a 3-long queue (4 options).
        assert_eq!(sched.choose(0, ChoiceKind::Drain, 4), 3);
        // Drain call 1: masked in, must delay (pick < 3).
        assert!(sched.choose(0, ChoiceKind::Drain, 4) < 3);
        // Drain call 2: full again.
        assert_eq!(sched.choose(0, ChoiceKind::Drain, 4), 3);
        assert_eq!(sched.delay_calls(), vec![1]);
    }

    /// The mask is a set: its order and repeats do not matter, and an
    /// index no drain call reaches is never due.
    #[test]
    fn delay_mask_order_and_repeats_do_not_matter() {
        for mask in [&[1u64, 4, 9][..], &[9, 4, 1], &[4, 1, 9, 4, 1]] {
            let mut sched = Scheduler::new(1, 9, 100).delay_mask(mask);
            let delayed: Vec<u64> =
                (0..6).filter(|_| sched.choose(0, ChoiceKind::Drain, 3) < 2).collect();
            assert_eq!(delayed, [1, 4], "mask {mask:?}");
            assert_eq!(sched.delay_calls(), [1, 4]);
        }
    }

    /// A sole waiter always draws itself: every grant is a self-grant.
    #[test]
    fn sole_waiter_grants_are_all_self_grants() {
        let mut sched = Scheduler::new(1, 5, 1000);
        drive(&mut sched, 1, Some(50));
        let stats = sched.run_stats().handoff;
        assert_eq!((stats.steps, stats.grants, stats.self_grants), (50, 50, 50));
    }

    #[test]
    fn log_text_is_stable_across_reads() {
        let mut sched = Scheduler::new(1, 3, 100);
        sched.choose(0, ChoiceKind::WaitAny, 2);
        sched.on_kill(0);
        assert_eq!(sched.log_text(), sched.log_text());
        assert!(sched.log_text().contains("kill 0"));
    }

    /// Coverage is recording-independent: a quiet scheduler driven
    /// through the same calls reports the identical edge set, and the
    /// kill phase splits otherwise-identical decisions.
    #[test]
    fn coverage_collected_quiet_and_phase_sensitive() {
        let drive = |sched: &mut Scheduler| {
            sched.choose(0, ChoiceKind::WaitAny, 3);
            sched.choose(1, ChoiceKind::Drain, 4);
            sched.on_kill(1);
            // Same decision as the first, now in phase 1 → new edge.
            sched.choose(0, ChoiceKind::WaitAny, 3);
            sched.on_exit(0);
        };
        let mut recorded = Scheduler::new(2, 11, 100);
        let mut quiet = Scheduler::new(2, 11, 100).quiet();
        drive(&mut recorded);
        drive(&mut quiet);
        let (r, q) = (recorded.run_stats().coverage, quiet.run_stats().coverage);
        assert_eq!(r, q, "quiet run covered differently");
        assert!(r.edges >= 5, "expected ≥5 distinct edges, got {}", r.edges);
        let set = recorded.take_coverage();
        assert_eq!(set.len() as u64, r.edges);
        assert_eq!(set.signature(), r.signature);
        // Harvest moved the set out; the scheduler now reports empty.
        assert_eq!(recorded.run_stats().coverage.edges, 0);
    }
}
