//! Scheduler instrumentation for deterministic simulation testing.
//!
//! In wall-clock mode the `ftmpi` runtime runs each rank on an OS
//! thread; which rank makes progress next is decided by the kernel
//! scheduler, so a buggy interleaving reproduces only by luck. A
//! [`SchedHook`] turns those decisions into explicit calls the runtime
//! makes at every *scheduling point*, letting a harness (the `dst`
//! crate) drive every decision from a seeded PRNG — the
//! FoundationDB-style simulation approach: one `u64` seed names one
//! complete interleaving, reproducible forever.
//!
//! Under a hook the runtime runs every rank as a coroutine on the
//! caller's thread, so at most one rank executes at any instant by
//! construction and the hook is a plain decision structure: it never
//! blocks and never touches a thread. The driver borrows it `&mut` for
//! the length of the run and the ranks reach it through that borrow
//! (nothing else can), so every method takes `&mut self` and the trait
//! asks for neither `Send` nor `Sync`. The runtime's side of the
//! contract:
//!
//! * Every rank calls [`SchedHook::arrive`] when it enters the
//!   universe ([`SchedPoint::Enter`]), at the top of every wait-loop
//!   pass ([`SchedPoint::Tick`] or [`SchedPoint::Blocked`]), and before
//!   every send ([`SchedPoint::Send`]), then suspends.
//! * **Enabledness.** A rank that arrives at [`SchedPoint::Blocked`]
//!   is *disabled*: its last wait-loop pass completed nothing and the
//!   transport would have put its thread to sleep in wall-clock mode
//!   (mailbox empty and unchanged, no global wake, no failure-epoch
//!   change since the pass began). The hook must not resume it until
//!   the runtime reports one of the events that wake a sleeping
//!   thread: [`SchedHook::wake`] after a delivery to that rank's
//!   mailbox, [`SchedHook::wake_all`] after a kill, an abort, or a
//!   validate / barrier / split decision. Every other arrival is
//!   enabled. The runtime keeps a rank enabled on the first pass of a
//!   wait, while its mailbox holds a delayed suffix, and while the
//!   fault plan still holds an unfired `Tick` kill for it.
//! * With every live rank suspended, the runtime's driver asks
//!   [`SchedHook::next`] which enabled rank resumes, and with what
//!   verdict: a [`StepOutcome::Abort`] tells the rank that the run is
//!   over — no rank is enabled although some are suspended (a
//!   deadlock), or the logical step budget is exhausted (a livelock) —
//!   and it must abort the job. `None` means no rank is suspended:
//!   the run is over.
//! * Every nondeterministic *choice* with `n` alternatives is routed
//!   through [`SchedHook::choose`]: which ready request `waitany`
//!   picks, which sender an `ANY_SOURCE` receive matches, and how many
//!   queued envelopes a mailbox drain delivers (delaying the rest).
//! * [`SchedHook::on_exit`] is called exactly once per rank when it
//!   leaves the universe (normal return, failure, or panic).
//! * [`SchedHook::on_kill`] reports fail-stop transitions for the
//!   harness's event log.
//! * [`SchedHook::now`] is a logical clock; the runtime uses it to
//!   timestamp trace events so two runs of the same schedule produce
//!   byte-identical logs.
//!
//! When no hook is installed every instrumentation site is a no-op on
//! the `None` path.

use crate::{Rank, Tag};

/// Where in the runtime a scheduling point sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPoint {
    /// Rank entered the universe, before user code runs.
    Enter,
    /// Top of a wait-loop pass (the single blocking funnel); the rank
    /// is runnable.
    Tick,
    /// Top of a wait-loop pass of a rank the transport would have put
    /// to sleep: not runnable until [`SchedHook::wake`] names it or
    /// [`SchedHook::wake_all`] is called.
    Blocked,
    /// Immediately before handing a message to the transport.
    Send {
        /// Destination world rank.
        dst: Rank,
        /// Message tag.
        tag: Tag,
    },
}

/// Which nondeterministic choice is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceKind {
    /// `waitany` with several requests ready: pick which completes.
    WaitAny,
    /// `ANY_SOURCE` receive with several candidate senders: pick one.
    AnySource,
    /// Mailbox drain with `n` queued envelopes: the chooser is called
    /// with `n + 1` alternatives and the result `k` delivers the first
    /// `k` envelopes now, delaying the rest.
    Drain,
}

/// Verdict a rank resumes with after [`SchedHook::arrive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Proceed.
    Run,
    /// The run cannot or may not continue — every suspended rank is
    /// disabled (deadlock), or the logical step budget is exhausted
    /// (livelock): abort the job (deterministic hang detection).
    Abort,
}

/// Scheduling counters reported by a [`SchedHook`].
///
/// `steps`, `grants`, `self_grants` and `enabled` are logical
/// properties of the schedule. `parks`, `wakes` and
/// `park_safety_timeouts` are the wall-clock transport's, filled in by
/// the runtime: simulated ranks are coroutines that never sleep on a
/// condvar, so under a scheduler all three are 0.
///
/// All counters are cumulative since the hook was constructed, and
/// travel as the `handoff` field of [`RunStats`] (the default
/// [`SchedHook::run_stats`] returns zeros).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandoffStats {
    /// Logical steps taken (grant attempts, including the one that
    /// exhausts the budget).
    pub steps: u64,
    /// Grants actually issued.
    pub grants: u64,
    /// Grants where the PRNG drew the rank that had just stepped —
    /// always, when it is the sole waiter, which is the common case for
    /// the paper's one-token-in-flight ring.
    pub self_grants: u64,
    /// Enabled-set size summed over the grants: `enabled / grants` is
    /// how many ranks a grant chose among, on average.
    pub enabled: u64,
    /// Times a waiting rank went to sleep on its mailbox condvar
    /// (filled in by the runtime, not the scheduler).
    pub parks: u64,
    /// Condvar notifications the transport issued to sleeping ranks:
    /// the first delivery or global wake that finds a rank asleep takes
    /// its `parked` flag and notifies, later ones do not, so
    /// `wakes <= parks` (filled in by the runtime, not the scheduler).
    pub wakes: u64,
    /// Wall-clock sleeps the executor's lost-wakeup backstop cut short
    /// (filled in by the runtime, not the scheduler).
    pub park_safety_timeouts: u64,
}

impl HandoffStats {
    /// Accumulate another run's counters (sweep aggregation).
    pub fn add(&mut self, other: &HandoffStats) {
        self.steps += other.steps;
        self.grants += other.grants;
        self.self_grants += other.self_grants;
        self.enabled += other.enabled;
        self.parks += other.parks;
        self.wakes += other.wakes;
        self.park_safety_timeouts += other.park_safety_timeouts;
    }
}

/// Schedule-coverage counters reported by a [`SchedHook`].
///
/// A coverage-tracking scheduler hashes every decision it makes into a
/// per-run *edge set* — an edge is `(rank, decision-kind,
/// protocol-phase)`, where the protocol phase is the number of
/// fail-stops delivered so far (saturated), so the same decision kind
/// before the first failure, during first repair, and during stacked
/// repair count as distinct protocol behavior. The set itself stays
/// inside the scheduler (the `dst` fuzzer harvests it for novelty
/// search); what travels through [`RunStats`] are the two summary
/// numbers every consumer needs: how many distinct edges the run
/// touched, and an order-independent digest of the set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// Distinct coverage edges: the run's edge-set size, or an
    /// aggregator's exact union size (the `dst` sweep/fuzz engines
    /// track the union; [`RunStats::merge`] leaves coverage alone).
    pub edges: u64,
    /// XOR of the per-edge hashes — an order-independent digest of the
    /// edge set, so two runs (or two whole campaigns) covering the
    /// same edges report byte-identical signatures.
    pub signature: u64,
}

/// Every per-run statistic the harness chain carries, as one value.
///
/// `RunReport`, the `dst` `Observation` and the sweep and fuzz
/// aggregators all carry this one value, so a new counter family is
/// added here and nowhere else: the scheduler contributes `handoff`
/// and `coverage` (via [`SchedHook::run_stats`]), the executor pool
/// contributes `alloc` and the transport's sleep, wake and
/// safety-timeout counts, and
/// aggregation is one [`RunStats::merge`] call wherever runs are
/// summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Scheduling counters (steps, grants, self-grants).
    pub handoff: HandoffStats,
    /// Schedule-coverage summary (distinct decision edges + digest).
    pub coverage: CoverageStats,
    /// Heap-allocation traffic attributed to the run. Zeros unless the
    /// final binary installs `allocstats::StatsAlloc` as its global
    /// allocator (the `dst` harness does).
    pub alloc: allocstats::AllocStats,
}

impl RunStats {
    /// Accumulate another run's statistics (sweep/fuzz aggregation).
    ///
    /// `coverage` is not folded: two summaries cannot give the size of
    /// a union, so an aggregator takes it from the edge union it tracks.
    pub fn merge(&mut self, other: &RunStats) {
        self.handoff.add(&other.handoff);
        self.alloc.add(&other.alloc);
    }
}

/// Scheduling decisions driven by a test harness. See the module docs
/// for the runtime's calling contract.
pub trait SchedHook {
    /// `rank` reached a scheduling point and is about to suspend.
    /// Never blocks.
    fn arrive(&mut self, rank: Rank, point: SchedPoint);

    /// Called with every live rank suspended — by the driver, or by
    /// the rank that has just arrived: the enabled rank to resume next
    /// and the verdict it resumes with, or `None` when no rank is
    /// suspended. A rank named here stops waiting until
    /// its next [`SchedHook::arrive`].
    fn next(&mut self) -> Option<(Rank, StepOutcome)>;

    /// An envelope was delivered to `rank`'s mailbox: if it arrived at
    /// [`SchedPoint::Blocked`] it is enabled again.
    fn wake(&mut self, rank: Rank);

    /// Something every waiting rank may depend on changed (a kill, an
    /// abort, a validate / barrier / split decision): every rank that
    /// arrived at [`SchedPoint::Blocked`] is enabled again.
    fn wake_all(&mut self);

    /// Resolve an `n`-way choice (`n >= 1` for [`ChoiceKind::WaitAny`]
    /// and [`ChoiceKind::AnySource`], `n >= 2` for
    /// [`ChoiceKind::Drain`]). Must return a value in `0..n`.
    fn choose(&mut self, rank: Rank, kind: ChoiceKind, n: usize) -> usize;

    /// `rank` is leaving the universe; it will make no further
    /// `arrive`/`choose` calls.
    fn on_exit(&mut self, rank: Rank);

    /// `victim` was fail-stopped (for the harness event log).
    fn on_kill(&mut self, _victim: Rank) {}

    /// Logical time for deterministic trace timestamps.
    fn now(&mut self) -> u64 {
        0
    }

    /// Per-run statistics accumulated so far (scheduling counters +
    /// coverage summary; the `alloc` field is filled in by the
    /// executor, not the scheduler). Hooks without instrumentation
    /// report zeros.
    fn run_stats(&self) -> RunStats {
        RunStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially conforming hook: first come, first served, choice 0.
    #[derive(Default)]
    struct Fifo {
        waiting: std::collections::VecDeque<Rank>,
    }

    impl SchedHook for Fifo {
        fn arrive(&mut self, rank: Rank, _point: SchedPoint) {
            self.waiting.push_back(rank);
        }
        fn next(&mut self) -> Option<(Rank, StepOutcome)> {
            self.waiting.pop_front().map(|r| (r, StepOutcome::Run))
        }
        // Treats every arrival as runnable, so there is nobody to wake.
        fn wake(&mut self, _rank: Rank) {}
        fn wake_all(&mut self) {}
        fn choose(&mut self, _rank: Rank, _kind: ChoiceKind, n: usize) -> usize {
            assert!(n >= 1);
            0
        }
        fn on_exit(&mut self, _rank: Rank) {}
    }

    #[test]
    fn object_safety_and_defaults() {
        let mut fifo = Fifo::default();
        let hook: &mut dyn SchedHook = &mut fifo;
        hook.arrive(0, SchedPoint::Tick);
        hook.arrive(1, SchedPoint::Send { dst: 0, tag: 7 });
        assert_eq!(hook.next(), Some((0, StepOutcome::Run)));
        assert_eq!(hook.next(), Some((1, StepOutcome::Run)));
        assert_eq!(hook.next(), None);
        assert_eq!(hook.choose(0, ChoiceKind::Drain, 3), 0);
        hook.on_kill(2);
        assert_eq!(hook.now(), 0);
        let stats = hook.run_stats();
        assert_eq!(stats, RunStats::default());
        assert_eq!(stats.coverage.edges, 0);
    }

    #[test]
    fn handoff_stats_accumulate() {
        let mut total = HandoffStats::default();
        let one = HandoffStats {
            steps: 10,
            grants: 9,
            self_grants: 3,
            enabled: 12,
            parks: 4,
            wakes: 2,
            park_safety_timeouts: 1,
        };
        total.add(&one);
        total.add(&one);
        assert_eq!(total.grants, 18);
        assert_eq!(total.self_grants, 6);
        assert_eq!(total.enabled, 24);
        assert_eq!(total.parks, 8);
        assert_eq!(total.wakes, 4);
        assert_eq!(total.park_safety_timeouts, 2);
    }

    #[test]
    fn run_stats_merge_folds_all_families() {
        let mut total = RunStats::default();
        let one = RunStats {
            handoff: HandoffStats { steps: 5, grants: 4, ..Default::default() },
            coverage: CoverageStats { edges: 3, signature: 0xF0 },
            alloc: allocstats::AllocStats {
                allocs: 7,
                deallocs: 6,
                bytes_alloc: 256,
                bytes_freed: 192,
            },
        };
        total.merge(&one);
        total.merge(&one);
        assert_eq!(total.handoff.steps, 10);
        // Coverage is the aggregator's edge union, never a fold.
        assert_eq!(total.coverage, CoverageStats::default());
        assert_eq!(total.alloc.allocs, 14);
        assert_eq!(total.alloc.bytes_alloc, 512);
    }
}
