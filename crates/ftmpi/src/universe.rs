//! The universe: spawn N ranks, run a closure on each, harvest results.
//!
//! Each rank holds a [`Process`] and runs on an OS thread — or, under a
//! simulation scheduler, as a coroutine on the caller's thread (see
//! [`crate::UniversePool`]); the universe wires
//! the shared fabric, failure registry, fault injector, rendezvous
//! board and trace together, and — crucially for reproducing the
//! paper's Fig. 6 — runs a watchdog that detects distributed hangs and
//! converts them into a clean, reportable outcome instead of a wedged
//! test suite.
//!
//! Every piece of that state lives in one universe's [`Shared`]; there
//! are no process-global statics anywhere in `ftmpi` or `faultsim`.
//! The only thread-locals are the simulation's (`coro`): the running
//! coroutine and the scheduler's slot (`coro::with_sched`), per thread,
//! not per process. A simulated universe is driven on one thread, and
//! its trace reads its logical clock from the scheduler installed there. Concurrent [`run`] calls
//! are therefore fully isolated — the `dst` parallel seed-sweep engine
//! leans on this to run one universe per worker, and
//! `tests/concurrent_universes.rs` pins the property.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use faultsim::{FaultPlan, Injector, RunStats, SchedHook};

use crate::coro::with_sched;
use crate::detector::FailureRegistry;
use crate::error::{RankOutcome, Result};
use crate::group::Group;
use crate::paypool::PayloadPool;
use crate::process::Process;
use crate::rank::WorldRank;
use crate::rendezvous::Rendezvous;
use crate::trace::{Event, Trace, TimedEvent};

/// Abort code used by the watchdog when it breaks a hang.
pub const WATCHDOG_ABORT_CODE: i32 = -9999;

/// Context id of `MPI_COMM_WORLD`.
pub(crate) const WORLD_CTX: u64 = 0;

/// Universe-wide shared state handed to every [`Process`].
pub(crate) struct Shared {
    pub size: usize,
    pub fabric: crate::transport::Fabric,
    pub registry: FailureRegistry,
    pub injector: Arc<Injector>,
    /// Where `validate_all`, `ibarrier`, `comm_split` and `comm_dup`
    /// rounds are decided.
    pub board: Rendezvous,
    pub trace: Trace,
    /// Whether a deterministic-simulation scheduler drives this run
    /// (see `faultsim::sched` and the `dst` crate). Its ranks reach it
    /// through `coro::with_sched`.
    pub sim: bool,
    /// Recycled payload allocations, shared by every rank's sends and
    /// retained across runs (DESIGN.md §8.10).
    pub paypool: PayloadPool,
    /// The world group, built once per universe: `Group` is an
    /// `Arc<Vec<_>>`, so per-run `Process` construction clones a
    /// handle instead of re-collecting `0..n` every incarnation.
    pub world_group: Group,
}

impl Shared {
    /// Freshly constructed universe state for one run.
    pub(crate) fn fresh(n: usize, plan: &FaultPlan, trace: bool, sim: bool) -> Shared {
        Shared {
            size: n,
            fabric: crate::transport::Fabric::new(n),
            registry: FailureRegistry::new(n),
            injector: Arc::new(Injector::new(plan)),
            board: Rendezvous::new(n),
            trace: Trace::new(trace, sim),
            sim,
            paypool: PayloadPool::new(),
            world_group: Group::world(n),
        }
    }

    /// The reset protocol: return every piece of universe state to the
    /// exact observable state [`Shared::fresh`] produces while
    /// retaining allocations (mailbox queues keep their capacity, the
    /// trace keeps its event buffer, the board keeps its tables). The
    /// injector is rearmed in place from the run's plan, unless a
    /// report the caller still holds shares it: then it is armed anew.
    ///
    /// Equivalence argument (the golden-log tests are the referee): a
    /// cleared-with-capacity container is behaviorally identical to a
    /// fresh one — capacity is not observable — and every counter
    /// (mailbox versions, notify generation, failure epoch, context
    /// allocator) is rewound to its constructed value, so no rank can
    /// distinguish a reset universe from a new one. HashMap iteration
    /// order is the one superficially scary piece of state, and it is
    /// moot: the board reads its tables by exact lookup and walks them
    /// only to drop old rounds.
    ///
    /// Requires exclusive access (`&mut self`), which the pool has
    /// between runs: every worker drops its `Arc<Shared>` clone before
    /// signalling completion. Every part resets through `&mut` too, so
    /// no reset takes a lock and none can race a live rank.
    pub(crate) fn reset(&mut self, plan: &FaultPlan, trace: bool, sim: bool) {
        self.fabric.reset();
        self.registry.reset();
        match Arc::get_mut(&mut self.injector) {
            Some(injector) => injector.rearm(plan),
            None => self.injector = Arc::new(Injector::new(plan)),
        }
        self.board.reset();
        self.trace.reset(trace, sim);
        self.sim = sim;
        // `paypool` and `world_group` deliberately survive the reset:
        // recycled payload buffers and the shared membership Vec carry
        // no run-observable state (buffer *contents* are overwritten
        // before any Bytes view exposes them), and keeping them warm
        // is the point of pooling.
    }

    /// Hand `env` to `dst`'s mailbox and make `dst` runnable: the
    /// fabric notifies a parked thread, the scheduler re-enables a
    /// rank suspended at `SchedPoint::Blocked`.
    pub(crate) fn deliver(&self, dst: WorldRank, env: crate::message::Envelope) {
        self.fabric.deliver(dst, env);
        if self.sim {
            with_sched(|s| s.wake(dst));
        }
    }

    /// Make every waiting rank look again. In wall-clock mode that is
    /// the fabric's sweep over the parked threads. A simulated rank is
    /// a suspended coroutine, not a sleeper on a condvar: the notify
    /// generation still moves (a pass in flight must see the event,
    /// exactly as `Fabric::park` would) and the scheduler re-enables
    /// every rank it holds as blocked — a wake missed here is a false
    /// deadlock verdict, not a slow run.
    pub(crate) fn wake_all(&self) {
        if self.sim {
            self.fabric.note_wake();
            with_sched(|s| s.wake_all());
        } else {
            self.fabric.wake_all();
        }
    }

    /// Fail-stop `rank`: registry transition + trace + wake everyone.
    pub(crate) fn kill(&self, rank: WorldRank) {
        if self.registry.kill(rank) {
            self.trace.record(Event::Killed { rank });
            if self.sim {
                with_sched(|s| s.on_kill(rank));
            }
            self.wake_all();
        }
    }

    /// Recovery extension: revive a failed `rank` as a fresh
    /// incarnation and wake everyone. Returns the new generation.
    ///
    /// The mailbox is emptied first, while `rank` still reads failed
    /// (messages to the dead incarnation are lost, per fail-stop), and
    /// only then is it revived: a peer that sees the new incarnation
    /// alive and sends to it must find its envelope kept. The one caller
    /// is `rank`'s own body, between two of its incarnations, so
    /// nothing drains or revives `rank` in between.
    pub(crate) fn respawn(&self, rank: WorldRank) -> Option<u32> {
        if !self.registry.is_failed(rank) {
            return None;
        }
        self.bury_mail(rank);
        let gen = self.registry.respawn(rank)?;
        self.trace.record(Event::Respawned { rank, generation: gen });
        self.wake_all();
        Some(gen)
    }

    /// Empty dead `rank`'s mailbox. Nothing yields between this and the
    /// revival, so no simulated run can show them swapped; the assertion
    /// makes every revival in a debug build fail if they are.
    fn bury_mail(&self, rank: WorldRank) {
        debug_assert!(
            self.registry.is_failed(rank),
            "rank {rank}'s mailbox emptied after its revival"
        );
        self.fabric.clear(rank);
    }

    /// Abort the job: registry transition + trace + wake everyone.
    pub(crate) fn abort(&self, code: i32) {
        if self.registry.abort(code) {
            self.trace.record(Event::Aborted { code });
            self.wake_all();
        }
    }
}

/// Configuration for one universe run. `'s` is the borrow of the
/// simulation scheduler, if one drives the run.
#[derive(Default)]
pub struct UniverseConfig<'s> {
    /// Hook-based fault plan (exact protocol-point kills), owned or
    /// borrowed from a caller that keeps it for its next run.
    pub plan: Cow<'s, FaultPlan>,
    /// Hang watchdog of the wall-clock executor: if the run does not
    /// complete within this duration, the universe is aborted with
    /// [`WATCHDOG_ABORT_CODE`] and the report is marked `hung`.
    pub watchdog: Option<Duration>,
    /// Record protocol events.
    pub trace: bool,
    /// Recovery extension (DESIGN.md §7): how often each rank may be
    /// revived; 0 never revives. When an incarnation's body returns with
    /// its rank failed and budget left, the rank is revived as the next
    /// generation, provided the run is not aborted and another rank's
    /// incarnation is still inside its body. A thread revives at once;
    /// a simulated rank arrives at `SchedPoint::Enter` again, and the
    /// scheduler's grant is the revival. Supported scope:
    /// point-to-point protocols like the task farm, not rings or
    /// in-flight collectives/validates.
    pub respawn: u32,
    /// Deterministic-simulation scheduler. When set, the runtime
    /// serializes every rank through the hook's scheduling points and
    /// routes every nondeterministic choice through it; the hook's own
    /// verdicts (deadlock when no suspended rank is enabled, a logical
    /// step budget against livelock) take the place of the wall-clock
    /// `watchdog`. Incompatible with `watchdog`. Borrowed for the run:
    /// the caller reads the scheduler's log afterwards.
    pub sched: Option<&'s mut dyn SchedHook>,
}

impl<'s> UniverseConfig<'s> {
    /// Config with a fault plan and defaults otherwise.
    pub fn with_plan(plan: FaultPlan) -> Self {
        UniverseConfig { plan: Cow::Owned(plan), ..Default::default() }
    }

    /// Builder-style: set the watchdog.
    pub fn watchdog(mut self, d: Duration) -> Self {
        self.watchdog = Some(d);
        self
    }

    /// Builder-style: enable tracing.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style: enable the recovery extension, reviving each
    /// rank up to `max_per_rank` times (further deaths stay dead).
    pub fn respawning(mut self, max_per_rank: u32) -> Self {
        self.respawn = max_per_rank;
        self
    }

    /// Builder-style: drive the run from a deterministic-simulation
    /// scheduler.
    pub fn sim(mut self, hook: &'s mut dyn SchedHook) -> Self {
        self.sched = Some(hook);
        self
    }
}

/// Result of a universe run.
pub struct RunReport<T> {
    /// Per-rank outcomes, indexed by world rank.
    pub outcomes: Vec<RankOutcome<T>>,
    /// Whether a distributed hang had to be broken: by the wall-clock
    /// watchdog, or by a simulation scheduler's deadlock / step-budget
    /// verdict.
    pub hung: bool,
    /// The recorded protocol trace (empty unless tracing was enabled).
    pub trace: Vec<TimedEvent>,
    /// Final incarnation number per rank (all 0 without the recovery
    /// extension).
    pub generations: Vec<u32>,
    /// Every per-run statistic, on the one [`faultsim::RunStats`]
    /// surface: `handoff` and `coverage` come from the simulation
    /// scheduler (zeros in wall-clock mode), except three transport
    /// counters. Ranks never park on the fabric under a scheduler, so
    /// all three are 0 there. `handoff.parks`: how often a rank went
    /// to sleep on its mailbox condvar (`Fabric::park` sets the
    /// mailbox's `parked` flag). `handoff.wakes`: how many
    /// `notify_one`s woke one — the first delivery or global wake to
    /// find the flag takes (clears) it and notifies, so `wakes <=
    /// parks`. `handoff.park_safety_timeouts`: how often the
    /// safety-net park timeout fired; in wall-clock mode a nonzero
    /// count during steady message flow would mean a rank made
    /// progress only because of the backstop — a missed-notification
    /// bug; an idle wait (a watchdog hang) fires it benignly.
    /// `alloc` is the heap traffic of the rank bodies: in wall-clock
    /// mode summed over the worker threads (the caller thread's share
    /// is the caller's to measure), under a simulation scheduler the
    /// calling thread's traffic over the drive loop — an interval a
    /// caller measuring its own thread must not count again. All zeros
    /// unless the final binary installs [`allocstats::StatsAlloc`] as
    /// its global allocator; the `dst` harness does.
    pub stats: RunStats,
    /// The armed plan the run consulted ([`Injector::counts`]).
    pub injector: Arc<Injector>,
}

/// The buffers of a finished [`RunReport`]: handed to
/// [`crate::UniversePool::run_in`], the next report is built in them
/// instead of in new allocations. The default holds none.
pub struct ReportBuffers<T> {
    /// A report's `outcomes`, emptied by the run that reuses it.
    pub outcomes: Vec<RankOutcome<T>>,
    /// A report's `generations`.
    pub generations: Vec<u32>,
    /// A report's `trace`: the next run's trace records into it.
    pub trace: Vec<TimedEvent>,
}

impl<T> Default for ReportBuffers<T> {
    fn default() -> Self {
        ReportBuffers { outcomes: Vec::new(), generations: Vec::new(), trace: Vec::new() }
    }
}

impl<T> RunReport<T> {
    /// Whether every rank returned `Ok`.
    pub fn all_ok(&self) -> bool {
        !self.hung && self.outcomes.iter().all(|o| o.is_ok())
    }

    /// World ranks that were fail-stopped.
    pub fn failed_ranks(&self) -> Vec<WorldRank> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_failed())
            .map(|(r, _)| r)
            .collect()
    }

    /// Ok values of surviving ranks, as (rank, value) pairs.
    pub fn ok_values(&self) -> Vec<(WorldRank, &T)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(r, o)| o.as_ok().map(|v| (r, v)))
            .collect()
    }
}

/// Entry point: run `f` on `n` ranks under `cfg`.
///
/// `f` receives a mutable [`Process`] and returns the rank's result;
/// returning `Err(Error::SelfFailed)` (which every runtime call does
/// once the rank is killed) records the rank as [`RankOutcome::Failed`].
///
/// This is the one-shot form: it builds a [`crate::UniversePool`],
/// runs the universe on it, and drops it. Callers executing many universes back-to-back at a fixed rank
/// count should hold a pool and call [`crate::UniversePool::run`]
/// instead, which reuses the executor (worker threads or coroutine
/// stacks) and the universe state allocations across runs.
pub fn run<T, F>(n: usize, cfg: UniverseConfig<'_>, f: F) -> RunReport<T>
where
    T: Send,
    F: Fn(&mut Process) -> Result<T> + Send + Sync,
{
    crate::pool::UniversePool::new(n).run(cfg, f)
}

/// Run with default configuration (no faults, no watchdog).
pub fn run_default<T, F>(n: usize, f: F) -> RunReport<T>
where
    T: Send,
    F: Fn(&mut Process) -> Result<T> + Send + Sync,
{
    run(n, UniverseConfig::default(), f)
}
