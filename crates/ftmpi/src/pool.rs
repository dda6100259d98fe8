//! The persistent rank-executor pool.
//!
//! Every universe runs on a [`UniversePool`]. Building one costs
//! nothing; what a run needs — an executor and the shared state (fabric
//! slots, failure registry, coordination boards, trace sink) — is built
//! by the first run that needs it and kept warm for the next, which
//! resets the shared state in place (`Shared::reset` — queues cleared
//! with capacity retained, counters rewound, boards emptied). For a
//! single run that saving is noise; for a deterministic-simulation
//! sweep executing thousands of schedules per second it is the
//! difference between simulating and allocating. The two executors:
//!
//! * **wall-clock** (`cfg.sched == None`): `n` long-lived worker
//!   threads named `rank-{i}`, each handed the closure for one run,
//!   and on Linux each under `SCHED_BATCH`, so a woken rank never
//!   preempts the rank that woke it;
//! * **simulation** (`UniverseConfig::sim`): `n` coroutine stacks
//!   ([`crate::coro`]) and a driver loop on the *calling* thread, which
//!   lends the scheduler to `coro::drive_with` for the run. A rank's
//!   `sched_step` tells the scheduler it arrived — runnable, or
//!   blocked until a delivery or a global wake — and asks it for the
//!   next grant among the runnable ranks: a grant to itself returns at
//!   once, any other switches straight to that rank's stack. One
//!   simulated step is at most one user-space stack switch and no
//!   lock; the driver resumes ranks only after their `Enter` arrival
//!   and after one returns, and a pool that only simulates never
//!   spawns a thread.
//!
//! [`crate::run`] is a one-shot pool: build, run once, drop.
//!
//! ### Determinism
//!
//! A reused pool must keep the seed → schedule mapping of the `dst`
//! harness **byte-identical** to a fresh one (the golden-log tests are
//! the referee). Two properties make that structural rather
//! than lucky:
//!
//! * the driver starts the ranks in rank order and each stops at its
//!   `SchedPoint::Enter` arrival, so the scheduler's first decision
//!   always sees the same waiting set; from then on exactly one rank
//!   runs between two decisions;
//! * `Shared::reset` rewinds every observable counter and container to
//!   its freshly-constructed value, so the simulation cannot read any
//!   state bled from the previous schedule.
//!
//! ### Reset safety
//!
//! `Shared::reset` needs `&mut Shared`, obtained via `Arc::get_mut`:
//! it succeeds exactly when no rank still holds a clone. Ranks
//! guarantee that by construction — a rank body's `Arc<Shared>` is
//! dropped when the body returns, strictly *before* its worker counts
//! the job finished (or its coroutine finishes). `Shared` is
//! crate-private, so no caller can retain a handle; `run` treats a
//! failed `Arc::get_mut` as a broken invariant and panics rather than
//! corrupt a live universe.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use allocstats::AllocStats;
use parking_lot::Mutex;

use faultsim::{RunStats, SchedPoint, StepOutcome};

use crate::coro::{with_sched, Coroutine, Group};
use crate::error::{Error, RankOutcome, Result};
use crate::process::Process;
use crate::universe::{ReportBuffers, RunReport, Shared, UniverseConfig, WATCHDOG_ABORT_CODE};

/// One unit of work: one rank incarnation of one run, on the
/// worker-owned [`Process`] of that rank.
type Job = Box<dyn FnOnce(&mut Process) + Send>;

/// One rank incarnation of one run: its generation, on its rank's
/// [`Process`]. Both executors run this same body.
type RankBody<'a> = dyn Fn(u32, &mut Process) + Sync + 'a;

/// What the caller and the workers share about the current run.
struct RunState {
    /// Jobs submitted and not yet finished. At zero the run is over: a
    /// respawn raises it only from above zero (`add_if_running`). The
    /// `AcqRel` decrements in `finish` order every finished job (its
    /// outcome, its dropped `Arc<Shared>`) before the completion
    /// message; the caller's store and increments are `Relaxed`, since
    /// the queue's send orders them before the job runs.
    pending: AtomicUsize,
    /// Heap traffic of the run's job bodies, summed from each worker's
    /// thread-local `allocstats` counters. Stays zero unless the final
    /// binary installs [`allocstats::StatsAlloc`] as its global
    /// allocator (the `dst` harness does).
    alloc: Mutex<AllocStats>,
    /// The run's one completion message, sent by the worker that takes
    /// `pending` to zero.
    done: Sender<()>,
}

impl RunState {
    /// Count one job finished, its body having allocated `alloc`.
    fn finish(&self, alloc: &AllocStats) {
        self.alloc.lock().add(alloc);
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _ = self.done.send(());
        }
    }

    /// Count one more job, unless the run is already over.
    fn add_if_running(&self) -> bool {
        self.pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| (p > 0).then_some(p + 1))
            .is_ok()
    }
}

/// A worker's life: run the jobs of its queue in order until the pool
/// closes the queue. A queue, not a slot: a respawned incarnation is
/// queued behind the previous one, which may still be unwinding, so
/// incarnations of one rank run in order and the last one's outcome
/// is the rank's.
fn worker_loop(jobs: Receiver<Job>, run: Arc<RunState>, idx: usize) {
    no_wakeup_preemption();
    // This rank's process, lent to every job this worker runs and
    // reset in place after each.
    let mut proc = Process::new(idx);
    for job in jobs {
        // The job's own `catch_unwind` covers the rank closure; this
        // outer one covers the bookkeeping tail, so a panicking job
        // still counts as finished — `run` then reports the missing
        // outcome as a clean panic instead of deadlocking.
        //
        // Ordering matters: the call consumes the job, dropping its
        // captured `Arc<Shared>` before `finish` counts it — `run`
        // relies on that for exclusive access at the next reset.
        let before = allocstats::snapshot();
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| job(&mut proc)));
        run.finish(&allocstats::snapshot().since(&before));
    }
}

/// Put the calling thread under `SCHED_BATCH`, whose tasks the fair
/// scheduler never lets preempt the running task on wakeup. A rank that
/// delivers a message and wakes its receiver then keeps the CPU until
/// it parks itself, so on a shared core a hop costs one context switch,
/// not two. Refused (a seccomp filter may), the thread keeps the default
/// policy: correct, at the old cost.
#[cfg(target_os = "linux")]
fn no_wakeup_preemption() {
    use std::ffi::c_int;
    #[repr(C)]
    struct SchedParam {
        sched_priority: c_int,
    }
    extern "C" {
        fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    }
    const SCHED_BATCH: c_int = 3;
    // SAFETY: pid 0 is the calling thread, and `param` points to a live
    // `struct sched_param` for the length of the call.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &SchedParam { sched_priority: 0 }) };
}

#[cfg(not(target_os = "linux"))]
fn no_wakeup_preemption() {}

/// The wall-clock executor: `n` worker threads, a job queue each, and
/// the run state they share with the caller.
struct Workers {
    jobs: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    run: Arc<RunState>,
    done: Receiver<()>,
}

impl Workers {
    fn spawn(n: usize) -> Workers {
        let (done, done_rx) = channel();
        let alloc = Mutex::new(AllocStats::default());
        let run = Arc::new(RunState { pending: AtomicUsize::new(0), alloc, done });
        let (jobs, handles) = (0..n)
            .map(|i| {
                let (tx, rx) = channel();
                let run = Arc::clone(&run);
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{i}"))
                    .spawn(move || worker_loop(rx, run, i))
                    .expect("spawn pool worker thread");
                (tx, handle)
            })
            .unzip();
        Workers { jobs, handles, run, done: done_rx }
    }

    /// Wait for the run's completion message until `until` (`None`: for
    /// as long as it takes, which `recv_timeout` hands to `recv`). True
    /// once the run is over.
    fn wait_done(&self, until: Option<Instant>) -> bool {
        let timeout =
            until.map_or(Duration::MAX, |at| at.saturating_duration_since(Instant::now()));
        self.done.recv_timeout(timeout) != Err(RecvTimeoutError::Timeout)
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Closing the queues ends every worker's loop.
        self.jobs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The simulation executor: per rank, a coroutine stack and the
/// [`Process`] a worker thread would own. Reused across runs, so a
/// steady-state simulated run maps and allocates nothing.
struct SimRanks {
    coros: Vec<Coroutine>,
    /// `RefCell`: each coroutine borrows its own rank's process for
    /// the length of its body, through the body every coroutine shares.
    procs: Vec<RefCell<Process>>,
}

/// A persistent rank-executor pool: recycled universe state plus a
/// warm executor — worker threads in wall-clock mode, coroutine stacks
/// under a simulation scheduler — running whole universes back-to-back
/// without per-run thread spawns, stack mappings or state reallocation.
///
/// ```
/// use ftmpi::{UniverseConfig, UniversePool};
///
/// let mut pool = UniversePool::new(2);
/// for _ in 0..3 {
///     let report = pool.run(UniverseConfig::default(), |p| Ok(p.world_rank()));
///     assert!(report.all_ok());
/// }
/// ```
pub struct UniversePool {
    size: usize,
    /// Warm universe state from the previous run, reset in place at the
    /// start of the next one.
    shared: Option<Arc<Shared>>,
    /// Spawned by the first wall-clock run.
    workers: Option<Workers>,
    /// Mapped by the first simulated run.
    sim: Option<SimRanks>,
}

impl UniversePool {
    /// A pool for universes of `n` ranks. Creates no thread and maps no
    /// stack: each executor is built by the first run that uses it.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "universe needs at least one rank");
        UniversePool { size: n, shared: None, workers: None, sim: None }
    }

    /// Number of ranks in this pool's universes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` on every rank under `cfg`, reusing this pool's executor
    /// and universe state. Semantics are identical to [`crate::run`]
    /// with the same arguments.
    pub fn run<T, F>(&mut self, cfg: UniverseConfig<'_>, f: F) -> RunReport<T>
    where
        T: Send,
        F: Fn(&mut Process) -> Result<T> + Send + Sync,
    {
        self.run_in(cfg, ReportBuffers::default(), f)
    }

    /// [`UniversePool::run`], with the report built in `bufs`: handed
    /// the previous report's buffers, a run allocates none of its own.
    pub fn run_in<T, F>(
        &mut self,
        cfg: UniverseConfig<'_>,
        bufs: ReportBuffers<T>,
        f: F,
    ) -> RunReport<T>
    where
        T: Send,
        F: Fn(&mut Process) -> Result<T> + Send + Sync,
    {
        let n = self.size;
        let UniverseConfig { plan, watchdog, trace, respawn, sched } = cfg;
        let sim = sched.is_some();
        assert!(
            !sim || respawn.is_none(),
            "a deterministic-simulation scheduler is incompatible with the respawn extension"
        );
        assert!(
            !sim || watchdog.is_none(),
            "a deterministic-simulation scheduler is incompatible with the wall-clock watchdog"
        );

        // Build on the first run, reset in place on every later one.
        // Under a scheduler the trace stamps events with its logical
        // clock instead of wall-clock time.
        let shared = match self.shared.take() {
            Some(mut arc) => {
                Arc::get_mut(&mut arc)
                    .expect("every rank dropped its Arc<Shared> before the last run returned")
                    .reset(&plan, trace, sim);
                arc
            }
            None => Arc::new(Shared::fresh(n, &plan, trace, sim)),
        };

        let ReportBuffers { mut outcomes, mut generations, trace: trace_buf } = bufs;
        outcomes.clear();
        // Collected in place: an `Option` of an outcome is no larger.
        let mut slots: Vec<Option<RankOutcome<T>>> = outcomes.into_iter().map(Some).collect();
        slots.resize_with(n, || None);
        let outcomes = Mutex::new(slots);
        let rank_body = |gen: u32, proc: &mut Process| {
            let me = proc.world_rank();
            if sim {
                // First scheduling point: every rank stops here before
                // any user code runs, so the schedule's first decision
                // picks among all of them.
                with_sched(|s| s.arrive(me, SchedPoint::Enter));
                if crate::coro::suspend() == StepOutcome::Abort {
                    shared.abort(WATCHDOG_ABORT_CODE);
                }
            }
            // Detached when the body returns — before the rank counts
            // as finished, which the next run's reset relies on.
            proc.attach(Arc::clone(&shared), gen);
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| f(proc)));
            proc.detach();
            if sim {
                // The rank is done scheduling-wise whatever the
                // outcome (including panics).
                with_sched(|s| s.on_exit(me));
            }
            let outcome = match res {
                Ok(Ok(v)) => RankOutcome::Ok(v),
                Ok(Err(Error::SelfFailed)) => RankOutcome::Failed,
                Ok(Err(Error::Aborted { code })) => RankOutcome::Aborted { code },
                Ok(Err(e)) => RankOutcome::Err(e),
                Err(p) => {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic".to_string());
                    RankOutcome::Panicked(msg)
                }
            };
            // Later incarnations overwrite: the rank's reported
            // outcome is its final incarnation's (incarnations of one
            // rank run in order on its worker).
            outcomes.lock()[me] = Some(outcome);
        };

        let ((mut hung, alloc), mut stats) = match sched {
            Some(sched) => {
                let alloc = crate::coro::drive_with(&mut *sched, || self.drive_sim(&rank_body));
                ((false, alloc), sched.run_stats())
            }
            None => (self.run_threads(&shared, watchdog, respawn, &rank_body), RunStats::default()),
        };

        // A simulation scheduler's hang verdict (deadlock, or its step
        // budget) aborts with the same code as the wall-clock
        // watchdog; report it as a hang too.
        hung |= shared.registry.aborted() == Some(WATCHDOG_ABORT_CODE);
        generations.clear();
        generations.extend((0..n).map(|r| shared.registry.generation(r)));
        stats.handoff.parks = shared.fabric.sleeps();
        stats.handoff.wakes = shared.fabric.wakes();
        stats.handoff.park_safety_timeouts = shared.fabric.park_timeouts();
        stats.alloc = alloc;
        let outcomes = outcomes
            .into_inner()
            .into_iter()
            .map(|o| o.expect("every rank records an outcome"))
            .collect();
        let report = RunReport {
            outcomes,
            hung,
            trace: shared.trace.take(trace_buf),
            generations,
            stats,
            injector: Arc::clone(&shared.injector),
        };
        // Keep the universe state warm for the next run.
        self.shared = Some(shared);
        report
    }

    /// The simulation executor, run inside `coro::drive_with`: every
    /// rank a coroutine on this thread, run in the order the installed
    /// scheduler decides. Returns this thread's heap traffic over the
    /// whole drive (which is all of the rank bodies').
    fn drive_sim(&mut self, rank_body: &RankBody<'_>) -> AllocStats {
        let n = self.size;
        let sim = self.sim.get_or_insert_with(|| SimRanks {
            coros: (0..n).map(|_| Coroutine::new()).collect(),
            procs: (0..n).map(|me| RefCell::new(Process::new(me))).collect(),
        });
        let before = allocstats::snapshot();
        let procs = &sim.procs;
        let body = |me: usize| rank_body(0, &mut procs[me].borrow_mut());
        let mut group = Group::new(&mut sim.coros, &body);
        // Each rank runs up to its `Enter` arrival and suspends there.
        for me in 0..n {
            group.resume(me, StepOutcome::Run);
        }
        // The driver loop. A rank arriving at a scheduling point draws
        // the next grant itself and switches straight to it
        // (`Process::sched_step`), so control comes back here only when
        // a rank returns: the scheduler is asked for the next grant
        // then, and after the `Enter` arrivals above. Either way every
        // live rank is suspended at a step point whenever the scheduler
        // is asked, so a decision always sees the complete enabled set
        // — and an empty one with ranks still suspended is a deadlock
        // the scheduler can call on the spot. The loop ends only when
        // nobody is suspended, i.e. every rank has returned through its
        // own frames: on a deadlock or a spent budget the scheduler
        // hands each of them `Abort`, so no suspended stack is ever
        // dropped.
        while let Some((me, outcome)) = with_sched(|s| s.next()) {
            group.resume(me, outcome);
        }
        assert_eq!(group.live(), 0, "the scheduler stopped granting with ranks still suspended");
        allocstats::snapshot().since(&before)
    }

    /// The wall-clock executor: one job per rank incarnation on the
    /// worker threads, supervised from this thread for the watchdog and
    /// the respawn extension. Returns whether the watchdog fired, and
    /// the job bodies' heap traffic summed over the workers.
    fn run_threads(
        &mut self,
        shared: &Shared,
        watchdog: Option<Duration>,
        respawn: Option<crate::universe::RespawnPolicy>,
        rank_body: &RankBody<'_>,
    ) -> (bool, AllocStats) {
        let n = self.size;
        let deadline = watchdog.map(|limit| Instant::now() + limit);
        let workers = &*self.workers.get_or_insert_with(|| Workers::spawn(n));
        // The last run ended at zero with every worker idle.
        workers.run.pending.store(n, Ordering::Relaxed);

        let submit = |me: usize, gen: u32| {
            let job: Box<dyn FnOnce(&mut Process) + Send + '_> =
                Box::new(move |proc: &mut Process| rank_body(gen, proc));
            // SAFETY: the job borrows `rank_body` (and through it `f`,
            // `outcomes` and the stack frame of `run`), which the
            // 'static `Job` type erases. Sound because `run` does not
            // return (or unwind past the borrows — nothing below
            // panics before the wait) until the run's completion
            // message arrived, and a worker counts a job finished only
            // after the job closure (and thus every use of those
            // borrows) returned. A job whose worker is gone comes back
            // in the error and is dropped here, counted as finished.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce(&mut Process) + Send + '_>, Job>(job)
            };
            if workers.jobs[me].send(job).is_err() {
                workers.run.finish(&AllocStats::default());
            }
        };
        for me in 0..n {
            submit(me, 0);
        }

        // The supervisor: wait for the run to end, waking at the
        // watchdog's deadline and every 1 ms while a respawn may fall
        // due (a death sends no message).
        let mut budget: Vec<u32> = vec![respawn.map_or(0, |p| p.max_per_rank); n];
        let mut death_seen: Vec<Option<Instant>> = vec![None; n];
        let hung = loop {
            let respawn_may_fall_due = respawn.is_some()
                && shared.registry.aborted().is_none()
                && budget.iter().any(|&b| b > 0);
            let poll = respawn_may_fall_due.then(|| Instant::now() + Duration::from_millis(1));
            if workers.wait_done(deadline.into_iter().chain(poll).min()) {
                break false;
            }
            if deadline.is_some_and(|at| Instant::now() >= at) {
                shared.abort(WATCHDOG_ABORT_CODE);
                // The aborted ranks still unwind; their jobs must
                // finish before the borrows are released.
                workers.wait_done(None);
                break true;
            }
            let Some(policy) = respawn.filter(|_| shared.registry.aborted().is_none()) else {
                continue;
            };
            for r in 0..n {
                if !shared.registry.is_failed(r) || budget[r] == 0 {
                    death_seen[r] = None;
                    continue;
                }
                let seen = *death_seen[r].get_or_insert_with(Instant::now);
                if seen.elapsed() >= policy.after {
                    budget[r] -= 1;
                    death_seen[r] = None;
                    // Revive only while some incarnation still runs:
                    // a rank revived after everyone else finished
                    // would have nobody left to talk to.
                    if !workers.run.add_if_running() {
                        break;
                    }
                    match shared.respawn(r) {
                        Some(gen) => submit(r, gen),
                        None => workers.run.finish(&AllocStats::default()),
                    }
                }
            }
        };
        (hung, std::mem::take(&mut *workers.run.alloc.lock()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorHandler, Src, WORLD};

    fn ring_once(p: &mut Process) -> Result<u64> {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let n = p.world_size();
        let me = p.world_rank();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        if me == 0 {
            p.send(WORLD, next, 0, &1u64)?;
            let (v, _) = p.recv::<u64>(WORLD, Src::Rank(prev), 0)?;
            Ok(v)
        } else {
            let (v, _) = p.recv::<u64>(WORLD, Src::Rank(prev), 0)?;
            p.send(WORLD, next, 0, &(v + 1))?;
            Ok(v)
        }
    }

    #[test]
    fn pool_runs_back_to_back_with_identical_results() {
        let mut pool = UniversePool::new(4);
        for round in 0..5 {
            let report = pool.run(UniverseConfig::default(), ring_once);
            assert!(report.all_ok(), "round {round}: {:?}", report.failed_ranks());
            assert_eq!(report.outcomes[0].as_ok(), Some(&4u64), "round {round}");
            assert_eq!(report.generations, vec![0; 4]);
        }
    }

    #[test]
    fn pool_state_does_not_bleed_between_failing_and_clean_runs() {
        use faultsim::{FaultPlan, HookKind};
        let mut pool = UniversePool::new(3);
        // Run 1: kill rank 1 at its first send.
        let plan = FaultPlan::none().kill_at(1, HookKind::BeforeSend, 1);
        let report = pool.run::<u64, _>(UniverseConfig::with_plan(plan), |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                // Dies at the BeforeSend hook; the send reports it.
                p.send(WORLD, 0, 7, &1u64)?;
            }
            Ok(p.world_rank() as u64)
        });
        assert!(report.outcomes[1].is_failed(), "rank 1 must be killed");
        // Run 2: clean — the failure must not leak into it.
        let report = pool.run(UniverseConfig::default(), ring_once);
        assert!(report.all_ok(), "failure state bled: {:?}", report.failed_ranks());
        assert_eq!(report.outcomes[0].as_ok(), Some(&3u64));
    }

    /// The calling thread's scheduling policy: `SCHED_OTHER` is 0,
    /// `SCHED_BATCH` 3.
    #[cfg(target_os = "linux")]
    fn policy() -> i32 {
        extern "C" {
            fn sched_getscheduler(pid: i32) -> i32;
        }
        // SAFETY: pid 0 is the calling thread; the call reads only.
        unsafe { sched_getscheduler(0) }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn wall_clock_ranks_run_under_sched_batch_and_the_caller_does_not() {
        let mut pool = UniversePool::new(3);
        for _ in 0..2 {
            let report = pool.run(UniverseConfig::default(), |_| Ok(policy()));
            assert!(report.outcomes.iter().all(|o| o.as_ok() == Some(&3)), "{:?}", report.outcomes);
        }
        assert_eq!(policy(), 0, "the caller's thread keeps the default policy");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn simulated_ranks_keep_the_callers_policy() {
        /// First come, first served: every arrival is runnable.
        #[derive(Default)]
        struct Fifo(std::collections::VecDeque<usize>);
        impl faultsim::SchedHook for Fifo {
            fn arrive(&mut self, rank: usize, _point: SchedPoint) {
                self.0.push_back(rank);
            }
            fn next(&mut self) -> Option<(usize, StepOutcome)> {
                self.0.pop_front().map(|r| (r, StepOutcome::Run))
            }
            fn wake(&mut self, _rank: usize) {}
            fn wake_all(&mut self) {}
            fn choose(&mut self, _rank: usize, _kind: faultsim::ChoiceKind, _n: usize) -> usize {
                0
            }
            fn on_exit(&mut self, _rank: usize) {}
        }
        let mut sched = Fifo::default();
        let cfg = UniverseConfig::default().sim(&mut sched);
        let report = UniversePool::new(3).run(cfg, |_| Ok(policy()));
        assert!(report.outcomes.iter().all(|o| o.as_ok() == Some(&0)), "{:?}", report.outcomes);
    }

    #[test]
    fn one_shot_run_wrapper_matches_pool() {
        let from_run = crate::run(4, UniverseConfig::default(), ring_once);
        let mut pool = UniversePool::new(4);
        let from_pool = pool.run(UniverseConfig::default(), ring_once);
        assert_eq!(from_run.outcomes, from_pool.outcomes);
        assert_eq!(from_run.hung, from_pool.hung);
        assert_eq!(from_run.generations, from_pool.generations);
    }
}
