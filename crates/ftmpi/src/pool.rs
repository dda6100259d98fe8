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
//!   threads named `rank-{i}`, each handed the closure for one run;
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
//! dropped when the body returns, strictly *before* its worker bumps
//! the completion counter (or its coroutine finishes). `Shared` is
//! crate-private, so no caller can retain a handle; `run` treats a
//! failed `Arc::get_mut` as a broken invariant and panics rather than
//! corrupt a live universe.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use allocstats::AllocStats;
use parking_lot::Mutex;

use faultsim::{RunStats, SchedPoint, StepOutcome};

use crate::coro::{with_sched, Coroutine, Group};
use crate::error::{Error, RankOutcome, Result};
use crate::process::{Process, RankScratch};
use crate::universe::{RunReport, Shared, UniverseConfig, WATCHDOG_ABORT_CODE};

/// One unit of work: one rank incarnation of one run. The argument is
/// the worker-owned [`RankScratch`] (drain buffer, match engine,
/// request table, communicator table, encode scratch), kept warm
/// across runs.
type Job = Box<dyn FnOnce(&mut RankScratch) + Send>;

/// Per-worker job queue. A queue, not a slot: the respawn extension
/// can enqueue a rank's next incarnation while the previous one is
/// still unwinding on the same worker (incarnations of one rank then
/// run in order, which also makes the "later incarnations overwrite
/// the outcome" rule deterministic instead of racy).
///
/// Idle workers sleep via `thread::park`, not a condvar: a submitter
/// pays one atomic load (and an unpark only when the worker actually
/// sleeps) instead of an unconditional notify through the condvar
/// machinery — measured ~150 ns per empty `notify_one` on the
/// reference box, paid once per job submission.
struct WorkerSlot {
    queue: Mutex<VecDeque<Job>>,
    /// True while the worker has committed to parking; tells a
    /// submitter an unpark is required. Stores/loads are ordered
    /// against the queue by the `queue` mutex critical sections (the
    /// worker re-checks the queue under the lock after setting this).
    parked: AtomicBool,
    /// The worker's thread handle, registered by the worker before it
    /// first touches the queue.
    thread: OnceLock<Thread>,
}

struct PoolCore {
    slots: Vec<WorkerSlot>,
    shutdown: AtomicBool,
    /// Jobs completed in the current run; rewound by `UniversePool::run`.
    done: AtomicUsize,
    /// Jobs submitted so far in the current run — maintained *before*
    /// each submission so a worker comparing `done >= target` can only
    /// see the caller's wait satisfied when every submitted job truly
    /// finished.
    target: AtomicUsize,
    /// The caller thread blocked in `wait_done`, if any. The caller
    /// registers itself here *before* re-checking `done`, so a worker
    /// that bumps `done` past the target either sees the registration
    /// (and unparks) or the caller's re-check sees the bump.
    waiter: Mutex<Option<Thread>>,
    /// Heap traffic of the current run's job bodies, accumulated from
    /// each worker's thread-local counters (see [`AllocTally`]).
    alloc: AllocTally,
}

/// One rank incarnation of one run: `(rank, generation, scratch)`.
/// Both executors run this same body.
type RankBody<'a> = dyn Fn(usize, u32, &mut RankScratch) + Sync + 'a;

/// Run-scoped allocation tally. Workers snapshot their thread-local
/// `allocstats` counters around each job body and fold the delta in
/// here; `UniversePool::run` rewinds it at the start of a run and
/// harvests it into [`RunReport::alloc`] at the end. All counters are
/// `Relaxed`: they are statistics, ordered against the harvest by the
/// run's completion barrier (`wait_done`), and stay zero unless the
/// final binary installs [`allocstats::StatsAlloc`] as its global
/// allocator (the `dst` harness does).
#[derive(Default)]
struct AllocTally {
    allocs: AtomicU64,
    deallocs: AtomicU64,
    bytes_alloc: AtomicU64,
    bytes_freed: AtomicU64,
}

impl AllocTally {
    fn add(&self, d: &AllocStats) {
        self.allocs.fetch_add(d.allocs, Ordering::Relaxed);
        self.deallocs.fetch_add(d.deallocs, Ordering::Relaxed);
        self.bytes_alloc.fetch_add(d.bytes_alloc, Ordering::Relaxed);
        self.bytes_freed.fetch_add(d.bytes_freed, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.allocs.store(0, Ordering::Relaxed);
        self.deallocs.store(0, Ordering::Relaxed);
        self.bytes_alloc.store(0, Ordering::Relaxed);
        self.bytes_freed.store(0, Ordering::Relaxed);
    }

    fn harvest(&self) -> AllocStats {
        AllocStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            deallocs: self.deallocs.load(Ordering::Relaxed),
            bytes_alloc: self.bytes_alloc.load(Ordering::Relaxed),
            bytes_freed: self.bytes_freed.load(Ordering::Relaxed),
        }
    }
}

impl PoolCore {
    /// Enqueue without waking. The initial rank batch is pushed first
    /// and kicked together (see `kick_all`) so all ranks start as
    /// near-simultaneously as `thread::scope` spawns did — wall-clock
    /// fault tests lean on every rank reaching its first send before a
    /// self-killing rank (whose kill is strictly later in program
    /// order) dies.
    fn push(&self, worker: usize, job: Job) {
        self.slots[worker].queue.lock().push_back(job);
    }

    /// Unpark `worker` iff it declared itself parked. Safe against the
    /// lost-wakeup race: the worker sets `parked` *before* its final
    /// under-lock queue re-check, and callers kick only after their
    /// push's critical section — so either the re-check sees the job,
    /// or the kick sees `parked` and delivers the unpark token.
    fn kick(&self, worker: usize) {
        let slot = &self.slots[worker];
        if slot.parked.load(Ordering::Acquire) {
            if let Some(t) = slot.thread.get() {
                t.unpark();
            }
        }
    }

    fn kick_all(&self) {
        for i in 0..self.slots.len() {
            self.kick(i);
        }
    }

    fn submit(&self, worker: usize, job: Job) {
        self.push(worker, job);
        self.kick(worker);
    }

    fn done_count(&self) -> usize {
        self.done.load(Ordering::Acquire)
    }

    fn wait_done(&self, target: usize) {
        if self.done.load(Ordering::Acquire) >= target {
            return;
        }
        // Register first, then re-check: a worker that crosses the
        // target after the re-check is guaranteed to observe the
        // registration and unpark us. A stale unpark token from a
        // previous run at worst makes one park return early; the loop
        // re-checks.
        *self.waiter.lock() = Some(std::thread::current());
        while self.done.load(Ordering::Acquire) < target {
            std::thread::park();
        }
        *self.waiter.lock() = None;
    }
}

fn worker_loop(core: Arc<PoolCore>, idx: usize) {
    let slot = &core.slots[idx];
    let _ = slot.thread.set(std::thread::current());
    // Warm per-rank container scratch, lent to every job this worker
    // runs.
    let mut scratch = RankScratch::default();
    'outer: loop {
        let job = 'take: loop {
            if let Some(j) = slot.queue.lock().pop_front() {
                break 'take j;
            }
            if core.shutdown.load(Ordering::Acquire) {
                break 'outer;
            }
            // Commit to parking, then re-check the queue *under the
            // lock*: a submitter that pushed before our re-check is
            // seen here; one that pushes after is ordered behind our
            // `parked` store by the queue critical sections and will
            // kick us.
            slot.parked.store(true, Ordering::Release);
            {
                let q = slot.queue.lock();
                if q.is_empty() && !core.shutdown.load(Ordering::Acquire) {
                    drop(q);
                    std::thread::park();
                }
            }
            slot.parked.store(false, Ordering::Release);
        };
        // The job's own `catch_unwind` covers the rank closure; this
        // outer one covers the bookkeeping tail, so a panicking job
        // still counts as finished — `run` then reports the missing
        // outcome as a clean panic instead of deadlocking.
        //
        // Ordering matters: the call consumes the job, dropping its
        // captured `Arc<Shared>` before the completion signal below —
        // `run` relies on that for exclusive access at the next reset.
        let before = allocstats::snapshot();
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| job(&mut scratch)));
        core.alloc.add(&allocstats::snapshot().since(&before));
        let done = core.done.fetch_add(1, Ordering::AcqRel) + 1;
        if done >= core.target.load(Ordering::Acquire) {
            // Possibly the last job of the run: wake the caller if it
            // is (or is about to be) parked in `wait_done`. Spurious
            // wakes (another submission raised the target since) are
            // harmless — the caller re-checks.
            if let Some(t) = core.waiter.lock().as_ref() {
                t.unpark();
            }
        }
    }
}

/// The wall-clock executor: `n` worker threads and their queues.
struct Workers {
    core: Arc<PoolCore>,
    handles: Vec<JoinHandle<()>>,
}

impl Workers {
    fn spawn(n: usize) -> Workers {
        let core = Arc::new(PoolCore {
            slots: (0..n)
                .map(|_| WorkerSlot {
                    queue: Mutex::new(VecDeque::new()),
                    parked: AtomicBool::new(false),
                    thread: OnceLock::new(),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            done: AtomicUsize::new(0),
            target: AtomicUsize::new(0),
            waiter: Mutex::new(None),
            alloc: AllocTally::default(),
        });
        let handles = (0..n)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("rank-{i}"))
                    .spawn(move || worker_loop(core, i))
                    .expect("spawn pool worker thread")
            })
            .collect();
        Workers { core, handles }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        for slot in &self.core.slots {
            // Lock to serialize with a worker's pre-park re-check
            // (which reads `shutdown` inside the queue critical
            // section): after this critical section the worker either
            // saw the flag and will not park, or it is parked and the
            // unconditional unpark below wakes it. The `parked` flag
            // alone would race store-vs-load here.
            drop(slot.queue.lock());
            if let Some(t) = slot.thread.get() {
                t.unpark();
            }
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The simulation executor: per rank, a coroutine stack and the warm
/// [`RankScratch`] a worker thread would own. Reused across runs, so a
/// steady-state simulated run maps and allocates nothing.
struct SimRanks {
    coros: Vec<Coroutine>,
    /// `Cell`: the rank body takes its scratch out and puts it back
    /// through a shared reference, and every rank runs on one thread.
    scratch: Vec<Cell<RankScratch>>,
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
        let n = self.size;
        let UniverseConfig { plan, watchdog, trace, respawn, sched } = cfg;
        let sim = sched.is_some();
        assert!(
            !sim || respawn.is_none(),
            "a deterministic-simulation scheduler is incompatible with the respawn extension"
        );

        // Build on the first run, reset in place on every later one.
        // Under a scheduler the trace stamps events with its logical
        // clock instead of wall-clock time.
        let shared = match self.shared.take() {
            Some(mut arc) => {
                Arc::get_mut(&mut arc)
                    .expect("every rank dropped its Arc<Shared> before the last run returned")
                    .reset(plan, trace, sim);
                arc
            }
            None => Arc::new(Shared::fresh(n, plan, trace, sim)),
        };

        let outcomes: Mutex<Vec<Option<RankOutcome<T>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let rank_body = |me: usize, gen: u32, scratch: &mut RankScratch| {
            // Dropped when this body returns — before the rank counts
            // as finished, which the next run's reset relies on.
            let shared = Arc::clone(&shared);
            if sim {
                // First scheduling point: every rank stops here before
                // any user code runs, so the schedule's first decision
                // picks among all of them.
                with_sched(|s| s.arrive(me, SchedPoint::Enter));
                if crate::coro::suspend() == StepOutcome::Abort {
                    shared.abort(WATCHDOG_ABORT_CODE);
                }
            }
            let buf = std::mem::take(scratch);
            let mut proc = Process::with_scratch(me, gen, shared, buf);
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut proc)));
            *scratch = proc.recycle_scratch();
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

        let start = Instant::now();
        let ((mut hung, alloc), mut stats) = match sched {
            Some(sched) => {
                let deadline = watchdog.map(|limit| start + limit);
                let (alloc, hung) = crate::coro::drive_with(&mut *sched, deadline, || {
                    self.drive_sim(&shared, &rank_body)
                });
                ((hung, alloc), sched.run_stats())
            }
            None => (
                self.run_threads(&shared, watchdog, respawn, start, &rank_body),
                RunStats::default(),
            ),
        };

        // A simulation scheduler's hang verdict (deadlock, or its step
        // budget) aborts with the same code as the wall-clock
        // watchdog; report it as a hang too.
        if shared.registry.aborted() == Some(WATCHDOG_ABORT_CODE) {
            hung = true;
        }
        let generations = (0..n).map(|r| shared.registry.generation(r)).collect();
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
            trace: shared.trace.events(),
            duration: start.elapsed(),
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
    fn drive_sim(&mut self, shared: &Shared, rank_body: &RankBody<'_>) -> AllocStats {
        let n = self.size;
        let sim = self.sim.get_or_insert_with(|| SimRanks {
            coros: (0..n).map(|_| Coroutine::new()).collect(),
            scratch: (0..n).map(|_| Cell::default()).collect(),
        });
        let before = allocstats::snapshot();
        let scratch = &sim.scratch;
        let body = |me: usize| {
            let mut buf = scratch[me].take();
            rank_body(me, 0, &mut buf);
            scratch[me].set(buf);
        };
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
            if crate::coro::deadline_passed() {
                // The wall-clock backstop, tested after every grant
                // because this thread is the only one there is: abort
                // the job once and keep driving until every rank has
                // noticed.
                shared.abort(WATCHDOG_ABORT_CODE);
            }
            group.resume(me, outcome);
        }
        assert_eq!(group.live(), 0, "the scheduler stopped granting with ranks still suspended");
        allocstats::snapshot().since(&before)
    }

    /// The wall-clock executor: one job per rank incarnation on the
    /// worker threads, supervised for the watchdog and the respawn
    /// extension. Returns whether the watchdog fired, and the job
    /// bodies' heap traffic summed over the workers.
    fn run_threads(
        &mut self,
        shared: &Shared,
        watchdog: Option<Duration>,
        respawn: Option<crate::universe::RespawnPolicy>,
        start: Instant,
        rank_body: &RankBody<'_>,
    ) -> (bool, AllocStats) {
        let n = self.size;
        let core = &*self.workers.get_or_insert_with(|| Workers::spawn(n)).core;

        // Only the caller's thread submits jobs, so a plain Cell counts
        // them.
        let spawned = Cell::new(0usize);
        core.done.store(0, Ordering::Release);
        core.target.store(0, Ordering::Release);
        core.alloc.reset();
        let mut hung = false;

        let submit_incarnation = |me: usize, gen: u32, kick: bool| {
            spawned.set(spawned.get() + 1);
            // Raise the completion target before the job exists: a
            // worker can then never observe `done >= target` with this
            // job outstanding.
            core.target.store(spawned.get(), Ordering::Release);
            let job: Box<dyn FnOnce(&mut RankScratch) + Send + '_> =
                Box::new(move |scratch: &mut RankScratch| rank_body(me, gen, scratch));
            // SAFETY: the job borrows `rank_body` (and through it `f`,
            // `outcomes` and the stack frame of `run`), which the
            // 'static `Job` type erases. Sound because `run` does not
            // return (or unwind past the borrows — nothing below
            // panics before the wait) until `wait_done` has observed
            // every submitted job complete, and a worker only counts a
            // job complete after the job closure (and thus every use
            // of those borrows) returned.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce(&mut RankScratch) + Send + '_>, Job>(job)
            };
            if kick {
                core.submit(me, job);
            } else {
                core.push(me, job);
            }
        };

        // Push the whole rank batch before waking anyone: all ranks
        // then start together (like scoped spawns pipelining) instead
        // of in wake order.
        for me in 0..n {
            submit_incarnation(me, 0, false);
        }
        core.kick_all();

        // Supervisor loop: watchdog + recovery, polling at 1ms. Skipped
        // entirely when
        // neither is configured (the completion wait below suffices).
        if watchdog.is_some() || respawn.is_some() {
            let mut budget: Vec<u32> = vec![respawn.map(|p| p.max_per_rank).unwrap_or(0); n];
            let mut death_seen: Vec<Option<Instant>> = vec![None; n];
            loop {
                let all_done = core.done_count() == spawned.get();
                // A respawn is only pending while some incarnation is
                // still running: reviving a rank after everyone else
                // finished would strand it (nobody left to talk to).
                let respawn_pending = !all_done
                    && respawn.is_some()
                    && shared.registry.aborted().is_none()
                    && (0..n).any(|r| shared.registry.is_failed(r) && budget[r] > 0);
                if all_done {
                    break;
                }
                if let Some(limit) = watchdog {
                    if start.elapsed() > limit {
                        hung = true;
                        shared.abort(WATCHDOG_ABORT_CODE);
                        break;
                    }
                }
                if let Some(policy) = respawn {
                    if respawn_pending {
                        for r in 0..n {
                            if !shared.registry.is_failed(r) {
                                death_seen[r] = None;
                                continue;
                            }
                            if budget[r] == 0 {
                                continue;
                            }
                            let seen = *death_seen[r].get_or_insert_with(Instant::now);
                            if seen.elapsed() >= policy.after {
                                budget[r] -= 1;
                                death_seen[r] = None;
                                if let Some(gen) = shared.respawn(r) {
                                    submit_incarnation(r, gen, true);
                                }
                            }
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Every submitted job must finish before the borrows (and the
        // workers' `Arc<Shared>` clones) can be considered released —
        // including post-abort unwinds after a watchdog break above.
        core.wait_done(spawned.get());
        (hung, core.alloc.harvest())
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
