//! The simulation core's executor contract: simulated ranks are
//! coroutines on the caller's thread (`ftmpi`'s `coro.rs` + the pool's
//! driver loop), and that must be invisible to everything above it.
//!
//! * no suspended rank is ever abandoned — on budget exhaustion and on
//!   a wall-clock watchdog abort every rank body returns through its
//!   own frames before `pool.run` does;
//! * a panicking rank body is an outcome, not a crash, and leaves the
//!   pool usable;
//! * the logical counters of a schedule (`steps`, `grants`,
//!   `self_grants`) are the ones the thread-per-rank executor produced.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dst::{ScenarioCfg, Scheduler, SeedRunner};
use ftmpi::{
    ErrorHandler, Process, RankOutcome, Src, UniverseConfig, UniversePool, WATCHDOG_ABORT_CODE,
    WORLD,
};

const N: usize = 4;

/// Bumps its counter when dropped: proof that a rank body's frame was
/// unwound or returned through, not forgotten on a suspended stack.
struct Bump<'a>(&'a AtomicUsize);

impl Drop for Bump<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Every rank receives from its predecessor and nobody ever sends: a
/// distributed hang.
fn everyone_waits(p: &mut Process) -> ftmpi::Result<u64> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    let prev = (p.world_rank() + N - 1) % N;
    let (v, _) = p.recv::<u64>(WORLD, Src::Rank(prev), 0)?;
    Ok(v)
}

/// One token lap; the clean schedule the pool must still run after a
/// bad one.
fn ring_once(p: &mut Process) -> ftmpi::Result<u64> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    let (me, next, prev) = (p.world_rank(), (p.world_rank() + 1) % N, (p.world_rank() + N - 1) % N);
    if me == 0 {
        p.send(WORLD, next, 0, &1u64)?;
        Ok(p.recv::<u64>(WORLD, Src::Rank(prev), 0)?.0)
    } else {
        let (v, _) = p.recv::<u64>(WORLD, Src::Rank(prev), 0)?;
        p.send(WORLD, next, 0, &(v + 1))?;
        Ok(v)
    }
}

fn assert_clean_lap(pool: &mut UniversePool, seed: u64) {
    let sched = Arc::new(Scheduler::new(N, seed, 10_000));
    let report = pool.run(UniverseConfig::default().sim(sched.clone()), ring_once);
    assert!(report.all_ok(), "clean lap after a bad run: {:?}", report.outcomes);
    assert_eq!(report.outcomes[0].as_ok(), Some(&(N as u64)));
    assert!(!sched.budget_exhausted());
}

/// Run the hang under `cfg` with a drop guard local to every rank body
/// and check what both ways of ending it must guarantee: every rank —
/// all of them suspended mid-receive — was resumed with the abort
/// verdict and returned `Err(Aborted)` through its own frames before
/// `run` returned, and the pool is fit for a clean schedule afterwards.
fn assert_hang_is_unwound(cfg: UniverseConfig) -> ftmpi::RunReport<u64> {
    let dropped = AtomicUsize::new(0);
    let mut pool = UniversePool::new(N);
    let report = pool.run(cfg, |p| {
        let _guard = Bump(&dropped);
        everyone_waits(p)
    });
    assert_eq!(dropped.load(Ordering::Relaxed), N, "a rank body was left suspended");
    assert!(report.hung);
    for (rank, o) in report.outcomes.iter().enumerate() {
        assert_eq!(*o, RankOutcome::Aborted { code: WATCHDOG_ABORT_CODE }, "rank {rank}");
    }
    assert_clean_lap(&mut pool, 8);
    report
}

#[test]
fn budget_exhaustion_unwinds_every_rank_body() {
    let sched = Arc::new(Scheduler::new(N, 7, 500));
    assert_hang_is_unwound(UniverseConfig::default().sim(sched.clone()));
    assert!(sched.budget_exhausted());
}

/// `.sim()` + `.watchdog()`: the thread that would have supervised the
/// run is the one driving it, so the driver checks the wall clock
/// between resumes. With a budget that never fires, the wall-clock
/// limit ends the same hang through the same abort path.
#[test]
fn wall_clock_watchdog_fires_under_simulation() {
    let sched = Arc::new(Scheduler::new(N, 7, u64::MAX).quiet());
    let limit = Duration::from_millis(50);
    let report = assert_hang_is_unwound(UniverseConfig::default().sim(sched.clone()).watchdog(limit));
    assert!(!sched.budget_exhausted(), "the logical budget cannot have fired");
    assert!(report.duration >= limit);
}

/// A rank body that panics on its coroutine stack is reported as
/// `Panicked` — its peers, starved of the token it held, are ended by
/// the step budget — and the same pool runs a clean schedule next.
#[test]
fn a_panicking_rank_is_an_outcome_and_the_pool_survives() {
    let dropped = AtomicUsize::new(0);
    let mut pool = UniversePool::new(N);
    let sched = Arc::new(Scheduler::new(N, 3, 2_000));
    let report = pool.run(UniverseConfig::default().sim(sched), |p| {
        let _guard = Bump(&dropped);
        if p.world_rank() == 2 {
            // After at least one scheduling point, so the panic unwinds
            // a stack that has already been switched away from and back.
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            p.send(WORLD, 3, 9, &0u64)?;
            panic!("rank 2 gives up");
        }
        ring_once(p)
    });
    assert_eq!(report.outcomes[2], RankOutcome::Panicked("rank 2 gives up".to_string()));
    assert_eq!(dropped.load(Ordering::Relaxed), N);
    assert_clean_lap(&mut pool, 4);
}

/// Seeds `0..32` on one runner: the schedule's logical
/// counters, summed. `steps` and `grants` are the values the
/// thread-per-rank executor produced at the parent commit (measured
/// there, ten runs, always these). `self_grants` — the PRNG drew the
/// rank that had just stepped — was 890–892 and 1807–1809 there: the
/// *first* grant of a schedule followed whichever rank thread reached
/// its entry point last, which the OS decided. The coroutine driver
/// starts ranks in rank order, so the count is now exact and sits
/// inside the old range.
#[test]
fn logical_counters_match_the_threaded_executor() {
    for (ranks, steps, self_grants) in [(4usize, 3680u64, 890u64), (8, 14429, 1808)] {
        let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
        let mut runner = SeedRunner::new(ranks);
        let mut total = dst::HandoffStats::default();
        for seed in 0..32 {
            let obs = runner.run_seed_quiet(seed, &cfg);
            total.add(&obs.stats.handoff);
            runner.recycle(obs);
        }
        assert_eq!(
            (total.steps, total.grants, total.self_grants),
            (steps, steps, self_grants),
            "{ranks} ranks"
        );
        assert_eq!(total.parks, 0, "no thread is parked under simulation");
    }
}
