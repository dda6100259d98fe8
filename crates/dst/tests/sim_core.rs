//! The simulation core's executor contract: simulated ranks are
//! coroutines on the caller's thread (`ftmpi`'s `coro.rs` + the pool's
//! driver loop), and that must be invisible to everything above it.
//!
//! * no suspended rank is ever abandoned — on a deadlock verdict and
//!   on budget exhaustion every rank body returns through its own
//!   frames before `pool.run` does;
//! * a deadlock is reported at the step it forms, with the wait-for
//!   cycle, not when a budget runs out;
//! * a panicking rank body is an outcome, not a crash, and leaves the
//!   pool usable;
//! * the logical counters of a schedule (`steps`, `grants`,
//!   `self_grants`, `enabled`) are exact and pinned.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use dst::{triage_trace, ScenarioCfg, Scheduler, SeedRunner, WaitKind};
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
/// deadlock.
fn everyone_waits(p: &mut Process) -> ftmpi::Result<u64> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    let n = p.world_size();
    let prev = (p.world_rank() + n - 1) % n;
    let (v, _) = p.recv::<u64>(WORLD, Src::Rank(prev), 0)?;
    Ok(v)
}

/// The token goes round and round and no rank ever leaves: a livelock.
/// Some rank is always enabled, so only the budget ends it.
fn token_forever(p: &mut Process) -> ftmpi::Result<u64> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    let (next, prev) = ((p.world_rank() + 1) % N, (p.world_rank() + N - 1) % N);
    if p.world_rank() == 0 {
        p.send(WORLD, next, 0, &0u64)?;
    }
    loop {
        let (v, _) = p.recv::<u64>(WORLD, Src::Rank(prev), 0)?;
        p.send(WORLD, next, 0, &(v + 1))?;
    }
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
    let mut sched = Scheduler::new(N, seed, 10_000);
    let report = pool.run(UniverseConfig::default().sim(&mut sched), ring_once);
    assert!(report.all_ok(), "clean lap after a bad run: {:?}", report.outcomes);
    assert_eq!(report.outcomes[0].as_ok(), Some(&(N as u64)));
    assert!(!sched.budget_exhausted());
}

/// Run the hang `body` under `cfg` with a drop guard local to every
/// rank body and check what every way of ending it must guarantee:
/// every rank — suspended mid-receive or mid-send — was resumed with
/// the abort verdict and returned `Err(Aborted)` through its own frames
/// before `run` returned, and the pool is fit for a clean schedule
/// afterwards.
fn assert_hang_is_unwound(
    cfg: UniverseConfig<'_>,
    body: fn(&mut Process) -> ftmpi::Result<u64>,
) -> ftmpi::RunReport<u64> {
    let dropped = AtomicUsize::new(0);
    let mut pool = UniversePool::new(N);
    let report = pool.run(cfg, |p| {
        let _guard = Bump(&dropped);
        body(p)
    });
    assert_eq!(dropped.load(Ordering::Relaxed), N, "a rank body was left suspended");
    assert!(report.hung);
    for (rank, o) in report.outcomes.iter().enumerate() {
        assert_eq!(*o, RankOutcome::Aborted { code: WATCHDOG_ABORT_CODE }, "rank {rank}");
    }
    assert_clean_lap(&mut pool, 8);
    report
}

/// Blocked ranks are not runnable, so "everyone waits" is over as soon
/// as the last rank blocks — two grants per rank, its entry and the
/// first pass of its wait — and the budget is never consulted.
#[test]
fn deadlock_verdict_unwinds_every_rank_body() {
    let mut sched = Scheduler::new(N, 7, u64::MAX);
    assert_hang_is_unwound(UniverseConfig::default().sim(&mut sched), everyone_waits);
    assert_eq!(sched.deadlock_at(), Some(2 * N as u64));
    assert!(!sched.budget_exhausted());
}

/// Two ranks that each receive from the other before sending: the
/// textbook cycle. Reported as hung at the step it forms, and the
/// requests dumped at that step are the two edges of the cycle.
#[test]
fn mutual_receive_is_a_two_edge_cycle_found_where_it_forms() {
    let mut sched = Scheduler::new(2, 11, u64::MAX);
    let cfg = UniverseConfig::default().traced().sim(&mut sched);
    let report = ftmpi::run(2, cfg, |p| {
        let v = everyone_waits(p)?;
        p.send(WORLD, 1 - p.world_rank(), 0, &v)?;
        Ok(v)
    });
    assert!(report.hung);
    let at = sched.deadlock_at().expect("a deadlock, not a budget");
    assert!(at <= 2 * 2 + 2, "found at step {at}");
    assert_eq!(sched.steps(), at, "nothing ran after the verdict");
    let graph = triage_trace(&report.trace);
    let waits_on: Vec<(usize, Option<usize>)> = graph
        .edges
        .iter()
        .map(|e| match e.on {
            WaitKind::Recv { src, peer_dead: false, .. } => (e.rank, src),
            ref other => panic!("rank {} parked on {other:?}", e.rank),
        })
        .collect();
    assert_eq!(waits_on, [(0, Some(1)), (1, Some(0))]);
}

#[test]
fn budget_exhaustion_unwinds_every_rank_body() {
    let mut sched = Scheduler::new(N, 7, 500);
    assert_hang_is_unwound(UniverseConfig::default().sim(&mut sched), token_forever);
    assert!(sched.budget_exhausted());
    assert_eq!(sched.deadlock_at(), None);
}

/// The budget when no grant ever passes the driver: one rank passes a
/// token to itself forever, so every grant is a self-grant that the
/// rank draws and continues from without a switch. The budget is
/// charged wherever a grant is drawn, or this run would never end.
#[test]
fn budget_ends_a_livelock_of_self_grants() {
    let mut sched = Scheduler::new(1, 7, 500);
    let dropped = AtomicUsize::new(0);
    let report = ftmpi::run(1, UniverseConfig::default().sim(&mut sched), |p| {
        let _guard = Bump(&dropped);
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        p.send(WORLD, 0, 0, &0u64)?;
        loop {
            let (v, _) = p.recv::<u64>(WORLD, Src::Rank(0), 0)?;
            p.send(WORLD, 0, 0, &(v + 1))?;
        }
    });
    assert!(report.hung);
    assert_eq!(report.outcomes, [RankOutcome::<u64>::Aborted { code: WATCHDOG_ABORT_CODE }]);
    assert_eq!(dropped.load(Ordering::Relaxed), 1, "the rank body was left suspended");
    assert!(sched.budget_exhausted() && sched.deadlock_at().is_none());
}

/// A scheduler's verdicts are a simulated run's only hang backstop:
/// the wall-clock watchdog is refused beside one.
#[test]
#[should_panic(expected = "incompatible with the wall-clock watchdog")]
fn a_scheduler_refuses_the_watchdog() {
    let mut sched = Scheduler::new(N, 7, 500);
    let cfg = UniverseConfig::default().sim(&mut sched).watchdog(Duration::from_secs(1));
    ftmpi::run(N, cfg, ring_once);
}

/// A rank body that panics on its coroutine stack is reported as
/// `Panicked` — its peers, starved of the token it held, deadlock and
/// are ended by that verdict — and the same pool runs a clean schedule
/// next.
#[test]
fn a_panicking_rank_is_an_outcome_and_the_pool_survives() {
    let dropped = AtomicUsize::new(0);
    let mut pool = UniversePool::new(N);
    let mut sched = Scheduler::new(N, 3, 2_000);
    let report = pool.run(UniverseConfig::default().sim(&mut sched), |p| {
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
    assert!(sched.deadlock_at().is_some() && !sched.budget_exhausted());
    assert_eq!(dropped.load(Ordering::Relaxed), N);
    assert_clean_lap(&mut pool, 4);
}

/// Seeds `0..32` on one runner: the schedule's logical counters,
/// summed. Exact: the driver starts ranks in rank order and the
/// scheduler draws only among enabled ranks, so nothing here depends
/// on the machine. (Drawing among *all* suspended ranks cost 3680 and
/// 14429 steps for the same seeds.)
#[test]
fn logical_counters_are_pinned() {
    for (ranks, steps, self_grants, enabled) in
        [(4usize, 1634u64, 527u64, 3419u64), (8, 3373, 1123, 9253)]
    {
        let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
        let mut runner = SeedRunner::new(ranks);
        let mut total = dst::HandoffStats::default();
        for seed in 0..32 {
            let obs = runner.run_seed_quiet(seed, &cfg);
            total.add(&obs.stats.handoff);
            runner.recycle(obs);
        }
        assert_eq!(
            (total.steps, total.grants, total.self_grants, total.enabled),
            (steps, steps, self_grants, enabled),
            "{ranks} ranks"
        );
        assert_eq!(total.parks, 0, "no thread is parked under simulation");
    }
}
