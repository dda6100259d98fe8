//! Pool-reuse equivalence in wall-clock mode: a [`UniversePool`]
//! recycled across a failing run and then a clean run must report
//! exactly what fresh one-shot universes (`ftmpi::run`) report for the
//! same configurations. This is the reset protocol's contract outside the
//! deterministic simulator (where the golden-log suite already pins it
//! byte-for-byte).
//!
//! Compared fields are `outcomes`, `hung` and `generations` — the
//! run's logical result. `duration` and
//! `stats.handoff.park_safety_timeouts` are wall-clock measurements and
//! legitimately vary run to run.

use std::time::Duration;

use faultsim::{FaultPlan, HookKind};
use ftmpi::{
    run, ErrorHandler, Process, RankOutcome, RankState, RespawnPolicy, Result, Src,
    UniverseConfig, UniversePool, WORLD,
};

const N: usize = 4;

fn wd() -> Duration {
    Duration::from_secs(60)
}

/// One ring exchange; tolerant of a validated failure so outcomes stay
/// deterministic whether or not a kill is planned.
fn ring_once(p: &mut Process) -> Result<u64> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    let me = p.world_rank();
    let next = (me + 1) % N;
    let prev = (me + N - 1) % N;
    let (v, _) = p.sendrecv::<u64, u64>(WORLD, next, 0, &(me as u64), Src::Rank(prev), 0)?;
    Ok(v)
}

/// A run where the victim dies only after its receive completed — the
/// race-free kill point (every send naming the victim precedes its
/// death), so outcomes are deterministic in wall-clock mode.
fn failing_cfg() -> UniverseConfig<'static> {
    let plan = FaultPlan::none().kill_at(2, HookKind::AfterRecvComplete, 1);
    UniverseConfig::with_plan(plan).watchdog(wd())
}

fn clean_cfg() -> UniverseConfig<'static> {
    UniverseConfig::default().watchdog(wd())
}

fn logical<T: std::fmt::Debug + PartialEq>(
    r: &ftmpi::RunReport<T>,
) -> (&Vec<RankOutcome<T>>, bool, &Vec<u32>) {
    (&r.outcomes, r.hung, &r.generations)
}

/// The satellite's core scenario: failing run, then clean run, through
/// ONE pool — each must match its one-shot twin, and in
/// particular no failure state may leak into the clean run.
#[test]
fn reused_pool_matches_spawn_per_run_across_failing_then_clean() {
    let spawn_failing = run(N, failing_cfg(), ring_once);
    let spawn_clean = run(N, clean_cfg(), ring_once);

    let mut pool = UniversePool::new(N);
    let pool_failing = pool.run(failing_cfg(), ring_once);
    let pool_clean = pool.run(clean_cfg(), ring_once);

    assert_eq!(logical(&spawn_failing), logical(&pool_failing), "failing run diverged");
    assert_eq!(logical(&spawn_clean), logical(&pool_clean), "clean run diverged");
    assert!(pool_failing.outcomes[2].is_failed(), "victim must be killed");
    assert!(pool_clean.all_ok(), "failure state bled into the clean run");
}

/// A failing run that leaves every worker's process dirty: a dup, a
/// recognized failure, receives still posted on both communicators and
/// rank 0 an unreceived message, on the tag `exchange_after_litter`
/// uses. Rank 2 dies after its ring receive.
fn litter(p: &mut Process) -> Result<u64> {
    let v = ring_once(p)?;
    let me = p.world_rank();
    let dup = p.comm_dup(WORLD)?;
    p.irecv(dup, Src::Rank(2), 4)?;
    p.irecv(WORLD, Src::Rank((me + 2) % N), 5)?;
    if me == 1 {
        p.send(WORLD, 0, 5, &1000u64)?;
    }
    // Recognizes rank 2, and drains rank 1's message into rank 0.
    p.comm_validate_all(WORLD)?;
    Ok(v)
}

/// A clean run that a process left dirty would get wrong: its dup would
/// not be the first, and a stale receive or message would meet its
/// tag-5 message.
fn exchange_after_litter(p: &mut Process) -> Result<(String, u64)> {
    let dup = p.comm_dup(WORLD)?;
    let me = p.world_rank();
    let (left, right) = ((me + N - 1) % N, Src::Rank((me + 1) % N));
    let (v, _) = p.sendrecv::<u64, u64>(WORLD, left, 5, &(me as u64), right, 5)?;
    Ok((format!("{dup:?}"), v))
}

/// The same through the processes the pool keeps: each worker's is
/// reset in place after the failing run, and the clean run that follows
/// finds it as a fresh universe's.
#[test]
fn reused_processes_match_fresh_ones_after_a_failing_run() {
    let fresh = run(N, clean_cfg(), exchange_after_litter);
    let mut pool = UniversePool::new(N);
    let dirty = pool.run(failing_cfg(), litter);
    assert!(dirty.outcomes[2].is_failed(), "victim must be killed: {:?}", dirty.outcomes);
    assert!(dirty.outcomes.iter().enumerate().all(|(r, o)| r == 2 || o.is_ok()));
    let reused = pool.run(clean_cfg(), exchange_after_litter);
    assert!(reused.all_ok(), "{:?}", reused.outcomes);
    assert_eq!(logical(&fresh), logical(&reused), "a process kept state across runs");
}

/// Respawn runs also reset cleanly: generations return to zero on the
/// next run instead of carrying the revived incarnation forward. The
/// scenario is the recovery suite's deterministic two-rank shape —
/// rank 0 holds the universe open until rank 1's revival, so the
/// respawn always happens.
#[test]
fn respawn_generations_do_not_leak_into_the_next_run() {
    let mk_cfg = || {
        let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
        UniverseConfig::with_plan(plan)
            .watchdog(wd())
            .respawning(RespawnPolicy { after: Duration::from_millis(5), max_per_rank: 1 })
    };
    let body = |p: &mut Process| -> Result<u32> {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 1 {
            if p.generation() == 0 {
                // First incarnation: dies at its first Tick.
                let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                let _ = p.wait(req)?;
                unreachable!("killed by the tick");
            }
            // Second incarnation: answer rank 0.
            let (v, _) = p.recv::<u32>(WORLD, Src::Rank(0), 1)?;
            p.send(WORLD, 0, 2, &(v + 1))?;
            return Ok(p.generation());
        }
        // Rank 0: observe death, then recovery, then talk to the new
        // incarnation.
        while p.comm_validate_rank(WORLD, 1)?.state == RankState::Ok {
            std::thread::yield_now();
        }
        while p.comm_validate_rank(WORLD, 1)?.state != RankState::Ok {
            std::thread::yield_now();
        }
        p.send(WORLD, 1, 1, &41u32)?;
        let (v, _) = p.recv::<u32>(WORLD, Src::Rank(1), 2)?;
        Ok(v)
    };

    let spawn_report = run(2, mk_cfg(), body);
    let mut pool = UniversePool::new(2);
    let pool_report = pool.run(mk_cfg(), body);
    assert_eq!(logical(&spawn_report), logical(&pool_report), "respawn run diverged");
    assert_eq!(pool_report.generations, vec![0, 1], "rank 1 must have been revived");

    // Clean follow-up on the same pool: generation state fully rewound.
    let clean = pool.run::<u32, _>(clean_cfg(), |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let me = p.world_rank() as u32;
        let peer = 1 - p.world_rank();
        let (v, _) = p.sendrecv(WORLD, peer, 0, &me, Src::Rank(peer), 0)?;
        Ok(v)
    });
    assert!(clean.all_ok());
    assert_eq!(clean.generations, vec![0, 0], "incarnations leaked across runs");
}

/// A rank body that panics on its worker thread is reported as
/// `Panicked`; its peers finish, the run is not a hang, and the same
/// pool runs a clean ring next.
#[test]
fn a_panicking_rank_is_an_outcome_and_the_pool_survives() {
    let mut pool = UniversePool::new(N);
    let report = pool.run::<u64, _>(clean_cfg(), |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        match p.world_rank() {
            2 => {
                p.send(WORLD, 3, 9, &7u64)?;
                panic!("rank 2 gives up");
            }
            3 => Ok(p.recv::<u64>(WORLD, Src::Rank(2), 9)?.0),
            me => Ok(me as u64),
        }
    });
    assert!(!report.hung);
    assert_eq!(report.outcomes[2], RankOutcome::Panicked("rank 2 gives up".to_string()));
    assert_eq!(report.outcomes[3].as_ok(), Some(&7));
    assert_eq!(report.outcomes[0].as_ok(), Some(&0));
    let fresh = run(N, clean_cfg(), ring_once);
    let pooled = pool.run(clean_cfg(), ring_once);
    assert!(pooled.all_ok(), "{:?}", pooled.outcomes);
    assert_eq!(logical(&fresh), logical(&pooled), "the panic left state behind");
}

/// Many clean runs through one pool behave identically to many fresh
/// universes — the steady-state the DST sweep engine lives in.
#[test]
fn many_reused_runs_stay_identical_to_fresh_runs() {
    let mut pool = UniversePool::new(N);
    for round in 0..10 {
        let fresh = run(N, clean_cfg(), ring_once);
        let pooled = pool.run(clean_cfg(), ring_once);
        assert_eq!(logical(&fresh), logical(&pooled), "round {round} diverged");
        assert!(pooled.all_ok(), "round {round} failed");
    }
}
