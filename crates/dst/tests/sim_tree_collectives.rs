//! The message-passing collectives under the deterministic scheduler.
//!
//! `sim_collectives.rs` referees the collectives a shared board decides.
//! The nine built from point-to-point messages — `barrier`, `bcast`,
//! `reduce`, `allreduce`, `gather`, `scatter`, `allgather`, `alltoall`,
//! `scan` — were only ever run against the wall clock
//! (`ftmpi/tests/collective_chaos.rs`, 20 proptest cases). This file
//! runs all nine in one rank body on a simulated universe, then that
//! test's validate-bracketed repair loop — 3, 4, 5 and 8 ranks, seeds
//! `0..320`, seven of every eight with a kill at one of five hook kinds
//! — and pins what a change to how those collectives enter, send,
//! poison and leave must not move:
//!
//! * no schedule ends in a deadlock or budget verdict (an alive rank
//!   that leaves with an error and forgets to poison a peer that waits
//!   on it is a deadlock here, a watchdog timeout on the wall clock);
//! * every planned kill fires, and nobody else fails;
//! * an operation either errors or returns what the failure-free run
//!   returns at that rank (nothing is validated out before the repair
//!   loop, so a success that dropped a contribution would be wrong);
//! * survivors agree on the repair count;
//! * a schedule run twice leaves a byte-identical decision log;
//! * the FNV-1a digest of every log and every rank's report is pinned.

use std::fmt::{Debug, Write as _};
use std::sync::Arc;

use dst::Scheduler;
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{
    Error, ErrorHandler, Process, RankOutcome, Src, UniverseConfig, UniversePool, WorldRank, WORLD,
};

const SEEDS: std::ops::Range<u64> = 0..320;
const RANKS: [usize; 4] = [3, 4, 5, 8];

/// Far above what any of these schedules takes (551 steps at most, at
/// 8 ranks): reaching it is a livelock.
const BUDGET: u64 = 100_000;

/// `BeforeCollective` fires this often in the operation sequence of
/// [`body`] whatever errors: `allreduce` and `allgather` enter two
/// instances each. Occurrence `ENTRIES + 1` is the repair loop's first
/// barrier.
const ENTRIES: u64 = 12;

/// FNV-1a over every schedule's decision log and rank reports, every
/// rank count, in seed order. Pinned on the hand-written collectives as
/// `0xacfe_4712_fcbf_17ee` and unmoved by the move into one frame;
/// re-pinned once, when `scan` stopped poisoning a successor its send
/// had just failed to reach — the only peer any of them poisoned
/// knowing it dead — which moves six of the 1280 schedules, five steps
/// fewer in all.
const DIGEST: u64 = 0x426b_0815_1c2d_0349;

/// Scheduler steps over the same schedules: how far a moved digest
/// moved (234 981 before `scan`'s change).
const STEPS: u64 = 234_976;

/// What one rank saw.
#[derive(Debug, Clone, PartialEq)]
struct Report {
    /// One entry per step of [`body`]: the value it returned, rendered,
    /// or the per-operation error, which names a rank.
    ops: Vec<Result<String, Error>>,
    /// The failed count the repair loop's last `validate_all` agreed on.
    repaired: usize,
}

/// A step's outcome under chaos: `RankFailStop` and `InvalidState` are
/// that operation's result, anything else ends the rank body.
fn seen<T: Debug>(result: ftmpi::Result<T>) -> ftmpi::Result<Result<String, Error>> {
    match result {
        Ok(v) => Ok(Ok(format!("{v:?}"))),
        Err(e @ (Error::RankFailStop { .. } | Error::InvalidState(_))) => Ok(Err(e)),
        Err(e) => Err(e),
    }
}

/// A user-tag hop to the right neighbour: the only place in the body
/// where `AfterRecvComplete` fires (collective-internal receives
/// consume no hooks).
fn shift(p: &mut Process) -> ftmpi::Result<u64> {
    let (me, n) = (p.world_rank(), p.world_size());
    p.send(WORLD, (me + 1) % n, 5, &(me as u64))?;
    Ok(p.recv::<u64>(WORLD, Src::Rank((me + n - 1) % n), 5)?.0)
}

/// All nine collectives (roots 0, 1 and 2), two neighbour hops between
/// them, then repair: `validate_all` / `barrier` / `validate_all` until
/// a barrier succeeds inside a window in which nobody new failed —
/// `before == after` is agreed, so every survivor leaves the loop in
/// the same round with the same count.
fn body(p: &mut Process) -> ftmpi::Result<Report> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    let (me, n) = (p.world_rank(), p.world_size());
    let sum = |a: u64, b: u64| a + b;
    let shares: Vec<u64> = (0..n as u64).map(|v| 100 + v).collect();
    let row: Vec<u32> = (0..n as u32).map(|j| me as u32 * 10 + j).collect();
    let ops = vec![
        seen(p.barrier(WORLD))?,
        seen(p.bcast(WORLD, 0, (me == 0).then_some(&7i64)))?,
        seen(p.bcast(WORLD, 1, (me == 1).then_some(&vec![1u32, 2, 3])))?,
        seen(p.reduce(WORLD, 2, &(me as u64 + 1), sum))?,
        seen(shift(p))?,
        seen(p.allreduce(WORLD, &(1u64 << me), |a, b| a | b))?,
        seen(p.gather(WORLD, 1, &(me as u32 * 3)))?,
        seen(p.scatter(WORLD, 2, (me == 2).then_some(&shares[..])))?,
        seen(p.allgather(WORLD, &(me as u16)))?,
        seen(p.alltoall(WORLD, &row))?,
        seen(shift(p))?,
        seen(p.scan(WORLD, &(me as u64 + 1), sum))?,
    ];
    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(rounds < 50, "repair loop must converge");
        let before = p.comm_validate_all(WORLD)?;
        let barrier = p.barrier(WORLD);
        let after = p.comm_validate_all(WORLD)?;
        match barrier {
            _ if before != after => {}
            Ok(()) => return Ok(Report { ops, repaired: before }),
            Err(Error::RankFailStop { .. }) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Seven seeds of every eight kill: one rank at one of the five hook
/// kinds, at an occurrence every rank reaches when nobody died before
/// it; or two ranks — at two collective entries, or one on a wait pass
/// and one entering the repair loop's barrier — at hooks that come up
/// whatever errors.
fn plan(seed: u64, ranks: usize) -> Vec<(WorldRank, Trigger)> {
    let k = seed / 8;
    let victim = k as usize % ranks;
    let other = (victim + 1 + k as usize / ranks % (ranks - 1)) % ranks;
    let depth = k / ranks as u64;
    let at = |kind, occurrences: u64| Trigger::on(kind).nth(1 + depth % occurrences);
    match seed % 8 {
        0 => vec![],
        1 => vec![(victim, at(HookKind::BeforeCollective, ENTRIES))],
        2 => vec![(victim, at(HookKind::AfterCollective, ENTRIES))],
        3 => vec![(victim, at(HookKind::AfterSend, 6))],
        4 => vec![(victim, at(HookKind::AfterRecvComplete, 2))],
        5 => vec![(victim, at(HookKind::Tick, 6))],
        6 => vec![
            (victim, at(HookKind::BeforeCollective, ENTRIES)),
            (other, Trigger::on(HookKind::BeforeCollective).nth(1 + k % ENTRIES)),
        ],
        _ => vec![
            (victim, at(HookKind::Tick, 3)),
            (other, Trigger::on(HookKind::BeforeCollective).nth(ENTRIES + 1)),
        ],
    }
}

/// Run one schedule, check its verdict and its reports against the
/// failure-free `reference`, and render the log and the reports.
fn run_one(
    pool: &mut UniversePool,
    ranks: usize,
    seed: u64,
    reference: Option<&[Report]>,
) -> (String, u64, Vec<Option<Report>>) {
    let kills = plan(seed, ranks);
    let fault_plan = kills
        .iter()
        .fold(FaultPlan::none(), |p, (v, t)| p.with(FaultRule::kill(*v, *t)));
    let sched = Arc::new(Scheduler::new(ranks, seed, BUDGET));
    let report = pool.run(UniverseConfig::with_plan(fault_plan).sim(sched.clone()), body);
    let at = format!("{ranks} ranks, seed {seed}");
    assert_eq!(sched.deadlock_at(), None, "{at}: deadlock\n{}", sched.log_text());
    assert!(!sched.budget_exhausted(), "{at}: step budget exhausted");
    assert!(!report.hung, "{at}: hung");

    let mut reports = Vec::new();
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        let planned = kills.iter().any(|(v, _)| *v == rank);
        match outcome {
            RankOutcome::Failed => assert!(planned, "{at}: rank {rank} failed"),
            _ if planned => panic!("{at}: the kill of rank {rank} did not fire"),
            RankOutcome::Ok(_) => {}
            other => panic!("{at}: rank {rank} ended as {other:?}"),
        }
        reports.push(outcome.as_ok().cloned());
    }
    let survivors: Vec<&Report> = reports.iter().flatten().collect();
    for r in &survivors {
        assert_eq!(r.repaired, survivors[0].repaired, "{at}: survivors disagree on the repair");
    }
    for (rank, r) in reports.iter().enumerate() {
        let (Some(r), Some(reference)) = (r, reference) else { continue };
        for (step, (got, want)) in r.ops.iter().zip(&reference[rank].ops).enumerate() {
            assert!(
                got.is_err() || got == want,
                "{at}: rank {rank} step {step} returned {got:?}, failure-free is {want:?}"
            );
        }
    }

    let mut text = sched.log_text();
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        writeln!(text, "rank {rank}: {outcome:?}").unwrap();
    }
    (text, sched.steps(), reports)
}

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |d, &b| (d ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn tree_collectives_are_deadlock_free_and_pinned() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let (mut killed, mut steps) = (0, 0);
    for ranks in RANKS {
        let mut pool = UniversePool::new(ranks);
        // Seed 0 carries no kill: its reports are the failure-free
        // answer, whatever the schedule.
        let (_, _, clean) = run_one(&mut pool, ranks, 0, None);
        let reference: Vec<Report> =
            clean.into_iter().map(|r| r.expect("nobody is killed at seed 0")).collect();
        for r in &reference {
            assert!(r.ops.iter().all(Result::is_ok), "{ranks} ranks: a clean run errored: {r:?}");
            assert_eq!(r.repaired, 0);
        }
        for seed in SEEDS {
            let (text, took, reports) = run_one(&mut pool, ranks, seed, Some(&reference));
            let (again, ..) = run_one(&mut pool, ranks, seed, Some(&reference));
            assert_eq!(text, again, "{ranks} ranks, seed {seed}: two runs differ");
            if plan(seed, ranks).is_empty() {
                let reports: Vec<Report> = reports.into_iter().flatten().collect();
                assert_eq!(reports, reference, "{ranks} ranks, seed {seed}: clean runs differ");
            }
            killed += text.matches(": Failed").count();
            steps += took;
            digest = fnv1a(digest, text.as_bytes());
        }
    }
    // 40 seeds per class and rank count: five classes kill one rank,
    // two kill two.
    assert_eq!(killed, 4 * 40 * (5 + 2 * 2), "a planned kill did not fire");
    assert_eq!(
        (digest, steps),
        (DIGEST, STEPS),
        "decision logs or reports moved: {digest:#018x} over {steps} steps"
    );
}
