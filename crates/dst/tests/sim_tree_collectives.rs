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
//!
//! `dst::referee` runs the schedules and checks the verdicts, the
//! kills, the second run and the digest.

use std::collections::BTreeMap;
use std::fmt::Debug;

use dst::{referee, Workload};
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{Error, ErrorHandler, Process, RankOutcome, Src, WORLD};

const SEEDS: std::ops::Range<u64> = 0..320;
const RANKS: [usize; 4] = [3, 4, 5, 8];

/// `BeforeCollective` fires this often in the operation sequence of
/// [`Tree::body`] whatever errors: `allreduce` and `allgather` enter two
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
    /// One entry per step of [`Tree::body`]: the value it returned, rendered,
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

/// The nine collectives, then the repair loop.
struct Tree;

impl Workload for Tree {
    type Report = Report;

    /// All nine collectives (roots 0, 1 and 2), two neighbour hops
    /// between them, then repair: `validate_all` / `barrier` /
    /// `validate_all` until a barrier succeeds inside a window in which
    /// nobody new failed — `before == after` is agreed, so every
    /// survivor leaves the loop in the same round with the same count.
    fn body(&self, p: &mut Process) -> ftmpi::Result<Report> {
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

    /// Seven seeds of every eight kill: one rank at one of the five
    /// hook kinds, at an occurrence every rank reaches when nobody died
    /// before it; or two ranks — at two collective entries, or one on a
    /// wait pass and one entering the repair loop's barrier — at hooks
    /// that come up whatever errors.
    fn plan(&self, seed: u64, ranks: usize) -> FaultPlan {
        let k = seed / 8;
        let victim = k as usize % ranks;
        let other = (victim + 1 + k as usize / ranks % (ranks - 1)) % ranks;
        let depth = k / ranks as u64;
        let at = |kind, occurrences: u64| Trigger::on(kind).nth(1 + depth % occurrences);
        let kills = match seed % 8 {
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
        };
        FaultPlan::new(kills.into_iter().map(|(v, t)| FaultRule::kill(v, t)).collect())
    }
}

#[test]
fn tree_collectives_are_deadlock_free_and_pinned() {
    // The first clean schedule at each rank count (seed 0) gives the
    // failure-free answer, whatever the schedule.
    let mut references: BTreeMap<usize, Vec<Report>> = BTreeMap::new();
    let pin = referee(&Tree, &RANKS, SEEDS, |at, plan, report| {
        let mut reports = Vec::new();
        for (rank, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                RankOutcome::Ok(r) => reports.push(Some(r)),
                RankOutcome::Failed => reports.push(None),
                other => panic!("{at}: rank {rank} ended as {other:?}"),
            }
        }
        let survivors: Vec<&Report> = reports.iter().copied().flatten().collect();
        for r in &survivors {
            assert_eq!(r.repaired, survivors[0].repaired, "{at}: survivors disagree on the repair");
        }
        let reference = references.entry(reports.len()).or_insert_with(|| {
            assert!(plan.is_empty(), "{at}: the first seed must be clean");
            for r in &survivors {
                assert!(r.ops.iter().all(Result::is_ok), "{at}: a clean run errored: {r:?}");
                assert_eq!(r.repaired, 0);
            }
            survivors.iter().map(|&r| r.clone()).collect()
        });
        if plan.is_empty() {
            assert!(survivors.iter().copied().eq(reference.iter()), "{at}: clean runs differ");
        }
        for (rank, r) in reports.iter().enumerate() {
            let Some(r) = r else { continue };
            for (step, (got, want)) in r.ops.iter().zip(&reference[rank].ops).enumerate() {
                assert!(
                    got.is_err() || got == want,
                    "{at}: rank {rank} step {step} returned {got:?}, failure-free is {want:?}"
                );
            }
        }
    });
    // 40 seeds per class and rank count: five classes kill one rank,
    // two kill two; the referee checked that every one fired.
    assert_eq!(pin, (DIGEST, STEPS), "decision logs or reports moved: {pin:#x?}");
}
