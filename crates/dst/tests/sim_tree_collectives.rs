//! The message-passing collectives under the deterministic scheduler.
//!
//! `sim_collectives.rs` referees the collectives a shared board decides.
//! This file referees the nine built from point-to-point messages —
//! `barrier`, `bcast`, `reduce`, `allreduce`, `gather`, `scatter`,
//! `allgather`, `alltoall`, `scan`. It runs all nine in one rank body on
//! a simulated universe, then a validate-bracketed repair loop — 3, 4, 5
//! and 8 ranks, seven seeds of every eight with a kill at one of five
//! hook kinds — and pins what a change to how those collectives enter,
//! send, poison and leave must not move:
//!
//! * no schedule ends in a deadlock or budget verdict (an alive rank
//!   that leaves with an error and forgets to poison a peer that waits
//!   on it is a deadlock here, a watchdog timeout on the wall clock);
//! * every planned kill fires, and nobody else fails;
//! * an operation either errors or returns what the failure-free run
//!   returns at that rank (nothing is validated out before the repair
//!   loop, so a success that dropped a contribution would be wrong);
//! * survivors agree on the repair count, and it is no more than the
//!   ranks that ended `Failed`;
//! * a schedule run twice leaves a byte-identical decision log;
//! * the FNV-1a digest of every log and every rank's report is pinned.
//!
//! The body's twelve steps run in the written order over seeds `0..320`,
//! and in eight shuffled orders over 64 seeds each.
//! `dst::referee` runs the schedules and checks the verdicts, the
//! kills, the second run and the digest.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Range;

use dst::{referee, SplitMix64, Workload};
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{Error, ErrorHandler, Process, RankOutcome, Src, WORLD};

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

/// `(DIGEST, STEPS)` for each of the eight shuffled orders, in draw order.
const ORDER_PINS: [(u64, u64); 8] = [
    (0xf51c_a120_de0c_b875, 41_697),
    (0x2fee_6acb_c532_11c4, 47_629),
    (0x64f8_6182_de2d_48e0, 46_547),
    (0x7678_88cb_7d3e_85ec, 46_168),
    (0x235b_e97f_4b04_9053, 51_081),
    (0xc61a_3707_8b40_40c7, 50_396),
    (0xc2eb_0938_d9b9_c14c, 47_239),
    (0x4110_d313_b59c_ad45, 49_506),
];

/// What one rank saw.
#[derive(Debug, Clone, PartialEq)]
struct Report {
    /// One entry per step, in the order [`Tree::body`] ran them: the value
    /// it returned, rendered, or the per-operation error, which names a rank.
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

/// Step `i` of [`Tree::body`]'s twelve, in the written order: all nine
/// collectives (roots 0, 1 and 2) with a neighbour hop at steps 4 and
/// 10.
fn step(p: &mut Process, i: usize) -> ftmpi::Result<Result<String, Error>> {
    let (me, n) = (p.world_rank(), p.world_size());
    let sum = |a: u64, b: u64| a + b;
    match i {
        0 => seen(p.barrier(WORLD)),
        1 => seen(p.bcast(WORLD, 0, (me == 0).then_some(&7i64))),
        2 => seen(p.bcast(WORLD, 1, (me == 1).then_some(&vec![1u32, 2, 3]))),
        3 => seen(p.reduce(WORLD, 2, &(me as u64 + 1), sum)),
        4 | 10 => seen(shift(p)),
        5 => seen(p.allreduce(WORLD, &(1u64 << me), |a, b| a | b)),
        6 => seen(p.gather(WORLD, 1, &(me as u32 * 3))),
        7 => {
            let shares: Vec<u64> = (0..n as u64).map(|v| 100 + v).collect();
            seen(p.scatter(WORLD, 2, (me == 2).then_some(&shares[..])))
        }
        8 => seen(p.allgather(WORLD, &(me as u16))),
        9 => {
            let row: Vec<u32> = (0..n as u32).map(|j| me as u32 * 10 + j).collect();
            seen(p.alltoall(WORLD, &row))
        }
        _ => seen(p.scan(WORLD, &(me as u64 + 1), sum)),
    }
}

/// The written order of the twelve steps.
const WRITTEN: [usize; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

/// The twelve steps in `order`, then the repair loop.
struct Tree {
    /// A permutation of [`WRITTEN`].
    order: [usize; 12],
}

impl Workload for Tree {
    type Report = Report;

    /// Every [`step`] in `order`, then repair: `validate_all` /
    /// `barrier` / `validate_all` until a barrier succeeds inside a
    /// window in which nobody new failed — `before == after` is agreed,
    /// so every survivor leaves the loop in the same round with the
    /// same count.
    fn body(&self, p: &mut Process) -> ftmpi::Result<Report> {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let ops = self.order.iter().map(|&i| step(p, i)).collect::<ftmpi::Result<_>>()?;
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

/// Run `tree` over `seeds` at every rank count and judge each schedule.
/// `seeds` starts at a multiple of 8, a clean seed, whose run gives each
/// rank count's failure-free answer, whatever the schedule.
fn sweep(tree: &Tree, seeds: Range<u64>) -> (u64, u64) {
    let mut references: BTreeMap<usize, Vec<Report>> = BTreeMap::new();
    referee(tree, &RANKS, seeds, |at, plan, report| {
        let mut reports = Vec::new();
        for (rank, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                RankOutcome::Ok(r) => reports.push(Some(r)),
                RankOutcome::Failed => reports.push(None),
                other => panic!("{at}: rank {rank} ended as {other:?}"),
            }
        }
        let survivors: Vec<&Report> = reports.iter().copied().flatten().collect();
        let failed = reports.len() - survivors.len();
        for r in &survivors {
            assert_eq!(r.repaired, survivors[0].repaired, "{at}: survivors disagree on the repair");
            assert!(r.repaired <= failed, "{at}: repaired {} of {failed} failed", r.repaired);
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
    })
}

#[test]
fn tree_collectives_are_deadlock_free_and_pinned() {
    let pin = sweep(&Tree { order: WRITTEN }, 0..320);
    // 40 seeds per class and rank count: five classes kill one rank,
    // two kill two; the referee checked that every one fired.
    assert_eq!(pin, (DIGEST, STEPS), "decision logs or reports moved: {pin:#x?}");
}

/// Eight orders of the twelve steps, each a Fisher–Yates shuffle drawn
/// from one `SplitMix64` seeded with `0x7ee5`; order `j` runs the plans
/// of seeds `64 j..64 (j + 1)`, so together they run those of `0..512`.
/// An operation sequence other than the written one must be as
/// deadlock-free and as pinned.
#[test]
fn tree_collectives_in_shuffled_orders_are_deadlock_free_and_pinned() {
    let mut rng = SplitMix64::new(0x7ee5);
    let pins: Vec<(u64, u64)> = (0..8)
        .map(|j| {
            let mut order = WRITTEN;
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            sweep(&Tree { order }, 64 * j..64 * (j + 1))
        })
        .collect();
    assert_eq!(pins, ORDER_PINS, "decision logs or reports moved: {pins:#x?}");
}
