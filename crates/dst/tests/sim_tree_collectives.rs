//! The message-passing collectives under the deterministic scheduler.
//!
//! `sim_collectives.rs` referees the collectives a shared board decides.
//! This file referees the nine built from point-to-point messages —
//! `barrier`, `bcast`, `reduce`, `allreduce`, `gather`, `scatter`,
//! `allgather`, `alltoall`, `scan`. It runs all nine in one rank body on
//! a simulated universe, then a validate-bracketed repair loop — 3, 4, 5
//! and 8 ranks, none, one or two kills per seed at any hook the victim
//! reaches — and pins what a change to how those collectives enter,
//! send, poison and leave must not move:
//!
//! * no schedule ends in a deadlock or budget verdict (an alive rank
//!   that leaves with an error and forgets to poison a peer that waits
//!   on it is a deadlock here, a watchdog timeout on the wall clock);
//! * every planned kill fires, and nobody else fails;
//! * an operation either errors or returns what the seed's clean twin,
//!   the failure-free run, returns at that rank (nothing is validated
//!   out before the repair loop, so a success that dropped a
//!   contribution would be wrong);
//! * survivors agree on the repair count, and it is no more than the
//!   ranks that ended `Failed`;
//! * a schedule run twice leaves a byte-identical decision log;
//! * the FNV-1a digest of every log and every rank's report is pinned.
//!
//! The body's twelve steps run in the written order over seeds `0..240`,
//! and in eight shuffled orders over 40 seeds each.
//! `dst::referee` draws each kill from the hooks the clean twin reached,
//! runs the schedules and checks the verdicts, the kills, the second run
//! and the digest.

use std::fmt::Debug;
use std::ops::Range;

use dst::{referee, reports, Kills, SplitMix64, Workload};
use ftmpi::{Error, ErrorHandler, Process, Src, WORLD};

const RANKS: [usize; 4] = [3, 4, 5, 8];

/// FNV-1a over every schedule's decision log and rank reports, every
/// rank count, in seed order.
const DIGEST: u64 = 0x8371_776e_6628_066b;

/// Scheduler steps over the same schedules: how far a moved digest
/// moved.
const STEPS: u64 = 244_704;

/// `(DIGEST, STEPS)` for each of the eight shuffled orders, in draw order.
const ORDER_PINS: [(u64, u64); 8] = [
    (0x9e3d_a7ee_9345_59ff, 42_047),
    (0x2632_59d7_399a_a8c3, 39_719),
    (0xf908_4eaa_be5e_5410, 41_487),
    (0x03e8_3b45_8b63_226e, 39_366),
    (0x4654_7157_a85a_4b1b, 40_431),
    (0x2ac0_5056_9d66_ee79, 41_737),
    (0x6207_3927_bf60_5e16, 40_520),
    (0x6597_a3d5_cce0_3ede, 41_337),
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

/// A user-tag hop to the right neighbour.
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

    /// Any rank.
    fn kills(&self, _seed: u64, ranks: usize) -> Kills {
        Kills::Victims(0..ranks)
    }
}

/// Run `tree` over `seeds` at every rank count and judge each schedule
/// against its clean twin.
fn sweep(tree: &Tree, seeds: Range<u64>) -> (u64, u64) {
    referee(tree, &RANKS, seeds, |at, _, report, twin| {
        let reports = reports(at, report);
        let survivors: Vec<&Report> = reports.iter().copied().flatten().collect();
        let failed = reports.len() - survivors.len();
        for r in &survivors {
            assert_eq!(r.repaired, survivors[0].repaired, "{at}: survivors disagree on the repair");
            assert!(r.repaired <= failed, "{at}: repaired {} of {failed} failed", r.repaired);
        }
        for (rank, r) in reports.iter().enumerate() {
            let clean = twin.outcomes[rank].as_ok().expect("a twin is failure-free");
            let errored = clean.repaired != 0 || clean.ops.iter().any(Result::is_err);
            assert!(!errored, "{at}: a clean run errored: {clean:?}");
            let Some(r) = r else { continue };
            for (step, (got, want)) in r.ops.iter().zip(&clean.ops).enumerate() {
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
    let pin = sweep(&Tree { order: WRITTEN }, 0..240);
    assert_eq!(pin, (DIGEST, STEPS), "decision logs or reports moved: {pin:#x?}");
}

/// Eight orders of the twelve steps, each a Fisher–Yates shuffle drawn
/// from one `SplitMix64` seeded with `0x7ee5`; order `j` runs seeds
/// `40 j..40 (j + 1)`, so together they run `0..320`.
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
            sweep(&Tree { order }, 40 * j..40 * (j + 1))
        })
        .collect();
    assert_eq!(pins, ORDER_PINS, "decision logs or reports moved: {pins:#x?}");
}
