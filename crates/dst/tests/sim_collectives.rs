//! The board-decided collectives under the deterministic scheduler.
//!
//! The golden decision logs referee `icomm_validate_all` as the ring
//! uses it; `ibarrier`, `comm_split` and `comm_dup` were only ever run
//! against the wall clock. This file runs all four in one rank body on
//! a simulated universe — 4 and 8 ranks, seeds `0..64`, one
//! protocol-point kill on every third seed — and pins what a change to
//! how those collectives rendezvous must not move:
//!
//! * no schedule ends in a deadlock or budget verdict (a decision that
//!   forgets `wake_all` leaves its waiters blocked: a false deadlock);
//! * every planned kill fires, and nobody else fails;
//! * every survivor of a round reports the same outcome;
//! * a schedule run twice leaves a byte-identical decision log;
//! * the FNV-1a digest of every log and every rank's report is pinned.
//!
//! `dst::referee` runs the schedules and checks all but the agreement.

use dst::{referee, reports, Kills, Workload};
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{Error, ErrorHandler, Process, WorldRank, WORLD};

const SEEDS: std::ops::Range<u64> = 0..64;

/// FNV-1a over every schedule's decision log and rank reports, both
/// rank counts, in seed order.
const DIGEST: u64 = 0x423a_503a_5c0a_ead5;

/// What one rank saw. Every field is an agreed value: ranks that
/// report at all must report it identically (within one colour for the
/// `half_*` fields).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Report {
    /// Membership of this rank's half of the split, in comm-rank order.
    half: Vec<WorldRank>,
    /// The two retry rounds on the dup: `None` for a clean round, else
    /// the comm rank the failed round names.
    retries: [Option<usize>; 2],
    /// The barrier on the half that was pending while the validate was
    /// issued.
    half_barrier: Option<usize>,
    /// The validate's agreed failed count on the half.
    half_failed: usize,
}

/// A barrier round's agreed outcome; anything but a clean round or a
/// named dead rank ends the rank body.
fn round(result: ftmpi::Result<ftmpi::Completion>) -> ftmpi::Result<Option<usize>> {
    match result {
        Ok(_) => Ok(None),
        Err(Error::RankFailStop { rank }) => Ok(Some(rank)),
        Err(e) => Err(e),
    }
}

/// The four board-decided collectives in one body.
struct Board;

impl Workload for Board {
    type Report = Report;

    /// `comm_dup` → `comm_split` by parity (keys reverse the rank order)
    /// → two `ibarrier` retry rounds on the dup → on the half, an
    /// `icomm_validate_all` issued while an `ibarrier` is still pending,
    /// `waitany` over both. The half's barrier and validate are round 0
    /// of one context, as the split is round 0 of the dup's: rounds of
    /// different collectives must not meet.
    fn body(&self, p: &mut Process) -> ftmpi::Result<Report> {
        let me = p.world_rank();
        let dup = p.comm_dup(WORLD)?;
        p.set_errhandler(dup, ErrorHandler::ErrorsReturn)?;
        let half = p.comm_split(dup, Some((me % 2) as i64), -(me as i64))?.expect("coloured");
        p.set_errhandler(half, ErrorHandler::ErrorsReturn)?;

        let mut retries = [None; 2];
        for r in &mut retries {
            let req = p.ibarrier(dup)?;
            *r = round(p.wait(req))?;
        }

        let reqs = [p.ibarrier(half)?, p.icomm_validate_all(half)?];
        let first = p.waitany(&reqs)?;
        let second = p.wait(reqs[1 - first.index]);
        let (barrier, validate) =
            if first.index == 0 { (first.result, second) } else { (second, first.result) };
        Ok(Report {
            half: p.comm_group(half)?.members().to_vec(),
            retries,
            half_barrier: round(barrier)?,
            half_failed: validate?.validate_count(),
        })
    }

    /// Every third seed kills one rank at one of three protocol points.
    fn kills(&self, seed: u64, ranks: usize) -> Kills {
        if !seed.is_multiple_of(3) {
            return Kills::Plan(FaultPlan::none());
        }
        let k = seed / 3;
        let victim = k as usize % ranks;
        let rule = match k % 4 {
            // One of the rank's three `ibarrier` calls.
            0 => {
                FaultRule::kill(victim, Trigger::on(HookKind::BeforeCollective).nth(1 + k / 4 % 3))
            }
            1 => FaultRule::kill(victim, Trigger::on(HookKind::BeforeValidate)),
            // Some pass of one of its waits: the split's, a barrier's,
            // the `waitany`'s.
            2 => FaultRule::kill(victim, Trigger::on(HookKind::Tick).nth(1 + k / 4 % 5)),
            // From outside, by a neighbour waiting in the split: the
            // victim may not have submitted yet.
            _ => FaultRule::kill_other((victim + 1) % ranks, victim, Trigger::on(HookKind::Tick)),
        };
        Kills::Plan(FaultPlan::none().with(rule))
    }
}

#[test]
fn board_collectives_are_deadlock_free_uniform_and_pinned() {
    let (digest, _) = referee(&Board, &[4, 8], SEEDS, |at, _, report, _| {
        let ranks = reports(at, report).into_iter().enumerate();
        let survivors: Vec<(WorldRank, &Report)> =
            ranks.filter_map(|(rank, r)| r.map(|r| (rank, r))).collect();
        for &(rank, r) in &survivors {
            let (first, f) = survivors[0];
            assert_eq!(r.retries, f.retries, "{at}: ranks {first} and {rank} disagree on the dup");
            assert!(r.half.contains(&rank), "{at}: rank {rank} is not in its own half");
            for &(peer, q) in survivors.iter().filter(|(peer, _)| r.half.contains(peer)) {
                assert_eq!(r, q, "{at}: ranks {rank} and {peer} disagree on their half");
            }
        }
    });
    assert_eq!(digest, DIGEST, "decision logs or reports moved: {digest:#018x}");
}
