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
//!
//! The tests after it hold the Fig. 1 validate interfaces to their
//! contract, one hand-placed plan each over seeds `0..32`.

use std::fmt::Debug;

use dst::{referee, refereed, reports, Body, Kills, SeedRunner, Workload};
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{Error, ErrorHandler, Process, RankState, Src, WorldRank, WORLD};

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

/// `w` under `plan` and `seed` leaves the same decision log, trace and
/// reports on `warm` as on a fresh runner.
fn as_fresh<W: Workload>(warm: &mut SeedRunner, w: &W, plan: &FaultPlan, seed: u64) {
    let run = |runner: &mut SeedRunner| {
        let (report, sched) = runner.run_workload(w, plan, seed);
        (sched.log_text(), format!("{:?} {:?}", report.trace, report.outcomes))
    };
    let fresh = run(&mut SeedRunner::new(warm.ranks()));
    assert_eq!(run(warm), fresh, "seed {seed}");
}

/// A warm runner's processes keep nothing of a run: after the board's
/// runs (dup and split communicators, validate decisions, kills that
/// leave requests outstanding) and a run that leaves requests, an
/// unreceived message, a dup and a recognition behind on purpose, every
/// seed runs on it as on a fresh runner — the board, and a ring
/// exchange that a stale message, communicator or recognition would
/// change.
#[test]
fn a_warm_runner_runs_as_a_fresh_one() {
    let kill_3 = FaultPlan::none().kill_at(3, HookKind::BeforeSend, 1);
    let litter = Body::new(kill_3.clone(), |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let dup = p.comm_dup(WORLD)?;
        if p.world_rank() == 3 {
            announce(p, &[0])?;
        }
        let me = p.world_rank();
        p.irecv(dup, Src::Rank(3), 5)?;
        p.irecv(WORLD, Src::Rank((me + 2) % 4), 6)?;
        // Rank 0's left is the victim.
        let _ = p.send(WORLD, (me + 3) % 4, 6, &(100 + me));
        // Drains every message sent before it into its receiver.
        p.comm_validate_all(WORLD)
    });
    let exchange = Body::new(kill_3.clone(), |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let (me, dup) = (p.world_rank(), p.comm_dup(WORLD)?);
        let (left, right) = ((me + 3) % 4, Src::Rank((me + 1) % 4));
        let got = p.sendrecv::<usize, usize>(WORLD, left, 6, &me, right, 6);
        let got = got.map(|(v, _)| v).map_err(|e| e.to_string());
        Ok((format!("{dup:?}"), got, p.comm_validate_rank(WORLD, 3)?.state))
    });
    let mut warm = SeedRunner::new(4);
    for seed in SEEDS {
        let Kills::Plan(plan) = Board.kills(seed, 4) else { unreachable!("a plan per seed") };
        as_fresh(&mut warm, &Board, &plan, seed);
        as_fresh(&mut warm, &exchange, &kill_3, seed);
        let (report, _) = warm.run_workload(&litter, &kill_3, seed);
        assert!(report.outcomes[3].is_failed(), "seed {seed}: {:?}", report.outcomes);
    }
}

/// Referee `body` at `ranks` under `plan` over seeds `0..32` and
/// assert every survivor of the planned run reports `expect`.
fn contract<R: Debug + Send + PartialEq>(
    ranks: usize,
    plan: FaultPlan,
    expect: R,
    body: impl Fn(&mut Process) -> ftmpi::Result<R> + Sync,
) {
    let victims = plan.victims();
    refereed(ranks, plan, body, |at, report| {
        for (rank, r) in reports(at, report).into_iter().enumerate() {
            assert!(victims.contains(&rank) || r == Some(&expect), "{at}: rank {rank}");
        }
    });
}

/// `victims` each die at their first send: the plan of the tests below.
fn at_first_send(victims: &[usize]) -> FaultPlan {
    victims.iter().fold(FaultPlan::none(), |plan, &v| plan.kill_at(v, HookKind::BeforeSend, 1))
}

/// A victim's side: one message to each of `survivors`, unless it dies
/// first.
fn announce(p: &mut Process, survivors: &[usize]) -> ftmpi::Result<()> {
    survivors.iter().try_for_each(|&s| p.send(WORLD, s, 9, &0u8))
}

/// A survivor's side: whether `victim` died instead of announcing.
fn died(p: &mut Process, victim: usize) -> ftmpi::Result<bool> {
    match p.recv::<u8>(WORLD, Src::Rank(victim), 9) {
        Ok(_) => Ok(false),
        Err(Error::RankFailStop { rank }) if rank == victim => Ok(true),
        Err(e) => Err(e),
    }
}

/// Recognition on the application's communicator does not recognize on
/// a library's duplicate, so the library gets its own notification.
#[test]
fn recognition_is_per_communicator() {
    contract(3, at_first_send(&[2]), true, |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let lib = p.comm_dup(WORLD)?;
        p.set_errhandler(lib, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 2 {
            return announce(p, &[0, 1]).map(|()| false);
        }
        if !died(p, 2)? {
            return Ok(false);
        }
        p.comm_validate_clear(WORLD, &[2])?;
        assert_eq!(p.comm_validate_rank(WORLD, 2)?.state, RankState::Null);
        assert_eq!(p.comm_validate_rank(lib, 2)?.state, RankState::Failed);
        // The library's send errors until the library recognizes too.
        assert!(matches!(p.send(lib, 2, 1, &0i32), Err(Error::RankFailStop { rank: 2 })));
        p.comm_validate_clear(lib, &[2])?;
        assert_eq!(p.comm_validate_rank(lib, 2)?.state, RankState::Null);
        p.send(lib, 2, 1, &0i32)?; // dropped: PROC_NULL now
        Ok(true)
    });
}

/// `comm_validate` lists every failed rank with its per-communicator
/// state.
#[test]
fn validate_lists_failed_ranks_with_states() {
    contract(4, at_first_send(&[1, 3]), true, |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() % 2 == 1 {
            return announce(p, &[0, 2]).map(|()| false);
        }
        if !(died(p, 1)? && died(p, 3)?) {
            return Ok(false);
        }
        let infos = p.comm_validate(WORLD)?;
        assert_eq!(infos.iter().map(|i| i.rank).collect::<Vec<_>>(), [1, 3]);
        assert!(infos.iter().all(|i| i.state == RankState::Failed && i.generation == 0));
        // Recognize one of them: the states diverge.
        p.comm_validate_clear(WORLD, &[1])?;
        let states: Vec<RankState> = p.comm_validate(WORLD)?.iter().map(|i| i.state).collect();
        assert_eq!(states, [RankState::Null, RankState::Failed]);
        Ok(true)
    });
}

/// `validate_all` returns the same count everywhere, re-enables
/// collectives, and its count accumulates over successive failures:
/// rank 1 dies before the first, rank 2 entering the barrier after it.
#[test]
fn validate_all_counts_accumulate() {
    let plan = at_first_send(&[1]).kill_at(2, HookKind::BeforeCollective, 1);
    contract(5, plan, (1, 2), |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        // With no kill armed, rank 1 joins the collectives too.
        if p.world_rank() == 1 {
            announce(p, &[0, 2, 3, 4])?;
        } else {
            died(p, 1)?;
        }
        let first = p.comm_validate_all(WORLD)?;
        let _ = p.barrier(WORLD);
        let second = p.comm_validate_all(WORLD)?;
        p.barrier(WORLD)?;
        Ok((first, second))
    });
}

/// `icomm_validate_all` composes with `waitany` beside an ordinary
/// receive: the shape of the paper's Fig. 13 loop.
#[test]
fn ivalidate_composes_with_waitany() {
    contract(3, FaultPlan::none(), 0, |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        // A receive that never completes, and the validate.
        let never = p.irecv(WORLD, Src::Rank((p.world_rank() + 1) % 3), 77)?;
        let vreq = p.icomm_validate_all(WORLD)?;
        let out = p.waitany(&[never, vreq])?;
        assert_eq!(out.index, 1, "the validate must complete first");
        let count = out.result?.validate_count();
        p.cancel(never)?;
        Ok(count)
    });
}

/// Leader election (Fig. 12) composes with recognition: a recognized
/// failed rank is still never electable.
#[test]
fn election_and_recognition_compose() {
    contract(4, at_first_send(&[0]), 1, |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 0 {
            return announce(p, &[1, 2, 3]).map(|()| 0);
        }
        if died(p, 0)? {
            assert_eq!(ftring::get_current_root(p, WORLD)?, 1);
            p.comm_validate_clear(WORLD, &[0])?;
        }
        ftring::get_current_root(p, WORLD)
    });
}
