//! Recovery-extension tests: respawned incarnations, generation
//! reporting, and messaging across a recovery.
//!
//! The paper explicitly scopes recovery out ("Process recovery is not
//! addressed in this paper") but plumbs the `generation` field for it;
//! this extension implements the field's intended semantics for
//! point-to-point protocols. DESIGN.md documents the supported scope.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use faultsim::{FaultPlan, HookKind};
use ftmpi::{
    run, Error, ErrorHandler, Event, RankOutcome, RankState, RespawnPolicy, Src, UniverseConfig,
    WATCHDOG_ABORT_CODE, WORLD,
};

fn policy() -> RespawnPolicy {
    RespawnPolicy { after: Duration::from_millis(5), max_per_rank: 1 }
}

#[test]
fn respawned_rank_reports_generation_one() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let report = run(
        2,
        UniverseConfig::with_plan(plan)
            .watchdog(Duration::from_secs(60))
            .respawning(policy()),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                if p.generation() == 0 {
                    // First incarnation: dies at its first Tick.
                    let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                    let _ = p.wait(req)?;
                    unreachable!("killed by the tick");
                }
                // Second incarnation: answer rank 0.
                let (v, _) = p.recv::<i32>(WORLD, Src::Rank(0), 1)?;
                p.send(WORLD, 0, 2, &(v + 1))?;
                return Ok(p.generation() as i32);
            }
            // Rank 0: observe death, then recovery, then talk to the
            // new incarnation.
            while p.comm_validate_rank(WORLD, 1)?.state == RankState::Ok {
                std::thread::yield_now();
            }
            while p.comm_validate_rank(WORLD, 1)?.state != RankState::Ok {
                std::thread::yield_now();
            }
            let info = p.comm_validate_rank(WORLD, 1)?;
            assert_eq!(info.generation, 1, "recovered incarnation is generation 1");
            assert_eq!(info.state, RankState::Ok);
            p.send(WORLD, 1, 1, &41i32)?;
            let (v, _) = p.recv::<i32>(WORLD, Src::Rank(1), 2)?;
            Ok(v)
        },
    );
    assert!(!report.hung);
    assert_eq!(report.outcomes[0].as_ok(), Some(&42));
    assert_eq!(report.outcomes[1].as_ok(), Some(&1), "final incarnation's outcome wins");
    assert_eq!(report.generations, vec![0, 1]);
    // The trace records the respawn.
    // (Tracing off by default; generations vector is the witness.)
}

#[test]
fn recognition_clears_for_the_new_incarnation() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let report = run(
        2,
        UniverseConfig::with_plan(plan)
            .watchdog(Duration::from_secs(60))
            .respawning(policy()),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                if p.generation() == 0 {
                    let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                    let _ = p.wait(req)?;
                    unreachable!();
                }
                // New incarnation idles until rank 0 finishes its
                // checks, then receives the close message.
                let (_, _) = p.recv::<()>(WORLD, Src::Rank(0), 3)?;
                return Ok(());
            }
            // Observe death and RECOGNIZE it (Null).
            while p.comm_validate_rank(WORLD, 1)?.state == RankState::Ok {
                std::thread::yield_now();
            }
            p.comm_validate_clear(WORLD, &[1])?;
            assert_eq!(p.comm_validate_rank(WORLD, 1)?.state, RankState::Null);
            // After the respawn, the rank is Ok again — the old
            // recognition applies to the dead incarnation only.
            while p.comm_validate_rank(WORLD, 1)?.state != RankState::Ok {
                std::thread::yield_now();
            }
            assert_eq!(p.comm_validate_rank(WORLD, 1)?.generation, 1);
            p.send(WORLD, 1, 3, &())?;
            Ok(())
        },
    );
    assert!(!report.hung);
    assert!(report.outcomes[0].is_ok(), "{:?}", report.outcomes[0]);
    assert!(report.outcomes[1].is_ok());
}

#[test]
fn messages_to_the_dead_incarnation_are_lost() {
    // Rank 0 sends to rank 1 while it is down (between death and
    // respawn the send errors; right after respawn the new incarnation
    // must NOT see pre-death messages).
    let plan = FaultPlan::none().kill_at(1, HookKind::AfterRecvComplete, 1);
    let report = run(
        2,
        UniverseConfig::with_plan(plan)
            .watchdog(Duration::from_secs(60))
            .respawning(policy()),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                if p.generation() == 0 {
                    // Receives the doomed message and dies on its
                    // completion hook; the SECOND message (sent before
                    // our death was visible) is lost with us.
                    let (_, _) = p.recv::<i32>(WORLD, Src::Rank(0), 1)?;
                    unreachable!();
                }
                // New incarnation: the only message we see is the
                // post-recovery one.
                let (v, _) = p.recv::<i32>(WORLD, Src::Rank(0), 1)?;
                assert_eq!(v, 3, "pre-death messages must not leak into the new incarnation");
                Ok(v)
            } else {
                p.send(WORLD, 1, 1, &1i32)?; // consumed by gen 0, kills it
                let _ = p.send(WORLD, 1, 1, &2i32); // racing the death: lost either way
                // Wait for recovery, then send the message that must
                // be the first thing generation 1 sees.
                while p.comm_validate_rank(WORLD, 1)?.state == RankState::Ok {
                    std::thread::yield_now();
                }
                while p.comm_validate_rank(WORLD, 1)?.state != RankState::Ok {
                    std::thread::yield_now();
                }
                p.send(WORLD, 1, 1, &3i32)?;
                Ok(0)
            }
        },
    );
    assert!(!report.hung);
    assert_eq!(report.outcomes[1].as_ok(), Some(&3));
}

#[test]
fn respawn_budget_is_respected() {
    // Budget 1: the second death stays dead.
    let plan = FaultPlan::none()
        .kill_at(1, HookKind::Tick, 1)
        .kill_at(1, HookKind::Tick, 2); // fires on the respawned incarnation's 2nd tick... armed per-rule
    // NOTE: rules fire once each; the second rule kills the recovered
    // incarnation at its (global) second observed tick.
    let report = run(
        2,
        UniverseConfig::with_plan(plan)
            .watchdog(Duration::from_secs(60))
            .respawning(policy()),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                let _ = p.wait(req)?; // both incarnations die here
                return Ok(());
            }
            // Rank 0 simply waits for rank 1 to be permanently dead:
            // generation 1 AND failed.
            loop {
                let info = p.comm_validate_rank(WORLD, 1)?;
                if info.generation == 1 && info.state != RankState::Ok {
                    return Ok(());
                }
                std::thread::yield_now();
            }
        },
    );
    assert!(!report.hung);
    assert!(report.outcomes[0].is_ok());
    assert!(report.outcomes[1].is_failed(), "second death is final (budget 1)");
    assert_eq!(report.generations, vec![0, 1]);
}

#[test]
fn respawn_is_traced() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let report = run(
        2,
        UniverseConfig::with_plan(plan)
            .watchdog(Duration::from_secs(60))
            .respawning(policy())
            .traced(),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                if p.generation() == 0 {
                    let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                    let _ = p.wait(req)?;
                    unreachable!();
                }
                return Ok(());
            }
            while p.comm_validate_rank(WORLD, 1)?.generation == 0 {
                std::thread::yield_now();
            }
            Ok(())
        },
    );
    let respawns: Vec<_> = report
        .trace
        .iter()
        .filter(|te| matches!(te.event, Event::Respawned { rank: 1, generation: 1 }))
        .collect();
    assert_eq!(respawns.len(), 1);
}

/// The watchdog ends a run while a respawn is still owed: the abort
/// ends the dead rank's wait for its next incarnation, and an aborted
/// run revives nobody.
#[test]
fn the_watchdog_fires_while_a_respawn_is_owed() {
    let plan = FaultPlan::none().kill_at(1, HookKind::BeforeSend, 1);
    let began = Instant::now();
    let report = run(
        2,
        UniverseConfig::with_plan(plan)
            .watchdog(Duration::from_millis(300))
            .respawning(RespawnPolicy { after: Duration::from_secs(3600), max_per_rank: 1 }),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                p.send(WORLD, 0, 1, &1i32)?;
                unreachable!("killed before its first send");
            }
            // Nobody ever sends this.
            let (v, _) = p.recv::<i32>(WORLD, Src::Rank(0), 1)?;
            Ok(v)
        },
    );
    assert!(began.elapsed() < Duration::from_secs(5), "took {:?}", began.elapsed());
    assert!(report.hung);
    assert!(report.outcomes[1].is_failed(), "{:?}", report.outcomes[1]);
    assert_eq!(report.outcomes[0], RankOutcome::Aborted { code: WATCHDOG_ABORT_CODE });
    assert_eq!(report.generations, vec![0, 0]);
}

fn immediate() -> UniverseConfig<'static> {
    UniverseConfig::default()
        .watchdog(Duration::from_secs(10))
        .respawning(RespawnPolicy { after: Duration::ZERO, max_per_rank: 1 })
}

/// A receive watches the incarnation it was posted on (DESIGN.md §7).
/// Rank 1's first incarnation dies on rank 0's "go" and is revived at
/// once, while rank 0, between posting the receive and waiting on it,
/// reads rank 1's generation without a progress pass until it is 1: its
/// first pass after the post finds generation 1 alive, and the receive
/// must error all the same. Judged by the peer's current state it would
/// wait for generation 1, which never sends.
#[test]
fn a_receive_posted_on_a_replaced_incarnation_errors() {
    let report = run(2, immediate(), |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 1 {
            if p.generation() == 0 {
                p.recv::<()>(WORLD, Src::Rank(0), 1)?;
                return Err(p.fail_now());
            }
            return Ok(None);
        }
        let req = p.irecv(WORLD, Src::Rank(1), 2)?;
        p.send(WORLD, 1, 1, &())?;
        while p.comm_validate_rank(WORLD, 1)?.generation == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(p.wait(req).err())
    });
    assert!(!report.hung, "the receive waited on generation 1");
    assert_eq!(report.outcomes[0].as_ok(), Some(&Some(Error::RankFailStop { rank: 1 })));
    assert_eq!(report.generations, vec![0, 1]);
}

/// A rank is revived only while another rank's incarnation is inside
/// its body: rank 1 dies 50 ms after rank 0 began to return, and stays
/// dead. It dies 10 ms before its body returns, and `after` counts from
/// the return, so the dying rank's own unwind does not count as
/// "another".
#[test]
fn a_rank_that_dies_after_every_other_rank_returned_is_not_revived() {
    let returning = AtomicBool::new(false);
    let report = run(2, immediate(), |p| {
        if p.world_rank() == 0 {
            returning.store(true, Ordering::Release);
            return Ok(());
        }
        while !returning.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        let died = p.fail_now();
        std::thread::sleep(Duration::from_millis(10));
        Err(died)
    });
    assert!(!report.hung);
    assert!(report.outcomes[0].is_ok(), "{:?}", report.outcomes[0]);
    assert!(report.outcomes[1].is_failed(), "{:?}", report.outcomes[1]);
    assert_eq!(report.generations, vec![0, 0]);
}

/// Envelopes carry no generation, and a respawn empties only the
/// revived rank's own mailbox: a message incarnation 0 sent, still
/// queued at rank 0, matches a receive rank 0 posts once incarnation 1
/// runs. Pinned as it stands; a fix would stamp envelopes with the
/// sender's generation.
#[test]
fn a_message_from_a_dead_incarnation_matches_a_receive_on_its_successor() {
    let report = run(2, immediate(), |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let me = p.world_rank();
        if me == 1 {
            p.send(WORLD, 0, 1, &p.generation())?;
            return match p.generation() {
                0 => Err(p.fail_now()),
                _ => Ok((0, 0)),
            };
        }
        loop {
            let info = p.comm_validate_rank(WORLD, 1)?;
            if info.generation == 1 && info.state == RankState::Ok {
                break;
            }
            std::thread::yield_now();
        }
        let (first, _) = p.recv::<u32>(WORLD, Src::Rank(1), 1)?;
        let (second, _) = p.recv::<u32>(WORLD, Src::Rank(1), 1)?;
        Ok((first, second))
    });
    assert!(!report.hung);
    assert_eq!(report.generations, vec![0, 1]);
    assert_eq!(report.outcomes[0].as_ok(), Some(&(0, 1)), "generation 0's message is taken first");
}
