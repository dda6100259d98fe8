//! Fault-aware neighbour selection (paper Fig. 4) and the current-root
//! query (paper Fig. 12).
//!
//! The original ring computed `P_R = (me+1) % size` and
//! `P_L = me == 0 ? size-1 : me-1` (Fig. 2 lines 9–10); the
//! fault-aware versions walk past ranks whose state is not
//! `MPI_RANK_OK`, "preventing the application from interacting with a
//! rank that is already known to be failed, thus wasting effort".

use ftmpi::{Comm, CommRank, Error, Process, RankState, Result};

/// `to_left_of(n)` (Fig. 4 lines 1–9): the nearest alive rank to the
/// left of `n` (wrapping). Errors with `InvalidState` when the walk
/// returns to the caller — the "alone in the communicator" condition
/// the paper answers with `MPI_Abort`.
pub fn to_left_of(p: &Process, comm: Comm, n: CommRank) -> Result<CommRank> {
    walk(p, comm, n, true)
}

/// `to_right_of(n)` (Fig. 4 lines 10–18): the nearest alive rank to
/// the right of `n` (wrapping); same aloneness semantics.
pub fn to_right_of(p: &Process, comm: Comm, n: CommRank) -> Result<CommRank> {
    walk(p, comm, n, false)
}

/// The Fig. 4 walk, one rank at a time from `n` in one direction.
fn walk(p: &Process, comm: Comm, mut n: CommRank, leftward: bool) -> Result<CommRank> {
    let size = p.comm_size(comm)?;
    let me = p.comm_rank(comm)?;
    loop {
        n = if leftward { (n + size - 1) % size } else { (n + 1) % size };
        // Back at the caller: every rank on the way has failed, or the
        // nearest alive one is the caller itself.
        if n == me {
            return Err(Error::InvalidState("alone in the ring"));
        }
        if p.comm_validate_rank(comm, n)?.state == RankState::Ok {
            return Ok(n);
        }
    }
}

/// `get_current_root()` (Fig. 12): "a simple leader election algorithm
/// that determines the new root by choosing the lowest rank among all
/// the alive processes in the communicator". Purely local: every process
/// scans the communicator with `MPI_Comm_validate_rank`, and because the
/// failure detector is perfect, all survivors that scan after the same
/// set of failures elect the same root. Two processes scanning *while* a
/// failure is being detected can transiently elect different roots; the
/// ring is written so that an out-of-date root only delays progress
/// until the next failure notification (§III-D). Errors with
/// `InvalidState` when every rank has failed, which no alive caller can
/// observe (the paper's `MPI_Abort` fallthrough).
pub fn get_current_root(p: &Process, comm: Comm) -> Result<CommRank> {
    let size = p.comm_size(comm)?;
    for n in 0..size {
        if p.comm_validate_rank(comm, n)?.state == RankState::Ok {
            return Ok(n);
        }
    }
    Err(Error::InvalidState("no alive rank in communicator"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dst::{await_death, idle, refereed, seeded};
    use faultsim::{FaultPlan, HookKind};
    use ftmpi::{ErrorHandler, WORLD};

    #[test]
    fn failure_free_neighbors_match_fig2() {
        let body = |p: &mut Process| {
            let me = p.world_rank();
            Ok((to_right_of(p, WORLD, me)?, to_left_of(p, WORLD, me)?))
        };
        refereed(5, FaultPlan::none(), body, |at, report| {
            for (me, o) in report.outcomes.iter().enumerate() {
                let (r, l) = *o.as_ok().unwrap();
                assert_eq!(r, (me + 1) % 5, "{at}");
                assert_eq!(l, if me == 0 { 4 } else { me - 1 }, "{at}");
            }
        });
    }

    #[test]
    fn neighbors_skip_failed_ranks() {
        let plan = FaultPlan::none()
            .kill_at(1, HookKind::Tick, 1)
            .kill_at(2, HookKind::Tick, 1);
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 || p.world_rank() == 2 {
                return idle(p);
            }
            await_death(p, 1)?;
            await_death(p, 2)?;
            // Each rank asks about its OWN neighbour chain (the
            // paper's aloneness check makes other chains invalid).
            let me = p.world_rank();
            Ok((to_right_of(p, WORLD, me)?, to_left_of(p, WORLD, me)?))
        };
        seeded(5, plan, body, |at, report| {
            // 0 <-> 3 <-> 4 is the re-knit ring.
            assert_eq!(report.outcomes[0].as_ok(), Some(&(3, 4)), "{at}");
            assert_eq!(report.outcomes[3].as_ok(), Some(&(4, 0)), "{at}");
            assert_eq!(report.outcomes[4].as_ok(), Some(&(0, 3)), "{at}");
        });
    }

    #[test]
    fn wrapping_works_both_ways() {
        let body = |p: &mut Process| {
            // Wrap-around on the caller's own chain.
            match p.world_rank() {
                2 => assert_eq!(to_right_of(p, WORLD, 2)?, 0),
                0 => assert_eq!(to_left_of(p, WORLD, 0)?, 2),
                _ => {}
            }
            Ok(())
        };
        refereed(3, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
    }

    #[test]
    fn alone_is_detected() {
        let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                return idle(p);
            }
            await_death(p, 1)?;
            assert!(matches!(to_right_of(p, WORLD, 0), Err(Error::InvalidState(_))));
            assert!(matches!(to_left_of(p, WORLD, 0), Err(Error::InvalidState(_))));
            Ok(())
        };
        seeded(2, plan, body, |at, report| assert!(report.outcomes[0].is_ok(), "{at}"));
    }

    #[test]
    fn recognized_ranks_are_also_skipped() {
        // `MPI_RANK_OK != rs.state` covers both Failed and Null.
        let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                return idle(p);
            }
            await_death(p, 1)?;
            p.comm_validate_clear(WORLD, &[1])?;
            // Rank 0's right chain must skip the recognized rank 1.
            if p.world_rank() == 0 {
                to_right_of(p, WORLD, 0)
            } else {
                to_left_of(p, WORLD, 2)
            }
        };
        seeded(3, plan, body, |at, report| {
            assert_eq!(report.outcomes[0].as_ok(), Some(&2), "{at}");
            assert_eq!(report.outcomes[2].as_ok(), Some(&0), "{at}");
        });
    }

    #[test]
    fn all_alive_elects_rank_zero() {
        refereed(4, FaultPlan::none(), |p| get_current_root(p, WORLD), |at, report| {
            for o in &report.outcomes {
                assert_eq!(o.as_ok(), Some(&0), "{at}");
            }
        });
    }

    #[test]
    fn survivors_agree_on_lowest_alive() {
        let plan = FaultPlan::none()
            .kill_at(0, HookKind::Tick, 1)
            .kill_at(1, HookKind::Tick, 1);
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() <= 1 {
                return idle(p);
            }
            // Wait until both failures are visible, then elect.
            await_death(p, 0)?;
            await_death(p, 1)?;
            get_current_root(p, WORLD)
        };
        seeded(5, plan, body, |at, report| {
            for r in 2..5 {
                assert_eq!(report.outcomes[r].as_ok(), Some(&2), "{at}: rank {r}");
            }
        });
    }

    #[test]
    fn election_ignores_recognition_state() {
        // A recognized (Null) rank is still failed: never electable.
        let plan = FaultPlan::none().kill_at(0, HookKind::Tick, 1);
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 0 {
                return idle(p);
            }
            await_death(p, 0)?;
            p.comm_validate_clear(WORLD, &[0])?;
            get_current_root(p, WORLD)
        };
        seeded(3, plan, body, |at, report| {
            for r in 1..3 {
                assert_eq!(report.outcomes[r].as_ok(), Some(&1), "{at}: rank {r}");
            }
        });
    }
}
