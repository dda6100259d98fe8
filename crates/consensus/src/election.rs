//! Leader election (paper Fig. 12).
//!
//! "A simple leader election algorithm that determines the new root by
//! choosing the lowest rank among all the alive processes in the
//! communicator." Purely local: every process scans the communicator
//! with `MPI_Comm_validate_rank` and, because the failure detector is
//! perfect, all survivors that scan after the same set of failures
//! elect the same root.
//!
//! Note the agreement caveat the paper glosses over (and which its
//! §III-D root-recovery protocol must absorb): two processes scanning
//! *while* a failure is being detected can transiently elect different
//! roots; the ring algorithms are written so that an out-of-date
//! elected root only delays progress until the next failure
//! notification, never corrupts it.

use ftmpi::{Comm, Error, Process, RankState, Result};

/// `get_current_root` (paper Fig. 12): the lowest alive rank in
/// `comm`, or an abort-worthy error when every rank has failed (which
/// cannot be observed by an alive caller, but mirrors the paper's
/// `MPI_Abort` fallthrough).
pub fn current_root(p: &Process, comm: Comm) -> Result<usize> {
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
    use ftmpi::{run, run_default, ErrorHandler, Src, UniverseConfig, WORLD};
    use std::time::Duration;

    #[test]
    fn all_alive_elects_rank_zero() {
        let report = run_default(4, |p| current_root(p, WORLD));
        assert!(report.all_ok());
        for o in &report.outcomes {
            assert_eq!(o.as_ok(), Some(&0));
        }
    }

    #[test]
    fn survivors_agree_on_lowest_alive() {
        let plan = faultsim::FaultPlan::none()
            .kill_at(0, faultsim::HookKind::Tick, 1)
            .kill_at(1, faultsim::HookKind::Tick, 1);
        let report = run(
            5,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                if p.world_rank() <= 1 {
                    let req = p.irecv(WORLD, Src::Rank(4), 9)?;
                    let _ = p.wait(req)?;
                    return Ok(usize::MAX);
                }
                // Wait until both failures are visible, then elect.
                loop {
                    let s0 = p.comm_validate_rank(WORLD, 0)?.state;
                    let s1 = p.comm_validate_rank(WORLD, 1)?.state;
                    if s0 != RankState::Ok && s1 != RankState::Ok {
                        break;
                    }
                    std::thread::yield_now();
                }
                current_root(p, WORLD)
            },
        );
        for r in 2..5 {
            assert_eq!(report.outcomes[r].as_ok(), Some(&2), "rank {r}");
        }
    }

    #[test]
    fn election_ignores_recognition_state() {
        // A recognized (Null) rank is still failed: never electable.
        let plan = faultsim::FaultPlan::none().kill_at(0, faultsim::HookKind::Tick, 1);
        let report = run(
            3,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                if p.world_rank() == 0 {
                    let req = p.irecv(WORLD, Src::Rank(1), 9)?;
                    let _ = p.wait(req)?;
                    return Ok(usize::MAX);
                }
                while p.comm_validate_rank(WORLD, 0)?.state == RankState::Ok {
                    std::thread::yield_now();
                }
                p.comm_validate_clear(WORLD, &[0])?;
                current_root(p, WORLD)
            },
        );
        for r in 1..3 {
            assert_eq!(report.outcomes[r].as_ok(), Some(&1), "rank {r}");
        }
    }
}
