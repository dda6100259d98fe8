//! Dissemination barrier.

use bytes::Bytes;

use crate::comm::Comm;
use crate::error::Result;
use crate::process::Process;

use super::{CollCtx, OP_BARRIER};

impl Process {
    /// `MPI_Barrier`: no active participant leaves before every active
    /// participant has entered. Dissemination algorithm,
    /// ceil(log2(m)) rounds.
    pub fn barrier(&mut self, comm: Comm) -> Result<()> {
        // The send partner of every round waits on us: leaving in round
        // `k` poisons those of the later rounds.
        let owes = |cctx: &CollCtx| {
            steps(cctx.size()).map(|step| (cctx.vrank + step) % cctx.size()).collect()
        };
        self.collective(comm, (OP_BARRIER, "barrier"), None, None, owes, |p, cctx| {
            let m = cctx.size();
            for step in steps(m) {
                p.coll_send(cctx, (cctx.vrank + step) % m, Bytes::new())?;
                p.coll_recv(cctx, (cctx.vrank + m - step) % m)?;
            }
            Ok(())
        })
    }
}

/// The distance of each round among `m` participants: 1, 2, 4, … below
/// `m`.
fn steps(m: usize) -> impl Iterator<Item = usize> {
    (0..usize::BITS).map(|round| 1usize << round).take_while(move |&step| step < m)
}

#[cfg(test)]
mod tests {
    use crate::comm::WORLD;
    use crate::error::{Error, ErrorHandler};
    use crate::process::Src;
    use crate::universe::{run, run_default, UniverseConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn barrier_synchronizes() {
        // No rank may leave barrier k before all have entered it:
        // count entries and assert on exit.
        static ENTERED: AtomicUsize = AtomicUsize::new(0);
        ENTERED.store(0, Ordering::SeqCst);
        let n = 8;
        let report = run_default(n, |p| {
            for it in 1..=5usize {
                ENTERED.fetch_add(1, Ordering::SeqCst);
                p.barrier(WORLD)?;
                let seen = ENTERED.load(Ordering::SeqCst);
                assert!(seen >= it * n, "left barrier {it} after only {seen} entries");
            }
            Ok(())
        });
        assert!(report.all_ok());
    }

    #[test]
    fn barrier_of_one_is_trivial() {
        let report = run_default(1, |p| p.barrier(WORLD));
        assert!(report.all_ok());
    }

    #[test]
    fn barrier_errors_not_hangs_when_a_rank_dies() {
        let plan = faultsim::FaultPlan::none()
            .kill_at(2, faultsim::HookKind::BeforeCollective, 1);
        let report = run(
            5,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                match p.barrier(WORLD) {
                    // Either outcome is spec-conformant for survivors:
                    Ok(()) => Ok(true),
                    Err(Error::RankFailStop { .. }) => Ok(false),
                    Err(e) => Err(e),
                }
            },
        );
        assert!(!report.hung, "barrier with a dead rank must not hang");
        assert!(report.outcomes[2].is_failed());
        // At least one survivor must observe the failure.
        let errs = report
            .ok_values()
            .iter()
            .filter(|(_, &ok)| !ok)
            .count();
        assert!(errs >= 1, "no survivor observed the failure");
    }

    #[test]
    fn barrier_reenabled_after_validate_all() {
        let plan = faultsim::FaultPlan::none().kill_at(3, faultsim::HookKind::Tick, 1);
        let report = run(
            4,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                if p.world_rank() == 3 {
                    let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                    let _ = p.wait(req)?;
                    return Ok(());
                }
                // Wait until the failure is visible, then observe that
                // collectives error, repair, and observe they work.
                while p.comm_validate_rank(WORLD, 3)?.state == crate::rank::RankState::Ok {
                    std::thread::yield_now();
                }
                match p.barrier(WORLD) {
                    Err(Error::RankFailStop { .. }) => {}
                    other => panic!("expected RankFailStop before validate, got {other:?}"),
                }
                let failed = p.comm_validate_all(WORLD)?;
                assert_eq!(failed, 1);
                // Now the barrier must succeed among survivors.
                p.barrier(WORLD)?;
                Ok(())
            },
        );
        assert!(!report.hung);
        for r in 0..3 {
            assert!(report.outcomes[r].is_ok(), "rank {r}: {:?}", report.outcomes[r]);
        }
    }
}
