//! Allgather and all-to-all exchange.

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::error::{Error, Result};
use crate::process::Process;
use crate::rank::CommRank;

use super::{CollCtx, OP_ALLGATHER, OP_ALLTOALL};

impl Process {
    /// `MPI_Allgather`: every active participant receives every
    /// participant's `(comm_rank, value)` pair, in active-rank order.
    ///
    /// Implemented as gather-to-lowest-active + broadcast, reusing the
    /// fault behaviour of both phases. The broadcast phase is entered
    /// even when the gather phase failed, so instance counters stay
    /// aligned across ranks (see [`Process::bcast_from`]).
    pub fn allgather<T: Datatype>(
        &mut self,
        comm: Comm,
        value: &T,
    ) -> Result<Vec<(CommRank, T)>> {
        let root = self.lowest_active(comm)?;
        let gathered = self.gather(comm, root, value).map(|at_root| {
            at_root.map(|pairs| {
                Vec::from_iter(pairs.into_iter().map(|(r, v)| (r as u64, v))).to_bytes()
            })
        });
        let pairs: Vec<(u64, T)> =
            self.bcast_from(comm, (OP_ALLGATHER, "allgather.bcast"), root, gathered)?;
        Ok(pairs.into_iter().map(|(r, v)| (r as CommRank, v)).collect())
    }

    /// `MPI_Alltoall`: participant at active index `i` sends
    /// `values[j]` to active index `j` and receives a vector indexed by
    /// active position. `values.len()` must equal the active size.
    ///
    /// All sends complete (eagerly) before any receive is posted, so a
    /// failure shows up as receive errors, never a hang.
    pub fn alltoall<T: Datatype>(&mut self, comm: Comm, values: &[T]) -> Result<Vec<T>> {
        // Everyone waits on everyone.
        self.collective(comm, (OP_ALLTOALL, "alltoall"), None, None, CollCtx::others, |p, cctx| {
            if values.len() != cctx.size() {
                // Peers will wait for our contribution: they are
                // poisoned, so a local usage error cannot wedge the
                // rest of the job.
                return Err(Error::InvalidState("alltoall needs one value per active rank"));
            }
            let mut out: Vec<Option<T>> = (0..cctx.size()).map(|_| None).collect();
            out[cctx.vrank] = Some(T::from_bytes(&values[cctx.vrank].to_bytes())?);
            // Phase 1: eager sends to everyone (self handled locally).
            // Phase 2: receive from everyone.
            let peers = cctx.others();
            let walk = peers.iter().map(|&v| (true, v)).chain(peers.iter().map(|&v| (false, v)));
            p.coll_each(walk, |p, (sending, v)| {
                if sending {
                    return p.coll_send(cctx, v, values[v].to_bytes());
                }
                out[v] = Some(T::from_bytes(&p.coll_recv(cctx, v)?)?);
                Ok(())
            })?;
            Ok(out.into_iter().map(|v| v.expect("filled")).collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::WORLD;
    use crate::error::{Error, ErrorHandler};
    use crate::universe::{run, run_default, UniverseConfig};
    use std::time::Duration;

    #[test]
    fn allgather_everyone_sees_everything() {
        for n in [1usize, 2, 5, 8] {
            let report = run_default(n, move |p| {
                let mine = (p.world_rank() * 7) as u64;
                p.allgather(WORLD, &mine)
            });
            assert!(report.all_ok(), "n={n}");
            let expected: Vec<(usize, u64)> = (0..n).map(|r| (r, (r * 7) as u64)).collect();
            for o in &report.outcomes {
                assert_eq!(o.as_ok(), Some(&expected));
            }
        }
    }

    #[test]
    fn alltoall_transposes() {
        let n = 4;
        let report = run_default(n, move |p| {
            let me = p.world_rank() as i64;
            // values[j] = me * 100 + j
            let values: Vec<i64> = (0..n as i64).map(|j| me * 100 + j).collect();
            p.alltoall(WORLD, &values)
        });
        assert!(report.all_ok());
        for (r, o) in report.outcomes.iter().enumerate() {
            let got = o.as_ok().unwrap();
            // received[j] = j * 100 + r
            let expected: Vec<i64> = (0..n as i64).map(|j| j * 100 + r as i64).collect();
            assert_eq!(got, &expected, "rank {r}");
        }
    }

    #[test]
    fn alltoall_wrong_arity_rejected() {
        let report = run_default(2, |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            match p.alltoall::<i64>(WORLD, &[1]) {
                Err(Error::InvalidState(_)) => Ok(()),
                other => panic!("expected InvalidState, got {other:?}"),
            }
        });
        // Note: with mismatched arity one rank aborts the exchange; the
        // other may error too. We only assert the reporting rank.
        assert!(report.outcomes[0].is_ok() || report.outcomes[1].is_ok());
    }

    #[test]
    fn alltoall_with_dead_rank_errors_not_hangs() {
        let plan = faultsim::FaultPlan::none()
            .kill_at(2, faultsim::HookKind::BeforeCollective, 1);
        let report = run(
            4,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                let values = vec![1i64; 4];
                match p.alltoall(WORLD, &values) {
                    Ok(_) => Ok(true),
                    Err(Error::RankFailStop { .. }) => Ok(false),
                    Err(e) => Err(e),
                }
            },
        );
        assert!(!report.hung);
        for (r, v) in report.ok_values() {
            assert!(!v, "rank {r} cannot complete an alltoall missing a peer");
        }
    }

    #[test]
    fn allgather_after_validate_excludes_failed() {
        let plan = faultsim::FaultPlan::none().kill_at(1, faultsim::HookKind::Tick, 1);
        let report = run(
            4,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                if p.world_rank() == 1 {
                    let req = p.irecv(WORLD, crate::process::Src::Rank(0), 9)?;
                    let _ = p.wait(req)?;
                    return Ok(vec![]);
                }
                while p.comm_validate_rank(WORLD, 1)?.state == crate::rank::RankState::Ok {
                    std::thread::yield_now();
                }
                p.comm_validate_all(WORLD)?;
                p.allgather(WORLD, &p.world_rank())
            },
        );
        assert!(!report.hung);
        let expected: Vec<(usize, usize)> = vec![(0, 0), (2, 2), (3, 3)];
        for r in [0usize, 2, 3] {
            assert_eq!(report.outcomes[r].as_ok(), Some(&expected), "rank {r}");
        }
    }
}
