//! Binomial-tree reduction and allreduce.

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::error::Result;
use crate::process::Process;
use crate::rank::CommRank;

use super::{binomial_parent, CollCtx, OP_BCAST, OP_REDUCE};

impl Process {
    /// `MPI_Reduce`: combine every active participant's value with `op`
    /// (assumed associative and commutative), delivering the result at
    /// `root`. Returns `Some(result)` at the root, `None` elsewhere.
    ///
    /// Unlike broadcast, a failure anywhere forces an error up the
    /// whole tree: a partial reduction that silently dropped a
    /// contribution would be *wrong*, not just late, so an erroring
    /// rank poisons its parent rather than forwarding a partial.
    pub fn reduce<T: Datatype>(
        &mut self,
        comm: Comm,
        root: CommRank,
        value: &T,
        op: impl Fn(T, T) -> T,
    ) -> Result<Option<T>> {
        // The parent is the only rank waiting on us.
        let parent = |cctx: &CollCtx| {
            let above = binomial_parent(cctx.tree_pos(), cctx.size());
            above.map(|(parent, _)| cctx.at_tree_pos(parent))
        };
        let owes = |cctx: &CollCtx| parent(cctx).into_iter().collect();
        self.collective(comm, (OP_REDUCE, "reduce"), Some(root), None, owes, |p, cctx| {
            let (u, m) = (cctx.tree_pos(), cctx.size());
            let mut acc = T::from_bytes(&value.to_bytes())?; // owned copy via the wire format
            let mut mask = 1usize;
            while mask < m && u & mask == 0 {
                if u + mask < m {
                    let partial = p.coll_recv(cctx, cctx.at_tree_pos(u + mask))?;
                    acc = op(acc, T::from_bytes(&partial)?);
                }
                mask <<= 1;
            }
            match parent(cctx) {
                None => Ok(Some(acc)),
                // On a dead parent the subtree result is lost, which
                // the root observes as its own receive error.
                Some(parent) => p.coll_send(cctx, parent, acc.to_bytes()).map(|()| None),
            }
        })
    }

    /// `MPI_Allreduce`: reduce to the lowest active rank, then
    /// broadcast the result. Every active participant receives the
    /// combined value on success. The broadcast phase is entered even
    /// when the reduce phase failed (see [`Process::bcast_from`]).
    pub fn allreduce<T: Datatype>(
        &mut self,
        comm: Comm,
        value: &T,
        op: impl Fn(T, T) -> T,
    ) -> Result<T> {
        let root = self.lowest_active(comm)?;
        let reduced = self.reduce(comm, root, value, &op);
        let reduced = reduced.map(|at_root| at_root.map(|v| v.to_bytes()));
        self.bcast_from(comm, (OP_BCAST, "allreduce.bcast"), root, reduced)
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::WORLD;
    use crate::error::{Error, ErrorHandler};
    use crate::process::Src;
    use crate::universe::{run, run_default, UniverseConfig};
    use std::time::Duration;

    #[test]
    fn reduce_sums_at_root() {
        for n in [1usize, 2, 4, 7, 9] {
            let report = run_default(n, move |p| {
                let mine = (p.world_rank() + 1) as i64;
                p.reduce(WORLD, 0, &mine, |a, b| a + b)
            });
            assert!(report.all_ok(), "n={n}");
            let expected: i64 = (1..=n as i64).sum();
            assert_eq!(report.outcomes[0].as_ok(), Some(&Some(expected)));
            for r in 1..n {
                assert_eq!(report.outcomes[r].as_ok(), Some(&None));
            }
        }
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let report = run_default(5, |p| {
            let mine = p.world_rank() as u64;
            p.reduce(WORLD, 3, &mine, |a, b| a.max(b))
        });
        assert!(report.all_ok());
        assert_eq!(report.outcomes[3].as_ok(), Some(&Some(4)));
    }

    #[test]
    fn allreduce_everyone_gets_the_sum() {
        for n in [1usize, 3, 6, 8] {
            let report = run_default(n, move |p| {
                let mine = 1u64 << p.world_rank();
                p.allreduce(WORLD, &mine, |a, b| a | b)
            });
            assert!(report.all_ok(), "n={n}");
            let expected = (1u64 << n) - 1;
            for o in &report.outcomes {
                assert_eq!(o.as_ok(), Some(&expected));
            }
        }
    }

    #[test]
    fn reduce_with_dead_contributor_errors_at_root() {
        let plan = faultsim::FaultPlan::none()
            .kill_at(3, faultsim::HookKind::BeforeCollective, 1);
        let report = run(
            6,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                let mine = 1i64;
                match p.reduce(WORLD, 0, &mine, |a, b| a + b) {
                    Ok(v) => Ok(v),
                    Err(Error::RankFailStop { .. }) => Ok(Some(-1)),
                    Err(e) => Err(e),
                }
            },
        );
        assert!(!report.hung);
        // The root must NOT report a silently-partial sum: it either
        // errored (-1 marker) or... erroring is the only correct outcome
        // because rank 3's contribution is unrecoverable.
        assert_eq!(report.outcomes[0].as_ok(), Some(&Some(-1)), "root must observe the failure");
    }

    #[test]
    fn allreduce_after_validate_excludes_failed() {
        let plan = faultsim::FaultPlan::none().kill_at(2, faultsim::HookKind::Tick, 1);
        let report = run(
            5,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                if p.world_rank() == 2 {
                    let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                    let _ = p.wait(req)?;
                    return Ok(0);
                }
                while p.comm_validate_rank(WORLD, 2)?.state == crate::rank::RankState::Ok {
                    std::thread::yield_now();
                }
                p.comm_validate_all(WORLD)?;
                p.allreduce(WORLD, &1u64, |a, b| a + b)
            },
        );
        assert!(!report.hung);
        for r in [0usize, 1, 3, 4] {
            assert_eq!(report.outcomes[r].as_ok(), Some(&4), "rank {r}: survivors' sum");
        }
    }
}
