//! Binomial-tree broadcast.

use bytes::Bytes;

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::error::{Error, Result};
use crate::process::Process;
use crate::rank::CommRank;

use super::{binomial_children, binomial_parent, CollCtx, OP_BCAST};

impl Process {
    /// `MPI_Bcast`: the root's value is delivered to every active
    /// participant. The root passes `Some(value)`, everyone else
    /// `None`; all callers receive the broadcast value on success.
    ///
    /// Return codes are deliberately *not* consistent under failure: a
    /// rank that has already forwarded to its children may return
    /// success while descendants of a failed rank return
    /// `RankFailStop` (see §II of the paper).
    pub fn bcast<T: Datatype>(
        &mut self,
        comm: Comm,
        root: CommRank,
        value: Option<&T>,
    ) -> Result<T> {
        self.bcast_from(comm, (OP_BCAST, "bcast"), root, Ok(value.map(Datatype::to_bytes)))
    }

    /// Broadcast `root`'s bytes in a new instance of `op` and decode
    /// them: `bcast` itself, and the second phase of `allreduce` /
    /// `allgather`, where `first` is what the first phase left at this
    /// rank.
    ///
    /// Composition invariant: the instance is entered **even when the
    /// first phase failed** — otherwise ranks whose first phase errored
    /// would fall one instance behind ranks whose first phase
    /// succeeded, and every later collective on the communicator would
    /// cross-match tags (a permanent, unrecoverable
    /// desynchronization). A rank entering only to abandon poisons its
    /// broadcast children first, as on any other error.
    pub(crate) fn bcast_from<T: Datatype>(
        &mut self,
        comm: Comm,
        op: (u8, &'static str),
        root: CommRank,
        first: Result<Option<Bytes>>,
    ) -> Result<T> {
        let (value, first) = match first {
            Ok(value) => (value, None),
            Err(e) if e.is_terminal() => return Err(e),
            Err(e) => (None, Some(e)),
        };
        // Our children wait on us.
        self.collective(comm, op, Some(root), first, children, |p, cctx| {
            let data = match binomial_parent(cctx.tree_pos(), cctx.size()) {
                None => value.ok_or(Error::InvalidState("bcast root must supply a value"))?,
                Some((parent, _)) => p.coll_recv(cctx, cctx.at_tree_pos(parent))?,
            };
            // A dead child is recorded but the remaining subtrees
            // still get the data.
            p.coll_each(children(cctx), |p, child| p.coll_send(cctx, child, data.clone()))?;
            T::from_bytes(&data)
        })
    }
}

/// This rank's children in the binomial tree rooted at `cctx.vroot`, as
/// active indices in send order.
fn children(cctx: &CollCtx) -> Vec<usize> {
    let below = binomial_children(cctx.tree_pos(), cctx.size());
    below.into_iter().map(|child| cctx.at_tree_pos(child)).collect()
}

#[cfg(test)]
mod tests {
    use crate::comm::WORLD;
    use crate::error::{Error, ErrorHandler};
    use crate::process::Src;
    use crate::universe::{run, run_default, UniverseConfig};
    use std::time::Duration;

    #[test]
    fn bcast_delivers_to_everyone() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let report = run_default(n, move |p| {
                let v = if p.world_rank() == 0 { Some(12345i64) } else { None };
                p.bcast(WORLD, 0, v.as_ref())
            });
            assert!(report.all_ok(), "n={n}");
            for o in &report.outcomes {
                assert_eq!(o.as_ok(), Some(&12345));
            }
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let report = run_default(6, |p| {
            let v = if p.world_rank() == 4 { Some(vec![1u32, 2, 3]) } else { None };
            p.bcast(WORLD, 4, v.as_ref())
        });
        assert!(report.all_ok());
        for o in &report.outcomes {
            assert_eq!(o.as_ok(), Some(&vec![1u32, 2, 3]));
        }
    }

    #[test]
    fn bcast_with_dead_rank_errors_not_hangs() {
        let plan = faultsim::FaultPlan::none()
            .kill_at(1, faultsim::HookKind::BeforeCollective, 1);
        let report = run(
            8,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                let v = if p.world_rank() == 0 { Some(7i32) } else { None };
                match p.bcast(WORLD, 0, v.as_ref()) {
                    Ok(x) => Ok(Some(x)),
                    Err(Error::RankFailStop { .. }) => Ok(None),
                    Err(e) => Err(e),
                }
            },
        );
        assert!(!report.hung);
        assert!(report.outcomes[1].is_failed());
        // Anyone who got a value got the right one.
        for (r, v) in report.ok_values() {
            if let Some(x) = v {
                assert_eq!(*x, 7, "rank {r} got corrupted data");
            }
        }
    }

    #[test]
    fn bcast_to_dead_root_errors() {
        let plan = faultsim::FaultPlan::none().kill_at(2, faultsim::HookKind::Tick, 1);
        let report = run(
            3,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                if p.world_rank() == 2 {
                    let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                    let _ = p.wait(req)?;
                    return Ok(());
                }
                while p.comm_validate_rank(WORLD, 2)?.state == crate::rank::RankState::Ok {
                    std::thread::yield_now();
                }
                match p.bcast::<i32>(WORLD, 2, None) {
                    Err(Error::RankFailStop { .. }) => Ok(()),
                    other => panic!("expected error bcasting from dead root, got {other:?}"),
                }
            },
        );
        assert!(!report.hung);
        assert!(report.outcomes[0].is_ok());
        assert!(report.outcomes[1].is_ok());
    }

    #[test]
    fn bcast_skips_validated_ranks() {
        let plan = faultsim::FaultPlan::none().kill_at(0, faultsim::HookKind::Tick, 1);
        let report = run(
            5,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                if p.world_rank() == 0 {
                    let req = p.irecv(WORLD, Src::Rank(1), 9)?;
                    let _ = p.wait(req)?;
                    return Ok(0);
                }
                while p.comm_validate_rank(WORLD, 0)?.state == crate::rank::RankState::Ok {
                    std::thread::yield_now();
                }
                p.comm_validate_all(WORLD)?;
                let v = if p.world_rank() == 1 { Some(99i32) } else { None };
                p.bcast(WORLD, 1, v.as_ref())
            },
        );
        assert!(!report.hung);
        for r in 1..5 {
            assert_eq!(report.outcomes[r].as_ok(), Some(&99), "rank {r}");
        }
    }
}
