//! Linear gather and scatter.
//!
//! Leaf participants of a linear algorithm only *send* (eager, never
//! blocks), so the root is the only rank that waits in `gather` — on
//! leaves the failure detector or their own poison answers for — and
//! the only rank waited on in `scatter`.

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::error::{Error, Result};
use crate::process::Process;
use crate::rank::CommRank;

use super::{CollCtx, OP_GATHER, OP_SCATTER};

impl Process {
    /// `MPI_Gather`: every active participant contributes `value`; the
    /// root receives `(comm_rank, value)` pairs in active-rank order.
    /// Returns `Some(pairs)` at the root, `None` elsewhere.
    pub fn gather<T: Datatype>(
        &mut self,
        comm: Comm,
        root: CommRank,
        value: &T,
    ) -> Result<Option<Vec<(CommRank, T)>>> {
        // The root waits on every leaf in turn; a leaf that leaves
        // without sending must poison it, or the root would block
        // forever on an alive rank that will never send (the dead rank
        // behind the leaf's entry error may be *behind* the leaf in the
        // root's receive order).
        let owes = |cctx: &CollCtx| {
            if cctx.vrank == cctx.vroot { Vec::new() } else { vec![cctx.vroot] }
        };
        self.collective(comm, (OP_GATHER, "gather"), Some(root), None, owes, |p, cctx| {
            if cctx.vrank != cctx.vroot {
                return p.coll_send(cctx, cctx.vroot, value.to_bytes()).map(|()| None);
            }
            let mut out = Vec::with_capacity(cctx.size());
            for v in 0..cctx.size() {
                let bytes = if v == cctx.vroot { value.to_bytes() } else { p.coll_recv(cctx, v)? };
                out.push((cctx.rank_at(v), T::from_bytes(&bytes)?));
            }
            Ok(Some(out))
        })
    }

    /// `MPI_Scatter`: the root supplies one value per active
    /// participant (in active-rank order); each participant receives
    /// its element.
    pub fn scatter<T: Datatype>(
        &mut self,
        comm: Comm,
        root: CommRank,
        values: Option<&[T]>,
    ) -> Result<T> {
        // Non-roots wait only on the root; the root owes everyone who
        // waits for a share.
        let owes = |cctx: &CollCtx| {
            if cctx.vrank == cctx.vroot { cctx.others() } else { Vec::new() }
        };
        self.collective(comm, (OP_SCATTER, "scatter"), Some(root), None, owes, |p, cctx| {
            if cctx.vrank != cctx.vroot {
                return T::from_bytes(&p.coll_recv(cctx, cctx.vroot)?);
            }
            let values = match values {
                Some(v) if v.len() == cctx.size() => v,
                Some(_) => {
                    let what = "scatter root must supply one value per active rank";
                    return Err(Error::InvalidState(what));
                }
                None => return Err(Error::InvalidState("scatter root must supply values")),
            };
            // A dead child: keep serving the others.
            p.coll_each(cctx.others(), |p, v| p.coll_send(cctx, v, values[v].to_bytes()))?;
            T::from_bytes(&values[cctx.vroot].to_bytes())
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
    fn gather_collects_in_rank_order() {
        let report = run_default(5, |p| {
            let mine = (p.world_rank() * 10) as u32;
            p.gather(WORLD, 2, &mine)
        });
        assert!(report.all_ok());
        let at_root = report.outcomes[2].as_ok().unwrap().as_ref().unwrap();
        assert_eq!(
            at_root,
            &vec![(0usize, 0u32), (1, 10), (2, 20), (3, 30), (4, 40)]
        );
        for r in [0usize, 1, 3, 4] {
            assert_eq!(report.outcomes[r].as_ok(), Some(&None));
        }
    }

    #[test]
    fn scatter_distributes_in_rank_order() {
        let report = run_default(4, |p| {
            let values: Option<Vec<i64>> =
                (p.world_rank() == 0).then(|| vec![100, 101, 102, 103]);
            p.scatter(WORLD, 0, values.as_deref())
        });
        assert!(report.all_ok());
        for (r, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.as_ok(), Some(&(100 + r as i64)));
        }
    }

    #[test]
    fn scatter_wrong_count_is_invalid_state() {
        let report = run_default(1, |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            match p.scatter::<i64>(WORLD, 0, Some(&[1, 2])) {
                Err(Error::InvalidState(_)) => Ok(()),
                other => panic!("expected InvalidState, got {other:?}"),
            }
        });
        assert!(report.all_ok());
    }

    #[test]
    fn gather_with_dead_leaf_errors_at_root_not_hangs() {
        let plan = faultsim::FaultPlan::none()
            .kill_at(1, faultsim::HookKind::BeforeCollective, 1);
        let report = run(
            4,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                match p.gather(WORLD, 0, &1u8) {
                    Ok(_) => Ok(true),
                    Err(Error::RankFailStop { .. }) => Ok(false),
                    Err(e) => Err(e),
                }
            },
        );
        assert!(!report.hung);
        assert_eq!(report.outcomes[0].as_ok(), Some(&false), "root must observe the failure");
    }

    #[test]
    fn scatter_from_dead_root_errors_not_hangs() {
        let plan = faultsim::FaultPlan::none()
            .kill_at(0, faultsim::HookKind::BeforeCollective, 1);
        let report = run(
            3,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                let values: Option<Vec<i64>> = (p.world_rank() == 0).then(|| vec![1, 2, 3]);
                match p.scatter(WORLD, 0, values.as_deref()) {
                    Ok(_) => Ok(true),
                    Err(Error::RankFailStop { .. }) => Ok(false),
                    Err(e) => Err(e),
                }
            },
        );
        assert!(!report.hung);
        assert!(report.outcomes[0].is_failed());
        for r in 1..3 {
            assert_eq!(report.outcomes[r].as_ok(), Some(&false), "rank {r}");
        }
    }
}
