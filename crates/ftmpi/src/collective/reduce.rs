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
