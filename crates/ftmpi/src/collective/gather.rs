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
