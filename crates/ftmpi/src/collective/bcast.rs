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
