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
