//! Inclusive prefix scan (linear chain).

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::error::Result;
use crate::process::Process;

use super::{CollCtx, OP_SCAN};

impl Process {
    /// `MPI_Scan`: inclusive prefix combination over active-rank order.
    /// The participant at active index `i` receives
    /// `op(v_0, op(v_1, … v_i))`.
    ///
    /// Linear chain: receive the prefix from the previous active rank,
    /// fold in our value, forward downstream. A failure upstream
    /// poisons the rest of the chain.
    pub fn scan<T: Datatype>(
        &mut self,
        comm: Comm,
        value: &T,
        op: impl Fn(T, T) -> T,
    ) -> Result<T> {
        // The next rank in the chain is the only one waiting on us.
        let next = |cctx: &CollCtx| (cctx.vrank + 1 < cctx.size()).then_some(cctx.vrank + 1);
        let owes = |cctx: &CollCtx| Vec::from_iter(next(cctx));
        self.collective(comm, (OP_SCAN, "scan"), None, None, owes, |p, cctx| {
            let mine = T::from_bytes(&value.to_bytes())?;
            let acc = match cctx.vrank.checked_sub(1) {
                None => mine,
                Some(prev) => op(T::from_bytes(&p.coll_recv(cctx, prev)?)?, mine),
            };
            if let Some(next) = next(cctx) {
                p.coll_send(cctx, next, acc.to_bytes())?;
            }
            Ok(acc)
        })
    }
}
