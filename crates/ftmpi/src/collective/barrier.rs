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
