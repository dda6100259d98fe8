//! Termination detection (paper §III-C / Figs. 11 and 13).
//!
//! "In a fault tolerant ring program once a process finishes
//! propagating the last iteration of the ring, it must still stick
//! around to make sure that the ring finishes by resending the buffer
//! as necessary."
//!
//! That rule is [`Ctx::stick_around`]: wait on one request while
//! watching the right neighbour. The protocols differ only in which
//! request they wait on and in what its completion means:
//!
//! * **Root broadcast** (Fig. 11): the root, after its final closure,
//!   sends `T_D` to every alive rank (send failures ignored); each
//!   non-root sticks around for `T_D` from the root; a failed root
//!   aborts the job ("root failure is not supported").
//! * **Validate-all** (Fig. 13): every rank sticks around for an
//!   `icomm_validate_all`; the consensus both detects global
//!   termination and collectively recognizes every failure. "Validate
//!   should not fail, but if it does repost."
//! * **Double barrier** (the design §III-C describes and rejects):
//!   every rank sticks around for `ibarrier` rounds until two
//!   consecutive rounds are clean.
//! * **Count only**: no protocol; each rank leaves after its own count.

use ftmpi::{Completion, Error, RankState, Request, Result, Src};

use crate::msg::T_D;
use crate::recv::Watched;
use crate::ring::{Ctx, TerminationMode};

impl Ctx<'_> {
    /// Run the configured termination protocol.
    pub(crate) fn run_termination(&mut self) -> Result<()> {
        match self.cfg.termination {
            TerminationMode::CountOnly => Ok(()),
            TerminationMode::RootBroadcast => self.term_root_broadcast(),
            TerminationMode::ValidateAll => self.term_validate_all(),
            TerminationMode::DoubleBarrier => self.term_double_barrier(),
        }
    }

    /// Wait for `req` while watching the right neighbour, and hand back
    /// what `req` completed with. The outer error is the watch's own
    /// (this rank died, the job aborted, the walk right found nobody).
    fn stick_around(&mut self, req: Request) -> Result<Result<Completion>> {
        loop {
            match self.watch(req, None)? {
                Watched::Resent => {}
                // Late ring token: drop (everything this rank owed the
                // ring has been forwarded).
                Watched::Token(c) => {
                    self.p.recycle_payload(c.data);
                    self.stats.duplicates_dropped += 1;
                }
                Watched::Done(_, result) => return Ok(result),
            }
        }
    }

    /// Fig. 11.
    fn term_root_broadcast(&mut self) -> Result<()> {
        if self.is_root {
            // Lines 2–5: send T_D to every alive rank, ignoring
            // failures.
            let size = self.p.comm_size(self.comm)?;
            for r in (0..size).filter(|&r| r != self.me) {
                if self.p.comm_validate_rank(self.comm, r)?.state == RankState::Ok {
                    match self.p.send(self.comm, r, T_D, &()) {
                        Ok(()) => {}
                        Err(e) if e.is_terminal() => return Err(e),
                        Err(_) => {} // "Ignore fail."
                    }
                }
            }
            return Ok(());
        }
        // Non-root: wait for T_D while watching the right neighbour.
        let term = self.p.irecv(self.comm, Src::Rank(self.root), T_D)?;
        match self.stick_around(term)? {
            Ok(c) if !c.status.is_proc_null() => {
                self.p.recycle_payload(c.data);
                Ok(())
            }
            // Lines 22–24: "Root failed, Abort."
            Ok(_) | Err(Error::RankFailStop { .. }) => Err(self.p.abort(self.comm, -1)),
            Err(e) => Err(e),
        }
    }

    /// Fig. 13.
    fn term_validate_all(&mut self) -> Result<()> {
        loop {
            let vreq = self.p.icomm_validate_all(self.comm)?;
            match self.stick_around(vreq)? {
                Ok(c) => {
                    self.stats.validate_failed = Some(c.validate_count());
                    return Ok(());
                }
                Err(e) if e.is_terminal() => return Err(e),
                // Lines 16–19: "Validate should not fail, but if it
                // does repost."
                Err(_) => {}
            }
        }
    }

    /// §III-C's rejected alternative: repeated `ibarrier` rounds, each
    /// watched with the right-neighbour detector; two consecutive
    /// clean rounds terminate. Cost: ≥ 2 full barrier rounds (each an
    /// all-arrive rendezvous) versus one broadcast (Fig. 11) or one
    /// consensus (Fig. 13) — the "considerable cost" the paper cites.
    /// Complexity note: this is only *correct* because our runtime's
    /// barrier rounds produce uniform outcomes (see `ftmpi`'s `nbc`
    /// module); with real MPI's inconsistent barrier return codes the
    /// retry loop needs return-code combination analysis, the paper's
    /// complexity complaint.
    fn term_double_barrier(&mut self) -> Result<()> {
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            if rounds > 64 {
                return Err(Error::InvalidState("double-barrier termination diverged"));
            }
            let first = self.watched_barrier()?;
            let second = self.watched_barrier()?;
            if first && second {
                return Ok(());
            }
        }
    }

    /// One ibarrier round with the detector watch; returns whether the
    /// round was clean (uniform across ranks).
    fn watched_barrier(&mut self) -> Result<bool> {
        let breq = self.p.ibarrier(self.comm)?;
        match self.stick_around(breq)? {
            Ok(_) => Ok(true),
            Err(Error::RankFailStop { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }
}
