//! Root failover (paper §III-D, "What if the root fails?").
//!
//! "First a new `P_Root` must be chosen by all alive processes"
//! (Fig. 12 leader election, [`crate::neighbors::get_current_root`]).
//! "Once a rank
//! determines that it has become the root it must regain control over
//! the loop iteration based upon its current knowledge of the ring
//! state."
//!
//! ### Takeover analysis
//!
//! The new root is always the lowest alive rank, which is also the
//! first alive rank to the right of the old root — so the resend
//! machinery naturally redirects any in-flight or lost token straight
//! to it. At takeover with local forward-count `cur`:
//!
//! * tokens with marker `cur` were originated by the dead root and are
//!   forwarded like a participant (they come home later as closures);
//! * a token with marker `cur - 1` is the closure of the last lap —
//!   the new root resumes origination at `cur`;
//! * older markers are stale resends and are dropped;
//! * if `cur == 0`, nothing was ever in flight toward us (the old root
//!   may have died before originating anything, in which case *no
//!   peer has anything to resend*), so the new root must originate
//!   iteration 0 itself; a possible duplicate token — if the old root
//!   did originate before dying — is absorbed by marker dedup.
//!
//! All of this is implemented by the root branch of the token machine
//! in [`crate::ring`]; this module contributes the *detection* step.

use ftmpi::{RankState, Result};

use crate::neighbors::get_current_root;
use crate::ring::Ctx;

impl Ctx<'_> {
    /// Called whenever a neighbour failure is observed: if the current
    /// root belief points at a failed rank, re-elect, and if this rank
    /// won, take over origination.
    pub(crate) fn check_root_change(&mut self) -> Result<()> {
        if !self.cfg.allow_root_failure || self.is_root {
            return Ok(());
        }
        if self.p.comm_validate_rank(self.comm, self.root)?.state == RankState::Ok {
            return Ok(());
        }
        self.root = get_current_root(self.p, self.comm)?;
        if self.root == self.me {
            self.is_root = true;
            self.stats.became_root = true;
            if self.cur == 0 && self.cur < self.cfg.max_iter {
                self.originate_next()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::ring::{Ctx, RingConfig};
    use dst::{await_death, idle, refereed, seeded};
    use faultsim::{FaultPlan, HookKind};
    use ftmpi::{ErrorHandler, Process, WORLD};

    #[test]
    fn lowest_survivor_takes_over() {
        let plan = FaultPlan::none().kill_at(0, HookKind::Tick, 1);
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 0 {
                return idle(p);
            }
            await_death(p, 0)?;
            // max_iter > 0 so the cur==0 takeover originates; use a
            // 2-iteration config but don't run the loop here.
            let mut ctx = Ctx::new(p, WORLD, RingConfig::with_root_failover(2))?;
            // Ctx::new already elected rank 1 as root; emulate the
            // mid-run discovery instead.
            ctx.root = 0;
            ctx.is_root = false;
            ctx.check_root_change()?;
            Ok((ctx.is_root, ctx.stats.became_root))
        };
        seeded(3, plan, body, |at, report| {
            assert_eq!(report.outcomes[1].as_ok(), Some(&(true, true)), "{at}");
            assert_eq!(report.outcomes[2].as_ok(), Some(&(false, false)), "{at}");
        });
    }

    #[test]
    fn no_change_while_root_is_alive() {
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                let mut ctx = Ctx::new(p, WORLD, RingConfig::with_root_failover(2))?;
                ctx.check_root_change()?;
                assert!(!ctx.is_root);
                assert_eq!(ctx.root, 0);
            }
            Ok(())
        };
        refereed(2, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
    }
}
