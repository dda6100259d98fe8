//! `FT_Send_right` (paper Fig. 5).
//!
//! "The application attempts to send the buffer to `P_R`. If this
//! fails then it chooses the next alive rank that is to the right of
//! `P_R` and attempts to resend the message. It continues this until
//! either the function successfully sends the message, or finds itself
//! alone in the communicator and calls `MPI_Abort`."

use ftmpi::{CommRank, Error, Result};

use crate::msg::{RingMsg, T_N, T_R};
use crate::neighbors::to_right_of;
use crate::ring::{Ctx, DedupStrategy};

impl Ctx<'_> {
    /// Send `msg` to the current right neighbour, walking right past
    /// failures. Remembers the message for later resends (Fig. 9) and
    /// keeps the failure-detector receive pointed at the (possibly
    /// new) right neighbour.
    pub(crate) fn ft_send_right(&mut self, msg: RingMsg, resend: bool) -> Result<()> {
        let tag = if resend && self.cfg.dedup == DedupStrategy::SeparateTag { T_R } else { T_N };
        loop {
            match self.p.send(self.comm, self.right, tag, &msg) {
                Ok(()) => {
                    if let Some(replaced) = self.last_sent.replace(msg) {
                        self.spare_pad = replaced.pad;
                    }
                    if resend {
                        self.stats.resends += 1;
                    }
                    return Ok(());
                }
                Err(e) if e.is_terminal() => return Err(e),
                Err(Error::RankFailStop { .. }) => {
                    self.advance_right()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Move the right neighbour past a failure and re-aim the failure
    /// detector.
    pub(crate) fn advance_right(&mut self) -> Result<()> {
        let walked = to_right_of(self.p, self.comm, self.right);
        self.right = self.or_abort_alone(walked)?;
        self.stats.right_switches += 1;
        self.repoint_detector()?;
        // §III-D: if the rank we just walked past was the root,
        // re-elect (possibly becoming root ourselves).
        self.check_root_change()
    }

    /// A neighbour walk that came back to this rank found it alone in
    /// the communicator: abort the job, per the paper (Fig. 4 / Fig. 5).
    pub(crate) fn or_abort_alone(&mut self, walked: Result<CommRank>) -> Result<CommRank> {
        match walked {
            Err(Error::InvalidState(_)) => Err(self.p.abort(self.comm, -1)),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::msg::{RingMsg, T_N};
    use crate::ring::{Ctx, RingConfig};
    use dst::{await_death, idle, refereed, seeded};
    use faultsim::{FaultPlan, HookKind};
    use ftmpi::{Error, ErrorHandler, Process, RankOutcome, Src, WORLD};

    #[test]
    fn send_right_reaches_immediate_neighbor() {
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 0 {
                let mut ctx = Ctx::new(p, WORLD, RingConfig::paper(1))?;
                ctx.ft_send_right(RingMsg::originate(0, 0, 0), false)?;
                Ok(0)
            } else if p.world_rank() == 1 {
                let (m, st) = p.recv::<RingMsg>(WORLD, Src::Rank(0), T_N)?;
                assert_eq!(st.source, Some(0));
                Ok(m.value as usize)
            } else {
                Ok(9)
            }
        };
        refereed(3, FaultPlan::none(), body, |at, report| {
            assert_eq!(report.outcomes[1].as_ok(), Some(&1), "{at}");
        });
    }

    #[test]
    fn send_right_skips_a_dead_neighbor() {
        // Rank 1 dies before rank 0 sends; the send must land at 2.
        let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            match p.world_rank() {
                0 => {
                    await_death(p, 1)?;
                    let mut ctx = Ctx::new(p, WORLD, RingConfig::paper(1))?;
                    // Neighbour scan already skips rank 1 at ctx
                    // creation; force the Fig. 5 resend path by
                    // aiming at the dead rank explicitly.
                    ctx.right = 1;
                    ctx.ft_send_right(RingMsg::originate(7, 0, 0), false)?;
                    assert_eq!(ctx.right, 2, "send walked past the failure");
                    assert_eq!(ctx.stats.right_switches, 1);
                    Ok(0)
                }
                1 => idle(p),
                _ => {
                    let (m, _) = p.recv::<RingMsg>(WORLD, Src::Rank(0), T_N)?;
                    Ok(m.marker as usize)
                }
            }
        };
        seeded(3, plan, body, |at, report| {
            assert_eq!(report.outcomes[2].as_ok(), Some(&7), "{at}");
        });
    }

    #[test]
    fn alone_sender_aborts_per_fig5() {
        let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                return idle(p);
            }
            await_death(p, 1)?;
            let mut ctx = Ctx::new(p, WORLD, RingConfig::paper(1))?;
            ctx.right = 1;
            let err = ctx.ft_send_right(RingMsg::originate(0, 0, 0), false).unwrap_err();
            assert!(matches!(err, Error::Aborted { code: -1 }));
            Err::<(), _>(err)
        };
        seeded(2, plan, body, |at, report| {
            assert!(matches!(report.outcomes[0], RankOutcome::Aborted { code: -1 }), "{at}");
        });
    }
}
