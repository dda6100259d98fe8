//! `FT_Recv_left` (paper §III-A, Figs. 6 and 9).
//!
//! Two strategies:
//!
//! * **Naive** — mirror `FT_Send_right`: receive from `P_L`; on
//!   failure, re-post to the next left neighbour. Looks correct but
//!   deadlocks when a rank dies *holding* the token (Fig. 6): the
//!   resender never learns it must resend.
//! * **Detector** — additionally keep an `MPI_Irecv` posted to `P_R`.
//!   "Since `P_R` will never send a message backwards in the ring, the
//!   only time this request will complete is if `P_R` fails" (§III-A).
//!   When it fires, walk right and resend the last buffer (Fig. 7).
//!
//! Receive bookkeeping: posted receives are tied to a specific peer;
//! when a neighbour changes, a receive that already completed with
//! data is salvaged into `pending` instead of being cancelled, so no
//! token is ever dropped by slot recycling.

use ftmpi::{CommRank, Completion, Error, Request, Result, Src, Tag};

use crate::msg::{RingMsg, T_N, T_R};
use crate::neighbors::to_left_of;
use crate::ring::{Ctx, DedupStrategy, RecvStrategy, Slot};

/// What one pass of [`Ctx::watch`] woke up for.
pub(crate) enum Watched {
    /// The right neighbour failed; the walk right and the resend of the
    /// last buffer are done. Wait again.
    Resent,
    /// The detector receive completed with real data: only possible in
    /// a two-rank ring, where right == left.
    Token(Completion),
    /// One of the caller's requests completed, with this.
    Done(Request, Result<Completion>),
}

impl Ctx<'_> {
    /// The one re-aim rule for a posted receive `slot`: keep it if it
    /// already targets `peer`; otherwise salvage it and post anew.
    fn aim(&mut self, slot: Slot, peer: CommRank, tag: Tag) -> Result<Slot> {
        if let Some((req, at)) = slot {
            if at == peer {
                return Ok(slot);
            }
            self.salvage(req)?;
        }
        let req = self.p.irecv(self.comm, Src::Rank(peer), tag)?;
        Ok(Some((req, peer)))
    }

    /// Decode a completed receive's token into the spare pad and hand
    /// its buffer back to the payload pool; the token comes with the
    /// rank that sent it.
    fn decode(&mut self, c: Completion) -> Result<(RingMsg, Option<CommRank>)> {
        let tok = RingMsg::from_bytes_in(&c.data, std::mem::take(&mut self.spare_pad))?;
        self.p.recycle_payload(c.data);
        Ok((tok, c.status.source))
    }

    /// Give up a posted receive without losing what it may hold: one
    /// that already completed with a token queues it in `pending`; one
    /// still in flight is cancelled.
    fn salvage(&mut self, req: Request) -> Result<()> {
        match self.p.test(req) {
            Ok(Some(c)) if !c.status.is_proc_null() && !c.data.is_empty() => {
                let salvaged = self.decode(c)?;
                self.pending.push_back(salvaged);
                Ok(())
            }
            Ok(Some(c)) => {
                self.p.recycle_payload(c.data);
                Ok(())
            }
            Ok(None) => self.p.cancel(req),
            Err(e) if e.is_terminal() => Err(e),
            Err(_) => Ok(()), // completed in error; nothing to salvage
        }
    }

    /// (Re-)post the failure-detector receive at the current right
    /// neighbour (Fig. 9 line 5). A completed-with-data detector (only
    /// possible in a two-rank ring, where right == left) is salvaged as
    /// a normal token.
    pub(crate) fn repoint_detector(&mut self) -> Result<()> {
        if self.cfg.recv == RecvStrategy::Detector {
            self.detector = self.aim(self.detector, self.right, T_N)?;
        }
        Ok(())
    }

    /// The right-neighbour watch (Fig. 9 lines 11–15, reused verbatim
    /// by Fig. 11 lines 17–21 and Fig. 13 lines 11–15): one `waitany`
    /// over the detector and the caller's requests. "Since `P_R` will
    /// never send a message backwards in the ring", the detector
    /// completing means `P_R` failed: walk right and resend the last
    /// buffer.
    pub(crate) fn watch(&mut self, req: Request, also: Option<Request>) -> Result<Watched> {
        self.repoint_detector()?;
        // Build the wait set with the detector FIRST: on the wall clock
        // `waitany` returns the lowest ready index, so when a failure
        // notification and a token are both ready the failure is handled
        // first and the resend happens before `last_sent` moves on — the
        // Fig. 8/10 resend on every run. Under the scheduler `waitany`
        // draws among the ready requests, as a real MPI_Waitany may: on
        // 5 of the 32 seeds of `dst::figures`' F8 row P1 takes the token
        // first, forwards it past the dead rank and resends nothing.
        let detector = self.detector.map(|(r, _)| r);
        let mut set = [req; 3];
        let mut len = 0;
        for r in detector.into_iter().chain([req]).chain(also) {
            set[len] = r;
            len += 1;
        }
        let out = self.p.waitany(&set[..len])?;
        let fired = set[out.index];
        if Some(fired) != detector {
            return Ok(Watched::Done(fired, out.result));
        }
        self.detector = None;
        match out.result {
            Ok(c) if !c.status.is_proc_null() => Ok(Watched::Token(c)),
            Ok(_) | Err(Error::RankFailStop { .. }) => {
                self.stats.detector_fires += 1;
                self.advance_right()?;
                if let Some(last) = self.last_sent.clone() {
                    self.ft_send_right(last, true)?;
                }
                Ok(Watched::Resent)
            }
            Err(e) => Err(e),
        }
    }

    /// Move the left neighbour past a failure (Fig. 9 lines 16–22) and
    /// check for a root change (§III-D).
    fn advance_left(&mut self) -> Result<()> {
        let walked = to_left_of(self.p, self.comm, self.left);
        self.left = self.or_abort_alone(walked)?;
        self.stats.left_switches += 1;
        self.check_root_change()
    }

    /// A token just arrived on the detector slot. If the normal slot
    /// has *also* completed with data, both tokens are from the same
    /// peer (detector data implies right == left), and per-link FIFO
    /// must extend to consumption: return the lower marker now and
    /// queue the other in `pending`.
    fn ordered_with_normal_slot(
        &mut self,
        tok: RingMsg,
        sender: Option<CommRank>,
    ) -> Result<RingMsg> {
        let Some((nreq, _)) = self.normal else { return Ok(tok) };
        match self.p.test(nreq) {
            Ok(Some(nc)) if !nc.status.is_proc_null() && !nc.data.is_empty() => {
                self.normal = None;
                let (ntok, nsender) = self.decode(nc)?;
                if ntok.marker <= tok.marker {
                    self.pending.push_back((tok, sender));
                    self.last_recv_from = nsender;
                    Ok(ntok)
                } else {
                    self.pending.push_back((ntok, nsender));
                    Ok(tok)
                }
            }
            // Still in flight: the posted request stays live.
            Ok(None) => Ok(tok),
            Err(e) if e.is_terminal() => Err(e),
            // Consumed with nothing to order: an empty/proc-null
            // completion, or completed in failure — the left neighbour
            // died. The test consumed the notification, so clear the
            // slot: the next `recv_token` pass re-posts toward the
            // (dead) left and the failure resurfaces through the
            // regular `advance_left` path.
            Ok(Some(_)) | Err(_) => {
                self.normal = None;
                Ok(tok)
            }
        }
    }

    /// Block until the next ring token arrives, transparently handling
    /// neighbour failures per the configured strategy.
    pub(crate) fn recv_token(&mut self) -> Result<RingMsg> {
        loop {
            if let Some((t, sender)) = self.pending.pop_front() {
                self.last_recv_from = sender;
                return Ok(t);
            }
            // Normal (and, in separate-tag mode, resent) tokens come
            // from the current left neighbour.
            self.normal = self.aim(self.normal, self.left, T_N)?;
            if self.cfg.dedup == DedupStrategy::SeparateTag {
                self.resend_rx = self.aim(self.resend_rx, self.left, T_R)?;
            }
            let (normal, _) = self.normal.expect("normal receive posted");
            let resend = self.resend_rx.map(|(r, _)| r);

            match self.watch(normal, resend)? {
                Watched::Resent => {}
                Watched::Token(c) => {
                    // Two-rank ring: the "detector" caught a real token
                    // (right == left there). The normal slot may
                    // simultaneously hold the *older* in-flight token
                    // from the same peer (e.g. a delayed forward
                    // overtaken by the next origination after a
                    // takeover); consuming the detector's catch first
                    // would reorder the link and trip the
                    // future-iteration guard downstream. Check the
                    // normal slot and hand tokens out in marker order
                    // (cascade seed 0xf5a).
                    let (tok, sender) = self.decode(c)?;
                    self.last_recv_from = sender;
                    return self.ordered_with_normal_slot(tok, sender);
                }
                Watched::Done(fired, result) => {
                    if Some(fired) == resend {
                        self.resend_rx = None;
                    } else {
                        self.normal = None;
                    }
                    match result {
                        Ok(c) if !c.status.is_proc_null() => {
                            let (tok, sender) = self.decode(c)?;
                            self.last_recv_from = sender;
                            return Ok(tok);
                        }
                        // Left neighbour failed: with the naive strategy
                        // just re-post further left (the Fig. 6
                        // behaviour — correct only if the token
                        // survived); the detector strategy does the
                        // same, and the peer watching the failed rank
                        // performs the resend.
                        Ok(_) | Err(Error::RankFailStop { .. }) => self.advance_left()?,
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::msg::{RingMsg, T_N};
    use crate::ring::{Ctx, RingConfig};
    use dst::{refereed, seeded};
    use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
    use ftmpi::{ErrorHandler, Process, RankOutcome, Src, WORLD};

    #[test]
    fn recv_token_gets_a_normal_token() {
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                let mut ctx = Ctx::new(p, WORLD, RingConfig::paper(1))?;
                let t = ctx.recv_token()?;
                Ok(t.value)
            } else if p.world_rank() == 0 {
                p.send(WORLD, 1, T_N, &RingMsg::originate(0, 0, 0))?;
                Ok(0)
            } else {
                Ok(0)
            }
        };
        refereed(3, FaultPlan::none(), body, |at, report| {
            assert_eq!(report.outcomes[1].as_ok(), Some(&1), "{at}");
        });
    }

    #[test]
    fn detector_fires_and_resends_when_right_dies() {
        // Ring of 4, focused on ranks 1 (sender under test) and 2
        // (failing right neighbour). Rank 1 has already "sent" a token
        // to 2; rank 2 dies; rank 1's detector must fire and the token
        // must be resent to rank 3 (Fig. 7).
        let plan = FaultPlan::none().with(FaultRule::kill(
            2,
            Trigger::on(HookKind::AfterRecvComplete).tag(T_N).nth(1),
        ));
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            match p.world_rank() {
                1 => {
                    let mut ctx = Ctx::new(p, WORLD, RingConfig::paper(8))?;
                    // Send the iteration-0 token to rank 2 (which
                    // dies on receipt, taking the token with it).
                    let token = RingMsg { value: 5, marker: 0, origin: 0, pad: vec![] };
                    ctx.ft_send_right(token, false)?;
                    // Now wait for the next token; instead the
                    // detector fires and we resend to rank 3.
                    match ctx.recv_token() {
                        // No token will ever arrive in this test.
                        Ok(_) => Ok((0, 0)),
                        Err(e) if e.is_terminal() => {
                            // Universe shut down by rank 3's probe
                            // completing the assertion first.
                            Ok((ctx.stats.detector_fires, ctx.stats.resends))
                        }
                        Err(e) => Err(e),
                    }
                }
                2 => {
                    let (_, _) = p.recv::<RingMsg>(WORLD, Src::Rank(1), T_N)?;
                    unreachable!("killed on receive completion");
                }
                3 => {
                    // The resent token must arrive from rank 1.
                    let (m, st) = p.recv::<RingMsg>(WORLD, Src::Rank(1), T_N)?;
                    assert_eq!(st.source, Some(1));
                    assert_eq!((m.value, m.marker), (5, 0));
                    // Success: end the run so rank 1 unblocks.
                    let _ = p.abort(WORLD, 42);
                    Ok((1, 1))
                }
                _ => {
                    // Rank 0 idles until the abort.
                    let req = p.irecv(WORLD, Src::Rank(3), 99)?;
                    match p.wait(req) {
                        Err(e) if e.is_terminal() => Ok((0, 0)),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        };
        seeded(4, plan, body, |at, report| {
            assert!(matches!(report.outcomes[3], RankOutcome::Ok((1, 1))), "{at}");
        });
    }

    #[test]
    fn two_rank_ring_detector_catches_real_tokens() {
        // With two ranks, right == left, so the detector receive can
        // legitimately complete with data; it must be treated as a
        // token, not a failure.
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 0 {
                p.send(WORLD, 1, T_N, &RingMsg::originate(3, 0, 0))?;
                Ok(0)
            } else {
                let mut ctx = Ctx::new(p, WORLD, RingConfig::paper(8))?;
                let t = ctx.recv_token()?;
                Ok(t.marker as i64)
            }
        };
        refereed(2, FaultPlan::none(), body, |at, report| {
            assert_eq!(report.outcomes[1].as_ok(), Some(&3), "{at}");
        });
    }
}
