//! Coordinator-based uniform agreement on the failed set.
//!
//! This is the message-passing protocol a real MPI library would run
//! inside `MPI_Comm_validate_all` (the `ftmpi` runtime uses a
//! shared-memory decision barrier instead; this implementation exists
//! as the faithful distributed counterpart and as a benchmark
//! ablation). All alive members of the communicator must call
//! [`agree_on_failed_set`] (it is collective); they all return the
//! same failed set — **uniform** agreement under fail-stop failures
//! with a perfect failure detector, including failures of the
//! coordinator at any point.
//!
//! ### Protocol
//!
//! Coordinator candidates are the comm ranks in ascending order; the
//! current *attempt* is the lowest rank not yet observed failed.
//!
//! * **REPORT(a, S)** — participant → rank `a`: "my failed-set view is
//!   S and I have not decided".
//! * **COMMIT(a, S)** — coordinator `a` → all alive: decision.
//!   Accepted only while the receiver's attempt is exactly `a` (a
//!   stale commit from a dead coordinator must not bypass the
//!   recovery path).
//! * **DECIDED(S)** — any process that has decided → all alive, sent
//!   *before* it returns. Accepted any time, and counts as the
//!   sender's report for every future coordinator.
//!
//! The coordinator commits the union of every collected set and its
//! own registry view. Uniformity argument: a process only returns
//! after broadcasting DECIDED to all alive ranks (delivery precedes
//! its own possible death, by fail-stop), so any later coordinator's
//! collection necessarily includes a DECIDED(S) from every earlier
//! decider that matters — and it adopts S rather than computing a new
//! set. The subtle case of a peer dying *just after* sending its
//! parting message is handled by draining: on observing a peer's
//! death, the event loop re-posts one receive at a time against that
//! peer to absorb messages that were delivered before the death.

use std::collections::{HashMap, HashSet};

use ftmpi::{Comm, Datatype, Process, RankState, Request, Result, Src, Tag};

const K_REPORT: u8 = 0;
const K_COMMIT: u8 = 1;
const K_DECIDED: u8 = 2;

/// Wire form: (kind, attempt, failed set as u64 comm ranks).
type Msg = (u8, u64, Vec<u64>);

/// Configuration for the agreement protocol.
#[derive(Debug, Clone, Copy)]
pub struct AgreementConfig {
    /// User tag carrying agreement traffic; must be reserved for it.
    pub tag: Tag,
}

impl Default for AgreementConfig {
    fn default() -> Self {
        AgreementConfig { tag: 0x00F7_0002 }
    }
}

struct Agreement<'a> {
    p: &'a mut Process,
    comm: Comm,
    tag: Tag,
    me: usize,
    size: usize,
    /// (peer, posted request); `None` once the peer is dead & drained.
    slots: Vec<(usize, Option<Request>)>,
    /// Latest failed-set report per peer (REPORT or DECIDED).
    reports: HashMap<usize, Vec<u64>>,
    /// Peers known to have decided, with their set.
    decided_peers: HashMap<usize, Vec<u64>>,
    /// My decision, once made.
    decision: Option<Vec<u64>>,
    /// My current coordinator candidate.
    attempt: usize,
    /// Attempts for which my REPORT has been sent.
    reported: HashSet<usize>,
}

impl<'a> Agreement<'a> {
    fn new(p: &'a mut Process, comm: Comm, cfg: AgreementConfig) -> Result<Self> {
        let me = p.comm_rank(comm)?;
        let size = p.comm_size(comm)?;
        let mut slots = Vec::with_capacity(size.saturating_sub(1));
        for peer in (0..size).filter(|&r| r != me) {
            let req = p.irecv(comm, Src::Rank(peer), cfg.tag)?;
            slots.push((peer, Some(req)));
        }
        Ok(Agreement {
            p,
            comm,
            tag: cfg.tag,
            me,
            size,
            slots,
            reports: HashMap::new(),
            decided_peers: HashMap::new(),
            decision: None,
            attempt: 0,
            reported: HashSet::new(),
        })
    }

    fn alive(&self, rank: usize) -> Result<bool> {
        Ok(self.p.comm_validate_rank(self.comm, rank)?.state == RankState::Ok)
    }

    fn my_view(&self) -> Result<Vec<u64>> {
        Ok(self
            .p
            .comm_validate(self.comm)?
            .into_iter()
            .map(|info| info.rank as u64)
            .collect())
    }

    fn send_to(&mut self, dst: usize, msg: &Msg) -> Result<()> {
        match self.p.send(self.comm, dst, self.tag, msg) {
            Ok(()) => Ok(()),
            Err(e) if e.is_terminal() => Err(e),
            Err(_) => Ok(()), // dead peer: irrelevant
        }
    }

    fn broadcast(&mut self, msg: &Msg) -> Result<()> {
        for dst in 0..self.size {
            if dst != self.me && self.alive(dst)? {
                self.send_to(dst, msg)?;
            }
        }
        Ok(())
    }

    fn handle(&mut self, from: usize, msg: Msg) {
        let (kind, att, set) = msg;
        match kind {
            K_REPORT => {
                debug_assert_eq!(att as usize, self.me, "reports are addressed by attempt");
                self.reports.insert(from, set);
            }
            // Stale commits (att != attempt) from a coordinator we
            // already saw die are ignored; recovery flows through
            // DECIDED messages.
            K_COMMIT if att as usize == self.attempt => {
                self.decision = Some(set);
            }
            K_COMMIT => {}
            K_DECIDED => {
                self.decided_peers.insert(from, set.clone());
                if self.decision.is_none() {
                    self.decision = Some(set);
                }
            }
            _ => {}
        }
    }

    /// Absorb any messages a now-dead peer delivered before dying.
    fn drain_parting(&mut self, peer: usize) -> Result<()> {
        loop {
            let req = self.p.irecv(self.comm, Src::Rank(peer), self.tag)?;
            match self.p.test(req) {
                Ok(Some(c)) if !c.status.is_proc_null() && !c.data.is_empty() => {
                    let msg = Msg::from_bytes(&c.data)?;
                    self.handle(peer, msg);
                }
                Ok(Some(_)) => return Ok(()), // proc-null completion
                Ok(None) => {
                    // Still pending: nothing queued (everything a dead
                    // peer sent was delivered before its death, and
                    // `test` ran a full progress pass). Cancel and stop.
                    self.p.cancel(req)?;
                    return Ok(());
                }
                Err(e) if e.is_terminal() => return Err(e),
                // RankFailStop completion: the queue from this peer is
                // exhausted.
                Err(_) => return Ok(()),
            }
        }
    }

    fn run(mut self) -> Result<Vec<usize>> {
        loop {
            // 1. Decided (by commit, decided-message, or own
            //    coordination): announce and return.
            if let Some(set) = self.decision.clone() {
                let msg: Msg = (K_DECIDED, self.attempt as u64, set.clone());
                self.broadcast(&msg)?;
                for (_, r) in self.slots.iter_mut() {
                    if let Some(req) = r.take() {
                        let _ = self.p.cancel(req);
                    }
                }
                return Ok(set.into_iter().map(|r| r as usize).collect());
            }

            // 2. Advance the attempt past dead coordinators.
            while self.attempt < self.me && !self.alive(self.attempt)? {
                self.attempt += 1;
            }

            if self.attempt == self.me {
                // 3. Coordinator role: wait for a report or decided
                //    marker from every alive peer.
                let mut complete = true;
                for peer in (0..self.size).filter(|&r| r != self.me) {
                    let covered = self.reports.contains_key(&peer)
                        || self.decided_peers.contains_key(&peer)
                        || !self.alive(peer)?;
                    if !covered {
                        complete = false;
                        break;
                    }
                }
                if complete {
                    // Adopt any existing decision; otherwise union.
                    let set: Vec<u64> = if let Some(s) = self.decided_peers.values().next() {
                        s.clone()
                    } else {
                        let mut union: HashSet<u64> = self.my_view()?.into_iter().collect();
                        for s in self.reports.values() {
                            union.extend(s.iter().copied());
                        }
                        let mut v: Vec<u64> = union.into_iter().collect();
                        v.sort_unstable();
                        v
                    };
                    let msg: Msg = (K_COMMIT, self.attempt as u64, set.clone());
                    self.broadcast(&msg)?;
                    self.decision = Some(set);
                    continue;
                }
            } else {
                // 4. Participant role: report once per attempt.
                if !self.reported.contains(&self.attempt) {
                    let view = self.my_view()?;
                    let msg: Msg = (K_REPORT, self.attempt as u64, view);
                    let dst = self.attempt;
                    self.send_to(dst, &msg)?;
                    self.reported.insert(self.attempt);
                }
            }

            // 5. Wait for the next event on any slot.
            let live: Vec<Request> = self.slots.iter().filter_map(|&(_, r)| r).collect();
            if live.is_empty() {
                // No alive peers: I am the only survivor; next loop
                // iteration makes me coordinator with a trivially
                // complete collection.
                if self.attempt == self.me {
                    continue;
                }
                // attempt will advance to me on the next pass
                continue;
            }
            let out = self.p.waitany(&live)?;
            let completed = live[out.index];
            let idx = self
                .slots
                .iter()
                .position(|&(_, r)| r == Some(completed))
                .expect("slot for completed request");
            let peer = self.slots[idx].0;
            match out.result {
                Err(e) if e.is_terminal() => return Err(e),
                Err(_) => {
                    self.slots[idx].1 = None;
                    self.drain_parting(peer)?;
                }
                Ok(c) if c.status.is_proc_null() => {
                    self.slots[idx].1 = None;
                }
                Ok(c) => {
                    self.slots[idx].1 =
                        Some(self.p.irecv(self.comm, Src::Rank(peer), self.tag)?);
                    let msg = Msg::from_bytes(&c.data)?;
                    self.handle(peer, msg);
                }
            }
        }
    }
}

/// Collectively agree on the set of failed comm ranks.
///
/// Every alive member of `comm` must call this; all callers that stay
/// alive return the same sorted failed set. Failures occurring during
/// the call (including coordinator failures) are tolerated; ranks
/// failing mid-protocol may or may not appear in the agreed set, but
/// the set is identical at every survivor.
pub fn agree_on_failed_set(
    p: &mut Process,
    comm: Comm,
    cfg: AgreementConfig,
) -> Result<Vec<usize>> {
    if p.comm_size(comm)? == 1 {
        return Ok(Vec::new());
    }
    Agreement::new(p, comm, cfg)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dst::{idle, refereed, seeded};
    use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
    use ftmpi::{ErrorHandler, WORLD};

    /// A rank's body: agree on the failed set, errors returned.
    fn agree(p: &mut Process) -> Result<Vec<usize>> {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        agree_on_failed_set(p, WORLD, AgreementConfig::default())
    }

    /// The agreement on `n` ranks, `victims` idling until their `Tick` kills end them: `check`
    /// sees each seed's per-rank sets, `None` for a rank that did not return.
    fn agree_test(
        n: usize,
        plan: FaultPlan,
        victims: &[usize],
        mut check: impl FnMut(&str, Vec<Option<Vec<usize>>>),
    ) {
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if victims.contains(&p.world_rank()) {
                return idle(p);
            }
            agree_on_failed_set(p, WORLD, AgreementConfig::default())
        };
        seeded(n, plan, body, |at, report| {
            check(at, report.outcomes.iter().map(|o| o.as_ok().cloned()).collect())
        });
    }

    #[test]
    fn no_failures_agrees_on_empty_set() {
        refereed(4, FaultPlan::none(), agree, |at, report| {
            assert!(report.all_ok(), "{at}");
            for o in &report.outcomes {
                assert_eq!(o.as_ok(), Some(&vec![]), "{at}");
            }
        });
    }

    #[test]
    fn singleton_trivially_agrees() {
        let body = |p: &mut Process| agree_on_failed_set(p, WORLD, AgreementConfig::default());
        refereed(1, FaultPlan::none(), body, |at, report| {
            assert_eq!(report.outcomes[0].as_ok(), Some(&vec![]), "{at}");
        });
    }

    #[test]
    fn survivors_agree_on_prior_failure() {
        let plan = FaultPlan::none().kill_at(2, HookKind::Tick, 1);
        agree_test(5, plan, &[2], |at, sets| {
            let expected = Some(vec![2usize]);
            for r in [0usize, 1, 3, 4] {
                assert_eq!(sets[r], expected, "{at}: rank {r}");
            }
        });
    }

    #[test]
    fn coordinator_death_mid_collection_recovers() {
        // Rank 0 (first coordinator) dies right after it consumes its
        // first REPORT; rank 1 must take over and everyone must agree.
        let plan = FaultPlan::none().with(FaultRule::kill(
            0,
            Trigger::on(HookKind::AfterRecvComplete).nth(1),
        ));
        // The referee holds rank 0 failed and nobody else.
        refereed(4, plan, agree, |at, report| {
            let sets: Vec<_> = (1..4).map(|r| report.outcomes[r].as_ok().unwrap()).collect();
            assert_eq!(sets[0], sets[1], "{at}");
            assert_eq!(sets[1], sets[2], "{at}");
            assert!(sets[0].contains(&0), "{at}: the dead coordinator must be in the agreed set");
        });
    }

    #[test]
    fn coordinator_death_after_partial_commit_stays_uniform() {
        // The coordinator dies after sending its first COMMIT: one
        // participant may decide from the commit; the rest must recover
        // the SAME set through the DECIDED flood.
        //
        // Tag-filtered trigger: the commit is the coordinator's second
        // batch of sends on the agreement tag (first batch = none: the
        // coordinator never reports). Kill after its 1st send.
        let tag = AgreementConfig::default().tag;
        let plan = FaultPlan::none().with(FaultRule::kill(
            0,
            Trigger::on(HookKind::AfterSend).tag(tag).nth(1),
        ));
        refereed(5, plan, agree, |at, report| {
            let sets: Vec<_> = (1..5).map(|r| report.outcomes[r].as_ok().unwrap()).collect();
            for w in sets.windows(2) {
                assert_eq!(w[0], w[1], "{at}: uniform agreement violated: {sets:?}");
            }
        });
        // Note: the agreed set may or may not contain rank 0 — it died
        // *during* the protocol, possibly after committing an
        // empty-set decision. Uniformity is the guarantee, membership
        // of concurrent failures is not.
    }

    #[test]
    fn cascading_coordinator_deaths_recover() {
        // Ranks 0 and 1 both die while coordinating (on their first
        // receive of agreement traffic); rank 2 must finish the job.
        let plan = FaultPlan::none()
            .with(FaultRule::kill(0, Trigger::on(HookKind::AfterRecvComplete).nth(1)))
            .with(FaultRule::kill(1, Trigger::on(HookKind::AfterRecvComplete).nth(2)));
        refereed(5, plan, agree, |at, report| {
            let survivors: Vec<_> = (0..5).filter(|&r| report.outcomes[r].is_ok()).collect();
            assert!(survivors.len() >= 3, "{at}: ranks 2..5 must survive");
            let first = report.outcomes[survivors[0]].as_ok().unwrap();
            for &r in &survivors {
                assert_eq!(report.outcomes[r].as_ok().unwrap(), first, "{at}: rank {r} disagrees");
            }
        });
    }
}
