//! Nonblocking request handles and the per-process request table.

use bytes::Bytes;

use crate::error::{Error, Result};
use crate::matching::MatchSpec;
use crate::status::Status;

/// An opaque nonblocking-operation handle (`MPI_Request`).
///
/// Copyable; generation-checked so a stale handle of a freed slot is
/// detected instead of aliasing a new request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

/// Completion value of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Receive status (PROC_NULL for recognized-failed peers; a
    /// synthetic status for sends and validates).
    pub status: Status,
    /// Received payload (empty for sends).
    pub data: Bytes,
}

impl Completion {
    /// Completion of an eager send.
    pub(crate) fn send() -> Self {
        Completion { status: Status::new(0, 0, 0), data: Bytes::new() }
    }

    /// Completion of a `icomm_validate_all`: the failed-rank count is
    /// carried in `status.len`.
    pub(crate) fn validate(count: usize) -> Self {
        Completion { status: Status { source: None, tag: 0, len: count }, data: Bytes::new() }
    }

    /// For a completed `icomm_validate_all`: the agreed number of
    /// failed ranks in the communicator.
    pub fn validate_count(&self) -> usize {
        self.status.len
    }
}

/// What kind of operation a request represents.
#[derive(Debug)]
pub(crate) enum ReqBody {
    /// A posted receive with its match specification.
    Recv(MatchSpec),
    /// An eager send (always created complete).
    Send,
    /// An in-flight round of a collective on the rendezvous board.
    Collective {
        /// Which collective.
        kind: CollKind,
        /// Local communicator table index.
        comm_idx: usize,
        /// The round of `kind` on that communicator this request
        /// joined.
        round: u64,
    },
}

/// The collectives whose round is a request: `icomm_validate_all` and
/// `ibarrier`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CollKind {
    Validate,
    Barrier,
}

#[derive(Debug)]
pub(crate) enum ReqState {
    Pending,
    Done(Result<Completion>),
}

struct SlotData {
    gen: u32,
    body: ReqBody,
    state: ReqState,
}

impl SlotData {
    fn is_pending_collective(&self) -> bool {
        matches!((&self.body, &self.state), (ReqBody::Collective { .. }, ReqState::Pending))
    }
}

/// Per-process request table (slab with free list).
#[derive(Default)]
pub(crate) struct ReqTable {
    slots: Vec<Option<SlotData>>,
    free: Vec<u32>,
    gen: u32,
    /// Pending collective requests: while there are none, which is
    /// nearly always, `next_pending` has no slots to walk however many
    /// receives are posted.
    pending_collectives: usize,
}

impl ReqTable {
    /// Drop every slot while keeping the table's capacity — the reuse
    /// hook for pooled workers recycling one table across incarnations
    /// and runs. `gen` deliberately keeps counting: a `Request` handle
    /// leaked across a reset then names a generation no slot will ever
    /// carry again, so it errors instead of aliasing a new request.
    pub(crate) fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.pending_collectives = 0;
    }

    /// Number of live (pending or done-but-unconsumed) requests.
    pub(crate) fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    pub(crate) fn insert(&mut self, body: ReqBody, state: ReqState) -> Request {
        self.gen = self.gen.wrapping_add(1);
        let data = SlotData { gen: self.gen, body, state };
        self.pending_collectives += usize::from(data.is_pending_collective());
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(data);
            idx
        } else {
            self.slots.push(Some(data));
            (self.slots.len() - 1) as u32
        };
        Request { idx, gen: self.gen }
    }

    fn slot(&self, req: Request) -> Result<&SlotData> {
        self.slots
            .get(req.idx as usize)
            .and_then(|s| s.as_ref())
            .filter(|s| s.gen == req.gen)
            .ok_or(Error::InvalidRequest)
    }

    fn slot_mut(&mut self, req: Request) -> Result<&mut SlotData> {
        self.slots
            .get_mut(req.idx as usize)
            .and_then(|s| s.as_mut())
            .filter(|s| s.gen == req.gen)
            .ok_or(Error::InvalidRequest)
    }

    pub(crate) fn body(&self, req: Request) -> Result<&ReqBody> {
        Ok(&self.slot(req)?.body)
    }

    pub(crate) fn is_done(&self, req: Request) -> Result<bool> {
        Ok(matches!(self.slot(req)?.state, ReqState::Done(_)))
    }

    /// Complete `req` if it is still pending (the handle is
    /// generation-checked, so a stale one completes nothing); whether
    /// it did.
    pub(crate) fn complete_if_pending(&mut self, req: Request, result: Result<Completion>) -> bool {
        match self.slot_mut(req) {
            Ok(slot) if matches!(slot.state, ReqState::Pending) => {
                let collective = slot.is_pending_collective();
                slot.state = ReqState::Done(result);
                self.pending_collectives -= usize::from(collective);
                true
            }
            _ => false,
        }
    }

    /// Whether the request is still pending (valid and not done).
    pub(crate) fn is_pending(&self, req: Request) -> bool {
        matches!(self.slot(req).map(|s| &s.state), Ok(ReqState::Pending))
    }

    /// Consume a completed request, freeing its slot.
    ///
    /// Errors with `InvalidRequest` if the handle is stale; panics are
    /// never used for application-visible conditions.
    pub(crate) fn take(&mut self, req: Request) -> Result<Result<Completion>> {
        {
            let slot = self.slot(req)?;
            if matches!(slot.state, ReqState::Pending) {
                return Err(Error::InvalidState("request still pending"));
            }
        }
        let data = self.slots[req.idx as usize].take().expect("checked above");
        self.free.push(req.idx);
        match data.state {
            ReqState::Done(r) => Ok(r),
            ReqState::Pending => unreachable!(),
        }
    }

    /// The next pending request of `kind` in slot `*cursor` or later,
    /// as `(handle, comm_idx, round)`, leaving `*cursor` past it — the
    /// progress engine's scan. Completing a request moves no other, so
    /// a loop from cursor 0 visits what a snapshot taken before it
    /// would hold.
    pub(crate) fn next_pending(
        &self,
        kind: CollKind,
        cursor: &mut usize,
    ) -> Option<(Request, usize, u64)> {
        if self.pending_collectives == 0 {
            return None;
        }
        while let Some(slot) = self.slots.get(*cursor) {
            let idx = *cursor as u32;
            *cursor += 1;
            if let Some(SlotData { gen, body, state: ReqState::Pending }) = slot {
                match *body {
                    ReqBody::Collective { kind: k, comm_idx, round } if k == kind => {
                        return Some((Request { idx, gen: *gen }, comm_idx, round));
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Drop a request regardless of state (cancel).
    pub(crate) fn remove(&mut self, req: Request) -> Result<()> {
        let collective = self.slot(req)?.is_pending_collective();
        self.pending_collectives -= usize::from(collective);
        self.slots[req.idx as usize] = None;
        self.free.push(req.idx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::SrcSel;
    use crate::tag::TagSel;

    fn spec() -> MatchSpec {
        MatchSpec { context: 0, src: SrcSel::Any, tag: TagSel::Any }
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut t = ReqTable::default();
        let r = t.insert(ReqBody::Send, ReqState::Done(Ok(Completion::send())));
        assert!(t.is_done(r).unwrap());
        let c = t.take(r).unwrap().unwrap();
        assert_eq!(c.data.len(), 0);
        // Slot is freed; handle is now stale.
        assert_eq!(t.take(r).unwrap_err(), Error::InvalidRequest);
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn stale_generation_detected_after_reuse() {
        let mut t = ReqTable::default();
        let r1 = t.insert(ReqBody::Send, ReqState::Done(Ok(Completion::send())));
        t.take(r1).unwrap().unwrap();
        let r2 = t.insert(ReqBody::Send, ReqState::Done(Ok(Completion::send())));
        assert_eq!(r1.idx, r2.idx, "slot should be reused");
        assert!(t.slot(r1).is_err());
        assert!(t.slot(r2).is_ok());
    }

    #[test]
    fn pending_cannot_be_taken() {
        let mut t = ReqTable::default();
        let r = t.insert(ReqBody::Recv(spec()), ReqState::Pending);
        assert!(t.is_pending(r));
        assert!(matches!(t.take(r), Err(Error::InvalidState(_))));
        t.complete_if_pending(r, Ok(Completion::send()));
        assert!(!t.is_pending(r));
        assert!(t.take(r).unwrap().is_ok());
    }

    #[test]
    fn complete_if_pending_only_fires_once() {
        let mut t = ReqTable::default();
        let r = t.insert(ReqBody::Recv(spec()), ReqState::Pending);
        assert!(t.complete_if_pending(r, Ok(Completion::send())));
        assert!(!t.complete_if_pending(r, Err(Error::SelfFailed)));
        assert!(t.take(r).unwrap().is_ok(), "first completion wins");
    }

    #[test]
    fn validate_completion_carries_count() {
        let c = Completion::validate(3);
        assert_eq!(c.validate_count(), 3);
    }

    #[test]
    fn next_pending_scans_one_kind_and_skips_completed() {
        let coll = |kind, round| ReqBody::Collective { kind, comm_idx: 0, round };
        let mut t = ReqTable::default();
        let v0 = t.insert(coll(CollKind::Validate, 0), ReqState::Pending);
        let b0 = t.insert(coll(CollKind::Barrier, 0), ReqState::Pending);
        t.insert(ReqBody::Recv(spec()), ReqState::Pending);
        let v1 = t.insert(coll(CollKind::Validate, 1), ReqState::Pending);
        let scan = |t: &ReqTable, kind| {
            let mut cursor = 0;
            std::iter::from_fn(|| t.next_pending(kind, &mut cursor)).collect::<Vec<_>>()
        };
        assert_eq!(scan(&t, CollKind::Validate), vec![(v0, 0, 0), (v1, 0, 1)]);
        assert_eq!(scan(&t, CollKind::Barrier), vec![(b0, 0, 0)]);
        t.complete_if_pending(v0, Ok(Completion::validate(0)));
        assert_eq!(scan(&t, CollKind::Validate), vec![(v1, 0, 1)]);
        // The count that lets the scan be skipped follows every way a
        // collective stops being pending.
        assert_eq!(t.pending_collectives, 2);
        t.complete_if_pending(v0, Ok(Completion::validate(0)));
        assert_eq!(t.pending_collectives, 2, "completing twice counts once");
        t.remove(b0).unwrap();
        t.remove(v0).unwrap();
        assert!(t.complete_if_pending(v1, Ok(Completion::validate(0))));
        assert_eq!(t.pending_collectives, 0);
        assert_eq!(scan(&t, CollKind::Validate), vec![]);
    }

    #[test]
    fn remove_cancels_pending() {
        let mut t = ReqTable::default();
        let r = t.insert(ReqBody::Recv(spec()), ReqState::Pending);
        t.remove(r).unwrap();
        assert!(t.slot(r).is_err());
        assert_eq!(t.live(), 0);
    }
}
