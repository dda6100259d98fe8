//! Nonblocking request handles and the per-process request table.

use bytes::Bytes;

use crate::error::{Error, Result};
use crate::matching::MatchSpec;
use crate::rank::CommRank;
use crate::status::Status;
use crate::tag::Tag;

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
    /// For a completed `icomm_validate_all`: the agreed number of
    /// failed ranks in the communicator.
    pub fn validate_count(&self) -> usize {
        self.status.len
    }
}

/// The collectives whose round is a request: `icomm_validate_all` and
/// `ibarrier`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CollKind {
    Validate,
    Barrier,
}

/// What a request is and how far it got, in the compact form a slot
/// holds: the public [`Completion`] and [`Status`] are built from it
/// only when the request is consumed ([`ReqState::into_result`]).
#[derive(Debug)]
pub(crate) enum ReqState {
    /// A posted receive nothing has completed yet, and what it matches
    /// (what `cancel` needs to find it in the matching engine).
    Posted(MatchSpec),
    /// A round of a collective on the rendezvous board, not decided
    /// yet.
    Joined { kind: CollKind, round: u64 },
    /// A receive a message completed: sender, tag and payload.
    Received { src: u32, tag: Tag, data: Bytes },
    /// Done with no payload: an eager send, a decided collective, a
    /// receive from a recognized failed peer.
    Done(Status),
    /// Done in error.
    Failed(Error),
}

impl ReqState {
    /// A completion with no payload, or an error.
    pub(crate) fn done(result: Result<Status>) -> Self {
        result.map_or_else(ReqState::Failed, ReqState::Done)
    }

    /// The state of an eager send, and of a barrier round that
    /// succeeded.
    pub(crate) fn sent() -> Self {
        ReqState::Done(Status::new(0, 0, 0))
    }

    /// A decided `icomm_validate_all`: the failed-rank count is carried
    /// in `status.len`.
    pub(crate) fn validated(count: usize) -> Self {
        ReqState::Done(Status { source: None, tag: 0, len: count })
    }

    fn is_pending(&self) -> bool {
        matches!(self, ReqState::Posted(_) | ReqState::Joined { .. })
    }

    /// The public completion of a finished request.
    pub(crate) fn into_result(self) -> Result<Completion> {
        match self {
            ReqState::Received { src, tag, data } => {
                Ok(Completion { status: Status::new(src as CommRank, tag, data.len()), data })
            }
            ReqState::Done(status) => Ok(Completion { status, data: Bytes::new() }),
            ReqState::Failed(e) => Err(e),
            ReqState::Posted(_) | ReqState::Joined { .. } => {
                Err(Error::InvalidState("request still pending"))
            }
        }
    }
}

/// `SlotData::comm` of a request that belongs to no communicator (an
/// eager send).
const NO_COMM: u32 = u32::MAX;

/// One request. The communicator index is resolved when the request is
/// made, so neither the failure scan nor `consume` looks a context up;
/// and the whole slot is one aligned cache line (`tests::a_request_slot_fits_one_line`).
#[repr(align(64))]
struct SlotData {
    gen: u32,
    comm: u32,
    state: ReqState,
}

impl SlotData {
    fn is_pending_collective(&self) -> bool {
        matches!(self.state, ReqState::Joined { .. })
    }

    fn comm(&self) -> Option<usize> {
        (self.comm != NO_COMM).then_some(self.comm as usize)
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

    /// A new request on communicator index `comm` (`None` for a send).
    pub(crate) fn insert(&mut self, comm: Option<usize>, state: ReqState) -> Request {
        self.gen = self.gen.wrapping_add(1);
        let comm = comm.map_or(NO_COMM, |c| u32::try_from(c).expect("communicator index"));
        let data = SlotData { gen: self.gen, comm, state };
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

    /// The communicator index and match specification of a receive
    /// that is still pending; `None` for anything else.
    pub(crate) fn posted(&self, req: Request) -> Option<(usize, &MatchSpec)> {
        match self.slot(req) {
            Ok(slot @ SlotData { state: ReqState::Posted(spec), .. }) => {
                Some((slot.comm as usize, spec))
            }
            _ => None,
        }
    }

    pub(crate) fn is_done(&self, req: Request) -> Result<bool> {
        Ok(!self.slot(req)?.state.is_pending())
    }

    /// Complete `req` with the finished `state` if it is still pending
    /// (the handle is generation-checked, so a stale one completes
    /// nothing); whether it did.
    pub(crate) fn complete_if_pending(&mut self, req: Request, state: ReqState) -> bool {
        debug_assert!(!state.is_pending());
        match self.slot_mut(req) {
            Ok(slot) if slot.state.is_pending() => {
                let collective = slot.is_pending_collective();
                slot.state = state;
                self.pending_collectives -= usize::from(collective);
                true
            }
            _ => false,
        }
    }

    /// Whether the request is still pending (valid and not done).
    pub(crate) fn is_pending(&self, req: Request) -> bool {
        self.slot(req).is_ok_and(|s| s.state.is_pending())
    }

    /// Consume a completed request, freeing its slot: its communicator
    /// index and final state.
    ///
    /// Errors with `InvalidRequest` if the handle is stale; panics are
    /// never used for application-visible conditions.
    pub(crate) fn take(&mut self, req: Request) -> Result<(Option<usize>, ReqState)> {
        if self.slot(req)?.state.is_pending() {
            return Err(Error::InvalidState("request still pending"));
        }
        let data = self.slots[req.idx as usize].take().expect("checked above");
        self.free.push(req.idx);
        Ok((data.comm(), data.state))
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
            if let Some(s @ SlotData { state: ReqState::Joined { kind: k, round }, .. }) = slot {
                if *k == kind {
                    return Some((Request { idx, gen: s.gen }, s.comm as usize, *round));
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

    fn posted() -> ReqState {
        ReqState::Posted(MatchSpec { context: 0, src: SrcSel::Any, tag: TagSel::Any })
    }

    /// Posting, completing and consuming a request each touch one
    /// cache line; a fan-in at depth does all three 768 times a round.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_request_slot_fits_one_line() {
        assert!(std::mem::size_of::<Option<SlotData>>() <= 64);
        assert_eq!(std::mem::align_of::<Option<SlotData>>(), 64);
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut t = ReqTable::default();
        let r = t.insert(None, ReqState::sent());
        assert!(t.is_done(r).unwrap());
        let (comm, state) = t.take(r).unwrap();
        assert_eq!(comm, None);
        assert_eq!(state.into_result().unwrap().data.len(), 0);
        // Slot is freed; handle is now stale.
        assert_eq!(t.take(r).unwrap_err(), Error::InvalidRequest);
        assert_eq!(t.live(), 0);
    }

    /// The public completion is built at consume from the compact
    /// state, as the old table stored it whole.
    #[test]
    fn a_received_message_completes_with_its_status() {
        let mut t = ReqTable::default();
        let r = t.insert(Some(2), posted());
        assert_eq!(t.posted(r).map(|(comm, _)| comm), Some(2));
        let data = Bytes::from_static(b"payload");
        assert!(t.complete_if_pending(r, ReqState::Received { src: 3, tag: 9, data }));
        assert!(t.posted(r).is_none(), "a completed receive is no longer posted");
        let (comm, state) = t.take(r).unwrap();
        assert_eq!(comm, Some(2));
        let c = state.into_result().unwrap();
        assert_eq!(c.status, Status::new(3, 9, 7));
        assert_eq!(&c.data[..], b"payload");
    }

    #[test]
    fn stale_generation_detected_after_reuse() {
        let mut t = ReqTable::default();
        let r1 = t.insert(None, ReqState::sent());
        t.take(r1).unwrap();
        let r2 = t.insert(None, ReqState::sent());
        assert_eq!(r1.idx, r2.idx, "slot should be reused");
        assert!(t.slot(r1).is_err());
        assert!(t.slot(r2).is_ok());
    }

    #[test]
    fn pending_cannot_be_taken() {
        let mut t = ReqTable::default();
        let r = t.insert(Some(0), posted());
        assert!(t.is_pending(r));
        assert!(matches!(t.take(r), Err(Error::InvalidState(_))));
        t.complete_if_pending(r, ReqState::sent());
        assert!(!t.is_pending(r));
        assert!(t.take(r).unwrap().1.into_result().is_ok());
    }

    #[test]
    fn complete_if_pending_only_fires_once() {
        let mut t = ReqTable::default();
        let r = t.insert(Some(0), posted());
        assert!(t.complete_if_pending(r, ReqState::sent()));
        assert!(!t.complete_if_pending(r, ReqState::Failed(Error::SelfFailed)));
        assert!(t.take(r).unwrap().1.into_result().is_ok(), "first completion wins");
    }

    #[test]
    fn validate_completion_carries_count() {
        let c = ReqState::validated(3).into_result().unwrap();
        assert_eq!(c.validate_count(), 3);
    }

    #[test]
    fn next_pending_scans_one_kind_and_skips_completed() {
        let coll = |kind, round| ReqState::Joined { kind, round };
        let mut t = ReqTable::default();
        let v0 = t.insert(Some(0), coll(CollKind::Validate, 0));
        let b0 = t.insert(Some(0), coll(CollKind::Barrier, 0));
        t.insert(Some(0), posted());
        let v1 = t.insert(Some(0), coll(CollKind::Validate, 1));
        let scan = |t: &ReqTable, kind| {
            let mut cursor = 0;
            std::iter::from_fn(|| t.next_pending(kind, &mut cursor)).collect::<Vec<_>>()
        };
        assert_eq!(scan(&t, CollKind::Validate), vec![(v0, 0, 0), (v1, 0, 1)]);
        assert_eq!(scan(&t, CollKind::Barrier), vec![(b0, 0, 0)]);
        t.complete_if_pending(v0, ReqState::validated(0));
        assert_eq!(scan(&t, CollKind::Validate), vec![(v1, 0, 1)]);
        // The count that lets the scan be skipped follows every way a
        // collective stops being pending.
        assert_eq!(t.pending_collectives, 2);
        t.complete_if_pending(v0, ReqState::validated(0));
        assert_eq!(t.pending_collectives, 2, "completing twice counts once");
        t.remove(b0).unwrap();
        t.remove(v0).unwrap();
        assert!(t.complete_if_pending(v1, ReqState::validated(0)));
        assert_eq!(t.pending_collectives, 0);
        assert_eq!(scan(&t, CollKind::Validate), vec![]);
    }

    #[test]
    fn remove_cancels_pending() {
        let mut t = ReqTable::default();
        let r = t.insert(Some(0), posted());
        t.remove(r).unwrap();
        assert!(t.slot(r).is_err());
        assert_eq!(t.live(), 0);
    }
}
