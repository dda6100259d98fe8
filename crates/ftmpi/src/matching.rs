//! MPI message matching: posted receives + unexpected-message queue.
//!
//! Matching follows the MPI rules: a receive matches a message when the
//! contexts are equal, the source selector accepts the sender's
//! communicator rank, and the tag selector accepts the tag. Posted
//! receives are considered in post order; unexpected messages in
//! arrival order. Combined with the transport's per-pair FIFO this
//! yields MPI's non-overtaking guarantee.
//!
//! ### Posted receives: one post order, two places to stand in it
//!
//! Every posted receive is a [`Posted`]: the request, its `MatchSpec`
//! and a post sequence number, all held here, so matching never asks
//! the request table what a receive wants. It lives in one of two
//! structures:
//!
//! * the **post-ordered list** holds every wildcard receive
//!   (`ANY_SOURCE` and / or `ANY_TAG`), scanned front to back;
//! * the **bins**, a hash map from an exact `(context, source, tag)`
//!   to the FIFO of receives posted for exactly that key. An arriving
//!   envelope names one key, so its bin is one lookup however many
//!   other receives are posted.
//!
//! [`MatchEngine::ingest`] always consults both and completes the
//! *lower sequence number* of {live head of the envelope's bin, first
//! live match in the list}: exactly the receive a front-to-back scan
//! of one post-ordered queue would reach first, which is the rule the
//! linear-scan reference model in `tests::properties` executes and the
//! engine is checked against.
//!
//! Because the sequence number arbitrates, *where* an exact receive
//! stands is a cost question, never a correctness one. It joins the
//! list instead of a bin while the list is shorter than
//! [`SHORT_LIST`]. Measured with the benchmark's
//! `ftmpi.matching.posted_d16_ns` probe, a message pays ≈ 5 ns per
//! list entry it passes and ≈ 50 ns flat for the bin route (hash, map
//! insert and remove, the bin's own push and pop): scanning sixteen
//! entries and going through a bin read the same. Eight, half that
//! break-even, keeps the codes that hold one to four receives posted —
//! the ring, the stencil, the consensus protocols — off the map
//! altogether; and because a message passes the list's older entries
//! before its bin can win, eight also caps what a deep queue pays for
//! the list at ≈ 40 ns a message.
//!
//! Entries whose request was completed or dropped elsewhere (the
//! failure scan completes through the request table) are skipped where
//! they are met and removed by [`MatchEngine::prune`]. Emptied bins
//! are taken out of the map and kept for reuse, so a steady post /
//! match cycle allocates nothing once the structures have grown to the
//! workload.
//!
//! Poisoned envelopes (collective-abandonment notifications, see the
//! `collective` module) match like data but complete the receive with
//! `RankFailStop`.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::Error;
use crate::message::{ContextId, Envelope};
use crate::rank::CommRank;
use crate::request::{Completion, ReqTable, Request};
use crate::status::Status;
use crate::tag::{Tag, TagSel};

/// Source selector for a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcSel {
    /// Match this communicator rank only. The `u32` is the generation
    /// the rank had when the receive was posted: the failure verdict
    /// watches that incarnation (`CommData::incarnation_state`), and
    /// matching ignores it. It sits in the padding beside the rank, so
    /// a [`Posted`] stays 48 bytes.
    Exact(CommRank, u32),
    /// `MPI_ANY_SOURCE`.
    Any,
}

impl SrcSel {
    pub(crate) fn matches(self, src: CommRank) -> bool {
        match self {
            SrcSel::Exact(s, _) => s == src,
            SrcSel::Any => true,
        }
    }
}

/// Full receive match specification.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatchSpec {
    pub context: ContextId,
    pub src: SrcSel,
    pub tag: TagSel,
}

impl MatchSpec {
    pub(crate) fn matches(&self, env: &Envelope) -> bool {
        self.context == env.context && self.src.matches(env.src_comm) && self.tag.matches(env.tag)
    }
}

/// Turn a matched envelope into a receive completion.
fn completion_for(env: Envelope) -> crate::error::Result<Completion> {
    if env.poison {
        Err(Error::RankFailStop { rank: env.src_comm })
    } else {
        Ok(Completion {
            status: Status::new(env.src_comm, env.tag, env.payload.len()),
            data: env.payload,
        })
    }
}

/// Identity of an envelope consumed from the unexpected queue (for
/// tracing the match).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TakenMeta {
    pub src: CommRank,
    pub context: ContextId,
    pub tag: crate::tag::Tag,
    pub seq: u64,
}

/// One posted receive as the engine holds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Posted {
    /// Post sequence number: strictly increasing per engine, so the
    /// lower of two is the receive MPI's post order considers first.
    pub seq: u64,
    pub req: Request,
    pub spec: MatchSpec,
}

/// An exact receive joins the post-ordered list rather than a bin
/// while the list is shorter than this (module docs: a cost knob, the
/// sequence numbers keep any value correct).
const SHORT_LIST: usize = 8;

/// What an exact receive is binned under, and what an envelope names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BinKey {
    context: ContextId,
    src: CommRank,
    tag: Tag,
}

impl BinKey {
    /// The one key `env` can match a binned receive under.
    fn of(env: &Envelope) -> Self {
        BinKey { context: env.context, src: env.src_comm, tag: env.tag }
    }

    /// The key of an exact receive; `None` for a wildcard.
    fn exact(spec: &MatchSpec) -> Option<Self> {
        match (spec.src, spec.tag) {
            (SrcSel::Exact(src, _), TagSel::Exact(tag)) => {
                Some(BinKey { context: spec.context, src, tag })
            }
            _ => None,
        }
    }
}

/// Hasher for [`BinKey`], `Process`'s context map, the rendezvous
/// board's rounds and a communicator's recognized ranks: one
/// multiply-rotate per fixed-width field (the Fx scheme), against
/// SipHash's per-byte rounds. The keys are this program's own contexts,
/// ranks and tags, not outside input, so collision resistance buys
/// nothing here.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.word(u64::from(*b));
        }
    }
    fn write_u64(&mut self, w: u64) {
        self.word(w);
    }
    fn write_usize(&mut self, w: usize) {
        self.word(w as u64);
    }
    fn write_i32(&mut self, w: i32) {
        self.word(w as u32 as u64);
    }
    fn finish(&self) -> u64 {
        // The multiply mixes upwards only; fold the high half down to
        // the low bits the table indexes buckets with.
        self.0 ^ (self.0 >> 32)
    }
}

/// Per-process matching state.
#[derive(Default)]
pub(crate) struct MatchEngine {
    /// Messages that arrived before a matching receive was posted, in
    /// arrival order.
    unexpected: VecDeque<Envelope>,
    /// The post-ordered list: every pending wildcard receive, and the
    /// exact ones posted while it was short.
    ordered: Vec<Posted>,
    /// Pending exact receives past the short list, one FIFO per key.
    bins: HashMap<BinKey, VecDeque<Posted>, BuildHasherDefault<KeyHasher>>,
    /// Entries across all `bins`; zero lets `ingest` skip the hash.
    binned: usize,
    /// Emptied bins, kept for their capacity.
    spare_bins: Vec<VecDeque<Posted>>,
    /// Sequence number the next registered receive takes.
    next_seq: u64,
    /// Receives registered since [`MatchEngine::clear_fresh`], in post
    /// order: what the failure scan has not looked at yet.
    fresh: Vec<Posted>,
    /// Scratch for [`MatchEngine::posted_in_order`].
    scratch_posted: Vec<Posted>,
    /// Scratch for ANY_SOURCE candidate collection (queue positions of
    /// per-sender head envelopes). Kept on the engine so the per-receive
    /// allocations of the old scheme are paid once, not per call.
    scratch_firsts: Vec<usize>,
    /// Scratch: senders already holding a candidate slot.
    scratch_seen: Vec<CommRank>,
}

impl MatchEngine {
    /// Empty every queue while keeping their capacity: the reuse hook
    /// for pooled workers, whose `RankScratch` carries one engine
    /// across incarnations and runs (steady-state matching then runs
    /// allocation-free once the buffers have grown to the workload).
    pub(crate) fn reset(&mut self) {
        self.unexpected.clear();
        self.ordered.clear();
        for (_, mut bin) in self.bins.drain() {
            bin.clear();
            self.spare_bins.push(bin);
        }
        self.binned = 0;
        self.next_seq = 0;
        self.fresh.clear();
        self.scratch_posted.clear();
        self.scratch_firsts.clear();
        self.scratch_seen.clear();
    }

    /// [`MatchEngine::take_unexpected_with`] taking the first candidate.
    #[cfg(test)]
    pub(crate) fn take_unexpected(
        &mut self,
        spec: &MatchSpec,
    ) -> Option<crate::error::Result<Completion>> {
        self.take_unexpected_with(spec, |_| 0).map(|(result, _)| result)
    }

    /// Try to satisfy a new receive from the unexpected queue. If a
    /// message matches, it is removed and the completion returned;
    /// otherwise the caller must insert a pending request and register
    /// it via [`MatchEngine::register`].
    ///
    /// When several senders have a matching message queued, `pick(n)`
    /// selects among the *earliest matching envelope of each sender*.
    /// Restricting candidates to per-sender heads is what keeps the
    /// choice MPI-legal — `ANY_SOURCE` may pick any sender, but within
    /// one sender matching must stay in arrival order (non-overtaking).
    pub(crate) fn take_unexpected_with(
        &mut self,
        spec: &MatchSpec,
        pick: impl FnOnce(usize) -> usize,
    ) -> Option<(crate::error::Result<Completion>, TakenMeta)> {
        let pos = match spec.src {
            // Exact-source receive: every matching envelope shares one
            // sender, so the per-sender-head rule collapses to "earliest
            // match" — stop at the first hit instead of scanning the
            // whole queue, and `pick` is (provably, as before) never
            // consulted.
            SrcSel::Exact(..) => {
                match self.unexpected.iter().position(|env| spec.matches(env)) {
                    Some(pos) => pos,
                    None => return None,
                }
            }
            SrcSel::Any => {
                let firsts = &mut self.scratch_firsts;
                let seen = &mut self.scratch_seen;
                firsts.clear();
                seen.clear();
                for (pos, env) in self.unexpected.iter().enumerate() {
                    if spec.matches(env) && !seen.contains(&env.src_comm) {
                        seen.push(env.src_comm);
                        firsts.push(pos);
                    }
                }
                match firsts.len() {
                    0 => return None,
                    1 => firsts[0],
                    n => firsts[pick(n).min(n - 1)],
                }
            }
        };
        let env = self.unexpected.remove(pos).expect("position valid");
        let meta =
            TakenMeta { src: env.src_comm, context: env.context, tag: env.tag, seq: env.seq };
        Some((completion_for(env), meta))
    }

    /// Register a pending receive: it takes the next post sequence
    /// number and stands in a bin if it is exact and the list is no
    /// longer short, in the list otherwise.
    pub(crate) fn register(&mut self, req: Request, spec: MatchSpec) {
        let posted = Posted { seq: self.next_seq, req, spec };
        self.next_seq += 1;
        self.fresh.push(posted);
        match BinKey::exact(&spec) {
            Some(key) if self.ordered.len() >= SHORT_LIST => {
                let spare = &mut self.spare_bins;
                let bin = self.bins.entry(key).or_insert_with(|| spare.pop().unwrap_or_default());
                bin.push_back(posted);
                self.binned += 1;
            }
            _ => self.ordered.push(posted),
        }
    }

    /// Remove a receive posted with `spec` from wherever it stands
    /// (cancel).
    pub(crate) fn unregister(&mut self, req: Request, spec: &MatchSpec) {
        self.fresh.retain(|p| p.req != req);
        if let Some(key) = BinKey::exact(spec) {
            if let Some(bin) = self.bins.get_mut(&key) {
                if let Some(i) = bin.iter().position(|p| p.req == req) {
                    bin.remove(i);
                    self.binned -= 1;
                    if bin.is_empty() {
                        self.retire(&key);
                    }
                    return;
                }
            }
        }
        self.ordered.retain(|p| p.req != req);
    }

    /// Take `key`'s emptied bin out of the map, keeping the allocation
    /// for the next key that needs one.
    fn retire(&mut self, key: &BinKey) {
        self.spare_bins.extend(self.bins.remove(key));
    }

    /// Sequence number of the oldest pending receive binned under
    /// `key`, dropping heads completed elsewhere on the way.
    fn bin_head(&mut self, table: &ReqTable, key: &BinKey) -> Option<u64> {
        if self.binned == 0 {
            return None;
        }
        let bin = self.bins.get_mut(key)?;
        while let Some(head) = bin.front() {
            if table.is_pending(head.req) {
                return Some(head.seq);
            }
            bin.pop_front();
            self.binned -= 1;
        }
        self.retire(key);
        None
    }

    /// Pop the receive [`MatchEngine::bin_head`] found.
    fn pop_bin_head(&mut self, key: &BinKey) -> Posted {
        let bin = self.bins.get_mut(key).expect("bin_head found the bin");
        let head = bin.pop_front().expect("bin_head found its head");
        self.binned -= 1;
        if bin.is_empty() {
            self.retire(key);
        }
        head
    }

    /// Ingest one arriving envelope: complete the earliest-posted
    /// pending receive that matches it — the lower sequence number of
    /// its bin's head and the first match in the list — else queue it
    /// as unexpected. Returns the request that completed, if any.
    pub(crate) fn ingest(&mut self, table: &mut ReqTable, env: Envelope) -> Option<Request> {
        // Fast path: nothing posted (the common case while draining a
        // burst) — straight to the unexpected queue, no table traffic.
        if self.ordered.is_empty() && self.binned == 0 {
            self.unexpected.push_back(env);
            return None;
        }
        let key = BinKey::of(&env);
        let bin_seq = self.bin_head(table, &key);
        // A list entry posted after the bin's head cannot win.
        let older = bin_seq.unwrap_or(u64::MAX);
        let in_list = self
            .ordered
            .iter()
            .take_while(|p| p.seq < older)
            .position(|p| p.spec.matches(&env) && table.is_pending(p.req));
        let req = match (in_list, bin_seq) {
            (Some(i), _) => self.ordered.remove(i).req,
            (None, Some(_)) => self.pop_bin_head(&key).req,
            (None, None) => {
                self.unexpected.push_back(env);
                return None;
            }
        };
        table.complete_if_pending(req, completion_for(env));
        Some(req)
    }

    /// Prune posted entries that are no longer pending (completed by
    /// the failure scan, cancelled, or consumed).
    pub(crate) fn prune(&mut self, table: &ReqTable) {
        self.ordered.retain(|p| table.is_pending(p.req));
        let (binned, spare) = (&mut self.binned, &mut self.spare_bins);
        self.bins.retain(|_, bin| {
            let before = bin.len();
            bin.retain(|p| table.is_pending(p.req));
            *binned -= before - bin.len();
            let emptied = bin.is_empty();
            if emptied {
                spare.push(std::mem::take(bin));
            }
            !emptied
        });
    }

    /// Every posted receive, in post order. With nothing binned that
    /// is the list as it stands; otherwise list and bins are merged by
    /// sequence number into a buffer kept on the engine, so the order
    /// never depends on how the map happens to be laid out.
    pub(crate) fn posted_in_order(&mut self) -> &[Posted] {
        if self.binned == 0 {
            return &self.ordered;
        }
        self.scratch_posted.clear();
        self.scratch_posted.extend(self.ordered.iter().chain(self.bins.values().flatten()));
        self.scratch_posted.sort_unstable_by_key(|p| p.seq);
        &self.scratch_posted
    }

    /// The receives registered since the last
    /// [`MatchEngine::clear_fresh`], in post order.
    pub(crate) fn fresh(&self) -> &[Posted] {
        &self.fresh
    }

    /// Forget which receives are fresh (the failure scan has seen
    /// them).
    pub(crate) fn clear_fresh(&mut self) {
        self.fresh.clear();
    }

    /// Drop queued unexpected *system* (negative-tag) messages for a
    /// context whose collective instance is older than `min_instance`.
    /// Called when `validate_all` completes so stale traffic (data or
    /// poison) from aborted collective instances cannot accumulate.
    ///
    /// Messages from instances `>= min_instance` are kept: a faster
    /// peer may already have started the *next* collective before this
    /// rank consumed the validate decision, and purging its traffic
    /// would wedge that collective.
    pub(crate) fn purge_system(&mut self, context: ContextId, min_instance: u64) {
        self.unexpected.retain(|env| {
            !(env.context == context
                && env.tag < 0
                && crate::tag::system_tag_instance(env.tag) < min_instance)
        });
    }

    /// Probe: peek the first unexpected message matching `spec`.
    pub(crate) fn peek(&self, spec: &MatchSpec) -> Option<&Envelope> {
        self.unexpected.iter().find(|env| spec.matches(env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ReqBody, ReqState};
    use bytes::Bytes;

    fn env(src: CommRank, ctx: ContextId, tag: i32, payload: &'static [u8]) -> Envelope {
        Envelope {
            src_comm: src,
            context: ctx,
            tag,
            payload: Bytes::from_static(payload),
            seq: 0,
            poison: false,
        }
    }

    fn spec(ctx: ContextId, src: SrcSel, tag: TagSel) -> MatchSpec {
        MatchSpec { context: ctx, src, tag }
    }

    /// The posted list is scanned at depth: the peer's generation rides
    /// in `SrcSel::Exact`'s padding, not in a wider entry.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_posted_receive_stays_48_bytes() {
        assert_eq!(std::mem::size_of::<SrcSel>(), 16);
        assert_eq!(std::mem::size_of::<Posted>(), 48);
    }

    #[test]
    fn unexpected_then_post_matches_in_arrival_order() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        eng.ingest(&mut table, env(1, 0, 5, b"first"));
        eng.ingest(&mut table, env(1, 0, 5, b"second"));
        assert_eq!(eng.unexpected.len(), 2);

        let s = spec(0, SrcSel::Exact(1, 0), TagSel::Exact(5));
        let c = eng.take_unexpected(&s).unwrap().unwrap();
        assert_eq!(&c.data[..], b"first");
        let c = eng.take_unexpected(&s).unwrap().unwrap();
        assert_eq!(&c.data[..], b"second");
        assert!(eng.take_unexpected(&s).is_none());
    }

    #[test]
    fn post_then_arrival_completes_in_post_order() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let s = spec(0, SrcSel::Exact(2, 0), TagSel::Exact(1));
        let r1 = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r1, s);
        let r2 = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r2, s);

        let hit = eng.ingest(&mut table, env(2, 0, 1, b"a")).unwrap();
        assert_eq!(hit, r1, "earliest posted receive matches first");
        let hit = eng.ingest(&mut table, env(2, 0, 1, b"b")).unwrap();
        assert_eq!(hit, r2);
        assert_eq!(&table.take(r1).unwrap().unwrap().data[..], b"a");
        assert_eq!(&table.take(r2).unwrap().unwrap().data[..], b"b");
    }

    #[test]
    fn context_isolates_matching() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let s = spec(7, SrcSel::Any, TagSel::Any);
        let r = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r, s);
        assert!(eng.ingest(&mut table, env(0, 8, 0, b"x")).is_none());
        assert_eq!(eng.unexpected.len(), 1);
        assert!(eng.ingest(&mut table, env(0, 7, 0, b"y")).is_some());
    }

    #[test]
    fn any_source_any_tag_matches_everything_in_context() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let s = spec(0, SrcSel::Any, TagSel::Any);
        let r = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r, s);
        assert_eq!(eng.ingest(&mut table, env(9, 0, 1234, b"z")), Some(r));
        let c = table.take(r).unwrap().unwrap();
        assert_eq!(c.status.source, Some(9));
        assert_eq!(c.status.tag, 1234);
    }

    #[test]
    fn poison_completes_with_rank_fail_stop() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let s = spec(0, SrcSel::Exact(3, 0), TagSel::Exact(0));
        let r = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r, s);
        let mut e = env(3, 0, 0, b"");
        e.poison = true;
        eng.ingest(&mut table, e);
        match table.take(r).unwrap() {
            Err(Error::RankFailStop { rank }) => assert_eq!(rank, 3),
            other => panic!("expected RankFailStop, got {other:?}"),
        }
    }

    #[test]
    fn purge_system_drops_only_stale_negative_tags_in_context() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let old_tag = crate::tag::system_tag(0, 0); // instance 0
        let new_tag = crate::tag::system_tag(0, 5); // instance 5
        eng.ingest(&mut table, env(0, 1, old_tag, b""));
        eng.ingest(&mut table, env(0, 1, new_tag, b""));
        eng.ingest(&mut table, env(0, 1, 3, b""));
        eng.ingest(&mut table, env(0, 2, old_tag, b""));
        eng.purge_system(1, 5);
        assert_eq!(eng.unexpected.len(), 3);
        // User message and current-instance system message survive;
        // other contexts untouched.
        assert!(eng.peek(&spec(1, SrcSel::Any, TagSel::Exact(3))).is_some());
        assert!(eng.peek(&spec(1, SrcSel::Any, TagSel::Exact(new_tag))).is_some());
        assert!(eng.peek(&spec(1, SrcSel::Any, TagSel::Exact(old_tag))).is_none());
        assert!(eng.peek(&spec(2, SrcSel::Any, TagSel::Exact(old_tag))).is_some());
    }

    #[test]
    fn non_overtaking_same_pair_same_tag() {
        // Messages a,b sent in order from the same source with the same
        // tag must be received in order even with interleaved posts.
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        eng.ingest(&mut table, env(1, 0, 0, b"a"));
        let s = spec(0, SrcSel::Exact(1, 0), TagSel::Exact(0));
        let c = eng.take_unexpected(&s).unwrap().unwrap();
        assert_eq!(&c.data[..], b"a");
        let r = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r, s);
        eng.ingest(&mut table, env(1, 0, 0, b"b"));
        assert_eq!(&table.take(r).unwrap().unwrap().data[..], b"b");
    }

    /// A wildcard posted between two exact receives of one key takes
    /// the second message, not the third: post order holds across the
    /// list and the bins, wherever the exact receives stand.
    #[test]
    fn wildcard_between_two_exact_receives_matches_in_post_order() {
        // Behind 0 fillers all three stand in the list; behind
        // SHORT_LIST never-matching ones the exact two are binned.
        for fillers in [0, SHORT_LIST] {
            let mut eng = MatchEngine::default();
            let mut table = ReqTable::default();
            let mut post = |eng: &mut MatchEngine, s: MatchSpec| {
                let r = table.insert(ReqBody::Recv(s), ReqState::Pending);
                eng.register(r, s);
                r
            };
            for _ in 0..fillers {
                post(&mut eng, spec(9, SrcSel::Any, TagSel::Any));
            }
            let exact = spec(0, SrcSel::Exact(1, 0), TagSel::Exact(5));
            let first = post(&mut eng, exact);
            let wild = post(&mut eng, spec(0, SrcSel::Any, TagSel::Exact(5)));
            let second = post(&mut eng, exact);
            assert_eq!(eng.binned, if fillers == 0 { 0 } else { 2 });
            let hits: Vec<_> =
                (0..3).map(|_| eng.ingest(&mut table, env(1, 0, 5, b"")).unwrap()).collect();
            assert_eq!(hits, vec![first, wild, second], "behind {fillers} fillers");
            assert!(eng.ingest(&mut table, env(1, 0, 5, b"")).is_none());
            assert!(eng.bins.is_empty(), "emptied bins leave the map");
        }
    }

    /// The fan-in shape at depth: 768 exact receives posted in reverse
    /// tag order, matched in ascending order, round after round. Once
    /// the first round has grown the list, the map, the bins and the
    /// request table, a round allocates nothing.
    #[test]
    fn steady_state_at_depth_768_allocates_nothing() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let mut reqs = Vec::with_capacity(768);
        let mut round = |eng: &mut MatchEngine| {
            reqs.clear();
            for tag in (0..256).rev() {
                for src in 1..4 {
                    let s = spec(0, SrcSel::Exact(src, 0), TagSel::Exact(tag));
                    let r = table.insert(ReqBody::Recv(s), ReqState::Pending);
                    eng.register(r, s);
                    reqs.push(r);
                }
            }
            eng.clear_fresh();
            for src in 1..4 {
                for tag in 0..256 {
                    assert!(eng.ingest(&mut table, env(src, 0, tag, b"")).is_some());
                }
            }
            for r in &reqs {
                table.take(*r).unwrap().unwrap();
            }
            assert_eq!((eng.binned, eng.ordered.len(), eng.unexpected.len()), (0, 0, 0));
        };
        round(&mut eng);
        let before = allocstats::snapshot();
        for _ in 0..3 {
            round(&mut eng);
        }
        let grew = allocstats::snapshot().since(&before);
        assert_eq!(grew.allocs, 0, "steady state allocated: {grew:?}");
        // The counter is live in this binary, so the zero means something.
        let before = allocstats::snapshot();
        drop(std::hint::black_box(vec![0u8; 32]));
        assert!(allocstats::snapshot().since(&before).allocs > 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One step of a random matching workload.
        #[derive(Debug, Clone)]
        enum Op {
            /// Post a receive (`None` = ANY_SOURCE / ANY_TAG).
            Post { ctx: ContextId, src: Option<CommRank>, tag: Option<i32> },
            /// Deliver an envelope.
            Ingest { ctx: ContextId, src: CommRank, tag: i32 },
            /// Try to consume from the unexpected queue; `pick` seeds
            /// the ANY_SOURCE sender choice.
            Take { ctx: ContextId, src: Option<CommRank>, tag: Option<i32>, pick: usize },
            /// Cancel the `nth` posted receive (modulo how many there
            /// are): `unregister` + drop the request.
            Cancel { nth: usize },
            /// Complete the `nth` posted receive through the request
            /// table alone, as the failure scan does: the engine keeps
            /// a stale entry until it meets it or is pruned.
            CompleteElsewhere { nth: usize },
            /// `prune`, as the failure scan does after completing.
            Prune,
        }

        /// Posts outnumber arrivals so the list outgrows `SHORT_LIST`
        /// and the 40 keys' bins hold several entries each; five posts
        /// in eight are exact.
        fn op_strategy() -> impl Strategy<Value = Op> {
            (0u8..16, 0u64..2, 0usize..5, 0i32..4, 0u8..8, 0usize..64).prop_map(
                |(kind, ctx, src, tag, wild, n)| {
                    let src_sel = (wild != 0 && wild != 2).then_some(src);
                    let tag_sel = (wild != 1 && wild != 2).then_some(tag);
                    match kind {
                        0..=6 => Op::Post { ctx, src: src_sel, tag: tag_sel },
                        7..=11 => Op::Ingest { ctx, src, tag },
                        12 => Op::Take { ctx, src: src_sel, tag: tag_sel, pick: n },
                        13 => Op::Cancel { nth: n },
                        14 => Op::CompleteElsewhere { nth: n },
                        _ => Op::Prune,
                    }
                },
            )
        }

        fn to_spec(ctx: ContextId, src: Option<CommRank>, tag: Option<i32>) -> MatchSpec {
            MatchSpec {
                context: ctx,
                src: src.map_or(SrcSel::Any, |s| SrcSel::Exact(s, 0)),
                tag: tag.map_or(TagSel::Any, TagSel::Exact),
            }
        }

        /// Matching-relevant projection of an [`Envelope`]. The
        /// reference model only ever looks at these four fields, so it
        /// tracks this `Copy` header instead of cloning whole
        /// envelopes (payload allocation and all) on every ingest.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct RefEnv {
            src_comm: CommRank,
            context: ContextId,
            tag: i32,
            seq: u64,
        }

        impl RefEnv {
            fn of(e: &Envelope) -> Self {
                RefEnv { src_comm: e.src_comm, context: e.context, tag: e.tag, seq: e.seq }
            }

            /// Same predicate as `MatchSpec::matches`, composed from
            /// the real selector primitives so the reference cannot
            /// drift from the engine's match semantics.
            fn matched_by(self, spec: &MatchSpec) -> bool {
                spec.context == self.context
                    && spec.src.matches(self.src_comm)
                    && spec.tag.matches(self.tag)
            }
        }

        /// The pre-optimization `take_unexpected_with`: one linear scan
        /// collecting per-sender head positions with `Vec::contains`
        /// dedup, for *every* receive — the executable spec the indexed
        /// fast paths must stay equivalent to.
        fn reference_take(
            unexpected: &mut Vec<RefEnv>,
            spec: &MatchSpec,
            pick: usize,
        ) -> Option<RefEnv> {
            let mut firsts: Vec<usize> = Vec::new();
            let mut seen: Vec<CommRank> = Vec::new();
            for (pos, env) in unexpected.iter().enumerate() {
                if env.matched_by(spec) && !seen.contains(&env.src_comm) {
                    seen.push(env.src_comm);
                    firsts.push(pos);
                }
            }
            let pos = match firsts.len() {
                0 => return None,
                1 => firsts[0],
                n => firsts[pick.min(n - 1)],
            };
            Some(unexpected.remove(pos))
        }

        /// The executable spec of `ingest`: one queue of pending
        /// receives in post order, scanned front to back, first match
        /// wins, else queue as unexpected.
        fn reference_ingest(
            posted: &mut Vec<(Request, MatchSpec)>,
            unexpected: &mut Vec<RefEnv>,
            env: RefEnv,
        ) -> Option<Request> {
            if let Some(i) = posted.iter().position(|(_, s)| env.matched_by(s)) {
                Some(posted.remove(i).0)
            } else {
                unexpected.push(env);
                None
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

            /// Equivalence under load: for any interleaving of posts,
            /// arrivals, takes, cancels, completions behind the
            /// engine's back and prunes, the engine consumes the
            /// *identical* envelope sequence (by seq number), completes
            /// the identical requests, and leaves the identical posted
            /// and unexpected queues behind as the linear-scan
            /// reference.
            #[test]
            fn optimized_matching_equals_linear_scan_reference(
                ops in prop::collection::vec(op_strategy(), 256usize..512),
            ) {
                let mut eng = MatchEngine::default();
                let mut table = ReqTable::default();
                let mut ref_posted: Vec<(Request, MatchSpec)> = Vec::new();
                let mut ref_unexpected: Vec<RefEnv> = Vec::new();
                let mut seq = 0u64;
                let mut deepest_bin = 0;

                for op in ops {
                    match op {
                        Op::Post { ctx, src, tag } => {
                            let spec = to_spec(ctx, src, tag);
                            let req = table.insert(ReqBody::Recv(spec), ReqState::Pending);
                            eng.register(req, spec);
                            ref_posted.push((req, spec));
                            deepest_bin = deepest_bin
                                .max(eng.bins.values().map(VecDeque::len).max().unwrap_or(0));
                        }
                        Op::Ingest { ctx, src, tag } => {
                            seq += 1;
                            let mut e = env(src, ctx, tag, b"");
                            e.seq = seq;
                            // Reference first, on the Copy header; then
                            // the envelope moves into the engine —
                            // zero clones per delivery.
                            let want = reference_ingest(
                                &mut ref_posted,
                                &mut ref_unexpected,
                                RefEnv::of(&e),
                            );
                            let got = eng.ingest(&mut table, e);
                            prop_assert_eq!(got, want, "ingest completed a different request");
                        }
                        Op::Take { ctx, src, tag, pick } => {
                            let spec = to_spec(ctx, src, tag);
                            let got = eng.take_unexpected_with(&spec, |_| pick);
                            let want = reference_take(&mut ref_unexpected, &spec, pick);
                            match (got, want) {
                                (None, None) => {}
                                (Some((_, meta)), Some(e)) => {
                                    prop_assert_eq!(meta.seq, e.seq, "took a different envelope");
                                    prop_assert_eq!(meta.src, e.src_comm);
                                    prop_assert_eq!(meta.tag, e.tag);
                                }
                                (got, want) => prop_assert!(
                                    false,
                                    "take diverged: engine {:?}, reference {:?}",
                                    got.map(|(_, m)| m.seq),
                                    want.map(|e| e.seq)
                                ),
                            }
                        }
                        Op::Cancel { nth } if !ref_posted.is_empty() => {
                            let (req, spec) = ref_posted.remove(nth % ref_posted.len());
                            eng.unregister(req, &spec);
                            table.remove(req).unwrap();
                        }
                        Op::CompleteElsewhere { nth } if !ref_posted.is_empty() => {
                            let (req, _) = ref_posted.remove(nth % ref_posted.len());
                            table.complete_if_pending(req, Err(Error::RankFailStop { rank: 0 }));
                        }
                        Op::Cancel { .. } | Op::CompleteElsewhere { .. } => {}
                        Op::Prune => eng.prune(&table),
                    }
                    let binned: usize = eng.bins.values().map(VecDeque::len).sum();
                    prop_assert_eq!(eng.binned, binned, "bin count drifted");
                }

                // Residual queues identical, element for element: the
                // pending receives in post order, the unexpected
                // messages in arrival order.
                let left: Vec<Request> = eng
                    .posted_in_order()
                    .iter()
                    .filter(|p| table.is_pending(p.req))
                    .map(|p| p.req)
                    .collect();
                let right: Vec<Request> = ref_posted.iter().map(|(r, _)| *r).collect();
                prop_assert_eq!(left, right, "residual posted queues diverged");
                let left: Vec<u64> = eng.unexpected.iter().map(|e| e.seq).collect();
                let right: Vec<u64> = ref_unexpected.iter().map(|e| e.seq).collect();
                prop_assert_eq!(left, right, "residual unexpected queues diverged");
                prop_assert!(eng.bins.values().all(|bin| !bin.is_empty()), "empty bin kept");
                // The generator reaches what the test is for.
                prop_assert!(deepest_bin >= 2, "no bin ever held two receives");
            }
        }
    }

    #[test]
    fn prune_removes_non_pending() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let s = spec(0, SrcSel::Any, TagSel::Any);
        let r = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r, s);
        table.complete_if_pending(r, Ok(Completion::send()));
        eng.prune(&table);
        assert!(eng.posted_in_order().is_empty());
    }
}
