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
//! * the **bins** ([`Bins`]), an open-addressed table holding each
//!   exact `(context, source, tag)` receive under its key's hash, the
//!   receives of one key in post order along its probe sequence. An
//!   arriving envelope names one key, so its bin's head is one probe
//!   however many other receives are posted.
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
//! `ftmpi.matching.posted_d16_ns` / `posted_d256_ns` probes against
//! `ftmpi.pt2pt.self_roundtrip_ns`, in builds that put every exact
//! receive in the list and in the bins, a message pays ≈ 1 ns per list
//! entry it passes and ≈ 7 ns for the bin route (a hash, one probe at
//! post and one at match): break-even near seven entries. Eight sits
//! there, within the probes' ±10 ns spread, and keeps the codes that
//! hold one to four receives posted — the ring, the stencil, the
//! consensus protocols — off the bins altogether; because a message
//! passes the list's older entries before its bin can win, eight also
//! caps what a deep queue pays for the list at ≈ 8 ns a message. At
//! depth 16 and 256 a round trip reads the same, ≈ 15–20 ns above the
//! empty queue's.
//!
//! Entries whose request was completed or dropped elsewhere (the
//! failure scan completes through the request table) are skipped or
//! dropped where they are met and removed by [`MatchEngine::prune`].
//! The bins hold receives, never keys: what they keep is bounded by the
//! receives binned, and their table, once grown to the workload, is
//! reused, so a steady post / match cycle allocates nothing.
//!
//! Poisoned envelopes (collective-abandonment notifications, see the
//! `collective` module) match like data but complete the receive with
//! `RankFailStop`.

use std::collections::VecDeque;
use std::hash::Hasher;

use crate::error::Error;
use crate::message::{ContextId, Envelope};
use crate::rank::CommRank;
use crate::request::{ReqState, ReqTable, Request};
use crate::tag::{Tag, TagSel};

/// Source selector for a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcSel {
    /// Match this communicator rank only, and only messages its
    /// incarnation of this `u32` generation sent: the one it had when
    /// the receive was posted, which the failure verdict watches too
    /// (`CommData::incarnation_state`). A message a dead incarnation
    /// left queued never completes a receive posted on its successor.
    /// The generation sits in the padding beside the rank, so a
    /// [`Posted`] stays 48 bytes.
    Exact(CommRank, u32),
    /// `MPI_ANY_SOURCE`: any sender, any generation.
    Any,
}

impl SrcSel {
    pub(crate) fn matches(self, src: CommRank, gen: u32) -> bool {
        match self {
            SrcSel::Exact(s, g) => s == src && g == gen,
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
        self.context == env.context
            && self.tag.matches(env.tag)
            && self.src.matches(env.src_comm, env.gen)
    }
}

/// What a matched envelope completes its receive with.
fn completion_for(env: Envelope) -> ReqState {
    if env.poison {
        ReqState::Failed(Error::RankFailStop { rank: env.src_comm })
    } else {
        let src = u32::try_from(env.src_comm).expect("communicator rank fits 32 bits");
        ReqState::Received { src, tag: env.tag, data: env.payload }
    }
}

/// Identity of an envelope consumed from the unexpected queue (for
/// tracing the match).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TakenMeta {
    pub src: CommRank,
    pub context: ContextId,
    pub tag: crate::tag::Tag,
    pub seq: u32,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BinKey {
    context: ContextId,
    src: CommRank,
    tag: Tag,
    gen: u32,
}

impl BinKey {
    /// The one key `env` can match a binned receive under.
    fn of(env: &Envelope) -> Self {
        BinKey { context: env.context, src: env.src_comm, tag: env.tag, gen: env.gen }
    }

    /// The key of an exact receive; `None` for a wildcard.
    fn exact(spec: &MatchSpec) -> Option<Self> {
        match (spec.src, spec.tag) {
            (SrcSel::Exact(src, gen), TagSel::Exact(tag)) => {
                Some(BinKey { context: spec.context, src, tag, gen })
            }
            _ => None,
        }
    }

    /// The key's hash as [`Bins`] stores it: never zero, which marks
    /// an empty slot.
    fn hash(&self) -> u32 {
        let mut h = KeyHasher::default();
        h.word(self.context);
        h.word(self.src as u64 | u64::from(self.gen) << 32);
        h.word(u64::from(self.tag as u32));
        h.finish() as u32 | 1 << 31
    }
}

/// The exact receives past the short list: one entry per receive in an
/// open-addressed table, probed linearly from its key's hash. An entry
/// is the [`Posted`] itself, so posting one probes once and writes
/// once, and matching one probes once and removes it where it was
/// found: no per-key container is made, emptied or kept.
///
/// Receives of one key share a home slot, so they stand in post order
/// along its probe sequence: an insert goes to the first free slot past
/// every entry already there, and removal shifts later entries back
/// without reordering them (backward-shift deletion, no tombstones).
/// Growth re-inserts from a free slot onwards, which walks each run of
/// occupied slots from its start and keeps that order too. So the first
/// entry of a key met on a probe is its oldest receive: a bin's head.
///
/// What the table holds is the receives themselves; its capacity
/// doubles while more than half is occupied and is kept across
/// rounds, so a steady post / match cycle allocates nothing.
#[derive(Default)]
struct Bins {
    /// Per slot: the stored [`BinKey::hash`], or 0 if empty. A probe
    /// reads these and touches an entry only on an equal hash.
    hashes: Vec<u32>,
    /// Per slot: the receive, meaningful where `hashes` is not 0.
    entries: Vec<Posted>,
    /// Occupied slots.
    len: usize,
}

/// What an empty slot of [`Bins::entries`] holds.
const VACANT: Posted = Posted {
    seq: 0,
    req: Request { idx: 0, gen: 0 },
    spec: MatchSpec { context: 0, src: SrcSel::Any, tag: TagSel::Any },
};

impl Bins {
    /// Smallest table the first binned receive makes.
    const MIN_SLOTS: usize = 16;

    fn mask(&self) -> usize {
        self.hashes.len() - 1
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.hashes.fill(0);
            self.len = 0;
        }
    }

    /// Bin `p` under `key` behind every receive of that key already
    /// binned.
    fn insert(&mut self, key: &BinKey, p: Posted) {
        if 2 * (self.len + 1) > self.hashes.len() {
            self.grow();
        }
        self.place(key.hash(), p);
    }

    fn place(&mut self, hash: u32, p: Posted) {
        let mask = self.mask();
        let mut i = hash as usize & mask;
        while self.hashes[i] != 0 {
            i = (i + 1) & mask;
        }
        self.hashes[i] = hash;
        self.entries[i] = p;
        self.len += 1;
    }

    /// Double the table (to [`Bins::MIN_SLOTS`] from nothing),
    /// re-inserting every entry in probe order.
    fn grow(&mut self) {
        let slots = (2 * self.hashes.len()).max(Self::MIN_SLOTS);
        let hashes = std::mem::replace(&mut self.hashes, vec![0; slots]);
        let entries = std::mem::replace(&mut self.entries, vec![VACANT; slots]);
        self.len = 0;
        // Start past a free slot, so each run is walked from its start.
        let start = hashes.iter().position(|&h| h == 0).unwrap_or(0);
        for k in 0..hashes.len() {
            let i = (start + k) % hashes.len();
            if hashes[i] != 0 {
                self.place(hashes[i], entries[i]);
            }
        }
    }

    /// Slot of the first entry on `key`'s probe sequence that `hit`
    /// accepts, walking the entries stored under `key`'s hash.
    fn find(&self, key: &BinKey, mut hit: impl FnMut(&Posted) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let (hash, mask) = (key.hash(), self.mask());
        let mut i = hash as usize & mask;
        while self.hashes[i] != 0 {
            if self.hashes[i] == hash && hit(&self.entries[i]) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Take the entry in slot `hole` out, shifting the rest of its run
    /// back into the gap where their home slots allow.
    fn remove(&mut self, mut hole: usize) -> Posted {
        let out = self.entries[hole];
        self.hashes[hole] = 0;
        self.len -= 1;
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let hash = self.hashes[j];
            if hash == 0 {
                return out;
            }
            // The entry at `j` may move back to `hole` unless its home
            // lies cyclically in (hole, j].
            let home = hash as usize & mask;
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.hashes[hole] = hash;
                self.entries[hole] = self.entries[j];
                self.hashes[j] = 0;
                hole = j;
            }
        }
    }

    /// Every binned receive, in slot order.
    fn iter(&self) -> impl Iterator<Item = &Posted> {
        self.hashes.iter().zip(&self.entries).filter(|(&h, _)| h != 0).map(|(_, p)| p)
    }

    /// Remove every entry `keep` rejects.
    fn retain(&mut self, mut keep: impl FnMut(&Posted) -> bool) {
        let mut i = 0;
        while i < self.hashes.len() {
            // A removal shifts a later entry into `i`: look again. No
            // entry not yet looked at moves below `i`.
            if self.hashes[i] != 0 && !keep(&self.entries[i]) {
                self.remove(i);
            } else {
                i += 1;
            }
        }
    }
}

/// Hasher for [`BinKey`], the rendezvous board's rounds and a
/// communicator's recognized ranks: one multiply-rotate per fixed-width
/// field (the Fx scheme), against SipHash's per-byte rounds. The keys
/// are this program's own contexts, ranks and tags, not outside input,
/// so collision resistance buys nothing here.
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
    fn write_u32(&mut self, w: u32) {
        self.word(u64::from(w));
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
    /// Pending exact receives past the short list.
    bins: Bins,
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
        self.bins.clear();
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
    ) -> Option<crate::error::Result<crate::request::Completion>> {
        self.take_unexpected_with(spec, |_| 0).map(|(state, _)| state.into_result())
    }

    /// Try to satisfy a new receive from the unexpected queue. If a
    /// message matches, it is removed and the receive's final state
    /// returned; otherwise the caller must insert a pending request and
    /// register it via [`MatchEngine::register`].
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
    ) -> Option<(ReqState, TakenMeta)> {
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
            Some(key) if self.ordered.len() >= SHORT_LIST => self.bins.insert(&key, posted),
            _ => self.ordered.push(posted),
        }
    }

    /// Remove a receive posted with `spec` from wherever it stands
    /// (cancel).
    pub(crate) fn unregister(&mut self, req: Request, spec: &MatchSpec) {
        self.fresh.retain(|p| p.req != req);
        let binned = BinKey::exact(spec).and_then(|key| self.bins.find(&key, |p| p.req == req));
        if let Some(i) = binned {
            self.bins.remove(i);
            return;
        }
        self.ordered.retain(|p| p.req != req);
    }

    /// Slot of the oldest pending receive binned under `env`'s key,
    /// dropping receives of that key completed elsewhere on the way.
    fn bin_head(&mut self, table: &ReqTable, env: &Envelope) -> Option<usize> {
        let key = BinKey::of(env);
        loop {
            let i = self.bins.find(&key, |p| p.spec.matches(env))?;
            if table.is_pending(self.bins.entries[i].req) {
                return Some(i);
            }
            self.bins.remove(i);
        }
    }

    /// Ingest one arriving envelope: complete the earliest-posted
    /// pending receive that matches it — the lower sequence number of
    /// its bin's head and the first match in the list — else queue it
    /// as unexpected. Returns the request that completed, if any.
    pub(crate) fn ingest(&mut self, table: &mut ReqTable, env: Envelope) -> Option<Request> {
        // Fast path: nothing posted (the common case while draining a
        // burst) — straight to the unexpected queue, no table traffic.
        if self.ordered.is_empty() && self.bins.len == 0 {
            self.unexpected.push_back(env);
            return None;
        }
        let head = self.bin_head(table, &env);
        // A list entry posted after the bin's head cannot win.
        let older = head.map_or(u64::MAX, |i| self.bins.entries[i].seq);
        let in_list = self
            .ordered
            .iter()
            .take_while(|p| p.seq < older)
            .position(|p| p.spec.matches(&env) && table.is_pending(p.req));
        let req = match (in_list, head) {
            (Some(i), _) => self.ordered.remove(i).req,
            (None, Some(i)) => self.bins.remove(i).req,
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
        self.bins.retain(|p| table.is_pending(p.req));
    }

    /// Every posted receive, in post order. With nothing binned that
    /// is the list as it stands; otherwise list and bins are merged by
    /// sequence number into a buffer kept on the engine, so the order
    /// never depends on how the table happens to be laid out.
    pub(crate) fn posted_in_order(&mut self) -> &[Posted] {
        if self.bins.len == 0 {
            return &self.ordered;
        }
        self.scratch_posted.clear();
        self.scratch_posted.extend(self.ordered.iter().chain(self.bins.iter()));
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
    use crate::request::Completion;
    use bytes::Bytes;

    /// Consume `r`, which must be done, as `Process::consume` does.
    fn taken(table: &mut ReqTable, r: Request) -> crate::error::Result<Completion> {
        table.take(r).unwrap().1.into_result()
    }

    fn env(src: CommRank, ctx: ContextId, tag: i32, payload: &'static [u8]) -> Envelope {
        Envelope {
            src_comm: src,
            context: ctx,
            tag,
            payload: Bytes::from_static(payload),
            seq: 0,
            gen: 0,
            poison: false,
        }
    }

    fn spec(ctx: ContextId, src: SrcSel, tag: TagSel) -> MatchSpec {
        MatchSpec { context: ctx, src, tag }
    }

    /// Binned receives that are still pending.
    fn live_binned(eng: &MatchEngine, table: &ReqTable) -> usize {
        eng.bins.iter().filter(|p| table.is_pending(p.req)).count()
    }

    /// The posted list is scanned at depth: the peer's generation rides
    /// in `SrcSel::Exact`'s padding, not in a wider entry.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_posted_receive_stays_48_bytes() {
        assert_eq!(std::mem::size_of::<SrcSel>(), 16);
        assert_eq!(std::mem::size_of::<Posted>(), 48);
    }

    /// Envelopes queue by the hundred in mailboxes and the unexpected
    /// queue: the sender's generation fits beside a 32-bit `seq`.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn an_envelope_stays_72_bytes() {
        assert_eq!(std::mem::size_of::<Envelope>(), 72);
    }

    /// A receive naming its source matches only the generation it was
    /// posted for, whether the older generation's message waits in the
    /// unexpected queue or arrives at a receive in the list or in a
    /// bin; `ANY_SOURCE` takes either.
    #[test]
    fn an_exact_receive_skips_an_older_generations_message() {
        let from = |gen: u32, payload: &'static [u8]| Envelope { gen, ..env(1, 0, 5, payload) };
        let successor = spec(0, SrcSel::Exact(1, 1), TagSel::Exact(5));
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        eng.ingest(&mut table, from(0, b"stale"));
        assert!(eng.take_unexpected(&successor).is_none(), "queued stale message taken");
        for depth in [0, SHORT_LIST] {
            let mut reqs = Vec::new();
            for tag in 100..100 + depth as i32 {
                let s = spec(0, SrcSel::Exact(2, 0), TagSel::Exact(tag));
                let r = table.insert(Some(0), ReqState::Posted(s));
                eng.register(r, s);
                reqs.push((r, s));
            }
            let r = table.insert(Some(0), ReqState::Posted(successor));
            eng.register(r, successor);
            assert_eq!(eng.bins.len, usize::from(depth > 0), "posted where the depth puts it");
            assert_eq!(eng.ingest(&mut table, from(0, b"stale")), None, "depth {depth}");
            assert_eq!(eng.ingest(&mut table, from(1, b"fresh")), Some(r), "depth {depth}");
            let c = taken(&mut table, r).unwrap();
            assert_eq!(&c.data[..], b"fresh");
            for (r, s) in reqs {
                eng.unregister(r, &s);
                table.remove(r).unwrap();
            }
        }
        assert_eq!(eng.unexpected.len(), 3, "every stale message stays queued");
        let any = spec(0, SrcSel::Any, TagSel::Exact(5));
        let c = eng.take_unexpected(&any).unwrap().unwrap();
        assert_eq!(&c.data[..], b"stale");
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
        let r1 = table.insert(Some(0), ReqState::Posted(s));
        eng.register(r1, s);
        let r2 = table.insert(Some(0), ReqState::Posted(s));
        eng.register(r2, s);

        let hit = eng.ingest(&mut table, env(2, 0, 1, b"a")).unwrap();
        assert_eq!(hit, r1, "earliest posted receive matches first");
        let hit = eng.ingest(&mut table, env(2, 0, 1, b"b")).unwrap();
        assert_eq!(hit, r2);
        assert_eq!(&taken(&mut table, r1).unwrap().data[..], b"a");
        assert_eq!(&taken(&mut table, r2).unwrap().data[..], b"b");
    }

    #[test]
    fn context_isolates_matching() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let s = spec(7, SrcSel::Any, TagSel::Any);
        let r = table.insert(Some(0), ReqState::Posted(s));
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
        let r = table.insert(Some(0), ReqState::Posted(s));
        eng.register(r, s);
        assert_eq!(eng.ingest(&mut table, env(9, 0, 1234, b"z")), Some(r));
        let c = taken(&mut table, r).unwrap();
        assert_eq!(c.status.source, Some(9));
        assert_eq!(c.status.tag, 1234);
    }

    #[test]
    fn poison_completes_with_rank_fail_stop() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let s = spec(0, SrcSel::Exact(3, 0), TagSel::Exact(0));
        let r = table.insert(Some(0), ReqState::Posted(s));
        eng.register(r, s);
        let mut e = env(3, 0, 0, b"");
        e.poison = true;
        eng.ingest(&mut table, e);
        match taken(&mut table, r) {
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
        let r = table.insert(Some(0), ReqState::Posted(s));
        eng.register(r, s);
        eng.ingest(&mut table, env(1, 0, 0, b"b"));
        assert_eq!(&taken(&mut table, r).unwrap().data[..], b"b");
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
                let r = table.insert(Some(0), ReqState::Posted(s));
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
            assert_eq!(eng.bins.len, if fillers == 0 { 0 } else { 2 });
            let hits: Vec<_> =
                (0..3).map(|_| eng.ingest(&mut table, env(1, 0, 5, b"")).unwrap()).collect();
            assert_eq!(hits, vec![first, wild, second], "behind {fillers} fillers");
            assert!(eng.ingest(&mut table, env(1, 0, 5, b"")).is_none());
            // Retained bin state: no more than the live binned
            // receives, none here, in a table of the smallest size.
            assert!(eng.bins.len <= live_binned(&eng, &table), "a matched receive kept");
            assert!(eng.bins.hashes.len() <= Bins::MIN_SLOTS);
        }
    }

    /// The fan-in shape at depth: 768 exact receives posted in reverse
    /// tag order, matched in ascending order, round after round. Once
    /// the first round has grown the list, the bins' table and the
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
                    let r = table.insert(Some(0), ReqState::Posted(s));
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
                taken(&mut table, *r).unwrap();
            }
            assert_eq!((eng.bins.len, eng.ordered.len(), eng.unexpected.len()), (0, 0, 0));
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

    /// Ten thousand distinct keys pass through the bins, each posted
    /// and matched while a few others are live: the bins hold the live
    /// receives and nothing per key they have seen, so the table never
    /// grows past its first size and the run allocates nothing.
    #[test]
    fn ten_thousand_distinct_keys_leave_no_state_behind() {
        const LIVE: i32 = 4;
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let filler = spec(9, SrcSel::Any, TagSel::Any);
        for _ in 0..SHORT_LIST {
            let r = table.insert(Some(0), ReqState::Posted(filler));
            eng.register(r, filler);
        }
        let post = |eng: &mut MatchEngine, table: &mut ReqTable, tag: i32| {
            let s = spec(0, SrcSel::Exact(1, 0), TagSel::Exact(tag));
            let r = table.insert(Some(0), ReqState::Posted(s));
            eng.register(r, s);
            eng.clear_fresh();
        };
        for tag in 0..LIVE {
            post(&mut eng, &mut table, tag);
        }
        let mut cycle = |eng: &mut MatchEngine, tag: i32| {
            post(eng, &mut table, tag + LIVE);
            let r = eng.ingest(&mut table, env(1, 0, tag, b"")).expect("binned receive matched");
            taken(&mut table, r).unwrap();
            assert_eq!(eng.bins.len, LIVE as usize);
        };
        // The first cycle grows the request table by its one slot.
        cycle(&mut eng, 0);
        let (slots, before) = (eng.bins.hashes.len(), allocstats::snapshot());
        for tag in 1..10_000 {
            cycle(&mut eng, tag);
        }
        assert_eq!(allocstats::snapshot().since(&before).allocs, 0, "the bins grew with the keys");
        assert_eq!(eng.bins.hashes.len(), slots);
        assert_eq!(slots, Bins::MIN_SLOTS);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// One step of a random matching workload.
        #[derive(Debug, Clone)]
        enum Op {
            /// Post a receive (`None` = ANY_SOURCE / ANY_TAG); an
            /// exact source names generation `gen` of its rank.
            Post { ctx: ContextId, src: Option<CommRank>, gen: u32, tag: Option<i32> },
            /// Deliver an envelope generation `gen` of `src` sent.
            Ingest { ctx: ContextId, src: CommRank, gen: u32, tag: i32 },
            /// Try to consume from the unexpected queue; `pick` seeds
            /// the ANY_SOURCE sender choice.
            Take {
                ctx: ContextId,
                src: Option<CommRank>,
                gen: u32,
                tag: Option<i32>,
                pick: usize,
            },
            /// Cancel the `nth` posted receive (modulo how many there
            /// are): `unregister` + drop the request.
            Cancel { nth: usize },
            /// Complete the `nth` posted receive through the request
            /// table alone, as the failure scan does: the engine keeps
            /// a stale entry until it meets it or is pruned.
            CompleteElsewhere { nth: usize },
            /// `prune`, as the failure scan does after completing.
            Prune,
            /// `reset` engine and table, as a pooled worker does
            /// between runs.
            Reset,
        }

        /// Posts outnumber arrivals so the list outgrows `SHORT_LIST`
        /// and the 40 keys' bins hold several entries each; five posts
        /// in eight are exact. Senders come in two generations, one in
        /// four messages from the older, as a respawned rank's
        /// predecessor leaves them.
        fn op_strategy() -> impl Strategy<Value = Op> {
            (0u8..16, 0u64..2, 0usize..5, 0i32..4, 0u8..8, 0usize..64, 0u8..4).prop_map(
                |(kind, ctx, src, tag, wild, n, g)| {
                    let src_sel = (wild != 0 && wild != 2).then_some(src);
                    let tag_sel = (wild != 1 && wild != 2).then_some(tag);
                    let gen = u32::from(g != 0);
                    match kind {
                        0..=6 => Op::Post { ctx, src: src_sel, gen, tag: tag_sel },
                        7..=11 => Op::Ingest { ctx, src, gen, tag },
                        12 => Op::Take { ctx, src: src_sel, gen, tag: tag_sel, pick: n },
                        13 => Op::Cancel { nth: n },
                        14 => Op::CompleteElsewhere { nth: n },
                        _ => Op::Prune,
                    }
                },
            )
        }

        fn to_spec(
            ctx: ContextId,
            src: Option<CommRank>,
            gen: u32,
            tag: Option<i32>,
        ) -> MatchSpec {
            MatchSpec {
                context: ctx,
                src: src.map_or(SrcSel::Any, |s| SrcSel::Exact(s, gen)),
                tag: tag.map_or(TagSel::Any, TagSel::Exact),
            }
        }

        /// Matching-relevant projection of an [`Envelope`]. The
        /// reference model only ever looks at these five fields, so it
        /// tracks this `Copy` header instead of cloning whole
        /// envelopes (payload allocation and all) on every ingest.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct RefEnv {
            src_comm: CommRank,
            gen: u32,
            context: ContextId,
            tag: i32,
            seq: u32,
        }

        impl RefEnv {
            fn of(e: &Envelope) -> Self {
                let (src_comm, gen, context, tag, seq) = (e.src_comm, e.gen, e.context, e.tag, e.seq);
                RefEnv { src_comm, gen, context, tag, seq }
            }

            /// Same predicate as `MatchSpec::matches`, composed from
            /// the real selector primitives so the reference cannot
            /// drift from the engine's match semantics.
            fn matched_by(self, spec: &MatchSpec) -> bool {
                spec.context == self.context
                    && spec.src.matches(self.src_comm, self.gen)
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

        /// The engine and the linear-scan reference, driven op by op.
        #[derive(Default)]
        struct Harness {
            eng: MatchEngine,
            table: ReqTable,
            ref_posted: Vec<(Request, MatchSpec)>,
            ref_unexpected: Vec<RefEnv>,
            seq: u32,
            /// Receives completed behind the engine's back since the
            /// last prune or reset: the stale entries it may still hold.
            behind_back: usize,
            /// Most receives of one key binned at once.
            deepest_bin: usize,
            /// Cancels and completions elsewhere that hit a binned
            /// receive.
            binned_cancels: usize,
            binned_completions: usize,
        }

        impl Harness {
            fn is_binned(&self, req: Request) -> bool {
                self.eng.bins.iter().any(|p| p.req == req)
            }

            fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
                match op {
                    Op::Post { ctx, src, gen, tag } => {
                        let spec = to_spec(ctx, src, gen, tag);
                        let req = self.table.insert(Some(0), ReqState::Posted(spec));
                        self.eng.register(req, spec);
                        self.ref_posted.push((req, spec));
                        if let Some(key) = BinKey::exact(&spec) {
                            let same = |p: &&Posted| BinKey::exact(&p.spec) == Some(key);
                            let depth = self.eng.bins.iter().filter(same).count();
                            self.deepest_bin = self.deepest_bin.max(depth);
                        }
                    }
                    Op::Ingest { ctx, src, gen, tag } => {
                        self.seq += 1;
                        let mut e = env(src, ctx, tag, b"");
                        e.seq = self.seq;
                        e.gen = gen;
                        // Reference first, on the Copy header; then
                        // the envelope moves into the engine —
                        // zero clones per delivery.
                        let want = reference_ingest(
                            &mut self.ref_posted,
                            &mut self.ref_unexpected,
                            RefEnv::of(&e),
                        );
                        let got = self.eng.ingest(&mut self.table, e);
                        prop_assert_eq!(got, want, "ingest completed a different request");
                    }
                    Op::Take { ctx, src, gen, tag, pick } => {
                        let spec = to_spec(ctx, src, gen, tag);
                        let got = self.eng.take_unexpected_with(&spec, |_| pick);
                        let want = reference_take(&mut self.ref_unexpected, &spec, pick);
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
                    Op::Cancel { nth } if !self.ref_posted.is_empty() => {
                        let (req, spec) = self.ref_posted.remove(nth % self.ref_posted.len());
                        self.binned_cancels += usize::from(self.is_binned(req));
                        self.eng.unregister(req, &spec);
                        self.table.remove(req).unwrap();
                    }
                    Op::CompleteElsewhere { nth } if !self.ref_posted.is_empty() => {
                        let (req, _) = self.ref_posted.remove(nth % self.ref_posted.len());
                        self.binned_completions += usize::from(self.is_binned(req));
                        let failed = ReqState::Failed(Error::RankFailStop { rank: 0 });
                        self.table.complete_if_pending(req, failed);
                        self.behind_back += 1;
                    }
                    Op::Cancel { .. } | Op::CompleteElsewhere { .. } => {}
                    Op::Prune => {
                        self.eng.prune(&self.table);
                        self.behind_back = 0;
                    }
                    Op::Reset => {
                        self.eng.reset();
                        self.table.reset();
                        self.ref_posted.clear();
                        self.ref_unexpected.clear();
                        self.behind_back = 0;
                    }
                }
                let bins = &self.eng.bins;
                prop_assert_eq!(bins.len, bins.iter().count(), "bin count drifted");
                // Retained bin state is bounded by the live binned
                // receives plus those completed behind the engine's back
                // since it last pruned: nothing is kept for a receive
                // matched, cancelled or pruned, nor for a key.
                let live = live_binned(&self.eng, &self.table);
                prop_assert!(
                    bins.len <= live + self.behind_back,
                    "bins retain {} entries for {} live receives",
                    bins.len,
                    live
                );
                Ok(())
            }

            /// Residual queues identical, element for element: the
            /// pending receives in post order, the unexpected messages
            /// in arrival order.
            fn residuals_agree(&mut self) -> Result<(), TestCaseError> {
                let table = &self.table;
                let left: Vec<Request> = self
                    .eng
                    .posted_in_order()
                    .iter()
                    .filter(|p| table.is_pending(p.req))
                    .map(|p| p.req)
                    .collect();
                let right: Vec<Request> = self.ref_posted.iter().map(|(r, _)| *r).collect();
                prop_assert_eq!(left, right, "residual posted queues diverged");
                let left: Vec<u32> = self.eng.unexpected.iter().map(|e| e.seq).collect();
                let right: Vec<u32> = self.ref_unexpected.iter().map(|e| e.seq).collect();
                prop_assert_eq!(left, right, "residual unexpected queues diverged");
                Ok(())
            }
        }

        /// One round of the fan-in shape: `keys` tags from each of
        /// three senders, `copies` receives per key posted in reverse
        /// tag order, then every sender's messages in ascending tag
        /// order, interleaved by `turns`. `cancels` and `completions`
        /// disturb it: `(back, at)` takes the `back`-th newest receive
        /// after `at` arrivals (modulo the round's; the first of each
        /// before any, when the newest receives are binned). `reset`
        /// empties everything first.
        #[derive(Debug, Clone)]
        struct Round {
            reset: bool,
            keys: i32,
            copies: usize,
            turns: Vec<usize>,
            cancels: Vec<(usize, usize)>,
            completions: Vec<(usize, usize)>,
            prune_at: Option<usize>,
        }

        const SENDERS: CommRank = 3;

        fn round_strategy() -> impl Strategy<Value = Round> {
            let disturb = || prop::collection::vec((0usize..12, any::<usize>()), 1..4);
            (
                any::<bool>(),
                SHORT_LIST as i32..24,
                1usize..3,
                prop::collection::vec(0..SENDERS, 192..193),
                disturb(),
                disturb(),
                prop::option::of(any::<usize>()),
            )
                .prop_map(|(reset, keys, copies, turns, cancels, completions, prune_at)| Round {
                    reset,
                    keys,
                    copies,
                    turns,
                    cancels,
                    completions,
                    prune_at,
                })
        }

        impl Harness {
            fn round(&mut self, r: &Round) -> Result<(), TestCaseError> {
                if r.reset {
                    self.apply(Op::Reset)?;
                }
                for tag in (0..r.keys).rev() {
                    for src in 0..SENDERS {
                        for _ in 0..r.copies {
                            let (src, tag) = (Some(src), Some(tag));
                            self.apply(Op::Post { ctx: 0, src, gen: 0, tag })?;
                        }
                    }
                }
                // What each sender sends next, in ascending tag order;
                // one message per receive, and one more to queue.
                let mut next = [0usize; SENDERS];
                let per_sender = r.keys as usize * r.copies + 1;
                let arrivals = SENDERS * per_sender;
                let when = |i: usize, at: usize| if i == 0 { 0 } else { at % arrivals };
                let newest = |h: &Self, back: usize| h.ref_posted.len().saturating_sub(1 + back);
                let mut turns = r.turns.iter().copied();
                for arrival in 0.. {
                    for (i, &(back, at)) in r.cancels.iter().enumerate() {
                        if when(i, at) == arrival {
                            self.apply(Op::Cancel { nth: newest(self, back) })?;
                        }
                    }
                    for (i, &(back, at)) in r.completions.iter().enumerate() {
                        if when(i, at) == arrival {
                            self.apply(Op::CompleteElsewhere { nth: newest(self, back) })?;
                        }
                    }
                    if r.prune_at.map(|at| when(1, at)) == Some(arrival) {
                        self.apply(Op::Prune)?;
                    }
                    let pending = (0..SENDERS).filter(|&s| next[s] < per_sender);
                    let Some(src) = turns
                        .next()
                        .and_then(|t| pending.clone().find(|&s| s >= t))
                        .or_else(|| pending.clone().next())
                    else {
                        break;
                    };
                    let tag = (next[src] / r.copies) as i32;
                    next[src] += 1;
                    self.apply(Op::Ingest { ctx: 0, src, gen: 0, tag })?;
                }
                self.residuals_agree()
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
                let mut h = Harness::default();
                for op in ops {
                    h.apply(op)?;
                }
                h.residuals_agree()?;
                // The generator reaches what the test is for.
                prop_assert!(h.deepest_bin >= 2, "no bin ever held two receives");
            }

            /// The fan-in shape, round after round on one engine: the
            /// same exact keys re-posted past the short list, matched
            /// while binned receives are cancelled and bin heads are
            /// completed behind the engine's back, with or without a
            /// reset between rounds — equal to the reference throughout.
            #[test]
            fn reposted_keys_match_like_the_reference_round_after_round(
                rounds in prop::collection::vec(round_strategy(), 2..5),
            ) {
                let mut h = Harness::default();
                for r in &rounds {
                    h.round(r)?;
                }
                prop_assert!(h.binned_cancels > 0, "no cancel hit a binned receive");
                prop_assert!(h.binned_completions > 0, "no completion hit a binned receive");
            }
        }
    }

    #[test]
    fn prune_removes_non_pending() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let s = spec(0, SrcSel::Any, TagSel::Any);
        let r = table.insert(Some(0), ReqState::Posted(s));
        eng.register(r, s);
        table.complete_if_pending(r, ReqState::sent());
        eng.prune(&table);
        assert!(eng.posted_in_order().is_empty());
    }
}
