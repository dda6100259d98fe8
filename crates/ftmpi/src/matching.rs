//! MPI message matching: posted-receive queue + unexpected-message
//! queue.
//!
//! Matching follows the MPI rules: a receive matches a message when the
//! contexts are equal, the source selector accepts the sender's
//! communicator rank, and the tag selector accepts the tag. Posted
//! receives are considered in post order; unexpected messages in
//! arrival order. Combined with the transport's per-pair FIFO this
//! yields MPI's non-overtaking guarantee.
//!
//! Poisoned envelopes (collective-abandonment notifications, see the
//! `collective` module) match like data but complete the receive with
//! `RankFailStop`.

use std::collections::VecDeque;

use crate::error::Error;
use crate::message::{ContextId, Envelope};
use crate::rank::CommRank;
use crate::request::{Completion, ReqTable, Request};
use crate::status::Status;
use crate::tag::TagSel;

/// Source selector for a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcSel {
    /// Match this communicator rank only.
    Exact(CommRank),
    /// `MPI_ANY_SOURCE`.
    Any,
}

impl SrcSel {
    pub(crate) fn matches(self, src: CommRank) -> bool {
        match self {
            SrcSel::Exact(s) => s == src,
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

/// Per-process matching state.
#[derive(Default)]
pub(crate) struct MatchEngine {
    /// Messages that arrived before a matching receive was posted, in
    /// arrival order.
    unexpected: VecDeque<Envelope>,
    /// Pending receive requests in post order.
    posted: Vec<Request>,
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
        self.posted.clear();
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
            SrcSel::Exact(_) => {
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

    /// Register a pending receive in post order.
    pub(crate) fn register(&mut self, req: Request) {
        self.posted.push(req);
    }

    /// Remove a request from the posted list (cancel / completion by
    /// the failure scan).
    pub(crate) fn unregister(&mut self, req: Request) {
        self.posted.retain(|r| *r != req);
    }

    /// Ingest one arriving envelope: complete the first matching posted
    /// receive, else queue as unexpected. Returns the request that
    /// completed, if any.
    pub(crate) fn ingest(&mut self, table: &mut ReqTable, env: Envelope) -> Option<Request> {
        // Fast path: nothing posted (the common case while draining a
        // burst) — straight to the unexpected queue, no table traffic.
        if self.posted.is_empty() {
            self.unexpected.push_back(env);
            return None;
        }
        for (i, req) in self.posted.iter().copied().enumerate() {
            // The posted list may contain requests completed by the
            // failure scan but not yet pruned; skip them.
            if !table.is_pending(req) {
                continue;
            }
            let matches = match table.body(req) {
                Ok(crate::request::ReqBody::Recv(spec)) => spec.matches(&env),
                _ => false,
            };
            if matches {
                table.complete_if_pending(req, completion_for(env));
                self.posted.remove(i);
                return Some(req);
            }
        }
        self.unexpected.push_back(env);
        None
    }

    /// Prune posted entries that are no longer pending (completed by
    /// the failure scan, cancelled, or consumed).
    pub(crate) fn prune(&mut self, table: &ReqTable) {
        self.posted.retain(|r| table.is_pending(*r));
    }

    /// The pending posted requests, in post order. A borrow, not a
    /// snapshot: the failure scan only iterates, so the old
    /// full-`Vec` clone per scan was pure allocation churn.
    pub(crate) fn posted_slice(&self) -> &[Request] {
        &self.posted
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

    #[test]
    fn unexpected_then_post_matches_in_arrival_order() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        eng.ingest(&mut table, env(1, 0, 5, b"first"));
        eng.ingest(&mut table, env(1, 0, 5, b"second"));
        assert_eq!(eng.unexpected.len(), 2);

        let s = spec(0, SrcSel::Exact(1), TagSel::Exact(5));
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
        let s = spec(0, SrcSel::Exact(2), TagSel::Exact(1));
        let r1 = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r1);
        let r2 = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r2);

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
        eng.register(r);
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
        eng.register(r);
        assert_eq!(eng.ingest(&mut table, env(9, 0, 1234, b"z")), Some(r));
        let c = table.take(r).unwrap().unwrap();
        assert_eq!(c.status.source, Some(9));
        assert_eq!(c.status.tag, 1234);
    }

    #[test]
    fn poison_completes_with_rank_fail_stop() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let s = spec(0, SrcSel::Exact(3), TagSel::Exact(0));
        let r = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r);
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
        let s = spec(0, SrcSel::Exact(1), TagSel::Exact(0));
        let c = eng.take_unexpected(&s).unwrap().unwrap();
        assert_eq!(&c.data[..], b"a");
        let r = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r);
        eng.ingest(&mut table, env(1, 0, 0, b"b"));
        assert_eq!(&table.take(r).unwrap().unwrap().data[..], b"b");
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
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..2, prop::option::of(0usize..4), prop::option::of(0i32..3))
                    .prop_map(|(ctx, src, tag)| Op::Post { ctx, src, tag }),
                (0u64..2, 0usize..4, 0i32..3)
                    .prop_map(|(ctx, src, tag)| Op::Ingest { ctx, src, tag }),
                (0u64..2, prop::option::of(0usize..4), prop::option::of(0i32..3), 0usize..8)
                    .prop_map(|(ctx, src, tag, pick)| Op::Take { ctx, src, tag, pick }),
            ]
        }

        fn to_spec(ctx: ContextId, src: Option<CommRank>, tag: Option<i32>) -> MatchSpec {
            MatchSpec {
                context: ctx,
                src: src.map_or(SrcSel::Any, SrcSel::Exact),
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

        /// The pre-optimization `ingest`: scan posted receives in post
        /// order, first match wins, else queue as unexpected.
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
            /// arrivals and takes, the optimized engine consumes the
            /// *identical* envelope sequence (by seq number), completes
            /// the identical requests, and leaves the identical
            /// unexpected queue behind as the linear-scan reference.
            #[test]
            fn optimized_matching_equals_linear_scan_reference(
                ops in prop::collection::vec(op_strategy(), 0usize..64),
            ) {
                let mut eng = MatchEngine::default();
                let mut table = ReqTable::default();
                let mut ref_posted: Vec<(Request, MatchSpec)> = Vec::new();
                let mut ref_unexpected: Vec<RefEnv> = Vec::new();
                let mut seq = 0u64;

                for op in ops {
                    match op {
                        Op::Post { ctx, src, tag } => {
                            let spec = to_spec(ctx, src, tag);
                            let req = table.insert(ReqBody::Recv(spec), ReqState::Pending);
                            eng.register(req);
                            ref_posted.push((req, spec));
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
                    }
                }

                // Final unexpected queues identical, element for element.
                let left: Vec<u64> = eng.unexpected.iter().map(|e| e.seq).collect();
                let right: Vec<u64> = ref_unexpected.iter().map(|e| e.seq).collect();
                prop_assert_eq!(left, right, "residual unexpected queues diverged");
            }
        }
    }

    #[test]
    fn prune_removes_non_pending() {
        let mut eng = MatchEngine::default();
        let mut table = ReqTable::default();
        let s = spec(0, SrcSel::Any, TagSel::Any);
        let r = table.insert(ReqBody::Recv(s), ReqState::Pending);
        eng.register(r);
        table.complete(r, Ok(Completion::send()));
        eng.prune(&table);
        assert_eq!(eng.posted.len(), 0);
    }
}
