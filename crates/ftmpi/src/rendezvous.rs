//! The rendezvous board: how every collective that decides through
//! shared memory decides.
//!
//! `MPI_Comm_validate_all` is, per the proposal, "a fault tolerant
//! consensus algorithm" that "will return either success everywhere or
//! some error at each alive rank". This runtime substitutes one rule,
//! written once in [`Table`]: members arrive at round *n* of a
//! collective on a context, each with a submission, and the first to
//! arrive fixes who is **required**; once every required rank has
//! arrived or is failed, the first poller to see it **decides**, once,
//! and every member reads that cached decision, so agreement is uniform
//! by construction; rounds more than [`WINDOW`] behind a decision are
//! dropped. A collective is a required set and a `decide` function:
//!
//! | collective     | required         | submits        | decides                             |
//! |----------------|------------------|----------------|-------------------------------------|
//! | `validate_all` | the group        | —              | its failed members                  |
//! | `ibarrier`     | see [`crate::nbc`] | —            | required ranks dead before arriving |
//! | `comm_split`   | the parent group | `(color, key)` | a context per colour                |
//! | `comm_dup`     | nobody           | —              | the new context                     |
//!
//! `decide` for `validate_all` is the seam a message-passing agreement
//! (the `consensus` crate benchmarks two) would replace.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::detector::FailureRegistry;
use crate::group::Group;
use crate::matching::KeyHasher;
use crate::message::ContextId;
use crate::rank::WorldRank;
use crate::universe::WORLD_CTX;
use crate::unpoisoned;

/// Decided rounds kept per context behind the newest decision: members
/// move through rounds in lock-step, so 16 is generous.
const WINDOW: u64 = 16;

/// A round's key: its context and its number there.
pub(crate) type Key = (ContextId, u64);

/// One round of one collective on one context.
pub(crate) struct Round<S, D> {
    /// Who must arrive or fail before the round is decided.
    pub required: Group,
    /// Submissions by world rank, `None` until that rank arrives.
    pub arrived: Vec<Option<S>>,
    pub decision: Option<D>,
    /// The decision of a dropped round, for `decide` to reuse.
    reuse: Option<D>,
}

/// The rounds of one collective among `size` ranks: submissions `S`, decisions `D`.
pub(crate) struct Table<S, D> {
    size: usize,
    rounds: Mutex<Rounds<S, D>>,
}

/// A table's live rounds, and the buffers of the rounds it dropped: a
/// new round takes its submission slots and a decision to reuse from
/// there, so a warm board allocates nothing per round.
struct Rounds<S, D> {
    /// Hashed with [`KeyHasher`]: nothing iterates it in an
    /// order-dependent way.
    live: HashMap<Key, Round<S, D>, BuildHasherDefault<KeyHasher>>,
    spare: Vec<(Vec<Option<S>>, Option<D>)>,
}

impl<S, D> Rounds<S, D> {
    /// Drop `round`, keeping its buffers.
    fn retire(spare: &mut Vec<(Vec<Option<S>>, Option<D>)>, round: &mut Round<S, D>) {
        let decision = round.decision.take().or(round.reuse.take());
        spare.push((std::mem::take(&mut round.arrived), decision));
    }
}

impl<S, D: Clone> Table<S, D> {
    fn new(size: usize) -> Self {
        let rounds = Rounds { live: HashMap::default(), spare: Vec::new() };
        Table { size, rounds: Mutex::new(rounds) }
    }

    /// Drop every round, keeping the buffers (see `Shared::reset`).
    fn reset(&mut self) {
        let Rounds { live, spare } = unpoisoned(self.rounds.get_mut());
        for (_, mut round) in live.drain() {
            Rounds::retire(spare, &mut round);
        }
    }

    /// Arrive at round `key` as `me` (idempotent). The first arrival
    /// fixes the required set; `required` is shown the previous round
    /// if the board still holds it.
    pub(crate) fn join(
        &self, key: Key, me: WorldRank, sub: S,
        required: impl FnOnce(Option<&Round<S, D>>) -> Group,
    ) {
        let mut rounds = unpoisoned(self.rounds.lock());
        let Rounds { live, spare } = &mut *rounds;
        if !live.contains_key(&key) {
            let prev = key.1.checked_sub(1).and_then(|p| live.get(&(key.0, p)));
            let required = required(prev);
            let (mut arrived, reuse) = spare.pop().unwrap_or_default();
            arrived.clear();
            arrived.resize_with(self.size, || None);
            live.insert(key, Round { required, arrived, decision: None, reuse });
        }
        live.get_mut(&key).expect("just ensured").arrived[me].get_or_insert(sub);
    }

    /// The decision of round `key`, made by `decide` if this is the
    /// first poll to find every required rank arrived or failed; `None`
    /// while one is awaited. `decide` is handed a dropped round's
    /// decision to reuse, if there is one. Returns `(decision,
    /// newly_decided)`: the poller that decides must wake the
    /// universe's blocked members.
    pub(crate) fn poll(
        &self, key: Key, registry: &FailureRegistry,
        decide: impl FnOnce(&Round<S, D>, Option<D>) -> D,
    ) -> Option<(D, bool)> {
        let mut rounds = unpoisoned(self.rounds.lock());
        let Rounds { live, spare } = &mut *rounds;
        let state = live.get_mut(&key)?;
        if let Some(d) = &state.decision {
            return Some((d.clone(), false));
        }
        let members = state.required.members();
        if members.iter().any(|&w| state.arrived[w].is_none() && !registry.is_failed(w)) {
            return None;
        }
        // A round that requires nobody synchronises nobody: a member
        // may read it any number of rounds late, so nothing is dropped.
        let lockstep = !members.is_empty();
        let reuse = state.reuse.take();
        let decision = decide(state, reuse);
        state.decision = Some(decision.clone());
        if lockstep {
            live.retain(|&(ctx, n), round| {
                let keep = ctx != key.0 || n + WINDOW > key.1;
                if !keep {
                    Rounds::retire(spare, round);
                }
                keep
            });
        }
        Some((decision, true))
    }
}

/// A set of world ranks a round agreed on.
pub(crate) type Ranks = Arc<Vec<WorldRank>>;

/// `ranks` as a [`Ranks`], in `reuse`'s allocation when nobody holds it
/// any more.
pub(crate) fn ranks_in(reuse: Option<Ranks>, ranks: impl Iterator<Item = WorldRank>) -> Ranks {
    let mut set = reuse.unwrap_or_default();
    if Arc::get_mut(&mut set).is_none() {
        set = Ranks::default();
    }
    let members = Arc::get_mut(&mut set).expect("a new set is held only here");
    members.clear();
    members.extend(ranks);
    set
}

/// One communicator of a completed split: its context and its members,
/// world ranks ordered by (key, world rank).
pub(crate) type SplitComm = (ContextId, Vec<WorldRank>);

/// The board of one universe.
pub(crate) struct Rendezvous {
    validates: Table<(), Ranks>,
    pub(crate) barriers: Table<(), Ranks>,
    /// Submissions are `(color, key)`; no colour opts out.
    splits: Table<(Option<i64>, i64), Arc<Vec<SplitComm>>>,
    dups: Table<(), ContextId>,
    next_ctx: AtomicU64,
}

impl Rendezvous {
    /// A board for `size` ranks; the first context follows the world's.
    pub(crate) fn new(size: usize) -> Self {
        let next_ctx = AtomicU64::new(WORLD_CTX + 1);
        let (validates, barriers, splits) = (Table::new(size), Table::new(size), Table::new(size));
        Rendezvous { validates, barriers, splits, dups: Table::new(size), next_ctx }
    }

    /// Reset protocol (see `Shared::reset`): the observable state of a
    /// fresh board, retaining the tables' allocations. `&mut self`: no
    /// rank is live, so nothing is locked.
    pub(crate) fn reset(&mut self) {
        *self.next_ctx.get_mut() = WORLD_CTX + 1;
        self.validates.reset();
        self.barriers.reset();
        self.splits.reset();
        self.dups.reset();
    }

    /// Join validate round `key` of a communicator over `group`.
    pub(crate) fn validate_join(&self, key: Key, me: WorldRank, group: &Group) {
        self.validates.join(key, me, (), |_| group.clone());
    }

    /// The agreed failed set of validate round `key`: the registry's
    /// view of the group at the single decision point.
    pub(crate) fn validate_poll(&self, key: Key, reg: &FailureRegistry) -> Option<(Ranks, bool)> {
        self.validates.poll(key, reg, |state, reuse| {
            let members = state.required.members().iter().copied();
            ranks_in(reuse, members.filter(|&w| reg.is_failed(w)))
        })
    }

    /// Submit `(color, key)` to split `key` of a communicator over `group`.
    pub(crate) fn split_join(
        &self, key: Key, me: WorldRank, sub: (Option<i64>, i64), group: &Group,
    ) {
        self.splits.join(key, me, sub, |_| group.clone());
    }

    /// `me`'s communicator of split `key` (`None` if it opted out),
    /// once every alive member has submitted. Failed members that never
    /// submitted are excluded, which makes `comm_split` a recovery
    /// construct. Colours get their contexts in ascending order; a
    /// colour's members are ordered by `(key, world rank)`.
    pub(crate) fn split_poll(
        &self, key: Key, me: WorldRank, reg: &FailureRegistry,
    ) -> Option<(Option<SplitComm>, bool)> {
        let (comms, newly) = self.splits.poll(key, reg, |state, _| {
            let members = state.required.members().iter();
            let mut subs: Vec<(i64, i64, WorldRank)> = members
                .filter_map(|&w| state.arrived[w].and_then(|(color, key)| Some((color?, key, w))))
                .collect();
            subs.sort_unstable();
            let comms = subs.chunk_by(|a, b| a.0 == b.0).map(|part| {
                let ctx = self.next_ctx.fetch_add(1, Ordering::AcqRel);
                (ctx, part.iter().map(|&(_, _, w)| w).collect())
            });
            Arc::new(comms.collect())
        })?;
        Some((comms.iter().find(|(_, members)| members.contains(&me)).cloned(), newly))
    }

    /// The context of dup `key`: nobody is waited for, so the first
    /// caller allocates it and later callers read it.
    pub(crate) fn dup(&self, key: Key, me: WorldRank, reg: &FailureRegistry) -> ContextId {
        self.dups.join(key, me, (), |_| Group::new(Vec::new()));
        let polled = self.dups.poll(key, reg, |_, _| self.next_ctx.fetch_add(1, Ordering::AcqRel));
        polled.expect("a round that requires nobody is decided by its first poll").0
    }
}
