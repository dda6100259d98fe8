//! Communicators.
//!
//! Each process keeps a local table of [`CommData`]; a [`Comm`] handle
//! is an index into that table. The context id inside `CommData` is the
//! global matching context shared by all members.
//!
//! Failure *recognition* is deliberately per-process **and**
//! per-communicator (proposal §II: "Failures are recognized on a
//! per-communicator basis to guarantee that libraries are able to
//! receive notification of the failure, even if the main application
//! has previously recognized the failure on a duplicate communicator").

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::detector::FailureRegistry;
use crate::error::ErrorHandler;
use crate::group::Group;
use crate::matching::KeyHasher;
use crate::message::ContextId;
use crate::rank::{CommRank, RankInfo, RankState, WorldRank};

/// Handle to a communicator in this process's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Comm(pub(crate) usize);

/// The world communicator (`MPI_COMM_WORLD`).
pub const WORLD: Comm = Comm(0);

/// Per-process state of one communicator.
#[derive(Debug)]
pub(crate) struct CommData {
    /// Global matching context.
    pub ctx: ContextId,
    /// Ordered membership.
    pub group: Group,
    /// This process's rank in the communicator.
    pub my_rank: CommRank,
    /// Installed error handler.
    pub errhandler: ErrorHandler,
    /// Locally recognized failed ranks (comm ranks) — `MPI_RANK_NULL`
    /// — keyed by the *generation* that was recognized, so a recovered
    /// incarnation (generation + 1) is reported `Ok` again.
    pub recognized: HashMap<CommRank, u32, BuildHasherDefault<KeyHasher>>,
    /// Collectively recognized failed ranks from the last successful
    /// `validate_all`, in ascending comm-rank order. Collective
    /// algorithms skip exactly these (and *must not* consult local
    /// recognition, or different ranks would build different trees).
    pub validated: Vec<CommRank>,
    /// Collective instance counter (tags successive collectives).
    pub coll_instance: u64,
    /// Next validate round to join.
    pub validate_round: u64,
    /// Next nonblocking-barrier round to join.
    pub barrier_round: u64,
    /// Local counters keying dup/split rendezvous on the shared board.
    pub dup_count: u64,
    /// See `dup_count`.
    pub split_count: u64,
}

impl CommData {
    pub(crate) fn new(ctx: ContextId, group: Group, my_rank: CommRank) -> Self {
        CommData {
            ctx,
            group,
            my_rank,
            errhandler: ErrorHandler::default(),
            recognized: HashMap::default(),
            validated: Vec::new(),
            coll_instance: 0,
            validate_round: 0,
            barrier_round: 0,
            dup_count: 0,
            split_count: 0,
        }
    }

    /// Back to what [`CommData::new`] built, keeping the context, the
    /// group, this process's rank in it and the containers' capacity.
    pub(crate) fn reset(&mut self) {
        self.errhandler = ErrorHandler::default();
        self.recognized.clear();
        self.validated.clear();
        self.coll_instance = 0;
        self.validate_round = 0;
        self.barrier_round = 0;
        self.dup_count = 0;
        self.split_count = 0;
    }

    /// Communicator size (including failed members).
    pub(crate) fn size(&self) -> usize {
        self.group.size()
    }

    /// The state of `rank` as seen by this process on this comm.
    pub(crate) fn state_of(&self, rank: CommRank, registry: &FailureRegistry) -> RankState {
        let world = match self.group.world_rank(rank) {
            Some(w) => w,
            None => return RankState::Failed, // out of range treated as failed by callers that pre-validate
        };
        if !registry.is_failed(world) {
            RankState::Ok
        } else if self.recognized.get(&rank) == Some(&registry.generation(world)) {
            RankState::Null
        } else {
            RankState::Failed
        }
    }

    /// The state of incarnation `gen` of `rank`, the one a receive or
    /// probe was posted on: `Ok` while it is alive, and once it has
    /// failed or been replaced by a respawn, `Null` if this process
    /// recognized that generation's failure, `Failed` otherwise.
    pub(crate) fn incarnation_state(
        &self,
        rank: CommRank,
        gen: u32,
        registry: &FailureRegistry,
    ) -> RankState {
        match self.group.world_rank(rank) {
            Some(world) if registry.is_alive(world, gen) => RankState::Ok,
            Some(_) if self.recognized.get(&rank) == Some(&gen) => RankState::Null,
            _ => RankState::Failed,
        }
    }

    /// Recognize `rank`'s current incarnation as failed.
    pub(crate) fn recognize(&mut self, rank: CommRank, registry: &FailureRegistry) {
        if let Some(world) = self.group.world_rank(rank) {
            self.recognized.insert(rank, registry.generation(world));
        }
    }

    /// `MPI_Rank_info` for `rank`: the generation field reports the
    /// registry's incarnation number (always 0 without the recovery
    /// extension, as in the paper).
    pub(crate) fn rank_info(&self, rank: CommRank, registry: &FailureRegistry) -> RankInfo {
        let generation = self.group.world_rank(rank).map(|w| registry.generation(w)).unwrap_or(0);
        RankInfo { rank, generation, state: self.state_of(rank, registry) }
    }

    /// All failed ranks (recognized or not), ascending.
    pub(crate) fn failed_infos(&self, registry: &FailureRegistry) -> Vec<RankInfo> {
        (0..self.size())
            .filter(|&r| registry.is_failed(self.group.world_rank(r).expect("in range")))
            .map(|r| self.rank_info(r, registry))
            .collect()
    }

    /// Lowest failed-and-unrecognized comm rank, if any (the rank an
    /// indirect `RankFailStop` error names).
    pub(crate) fn lowest_unrecognized_failure(
        &self,
        registry: &FailureRegistry,
    ) -> Option<CommRank> {
        (0..self.size()).find(|&r| self.state_of(r, registry) == RankState::Failed)
    }

    /// The active set for collective algorithms: members minus the
    /// *collectively validated* failed set.
    pub(crate) fn collective_active(&self) -> Vec<CommRank> {
        (0..self.size()).filter(|r| !self.validated.contains(r)).collect()
    }

    /// Apply a `validate_all` decision, the agreed failed set as world
    /// ranks: its members here become both locally recognized and the
    /// collective skip set. Returns how many there are.
    pub(crate) fn apply_validate_decision(
        &mut self,
        failed: &[WorldRank],
        registry: &FailureRegistry,
    ) -> usize {
        self.validated.clear();
        for &w in failed {
            if let Some(r) = self.group.rank_of(w) {
                self.recognized.insert(r, registry.generation(w));
                self.validated.push(r);
            }
        }
        self.validated.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm3() -> CommData {
        CommData::new(0, Group::world(3), 1)
    }

    #[test]
    fn state_transitions_ok_failed_null() {
        let reg = FailureRegistry::new(3);
        let mut c = comm3();
        assert_eq!(c.state_of(2, &reg), RankState::Ok);
        reg.kill(2);
        assert_eq!(c.state_of(2, &reg), RankState::Failed);
        c.recognize(2, &reg);
        assert_eq!(c.state_of(2, &reg), RankState::Null);
        // Recognition of an alive rank has no effect on its state.
        c.recognize(0, &reg);
        assert_eq!(c.state_of(0, &reg), RankState::Ok);
    }

    /// What was posted on generation 0 sees it dead once generation 1
    /// runs, as PROC_NULL if generation 0's failure was recognized.
    #[test]
    fn a_replaced_incarnation_reads_dead() {
        let reg = FailureRegistry::new(3);
        let (mut seen, unseen) = (comm3(), comm3());
        assert_eq!(seen.incarnation_state(2, 0, &reg), RankState::Ok);
        reg.kill(2);
        seen.recognize(2, &reg);
        reg.respawn(2);
        for c in [&seen, &unseen] {
            assert_eq!(c.state_of(2, &reg), RankState::Ok, "generation 1 is alive");
            assert_eq!(c.incarnation_state(2, 1, &reg), RankState::Ok);
        }
        assert_eq!(seen.incarnation_state(2, 0, &reg), RankState::Null);
        assert_eq!(unseen.incarnation_state(2, 0, &reg), RankState::Failed);
    }

    #[test]
    fn lowest_unrecognized_failure_skips_recognized() {
        let reg = FailureRegistry::new(3);
        let mut c = comm3();
        assert_eq!(c.lowest_unrecognized_failure(&reg), None);
        reg.kill(0);
        reg.kill(2);
        assert_eq!(c.lowest_unrecognized_failure(&reg), Some(0));
        c.recognize(0, &reg);
        assert_eq!(c.lowest_unrecognized_failure(&reg), Some(2));
        c.recognize(2, &reg);
        assert_eq!(c.lowest_unrecognized_failure(&reg), None);
    }

    #[test]
    fn validate_decision_sets_both_recognition_and_skip_set() {
        let reg = FailureRegistry::new(3);
        let mut c = comm3();
        reg.kill(0);
        assert_eq!(c.apply_validate_decision(&[0], &reg), 1);
        assert_eq!(c.state_of(0, &reg), RankState::Null);
        assert_eq!(c.collective_active(), vec![1, 2]);
    }

    #[test]
    fn reset_matches_a_new_communicator() {
        let reg = FailureRegistry::new(3);
        let mut c = comm3();
        reg.kill(0);
        c.apply_validate_decision(&[0], &reg);
        c.errhandler = ErrorHandler::ErrorsReturn;
        (c.coll_instance, c.validate_round, c.barrier_round) = (3, 2, 1);
        (c.dup_count, c.split_count) = (1, 1);
        c.reset();
        assert_eq!(format!("{c:?}"), format!("{:?}", comm3()));
    }

    #[test]
    fn failed_infos_lists_all_failed() {
        let reg = FailureRegistry::new(3);
        let mut c = comm3();
        reg.kill(0);
        reg.kill(2);
        c.recognize(2, &reg);
        let infos = c.failed_infos(&reg);
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].state, RankState::Failed);
        assert_eq!(infos[1].state, RankState::Null);
    }
}
