//! Ranks, rank states, and `MPI_Rank_info` (paper Fig. 1).

/// A rank in the world (the "MPI universe").
pub type WorldRank = usize;

/// A rank within a specific communicator.
pub type CommRank = usize;

/// Process state as reported by the validate interfaces (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankState {
    /// `MPI_RANK_OK`: running normally.
    Ok,
    /// `MPI_RANK_FAILED`: failed, not yet recognized by this process on
    /// this communicator.
    Failed,
    /// `MPI_RANK_NULL`: failed and recognized; behaves as
    /// `MPI_PROC_NULL` in subsequent operations.
    Null,
}

impl RankState {
    /// Whether the rank is alive.
    pub fn is_ok(self) -> bool {
        self == RankState::Ok
    }

    /// Whether the rank has failed (recognized or not).
    pub fn is_failed(self) -> bool {
        !self.is_ok()
    }
}

/// `MPI_Rank_info`: rank, generation, state (paper Fig. 1 lines 1–9).
///
/// `generation` distinguishes recovered incarnations of a process. This
/// reproduction, like the paper, covers run-through stabilization only
/// ("this field will not be used"), so generation is always 0; it is
/// plumbed through so the recovery extension has a place to live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankInfo {
    /// Rank in the associated communicator.
    pub rank: CommRank,
    /// Incarnation number; 0 for the original process.
    pub generation: u32,
    /// Current state of the rank as seen by the querying process on the
    /// associated communicator.
    pub state: RankState,
}

impl RankInfo {
    /// Info for a normally-running rank.
    pub fn ok(rank: CommRank) -> Self {
        RankInfo { rank, generation: 0, state: RankState::Ok }
    }

    /// Info for a failed, unrecognized rank.
    pub fn failed(rank: CommRank) -> Self {
        RankInfo { rank, generation: 0, state: RankState::Failed }
    }

    /// Info for a failed, recognized rank.
    pub fn null(rank: CommRank) -> Self {
        RankInfo { rank, generation: 0, state: RankState::Null }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(RankState::Ok.is_ok());
        assert!(!RankState::Ok.is_failed());
        assert!(RankState::Failed.is_failed());
        assert!(RankState::Null.is_failed());
    }

    #[test]
    fn constructors() {
        assert_eq!(RankInfo::ok(3).state, RankState::Ok);
        assert_eq!(RankInfo::failed(1).state, RankState::Failed);
        assert_eq!(RankInfo::null(0).state, RankState::Null);
        assert_eq!(RankInfo::ok(3).generation, 0);
    }
}
