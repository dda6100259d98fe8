//! Nonblocking barrier (`MPI_Ibarrier`).
//!
//! The paper's §III-C discusses terminating the ring with "multiple
//! calls to `MPI_Ibarrier`" and rejects the approach as costly and
//! complex. To reproduce that discussion quantitatively the runtime
//! provides an `ibarrier` whose request composes with `waitany` like
//! `icomm_validate_all`'s and whose rounds are decided the same way, on
//! the rendezvous board ([`crate::rendezvous`]): round 0 requires the
//! collective active set, round *k+1* round *k*'s required set minus
//! the ranks that *failed without arriving* in it, and a round's
//! decision is that failed-absent set — empty for an `Ok` round; deaths
//! after arrival do not poison it. What that buys a retry loop, and
//! what a real MPI does not promise, is on [`crate::Process::ibarrier`].

use std::sync::Arc;

use crate::detector::FailureRegistry;
use crate::group::Group;
use crate::rank::WorldRank;
use crate::rendezvous::{Key, Ranks, Rendezvous};

impl Rendezvous {
    /// Join barrier round `key` as `me`. The first joiner fixes the
    /// required set: `initial_active` for round 0 (or when the previous
    /// round fell out of the board's window), else the previous round's
    /// requirement minus the ranks it found dead before arriving.
    pub(crate) fn barrier_join(&self, key: Key, me: WorldRank, initial_active: &[WorldRank]) {
        self.barriers.join(key, me, (), |prev| match prev {
            None => Group::new(initial_active.to_vec()),
            Some(prev) => match &prev.decision {
                Some(absent) if !absent.is_empty() => {
                    prev.required.filter(|_, w| !absent.contains(&w))
                }
                _ => prev.required.clone(),
            },
        });
    }

    /// The outcome of barrier round `key`: the required ranks that died
    /// without arriving, none if the round is `Ok`.
    pub(crate) fn barrier_poll(&self, key: Key, reg: &FailureRegistry) -> Option<(Ranks, bool)> {
        self.barriers.poll(key, reg, |state| {
            // Whoever has not arrived is failed, or the round would not
            // be complete.
            let members = state.required.members().iter().copied();
            Arc::new(members.filter(|&w| state.arrived[w].is_none()).collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_ok_when_all_arrive() {
        let b = Rendezvous::new(3);
        let reg = FailureRegistry::new(3);
        let active = vec![0, 1, 2];
        b.barrier_join((0, 0), 0, &active);
        assert!(b.barrier_poll((0, 0), &reg).is_none());
        b.barrier_join((0, 0), 1, &active);
        b.barrier_join((0, 0), 2, &active);
        let (absent, newly) = b.barrier_poll((0, 0), &reg).unwrap();
        assert!(newly);
        assert!(absent.is_empty());
        let (_, again) = b.barrier_poll((0, 0), &reg).unwrap();
        assert!(!again);
    }

    #[test]
    fn death_before_arrival_fails_the_round_uniformly() {
        let b = Rendezvous::new(3);
        let reg = FailureRegistry::new(3);
        let active = vec![0, 1, 2];
        b.barrier_join((0, 0), 0, &active);
        b.barrier_join((0, 0), 1, &active);
        reg.kill(2);
        let (absent, _) = b.barrier_poll((0, 0), &reg).unwrap();
        assert_eq!(*absent, vec![2]);
        // Every later poll sees the identical outcome.
        let (again, _) = b.barrier_poll((0, 0), &reg).unwrap();
        assert_eq!(absent, again);
    }

    #[test]
    fn death_after_arrival_still_ok() {
        let b = Rendezvous::new(2);
        let reg = FailureRegistry::new(2);
        let active = vec![0, 1];
        b.barrier_join((0, 0), 1, &active);
        reg.kill(1); // arrived, then died
        b.barrier_join((0, 0), 0, &active);
        let (absent, _) = b.barrier_poll((0, 0), &reg).unwrap();
        assert!(absent.is_empty());
    }

    #[test]
    fn next_round_excludes_failed_absent() {
        let b = Rendezvous::new(3);
        let reg = FailureRegistry::new(3);
        let active = vec![0, 1, 2];
        b.barrier_join((0, 0), 0, &active);
        b.barrier_join((0, 0), 1, &active);
        reg.kill(2);
        let (absent, _) = b.barrier_poll((0, 0), &reg).unwrap();
        assert_eq!(*absent, vec![2]);
        // Round 1 requires only {0, 1}.
        b.barrier_join((0, 1), 0, &active);
        assert!(b.barrier_poll((0, 1), &reg).is_none());
        b.barrier_join((0, 1), 1, &active);
        let (absent, _) = b.barrier_poll((0, 1), &reg).unwrap();
        assert!(absent.is_empty());
    }

    #[test]
    fn contexts_are_isolated() {
        let b = Rendezvous::new(1);
        let reg = FailureRegistry::new(1);
        b.barrier_join((7, 0), 0, &[0]);
        assert!(b.barrier_poll((8, 0), &reg).is_none());
        assert!(b.barrier_poll((7, 0), &reg).is_some());
    }
}
