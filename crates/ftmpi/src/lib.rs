//! # ftmpi — an MPI-like runtime with run-through stabilization
//!
//! This crate is the substrate for reproducing *"Building a Fault
//! Tolerant MPI Application: A Ring Communication Example"* (Hursey &
//! Graham, 2011). The paper is written against a prototype of the MPI
//! Forum Fault Tolerance Working Group's **run-through stabilization**
//! proposal inside Open MPI; no Rust MPI binding exposes those
//! semantics, so this crate implements them from scratch as an
//! in-process runtime:
//!
//! * each rank drives a [`Process`]: on its own OS thread in wall-clock
//!   runs, as a coroutine on the driver's thread under a simulation
//!   scheduler ([`UniverseConfig::sim`]);
//! * the transport is lossless and FIFO per sender/receiver pair;
//! * matching follows MPI rules (context, source, tag; `ANY_SOURCE`,
//!   `ANY_TAG`; non-overtaking);
//! * failures are **fail-stop** and observed through a *perfect
//!   failure detector*: operations naming a failed, unrecognized rank
//!   return errors of class [`Error::RankFailStop`], and posted
//!   receives complete in error when their peer dies — the paper's
//!   "`MPI_Irecv` as a failure detector" idiom;
//! * the proposal's communicator-management extensions (paper Fig. 1)
//!   are provided: [`RankInfo`]/[`RankState`],
//!   [`Process::comm_validate_rank`], [`Process::comm_validate`],
//!   [`Process::comm_validate_clear`], [`Process::comm_validate_all`],
//!   [`Process::icomm_validate_all`];
//! * collectives error after any failure until the communicator is
//!   collectively re-validated, then skip the agreed failed set.
//!
//! ## Quick example
//!
//! ```
//! use ftmpi::{run_default, ErrorHandler, Src, WORLD};
//!
//! let report = run_default(2, |p| {
//!     p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
//!     if p.world_rank() == 0 {
//!         p.send(WORLD, 1, 0, &41i32)?;
//!         let (v, _) = p.recv::<i32>(WORLD, Src::Rank(1), 0)?;
//!         Ok(v)
//!     } else {
//!         let (v, _) = p.recv::<i32>(WORLD, Src::Rank(0), 0)?;
//!         p.send(WORLD, 0, 0, &(v + 1))?;
//!         Ok(v)
//!     }
//! });
//! assert_eq!(report.outcomes[0].as_ok(), Some(&42));
//! ```

#![warn(missing_docs)]

/// The unit tests that pin "allocates nothing" read `allocstats`, which
/// counts only behind this allocator.
#[cfg(test)]
#[global_allocator]
static ALLOC: allocstats::StatsAlloc = allocstats::StatsAlloc;

mod collective;
mod comm;
mod coro;
mod datatype;
mod detector;
mod error;
mod group;
mod matching;
mod message;
mod nbc;
mod paypool;
mod pool;
mod process;
mod rank;
mod rendezvous;
mod request;
mod status;
mod tag;
mod trace;
mod transport;
mod universe;

/// The value behind a `std::sync` lock, condvar wait or `get_mut`,
/// poisoned or not. Every lock in this crate is taken through it, so a
/// rank that panics holding one does not turn every other rank's next
/// lock of the shared universe state into a second panic. Sound because
/// each critical section is a short update by this crate that leaves
/// the state valid at every step: rank bodies run outside the locks.
pub(crate) fn unpoisoned<G>(r: std::sync::LockResult<G>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use comm::{Comm, WORLD};
pub use datatype::{Datatype, ZERO_SIZE_COUNT_MAX};
pub use error::{Error, ErrorHandler, RankOutcome, Result};
pub use group::Group;
pub use message::ContextId;
pub use paypool::PayloadPool;
pub use pool::UniversePool;
pub use process::{Process, Src, WaitAny};
pub use rank::{CommRank, RankInfo, RankState, WorldRank};
pub use request::{Completion, Request};
pub use status::Status;
pub use tag::{check_user_tag, Tag, TagSel, TAG_UB};
pub use trace::{BlockedOn, Event, TimedEvent, Trace};
pub use universe::{run, run_default, ReportBuffers, RunReport, UniverseConfig, WATCHDOG_ABORT_CODE};

// Re-export the fault-injection vocabulary (and the payload byte
// type) so applications need only one import path.
pub use bytes;
pub use faultsim;

// Unit tests of the rendezvous board's validate, split and dup rounds
// (the barrier's are in `nbc`). They stay under the module paths of the
// boards they were first written against, `validate::tests::*` and
// `coord::tests::*`: test ids are pinned by path from one PR to the next.
#[cfg(test)]
mod validate {
    mod tests {
        use crate::detector::FailureRegistry;
        use crate::group::Group;
        use crate::rendezvous::Rendezvous;

        #[test]
        fn no_decision_until_all_alive_joined() {
            let board = Rendezvous::new(3);
            let group = Group::world(3);
            let reg = FailureRegistry::new(3);
            board.validate_join((0, 0), 0, &group);
            board.validate_join((0, 0), 1, &group);
            assert!(board.validate_poll((0, 0), &reg).is_none());
            board.validate_join((0, 0), 2, &group);
            let (failed, newly) = board.validate_poll((0, 0), &reg).unwrap();
            assert!(newly);
            assert!(failed.is_empty());
            // Second poll returns the cached decision.
            let (_, newly2) = board.validate_poll((0, 0), &reg).unwrap();
            assert!(!newly2);
        }

        #[test]
        fn failed_members_are_implicitly_joined() {
            let board = Rendezvous::new(3);
            let group = Group::world(3);
            let reg = FailureRegistry::new(3);
            board.validate_join((0, 0), 0, &group);
            board.validate_join((0, 0), 1, &group);
            assert!(board.validate_poll((0, 0), &reg).is_none());
            reg.kill(2);
            let (failed, _) = board.validate_poll((0, 0), &reg).unwrap();
            assert_eq!(*failed, vec![2]);
        }

        #[test]
        fn decision_is_stable_even_if_more_failures_happen_later() {
            let board = Rendezvous::new(2);
            let group = Group::world(2);
            let reg = FailureRegistry::new(2);
            board.validate_join((0, 0), 0, &group);
            board.validate_join((0, 0), 1, &group);
            let (d1, _) = board.validate_poll((0, 0), &reg).unwrap();
            reg.kill(1);
            let (d2, _) = board.validate_poll((0, 0), &reg).unwrap();
            assert_eq!(d1, d2, "round decision must be immutable");
            assert!(d2.is_empty());
        }

        #[test]
        fn rounds_are_independent() {
            let board = Rendezvous::new(2);
            let group = Group::world(2);
            let reg = FailureRegistry::new(2);
            board.validate_join((0, 0), 0, &group);
            board.validate_join((0, 0), 1, &group);
            board.validate_poll((0, 0), &reg).unwrap();
            // Round 1: only member 0 has joined; no decision yet.
            board.validate_join((0, 1), 0, &group);
            assert!(board.validate_poll((0, 1), &reg).is_none());
            reg.kill(1);
            let (failed, _) = board.validate_poll((0, 1), &reg).unwrap();
            assert_eq!(*failed, vec![1]);
        }

        #[test]
        fn contexts_are_independent() {
            let board = Rendezvous::new(1);
            let group = Group::world(1);
            let reg = FailureRegistry::new(1);
            board.validate_join((5, 0), 0, &group);
            assert!(board.validate_poll((6, 0), &reg).is_none());
            assert!(board.validate_poll((5, 0), &reg).is_some());
        }

        #[test]
        fn subgroup_membership_only_counts_members() {
            let board = Rendezvous::new(4);
            // Group of world ranks {1, 3} in a 4-rank universe.
            let group = Group::new(vec![1, 3]);
            let reg = FailureRegistry::new(4);
            board.validate_join((9, 0), 1, &group);
            assert!(board.validate_poll((9, 0), &reg).is_none());
            board.validate_join((9, 0), 3, &group);
            let (failed, _) = board.validate_poll((9, 0), &reg).unwrap();
            assert!(failed.is_empty());
            // Failures outside the group never appear in the decision.
            reg.kill(0);
            board.validate_join((9, 1), 1, &group);
            board.validate_join((9, 1), 3, &group);
            let (failed, _) = board.validate_poll((9, 1), &reg).unwrap();
            assert!(failed.is_empty());
        }
    }
}

#[cfg(test)]
mod coord {
    mod tests {
        use crate::detector::FailureRegistry;
        use crate::group::Group;
        use crate::rendezvous::Rendezvous;

        #[test]
        fn dup_hands_every_member_the_same_ctx() {
            let b = Rendezvous::new(2);
            let reg = FailureRegistry::new(2);
            let a = b.dup((0, 0), 0, &reg);
            // A member may read a dup any number of rounds late: the
            // window that drops lock-stepped rounds spares it.
            let later: Vec<_> = (1..40).map(|n| b.dup((0, n), 0, &reg)).collect();
            assert!(!later.contains(&a), "successive dups get fresh contexts");
            assert_eq!(b.dup((0, 0), 1, &reg), a);
        }

        #[test]
        fn split_waits_for_all_alive() {
            let b = Rendezvous::new(3);
            let g = Group::world(3);
            let reg = FailureRegistry::new(3);
            b.split_join((0, 0), 0, (Some(0), 0), &g);
            assert!(b.split_poll((0, 0), 0, &reg).is_none());
            b.split_join((0, 0), 1, (Some(1), 0), &g);
            b.split_join((0, 0), 2, (Some(0), -1), &g);
            let (res, newly) = b.split_poll((0, 0), 0, &reg).unwrap();
            assert!(newly);
            // Color 0 members ordered by key: rank 2 (key -1) before rank 0.
            // Contexts go to colours in ascending order.
            assert_eq!(res.unwrap(), (1, vec![2, 0]));
            let (res1, newly1) = b.split_poll((0, 0), 1, &reg).unwrap();
            assert!(!newly1);
            assert_eq!(res1.unwrap(), (2, vec![1]));
        }

        #[test]
        fn split_excludes_failed_non_submitters() {
            let b = Rendezvous::new(3);
            let g = Group::world(3);
            let reg = FailureRegistry::new(3);
            b.split_join((0, 0), 0, (Some(7), 0), &g);
            b.split_join((0, 0), 1, (Some(7), 1), &g);
            assert!(b.split_poll((0, 0), 0, &reg).is_none());
            reg.kill(2);
            let (res, _) = b.split_poll((0, 0), 0, &reg).unwrap();
            assert_eq!(res.unwrap().1, vec![0, 1]);
        }

        #[test]
        fn split_opt_out_gets_none() {
            let b = Rendezvous::new(2);
            let g = Group::world(2);
            let reg = FailureRegistry::new(2);
            b.split_join((0, 0), 0, (None, 0), &g);
            b.split_join((0, 0), 1, (Some(3), 0), &g);
            let (res0, _) = b.split_poll((0, 0), 0, &reg).unwrap();
            assert!(res0.is_none());
            let (res1, _) = b.split_poll((0, 0), 1, &reg).unwrap();
            assert_eq!(res1.unwrap().1, vec![1]);
        }

        #[test]
        fn same_color_ties_break_by_world_rank() {
            let b = Rendezvous::new(3);
            let g = Group::world(3);
            let reg = FailureRegistry::new(3);
            for w in 0..3 {
                b.split_join((0, 0), w, (Some(0), 5), &g);
            }
            let (res, _) = b.split_poll((0, 0), 1, &reg).unwrap();
            assert_eq!(res.unwrap().1, vec![0, 1, 2]);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::unpoisoned;

    /// A rank that panics while holding a lock poisons it; the next
    /// rank to take it still gets the value.
    #[test]
    fn poisoned_lock_is_recovered() {
        let m = Mutex::new(7);
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = unpoisoned(m.lock());
                panic!("poison the mutex");
            })
            .join()
        });
        assert!(m.is_poisoned());
        assert_eq!(*unpoisoned(m.lock()), 7);
    }
}
