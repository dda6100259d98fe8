//! Perfect failure detector: the failure registry.
//!
//! The paper assumes "a view of the failure detector that is both
//! strongly accurate and strongly complete, thus a perfect failure
//! detector" (§II, citing Chandra & Toueg). In this in-process runtime
//! both properties hold by construction:
//!
//! * **strong accuracy** — a rank is reported failed only after
//!   [`FailureRegistry::kill`] actually marked it failed;
//! * **strong completeness** — every kill bumps the global failure
//!   epoch and the universe wakes every blocked rank, whose wait loops
//!   re-scan their posted operations against the registry, so every
//!   operation involving the failed rank eventually errors.
//!
//! The registry also carries the job-abort flag (`MPI_Abort` /
//! `MPI_ERRORS_ARE_FATAL`), since abort is delivered through the same
//! wake-everyone path.
//!
//! ### Generations (the recovery extension)
//!
//! The proposal's `MPI_Rank_info.generation` field "is a monotonically
//! increasing number that is used to distinguish between multiple
//! recovered versions of a process". The paper itself never uses it
//! (run-through only); this registry implements it for the recovery
//! extension: a rank's state is `(generation, failed?)`, packed in one
//! atomic. [`FailureRegistry::respawn`] transitions
//! `Failed(g) → Ok(g+1)`; a thread belonging to an older incarnation
//! observes `SelfFailed` from [`FailureRegistry::check_alive`] and
//! unwinds even if a newer incarnation of its rank is running.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::rank::WorldRank;

const FAILED_BIT: u64 = 1;

/// Shared fail-stop state of the whole universe.
pub struct FailureRegistry {
    /// Per rank: `generation << 1 | failed`.
    states: Vec<AtomicU64>,
    /// Bumped on every state change; wait loops snapshot it to detect
    /// "something failed since I last looked".
    epoch: AtomicU64,
    aborted: AtomicBool,
    abort_code: Mutex<Option<i32>>,
}

impl FailureRegistry {
    /// A registry for `n` ranks, all alive at generation 0.
    pub fn new(n: usize) -> Self {
        FailureRegistry {
            states: (0..n).map(|_| AtomicU64::new(0)).collect(),
            epoch: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            abort_code: Mutex::new(None),
        }
    }

    /// Reset protocol (see `Shared::reset`): everyone alive at
    /// generation 0, epoch 0, no abort — the observable state of a
    /// fresh `FailureRegistry::new(n)`. `&mut self`: no rank is live,
    /// so nothing is locked.
    pub fn reset(&mut self) {
        for s in &mut self.states {
            *s.get_mut() = 0;
        }
        *self.epoch.get_mut() = 0;
        *self.abort_code.get_mut() = None;
        *self.aborted.get_mut() = false;
    }

    /// Whether `rank` is currently failed.
    pub fn is_failed(&self, rank: WorldRank) -> bool {
        self.states[rank].load(Ordering::Acquire) & FAILED_BIT != 0
    }

    /// Current incarnation number of `rank`.
    pub fn generation(&self, rank: WorldRank) -> u32 {
        (self.states[rank].load(Ordering::Acquire) >> 1) as u32
    }

    /// Fail-stop the *current* incarnation of `rank`. Returns `true`
    /// if this call made the transition (idempotent per incarnation).
    /// The caller is responsible for waking blocked ranks afterwards.
    pub fn kill(&self, rank: WorldRank) -> bool {
        let prev = self.states[rank].fetch_or(FAILED_BIT, Ordering::AcqRel);
        if prev & FAILED_BIT == 0 {
            self.epoch.fetch_add(1, Ordering::AcqRel);
            true
        } else {
            false
        }
    }

    /// Recovery extension: transition `Failed(g) → Ok(g+1)`. Returns
    /// the new generation, or `None` if the rank is not failed. The
    /// caller is responsible for clearing the rank's mailbox and
    /// waking blocked ranks afterwards.
    pub fn respawn(&self, rank: WorldRank) -> Option<u32> {
        let result = self.states[rank].fetch_update(
            Ordering::AcqRel,
            Ordering::Acquire,
            |v| {
                if v & FAILED_BIT != 0 {
                    // Clear failed bit, bump generation.
                    Some((v & !FAILED_BIT) + 2)
                } else {
                    None
                }
            },
        );
        match result {
            Ok(prev) => {
                self.epoch.fetch_add(1, Ordering::AcqRel);
                Some(((prev >> 1) + 1) as u32)
            }
            Err(_) => None,
        }
    }

    /// Current failure epoch (changes whenever any rank fails, is
    /// respawned, or the job aborts).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Mark the job aborted with `code`. Returns `true` on transition.
    /// The caller is responsible for waking blocked ranks afterwards.
    pub fn abort(&self, code: i32) -> bool {
        let mut slot = self.abort_code.lock();
        if slot.is_none() {
            *slot = Some(code);
            self.aborted.store(true, Ordering::Release);
            self.epoch.fetch_add(1, Ordering::AcqRel);
            true
        } else {
            false
        }
    }

    /// The abort code, if the job was aborted.
    pub fn aborted(&self) -> Option<i32> {
        if self.aborted.load(Ordering::Acquire) {
            *self.abort_code.lock()
        } else {
            None
        }
    }

    /// Terminal-state check for the incarnation `(me, my_gen)`: errors
    /// if `me` is failed, `me` was respawned past this incarnation (an
    /// older thread must unwind), or the job aborted.
    ///
    /// Self-death is checked FIRST. A fail-stopped process cannot
    /// observe a job teardown that raced its own death, so when a kill
    /// and an abort land in the same window the rank must unwind as
    /// `SelfFailed` (outcome `Failed`), not `Aborted` — otherwise a
    /// lone survivor's legitimate `MPI_Abort` rewrites the outcome of
    /// a rank the whole world already saw fail-stop, and the
    /// ring-completion oracle (rightly) calls that a violation. Found
    /// by `dst fuzz`: a spliced 3-kill schedule whose last kill fires
    /// one grant before the survivor's abort.
    pub fn check_alive(&self, me: WorldRank, my_gen: u32) -> Result<()> {
        let v = self.states[me].load(Ordering::Acquire);
        if v & FAILED_BIT != 0 || (v >> 1) as u32 != my_gen {
            return Err(Error::SelfFailed);
        }
        if let Some(code) = self.aborted() {
            return Err(Error::Aborted { code });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failed_set(r: &FailureRegistry) -> Vec<WorldRank> {
        (0..r.states.len()).filter(|&w| r.is_failed(w)).collect()
    }

    #[test]
    fn fresh_registry_is_all_alive_gen0() {
        let r = FailureRegistry::new(4);
        assert!(failed_set(&r).is_empty());
        assert_eq!(r.epoch(), 0);
        assert_eq!(r.generation(0), 0);
        assert!(r.check_alive(0, 0).is_ok());
    }

    #[test]
    fn reset_matches_fresh_registry() {
        let mut r = FailureRegistry::new(3);
        r.kill(1);
        r.kill(2);
        r.respawn(2);
        r.abort(5);
        r.reset();
        assert!(failed_set(&r).is_empty());
        assert_eq!(r.epoch(), 0);
        assert_eq!(r.aborted(), None);
        for rank in 0..3 {
            assert_eq!(r.generation(rank), 0);
            assert!(r.check_alive(rank, 0).is_ok());
        }
    }

    #[test]
    fn kill_is_idempotent_and_bumps_epoch_once() {
        let r = FailureRegistry::new(3);
        assert!(r.kill(1));
        assert!(!r.kill(1));
        assert_eq!(r.epoch(), 1);
        assert!(r.is_failed(1));
        assert_eq!(failed_set(&r), vec![1]);
        assert_eq!(r.generation(1), 0, "death does not change the generation");
    }

    #[test]
    fn respawn_bumps_generation_and_revives() {
        let r = FailureRegistry::new(2);
        assert_eq!(r.respawn(0), None, "cannot respawn an alive rank");
        r.kill(0);
        assert_eq!(r.respawn(0), Some(1));
        assert!(!r.is_failed(0));
        assert_eq!(r.generation(0), 1);
        assert_eq!(r.respawn(0), None, "idempotence: alive again");
        // Kill + respawn again.
        r.kill(0);
        assert_eq!(r.respawn(0), Some(2));
        assert_eq!(r.generation(0), 2);
    }

    #[test]
    fn old_incarnation_observes_self_failed() {
        let r = FailureRegistry::new(1);
        r.kill(0);
        r.respawn(0);
        // Generation 0's thread must unwind; generation 1 is alive.
        assert_eq!(r.check_alive(0, 0), Err(Error::SelfFailed));
        assert!(r.check_alive(0, 1).is_ok());
    }

    #[test]
    fn check_alive_reports_self_failure() {
        let r = FailureRegistry::new(2);
        r.kill(0);
        assert_eq!(r.check_alive(0, 0), Err(Error::SelfFailed));
        assert!(r.check_alive(1, 0).is_ok());
    }

    /// A rank that fail-stopped before (or while) the job aborted
    /// unwinds as `SelfFailed` — its death is a fact the whole world
    /// already observed; the teardown only reaches ranks still alive.
    /// (The old precedence let a lone survivor's abort rewrite a
    /// killed rank's outcome to `Aborted`; `dst fuzz` found the race.)
    #[test]
    fn self_failure_wins_over_abort_reporting() {
        let r = FailureRegistry::new(2);
        r.kill(0);
        assert!(r.abort(9));
        assert!(!r.abort(10), "abort is idempotent, first code wins");
        assert_eq!(r.aborted(), Some(9));
        assert_eq!(r.check_alive(0, 0), Err(Error::SelfFailed));
        assert_eq!(r.check_alive(1, 0), Err(Error::Aborted { code: 9 }));
    }

    #[test]
    fn respawn_bumps_epoch() {
        let r = FailureRegistry::new(1);
        r.kill(0);
        let e = r.epoch();
        r.respawn(0);
        assert!(r.epoch() > e, "waiters must re-scan after a respawn");
    }

    #[test]
    fn concurrent_kills_count_correctly() {
        use std::sync::Arc;
        let r = Arc::new(FailureRegistry::new(64));
        let mut hs = Vec::new();
        for t in 0..8 {
            let r = Arc::clone(&r);
            hs.push(std::thread::spawn(move || {
                for i in 0..64 {
                    if i % 8 == t {
                        r.kill(i);
                    }
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(failed_set(&r).len(), 64);
        assert_eq!(r.epoch(), 64);
    }
}
