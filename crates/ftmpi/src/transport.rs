//! The in-memory transport fabric.
//!
//! Each rank owns a mailbox (a locked queue of [`Envelope`]s and a
//! `parked` flag), a condition variable, and two atomics beside the
//! lock: the mailbox version and the queue length.
//! Delivery pushes to the destination mailbox and notifies the owner
//! if it is parked; a blocked rank parks on its own condvar until
//! either its mailbox version changes, the global notify generation
//! changes (failures, aborts, validate decisions), or a short safety
//! timeout elapses. A simulated rank has no thread to park: the same
//! [`ParkToken`] comparison ([`Fabric::would_park`]) decides whether it
//! suspends *disabled* under the scheduler, and the same events
//! re-enable it.
//!
//! Properties the rest of the system relies on:
//!
//! * **Reliable, FIFO per (sender, receiver) pair** — `deliver` appends
//!   under the destination lock, so two messages from the same sender
//!   arrive in send order (MPI non-overtaking, given order-preserving
//!   matching downstream).
//! * **No lost wake-ups, one wake-up per sleep** — one rule for
//!   [`Fabric::deliver`] and [`Fabric::wake_all`]: under the mailbox
//!   lock, publish the event (the version; `wake_all` moved the notify
//!   generation before taking it), then take the `parked` flag —
//!   read it and clear it — and notify only if it was set.
//!   [`Fabric::park`] holds that lock from its re-check of the token
//!   through setting `parked` until the condvar wait releases it, so a
//!   notifier either runs before the re-check, which then sees the
//!   event and does not sleep, or after the wait began, where the
//!   first one takes the flag and notifies. A later notifier finds the
//!   flag taken: it runs either before the woken owner takes its next
//!   token, whose drain then sees the envelope, or after, where that
//!   next `park`'s re-check sees the event. The condvar is `std`'s,
//!   whose `notify_one` is a `futex_wake` system call even with nobody
//!   waiting; a rank that is running, a rank already being woken, and
//!   every simulated rank are spared it. Rank threads are
//!   `SCHED_BATCH` on Linux (`pool.rs`), so on a shared core the woken
//!   owner does not preempt its notifier inside `notify_one`: the
//!   notifier runs on to its own park, and a hop is one context
//!   switch. A bounded timed wait backstops any future bug in the
//!   protocol, and counts its firings. The wake is a condvar plus the
//!   flag, not the thread parker (`std::thread::park` / `unpark`): an
//!   idle pool worker waits on its `mpsc` job queue on that same
//!   per-thread parker, so unparks meant for ranks (each `wake_all`, a
//!   delivery to a finished rank) woke idle threads; on 2 vCPUs, the
//!   benchmark pinned to one, the parker raised `ring_recovery_8` from
//!   171.6 to 181.2 context switches per run and cost it 6.2 % of its
//!   runs per second (6 of 6 alternating pairs).
//! * **Single parker per slot** — only the owning rank ever waits on
//!   its slot's condvar ([`Fabric::park`] is called with `me` by `me`'s
//!   own thread), so one flag per slot says all there is to say and
//!   `notify_one` wakes the one possible waiter.
//! * **The owner's pass reads its mailbox without the lock** — the
//!   version and the queue length are atomics, written only under the
//!   mailbox lock: `deliver` and [`Fabric::clear`] store the length
//!   and then a new version, a draining [`Fabric::drain_into`] the
//!   length only, all `Release`; readers load them `Acquire`. So [`Fabric::token`] and
//!   [`Fabric::would_park`] take no lock, and a drain of an empty
//!   mailbox skips it. No wake-up is lost: a token that saw a
//!   delivery's version also sees the length it stored, so the pass's
//!   drain finds the envelope; a token that missed the delivery is
//!   caught by `park`'s re-check of the version, which stays under the
//!   lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::message::Envelope;
use crate::rank::WorldRank;
use crate::unpoisoned;

/// Safety-net park timeout. All wake paths notify explicitly; this only
/// bounds the damage of a hypothetical missed notification.
pub(crate) const PARK_SAFETY: Duration = Duration::from_millis(50);

struct Mailbox {
    /// Ring buffer so draining a prefix shifts head indices, not
    /// envelopes.
    queue: VecDeque<Envelope>,
    /// The owner is inside `cv.wait_timeout` and nobody has notified it
    /// yet. Set by the owner in `park`; cleared by the first notifier
    /// (`deliver` / `wake_all`), which is the one that calls
    /// `notify_one`, or by the owner on its way out of the wait.
    parked: bool,
}

struct Slot {
    mb: Mutex<Mailbox>,
    cv: Condvar,
    /// Bumped on every delivery; lets parkers detect missed pushes.
    /// Written under `mb`'s lock, read without it (module docs).
    version: AtomicU64,
    /// `mb.queue.len()` as of the last write under the lock.
    queued: AtomicUsize,
}

impl Slot {
    /// Publish a change to the queue under `mb`'s lock: its length,
    /// then a new version (module docs).
    fn publish(&self, mb: &Mailbox) {
        self.queued.store(mb.queue.len(), Ordering::Release);
        // Only lock holders write it, so the load sees the last store.
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v + 1, Ordering::Release);
    }
}

/// The delivery fabric for one universe.
pub struct Fabric {
    slots: Vec<Slot>,
    /// Global notify generation: bumped by [`Fabric::wake_all`].
    notify_gen: AtomicU64,
    /// How often the wall-clock safety timeout cut a park short.
    /// Nonzero is expected when a run is legitimately idle (respawn
    /// delays, hangs waiting for the watchdog); a count growing during
    /// steady message flow would indicate a missed-notification bug.
    /// Surfaced as `RunReport::stats.handoff.park_safety_timeouts`.
    park_timeouts: AtomicU64,
    /// `park` calls that reached the condvar wait. Surfaced as
    /// `RunReport::stats.handoff.parks`.
    sleeps: AtomicU64,
    /// `notify_one` calls issued by `deliver` and `wake_all`: at most
    /// one per sleep. Surfaced as `RunReport::stats.handoff.wakes`.
    wakes: AtomicU64,
}

/// Snapshot taken at the start of a progress pass, consumed by
/// [`Fabric::park`] to decide whether anything happened since.
#[derive(Debug, Clone, Copy)]
pub struct ParkToken {
    mailbox_version: u64,
    notify_gen: u64,
    failure_epoch: u64,
}

impl Fabric {
    /// A fabric for `n` ranks.
    pub fn new(n: usize) -> Self {
        Fabric {
            slots: (0..n)
                .map(|_| Slot {
                    mb: Mutex::new(Mailbox { queue: VecDeque::new(), parked: false }),
                    cv: Condvar::new(),
                    version: AtomicU64::new(0),
                    queued: AtomicUsize::new(0),
                })
                .collect(),
            notify_gen: AtomicU64::new(0),
            park_timeouts: AtomicU64::new(0),
            sleeps: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    /// How often the safety timeout fired since construction or the
    /// last [`Fabric::reset`].
    pub fn park_timeouts(&self) -> u64 {
        self.park_timeouts.load(Ordering::Acquire)
    }

    /// How many times a rank went to sleep on its condvar since
    /// construction or the last [`Fabric::reset`].
    pub fn sleeps(&self) -> u64 {
        self.sleeps.load(Ordering::Relaxed)
    }

    /// How many `notify_one` calls were issued since construction or
    /// the last [`Fabric::reset`].
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Wake `slot`'s owner: called by the one notifier that took its
    /// `parked` flag (module docs).
    fn notify(&self, slot: &Slot) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
        slot.cv.notify_one();
    }

    /// Reset protocol (see `Shared::reset`): return the fabric to the
    /// observable state of a fresh `Fabric::new(n)` while retaining
    /// every queue allocation. `&mut self`: no rank can be delivering
    /// or parking, so nothing is locked.
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            unpoisoned(slot.mb.get_mut()).queue.clear();
            *slot.version.get_mut() = 0;
            *slot.queued.get_mut() = 0;
        }
        *self.notify_gen.get_mut() = 0;
        *self.park_timeouts.get_mut() = 0;
        *self.sleeps.get_mut() = 0;
        *self.wakes.get_mut() = 0;
    }

    /// Deliver `env` to `dst`'s mailbox and wake `dst` if it is parked
    /// and no earlier notifier has woken it yet.
    ///
    /// Delivery to a failed rank is permitted and harmless (the mailbox
    /// is simply never drained again): under fail-stop, a message sent
    /// before the sender learns of the failure is silently lost.
    pub fn deliver(&self, dst: WorldRank, env: Envelope) {
        let slot = &self.slots[dst];
        let parked = {
            let mut mb = unpoisoned(slot.mb.lock());
            mb.queue.push_back(env);
            slot.publish(&mb);
            std::mem::replace(&mut mb.parked, false)
        };
        // A `dst` that is not parked, or was already notified, sees the
        // version move before it sleeps again (module docs).
        if parked {
            self.notify(slot);
        }
    }

    /// Drain every queued envelope for `me`, in arrival order, together
    /// with the mailbox version after the drain.
    #[cfg(test)]
    pub fn drain(&self, me: WorldRank) -> (Vec<Envelope>, u64) {
        self.drain_with(me, |n| n)
    }

    /// [`Fabric::drain_into`], allocating a fresh Vec; the progress hot
    /// path reuses a buffer instead.
    #[cfg(test)]
    pub fn drain_with(
        &self,
        me: WorldRank,
        pick: impl FnOnce(usize) -> usize,
    ) -> (Vec<Envelope>, u64) {
        let mut out = Vec::new();
        self.drain_into(me, pick, &mut out);
        (out, self.slots[me].version.load(Ordering::Acquire))
    }

    /// Drain a scheduler-chosen prefix of `me`'s queue into `out`:
    /// `pick(n)` is called with the queue length `n >= 1` and the first
    /// `min(pick(n), n)` envelopes are appended to `out`, the rest stay
    /// queued (a deterministic message delay — see `faultsim::sched`).
    /// Taking a prefix preserves per-pair FIFO: a delayed message only
    /// ever delays everything behind it. An empty mailbox is seen
    /// without taking its lock.
    ///
    /// `out` is a caller-owned buffer precisely so the per-progress-pass
    /// allocation churn of the old `split_off`/`replace` scheme (two
    /// Vec allocations per non-empty drain) is gone: the ring buffer
    /// pops from the front in place and `out`'s capacity is reused
    /// across passes.
    pub fn drain_into(
        &self,
        me: WorldRank,
        pick: impl FnOnce(usize) -> usize,
        out: &mut Vec<Envelope>,
    ) {
        let slot = &self.slots[me];
        if slot.queued.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut mb = unpoisoned(slot.mb.lock());
        let n = mb.queue.len();
        if n == 0 {
            return;
        }
        let k = pick(n).min(n);
        out.extend(mb.queue.drain(..k));
        // Taking mail is no event to wake on: the version stays.
        slot.queued.store(mb.queue.len(), Ordering::Release);
    }

    /// Snapshot the park token for `me`. Take this *before* scanning
    /// state so that any event after the scan forces a re-scan instead
    /// of a sleep. Takes no lock.
    pub fn token(&self, me: WorldRank, failure_epoch: u64) -> ParkToken {
        ParkToken {
            mailbox_version: self.slots[me].version.load(Ordering::Acquire),
            notify_gen: self.notify_gen.load(Ordering::Acquire),
            failure_epoch,
        }
    }

    /// Whether nothing `token` watches has moved: no delivery to the
    /// mailbox, no global wake, no failure-epoch change. The one
    /// sleep-or-rescan rule, shared by [`Fabric::park`] and
    /// [`Fabric::would_park`].
    fn unchanged(&self, slot: &Slot, token: ParkToken, epoch: u64) -> bool {
        slot.version.load(Ordering::Acquire) == token.mailbox_version
            && self.notify_gen.load(Ordering::Acquire) == token.notify_gen
            && epoch == token.failure_epoch
    }

    /// Block `me` until something plausibly happened since `token` was
    /// taken: a delivery to `me`, a global wake, or a failure-epoch
    /// change. Returns immediately if any is already the case, and
    /// after `timeout` at the latest: `PARK_SAFETY` in a wait loop,
    /// what is left of the respawn delay for a failed rank.
    /// Wall-clock mode only: a simulated rank asks
    /// [`Fabric::would_park`] and suspends at its scheduling point
    /// instead (`Process::wait_loop`).
    pub fn park(
        &self,
        me: WorldRank,
        token: ParkToken,
        current_epoch: impl Fn() -> u64,
        timeout: Duration,
    ) {
        let slot = &self.slots[me];
        let mut mb = unpoisoned(slot.mb.lock());
        if !self.unchanged(slot, token, current_epoch()) {
            return;
        }
        mb.parked = true;
        self.sleeps.fetch_add(1, Ordering::Relaxed);
        let (mut mb, wait) = unpoisoned(slot.cv.wait_timeout(mb, timeout));
        // Already false if a notifier took it; not if the wait timed
        // out or woke spuriously.
        mb.parked = false;
        if wait.timed_out() {
            // Bounded wait as a safety net; all real wake paths notify.
            // Count firings so callers can tell backstop-driven
            // progress from explicit wakes (a respawn delay that runs
            // its course counts one too).
            self.park_timeouts.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Simulation's form of [`Fabric::park`]: whether `me` would have
    /// gone to sleep there. On top of the token comparison the mailbox
    /// must be empty — a scheduler-delayed drain leaves a suffix queued
    /// without moving the version, and a rank with mail to read is
    /// runnable. Takes no lock.
    pub fn would_park(&self, me: WorldRank, token: ParkToken, epoch: u64) -> bool {
        let slot = &self.slots[me];
        slot.queued.load(Ordering::Acquire) == 0 && self.unchanged(slot, token, epoch)
    }

    /// Move the notify generation, so a wait-loop pass in flight sees
    /// that a global wake happened since its token was taken.
    pub fn note_wake(&self) {
        self.notify_gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Wake every parked rank and keep every other from parking on a
    /// token taken before this call (used for failures, aborts, and
    /// shared-state decisions such as `validate_all` completion).
    pub fn wake_all(&self) {
        self.note_wake();
        for slot in &self.slots {
            // Under the lock, to serialize with the parker's re-check:
            // a rank not parked yet will see the generation moved.
            let parked = std::mem::replace(&mut unpoisoned(slot.mb.lock()).parked, false);
            if parked {
                self.notify(slot);
            }
        }
    }

    /// Discard everything queued for `rank` (respawn: messages
    /// addressed to a dead incarnation are lost, per fail-stop).
    pub fn clear(&self, rank: WorldRank) {
        let slot = &self.slots[rank];
        let mut mb = unpoisoned(slot.mb.lock());
        mb.queue.clear();
        slot.publish(&mb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn env(src: WorldRank, seq: u32) -> Envelope {
        Envelope {
            src_comm: src,
            context: 0,
            tag: 0,
            payload: Bytes::new(),
            seq,
            gen: 0,
            poison: false,
        }
    }

    #[test]
    fn deliver_then_drain_preserves_order() {
        let f = Fabric::new(2);
        f.deliver(1, env(0, 0));
        f.deliver(1, env(0, 1));
        f.deliver(1, env(0, 2));
        let (msgs, version) = f.drain(1);
        assert_eq!(msgs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(version, 3);
        let (empty, v2) = f.drain(1);
        assert!(empty.is_empty());
        assert_eq!(v2, 3);
    }

    /// A delivery between `token()` and `park()` finds the rank not
    /// parked, so it notifies nobody — and `park` must not sleep on
    /// it: it returns on the re-check, not on the safety timeout.
    #[test]
    fn park_returns_immediately_when_version_moved() {
        let f = Fabric::new(1);
        let token = f.token(0, 0);
        f.deliver(0, env(0, 0));
        f.park(0, token, || 0, PARK_SAFETY);
        assert_eq!(f.park_timeouts(), 0);
    }

    /// The same for `wake_all`, which skips the unparked rank too.
    #[test]
    fn park_returns_immediately_when_notify_gen_moved() {
        let f = Fabric::new(1);
        let token = f.token(0, 0);
        f.wake_all();
        f.park(0, token, || 0, PARK_SAFETY);
        assert_eq!(f.park_timeouts(), 0);
    }

    /// The other half of the wake rule: a rank that *is* parked is
    /// notified by a delivery. The sender waits for the flag, so the
    /// parker is inside its condvar wait when the envelope lands.
    #[test]
    fn deliver_wakes_a_parked_rank() {
        let f = Fabric::new(1);
        std::thread::scope(|s| {
            let parker = s.spawn(|| {
                let token = f.token(0, 0);
                f.park(0, token, || 0, PARK_SAFETY);
            });
            while !unpoisoned(f.slots[0].mb.lock()).parked {
                assert!(!parker.is_finished(), "timed out before it was seen parked");
                std::thread::yield_now();
            }
            f.deliver(0, env(0, 0));
        });
        assert_eq!(f.park_timeouts(), 0, "woken by the delivery, not the timeout");
        assert!(!unpoisoned(f.slots[0].mb.lock()).parked, "the flag is cleared on the way out");
    }

    /// Park rank 0 once on a thread and, once it is seen asleep, run
    /// `notify` from this one; returns when the parker is back.
    fn park_once_then(f: &Fabric, notify: impl FnOnce()) {
        std::thread::scope(|s| {
            let parker = s.spawn(|| {
                let token = f.token(0, 0);
                f.park(0, token, || 0, PARK_SAFETY);
            });
            while !unpoisoned(f.slots[0].mb.lock()).parked {
                assert!(!parker.is_finished(), "timed out before it was seen parked");
                std::thread::yield_now();
            }
            notify();
        });
    }

    /// One wake per sleep: the first delivery takes the flag, so a
    /// burst landing on one sleep costs one `notify_one`, and every
    /// envelope is still there for the owner's next drain.
    #[test]
    fn a_sleeper_is_woken_once_however_many_deliveries_land() {
        let f = Fabric::new(2);
        park_once_then(&f, || (0..256).for_each(|i| f.deliver(0, env(1, i))));
        assert_eq!((f.sleeps(), f.wakes()), (1, 1));
        assert_eq!(f.park_timeouts(), 0, "woken by the first delivery");
        assert_eq!(f.drain(0).0.len(), 256);
    }

    #[test]
    fn two_wake_alls_notify_one_sleeper_once() {
        let f = Fabric::new(1);
        park_once_then(&f, || {
            f.wake_all();
            f.wake_all();
        });
        assert_eq!((f.sleeps(), f.wakes()), (1, 1));
        assert_eq!(f.park_timeouts(), 0);
    }

    #[test]
    fn reset_rewinds_the_sleep_and_wake_counts() {
        let mut f = Fabric::new(1);
        park_once_then(&f, || f.deliver(0, env(0, 0)));
        assert_eq!((f.sleeps(), f.wakes()), (1, 1));
        f.reset();
        assert_eq!((f.sleeps(), f.wakes()), (0, 0));
    }

    #[test]
    fn park_returns_immediately_on_epoch_change() {
        let f = Fabric::new(1);
        let token = f.token(0, 0);
        let t0 = std::time::Instant::now();
        f.park(0, token, || 1, PARK_SAFETY); // epoch moved under us
        assert!(t0.elapsed() < Duration::from_millis(40));
    }

    /// `would_park` is `park`'s predicate plus "no mail": each of the
    /// three token fields moving, and a delayed suffix left in the
    /// queue, keeps the rank runnable.
    #[test]
    fn would_park_follows_the_token_and_the_queue() {
        let f = Fabric::new(2);
        let token = f.token(0, 0);
        assert!(f.would_park(0, token, 0));
        assert!(!f.would_park(0, token, 1), "failure epoch moved");
        f.note_wake();
        assert!(!f.would_park(0, token, 0), "global wake");
        let token = f.token(0, 0);
        f.deliver(0, env(1, 0));
        f.deliver(0, env(1, 1));
        assert!(!f.would_park(0, token, 0), "delivery moved the version");
        // A delayed drain: a prefix of one of the two envelopes taken.
        // The version is still the one the new token saw, so only the
        // queued length keeps the rank runnable.
        let token = f.token(0, 0);
        let (taken, version) = f.drain_with(0, |_| 1);
        assert_eq!(taken.len(), 1);
        assert_eq!(version, token.mailbox_version, "a drain does not move the version");
        assert!(!f.would_park(0, token, 0), "a suffix is still queued");
        f.drain(0);
        assert!(f.would_park(0, token, 0));
    }

    /// The lock-free reads under real concurrency: an owner loops
    /// `token` → `drain_into` → `park`, the wall-clock wait loop, while
    /// two threads deliver to it. Every envelope arrives, in order per
    /// sender; the owner is woken at most once per sleep; and no sleep
    /// needs the safety timeout — a wake-up lost between an unlocked
    /// read and `park` would show as one.
    #[test]
    fn an_owner_reading_without_the_lock_misses_no_delivery() {
        const PER_SENDER: u32 = 20_000;
        let f = Fabric::new(3);
        let got = std::thread::scope(|s| {
            for src in 1..3 {
                let f = &f;
                s.spawn(move || {
                    for seq in 0..PER_SENDER {
                        f.deliver(0, env(src, seq));
                        if seq % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut got: Vec<Envelope> = Vec::new();
            let mut buf = Vec::new();
            while got.len() < 2 * PER_SENDER as usize {
                let token = f.token(0, 0);
                f.drain_into(0, |n| n, &mut buf);
                if buf.is_empty() {
                    f.park(0, token, || 0, PARK_SAFETY);
                }
                got.append(&mut buf);
            }
            got
        });
        for src in 1..3 {
            let seqs: Vec<u32> = got.iter().filter(|e| e.src_comm == src).map(|e| e.seq).collect();
            assert_eq!(seqs, (0..PER_SENDER).collect::<Vec<_>>(), "sender {src}");
        }
        assert!(f.wakes() <= f.sleeps(), "{} wakes for {} sleeps", f.wakes(), f.sleeps());
        assert_eq!(f.park_timeouts(), 0, "a sleep ended on the safety timeout");
    }

    #[test]
    fn wake_all_unblocks_parker() {
        use std::sync::Arc;
        let f = Arc::new(Fabric::new(1));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || {
            let token = f2.token(0, 0);
            // Park repeatedly until the notify generation moves; a
            // single park may be cut short by the safety timeout, but
            // wake_all must make this loop terminate promptly.
            let t0 = std::time::Instant::now();
            loop {
                f2.park(0, token, || 0, PARK_SAFETY);
                let woke = f2.token(0, 0);
                if woke.notify_gen != token.notify_gen {
                    return t0.elapsed();
                }
                assert!(t0.elapsed() < Duration::from_secs(2), "never woken");
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        f.wake_all();
        let waited = h.join().unwrap();
        assert!(waited >= Duration::from_millis(5));
    }

    #[test]
    fn safety_timeout_is_counted_and_reset_restores_fresh_state() {
        let mut f = Fabric::new(2);
        f.deliver(1, env(0, 0));
        f.wake_all();
        assert_eq!(f.park_timeouts(), 0);
        // Park with a token nothing will move: the only way out is the
        // safety timeout, which must be counted.
        let token = f.token(0, 0);
        f.park(0, token, || 0, PARK_SAFETY);
        assert_eq!(f.park_timeouts(), 1);

        f.reset();
        assert_eq!(f.park_timeouts(), 0, "reset clears the timeout count");
        let (msgs, version) = f.drain(1);
        assert!(msgs.is_empty(), "reset clears queued envelopes");
        assert_eq!(version, 0, "reset rewinds mailbox versions");
        let t = f.token(0, 0);
        assert_eq!(t.mailbox_version, 0);
        assert_eq!(t.notify_gen, 0, "reset rewinds the notify generation");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Non-overtaking at the fabric level: for any interleaving
            /// of per-sender deliveries with scheduler-chosen prefix
            /// drains (the `dst` harness's message-delay mechanism),
            /// the receiver observes each sender's messages in send
            /// order, with nothing lost and nothing duplicated.
            #[test]
            fn prefix_drains_preserve_per_sender_fifo(
                counts in prop::collection::vec(0usize..8, 2usize..5),
                ops in prop::collection::vec(0usize..8, 0usize..48),
            ) {
                let senders = counts.len();
                let dst = senders; // receiver rank, past all senders
                let f = Fabric::new(senders + 1);
                let mut next_seq = vec![0u32; senders];
                let mut got: Vec<Envelope> = Vec::new();

                for op in ops {
                    if op < senders {
                        // Deliver the sender's next message, if any left.
                        if (next_seq[op] as usize) < counts[op] {
                            f.deliver(dst, env(op, next_seq[op]));
                            next_seq[op] += 1;
                        }
                    } else {
                        // Drain a prefix; anything beyond it is delayed.
                        let k = op - senders;
                        let (msgs, _) = f.drain_with(dst, |n| k.min(n));
                        got.extend(msgs);
                    }
                }

                // Flush: deliver stragglers, then drain in full.
                for (s, &count) in counts.iter().enumerate() {
                    while (next_seq[s] as usize) < count {
                        f.deliver(dst, env(s, next_seq[s]));
                        next_seq[s] += 1;
                    }
                }
                let (rest, _) = f.drain(dst);
                got.extend(rest);

                prop_assert_eq!(got.len(), counts.iter().sum::<usize>());
                for (s, &count) in counts.iter().enumerate() {
                    let seqs: Vec<u32> = got
                        .iter()
                        .filter(|e| e.src_comm == s)
                        .map(|e| e.seq)
                        .collect();
                    prop_assert_eq!(seqs, (0..count as u32).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        use std::sync::Arc;
        let f = Arc::new(Fabric::new(3));
        let mut hs = Vec::new();
        for src in 0..2 {
            let f = Arc::clone(&f);
            hs.push(std::thread::spawn(move || {
                for i in 0..100 {
                    f.deliver(2, env(src, i));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let (msgs, _) = f.drain(2);
        assert_eq!(msgs.len(), 200);
        // Per-sender FIFO holds even under interleaving.
        for src in 0..2 {
            let seqs: Vec<u32> =
                msgs.iter().filter(|e| e.src_comm == src).map(|e| e.seq).collect();
            assert_eq!(seqs, (0..100).collect::<Vec<_>>());
        }
    }
}
