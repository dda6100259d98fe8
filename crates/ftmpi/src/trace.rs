//! Protocol event tracing.
//!
//! When enabled in the universe config, the runtime records an ordered
//! log of protocol events. Scenario tests use the log to assert *how*
//! an outcome was reached (e.g. Fig. 8: the duplicate really was a
//! resend from `P1`, not a matching accident), and the experiment
//! binaries print it as the message diagrams of the paper's figures.

use std::sync::Mutex;
use std::time::Instant;

use crate::message::ContextId;
use crate::rank::WorldRank;
use crate::tag::Tag;
use crate::unpoisoned;

/// What a rank was waiting on when a simulated hang was broken (see
/// [`Event::Blocked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// A posted receive that never completed.
    Recv {
        /// Communicator context of the receive.
        context: ContextId,
        /// Peer the receive names (communicator rank); `None` for
        /// `MPI_ANY_SOURCE`.
        src: Option<usize>,
        /// Tag the receive names; `None` for `MPI_ANY_TAG`.
        tag: Option<Tag>,
    },
    /// An `icomm_validate_all` round that never decided.
    Validate {
        /// The validate round joined.
        round: u64,
    },
    /// An `ibarrier` round that never completed.
    Barrier {
        /// The barrier round joined.
        round: u64,
    },
}

/// One traced protocol event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `src` handed a message to the transport for `dst`.
    Send {
        /// Sender world rank.
        src: WorldRank,
        /// Destination world rank.
        dst: WorldRank,
        /// Communicator context.
        context: ContextId,
        /// Message tag.
        tag: Tag,
        /// Payload length.
        len: usize,
    },
    /// A receive at `dst` matched a message from `src`.
    RecvMatch {
        /// Receiver world rank.
        dst: WorldRank,
        /// Sender communicator rank as seen in the match.
        src: usize,
        /// Communicator context.
        context: ContextId,
        /// Message tag.
        tag: Tag,
        /// Per-(sender, receiver) send sequence number of the matched
        /// message; lets checkers assert non-overtaking from the trace.
        seq: u64,
    },
    /// A posted receive at `rank` completed in error because `peer`
    /// failed (the Irecv-as-failure-detector firing).
    RecvFailure {
        /// The rank whose receive errored.
        rank: WorldRank,
        /// The failed peer (communicator rank).
        peer: usize,
    },
    /// `rank` was fail-stopped.
    Killed {
        /// The victim.
        rank: WorldRank,
    },
    /// `rank` was revived as a fresh incarnation (recovery extension).
    Respawned {
        /// The revived rank.
        rank: WorldRank,
        /// Its new incarnation number.
        generation: u32,
    },
    /// The job was aborted.
    Aborted {
        /// Abort code.
        code: i32,
    },
    /// Snapshot of one outstanding request `rank` was parked on when
    /// the deterministic-simulation step budget broke a hang: recorded
    /// once per pending request, per rank, at the moment the rank
    /// observes the logical-watchdog abort. The `dst` hang triager
    /// reconstructs the per-rank wait-for graph from these events.
    Blocked {
        /// The parked rank.
        rank: WorldRank,
        /// The request it was blocked on.
        on: BlockedOn,
    },
    /// A `validate_all` round decided on a communicator.
    ValidateDecided {
        /// Communicator context.
        context: ContextId,
        /// The round number.
        round: u64,
        /// Number of failed ranks agreed on.
        failed: usize,
    },
    /// A collective was entered by `rank`.
    CollectiveEnter {
        /// Participant world rank.
        rank: WorldRank,
        /// Operation name.
        op: &'static str,
        /// Instance number on the communicator.
        instance: u64,
    },
    /// `rank` abandoned a collective and poisoned its dependents.
    CollectivePoison {
        /// The abandoning rank.
        rank: WorldRank,
        /// Operation name.
        op: &'static str,
    },
}

/// A timestamped event.
#[derive(Debug, Clone)]
pub struct TimedEvent {
    /// Microseconds since universe start.
    pub at_us: u64,
    /// The event.
    pub event: Event,
}

/// Shared trace sink.
pub struct Trace {
    enabled: bool,
    start: Instant,
    /// Timestamps are the simulation scheduler's logical clock instead
    /// of wall-clock microseconds, so identical schedules produce
    /// byte-identical traces (see the `dst` crate). The clock is read
    /// from the scheduler of the drive recording the event, which is
    /// per thread: concurrent universes each read their own, which is
    /// what lets the `dst` sweep engine run them in parallel.
    logical: bool,
    events: Mutex<Vec<TimedEvent>>,
}

impl Trace {
    /// A trace sink; records only if `enabled`, and stamps events with
    /// the simulation scheduler's logical clock if `logical`.
    pub fn new(enabled: bool, logical: bool) -> Self {
        Trace {
            enabled,
            start: Instant::now(),
            logical,
            events: Mutex::new(Vec::new()),
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reset protocol (see `Shared::reset`): the observable state of a
    /// fresh `Trace::new(enabled, logical)` — empty event log (capacity
    /// retained), a new start instant. Takes `&mut self`, so it needs
    /// no lock: the universe pool has exclusive access between runs.
    pub fn reset(&mut self, enabled: bool, logical: bool) {
        self.enabled = enabled;
        self.start = Instant::now();
        self.logical = logical;
        unpoisoned(self.events.get_mut()).clear();
    }

    /// Record an event (no-op when disabled).
    pub fn record(&self, event: Event) {
        if !self.enabled() {
            return;
        }
        let at_us = if self.logical {
            crate::coro::with_sched(|s| s.now())
        } else {
            self.start.elapsed().as_micros() as u64
        };
        unpoisoned(self.events.lock()).push(TimedEvent { at_us, event });
    }

    /// Move every event out, in record order, and record from here on
    /// into `into`, emptied. It grows to the capacity of the buffer it
    /// replaces, so a run records into it no more allocations than into
    /// that one; a recycled buffer already has it. With no event
    /// recorded, `into` itself comes back.
    pub fn take(&self, mut into: Vec<TimedEvent>) -> Vec<TimedEvent> {
        let mut events = unpoisoned(self.events.lock());
        into.clear();
        if events.is_empty() {
            return into;
        }
        into.reserve(events.capacity());
        std::mem::replace(&mut *events, into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new(false, false);
        t.record(Event::Killed { rank: 1 });
        assert!(t.take(Vec::new()).is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let t = Trace::new(true, false);
        t.record(Event::Killed { rank: 1 });
        t.record(Event::Aborted { code: 3 });
        let evs = t.take(Vec::new());
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].event, Event::Killed { rank: 1 });
        assert!(evs[0].at_us <= evs[1].at_us);
    }

    #[test]
    fn reset_matches_fresh_trace() {
        let mut t = Trace::new(true, true);
        let mut clock = crate::coro::tests::Clock(1_000_000_000);
        let mut kill =
            |rank| crate::coro::drive_with(&mut clock, || t.record(Event::Killed { rank }));
        kill(0);
        assert_eq!(t.take(Vec::new())[0].at_us, 1_000_000_000, "stamped by the drive's scheduler");

        kill(1);
        t.reset(false, true);
        t.record(Event::Killed { rank: 2 });
        let after = t.take(Vec::new());
        assert!(after.is_empty(), "reset clears events and applies the new enable flag");

        t.reset(true, false);
        t.record(Event::Aborted { code: 1 });
        let evs = t.take(Vec::new());
        assert_eq!(evs.len(), 1);
        assert!(
            evs[0].at_us < 1_000_000_000,
            "reset applies the new clock: got at_us {}",
            evs[0].at_us
        );
    }

    #[test]
    fn take_moves_the_events_and_records_into_the_buffer_given() {
        let t = Trace::new(true, false);
        t.record(Event::Killed { rank: 1 });
        let spare = Vec::with_capacity(64);
        let spare_at = spare.as_ptr();
        let taken = t.take(spare);
        assert_eq!(taken.len(), 1);
        t.record(Event::Killed { rank: 2 });
        let again = t.take(taken);
        assert_eq!(again.len(), 1, "the first take moved the first event out");
        assert_eq!(again.as_ptr(), spare_at, "recorded into the buffer given");
        let empty = t.take(again);
        assert_eq!(empty.as_ptr(), spare_at, "nothing recorded: the buffer given comes back");
    }
}
