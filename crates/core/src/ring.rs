//! The fault-tolerant ring orchestrator (paper Fig. 3).
//!
//! [`run_ring`] composes the pieces the paper develops one by one:
//!
//! * fault-aware neighbour selection (Fig. 4, `neighbors` module);
//! * `FT_Send_right` (Fig. 5, `send` module);
//! * `FT_Recv_left` — naive (hangs, Fig. 6) or with the
//!   Irecv-as-failure-detector (Fig. 9, `recv` module);
//! * duplicate control (§III-B: none / iteration marker / separate
//!   resend tag);
//! * termination detection (Fig. 11 root broadcast / Fig. 13
//!   `icomm_validate_all`, `termination` module);
//! * root failover (§III-D, `root_recovery` module).
//!
//! ### Token-machine invariants
//!
//! The ring carries (at most) one live token per iteration. Markers are
//! globally sequential: a non-root rank forwards marker `cur` and drops
//! markers `< cur`; the root originates marker `cur` after observing
//! the closure of `cur - 1` (the token returning home). A marker
//! `> cur` is impossible without Byzantine behaviour (§III-B of the
//! paper) and is treated as a protocol violation.

use std::collections::VecDeque;

use ftmpi::{Comm, CommRank, Error, ErrorHandler, Process, Request, Result};

use crate::msg::RingMsg;
use crate::neighbors::{get_current_root, to_left_of, to_right_of};

/// Receive-side strategy (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvStrategy {
    /// Mirror `FT_Send_right`: on failure, re-post to the next left
    /// neighbour. Correct-looking but hangs when a rank dies holding
    /// the token (Fig. 6).
    Naive,
    /// Keep an `Irecv` posted to the right neighbour as a failure
    /// detector and resend the last buffer when it fires (Fig. 9).
    Detector,
}

/// Duplicate-message control (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupStrategy {
    /// No control: resends are indistinguishable from new iterations
    /// and the same iteration can complete twice (Fig. 8).
    None,
    /// Piggyback the iteration marker and drop stale tokens (Fig. 10).
    IterationMarker,
    /// Carry resends on a separate tag (`T_R`), keeping the normal
    /// path free of extra matching; stale resends are still filtered
    /// by marker on the (rare) resend path.
    SeparateTag,
}

/// Termination detection (§III-C / §III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationMode {
    /// No protocol: every rank leaves after its local count. Only safe
    /// in failure-free runs; used for the baseline and the scenario
    /// demonstrations.
    CountOnly,
    /// The root broadcasts `T_D` to every alive rank; non-roots watch
    /// their right neighbour meanwhile (Fig. 11). Root failure aborts.
    RootBroadcast,
    /// Everyone enters `icomm_validate_all` while watching their right
    /// neighbour (Fig. 13). No root dependence: required for root
    /// failover.
    ValidateAll,
    /// The approach §III-C describes and rejects: repeated
    /// `MPI_Ibarrier` rounds (two consecutive clean rounds = done),
    /// each watched alongside the right-neighbour detector. Costlier
    /// than both alternatives — reproduced so the benchmark suite can
    /// show *how much* costlier.
    DoubleBarrier,
}

/// Configuration of one fault-tolerant ring run.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Number of ring iterations (`max_iter`).
    pub max_iter: u64,
    /// Receive strategy.
    pub recv: RecvStrategy,
    /// Duplicate control.
    pub dedup: DedupStrategy,
    /// Termination detection.
    pub termination: TerminationMode,
    /// Enable §III-D root failover (requires `Detector` and a
    /// root-independent termination, `ValidateAll` or `DoubleBarrier`;
    /// `run_ring` rejects anything else).
    pub allow_root_failure: bool,
    /// Extra payload bytes carried by every token (message-size sweeps).
    pub pad: usize,
}

impl RingConfig {
    /// The paper's headline configuration (Fig. 3 with Fig. 9 receive,
    /// marker dedup, Fig. 11 termination; root must not fail).
    pub fn paper(max_iter: u64) -> Self {
        RingConfig {
            max_iter,
            recv: RecvStrategy::Detector,
            dedup: DedupStrategy::IterationMarker,
            termination: TerminationMode::RootBroadcast,
            allow_root_failure: false,
            pad: 0,
        }
    }

    /// §III-D configuration: root failover + validate-all termination.
    pub fn with_root_failover(max_iter: u64) -> Self {
        RingConfig {
            termination: TerminationMode::ValidateAll,
            allow_root_failure: true,
            ..Self::paper(max_iter)
        }
    }

    /// The broken first attempt of §III-A (Fig. 6): naive receive.
    pub fn naive(max_iter: u64) -> Self {
        RingConfig {
            recv: RecvStrategy::Naive,
            termination: TerminationMode::CountOnly,
            ..Self::paper(max_iter)
        }
    }

    /// Detector receive but no duplicate control (Fig. 8).
    pub fn no_dedup(max_iter: u64) -> Self {
        RingConfig {
            dedup: DedupStrategy::None,
            termination: TerminationMode::CountOnly,
            ..Self::paper(max_iter)
        }
    }

    /// Builder-style pad override.
    pub fn pad(mut self, pad: usize) -> Self {
        self.pad = pad;
        self
    }

    /// Builder-style termination override.
    pub fn termination(mut self, t: TerminationMode) -> Self {
        self.termination = t;
        self
    }

    /// Builder-style dedup override.
    pub fn dedup(mut self, d: DedupStrategy) -> Self {
        self.dedup = d;
        self
    }
}

/// Per-rank statistics of a ring run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Tokens this rank originated (root role).
    pub originated: u64,
    /// Tokens this rank forwarded (non-root role).
    pub forwarded: u64,
    /// Closures observed at the root: `(marker, value)` pairs, in
    /// observation order. The values let experiments check how many
    /// ranks contributed to each lap.
    pub closures: Vec<(u64, i64)>,
    /// Stale/duplicate tokens dropped by duplicate control.
    pub duplicates_dropped: u64,
    /// Tokens accepted more than once per iteration (only possible
    /// with `DedupStrategy::None`; this is the Fig. 8 defect counter).
    pub duplicate_forwards: u64,
    /// Resends performed after a right-neighbour failure.
    pub resends: u64,
    /// Times the failure-detector receive fired.
    pub detector_fires: u64,
    /// Left-neighbour changes.
    pub left_switches: u64,
    /// Right-neighbour changes.
    pub right_switches: u64,
    /// Whether this rank took over as root (§III-D).
    pub became_root: bool,
    /// Failed-rank count agreed by the terminating `validate_all`.
    pub validate_failed: Option<usize>,
    /// Whether termination completed cleanly.
    pub terminated: bool,
}

/// A posted receive and the peer it targets.
pub(crate) type Slot = Option<(Request, CommRank)>;

/// Internal per-rank ring state.
pub(crate) struct Ctx<'a> {
    pub p: &'a mut Process,
    pub comm: Comm,
    pub cfg: RingConfig,
    pub me: CommRank,
    pub left: CommRank,
    pub right: CommRank,
    pub root: CommRank,
    pub is_root: bool,
    /// Non-root: next marker to forward. Root: next marker to
    /// originate.
    pub cur: u64,
    /// Root only: set once the closure of `max_iter - 1` is seen.
    pub done: bool,
    pub last_sent: Option<RingMsg>,
    /// Posted receive for normal tokens.
    pub normal: Slot,
    /// Posted receive for resent tokens (SeparateTag only).
    pub resend_rx: Slot,
    /// Failure-detector receive posted to the right neighbour.
    pub detector: Slot,
    /// Tokens recovered from receives that had completed when their
    /// peer slot was recycled, each with the rank that sent it.
    pub pending: VecDeque<(RingMsg, Option<CommRank>)>,
    /// The rank that sent the token most recently returned by
    /// `recv_token` — the token's immediate sender, not its origin.
    pub last_recv_from: Option<CommRank>,
    pub stats: RingStats,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(p: &'a mut Process, comm: Comm, cfg: RingConfig) -> Result<Self> {
        let me = p.comm_rank(comm)?;
        let left = to_left_of(p, comm, me).unwrap_or(me);
        let right = to_right_of(p, comm, me).unwrap_or(me);
        let root = get_current_root(p, comm)?;
        Ok(Ctx {
            me,
            left,
            right,
            is_root: root == me,
            root,
            p,
            comm,
            cfg,
            cur: 0,
            done: false,
            last_sent: None,
            normal: None,
            resend_rx: None,
            detector: None,
            pending: VecDeque::new(),
            last_recv_from: None,
            stats: RingStats::default(),
        })
    }

    /// Originate the token for iteration `self.cur` (root role) and
    /// advance.
    pub(crate) fn originate_next(&mut self) -> Result<()> {
        debug_assert!(self.is_root);
        let token = RingMsg::originate(self.cur, self.me, self.cfg.pad);
        self.ft_send_right(token, false)?;
        self.stats.originated += 1;
        self.cur += 1;
        Ok(())
    }

    /// A lap came home: record the closure, then originate the next
    /// lap or finish.
    fn close_lap(&mut self, t: &RingMsg) -> Result<()> {
        self.stats.closures.push((t.marker, t.value));
        if self.cur < self.cfg.max_iter {
            self.originate_next()
        } else {
            self.done = true;
            Ok(())
        }
    }

    /// Pass the token of lap `cur` on to the right.
    ///
    /// `cur` advances *before* the send: `ft_send_right` can walk past
    /// a dead right neighbour into `check_root_change`, and a takeover
    /// that runs mid-forward must see this lap as already handled.
    /// Incrementing after the send let the `cur == 0` takeover
    /// originate a second marker-`cur` token and then double-count the
    /// lap (`cur` = 2 with one lap handled), so the new root later
    /// dropped its own closure as stale — both survivors deadlocked
    /// (root-chain seed 0x1d1).
    fn forward(&mut self, t: RingMsg) -> Result<()> {
        let fwd = t.forwarded();
        self.cur += 1;
        self.ft_send_right(fwd, false)?;
        self.stats.forwarded += 1;
        Ok(())
    }

    /// A token that is neither forwarded nor a closure: a stale resend
    /// is dropped; a marker this rank has not reached yet is impossible
    /// without Byzantine behaviour (§III-B) — a protocol violation.
    fn drop_stale(&mut self, t: &RingMsg) -> Result<()> {
        if t.marker < self.cur {
            self.stats.duplicates_dropped += 1;
            Ok(())
        } else {
            Err(Error::InvalidState("token from a future iteration: protocol violation"))
        }
    }

    /// Handle a token at the root (including a root that took over).
    fn root_handle_token(&mut self, t: RingMsg) -> Result<()> {
        if self.cfg.dedup == DedupStrategy::None {
            // No way to tell closures from duplicates: every token
            // coming home is treated as the current lap finishing —
            // the Fig. 8 defect, observable in `closures`.
            return self.close_lap(&t);
        }
        let closes = t.marker + 1 == self.cur;
        if t.origin == self.me {
            // My own origination came home: the closure of lap
            // `marker`, unless a resend already closed it.
            if closes {
                self.close_lap(&t)
            } else {
                self.drop_stale(&t)
            }
        } else if t.marker == self.cur {
            // A token originated by the failed previous root that has
            // not passed here yet: participate like a forwarder
            // (§III-D takeover). It comes home later for the takeover
            // closure below.
            self.forward(t)
        } else if closes && self.stats.originated == 0 && self.last_recv_from != Some(t.origin) {
            // Takeover closure: exactly one dead-root lap — the one
            // whose token can no longer come home to its originator —
            // may need closing by the new root. Only before this rank's
            // own first origination: a foreign `cur - 1` token arriving
            // after that is a stale resend of a lap whose closure duty
            // this rank's own circulating token now carries, and
            // closing it here would double-originate the next lap (seed
            // 0x1882's cascade, DESIGN.md §8.7). And only if the token
            // actually *circulated*: a closure has been forwarded
            // through every survivor, so its immediate sender is this
            // rank's live predecessor, never the (dead) origin itself.
            // A token arriving straight from its origin is a zero-hop
            // duplicate — the dead root's origination or detector
            // resend delivered directly to us — while the real lap
            // token is still circulating. Closing on it puts two live
            // tokens in the ring, and a rank that then dies holding the
            // older one strands a survivor on a lap it never saw
            // (triple-shape seed 0x18576 at 8 ranks, §8.8).
            self.close_lap(&t)
        } else {
            self.drop_stale(&t)
        }
    }

    /// Handle a token at a non-root rank.
    fn nonroot_handle_token(&mut self, t: RingMsg) -> Result<()> {
        if self.cfg.dedup == DedupStrategy::None {
            if t.marker < self.cur {
                // Without duplicate control the resend is forwarded
                // again — the Fig. 8 double completion. Count it.
                self.stats.duplicate_forwards += 1;
            }
            self.forward(t)
        } else if t.marker == self.cur {
            self.forward(t)
        } else {
            self.drop_stale(&t)
        }
    }

    /// Run the main ring loop to completion of this rank's part.
    fn main_loop(&mut self) -> Result<()> {
        if self.cfg.max_iter == 0 {
            return Ok(());
        }
        if self.is_root {
            self.originate_next()?;
        }
        loop {
            // The root is finished once the last lap has closed;
            // everyone else once it has forwarded the last lap.
            let finished = if self.is_root { self.done } else { self.cur >= self.cfg.max_iter };
            if finished {
                return Ok(());
            }
            let token = self.recv_token()?;
            // Close-succession window: a resent token can arrive (often
            // on the detector slot — real data from the right matches
            // it) *before* this rank has processed the failure
            // notifications that make it the new root. Judging the
            // token under the stale non-root view drops it as a "stale
            // duplicate" (marker < cur) — the very closure this rank
            // will then wait on forever once it does take over. Re-run
            // the election against the current failed-set first, so the
            // dispatch below always judges under a fixed-point view of
            // who the root is. Free when the root is alive
            // (`check_root_change` early-returns without communicating,
            // so green schedules keep byte-identical decision logs).
            self.check_root_change()?;
            if self.is_root {
                self.root_handle_token(token)?;
            } else {
                self.nonroot_handle_token(token)?;
            }
        }
    }

    /// Tear down posted receives before the termination phase (late
    /// tokens are absorbed by the unexpected queue and dropped; every
    /// rank that still needs them is covered by the resend machinery).
    pub(crate) fn cancel_receivers(&mut self) {
        for slot in [&mut self.normal, &mut self.resend_rx] {
            if let Some((req, _)) = slot.take() {
                if self.p.test(req).ok().flatten().is_none() {
                    let _ = self.p.cancel(req);
                }
            }
        }
    }

    /// Take the failure detector down once termination is over. It
    /// watched through the whole termination phase, so nothing it could
    /// still complete with is owed to anyone; left posted it would
    /// match the first token of a later run on a two-rank communicator
    /// (right == left). `cancel` alone: it makes no progress pass, so
    /// the release is not a scheduling point.
    fn release_detector(&mut self) {
        if let Some((req, _)) = self.detector.take() {
            let _ = self.p.cancel(req);
        }
    }
}

/// Run the fault-tolerant ring (paper Fig. 3) on this rank.
///
/// Installs `ErrorsReturn` on the communicator (Fig. 3 line 10), runs
/// the main loop, then the configured termination protocol, and
/// returns this rank's [`RingStats`]. A configuration that enables root
/// failover without what it depends on is rejected with
/// `Error::InvalidState` before anything is installed or posted.
///
/// **Back-to-back runs:** separate two runs on one communicator with a
/// barrier. A rank still in the first run's termination watches its
/// right neighbour on `T_N`; on a two-rank communicator (right == left)
/// it would take the second run's first token for a late one and drop
/// it.
///
/// **Recovery extension caveat:** do not combine the ring with
/// `UniverseConfig::respawning`. A respawned rank has lost its
/// iteration state, and the ring (faithful to the paper, which scopes
/// recovery out) has no state-transfer protocol — neighbours would
/// route tokens to a rank that cannot handle them. The
/// `apps::diskless` solver shows what such a state-transfer protocol
/// looks like for recoverable workloads.
pub fn run_ring(p: &mut Process, comm: Comm, cfg: &RingConfig) -> Result<RingStats> {
    if cfg.allow_root_failure {
        if !matches!(
            cfg.termination,
            TerminationMode::ValidateAll | TerminationMode::DoubleBarrier
        ) {
            return Err(Error::InvalidState(
                "root failover requires a root-independent termination (the \
                 root broadcast of Fig. 11 dies with the root)",
            ));
        }
        if cfg.recv != RecvStrategy::Detector {
            return Err(Error::InvalidState(
                "root failover requires the failure-detector receive",
            ));
        }
    }
    p.set_errhandler(comm, ErrorHandler::ErrorsReturn)?;
    let mut ctx = Ctx::new(p, comm, cfg.clone())?;
    ctx.main_loop()?;
    ctx.cancel_receivers();
    ctx.run_termination()?;
    ctx.release_detector();
    ctx.stats.terminated = true;
    Ok(ctx.stats)
}
