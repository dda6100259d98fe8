//! The per-rank process handle: the MPI-like API surface.
//!
//! A [`Process`] is owned by its rank's thread and provides:
//!
//! * point-to-point: [`Process::send`], [`Process::recv`],
//!   [`Process::isend`], [`Process::irecv`], [`Process::sendrecv`];
//! * completion: [`Process::wait`], [`Process::waitany`],
//!   [`Process::waitall`], [`Process::waitsome`], [`Process::test`],
//!   [`Process::cancel`];
//! * run-through stabilization (paper Fig. 1):
//!   [`Process::comm_validate_rank`], [`Process::comm_validate`],
//!   [`Process::comm_validate_clear`], [`Process::comm_validate_all`],
//!   [`Process::icomm_validate_all`];
//! * communicator management: [`Process::comm_dup`],
//!   [`Process::comm_split`], [`Process::set_errhandler`];
//! * collectives (see the `collective` module).
//!
//! ### Failure semantics (proposal §II)
//!
//! * Sends and receives naming a failed, *unrecognized* rank raise
//!   [`Error::RankFailStop`]. Posted (nonblocking) receives complete in
//!   error when the peer fails — this is what makes the paper's
//!   "`MPI_Irecv` as a failure detector" idiom (Fig. 9) work.
//! * `ANY_SOURCE` receives raise `RankFailStop` while any unrecognized
//!   failure exists in the communicator. A death that a revival ends
//!   before an `ANY_SOURCE` receiver looks is never reported to it, so
//!   the run can deadlock (DESIGN.md §7; ROADMAP item 18 is the fix).
//! * Recognized ranks have `MPI_PROC_NULL` semantics: sends are
//!   dropped, receives complete immediately with
//!   [`Status::proc_null`].
//! * The default error handler is `ErrorsAreFatal`; fault-tolerant code
//!   must install [`ErrorHandler::ErrorsReturn`] first (paper Fig. 3
//!   line 10).

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use faultsim::{ChoiceKind, Decision, Hook, HookKind, SchedPoint, StepOutcome};

use crate::comm::{Comm, CommData, WORLD};
use crate::coro::with_sched;
use crate::datatype::Datatype;
use crate::detector::FailureRegistry;
use crate::error::{Error, ErrorHandler, Result};
use crate::group::Group;
use crate::matching::{MatchEngine, MatchSpec, Posted, SrcSel};
use crate::message::Envelope;
use crate::rank::{CommRank, RankInfo, RankState, WorldRank};
use crate::request::{CollKind, Completion, ReqState, ReqTable, Request};
use crate::status::Status;
use crate::tag::{check_user_tag, Tag, TagSel};
use crate::trace::Event;
use crate::universe::{Shared, WORLD_CTX};

/// Receive source selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Receive from this communicator rank.
    Rank(CommRank),
    /// `MPI_ANY_SOURCE`.
    Any,
}

impl From<CommRank> for Src {
    fn from(r: CommRank) -> Self {
        Src::Rank(r)
    }
}

/// Outcome of [`Process::waitany`]: which request completed and how.
///
/// Mirrors the paper's `MPI_Waitany(…, &idx, &status)` usage, where the
/// index remains meaningful even when the return code is an error
/// (Fig. 9 line 8–11).
#[derive(Debug)]
pub struct WaitAny {
    /// Index into the request slice passed to `waitany`.
    pub index: usize,
    /// The completed request's result.
    pub result: Result<Completion>,
}

/// Per-rank process handle. Not `Sync`: owned by its rank's executor
/// slot (a pool worker thread, or a coroutine's slot), which keeps it
/// from run to run and resets it in place: a rank body on a warm slot
/// allocates none of the containers below again.
pub struct Process {
    me: WorldRank,
    gen: u32,
    /// The hook kinds this rank's unfired fault rules watch
    /// ([`Injector::watched`]): a hook of any other kind is not
    /// reported. Taken at attach, and again after a decision that fired
    /// a rule, the only thing that changes it.
    ///
    /// [`Injector::watched`]: faultsim::Injector::watched
    watch: u16,
    pub(crate) shared: Attached,
    pub(crate) comms: Vec<CommData>,
    pub(crate) reqs: ReqTable,
    engine: MatchEngine,
    send_seq: Vec<u32>,
    /// Reusable drain buffer for [`Fabric::drain_into`]: one mailbox
    /// drain per progress pass, zero steady-state allocations.
    drain_buf: Vec<Envelope>,
    /// Reusable typed-send encode buffer: [`Process::send`] encodes
    /// into it, then hands its vector over as the payload and takes an
    /// empty pooled one of at least the same capacity back.
    encode_buf: BytesMut,
    /// Whether this rank already snapshot its parked requests into the
    /// trace after a logical-watchdog abort (`Event::Blocked` is a
    /// once-per-rank dump, but every subsequent `sched_step` observes
    /// the abort too).
    blocked_dumped: bool,
    /// How often this process changed what it recognizes
    /// (`comm_validate_clear`, a decided `validate_all`): with the
    /// failure epoch, everything a posted receive's failure verdict
    /// depends on.
    recognitions: u64,
    /// `(failure epoch, recognitions)` the last full failure scan ran
    /// under; `None` before the first.
    scanned_under: Option<(u64, u64)>,
}

/// The universe a [`Process`] runs in, set for the length of one rank
/// body. A finished rank holds no `Arc<Shared>`: `Shared::reset` needs
/// the pool's to be the only one.
pub(crate) struct Attached(Option<Arc<Shared>>);

impl std::ops::Deref for Attached {
    type Target = Shared;

    fn deref(&self) -> &Shared {
        self.0.as_deref().expect("a process is used only inside its rank body")
    }
}

/// What the failure detector says about a receive or probe from `src`
/// that no message has matched: `None` while the incarnation it was
/// posted on is alive, and once that one has failed or been replaced by
/// a respawn, a PROC_NULL status if its failure is recognized,
/// `RankFailStop` if not. `ANY_SOURCE` names no incarnation: it names
/// the lowest unrecognized failure in the communicator.
#[inline]
fn unmatched_verdict(
    comm: &CommData,
    src: SrcSel,
    registry: &FailureRegistry,
) -> Option<Result<Status>> {
    match src {
        SrcSel::Exact(s, gen) => match comm.incarnation_state(s, gen, registry) {
            RankState::Ok => None,
            RankState::Null => Some(Ok(Status::proc_null())),
            RankState::Failed => Some(Err(Error::RankFailStop { rank: s })),
        },
        SrcSel::Any => comm
            .lowest_unrecognized_failure(registry)
            .map(|rank| Err(Error::RankFailStop { rank })),
    }
}

impl Process {
    /// Rank `me`'s process, attached to no universe yet.
    pub(crate) fn new(me: WorldRank) -> Self {
        Process {
            me,
            gen: 0,
            watch: 0,
            shared: Attached(None),
            comms: Vec::new(),
            reqs: ReqTable::default(),
            engine: MatchEngine::default(),
            send_seq: Vec::new(),
            drain_buf: Vec::new(),
            encode_buf: BytesMut::new(),
            blocked_dumped: false,
            recognitions: 0,
            scanned_under: None,
        }
    }

    /// Begin a rank body: incarnation `gen` of this rank in `shared`'s
    /// universe. The first attach builds the world communicator; later
    /// ones find it as [`Process::detach`] left it.
    pub(crate) fn attach(&mut self, shared: Arc<Shared>, gen: u32) {
        if self.comms.is_empty() {
            // The world group is shared universe state (an `Arc`
            // clone), not rebuilt per rank.
            self.comms.push(CommData::new(WORLD_CTX, shared.world_group.clone(), self.me));
            self.send_seq.resize(shared.size, 0);
        }
        self.gen = gen;
        self.watch = shared.injector.watched(self.me);
        self.shared.0 = Some(shared);
    }

    /// End a rank body, however it ended: drop the universe handle and
    /// return every container to what the first [`Process::attach`]
    /// left, keeping its capacity. Requests still outstanding are
    /// dropped; the request table's generation keeps counting, so a
    /// handle kept from this run names no request of the next.
    pub(crate) fn detach(&mut self) {
        self.shared.0 = None;
        self.drain_buf.clear();
        self.engine.reset();
        self.reqs.reset();
        self.send_seq.fill(0);
        self.encode_buf.clear();
        self.comms.truncate(1);
        self.comms[WORLD.0].reset();
        self.blocked_dumped = false;
        self.recognitions = 0;
        self.scanned_under = None;
    }

    // ------------------------------------------------------------------
    // Identity and communicator queries
    // ------------------------------------------------------------------

    /// This process's world rank.
    pub fn world_rank(&self) -> WorldRank {
        self.me
    }

    /// Number of ranks in the universe.
    pub fn world_size(&self) -> usize {
        self.shared.size
    }

    /// This incarnation's generation: 0 for an original process, `g+1`
    /// for the recovery extension's g-th respawn (the proposal's
    /// `MPI_Rank_info.generation`).
    pub fn generation(&self) -> u32 {
        self.gen
    }

    pub(crate) fn comm_data(&self, comm: Comm) -> Result<&CommData> {
        self.comms.get(comm.0).ok_or(Error::InvalidState("unknown communicator"))
    }

    pub(crate) fn comm_data_mut(&mut self, comm: Comm) -> Result<&mut CommData> {
        self.comms.get_mut(comm.0).ok_or(Error::InvalidState("unknown communicator"))
    }

    /// Size of `comm` (including failed members).
    pub fn comm_size(&self, comm: Comm) -> Result<usize> {
        Ok(self.comm_data(comm)?.size())
    }

    /// This process's rank in `comm`.
    pub fn comm_rank(&self, comm: Comm) -> Result<CommRank> {
        Ok(self.comm_data(comm)?.my_rank)
    }

    /// The group (membership) of `comm`.
    pub fn comm_group(&self, comm: Comm) -> Result<Group> {
        Ok(self.comm_data(comm)?.group.clone())
    }

    /// Install an error handler on `comm` (paper Fig. 3 line 10).
    pub fn set_errhandler(&mut self, comm: Comm, handler: ErrorHandler) -> Result<()> {
        self.comm_data_mut(comm)?.errhandler = handler;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Failure plumbing
    // ------------------------------------------------------------------

    fn ensure_alive(&self) -> Result<()> {
        self.shared.registry.check_alive(self.me, self.gen)
    }

    /// Scheduling point for deterministic simulation. A no-op without
    /// a scheduler; with one, this rank is a coroutine: it tells the
    /// scheduler it arrived — at `SchedPoint::Blocked` it is not
    /// granted before something wakes it — and draws the next grant
    /// itself, as the pool's driver would. A grant to this rank
    /// continues at once; any other switches straight to the granted
    /// rank's coroutine, and this one waits there until it is granted
    /// again. The scheduler's hang verdict (deadlock, or the step
    /// budget against livelock) comes back as a job abort, the logical
    /// replacement for the wall-clock watchdog.
    fn sched_step(&mut self, point: SchedPoint) -> Result<()> {
        if !self.shared.sim {
            return Ok(());
        }
        let me = self.me;
        let (rank, outcome) = with_sched(|s| {
            s.arrive(me, point);
            s.next()
        })
        .expect("a rank that just arrived is waiting to be granted");
        let outcome = if rank == me { outcome } else { crate::coro::transfer(rank, outcome) };
        if outcome == StepOutcome::Abort {
            if !self.blocked_dumped {
                self.blocked_dumped = true;
                self.record_blocked_requests();
            }
            self.shared.abort(crate::universe::WATCHDOG_ABORT_CODE);
            return Err(Error::Aborted { code: crate::universe::WATCHDOG_ABORT_CODE });
        }
        Ok(())
    }

    /// One-shot dump of every request this rank is still parked on,
    /// taken when the scheduler ends a simulated hang — for a deadlock
    /// that is the step at which the last enabled rank blocked. Each pending receive, validate and barrier becomes an
    /// [`Event::Blocked`] trace event; the `dst` hang triager rebuilds
    /// the per-rank wait-for graph from them. Exact by construction:
    /// this is the live request table, not an inference from the event
    /// stream.
    fn record_blocked_requests(&mut self) {
        if !self.shared.trace.enabled() {
            return;
        }
        for Posted { req, spec, .. } in self.engine.posted_in_order() {
            if !self.reqs.is_pending(*req) {
                continue;
            }
            self.shared.trace.record(Event::Blocked {
                rank: self.me,
                on: crate::trace::BlockedOn::Recv {
                    context: spec.context,
                    src: match spec.src {
                        SrcSel::Exact(s, _) => Some(s),
                        SrcSel::Any => None,
                    },
                    tag: match spec.tag {
                        TagSel::Exact(t) => Some(t),
                        TagSel::Any => None,
                    },
                },
            });
        }
        for kind in [CollKind::Validate, CollKind::Barrier] {
            let mut cursor = 0;
            while let Some((_, _, round)) = self.reqs.next_pending(kind, &mut cursor) {
                let on = match kind {
                    CollKind::Validate => crate::trace::BlockedOn::Validate { round },
                    CollKind::Barrier => crate::trace::BlockedOn::Barrier { round },
                };
                self.shared.trace.record(Event::Blocked { rank: self.me, on });
            }
        }
    }

    /// Consult the fault injector at a protocol point: one bit test
    /// unless one of this rank's unfired rules watches `h`'s kind.
    #[inline]
    pub(crate) fn hook(&mut self, h: Hook) -> Result<()> {
        if self.watch & h.kind.bit() == 0 {
            return Ok(());
        }
        self.observe(h)
    }

    fn observe(&mut self, h: Hook) -> Result<()> {
        let decision = self.shared.injector.observe(self.me, &h);
        if decision != Decision::Continue {
            self.watch = self.shared.injector.watched(self.me);
        }
        match decision {
            Decision::Continue => Ok(()),
            Decision::KillSelf => {
                self.shared.kill(self.me);
                Err(Error::SelfFailed)
            }
            Decision::KillOthers(list) => {
                for v in list.into_iter().flatten() {
                    if v < self.shared.size {
                        self.shared.kill(v);
                    }
                }
                Ok(())
            }
        }
    }

    /// Fail-stop this process immediately (for tests and applications
    /// that model voluntary crashes).
    pub fn fail_now(&mut self) -> Error {
        self.shared.kill(self.me);
        Error::SelfFailed
    }

    /// Abort the job (`MPI_Abort`). Returns the error the caller should
    /// propagate.
    pub fn abort(&mut self, _comm: Comm, code: i32) -> Error {
        self.shared.abort(code);
        Error::Aborted { code }
    }

    /// Apply `comm`'s error handler to a non-terminal error.
    pub(crate) fn fail_op(&mut self, comm_idx: Option<usize>, e: Error) -> Error {
        if e.is_terminal() {
            return e;
        }
        let handler = comm_idx
            .and_then(|i| self.comms.get(i))
            .map(|c| c.errhandler)
            .unwrap_or_default();
        match handler {
            ErrorHandler::ErrorsReturn => e,
            ErrorHandler::ErrorsAreFatal => {
                self.shared.abort(1);
                Error::Aborted { code: 1 }
            }
        }
    }

    // ------------------------------------------------------------------
    // Progress engine
    // ------------------------------------------------------------------

    fn progress(&mut self) -> Result<()> {
        self.ensure_alive()?;
        // Drain into the process-owned buffer so steady-state progress
        // passes allocate nothing. Taken/restored around the loop to
        // keep `self` borrowable inside it.
        let mut msgs = std::mem::take(&mut self.drain_buf);
        msgs.clear();
        let me = self.me;
        if self.shared.sim {
            // Delivery becomes a scheduler decision: draining only a
            // prefix models message delay without breaking FIFO.
            let pick = |n| with_sched(|s| s.choose(me, ChoiceKind::Drain, n + 1));
            self.shared.fabric.drain_into(me, pick, &mut msgs);
        } else {
            self.shared.fabric.drain_into(me, |n| n, &mut msgs);
        }
        let tracing = self.shared.trace.enabled();
        for env in msgs.drain(..) {
            let (src, ctx, tag, seq) = (env.src_comm, env.context, env.tag, u64::from(env.seq));
            let matched = self.engine.ingest(&mut self.reqs, env);
            if tracing && matched.is_some() {
                self.shared
                    .trace
                    .record(Event::RecvMatch { dst: self.me, src, context: ctx, tag, seq });
            }
        }
        self.drain_buf = msgs;
        self.failure_scan();
        self.poll_collectives(CollKind::Validate)?;
        self.poll_collectives(CollKind::Barrier)
    }

    /// Complete posted receives whose peers have failed (or been
    /// recognized). This is the mechanism behind "using `MPI_Irecv` as
    /// a failure detector" (paper §III-A).
    ///
    /// A receive's verdict is a function of the failure registry and
    /// of what this process recognizes, so every posted receive is
    /// looked at only when the failure epoch or `recognitions` moved
    /// since the last full scan; otherwise only the receives posted
    /// since the last pass are, whose peer may have been dead all
    /// along. Either way a receive completes in the pass a scan of
    /// everything would have completed it in.
    fn failure_scan(&mut self) {
        // Epoch first: `kill` marks the rank, then moves the epoch, so
        // a scan that raced the mark is repeated by the next pass.
        let now = (self.shared.registry.epoch(), self.recognitions);
        let full = self.scanned_under != Some(now);
        self.scanned_under = Some(now);
        let mut completed = false;
        let posted = if full { self.engine.posted_in_order() } else { self.engine.fresh() };
        for p in posted {
            let Some((ci, _)) = self.reqs.posted(p.req) else { continue };
            let Some(verdict) =
                unmatched_verdict(&self.comms[ci], p.spec.src, &self.shared.registry)
            else {
                continue;
            };
            let failed_peer = match verdict {
                Err(Error::RankFailStop { rank }) => Some(rank),
                _ => None,
            };
            if self.reqs.complete_if_pending(p.req, ReqState::done(verdict)) {
                completed = true;
                if let Some(peer) = failed_peer {
                    self.shared.trace.record(Event::RecvFailure { rank: self.me, peer });
                }
            }
        }
        self.engine.clear_fresh();
        if completed {
            self.engine.prune(&self.reqs);
        }
    }

    /// Poll the rendezvous board for every pending request of `kind`
    /// and complete those whose round is decided.
    fn poll_collectives(&mut self, kind: CollKind) -> Result<()> {
        let mut cursor = 0;
        while let Some((req, ci, round)) = self.reqs.next_pending(kind, &mut cursor) {
            let ctx = self.comms[ci].ctx;
            let (board, registry) = (&self.shared.board, &self.shared.registry);
            let polled = match kind {
                CollKind::Validate => board.validate_poll((ctx, round), registry),
                CollKind::Barrier => board.barrier_poll((ctx, round), registry),
            };
            let Some((gone, newly)) = polled else { continue };
            if newly {
                if kind == CollKind::Validate {
                    let failed = gone.len();
                    self.shared.trace.record(Event::ValidateDecided { context: ctx, round, failed });
                }
                self.shared.wake_all();
            }
            let comm = &mut self.comms[ci];
            match kind {
                CollKind::Validate => {
                    let min_instance = comm.coll_instance;
                    let count = comm.apply_validate_decision(&gone, &self.shared.registry);
                    self.recognitions += u64::from(count > 0);
                    // Instance numbers in tags wrap at 2^20; past that point
                    // the "older instance" test is ambiguous, so skip the
                    // purge (stale messages are harmless, only unreclaimed).
                    if min_instance < (1 << 20) {
                        self.engine.purge_system(ctx, min_instance);
                    }
                    self.reqs.complete_if_pending(req, ReqState::validated(count));
                    // AfterValidate injection point.
                    self.hook(Hook::bare(HookKind::AfterValidate))?;
                }
                // `gone` died without arriving: the round fails, naming
                // the lowest of them, unless there are none.
                CollKind::Barrier => {
                    let result = match gone.is_empty() {
                        true => ReqState::sent(),
                        false => {
                            let gone_comm = gone.iter().filter_map(|w| comm.group.rank_of(*w));
                            let rank = gone_comm.min().unwrap_or(0);
                            ReqState::Failed(Error::RankFailStop { rank })
                        }
                    };
                    self.reqs.complete_if_pending(req, result);
                }
            }
        }
        Ok(())
    }

    /// Block until `check` yields a value, making progress and parking
    /// between scans. All runtime blocking funnels through here.
    ///
    /// One rule decides whether this rank sleeps after a fruitless
    /// pass, whatever executes it: nothing its [`ParkToken`] watches
    /// moved since the pass began. A thread then sleeps in
    /// [`Fabric::park`]; a simulated rank arrives at its next
    /// scheduling point as `SchedPoint::Blocked` and is not granted
    /// until a delivery or a `Shared::wake_all` re-enables it.
    ///
    /// [`ParkToken`]: crate::transport::ParkToken
    /// [`Fabric::park`]: crate::transport::Fabric::park
    pub(crate) fn wait_loop<R>(
        &mut self,
        mut check: impl FnMut(&mut Self) -> Result<Option<R>>,
    ) -> Result<R> {
        // Nothing has been polled yet: the first pass is runnable.
        let mut point = SchedPoint::Tick;
        loop {
            self.sched_step(point)?;
            self.hook(Hook::bare(HookKind::Tick))?;
            let epoch = self.shared.registry.epoch();
            let token = self.shared.fabric.token(self.me, epoch);
            self.progress()?;
            if let Some(r) = check(self)? {
                return Ok(r);
            }
            if !self.shared.sim {
                let shared = &*self.shared;
                shared.fabric.park(self.me, token, || shared.registry.epoch());
            } else {
                // Parking the one thread every rank shares would stop
                // them all; this rank suspends in `sched_step` instead.
                // A rank the fault plan still owes a `Tick` kill keeps
                // ticking, or the occurrence would never come up.
                let shared = &self.shared;
                let sleeps = shared.fabric.would_park(self.me, token, shared.registry.epoch())
                    && self.watch & HookKind::Tick.bit() == 0;
                point = if sleeps { SchedPoint::Blocked } else { SchedPoint::Tick };
            }
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    fn send_impl(
        &mut self,
        comm: Comm,
        dst: CommRank,
        tag: Tag,
        payload: Bytes,
        poison: bool,
        system: bool,
    ) -> Result<()> {
        self.ensure_alive()?;
        let (ctx, my_rank, world_dst, state) = {
            let c = self.comm_data(comm)?;
            let world = c
                .group
                .world_rank(dst)
                .ok_or(Error::InvalidRank { rank: dst as isize })?;
            (c.ctx, c.my_rank, world, c.state_of(dst, &self.shared.registry))
        };
        self.sched_step(SchedPoint::Send { dst: world_dst, tag })?;
        self.hook(Hook::send(HookKind::BeforeSend, world_dst, tag))?;
        match state {
            RankState::Null if !system => return Ok(()), // PROC_NULL drop
            RankState::Null | RankState::Failed => {
                return Err(self.fail_op(Some(comm.0), Error::RankFailStop { rank: dst }));
            }
            RankState::Ok => {}
        }
        let seq = self.send_seq[world_dst];
        self.send_seq[world_dst] = seq.wrapping_add(1);
        if self.shared.trace.enabled() {
            self.shared.trace.record(Event::Send {
                src: self.me,
                dst: world_dst,
                context: ctx,
                tag,
                len: payload.len(),
            });
        }
        self.shared.deliver(
            world_dst,
            Envelope { src_comm: my_rank, context: ctx, tag, payload, seq, gen: self.gen, poison },
        );
        self.hook(Hook::send(HookKind::AfterSend, world_dst, tag))?;
        Ok(())
    }

    /// Blocking send of raw bytes (eager: completes locally).
    pub fn send_bytes(
        &mut self,
        comm: Comm,
        dst: CommRank,
        tag: Tag,
        payload: impl Into<Bytes>,
    ) -> Result<()> {
        let tag = check_user_tag(tag).map_err(|e| self.fail_op(Some(comm.0), e))?;
        self.send_impl(comm, dst, tag, payload.into(), false, false)
    }

    /// Blocking send of a typed value.
    ///
    /// The payload is encoded into this process's reusable scratch,
    /// whose vector then travels as the payload itself: the universe's
    /// payload pool swaps in an empty one for the next send, so a
    /// steady-state typed send writes its bytes once and allocates
    /// nothing (DESIGN.md §8.10).
    pub fn send<T: Datatype>(&mut self, comm: Comm, dst: CommRank, tag: Tag, value: &T) -> Result<()> {
        self.encode_buf.clear();
        value.encode(&mut self.encode_buf);
        let payload = self.shared.paypool.swap(&mut self.encode_buf);
        self.send_bytes(comm, dst, tag, payload)
    }

    /// Nonblocking send (eager: the returned request is already
    /// complete; provided for API symmetry).
    pub fn isend<T: Datatype>(
        &mut self,
        comm: Comm,
        dst: CommRank,
        tag: Tag,
        value: &T,
    ) -> Result<Request> {
        let state = match self.send(comm, dst, tag, value) {
            Ok(()) => ReqState::sent(),
            Err(e) => ReqState::Failed(e),
        };
        Ok(self.reqs.insert(None, state))
    }

    /// Internal send used by collective algorithms: system tags
    /// allowed, no PROC_NULL shortcut, optional poison.
    pub(crate) fn sys_send(
        &mut self,
        comm: Comm,
        dst: CommRank,
        tag: Tag,
        payload: Bytes,
        poison: bool,
    ) -> Result<()> {
        self.send_impl(comm, dst, tag, payload, poison, true)
    }

    /// Resolve what a receive or probe on `comm` names into the
    /// matcher's terms. A named source must be a member of `comm`; its
    /// current generation is the incarnation the failure verdict
    /// watches, and its world rank comes back too (`None` for
    /// [`Src::Any`]) for the injector's receive hooks.
    fn match_spec(
        &self,
        comm: Comm,
        src: Src,
        tag: TagSel,
    ) -> Result<(MatchSpec, Option<WorldRank>)> {
        let c = self.comm_data(comm)?;
        let (src, world) = match src {
            Src::Rank(s) => {
                let world =
                    c.group.world_rank(s).ok_or(Error::InvalidRank { rank: s as isize })?;
                (SrcSel::Exact(s, self.shared.registry.generation(world)), Some(world))
            }
            Src::Any => (SrcSel::Any, None),
        };
        Ok((MatchSpec { context: c.ctx, src, tag }, world))
    }

    /// Post a receive on `comm`: complete it from the unexpected queue,
    /// or register it with the matching engine.
    fn post_recv(&mut self, comm: Comm, spec: MatchSpec) -> Request {
        let (sim, me) = (self.shared.sim, self.me);
        let taken = self.engine.take_unexpected_with(&spec, |n| {
            // Which sender an ANY_SOURCE receive matches is a scheduler
            // decision (per-sender order stays fixed — non-overtaking).
            if sim {
                with_sched(|s| s.choose(me, ChoiceKind::AnySource, n))
            } else {
                0
            }
        });
        if let Some((result, meta)) = taken {
            if self.shared.trace.enabled() {
                self.shared.trace.record(Event::RecvMatch {
                    dst: self.me,
                    src: meta.src,
                    context: meta.context,
                    tag: meta.tag,
                    seq: u64::from(meta.seq),
                });
            }
            return self.reqs.insert(Some(comm.0), result);
        }
        let req = self.reqs.insert(Some(comm.0), ReqState::Posted(spec));
        self.engine.register(req, spec);
        req
    }

    /// Nonblocking receive. The request completes when a matching
    /// message arrives, or **in error** when the named peer fails (the
    /// failure-detector idiom of paper Fig. 9), or with a PROC_NULL
    /// status if the peer is a recognized failure.
    pub fn irecv(&mut self, comm: Comm, src: Src, tag: impl Into<TagSel>) -> Result<Request> {
        self.ensure_alive()?;
        let tag = tag.into();
        if let TagSel::Exact(t) = tag {
            check_user_tag(t).map_err(|e| self.fail_op(Some(comm.0), e))?;
        }
        let (spec, world_src) = self.match_spec(comm, src, tag)?;
        let hook_tag = match tag {
            TagSel::Exact(t) => t,
            TagSel::Any => -1,
        };
        self.hook(Hook::recv(HookKind::BeforeRecvPost, world_src, hook_tag))?;
        Ok(self.post_recv(comm, spec))
    }

    /// Internal receive-post for collective algorithms (system tags).
    pub(crate) fn sys_irecv(&mut self, comm: Comm, src: CommRank, tag: Tag) -> Result<Request> {
        self.ensure_alive()?;
        let (spec, _) = self.match_spec(comm, Src::Rank(src), TagSel::Exact(tag))?;
        Ok(self.post_recv(comm, spec))
    }

    /// Blocking receive of raw bytes: `(payload, status)`.
    pub fn recv_bytes(
        &mut self,
        comm: Comm,
        src: Src,
        tag: impl Into<TagSel>,
    ) -> Result<(Bytes, Status)> {
        let req = self.irecv(comm, src, tag)?;
        let c = self.wait(req)?;
        Ok((c.data, c.status))
    }

    /// Blocking receive into a caller-provided buffer, with MPI's
    /// truncation semantics: if the message is longer than `buf`, the
    /// receive errors with [`Error::Truncated`] (the message is
    /// consumed either way, as in MPI).
    pub fn recv_into(
        &mut self,
        comm: Comm,
        src: Src,
        tag: impl Into<TagSel>,
        buf: &mut [u8],
    ) -> Result<(usize, Status)> {
        let (data, status) = self.recv_bytes(comm, src, tag)?;
        if data.len() > buf.len() {
            return Err(self.fail_op(
                Some(comm.0),
                Error::Truncated { got: data.len(), cap: buf.len() },
            ));
        }
        buf[..data.len()].copy_from_slice(&data);
        let len = data.len();
        self.recycle_payload(data);
        Ok((len, status))
    }

    /// Blocking receive of a typed value: `(value, status)`.
    ///
    /// A PROC_NULL completion cannot be decoded; callers receiving from
    /// possibly-recognized peers should use [`Process::recv_bytes`].
    pub fn recv<T: Datatype>(
        &mut self,
        comm: Comm,
        src: Src,
        tag: impl Into<TagSel>,
    ) -> Result<(T, Status)> {
        let (data, status) = self.recv_bytes(comm, src, tag)?;
        let value = T::from_bytes(&data)?;
        self.recycle_payload(data);
        Ok((value, status))
    }

    /// Combined send + receive (deadlock-free: the send is eager).
    pub fn sendrecv<T: Datatype, U: Datatype>(
        &mut self,
        comm: Comm,
        dst: CommRank,
        send_tag: Tag,
        value: &T,
        src: Src,
        recv_tag: impl Into<TagSel>,
    ) -> Result<(U, Status)> {
        let req = self.irecv(comm, src, recv_tag)?;
        self.send(comm, dst, send_tag, value)?;
        let c = self.wait(req)?;
        let value = U::from_bytes(&c.data)?;
        self.recycle_payload(c.data);
        Ok((value, c.status))
    }

    /// Return a received payload's backing buffer to the universe's
    /// payload pool (DESIGN.md §8.10). Purely an optimization and
    /// always safe: a buffer still referenced anywhere else (a clone,
    /// an undelivered envelope) is refused by the pool and freed
    /// normally when its last handle drops. Call it once the payload
    /// is decoded or copied out — the typed receive paths do this
    /// automatically; callers of [`Process::recv_bytes`] /
    /// [`Process::waitany`] that drop the `Completion::data` may hand
    /// it back here instead.
    pub fn recycle_payload(&self, payload: Bytes) {
        self.shared.paypool.recycle(payload);
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// Consume a completed request: fire the after-receive injection
    /// point and apply the communicator's error handler.
    fn consume(&mut self, req: Request) -> Result<Completion> {
        let (comm_idx, state) = self.reqs.take(req)?;
        if let ReqState::Received { src, tag, .. } = state {
            let world = comm_idx.and_then(|i| self.comms[i].group.world_rank(src as CommRank));
            // May kill this process *after* the message was consumed —
            // exactly the Fig. 6 fault position.
            self.hook(Hook::recv(HookKind::AfterRecvComplete, world, tag))?;
        }
        match state.into_result() {
            Err(e) if e.is_terminal() => Err(e),
            Err(e) => Err(self.fail_op(comm_idx, e)),
            ok => ok,
        }
    }

    /// [`Process::consume`] for the multi-request waits: a terminal
    /// error (self-failure, abort) ends the whole wait, a per-operation
    /// error is that request's result.
    fn consume_op(&mut self, req: Request) -> Result<Result<Completion>> {
        match self.consume(req) {
            Err(e) if e.is_terminal() => Err(e),
            other => Ok(other),
        }
    }

    /// How many of `reqs` have completed; a stale handle is an error.
    fn ready_count(&self, reqs: &[Request]) -> Result<usize> {
        let mut n = 0;
        for r in reqs {
            n += usize::from(self.reqs.is_done(*r)?);
        }
        Ok(n)
    }

    /// Indices of the completed requests in `reqs`, ascending.
    fn ready<'a>(&'a self, reqs: &'a [Request]) -> impl Iterator<Item = usize> + 'a {
        (0..reqs.len()).filter(|&i| matches!(self.reqs.is_done(reqs[i]), Ok(true)))
    }

    /// Block until `req` completes and consume it.
    pub fn wait(&mut self, req: Request) -> Result<Completion> {
        self.wait_loop(move |p| Ok(if p.reqs.is_done(req)? { Some(()) } else { None }))?;
        self.consume(req)
    }

    /// Block until any of `reqs` completes; consume and return it.
    ///
    /// Only terminal conditions (self-failure, abort) and an empty
    /// `reqs` ([`Error::InvalidRequest`]: nothing could complete) are
    /// returned as `Err`; per-operation errors ride inside
    /// [`WaitAny::result`] so the caller still learns *which* request
    /// failed, as the paper's receive loop requires.
    pub fn waitany(&mut self, reqs: &[Request]) -> Result<WaitAny> {
        if reqs.is_empty() {
            return Err(Error::InvalidRequest);
        }
        let index = self.wait_loop(move |p| {
            let pick = match p.ready_count(reqs)? {
                0 => return Ok(None),
                1 => 0,
                // Several ready at once: which one "completed first" is
                // a scheduler decision (choice 0 without a scheduler,
                // matching the historical lowest-index behaviour).
                n if p.shared.sim => {
                    with_sched(|s| s.choose(p.me, ChoiceKind::WaitAny, n)).min(n - 1)
                }
                _ => 0,
            };
            Ok(p.ready(reqs).nth(pick))
        })?;
        let result = self.consume_op(reqs[index])?;
        Ok(WaitAny { index, result })
    }

    /// Block until every request completes; results in input order.
    pub fn waitall(&mut self, reqs: &[Request]) -> Result<Vec<Result<Completion>>> {
        self.wait_loop(move |p| {
            for r in reqs {
                if !p.reqs.is_done(*r)? {
                    return Ok(None);
                }
            }
            Ok(Some(()))
        })?;
        let mut out = Vec::with_capacity(reqs.len());
        for r in reqs {
            out.push(self.consume_op(*r)?);
        }
        Ok(out)
    }

    /// Block until at least one request completes; returns every
    /// completed `(index, result)`. An empty `reqs` is
    /// [`Error::InvalidRequest`]: nothing could complete.
    pub fn waitsome(&mut self, reqs: &[Request]) -> Result<Vec<(usize, Result<Completion>)>> {
        if reqs.is_empty() {
            return Err(Error::InvalidRequest);
        }
        self.wait_loop(move |p| Ok((p.ready_count(reqs)? > 0).then_some(())))?;
        let ready: Vec<usize> = self.ready(reqs).collect();
        let mut out = Vec::with_capacity(ready.len());
        for i in ready {
            out.push((i, self.consume_op(reqs[i])?));
        }
        Ok(out)
    }

    /// Nonblocking completion check; consumes the request if done.
    pub fn test(&mut self, req: Request) -> Result<Option<Completion>> {
        self.progress()?;
        if self.reqs.is_done(req)? {
            self.consume(req).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Cancel a pending request (frees the slot regardless of state).
    pub fn cancel(&mut self, req: Request) -> Result<()> {
        if let Some((_, spec)) = self.reqs.posted(req) {
            self.engine.unregister(req, spec);
        }
        self.reqs.remove(req)
    }

    /// Blocking probe: status of the next matching message without
    /// receiving it. Fails with `RankFailStop` like a receive would.
    pub fn probe(&mut self, comm: Comm, src: Src, tag: impl Into<TagSel>) -> Result<Status> {
        let (spec, _) = self.match_spec(comm, src, tag.into())?;
        self.wait_loop(move |p| {
            if let Some(env) = p.engine.peek(&spec) {
                return Ok(Some(Status::new(env.src_comm, env.tag, env.payload.len())));
            }
            unmatched_verdict(&p.comms[comm.0], spec.src, &p.shared.registry).transpose()
        })
        .map_err(|e| self.fail_op(Some(comm.0), e))
    }

    /// Nonblocking probe. Unlike [`Process::probe`] it does **not**
    /// fail like a receive would: with nothing queued it answers
    /// `Ok(None)` whether the named peer is alive, failed or
    /// recognized, so a caller may poll a possibly-dead neighbour
    /// (`apps::diskless` does) and learn of the failure from its
    /// receives instead.
    pub fn iprobe(&mut self, comm: Comm, src: Src, tag: impl Into<TagSel>) -> Result<Option<Status>> {
        self.progress()?;
        let (spec, _) = self.match_spec(comm, src, tag.into())?;
        Ok(self.engine.peek(&spec).map(|env| Status::new(env.src_comm, env.tag, env.payload.len())))
    }

    // ------------------------------------------------------------------
    // Run-through stabilization interfaces (paper Fig. 1)
    // ------------------------------------------------------------------

    /// `MPI_Comm_validate_rank`: local query of one rank's state.
    pub fn comm_validate_rank(&self, comm: Comm, rank: CommRank) -> Result<RankInfo> {
        let c = self.comm_data(comm)?;
        if rank >= c.size() {
            return Err(Error::InvalidRank { rank: rank as isize });
        }
        Ok(c.rank_info(rank, &self.shared.registry))
    }

    /// `MPI_Comm_validate`: local query of all failed ranks.
    pub fn comm_validate(&self, comm: Comm) -> Result<Vec<RankInfo>> {
        Ok(self.comm_data(comm)?.failed_infos(&self.shared.registry))
    }

    /// `MPI_Comm_validate_clear`: locally recognize the listed failed
    /// ranks (they acquire `MPI_PROC_NULL` semantics on this
    /// communicator, for this process). Returns how many transitions
    /// `Failed -> Null` occurred; listing alive ranks is not an error
    /// (they simply stay `Ok`).
    pub fn comm_validate_clear(&mut self, comm: Comm, ranks: &[CommRank]) -> Result<usize> {
        self.ensure_alive()?;
        let registry = &self.shared.registry;
        let c = self.comms.get_mut(comm.0).ok_or(Error::InvalidState("unknown communicator"))?;
        let mut n = 0;
        let mut invalid = None;
        for &r in ranks {
            if r >= c.size() {
                invalid = Some(Error::InvalidRank { rank: r as isize });
                break;
            }
            if c.state_of(r, registry) == RankState::Failed {
                c.recognize(r, registry);
                n += 1;
            }
        }
        // Also on the error path: the ranks before the invalid one
        // stay recognized.
        self.recognitions += u64::from(n > 0);
        invalid.map_or(Ok(n), Err)
    }

    /// `MPI_Icomm_validate_all`: nonblocking collective recognition of
    /// all failures in `comm`. The returned request completes with the
    /// agreed failed-rank count ([`Completion::validate_count`]) once
    /// every alive member has joined, and re-enables collectives.
    pub fn icomm_validate_all(&mut self, comm: Comm) -> Result<Request> {
        self.ensure_alive()?;
        self.hook(Hook::bare(HookKind::BeforeValidate))?;
        let (ctx, round, group) = {
            let c = self.comm_data_mut(comm)?;
            let round = c.validate_round;
            c.validate_round += 1;
            (c.ctx, round, c.group.clone())
        };
        self.shared.board.validate_join((ctx, round), self.me, &group);
        let state = ReqState::Joined { kind: CollKind::Validate, round };
        let req = self.reqs.insert(Some(comm.0), state);
        // Our join may have been the last: poll immediately so the
        // decision is made (and everyone woken) without waiting.
        self.poll_collectives(CollKind::Validate)?;
        Ok(req)
    }

    /// `MPI_Comm_validate_all`: blocking form. Returns the agreed
    /// number of failed ranks in `comm`.
    pub fn comm_validate_all(&mut self, comm: Comm) -> Result<usize> {
        let req = self.icomm_validate_all(comm)?;
        let c = self.wait(req)?;
        Ok(c.validate_count())
    }

    /// `MPI_Ibarrier`: nonblocking barrier whose request composes with
    /// `waitany` (the §III-C termination discussion).
    ///
    /// Rounds are lock-stepped per communicator. The round's outcome
    /// is **identical at every member** (see the `nbc` module): `Ok`
    /// when every required rank arrived, or `RankFailStop` naming the
    /// lowest rank that died without arriving — in which case the next
    /// round's required set excludes the dead, so a retry loop makes
    /// progress. (A real MPI does not guarantee consistent barrier
    /// return codes; the paper's complaint about ibarrier-based
    /// termination is precisely the complexity of handling that, which
    /// this runtime's stronger guarantee sidesteps — documented in
    /// DESIGN.md.)
    pub fn ibarrier(&mut self, comm: Comm) -> Result<Request> {
        self.ensure_alive()?;
        self.hook(Hook::bare(HookKind::BeforeCollective))?;
        let (ctx, round, active_world) = {
            let c = self.comm_data_mut(comm)?;
            let round = c.barrier_round;
            c.barrier_round += 1;
            let active: Vec<WorldRank> = c
                .collective_active()
                .into_iter()
                .filter_map(|r| c.group.world_rank(r))
                .collect();
            (c.ctx, round, active)
        };
        self.shared.board.barrier_join((ctx, round), self.me, &active_world);
        let state = ReqState::Joined { kind: CollKind::Barrier, round };
        let req = self.reqs.insert(Some(comm.0), state);
        // Our arrival may have completed the round.
        self.poll_collectives(CollKind::Barrier)?;
        Ok(req)
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Duplicate `comm` into a new communicator with identical
    /// membership but an isolated communication context.
    pub fn comm_dup(&mut self, comm: Comm) -> Result<Comm> {
        self.ensure_alive()?;
        let (parent_ctx, n, group, my_rank) = {
            let c = self.comm_data_mut(comm)?;
            let n = c.dup_count;
            c.dup_count += 1;
            (c.ctx, n, c.group.clone(), c.my_rank)
        };
        let ctx = self.shared.board.dup((parent_ctx, n), self.me, &self.shared.registry);
        let idx = self.comms.len();
        self.comms.push(CommData::new(ctx, group, my_rank));
        Ok(Comm(idx))
    }

    /// Split `comm` by color/key. `color = None` opts out (returns
    /// `Ok(None)`). Completes once every *alive* member has submitted;
    /// failed members that never submitted are excluded — which makes
    /// split double as a shrink-style recovery constructor.
    pub fn comm_split(&mut self, comm: Comm, color: Option<i64>, key: i64) -> Result<Option<Comm>> {
        self.ensure_alive()?;
        let (parent_ctx, n, group) = {
            let c = self.comm_data_mut(comm)?;
            let n = c.split_count;
            c.split_count += 1;
            (c.ctx, n, c.group.clone())
        };
        self.shared.board.split_join((parent_ctx, n), self.me, (color, key), &group);
        // Our submission may complete the rendezvous for everyone.
        self.shared.wake_all();
        let me = self.me;
        let result = self.wait_loop(move |p| {
            let polled = p.shared.board.split_poll((parent_ctx, n), me, &p.shared.registry);
            Ok(polled.map(|(res, newly)| {
                if newly {
                    p.shared.wake_all();
                }
                res
            }))
        })?;
        match result {
            None => Ok(None),
            Some((ctx, members)) => {
                let my_rank = members
                    .iter()
                    .position(|&w| w == self.me)
                    .expect("splitter is a member of its color");
                let idx = self.comms.len();
                self.comms.push(CommData::new(ctx, Group::new(members), my_rank));
                Ok(Some(Comm(idx)))
            }
        }
    }

    /// Number of live request slots (diagnostic, used by leak tests).
    pub fn live_requests(&self) -> usize {
        self.reqs.live()
    }
}

#[cfg(test)]
mod tests {
    //! The tests that read private state or test the watchdog itself;
    //! every other protocol test runs under the scheduler in
    //! `tests/runtime.rs` (DESIGN.md §6).

    use super::*;
    use crate::comm::WORLD;
    use crate::universe::UniverseConfig;
    use std::time::Duration;

    const TAG: Tag = 1;

    #[test]
    fn a_long_payload_is_the_encode_buffers_own_allocation() {
        let report = crate::run_default(1, |p| {
            // The first send leaves a pooled 64-byte vector behind, so
            // the second encodes without growing it.
            for fill in [1u8, 2] {
                let ptr = p.encode_buf.as_ptr();
                p.send(WORLD, 0, TAG, &[fill; 48])?;
                let (data, _) = p.recv_bytes(WORLD, Src::Rank(0), TAG)?;
                assert_eq!(&data[..], &[fill; 48]);
                if fill == 2 {
                    assert_eq!(data.as_ptr(), ptr, "the payload was copied out of the scratch");
                }
                p.recycle_payload(data);
            }
            Ok(p.encode_buf.capacity())
        });
        assert_eq!(report.outcomes[0].as_ok(), Some(&64));
    }

    #[test]
    fn mixed_send_sizes_on_a_warm_pool_allocate_nothing() {
        let report = crate::run_default(1, |p| {
            let (big, small) = (vec![0xA5u8; 16 * 1024], vec![0x5Au8; 32]);
            let mut buf = vec![0u8; 8 + big.len()];
            let mut round = |p: &mut Process| -> Result<()> {
                for value in [&big, &small] {
                    p.send(WORLD, 0, TAG, value)?;
                    let (len, _) = p.recv_into(WORLD, Src::Rank(0), TAG, &mut buf)?;
                    assert_eq!(&buf[8..len], &value[..]);
                }
                Ok(())
            };
            for _ in 0..3 {
                round(p)?;
            }
            let before = allocstats::snapshot();
            for _ in 0..50 {
                round(p)?;
            }
            Ok(allocstats::snapshot().since(&before).allocs)
        });
        assert_eq!(report.outcomes[0].as_ok(), Some(&0), "16 KiB and 40-byte sends allocated");
    }

    /// The failure scan looks at everything only when the epoch or
    /// this rank's recognitions moved; a receive posted on a peer that
    /// was dead all along must still complete on the next pass — in
    /// error while the death is unrecognized, as PROC_NULL once it is.
    #[test]
    fn receives_posted_after_the_death_complete_on_the_next_pass() {
        let plan = faultsim::FaultPlan::none().kill_at(1, faultsim::HookKind::Tick, 1);
        let report = crate::run(2, UniverseConfig::with_plan(plan), |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                let req = p.irecv(WORLD, Src::Rank(0), 99)?;
                let _ = p.wait(req)?;
                return Ok(());
            }
            // A receive naming rank 1 returns once it has died.
            assert_eq!(p.recv::<()>(WORLD, Src::Rank(1), 9), Err(Error::RankFailStop { rank: 1 }));
            // One pass under the kill's epoch, with a receive posted
            // that stays pending: the full scan has come and gone.
            let idle = p.irecv(WORLD, Src::Rank(0), 98)?;
            assert!(p.test(idle)?.is_none());
            let epoch = p.shared.registry.epoch();
            assert_eq!(p.scanned_under, Some((epoch, 0)));

            let late = p.irecv(WORLD, Src::Rank(1), TAG)?;
            assert_eq!(p.test(late), Err(Error::RankFailStop { rank: 1 }));
            assert_eq!(p.scanned_under, Some((epoch, 0)), "found as a fresh receive");

            // Posted while the death is unrecognized, recognized before
            // the next pass.
            let null = p.irecv(WORLD, Src::Rank(1), TAG)?;
            assert_eq!(p.comm_validate_clear(WORLD, &[1])?, 1);
            let c = p.test(null)?.expect("completes on the next pass");
            assert!(c.status.is_proc_null());
            assert_eq!(p.scanned_under, Some((epoch, 1)), "recognition re-arms the full scan");

            assert_eq!(p.shared.registry.epoch(), epoch, "no epoch change throughout");
            assert!(p.test(idle)?.is_none(), "a receive on a live peer stays posted");
            p.cancel(idle)
        });
        assert!(report.outcomes[0].is_ok(), "{:?}", report.outcomes[0]);
        assert!(report.outcomes[1].is_failed());
    }

    #[test]
    fn watchdog_converts_hang_into_abort_report() {
        let cfg = UniverseConfig::default().watchdog(Duration::from_millis(300));
        let report: crate::RunReport<()> = crate::run(2, cfg, |p| {
            // Everyone waits for a message that never comes.
            let req = p.irecv(WORLD, Src::Rank((p.world_rank() + 1) % 2), TAG)?;
            let _ = p.wait(req)?;
            Ok(())
        });
        assert!(report.hung);
        for o in &report.outcomes {
            assert!(matches!(o, crate::error::RankOutcome::Aborted { .. }));
        }
    }
}
