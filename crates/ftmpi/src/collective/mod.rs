//! Fault-aware collective operations.
//!
//! Semantics per the run-through stabilization proposal (§II of the
//! paper):
//!
//! * Once **any** member of a communicator has failed, every collective
//!   on it returns an error of class `MPI_ERR_RANK_FAIL_STOP` until the
//!   communicator is repaired with `comm_validate_all`.
//! * After a successful `validate_all`, the collectively-recognized
//!   failed ranks "participate as if they were `MPI_PROC_NULL`": the
//!   algorithms here skip exactly that agreed set (the *active set*),
//!   which is identical at every member — a requirement for tree
//!   algorithms to mesh.
//! * Return codes of ordinary collectives are **not** required to be
//!   consistent: a tree broadcast may succeed at ranks that finished
//!   forwarding before a failure and fail elsewhere. Only
//!   `validate_all` gives agreement.
//!
//! ### Hang freedom
//!
//! A failed rank cannot wedge a collective: receives posted to it error
//! via the failure detector. The subtler case is an *alive* rank that
//! leaves a collective early with an error — its dependents would wait
//! forever. Every operation here therefore runs inside one frame,
//! [`Process::collective`]: it declares the peers that will wait on a
//! message from it, and the frame **poisons** those it has not yet
//! tried to send to before it returns any error — an entry failure, a
//! failed receive, a payload that does not decode, a bad argument. A
//! poisoned receive completes with `RankFailStop` and the error (plus
//! more poison) propagates outward. Combined with eager sends this
//! bounds every failure case to "error, not hang", which the
//! integration tests assert with watchdogs and
//! `dst/tests/sim_tree_collectives.rs` under the scheduler.

mod allgather;
mod barrier;
mod bcast;
mod gather;
mod reduce;
mod scan;

use bytes::Bytes;

use faultsim::{Hook, HookKind};

use crate::comm::Comm;
use crate::error::{Error, Result};
use crate::process::Process;
use crate::rank::CommRank;
use crate::request::Completion;
use crate::tag::{system_tag, Tag};
use crate::trace::Event;

pub(crate) const OP_BARRIER: u8 = 0;
pub(crate) const OP_BCAST: u8 = 1;
pub(crate) const OP_REDUCE: u8 = 2;
pub(crate) const OP_GATHER: u8 = 3;
pub(crate) const OP_SCATTER: u8 = 4;
pub(crate) const OP_ALLGATHER: u8 = 5;
pub(crate) const OP_ALLTOALL: u8 = 6;
pub(crate) const OP_SCAN: u8 = 7;

/// Per-invocation collective context.
pub(crate) struct CollCtx {
    pub comm: Comm,
    pub name: &'static str,
    /// Active comm ranks (members minus the validated failed set), in
    /// ascending order; identical at every member.
    pub active: Vec<CommRank>,
    /// This process's index in `active`.
    pub vrank: usize,
    /// The root's index in `active` (0 for an operation without one).
    pub vroot: usize,
    /// System tag for this instance.
    pub tag: Tag,
    /// Indices in `active` of the peers that still wait on a message
    /// from this rank, in the order it sends to them. `coll_send`
    /// strikes its destination; whoever is left when the rank leaves
    /// with an error is poisoned.
    owed: Vec<usize>,
}

impl CollCtx {
    /// Number of active participants.
    pub fn size(&self) -> usize {
        self.active.len()
    }

    /// Comm rank of the active participant at `v`.
    pub fn rank_at(&self, v: usize) -> CommRank {
        self.active[v]
    }

    /// This rank's position in the tree rooted at `vroot`: the active
    /// set rotated so that the root is position 0.
    pub fn tree_pos(&self) -> usize {
        (self.vrank + self.size() - self.vroot) % self.size()
    }

    /// The active index of tree position `pos`.
    pub fn at_tree_pos(&self, pos: usize) -> usize {
        (pos + self.vroot) % self.size()
    }

    /// Every active index but this rank's, ascending.
    pub fn others(&self) -> Vec<usize> {
        (0..self.size()).filter(|&v| v != self.vrank).collect()
    }
}

impl Process {
    /// The frame every message-passing collective runs in. Enter (see
    /// [`Process::coll_begin`]), map `root` into the active set, let the
    /// operation declare through `owes` the peers that will wait on it,
    /// run `body`, and leave: through [`Process::coll_end`] on success,
    /// and on any non-terminal error — the entry check's, `first`'s,
    /// the body's — by poisoning every peer still owed a message and
    /// applying the communicator's error handler, once.
    ///
    /// `first` is the error of the phase this instance follows in a
    /// composed collective: the instance is still entered, so that
    /// counters stay aligned, and abandoned at once.
    pub(crate) fn collective<R>(
        &mut self,
        comm: Comm,
        (op, name): (u8, &'static str),
        root: Option<CommRank>,
        first: Option<Error>,
        owes: impl FnOnce(&CollCtx) -> Vec<usize>,
        body: impl FnOnce(&mut Self, &mut CollCtx) -> Result<R>,
    ) -> Result<R> {
        let (mut cctx, entry_err) = self.coll_begin(comm, op, name)?;
        // A root that failed and was validated out leaves no tree to
        // join: nobody can be waiting on this rank, nothing is owed.
        let rooted = match root {
            None => Ok(0),
            Some(root) => cctx
                .active
                .iter()
                .position(|&r| r == root)
                .ok_or(Error::RankFailStop { rank: root }),
        };
        if let Ok(vroot) = rooted {
            cctx.vroot = vroot;
            cctx.owed = owes(&cctx);
        }
        let done = match first.or(entry_err).map_or(rooted, Err) {
            Ok(_) => body(self, &mut cctx),
            Err(e) => Err(e),
        };
        let e = match done.and_then(|out| self.coll_end().map(|()| out)) {
            Ok(out) => return Ok(out),
            Err(e) => e,
        };
        if !e.is_terminal() {
            self.shared
                .trace
                .record(Event::CollectivePoison { rank: self.world_rank(), op: cctx.name });
            for &v in &cctx.owed {
                // Best effort: errors to already-dead peers are ignored.
                let _ = self.sys_send(comm, cctx.rank_at(v), cctx.tag, Bytes::new(), true);
            }
        }
        Err(self.fail_op(Some(comm.0), e))
    }

    /// Enter a collective: bump the instance, fire the injection hook,
    /// and perform the entry failure check. On an entry error the
    /// frame must still poison this rank's dependents (it needs the
    /// `CollCtx` for that), so the context is returned in both cases.
    fn coll_begin(
        &mut self,
        comm: Comm,
        op: u8,
        name: &'static str,
    ) -> Result<(CollCtx, Option<Error>)> {
        self.shared.registry.check_alive(self.world_rank(), self.generation())?;
        self.hook(Hook::bare(HookKind::BeforeCollective))?;
        let c = self.comm_data_mut(comm)?;
        let instance = c.coll_instance;
        c.coll_instance += 1;
        let c = self.comm_data(comm)?;
        let active = c.collective_active();
        let vrank = active
            .iter()
            .position(|&r| r == c.my_rank)
            .expect("an alive member is always active");
        // Entry check: any failure outside the validated set
        // disables collectives until the next validate_all.
        let registry = &self.shared.registry;
        let entry_err = (0..c.size())
            .find(|r| {
                registry.is_failed(c.group.world_rank(*r).expect("rank in range"))
                    && !c.validated.contains(r)
            })
            .map(|rank| Error::RankFailStop { rank });
        if self.shared.trace.enabled() {
            self.shared.trace.record(Event::CollectiveEnter {
                rank: self.world_rank(),
                op: name,
                instance,
            });
        }
        let tag = system_tag(op, instance);
        Ok((CollCtx { comm, name, active, vrank, vroot: 0, tag, owed: Vec::new() }, entry_err))
    }

    /// Blocking system receive inside a collective: no error handler;
    /// poison and peer failure surface as `RankFailStop`. A message
    /// that arrived fires `AfterRecvComplete`, so a plan can kill this
    /// rank holding data it has not passed on (Fig. 6, inside a tree).
    pub(crate) fn coll_recv(&mut self, cctx: &CollCtx, from_v: usize) -> Result<Bytes> {
        let src = cctx.rank_at(from_v);
        let req = self.sys_irecv(cctx.comm, src, cctx.tag)?;
        let completion = self.sys_wait(req)?;
        if completion.status.is_proc_null() {
            // The peer failed and was recognized locally while we
            // waited; within a collective that is still a failure.
            return Err(Error::RankFailStop { rank: src });
        }
        let world = self.comm_data(cctx.comm)?.group.world_rank(src);
        self.hook(Hook::recv(HookKind::AfterRecvComplete, world, cctx.tag))?;
        Ok(completion.data)
    }

    /// Blocking system send inside a collective. The attempt settles
    /// what this rank owed `to_v`, delivered or not: a peer that could
    /// not be reached is dead and waits on nobody.
    pub(crate) fn coll_send(&mut self, cctx: &mut CollCtx, to_v: usize, data: Bytes) -> Result<()> {
        cctx.owed.retain(|&v| v != to_v);
        self.sys_send(cctx.comm, cctx.rank_at(to_v), cctx.tag, data, false)
    }

    /// Run `step` for each of `over`, past per-peer errors — a dead
    /// peer must not cost the others their data — and report the first
    /// of them; a terminal error ends the walk at once.
    pub(crate) fn coll_each<I>(
        &mut self,
        over: impl IntoIterator<Item = I>,
        mut step: impl FnMut(&mut Self, I) -> Result<()>,
    ) -> Result<()> {
        let mut first_err = None;
        for item in over {
            match step(self, item) {
                Err(e) if e.is_terminal() => return Err(e),
                Err(e) => first_err = first_err.or(Some(e)),
                Ok(()) => {}
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Wait for a request without consuming hooks or error handlers
    /// (collective-internal).
    pub(crate) fn sys_wait(&mut self, req: crate::request::Request) -> Result<Completion> {
        self.wait_loop(move |p| Ok(if p.reqs.is_done(req)? { Some(()) } else { None }))?;
        self.reqs.take(req)?.1.into_result()
    }

    /// Leave a collective successfully.
    fn coll_end(&mut self) -> Result<()> {
        self.hook(Hook::bare(HookKind::AfterCollective))
    }

    /// The lowest active rank of `comm`: the root both phases of a
    /// composed collective use.
    pub(crate) fn lowest_active(&self, comm: Comm) -> Result<CommRank> {
        let c = self.comm_data(comm)?;
        Ok(*c.collective_active().first().expect("at least self is active"))
    }
}

/// Binomial-tree parent of relative rank `u` in a tree of `m` nodes
/// rooted at 0, together with the mask at which the parent was found.
pub(crate) fn binomial_parent(u: usize, m: usize) -> Option<(usize, usize)> {
    debug_assert!(u < m);
    let mut mask = 1usize;
    while mask < m {
        if u & mask != 0 {
            return Some((u - mask, mask));
        }
        mask <<= 1;
    }
    None
}

/// Binomial-tree children of relative rank `u` in a tree of `m` nodes:
/// `u + mask` for descending masks below `u`'s lowest set bit (or below
/// `m` for the root).
pub(crate) fn binomial_children(u: usize, m: usize) -> Vec<usize> {
    let mut top = 1usize;
    while top < m && u & top == 0 {
        top <<= 1;
    }
    // `top` is u's lowest set bit, or >= m for the root.
    let mut children = Vec::new();
    let mut mask = top >> 1;
    while mask > 0 {
        let child = u + mask;
        if child < m {
            children.push(child);
        }
        mask >>= 1;
    }
    children
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_tree_m4() {
        assert_eq!(binomial_parent(0, 4), None);
        assert_eq!(binomial_parent(1, 4), Some((0, 1)));
        assert_eq!(binomial_parent(2, 4), Some((0, 2)));
        assert_eq!(binomial_parent(3, 4), Some((2, 1)));
        assert_eq!(binomial_children(0, 4), vec![2, 1]);
        assert_eq!(binomial_children(2, 4), vec![3]);
        assert_eq!(binomial_children(1, 4), Vec::<usize>::new());
        assert_eq!(binomial_children(3, 4), Vec::<usize>::new());
    }

    #[test]
    fn binomial_tree_is_consistent_for_all_sizes() {
        for m in 1..64 {
            let mut indegree = vec![0usize; m];
            for u in 0..m {
                for c in binomial_children(u, m) {
                    assert!(c < m);
                    indegree[c] += 1;
                    assert_eq!(binomial_parent(c, m), Some((u, c - u)),
                        "child {c} of {u} (m={m}) must see {u} as parent");
                }
            }
            assert_eq!(indegree[0], 0, "root has no parent (m={m})");
            for (u, d) in indegree.iter().enumerate().skip(1) {
                assert_eq!(*d, 1, "node {u} must have exactly one parent (m={m})");
            }
        }
    }

    #[test]
    fn binomial_singleton() {
        assert_eq!(binomial_parent(0, 1), None);
        assert!(binomial_children(0, 1).is_empty());
    }
}
