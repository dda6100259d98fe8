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
//! forever. Every algorithm here therefore **poisons** the peers that
//! still expect data from it before returning an error; a poisoned
//! receive completes with `RankFailStop` and the error (plus more
//! poison) propagates outward. Combined with eager sends this bounds
//! every failure case to "error, not hang", which the integration tests
//! assert with watchdogs.

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
    /// System tag for this instance.
    pub tag: Tag,
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
}

impl Process {
    /// Enter a collective: bump the instance, fire the injection hook,
    /// and perform the entry failure check. On an entry error the
    /// caller must still poison its dependents (it has a valid
    /// `CollCtx` for that), so the context is returned in both cases.
    pub(crate) fn coll_begin(
        &mut self,
        comm: Comm,
        op: u8,
        name: &'static str,
    ) -> Result<(CollCtx, Option<Error>)> {
        self.shared.registry.check_alive(self.world_rank(), self.generation())?;
        self.hook(Hook::bare(HookKind::BeforeCollective))?;
        let (ctx, entry_err, instance) = {
            let registry = std::sync::Arc::clone(&self.shared);
            let c = self.comm_data_mut(comm)?;
            let instance = c.coll_instance;
            c.coll_instance += 1;
            let active = c.collective_active();
            let vrank = active
                .iter()
                .position(|&r| r == c.my_rank)
                .expect("an alive member is always active");
            // Entry check: any failure outside the validated set
            // disables collectives until the next validate_all.
            let mut entry_err = None;
            for r in 0..c.size() {
                let failed = registry.registry.is_failed(
                    c.group.world_rank(r).expect("rank in range"),
                );
                if failed && !c.validated.contains(&r) {
                    entry_err = Some(Error::RankFailStop { rank: r });
                    break;
                }
            }
            (
                CollCtx { comm, name, active, vrank, tag: system_tag(op, instance) },
                entry_err,
                instance,
            )
        };
        if self.shared.trace.enabled() {
            self.shared.trace.record(Event::CollectiveEnter {
                rank: self.world_rank(),
                op: name,
                instance,
            });
        }
        Ok((ctx, entry_err))
    }

    /// Send a poison notification to the active participant at `v`
    /// (best effort: errors to already-dead peers are ignored).
    pub(crate) fn coll_poison(&mut self, cctx: &CollCtx, v: usize) {
        let dst = cctx.rank_at(v);
        let _ = self.sys_send(cctx.comm, dst, cctx.tag, Bytes::new(), true);
    }

    /// Record that this rank abandoned a collective with an error.
    pub(crate) fn coll_poisoned(&mut self, cctx: &CollCtx) {
        self.shared
            .trace
            .record(Event::CollectivePoison { rank: self.world_rank(), op: cctx.name });
    }

    /// Blocking system receive inside a collective: no error handler,
    /// no user hooks; poison and peer failure surface as
    /// `RankFailStop`.
    pub(crate) fn coll_recv(&mut self, cctx: &CollCtx, from_v: usize, ) -> Result<Bytes> {
        let src = cctx.rank_at(from_v);
        let req = self.sys_irecv(cctx.comm, src, cctx.tag)?;
        let completion = self.sys_wait(req)?;
        if completion.status.is_proc_null() {
            // The peer failed and was recognized locally while we
            // waited; within a collective that is still a failure.
            return Err(Error::RankFailStop { rank: src });
        }
        Ok(completion.data)
    }

    /// Blocking system send inside a collective.
    pub(crate) fn coll_send(&mut self, cctx: &CollCtx, to_v: usize, data: Bytes) -> Result<()> {
        self.sys_send(cctx.comm, cctx.rank_at(to_v), cctx.tag, data, false)
    }

    /// Wait for a request without consuming hooks or error handlers
    /// (collective-internal).
    pub(crate) fn sys_wait(&mut self, req: crate::request::Request) -> Result<Completion> {
        self.wait_loop(move |p| Ok(if p.reqs.is_done(req)? { Some(()) } else { None }))?;
        self.reqs.take(req)?
    }

    /// Leave a collective successfully.
    pub(crate) fn coll_end(&mut self) -> Result<()> {
        self.hook(Hook::bare(HookKind::AfterCollective))
    }

    /// Map `root` (a comm rank) to its index in the active set, erring
    /// if the root is failed/validated-out.
    pub(crate) fn coll_vroot(&self, cctx: &CollCtx, root: CommRank) -> Result<usize> {
        cctx.active
            .iter()
            .position(|&r| r == root)
            .ok_or(Error::RankFailStop { rank: root })
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
    fn collective_enter_traces_the_instance_on_the_communicator() {
        let cfg = crate::UniverseConfig::default().traced();
        let report = crate::run(3, cfg, |p| {
            let dup = p.comm_dup(crate::WORLD)?;
            for v in [7u32, 8] {
                p.bcast(dup, 0, (p.world_rank() == 0).then_some(&v))?;
            }
            // Instances count per communicator, not per process.
            p.bcast(crate::WORLD, 0, (p.world_rank() == 0).then_some(&9u32))
        });
        assert!(report.all_ok(), "{:?}", report.outcomes);
        for rank in 0..3 {
            let instances: Vec<u64> = report
                .trace
                .iter()
                .filter_map(|e| match e.event {
                    Event::CollectiveEnter { rank: r, instance, .. } if r == rank => Some(instance),
                    _ => None,
                })
                .collect();
            assert_eq!(instances, vec![0, 1, 0], "rank {rank}");
        }
    }

    #[test]
    fn binomial_singleton() {
        assert_eq!(binomial_parent(0, 1), None);
        assert!(binomial_children(0, 1).is_empty());
    }
}
