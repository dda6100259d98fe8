//! Diskless checkpointing + process recovery: an iterative solver that
//! survives crash-and-respawn without touching disk.
//!
//! The paper's §IV: "ABFT techniques typically require data encoding,
//! algorithm redesign, and **diskless checkpointing** [Plank et al.]
//! in addition to a fault tolerant message passing environment". This
//! application is that stack, end to end:
//!
//! * each rank iterates a deterministic kernel over its own block;
//! * every `checkpoint_every` iterations it ships a copy of its block
//!   to its *buddy* (the next rank), who stores it in memory — the
//!   diskless checkpoint;
//! * when a rank crashes, the recovery extension respawns it
//!   (generation + 1); the fresh incarnation asks its buddy for the
//!   last checkpoint, resumes from there, and recomputes only the
//!   iterations lost since — the "recovery patterns for iterative
//!   methods" of the paper's citation [24];
//! * if the buddy has nothing (or is itself dead), the block restarts
//!   from its initial state — slower, still exact.
//!
//! Rank 0 doubles as the completion coordinator: it collects `DONE`
//! from every rank (tolerating failures via `validate_clear`, the same
//! pattern as the task farm) and broadcasts `EXIT`, so buddies keep
//! serving restore requests for as long as anyone might need one.

use ftmpi::{Comm, Datatype, Error, Process, RankState, Result, Src, Tag};

const CKPT_TAG: Tag = 31;
const RESTORE_REQ_TAG: Tag = 32;
const RESTORE_REP_TAG: Tag = 33;
const DONE_TAG: Tag = 34;
const EXIT_TAG: Tag = 35;

/// Configuration of the solver.
#[derive(Debug, Clone)]
pub struct DisklessConfig {
    /// Elements per rank.
    pub block: usize,
    /// Total iterations each block must advance.
    pub iterations: u64,
    /// Checkpoint period (iterations between buddy checkpoints).
    pub checkpoint_every: u64,
}

impl Default for DisklessConfig {
    fn default() -> Self {
        DisklessConfig { block: 16, iterations: 200, checkpoint_every: 20 }
    }
}

/// Per-rank result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisklessResult {
    /// The final block values.
    pub block: Vec<u64>,
    /// Iterations recomputed after restores (0 in failure-free runs).
    pub recomputed: u64,
    /// Whether this incarnation restored from a buddy checkpoint.
    pub restored_from_checkpoint: bool,
    /// Checkpoints this rank served to a recovering left neighbour.
    pub restores_served: u64,
}

/// One deterministic kernel step for one element (a 64-bit LCG: cheap,
/// exact, and iteration-countable).
fn step(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

fn initial_block(rank: usize, cfg: &DisklessConfig) -> Vec<u64> {
    (0..cfg.block as u64).map(|i| (rank as u64) << 32 | (i + 1)).collect()
}

/// The failure-free reference: what `rank`'s block must equal after the
/// full run, regardless of crashes and restores along the way.
pub fn reference_block(rank: usize, cfg: &DisklessConfig) -> Vec<u64> {
    let mut b = initial_block(rank, cfg);
    for _ in 0..cfg.iterations {
        for x in b.iter_mut() {
            *x = step(*x);
        }
    }
    b
}

/// Reply to an already-consumed restore request with the newest
/// checkpoint. Checkpoints do not end a completion-phase wait, so
/// absorb the ones that arrived during it first: replying from the
/// store as it was would send a restarting neighbour nothing.
fn reply_restore(
    p: &mut Process,
    comm: Comm,
    left: usize,
    store: &mut Option<(u64, Vec<u64>)>,
    served: &mut u64,
) -> Result<()> {
    absorb_checkpoints(p, comm, store)?;
    let reply = match store {
        Some((it, block)) => (true, *it, block.clone()),
        None => (false, 0u64, Vec::new()),
    };
    match p.send(comm, left, RESTORE_REP_TAG, &reply) {
        Ok(()) => {
            *served += 1;
            Ok(())
        }
        Err(e) if e.is_terminal() => Err(e),
        Err(_) => Ok(()), // requester died again; its next incarnation will re-ask
    }
}

/// Serve at most one pending restore request from the left neighbour
/// (nonblocking; used inside the compute loop).
fn serve_restore(
    p: &mut Process,
    comm: Comm,
    left: usize,
    store: &mut Option<(u64, Vec<u64>)>,
    served: &mut u64,
) -> Result<()> {
    if p.iprobe(comm, Src::Rank(left), RESTORE_REQ_TAG)?.is_none() {
        return Ok(());
    }
    let (_, _) = p.recv::<u8>(comm, Src::Rank(left), RESTORE_REQ_TAG)?;
    reply_restore(p, comm, left, store, served)
}

/// Drain any checkpoint messages from the left neighbour into `store`
/// (keep the newest).
///
/// Only the left neighbour sends `CKPT_TAG` here, so they are taken
/// from `ANY_SOURCE`: a receive naming `left` matches only the
/// incarnation it was posted on (DESIGN.md §7), and a checkpoint the
/// dead incarnation left queued is exactly what its successor asks for.
/// A queued message completes the receive at once, so an unrecognized
/// failure in `comm` does not fail it.
fn absorb_checkpoints(
    p: &mut Process,
    comm: Comm,
    store: &mut Option<(u64, Vec<u64>)>,
) -> Result<()> {
    while p.iprobe(comm, Src::Any, CKPT_TAG)?.is_some() {
        let ((it, block), _) = p.recv::<(u64, Vec<u64>)>(comm, Src::Any, CKPT_TAG)?;
        if store.as_ref().map(|(i, _)| *i <= it).unwrap_or(true) {
            *store = Some((it, block));
        }
    }
    Ok(())
}

/// Run the solver on this rank.
pub fn run_diskless(p: &mut Process, comm: Comm, cfg: &DisklessConfig) -> Result<DisklessResult> {
    p.set_errhandler(comm, ftmpi::ErrorHandler::ErrorsReturn)?;
    let me = p.comm_rank(comm)?;
    let n = p.comm_size(comm)?;
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;

    // In-memory checkpoint store for my LEFT neighbour's block.
    let mut store: Option<(u64, Vec<u64>)> = None;
    let mut served = 0u64;

    // Recovery: a respawned incarnation first asks its buddy for the
    // last checkpoint of its own block.
    let mut block;
    let mut start_iter = 0u64;
    let mut restored = false;
    if p.generation() > 0 && n > 1 {
        match p.send(comm, right, RESTORE_REQ_TAG, &1u8) {
            Ok(()) => {
                match p.recv::<(bool, u64, Vec<u64>)>(comm, Src::Rank(right), RESTORE_REP_TAG) {
                    Ok(((true, it, b), _)) => {
                        block = b;
                        start_iter = it;
                        restored = true;
                    }
                    Ok(((false, _, _), _)) => {
                        block = initial_block(me, cfg);
                    }
                    Err(e) if e.is_terminal() => return Err(e),
                    Err(_) => {
                        // Buddy died before replying: restart.
                        block = initial_block(me, cfg);
                    }
                }
            }
            Err(e) if e.is_terminal() => return Err(e),
            Err(_) => {
                block = initial_block(me, cfg);
            }
        }
    } else {
        block = initial_block(me, cfg);
    }
    let recomputed = if p.generation() > 0 { cfg.iterations - start_iter } else { 0 };

    // Main loop: compute, checkpoint, serve.
    for it in start_iter..cfg.iterations {
        for x in block.iter_mut() {
            *x = step(*x);
        }
        if n > 1 && (it + 1) % cfg.checkpoint_every == 0 {
            match p.send(comm, right, CKPT_TAG, &(it + 1, block.clone())) {
                Ok(()) => {}
                Err(e) if e.is_terminal() => return Err(e),
                Err(_) => {} // buddy down: degraded (no checkpoint)
            }
        }
        if n > 1 {
            absorb_checkpoints(p, comm, &mut store)?;
            serve_restore(p, comm, left, &mut store, &mut served)?;
        }
    }

    if n == 1 {
        return Ok(DisklessResult {
            block,
            recomputed,
            restored_from_checkpoint: restored,
            restores_served: served,
        });
    }

    // Completion protocol. Both phases must keep SERVING restore
    // requests while they wait (a blocked buddy would wedge a
    // recovering neighbour), so every blocking wait is a waitany over
    // {the awaited message, the left neighbour's restore request}.
    let mut restore_slot: Option<ftmpi::Request> = None;
    if me == 0 {
        // Coordinator: collect DONE from every rank.
        let mut done = vec![false; n];
        done[0] = true;
        let mut done_slot: Option<ftmpi::Request> = None;
        loop {
            let all = (0..n).all(|r| {
                done[r]
                    || p.comm_validate_rank(comm, r)
                        .map(|i| i.state != RankState::Ok)
                        .unwrap_or(true)
            });
            if all {
                break;
            }
            absorb_checkpoints(p, comm, &mut store)?;
            if done_slot.is_none() {
                done_slot = Some(p.irecv(comm, Src::Any, DONE_TAG)?);
            }
            if restore_slot.is_none() {
                restore_slot = Some(p.irecv(comm, Src::Rank(left), RESTORE_REQ_TAG)?);
            }
            let reqs = [done_slot.unwrap(), restore_slot.unwrap()];
            let out = p.waitany(&reqs)?;
            if out.index == 0 {
                done_slot = None;
                match out.result {
                    Ok(c) => {
                        let r = u64::from_bytes(&c.data)? as usize;
                        done[r] = true;
                    }
                    Err(e) if e.is_terminal() => return Err(e),
                    Err(Error::RankFailStop { .. }) => {
                        // Recognize current deaths so ANY_SOURCE can
                        // continue; a respawned rank reverts to Ok and
                        // must still report DONE.
                        let failed: Vec<usize> = p
                            .comm_validate(comm)?
                            .into_iter()
                            .filter(|i| i.state == RankState::Failed)
                            .map(|i| i.rank)
                            .collect();
                        p.comm_validate_clear(comm, &failed)?;
                    }
                    Err(e) => return Err(e),
                }
            } else {
                restore_slot = None;
                match out.result {
                    Ok(c) if !c.status.is_proc_null() => {
                        reply_restore(p, comm, left, &mut store, &mut served)?;
                    }
                    Ok(_) => {}
                    Err(e) if e.is_terminal() => return Err(e),
                    Err(_) => {
                        // Left neighbour (re-)died: back off briefly so
                        // the error/repost cycle cannot busy-spin.
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            }
        }
        if let Some(r) = done_slot {
            let _ = p.cancel(r);
        }
        for r in 1..n {
            if p.comm_validate_rank(comm, r)?.state == RankState::Ok {
                match p.send(comm, r, EXIT_TAG, &()) {
                    Ok(()) => {}
                    Err(e) if e.is_terminal() => return Err(e),
                    Err(_) => {}
                }
            }
        }
    } else {
        p.send(comm, 0, DONE_TAG, &(me as u64))?;
        // Lame-duck phase: keep serving restores until EXIT.
        let exit_slot = p.irecv(comm, Src::Rank(0), EXIT_TAG)?;
        loop {
            absorb_checkpoints(p, comm, &mut store)?;
            if restore_slot.is_none() {
                restore_slot = Some(p.irecv(comm, Src::Rank(left), RESTORE_REQ_TAG)?);
            }
            let reqs = [exit_slot, restore_slot.unwrap()];
            let out = p.waitany(&reqs)?;
            if out.index == 0 {
                match out.result {
                    Ok(_) => break,
                    Err(e) => return Err(e),
                }
            }
            restore_slot = None;
            match out.result {
                Ok(c) if !c.status.is_proc_null() => {
                    reply_restore(p, comm, left, &mut store, &mut served)?;
                }
                Ok(_) => {}
                Err(e) if e.is_terminal() => return Err(e),
                Err(_) => {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        }
    }
    if let Some(r) = restore_slot {
        let _ = p.cancel(r);
    }

    Ok(DisklessResult {
        block,
        recomputed,
        restored_from_checkpoint: restored,
        restores_served: served,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dst::refereed;
    use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
    use ftmpi::{UniverseConfig, WORLD};

    #[test]
    fn failure_free_matches_reference() {
        let cfg = DisklessConfig { block: 8, iterations: 60, checkpoint_every: 10 };
        refereed(4, FaultPlan::none(), |p| run_diskless(p, WORLD, &cfg), |at, report| {
            for (r, o) in report.outcomes.iter().enumerate() {
                let res = o.as_ok().unwrap_or_else(|| panic!("{at}: rank {r}: {o:?}"));
                assert_eq!(res.block, reference_block(r, &cfg), "{at}: rank {r}");
                assert_eq!(res.recomputed, 0);
                assert!(!res.restored_from_checkpoint);
            }
        });
    }

    #[test]
    fn crash_restores_from_buddy_checkpoint_and_stays_exact() {
        let cfg = DisklessConfig { block: 8, iterations: 20_000, checkpoint_every: 50 };
        // Rank 2 dies after its 40th checkpoint send — early enough
        // that most of the run remains for the respawned incarnation.
        let plan = FaultPlan::none().with(FaultRule::kill(
            2,
            Trigger::on(HookKind::AfterSend).tag(CKPT_TAG).nth(40),
        ));
        let cfg2 = cfg.clone();
        let report = ftmpi::run(
            4,
            UniverseConfig::with_plan(plan)
                .watchdog(std::time::Duration::from_secs(120))
                .respawning(1),
            move |p| run_diskless(p, WORLD, &cfg2),
        );
        assert!(!report.hung);
        assert_eq!(report.generations, vec![0, 0, 1, 0], "rank 2 recovered once");
        for (r, o) in report.outcomes.iter().enumerate() {
            let res = o.as_ok().unwrap_or_else(|| panic!("rank {r}: {o:?}"));
            assert_eq!(res.block, reference_block(r, &cfg), "rank {r} must be exact");
        }
        let r2 = report.outcomes[2].as_ok().unwrap();
        assert!(
            r2.restored_from_checkpoint,
            "the recovered incarnation must resume from the buddy checkpoint"
        );
        assert!(
            r2.recomputed < cfg.iterations,
            "the checkpoint must save most of the work: recomputed {} of {}",
            r2.recomputed,
            cfg.iterations
        );
        // The buddy actually served a restore.
        let buddy = report.outcomes[3].as_ok().unwrap();
        assert!(buddy.restores_served >= 1);
    }

    #[test]
    fn single_rank_needs_no_protocol() {
        let cfg = DisklessConfig { block: 4, iterations: 30, checkpoint_every: 7 };
        refereed(1, FaultPlan::none(), |p| run_diskless(p, WORLD, &cfg), |at, report| {
            assert!(report.all_ok(), "{at}");
            assert_eq!(report.outcomes[0].as_ok().unwrap().block, reference_block(0, &cfg));
        });
    }

    #[test]
    fn kernel_reference_is_deterministic() {
        let cfg = DisklessConfig::default();
        assert_eq!(reference_block(1, &cfg), reference_block(1, &cfg));
        assert_ne!(reference_block(1, &cfg), reference_block(2, &cfg));
    }
}
