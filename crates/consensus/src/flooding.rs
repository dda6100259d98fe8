//! All-to-all flooding agreement (ablation baseline).
//!
//! The obvious "just exchange views until they match" protocol: each
//! process repeatedly sends its current failed-set view to every alive
//! peer and waits for their views; when a full exchange round
//! completes with every received view equal to its own, it decides.
//!
//! **Guarantee:** agreement holds in *failure-quiescent* runs (all
//! failures happen-before the protocol, or the protocol is re-run
//! after the last failure). A failure concurrent with the deciding
//! round can split the decision — one process decides the old view
//! while another restarts and decides a larger set. This is precisely
//! the gap the coordinator protocol in [`crate::agreement`] closes,
//! and the benchmark suite quantifies what that closure costs.

use std::collections::HashSet;

use ftmpi::{Comm, Error, Process, RankState, Result, Src, Tag};

/// Wire form: (round, failed set as u64 comm ranks).
type Msg = (u64, Vec<u64>);

/// Run the flooding agreement; returns the agreed failed set.
///
/// All alive members must participate. `tag` must be reserved for this
/// protocol on this communicator.
pub fn flooding_failed_set(p: &mut Process, comm: Comm, tag: Tag) -> Result<Vec<usize>> {
    let me = p.comm_rank(comm)?;
    let size = p.comm_size(comm)?;
    if size == 1 {
        return Ok(Vec::new());
    }
    let mut round: u64 = 0;
    'restart: loop {
        round += 1;
        // Snapshot my view.
        let view: HashSet<u64> = p
            .comm_validate(comm)?
            .into_iter()
            .map(|info| info.rank as u64)
            .collect();
        let mut sorted: Vec<u64> = view.iter().copied().collect();
        sorted.sort_unstable();

        // Send my view to every alive peer.
        let alive: Vec<usize> = (0..size)
            .filter(|&r| r != me)
            .filter(|&r| {
                p.comm_validate_rank(comm, r)
                    .map(|i| i.state == RankState::Ok)
                    .unwrap_or(false)
            })
            .collect();
        let msg: Msg = (round, sorted.clone());
        for &dst in &alive {
            match p.send(comm, dst, tag, &msg) {
                Ok(()) => {}
                Err(e) if e.is_terminal() => return Err(e),
                Err(_) => continue 'restart, // new failure: restart
            }
        }

        // Collect one view from each alive peer for this round.
        for &src in &alive {
            loop {
                match p.recv::<Msg>(comm, Src::Rank(src), tag) {
                    Ok(((r, set), _)) => {
                        if r < round {
                            continue; // stale round: drop, keep waiting
                        }
                        if set != sorted {
                            continue 'restart; // views differ: go again
                        }
                        break;
                    }
                    Err(e) if e.is_terminal() => return Err(e),
                    Err(Error::RankFailStop { .. }) => continue 'restart,
                    Err(e) => return Err(e),
                }
            }
        }

        // A full round of identical views — and is my view still
        // current?
        let now: HashSet<u64> = p
            .comm_validate(comm)?
            .into_iter()
            .map(|info| info.rank as u64)
            .collect();
        if now == view {
            return Ok(sorted.into_iter().map(|r| r as usize).collect());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dst::{await_death, idle, refereed, seeded};
    use faultsim::{FaultPlan, HookKind};
    use ftmpi::{ErrorHandler, WORLD};

    const TAG: Tag = 0x00F7_0003;

    #[test]
    fn quiescent_no_failures_agrees_empty() {
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            flooding_failed_set(p, WORLD, TAG)
        };
        refereed(4, FaultPlan::none(), body, |at, report| {
            assert!(report.all_ok(), "{at}");
            for o in &report.outcomes {
                assert_eq!(o.as_ok(), Some(&vec![]), "{at}");
            }
        });
    }

    #[test]
    fn quiescent_prior_failure_agrees() {
        let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                return idle(p);
            }
            // Quiesce: wait for the failure to be visible first.
            await_death(p, 1)?;
            flooding_failed_set(p, WORLD, TAG)
        };
        seeded(4, plan, body, |at, report| {
            for r in [0usize, 2, 3] {
                assert_eq!(report.outcomes[r].as_ok(), Some(&vec![1]), "{at}: rank {r}");
            }
        });
    }

    #[test]
    fn singleton_returns_empty() {
        refereed(1, FaultPlan::none(), |p| flooding_failed_set(p, WORLD, TAG), |at, report| {
            assert_eq!(report.outcomes[0].as_ok(), Some(&vec![]), "{at}");
        });
    }
}
