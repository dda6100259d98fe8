//! Fault-tolerant manager/worker task farm.
//!
//! The paper's related work (§IV) opens with Gropp & Lusk's classic
//! observation that a manager/worker MPI program can survive worker
//! loss. This implementation does it with the run-through
//! stabilization semantics instead of their intercommunicator
//! juggling, and in doing so exercises the parts of the proposal the
//! ring does not:
//!
//! * the manager receives results with **`MPI_ANY_SOURCE`**, which by
//!   §II errors whenever *any* unrecognized failure exists — the
//!   manager's failure-notification channel;
//! * it then queries `comm_validate`, locally **recognizes** the dead
//!   workers with `comm_validate_clear` (restoring `ANY_SOURCE`
//!   progress), and re-queues their in-flight tasks.
//! * under the respawn extension it also reads each busy worker's
//!   generation: a respawn ends the failure before any receive need
//!   report it, so a task sent to a replaced incarnation is re-queued.
//!
//! Every task completes exactly once in the result set, no matter how
//! many workers die; if *all* workers die, the manager computes the
//! remainder itself. The manager (rank 0) is assumed not to fail,
//! exactly as in Gropp & Lusk.

use std::collections::HashMap;

use ftmpi::{Comm, CommRank, Error, Process, RankState, Result, Src, Tag};

const TASK_TAG: Tag = 21;
const RESULT_TAG: Tag = 22;

const KIND_TASK: u8 = 0;
const KIND_STOP: u8 = 1;

/// The work function both manager (fallback) and workers run: a small
/// deterministic computation so tests can verify results exactly.
pub fn work(task_id: u64, payload: u64) -> u64 {
    // A cheap pseudo-hash: enough work to be observable, fully
    // deterministic.
    let mut x = payload ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(task_id + 1);
    for _ in 0..8 {
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
    }
    x
}

/// Outcome at the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmResult {
    /// `(task_id, result)` for every submitted task, in task order.
    pub results: Vec<(u64, u64)>,
    /// Tasks that had to be re-queued after a worker death.
    pub requeued: u64,
    /// Workers recognized as failed during the run.
    pub workers_lost: Vec<CommRank>,
    /// Tasks the manager computed itself (all workers dead).
    pub computed_locally: u64,
}

/// Outcome at a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerResult {
    /// Tasks completed by this worker.
    pub tasks_done: u64,
}

/// Role outcome of [`run_farm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmOutcome {
    /// This rank was the manager.
    Manager(FarmResult),
    /// This rank was a worker.
    Worker(WorkerResult),
}

fn manager(p: &mut Process, comm: Comm, tasks: &[u64]) -> Result<FarmResult> {
    let size = p.comm_size(comm)?;
    let mut queue: Vec<u64> = (0..tasks.len() as u64).rev().collect();
    // Each busy worker's task, and the incarnation it was sent to.
    let mut in_flight: HashMap<CommRank, (u64, u32)> = HashMap::new();
    let mut results: HashMap<u64, u64> = HashMap::new();
    let mut requeued = 0u64;
    let mut lost: Vec<CommRank> = Vec::new();
    let mut computed_locally = 0u64;

    let alive_workers = |p: &Process| -> Result<Vec<CommRank>> {
        Ok((1..size)
            .filter(|&w| {
                p.comm_validate_rank(comm, w)
                    .map(|i| i.state == RankState::Ok)
                    .unwrap_or(false)
            })
            .collect())
    };

    // Handle the death of workers: recognize, re-queue their tasks.
    // Returns how many workers were newly recognized.
    fn absorb_failures(
        p: &mut Process,
        comm: Comm,
        in_flight: &mut HashMap<CommRank, (u64, u32)>,
        queue: &mut Vec<u64>,
        requeued: &mut u64,
        lost: &mut Vec<CommRank>,
    ) -> Result<usize> {
        let newly: Vec<CommRank> = p
            .comm_validate(comm)?
            .into_iter()
            .filter(|i| i.state == RankState::Failed)
            .map(|i| i.rank)
            .collect();
        if newly.is_empty() {
            return Ok(0);
        }
        p.comm_validate_clear(comm, &newly)?;
        for w in &newly {
            lost.push(*w);
            if let Some((task, _)) = in_flight.remove(w) {
                queue.push(task);
                *requeued += 1;
            }
        }
        Ok(newly.len())
    }

    loop {
        // A worker respawned since it took its task lost that task with
        // the old incarnation. No receive here need ever have reported
        // that death: the respawn clears it.
        let mut respawned: Vec<CommRank> = in_flight
            .iter()
            .filter(|&(&w, &(_, gen))| p.comm_validate_rank(comm, w).is_ok_and(|i| i.generation != gen))
            .map(|(&w, _)| w)
            .collect();
        respawned.sort_unstable();
        for w in respawned {
            queue.extend(in_flight.remove(&w).map(|(task, _)| task));
            requeued += 1;
            lost.push(w);
        }

        // Dispatch tasks to idle alive workers.
        let workers = alive_workers(p)?;
        for &w in &workers {
            if in_flight.contains_key(&w) {
                continue;
            }
            let Some(task) = queue.pop() else { break };
            // Read before the send, so a respawn after it shows.
            let gen = p.comm_validate_rank(comm, w)?.generation;
            match p.send(comm, w, TASK_TAG, &(KIND_TASK, task, tasks[task as usize])) {
                Ok(()) => {
                    in_flight.insert(w, (task, gen));
                }
                Err(e) if e.is_terminal() => return Err(e),
                Err(_) => {
                    // Worker died between the scan and the send.
                    queue.push(task);
                    absorb_failures(p, comm, &mut in_flight, &mut queue, &mut requeued, &mut lost)?;
                }
            }
        }

        // Done?
        if results.len() == tasks.len() {
            break;
        }

        // No workers at all: compute the remainder locally.
        if in_flight.is_empty() {
            if let Some(task) = queue.pop() {
                results.insert(task, work(task, tasks[task as usize]));
                computed_locally += 1;
                continue;
            }
            // Nothing queued and nothing in flight but results are
            // incomplete: impossible by construction.
            debug_assert_eq!(results.len(), tasks.len());
            break;
        }

        // Collect one result from any worker; ANY_SOURCE doubles as
        // the failure-notification channel.
        match p.recv::<(u64, u64)>(comm, Src::Any, RESULT_TAG) {
            Ok(((task, value), status)) => {
                let worker = status.source.expect("result has a source");
                // A result a dead incarnation sent does not free the
                // worker's current task.
                if in_flight.get(&worker).is_some_and(|&(t, _)| t == task) {
                    in_flight.remove(&worker);
                }
                results.insert(task, value);
            }
            Err(e) if e.is_terminal() => return Err(e),
            Err(Error::RankFailStop { .. }) => {
                absorb_failures(p, comm, &mut in_flight, &mut queue, &mut requeued, &mut lost)?;
            }
            Err(e) => return Err(e),
        }
    }

    // Release the surviving workers.
    for w in alive_workers(p)? {
        match p.send(comm, w, TASK_TAG, &(KIND_STOP, 0u64, 0u64)) {
            Ok(()) => {}
            Err(e) if e.is_terminal() => return Err(e),
            Err(_) => {}
        }
    }

    let mut ordered: Vec<(u64, u64)> = results.into_iter().collect();
    ordered.sort_unstable();
    lost.sort_unstable();
    lost.dedup();
    Ok(FarmResult { results: ordered, requeued, workers_lost: lost, computed_locally })
}

fn worker(p: &mut Process, comm: Comm) -> Result<WorkerResult> {
    let mut done = 0u64;
    loop {
        let ((kind, task, payload), _) = p.recv::<(u8, u64, u64)>(comm, Src::Rank(0), TASK_TAG)?;
        if kind == KIND_STOP {
            return Ok(WorkerResult { tasks_done: done });
        }
        let value = work(task, payload);
        p.send(comm, 0, RESULT_TAG, &(task, value))?;
        done += 1;
    }
}

/// Run the task farm: rank 0 manages, everyone else works. `tasks`
/// are the payloads (one task per element); only the manager's copy is
/// used.
pub fn run_farm(p: &mut Process, comm: Comm, tasks: &[u64]) -> Result<FarmOutcome> {
    p.set_errhandler(comm, ftmpi::ErrorHandler::ErrorsReturn)?;
    if p.comm_rank(comm)? == 0 {
        Ok(FarmOutcome::Manager(manager(p, comm, tasks)?))
    } else {
        Ok(FarmOutcome::Worker(worker(p, comm)?))
    }
}

/// The expected result set, for test oracles.
pub fn expected_results(tasks: &[u64]) -> Vec<(u64, u64)> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, &payload)| (i as u64, work(i as u64, payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dst::refereed;
    use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
    use ftmpi::{RankOutcome, WORLD};

    fn tasks(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 37 + 5).collect()
    }

    /// The farm of `tasks` on `ranks` ranks under `plan`, once per seed: `check` sees the
    /// manager's result and every rank's outcome.
    fn farm(
        ranks: usize,
        plan: FaultPlan,
        tasks: &[u64],
        mut check: impl FnMut(&str, &FarmResult, &[RankOutcome<FarmOutcome>]),
    ) {
        refereed(ranks, plan, |p| run_farm(p, WORLD, tasks), |at, report| {
            match report.outcomes[0].as_ok() {
                Some(FarmOutcome::Manager(m)) => check(at, m, &report.outcomes),
                other => panic!("{at}: manager outcome: {other:?}"),
            }
        });
    }

    #[test]
    fn failure_free_farm_completes_all_tasks() {
        let t = tasks(20);
        farm(4, FaultPlan::none(), &t, |at, m, outcomes| {
            assert_eq!(m.results, expected_results(&t), "{at}");
            assert_eq!(m.requeued, 0, "{at}");
            assert!(m.workers_lost.is_empty(), "{at}");
            // Work was actually distributed.
            let worker_total: u64 = outcomes[1..]
                .iter()
                .map(|o| match o.as_ok() {
                    Some(FarmOutcome::Worker(w)) => w.tasks_done,
                    _ => 0,
                })
                .sum();
            assert_eq!(worker_total, 20, "{at}");
        });
    }

    #[test]
    fn worker_death_mid_task_requeues_and_completes() {
        // Worker 2 dies right after receiving its 1st task (the task is
        // lost with it and must be re-queued). `STOP` travels on
        // `TASK_TAG` too, so only the 1st is certain to be a task: the
        // manager's first dispatch hands every worker one before any
        // `STOP`, while the other workers may drain the whole queue
        // before worker 2 receives a 2nd.
        let plan = FaultPlan::none().with(FaultRule::kill(
            2,
            Trigger::on(HookKind::AfterRecvComplete).tag(TASK_TAG).nth(1),
        ));
        let t = tasks(400);
        farm(4, plan, &t, |at, m, _| {
            assert_eq!(m.results, expected_results(&t), "{at}: all tasks exactly once");
            assert!(m.workers_lost.contains(&2), "{at}");
            assert!(m.requeued >= 1, "{at}: the in-flight task must be re-queued");
        });
    }

    #[test]
    fn worker_death_after_reply_is_harmless() {
        // Worker 1 dies right after sending a result: nothing to
        // re-queue, the farm just narrows.
        let plan = FaultPlan::none().with(FaultRule::kill(
            1,
            Trigger::on(HookKind::AfterSend).tag(RESULT_TAG).nth(2),
        ));
        let t = tasks(12);
        farm(3, plan, &t, |at, m, _| {
            assert_eq!(m.results, expected_results(&t), "{at}");
        });
        // The manager may or may not *observe* this death: if the
        // remaining results drain before it touches the dead worker
        // again, run-through means it never needs to notice. Either
        // way the result set is exact (asserted above).
    }

    #[test]
    fn all_workers_dead_manager_computes_locally() {
        let plan = FaultPlan::none()
            .with(FaultRule::kill(
                1,
                Trigger::on(HookKind::AfterRecvComplete).tag(TASK_TAG).nth(1),
            ))
            .with(FaultRule::kill(
                2,
                Trigger::on(HookKind::AfterRecvComplete).tag(TASK_TAG).nth(1),
            ));
        let t = tasks(10);
        farm(3, plan, &t, |at, m, _| {
            assert_eq!(m.results, expected_results(&t), "{at}");
            assert_eq!(m.workers_lost, vec![1, 2], "{at}");
            assert!(m.computed_locally >= 1, "{at}: the manager must finish the job alone");
        });
    }

    #[test]
    fn single_rank_farm_is_all_local() {
        let t = tasks(5);
        farm(1, FaultPlan::none(), &t, |at, m, _| {
            assert_eq!(m.results, expected_results(&t), "{at}");
            assert_eq!(m.computed_locally, 5, "{at}");
        });
    }

    #[test]
    fn work_function_is_deterministic() {
        assert_eq!(work(3, 42), work(3, 42));
        assert_ne!(work(3, 42), work(4, 42));
        assert_ne!(work(3, 42), work(3, 43));
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
    use ftmpi::{UniverseConfig, WORLD};
    use std::time::Duration;

    /// The recovery extension on the farm: a worker dies holding a
    /// task, is respawned as generation 1, REJOINS the farm, and takes
    /// more tasks. Every task still completes exactly once.
    #[test]
    fn respawned_worker_rejoins_the_farm() {
        // Enough tasks that the farm is still draining when worker 2's
        // dead body has returned and revived it: a queue that empties
        // first leaves generation 1 nothing to rejoin (the assertion
        // below then fails spuriously). The kill lands on worker 2's
        // 1st receipt, which the manager's first dispatch makes a task,
        // never the `STOP` that shares its tag.
        let tasks: Vec<u64> = (0..4000u64).map(|i| i * 7 + 1).collect();
        let plan = FaultPlan::none().with(FaultRule::kill(
            2,
            Trigger::on(HookKind::AfterRecvComplete).tag(TASK_TAG).nth(1),
        ));
        let expect = expected_results(&tasks);
        let t2 = tasks.clone();
        let report = ftmpi::run(
            3, // manager + 2 workers: losing one halves throughput, so
               // the recovered worker demonstrably matters
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(120)).respawning(1),
            move |p| run_farm(p, WORLD, &t2),
        );
        assert!(!report.hung);
        assert_eq!(report.generations, vec![0, 0, 1], "worker 2 was respawned");
        match report.outcomes[0].as_ok() {
            Some(FarmOutcome::Manager(m)) => {
                assert_eq!(m.results, expect, "every task exactly once across the recovery");
                assert!(m.requeued >= 1, "the task lost with generation 0 was re-queued");
                assert!(m.workers_lost.contains(&2));
            }
            other => panic!("{other:?}"),
        }
        // The recovered incarnation finished cleanly as a worker.
        match report.outcomes[2].as_ok() {
            Some(FarmOutcome::Worker(w)) => {
                assert!(w.tasks_done >= 1, "the recovered worker must contribute");
            }
            other => panic!("worker 2 final incarnation: {other:?}"),
        }
    }

    /// Crash-looping worker: dies, recovers, dies again (budget 2),
    /// recovers again, and still contributes. Each of the first two
    /// incarnations dies on its 1st receipt, not a later one that a
    /// `STOP` could be: generation 0's is the first dispatch, and
    /// generation 1's comes while thousands of tasks are queued.
    #[test]
    fn double_recovery_still_completes() {
        let tasks: Vec<u64> = (0..2000u64).map(|i| i + 100).collect();
        let plan = FaultPlan::none()
            .with(FaultRule::kill(
                1,
                Trigger::on(HookKind::AfterRecvComplete).tag(TASK_TAG).nth(1),
            ))
            .with(FaultRule::kill(
                1,
                Trigger::on(HookKind::AfterRecvComplete).tag(TASK_TAG).nth(2),
            ));
        let expect = expected_results(&tasks);
        let t2 = tasks.clone();
        let report = ftmpi::run(
            3,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(120)).respawning(2),
            move |p| run_farm(p, WORLD, &t2),
        );
        assert!(!report.hung);
        assert_eq!(report.generations[1], 2, "two recoveries");
        match report.outcomes[0].as_ok() {
            Some(FarmOutcome::Manager(m)) => {
                assert_eq!(m.results, expect);
                assert!(m.requeued >= 2, "both lost tasks re-queued");
            }
            other => panic!("{other:?}"),
        }
    }
}
