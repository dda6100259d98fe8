//! The recovery extension, live: a crash-looping worker is respawned
//! (generation 1, then 2) as soon as its dead incarnation's body
//! returns, and rejoins the task farm each time. `.respawning(2)` is
//! the whole configuration: a budget of two revivals per rank.
//!
//! The paper stops at run-through stabilization ("Process recovery is
//! not addressed in this paper") but defines the `generation` field
//! for exactly this; the proposal it builds on "is being extended to
//! include flexible recovery strategies". This example demonstrates
//! the extension on the application class where recovery is natural
//! (the §IV manager/worker pattern).
//!
//! ```text
//! cargo run --example worker_recovery
//! ```

use std::time::Duration;

use ftmpi::{faultsim, run, UniverseConfig, WORLD};
use ftring::apps::{expected_results, run_farm, FarmOutcome};

fn main() {
    let ranks = 3; // manager + 2 workers
    let tasks: Vec<u64> = (0..600u64).map(|i| i * 11 + 5).collect();

    // Worker 2 dies on its 3rd and on its 10th task receive —
    // a crash loop with two recoveries.
    let plan = faultsim::FaultPlan::none()
        .with(faultsim::FaultRule::kill(
            2,
            faultsim::Trigger::on(faultsim::HookKind::AfterRecvComplete).tag(21).nth(3),
        ))
        .with(faultsim::FaultRule::kill(
            2,
            faultsim::Trigger::on(faultsim::HookKind::AfterRecvComplete).tag(21).nth(10),
        ));

    println!(
        "task farm: {ranks} ranks, {} tasks; worker 2 crash-loops (2 deaths, budget 2)\n",
        tasks.len()
    );

    let expect = expected_results(&tasks);
    let t = tasks.clone();
    let report = run(
        ranks,
        UniverseConfig::with_plan(plan)
            .watchdog(Duration::from_secs(120))
            .respawning(2),
        move |p| run_farm(p, WORLD, &t),
    );
    assert!(!report.hung);

    println!("final generations per rank: {:?}", report.generations);
    for (r, o) in report.outcomes.iter().enumerate() {
        match o.as_ok() {
            Some(FarmOutcome::Manager(m)) => {
                println!(
                    "manager (rank {r}): {} results, {} re-queued after deaths, losses seen {:?}",
                    m.results.len(),
                    m.requeued,
                    m.workers_lost
                );
                assert_eq!(m.results, expect, "every task exactly once across recoveries");
            }
            Some(FarmOutcome::Worker(w)) => {
                println!(
                    "worker  (rank {r}, generation {}): {} tasks done by the final incarnation",
                    report.generations[r], w.tasks_done
                );
            }
            None => println!("worker  (rank {r}): dead"),
        }
    }
    assert_eq!(report.generations[2], 2, "two recoveries happened");
    println!(
        "\nOK: worker 2 was respawned twice (generations 1 and 2), rejoined the farm\n\
         each time, and the result set is exact — the run-through semantics of the\n\
         paper extended with the proposal's recovery direction."
    );
}
