//! Domain application: 1-D heat diffusion with run-through halo
//! exchange — the neighbour-communication pattern of the ring on a
//! physical workload (the paper's §IV cites heat-transfer codes as an
//! ABFT domain).
//!
//! ```text
//! cargo run --example heat_diffusion
//! ```

use std::time::Duration;

use ftmpi::{faultsim, run, UniverseConfig, WORLD};
use ftring::apps::{run_heat, serial_reference, HeatConfig};

fn main() {
    let ranks = 6;
    let cfg = HeatConfig { cells_per_rank: 16, steps: 120 };

    // First: failure-free, checked against the serial reference.
    let cfg1 = cfg.clone();
    let report = run(ranks, UniverseConfig::default().watchdog(Duration::from_secs(60)), move |p| {
        run_heat(p, WORLD, &cfg1)
    });
    assert!(report.all_ok());
    let reference = serial_reference(ranks, &cfg);
    let mut max_err: f64 = 0.0;
    for (rank, o) in report.outcomes.iter().enumerate() {
        let res = o.as_ok().unwrap();
        for (i, &v) in res.cells.iter().enumerate() {
            max_err = max_err.max((v - reference[rank * cfg.cells_per_rank + i]).abs());
        }
    }
    println!("failure-free: max |parallel - serial| = {max_err:.3e} (must be ~0)");
    assert!(max_err < 1e-9);

    // Second: rank 2 dies a third of the way in; survivors re-knit the
    // rod and run through.
    let plan = faultsim::FaultPlan::none().kill_at(
        2,
        faultsim::HookKind::AfterRecvComplete,
        (cfg.steps / 3) as u64,
    );
    let cfg2 = cfg.clone();
    let report = run(
        ranks,
        UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(120)),
        move |p| run_heat(p, WORLD, &cfg2),
    );
    assert!(!report.hung, "halo exchange must run through the failure");
    println!("\nwith rank 2 killed at step {}:", cfg.steps / 3);
    for (rank, o) in report.outcomes.iter().enumerate() {
        match o.as_ok() {
            Some(res) => println!(
                "  rank {rank}: steps={} fallbacks={} switches={} mean_T={:.4}",
                res.steps,
                res.halo_fallbacks,
                res.neighbor_switches,
                res.cells.iter().sum::<f64>() / res.cells.len() as f64
            ),
            None => println!("  rank {rank}: FAILED (fail-stop injected)"),
        }
    }
    let survivors = report.outcomes.iter().filter(|o| o.is_ok()).count();
    println!(
        "\nOK: {survivors}/{ranks} ranks completed all {} steps around the failure \
         (natural fault tolerance: approximate answer instead of a lost job).",
        cfg.steps
    );
}
