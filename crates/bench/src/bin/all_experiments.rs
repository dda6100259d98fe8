//! Run every behavioural figure of the paper (`dst::figures`) over its
//! seeds under the scheduler and print one row per figure — the source
//! of the measured column in `EXPERIMENTS.md`. A figure whose seeds do
//! not show its claim panics, naming the figure and the seed.
//!
//! ```text
//! cargo run -p bench --bin all_experiments --release
//! ```

use dst::figures::{run, table, Expect, SEEDS};

fn main() {
    let seeds = SEEDS.end - SEEDS.start;
    let of = |n: u64| format!("{n}/{seeds}");
    println!(
        "{:<14} {:>5} {:<46} {:<9} {:<9} {:>6} {:>7} {:>7} {:>10}  claim",
        "figure", "ranks", "config", "killed", "outcome",
        "resent", "doubled", "dropped", "steps/seed"
    );
    for f in table() {
        let c = run(&f);
        let cfg = &f.cfg;
        let failover = if cfg.allow_root_failure { "+failover" } else { "" };
        let config = format!("{:?}/{:?}/{:?}{failover}", cfg.recv, cfg.dedup, cfg.termination);
        let outcome = if let Expect::Hang = f.expect { "deadlock" } else { "runs" };
        let (id, ranks, killed, steps) = (f.id, f.ranks, f.plan.victims(), c.steps as f64);
        let [resent, doubled, dropped] = [c.resent, c.doubled, c.dropped].map(of);
        println!(
            "{id:<14} {ranks:>5} {config:<46} {:<9} {outcome:<9} {resent:>6} {doubled:>7} \
             {dropped:>7} {:>10.1}  {}",
            format!("{killed:?}"),
            steps / seeds as f64,
            f.claim
        );
    }
    println!("\nAll paper-figure experiments reproduced on seeds {}..{}.", SEEDS.start, SEEDS.end);
}
