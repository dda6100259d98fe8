//! Run every placed ring scenario of `dst::figures` — the paper's
//! behavioural figures and its §III-C/D scenarios — over its seeds under
//! the scheduler and print one row per scenario: the source of the
//! measured column in `EXPERIMENTS.md`. A row whose seeds do not show its
//! claim panics, naming the row and the seed.
//!
//! ```text
//! cargo run -p bench --bin all_experiments --release
//! ```

use dst::figures::{run, table, Expect, Figure, On, SEEDS};

/// The row's ring configuration, and its communicator and runs where not one run on the world.
fn config(f: &Figure) -> String {
    let cfg = &f.cfg;
    let failover = if cfg.allow_root_failure { "+failover" } else { "" };
    let on = if f.on == On::World { String::new() } else { format!(" on {:?}", f.on) };
    let runs = if f.runs == 1 { String::new() } else { format!(" x{}", f.runs) };
    format!("{:?}/{:?}/{:?}{failover}{on}{runs}", cfg.recv, cfg.dedup, cfg.termination)
}

fn main() {
    let seeds = SEEDS.end - SEEDS.start;
    let of = |n: u64| format!("{n}/{seeds}");
    let table = table();
    let w = table.iter().map(|f| f.id.len()).max().unwrap_or(0);
    let cw = table.iter().map(|f| config(f).len()).max().unwrap_or(0);
    println!(
        "{:<w$} {:>5} {:<cw$} {:<9} {:<9} {:>6} {:>7} {:>7} {:>10}  claim",
        "figure", "ranks", "config", "killed", "outcome",
        "resent", "doubled", "dropped", "steps/seed"
    );
    for f in &table {
        let c = run(f);
        let config = config(f);
        let outcome = match f.expect {
            Expect::Hang => "deadlock",
            Expect::Holds(_) => "runs",
            Expect::Ends(ending, _) => ending,
        };
        let (id, ranks, killed, steps) = (f.id, f.ranks, f.plan.victims(), c.steps as f64);
        let [resent, doubled, dropped] = [c.resent, c.doubled, c.dropped].map(of);
        println!(
            "{id:<w$} {ranks:>5} {config:<cw$} {:<9} {outcome:<9} {resent:>6} {doubled:>7} \
             {dropped:>7} {:>10.1}  {}",
            format!("{killed:?}"),
            steps / seeds as f64,
            f.claim
        );
    }
    println!(
        "\nAll paper figures and placed ring scenarios reproduced on seeds {}..{}.",
        SEEDS.start, SEEDS.end
    );
}
