//! §III-D live: the root dies mid-run, the lowest survivor elects
//! itself (Fig. 12), reconstructs the ring state, and the run
//! terminates through `icomm_validate_all` (Fig. 13).
//!
//! ```text
//! cargo run --example root_failover
//! ```

use std::time::Duration;

use ftmpi::{faultsim::scenario, run, UniverseConfig, WORLD};
use ftring::{run_ring, summarize, RingConfig, T_N};

fn main() {
    let ranks = 6;
    let iterations = 8;

    // The root (rank 0) originates `by_old_root` laps and dies holding
    // the token that would close the last of them.
    let by_old_root = 3;
    let plan = scenario::kill_after_recv(0, ranks - 1, T_N, by_old_root);
    let cfg = RingConfig::with_root_failover(iterations);

    println!(
        "ring: {ranks} ranks x {iterations} laps; the ROOT dies holding the token \
         that closes its lap number {by_old_root} (marker {})",
        by_old_root - 1
    );
    println!("config: {cfg:?}\n");

    let report = run(
        ranks,
        UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(60)),
        move |p| run_ring(p, WORLD, &cfg),
    );
    let s = summarize(&report);

    println!("hung:      {}", s.hung);
    println!("failed:    {:?}", s.failed);
    println!("survivors: {:?}", s.survivors);
    for &r in &s.survivors {
        let stats = report.outcomes[r].as_ok().unwrap();
        println!(
            "  rank {r}: became_root={} originated={} forwarded={} closures={:?} agreed_failed={:?}",
            stats.became_root,
            stats.originated,
            stats.forwarded,
            stats.closures,
            stats.validate_failed,
        );
    }

    assert!(!s.hung, "failover must prevent the hang");
    let new_root = report.outcomes[1].as_ok().unwrap();
    assert!(new_root.became_root, "rank 1 must take over");
    // The summary sums over survivors: what the dead root originated
    // and closed died with it. The lap it was closing is closed by its
    // successor, from the resent token.
    assert_eq!(
        s.total_originated,
        iterations - by_old_root,
        "survivors originate exactly the laps the old root had not"
    );
    let mut closed: Vec<u64> = s.closures.iter().map(|(marker, _)| *marker).collect();
    closed.sort_unstable();
    let expected: Vec<u64> = (by_old_root - 1..iterations).collect();
    assert_eq!(closed, expected, "every lap the old root left open closes exactly once");
    println!(
        "\nOK: rank 1 took over as root, closed that lap, originated the remaining {} laps, \
         and every survivor agreed on {} failure(s) at termination.",
        s.total_originated,
        s.failed.len()
    );
}
