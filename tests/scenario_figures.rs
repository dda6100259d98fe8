//! Scenario reproductions of the paper's behavioural figures.
//!
//! Each test pins the exact interleaving the figure describes via
//! hook-based fault injection, then asserts the figure's outcome:
//!
//! * **Fig. 6** — naive receive + token lost with the dead rank ⇒ the
//!   parallel program hangs (detected by the watchdog).
//! * **Fig. 7** — detector receive + same fault ⇒ `P1` notices the
//!   failure and resends to `P3`; the ring completes.
//! * **Fig. 8** — detector receive, no duplicate control + rank dies
//!   *after* forwarding ⇒ the same iteration completes twice.
//! * **Fig. 10** — iteration-marker control + same fault ⇒ the resend
//!   is discarded and every iteration completes exactly once.

use std::time::Duration;

use faultsim::scenario::{kill_after_recv, kill_after_send, kill_behind_token};
use ftmpi::{run, UniverseConfig, WORLD};
use ftring::{run_ring, summarize, RingConfig, T_N};

const MAX_ITER: u64 = 6;

fn watchdog() -> Duration {
    Duration::from_secs(60)
}

/// Fig. 6: P2 fails after receiving from P1, before sending to P3;
/// with the naive receive the program hangs.
///
/// The hang is a *verdict*, not a timeout: the run executes under the
/// `dst` scheduler, which knows which ranks are blocked, and is
/// declared hung at the step no suspended rank is enabled any more:
/// every survivor waits for the token that died with P2. Same seed ⇒ same
/// interleaving ⇒ the hang (and the step it is found at) reproduces
/// exactly, however loaded the machine is.
#[test]
fn fig6_naive_recv_hangs_when_token_dies_with_rank() {
    // Kill rank 2 after its 2nd token receive (mid-iteration 1).
    let plan = kill_after_recv(2, 1, T_N, 2);
    let cfg = RingConfig::naive(MAX_ITER);
    let sched = std::sync::Arc::new(dst::Scheduler::new(4, 0xF16_6, 50_000));
    let report = run(
        4,
        UniverseConfig::with_plan(plan)
            .sim(sched.clone())
            // Generous wall-clock backstop only; the scheduler's
            // deadlock verdict is what fires.
            .watchdog(watchdog()),
        move |p| run_ring(p, WORLD, &cfg),
    );
    let s = summarize(&report);
    assert!(s.hung, "the naive receive must hang exactly as Fig. 6 describes");
    assert!(
        sched.deadlock_at().is_some() && !sched.budget_exhausted(),
        "the hang must be found as a deadlock, not by the step budget or the wall clock"
    );
    assert_eq!(s.failed, vec![2]);
    assert!(
        s.completed_iterations() < MAX_ITER as usize,
        "the ring cannot have completed"
    );
}

/// Fig. 7: the same fault with the Fig. 9 receive: P1's detector fires
/// and the resent token heals the ring.
#[test]
fn fig7_detector_recv_recovers_from_the_same_fault() {
    let plan = kill_after_recv(2, 1, T_N, 2);
    let cfg = RingConfig::paper(MAX_ITER);
    let report = run(4, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung, "Fig. 9's receive must run through the failure");
    assert_eq!(s.failed, vec![2]);
    assert_eq!(s.survivors, vec![0, 1, 3]);
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
    assert!(!s.has_double_completion());
    assert!(s.total_resends >= 1, "P1 must have resent the lost token");
    assert!(s.total_detector_fires >= 1, "P1's failure-detector receive must fire");
    // Closure markers are exactly 0..MAX_ITER, each once.
    let mut markers: Vec<u64> = s.closures.iter().map(|(m, _)| *m).collect();
    markers.sort_unstable();
    assert_eq!(markers, (0..MAX_ITER).collect::<Vec<_>>());
    // Laps before the failure count 4 participants, later laps 3.
    let values: std::collections::HashMap<u64, i64> =
        s.closures.iter().copied().collect();
    assert_eq!(values[&0], 4, "iteration 0 ran with all four ranks");
    assert_eq!(values[&(MAX_ITER - 1)], 3, "final iterations run with three survivors");
}

/// Fig. 8: P2 fails right after forwarding to P3; without duplicate
/// control the resent token is forwarded again and the same iteration
/// completes twice.
#[test]
fn fig8_no_dedup_double_completes_an_iteration() {
    // Deterministic Fig. 8 interleaving: rank 2 dies while rank 0 (two
    // hops downstream) is still inside its lap-1 receive, guaranteeing
    // P1's resend duplicates a token P3 already handled.
    let plan = kill_behind_token(2, 0, T_N, 2);
    let cfg = RingConfig::no_dedup(MAX_ITER);
    let report = run(4, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert_eq!(s.failed, vec![2]);
    assert!(
        s.has_double_completion(),
        "without duplicate control the iteration must complete twice; closures: {:?}",
        s.closures
    );
    assert!(
        s.total_duplicate_forwards >= 1,
        "P3 must have forwarded the resent duplicate"
    );
}

/// Fig. 10: the same fault with the iteration marker: the duplicate is
/// discarded and the run is exact.
#[test]
fn fig10_marker_dedup_discards_the_duplicate() {
    let plan = kill_behind_token(2, 0, T_N, 2);
    let cfg = RingConfig::paper(MAX_ITER);
    let report = run(4, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert_eq!(s.failed, vec![2]);
    assert!(!s.has_double_completion(), "closures: {:?}", s.closures);
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
    assert!(
        s.total_duplicates_dropped >= 1,
        "the resent duplicate must be detected and dropped"
    );
    assert_eq!(s.total_duplicate_forwards, 0);
}

/// The separate-tag variant of §III-B behaves like Fig. 10 for the
/// ring: duplicates are controlled, the ring completes exactly.
#[test]
fn separate_tag_variant_also_controls_duplicates() {
    let plan = kill_behind_token(2, 0, T_N, 2);
    let cfg = RingConfig::paper(MAX_ITER).dedup(ftring::DedupStrategy::SeparateTag);
    let report = run(4, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert!(!s.has_double_completion(), "closures: {:?}", s.closures);
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
}

/// §III-C: "able to run-through multiple, non-root process failures".
#[test]
fn multiple_non_root_failures_run_through() {
    let plan = faultsim::scenario::combine([
        kill_after_recv(2, 1, T_N, 2),
        kill_after_send(4, 5, T_N, 3),
        kill_after_recv(5, 4, T_N, 1),
    ]);
    let cfg = RingConfig::paper(MAX_ITER);
    let report = run(6, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung, "multiple failures must still run through");
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
    assert!(!s.has_double_completion());
    assert_eq!(s.survivors.len() + s.failed.len(), 6);
    assert!(s.failed.len() >= 2, "at least two injected kills must land");
}

/// Failure-free sanity: the FT ring and the Fig. 2 baseline agree on
/// the values circulated.
#[test]
fn failure_free_ft_ring_matches_baseline_values() {
    let cfg = RingConfig::paper(MAX_ITER);
    let report = run(
        5,
        UniverseConfig::default().watchdog(watchdog()),
        move |p| run_ring(p, WORLD, &cfg),
    );
    let s = summarize(&report);
    assert!(report.all_ok());
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
    for (m, v) in &s.closures {
        assert_eq!(*v, 5, "iteration {m}: every rank contributes exactly once");
    }
    assert_eq!(s.total_resends, 0);
    assert_eq!(s.total_detector_fires, 0);
}

/// Two-rank ring: the degenerate case where the detector receive and
/// the normal receive alias the same peer.
#[test]
fn two_rank_ring_completes() {
    let cfg = RingConfig::paper(MAX_ITER);
    let report = run(2, UniverseConfig::default().watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(report.all_ok(), "{:?}", report.outcomes);
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
    for (_, v) in &s.closures {
        assert_eq!(*v, 2);
    }
}

/// The Fig. 6 hang disappears even in the naive configuration when no
/// failure is injected (control experiment).
#[test]
fn naive_config_is_fine_without_failures() {
    let cfg = RingConfig::naive(MAX_ITER);
    let report = run(4, UniverseConfig::default().watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(report.all_ok());
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
}
