//! §III-D scenarios: "What if the root fails?"
//!
//! With `allow_root_failure`, the lowest surviving rank elects itself
//! (Fig. 12), reconstructs the ring state from its own forward count
//! and the resent token (§III-D's sketch), resumes origination, and
//! the run terminates through `icomm_validate_all` (Fig. 13).

use std::time::Duration;

use faultsim::scenario::{combine, kill_after_recv, kill_after_send};
use ftmpi::{run, Error, RankOutcome, UniverseConfig, WORLD};
use ftring::{run_ring, summarize, RecvStrategy, RingConfig, TerminationMode, T_N};

const MAX_ITER: u64 = 6;

fn watchdog() -> Duration {
    Duration::from_secs(90)
}

/// The root dies mid-ring; rank 1 takes over and the ring completes
/// every iteration.
#[test]
fn root_dies_mid_ring_and_rank1_takes_over() {
    // Root dies after receiving its 3rd token (the closure of lap 2).
    let plan = kill_after_recv(0, 4, T_N, 3);
    let cfg = RingConfig::with_root_failover(MAX_ITER);
    let report = run(5, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung, "failover must prevent the Fig. 11 hang");
    assert_eq!(s.failed, vec![0]);
    assert_eq!(s.survivors, vec![1, 2, 3, 4]);
    let new_root = report.outcomes[1].as_ok().unwrap();
    assert!(new_root.became_root, "rank 1 must take over");
    assert!(new_root.originated >= 1, "the new root must resume origination");
    // Every iteration closes exactly once across old and new root
    // (the dead root's closures are unobservable, so only survivor
    // closures are checked).
    assert!(!s.has_double_completion(), "closures: {:?}", s.closures);
    let mut markers: Vec<u64> = s.closures.iter().map(|(m, _)| *m).collect();
    markers.sort_unstable();
    assert_eq!(
        *markers.last().unwrap(),
        MAX_ITER - 1,
        "the final lap must close at the new root"
    );
    // Participation invariant: every survivor handles every lap
    // exactly once, either by forwarding or by originating it.
    for &r in &s.survivors {
        let stats = report.outcomes[r].as_ok().unwrap();
        assert_eq!(
            stats.originated + stats.forwarded,
            MAX_ITER,
            "rank {r} participation"
        );
    }
}

/// The root dies *before originating anything*: the new root must
/// kick-start iteration 0 itself (no peer has anything to resend).
#[test]
fn root_dies_before_first_origination() {
    // Kill rank 0 at its very first ring-send attempt.
    let plan = ftmpi::faultsim::FaultPlan::none().with(ftmpi::faultsim::FaultRule::kill(
        0,
        ftmpi::faultsim::Trigger::on(ftmpi::faultsim::HookKind::BeforeSend)
            .tag(T_N)
            .nth(1),
    ));
    let cfg = RingConfig::with_root_failover(MAX_ITER);
    let report = run(4, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung, "cur==0 takeover must originate iteration 0 itself");
    assert_eq!(s.failed, vec![0]);
    // The old root died before originating anything, so the new root
    // originates every lap itself and closes them all.
    assert_eq!(s.total_originated, MAX_ITER);
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
    // Rank 1 acted as root — either by mid-run takeover or, if rank 0
    // was already dead when rank 1 started, by initial election.
    let rank1 = report.outcomes[1].as_ok().unwrap();
    assert!(rank1.became_root || rank1.originated == MAX_ITER);
}

/// The root dies right after originating a lap (the token is in
/// flight): the new root must adopt the in-flight lap, forward it, and
/// close it when it comes around.
#[test]
fn root_dies_with_token_in_flight() {
    // Kill rank 0 after its 2nd send (it just originated lap 1).
    let plan = kill_after_send(0, 1, T_N, 2);
    let cfg = RingConfig::with_root_failover(MAX_ITER);
    let report = run(4, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert_eq!(s.failed, vec![0]);
    assert!(!s.has_double_completion());
    let new_root = report.outcomes[1].as_ok().unwrap();
    assert!(new_root.became_root);
    for &r in &s.survivors {
        let stats = report.outcomes[r].as_ok().unwrap();
        assert_eq!(stats.originated + stats.forwarded, MAX_ITER, "rank {r}");
    }
}

/// Cascading root failures: rank 0 dies, rank 1 takes over and dies
/// too, rank 2 finishes the job.
#[test]
fn cascading_root_failures() {
    let plan = combine([
        // Original root dies after its 2nd token receive.
        kill_after_recv(0, 4, T_N, 2),
        // Rank 1 (the first successor) dies after it has handled a few
        // more tokens.
        kill_after_recv(1, 0, T_N, 3),
    ]);
    let cfg = RingConfig::with_root_failover(MAX_ITER);
    let report = run(5, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung, "cascading failovers must still terminate");
    assert!(s.failed.contains(&0));
    // Every survivor terminated with an agreed failure count and full
    // participation.
    for &r in &s.survivors {
        let stats = report.outcomes[r].as_ok().unwrap();
        assert_eq!(stats.validate_failed, Some(s.failed.len()), "rank {r}");
        assert_eq!(stats.originated + stats.forwarded, MAX_ITER, "rank {r}");
    }
}

/// Root death combined with a non-root death in the same run.
#[test]
fn root_and_non_root_die_in_one_run() {
    let plan = combine([
        kill_after_recv(0, 5, T_N, 2),
        kill_after_recv(3, 2, T_N, 3),
    ]);
    let cfg = RingConfig::with_root_failover(MAX_ITER);
    let report = run(6, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert!(!s.has_double_completion());
    for &r in &s.survivors {
        let stats = report.outcomes[r].as_ok().unwrap();
        assert!(stats.terminated, "rank {r}");
        assert_eq!(stats.originated + stats.forwarded, MAX_ITER, "rank {r}");
    }
}

/// Failover configuration in a failure-free run has no overhead
/// anomalies: nothing is resent, nobody takes over.
#[test]
fn failover_config_failure_free() {
    let cfg = RingConfig::with_root_failover(MAX_ITER);
    let report = run(5, UniverseConfig::default().watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(report.all_ok());
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
    assert_eq!(s.total_resends, 0);
    for o in &report.outcomes {
        assert!(!o.as_ok().unwrap().became_root);
    }
}

/// Root failover needs a termination that does not die with the root
/// and the failure-detector receive. An inconsistent configuration is
/// an error every rank gets back before anything is posted, not a
/// panic in every rank.
#[test]
fn inconsistent_failover_config_is_an_error() {
    let failover = RingConfig::with_root_failover(MAX_ITER);
    for cfg in [
        failover.clone().termination(TerminationMode::RootBroadcast),
        failover.clone().termination(TerminationMode::CountOnly),
        RingConfig { recv: RecvStrategy::Naive, ..failover },
    ] {
        let report = run(3, UniverseConfig::default().watchdog(watchdog()), move |p| {
            run_ring(p, WORLD, &cfg)
        });
        for o in &report.outcomes {
            assert!(
                matches!(o, RankOutcome::Err(Error::InvalidState(_))),
                "expected a configuration error, got {o:?}"
            );
        }
    }
}
