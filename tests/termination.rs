//! Termination-detection scenarios (paper §III-C, Figs. 11 and 13).

use std::time::Duration;

use faultsim::scenario::{kill_after_recv, kill_before_recv_post};
use ftmpi::{run, RankOutcome, UniverseConfig, WORLD};
use ftring::{run_ring, summarize, RingConfig, TerminationMode, T_D, T_N};

const MAX_ITER: u64 = 5;

fn watchdog() -> Duration {
    Duration::from_secs(60)
}

/// Fig. 11 failure-free: the root's termination broadcast releases
/// every rank.
#[test]
fn root_broadcast_terminates_everyone() {
    let cfg = RingConfig::paper(MAX_ITER); // RootBroadcast
    let report = run(5, UniverseConfig::default().watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    assert!(report.all_ok());
    for o in &report.outcomes {
        assert!(o.as_ok().unwrap().terminated);
    }
}

/// Fig. 11 with a non-root failure *during the termination phase*: the
/// rank watching the dead peer resends, and the broadcast still
/// releases the survivors.
#[test]
fn root_broadcast_with_failure_during_termination() {
    // Rank 3 dies when it posts its termination-message receive (i.e.
    // after finishing the ring, inside FT_Termination).
    let plan = kill_before_recv_post(3, T_D, 1);
    let cfg = RingConfig::paper(MAX_ITER);
    let report = run(5, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert_eq!(s.failed, vec![3]);
    assert_eq!(s.survivors, vec![0, 1, 2, 4]);
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
}

/// Fig. 11's stated limitation: if the root fails during termination,
/// the remaining processes call `MPI_Abort` ("root failure is not
/// supported"). The root is killed just as it starts the termination
/// broadcast, so every non-root is (or will be) waiting on `T_D`.
#[test]
fn root_broadcast_aborts_on_root_failure_in_termination() {
    let plan = ftmpi::faultsim::FaultPlan::none().with(ftmpi::faultsim::FaultRule::kill(
        0,
        ftmpi::faultsim::Trigger::on(ftmpi::faultsim::HookKind::BeforeSend)
            .tag(T_D)
            .nth(1),
    ));
    let cfg = RingConfig::paper(MAX_ITER);
    let report = run(5, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    assert!(!report.hung, "root death in termination must abort, not hang");
    assert!(report.outcomes[0].is_failed());
    let aborted = report
        .outcomes
        .iter()
        .filter(|o| matches!(o, RankOutcome::Aborted { code: -1 }))
        .count();
    assert!(
        aborted >= 1,
        "survivors must abort per Fig. 11: {:?}",
        report.outcomes
    );
}

/// The deeper limitation the paper's §III-D sets out to fix: a root
/// dying *mid-ring* under Fig. 11's design leaves non-roots blocked in
/// `FT_Recv_left` forever — a distributed hang (the watchdog breaks
/// it). This is the motivating defect for root failover.
#[test]
fn root_broadcast_hangs_on_mid_ring_root_failure() {
    let plan = kill_after_recv(0, 4, T_N, 2);
    let cfg = RingConfig::paper(MAX_ITER);
    let report = run(
        5,
        UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(3)),
        move |p| run_ring(p, WORLD, &cfg),
    );
    assert!(
        report.hung,
        "without §III-D failover, a mid-ring root death wedges the ring"
    );
}

/// Fig. 13 failure-free: validate-all termination, no root dependence.
#[test]
fn validate_all_terminates_everyone() {
    let cfg = RingConfig::paper(MAX_ITER).termination(TerminationMode::ValidateAll);
    let report = run(5, UniverseConfig::default().watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    assert!(report.all_ok(), "{:?}", report.outcomes.len());
    for o in &report.outcomes {
        let stats = o.as_ok().unwrap();
        assert!(stats.terminated);
        assert_eq!(stats.validate_failed, Some(0));
    }
}

/// Fig. 13 with a mid-run failure: the terminating consensus counts
/// and collectively recognizes it.
#[test]
fn validate_all_reports_the_agreed_failure_count() {
    let plan = kill_after_recv(2, 1, T_N, 2);
    let cfg = RingConfig::paper(MAX_ITER).termination(TerminationMode::ValidateAll);
    let report = run(5, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
    for &r in &s.survivors {
        let stats = report.outcomes[r].as_ok().unwrap();
        assert_eq!(
            stats.validate_failed,
            Some(1),
            "rank {r} must see the agreed failure count"
        );
    }
}

/// Fig. 13 with a failure *during* the termination consensus itself:
/// survivors still agree and terminate.
#[test]
fn validate_all_survives_failure_during_consensus() {
    // Rank 3 dies when it enters the terminating validate_all.
    let plan = faultsim::scenario::kill_in_validate(3, 1);
    let cfg = RingConfig::paper(MAX_ITER).termination(TerminationMode::ValidateAll);
    let report = run(5, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung, "a death inside validate_all must not wedge termination");
    assert_eq!(s.failed, vec![3]);
    for &r in &s.survivors {
        let stats = report.outcomes[r].as_ok().unwrap();
        assert_eq!(stats.validate_failed, Some(1), "rank {r}");
    }
}

/// CountOnly termination is exact in failure-free runs (the baseline
/// behaviour the paper starts from).
#[test]
fn count_only_termination_failure_free() {
    let cfg = RingConfig::paper(MAX_ITER).termination(TerminationMode::CountOnly);
    let report = run(4, UniverseConfig::default().watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    assert!(report.all_ok());
}

/// §III-C's rejected alternative, reproduced: double-ibarrier
/// termination works failure-free...
#[test]
fn double_barrier_terminates_failure_free() {
    let cfg = RingConfig::paper(MAX_ITER).termination(TerminationMode::DoubleBarrier);
    let report = run(5, UniverseConfig::default().watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    assert!(report.all_ok(), "{:?}", report.outcomes.len());
    for o in &report.outcomes {
        assert!(o.as_ok().unwrap().terminated);
    }
}

/// ...and under a mid-ring failure (the barrier rounds retry with the
/// dead rank excluded).
#[test]
fn double_barrier_terminates_with_failure() {
    let plan = kill_after_recv(2, 1, T_N, 2);
    let cfg = RingConfig::paper(MAX_ITER).termination(TerminationMode::DoubleBarrier);
    let report = run(5, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung, "double-barrier termination must not hang");
    assert_eq!(s.failed, vec![2]);
    assert_eq!(s.completed_iterations(), MAX_ITER as usize);
    for &r in &s.survivors {
        assert!(report.outcomes[r].as_ok().unwrap().terminated, "rank {r}");
    }
}

/// Double-barrier termination also supports root failover (it has no
/// root dependence).
#[test]
fn double_barrier_supports_root_failover() {
    let plan = kill_after_recv(0, 4, T_N, 3);
    let mut cfg = RingConfig::with_root_failover(MAX_ITER);
    cfg.termination = TerminationMode::DoubleBarrier;
    let report = run(5, UniverseConfig::with_plan(plan).watchdog(watchdog()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert_eq!(s.failed, vec![0]);
    assert!(report.outcomes[1].as_ok().unwrap().became_root);
    for &r in &s.survivors {
        let stats = report.outcomes[r].as_ok().unwrap();
        assert_eq!(stats.originated + stats.forwarded, MAX_ITER, "rank {r}");
    }
}

/// `run_ring` releases every receive it posted — the failure detector
/// included, which stays up through the termination phase — under
/// every termination mode.
#[test]
fn run_ring_leaves_no_request_behind() {
    for mode in [
        TerminationMode::CountOnly,
        TerminationMode::RootBroadcast,
        TerminationMode::ValidateAll,
        TerminationMode::DoubleBarrier,
    ] {
        let cfg = RingConfig::paper(MAX_ITER).termination(mode);
        let report = run(4, UniverseConfig::default().watchdog(watchdog()), move |p| {
            let before = p.live_requests();
            run_ring(p, WORLD, &cfg)?;
            Ok((before, p.live_requests()))
        });
        for (rank, o) in report.outcomes.iter().enumerate() {
            let (before, after) = o.as_ok().unwrap_or_else(|| panic!("{mode:?}, rank {rank}: {o:?}"));
            assert_eq!(before, after, "{mode:?}: rank {rank} leaked a request");
        }
    }
}

/// On a two-rank communicator right == left, so a detector receive
/// left posted by one run would match the next run's first token. (The
/// barrier keeps the runs apart: a rank still sticking around in the
/// first run watches its right neighbour on that very tag.)
#[test]
fn two_rank_ring_runs_twice_on_one_communicator() {
    let cfg = RingConfig::with_root_failover(3);
    let report = run(2, UniverseConfig::default().watchdog(Duration::from_secs(5)), move |p| {
        let first = run_ring(p, WORLD, &cfg)?;
        p.barrier(WORLD)?;
        let second = run_ring(p, WORLD, &cfg)?;
        Ok((first.closures.len(), second.closures.len()))
    });
    assert!(!report.hung, "the second run lost its first token");
    assert_eq!(report.outcomes[0].as_ok(), Some(&(3, 3)));
    assert_eq!(report.outcomes[1].as_ok(), Some(&(0, 0)));
}
