//! Stress and hygiene tests: larger rings, repeated runs, request-leak
//! checks.

use std::time::Duration;

use faultsim::scenario::{combine, kill_after_recv, kill_after_send};
use faultsim::HandoffStats;
use ftmpi::{run, Datatype, Src, UniverseConfig, WORLD};
use ftring::{run_ring, summarize, RingConfig, TerminationMode, T_N};

fn wd() -> Duration {
    Duration::from_secs(180)
}

/// A 24-rank ring with four failures spread across the run.
#[test]
fn large_ring_with_scattered_failures() {
    let plan = combine([
        kill_after_recv(3, 2, T_N, 2),
        kill_after_send(9, 10, T_N, 4),
        kill_after_recv(15, 14, T_N, 6),
        kill_after_send(21, 22, T_N, 1),
    ]);
    let cfg = RingConfig::paper(8).termination(TerminationMode::ValidateAll);
    let report = run(24, UniverseConfig::with_plan(plan).watchdog(wd()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert_eq!(s.completed_iterations(), 8);
    assert!(!s.has_double_completion());
    assert!(s.failed.len() >= 3, "most kills should land: {:?}", s.failed);
    for &r in &s.survivors {
        let stats = report.outcomes[r].as_ok().unwrap();
        assert!(stats.terminated);
    }
}

/// Adjacent failures: two neighbouring ranks die around the same
/// iteration, forcing double neighbour-walks.
#[test]
fn adjacent_failures() {
    let plan = combine([
        kill_after_recv(2, 1, T_N, 3),
        kill_after_recv(3, 2, T_N, 2),
    ]);
    let cfg = RingConfig::paper(6);
    let report = run(6, UniverseConfig::with_plan(plan).watchdog(wd()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert_eq!(s.completed_iterations(), 6);
    assert!(!s.has_double_completion());
}

/// The rank right before the root and right after the root die; the
/// root's own neighbour machinery is exercised on both sides.
#[test]
fn failures_adjacent_to_the_root() {
    let plan = combine([
        kill_after_recv(1, 0, T_N, 2),
        kill_after_recv(5, 4, T_N, 3),
    ]);
    let cfg = RingConfig::paper(6);
    let report = run(6, UniverseConfig::with_plan(plan).watchdog(wd()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert_eq!(s.completed_iterations(), 6);
    let root = report.outcomes[0].as_ok().unwrap();
    assert!(root.left_switches + root.right_switches >= 1);
}

/// Repeated small runs: shake out schedule-dependent races (this suite
/// runs on a single CPU, so interleavings vary run to run).
#[test]
fn repeated_fig7_runs_are_deterministic_in_outcome() {
    for round in 0..15 {
        let plan = kill_after_recv(2, 1, T_N, 2);
        let cfg = RingConfig::paper(5);
        let report = run(4, UniverseConfig::with_plan(plan).watchdog(wd()), move |p| {
            run_ring(p, WORLD, &cfg)
        });
        let s = summarize(&report);
        assert!(!s.hung, "round {round}");
        assert_eq!(s.completed_iterations(), 5, "round {round}");
        assert!(!s.has_double_completion(), "round {round}");
        assert_eq!(s.failed, vec![2], "round {round}");
    }
}

/// Request hygiene: after a full FT ring run the process holds at most
/// the detector receive (left posted by design) — no unbounded leak.
#[test]
fn no_request_leak_across_a_run() {
    let cfg = RingConfig::paper(10);
    let report = run(4, UniverseConfig::default().watchdog(wd()), move |p| {
        let stats = run_ring(p, WORLD, &cfg)?;
        Ok((stats, p.live_requests()))
    });
    assert!(!report.hung);
    for (r, o) in report.outcomes.iter().enumerate() {
        let (_, live) = o.as_ok().unwrap();
        assert!(
            *live <= 2,
            "rank {r} leaked requests: {live} live after the run"
        );
    }
}

/// Long ring: iterations dominate failures; mirrors the paper's remark
/// that the ring doubles as a latency benchmark.
#[test]
fn long_failure_free_run() {
    let cfg = RingConfig::paper(200).termination(TerminationMode::ValidateAll);
    let report = run(4, UniverseConfig::default().watchdog(wd()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(report.all_ok());
    assert_eq!(s.completed_iterations(), 200);
    assert_eq!(s.total_resends, 0);
}

/// Padded tokens survive the failure machinery intact.
#[test]
fn padded_tokens_with_failures() {
    let plan = kill_after_recv(2, 1, T_N, 2);
    let cfg = RingConfig::paper(5).pad(512);
    let report = run(4, UniverseConfig::with_plan(plan).watchdog(wd()), move |p| {
        run_ring(p, WORLD, &cfg)
    });
    let s = summarize(&report);
    assert!(!s.hung);
    assert_eq!(s.completed_iterations(), 5);
}

/// The lost-wake-up tripwire. A notifier skips a rank that is not
/// parked (`ftmpi::transport`), so a wake rule that skipped one that
/// *is* would leave it asleep until the 50 ms safety timeout — counted
/// in `stats.handoff.park_safety_timeouts`. Message flow in both
/// workloads is continuous, so a correct rule never needs the timeout;
/// a broken one needs it in every run. (A peer the OS keeps off the
/// CPU for 50 ms makes the others time out legitimately, hence the
/// best of three.) Every run also wakes a sleeper once per sleep, not
/// once per message: `wakes <= parks`.
fn never_needs_the_safety_timeout(stats_of_one_run: impl Fn() -> HandoffStats) {
    let fewest = (0..3)
        .map(|_| {
            let h = stats_of_one_run();
            assert!(h.wakes <= h.parks, "{} notifies for {} sleeps", h.wakes, h.parks);
            h.park_safety_timeouts
        })
        .min();
    assert_eq!(fewest, Some(0), "every run fell back on the park safety timeout");
}

#[test]
fn clean_500_lap_ring_never_needs_the_safety_timeout() {
    never_needs_the_safety_timeout(|| {
        let cfg = RingConfig::paper(500);
        let report = run(4, UniverseConfig::default().watchdog(wd()), move |p| {
            run_ring(p, WORLD, &cfg)
        });
        assert!(report.all_ok());
        assert_eq!(summarize(&report).completed_iterations(), 500);
        report.stats.handoff
    });
}

/// Rank 0 keeps 192 receives posted (three senders, 64 tags, reverse
/// tag order) and parks while the senders, released together, fill
/// them in ascending order: deliveries race the receiver's parking in
/// every round.
#[test]
fn fan_in_never_needs_the_safety_timeout() {
    never_needs_the_safety_timeout(|| {
        let report = run(4, UniverseConfig::default().watchdog(wd()), |p| {
            let me = p.world_rank();
            let payload =
                |round: u64, src: usize, tag: i32| round << 32 | (src as u64) << 16 | tag as u64;
            for round in 0..20u64 {
                if me == 0 {
                    let mut reqs = Vec::new();
                    for tag in (0..64).rev() {
                        for src in 1..4 {
                            reqs.push(p.irecv(WORLD, Src::Rank(src), tag)?);
                        }
                    }
                    for src in 1..4 {
                        p.send(WORLD, src, 64, &round)?;
                    }
                    let mut done = p.waitall(&reqs)?.into_iter();
                    for tag in (0..64).rev() {
                        for src in 1..4 {
                            let c = done.next().expect("one completion per request")?;
                            let got = <u64 as Datatype>::from_bytes(&c.data)?;
                            assert_eq!(got, payload(round, src, tag));
                        }
                    }
                } else {
                    let (go, _) = p.recv::<u64>(WORLD, Src::Rank(0), 64)?;
                    assert_eq!(go, round);
                    for tag in 0..64 {
                        p.send(WORLD, 0, tag, &payload(round, me, tag))?;
                    }
                }
            }
            Ok(())
        });
        assert!(report.all_ok());
        report.stats.handoff
    });
}
