//! Integration tests for the parallel seed-sweep engine: the
//! properties the engine must hold whatever the worker count —
//! verdict determinism, bounded failure retention, clean range errors.

use std::collections::BTreeMap;

use dst::{explore, sweep, ScenarioCfg, SweepCfg, SweepError, SweepReport};

fn verdict_map(report: &SweepReport) -> BTreeMap<u64, Vec<String>> {
    report
        .failures
        .iter()
        .map(|(seed, f)| (*seed, f.oracles.clone()))
        .collect()
}

/// Parallel equals serial: for a fixed seed range, `jobs = 1` and
/// `jobs = 8` must produce identical counts and identical per-seed
/// verdict maps. Checked for the hardened ring and the deliberately
/// buggy one (which actually fails, exercising the failure path).
#[test]
fn parallel_equals_serial_verdicts() {
    for buggy_dedup in [false, true] {
        let scenario = ScenarioCfg { buggy_dedup, ..ScenarioCfg::default() };
        let base = SweepCfg { start: 0, count: 40, max_failures: 1000, ..SweepCfg::default() };

        let serial = sweep(&SweepCfg { jobs: 1, ..base.clone() }, &scenario).unwrap();
        let parallel = sweep(&SweepCfg { jobs: 8, ..base.clone() }, &scenario).unwrap();

        assert_eq!(serial.green, parallel.green, "green count diverged (buggy={buggy_dedup})");
        assert_eq!(serial.failing, parallel.failing, "failing count diverged");
        assert_eq!(serial.hung, parallel.hung, "hung count diverged");
        assert_eq!(
            verdict_map(&serial),
            verdict_map(&parallel),
            "per-seed verdict maps diverged (buggy={buggy_dedup})"
        );
    }
}

/// A known-failing buggy seed (0x2d, pinned by the lib tests) is
/// reported identically under both worker counts, down to the rendered
/// kill schedule and violation text.
#[test]
fn known_failing_seed_is_reported_identically() {
    let scenario = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
    let base = SweepCfg { start: 0x2d, count: 1, max_failures: 10, ..SweepCfg::default() };

    let serial = sweep(&SweepCfg { jobs: 1, ..base.clone() }, &scenario).unwrap();
    let parallel = sweep(&SweepCfg { jobs: 8, ..base.clone() }, &scenario).unwrap();

    let a = serial.failures.get(&0x2d).expect("seed 0x2d must fail under --buggy");
    let b = parallel.failures.get(&0x2d).expect("seed 0x2d must fail under --buggy");
    assert!(a.oracles.iter().any(|o| o == "no-duplicate"));
    assert_eq!(a.oracles, b.oracles);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.hung, b.hung);
}

/// The sweep matches the serial `explore` reference implementation
/// seed-for-seed: same failing seed set, same violated oracles.
#[test]
fn sweep_matches_explore_reference() {
    let scenario = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
    let reference: BTreeMap<u64, Vec<String>> = explore(0, 30, &scenario)
        .unwrap()
        .failures
        .into_iter()
        .map(|(seed, f)| (seed, f.oracles))
        .collect();

    let cfg = SweepCfg { start: 0, count: 30, jobs: 4, max_failures: 1000, ..SweepCfg::default() };
    let report = sweep(&cfg, &scenario).unwrap();
    assert_eq!(verdict_map(&report), reference);
    assert_eq!(report.failing as usize, reference.len());
}

/// Memory bound: a sweep with many failing seeds retains at most
/// `max_failures` summaries — the lowest seeds — while the counters
/// still account for every seed, and the overflow is reported rather
/// than silently truncated.
#[test]
fn large_failing_sweep_keeps_a_bounded_failure_list() {
    let scenario = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
    let count = 100u64;
    let cap = 8usize;
    let cfg = SweepCfg { start: 0, count, jobs: 4, max_failures: cap, ..SweepCfg::default() };
    let report = sweep(&cfg, &scenario).unwrap();

    // Every buggy-mode schedule injects a kill, so most seeds fail;
    // the exact number just has to exceed the cap for the test to bite.
    assert!(report.failing > cap as u64, "need more failures ({}) than cap", report.failing);
    assert_eq!(report.failures.len(), cap, "retained list must be capped");
    assert_eq!(report.dropped_failures, report.failing - cap as u64);
    assert_eq!(report.green + report.failing, count, "every seed accounted for");

    // The retained set is exactly the lowest failing seeds: nothing
    // dropped may be smaller than anything kept.
    let highest_kept = *report.failures.keys().next_back().unwrap();
    let serial = sweep(
        &SweepCfg { jobs: 1, max_failures: 10_000, ..cfg.clone() },
        &scenario,
    )
    .unwrap();
    let all_failing: Vec<u64> = serial.failures.keys().copied().collect();
    let lowest: Vec<u64> = all_failing.iter().copied().take(cap).collect();
    let kept: Vec<u64> = report.failures.keys().copied().collect();
    assert_eq!(kept, lowest);
    assert!(all_failing.iter().filter(|s| **s > highest_kept).count() as u64
        == report.dropped_failures);
}

/// Shrunk corpus entries reproduce: every retained failure gets a
/// minimal schedule under its own seed when `shrink_failures` is on.
#[test]
fn shrink_failures_attaches_minimal_events() {
    let scenario = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
    let cfg = SweepCfg {
        start: 0x2d,
        count: 3,
        jobs: 2,
        max_failures: 10,
        shrink_failures: true,
    };
    let report = sweep(&cfg, &scenario).unwrap();
    assert!(!report.failures.is_empty());
    for (seed, f) in &report.failures {
        let s = report.shrunk.get(seed).expect("every retained failure is shrunk");
        assert!(!s.events.is_empty() && s.events.len() <= f.schedule.kills.len());
        assert_eq!(s.schedule.seed, *seed);
        assert!(s.runs >= 1);
    }
}

/// Corpus file round-trip: written only when non-empty, one line per
/// failing seed, each carrying the schedule and a repro command.
#[test]
fn corpus_file_is_written_only_when_failures_exist() {
    let dir = std::env::temp_dir().join(format!("dst-sweep-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Hardened range with no failures: no file.
    let scenario = ScenarioCfg::default();
    let cfg = SweepCfg { start: 0, count: 10, jobs: 2, ..SweepCfg::default() };
    let green = sweep(&cfg, &scenario).unwrap();
    assert_eq!(green.failing, 0);
    let empty_path = dir.join("green.corpus");
    let no_write = SweepReport::write_corpus(&empty_path, [(&green, &scenario)]).unwrap();
    assert!(!no_write.created());
    assert_eq!(no_write.lines, 0);
    assert!(format!("{no_write}").contains("not written"));
    assert!(!empty_path.exists());

    // Buggy range: file exists, one line per retained failure.
    let buggy = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
    let cfg = SweepCfg { start: 0x2d, count: 1, jobs: 1, ..SweepCfg::default() };
    let report = sweep(&cfg, &buggy).unwrap();
    let path = dir.join("fail.corpus");
    let wrote = SweepReport::write_corpus(&path, [(&report, &buggy)]).unwrap();
    assert!(wrote.created());
    assert_eq!(wrote.lines, report.failures.len());
    assert_eq!(wrote.overflow, report.dropped_failures);
    assert_eq!(wrote.path, path);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), report.failures.len());
    assert!(text.starts_with("schedule seed=0x2d kills=[2:AfterSend:2,3:AfterSend:3] oracles=no-duplicate"));
    assert!(text.contains("repro=\"dst replay --seed 0x2d"));
    assert!(text.contains("--buggy"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Range and config validation: overflow and degenerate configs are
/// clean errors, never panics or silent empty sweeps.
#[test]
fn overflow_and_degenerate_configs_error_cleanly() {
    let ok = ScenarioCfg::default();
    let over = SweepCfg { start: 0xFFFF_FFFF_FFFF_FFFF, count: 2, ..SweepCfg::default() };
    assert!(matches!(sweep(&over, &ok), Err(SweepError::SeedRangeOverflow { .. })));

    for bad in [
        ScenarioCfg { ranks: 0, ..ScenarioCfg::default() },
        ScenarioCfg { ranks: 1, ..ScenarioCfg::default() },
        ScenarioCfg { max_iter: 0, ..ScenarioCfg::default() },
        ScenarioCfg { step_budget: 0, ..ScenarioCfg::default() },
    ] {
        let cfg = SweepCfg::default();
        assert!(
            matches!(sweep(&cfg, &bad), Err(SweepError::InvalidConfig(_))),
            "config {bad:?} must be rejected"
        );
    }
}
