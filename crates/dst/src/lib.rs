//! # dst — deterministic simulation testing for the fault-tolerant ring
//!
//! A FoundationDB-style simulation harness over the `ftmpi` runtime.
//! Instead of letting the OS scheduler pick an arbitrary interleaving
//! per run, the runtime runs every rank as a coroutine on one thread
//! and a [`sched::Scheduler`] draws all decisions —
//! which rank runs, which receive matches, which messages are delayed —
//! from a single `u64` seed. One seed therefore names one complete
//! execution:
//!
//! * **explore** — sweep a seed range, injecting seed-derived fail-stop
//!   schedules, and judge every schedule by the seven DESIGN.md §5
//!   invariants ([`oracle::ORACLES`], which judge every other ring run
//!   too);
//! * **replay** — re-execute any seed exactly, byte-identical decision
//!   log and all (`dst replay --seed 0xBEEF`);
//! * **shrink** — delta-debug a failing schedule down to a locally
//!   minimal kill-set + delay-set ([`shrink::shrink`]);
//! * a blocked rank is not runnable, so a **deadlock is a verdict** —
//!   "ranks suspended, none enabled", reported at the step it happens
//!   with the live wait-for graph — and a logical step budget backstops
//!   livelock; neither involves wall-clock time, so a hang reproduces
//!   identically too.
//!
//! See DESIGN.md §8 for the architecture and the instrumentation-point
//! inventory.

#![warn(missing_docs)]

/// The counting global allocator (DESIGN.md §8.10): every binary and
/// test linking `dst` counts heap traffic per thread, which is what
/// makes [`scenario::Observation::stats`]`.alloc`, `dst explore --stats`
/// allocs/schedule, and the tier-1 allocation-ceiling test live
/// numbers instead of zeros. `allocstats::StatsAlloc` delegates
/// straight to `std::alloc::System` plus four thread-local counter
/// bumps, so simulation timing is unaffected in any way an oracle
/// could observe (and determinism never depends on timing anyway).
#[global_allocator]
static ALLOC: allocstats::StatsAlloc = allocstats::StatsAlloc;

pub mod coverage;
pub mod figures;
pub mod fuzz;
pub mod oracle;
pub mod scenario;
pub mod sched;
pub mod shrink;
pub mod sweep;
pub mod triage;
pub mod verdict;
pub mod workload;

pub use coverage::{CoverageSet, EdgeKind};
pub use fuzz::{fuzz, FuzzCfg, FuzzError, FuzzReport};
pub use oracle::{check_all, Oracle, RingRun, Violation, ORACLES};
pub use scenario::{
    run_schedule, run_seed, Kill, KillShape, Observation, Retention, ScenarioCfg, Schedule,
    SeedRunner,
};
pub use faultsim::{CoverageStats, HandoffStats, RunStats};
pub use sched::{SchedEvent, Scheduler, SplitMix64};
pub use shrink::{shrink, shrink_schedule, Ev, Shrunk};
pub use sweep::{sweep, CorpusWrite, SweepCfg, SweepError, SweepReport};
pub use triage::{triage, triage_trace, Hang, TriageReport, WaitEdge, WaitKind};
pub use verdict::{judge, Failure, Tally};
pub use workload::{referee, reports, Kills, Workload};

/// Run `count` seeds starting at `start` serially, with full decision
/// logs, and judge each one: the reference [`sweep`] is checked
/// against, retaining every failure. Use [`sweep`] for large campaigns
/// (parallel workers, quiet runs, bounded failure retention).
///
/// Errors instead of wrapping when `start + count` exceeds `u64::MAX`.
pub fn explore(start: u64, count: u64, cfg: &ScenarioCfg) -> Result<Tally, SweepError> {
    let end = start
        .checked_add(count)
        .ok_or(SweepError::SeedRangeOverflow { start, count })?;
    // One runner for the whole range: seeds run back-to-back on the
    // same rank stacks (observations are identical to a fresh runner
    // per seed; the golden-log suite pins this).
    let mut runner = SeedRunner::new(cfg.ranks);
    let mut tally = Tally::new(usize::MAX);
    for seed in start..end {
        let obs = runner.run_seed(seed, cfg);
        tally.record(seed, &obs);
        runner.recycle(obs);
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deliberately injected bug — dedup disabled, i.e. the
    /// iteration-marker check of Fig. 10 reverted — is caught by the
    /// no-duplicate oracle at a pinned seed, shrinks to the pinned
    /// one-event schedule in the pinned number of runs (the shrinker
    /// reuses one runner across its ddmin candidates; state bleeding
    /// between them would move either), and the shrunk schedule still
    /// reproduces the violation on replay.
    #[test]
    fn injected_dedup_bug_is_caught_and_shrinks() {
        let cfg = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        for (seed, expected, runs) in [
            (0x2du64, "kill 2 at AfterSend#2", 7),
            (0x2f, "kill 2 at AfterSend#1", 5),
        ] {
            let obs = run_seed(seed, &cfg);
            let violations = check_all(&obs);
            assert!(
                violations.iter().any(|v| v.oracle == "no-duplicate"),
                "seed {seed:#x} no longer reproduces the dedup bug: {violations:?}"
            );

            let s = shrink(seed, &cfg, None).expect("failing schedule must shrink");
            assert_eq!((s.events_text().as_str(), s.runs), (expected, runs), "seed {seed:#x}");
            assert!(s.violations.iter().any(|v| v.starts_with("no-duplicate")));

            // The minimal schedule replays to the same violation.
            assert_eq!(s.schedule.seed, seed);
            let replay = run_schedule(&s.schedule, &cfg);
            assert!(check_all(&replay).iter().any(|v| v.oracle == "no-duplicate"));
        }
    }

    /// Pinned mini-corpus: the hardened ring survives seed-derived
    /// fault schedules with every applicable oracle green.
    #[test]
    fn pinned_corpus_is_green() {
        let cfg = ScenarioCfg::default();
        let tally = explore(0, 25, &cfg).unwrap();
        assert_eq!(tally.green, 25);
        assert!(tally.failures.is_empty(), "{:#?}", tally.failures);
    }

    /// Replaying a run with its own delay-set pinned as an explicit
    /// mask must reproduce the exploration run decision-for-decision —
    /// the soundness property ddmin shrinking starts from.
    #[test]
    fn full_mask_replay_reproduces_exploration() {
        for buggy_dedup in [false, true] {
            let cfg = ScenarioCfg { buggy_dedup, ..ScenarioCfg::default() };
            for seed in [0x29u64, 3, 11] {
                let explored = run_seed(seed, &cfg);
                let mut replayed_schedule = explored.schedule.clone();
                replayed_schedule.delay_mask = Some(explored.delay_calls.clone());
                let replayed = run_schedule(&replayed_schedule, &cfg);
                assert_eq!(
                    explored.log, replayed.log,
                    "masked replay diverged for seed {seed:#x} (buggy={buggy_dedup})"
                );
            }
        }
    }

    /// Same seed, two runs: the decision log and the protocol trace
    /// must be byte-identical. This is the property everything else
    /// (replay, shrinking) rests on.
    #[test]
    fn same_seed_is_byte_identical() {
        let cfg = ScenarioCfg::default();
        for seed in [1u64, 7, 0xBEEF] {
            let a = run_seed(seed, &cfg);
            let b = run_seed(seed, &cfg);
            assert_eq!(a.log, b.log, "decision logs diverged for seed {seed:#x}");
            assert_eq!(
                format!("{:?}", a.trace),
                format!("{:?}", b.trace),
                "protocol traces diverged for seed {seed:#x}"
            );
        }
    }

    /// Zero-retention runs must reach the same verdicts as recorded
    /// runs — the sweep engine runs quiet, so a divergence here would
    /// make `dst explore` and `dst replay` disagree about a seed.
    #[test]
    fn quiet_runs_reach_identical_verdicts() {
        for buggy_dedup in [false, true] {
            let cfg = ScenarioCfg { buggy_dedup, ..ScenarioCfg::default() };
            for seed in [0x2du64, 0x2f, 3, 11] {
                let full = run_seed(seed, &cfg);
                let quiet = SeedRunner::new(cfg.ranks).run_seed_quiet(seed, &cfg);
                assert!(quiet.log.is_empty(), "quiet run retained a log");
                assert!(quiet.delay_calls.is_empty(), "quiet run retained delays");
                assert_eq!(full.outcomes, quiet.outcomes, "seed {seed:#x}");
                assert_eq!(full.hung, quiet.hung, "seed {seed:#x}");
                assert_eq!(full.budget_exhausted, quiet.budget_exhausted);
                assert_eq!(full.deadlock_at, quiet.deadlock_at);
                assert_eq!(
                    format!("{:?}", check_all(&full)),
                    format!("{:?}", check_all(&quiet)),
                    "verdicts diverged for seed {seed:#x} (buggy={buggy_dedup})"
                );
            }
        }
    }

    /// Regression: a range that would run past `u64::MAX` errors
    /// cleanly instead of panicking in debug or wrapping to an empty
    /// range in release; the exact boundary still works.
    #[test]
    fn seed_range_overflow_is_an_error_not_a_wrap() {
        let cfg = ScenarioCfg::default();
        assert!(matches!(
            explore(u64::MAX, 2, &cfg),
            Err(SweepError::SeedRangeOverflow { start: u64::MAX, count: 2 })
        ));
        assert!(matches!(
            explore(u64::MAX - 1, 3, &cfg),
            Err(SweepError::SeedRangeOverflow { .. })
        ));
        // `start + count == u64::MAX` is representable and runs.
        let tally = explore(u64::MAX - 2, 2, &cfg).unwrap();
        assert_eq!(tally.green + tally.failing, 2);
    }
}
