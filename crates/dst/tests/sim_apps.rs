//! The apps under the deterministic scheduler.
//!
//! The heat solver (5 ranks), the task farm (4 ranks; 5, 13 and 24
//! tasks) and the pipelined reduction (5 ranks; vectors of 4, 11 and 19)
//! each run on a simulated universe with one rank killed per seed, at a
//! hook occurrence every schedule of that workload reaches, and this
//! file pins what a change to an app must not move:
//!
//! * no schedule ends in a deadlock or budget verdict;
//! * every planned kill fires, and nobody else fails;
//! * every rank that did not fail returns, with the app's answer:
//!   - heat: all 50 steps, every cell finite and inside [0, 1];
//!   - farm: the manager holds every task's result exactly once;
//!   - pipeline: survivors agree on the reduced vector and its
//!     contributors, and it is the sum over those contributors;
//! * a schedule run twice leaves a byte-identical decision log;
//! * the FNV-1a digest of every log and every rank's report is pinned.
//!
//! `dst::referee` runs the schedules and checks all but the answers.

use std::fmt::Debug;
use std::ops::Range;

use dst::{referee, Workload};
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{Process, RankOutcome, RunReport, WORLD};
use ftring::apps::{
    expected_results, run_farm, run_heat, run_pipeline, FarmOutcome, HeatConfig, HeatResult,
    PipelineResult,
};

use HookKind::{AfterRecvComplete, AfterSend, BeforeRecvPost, BeforeSend, BeforeValidate, Tick};

/// Seed `s` kills one of `victims` — `s` walks them first — at point
/// `s / victims` of `reach`, which lists hook kinds with the last
/// occurrence every schedule reaches, occurrences of one kind in a row.
fn one_kill(seed: u64, victims: Range<usize>, reach: &[(HookKind, u64)]) -> FaultPlan {
    let n = victims.len() as u64;
    let total: u64 = reach.iter().map(|&(_, last)| last).sum();
    let mut points =
        reach.iter().flat_map(|&(kind, last)| (1..=last).map(move |k| Trigger::on(kind).nth(k)));
    let trigger = points.nth((seed / n % total) as usize).unwrap();
    FaultPlan::none().with(FaultRule::kill(victims.start + (seed % n) as usize, trigger))
}

/// Each rank's report, `None` for a rank that failed; any other end
/// fails the schedule.
fn reports<'r, R: Debug>(at: &str, report: &'r RunReport<R>) -> Vec<Option<&'r R>> {
    let end = |(rank, outcome): (usize, &'r RankOutcome<R>)| match outcome {
        RankOutcome::Ok(r) => Some(r),
        RankOutcome::Failed => None,
        other => panic!("{at}: rank {rank} ended as {other:?}"),
    };
    report.outcomes.iter().enumerate().map(end).collect()
}

/// The heat solver: 6 cells a rank, 50 steps.
struct Heat;

impl Workload for Heat {
    type Report = HeatResult;

    fn body(&self, p: &mut Process) -> ftmpi::Result<HeatResult> {
        run_heat(p, WORLD, &HeatConfig { cells_per_rank: 6, steps: 50, ..HeatConfig::default() })
    }

    /// An interior rank at one of the first 80 occurrences of a
    /// point-to-point hook kind: the seed walks the victims, then the
    /// kinds, then occurrences 1, 9, …, 73, then 2, 10, …, 74, and so on.
    fn plan(&self, seed: u64, _ranks: usize) -> FaultPlan {
        let kinds = [BeforeSend, AfterSend, BeforeRecvPost, AfterRecvComplete, Tick];
        let k = seed / 15;
        let trigger = Trigger::on(kinds[(seed / 3 % 5) as usize]).nth(1 + k % 10 * 8 + k / 10 % 8);
        FaultPlan::none().with(FaultRule::kill(1 + (seed % 3) as usize, trigger))
    }
}

/// FNV-1a over every schedule's decision log and rank reports, in seed
/// order (here and below, one per referee call).
const HEAT_DIGEST: u64 = 0x6a60_0737_f292_eb5c;

#[test]
fn heat_runs_through_any_interior_failure() {
    // Every victim × kind at occurrences 1–3, 9–11, …, 73–75.
    let (digest, _) = referee(&Heat, &[5], 0..450, |at, _, report| {
        for (rank, r) in reports(at, report).into_iter().enumerate() {
            let Some(r) = r else { continue };
            assert_eq!(r.steps, 50, "{at}: rank {rank} stopped early");
            for v in &r.cells {
                assert!(
                    v.is_finite() && (-1e-9..=1.0 + 1e-9).contains(v),
                    "{at}: rank {rank}: {v}"
                );
            }
        }
    });
    assert_eq!(digest, HEAT_DIGEST, "decision logs or reports moved: {digest:#018x}");
}

/// The task farm over `tasks`, with one worker killed.
struct Farm {
    tasks: Vec<u64>,
    /// The kill points every schedule reaches with this many tasks.
    reach: &'static [(HookKind, u64)],
}

/// Task counts, each with the kill points every worker reaches with
/// that many: a worker's share of the tasks is not fixed, so fewer
/// tasks leave it fewer receives and sends it can count on.
const FARMS: [(u64, &[(HookKind, u64)]); 3] = [
    (5, &[(AfterRecvComplete, 2), (AfterSend, 1), (Tick, 3)]),
    (13, &[(AfterRecvComplete, 3), (AfterSend, 2)]),
    (24, &[(AfterRecvComplete, 6), (AfterSend, 5)]),
];

impl Workload for Farm {
    type Report = FarmOutcome;

    fn body(&self, p: &mut Process) -> ftmpi::Result<FarmOutcome> {
        run_farm(p, WORLD, &self.tasks)
    }

    /// One of the three workers (the manager is assumed to survive).
    fn plan(&self, seed: u64, _ranks: usize) -> FaultPlan {
        one_kill(seed, 1..4, self.reach)
    }
}

const FARM_DIGESTS: [u64; 3] =
    [0xac78_750a_24ef_b5fa, 0xe054_ceb5_d38f_d09d, 0xff76_2024_741b_c189];

#[test]
fn farm_completes_every_task_under_any_worker_failure() {
    let digests = FARMS.map(|(n, reach)| {
        let farm = Farm { tasks: (0..n).map(|i| i * 31 + 3).collect(), reach };
        let expect = expected_results(&farm.tasks);
        // Every worker × point, twice or more.
        let (digest, _) =
            referee(&farm, &[4], 0..66, |at, _, report| match reports(at, report)[0] {
                Some(FarmOutcome::Manager(m)) => assert_eq!(m.results, expect, "{at}"),
                other => panic!("{at}: the manager ended as {other:?}"),
            });
        digest
    });
    assert_eq!(digests, FARM_DIGESTS, "decision logs or reports moved: {digests:#018x?}");
}

/// The pipelined reduction of a `len`-element vector per rank.
struct Pipeline {
    len: usize,
}

/// The kill points every schedule of [`Pipeline`] reaches: its first
/// eight passes of each point-to-point hook, and both `validate_all`
/// calls of the first attempt.
const PIPELINE_REACH: [(HookKind, u64); 6] = [
    (BeforeSend, 8),
    (AfterSend, 8),
    (BeforeRecvPost, 8),
    (AfterRecvComplete, 8),
    (Tick, 8),
    (BeforeValidate, 2),
];

/// Rank `rank`'s element `i`.
fn element(rank: usize, i: usize) -> f64 {
    rank as f64 * 100.0 + i as f64
}

impl Workload for Pipeline {
    type Report = PipelineResult;

    fn body(&self, p: &mut Process) -> ftmpi::Result<PipelineResult> {
        let me = p.world_rank();
        let vector: Vec<f64> = (0..self.len).map(|i| element(me, i)).collect();
        run_pipeline(p, WORLD, &vector)
    }

    /// Any rank but 0.
    fn plan(&self, seed: u64, _ranks: usize) -> FaultPlan {
        one_kill(seed, 1..5, &PIPELINE_REACH)
    }
}

const PIPELINE_DIGESTS: [u64; 3] =
    [0x4ff9_b842_9d5f_25f6, 0x675b_003f_e65a_428a, 0x3f7e_ac91_7fb3_51a2];

#[test]
fn pipeline_survivors_agree_on_the_sum_under_any_failure() {
    // Every victim × point.
    let digests = [4, 11, 19].map(|len| {
        let (digest, _) = referee(&Pipeline { len }, &[5], 0..168, |at, _, report| {
            let survivors: Vec<&PipelineResult> =
                reports(at, report).into_iter().flatten().collect();
            let first = survivors[0];
            for r in &survivors {
                assert_eq!(r.reduced, first.reduced, "{at}: survivors disagree on the sum");
                assert_eq!(r.contributors, first.contributors, "{at}: survivors disagree on who");
            }
            for (i, v) in first.reduced.iter().enumerate() {
                let sum: f64 = first.contributors.iter().map(|&c| element(c, i)).sum();
                assert!((v - sum).abs() < 1e-9, "{at}: element {i} is {v}, not {sum}");
            }
        });
        digest
    });
    assert_eq!(digests, PIPELINE_DIGESTS, "decision logs or reports moved: {digests:#018x?}");
}
