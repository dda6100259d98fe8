//! The apps under the deterministic scheduler.
//!
//! The heat solver (5 ranks), the task farm (4 ranks; 5, 13 and 24
//! tasks) and the pipelined reduction (5 ranks; vectors of 4, 11 and 19)
//! each run on a simulated universe with none, one or two ranks killed
//! per seed, at any hook the victim reaches, and this file pins what a
//! change to an app must not move:
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
//! `dst::referee` draws each kill from the hooks the seed's clean twin
//! reached, runs the schedules and checks all but the answers.

use dst::{referee, reports, Kills, SeedRunner, Workload};
use faultsim::{FaultPlan, HookKind};
use ftmpi::{Process, WORLD};
use ftring::apps::{
    expected_results, run_farm, run_heat, run_pipeline, FarmOutcome, HeatConfig, HeatResult,
    PipelineResult,
};

/// The heat solver: 6 cells a rank, 50 steps.
struct Heat;

impl Workload for Heat {
    type Report = HeatResult;

    fn body(&self, p: &mut Process) -> ftmpi::Result<HeatResult> {
        run_heat(p, WORLD, &HeatConfig { cells_per_rank: 6, steps: 50 })
    }

    /// An interior rank.
    fn kills(&self, _seed: u64, ranks: usize) -> Kills {
        Kills::Victims(1..ranks - 1)
    }
}

/// FNV-1a over every schedule's decision log and rank reports, in seed
/// order (here and below, one per referee call).
const HEAT_DIGEST: u64 = 0x2160_3dc8_aee4_2a38;

#[test]
fn heat_runs_through_any_interior_failure() {
    let (digest, _) = referee(&Heat, &[5], 0..450, |at, _, report, _| {
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

/// Rank 1 dies before its last halo receive, after rank 0 finished:
/// rank 2's last send path re-knits its left side onto rank 0, which
/// must have told rank 2 it is done. When rank 0 told only its partner
/// at the time, scheduler seeds 1 and 2 deadlocked at steps 1017 and
/// 1010 with rank 2 waiting on rank 0.
#[test]
fn heat_survives_a_death_after_its_neighbour_finished() {
    let plan = FaultPlan::none().kill_at(1, HookKind::BeforeRecvPost, 100);
    let mut runner = SeedRunner::new(5);
    for seed in [1, 2] {
        let run = runner.run_workload(&Heat, &plan, seed);
        let reports = reports(&format!("seed {seed}"), &run.0);
        let steps: Vec<_> = reports.iter().map(|r| r.map(|r| r.steps)).collect();
        assert_eq!(steps, [Some(50), None, Some(50), Some(50), Some(50)], "seed {seed}");
    }
}

/// The task farm over `tasks`.
struct Farm {
    tasks: Vec<u64>,
}

impl Workload for Farm {
    type Report = FarmOutcome;

    fn body(&self, p: &mut Process) -> ftmpi::Result<FarmOutcome> {
        run_farm(p, WORLD, &self.tasks)
    }

    /// Any worker (the manager is assumed to survive).
    fn kills(&self, _seed: u64, ranks: usize) -> Kills {
        Kills::Victims(1..ranks)
    }
}

const FARM_DIGESTS: [u64; 3] =
    [0x1e9a_610e_83f4_df99, 0xafd4_cfa1_9e1a_5fb6, 0x15a6_3a1d_f7b1_da64];

#[test]
fn farm_completes_every_task_under_any_worker_failure() {
    let digests = [5, 13, 24].map(|n| {
        let farm = Farm { tasks: (0..n).map(|i| i * 31 + 3).collect() };
        let expect = expected_results(&farm.tasks);
        let (digest, _) =
            referee(&farm, &[4], 0..66, |at, _, report, _| match reports(at, report)[0] {
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
    fn kills(&self, _seed: u64, ranks: usize) -> Kills {
        Kills::Victims(1..ranks)
    }
}

const PIPELINE_DIGESTS: [u64; 3] =
    [0x9b0f_83f8_5ff3_2106, 0x4d2b_a4b9_29f1_5696, 0x70eb_1c61_a6bc_6d49];

#[test]
fn pipeline_survivors_agree_on_the_sum_under_any_failure() {
    let digests = [4, 11, 19].map(|len| {
        let (digest, _) = referee(&Pipeline { len }, &[5], 0..168, |at, _, report, _| {
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
