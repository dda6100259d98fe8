//! One way to run a protocol under the scheduler (DESIGN.md §8.1).

use std::fmt::{Debug, Write as _};
use std::ops::Range;
use std::sync::Arc;

use faultsim::FaultPlan;
use ftmpi::{Process, RunReport, UniverseConfig};

use crate::{Retention, Scheduler, SeedRunner};

/// A protocol the simulator runs: one body per rank, a plan per seed.
pub trait Workload: Sync {
    /// What one rank returns.
    type Report: Debug + Send;
    /// The rank body.
    fn body(&self, p: &mut Process) -> ftmpi::Result<Self::Report>;
    /// The fail-stops `seed` injects into a world of `ranks`.
    fn plan(&self, seed: u64, ranks: usize) -> FaultPlan;
}

impl SeedRunner {
    /// The one simulated-run executor: `w` under a scheduler drawn from `seed` that calls a
    /// livelock after `budget` steps and pins delays to `mask` if given.
    pub fn run_workload<W: Workload>(
        &mut self,
        w: &W,
        seed: u64,
        budget: u64,
        retention: Retention,
        mask: Option<&[u64]>,
    ) -> (RunReport<W::Report>, Arc<Scheduler>) {
        let sched = Scheduler::new(self.ranks(), seed, budget);
        let sched = if retention == Retention::Quiet { sched.quiet() } else { sched };
        let sched = Arc::new(if let Some(mask) = mask { sched.delay_mask(mask) } else { sched });
        let plan = w.plan(seed, self.ranks());
        let cfg = UniverseConfig::with_plan(plan).traced().sim(sched.clone());
        (self.pool.run(cfg, |p: &mut Process| w.body(p)), sched)
    }
}

/// Run `w` twice per seed at each world size: no deadlock, budget (100 000 steps) or hang, the
/// plan's victims and no one else `Failed`, the same log and outcomes twice; `check` sees each.
/// Returns FNV-1a over the rendered runs, in order, and their scheduler steps.
pub fn referee<W: Workload>(
    w: &W,
    ranks: &[usize],
    seeds: Range<u64>,
    mut check: impl FnMut(&str, &FaultPlan, &RunReport<W::Report>),
) -> (u64, u64) {
    let (mut digest, mut steps) = (0xcbf2_9ce4_8422_2325, 0);
    for &n in ranks {
        let mut runner = SeedRunner::new(n);
        for seed in seeds.clone() {
            let (at, plan) = (format!("{n} ranks, seed {seed}"), w.plan(seed, n));
            let mut run = || {
                let (report, sched) = runner.run_workload(w, seed, 100_000, Retention::Full, None);
                assert_eq!(sched.deadlock_at(), None, "{at}: deadlock\n{}", sched.log_text());
                assert!(!sched.budget_exhausted() && !report.hung, "{at}: budget spent or hung");
                let mut text = sched.log_text();
                for (rank, outcome) in report.outcomes.iter().enumerate() {
                    let planned = plan.victims().contains(&rank);
                    let fired = outcome.is_failed();
                    assert!(planned || !fired, "{at}: rank {rank} failed unplanned");
                    assert!(!planned || fired, "{at}: the kill of rank {rank} did not fire");
                    writeln!(text, "rank {rank}: {outcome:?}").unwrap();
                }
                (report, text, sched.steps())
            };
            let (report, text, took) = run();
            assert_eq!(text, run().1, "{at}: two runs differ");
            check(&at, &plan, &report);
            digest = text.bytes().fold(digest, |d, b| (d ^ b as u64).wrapping_mul(0x100_0000_01b3));
            steps += took;
        }
    }
    (digest, steps)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use faultsim::HookKind;
    use ftmpi::{ErrorHandler, WORLD};

    use super::*;

    /// Two ranks that each send the other one message: `plan` is every
    /// seed's plan, rank `fails` dies by its own hand, and with `drift`
    /// set every run reports more than the last.
    #[derive(Default)]
    struct Toy {
        plan: FaultPlan,
        fails: Option<usize>,
        drift: Option<AtomicU64>,
    }

    impl Workload for Toy {
        type Report = u64;

        fn body(&self, p: &mut Process) -> ftmpi::Result<u64> {
            let me = p.world_rank();
            if self.fails == Some(me) {
                return Err(p.fail_now());
            }
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            p.send(WORLD, 1 - me, 0, &0u64)?;
            Ok(self.drift.as_ref().map_or(0, |n| n.fetch_add(1, Ordering::Relaxed)))
        }

        fn plan(&self, _seed: u64, _ranks: usize) -> FaultPlan {
            self.plan.clone()
        }
    }

    fn sweep(toy: &Toy) -> (u64, u64) {
        referee(toy, &[2], 0..4, |_, _, _| {})
    }

    #[test]
    fn a_sweep_whose_kills_fire_pins_the_same_digest_twice() {
        let toy =
            Toy { plan: FaultPlan::none().kill_at(1, HookKind::BeforeSend, 1), ..Toy::default() };
        let pin = sweep(&toy);
        assert_eq!(pin, sweep(&toy));
        assert_ne!(pin.1, 0);
    }

    #[test]
    #[should_panic(expected = "2 ranks, seed 0: the kill of rank 1 did not fire")]
    fn a_kill_whose_occurrence_is_never_reached_fails() {
        // The body never validates.
        sweep(&Toy {
            plan: FaultPlan::none().kill_at(1, HookKind::BeforeValidate, 1),
            ..Toy::default()
        });
    }

    #[test]
    #[should_panic(expected = "2 ranks, seed 0: two runs differ")]
    fn a_report_that_differs_between_two_runs_fails() {
        sweep(&Toy { drift: Some(AtomicU64::new(0)), ..Toy::default() });
    }

    #[test]
    #[should_panic(expected = "2 ranks, seed 0: rank 1 failed unplanned")]
    fn a_rank_that_fails_unplanned_fails() {
        sweep(&Toy { fails: Some(1), ..Toy::default() });
    }
}
