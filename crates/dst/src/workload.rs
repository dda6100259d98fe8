//! One way to run a protocol under the scheduler (DESIGN.md §8.1).

use std::borrow::Cow;
use std::fmt::{Debug, Write as _};
use std::ops::Range;

use faultsim::{FaultPlan, FaultRule, HookKind};
use ftmpi::{Error, Process, RankOutcome, ReportBuffers, RunReport, Src, UniverseConfig, WORLD};

use crate::figures::SEEDS;
use crate::scenario::{plan, Kill, HOOKS, KILL_SALT};
use crate::{Retention, Retention::Full, Scheduler, SeedRunner, SplitMix64};

/// The steps after which a workload run is a livelock.
const BUDGET: u64 = 100_000;

/// A protocol the simulator runs: one body per rank, its kills per seed.
pub trait Workload: Sync {
    /// What one rank returns.
    type Report: Debug + Send;
    /// The rank body.
    fn body(&self, p: &mut Process) -> ftmpi::Result<Self::Report>;
    /// The fail-stops `seed` injects into a world of `ranks`.
    fn kills(&self, seed: u64, ranks: usize) -> Kills;
    /// How many times each rank may be revived (DESIGN.md §7).
    fn respawn(&self) -> u32 {
        0
    }
}

/// The fail-stops of one seed.
#[derive(Debug, Clone)]
pub enum Kills {
    /// This plan, as written.
    Plan(FaultPlan),
    /// None, one or two of these ranks, by `seed % 3`, each at a hook occurrence the run
    /// reaches: [`referee`] draws them from the seed's twin.
    Victims(Range<usize>),
}

impl SeedRunner {
    /// The one simulated-run executor: `w` under `plan` and a scheduler drawn from `seed` that
    /// calls a livelock after `BUDGET` steps. The scheduler is the runner's, to read until its
    /// next run.
    pub fn run_workload<W: Workload>(
        &mut self,
        w: &W,
        plan: &FaultPlan,
        seed: u64,
    ) -> (RunReport<W::Report>, &Scheduler) {
        self.arm(seed, BUDGET, Full, None);
        (self.run_in(w, plan, ReportBuffers::default()), &self.sched)
    }

    /// Reset the runner's scheduler for a run drawn from `seed`.
    pub(crate) fn arm(
        &mut self,
        seed: u64,
        budget: u64,
        retention: Retention,
        mask: Option<&[u64]>,
    ) {
        self.sched.reset(self.ranks(), seed, budget);
        if retention == Retention::Quiet {
            self.sched.quiet();
        }
        if let Some(mask) = mask {
            self.sched.delay_mask(mask);
        }
    }

    /// Run `w` under `plan` and the armed scheduler, its report built in `reports`.
    pub(crate) fn run_in<W: Workload>(
        &mut self,
        w: &W,
        plan: &FaultPlan,
        reports: ReportBuffers<W::Report>,
    ) -> RunReport<W::Report> {
        let cfg = UniverseConfig { plan: Cow::Borrowed(plan), ..UniverseConfig::default() };
        let cfg = cfg.traced().respawning(w.respawn()).sim(&mut self.sched);
        self.pool.run_in(cfg, reports, |p: &mut Process| w.body(p))
    }
}

/// The occurrence of a rule that only counts: no run reaches it.
const NEVER: u64 = u64::MAX;

/// Hook kinds with how often a rank had reached each when the first kill fired, and in all.
type Reach = Vec<(HookKind, u64, u64)>;

/// Run `w` per seed at each world size and judge the runs. Every run ends with no deadlock,
/// budget (`BUDGET` steps) or hang verdict. In the planned run the plan's victims and no one
/// else end `Failed`; its log equals, up to the first `kill` line, that of the seed's twin,
/// which runs with no kill armed; and a second run leaves the same log and outcomes. `check`
/// sees the plan, the report and the twin's report: the failure-free answer. Returns FNV-1a
/// over the planned runs, in order, and their scheduler steps.
pub fn referee<W: Workload>(
    w: &W,
    ranks: &[usize],
    seeds: Range<u64>,
    mut check: impl FnMut(&str, &FaultPlan, &RunReport<W::Report>, &RunReport<W::Report>),
) -> (u64, u64) {
    let (mut digest, mut steps) = (0xcbf2_9ce4_8422_2325, 0);
    for &n in ranks {
        let mut runner = SeedRunner::new(n);
        for seed in seeds.clone() {
            let at = format!("{n} ranks, seed {seed}");
            let mut s = Seed { runner: &mut runner, w, seed, at: &at };
            let (twin, plan) = match w.kills(seed, n) {
                Kills::Plan(plan) if plan.is_empty() => (None, plan),
                Kills::Plan(plan) => (Some(s.run(disarmed(&plan))), plan),
                Kills::Victims(victims) => s.draw(victims),
            };
            let run = s.run(plan.clone());
            let left = twin.as_ref().is_some_and(|t| !t.text.starts_with(before_kill(&run.text)));
            assert!(!left, "{at}: left its twin before the kill");
            for (rank, outcome) in run.report.outcomes.iter().enumerate() {
                let planned = plan.victims().contains(&rank);
                let fired = outcome.is_failed();
                assert!(planned || !fired, "{at}: rank {rank} failed unplanned");
                assert!(!planned || fired, "{at}: the kill of rank {rank} did not fire");
            }
            assert_eq!(run.text, s.run(plan.clone()).text, "{at}: two runs differ");
            check(&at, &plan, &run.report, &twin.as_ref().unwrap_or(&run).report);
            let fnv = |d: u64, b| (d ^ b as u64).wrapping_mul(0x100_0000_01b3);
            digest = run.text.bytes().fold(digest, fnv);
            steps += run.steps;
        }
    }
    (digest, steps)
}

/// Each rank's report, `None` for a rank that failed; any other end fails the run at `at`.
pub fn reports<'r, R: Debug>(at: &str, report: &'r RunReport<R>) -> Vec<Option<&'r R>> {
    let end = |(rank, outcome): (usize, &'r RankOutcome<R>)| match outcome {
        RankOutcome::Ok(r) => Some(r),
        RankOutcome::Failed => None,
        other => panic!("{at}: rank {rank} ended as {other:?}"),
    };
    report.outcomes.iter().enumerate().map(end).collect()
}

/// One rank body under one plan, whatever the seed: a protocol test's workload.
pub struct Body<F> {
    plan: FaultPlan,
    respawn: u32,
    body: F,
}

impl<F> Body<F> {
    /// `body` on every rank under `plan`, no rank revived.
    pub fn new(plan: FaultPlan, body: F) -> Self {
        Body { plan, respawn: 0, body }
    }

    /// The same, each rank revivable `respawn` times.
    pub fn respawning(self, respawn: u32) -> Self {
        Body { respawn, ..self }
    }
}

impl<R: Debug + Send, F: Fn(&mut Process) -> ftmpi::Result<R> + Sync> Workload for Body<F> {
    type Report = R;
    fn body(&self, p: &mut Process) -> ftmpi::Result<R> {
        (self.body)(p)
    }
    fn kills(&self, _seed: u64, _ranks: usize) -> Kills {
        Kills::Plan(self.plan.clone())
    }
    fn respawn(&self) -> u32 {
        self.respawn
    }
}

/// `body` on `n` ranks under `plan` through [`referee`] over [`SEEDS`]: each seed's twin runs
/// with the kills disarmed and must finish too; `check` judges each planned run.
pub fn refereed<R: Debug + Send>(
    n: usize,
    plan: FaultPlan,
    body: impl Fn(&mut Process) -> ftmpi::Result<R> + Sync,
    mut check: impl FnMut(&str, &RunReport<R>),
) {
    referee(&Body::new(plan, body), &[n], SEEDS, |at, _, report, _| check(at, report));
}

/// `body` on `n` ranks under `plan` over [`SEEDS`], for a body that waits for a death and so
/// has no twin: no seed may end in a deadlock or budget verdict; `check` judges each run.
pub fn seeded<R: Debug + Send>(
    n: usize,
    plan: FaultPlan,
    body: impl Fn(&mut Process) -> ftmpi::Result<R> + Sync,
    mut check: impl FnMut(&str, &RunReport<R>),
) {
    let (w, mut runner) = (Body::new(plan, body), SeedRunner::new(n));
    for seed in SEEDS {
        let at = format!("{n} ranks, seed {seed}");
        let run = Seed { runner: &mut runner, w: &w, seed, at: &at }.run(w.plan.clone());
        check(&at, &run.report);
    }
}

/// Wait until `victim` has died: a receive naming it ends in its `RankFailStop` (Fig. 9).
pub fn await_death(p: &mut Process, victim: usize) -> ftmpi::Result<()> {
    match p.recv::<()>(WORLD, Src::Rank(victim), 9) {
        Err(Error::RankFailStop { rank }) if rank == victim => Ok(()),
        other => panic!("rank {victim} did not die: {other:?}"),
    }
}

/// Wait for a message that never comes, until a `Tick` kill ends this rank.
pub fn idle<R>(p: &mut Process) -> ftmpi::Result<R> {
    p.recv::<()>(WORLD, Src::Rank(0), 9)?;
    unreachable!("an idle rank is killed at its first Tick")
}

/// One run: its report, its decision log followed by one line per rank's outcome, its steps.
struct Trial<R> {
    report: RunReport<R>,
    text: String,
    steps: u64,
}

/// One seed's runs at one world size.
struct Seed<'a, W> {
    runner: &'a mut SeedRunner,
    w: &'a W,
    seed: u64,
    at: &'a str,
}

impl<W: Workload> Seed<'_, W> {
    /// One run under `plan`, with no deadlock, budget or hang verdict.
    fn run(&mut self, plan: FaultPlan) -> Trial<W::Report> {
        let (w, seed, at) = (self.w, self.seed, self.at);
        let (report, sched) = self.runner.run_workload(w, &plan, seed);
        assert_eq!(sched.deadlock_at(), None, "{at}: deadlock\n{}", sched.log_text());
        assert!(!sched.budget_exhausted() && !report.hung, "{at}: budget spent or hung");
        let mut text = sched.log_text();
        for (rank, outcome) in report.outcomes.iter().enumerate() {
            writeln!(text, "rank {rank}: {outcome:?}").unwrap();
        }
        Trial { report, text, steps: sched.steps() }
    }

    /// A run of `kills` with rules that only count `v`'s hooks of every kind but `Tick`, which
    /// a pending rule would keep ticking, and the `Tick`s of `ticks`; with the kinds `v`
    /// reached after the first kill fired (from the start if none did), each with its count by
    /// then and in all.
    fn probe(&mut self, kills: &[Kill], v: usize, ticks: &[usize]) -> (Trial<W::Report>, Reach) {
        let kinds = HOOKS[..HOOKS.len() - 1].iter().map(|&kind| (v, kind));
        let rules = kinds.chain(ticks.iter().map(|&t| (t, HookKind::Tick)));
        let plan = rules.fold(plan(kills), |p, (r, kind)| p.kill_at(r, kind, NEVER));
        let run = self.run(plan.clone());
        let counts = plan.rules().iter().zip(run.report.injector.counts());
        let probes = counts.filter(|(r, _)| r.observer == v && r.trigger.occurrence == NEVER);
        let open = probes.filter(|(_, (all, by))| all > by);
        let open = open.map(|(r, (all, by))| (r.trigger.kind, by, all)).collect();
        (run, open)
    }

    /// The twin and `seed % 3` kills of distinct `victims`, drawn from one stream salted
    /// apart from the scheduler's. A kill's kind is uniform over those its victim reached
    /// after the kills before it fired, `Tick` included, and its occurrence uniform over the
    /// ones after them, so the planned run is the twin until each kill fires.
    fn draw(&mut self, victims: Range<usize>) -> (Option<Trial<W::Report>>, FaultPlan) {
        let mut rng = SplitMix64::new(self.seed ^ KILL_SALT);
        let mut left: Vec<usize> = victims.collect();
        let n = ((self.seed % 3) as usize).min(left.len());
        let picks: Vec<usize> = (0..n).map(|_| left.swap_remove(rng.below(left.len()))).collect();
        // The victims killed at `Tick`, whom a pending rule ticks from the start, so every run
        // ticks them; each time they change, every kill is drawn again.
        let (mut ticks, mut decided) = (Vec::new(), 0);
        'draw: loop {
            let (mut twin, mut kills) = (None, Vec::new());
            for &v in &picks {
                let (run, mut open) = self.probe(&kills, v, &ticks);
                twin.get_or_insert(run);
                if decided == kills.len() {
                    decided += 1;
                    if rng.below(open.len() + 1) == open.len() {
                        ticks.push(v);
                        continue 'draw;
                    }
                }
                open.retain(|o| (o.0 == HookKind::Tick) == ticks.contains(&v));
                if open.is_empty() {
                    // No kill for `v` or after it, so none of them ticks.
                    let ticking = ticks.len();
                    ticks.retain(|t| kills.iter().any(|k: &Kill| k.victim == *t));
                    if ticks.len() < ticking {
                        continue 'draw;
                    }
                    break;
                }
                let reach = open[rng.below(open.len())];
                kills.push(kill_after(&mut rng, v, reach));
            }
            return (twin, plan(&kills));
        }
    }
}

/// A kill of `v` at `hook`, uniform over occurrences `by + 1..=all`: those `v` reached after
/// the first kill fired, when it had reached `by`.
fn kill_after(rng: &mut SplitMix64, v: usize, (hook, by, all): (HookKind, u64, u64)) -> Kill {
    Kill { victim: v, hook, occurrence: by + 1 + rng.next_u64() % (all - by) }
}

/// `plan` with every rule's occurrence out of reach: the rules still count, and a pending
/// `Tick` rule still keeps its rank ticking, but none fires.
fn disarmed(plan: &FaultPlan) -> FaultPlan {
    let never = |r: &FaultRule| FaultRule { trigger: r.trigger.nth(NEVER), ..*r };
    FaultPlan::new(plan.rules().iter().map(never).collect())
}

/// `text` up to its first `kill` line.
fn before_kill(text: &str) -> &str {
    let lines = text.split_inclusive('\n');
    let end = lines.take_while(|l| l.split(' ').nth(1) != Some("kill")).map(str::len).sum();
    &text[..end]
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use ftmpi::ErrorHandler;

    use super::*;

    /// Two ranks that each send the other one message and receive one:
    /// `plan` is every seed's plan unless `victims` are set, rank `fails`
    /// dies by its own hand, and with `drift` set only the first run
    /// exchanges, and every run reports more than the last.
    #[derive(Default)]
    struct Toy {
        plan: FaultPlan,
        victims: Option<Range<usize>>,
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
            // Both ranks of run `r` read `2r` or `2r + 1`.
            let run = self.drift.as_ref().map_or(0, |n| n.fetch_add(1, Ordering::Relaxed) / 2);
            if run == 0 {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                p.send(WORLD, 1 - me, 0, &0u64)?;
                p.recv::<u64>(WORLD, Src::Rank(1 - me), 0)?;
            }
            Ok(run)
        }

        fn kills(&self, _seed: u64, _ranks: usize) -> Kills {
            self.victims.clone().map_or_else(|| Kills::Plan(self.plan.clone()), Kills::Victims)
        }
    }

    fn sweep(toy: &Toy) -> (u64, u64) {
        referee(toy, &[2], 0..4, |_, _, _, _| {})
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

    #[test]
    fn derived_kills_fire_two_kill_seeds_included() {
        let mut plans = [0; 3];
        let toy = Toy { victims: Some(0..2), ..Toy::default() };
        referee(&toy, &[2], 0..64, |_, plan, _, _| plans[plan.len()] += 1);
        // `seed % 3` kills, less a second whose victim had finished when the first fired.
        assert_eq!(plans, [22, 24, 18]);
    }

    #[test]
    #[should_panic(expected = "2 ranks, seed 1: left its twin before the kill")]
    fn a_run_whose_message_count_drifts_leaves_its_twin() {
        let toy = Toy { victims: Some(1..2), drift: Some(AtomicU64::new(0)), ..Toy::default() };
        referee(&toy, &[2], 1..2, |_, _, _, _| {});
    }

    #[test]
    fn a_second_kill_is_drawn_after_the_first_fired() {
        let mut rng = SplitMix64::new(7);
        let mut draw = || kill_after(&mut rng, 1, (HookKind::AfterSend, 5, 8)).occurrence;
        let mut draws: Vec<u64> = (0..64).map(|_| draw()).collect();
        draws.sort_unstable();
        draws.dedup();
        assert_eq!(draws, [6, 7, 8], "after the 5 the first kill saw, up to the 8 reached");
    }
}
