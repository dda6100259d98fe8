//! The paper's figures and every placed ring scenario as one table
//! (DESIGN.md §4).
//!
//! Figs. 6, 7, 8, 10, 11 and 13 are message-sequence charts of deaths
//! placed exactly; §III-C and §III-D add the termination and root-failure
//! scenarios, cascades and rings on a derived communicator among them.
//! Each is one [`Figure`]: a ring configuration, the communicator it runs
//! on, a placed fault plan and what every seed must show. [`run`] runs a
//! row over [`SEEDS`] under the scheduler: through [`referee`] (no
//! deadlock, every planned kill fires and nobody else fails, two runs
//! agree), then the seven ring oracles ([`crate::oracle`]) on each of its
//! rings, which must fire exactly on the seeds where a lap closed twice,
//! then the row's check; for a run the oracles may not bless, the
//! referee and then the ending every survivor must show; or, for an
//! expected hang, with a deadlock verdict required on every seed. Only
//! F8's ring has no duplicate control, so F8 is where `no-duplicate`
//! catches the paper's own Fig. 8 defect. Every ring run in this crate,
//! the engines', `sim_ring_modes`' and the wall-clock tests' included,
//! runs the one body [`ring`].
//! `tests/sim_figures.rs`, `all_experiments` and the `fault_scenarios`
//! example read this table.

use std::collections::HashSet;
use std::ops::Range;

use faultsim::scenario::{
    combine, kill_after_recv, kill_after_send, kill_before_recv_post, kill_behind_token,
    kill_in_validate,
};
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{Error, Process, RankOutcome, WORLD};
use ftring::{
    run_ring, DedupStrategy, RecvStrategy, RingConfig, RingStats, TerminationMode, T_D, T_N,
};

use crate::{referee, reports, Kills, Retention::Full, RingRun, SeedRunner, Workload};

/// The seeds every figure runs over.
pub const SEEDS: Range<u64> = 0..32;
/// Laps of every figure's ring.
const LAPS: u64 = 6;
/// World ranks in each half of [`On::Halves`].
const HALF: usize = 3;
/// Each rank's stats, `None` for one that failed.
pub type Ranks<'r> = [Option<&'r RingStats>];

/// One placed ring scenario: [`ring`] under `cfg` on `on` at `ranks`, with `plan`'s kills.
pub struct Figure {
    /// Its id: the figure or section.
    pub id: &'static str,
    /// What the paper claims.
    pub claim: &'static str,
    /// World size.
    pub ranks: usize,
    /// The ring's configuration.
    pub cfg: RingConfig,
    /// The placed kills.
    pub plan: FaultPlan,
    /// The communicator the ring runs on.
    pub on: On,
    /// How many times the ring runs, a barrier between each two.
    pub runs: usize,
    /// What every seed must show.
    pub expect: Expect,
}

/// The communicator a row's ring runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    /// The world.
    World,
    /// A duplicate of the world.
    Dup,
    /// World ranks `0..3` and `3..6`, one ring each.
    Halves,
}

impl On {
    /// How many world ranks each ring on this communicator spans in a world of `ranks`.
    fn span(self, ranks: usize) -> usize {
        if self == On::Halves { HALF } else { ranks }
    }
}

/// The one body of every ring run in this crate: `run_ring` under `cfg` on `on`, `runs` times
/// with a barrier between. The last run's stats; an error if the runs left a request live.
pub fn ring(p: &mut Process, cfg: &RingConfig, on: On, runs: usize) -> ftmpi::Result<RingStats> {
    let comm = match on {
        On::World => WORLD,
        On::Dup => p.comm_dup(WORLD)?,
        On::Halves => {
            let half = (p.world_rank() / HALF) as i64;
            p.comm_split(WORLD, Some(half), 0)?.expect("in a half")
        }
    };
    let live = p.live_requests();
    let mut stats = None;
    for run in 0..runs {
        if run > 0 {
            p.barrier(comm)?;
        }
        stats = Some(run_ring(p, comm, cfg)?);
    }
    if p.live_requests() != live {
        return Err(Error::InvalidState("run_ring left a request behind"));
    }
    Ok(stats.expect("the ring runs at least once"))
}

/// What every seed of a figure must show.
#[derive(Clone, Copy)]
pub enum Expect {
    /// A deadlock verdict, with the plan's victims failed and nobody else.
    Hang,
    /// The referee's and the oracles' verdicts, then this check of the
    /// planned run at `at`.
    Holds(fn(at: &str, &Ranks)),
    /// A run the oracles may not bless: the referee's verdict, then every
    /// rank the plan did not kill ends as the named ending says.
    Ends(&'static str, fn(&RankOutcome<RingStats>) -> bool),
}

/// What a figure's seeds showed, each count in seeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Seeds in which a survivor resent a token.
    pub resent: u64,
    /// Seeds in which a lap closed twice.
    pub doubled: u64,
    /// Seeds in which a survivor dropped a duplicate.
    pub dropped: u64,
    /// Scheduler steps over the planned runs.
    pub steps: u64,
}

impl Workload for Figure {
    type Report = RingStats;

    fn body(&self, p: &mut Process) -> ftmpi::Result<RingStats> {
        ring(p, &self.cfg, self.on, self.runs)
    }

    fn kills(&self, _seed: u64, _ranks: usize) -> Kills {
        Kills::Plan(self.plan.clone())
    }
}

/// The table, in the paper's order.
pub fn table() -> Vec<Figure> {
    let fig = |id, claim, ranks, cfg, plan, expect| {
        Figure { id, claim, ranks, cfg, plan, on: On::World, runs: 1, expect }
    };
    let paper = RingConfig::paper(LAPS);
    let failover = RingConfig::with_root_failover(LAPS);
    let fig6 = || kill_after_recv(2, 1, T_N, 2);
    let fig8 = || kill_behind_token(2, 0, T_N, 2);
    let root_mid_ring = || kill_after_recv(0, 4, T_N, 3);
    let root_at_first_send = |tag| {
        let first = Trigger::on(HookKind::BeforeSend).tag(tag).nth(1);
        FaultPlan::none().with(FaultRule::kill(0, first))
    };
    let none = FaultPlan::none;
    let term = |mode| paper.clone().termination(mode);
    let aborted = Expect::Ends("aborted", |o| matches!(o, RankOutcome::Aborted { code: -1 }));
    let refused =
        Expect::Ends("refused", |o| matches!(o, RankOutcome::Err(Error::InvalidState(_))));
    vec![
        fig("F6", "the naive receive hangs when the token dies with P2", 4,
            RingConfig::naive(LAPS), fig6(), Expect::Hang),
        fig("F6 control", "the naive receive is fine without failures", 4,
            RingConfig::naive(LAPS), none(), Expect::Holds(judged)),
        fig("F7", "P1 notices P2's failure and resends to P3", 4,
            paper.clone(), fig6(), Expect::Holds(fig7)),
        fig("F8", "without duplicate control a resent lap completes twice", 4,
            RingConfig::no_dedup(LAPS), fig8(), Expect::Holds(fig8_doubles)),
        fig("F10", "the iteration marker discards the resent duplicate", 4,
            paper.clone(), fig8(), Expect::Holds(fig10)),
        fig("F10b", "a separate resend tag also controls duplicates", 4,
            paper.clone().dedup(DedupStrategy::SeparateTag), fig8(), Expect::Holds(fig10)),
        fig("F11", "the root broadcast survives a death during termination", 5,
            paper.clone(), kill_before_recv_post(3, T_D, 1), Expect::Holds(judged)),
        fig("F11 root dies", "a root dying in the termination broadcast leaves the rest to abort",
            5, paper.clone(), root_at_first_send(T_D), aborted),
        fig("F13", "validate_all counts a death inside its consensus", 5,
            term(TerminationMode::ValidateAll), kill_in_validate(3, 1),
            Expect::Holds(counted::<1>)),
        fig("F13 mid-ring", "validate_all counts a death during the laps", 5,
            term(TerminationMode::ValidateAll), fig6(), Expect::Holds(counted_one_every_lap)),
        fig("S3D Fig. 11", "Fig. 11's design wedges when the root dies mid-ring", 5,
            paper.clone(), root_mid_ring(), Expect::Hang),
        fig("S3D failover", "rank 1 takes over and closes the last lap", 5,
            failover.clone(), root_mid_ring(), Expect::Holds(rank1_took_over)),
        fig("S3D first send", "the root dies before it originates; rank 1 originates every lap",
            4, failover.clone(), root_at_first_send(T_N),
            Expect::Holds(rank1_originated_every_lap)),
        fig("S3D in flight", "the root dies with lap 1 in flight: rank 1 adopts it", 4,
            failover.clone(), kill_after_send(0, 1, T_N, 2), Expect::Holds(rank1_became_root)),
        fig("S3D cascade", "rank 1 dies as it takes over from rank 0; rank 2 finishes", 5,
            failover.clone(),
            combine([kill_after_recv(0, 4, T_N, 2), kill_after_send(1, 2, T_N, 3)]),
            Expect::Holds(rank2_took_over)),
        fig("S3D root+1", "a root and a non-root death in one run", 6,
            failover.clone(),
            combine([kill_after_recv(0, 5, T_N, 2), kill_after_recv(3, 2, T_N, 3)]),
            Expect::Holds(counted::<2>)),
        fig("S3C count only", "the count-only termination runs without failures", 4,
            term(TerminationMode::CountOnly), none(), Expect::Holds(every_lap)),
        fig("S3C ibarrier", "the double ibarrier terminates under a failure", 5,
            term(TerminationMode::DoubleBarrier), fig6(), Expect::Holds(judged)),
        fig("S3C multiple", "the ring runs through multiple non-root failures", 6,
            paper.clone(),
            combine([fig6(), kill_after_recv(4, 3, T_N, 3), kill_after_send(5, 0, T_N, 4)]),
            Expect::Holds(judged)),
        fig("failure-free", "every rank adds once to every lap, nothing resent", 5,
            paper.clone(), none(), Expect::Holds(failure_free)),
        fig("failure-free 2", "two ranks, where the detector aliases the left neighbour", 2,
            paper.clone(), none(), Expect::Holds(failure_free)),
        Figure { runs: 2, ..fig("failure-free 2, twice",
            "a second ring on one two-rank communicator matches no stale receive", 2,
            failover.clone(), none(), Expect::Holds(root_closed_every_lap)) },
        fig("ibarrier failure-free", "the double ibarrier releases every request it posted", 4,
            term(TerminationMode::DoubleBarrier), none(), Expect::Holds(judged)),
        fig("failover failure-free", "with failover and no failure nobody resends or takes over",
            5, failover.clone(), none(), Expect::Holds(nobody_took_over)),
        fig("failover broadcast", "failover with the root broadcast is refused", 3,
            failover.clone().termination(TerminationMode::RootBroadcast), none(), refused),
        fig("failover count only", "failover with the count-only termination is refused", 3,
            failover.clone().termination(TerminationMode::CountOnly), none(), refused),
        fig("failover naive", "failover without the detector receive is refused", 3,
            RingConfig { recv: RecvStrategy::Naive, ..failover }, none(), refused),
        Figure { on: On::Dup, ..fig("dup failure-free", "the ring runs on a duplicated world", 4,
            paper.clone(), none(), Expect::Holds(every_lap)) },
        Figure { on: On::Dup, ..fig("dup F7", "Fig. 7's recovery on a duplicated world", 4,
            paper.clone(), fig6(), Expect::Holds(every_lap_resent)) },
        Figure { on: On::Halves, ..fig("halves failure-free",
            "two rings on the halves of a split run at once", 6,
            paper.clone(), none(), Expect::Holds(three_a_lap)) },
        Figure { on: On::Halves, ..fig("halves F7",
            "a death in one half of a split leaves the other untouched", 6,
            paper, kill_after_recv(4, 3, T_N, 2), Expect::Holds(one_half_resent)) },
    ]
}

/// The row `id` of [`table`].
pub fn figure(id: &str) -> Figure {
    table().into_iter().find(|f| f.id == id).unwrap_or_else(|| panic!("no figure {id}"))
}

/// Run `f` over [`SEEDS`] and count what its seeds showed; panics naming the figure and the
/// seed where one does not show `f.expect`.
pub fn run(f: &Figure) -> Counts {
    match f.expect {
        Expect::Hang => hangs(f),
        Expect::Holds(check) => holds(f, check),
        Expect::Ends(_, end) => ends(f, end),
    }
}

/// Every seed of `f` ends in a deadlock verdict with the plan's victims failed.
fn hangs(f: &Figure) -> Counts {
    let mut runner = SeedRunner::new(f.ranks);
    let mut steps = 0;
    for seed in SEEDS {
        let at = format!("{}: {} ranks, seed {seed}", f.id, f.ranks);
        let (report, sched) = runner.run_workload(f, &f.plan, seed, 100_000, Full, None);
        let deadlocked = sched.deadlock_at().is_some() && !sched.budget_exhausted();
        assert!(deadlocked, "{at}: no deadlock: {:?}", report.outcomes);
        let failed = (0..f.ranks).filter(|&rank| report.outcomes[rank].is_failed());
        assert!(failed.eq(f.plan.victims()), "{at}: failed {:?}", report.outcomes);
        steps += sched.steps();
    }
    Counts { steps, ..Counts::default() }
}

/// Every seed of `f` passes the referee and, ring by ring, the oracles, then `check`. Only a
/// ring without duplicate control may close a lap twice, and on exactly those seeds
/// `no-duplicate` fires.
fn holds(f: &Figure, check: fn(&str, &Ranks)) -> Counts {
    let mut counts = Counts::default();
    let (_, steps) = referee(f, &[f.ranks], SEEDS, |at, plan, report, _| {
        let at = format!("{}: {at}", f.id);
        let stats = reports(&at, report);
        let world = RingRun::of(&f.cfg, plan, report);
        let undeduped = f.cfg.dedup == DedupStrategy::None;
        let mut twice = false;
        let span = f.on.span(f.ranks);
        for members in (0..f.ranks).step_by(span).map(|start| start..start + span) {
            let killed = world.killed.iter().filter(|v| members.contains(v));
            let killed = killed.map(|v| v - members.start).collect();
            let outcomes = &report.outcomes[members.clone()];
            let violations = RingRun { outcomes, killed, ..world.clone() }.violations();
            let doubled = doubled(&stats[members]);
            let caught = violations.iter().any(|v| v.oracle == "no-duplicate");
            let exact = if doubled { undeduped && caught } else { violations.is_empty() };
            assert!(exact, "{at}: a lap closed twice: {doubled}; {violations:?}");
            twice |= doubled;
        }
        check(&at, &stats);
        counts.resent += (total(&stats, |r| r.resends) > 0) as u64;
        counts.doubled += twice as u64;
        counts.dropped += (total(&stats, |r| r.duplicates_dropped) > 0) as u64;
    });
    Counts { steps, ..counts }
}

/// Every seed of `f` passes the referee, and every rank the plan did not kill ends as `end`.
fn ends(f: &Figure, end: fn(&RankOutcome<RingStats>) -> bool) -> Counts {
    let victims = f.plan.victims();
    let (_, steps) = referee(f, &[f.ranks], SEEDS, |at, _, report, _| {
        for (rank, outcome) in report.outcomes.iter().enumerate() {
            let ended = victims.contains(&rank) || end(outcome);
            assert!(ended, "{}: {at}: rank {rank} ended as {outcome:?}", f.id);
        }
    });
    Counts { steps, ..Counts::default() }
}

/// The survivors' totals of `field`.
fn total(ranks: &Ranks, field: fn(&RingStats) -> u64) -> u64 {
    ranks.iter().flatten().map(|r| field(r)).sum()
}

/// Whether the survivors closed some lap twice.
fn doubled(ranks: &Ranks) -> bool {
    let mut closed = HashSet::new();
    ranks.iter().flatten().flat_map(|r| &r.closures).any(|&(lap, _)| !closed.insert(lap))
}

/// Nothing beyond the oracles' verdict.
fn judged(_: &str, _: &Ranks) {}

fn fig7(at: &str, ranks: &Ranks) {
    assert!(total(ranks, |r| r.resends) >= 1, "{at}: P1 did not resend");
    assert!(total(ranks, |r| r.detector_fires) >= 1, "{at}: P1's detector did not fire");
    let closures = &ranks[0].expect("the root survives").closures;
    let value = |lap| closures.iter().find(|c| c.0 == lap).map(|c| c.1);
    assert_eq!((value(0), value(LAPS - 1)), (Some(4), Some(3)), "{at}: ranks counted");
}

/// Under the scheduler `waitany` draws among ready requests, so P1 may take lap 2's token
/// before the failure notice and forward it past the dead P2: then nothing is resent, and
/// the oracles saw a green run.
fn fig8_doubles(at: &str, ranks: &Ranks) {
    if total(ranks, |r| r.resends) > 0 {
        assert!(doubled(ranks), "{at}: no lap closed twice");
        let forwarded = total(ranks, |r| r.duplicate_forwards) >= 1;
        assert!(forwarded, "{at}: P3 did not forward the resend");
    }
}

fn fig10(at: &str, ranks: &Ranks) {
    let resent = total(ranks, |r| r.resends) > 0;
    assert!(!resent || total(ranks, |r| r.duplicates_dropped) >= 1, "{at}: nothing dropped");
}

/// Every survivor's terminating `validate_all` counted `FAILED` failed ranks.
fn counted<const FAILED: usize>(at: &str, ranks: &Ranks) {
    let agreed = ranks.iter().flatten().all(|r| r.validate_failed == Some(FAILED));
    assert!(agreed, "{at}: a survivor's validate_all did not count {FAILED} failed");
}

/// The survivors closed [`LAPS`] laps between them.
fn every_lap(at: &str, ranks: &Ranks) {
    assert_eq!(total(ranks, |r| r.closures.len() as u64), LAPS, "{at}: laps closed");
}

fn counted_one_every_lap(at: &str, ranks: &Ranks) {
    every_lap(at, ranks);
    counted::<1>(at, ranks);
}

fn every_lap_resent(at: &str, ranks: &Ranks) {
    every_lap(at, ranks);
    assert!(total(ranks, |r| r.resends) >= 1, "{at}: nobody resent");
}

fn rank1_took_over(at: &str, ranks: &Ranks) {
    let new_root = ranks[1].expect("rank 1 survives");
    assert!(new_root.became_root && new_root.originated >= 1, "{at}: {new_root:?}");
    assert_eq!(new_root.closures.last().map(|c| c.0), Some(LAPS - 1), "{at}");
}

fn rank1_originated_every_lap(at: &str, ranks: &Ranks) {
    assert_eq!(ranks[1].expect("rank 1 survives").originated, LAPS, "{at}");
    every_lap(at, ranks);
}

fn rank1_became_root(at: &str, ranks: &Ranks) {
    assert!(ranks[1].expect("rank 1 survives").became_root, "{at}");
}

fn rank2_took_over(at: &str, ranks: &Ranks) {
    assert!(ranks[2].expect("rank 2 survives").became_root, "{at}");
    counted::<2>(at, ranks);
}

fn nobody_took_over(at: &str, ranks: &Ranks) {
    every_lap(at, ranks);
    for r in ranks.iter().flatten() {
        assert!(r.resends == 0 && !r.became_root, "{at}: {r:?}");
    }
}

/// On a two-rank communicator right == left, so a detector receive left posted by the first
/// run would match the second run's first token.
fn root_closed_every_lap(at: &str, ranks: &Ranks) {
    let closures: Vec<_> = ranks.iter().map(|r| r.map(|r| r.closures.len() as u64)).collect();
    assert_eq!(closures, [Some(LAPS), Some(0)], "{at}");
}

/// Each half's root, world rank 0 and 3, closed every lap with the half's three ranks.
fn three_a_lap(at: &str, ranks: &Ranks) {
    for root in [0, HALF] {
        let closures = &ranks[root].expect("the roots survive").closures;
        assert_eq!(closures.len() as u64, LAPS, "{at}: root {root}");
        let whole = closures.iter().all(|&(_, v)| v == HALF as i64);
        assert!(whole, "{at}: root {root}: {closures:?}");
    }
}

/// Rank 4 dies: the second half runs through, the first never notices.
fn one_half_resent(at: &str, ranks: &Ranks) {
    let (first, second) = ranks.split_at(HALF);
    for r in first.iter().flatten() {
        assert!(r.resends == 0 && r.detector_fires == 0, "{at}: the first half saw {r:?}");
    }
    every_lap(at, first);
    every_lap_resent(at, second);
}

fn failure_free(at: &str, ranks: &Ranks) {
    let mut laps = ranks.iter().flatten().flat_map(|r| &r.closures);
    assert!(laps.all(|&(_, v)| v == ranks.len() as i64), "{at}: a lap missed a rank");
    assert_eq!(total(ranks, |r| r.resends + r.detector_fires), 0, "{at}: resent");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "F7: 4 ranks, seed 0: no deadlock")]
    fn a_completing_figure_declared_as_a_hang_fails() {
        run(&Figure { expect: Expect::Hang, ..figure("F7") });
    }

    #[test]
    #[should_panic(expected = "failover naive: 3 ranks, seed 0: rank 0 ended as Err")]
    fn a_refused_run_declared_as_an_abort_fails() {
        run(&Figure { expect: figure("F11 root dies").expect, ..figure("failover naive") });
    }

    #[test]
    #[should_panic(expected = "F6 control: 4 ranks, seed 0: nothing resent")]
    fn a_check_that_cannot_hold_fails() {
        fn resent(at: &str, ranks: &Ranks) {
            assert!(total(ranks, |r| r.resends) > 0, "{at}: nothing resent");
        }
        run(&Figure { expect: Expect::Holds(resent), ..figure("F6 control") });
    }
}
