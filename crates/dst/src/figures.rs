//! The paper's behavioural figures as one table (DESIGN.md §4).
//!
//! Figs. 6, 7, 8 and 10 are message-sequence charts of deaths placed
//! exactly; §III-C and §III-D add the termination and root-failure
//! scenarios. Each is one [`Figure`]: a ring configuration, a placed
//! fault plan and what every seed must show. [`run`] runs a figure over
//! [`SEEDS`] under the scheduler: through [`referee`] (no deadlock, every
//! planned kill fires and nobody else fails, two runs agree), then the
//! figure's check; or, for an expected hang, with a deadlock verdict
//! required on every seed. `tests/sim_figures.rs`, `all_experiments` and
//! the `fault_scenarios` example read this table.

use std::collections::HashSet;
use std::ops::Range;

use faultsim::scenario::{
    combine, kill_after_recv, kill_after_send, kill_before_recv_post, kill_behind_token,
    kill_in_validate,
};
use faultsim::FaultPlan;
use ftmpi::{Error, Process, WORLD};
use ftring::{run_ring, DedupStrategy, RingConfig, RingStats, TerminationMode, T_D, T_N};

use crate::{referee, reports, Kills, Retention::Full, SeedRunner, Workload};

/// The seeds every figure runs over.
pub const SEEDS: Range<u64> = 0..32;
/// Laps of every figure's ring.
const LAPS: u64 = 6;
/// Each rank's stats, `None` for one that failed.
pub type Ranks<'r> = [Option<&'r RingStats>];

/// One of the paper's figures: `run_ring` under `cfg` at `ranks`, with `plan`'s kills.
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
    /// What every seed must show.
    pub expect: Expect,
}

/// What every seed of a figure must show.
#[derive(Clone, Copy)]
pub enum Expect {
    /// A deadlock verdict, with the plan's victims failed and nobody else.
    Hang,
    /// The referee's verdict, then this check of the planned run at `at`.
    Holds(fn(at: &str, &Ranks)),
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

    /// The ring's stats; an error if it left a request live.
    fn body(&self, p: &mut Process) -> ftmpi::Result<RingStats> {
        let live = p.live_requests();
        let stats = run_ring(p, WORLD, &self.cfg)?;
        if p.live_requests() != live {
            return Err(Error::InvalidState("run_ring left a request behind"));
        }
        Ok(stats)
    }

    fn kills(&self, _seed: u64, _ranks: usize) -> Kills {
        Kills::Plan(self.plan.clone())
    }
}

/// The table, in the paper's order.
pub fn table() -> Vec<Figure> {
    let fig = |id, claim, ranks, cfg, plan, expect| Figure { id, claim, ranks, cfg, plan, expect };
    let paper = RingConfig::paper(LAPS);
    let fig6 = || kill_after_recv(2, 1, T_N, 2);
    let fig8 = || kill_behind_token(2, 0, T_N, 2);
    let root_mid_ring = || kill_after_recv(0, 4, T_N, 3);
    let none = FaultPlan::none;
    let term = |mode| paper.clone().termination(mode);
    vec![
        fig("F6", "the naive receive hangs when the token dies with P2", 4,
            RingConfig::naive(LAPS), fig6(), Expect::Hang),
        fig("F6 control", "the naive receive is fine without failures", 4,
            RingConfig::naive(LAPS), none(), Expect::Holds(every_lap_once)),
        fig("F7", "P1 notices P2's failure and resends to P3", 4,
            paper.clone(), fig6(), Expect::Holds(fig7)),
        fig("F8", "without duplicate control a resent lap completes twice", 4,
            RingConfig::no_dedup(LAPS), fig8(), Expect::Holds(fig8_doubles)),
        fig("F10", "the iteration marker discards the resent duplicate", 4,
            paper.clone(), fig8(), Expect::Holds(fig10)),
        fig("F10b", "a separate resend tag also controls duplicates", 4,
            paper.clone().dedup(DedupStrategy::SeparateTag), fig8(), Expect::Holds(fig10)),
        fig("F11", "the root broadcast survives a death during termination", 5,
            paper.clone(), kill_before_recv_post(3, T_D, 1), Expect::Holds(every_lap_once)),
        fig("F13", "validate_all counts a death inside its consensus", 5,
            term(TerminationMode::ValidateAll), kill_in_validate(3, 1), Expect::Holds(counted_one)),
        fig("S3D Fig. 11", "Fig. 11's design wedges when the root dies mid-ring", 5,
            paper.clone(), root_mid_ring(), Expect::Hang),
        fig("S3D failover", "rank 1 takes over and closes the last lap", 5,
            RingConfig::with_root_failover(LAPS), root_mid_ring(), Expect::Holds(rank1_took_over)),
        fig("S3C ibarrier", "the double ibarrier terminates under a failure", 5,
            term(TerminationMode::DoubleBarrier), fig6(), Expect::Holds(every_lap_once)),
        fig("S3C multiple", "the ring runs through multiple non-root failures", 6,
            paper.clone(),
            combine([fig6(), kill_after_recv(4, 3, T_N, 3), kill_after_send(5, 0, T_N, 4)]),
            Expect::Holds(every_lap_once)),
        fig("failure-free", "every rank adds once to every lap, nothing resent", 5,
            paper.clone(), none(), Expect::Holds(failure_free)),
        fig("failure-free 2", "two ranks, where the detector aliases the left neighbour", 2,
            paper, none(), Expect::Holds(failure_free)),
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
    }
}

/// Every seed of `f` ends in a deadlock verdict with the plan's victims failed.
fn hangs(f: &Figure) -> Counts {
    let mut runner = SeedRunner::new(f.ranks);
    let mut steps = 0;
    for seed in SEEDS {
        let at = format!("{}: {} ranks, seed {seed}", f.id, f.ranks);
        let (report, sched) = runner.run_workload(f, f.plan.clone(), seed, 100_000, Full, None);
        let deadlocked = sched.deadlock_at().is_some() && !sched.budget_exhausted();
        assert!(deadlocked, "{at}: no deadlock: {:?}", report.outcomes);
        let failed = (0..f.ranks).filter(|&rank| report.outcomes[rank].is_failed());
        assert!(failed.eq(f.plan.victims()), "{at}: failed {:?}", report.outcomes);
        steps += sched.steps();
    }
    Counts { steps, ..Counts::default() }
}

/// Every seed of `f` passes the referee and then `check`.
fn holds(f: &Figure, check: fn(&str, &Ranks)) -> Counts {
    let mut counts = Counts::default();
    let (_, steps) = referee(f, &[f.ranks], SEEDS, |at, _, report, _| {
        let at = format!("{}: {at}", f.id);
        let stats = reports(&at, report);
        check(&at, &stats);
        counts.resent += (total(&stats, |r| r.resends) > 0) as u64;
        counts.doubled += doubled(&stats) as u64;
        counts.dropped += (total(&stats, |r| r.duplicates_dropped) > 0) as u64;
    });
    Counts { steps, ..counts }
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

/// Every survivor terminated and handled every lap once, and no lap closed twice.
fn sound(at: &str, ranks: &Ranks) {
    for (rank, r) in ranks.iter().enumerate() {
        let Some(r) = r else { continue };
        assert!(r.terminated, "{at}: rank {rank} did not terminate");
        let handled = r.originated + r.forwarded;
        assert_eq!(handled, LAPS, "{at}: rank {rank} handled {handled} laps");
    }
    assert!(!doubled(ranks), "{at}: a lap closed twice");
}

/// [`sound`], and every lap closed.
fn every_lap_once(at: &str, ranks: &Ranks) {
    sound(at, ranks);
    let laps = ranks.iter().flatten().flat_map(|r| &r.closures);
    let mut laps: Vec<u64> = laps.map(|&(lap, _)| lap).collect();
    laps.sort_unstable();
    assert_eq!(laps, Vec::from_iter(0..LAPS), "{at}: laps closed");
}

fn fig7(at: &str, ranks: &Ranks) {
    every_lap_once(at, ranks);
    assert!(total(ranks, |r| r.resends) >= 1, "{at}: P1 did not resend");
    assert!(total(ranks, |r| r.detector_fires) >= 1, "{at}: P1's detector did not fire");
    let closures = &ranks[0].expect("the root survives").closures;
    let value = |lap| closures.iter().find(|c| c.0 == lap).map(|c| c.1);
    assert_eq!((value(0), value(LAPS - 1)), (Some(4), Some(3)), "{at}: ranks counted");
}

/// Under the scheduler `waitany` draws among ready requests, so P1 may take lap 2's token
/// before the failure notice and forward it past the dead P2: then nothing is resent.
fn fig8_doubles(at: &str, ranks: &Ranks) {
    if total(ranks, |r| r.resends) == 0 {
        return every_lap_once(at, ranks);
    }
    assert!(doubled(ranks), "{at}: no lap closed twice");
    assert!(total(ranks, |r| r.duplicate_forwards) >= 1, "{at}: P3 did not forward the resend");
}

fn fig10(at: &str, ranks: &Ranks) {
    every_lap_once(at, ranks);
    let resent = total(ranks, |r| r.resends) > 0;
    assert!(!resent || total(ranks, |r| r.duplicates_dropped) >= 1, "{at}: nothing dropped");
    assert_eq!(total(ranks, |r| r.duplicate_forwards), 0, "{at}: a duplicate went on");
}

fn counted_one(at: &str, ranks: &Ranks) {
    every_lap_once(at, ranks);
    let agreed = ranks.iter().flatten().all(|r| r.validate_failed == Some(1));
    assert!(agreed, "{at}: a survivor's validate_all did not count 1 failed");
}

fn rank1_took_over(at: &str, ranks: &Ranks) {
    sound(at, ranks);
    let new_root = ranks[1].expect("rank 1 survives");
    assert!(new_root.became_root && new_root.originated >= 1, "{at}: {new_root:?}");
    assert_eq!(new_root.closures.last().map(|c| c.0), Some(LAPS - 1), "{at}");
}

fn failure_free(at: &str, ranks: &Ranks) {
    every_lap_once(at, ranks);
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
    #[should_panic(expected = "F6 control: 4 ranks, seed 0: nothing resent")]
    fn a_check_that_cannot_hold_fails() {
        fn resent(at: &str, ranks: &Ranks) {
            assert!(total(ranks, |r| r.resends) > 0, "{at}: nothing resent");
        }
        run(&Figure { expect: Expect::Holds(resent), ..figure("F6 control") });
    }
}
