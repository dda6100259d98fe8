//! The ring's hand-placed failure scenarios under the deterministic
//! scheduler.
//!
//! `explore`, `fuzz` and `sim_ring_modes` draw their kills. The paper's
//! §III-C and §III-D scenarios place one exactly: a root that dies in
//! the termination broadcast, before it originates or with a token in
//! flight, cascading roots, a ring on a derived communicator. Each is
//! one [`Scenario`]: a ring configuration, a fault plan, and the
//! communicator the ring runs on (the world, a dup or one half of a
//! split). `dst::referee` runs it over seeds `0..32`:
//! no schedule deadlocks, every planned kill fires and nobody else fails,
//! two runs agree. Every ring then passes the seven ring oracles
//! (`dst::RingRun`; each half of a split is a ring of its own), and
//! every survivor released every request it posted; each test then
//! checks what its scenario promises. The paper's figures, Fig. 11's
//! and Fig. 13's placed deaths and §III-D's mid-ring root death among
//! them, are rows of `dst::figures` (`sim_figures.rs`).

use std::ops::Range;

use dst::{referee, reports, Kills, RingRun, Workload};
use faultsim::scenario::{combine, kill_after_recv, kill_after_send};
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{Error, Process, RankOutcome, WORLD};
use ftring::{run_ring, RecvStrategy, RingConfig, RingStats, TerminationMode, T_D, T_N};

const SEEDS: Range<u64> = 0..32;
const MAX_ITER: u64 = 5;

/// The communicator a scenario's ring runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum On {
    World,
    /// A duplicate of the world.
    Dup,
    /// World ranks `0..3` and `3..6`, one ring each.
    Halves,
}

/// `run_ring` under `cfg` on `on`, `runs` times with a barrier between,
/// with `plan`'s kills.
struct Scenario {
    cfg: RingConfig,
    plan: FaultPlan,
    on: On,
    runs: usize,
}

impl Scenario {
    /// One run on the world.
    fn new(cfg: RingConfig, plan: FaultPlan) -> Self {
        Scenario { cfg, plan, on: On::World, runs: 1 }
    }
}

impl Workload for Scenario {
    type Report = RingStats;

    /// The last run's stats; an error if the runs left a request live.
    fn body(&self, p: &mut Process) -> ftmpi::Result<RingStats> {
        let comm = match self.on {
            On::World => WORLD,
            On::Dup => p.comm_dup(WORLD)?,
            On::Halves => {
                let half = (p.world_rank() / 3) as i64;
                p.comm_split(WORLD, Some(half), 0)?.expect("in a half")
            }
        };
        let live = p.live_requests();
        let mut stats = run_ring(p, comm, &self.cfg)?;
        for _ in 1..self.runs {
            p.barrier(comm)?;
            stats = run_ring(p, comm, &self.cfg)?;
        }
        if p.live_requests() != live {
            return Err(Error::InvalidState("run_ring left a request behind"));
        }
        Ok(stats)
    }

    fn kills(&self, _seed: u64, _ranks: usize) -> Kills {
        Kills::Plan(self.plan.clone())
    }
}

/// Each rank's stats, `None` for one that failed.
type Ranks<'r> = [Option<&'r RingStats>];

/// Referee `s` at `ranks` over [`SEEDS`] and judge each of its rings by the oracles. Then
/// `check` sees the planned run.
fn sweep(s: &Scenario, ranks: usize, mut check: impl FnMut(&str, &Ranks)) {
    referee(s, &[ranks], SEEDS, |at, plan, report, _| {
        let world = RingRun::of(&s.cfg, plan, report);
        let rings: Vec<RingRun> = match s.on {
            On::Halves => [0..3, 3..6]
                .map(|half| {
                    let killed = world.killed.iter().filter(|&&v| half.contains(&v));
                    let killed = killed.map(|v| v - half.start).collect();
                    RingRun { outcomes: &report.outcomes[half], killed, ..world.clone() }
                })
                .into(),
            _ => vec![world],
        };
        for ring in rings {
            let violations = ring.violations();
            assert!(violations.is_empty(), "{at}: {violations:?}");
        }
        check(at, &reports(at, report));
    });
}

/// Laps closed across the survivors.
fn laps(ranks: &Ranks) -> usize {
    ranks.iter().flatten().map(|r| r.closures.len()).sum()
}

/// Asserts every survivor's terminating `validate_all` agreed on `failed`.
fn agreed(at: &str, ranks: &Ranks, failed: usize) {
    for (rank, r) in ranks.iter().enumerate() {
        let Some(r) = r else { continue };
        assert_eq!(r.validate_failed, Some(failed), "{at}: rank {rank}");
    }
}

/// Fig. 11's stated limitation: a root that dies as it starts the
/// termination broadcast leaves every other rank to `MPI_Abort`.
#[test]
fn root_broadcast_aborts_on_root_failure_in_termination() {
    let rule = FaultRule::kill(0, Trigger::on(HookKind::BeforeSend).tag(T_D).nth(1));
    let s = Scenario::new(RingConfig::paper(MAX_ITER), FaultPlan::none().with(rule));
    referee(&s, &[5], SEEDS, |at, _, report, _| {
        for (rank, outcome) in report.outcomes.iter().enumerate().skip(1) {
            assert!(matches!(outcome, RankOutcome::Aborted { code: -1 }), "{at}: rank {rank}");
        }
    });
}

/// Fig. 13 with a mid-run failure: the terminating consensus counts it.
#[test]
fn validate_all_reports_the_agreed_failure_count() {
    let cfg = RingConfig::paper(MAX_ITER).termination(TerminationMode::ValidateAll);
    let s = Scenario::new(cfg, kill_after_recv(2, 1, T_N, 2));
    sweep(&s, 5, |at, ranks| {
        assert_eq!(laps(ranks), MAX_ITER as usize, "{at}");
        agreed(at, ranks, 1);
    });
}

/// CountOnly termination, the paper's starting point, failure-free.
#[test]
fn count_only_termination_failure_free() {
    let cfg = RingConfig::paper(MAX_ITER).termination(TerminationMode::CountOnly);
    sweep(&Scenario::new(cfg, FaultPlan::none()), 4, |at, ranks| {
        assert_eq!(laps(ranks), MAX_ITER as usize, "{at}")
    });
}

/// `run_ring` releases every receive it posted, the failure detector
/// included, under every termination mode (the body checks).
#[test]
fn run_ring_leaves_no_request_behind() {
    for mode in [
        TerminationMode::CountOnly,
        TerminationMode::RootBroadcast,
        TerminationMode::ValidateAll,
        TerminationMode::DoubleBarrier,
    ] {
        let cfg = RingConfig::paper(MAX_ITER).termination(mode);
        sweep(&Scenario::new(cfg, FaultPlan::none()), 4, |_, _| {});
    }
}

/// On a two-rank communicator right == left, so a detector receive left
/// posted by one run would match the next run's first token.
#[test]
fn two_rank_ring_runs_twice_on_one_communicator() {
    let s = Scenario::new(RingConfig::with_root_failover(3), FaultPlan::none());
    let s = Scenario { runs: 2, ..s };
    sweep(&s, 2, |at, ranks| {
        let closures = ranks.iter().map(|r| r.map(|r| r.closures.len()));
        assert_eq!(closures.collect::<Vec<_>>(), [Some(3), Some(0)], "{at}");
    });
}

/// The root dies at its first ring send: the new root originates every
/// lap itself.
#[test]
fn root_dies_before_first_origination() {
    let rule = FaultRule::kill(0, Trigger::on(HookKind::BeforeSend).tag(T_N).nth(1));
    let s = Scenario::new(RingConfig::with_root_failover(MAX_ITER), FaultPlan::none().with(rule));
    sweep(&s, 4, |at, ranks| {
        assert_eq!(ranks[1].unwrap().originated, MAX_ITER, "{at}");
        assert_eq!(laps(ranks), MAX_ITER as usize, "{at}");
    });
}

/// The root dies right after originating lap 1: the new root adopts the
/// lap in flight.
#[test]
fn root_dies_with_token_in_flight() {
    let s = Scenario::new(RingConfig::with_root_failover(MAX_ITER), kill_after_send(0, 1, T_N, 2));
    sweep(&s, 4, |at, ranks| assert!(ranks[1].unwrap().became_root, "{at}"));
}

/// Rank 0 dies after the closure of lap 1; rank 1 takes over and dies
/// as soon as it has originated lap 2, its third send; rank 2 finishes.
#[test]
fn cascading_root_failures() {
    let plan = combine([kill_after_recv(0, 4, T_N, 2), kill_after_send(1, 2, T_N, 3)]);
    let s = Scenario::new(RingConfig::with_root_failover(MAX_ITER), plan);
    sweep(&s, 5, |at, ranks| {
        assert!(ranks[2].unwrap().became_root, "{at}");
        agreed(at, ranks, 2);
    });
}

/// A root and a non-root death in one run.
#[test]
fn root_and_non_root_die_in_one_run() {
    let plan = combine([kill_after_recv(0, 5, T_N, 2), kill_after_recv(3, 2, T_N, 3)]);
    let s = Scenario::new(RingConfig::with_root_failover(MAX_ITER), plan);
    sweep(&s, 6, |at, ranks| agreed(at, ranks, 2));
}

/// Failover configured, nothing fails: nothing is resent, nobody takes
/// over.
#[test]
fn failover_config_failure_free() {
    let s = Scenario::new(RingConfig::with_root_failover(MAX_ITER), FaultPlan::none());
    sweep(&s, 5, |at, ranks| {
        assert_eq!(laps(ranks), MAX_ITER as usize, "{at}");
        for r in ranks.iter().flatten() {
            assert!(r.resends == 0 && !r.became_root, "{at}: {r:?}");
        }
    });
}

/// Root failover without a root-independent termination or the
/// detector receive is an error every rank gets back, not a panic.
#[test]
fn inconsistent_failover_config_is_an_error() {
    let failover = RingConfig::with_root_failover(MAX_ITER);
    for cfg in [
        failover.clone().termination(TerminationMode::RootBroadcast),
        failover.clone().termination(TerminationMode::CountOnly),
        RingConfig { recv: RecvStrategy::Naive, ..failover },
    ] {
        referee(&Scenario::new(cfg, FaultPlan::none()), &[3], SEEDS, |at, _, report, _| {
            for o in &report.outcomes {
                assert!(matches!(o, RankOutcome::Err(Error::InvalidState(_))), "{at}: {o:?}");
            }
        });
    }
}

#[test]
fn ring_on_a_duplicated_communicator() {
    let s = Scenario::new(RingConfig::paper(MAX_ITER), FaultPlan::none());
    let s = Scenario { on: On::Dup, ..s };
    sweep(&s, 4, |at, ranks| assert_eq!(laps(ranks), MAX_ITER as usize, "{at}"));
}

#[test]
fn ring_on_a_duplicated_communicator_with_failure() {
    let plan = kill_after_recv(2, 1, T_N, 2);
    let s = Scenario { on: On::Dup, ..Scenario::new(RingConfig::paper(MAX_ITER), plan) };
    sweep(&s, 4, |at, ranks| {
        assert_eq!(laps(ranks), MAX_ITER as usize, "{at}");
        assert!(ranks.iter().flatten().any(|r| r.resends >= 1), "{at}: nobody resent");
    });
}

/// Ranks 0–2 and 3–5 run one ring each at once, each rooted at its
/// lowest world rank, three participants a lap.
#[test]
fn two_rings_on_split_halves_run_concurrently() {
    let s = Scenario::new(RingConfig::paper(MAX_ITER), FaultPlan::none());
    let s = Scenario { on: On::Halves, ..s };
    sweep(&s, 6, |at, ranks| {
        for root in [0, 3] {
            let closures = &ranks[root].unwrap().closures;
            assert_eq!(closures.len(), MAX_ITER as usize, "{at}: root {root}");
            assert!(closures.iter().all(|&(_, v)| v == 3), "{at}: root {root}: {closures:?}");
        }
    });
}

/// Rank 4 dies mid-ring: the second half runs through, the first never
/// notices.
#[test]
fn split_ring_with_failure_in_one_half_leaves_other_untouched() {
    let plan = kill_after_recv(4, 3, T_N, 2);
    let s = Scenario { on: On::Halves, ..Scenario::new(RingConfig::paper(MAX_ITER), plan) };
    sweep(&s, 6, |at, ranks| {
        for r in &ranks[..3] {
            let r = r.unwrap();
            assert!(r.resends == 0 && r.detector_fires == 0, "{at}: the first half saw {r:?}");
        }
        assert_eq!(laps(&ranks[..3]), MAX_ITER as usize, "{at}");
        assert_eq!(laps(&ranks[3..]), MAX_ITER as usize, "{at}");
        assert!(ranks[3..].iter().flatten().any(|r| r.resends >= 1), "{at}: nobody resent");
    });
}
