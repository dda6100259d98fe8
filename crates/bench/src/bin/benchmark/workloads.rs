//! The seven workloads. Each is a closed loop driven by one thread:
//! `build` constructs the state (pools, runners), `warm_up` runs a
//! fixed number of operations, and `batch` is what the window times.
//!
//! `--seed S` reaches exactly two places: the explore seed offset
//! (`(S + i) mod 10000`) and the fuzz campaign seeds (`S + batch`).
//! The programs under test only ever see the schedules and fault
//! plans generated from it. Ring and fan-in inputs are fixed.

use dst::fuzz::FuzzFailure;
use dst::{check_all, fuzz, FuzzCfg, Retention, ScenarioCfg, Schedule, SeedRunner};
use faultsim::scenario::{combine, kill_after_recv};
use faultsim::FaultPlan;
use ftmpi::{Process, RunReport, Src, UniverseConfig, UniversePool, WORLD};
use ftring::{run_ring, summarize, RingConfig, RingStats, TerminationMode, T_N};

use crate::calib::{BYTES_BOUND, HANDOFF_BOUND};
use crate::spans::Tracer;

/// Name and one-line reason of a workload (mirrored in BENCHMARK.json),
/// how strongly its time follows the calibration probes, and how to
/// build its state for `--seed S`.
pub struct Def {
    pub name: &'static str,
    pub why: &'static str,
    pub sensitivity: f64,
    pub build: fn(u64) -> Box<dyn Workload>,
}

pub const WORKLOADS: [Def; 7] = [
    Def {
        name: "explore_pair_4",
        why: "small schedules (~113 steps): per-schedule reset, dispatch and oracle cost has its largest share",
        sensitivity: HANDOFF_BOUND,
        build: |seed| Box::new(Explore::new(4, seed)),
    },
    Def {
        name: "explore_pair_8",
        why: "long schedules (~440 steps): >90% is in-step rank handoff, the simulator-core gate workload",
        sensitivity: HANDOFF_BOUND,
        build: |seed| Box::new(Explore::new(8, seed)),
    },
    Def {
        name: "fuzz_mixed_4",
        why: "same simulate layer driven by dst::fuzz: all seven kill shapes, mutators, coverage union, corpus",
        sensitivity: HANDOFF_BOUND,
        build: |seed| Box::new(Fuzz { seed, cfg: scenario(4, 3), pinned: None }),
    },
    Def {
        name: "ring_ft_4",
        why: "wall-clock FT ring at matching depth 1: hop latency (deliver, wake, wait); the DST scheduler is idle",
        sensitivity: HANDOFF_BOUND,
        build: |_| Box::new(Ring::new(4, RingConfig::paper(500), FaultPlan::none(), 500, 1)),
    },
    Def {
        name: "ring_pad16k_4",
        why: "same ring with 16 KiB tokens: bytes-bound, the datatype and payload path is ~97% of a lap",
        sensitivity: BYTES_BOUND,
        build: |_| Box::new(Ring::new(4, RingConfig::paper(20).pad(16384), FaultPlan::none(), 20, 1)),
    },
    Def {
        name: "ring_recovery_8",
        why: "three mid-run kills at 8 ranks: detector fire, resend, neighbour walk, validate_all, one pool reset per op",
        sensitivity: HANDOFF_BOUND,
        build: |_| Box::new(Ring::new(RECOVERY_RANKS, recovery_config(), recovery_plan(), 1, 20)),
    },
    Def {
        name: "fanin_match_4",
        why: "768 receives posted in reverse tag order: the matching engine at depth, which no ring workload touches",
        sensitivity: HANDOFF_BOUND,
        build: |_| Box::new(FanIn { pool: UniversePool::new(FANIN_RANKS) }),
    },
];

/// Outcome of one batch (or of the warm-up).
#[derive(Default)]
pub struct Batch {
    pub ops: u64,
    pub failed: u64,
    /// Heap allocations reported through `RunStats.alloc`.
    pub allocs: u64,
    /// Oracle reports that are known and counted apart from `failed`
    /// (fuzz campaigns only, see `is_lone_survivor_abort`).
    pub known_violations: u64,
    /// First failure of the batch, for the error message.
    pub failure: Option<String>,
}

impl Batch {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failure.get_or_insert(why);
    }

    fn absorb(&mut self, other: Batch) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.allocs += other.allocs;
        self.known_violations += other.known_violations;
        if self.failure.is_none() {
            self.failure = other.failure;
        }
    }
}

pub trait Workload {
    /// A fixed number of untimed operations on fresh state.
    fn warm_up(&mut self, tr: &mut Tracer) -> Batch;
    /// The `index`-th timed batch of the window.
    fn batch(&mut self, index: u64, tr: &mut Tracer) -> Batch;
}

/// The pair-shape scenario every explore-style measurement uses.
pub fn scenario(ranks: usize, max_iter: u64) -> ScenarioCfg {
    ScenarioCfg::builder()
        .ranks(ranks)
        .max_iter(max_iter)
        .build()
        .expect("valid scenario")
}

// ---------------------------------------------------------------- explore

/// Seeds wrap inside the window the repository's sweeps pin green.
pub const SEED_SPACE: u64 = 10_000;
pub const EXPLORE_BATCH: u64 = 20;
const EXPLORE_WARM_UP: u64 = 100;

/// op = one schedule: derive, run quiet on the pooled runner, check
/// every oracle, recycle the observation.
pub struct Explore {
    runner: SeedRunner,
    cfg: ScenarioCfg,
    scratch: Schedule,
    seed: u64,
    /// Schedules run so far (warm-up included): the `i` of the seed rule.
    next: u64,
}

/// What [`Explore::op`] saw, for callers that need more than pass/fail.
pub struct ExploreOp {
    pub failure: Option<String>,
    pub allocs: u64,
}

impl Explore {
    pub fn new(ranks: usize, seed: u64) -> Self {
        Explore {
            runner: SeedRunner::new(ranks),
            cfg: scenario(ranks, 3),
            scratch: Schedule {
                seed: 0,
                kills: Vec::new(),
                delay_mask: None,
            },
            seed,
            next: 0,
        }
    }

    /// One operation. `inspect` sees the checked observation before it
    /// is recycled (layer measurements read counters from it).
    pub fn op(&mut self, tr: &mut Tracer, inspect: &mut dyn FnMut(&dst::Observation)) -> ExploreOp {
        let s = (self.seed.wrapping_add(self.next)) % SEED_SPACE;
        self.next += 1;

        let span = tr.enter("derive");
        Schedule::from_seed_into(s, &self.cfg, &mut self.scratch);
        tr.exit(span);

        let span = tr.enter("run");
        let obs = self
            .runner
            .run_schedule_with(&self.scratch, &self.cfg, Retention::Quiet);
        tr.exit(span);

        let span = tr.enter("check");
        let violations = check_all(&obs);
        tr.exit(span);
        let failure = if obs.hung {
            Some(format!("seed {s:#x} hung at {} ranks", self.cfg.ranks))
        } else {
            violations
                .first()
                .map(|v| format!("seed {s:#x} violated {}: {}", v.oracle, v.detail))
        };
        let out = ExploreOp {
            failure,
            allocs: obs.stats.alloc.allocs,
        };
        inspect(&obs);

        let span = tr.enter("recycle");
        self.runner.recycle(obs);
        tr.exit(span);
        out
    }

    fn ops(&mut self, n: u64, tr: &mut Tracer) -> Batch {
        let mut b = Batch {
            ops: n,
            ..Batch::default()
        };
        for _ in 0..n {
            let op = self.op(tr, &mut |_| {});
            b.allocs += op.allocs;
            if let Some(why) = op.failure {
                b.fail(1, why);
            }
        }
        b
    }
}

impl Workload for Explore {
    fn warm_up(&mut self, tr: &mut Tracer) -> Batch {
        self.ops(EXPLORE_WARM_UP, tr)
    }

    fn batch(&mut self, _index: u64, tr: &mut Tracer) -> Batch {
        self.ops(EXPLORE_BATCH, tr)
    }
}

// ------------------------------------------------------------------- fuzz

pub const FUZZ_BUDGET: u64 = 400;

/// The campaign seed `--seed S` selects for batch `index`.
pub fn campaign_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index)
}

/// The one finding campaigns are known to make at this commit: about
/// a third of them mutate their way to a schedule that kills every
/// rank but one, the lone survivor aborts (Fig. 5), and the
/// `ring-completion` oracle reports the laps it left open. That is the
/// fuzzer doing its job on a known gap between oracle and protocol, so
/// such a schedule is counted apart (`known_violations`) and not as a
/// failed operation. Anything else a campaign reports is a failure.
fn is_lone_survivor_abort(f: &FuzzFailure, ranks: usize) -> bool {
    let mut victims: Vec<usize> = f.schedule.kills.iter().map(|k| k.victim).collect();
    victims.sort_unstable();
    victims.dedup();
    !f.hung && f.oracles == ["ring-completion"] && victims.len() + 1 == ranks
}

/// op = one schedule executed inside `dst::fuzz`; batch = one campaign.
struct Fuzz {
    seed: u64,
    cfg: ScenarioCfg,
    /// `(edges, signature)` of the first campaign, recorded by the
    /// warm-up; batch 0 re-runs that campaign and must reproduce it.
    pinned: Option<(u64, u64)>,
}

/// What one campaign at `FUZZ_BUDGET` did.
pub struct Campaign {
    pub batch: Batch,
    /// `(edges, signature)` of the coverage it discovered.
    pub coverage: (u64, u64),
    /// Executions that contributed a novel edge.
    pub novel: u64,
}

pub fn campaign(seed: u64, cfg: &ScenarioCfg, tr: &mut Tracer) -> Campaign {
    let fcfg = FuzzCfg {
        seed,
        budget: FUZZ_BUDGET,
        // Keep every failure record: each one is classified below.
        max_failures: FUZZ_BUDGET as usize,
        corpus: None,
    };
    let span = tr.enter("campaign");
    let report = fuzz(&fcfg, cfg).expect("fuzz configuration is valid");
    tr.exit(span);
    let mut b = Batch {
        ops: report.executed,
        allocs: report.stats.alloc.allocs,
        ..Batch::default()
    };
    if report.executed != FUZZ_BUDGET {
        b.fail(
            FUZZ_BUDGET,
            format!(
                "campaign {seed} executed {} of {FUZZ_BUDGET}",
                report.executed
            ),
        );
        b.ops = FUZZ_BUDGET;
    }
    // Every hung run also violates an oracle, so `failing` covers both.
    for f in &report.failures {
        if is_lone_survivor_abort(f, cfg.ranks) {
            b.known_violations += 1;
        } else {
            b.fail(1, format!("campaign {seed}: {}", f.line(&fcfg, cfg)));
        }
    }
    if report.failing != report.failures.len() as u64 {
        b.fail(
            report.dropped_failures,
            format!(
                "campaign {seed}: {} failure records dropped",
                report.dropped_failures
            ),
        );
    }
    Campaign {
        batch: b,
        coverage: (report.edges(), report.signature()),
        novel: report.novel,
    }
}

impl Workload for Fuzz {
    fn warm_up(&mut self, tr: &mut Tracer) -> Batch {
        let c = campaign(campaign_seed(self.seed, 0), &self.cfg, tr);
        self.pinned = Some(c.coverage);
        c.batch
    }

    fn batch(&mut self, index: u64, tr: &mut Tracer) -> Batch {
        let seed = campaign_seed(self.seed, index);
        let Campaign {
            batch: mut b,
            coverage,
            ..
        } = campaign(seed, &self.cfg, tr);
        if index == 0 && self.pinned != Some(coverage) {
            b.fail(
                b.ops,
                format!(
                    "campaign {seed} is not deterministic: coverage {:?} then {coverage:?}",
                    self.pinned
                ),
            );
        }
        b
    }
}

// ------------------------------------------------------------------- ring

pub const RECOVERY_RANKS: usize = 8;
pub const RECOVERY_LAPS: u64 = 24;
/// Ranks killed by [`recovery_plan`], ascending.
pub const RECOVERY_VICTIMS: [usize; 3] = [2, 4, 6];

/// Fig. 9 receive + marker dedup with the Fig. 13 `ValidateAll`
/// termination (the root never dies, so no failover is configured).
pub fn recovery_config() -> RingConfig {
    RingConfig::paper(RECOVERY_LAPS).termination(TerminationMode::ValidateAll)
}

/// Ranks 2, 4, 6 die right after receiving their 6th, 12th and 18th
/// token from their left neighbour: the token is lost with them.
pub fn recovery_plan() -> FaultPlan {
    combine(
        RECOVERY_VICTIMS
            .iter()
            .enumerate()
            .map(|(i, &v)| kill_after_recv(v, v - 1, T_N, 6 * (i as u64 + 1))),
    )
}

/// One wall-clock ring run on `pool`.
pub fn ring_run(
    pool: &mut UniversePool,
    cfg: &RingConfig,
    plan: FaultPlan,
    traced: bool,
) -> RunReport<RingStats> {
    let mut ucfg = UniverseConfig::with_plan(plan);
    if traced {
        ucfg = ucfg.traced();
    }
    pool.run(ucfg, |p| run_ring(p, WORLD, cfg))
}

/// Check a ring run: every lap closed exactly once, exactly the planned
/// ranks failed, every survivor returned `Ok` and terminated.
pub fn check_ring(
    report: &RunReport<RingStats>,
    laps: u64,
    victims: &[usize],
) -> Result<(), String> {
    let s = summarize(report);
    if s.hung {
        return Err("ring run hung".into());
    }
    if s.failed != victims {
        return Err(format!("failed ranks {:?}, expected {victims:?}", s.failed));
    }
    if s.survivors.len() + s.failed.len() != report.outcomes.len() {
        let bad: Vec<String> = report
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.is_ok() && !o.is_failed())
            .map(|(r, o)| format!("rank {r}: {}", outcome_text(o)))
            .collect();
        return Err(format!("survivor did not return Ok: {}", bad.join(", ")));
    }
    if s.completed_iterations() as u64 != laps {
        return Err(format!(
            "{} laps closed, expected {laps}",
            s.completed_iterations()
        ));
    }
    if s.has_double_completion() {
        return Err("a lap completed twice".into());
    }
    for (rank, stats) in report.ok_values() {
        if !stats.terminated {
            return Err(format!("rank {rank} did not terminate"));
        }
        if let Some(agreed) = stats.validate_failed {
            if agreed != victims.len() {
                return Err(format!(
                    "rank {rank} agreed on {agreed} failed ranks, expected {}",
                    victims.len()
                ));
            }
        }
    }
    Ok(())
}

fn outcome_text<T>(o: &ftmpi::RankOutcome<T>) -> String {
    match o {
        ftmpi::RankOutcome::Ok(_) => "ok".into(),
        ftmpi::RankOutcome::Failed => "failed".into(),
        ftmpi::RankOutcome::Aborted { code } => format!("aborted({code})"),
        ftmpi::RankOutcome::Err(e) => format!("error: {e}"),
        ftmpi::RankOutcome::Panicked(m) => format!("panicked: {m}"),
    }
}

/// A ring configuration run back to back on one pooled universe.
/// `ops_per_run` is what one run counts as: its laps for the clean
/// rings, 1 for the recovery run.
struct Ring {
    pool: UniversePool,
    cfg: RingConfig,
    plan: FaultPlan,
    victims: Vec<usize>,
    ops_per_run: u64,
    runs_per_batch: u64,
}

impl Ring {
    fn new(
        ranks: usize,
        cfg: RingConfig,
        plan: FaultPlan,
        ops_per_run: u64,
        runs_per_batch: u64,
    ) -> Self {
        let mut victims = plan.victims();
        victims.sort_unstable();
        Ring {
            pool: UniversePool::new(ranks),
            cfg,
            plan,
            victims,
            ops_per_run,
            runs_per_batch,
        }
    }

    fn runs(&mut self, n: u64, tr: &mut Tracer) -> Batch {
        let mut b = Batch {
            ops: n * self.ops_per_run,
            ..Batch::default()
        };
        for _ in 0..n {
            let span = tr.enter("pool.run");
            let report = ring_run(&mut self.pool, &self.cfg, self.plan.clone(), false);
            tr.exit(span);
            b.allocs += report.stats.alloc.allocs;
            if let Err(why) = check_ring(&report, self.cfg.max_iter, &self.victims) {
                b.fail(self.ops_per_run, why);
            }
        }
        b
    }
}

impl Workload for Ring {
    fn warm_up(&mut self, tr: &mut Tracer) -> Batch {
        self.runs(3 * self.runs_per_batch, tr)
    }

    fn batch(&mut self, _index: u64, tr: &mut Tracer) -> Batch {
        self.runs(self.runs_per_batch, tr)
    }
}

// ----------------------------------------------------------------- fan-in

const FANIN_RANKS: usize = 4;
const FANIN_TAGS: i32 = 256;
const FANIN_ROUNDS: u64 = 10;
/// "Receives are posted, start sending" — also the ack of the round
/// before. Outside the data tag range.
const FANIN_GO: i32 = FANIN_TAGS;

/// op = one matched message. Per round rank 0 posts one receive per
/// (sender, tag) in reverse tag order, releases the senders, and waits
/// for all 768; each sender then `isend`s its 256 tags ascending, so
/// the first message to arrive matches the receive posted last.
struct FanIn {
    pool: UniversePool,
}

fn fanin_payload(round: u64, src: usize, tag: i32) -> u64 {
    round << 32 | (src as u64) << 16 | tag as u64
}

/// Rank body; rank 0 returns how many payloads were wrong.
fn fanin_rank(p: &mut Process) -> ftmpi::Result<u64> {
    let me = p.world_rank();
    let senders = 1..p.world_size();
    let mut reqs = Vec::with_capacity(senders.len() * FANIN_TAGS as usize);
    let mut wrong = 0u64;
    for round in 0..FANIN_ROUNDS {
        reqs.clear();
        if me == 0 {
            for tag in (0..FANIN_TAGS).rev() {
                for src in senders.clone() {
                    reqs.push(p.irecv(WORLD, Src::Rank(src), tag)?);
                }
            }
            for src in senders.clone() {
                p.send(WORLD, src, FANIN_GO, &round)?;
            }
            let mut done = p.waitall(&reqs)?.into_iter();
            for tag in (0..FANIN_TAGS).rev() {
                for src in senders.clone() {
                    let c = done.next().expect("one completion per request")?;
                    let got = <u64 as ftmpi::Datatype>::from_bytes(&c.data)?;
                    wrong += u64::from(got != fanin_payload(round, src, tag));
                    p.recycle_payload(c.data);
                }
            }
        } else {
            let (go, _) = p.recv::<u64>(WORLD, Src::Rank(0), FANIN_GO)?;
            wrong += u64::from(go != round);
            for tag in 0..FANIN_TAGS {
                reqs.push(p.isend(WORLD, 0, tag, &fanin_payload(round, me, tag))?);
            }
            p.waitall(&reqs)?;
        }
    }
    Ok(wrong)
}

impl FanIn {
    fn run(&mut self, tr: &mut Tracer) -> Batch {
        let messages = FANIN_ROUNDS * (FANIN_RANKS as u64 - 1) * FANIN_TAGS as u64;
        let span = tr.enter("pool.run");
        let report = self.pool.run(UniverseConfig::default(), fanin_rank);
        tr.exit(span);
        let mut b = Batch {
            ops: messages,
            allocs: report.stats.alloc.allocs,
            ..Batch::default()
        };
        if !report.all_ok() {
            let bad: Vec<String> = report
                .outcomes
                .iter()
                .enumerate()
                .filter(|(_, o)| !o.is_ok())
                .map(|(r, o)| format!("rank {r}: {}", outcome_text(o)))
                .collect();
            b.fail(messages, format!("fan-in run failed: {}", bad.join(", ")));
        } else {
            let wrong: u64 = report.ok_values().iter().map(|(_, w)| **w).sum();
            if wrong > 0 {
                b.fail(
                    wrong.min(messages),
                    format!("{wrong} fan-in payloads were wrong"),
                );
            }
        }
        b
    }
}

impl Workload for FanIn {
    fn warm_up(&mut self, tr: &mut Tracer) -> Batch {
        let mut warm = Batch::default();
        for _ in 0..3 {
            warm.absorb(self.run(tr));
        }
        warm
    }

    fn batch(&mut self, _index: u64, tr: &mut Tracer) -> Batch {
        self.run(tr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dst::Kill;
    use faultsim::HookKind;

    fn failure(victims: &[usize], oracles: &[&str], hung: bool) -> FuzzFailure {
        FuzzFailure {
            schedule: Schedule {
                seed: 0,
                kills: victims
                    .iter()
                    .map(|&victim| Kill {
                        victim,
                        hook: HookKind::Tick,
                        occurrence: 1,
                    })
                    .collect(),
                delay_mask: None,
            },
            oracles: oracles.iter().map(|o| o.to_string()).collect(),
            violations: Vec::new(),
            hung,
            triage: String::new(),
        }
    }

    #[test]
    fn only_the_lone_survivor_abort_is_a_known_violation() {
        let completion = ["ring-completion"];
        assert!(is_lone_survivor_abort(
            &failure(&[3, 0, 2], &completion, false),
            4
        ));
        // Two survivors could have finished the ring.
        assert!(!is_lone_survivor_abort(
            &failure(&[3, 0], &completion, false),
            4
        ));
        // Three kills of two distinct ranks leave two survivors as well.
        assert!(!is_lone_survivor_abort(
            &failure(&[3, 0, 3], &completion, false),
            4
        ));
        // A hang, or any other oracle beside it, is a failure.
        assert!(!is_lone_survivor_abort(
            &failure(&[3, 0, 2], &completion, true),
            4
        ));
        assert!(!is_lone_survivor_abort(
            &failure(&[3, 0, 2], &["no-duplicate", "ring-completion"], false),
            4
        ));
        assert!(!is_lone_survivor_abort(
            &failure(&[3, 0, 2], &["no-duplicate"], false),
            4
        ));
    }

    #[test]
    fn seed_reaches_the_campaigns_as_s_plus_batch() {
        assert_eq!(campaign_seed(7, 0), 7);
        assert_eq!(campaign_seed(7, 5), 12);
        assert_eq!(campaign_seed(u64::MAX, 1), 0);
    }
}
