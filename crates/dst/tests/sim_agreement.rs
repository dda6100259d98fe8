//! Coordinator agreement under the deterministic scheduler.
//!
//! Every rank calls `consensus::agree_on_failed_set` once on a simulated
//! universe — 3, 4, 5 and 7 ranks, seeds `0..693`, none, one or two
//! kills per seed, any victim, the coordinator included — and this file
//! pins what a change to the protocol must not move:
//!
//! * no schedule ends in a deadlock or budget verdict;
//! * every planned kill fires, and nobody else fails;
//! * every rank that did not fail decides, and they decide the same set;
//! * the decided set names only ranks that ended `Failed`;
//! * a schedule run twice leaves a byte-identical decision log;
//! * the FNV-1a digest of every log and every rank's report is pinned.
//!
//! Each kill is at a hook occurrence that every schedule reaches, so a
//! plan never runs with its failure missing. `dst::referee` runs the
//! schedules and checks all but the agreement.

use consensus::{agree_on_failed_set, AgreementConfig};
use dst::{referee, Workload};
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{ErrorHandler, Process, RankOutcome, WORLD};

/// FNV-1a over every schedule's decision log and rank reports, every
/// rank count, in seed order.
const DIGEST: u64 = 0xd466_aced_3601_027d;

/// The kill points a lone victim always reaches, whoever it is: its
/// first completed receive, each of its first three sends (both sides)
/// and receive posts, and its first pass of a wait.
const ALONE: [(HookKind, u64); 11] = [
    (HookKind::AfterRecvComplete, 1),
    (HookKind::AfterSend, 1),
    (HookKind::AfterSend, 2),
    (HookKind::AfterSend, 3),
    (HookKind::BeforeSend, 1),
    (HookKind::BeforeSend, 2),
    (HookKind::BeforeSend, 3),
    (HookKind::BeforeRecvPost, 1),
    (HookKind::BeforeRecvPost, 2),
    (HookKind::BeforeRecvPost, 3),
    (HookKind::Tick, 1),
];

/// The same with a second victim, which can spare a rank its third
/// send.
const PAIRED: [(HookKind, u64); 9] = [
    (HookKind::AfterRecvComplete, 1),
    (HookKind::AfterSend, 1),
    (HookKind::AfterSend, 2),
    (HookKind::BeforeSend, 1),
    (HookKind::BeforeSend, 2),
    (HookKind::BeforeRecvPost, 1),
    (HookKind::BeforeRecvPost, 2),
    (HookKind::BeforeRecvPost, 3),
    (HookKind::Tick, 1),
];

/// One agreement over `WORLD`.
struct Agreement;

impl Workload for Agreement {
    type Report = Vec<usize>;

    fn body(&self, p: &mut Process) -> ftmpi::Result<Vec<usize>> {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        agree_on_failed_set(p, WORLD, AgreementConfig::default())
    }

    /// Seed `3k` is clean, `3k + 1` kills one rank at an [`ALONE`]
    /// point and `3k + 2` two ranks at [`PAIRED`] points; `k` walks the
    /// victims first, then the first victim's point, then the second's.
    fn plan(&self, seed: u64, ranks: usize) -> FaultPlan {
        let k = (seed / 3) as usize;
        let (victim, depth) = (k % ranks, k / ranks);
        let other = (victim + 1 + depth % (ranks - 1)) % ranks;
        let kills = match seed % 3 {
            0 => vec![],
            1 => vec![(victim, ALONE[depth % ALONE.len()])],
            _ => vec![
                (victim, PAIRED[depth % PAIRED.len()]),
                (other, PAIRED[depth / PAIRED.len() % PAIRED.len()]),
            ],
        };
        let kill = |(v, (kind, n))| FaultRule::kill(v, Trigger::on(kind).nth(n));
        FaultPlan::new(kills.into_iter().map(kill).collect())
    }
}

#[test]
fn agreement_is_uniform_valid_and_pinned() {
    let (digest, _) = referee(&Agreement, &[3, 4, 5, 7], 0..693, |at, _, report| {
        let mut failed = Vec::new();
        let mut decided: Vec<&Vec<usize>> = Vec::new();
        for (rank, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                RankOutcome::Ok(set) => decided.push(set),
                RankOutcome::Failed => failed.push(rank),
                other => panic!("{at}: rank {rank} ended as {other:?}"),
            }
        }
        assert!(!decided.is_empty(), "{at}: nobody decided");
        for set in &decided {
            assert_eq!(set, &decided[0], "{at}: the decision is not uniform: {decided:?}");
        }
        for rank in decided[0] {
            assert!(failed.contains(rank), "{at}: decided rank {rank} did not fail");
        }
    });
    assert_eq!(digest, DIGEST, "decision logs or reports moved: {digest:#018x}");
}
