//! Coordinator agreement under the deterministic scheduler.
//!
//! Every rank calls `consensus::agree_on_failed_set` once on a simulated
//! universe — 3, 4, 5 and 7 ranks, seeds `0..693`, none, one or two
//! kills per seed, any victim, the coordinator included, at any hook the
//! victim reaches — and this file pins what a change to the protocol must
//! not move:
//!
//! * no schedule ends in a deadlock or budget verdict;
//! * every planned kill fires, and nobody else fails;
//! * every rank that did not fail decides, and they decide the same set;
//! * the decided set names only ranks that ended `Failed`;
//! * a schedule run twice leaves a byte-identical decision log;
//! * the FNV-1a digest of every log and every rank's report is pinned.
//!
//! `dst::referee` draws each kill from the hooks the seed's clean twin
//! reached, so a plan never runs with its failure missing; it runs the
//! schedules and checks all but the agreement.

use consensus::{agree_on_failed_set, AgreementConfig};
use dst::{referee, reports, Kills, Workload};
use ftmpi::{ErrorHandler, Process, WORLD};

/// FNV-1a over every schedule's decision log and rank reports, every
/// rank count, in seed order.
const DIGEST: u64 = 0xdca6_a1b8_843c_786c;

/// One agreement over `WORLD`.
struct Agreement;

impl Workload for Agreement {
    type Report = Vec<usize>;

    fn body(&self, p: &mut Process) -> ftmpi::Result<Vec<usize>> {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        agree_on_failed_set(p, WORLD, AgreementConfig::default())
    }

    /// Any rank, the coordinator included.
    fn kills(&self, _seed: u64, ranks: usize) -> Kills {
        Kills::Victims(0..ranks)
    }
}

#[test]
fn agreement_is_uniform_valid_and_pinned() {
    let (digest, _) = referee(&Agreement, &[3, 4, 5, 7], 0..693, |at, _, report, _| {
        let reports = reports(at, report);
        let decided: Vec<&Vec<usize>> = reports.iter().flatten().copied().collect();
        assert!(!decided.is_empty(), "{at}: nobody decided");
        for set in &decided {
            assert_eq!(set, &decided[0], "{at}: the decision is not uniform: {decided:?}");
        }
        for &rank in decided[0] {
            assert!(reports[rank].is_none(), "{at}: decided rank {rank} did not fail");
        }
    });
    assert_eq!(digest, DIGEST, "decision logs or reports moved: {digest:#018x}");
}
