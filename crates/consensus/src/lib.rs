//! # consensus — application-level agreement over `ftmpi`
//!
//! The paper's §III-D discusses what a *fault-tolerant application*
//! can build when the root fails: a leader election (Fig. 12, the ring's
//! own `ftring::get_current_root`), a reliable broadcast (discussed and
//! rejected as "delicate to implement"), and finally the MPI-provided
//! fault-tolerant consensus (`MPI_Comm_validate_all`). The `ftmpi`
//! runtime implements `validate_all` as a shared-memory decision
//! barrier; this crate provides the *message-passing* agreements an
//! application (or a real MPI library) would use instead:
//!
//! * [`agreement`] — a coordinator-based uniform agreement on the
//!   failed set, with coordinator-crash recovery;
//! * [`flooding`] — an all-to-all echo agreement, simpler but only
//!   agreeing in failure-quiescent runs (the textbook reason the
//!   coordinator protocol exists).

#![warn(missing_docs)]

pub mod agreement;
pub mod flooding;

pub use agreement::{agree_on_failed_set, AgreementConfig};
pub use flooding::flooding_failed_set;

/// The protocol tests' runs: each under `dst`'s scheduler, over every seed of
/// `dst::figures::SEEDS`, so a failure replays from its seed (DESIGN.md §6).
#[cfg(test)]
mod seeded {
    use dst::{figures::SEEDS, referee, Kills, SeedRunner, Workload};
    use faultsim::FaultPlan;
    use ftmpi::{Error, Process, RunReport, Src, WORLD};
    use std::fmt::Debug;

    /// A body on every rank under a plan.
    struct Body<F>(FaultPlan, F);

    impl<R: Debug + Send, F: Fn(&mut Process) -> ftmpi::Result<R> + Sync> Workload for Body<F> {
        type Report = R;
        fn body(&self, p: &mut Process) -> ftmpi::Result<R> {
            (self.1)(p)
        }
        fn kills(&self, _seed: u64, _ranks: usize) -> Kills {
            Kills::Plan(self.0.clone())
        }
    }

    /// `body` on `n` ranks under `plan` through `dst::referee`, whose twin of each seed runs
    /// with the kills disarmed and must finish too; `check` judges each planned run.
    pub(crate) fn refereed<R: Debug + Send>(
        n: usize,
        plan: FaultPlan,
        body: impl Fn(&mut Process) -> ftmpi::Result<R> + Sync,
        mut check: impl FnMut(&str, &RunReport<R>),
    ) {
        referee(&Body(plan, body), &[n], SEEDS, |at, _, report, _| check(at, report));
    }

    /// `body` on `n` ranks under `plan`, for a body that waits for a death and so has no
    /// twin: no seed may end in a deadlock or budget verdict; `check` judges each run.
    pub(crate) fn seeded<R: Debug + Send>(
        n: usize,
        plan: FaultPlan,
        body: impl Fn(&mut Process) -> ftmpi::Result<R> + Sync,
        mut check: impl FnMut(&str, &RunReport<R>),
    ) {
        let (w, mut runner) = (Body(plan, body), SeedRunner::new(n));
        for seed in SEEDS {
            let at = format!("{n} ranks, seed {seed}");
            let (report, sched) = runner.run_workload(&w, &w.0, seed);
            assert_eq!(sched.deadlock_at(), None, "{at}: deadlock\n{}", sched.log_text());
            assert!(!sched.budget_exhausted() && !report.hung, "{at}: budget spent or hung");
            check(&at, &report);
        }
    }

    /// Wait until `victim` has died: a receive naming it ends in its `RankFailStop` (Fig. 9).
    pub(crate) fn await_death(p: &mut Process, victim: usize) -> ftmpi::Result<()> {
        match p.recv::<()>(WORLD, Src::Rank(victim), 9) {
            Err(Error::RankFailStop { rank }) if rank == victim => Ok(()),
            other => panic!("rank {victim} did not die: {other:?}"),
        }
    }

    /// Wait for a message that never comes, until a `Tick` kill ends this rank.
    pub(crate) fn idle<R>(p: &mut Process) -> ftmpi::Result<R> {
        p.recv::<()>(WORLD, Src::Rank(0), 9)?;
        unreachable!("an idle rank is killed at its first Tick")
    }
}
