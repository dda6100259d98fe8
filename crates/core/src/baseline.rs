//! The traditional fault-unaware ring (paper Fig. 2).
//!
//! "Usually the first point-to-point MPI program that a student
//! creates": the root injects `value = 1`, every rank increments and
//! forwards, the root receives it back — `max_iter` times. Used as the
//! failure-free baseline for the latency benchmarks and as the
//! contrast program for every fault scenario.

use ftmpi::{Comm, Process, Result, Src};

use crate::msg::T_N;

/// Result of a baseline ring run at one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineStats {
    /// Iterations completed.
    pub iterations: u64,
    /// The last value observed (at the root: `size` after each lap).
    pub last_value: i64,
}

/// Run the Fig. 2 ring: no error handler changes, no failure handling.
/// Under failure the behaviour is whatever the default error handler
/// dictates (job abort) — exactly the situation the paper sets out to
/// fix.
pub fn run_baseline_ring(
    p: &mut Process,
    comm: Comm,
    max_iter: u64,
    pad: usize,
) -> Result<BaselineStats> {
    let me = p.comm_rank(comm)?;
    let size = p.comm_size(comm)?;
    let right = (me + 1) % size;
    let left = if me == 0 { size - 1 } else { me - 1 };
    let root = 0;

    let mut last_value = 0i64;
    let payload_pad = vec![0u8; pad];
    for _ in 0..max_iter {
        if me == root {
            let value = 1i64;
            p.send(comm, right, T_N, &(value, payload_pad.clone()))?;
            let ((v, _), _) = p.recv::<(i64, Vec<u8>)>(comm, Src::Rank(left), T_N)?;
            last_value = v;
        } else {
            let ((v, pad_in), _) = p.recv::<(i64, Vec<u8>)>(comm, Src::Rank(left), T_N)?;
            last_value = v + 1;
            p.send(comm, right, T_N, &(last_value, pad_in))?;
        }
    }
    Ok(BaselineStats { iterations: max_iter, last_value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dst::refereed;
    use faultsim::{FaultPlan, HookKind};
    use ftmpi::{RankOutcome, WORLD};

    #[test]
    fn value_accumulates_once_per_rank() {
        for n in [1usize, 2, 4, 7] {
            let body = |p: &mut Process| run_baseline_ring(p, WORLD, 5, 0);
            refereed(n, FaultPlan::none(), body, |at, report| {
                assert!(report.all_ok(), "{at}");
                let root_stats = report.outcomes[0].as_ok().unwrap();
                assert_eq!(root_stats.iterations, 5);
                assert_eq!(root_stats.last_value, n as i64, "{at}: value counts every rank once");
            });
        }
    }

    #[test]
    fn padding_travels_unmangled() {
        let body = |p: &mut Process| run_baseline_ring(p, WORLD, 2, 64);
        refereed(3, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
    }

    #[test]
    fn failure_aborts_the_job_with_default_handler() {
        // The motivating failure mode: one rank dies, the fault-unaware
        // ring cannot continue, and MPI_ERRORS_ARE_FATAL kills the job.
        let plan = FaultPlan::none().kill_at(2, HookKind::AfterRecvComplete, 2);
        let body = |p: &mut Process| run_baseline_ring(p, WORLD, 10, 0);
        // The referee holds rank 2 failed and nobody else.
        refereed(4, plan, body, |at, report| {
            let aborted = |o: &&RankOutcome<_>| matches!(o, RankOutcome::Aborted { .. });
            let aborted = report.outcomes.iter().filter(aborted).count();
            assert!(aborted >= 1, "{at}: survivors must observe the job abort");
        });
    }
}
