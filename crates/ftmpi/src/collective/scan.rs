//! Inclusive prefix scan (linear chain).

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::error::Result;
use crate::process::Process;

use super::{CollCtx, OP_SCAN};

impl Process {
    /// `MPI_Scan`: inclusive prefix combination over active-rank order.
    /// The participant at active index `i` receives
    /// `op(v_0, op(v_1, … v_i))`.
    ///
    /// Linear chain: receive the prefix from the previous active rank,
    /// fold in our value, forward downstream. A failure upstream
    /// poisons the rest of the chain.
    pub fn scan<T: Datatype>(
        &mut self,
        comm: Comm,
        value: &T,
        op: impl Fn(T, T) -> T,
    ) -> Result<T> {
        // The next rank in the chain is the only one waiting on us.
        let next = |cctx: &CollCtx| (cctx.vrank + 1 < cctx.size()).then_some(cctx.vrank + 1);
        let owes = |cctx: &CollCtx| Vec::from_iter(next(cctx));
        self.collective(comm, (OP_SCAN, "scan"), None, None, owes, |p, cctx| {
            let mine = T::from_bytes(&value.to_bytes())?;
            let acc = match cctx.vrank.checked_sub(1) {
                None => mine,
                Some(prev) => op(T::from_bytes(&p.coll_recv(cctx, prev)?)?, mine),
            };
            if let Some(next) = next(cctx) {
                p.coll_send(cctx, next, acc.to_bytes())?;
            }
            Ok(acc)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::WORLD;
    use crate::error::{Error, ErrorHandler};
    use crate::universe::{run, run_default, UniverseConfig};
    use std::time::Duration;

    #[test]
    fn scan_computes_inclusive_prefixes() {
        let n = 6;
        let report = run_default(n, |p| {
            let mine = (p.world_rank() + 1) as i64;
            p.scan(WORLD, &mine, |a, b| a + b)
        });
        assert!(report.all_ok());
        for (r, o) in report.outcomes.iter().enumerate() {
            let expected: i64 = (1..=(r as i64 + 1)).sum();
            assert_eq!(o.as_ok(), Some(&expected), "rank {r}");
        }
    }

    #[test]
    fn scan_of_one() {
        let report = run_default(1, |p| p.scan(WORLD, &41i32, |a, b| a + b));
        assert_eq!(report.outcomes[0].as_ok(), Some(&41));
    }

    #[test]
    fn scan_with_dead_middle_errors_downstream_not_hangs() {
        let plan = faultsim::FaultPlan::none()
            .kill_at(2, faultsim::HookKind::BeforeCollective, 1);
        let report = run(
            5,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(20)),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                match p.scan(WORLD, &1i64, |a, b| a + b) {
                    Ok(v) => Ok(Some(v)),
                    Err(Error::RankFailStop { .. }) => Ok(None),
                    Err(e) => Err(e),
                }
            },
        );
        assert!(!report.hung);
        // Ranks upstream of the failure may succeed with correct
        // prefixes; everyone downstream must error.
        if let Some(Some(v)) = report.outcomes[0].as_ok() {
            assert_eq!(*v, 1);
        }
        if let Some(Some(v)) = report.outcomes[1].as_ok() {
            assert_eq!(*v, 2);
        }
        for r in 3..5 {
            assert_eq!(
                report.outcomes[r].as_ok(),
                Some(&None),
                "rank {r} is downstream of the failure"
            );
        }
    }
}
