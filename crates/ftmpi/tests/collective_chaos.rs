//! Chaos property: collectives under arbitrary kill schedules
//! **error, never hang** — the hang-freedom argument of the
//! `collective` module, tested mechanically.
//!
//! Every rank runs the same sequence of collectives, tolerating
//! per-operation errors (which keeps instance counters aligned: entry
//! happens even when the operation errors). After the sequence,
//! survivors repair with `validate_all` and must complete one final
//! barrier successfully.

use std::time::Duration;

use proptest::prelude::*;

use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{run, Error, ErrorHandler, UniverseConfig, WORLD};

#[derive(Debug, Clone, Copy)]
enum Op {
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
    Scan,
}

const OPS: [Op; 9] = [
    Op::Barrier,
    Op::Bcast,
    Op::Reduce,
    Op::Allreduce,
    Op::Gather,
    Op::Scatter,
    Op::Allgather,
    Op::Alltoall,
    Op::Scan,
];

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..OPS.len()).prop_map(|i| OPS[i])
}

#[derive(Debug, Clone, Copy)]
struct Kill {
    victim: usize,
    kind: u8,
    occurrence: u64,
}

fn kill_strategy() -> impl Strategy<Value = Kill> {
    (0usize..7, 0u8..5, 1u64..10).prop_map(|(victim, kind, occurrence)| Kill {
        victim,
        kind,
        occurrence,
    })
}

fn run_op(p: &mut ftmpi::Process, op: Op) -> ftmpi::Result<()> {
    // Use a value derived from rank so payloads exercise real data.
    let me = p.world_rank();
    let active = p
        .comm_group(WORLD)?
        .members()
        .iter()
        .filter(|&&w| {
            p.comm_validate_rank(WORLD, w)
                .map(|i| i.state != ftmpi::RankState::Null)
                .unwrap_or(false)
        })
        .count();
    let result: ftmpi::Result<()> = match op {
        Op::Barrier => p.barrier(WORLD),
        Op::Bcast => {
            let v = (me == 0).then_some(7i64);
            p.bcast(WORLD, 0, v.as_ref()).map(|_| ())
        }
        Op::Reduce => p.reduce(WORLD, 0, &(me as u64), |a, b| a + b).map(|_| ()),
        Op::Allreduce => p.allreduce(WORLD, &1u64, |a, b| a + b).map(|_| ()),
        Op::Gather => p.gather(WORLD, 0, &(me as u32)).map(|_| ()),
        Op::Scatter => {
            let values: Option<Vec<u64>> = (me == 0).then(|| (0..active as u64).collect());
            p.scatter(WORLD, 0, values.as_deref()).map(|_| ())
        }
        Op::Allgather => p.allgather(WORLD, &(me as u16)).map(|_| ()),
        Op::Alltoall => {
            let values: Vec<u32> = (0..active as u32).collect();
            p.alltoall(WORLD, &values).map(|_| ())
        }
        Op::Scan => p.scan(WORLD, &1i64, |a, b| a + b).map(|_| ()),
    };
    match result {
        Ok(()) => Ok(()),
        Err(e) if e.is_terminal() => Err(e),
        // Per-op failure is expected under chaos; alignment is kept by
        // coll_begin's unconditional instance bump.
        Err(Error::RankFailStop { .. }) | Err(Error::InvalidState(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        max_shrink_iters: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn collectives_error_but_never_hang_under_chaos(
        world in 3usize..8,
        ops in prop::collection::vec(op_strategy(), 2..6),
        kills in prop::collection::vec(kill_strategy(), 0..3),
    ) {
        let kills: Vec<Kill> = kills.into_iter().filter(|k| k.victim < world).collect();
        let victims: std::collections::HashSet<usize> =
            kills.iter().map(|k| k.victim).collect();
        prop_assume!(victims.len() < world); // at least one survivor

        let mut plan = FaultPlan::none();
        let mut seen = std::collections::HashSet::new();
        for k in &kills {
            if !seen.insert(k.victim) {
                continue;
            }
            let kind = match k.kind {
                0 => HookKind::BeforeCollective,
                1 => HookKind::AfterCollective,
                2 => HookKind::AfterRecvComplete,
                3 => HookKind::AfterSend,
                _ => HookKind::Tick,
            };
            plan = plan.with(FaultRule::kill(k.victim, Trigger::on(kind).nth(k.occurrence)));
        }

        let ops2 = ops.clone();
        let report = run(
            world,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(120)),
            move |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                for &op in &ops2 {
                    run_op(p, op)?;
                }
                // Repair and prove the communicator is usable again.
                // Kills can land at ANY wait point (Tick), including
                // after the repair — so retry in validate-bracketed
                // windows: `before == after` is a *uniform* predicate
                // (validate_all agrees), so every survivor exits the
                // loop in the same round with the same count.
                let mut rounds = 0;
                loop {
                    rounds += 1;
                    assert!(rounds < 50, "repair loop must converge");
                    let before = p.comm_validate_all(WORLD)?;
                    let r = p.barrier(WORLD);
                    let after = p.comm_validate_all(WORLD)?;
                    match r {
                        _ if before != after => continue,
                        Ok(()) => return Ok(before),
                        Err(e) if e.is_terminal() => return Err(e),
                        Err(Error::RankFailStop { .. }) => continue,
                        Err(e) => return Err(e),
                    }
                }
            },
        );
        prop_assert!(
            !report.hung,
            "HANG with ops {ops:?} kills {kills:?}: outcomes have {} survivors",
            report.outcomes.iter().filter(|o| o.is_ok()).count()
        );
        // Survivors all finished and agree with EACH OTHER on the
        // failure count (uniform agreement). The common count may be
        // *below* the end-of-run count: a victim whose trigger fires
        // inside its own final wait can die after the last agreement,
        // legitimately unseen by anyone.
        let failed_count = report.outcomes.iter().filter(|o| o.is_failed()).count();
        let mut counts = std::collections::HashSet::new();
        for (r, o) in report.outcomes.iter().enumerate() {
            if o.is_failed() {
                continue;
            }
            let got = o.as_ok().unwrap_or_else(|| panic!("rank {r}: {o:?}"));
            counts.insert(*got);
        }
        prop_assert_eq!(counts.len(), 1, "survivors disagree: {:?}", counts);
        let agreed = *counts.iter().next().unwrap();
        prop_assert!(
            agreed <= failed_count,
            "agreed {} > actually failed {}",
            agreed,
            failed_count
        );
    }
}
