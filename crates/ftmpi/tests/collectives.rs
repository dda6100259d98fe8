//! The collectives built from messages (`crates/ftmpi/src/collective/`):
//! their results, their errors when a rank dies, and their return after
//! `validate_all`. Each test runs every seed of `dst::figures::SEEDS`
//! under the scheduler, so a failure replays from its seed (DESIGN.md
//! §6): `refereed` where the seed's clean twin finishes, `seeded` where
//! a rank waits for a death. A collective that leaves a peer blocked is
//! a deadlock verdict, never a timeout.

use std::sync::atomic::{AtomicUsize, Ordering};

use dst::{await_death, idle, refereed, seeded};
use faultsim::{FaultPlan, HookKind};
use ftmpi::{Error, ErrorHandler, Event, Process, RankOutcome, Result, WORLD};

/// `victim` dies on entering its first collective.
fn dies_entering(victim: usize) -> FaultPlan {
    FaultPlan::none().kill_at(victim, HookKind::BeforeCollective, 1)
}

/// `victim` dies at its first `Tick`, idling, while the others wait for
/// its death and repair with `validate_all`; then `after` runs.
fn after_validate<R: std::fmt::Debug + Send>(
    n: usize,
    victim: usize,
    after: impl Fn(&mut Process) -> Result<R> + Sync,
    check: impl FnMut(&str, &ftmpi::RunReport<R>),
) {
    let plan = FaultPlan::none().kill_at(victim, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == victim {
            return idle(p);
        }
        await_death(p, victim)?;
        p.comm_validate_all(WORLD)?;
        after(p)
    };
    seeded(n, plan, body, check);
}

#[test]
fn allgather_everyone_sees_everything() {
    for n in [1usize, 2, 5, 8] {
        let body = |p: &mut Process| p.allgather(WORLD, &((p.world_rank() * 7) as u64));
        refereed(n, FaultPlan::none(), body, |at, report| {
            assert!(report.all_ok(), "{at}");
            let expected: Vec<(usize, u64)> = (0..n).map(|r| (r, (r * 7) as u64)).collect();
            for o in &report.outcomes {
                assert_eq!(o.as_ok(), Some(&expected), "{at}");
            }
        });
    }
}

#[test]
fn alltoall_transposes() {
    let n = 4;
    let body = |p: &mut Process| {
        let me = p.world_rank() as i64;
        // values[j] = me * 100 + j
        let values: Vec<i64> = (0..n as i64).map(|j| me * 100 + j).collect();
        p.alltoall(WORLD, &values)
    };
    refereed(n, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        for (r, o) in report.outcomes.iter().enumerate() {
            // received[j] = j * 100 + r
            let expected: Vec<i64> = (0..n as i64).map(|j| j * 100 + r as i64).collect();
            assert_eq!(o.as_ok(), Some(&expected), "{at}: rank {r}");
        }
    });
}

#[test]
fn alltoall_wrong_arity_rejected() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        match p.alltoall::<i64>(WORLD, &[1]) {
            Err(Error::InvalidState(_)) => Ok(()),
            other => panic!("expected InvalidState, got {other:?}"),
        }
    };
    // With mismatched arity one rank aborts the exchange; the other may
    // error too. We only assert the reporting rank.
    refereed(2, FaultPlan::none(), body, |at, report| {
        assert!(report.outcomes[0].is_ok() || report.outcomes[1].is_ok(), "{at}");
    });
}

#[test]
fn alltoall_with_dead_rank_errors_not_hangs() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        match p.alltoall(WORLD, &[1i64; 4]) {
            Ok(_) => Ok(true),
            Err(Error::RankFailStop { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    };
    refereed(4, dies_entering(2), body, |at, report| {
        for (r, v) in report.ok_values() {
            assert!(!v, "{at}: rank {r} cannot complete an alltoall missing a peer");
        }
    });
}

#[test]
fn allgather_after_validate_excludes_failed() {
    let allgather = |p: &mut Process| p.allgather(WORLD, &p.world_rank());
    after_validate(4, 1, allgather, |at, report| {
        let expected: Vec<(usize, usize)> = vec![(0, 0), (2, 2), (3, 3)];
        for r in [0usize, 2, 3] {
            assert_eq!(report.outcomes[r].as_ok(), Some(&expected), "{at}: rank {r}");
        }
    });
}

#[test]
fn barrier_synchronizes() {
    // No rank may leave barrier k before all have entered it. Every
    // run adds `n` entries to each counter, so a rank leaving barrier k
    // finds its counter a multiple of `n` exactly when all `n` entries
    // of this run are in.
    static ENTERED: [AtomicUsize; 5] = [const { AtomicUsize::new(0) }; 5];
    let n = 8;
    let body = |p: &mut Process| {
        for (it, entered) in ENTERED.iter().enumerate() {
            entered.fetch_add(1, Ordering::SeqCst);
            p.barrier(WORLD)?;
            let seen = entered.load(Ordering::SeqCst);
            assert_eq!(seen % n, 0, "left barrier {it} before every rank entered it");
        }
        Ok(())
    };
    refereed(n, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn barrier_of_one_is_trivial() {
    let body = |p: &mut Process| p.barrier(WORLD);
    refereed(1, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn barrier_errors_not_hangs_when_a_rank_dies() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        match p.barrier(WORLD) {
            // Either outcome is spec-conformant for survivors:
            Ok(()) => Ok(true),
            Err(Error::RankFailStop { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    };
    refereed(5, dies_entering(2), body, |at, report| {
        assert!(report.outcomes[2].is_failed(), "{at}");
        let errs = report.ok_values().iter().filter(|(_, &ok)| !ok).count();
        assert!(errs >= 1, "{at}: no survivor observed the failure");
    });
}

#[test]
fn barrier_reenabled_after_validate_all() {
    let plan = FaultPlan::none().kill_at(3, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 3 {
            return idle(p);
        }
        // Once the failure is visible, collectives error; repair, and
        // they work.
        await_death(p, 3)?;
        match p.barrier(WORLD) {
            Err(Error::RankFailStop { .. }) => {}
            other => panic!("expected RankFailStop before validate, got {other:?}"),
        }
        assert_eq!(p.comm_validate_all(WORLD)?, 1);
        // Now the barrier must succeed among survivors.
        p.barrier(WORLD)
    };
    seeded(4, plan, body, |at, report| {
        for r in 0..3 {
            assert!(report.outcomes[r].is_ok(), "{at}: rank {r}: {:?}", report.outcomes[r]);
        }
    });
}

#[test]
fn bcast_delivers_to_everyone() {
    for n in [1usize, 2, 3, 5, 8, 13] {
        let body = |p: &mut Process| p.bcast(WORLD, 0, (p.world_rank() == 0).then_some(&12345i64));
        refereed(n, FaultPlan::none(), body, |at, report| {
            assert!(report.all_ok(), "{at}");
            for o in &report.outcomes {
                assert_eq!(o.as_ok(), Some(&12345), "{at}");
            }
        });
    }
}

#[test]
fn bcast_from_nonzero_root() {
    let body = |p: &mut Process| {
        let v = if p.world_rank() == 4 { Some(vec![1u32, 2, 3]) } else { None };
        p.bcast(WORLD, 4, v.as_ref())
    };
    refereed(6, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        for o in &report.outcomes {
            assert_eq!(o.as_ok(), Some(&vec![1u32, 2, 3]), "{at}");
        }
    });
}

#[test]
fn bcast_with_dead_rank_errors_not_hangs() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        match p.bcast(WORLD, 0, (p.world_rank() == 0).then_some(&7i32)) {
            Ok(x) => Ok(Some(x)),
            Err(Error::RankFailStop { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    };
    refereed(8, dies_entering(1), body, |at, report| {
        assert!(report.outcomes[1].is_failed(), "{at}");
        // Anyone who got a value got the right one.
        for (r, v) in report.ok_values() {
            if let Some(x) = v {
                assert_eq!(*x, 7, "{at}: rank {r} got corrupted data");
            }
        }
    });
}

#[test]
fn bcast_to_dead_root_errors() {
    let plan = FaultPlan::none().kill_at(2, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 2 {
            return idle(p);
        }
        await_death(p, 2)?;
        match p.bcast::<i32>(WORLD, 2, None) {
            Err(Error::RankFailStop { .. }) => Ok(()),
            other => panic!("expected error bcasting from dead root, got {other:?}"),
        }
    };
    seeded(3, plan, body, |at, report| {
        assert!(report.outcomes[0].is_ok(), "{at}");
        assert!(report.outcomes[1].is_ok(), "{at}");
    });
}

#[test]
fn bcast_skips_validated_ranks() {
    let bcast = |p: &mut Process| p.bcast(WORLD, 1, (p.world_rank() == 1).then_some(&99i32));
    after_validate(5, 0, bcast, |at, report| {
        for r in 1..5 {
            assert_eq!(report.outcomes[r].as_ok(), Some(&99), "{at}: rank {r}");
        }
    });
}

#[test]
fn gather_collects_in_rank_order() {
    let body = |p: &mut Process| p.gather(WORLD, 2, &((p.world_rank() * 10) as u32));
    refereed(5, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        let at_root = report.outcomes[2].as_ok().unwrap().as_ref().unwrap();
        assert_eq!(at_root, &vec![(0usize, 0u32), (1, 10), (2, 20), (3, 30), (4, 40)], "{at}");
        for r in [0usize, 1, 3, 4] {
            assert_eq!(report.outcomes[r].as_ok(), Some(&None), "{at}");
        }
    });
}

#[test]
fn scatter_distributes_in_rank_order() {
    let body = |p: &mut Process| {
        let values: Option<Vec<i64>> = (p.world_rank() == 0).then(|| vec![100, 101, 102, 103]);
        p.scatter(WORLD, 0, values.as_deref())
    };
    refereed(4, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        for (r, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.as_ok(), Some(&(100 + r as i64)), "{at}");
        }
    });
}

#[test]
fn scatter_wrong_count_is_invalid_state() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        match p.scatter::<i64>(WORLD, 0, Some(&[1, 2])) {
            Err(Error::InvalidState(_)) => Ok(()),
            other => panic!("expected InvalidState, got {other:?}"),
        }
    };
    refereed(1, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn gather_with_dead_leaf_errors_at_root_not_hangs() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        match p.gather(WORLD, 0, &1u8) {
            Ok(_) => Ok(true),
            Err(Error::RankFailStop { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    };
    refereed(4, dies_entering(1), body, |at, report| {
        assert_eq!(report.outcomes[0].as_ok(), Some(&false), "{at}: root must observe the failure");
    });
}

#[test]
fn scatter_from_dead_root_errors_not_hangs() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let values: Option<Vec<i64>> = (p.world_rank() == 0).then(|| vec![1, 2, 3]);
        match p.scatter(WORLD, 0, values.as_deref()) {
            Ok(_) => Ok(true),
            Err(Error::RankFailStop { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    };
    refereed(3, dies_entering(0), body, |at, report| {
        assert!(report.outcomes[0].is_failed(), "{at}");
        for r in 1..3 {
            assert_eq!(report.outcomes[r].as_ok(), Some(&false), "{at}: rank {r}");
        }
    });
}

#[test]
fn collective_enter_traces_the_instance_on_the_communicator() {
    let body = |p: &mut Process| {
        let dup = p.comm_dup(WORLD)?;
        for v in [7u32, 8] {
            p.bcast(dup, 0, (p.world_rank() == 0).then_some(&v))?;
        }
        // Instances count per communicator, not per process.
        p.bcast(WORLD, 0, (p.world_rank() == 0).then_some(&9u32))
    };
    refereed(3, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}: {:?}", report.outcomes);
        for rank in 0..3 {
            let instances: Vec<u64> = report
                .trace
                .iter()
                .filter_map(|e| match e.event {
                    Event::CollectiveEnter { rank: r, instance, .. } if r == rank => Some(instance),
                    _ => None,
                })
                .collect();
            assert_eq!(instances, vec![0, 1, 0], "{at}: rank {rank}");
        }
    });
}

/// An alive rank that leaves with a *local* error — a payload that does
/// not decode, a root without a value, a wrong count — owes its peers
/// the same poison as one that leaves on a failure. A peer it leaves
/// blocked is a deadlock verdict.
#[test]
fn a_local_error_poisons_the_peers_left_waiting() {
    type Case = fn(&mut Process) -> Result<()>;
    let poisoned_by = |rank| Err(Error::RankFailStop { rank });
    let cases: [(&str, Case, Vec<Result<()>>); 4] = [
        (
            // 3 → 2 → 0 ← 1: rank 2 cannot decode rank 3's byte.
            "reduce, one contributor of another type",
            |p| {
                if p.world_rank() == 3 {
                    p.reduce(WORLD, 0, &1u8, |a, b| a + b).map(|_| ())
                } else {
                    p.reduce(WORLD, 0, &1u64, |a, b| a + b).map(|_| ())
                }
            },
            vec![poisoned_by(2), Ok(()), Err(Error::TypeMismatch), Ok(())],
        ),
        (
            "bcast, root without a value",
            |p| p.bcast::<u64>(WORLD, 0, None).map(|_| ()),
            vec![
                Err(Error::InvalidState("bcast root must supply a value")),
                poisoned_by(0),
                poisoned_by(0),
            ],
        ),
        (
            "scatter, root one value short",
            |p| p.scatter(WORLD, 0, Some(&[1u64, 2][..])).map(|_| ()),
            vec![
                Err(Error::InvalidState("scatter root must supply one value per active rank")),
                poisoned_by(0),
                poisoned_by(0),
            ],
        ),
        (
            // The control: everyone is owed, nothing was sent yet.
            "alltoall, one caller one value short",
            |p| {
                let values = vec![0u64; if p.world_rank() == 1 { 2 } else { 3 }];
                p.alltoall(WORLD, &values).map(|_| ())
            },
            vec![
                poisoned_by(1),
                Err(Error::InvalidState("alltoall needs one value per active rank")),
                poisoned_by(1),
            ],
        ),
    ];
    for (name, case, expected) in cases {
        let body = move |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            Ok(case(p))
        };
        refereed(expected.len(), FaultPlan::none(), body, |at, report| {
            for (rank, want) in expected.iter().enumerate() {
                assert_eq!(report.outcomes[rank].as_ok(), Some(want), "{name}, {at}: rank {rank}");
            }
        });
    }
}

/// The frame has one error exit, so no error inside a collective slips
/// past the communicator's handler — a payload that does not decode at
/// the `gather` root included.
#[test]
fn a_decode_error_is_fatal_under_errors_are_fatal() {
    let body = |p: &mut Process| {
        if p.world_rank() == 1 {
            p.gather(WORLD, 0, &1u8).map(|_| ())
        } else {
            p.gather(WORLD, 0, &1u64).map(|_| ())
        }
    };
    refereed(2, FaultPlan::none(), body, |at, report| {
        assert_eq!(report.outcomes[0], RankOutcome::Aborted { code: 1 }, "{at}");
    });
}

#[test]
fn reduce_sums_at_root() {
    for n in [1usize, 2, 4, 7, 9] {
        let body = |p: &mut Process| p.reduce(WORLD, 0, &(p.world_rank() as i64 + 1), |a, b| a + b);
        refereed(n, FaultPlan::none(), body, |at, report| {
            assert!(report.all_ok(), "{at}");
            let expected: i64 = (1..=n as i64).sum();
            assert_eq!(report.outcomes[0].as_ok(), Some(&Some(expected)), "{at}");
            for r in 1..n {
                assert_eq!(report.outcomes[r].as_ok(), Some(&None), "{at}");
            }
        });
    }
}

#[test]
fn reduce_to_nonzero_root() {
    let body = |p: &mut Process| p.reduce(WORLD, 3, &(p.world_rank() as u64), |a, b| a.max(b));
    refereed(5, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        assert_eq!(report.outcomes[3].as_ok(), Some(&Some(4)), "{at}");
    });
}

#[test]
fn allreduce_everyone_gets_the_sum() {
    for n in [1usize, 3, 6, 8] {
        let body = |p: &mut Process| p.allreduce(WORLD, &(1u64 << p.world_rank()), |a, b| a | b);
        refereed(n, FaultPlan::none(), body, |at, report| {
            assert!(report.all_ok(), "{at}");
            for o in &report.outcomes {
                assert_eq!(o.as_ok(), Some(&((1u64 << n) - 1)), "{at}");
            }
        });
    }
}

#[test]
fn reduce_with_dead_contributor_errors_at_root() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        match p.reduce(WORLD, 0, &1i64, |a, b| a + b) {
            Ok(v) => Ok(v),
            Err(Error::RankFailStop { .. }) => Ok(Some(-1)),
            Err(e) => Err(e),
        }
    };
    // Rank 3's contribution is unrecoverable: the root must error (-1),
    // never report a silently partial sum.
    refereed(6, dies_entering(3), body, |at, report| {
        let root = report.outcomes[0].as_ok();
        assert_eq!(root, Some(&Some(-1)), "{at}: root must observe the failure");
    });
}

#[test]
fn allreduce_after_validate_excludes_failed() {
    let allreduce = |p: &mut Process| p.allreduce(WORLD, &1u64, |a, b| a + b);
    after_validate(5, 2, allreduce, |at, report| {
        for r in [0usize, 1, 3, 4] {
            assert_eq!(report.outcomes[r].as_ok(), Some(&4), "{at}: rank {r}: survivors' sum");
        }
    });
}

#[test]
fn scan_computes_inclusive_prefixes() {
    let body = |p: &mut Process| p.scan(WORLD, &(p.world_rank() as i64 + 1), |a, b| a + b);
    refereed(6, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        for (r, o) in report.outcomes.iter().enumerate() {
            let expected: i64 = (1..=(r as i64 + 1)).sum();
            assert_eq!(o.as_ok(), Some(&expected), "{at}: rank {r}");
        }
    });
}

#[test]
fn scan_of_one() {
    let body = |p: &mut Process| p.scan(WORLD, &41i32, |a, b| a + b);
    refereed(1, FaultPlan::none(), body, |at, report| {
        assert_eq!(report.outcomes[0].as_ok(), Some(&41), "{at}");
    });
}

#[test]
fn scan_with_dead_middle_errors_downstream_not_hangs() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        match p.scan(WORLD, &1i64, |a, b| a + b) {
            Ok(v) => Ok(Some(v)),
            Err(Error::RankFailStop { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    };
    refereed(5, dies_entering(2), body, |at, report| {
        // Ranks upstream of the failure may succeed with correct
        // prefixes; everyone downstream must error.
        for (r, prefix) in [(0, 1), (1, 2)] {
            if let Some(Some(v)) = report.outcomes[r].as_ok() {
                assert_eq!(*v, prefix, "{at}: rank {r}");
            }
        }
        for r in 3..5 {
            assert_eq!(
                report.outcomes[r].as_ok(),
                Some(&None),
                "{at}: rank {r} is downstream of the failure"
            );
        }
    });
}
