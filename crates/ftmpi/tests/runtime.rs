//! Runtime integration tests: the parts of the MPI-like surface the
//! ring does not exercise, plus failure semantics under kills from
//! outside a blocked rank and seeded chaos.

use std::time::Duration;

use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{
    run, run_default, Error, ErrorHandler, Event, RankOutcome, RankState, Src, UniverseConfig,
    WORLD,
};

fn wd() -> Duration {
    Duration::from_secs(60)
}

#[test]
fn sendrecv_exchanges_around_a_ring() {
    let n = 5;
    let report = run_default(n, move |p| {
        let me = p.comm_rank(WORLD)?;
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let (v, st): (usize, _) = p.sendrecv(WORLD, right, 4, &me, Src::Rank(left), 4)?;
        assert_eq!(st.source, Some(left));
        Ok(v)
    });
    assert!(report.all_ok());
    for (r, o) in report.outcomes.iter().enumerate() {
        assert_eq!(*o.as_ok().unwrap(), (r + n - 1) % n);
    }
}

#[test]
fn waitall_collects_everything_in_order() {
    let report = run_default(3, |p| {
        if p.world_rank() == 0 {
            // Two messages from each peer, interleaved tags.
            let reqs = vec![
                p.irecv(WORLD, Src::Rank(1), 1)?,
                p.irecv(WORLD, Src::Rank(2), 1)?,
                p.irecv(WORLD, Src::Rank(1), 2)?,
                p.irecv(WORLD, Src::Rank(2), 2)?,
            ];
            let out = p.waitall(&reqs)?;
            let values: Vec<i32> = out
                .into_iter()
                .map(|r| i32::from_bytes(&r.expect("all succeed").data).unwrap())
                .collect();
            Ok(values)
        } else {
            let base = p.world_rank() as i32 * 10;
            p.send(WORLD, 0, 1, &(base + 1))?;
            p.send(WORLD, 0, 2, &(base + 2))?;
            Ok(vec![])
        }
    });
    assert!(report.all_ok());
    assert_eq!(report.outcomes[0].as_ok(), Some(&vec![11, 21, 12, 22]));
}

use ftmpi::Datatype;

#[test]
fn waitsome_returns_ready_subset() {
    let report = run_default(2, |p| {
        if p.world_rank() == 0 {
            let never = p.irecv(WORLD, Src::Rank(1), 9)?;
            let soon = p.irecv(WORLD, Src::Rank(1), 1)?;
            let ready = p.waitsome(&[never, soon])?;
            assert_eq!(ready.len(), 1);
            assert_eq!(ready[0].0, 1, "only the tag-1 receive is ready");
            let v = i32::from_bytes(&ready[0].1.as_ref().unwrap().data).unwrap();
            p.cancel(never)?;
            Ok(v)
        } else {
            p.send(WORLD, 0, 1, &77i32)?;
            Ok(0)
        }
    });
    assert!(report.all_ok());
    assert_eq!(report.outcomes[0].as_ok(), Some(&77));
}

#[test]
fn test_polls_without_blocking() {
    let report = run_default(2, |p| {
        if p.world_rank() == 0 {
            let req = p.irecv(WORLD, Src::Rank(1), 1)?;
            // Poll until complete; must never block.
            let mut polls = 0u64;
            let v = loop {
                if let Some(c) = p.test(req)? {
                    break i64::from_bytes(&c.data)?;
                }
                polls += 1;
                std::thread::yield_now();
                if polls > 10_000_000 {
                    panic!("test() never completed");
                }
            };
            Ok(v)
        } else {
            // Give rank 0 time to poll a few times.
            std::thread::sleep(Duration::from_millis(5));
            p.send(WORLD, 0, 1, &42i64)?;
            Ok(0)
        }
    });
    assert!(report.all_ok());
    assert_eq!(report.outcomes[0].as_ok(), Some(&42));
}

#[test]
fn iprobe_and_probe_report_without_consuming() {
    let report = run_default(2, |p| {
        if p.world_rank() == 0 {
            // Rank 1 sends only after our go-message, so nothing can
            // match yet — the None is deterministic, not a race win.
            assert!(p.iprobe(WORLD, Src::Any, 5)?.is_none());
            p.send(WORLD, 1, 0, &0u8)?;
            let st = p.probe(WORLD, Src::Rank(1), 5)?;
            assert_eq!(st.len, 8);
            // Probe again: still there.
            assert!(p.iprobe(WORLD, Src::Rank(1), 5)?.is_some());
            let (v, _) = p.recv::<u64>(WORLD, Src::Rank(1), 5)?;
            assert!(p.iprobe(WORLD, Src::Rank(1), 5)?.is_none());
            Ok(v)
        } else {
            let (_, _) = p.recv::<u8>(WORLD, Src::Rank(0), 0)?;
            p.send(WORLD, 0, 5, &99u64)?;
            Ok(0)
        }
    });
    assert!(report.all_ok());
    assert_eq!(report.outcomes[0].as_ok(), Some(&99));
}

/// One failure verdict for a posted receive and a blocking probe: the
/// same `RankFailStop` against a dead peer, the same PROC_NULL status
/// once it is recognized, the same lowest unrecognized failure under
/// `ANY_SOURCE`.
#[test]
fn probe_and_posted_receive_agree_on_a_dead_peer() {
    let report = run(3, UniverseConfig::default().watchdog(wd()), |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() != 0 {
            return Err(p.fail_now());
        }
        let recv = |p: &mut ftmpi::Process, src: Src| {
            let req = p.irecv(WORLD, src, 5)?;
            p.wait(req).map(|c| c.status)
        };
        // Block until both peers are dead, highest first.
        assert_eq!(recv(p, Src::Rank(2)), Err(Error::RankFailStop { rank: 2 }));
        assert_eq!(recv(p, Src::Rank(1)), Err(Error::RankFailStop { rank: 1 }));
        assert_eq!(p.probe(WORLD, Src::Rank(1), 5), Err(Error::RankFailStop { rank: 1 }));
        assert_eq!(recv(p, Src::Any), Err(Error::RankFailStop { rank: 1 }));
        assert_eq!(p.probe(WORLD, Src::Any, 5), Err(Error::RankFailStop { rank: 1 }));

        assert_eq!(p.comm_validate_clear(WORLD, &[1])?, 1);
        assert!(recv(p, Src::Rank(1))?.is_proc_null());
        assert!(p.probe(WORLD, Src::Rank(1), 5)?.is_proc_null());
        assert_eq!(recv(p, Src::Any), Err(Error::RankFailStop { rank: 2 }));
        assert_eq!(p.probe(WORLD, Src::Any, 5), Err(Error::RankFailStop { rank: 2 }));
        // The nonblocking probe reports none of this.
        assert_eq!(p.iprobe(WORLD, Src::Rank(2), 5)?, None);
        Ok(())
    });
    assert_eq!(report.outcomes[0], RankOutcome::Ok(()));
}

#[test]
fn isend_completes_eagerly() {
    let report = run_default(2, |p| {
        if p.world_rank() == 0 {
            let req = p.isend(WORLD, 1, 3, &5u32)?;
            let c = p.wait(req)?;
            assert!(c.data.is_empty());
            Ok(0)
        } else {
            let (v, _) = p.recv::<u32>(WORLD, Src::Rank(0), 3)?;
            Ok(v)
        }
    });
    assert_eq!(report.outcomes[1].as_ok(), Some(&5));
}

#[test]
fn kill_from_outside_reaches_a_blocked_rank() {
    // Rank 0's first wait pass kills rank 1, which is (or is about to
    // be) blocked in a receive it would otherwise hold forever; rank
    // 0's detector receive fires.
    let plan = FaultPlan::none().with(FaultRule::kill_other(0, 1, Trigger::on(HookKind::Tick)));
    let report = run(
        2,
        UniverseConfig::with_plan(plan).watchdog(wd()),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            let req = p.irecv(WORLD, Src::Rank((p.world_rank() + 1) % 2), 1)?;
            match p.wait(req) {
                Err(Error::RankFailStop { rank }) => Ok(rank),
                Err(e) if e.is_terminal() => Err(e),
                other => panic!("unexpected: {other:?}"),
            }
        },
    );
    assert!(!report.hung);
    assert!(report.outcomes[1].is_failed());
    assert_eq!(report.outcomes[0].as_ok(), Some(&1));
}

#[test]
fn comm_split_excludes_async_killed_rank() {
    // Rank 2 dies before submitting to the split; the others complete
    // the split without it (shrink semantics).
    let plan = FaultPlan::none().kill_at(2, HookKind::Tick, 1);
    let report = run(
        3,
        UniverseConfig::with_plan(plan).watchdog(wd()),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 2 {
                // Dies at the first Tick inside this wait.
                let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                let _ = p.wait(req)?;
                return Ok(0);
            }
            let sub = p.comm_split(WORLD, Some(0), 0)?.expect("in color 0");
            Ok(p.comm_size(sub)?)
        },
    );
    assert!(!report.hung);
    assert_eq!(report.outcomes[0].as_ok(), Some(&2));
    assert_eq!(report.outcomes[1].as_ok(), Some(&2));
}

#[test]
fn dup_of_split_communicator_works() {
    let report = run_default(4, |p| {
        let color = (p.world_rank() / 2) as i64;
        let sub = p.comm_split(WORLD, Some(color), 0)?.expect("colored");
        let dup = p.comm_dup(sub)?;
        let peer = 1 - p.comm_rank(dup)?;
        let (v, _): (usize, _) = p.sendrecv(dup, peer, 1, &p.world_rank(), Src::Rank(peer), 1)?;
        // The peer shares my color block.
        assert_eq!(v / 2, p.world_rank() / 2);
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn trace_records_protocol_events() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let report = run(
        2,
        UniverseConfig::with_plan(plan).watchdog(wd()).traced(),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                let _ = p.wait(req)?;
                return Ok(());
            }
            // Wait for the failure, then trip a posted receive on it.
            while p.comm_validate_rank(WORLD, 1)?.state == RankState::Ok {
                std::thread::yield_now();
            }
            let req = p.irecv(WORLD, Src::Rank(1), 1)?;
            let _ = p.wait(req);
            Ok(())
        },
    );
    let kills = report
        .trace
        .iter()
        .filter(|te| matches!(te.event, Event::Killed { rank: 1 }))
        .count();
    assert_eq!(kills, 1, "exactly one kill traced");
    let fires = report
        .trace
        .iter()
        .filter(|te| matches!(te.event, Event::RecvFailure { rank: 0, peer: 1 }))
        .count();
    assert!(fires >= 1, "the failure-detector completion must be traced");
}

/// Seed `s` kills `s % 3` distinct ranks of `1..6`, each before one of
/// its first four collective entries, wait passes or validates.
fn chaos_plan(seed: u64) -> FaultPlan {
    (0..seed % 3).fold(FaultPlan::none(), |plan, i| {
        let victim = 1 + (seed + 2 * i) as usize % 5;
        let kind = [HookKind::BeforeCollective, HookKind::Tick, HookKind::BeforeValidate]
            [((seed / 3 + i) % 3) as usize];
        plan.kill_at(victim, kind, 1 + (seed + i) % 4)
    })
}

#[test]
fn chaos_allreduce_with_validate_retry_runs_through() {
    // The generic run-through pattern: collectives in a retry loop
    // bracketed by validate_all, under seeded fault plans.
    for seed in 0..6u64 {
        let plan = chaos_plan(seed);
        let victims = plan.victims();
        let report = run(
            6,
            UniverseConfig::with_plan(plan).watchdog(wd()),
            |p| {
                p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
                // Keep reducing until a round succeeds with no new
                // failures (recovery-block pattern).
                let mut rounds = 0;
                loop {
                    rounds += 1;
                    assert!(rounds < 50, "retry loop must converge");
                    let before = p.comm_validate_all(WORLD)?;
                    let r = p.allreduce(WORLD, &1u64, |a, b| a + b);
                    let after = p.comm_validate_all(WORLD)?;
                    match r {
                        Ok(v) if before == after => return Ok((v, after)),
                        Ok(_) => continue,
                        Err(e) if e.is_terminal() => return Err(e),
                        Err(Error::RankFailStop { .. }) => continue,
                        Err(e) => return Err(e),
                    }
                }
            },
        );
        assert!(!report.hung, "seed {seed} (victims {victims:?}) hung");
        // All survivors agree on the final sum and on the closing
        // validate's failed count; victims scheduled but never
        // triggered survive.
        let survivors: Vec<usize> = report
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_ok())
            .map(|(r, _)| r)
            .collect();
        let mut sums = std::collections::HashSet::new();
        for &r in &survivors {
            sums.insert(*report.outcomes[r].as_ok().unwrap());
        }
        assert_eq!(sums.len(), 1, "seed {seed}: survivors disagree: {sums:?}");
        let (sum, failed) = *sums.iter().next().unwrap();
        // The sum counts the ranks the closing validate found alive. A
        // kill on a later wait pass of that validate ends a rank
        // `Failed` after it was counted, so the ranks that end `Ok` may
        // be fewer, never more.
        assert_eq!(sum as usize, 6 - failed, "seed {seed}: sum = survivor count");
        assert!(survivors.len() <= 6 - failed, "seed {seed}: an uncounted rank survived");
    }
}

#[test]
fn fatal_handler_on_dup_is_independent() {
    // ERRORS_RETURN on WORLD, default (fatal) on the dup: an error on
    // the dup must abort the job even though WORLD would have returned.
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let report: ftmpi::RunReport<()> = run(
        2,
        UniverseConfig::with_plan(plan).watchdog(wd()),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            let dup = p.comm_dup(WORLD)?; // keeps ERRORS_ARE_FATAL
            if p.world_rank() == 1 {
                let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                let _ = p.wait(req)?;
                return Ok(());
            }
            while p.comm_validate_rank(WORLD, 1)?.state == RankState::Ok {
                std::thread::yield_now();
            }
            // This send errors -> fatal handler -> job abort; the call
            // returns the Aborted error for this rank to propagate.
            let err = p.send(dup, 1, 1, &0i32).unwrap_err();
            assert!(matches!(err, Error::Aborted { .. }), "got {err:?}");
            Err(err)
        },
    );
    assert!(matches!(report.outcomes[0], RankOutcome::Aborted { .. }));
}

#[test]
fn self_failure_unwinds_every_subsequent_call() {
    let plan = FaultPlan::none().kill_at(0, HookKind::BeforeSend, 2);
    let report = run(
        2,
        UniverseConfig::with_plan(plan).watchdog(wd()),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 0 {
                p.send(WORLD, 1, 1, &1i32)?; // first send fine
                let err = p.send(WORLD, 1, 1, &2i32).unwrap_err();
                assert_eq!(err, Error::SelfFailed);
                // Every API call now fails the same way.
                assert_eq!(p.send(WORLD, 1, 1, &3i32).unwrap_err(), Error::SelfFailed);
                assert_eq!(p.comm_validate_all(WORLD).unwrap_err(), Error::SelfFailed);
                return Err(Error::SelfFailed);
            }
            let (v, _) = p.recv::<i32>(WORLD, Src::Rank(0), 1)?;
            Ok(v)
        },
    );
    assert!(report.outcomes[0].is_failed());
    assert_eq!(report.outcomes[1].as_ok(), Some(&1));
}

/// A kill at `AfterValidate` lands while the rank consumes the
/// decision: the validate call itself must unwind with `SelfFailed`,
/// for every rank and whichever rank's join made the decision, so a
/// process its peers see as dead never finishes its body.
#[test]
fn a_rank_killed_at_after_validate_fails_and_never_returns_ok() {
    for victim in 0..3 {
        let plan = FaultPlan::none().kill_at(victim, HookKind::AfterValidate, 1);
        let report = run(3, UniverseConfig::with_plan(plan).watchdog(wd()), |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            p.comm_validate_all(WORLD)
        });
        for (rank, outcome) in report.outcomes.iter().enumerate() {
            if rank == victim {
                assert!(outcome.is_failed(), "victim {victim} ended as {outcome:?}");
            } else {
                assert_eq!(outcome.as_ok(), Some(&0), "rank {rank}, victim {victim}");
            }
        }
    }
}

#[test]
fn ibarrier_completes_when_all_arrive() {
    let report = run_default(4, |p| {
        // Stagger arrivals a little.
        if p.world_rank() == 3 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let req = p.ibarrier(WORLD)?;
        let c = p.wait(req)?;
        assert!(c.data.is_empty());
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn ibarrier_errors_uniformly_when_a_rank_dies_before_arriving() {
    let plan = FaultPlan::none().kill_at(2, HookKind::Tick, 1);
    let report = run(
        4,
        UniverseConfig::with_plan(plan).watchdog(wd()),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 2 {
                let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                let _ = p.wait(req)?;
                return Ok(0);
            }
            let req = p.ibarrier(WORLD)?;
            match p.wait(req) {
                Err(Error::RankFailStop { rank }) => Ok(rank),
                other => panic!("expected uniform barrier failure, got {other:?}"),
            }
        },
    );
    assert!(!report.hung);
    for r in [0usize, 1, 3] {
        assert_eq!(report.outcomes[r].as_ok(), Some(&2), "rank {r}");
    }
}

#[test]
fn ibarrier_retry_excludes_the_dead_and_succeeds() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let report = run(
        3,
        UniverseConfig::with_plan(plan).watchdog(wd()),
        |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                let req = p.irecv(WORLD, Src::Rank(0), 9)?;
                let _ = p.wait(req)?;
                return Ok(0);
            }
            // Round 0 fails (rank 1 never arrives); round 1's required
            // set excludes it and succeeds.
            let mut rounds = 0;
            loop {
                rounds += 1;
                assert!(rounds < 10);
                let req = p.ibarrier(WORLD)?;
                match p.wait(req) {
                    Ok(_) => return Ok(rounds),
                    Err(Error::RankFailStop { .. }) => continue,
                    Err(e) => return Err(e),
                }
            }
        },
    );
    assert!(!report.hung);
    let r0 = *report.outcomes[0].as_ok().unwrap();
    let r2 = *report.outcomes[2].as_ok().unwrap();
    assert_eq!(r0, r2, "both survivors exit in the same round");
    assert!(r0 >= 1);
}

#[test]
fn ibarrier_composes_with_waitany() {
    let report = run_default(2, |p| {
        let never = p.irecv(WORLD, Src::Rank((p.world_rank() + 1) % 2), 77)?;
        let bar = p.ibarrier(WORLD)?;
        let out = p.waitany(&[never, bar])?;
        assert_eq!(out.index, 1, "the barrier completes first");
        assert!(out.result.is_ok());
        p.cancel(never)?;
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn recv_into_copies_and_truncates() {
    let report = run_default(2, |p| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 0 {
            p.send(WORLD, 1, 1, &0x0102030405060708u64)?;
            p.send(WORLD, 1, 2, &0xAABBCCDDu32)?;
            Ok(0)
        } else {
            // Big enough buffer: exact copy.
            let mut buf = [0u8; 16];
            let (n, st) = p.recv_into(WORLD, Src::Rank(0), 1, &mut buf)?;
            assert_eq!(n, 8);
            assert_eq!(st.len, 8);
            assert_eq!(&buf[..8], &0x0102030405060708u64.to_le_bytes());
            // Too small: truncation error, message still consumed.
            let mut tiny = [0u8; 2];
            match p.recv_into(WORLD, Src::Rank(0), 2, &mut tiny) {
                Err(Error::Truncated { got: 4, cap: 2 }) => {}
                other => panic!("expected truncation, got {other:?}"),
            }
            assert!(p.iprobe(WORLD, Src::Rank(0), 2)?.is_none(), "message consumed");
            Ok(0)
        }
    });
    assert!(report.all_ok());
}
