//! Runtime integration tests: point-to-point matching, probes and
//! requests, error handlers, failure detection and recognition,
//! validation and communicators, kills from outside a blocked rank and
//! seeded chaos. Each test runs every seed
//! of `dst::figures::SEEDS` under the scheduler, so a failure replays
//! from its seed (DESIGN.md §6): `refereed` where the seed's clean twin
//! finishes, `seeded` where a rank waits for a death.

use dst::{await_death, figures::SEEDS, idle, referee, refereed, reports, seeded, Kills, Workload};
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{Datatype, Error, ErrorHandler, Event, Process, RankOutcome, RankState, Src, WORLD};

#[test]
fn sendrecv_exchanges_around_a_ring() {
    let n = 5;
    let body = |p: &mut Process| {
        let me = p.comm_rank(WORLD)?;
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let (v, st): (usize, _) = p.sendrecv(WORLD, right, 4, &me, Src::Rank(left), 4)?;
        assert_eq!(st.source, Some(left));
        Ok(v)
    };
    refereed(n, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        for (r, o) in report.outcomes.iter().enumerate() {
            assert_eq!(*o.as_ok().unwrap(), (r + n - 1) % n, "{at}");
        }
    });
}

#[test]
fn waitall_collects_everything_in_order() {
    let body = |p: &mut Process| {
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
    };
    refereed(3, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        assert_eq!(report.outcomes[0].as_ok(), Some(&vec![11, 21, 12, 22]), "{at}");
    });
}

#[test]
fn waitsome_returns_ready_subset() {
    let body = |p: &mut Process| {
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
    };
    refereed(2, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        assert_eq!(report.outcomes[0].as_ok(), Some(&77), "{at}");
    });
}

#[test]
fn test_polls_without_blocking() {
    let body = |p: &mut Process| {
        if p.world_rank() == 0 {
            let req = p.irecv(WORLD, Src::Rank(1), 1)?;
            // Rank 1 sends only after our go-message: `test` must
            // return at once, with nothing.
            assert!(p.test(req)?.is_none(), "test() completed before the send");
            p.send(WORLD, 1, 0, &0u8)?;
            let c = p.wait(req)?;
            Ok(i64::from_bytes(&c.data)?)
        } else {
            p.recv::<u8>(WORLD, Src::Rank(0), 0)?;
            p.send(WORLD, 0, 1, &42i64)?;
            Ok(0)
        }
    };
    refereed(2, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        assert_eq!(report.outcomes[0].as_ok(), Some(&42), "{at}");
    });
}

#[test]
fn iprobe_and_probe_report_without_consuming() {
    let body = |p: &mut Process| {
        if p.world_rank() == 0 {
            // Rank 1 sends only after our go-message, so nothing can
            // match yet — the None is deterministic, not a race win.
            assert!(p.iprobe(WORLD, Src::Any, 5)?.is_none());
            p.send(WORLD, 1, 0, &0u8)?;
            let st = p.probe(WORLD, Src::Rank(1), 5)?;
            assert_eq!((st.len, st.source), (8, Some(1)));
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
    };
    refereed(2, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        assert_eq!(report.outcomes[0].as_ok(), Some(&99), "{at}");
    });
}

/// One failure verdict for a posted receive and a blocking probe: the
/// same `RankFailStop` against a dead peer, the same PROC_NULL status
/// once it is recognized, the same lowest unrecognized failure under
/// `ANY_SOURCE`.
#[test]
fn probe_and_posted_receive_agree_on_a_dead_peer() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() != 0 {
            return Err(p.fail_now());
        }
        let recv = |p: &mut Process, src: Src| {
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
    };
    seeded(3, FaultPlan::none(), body, |at, report| {
        assert_eq!(report.outcomes[0], RankOutcome::Ok(()), "{at}");
    });
}

#[test]
fn isend_completes_eagerly() {
    let body = |p: &mut Process| {
        if p.world_rank() == 0 {
            let req = p.isend(WORLD, 1, 3, &5u32)?;
            let c = p.wait(req)?;
            assert!(c.data.is_empty());
            Ok(0)
        } else {
            let (v, _) = p.recv::<u32>(WORLD, Src::Rank(0), 3)?;
            Ok(v)
        }
    };
    refereed(2, FaultPlan::none(), body, |at, report| {
        assert_eq!(report.outcomes[1].as_ok(), Some(&5), "{at}");
    });
}

#[test]
fn kill_from_outside_reaches_a_blocked_rank() {
    // Rank 0's first wait pass kills rank 1, which is (or is about to
    // be) blocked in a receive it would otherwise hold forever; rank
    // 0's detector receive fires.
    let plan = FaultPlan::none().with(FaultRule::kill_other(0, 1, Trigger::on(HookKind::Tick)));
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let req = p.irecv(WORLD, Src::Rank((p.world_rank() + 1) % 2), 1)?;
        match p.wait(req) {
            Err(Error::RankFailStop { rank }) => Ok(rank),
            Err(e) if e.is_terminal() => Err(e),
            other => panic!("unexpected: {other:?}"),
        }
    };
    seeded(2, plan, body, |at, report| {
        assert!(report.outcomes[1].is_failed(), "{at}");
        assert_eq!(report.outcomes[0].as_ok(), Some(&1), "{at}");
    });
}

#[test]
fn comm_split_excludes_async_killed_rank() {
    // Rank 2 dies before submitting to the split; the others complete
    // the split without it (shrink semantics).
    let plan = FaultPlan::none().kill_at(2, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 2 {
            return idle(p);
        }
        let sub = p.comm_split(WORLD, Some(0), 0)?.expect("in color 0");
        p.comm_size(sub)
    };
    seeded(3, plan, body, |at, report| {
        assert_eq!(report.outcomes[0].as_ok(), Some(&2), "{at}");
        assert_eq!(report.outcomes[1].as_ok(), Some(&2), "{at}");
    });
}

#[test]
fn dup_of_split_communicator_works() {
    let body = |p: &mut Process| {
        let color = (p.world_rank() / 2) as i64;
        let sub = p.comm_split(WORLD, Some(color), 0)?.expect("colored");
        let dup = p.comm_dup(sub)?;
        let peer = 1 - p.comm_rank(dup)?;
        let (v, _): (usize, _) = p.sendrecv(dup, peer, 1, &p.world_rank(), Src::Rank(peer), 1)?;
        // The peer shares my color block.
        assert_eq!(v / 2, p.world_rank() / 2);
        Ok(())
    };
    refereed(4, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn trace_records_protocol_events() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 1 {
            return idle(p);
        }
        // Wait for the failure, then trip a posted receive on it.
        await_death(p, 1)?;
        let req = p.irecv(WORLD, Src::Rank(1), 1)?;
        let _ = p.wait(req);
        Ok(())
    };
    seeded(2, plan, body, |at, report| {
        let kills = report
            .trace
            .iter()
            .filter(|te| matches!(te.event, Event::Killed { rank: 1 }))
            .count();
        assert_eq!(kills, 1, "{at}: exactly one kill traced");
        let fires = report
            .trace
            .iter()
            .filter(|te| matches!(te.event, Event::RecvFailure { rank: 0, peer: 1 }))
            .count();
        // One for `await_death`'s receive, one for the receive after it.
        assert_eq!(fires, 2, "{at}: the failure-detector completion must be traced");
    });
}

/// The generic run-through pattern: collectives in a retry loop
/// bracketed by validate_all. Each seed kills none, one or two of ranks
/// `1..6`, drawn from the seed's clean twin.
struct Chaos;

impl Workload for Chaos {
    type Report = (u64, usize);

    fn body(&self, p: &mut Process) -> ftmpi::Result<(u64, usize)> {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        // Keep reducing until a round succeeds with no new failures
        // (recovery-block pattern).
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
    }

    fn kills(&self, _seed: u64, _ranks: usize) -> Kills {
        Kills::Victims(1..6)
    }
}

#[test]
fn chaos_allreduce_with_validate_retry_runs_through() {
    referee(&Chaos, &[6], SEEDS, |at, _, report, _| {
        // All survivors agree on the final sum and on the closing
        // validate's failed count.
        let survivors: Vec<&(u64, usize)> = reports(at, report).into_iter().flatten().collect();
        let &(sum, failed) = survivors[0];
        assert!(survivors.iter().all(|&&s| s == (sum, failed)), "{at}: {survivors:?}");
        // The sum counts the ranks the closing validate found alive. A
        // kill on a later wait pass of that validate ends a rank
        // `Failed` after it was counted, so the ranks that end `Ok` may
        // be fewer, never more.
        assert_eq!(sum as usize, 6 - failed, "{at}: sum = survivor count");
        assert!(survivors.len() <= 6 - failed, "{at}: an uncounted rank survived");
    });
}

#[test]
fn fatal_handler_on_dup_is_independent() {
    // ERRORS_RETURN on WORLD, default (fatal) on the dup: an error on
    // the dup must abort the job even though WORLD would have returned.
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let body = |p: &mut Process| -> ftmpi::Result<()> {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let dup = p.comm_dup(WORLD)?; // keeps ERRORS_ARE_FATAL
        if p.world_rank() == 1 {
            return idle(p);
        }
        await_death(p, 1)?;
        // This send errors -> fatal handler -> job abort; the call
        // returns the Aborted error for this rank to propagate.
        let err = p.send(dup, 1, 1, &0i32).unwrap_err();
        assert!(matches!(err, Error::Aborted { .. }), "got {err:?}");
        Err(err)
    };
    seeded(2, plan, body, |at, report| {
        assert!(matches!(report.outcomes[0], RankOutcome::Aborted { .. }), "{at}");
    });
}

#[test]
fn self_failure_unwinds_every_subsequent_call() {
    let plan = FaultPlan::none().kill_at(0, HookKind::BeforeSend, 2);
    let body = |p: &mut Process| {
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
    };
    // Rank 1 gets the send made before the death, unless a `Drain`
    // delay keeps it queued past the pass that reports the death
    // (DESIGN.md §3): the seeds where it does are pinned.
    let mut overtaken = Vec::new();
    seeded(2, plan, body, |at, report| {
        assert!(report.outcomes[0].is_failed(), "{at}");
        match &report.outcomes[1] {
            RankOutcome::Ok(v) => assert_eq!(*v, 1, "{at}"),
            RankOutcome::Err(Error::RankFailStop { rank: 0 }) => overtaken.push(at.to_owned()),
            other => panic!("{at}: rank 1 ended as {other:?}"),
        }
    });
    let pinned = [3, 6, 9, 10, 25, 27].map(|seed| format!("2 ranks, seed {seed}"));
    assert_eq!(overtaken, pinned, "the seeds where the death overtakes the message moved");
}

/// A kill at `AfterValidate` lands while the rank consumes the
/// decision: the validate call itself must unwind with `SelfFailed`,
/// for every rank and whichever rank's join made the decision, so a
/// process its peers see as dead never finishes its body.
#[test]
fn a_rank_killed_at_after_validate_fails_and_never_returns_ok() {
    for victim in 0..3 {
        let plan = FaultPlan::none().kill_at(victim, HookKind::AfterValidate, 1);
        let body = |p: &mut Process| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            p.comm_validate_all(WORLD)
        };
        refereed(3, plan, body, |at, report| {
            for (rank, outcome) in report.outcomes.iter().enumerate() {
                if rank == victim {
                    assert!(outcome.is_failed(), "{at}: victim {victim} ended as {outcome:?}");
                } else {
                    assert_eq!(outcome.as_ok(), Some(&0), "{at}: rank {rank}, victim {victim}");
                }
            }
        });
    }
}

/// A round every rank arrived at completes `Ok` everywhere, also for a
/// rank that polls it only after rank 3, done with it, died sending.
#[test]
fn ibarrier_completes_when_all_arrive() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let req = p.ibarrier(WORLD)?;
        let c = p.wait(req)?;
        assert!(c.data.is_empty());
        if p.world_rank() == 3 {
            p.send(WORLD, 0, 1, &())?;
        }
        Ok(())
    };
    refereed(4, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
    let plan = FaultPlan::none().kill_at(3, HookKind::BeforeSend, 1);
    refereed(4, plan, body, |at, report| {
        for (rank, outcome) in report.outcomes.iter().enumerate().take(3) {
            assert_eq!(*outcome, RankOutcome::Ok(()), "{at}: rank {rank}");
        }
    });
}

#[test]
fn ibarrier_errors_uniformly_when_a_rank_dies_before_arriving() {
    let plan = FaultPlan::none().kill_at(2, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 2 {
            return idle(p);
        }
        let req = p.ibarrier(WORLD)?;
        match p.wait(req) {
            Err(Error::RankFailStop { rank }) => Ok(rank),
            other => panic!("expected uniform barrier failure, got {other:?}"),
        }
    };
    seeded(4, plan, body, |at, report| {
        for r in [0usize, 1, 3] {
            assert_eq!(report.outcomes[r].as_ok(), Some(&2), "{at}: rank {r}");
        }
    });
}

#[test]
fn ibarrier_retry_excludes_the_dead_and_succeeds() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 1 {
            return idle(p);
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
    };
    seeded(3, plan, body, |at, report| {
        let r0 = *report.outcomes[0].as_ok().unwrap();
        let r2 = *report.outcomes[2].as_ok().unwrap();
        assert_eq!(r0, r2, "{at}: both survivors exit in the same round");
        assert!(r0 >= 1, "{at}");
    });
}

#[test]
fn ibarrier_composes_with_waitany() {
    let body = |p: &mut Process| {
        let never = p.irecv(WORLD, Src::Rank((p.world_rank() + 1) % 2), 77)?;
        let bar = p.ibarrier(WORLD)?;
        let out = p.waitany(&[never, bar])?;
        assert_eq!(out.index, 1, "the barrier completes first");
        assert!(out.result.is_ok());
        p.cancel(never)?;
        Ok(())
    };
    refereed(2, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn recv_into_copies_and_truncates() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 0 {
            p.send(WORLD, 1, 1, &0x0102030405060708u64)?;
            p.send(WORLD, 1, 2, &0xAABBCCDDu32)?;
            return Ok(());
        }
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
        Ok(())
    };
    refereed(2, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn two_rank_roundtrip() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 0 {
            p.send(WORLD, 1, 1, &42i32)?;
            let (v, st) = p.recv::<i32>(WORLD, Src::Rank(1), 1)?;
            assert_eq!(st.source, Some(1));
            Ok(v)
        } else {
            let (v, _) = p.recv::<i32>(WORLD, Src::Rank(0), 1)?;
            p.send(WORLD, 0, 1, &(v + 1))?;
            Ok(v)
        }
    };
    refereed(2, FaultPlan::none(), body, |at, report| {
        assert!(report.all_ok(), "{at}");
        assert_eq!(report.outcomes[0].as_ok(), Some(&43), "{at}");
        assert_eq!(report.outcomes[1].as_ok(), Some(&42), "{at}");
    });
}

#[test]
fn self_send_works() {
    let body = |p: &mut Process| {
        p.send(WORLD, 0, 1, &7u64)?;
        let (v, _) = p.recv::<u64>(WORLD, Src::Rank(0), 1)?;
        Ok(v)
    };
    refereed(1, FaultPlan::none(), body, |at, report| {
        assert_eq!(report.outcomes[0].as_ok(), Some(&7), "{at}");
    });
}

#[test]
fn any_source_matches_and_reports_sender() {
    let body = |p: &mut Process| {
        if p.world_rank() == 0 {
            let mut seen = vec![];
            for _ in 0..2 {
                let (v, st) = p.recv::<usize>(WORLD, Src::Any, 1)?;
                assert_eq!(Some(v), st.source);
                seen.push(v);
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![1, 2]);
        } else {
            p.send(WORLD, 0, 1, &p.world_rank())?;
        }
        Ok(())
    };
    refereed(3, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn tag_isolation() {
    let body = |p: &mut Process| {
        if p.world_rank() == 0 {
            p.send(WORLD, 1, 5, &5i32)?;
            p.send(WORLD, 1, 6, &6i32)?;
        } else {
            // Receive tag 6 first even though 5 was sent first.
            let (v6, _) = p.recv::<i32>(WORLD, Src::Rank(0), 6)?;
            let (v5, _) = p.recv::<i32>(WORLD, Src::Rank(0), 5)?;
            assert_eq!((v5, v6), (5, 6));
        }
        Ok(())
    };
    refereed(2, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn default_error_handler_aborts_job() {
    // Rank 1 dies; rank 0 sends to it with ERRORS_ARE_FATAL until it
    // sees the death, which the fatal handler turns into a job abort.
    // Each send is a scheduling point, so the victim gets its turn.
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let body = |p: &mut Process| -> ftmpi::Result<()> {
        if p.world_rank() == 1 {
            return idle(p);
        }
        loop {
            p.send(WORLD, 1, 1, &0i32)?;
        }
    };
    seeded(2, plan, body, |at, report| {
        assert_eq!(report.outcomes[0], RankOutcome::Aborted { code: 1 }, "{at}");
        assert!(report.outcomes[1].is_failed(), "{at}");
    });
}

#[test]
fn send_to_failed_rank_errors_with_errors_return() {
    // As above, but the send returns the death: each pass of the loop
    // is a scheduling point.
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 1 {
            return idle(p);
        }
        loop {
            match p.send(WORLD, 1, 1, &0i32) {
                Err(Error::RankFailStop { rank }) => return Ok(rank),
                Err(e) => return Err(e),
                Ok(()) => {}
            }
        }
    };
    seeded(2, plan, body, |at, report| {
        assert_eq!(report.outcomes[0].as_ok(), Some(&1), "{at}");
        assert!(report.outcomes[1].is_failed(), "{at}");
    });
}

#[test]
fn posted_irecv_completes_in_error_on_peer_failure() {
    // The failure-detector idiom: rank 0 posts a receive that rank 1
    // will never satisfy; rank 1 is killed; the receive must error.
    let plan = FaultPlan::none().kill_at(1, HookKind::AfterSend, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 0 {
            let detector = p.irecv(WORLD, Src::Rank(1), 1)?;
            // Handshake so rank 1 only dies after we've posted.
            p.send(WORLD, 1, 2, &())?;
            match p.wait(detector) {
                Err(Error::RankFailStop { rank }) => Ok(rank),
                other => panic!("expected failure detection, got {other:?}"),
            }
        } else {
            p.recv::<()>(WORLD, Src::Rank(0), 2)?;
            // The AfterSend hook fires on this send and kills us.
            p.send(WORLD, 0, 3, &())?;
            Ok(usize::MAX)
        }
    };
    seeded(2, plan, body, |at, report| {
        assert_eq!(report.outcomes[0].as_ok(), Some(&1), "{at}");
        assert!(report.outcomes[1].is_failed(), "{at}");
    });
}

#[test]
fn any_source_recv_errors_on_unrecognized_failure() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        match p.world_rank() {
            0 => {
                let req = p.irecv(WORLD, Src::Any, 1)?;
                match p.wait(req) {
                    Err(Error::RankFailStop { rank }) => Ok(rank),
                    other => panic!("expected RankFailStop, got {other:?}"),
                }
            }
            1 => idle(p),
            _ => Ok(0),
        }
    };
    seeded(3, plan, body, |at, report| {
        assert_eq!(report.outcomes[0].as_ok(), Some(&1), "{at}");
    });
}

#[test]
fn recognized_rank_has_proc_null_semantics() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 1 {
            return idle(p);
        }
        // Wait for rank 1 to die, then recognize it.
        await_death(p, 1)?;
        assert_eq!(p.comm_validate_clear(WORLD, &[1])?, 1);
        assert_eq!(p.comm_validate_rank(WORLD, 1)?.state, RankState::Null);
        // Send is dropped, receive completes immediately.
        p.send(WORLD, 1, 1, &1i32)?;
        let (data, st) = p.recv_bytes(WORLD, Src::Rank(1), 1)?;
        assert!(st.is_proc_null());
        assert!(data.is_empty());
        Ok(())
    };
    seeded(2, plan, body, |at, report| {
        assert_eq!(report.outcomes[0], RankOutcome::Ok(()), "{at}");
    });
}

#[test]
fn validate_all_agrees_everywhere() {
    let plan = FaultPlan::none().kill_at(2, HookKind::Tick, 1);
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        if p.world_rank() == 2 {
            return idle(p);
        }
        // The failure happens before validating, so the agreed count
        // is deterministic for the assertion.
        await_death(p, 2)?;
        let count = p.comm_validate_all(WORLD)?;
        assert_eq!(p.comm_validate_rank(WORLD, 2)?.state, RankState::Null);
        Ok(count)
    };
    seeded(4, plan, body, |at, report| {
        for r in [0usize, 1, 3] {
            assert_eq!(report.outcomes[r].as_ok(), Some(&1), "{at}: rank {r}");
        }
        assert!(report.outcomes[2].is_failed(), "{at}");
    });
}

#[test]
fn comm_dup_isolates_contexts() {
    let body = |p: &mut Process| {
        let dup = p.comm_dup(WORLD)?;
        if p.world_rank() == 0 {
            p.send(WORLD, 1, 1, &1i32)?;
            p.send(dup, 1, 1, &2i32)?;
        } else {
            // Receive from the dup first: context isolation means the
            // WORLD message (sent first) cannot match.
            let (vd, _) = p.recv::<i32>(dup, Src::Rank(0), 1)?;
            let (vw, _) = p.recv::<i32>(WORLD, Src::Rank(0), 1)?;
            assert_eq!((vd, vw), (2, 1));
        }
        Ok(())
    };
    refereed(2, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn comm_split_by_parity() {
    let body = |p: &mut Process| {
        let color = (p.world_rank() % 2) as i64;
        let sub = p.comm_split(WORLD, Some(color), 0)?.expect("joined a color");
        assert_eq!(p.comm_size(sub)?, 2);
        // Exchange inside the split comm.
        let peer = 1 - p.comm_rank(sub)?;
        let (v, _): (usize, _) = p.sendrecv(sub, peer, 1, &p.world_rank(), Src::Rank(peer), 1)?;
        assert_eq!(v % 2, p.world_rank() % 2, "peer shares parity");
        Ok(())
    };
    refereed(4, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn cancel_frees_pending_request() {
    let body = |p: &mut Process| {
        let req = p.irecv(WORLD, Src::Rank(0), 1)?;
        assert_eq!(p.live_requests(), 1);
        p.cancel(req)?;
        assert_eq!(p.live_requests(), 0);
        Ok(())
    };
    refereed(1, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}

#[test]
fn invalid_args_rejected() {
    let body = |p: &mut Process| {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        assert!(matches!(p.send(WORLD, 5, 1, &0i32), Err(Error::InvalidRank { rank: 5 })));
        assert!(matches!(p.send(WORLD, 0, -3, &0i32), Err(Error::InvalidTag { tag: -3 })));
        assert!(matches!(p.iprobe(WORLD, Src::Rank(5), 1), Err(Error::InvalidRank { rank: 5 })));
        assert!(matches!(p.comm_validate_rank(WORLD, 9), Err(Error::InvalidRank { .. })));
        assert!(matches!(p.waitany(&[]), Err(Error::InvalidRequest)));
        assert!(matches!(p.waitsome(&[]), Err(Error::InvalidRequest)));
        Ok(())
    };
    refereed(1, FaultPlan::none(), body, |at, report| assert!(report.all_ok(), "{at}"));
}
