//! The respawn extension (DESIGN.md §7) under the deterministic
//! scheduler: a failed rank with budget left arrives at
//! `SchedPoint::Enter` again, and the grant that resumes it is its
//! revival, so a respawn race replays from its seed.
//!
//! Eight races, each swept over seeds `0..SEEDS`, each seed run twice
//! on one pool:
//!
//! * a receive posted on an incarnation that is replaced before the
//!   receiver looks again must error;
//! * a message a dead incarnation left queued never completes a receive
//!   posted on its successor;
//! * a revived rank reads generation 1, alive, and talks to a survivor;
//! * a recognition names the incarnation it recognized: the successor
//!   reads alive, and its own death reads failed, not `PROC_NULL`;
//! * a message queued at a dead incarnation never reaches its successor;
//! * a receive watches each incarnation in turn, and errors when each
//!   dies;
//! * the task farm re-queues the task a dead worker held;
//! * the farm re-queues both tasks of a worker that dies twice and is
//!   revived twice.
//!
//! Each seed's two runs leave byte-identical decision logs; both
//! outcomes of each race are reached; each race's property holds on
//! every seed; and the FNV-1a digest of every log and report is pinned.
//! Rank bodies block, never spin: `comm_validate_rank` is not a
//! scheduling point, so a spin on it would never yield.
//!
//! One defect no simulated run can show is the order inside
//! `Shared::respawn` (the mailbox is emptied while the rank still reads
//! failed): nothing yields in between. A `debug_assert!` there makes
//! every revival here fail if the order is reversed.

use std::fmt::Debug;

use dst::{Body, Scheduler, SeedRunner};
use faultsim::{FaultPlan, HookKind};
use ftmpi::{
    Error, ErrorHandler, Event, Process, RankInfo, RankState, RunReport, Src, Tag, TimedEvent,
    UniverseConfig, UniversePool, WORLD,
};
use ftring::apps::{expected_results, run_farm, FarmOutcome, FarmResult};

const SEEDS: u64 = 500;

/// Logical steps before the scheduler's budget verdict in the budget
/// test; far above what any body takes.
const BUDGET: u64 = 10_000;

/// FNV-1a offset basis: every digest below starts here.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over both bodies' decision logs, outcomes and generations,
/// in seed order.
const DIGEST: u64 = 0xac61_5f98_b2bf_37fc;

/// The same for each race added after the first two, in the order of
/// the tests below.
const GENERATION_ONE_DIGEST: u64 = 0x9afb_0a4a_2a99_a6cd;
const RECOGNITION_DIGEST: u64 = 0xc09b_1b64_055b_de11;
const LOST_MAIL_DIGEST: u64 = 0x3229_6a18_f6db_b749;
const REARM_DIGEST: u64 = 0xb4ac_c22b_1601_7f36;
const FARM_REQUEUE_DIGEST: u64 = 0x0c88_7077_06a7_d60a;
const FARM_CRASH_LOOP_DIGEST: u64 = 0xe17b_49e0_9053_e2a6;

/// Tags: nobody ever sends `NEVER`.
const GO: Tag = 1;
const HELLO: Tag = 2;
const MAIL: Tag = 3;
const ANSWER: Tag = 4;
const NEVER: Tag = 9;

/// Rank 1's first incarnation dies once it has rank 0's "go"; its
/// successor returns at once. Rank 0 posted a receive from rank 1
/// before the "go": it must error whether the revival comes before its
/// next look or after. Judged by rank 1's current state, it would wait
/// forever for generation 1, which never sends.
fn replaced_incarnation(p: &mut Process) -> ftmpi::Result<Option<Error>> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    if p.world_rank() == 1 {
        if p.generation() == 0 {
            p.recv::<()>(WORLD, Src::Rank(0), 1)?;
            return Err(p.fail_now());
        }
        return Ok(None);
    }
    let req = p.irecv(WORLD, Src::Rank(1), 2)?;
    p.send(WORLD, 1, 1, &())?;
    Ok(p.wait(req).err())
}

/// What rank 0 saw of rank 1's messages.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stale {
    /// Rank 1's generation when rank 0 posted its receive.
    posted_on: u32,
    /// The generation that receive took, or its error.
    got: Result<u32, Error>,
    /// Whether a probe naming rank 1 then finds a message.
    exact: bool,
    /// The source an `ANY_SOURCE` probe then finds.
    any: Option<usize>,
}

/// Every incarnation of rank 1 sends its generation to rank 0, and the
/// first then dies. Rank 0 receives one message naming rank 1, then
/// probes by name and by `ANY_SOURCE`. Its receive must take the
/// message of the incarnation it was posted on, and none other.
fn stale_message(p: &mut Process) -> ftmpi::Result<Option<Stale>> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    if p.world_rank() == 1 {
        p.send(WORLD, 0, 1, &p.generation())?;
        return match p.generation() {
            0 => Err(p.fail_now()),
            _ => Ok(None),
        };
    }
    // Posting is not a scheduling point: no revival falls in between.
    let posted_on = p.comm_validate_rank(WORLD, 1)?.generation;
    let got = p.recv::<u32>(WORLD, Src::Rank(1), 1).map(|(g, _)| g);
    let exact = p.iprobe(WORLD, Src::Rank(1), 1)?.is_some();
    let any = p.iprobe(WORLD, Src::Any, 1)?.and_then(|s| s.source);
    Ok(Some(Stale { posted_on, got, exact, any }))
}

/// Rank 0 takes generation 1's hello from `ANY_SOURCE`, which names no
/// incarnation. If it looks while generation 0 is dead and
/// unrecognized, that receive errors first: rank 0 recognizes the
/// death and looks again. Returns the hello and, if rank 0 saw the
/// death, rank 1's state right after the recognition. Nothing yields
/// between the error and the recognition, so it names generation 0.
fn await_hello(p: &mut Process) -> ftmpi::Result<(u32, Option<RankState>)> {
    match p.recv::<u32>(WORLD, Src::Any, HELLO) {
        Ok((generation, _)) => Ok((generation, None)),
        Err(Error::RankFailStop { rank: 1 }) => {
            p.comm_validate_clear(WORLD, &[1])?;
            let recognized = p.comm_validate_rank(WORLD, 1)?.state;
            Ok((p.recv::<u32>(WORLD, Src::Any, HELLO)?.0, Some(recognized)))
        }
        Err(e) => Err(e),
    }
}

/// What rank 0 saw of a revival.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Revival {
    /// The generation generation 1's hello carried.
    hello: u32,
    /// Rank 1's state right after rank 0 recognized generation 0, if
    /// rank 0 saw it dead.
    recognized: Option<RankState>,
    /// Rank 1 as rank 0 read it after the hello.
    revived: RankInfo,
    /// What rank 0 then heard from rank 1, or its error.
    then: Result<i32, Error>,
}

/// Rank 1's first incarnation dies at its first `Tick`, waiting for a
/// message nobody sends. Its successor says hello, takes 41 from rank 0
/// and answers 42. Rank 0 waits for the hello, reads rank 1 and talks
/// to the new incarnation.
fn generation_one(p: &mut Process) -> ftmpi::Result<Option<Revival>> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    if p.world_rank() == 1 {
        if p.generation() == 0 {
            p.recv::<()>(WORLD, Src::Rank(0), NEVER)?;
            unreachable!("nobody sends on NEVER");
        }
        p.send(WORLD, 0, HELLO, &p.generation())?;
        let (v, _) = p.recv::<i32>(WORLD, Src::Rank(0), MAIL)?;
        p.send(WORLD, 0, ANSWER, &(v + 1))?;
        return Ok(None);
    }
    let (hello, recognized) = await_hello(p)?;
    let revived = p.comm_validate_rank(WORLD, 1)?;
    p.send(WORLD, 1, MAIL, &41i32)?;
    let then = p.recv::<i32>(WORLD, Src::Rank(1), ANSWER).map(|(v, _)| v);
    Ok(Some(Revival { hello, recognized, revived, then }))
}

/// As [`generation_one`], but generation 1 dies in turn, for good, once
/// rank 0 watches it: rank 0 posts a receive from rank 1 and sends it
/// "go". The recognition of generation 0 must not cover generation 1,
/// alive or dead: the receive errors, and rank 1 reads failed after.
fn recognition(p: &mut Process) -> ftmpi::Result<Option<(Revival, RankState)>> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    if p.world_rank() == 1 {
        if p.generation() == 0 {
            p.recv::<()>(WORLD, Src::Rank(0), NEVER)?;
            unreachable!("nobody sends on NEVER");
        }
        p.send(WORLD, 0, HELLO, &p.generation())?;
        p.recv::<()>(WORLD, Src::Rank(0), GO)?;
        return Err(p.fail_now());
    }
    let (hello, recognized) = await_hello(p)?;
    let revived = p.comm_validate_rank(WORLD, 1)?;
    let watch = p.irecv(WORLD, Src::Rank(1), ANSWER)?;
    p.send(WORLD, 1, GO, &())?;
    let then = p.wait(watch).map(|_| 0);
    let last = p.comm_validate_rank(WORLD, 1)?.state;
    Ok(Some((Revival { hello, recognized, revived, then }, last)))
}

/// Rank 0 sends 1 and 2 to rank 1, then "go". Generation 0 takes the
/// "go", then 1, and dies on that receive's completion with 2 still
/// queued. Its successor says hello and takes one message, which must
/// be the 3 rank 0 sends after the hello, never the dead
/// incarnation's 2.
fn lost_mail(p: &mut Process) -> ftmpi::Result<Option<i32>> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    if p.world_rank() == 1 {
        if p.generation() == 0 {
            p.recv::<()>(WORLD, Src::Rank(0), GO)?;
            p.recv::<i32>(WORLD, Src::Rank(0), MAIL)?;
            unreachable!("killed by the completion of its first MAIL");
        }
        p.send(WORLD, 0, HELLO, &p.generation())?;
        return Ok(Some(p.recv::<i32>(WORLD, Src::Rank(0), MAIL)?.0));
    }
    p.send(WORLD, 1, MAIL, &1i32)?;
    p.send(WORLD, 1, MAIL, &2i32)?;
    p.send(WORLD, 1, GO, &())?;
    await_hello(p)?;
    p.send(WORLD, 1, MAIL, &3i32)?;
    Ok(None)
}

/// What rank 0's receives from each incarnation ended with.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rearm {
    /// The receive posted on generation 0.
    first: Option<Error>,
    /// Rank 1's state after rank 0 recognized generation 0, if it did.
    recognized: Option<RankState>,
    /// Whether the receive posted on generation 1 was pending while it
    /// lived.
    pending: bool,
    /// The receive posted on generation 1.
    second: Option<Error>,
}

/// Each incarnation of rank 1 dies once rank 0's "go" arrives; the
/// second says hello first and then stays dead. Rank 0 posts a receive
/// from rank 1 before each "go": each must error on the death of the
/// incarnation it was posted on.
fn rearm(p: &mut Process) -> ftmpi::Result<Option<Rearm>> {
    p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
    if p.world_rank() == 1 {
        if p.generation() > 0 {
            p.send(WORLD, 0, HELLO, &p.generation())?;
        }
        p.recv::<()>(WORLD, Src::Rank(0), GO)?;
        return Err(p.fail_now());
    }
    let first = p.irecv(WORLD, Src::Rank(1), NEVER)?;
    p.send(WORLD, 1, GO, &())?;
    let first = p.wait(first).err();
    let (_, recognized) = await_hello(p)?;
    let watch = p.irecv(WORLD, Src::Rank(1), NEVER)?;
    let pending = p.test(watch)?.is_none();
    p.send(WORLD, 1, GO, &())?;
    let second = p.wait(watch).err();
    Ok(Some(Rearm { first, recognized, pending, second }))
}

/// Sweep `body` over the seeds on `ranks` ranks under `plan`, each rank
/// revivable `respawn` times, twice each: every seed's two logs are
/// equal, no run hangs, and `outcome` (which panics unless the race's
/// property holds) classifies every report as one of the race's two
/// outcomes, both of which occur. Folds every log and report into
/// `digest`.
fn sweep<T: Send + Debug>(
    ranks: usize,
    plan: &FaultPlan,
    respawn: u32,
    body: impl Fn(&mut Process) -> ftmpi::Result<T> + Sync,
    digest: &mut u64,
    outcome: impl Fn(u64, &RunReport<T>) -> bool,
) {
    let race = Body::new(plan.clone(), body).respawning(respawn);
    let mut runner = SeedRunner::new(ranks);
    let mut reached = [0u64; 2];
    for seed in 0..SEEDS {
        let (first, sched) = runner.run_workload(&race, plan, seed);
        let log = sched.log_text();
        let (second, sched) = runner.run_workload(&race, plan, seed);
        assert_eq!(log, sched.log_text(), "seed {seed}: the two runs' logs differ");
        let seen = format!("{:?} {:?}", first.outcomes, first.generations);
        assert_eq!(seen, format!("{:?} {:?}", second.outcomes, second.generations), "seed {seed}");
        assert!(!first.hung, "seed {seed}: {seen}\n{log}");
        reached[usize::from(outcome(seed, &first))] += 1;
        let fnv = |d: u64, b: u8| (d ^ b as u64).wrapping_mul(0x100_0000_01b3);
        *digest = log.bytes().chain(seen.bytes()).fold(*digest, fnv);
    }
    assert!(reached.iter().all(|&k| k > 0), "outcomes reached: {reached:?}");
}

/// Sweep a two-rank race with rank 1 revivable once and no planned
/// kill, classifying by whether rank 1 was revived.
fn sweep_revival<T: Send + Debug>(
    body: fn(&mut Process) -> ftmpi::Result<T>,
    digest: &mut u64,
    check: impl Fn(u64, &RunReport<T>),
) {
    sweep(2, &FaultPlan::none(), 1, body, digest, |seed, report| {
        check(seed, report);
        match report.generations[..] {
            [0, g @ (0 | 1)] => g == 1,
            ref other => panic!("seed {seed}: generations {other:?}"),
        }
    });
}

#[test]
fn respawn_races_replay_and_hold_on_every_seed() {
    let mut digest = FNV_BASIS;
    sweep_revival(replaced_incarnation, &mut digest, |seed, report| {
        let err = Some(Error::RankFailStop { rank: 1 });
        assert_eq!(report.outcomes[0].as_ok(), Some(&err), "seed {seed}: rank 0's receive");
    });
    sweep_revival(stale_message, &mut digest, |seed, report| {
        let Some(Some(s)) = report.outcomes[0].as_ok() else {
            panic!("seed {seed}: rank 0 returned {:?}", report.outcomes[0]);
        };
        match &s.got {
            Ok(g) => assert_eq!(*g, s.posted_on, "seed {seed}: took another incarnation's message"),
            Err(e) => assert_eq!(
                (e, s.posted_on),
                (&Error::RankFailStop { rank: 1 }, 0),
                "seed {seed}: only a dead incarnation's receive errors"
            ),
        }
        if s.got == Ok(1) {
            assert!(!s.exact, "seed {seed}: generation 0's message matches a name");
            assert_eq!(s.any, Some(1), "seed {seed}: generation 0's message left the queue");
        }
    });
    assert_eq!(digest, DIGEST, "decision logs or reports moved: {digest:#018x}");
}

/// Rank 0's report from a race whose rank 0 returns `Some`.
fn survivor<'r, T: Debug>(seed: u64, report: &'r RunReport<Option<T>>) -> &'r T {
    match report.outcomes[0].as_ok() {
        Some(Some(r)) => r,
        _ => panic!("seed {seed}: rank 0 returned {:?}", report.outcomes[0]),
    }
}

/// How many of rank 0's receives errored on a death.
fn failed_receives<T>(report: &RunReport<T>) -> usize {
    let failed = |e: &&TimedEvent| matches!(e.event, Event::RecvFailure { rank: 0, .. });
    report.trace.iter().filter(failed).count()
}

/// Generation 0's recognition, if rank 0 made one, must read
/// `PROC_NULL` while that incarnation is dead.
fn check_recognized(seed: u64, recognized: Option<RankState>) -> bool {
    assert!(matches!(recognized, None | Some(RankState::Null)), "seed {seed}: {recognized:?}");
    recognized.is_some()
}

/// Both outcomes: rank 0 saw generation 0 dead, or the revival came
/// before it looked. Either way generation 1 reads alive and answers.
#[test]
fn a_revived_rank_reads_generation_one_and_answers() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let mut digest = FNV_BASIS;
    sweep(2, &plan, 1, generation_one, &mut digest, |seed, report| {
        let r = survivor(seed, report);
        let revived = RankInfo { rank: 1, generation: 1, state: RankState::Ok };
        assert_eq!((r.hello, r.revived, &r.then), (1, revived, &Ok(42)), "seed {seed}");
        assert_eq!(report.outcomes[1].as_ok(), Some(&None), "seed {seed}: the last incarnation's");
        assert_eq!(report.generations, [0, 1], "seed {seed}");
        check_recognized(seed, r.recognized)
    });
    assert_eq!(digest, GENERATION_ONE_DIGEST, "decision logs or reports moved: {digest:#018x}");
}

/// Both outcomes as above. Keyed by rank, the recognition would read
/// generation 1 as `PROC_NULL` once it dies: rank 0's receive would
/// complete instead of erroring.
#[test]
fn a_recognition_covers_only_the_incarnation_it_named() {
    let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 1);
    let mut digest = FNV_BASIS;
    sweep(2, &plan, 1, recognition, &mut digest, |seed, report| {
        let (r, last) = survivor(seed, report);
        let revived = RankInfo { rank: 1, generation: 1, state: RankState::Ok };
        let died = Err(Error::RankFailStop { rank: 1 });
        assert_eq!((r.hello, r.revived, &r.then), (1, revived, &died), "seed {seed}");
        assert_eq!(*last, RankState::Failed, "seed {seed}: generation 1's death");
        assert!(report.outcomes[1].is_failed(), "seed {seed}: {:?}", report.outcomes[1]);
        check_recognized(seed, r.recognized)
    });
    assert_eq!(digest, RECOGNITION_DIGEST, "decision logs or reports moved: {digest:#018x}");
}

/// Both outcomes: rank 0 saw generation 0 dead or not. Generation 1's
/// only message is rank 0's 3.
#[test]
fn messages_to_a_dead_incarnation_never_reach_its_successor() {
    let plan = FaultPlan::none().kill_at(1, HookKind::AfterRecvComplete, 2);
    let mut digest = FNV_BASIS;
    sweep(2, &plan, 1, lost_mail, &mut digest, |seed, report| {
        assert_eq!(report.outcomes[1].as_ok(), Some(&Some(3)), "seed {seed}: generation 1 took");
        assert_eq!(report.generations, [0, 1], "seed {seed}");
        failed_receives(report) > 0
    });
    assert_eq!(digest, LOST_MAIL_DIGEST, "decision logs or reports moved: {digest:#018x}");
}

/// Both outcomes: rank 0 saw generation 0 dead or only its successor.
/// Either way each receive errors on its own incarnation's death.
#[test]
fn a_receive_watches_each_incarnation_in_turn() {
    let mut digest = FNV_BASIS;
    sweep(2, &FaultPlan::none(), 1, rearm, &mut digest, |seed, report| {
        let r = survivor(seed, report);
        let died = Some(Error::RankFailStop { rank: 1 });
        assert_eq!((&r.first, r.pending, &r.second), (&died, true, &died), "seed {seed}");
        assert_eq!(report.generations, [0, 1], "seed {seed}");
        check_recognized(seed, r.recognized)
    });
    assert_eq!(digest, REARM_DIGEST, "decision logs or reports moved: {digest:#018x}");
}

/// The manager's report from a farm run, checked to hold every task's
/// result exactly once.
fn manager<'r>(seed: u64, report: &'r RunReport<FarmOutcome>, tasks: &[u64]) -> &'r FarmResult {
    match report.outcomes[0].as_ok() {
        Some(FarmOutcome::Manager(m)) => {
            assert_eq!(m.results, expected_results(tasks), "seed {seed}: every task once");
            m
        }
        other => panic!("seed {seed}: the manager ended as {other:?}"),
    }
}

/// Tasks done by `worker`'s last incarnation.
fn tasks_done(report: &RunReport<FarmOutcome>, worker: usize) -> u64 {
    match report.outcomes[worker].as_ok() {
        Some(FarmOutcome::Worker(w)) => w.tasks_done,
        other => panic!("worker {worker} ended as {other:?}"),
    }
}

/// Three workers, three tasks; worker 2 dies on receipt of its task and
/// stays dead. The manager must re-queue that task. Both outcomes:
/// worker 1 or worker 3 does it, whichever the manager finds idle first
/// once it has seen the death.
#[test]
fn the_farm_requeues_a_dead_workers_task() {
    let tasks = [5, 42, 79];
    let plan = FaultPlan::none().kill_at(2, HookKind::AfterRecvComplete, 1);
    let farm = |p: &mut Process| run_farm(p, WORLD, &tasks);
    let mut digest = FNV_BASIS;
    sweep(4, &plan, 0, farm, &mut digest, |seed, report| {
        let m = manager(seed, report, &tasks);
        assert_eq!((m.requeued, &m.workers_lost[..]), (1, &[2][..]), "seed {seed}");
        assert!(report.outcomes[2].is_failed(), "seed {seed}");
        let done = [1, 3].map(|w| tasks_done(report, w));
        assert_eq!(done[0] + done[1], 3, "seed {seed}");
        done[0] == 2
    });
    assert_eq!(digest, FARM_REQUEUE_DIGEST, "decision logs or reports moved: {digest:#018x}");
}

/// Two workers; worker 1 dies on receipt of its first task and of its
/// second, and is revived after each. The manager must re-queue both
/// tasks. Both outcomes: it saw both deaths as failed receives, or at
/// least one only as a newer generation.
#[test]
fn the_farm_requeues_both_tasks_of_a_crash_looping_worker() {
    // With 3 to 5 tasks some seed hangs: the worker dies holding the
    // last task and is revived while the manager waits on `ANY_SOURCE`,
    // which does not see such a death (ROADMAP item 18).
    let tasks: Vec<u64> = (0..8).map(|i| i * 7 + 1).collect();
    let plan = FaultPlan::none()
        .kill_at(1, HookKind::AfterRecvComplete, 1)
        .kill_at(1, HookKind::AfterRecvComplete, 2);
    let farm = |p: &mut Process| run_farm(p, WORLD, &tasks);
    let mut digest = FNV_BASIS;
    sweep(3, &plan, 2, farm, &mut digest, |seed, report| {
        let m = manager(seed, report, &tasks);
        assert_eq!((m.requeued, &m.workers_lost[..]), (2, &[1][..]), "seed {seed}");
        assert_eq!(report.generations, [0, 2, 0], "seed {seed}");
        failed_receives(report) == 2
    });
    assert_eq!(digest, FARM_CRASH_LOOP_DIGEST, "decision logs or reports moved: {digest:#018x}");
}

/// A budget verdict ends the run as hung wherever it falls, also on a
/// revival's arrival at `Enter`: that rank aborts the run and revives
/// nobody, as a rank aborted at its first `Enter` does.
#[test]
fn a_budget_verdict_at_a_revival_hangs_the_run() {
    let mut pool = UniversePool::new(2);
    let mut run = |sched: &mut Scheduler| {
        let cfg = UniverseConfig::default().sim(sched).respawning(1).traced();
        pool.run(cfg, replaced_incarnation)
    };
    for seed in 0..40 {
        let mut sched = Scheduler::new(2, seed, BUDGET);
        run(&mut sched);
        for budget in 0..sched.steps() {
            let mut short = Scheduler::new(2, seed, budget);
            let report = run(&mut short);
            assert!(report.hung, "seed {seed}, budget {budget}: {:?}", report.outcomes);
            assert!(short.budget_exhausted(), "seed {seed}, budget {budget}");
        }
    }
}
