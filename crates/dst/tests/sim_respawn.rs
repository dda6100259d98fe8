//! The respawn extension (DESIGN.md §7) under the deterministic
//! scheduler: a failed rank with budget left arrives at
//! `SchedPoint::Enter` again, and the grant that resumes it is its
//! revival, so a respawn race replays from its seed.
//!
//! Two races, each found by loops of unpinned wall-clock runs, swept
//! over seeds `0..SEEDS`, each seed run twice on one pool:
//!
//! * a receive posted on an incarnation that is replaced before the
//!   receiver looks again must error;
//! * a message a dead incarnation left queued never completes a receive
//!   posted on its successor.
//!
//! Each seed's two runs leave byte-identical decision logs; both
//! outcomes of the revival race (rank 1 revived, or not because rank 0
//! returned first) are reached; each race's property holds on every
//! seed; and the FNV-1a digest of every log and report is pinned. Rank
//! bodies never spin on `comm_validate_rank`: it is not a scheduling
//! point, so a spin would never yield.

use dst::Scheduler;
use ftmpi::{Error, ErrorHandler, Process, RunReport, Src, UniverseConfig, UniversePool, WORLD};

const SEEDS: u64 = 500;

/// Logical steps before the scheduler's budget verdict; far above what
/// either body takes.
const BUDGET: u64 = 10_000;

/// FNV-1a over both bodies' decision logs, outcomes and generations,
/// in seed order.
const DIGEST: u64 = 0xac61_5f98_b2bf_37fc;

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

/// Run `body` on two ranks under `sched`, rank 1 revivable once.
fn run<T: Send>(
    pool: &mut UniversePool,
    sched: &mut Scheduler,
    body: fn(&mut Process) -> ftmpi::Result<T>,
) -> RunReport<T> {
    pool.run(UniverseConfig::default().sim(sched).respawning(1), body)
}

/// Sweep `body` over the seeds, twice each: every seed's two logs are
/// equal, `check` holds on every report, and both generation outcomes
/// occur. Folds every log and report into `digest`.
fn sweep<T: Send + std::fmt::Debug>(
    body: fn(&mut Process) -> ftmpi::Result<T>,
    digest: &mut u64,
    check: impl Fn(u64, &RunReport<T>),
) {
    let mut pool = UniversePool::new(2);
    let mut sched = Scheduler::new(2, 0, BUDGET);
    let mut revived = [0u64; 2];
    for seed in 0..SEEDS {
        sched.reset(2, seed, BUDGET);
        let first = run(&mut pool, &mut sched, body);
        let log = sched.log_text();
        sched.reset(2, seed, BUDGET);
        let second = run(&mut pool, &mut sched, body);
        assert_eq!(log, sched.log_text(), "seed {seed}: the two runs' logs differ");
        let seen = format!("{:?} {:?}", first.outcomes, first.generations);
        assert_eq!(seen, format!("{:?} {:?}", second.outcomes, second.generations), "seed {seed}");
        assert!(!first.hung, "seed {seed}: {seen}\n{log}");
        check(seed, &first);
        match first.generations[..] {
            [0, g @ (0 | 1)] => revived[g as usize] += 1,
            ref other => panic!("seed {seed}: generations {other:?}"),
        }
        let fnv = |d: u64, b: u8| (d ^ b as u64).wrapping_mul(0x100_0000_01b3);
        *digest = log.bytes().chain(seen.bytes()).fold(*digest, fnv);
    }
    assert!(revived.iter().all(|&k| k > 0), "not revived / revived: {revived:?}");
}

#[test]
fn respawn_races_replay_and_hold_on_every_seed() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    sweep(replaced_incarnation, &mut digest, |seed, report| {
        let err = Some(Error::RankFailStop { rank: 1 });
        assert_eq!(report.outcomes[0].as_ok(), Some(&err), "seed {seed}: rank 0's receive");
    });
    sweep(stale_message, &mut digest, |seed, report| {
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

/// A budget verdict ends the run as hung wherever it falls, also on a
/// revival's arrival at `Enter`: that rank aborts the run and revives
/// nobody, as a rank aborted at its first `Enter` does.
#[test]
fn a_budget_verdict_at_a_revival_hangs_the_run() {
    let mut pool = UniversePool::new(2);
    for seed in 0..40 {
        let mut sched = Scheduler::new(2, seed, BUDGET);
        run(&mut pool, &mut sched, replaced_incarnation);
        for budget in 0..sched.steps() {
            let mut short = Scheduler::new(2, seed, budget);
            let report = run(&mut pool, &mut short, replaced_incarnation);
            assert!(report.hung, "seed {seed}, budget {budget}: {:?}", report.outcomes);
            assert!(short.budget_exhausted(), "seed {seed}, budget {budget}");
        }
    }
}
