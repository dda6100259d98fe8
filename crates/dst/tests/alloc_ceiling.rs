//! Tier-1 allocation ceiling: the zero-alloc-steady-state work
//! (DESIGN.md §8.10) must not silently regress.
//!
//! Seeds `0..32` at 4 and 8 ranks run twice on one persistent
//! [`SeedRunner`], each observation handed back through
//! [`SeedRunner::recycle`] as the sweep engine and the fuzzer do: the
//! first pass warms the payload pool, the runner's scheduler and fault
//! plan, the per-rank processes and the report buffers; the second
//! pass is measured. The mean allocations per schedule — rank bodies
//! plus harness work, all on the calling thread and each counted once
//! by the [`allocstats`] global allocator `dst` installs — must stay
//! under a pinned ceiling. The one allocation a warm schedule still
//! makes is the root's `RingStats::closures`.
//!
//! The bytes those allocations request are held under a ceiling of
//! their own: a per-run table the size of the old coverage hash
//! (4 KiB, zeroed every schedule) would blow through it without adding
//! an allocation.
//!
//! The counts are a function of the seeds, not of timing, so the
//! ceilings sit at the measured steady state plus 10 % (1.06 / 1.03
//! allocations and 68 / 66 bytes per schedule at 4 / 8 ranks over
//! these seeds, debug and release alike): one more allocation per
//! schedule trips them. The whole operation a sweep makes of a seed
//! (derive, run, judge, recycle) is held to the same count, so an
//! allocation moved out of `run_schedule_with`'s window fails too, and
//! a 64-rank schedule allocates no more than a 4-rank one. The CI
//! bench gate (`scripts/bench_gate.py`, series
//! `allocs_per_schedule/*`) holds the same 1.1× bound against the
//! committed baseline; this test runs everywhere, benchmarks or not,
//! and in the profile the benchmark measures too.
//!
//! The padded wall-clock ring has a pin of its own: a 16 KiB token
//! must travel in a pooled buffer and be forwarded by move, so a run
//! allocates the same at 20 laps as at 80.
//! The wall-clock fan-in has one too: a message of at most
//! `bytes::INLINE_CAP` bytes travels inside its `Bytes`, so it costs
//! no allocation at all.

use dst::figures::{ring, On};
use dst::{check_all, Retention, ScenarioCfg, Schedule, SeedRunner};
use ftmpi::{Datatype, Process, Src, UniverseConfig, UniversePool, WORLD};
use ftring::RingConfig;

const SEEDS: std::ops::Range<u64> = 0..32;

/// Mean allocations and bytes allocated per schedule over one pass of
/// `SEEDS`.
fn measure(runner: &mut SeedRunner, cfg: &ScenarioCfg) -> (f64, f64) {
    let (mut allocs, mut bytes) = (0u64, 0u64);
    for seed in SEEDS {
        let before = allocstats::snapshot();
        let obs = runner.run_seed_quiet(seed, cfg);
        let thread = allocstats::snapshot().since(&before);
        assert!(!obs.hung, "seed {seed:#x} hung during the ceiling pass");
        // Rank bodies run on this thread, inside the interval the
        // harness measures anyway: each allocation is reported once.
        assert_eq!(
            (obs.stats.alloc.allocs, obs.stats.alloc.bytes_alloc),
            (thread.allocs, thread.bytes_alloc),
            "seed {seed:#x}: the observation does not report this thread's traffic"
        );
        allocs += obs.stats.alloc.allocs;
        bytes += obs.stats.alloc.bytes_alloc;
        runner.recycle(obs);
    }
    let runs = (SEEDS.end - SEEDS.start) as f64;
    (allocs as f64 / runs, bytes as f64 / runs)
}

/// A runner for `ranks` after a warm pass over `SEEDS`.
fn warm(ranks: usize) -> (SeedRunner, ScenarioCfg) {
    let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
    let mut runner = SeedRunner::new(ranks);
    // Warm pass: cold-pool buffer mints and lazily-built scratch land
    // here, not in the measurement.
    measure(&mut runner, &cfg);
    (runner, cfg)
}

fn check(ranks: usize, ceiling: f64, bytes_ceiling: f64) {
    let (mut runner, cfg) = warm(ranks);
    let (steady, bytes) = measure(&mut runner, &cfg);
    assert!(
        bytes <= bytes_ceiling,
        "steady-state allocated bytes regression at {ranks} ranks: \
         {bytes:.0} bytes/schedule exceeds the {bytes_ceiling:.0} ceiling \
         (is a per-run table back?)"
    );
    assert!(
        steady <= ceiling,
        "steady-state allocation regression at {ranks} ranks: \
         {steady:.2} allocs/schedule exceeds the {ceiling:.2} ceiling \
         (if intentional, re-measure and update both this pin and \
         BENCH_dst.json's allocs_per_schedule baseline)"
    );
}

#[test]
fn steady_state_allocs_within_ceiling_r4() {
    check(4, 1.17, 75.0);
}

#[test]
fn steady_state_allocs_within_ceiling_r8() {
    check(8, 1.13, 73.0);
}

/// What a sweep does with a seed, counted whole on this thread: derive
/// its schedule, run it quiet, judge it with every oracle and recycle
/// the observation. Allocations moved from the run into any of the
/// other three land here: the count stays at the run's.
#[test]
fn whole_op_allocs_within_ceiling_r4() {
    let (mut runner, cfg) = warm(4);
    let mut schedule = Schedule::default();
    let mut op = || {
        let before = allocstats::snapshot();
        for seed in SEEDS {
            Schedule::from_seed_into(seed, &cfg, &mut schedule);
            let obs = runner.run_schedule_with(&schedule, &cfg, Retention::Quiet);
            assert!(check_all(&obs).is_empty(), "seed {seed:#x}");
            runner.recycle(obs);
        }
        allocstats::snapshot().since(&before).allocs as f64 / (SEEDS.end - SEEDS.start) as f64
    };
    op();
    let whole = op();
    assert!(
        whole <= 1.17,
        "a sweep's operation allocates {whole:.2} times per seed (ceiling 1.17): \
         did an allocation move out of the run into derive, the oracles or recycle?"
    );
}

/// Per-rank state is reset in place, never rebuilt: a 64-rank schedule
/// allocates no more often than a 4-rank one.
#[test]
fn allocs_per_schedule_do_not_grow_with_ranks() {
    let (mut small, cfg4) = warm(4);
    let (mut large, cfg64) = warm(64);
    let (at4, _) = measure(&mut small, &cfg4);
    let (at64, _) = measure(&mut large, &cfg64);
    assert!(at64 <= at4, "{at64:.2} allocations per schedule at 64 ranks, {at4:.2} at 4");
}

/// `ring_pad16k_4` as the benchmark runs it: 4 ranks passing a
/// 16 KiB token, on a warmed [`UniversePool`]. A hop costs nothing:
/// the token is forwarded by move, decoded into a kept pad, and its
/// wire image travels in the encode buffer's own pooled vector. So a
/// run of 80 laps allocates exactly what a run of 20 does (the per-run
/// bookkeeping); a per-hop clone, copy or unpooled wire image adds at
/// least one allocation per lap.
#[test]
fn padded_ring_allocs_do_not_grow_with_laps() {
    let mut pool = UniversePool::new(4);
    let mut run = |laps: u64| {
        let cfg = RingConfig::paper(laps).pad(16384);
        let report = pool.run(UniverseConfig::default(), |p| ring(p, &cfg, On::World, 1));
        assert!(report.outcomes.iter().all(|o| o.is_ok()), "{:?}", report.outcomes);
        report.stats.alloc.allocs
    };
    for _ in 0..3 {
        run(20);
        run(80);
    }
    let (short, long) = (run(20), run(80));
    assert_eq!(
        long, short,
        "80 laps allocate {long} times, 20 laps {short}: \
         is the token cloned per hop, or its wire image outside the payload pool?"
    );
}

/// `fanin_match_4` in miniature: on a warmed 4-rank [`UniversePool`],
/// rank 0 posts 768 receives in reverse tag order and three senders
/// `isend` 256 `u64` tags each, ten rounds a run. An 8-byte payload is
/// stored inside its `Bytes`, so a message costs no allocation; what
/// is left is per-round request vectors. Pooled 16-byte buffers (32
/// per class) read 0.964 per message here.
#[test]
fn small_message_fan_in_allocates_nothing() {
    const TAGS: i32 = 256;
    const ROUNDS: u64 = 10;
    let body = |p: &mut Process| -> ftmpi::Result<()> {
        let me = p.world_rank();
        let senders = 1..p.world_size();
        let payload = |round: u64, src: usize, tag: i32| round << 32 | (src as u64) << 16 | tag as u64;
        let mut reqs = Vec::with_capacity(senders.len() * TAGS as usize);
        for round in 0..ROUNDS {
            reqs.clear();
            if me == 0 {
                for tag in (0..TAGS).rev() {
                    for src in senders.clone() {
                        reqs.push(p.irecv(WORLD, Src::Rank(src), tag)?);
                    }
                }
                for src in senders.clone() {
                    p.send(WORLD, src, TAGS, &round)?;
                }
                let mut done = p.waitall(&reqs)?.into_iter();
                for tag in (0..TAGS).rev() {
                    for src in senders.clone() {
                        let c = done.next().expect("one completion per request")?;
                        assert_eq!(u64::from_bytes(&c.data)?, payload(round, src, tag));
                        p.recycle_payload(c.data);
                    }
                }
            } else {
                let (go, _) = p.recv::<u64>(WORLD, Src::Rank(0), TAGS)?;
                assert_eq!(go, round);
                for tag in 0..TAGS {
                    reqs.push(p.isend(WORLD, 0, tag, &payload(round, me, tag))?);
                }
                p.waitall(&reqs)?;
            }
        }
        Ok(())
    };
    let mut pool = UniversePool::new(4);
    for _ in 0..3 {
        pool.run(UniverseConfig::default(), body);
    }
    let report = pool.run(UniverseConfig::default(), body);
    assert!(report.all_ok(), "{:?}", report.outcomes);
    let messages = ROUNDS * 3 * TAGS as u64;
    let per_message = report.stats.alloc.allocs as f64 / messages as f64;
    assert!(
        per_message <= 0.01,
        "the fan-in allocates {per_message:.4} times per message (ceiling 0.01): \
         is a short payload leaving its `Bytes` for the heap or the payload pool?"
    );
}

/// The pooled quiet path and the one-shot recorded path agree on
/// the schedule (same kills, same mask) — the ceiling above measures
/// the path sweeps actually take.
#[test]
fn ceiling_measures_the_sweep_path() {
    let cfg = ScenarioCfg::default();
    let mut runner = SeedRunner::new(cfg.ranks);
    let schedule = Schedule::from_seed(7, &cfg);
    let quiet = runner.run_schedule_with(&schedule, &cfg, Retention::Quiet);
    assert_eq!(quiet.schedule.kills, schedule.kills);
    assert!(quiet.log.is_empty(), "quiet retention must not record");
}
