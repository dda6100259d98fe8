//! Per-layer measurements, taken from outside: every number here is a
//! timing or a counter read around a public call of the crate it
//! names. They run in the traced pass only, after the workload's own
//! window, and are independent of which workload that was (the `os.*`
//! and `bench.*` metrics, which are not, are measured in `main.rs`).
//!
//! Timings taken inside a rank body (`self_roundtrip`, the matching
//! depths, `validate_all`, the consensus protocols) are returned as
//! the rank's value, so `pool.run` overhead is not in them. Every
//! timing is on the calibrated clock (`calib.rs`).

use std::collections::BTreeMap;
use std::hint::black_box;

use consensus::{agree_on_failed_set, flooding_failed_set, AgreementConfig};
use dst::{
    check_all, shrink, sweep, Observation, Retention, ScenarioCfg, Schedule, SeedRunner, SweepCfg,
};
use faultsim::FaultPlan;
use ftmpi::bytes::BytesMut;
use ftmpi::{
    Datatype, ErrorHandler, Event, PayloadPool, Process, Src, UniverseConfig, UniversePool, WORLD,
};
use ftring::{run_baseline_ring, summarize, RingConfig, RingMsg, T_N};

use crate::calib::{Calibrator, Clock, BYTES_BOUND, HANDOFF_BOUND};
use crate::measure::{median, two_point_fit};
use crate::spans::Tracer;
use crate::workloads::{
    campaign, campaign_seed, check_ring, recovery_config, recovery_plan, ring_run, scenario,
    Explore, EXPLORE_BATCH, RECOVERY_LAPS, RECOVERY_RANKS, RECOVERY_VICTIMS, SEED_SPACE,
};

pub type Metrics = BTreeMap<&'static str, f64>;

/// Side results that are checks or context rather than metrics.
pub struct LayerNotes {
    /// Hash of `run_seed(s).log`, s in 0..32, at 4 then 8 ranks.
    pub decision_digest: u64,
    /// Pinned wall-clock throughput of the in-layer `explore_pair_4`
    /// sample; the base of `os.unpinned_over_pinned_ratio_n4`.
    pub explore_n4_ops_per_s: f64,
}

/// Median of `reps` calls of `f`.
fn med(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&samples)
}

/// Calibrated µs `f` takes.
fn time_us(clock: Clock, f: impl FnOnce()) -> f64 {
    let watch = clock.stopwatch();
    f();
    watch.stop().us()
}

/// Median per-iteration nanoseconds of `f`, over `batches` batches of
/// `iters` after one untimed batch.
fn ns_per_iter(clock: Clock, batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    med(batches, || {
        time_us(clock, || {
            for _ in 0..iters {
                f();
            }
        }) * 1e3
            / iters as f64
    })
}

/// Run `body` on every rank of `pool` and return rank 0's value.
fn on_pool<T: Send>(
    pool: &mut UniversePool,
    body: impl Fn(&mut Process) -> ftmpi::Result<T> + Send + Sync,
) -> Result<T, String> {
    let mut report = pool.run(UniverseConfig::default(), body);
    if !report.all_ok() {
        return Err("a layer measurement's universe did not finish cleanly".into());
    }
    Ok(report.outcomes.swap_remove(0).unwrap())
}

pub fn measure_all(seed: u64, cal: &Calibrator) -> Result<(Metrics, LayerNotes), String> {
    let mut m = Metrics::new();
    // Everything here waits on handoffs except the datatype and payload
    // loops, which are what the 16 KiB ring spends its laps in.
    let clock = cal.clock(HANDOFF_BOUND);
    ftmpi_layers(&mut m, clock, cal.clock(BYTES_BOUND))?;
    consensus_layers(&mut m, clock)?;
    ftring_layers(&mut m, clock)?;
    let explore_n4_ops_per_s = dst_layers(&mut m, seed, clock)?;
    Ok((
        m,
        LayerNotes {
            decision_digest: decision_digest(),
            explore_n4_ops_per_s,
        },
    ))
}

// ------------------------------------------------------------------ ftmpi

/// `irecv` + `isend`-to-self + two waits on a 1-rank universe, behind
/// `posted` never-matching posted receives and `unexpected` queued
/// messages nobody receives until the loop is over: ns per round trip.
fn self_roundtrip(
    pool: &mut UniversePool,
    clock: Clock,
    posted: i32,
    unexpected: i32,
) -> Result<f64, String> {
    const PARKED_TAG: i32 = 1000;
    const QUEUED_TAG: i32 = 5000;
    on_pool(pool, move |p| {
        let me = Src::Rank(0);
        let mut parked = Vec::new();
        for i in 0..posted {
            parked.push(p.irecv(WORLD, me, PARKED_TAG + i)?);
        }
        for i in 0..unexpected {
            p.send(WORLD, 0, QUEUED_TAG + i, &0u64)?;
        }
        let iters = if posted + unexpected > 64 { 500 } else { 4000 };
        let mut samples = Vec::new();
        for batch in 0..12 {
            let watch = clock.stopwatch();
            for _ in 0..iters {
                let r = p.irecv(WORLD, me, 1)?;
                let s = p.isend(WORLD, 0, 1, &7u64)?;
                p.wait(s)?;
                let c = p.wait(r)?;
                p.recycle_payload(c.data);
            }
            let batch_us = watch.stop().us();
            if batch > 0 {
                samples.push(batch_us * 1e3 / iters as f64);
            }
        }
        for r in parked {
            p.cancel(r)?;
        }
        for i in 0..unexpected {
            p.recv::<u64>(WORLD, me, QUEUED_TAG + i)?;
        }
        Ok(median(&samples))
    })
}

/// Median lap time in µs of the clean pad-0 FT ring on `pool`.
fn lap_us(pool: &mut UniversePool, clock: Clock, traced: bool) -> Result<f64, String> {
    const LAPS: u64 = 500;
    let ranks = pool.size();
    let cfg = RingConfig::paper(LAPS);
    let mut samples = Vec::new();
    for run in 0..13 {
        let watch = clock.stopwatch();
        let report = ring_run(pool, &cfg, FaultPlan::none(), traced);
        let dt = watch.stop().us();
        check_ring(&report, LAPS, &[]).map_err(|e| format!("hop ring at {ranks} ranks: {e}"))?;
        if run > 0 {
            samples.push(dt / LAPS as f64);
        }
    }
    Ok(median(&samples))
}

/// 100 back-to-back agreement calls inside one run: µs per call.
/// `call` gets the call's index, so message-passing protocols can keep
/// every instance on a tag of its own.
fn agreement_us(
    pool: &mut UniversePool,
    clock: Clock,
    call: impl Fn(&mut Process, i32) -> ftmpi::Result<usize> + Send + Sync,
) -> Result<f64, String> {
    med_try(7, || {
        on_pool(pool, |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            for i in 0..10 {
                call(p, i)?;
            }
            // Rank 0 holds the stopwatch; the others wait for it in
            // their first and after their last call.
            let watch = (p.world_rank() == 0).then(|| clock.stopwatch());
            let mut failed = 0;
            for i in 10..110 {
                failed += call(p, i)?;
            }
            let per_call = watch.map_or(0.0, |w| w.stop().us() / 100.0);
            // Nobody dies in these universes.
            assert_eq!(failed, 0, "agreement reported failures in a clean universe");
            Ok(per_call)
        })
    })
}

/// [`med`] for fallible samples.
fn med_try(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let samples = (0..reps)
        .map(|_| f())
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&samples))
}

fn ftmpi_layers(m: &mut Metrics, clock: Clock, bytes: Clock) -> Result<(), String> {
    m.insert(
        "ftmpi.pool.spawn_us_n8",
        med(15, || {
            let watch = clock.stopwatch();
            let pool = UniversePool::new(8);
            let dt = watch.stop().us();
            drop(pool);
            dt
        }),
    );

    let mut pool1 = UniversePool::new(1);
    let mut pool2 = UniversePool::new(2);
    let mut pool4 = UniversePool::new(4);
    let mut pool8 = UniversePool::new(8);

    for (name, pool) in [
        ("ftmpi.pool.run_empty_us_n4", &mut pool4),
        ("ftmpi.pool.run_empty_us_n8", &mut pool8),
    ] {
        let per_run = ns_per_iter(clock, 9, 200, || {
            let report = pool.run(UniverseConfig::default(), |_p| Ok(()));
            assert!(report.all_ok());
        });
        m.insert(name, per_run / 1e3);
    }

    let self_ns = self_roundtrip(&mut pool1, clock, 0, 0)?;
    m.insert("ftmpi.pt2pt.self_roundtrip_ns", self_ns);
    m.insert(
        "ftmpi.matching.posted_d16_ns",
        self_roundtrip(&mut pool1, clock, 16, 0)?,
    );
    m.insert(
        "ftmpi.matching.posted_d256_ns",
        self_roundtrip(&mut pool1, clock, 256, 0)?,
    );
    m.insert(
        "ftmpi.matching.unexpected_d256_ns",
        self_roundtrip(&mut pool1, clock, 0, 256)?,
    );

    m.insert(
        "ftmpi.pt2pt.hop_us_n2",
        lap_us(&mut pool2, clock, false)? / 2.0,
    );
    let lap4 = lap_us(&mut pool4, clock, false)?;
    m.insert("ftmpi.pt2pt.hop_us_n4", lap4 / 4.0);
    m.insert(
        "ftmpi.pt2pt.hop_us_n8",
        lap_us(&mut pool8, clock, false)? / 8.0,
    );
    m.insert("ftmpi.transport.wake_switch_us", lap4 / 4.0 - self_ns / 1e3);
    m.insert(
        "ftmpi.trace.traced_ratio",
        lap_us(&mut pool4, clock, true)? / lap4,
    );

    let msg = RingMsg::originate(0, 0, 16384);
    let mut buf = BytesMut::with_capacity(32 * 1024);
    msg.encode(&mut buf);
    let wire = buf.clone().freeze();
    let kib = wire.len() as f64 / 1024.0;
    let encode = ns_per_iter(bytes, 9, 500, || {
        buf.clear();
        black_box(&msg).encode(&mut buf);
        black_box(&buf);
    });
    let decode = ns_per_iter(bytes, 9, 500, || {
        black_box(RingMsg::from_bytes(black_box(&wire)).expect("decodes"));
    });
    m.insert("ftmpi.datatype.encode_ns_per_kib", encode / kib);
    m.insert("ftmpi.datatype.decode_ns_per_kib", decode / kib);

    let paypool = PayloadPool::new();
    let data = vec![0xA5u8; 4096];
    m.insert(
        "ftmpi.paypool.make_recycle_ns_4k",
        ns_per_iter(bytes, 9, 5000, || {
            paypool.recycle(black_box(paypool.make(black_box(&data))))
        }),
    );

    m.insert(
        "ftmpi.validate.validate_all_us_n8",
        agreement_us(&mut pool8, clock, |p, _| p.comm_validate_all(WORLD))?,
    );
    Ok(())
}

// -------------------------------------------------------------- consensus

fn consensus_layers(m: &mut Metrics, clock: Clock) -> Result<(), String> {
    let mut pool8 = UniversePool::new(8);
    m.insert(
        "consensus.coordinator_us_n8",
        agreement_us(&mut pool8, clock, |p, i| {
            agree_on_failed_set(
                p,
                WORLD,
                AgreementConfig {
                    tag: 0x00F7_1000 + i,
                },
            )
            .map(|set| set.len())
        })?,
    );
    m.insert(
        "consensus.flooding_us_n8",
        agreement_us(&mut pool8, clock, |p, i| {
            flooding_failed_set(p, WORLD, 0x00F7_2000 + i).map(|set| set.len())
        })?,
    );
    Ok(())
}

// ----------------------------------------------------------------- ftring

fn ftring_layers(m: &mut Metrics, clock: Clock) -> Result<(), String> {
    const LAPS: u64 = 500;
    let mut pool4 = UniversePool::new(4);
    let ft = RingConfig::paper(LAPS);

    // Exact: `Send` events of one traced clean run, termination
    // broadcast included, over its laps.
    let report = ring_run(&mut pool4, &ft, FaultPlan::none(), true);
    check_ring(&report, LAPS, &[])?;
    let sends = report
        .trace
        .iter()
        .filter(|e| matches!(e.event, Event::Send { .. }))
        .count();
    m.insert("ftring.ring.msgs_per_lap_n4", sends as f64 / LAPS as f64);

    // The paper's "cheap" claim: FT ring (Fig. 3) over the plain ring
    // (Fig. 2), runs interleaved so both see the same machine state.
    let (mut ft_us, mut base_us) = (Vec::new(), Vec::new());
    for run in 0..13 {
        let watch = clock.stopwatch();
        let report = ring_run(&mut pool4, &ft, FaultPlan::none(), false);
        let dt = watch.stop().us();
        check_ring(&report, LAPS, &[])?;
        let watch = clock.stopwatch();
        let base = pool4.run(UniverseConfig::default(), |p| {
            run_baseline_ring(p, WORLD, LAPS, 0)
        });
        let base_dt = watch.stop().us();
        if !base.all_ok() {
            return Err("baseline ring failed".into());
        }
        if run > 0 {
            ft_us.push(dt);
            base_us.push(base_dt);
        }
    }
    m.insert(
        "ftring.ring.ft_over_baseline_ratio_n4",
        median(&ft_us) / median(&base_us),
    );

    let mut pool8 = UniversePool::new(RECOVERY_RANKS);
    let cfg = recovery_config();
    let mut clean = Vec::new();
    let (mut resends, mut fires) = (0u64, 0u64);
    const RUNS: u64 = 40;
    for _ in 0..RUNS {
        let watch = clock.stopwatch();
        let report = ring_run(&mut pool8, &cfg, FaultPlan::none(), false);
        clean.push(watch.stop().us());
        check_ring(&report, RECOVERY_LAPS, &[])?;

        let report = ring_run(&mut pool8, &cfg, recovery_plan(), false);
        check_ring(&report, RECOVERY_LAPS, &RECOVERY_VICTIMS)?;
        let s = summarize(&report);
        resends += s.total_resends;
        fires += s.total_detector_fires;
    }
    let kills = (RUNS * RECOVERY_VICTIMS.len() as u64) as f64;
    m.insert("ftring.recovery.clean_run_us_n8", median(&clean));
    m.insert("ftring.recovery.resends_per_kill", resends as f64 / kills);
    m.insert(
        "ftring.recovery.detector_fires_per_kill",
        fires as f64 / kills,
    );
    Ok(())
}

// -------------------------------------------------------------------- dst

/// What a stretch of `explore_pair_N` operations looked like.
struct ExploreSample {
    /// Median of per-batch `time ÷ ops`, µs — the workload's `op_us_p50`.
    op_us_p50: f64,
    /// Wall-clock schedules per second over the sample.
    raw_ops_per_s: f64,
    steps_per_schedule: f64,
    self_grant_share: f64,
    parks_per_schedule: f64,
    /// Per schedule with at least one kill: the longest gap, in
    /// scheduler steps, between consecutive `T_N` receive matches.
    token_stalls: Vec<f64>,
}

/// The longest logical-time gap between consecutive `T_N` matches.
fn token_stall_steps(obs: &Observation) -> Option<u64> {
    let mut at: Vec<u64> = obs
        .trace
        .iter()
        .filter(|e| matches!(e.event, Event::RecvMatch { tag, .. } if tag == T_N))
        .map(|e| e.at_us)
        .collect();
    at.sort_unstable();
    at.windows(2).map(|w| w[1] - w[0]).max()
}

fn explore_sample(
    ranks: usize,
    seed: u64,
    batches: u64,
    clock: Clock,
) -> Result<ExploreSample, String> {
    let mut w = Explore::new(ranks, seed);
    let mut tr = Tracer::new(false);
    for _ in 0..EXPLORE_BATCH * 2 {
        w.op(&mut tr, &mut |_| {});
    }
    let mut handoff = dst::HandoffStats::default();
    let mut stalls = Vec::new();
    let mut op_us = Vec::new();
    let mut raw_us = 0.0;
    for _ in 0..batches {
        let watch = clock.stopwatch();
        for _ in 0..EXPLORE_BATCH {
            // Reading the counters and scanning the trace for the token
            // stall costs about a microsecond per schedule; it stays
            // inside the timed region.
            let op = w.op(&mut tr, &mut |obs| {
                handoff.add(&obs.stats.handoff);
                if !obs.schedule.kills.is_empty() {
                    stalls.extend(token_stall_steps(obs).map(|s| s as f64));
                }
            });
            if let Some(why) = op.failure {
                return Err(why);
            }
        }
        let t = watch.stop();
        raw_us += t.raw_us;
        op_us.push(t.us() / EXPLORE_BATCH as f64);
    }
    let schedules = (batches * EXPLORE_BATCH) as f64;
    Ok(ExploreSample {
        op_us_p50: median(&op_us),
        raw_ops_per_s: schedules / (raw_us / 1e6),
        steps_per_schedule: handoff.steps as f64 / schedules,
        self_grant_share: handoff.self_grants as f64 / handoff.grants.max(1) as f64,
        parks_per_schedule: handoff.parks as f64 / schedules,
        token_stalls: stalls,
    })
}

/// `(fixed µs, µs per step)` of a kill-free schedule on `runner`, from
/// 64 seeds run at 1 lap and 16 at 12 laps. The short point is
/// one lap, not the workload's three: the intercept is an
/// extrapolation to zero steps, and from 3 laps (x ≈ 110 of 400 steps)
/// 2% of timing noise became ±25 µs of "fixed cost" at 4 ranks and
/// ±100 µs at 8.
fn schedule_cost_fit(runner: &mut SeedRunner, clock: Clock) -> (f64, f64) {
    let ranks = runner.ranks();
    let mut point = |max_iter: u64, seeds: u64| {
        let cfg = scenario(ranks, max_iter);
        let mut steps = 0u64;
        let per_schedule_us = med(9, || {
            steps = 0;
            time_us(clock, || {
                for seed in 0..seeds {
                    let schedule = Schedule {
                        seed,
                        kills: Vec::new(),
                        delay_mask: None,
                    };
                    let obs = runner.run_schedule_with(&schedule, &cfg, Retention::Quiet);
                    steps += obs.stats.handoff.steps;
                    runner.recycle(obs);
                }
            }) / seeds as f64
        });
        (steps as f64 / seeds as f64, per_schedule_us)
    };
    two_point_fit(point(1, 64), point(12, 16))
}

/// Returns the pinned wall-clock `explore_pair_4` rate of the in-layer
/// sample.
fn dst_layers(m: &mut Metrics, seed: u64, clock: Clock) -> Result<f64, String> {
    let cfg4 = scenario(4, 3);
    let cfg8 = scenario(8, 3);

    let mut scratch = Schedule {
        seed: 0,
        kills: Vec::new(),
        delay_mask: None,
    };
    let mut next = 0u64;
    let derive_ns = ns_per_iter(clock, 9, 5000, || {
        next = (next + 1) % SEED_SPACE;
        Schedule::from_seed_into(black_box(next), &cfg4, &mut scratch);
        black_box(&scratch);
    });
    m.insert("dst.scenario.derive_ns", derive_ns);

    let s4 = explore_sample(4, seed, 60, clock)?;
    let s8 = explore_sample(8, seed, 20, clock)?;
    m.insert(
        "faultsim.handoff.steps_per_schedule_n4",
        s4.steps_per_schedule,
    );
    m.insert(
        "faultsim.handoff.steps_per_schedule_n8",
        s8.steps_per_schedule,
    );
    m.insert("faultsim.handoff.self_grant_share_n8", s8.self_grant_share);
    m.insert(
        "faultsim.handoff.parks_per_schedule_n8",
        s8.parks_per_schedule,
    );
    if s8.token_stalls.is_empty() {
        return Err("no explore_pair_8 schedule in the sample had a kill".into());
    }
    m.insert(
        "ftring.recovery.token_stall_steps_p50",
        median(&s8.token_stalls),
    );

    let mut runner4 = SeedRunner::new(4);
    let mut runner8 = SeedRunner::new(8);
    for (cfg, runner, sample, names) in [
        (
            &cfg4,
            &mut runner4,
            &s4,
            [
                "dst.schedule.fixed_us_n4",
                "dst.sim.us_per_step_n4",
                "dst.oracle.check_ns_n4",
                "dst.attribution.residual_share_n4",
            ],
        ),
        (
            &cfg8,
            &mut runner8,
            &s8,
            [
                "dst.schedule.fixed_us_n8",
                "dst.sim.us_per_step_n8",
                "dst.oracle.check_ns_n8",
                "dst.attribution.residual_share_n8",
            ],
        ),
    ] {
        let (fixed_us, us_per_step) = schedule_cost_fit(runner, clock);
        let kept: Vec<Observation> = (0..32)
            .map(|s| runner.run_seed_quiet(seed.wrapping_add(s) % SEED_SPACE, cfg))
            .collect();
        let mut i = 0;
        let check_ns = ns_per_iter(clock, 9, 320, || {
            i = (i + 1) % kept.len();
            black_box(check_all(black_box(&kept[i])));
        });
        let explained =
            derive_ns / 1e3 + fixed_us + sample.steps_per_schedule * us_per_step + check_ns / 1e3;
        m.insert(names[0], fixed_us);
        m.insert(names[1], us_per_step);
        m.insert(names[2], check_ns);
        m.insert(names[3], 1.0 - explained / sample.op_us_p50);
    }

    // Full retention (decision log, delay list) over quiet, same seeds.
    let (mut full, mut quiet) = (Vec::new(), Vec::new());
    for rep in 0..8 {
        for (retain, out) in [(true, &mut full), (false, &mut quiet)] {
            let dt = time_us(clock, || {
                for s in 0..2 * EXPLORE_BATCH {
                    let obs = if retain {
                        runner4.run_seed(s, &cfg4)
                    } else {
                        runner4.run_seed_quiet(s, &cfg4)
                    };
                    runner4.recycle(black_box(obs));
                }
            });
            if rep > 0 {
                out.push(dt);
            }
        }
    }
    m.insert(
        "dst.scenario.full_over_quiet_ratio_n4",
        median(&full) / median(&quiet),
    );

    // The sweep engine with one worker against the plain loop it wraps.
    const SWEEP_SEEDS: u64 = 128;
    let start = seed % (SEED_SPACE - SWEEP_SEEDS);
    let (mut engine, mut serial) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let sweep_cfg = SweepCfg::builder()
            .start(start)
            .count(SWEEP_SEEDS)
            .jobs(1)
            .build()
            .map_err(|e| format!("sweep configuration: {e}"))?;
        let watch = clock.stopwatch();
        let report = sweep(&sweep_cfg, &cfg4).map_err(|e| format!("sweep: {e}"))?;
        engine.push(watch.stop().us());
        if report.failing + report.hung > 0 {
            return Err(format!(
                "sweep from {start}: {} failing, {} hung",
                report.failing, report.hung
            ));
        }
        serial.push(time_us(clock, || {
            for s in start..start + SWEEP_SEEDS {
                let obs = runner4.run_seed_quiet(s, &cfg4);
                assert!(
                    check_all(&obs).is_empty(),
                    "seed {s:#x} violated in the serial loop"
                );
                runner4.recycle(obs);
            }
        }));
    }
    m.insert(
        "dst.sweep.engine_over_serial_ratio",
        median(&engine) / median(&serial),
    );

    let mut tr = Tracer::new(false);
    let watch = clock.stopwatch();
    let c = campaign(campaign_seed(seed, 0), &cfg4, &mut tr);
    let fuzz_op_us = watch.stop().us() / c.batch.ops as f64;
    if let Some(why) = c.batch.failure {
        return Err(why);
    }
    m.insert("dst.fuzz.edges", c.coverage.0 as f64);
    m.insert("dst.fuzz.novel_share", c.novel as f64 / c.batch.ops as f64);
    m.insert("dst.fuzz.over_explore_ratio_n4", fuzz_op_us / s4.op_us_p50);

    let buggy = ScenarioCfg::builder()
        .buggy_dedup(true)
        .build()
        .map_err(|e| format!("buggy scenario: {e}"))?;
    let watch = clock.stopwatch();
    let shrunk = shrink(0x2d, &buggy, None).ok_or("seed 0x2d no longer fails under buggy_dedup")?;
    m.insert("dst.shrink.ms", watch.stop().us() / 1e3);
    m.insert("dst.shrink.runs", shrunk.runs as f64);
    if shrunk.events.len() > 2 {
        return Err(format!(
            "seed 0x2d shrank to {} events, expected at most 2",
            shrunk.events.len()
        ));
    }
    Ok(s4.raw_ops_per_s)
}

/// FNV-1a over the full decision logs of seeds 0..32 at 4 and 8 ranks:
/// simulated behaviour must not move under simulator-only changes.
pub fn decision_digest() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ranks in [4, 8] {
        let cfg = scenario(ranks, 3);
        let mut runner = SeedRunner::new(ranks);
        for s in 0..32 {
            for b in runner.run_seed(s, &cfg).log.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}
