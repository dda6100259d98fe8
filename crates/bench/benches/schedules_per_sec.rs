//! Experiment **DST throughput**: how many complete deterministic
//! schedules the simulation harness explores per second.
//!
//! Three series:
//!
//! * `explore/{ranks}` — one full seeded schedule of the hardened ring
//!   per element, run serially on a persistent executor pool:
//!   serialize every rank through the scheduler, inject the
//!   seed-derived kills, run all applicable oracles. The per-seed cost
//!   floor.
//! * `explore_nopool/{ranks}` — the same work spawning fresh rank
//!   threads per schedule (the `--no-pool` path). The gap to
//!   `explore/{ranks}` is the pool's win.
//! * `sweep_jobs/{jobs}` — the same work driven through the parallel
//!   sweep engine at increasing worker counts. The ratio between
//!   `sweep_jobs/1` and `sweep_jobs/N` is the wall-clock multiplier a
//!   CI budget gains from `dst explore --jobs N`.
//!
//! These numbers bound how much schedule space a CI budget can cover,
//! so regressions here directly shrink bug-finding power.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dst::{check_all, run_seed, sweep, ScenarioCfg, SeedRunner, SweepCfg};

fn bench_schedules_per_sec(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedules_per_sec");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    const BATCH: u64 = 10;
    group.throughput(Throughput::Elements(BATCH));

    // Seeds wrap inside a validated-green window: sweeps have pinned
    // 0..10000 green at both rank counts since the root-failover
    // provenance fix (DESIGN.md §8.7) closed the double-kill hangs
    // that used to cap this at 2000. A hung seed would both fail the
    // assert and burn the whole 200k-grant budget, wrecking the rate.
    // See `bench_dst` for the full rationale.
    const SEED_SPACE: u64 = 10_000;

    for ranks in [4usize, 8] {
        let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
        group.bench_with_input(BenchmarkId::new("explore", ranks), &cfg, |b, cfg| {
            let mut runner = SeedRunner::new(cfg.ranks);
            let mut next_seed = 0u64;
            b.iter(|| {
                for _ in 0..BATCH {
                    let obs = runner.run_seed(next_seed, cfg);
                    next_seed = (next_seed + 1) % SEED_SPACE;
                    let violations = check_all(&obs);
                    assert!(violations.is_empty(), "seed violated: {violations:?}");
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("explore_nopool", ranks), &cfg, |b, cfg| {
            let mut next_seed = 0u64;
            b.iter(|| {
                for _ in 0..BATCH {
                    let obs = run_seed(next_seed, cfg);
                    next_seed = (next_seed + 1) % SEED_SPACE;
                    let violations = check_all(&obs);
                    assert!(violations.is_empty(), "seed violated: {violations:?}");
                }
            });
        });
    }
    group.finish();

    // Worker-count scaling: the same per-seed work fanned out over the
    // sweep engine. Larger batch so the pool actually fills.
    let mut group = c.benchmark_group("schedules_per_sec");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    const SWEEP_BATCH: u64 = 64;
    group.throughput(Throughput::Elements(SWEEP_BATCH));

    let cfg = ScenarioCfg::default();
    for jobs in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("sweep_jobs", jobs), &jobs, |b, &jobs| {
            let mut next_start = 0u64;
            b.iter(|| {
                let sweep_cfg = SweepCfg {
                    start: next_start,
                    count: SWEEP_BATCH,
                    jobs,
                    max_failures: 100,
                    shrink_failures: false,
                    use_pool: true,
                };
                // Wrap the 64-seed window inside the validated space.
                next_start = (next_start + SWEEP_BATCH) % (SEED_SPACE - SWEEP_BATCH);
                let report = sweep(&sweep_cfg, &cfg).expect("valid sweep");
                assert_eq!(report.failing, 0, "hardened corpus must stay green");
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedules_per_sec);
criterion_main!(benches);
