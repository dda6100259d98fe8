//! Measure DST harness throughput and record it as `BENCH_dst.json`.
//!
//! This binary emits a machine-readable record of schedules/sec for
//! the series the roadmap tracks — `explore/{4,8}` (serial per-seed
//! cost), `explore_shape/<shape>` (per-kill-shape cost of the taxonomy
//! sweeps, DESIGN.md §8.8), `sweep_jobs/1` (the sweep engine's
//! overhead over the serial loop) and `fuzz/4` (schedules per second
//! inside a coverage-guided campaign) — so the perf trajectory is a
//! committed artifact, not folklore in PR descriptions. The
//! `allocs_per_schedule/{4,8}` series
//! records steady-state heap allocations per schedule (DESIGN.md
//! §8.10) — deterministic and lower-is-better, gated tightly by
//! `scripts/bench_gate.py`.
//!
//! Every series runs the way sweeps do: one `SeedRunner` reused across
//! schedules.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin bench_dst [-- --quick] [--out PATH]
//! ```
//!
//! `--quick` shortens the measurement window (CI smoke mode; rates are
//! noisier). The default output path is `BENCH_dst.json` in the current
//! directory.

use std::io::Write as _;
use std::time::{Duration, Instant};

use dst::{check_all, fuzz, sweep, FuzzCfg, KillShape, ScenarioCfg, SeedRunner, SweepCfg};

/// One measured series.
struct Entry {
    id: String,
    rate: f64,
    batches: u64,
    schedules: u64,
    elapsed: Duration,
}

/// Run `batch` repeatedly until `measure` elapses (minimum 2 batches
/// after a 1-batch warm-up) and return the schedules/sec rate. `items`
/// is the schedule count one batch covers.
fn measure(items: u64, measure: Duration, mut batch: impl FnMut(u64)) -> (f64, u64, u64, Duration) {
    let mut round = 0u64;
    batch(round); // warm-up
    round += 1;
    let start = Instant::now();
    let mut batches = 0u64;
    while batches < 2 || start.elapsed() < measure {
        batch(round);
        round += 1;
        batches += 1;
    }
    let elapsed = start.elapsed();
    let schedules = batches * items;
    (schedules as f64 / elapsed.as_secs_f64(), batches, schedules, elapsed)
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_dst.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(p) => out = p,
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_dst [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let window = if quick { Duration::from_millis(600) } else { Duration::from_secs(3) };
    let mut entries: Vec<Entry> = Vec::new();

    // Seeds wrap inside a validated-green window. The window used to
    // stop at 2000 because the hardened ring had rare double-kill
    // schedules that genuinely hang (first at seed 0x7f3, ~0.07% of
    // seeds ≤ 10000); the root-failover provenance fix (DESIGN.md
    // §8.7) closed them, and sweeps now pin 0..10000 green at both
    // rank counts. The bound still matters: a future hang would panic
    // the assert — so keep the window at what sweeps actually validate.
    const SEED_SPACE: u64 = 10_000;

    // Serial per-seed cost: one full schedule (sim + oracles) per item,
    // exactly the sweep engine's inner loop (zero-retention run on one
    // SeedRunner reused across every schedule).
    const EXPLORE_BATCH: u64 = 10;
    for ranks in [4usize, 8] {
        let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };

        let mut runner = SeedRunner::new(ranks);
        let (rate, batches, schedules, elapsed) =
            measure(EXPLORE_BATCH, window, |round| {
                let base = round * EXPLORE_BATCH;
                for s in (base..base + EXPLORE_BATCH).map(|s| s % SEED_SPACE) {
                    let obs = runner.run_seed_quiet(s, &cfg);
                    let violations = check_all(&obs);
                    assert!(violations.is_empty(), "seed {s:#x} violated: {violations:?}");
                }
            });
        eprintln!("explore/{ranks}: {rate:.1} schedules/sec ({schedules} in {elapsed:?})");
        entries.push(Entry { id: format!("explore/{ranks}"), rate, batches, schedules, elapsed });
    }

    // Per-shape serial cost at 4 ranks (kill-shape taxonomy, DESIGN.md
    // §8.8): the inner loop of `dst explore --shape <name>`.
    // Shapes derive different kill counts (pair 0–2 kills, the triple
    // family 3), so per-shape rates are expected to differ — the point
    // of the series is that each shape's cost is tracked, not equal.
    // Seeds wrap inside 0..100_000, the window the taxonomy sweeps pin
    // green at both rank counts.
    const SHAPE_SEED_SPACE: u64 = 100_000;
    {
        let mut runner = SeedRunner::new(4);
        for shape in KillShape::ALL {
            let cfg = ScenarioCfg { shape, ..ScenarioCfg::default() };
            let (rate, batches, schedules, elapsed) =
                measure(EXPLORE_BATCH, window, |round| {
                    let base = round * EXPLORE_BATCH;
                    for s in (base..base + EXPLORE_BATCH).map(|s| s % SHAPE_SEED_SPACE) {
                        let obs = runner.run_seed_quiet(s, &cfg);
                        let violations = check_all(&obs);
                        assert!(
                            violations.is_empty(),
                            "shape {shape} seed {s:#x} violated: {violations:?}"
                        );
                    }
                });
            let id = format!("explore_shape/{shape}");
            eprintln!("{id}: {rate:.1} schedules/sec ({schedules} in {elapsed:?})");
            entries.push(Entry { id, rate, batches, schedules, elapsed });
        }
    }

    // Steady-state allocation cost (DESIGN.md §8.10): mean heap
    // allocations per schedule on the quiet path — rank bodies plus
    // harness work, as counted by the `allocstats` global
    // allocator — after a full warm-up pass over the same window. The
    // number is deterministic (the same seeds always allocate the same
    // amount), so unlike the timing series it carries no noise;
    // `scripts/bench_gate.py` holds it to a *lower-is-better* 1.1×
    // bound, catching a per-step or per-message allocation reappearing
    // in the hot path. The `rate` field carries allocs/schedule for
    // these ids, not schedules/sec.
    //
    // The window is the SAME in quick and full mode: the 1.1x gate
    // bound only works because current and baseline average the exact
    // same seeds — a shorter quick window would change the workload
    // mix and masquerade as a regression. Two serial passes over 2000
    // seeds cost a few seconds, cheap enough for CI smoke mode.
    const ALLOC_WINDOW: u64 = 2000;
    let alloc_window = ALLOC_WINDOW;
    for ranks in [4usize, 8] {
        let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
        let mut runner = SeedRunner::new(ranks);
        for s in 0..alloc_window {
            let _ = runner.run_seed_quiet(s, &cfg);
        }
        let start = Instant::now();
        let mut allocs = 0u64;
        for s in 0..alloc_window {
            allocs += runner.run_seed_quiet(s, &cfg).stats.alloc.allocs;
        }
        let elapsed = start.elapsed();
        let per_schedule = allocs as f64 / alloc_window as f64;
        let id = format!("allocs_per_schedule/{ranks}");
        eprintln!(
            "{id}: {per_schedule:.1} allocs/schedule ({alloc_window} schedules in {elapsed:?})"
        );
        entries.push(Entry {
            id,
            rate: per_schedule,
            batches: 1,
            schedules: alloc_window,
            elapsed,
        });
    }

    // The sweep engine on one worker: what chunking, the aggregator and
    // `Observation` plumbing cost over the serial `explore/4` loop.
    // `--jobs` scaling is not a series here — on the 2-vCPU reference
    // box it is bimodal (ROADMAP item 5 measures it on a larger runner).
    const SWEEP_BATCH: u64 = 64;
    {
        let cfg = ScenarioCfg::default();
        let (rate, batches, schedules, elapsed) =
            measure(SWEEP_BATCH, window, |round| {
                let sweep_cfg = SweepCfg {
                    // Wrap the 64-seed window inside the validated space.
                    start: (round % (SEED_SPACE / SWEEP_BATCH)) * SWEEP_BATCH,
                    count: SWEEP_BATCH,
                    jobs: 1,
                    max_failures: 100,
                    shrink_failures: false,
                };
                let report = sweep(&sweep_cfg, &cfg).expect("valid sweep");
                assert_eq!(report.failing, 0, "hardened corpus must stay green");
            });
        let id = "sweep_jobs/1".to_string();
        eprintln!("{id}: {rate:.1} schedules/sec ({schedules} in {elapsed:?})");
        entries.push(Entry { id, rate, batches, schedules, elapsed });
    }

    // A fuzz campaign at 4 ranks per executed schedule: seeding across
    // the seven kill shapes, mutation, the coverage union and the
    // corpus (DESIGN.md §8.11). Batch `round` is one campaign under
    // master seed `round`, so every recording runs the same campaigns in
    // the same order. Campaigns may report the ring's known lone-survivor
    // aborts; only the executed count is checked.
    const FUZZ_BATCH: u64 = 400;
    {
        let cfg = ScenarioCfg::default();
        let (rate, batches, schedules, elapsed) = measure(FUZZ_BATCH, window, |round| {
            let fcfg = FuzzCfg { seed: round, budget: FUZZ_BATCH, ..FuzzCfg::default() };
            let report = fuzz(&fcfg, &cfg).expect("valid campaign");
            assert_eq!(report.executed, FUZZ_BATCH, "campaign {round} stopped early");
        });
        let id = "fuzz/4".to_string();
        eprintln!("{id}: {rate:.1} schedules/sec ({schedules} in {elapsed:?})");
        entries.push(Entry { id, rate, batches, schedules, elapsed });
    }

    // Hand-rolled JSON (no serde in this workspace); the format is flat
    // enough that string assembly is the honest tool.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"schedules_per_sec\",\n");
    json.push_str("  \"unit\": \"schedules/sec\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    // The seed windows the series wrap inside. Rates are only
    // comparable across runs measured on the same window: widening it
    // changes the workload mix (see EXPERIMENTS.md, explore/8 triage),
    // so the window is part of the record, not ambient configuration.
    json.push_str(&format!("  \"seed_window\": {{ \"explore\": {SEED_SPACE}, \"shape\": {SHAPE_SEED_SPACE}, \"alloc\": {ALLOC_WINDOW} }},\n"));
    json.push_str("  \"results\": {\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"rate\": {:.1}, \"schedules\": {}, \"batches\": {}, \"elapsed_ms\": {} }}{}\n",
            e.id,
            e.rate,
            e.schedules,
            e.batches,
            e.elapsed.as_millis(),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    let mut f = std::fs::File::create(&out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        std::process::exit(1);
    });
    f.write_all(json.as_bytes()).expect("write BENCH json");
    eprintln!("wrote {out}");
}
