//! `dst` — the deterministic-simulation CLI.
//!
//! ```text
//! dst explore --seeds 1000 [--start 0] [--jobs N] [--corpus PATH]
//!             [--shrink-failures] [--max-failures N] [--stats]
//!             [--shape <name|all>] [--buggy] [--ranks 4] [--iters 3]
//! dst fuzz    --budget 20000 [--seed S] [--corpus PATH] [--stats]
//!             [--max-failures N] [--ranks 4] [--iters 3]
//! dst replay  --seed 0xBEEF [--shape NAME] [--buggy] [--log] [--triage]
//! dst shrink  --seed 0xBEEF [--shape NAME] [--buggy]
//! dst determinism --seed 0xBEEF [--shape NAME] [--buggy]
//! ```
//!
//! `explore` fans the sweep out over a worker pool (default: one worker
//! per core) — per-seed verdicts are identical whatever `--jobs` is,
//! because determinism lives inside each seed's self-contained
//! simulation. Failing seeds can be written to a `--corpus` file, one
//! `schedule seed=0x… kills=[…] oracles=… repro="…"` line each
//! (DESIGN.md §8.4), ddmin-minimized first with `--shrink-failures`.
//! A worker is one thread — its simulated ranks are coroutines on it
//! — and runs all its seeds on one `dst::SeedRunner`, the only schedule
//! executor there is: `replay`, `shrink` and `determinism` build one
//! for their handful of runs.
//!
//! `--stats` appends the scheduler's counters (steps, grants,
//! self-grants, steps per schedule, mean enabled-set size per grant),
//! allocations per schedule and coverage to the explore summary.
//!
//! `--shape` selects a kill-shape family from the DESIGN.md §8.8
//! taxonomy (`pair`, `triple`, `root-chain`, `cascade`, `validate`,
//! `spaced`, `masked`); `--shape all` sweeps every shape in turn
//! (explore only).
//!
//! `fuzz` runs the coverage-guided campaign of DESIGN.md §8.11:
//! `--budget` schedule executions total, `--seed` naming the whole
//! campaign (seeding, parent selection, and mutations), `--corpus`
//! both loading a prior corpus (of either engine; a file that does not
//! parse in full is an error) and receiving this campaign's.
//! It seeds across *every* kill shape itself, so `--shape` does not
//! apply.
//!
//! Exit status is non-zero when an oracle violation (explore/replay),
//! an unshrinkable failure (shrink), or a log divergence (determinism)
//! is found, so the commands compose directly into CI.

use std::path::PathBuf;
use std::process::ExitCode;

use dst::{
    fuzz, judge, run_seed, shrink, sweep, Failure, FuzzCfg, KillShape, ScenarioCfg, Shrunk,
    SweepCfg, SweepReport,
};

/// Largest world size the CLI accepts. A simulated rank costs a
/// 256 KiB coroutine stack, not a thread, so this is a sanity cap on
/// typos rather than a resource limit.
const MAX_RANKS: u64 = 1024;
/// Worker-thread cap; sweeps beyond per-core parallelism only add
/// contention.
const MAX_JOBS: u64 = 1024;
/// Retained-failure cap; the map is O(max-failures) memory.
const MAX_MAX_FAILURES: u64 = 1_000_000;
/// Ring-lap cap. The root records every lap it closes, so a run costs
/// time and memory in proportion to its laps (100 000 laps at 2 ranks
/// replay in ≈ 0.3 s).
const MAX_ITERS: u64 = 100_000;

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("not a number: {s}"))
}

/// Parse `flag`'s value with a sanity cap: an absurd-but-representable
/// value is a usage error.
fn parse_capped_u64(s: &str, flag: &str, cap: u64) -> Result<u64, String> {
    let v = parse_u64(s)?;
    if v > cap {
        return Err(format!("{flag} {v} exceeds the supported maximum {cap}\n{}", usage()));
    }
    Ok(v)
}

/// [`parse_capped_u64`] as a `usize`: the checked conversion turns a
/// 32-bit wrap (`--ranks 0x1_0000_0004` is not 4) into a usage error
/// too.
fn parse_capped_usize(s: &str, flag: &str, cap: u64) -> Result<usize, String> {
    let v = parse_capped_u64(s, flag, cap)?;
    usize::try_from(v)
        .map_err(|_| format!("{flag} {v} does not fit this platform's usize\n{}", usage()))
}

/// The flags only some commands take (`--shape all` being one value of
/// `--shape`), consulted as each flag is parsed; any other flag is
/// accepted everywhere. Only `replay` has the one observation `--log`
/// and `--triage` render; only the sweep engine fans out over workers
/// and shrinks what it retains (a campaign is one sequential chain);
/// `fuzz` is sized by `--budget`, seeds across every shape itself and
/// targets the hardened ring, whose known dedup defect would dominate
/// its corpus.
const FLAG_COMMANDS: [(&str, &[&str]); 9] = [
    ("--log", &["replay"]),
    ("--triage", &["replay"]),
    ("--budget", &["fuzz"]),
    ("--jobs", &["explore"]),
    ("--shrink-failures", &["explore"]),
    ("--stats", &["explore", "fuzz"]),
    ("--shape", &["explore", "replay", "shrink", "determinism"]),
    ("--buggy", &["explore", "replay", "shrink", "determinism"]),
    ("--shape all", &["explore"]),
];

/// Reject `flag` on a command [`FLAG_COMMANDS`] does not list for it.
fn gate(flag: &str, cmd: &str) -> Result<(), String> {
    match FLAG_COMMANDS.iter().find(|(f, _)| *f == flag) {
        Some((_, cmds)) if !cmds.contains(&cmd) => Err(format!(
            "{flag} does not apply to {cmd} ({flag} only applies to {})\n{}",
            cmds.join(" and "),
            usage()
        )),
        _ => Ok(()),
    }
}

struct Args {
    cmd: String,
    seed: Option<u64>,
    seeds: u64,
    start: u64,
    buggy: bool,
    ranks: usize,
    iters: u64,
    show_log: bool,
    triage: bool,
    /// `--shape`: one concrete shape, or every shape in turn for `all`.
    shapes: Vec<KillShape>,
    /// `None`: the flag was not given (only fuzz has a default).
    budget: Option<u64>,
    /// `None`: auto (one worker per core). `Some(n)`: exactly `n`.
    jobs: Option<usize>,
    max_failures: usize,
    corpus: Option<PathBuf>,
    shrink_failures: bool,
    stats: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        cmd,
        seed: None,
        seeds: 100,
        start: 0,
        buggy: false,
        ranks: 4,
        iters: 3,
        show_log: false,
        triage: false,
        shapes: vec![KillShape::Pair],
        budget: None,
        jobs: None,
        max_failures: 100,
        corpus: None,
        shrink_failures: false,
        stats: false,
    };
    while let Some(flag) = argv.next() {
        gate(&flag, &args.cmd)?;
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => args.seed = Some(parse_u64(&value("--seed")?)?),
            "--seeds" => args.seeds = parse_u64(&value("--seeds")?)?,
            "--start" => args.start = parse_u64(&value("--start")?)?,
            "--ranks" => {
                args.ranks = parse_capped_usize(&value("--ranks")?, "--ranks", MAX_RANKS)?
            }
            "--iters" => {
                args.iters = parse_capped_u64(&value("--iters")?, "--iters", MAX_ITERS)?
            }
            "--budget" => args.budget = Some(parse_u64(&value("--budget")?)?),
            "--jobs" => {
                args.jobs = Some(parse_capped_usize(&value("--jobs")?, "--jobs", MAX_JOBS)?)
            }
            "--max-failures" => {
                args.max_failures = parse_capped_usize(
                    &value("--max-failures")?,
                    "--max-failures",
                    MAX_MAX_FAILURES,
                )?
            }
            "--shape" => {
                let v = value("--shape")?;
                args.shapes = if v == "all" {
                    gate("--shape all", &args.cmd)?;
                    KillShape::ALL.to_vec()
                } else {
                    vec![KillShape::from_name(&v).ok_or_else(|| {
                        format!(
                            "unknown kill shape: {v} (expected one of {}, or all)\n{}",
                            KillShape::ALL.map(|s| s.name()).join(", "),
                            usage()
                        )
                    })?]
                };
            }
            "--corpus" => args.corpus = Some(PathBuf::from(value("--corpus")?)),
            "--shrink-failures" => args.shrink_failures = true,
            "--stats" => args.stats = true,
            "--buggy" => args.buggy = true,
            "--log" => args.show_log = true,
            "--triage" => args.triage = true,
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    validate(&args)?;
    Ok(args)
}

/// Reject degenerate configurations at the CLI boundary: a clean usage
/// error beats a panic (`--ranks 0`) or a silent no-op (`--seeds 0`,
/// `--iters 0`).
fn validate(args: &Args) -> Result<(), String> {
    if args.shapes.len() > 1 && args.buggy {
        return Err(format!(
            "--buggy only applies to the pair shape \
             (the injected dedup bug predates the taxonomy)\n{}",
            usage()
        ));
    }
    cfg_of(args, args.shapes[0]).map_err(|e| format!("{e}\n{}", usage()))?;
    if args.seeds == 0 {
        return Err(format!("--seeds must be at least 1\n{}", usage()));
    }
    args.start.checked_add(args.seeds).ok_or_else(|| {
        format!(
            "--start {:#x} + --seeds {} overflows the u64 seed space\n{}",
            args.start,
            args.seeds,
            usage()
        )
    })?;
    for (flag, value) in [
        ("--jobs", args.jobs.map(|j| j as u64)),
        ("--budget", args.budget),
        ("--max-failures", Some(args.max_failures as u64)),
    ] {
        if value == Some(0) {
            return Err(format!("{flag} must be at least 1\n{}", usage()));
        }
    }
    Ok(())
}

fn usage() -> String {
    "usage: dst <explore|fuzz|replay|shrink|determinism> \
     [--seed S] [--seeds N] [--start S] [--budget N] [--jobs N] \
     [--corpus PATH] \
     [--shrink-failures] [--max-failures N] [--stats] \
     [--shape <pair|triple|root-chain|cascade|validate|spaced|masked|all>] \
     [--buggy] [--ranks N] [--iters N] [--log] [--triage]"
        .to_string()
}

/// Scenario construction funnels through [`ScenarioCfg::builder`], so
/// the CLI inherits the library's single validation site
/// (`ScenarioCfg::validate`) instead of re-checking flag by flag.
fn cfg_of(args: &Args, shape: KillShape) -> Result<ScenarioCfg, String> {
    ScenarioCfg::builder()
        .ranks(args.ranks)
        .max_iter(args.iters)
        .buggy_dedup(args.buggy)
        .shape(shape)
        .build()
}

fn need_seed(args: &Args) -> Result<u64, String> {
    args.seed.ok_or_else(|| format!("--seed is required\n{}", usage()))
}

/// The one rendering of a failure, whichever engine found it: the
/// schedule in its replayable text form, what it violated, the hang
/// triage, and the ddmin result when there is one.
fn print_failure(what: &str, f: &Failure, shrunk: Option<&Shrunk>) {
    println!("{what}: FAIL");
    println!("  schedule {}", f.schedule);
    for v in &f.violations {
        println!("  violation: {v}");
    }
    if !f.triage.is_empty() {
        println!("  triage: {}", f.triage);
    }
    if let Some(s) = shrunk {
        println!("  shrunk ({} runs): {}", s.runs, s.events_text());
    }
}

/// Fail before the first schedule runs when `--corpus` names a file
/// that could not be written once the campaign is over. An existing
/// file is opened for appending and left as it was; a missing one is
/// created and removed again, so a missing file stays a valid corpus.
fn check_corpus_writable(corpus: Option<&PathBuf>) -> Result<(), String> {
    let Some(path) = corpus else { return Ok(()) };
    let opened = if path.exists() {
        std::fs::OpenOptions::new().append(true).open(path).map(drop)
    } else {
        std::fs::File::create_new(path).and_then(|f| {
            drop(f);
            std::fs::remove_file(path)
        })
    };
    opened.map_err(|e| format!("cannot write corpus {}: {e}", path.display()))
}

fn cmd_explore(args: &Args) -> Result<ExitCode, String> {
    let sweep_cfg = SweepCfg::builder()
        .start(args.start)
        .count(args.seeds)
        .jobs(args.jobs.unwrap_or(0))
        .max_failures(args.max_failures)
        .shrink_failures(args.shrink_failures)
        .build()
        .map_err(|e| e.to_string())?;
    check_corpus_writable(args.corpus.as_ref())?;

    let mut total_failing = 0u64;
    let mut sweeps = Vec::new();
    for &shape in &args.shapes {
        let cfg = cfg_of(args, shape)?;
        let report = sweep(&sweep_cfg, &cfg).map_err(|e| e.to_string())?;

        for (seed, f) in &report.failures {
            print_failure(&format!("seed {seed:#x} [shape {shape}]"), f, report.shrunk.get(seed));
        }
        if report.dropped_failures > 0 {
            println!(
                "... and {} more failing seed(s) beyond --max-failures {}",
                report.dropped_failures,
                args.max_failures
            );
        }
        println!(
            "explored {} seeds (shape {}, {} mode, {} worker{}) in {:.2?}: \
             {} green, {} failing, {} hung — {:.0} seeds/sec",
            report.count,
            shape,
            if cfg.buggy_dedup { "buggy" } else { "hardened" },
            report.jobs,
            if report.jobs == 1 { "" } else { "s" },
            report.elapsed,
            report.green,
            report.failing,
            report.hung,
            report.throughput()
        );
        if args.stats {
            print_stats(&report.stats, report.count, &format!("[shape {shape}]"));
        }

        total_failing += report.failing;
        sweeps.push((report, cfg));
    }

    if let Some(path) = &args.corpus {
        let summary = SweepReport::write_corpus(path, sweeps.iter().map(|(r, c)| (r, c)))
            .map_err(|e| format!("cannot write corpus {}: {e}", path.display()))?;
        println!("{summary}");
    }

    Ok(if total_failing == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The one `--stats` rendering for both explore and fuzz: every counter
/// family in [`dst::RunStats`], normalized per schedule where that is
/// meaningful.
fn print_stats(stats: &dst::RunStats, runs: u64, tag: &str) {
    let h = &stats.handoff;
    println!(
        "stats {tag}: {} steps, {} grants ({} self-grants), {} park-safety timeouts",
        h.steps, h.grants, h.self_grants, h.park_safety_timeouts
    );
    println!(
        "sched {tag}: {:.1} steps/schedule, {:.2} enabled ranks/grant",
        h.steps as f64 / runs as f64,
        h.enabled as f64 / h.grants.max(1) as f64
    );
    let a = &stats.alloc;
    println!(
        "alloc {tag}: {:.1} allocs/schedule \
         ({} allocs, {} frees, {:.1} KiB alloc'd/schedule)",
        a.allocs as f64 / runs as f64,
        a.allocs,
        a.deallocs,
        a.bytes_alloc as f64 / runs as f64 / 1024.0
    );
    let c = &stats.coverage;
    println!(
        "coverage {tag}: {} distinct edges, signature {:#018x}",
        c.edges, c.signature
    );
}

fn cmd_fuzz(args: &Args) -> Result<ExitCode, String> {
    // The shape here only names the scenario; the campaign's seeding
    // phase walks all seven shapes itself (--shape is gated off fuzz).
    let scenario = cfg_of(args, KillShape::Pair)?;
    let fuzz_cfg = FuzzCfg {
        seed: args.seed.unwrap_or(0),
        budget: args.budget.unwrap_or(1000),
        max_failures: args.max_failures,
        corpus: args.corpus.clone(),
    };
    check_corpus_writable(args.corpus.as_ref())?;
    let report = fuzz(&fuzz_cfg, &scenario).map_err(|e| e.to_string())?;

    for (i, f) in report.failures.iter().enumerate() {
        print_failure(&format!("failure {} [fuzz]", i + 1), f, None);
    }
    if report.dropped_failures > 0 {
        println!(
            "... and {} more failing schedule(s) beyond --max-failures {}",
            report.dropped_failures, args.max_failures
        );
    }
    println!(
        "fuzzed {} schedules (seed {:#x}: {} seeded, {} novel, corpus {}) \
         in {:.2?}: {} green, {} failing, {} hung — \
         {} distinct coverage edges, signature {:#018x}",
        report.executed,
        report.seed,
        report.seeded,
        report.novel,
        report.corpus.len(),
        report.elapsed,
        report.green,
        report.failing,
        report.hung,
        report.edges(),
        report.signature()
    );
    if args.stats {
        print_stats(&report.stats, report.executed, "[fuzz]");
    }
    if let Some(path) = &args.corpus {
        let w = report
            .write_corpus(path)
            .map_err(|e| format!("cannot write corpus {}: {e}", path.display()))?;
        let (loaded, wrote, at) = (report.loaded, w.lines, w.path.display());
        println!("evolved corpus: loaded {loaded} schedule(s), wrote {wrote} to {at}");
    }

    Ok(if report.failing == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_replay(args: &Args) -> Result<ExitCode, String> {
    let seed = need_seed(args)?;
    let cfg = cfg_of(args, args.shapes[0])?;
    let obs = run_seed(seed, &cfg);
    println!(
        "seed {seed:#x} ({} ranks, {} iters, shape {})",
        cfg.ranks, cfg.max_iter, cfg.shape
    );
    for k in &obs.schedule.kills {
        println!("schedule: {k}");
    }
    println!("delays at drain calls: {:?}", obs.delay_calls);
    println!("hung: {}", obs.hung);
    for (rank, o) in obs.outcomes.iter().enumerate() {
        println!("rank {rank}: {o:?}");
    }
    let failure = judge(&obs);
    for v in failure.iter().flat_map(|f| &f.violations) {
        println!("violation: {v}");
    }
    if args.triage {
        print!("{}", dst::triage(&obs));
    }
    if args.show_log {
        println!("--- decision log ---");
        print!("{}", obs.log);
    }
    if failure.is_none() {
        println!("all applicable oracles green");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_shrink(args: &Args) -> Result<ExitCode, String> {
    let seed = need_seed(args)?;
    let cfg = cfg_of(args, args.shapes[0])?;
    match shrink(seed, &cfg, None) {
        Some(s) => {
            println!(
                "seed {seed:#x}: shrunk to {} event(s) in {} runs",
                s.events.len(),
                s.runs
            );
            for ev in &s.events {
                println!("  {ev}");
            }
            for v in &s.violations {
                println!("  still violates: {v}");
            }
            Ok(ExitCode::SUCCESS)
        }
        None => {
            println!("seed {seed:#x}: schedule does not fail (nothing to shrink)");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_determinism(args: &Args) -> Result<ExitCode, String> {
    let seed = need_seed(args)?;
    let cfg = cfg_of(args, args.shapes[0])?;
    let a = run_seed(seed, &cfg);
    let b = run_seed(seed, &cfg);
    if a.log == b.log {
        println!(
            "seed {seed:#x}: two runs, byte-identical decision log ({} bytes)",
            a.log.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!("seed {seed:#x}: DIVERGED");
        println!("--- run A ---\n{}", a.log);
        println!("--- run B ---\n{}", b.log);
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.cmd.as_str() {
        "explore" => cmd_explore(&args),
        "fuzz" => cmd_fuzz(&args),
        "replay" => cmd_replay(&args),
        "shrink" => cmd_shrink(&args),
        "determinism" => cmd_determinism(&args),
        other => Err(format!("unknown command: {other}\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
