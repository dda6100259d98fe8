//! The repository's benchmark: seven workloads, five end-to-end
//! metrics with the same names on each, and a per-layer ledger measured
//! from outside the crates it names. Start it through `run.sh` in this
//! directory (release build, one pinned CPU); `README.md` beside it
//! explains every workload and metric.
//!
//! ```text
//! run.sh --workload W --seed S --seconds T --trace 0|1   one run, one JSON result line
//! run.sh [--seed S] [--seconds T] [--repeat]             every workload, report tables
//! ```

mod calib;
mod json;
mod layers;
mod measure;
mod metrics;
mod procfs;
mod report;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use calib::Calibrator;
use json::Json;
use measure::{median, run_window, tail_percentile, WindowResult};
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use spans::{self_times, Tracer};
use workloads::{Workload, WORKLOADS};

/// Fresh state is built and warmed this many times per untraced run;
/// `setup_s` is the median, the last one is measured.
const SETUP_REPS: usize = 7;

/// Set by `run.sh` to the CPUs the process could use before pinning;
/// the unpinned probe is launched onto them.
const UNPINNED_CPUS_ENV: &str = "BENCHMARK_UNPINNED_CPUS";

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 12.0;

struct RunArgs {
    workload: &'static workloads::Def,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// This process *is* the unpinned probe of another run: do not
    /// insist on one CPU, set up once.
    unpinned_probe: bool,
}

enum Mode {
    Run(RunArgs),
    Suite {
        seed: u64,
        seconds: f64,
        repeat: bool,
    },
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         run.sh [--seed <n>] [--seconds <s>] [--repeat]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut repeat = false;
    let mut unpinned_probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a number"))?;
                if !(0.05..=60.0).contains(&seconds) {
                    return Err(format!("--seconds {v} is outside 0.05..=60"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                }
            }
            "--repeat" => repeat = true,
            "--unpinned-probe" => unpinned_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match workload {
        Some(name) => {
            let workload = WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?;
            if repeat {
                return Err("--repeat runs every workload; drop --workload".into());
            }
            Ok(Mode::Run(RunArgs {
                workload,
                seed,
                seconds,
                trace,
                unpinned_probe,
            }))
        }
        None => Ok(Mode::Suite {
            seed,
            seconds,
            repeat,
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("benchmark: this is a debug build; numbers from it mean nothing (use run.sh, which builds --release)");
        return ExitCode::from(2);
    }
    match mode {
        Mode::Run(a) => run_one(&a),
        Mode::Suite {
            seed,
            seconds,
            repeat,
        } => report::suite(seed, seconds, repeat),
    }
}

/// The single CPU this process is pinned to, if it is pinned.
pub fn pinned_cpu() -> Option<usize> {
    match procfs::allowed_cpus()?.as_slice() {
        [one] => Some(*one),
        _ => None,
    }
}

/// Lines the suite reads back from a child, printed before the result
/// line: `note <key> <text>`.
fn note(key: &str, text: impl std::fmt::Display) {
    println!("note {key} {text}");
}

fn run_one(a: &RunArgs) -> ExitCode {
    if !a.unpinned_probe && pinned_cpu().is_none() {
        // Every workload has one runnable rank at a time; spread over
        // several vCPUs the numbers measure the hypervisor's wakeups
        // (2–10x slower, not repeatable). Never print those under the
        // pinned names.
        eprintln!(
            "benchmark: not pinned to one CPU (allowed: {:?}); start it through run.sh",
            procfs::allowed_cpus().unwrap_or_default()
        );
        return ExitCode::from(3);
    }

    let reps = if a.trace || a.unpinned_probe {
        1
    } else {
        SETUP_REPS
    };
    let mut failures: Vec<String> = Vec::new();
    let mut setups = Vec::new();
    let mut state: Option<Box<dyn Workload>> = None;
    let mut off = Tracer::new(false);
    let cal = Calibrator::start();
    let clock = cal.clock(a.workload.sensitivity);
    for _ in 0..reps {
        drop(state.take());
        let watch = clock.stopwatch();
        let mut w = (a.workload.build)(a.seed);
        let warm = w.warm_up(&mut off);
        setups.push(watch.stop().us() / 1e6);
        failures.extend(warm.failure.map(|f| format!("warm-up: {f}")));
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up");

    let (attempted, failed, metrics) = if a.trace {
        traced_pass(a, w.as_mut(), &cal, &mut failures)
    } else {
        let r = run_window(
            w.as_mut(),
            Duration::from_secs_f64(a.seconds),
            &mut off,
            clock,
        );
        failures.extend(r.first_failure.clone());
        note_window(&r);
        let values = [
            median(&setups),
            r.ops_per_s(),
            r.op_us(0.5),
            r.op_us(0.9),
            r.allocs as f64 / r.ops as f64,
        ];
        (r.ops, r.failed, END_TO_END.iter().zip(values).collect())
    };
    drop(w);

    failures.dedup();
    for f in &failures {
        eprintln!("benchmark: {}: {f}", a.workload.name);
        note("failure", f);
    }
    let correct = failures.is_empty() && failed == 0;
    println!(
        "{}",
        result_line(correct, attempted, failed, &metrics).render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Context for a window's metrics, printed and never gated: the
/// whole window's tail (the highest percentile with at least ten
/// batches beyond it, with the batch count), the oracle reports counted
/// apart from failures, and the wall-clock rate and probe cost the
/// calibrated figures were derived from.
fn note_window(r: &WindowResult) {
    let sorted = r.op_us_sorted();
    let (p, label) = tail_percentile(sorted.len());
    note(
        "tail",
        format!(
            "{label} {} {}",
            measure::percentile(&sorted, p),
            sorted.len()
        ),
    );
    if r.known_violations > 0 {
        note("known_violations", r.known_violations);
    }
    let whole = r.whole();
    note(
        "raw",
        format!(
            "{} {} {} {}",
            r.ops as f64 / (whole.raw_us / 1e6),
            whole.raw_us / whole.us(),
            whole.probe.handoff_us,
            whole.probe.loop_ns
        ),
    );
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&MetricDef, f64)]) -> Json {
    let metrics = metrics
        .iter()
        .map(|(d, v)| {
            let entry = vec![
                ("value".to_string(), Json::Num(*v)),
                ("unit".to_string(), Json::Str(d.unit.into())),
            ];
            (d.name.to_string(), Json::Obj(entry))
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// `<target dir>/benchmark/`, next to the `release/` directory the
/// executable was built into.
fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let target = exe
        .parent()
        .and_then(|release| release.parent())
        .expect("exe is in <target>/release");
    target.join("benchmark")
}

/// The traced pass: a short untraced reference window, the traced
/// window, then every layer measurement and the unpinned probe.
fn traced_pass<'a>(
    a: &RunArgs,
    w: &mut dyn Workload,
    cal: &Calibrator,
    failures: &mut Vec<String>,
) -> (u64, u64, Vec<(&'a MetricDef, f64)>) {
    let mut off = Tracer::new(false);
    let clock = cal.clock(a.workload.sensitivity);
    let reference = run_window(w, Duration::from_secs_f64(a.seconds / 8.0), &mut off, clock);
    failures.extend(reference.first_failure.clone());

    let mut tr = Tracer::new(true);
    let before = procfs::sample();
    let traced = run_window(
        w,
        Duration::from_secs_f64(a.seconds * 3.0 / 8.0),
        &mut tr,
        clock,
    );
    let after = procfs::sample();
    failures.extend(traced.first_failure.clone());

    let (mut m, notes) = match layers::measure_all(a.seed, cal) {
        Ok(x) => x,
        Err(e) => {
            // Nothing below can be trusted; report the one cause.
            failures.push(format!("layer measurement: {e}"));
            return (
                reference.ops + traced.ops,
                reference.failed + traced.failed,
                Vec::new(),
            );
        }
    };
    note(
        "decision_digest",
        format!("{:#018x}", notes.decision_digest),
    );

    let cpu =
        (after.utime_ticks + after.stime_ticks - before.utime_ticks - before.stime_ticks).max(1);
    m.insert(
        "os.sys_cpu_share",
        (after.stime_ticks - before.stime_ticks) as f64 / cpu as f64,
    );
    // Each probe round trip switches to the echo thread and back; take
    // both halves out so the count is the workload's own.
    let probe_switches = 2 * after
        .echo_ctx_switches
        .saturating_sub(before.echo_ctx_switches);
    let switches = after
        .ctx_switches
        .saturating_sub(before.ctx_switches)
        .saturating_sub(probe_switches);
    m.insert(
        "os.ctx_switches_per_op",
        switches as f64 / traced.ops as f64,
    );
    m.insert("os.peak_rss_kib", after.peak_rss_kib as f64);
    m.insert(
        "bench.trace_overhead_ratio",
        traced.ops_per_s() / reference.ops_per_s(),
    );
    match unpinned_probe(a) {
        Ok(rate) => {
            m.insert(
                "os.unpinned_over_pinned_ratio_n4",
                rate / notes.explore_n4_ops_per_s,
            );
        }
        Err(e) => failures.push(format!("unpinned probe: {e}")),
    }

    let path = output_dir().join(format!("trace-{}.jsonl", a.workload.name));
    match tr.write_jsonl(&path) {
        Ok(()) => note("trace_file", path.display()),
        Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
    }
    for (name, t) in self_times(tr.spans()) {
        note(
            "span",
            format!("{name} {} {} {}", t.count, t.total_ns, t.self_ns),
        );
    }
    note_window(&traced);

    let mut out = Vec::new();
    for d in &PER_LAYER {
        match m.get(d.name) {
            Some(v) if v.is_finite() => out.push((d, *v)),
            _ => failures.push(format!("layer metric {} was not measured", d.name)),
        }
    }
    (
        reference.ops + traced.ops,
        reference.failed + traced.failed,
        out,
    )
}

/// A 3/8-length `explore_pair_4` window on every CPU the process
/// could use before it was pinned; returns its wall-clock rate.
fn unpinned_probe(a: &RunArgs) -> Result<f64, String> {
    let cpus = std::env::var(UNPINNED_CPUS_ENV).map_err(|_| {
        format!("{UNPINNED_CPUS_ENV} is not set; start the benchmark through run.sh")
    })?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new("taskset")
        .args(["-c", &cpus])
        .arg(exe)
        .args([
            "--workload",
            "explore_pair_4",
            "--trace",
            "0",
            "--unpinned-probe",
        ])
        .args([
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &(a.seconds * 3.0 / 8.0).max(0.05).to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start taskset: {e}"))?;
    let result = report::parse_child(&String::from_utf8_lossy(&out.stdout))?;
    if !out.status.success() || !result.correct {
        return Err(format!("probe failed ({})", out.status));
    }
    // Across CPUs the probe's wakeups cost something else entirely, so
    // the unpinned rate is compared on the wall clock.
    let raw = result
        .note("raw")
        .and_then(|n| n.split(' ').next()?.parse().ok());
    raw.ok_or_else(|| "probe printed no wall-clock rate".into())
}
