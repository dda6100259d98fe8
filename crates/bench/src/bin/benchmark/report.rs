//! `run.sh` without `--workload`: every workload in a process of its
//! own (untraced pass, then traced pass), printed as tables with the
//! correctness checks and the layer-ledger sums. With `--repeat` the
//! whole set runs twice and the two are compared against the bounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::json::{parse, Json};
use crate::measure::median;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

/// What one child run printed.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// `note <key> <text>` lines, in order.
    pub notes: Vec<(String, String)>,
}

impl ChildResult {
    pub fn note(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Read a child's standard output: note lines, then the result object
/// on the last line.
pub fn parse_child(stdout: &str) -> Result<ChildResult, String> {
    let mut lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    let last = lines.pop().ok_or("no output")?;
    let doc = parse(last).map_err(|e| format!("result line is not JSON ({e}): {last:?}"))?;
    let whole = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .map(|n| n as u64)
            .ok_or(format!("result line lacks {key}"))
    };
    let mut metrics = BTreeMap::new();
    match doc.get("metrics") {
        Some(Json::Obj(fields)) => {
            for (name, entry) in fields {
                let v = entry.get("value").and_then(Json::as_f64);
                metrics.insert(
                    name.clone(),
                    v.ok_or(format!("metric {name} has no numeric value"))?,
                );
            }
        }
        _ => return Err("result line lacks metrics".into()),
    }
    let notes = lines
        .iter()
        .filter_map(|l| l.strip_prefix("note "))
        .map(|l| {
            let (k, v) = l.split_once(' ').unwrap_or((l, ""));
            (k.to_string(), v.to_string())
        })
        .collect();
    Ok(ChildResult {
        correct: doc
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("result line lacks correct")?,
        attempted: whole("attempted")?,
        failed: whole("failed")?,
        metrics,
        notes,
    })
}

/// Both passes of one workload.
struct WorkloadRuns {
    end_to_end: ChildResult,
    layers: ChildResult,
}

/// A child gets as long as the driver gives one run; a hung universe
/// must not hang the suite. Same limits as `run.sh` sets for one run.
const CHILD_TIMEOUT_S: &str = "170";

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new("timeout")
        .args(["-k", "5", CHILD_TIMEOUT_S])
        .arg(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload} under timeout: {e}"))?;
    if out.status.code() == Some(124) {
        return Err(format!(
            "{workload} did not finish within {CHILD_TIMEOUT_S} s"
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = parse_child(&stdout).map_err(|e| format!("{workload} ({}): {e}", out.status))?;
    // Exit code 1 is "ran, outputs incorrect": reported, not fatal here.
    if !out.status.success() && result.correct {
        return Err(format!(
            "{workload} exited with {} but claims correct output",
            out.status
        ));
    }
    Ok(result)
}

fn run_set(seed: u64, seconds: f64) -> Result<Vec<WorkloadRuns>, String> {
    let mut set = Vec::new();
    for w in &WORKLOADS {
        eprintln!("benchmark: {} ...", w.name);
        set.push(WorkloadRuns {
            end_to_end: child(w.name, seed, seconds, false)?,
            layers: child(w.name, seed, seconds, true)?,
        });
    }
    Ok(set)
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (0.01..1e7).contains(&v.abs()) {
        let digits = if v.abs() >= 1000.0 {
            1
        } else if v.abs() >= 10.0 {
            2
        } else {
            4
        };
        format!("{v:.digits$}")
    } else {
        format!("{v:.3e}")
    }
}

/// The metrics whose value depends on which workload the traced pass
/// ran; every other per-layer metric is the same measurement repeated.
fn per_workload(d: &MetricDef) -> bool {
    d.name.starts_with("os.") && d.name != "os.unpinned_over_pinned_ratio_n4"
        || d.name == "bench.trace_overhead_ratio"
}

fn print_set(set: &[WorkloadRuns]) -> bool {
    let mut ok = true;
    for (w, runs) in WORKLOADS.iter().zip(set) {
        let e = &runs.end_to_end;
        println!("\nworkload {} — {}", w.name, w.why);
        for d in &END_TO_END {
            println!(
                "  {:<16} {:>12} {:<6} {} is better, may worsen {:.0}%",
                d.name,
                e.metrics
                    .get(d.name)
                    .map_or("missing".into(), |v| fmt_value(*v)),
                d.unit,
                d.better.name(),
                d.bound.unwrap_or(0.0) * 100.0
            );
        }
        if let Some(tail) = e.note("tail") {
            let t: Vec<&str> = tail.split(' ').collect();
            if let [label, value, samples] = t[..] {
                let value = value.parse().map_or(value.to_string(), fmt_value);
                println!("  whole window     {value:>12} us     {label} of all {samples} batches, the highest percentile with >=10 beyond it; not gated");
            }
        }
        let raw: Vec<f64> = e
            .note("raw")
            .unwrap_or("")
            .split(' ')
            .filter_map(|f| f.parse().ok())
            .collect();
        if let [rate, divisor, handoff_us, loop_ns] = raw[..] {
            println!(
                "  wall clock       {:>12} 1/s    times above are wall time / {divisor:.3} (probe: handoff {handoff_us:.2} us, loop {loop_ns:.2} ns)",
                fmt_value(rate)
            );
        }
        let share = e.failed as f64 / e.attempted.max(1) as f64;
        println!(
            "  failed_ops_share {share:>11} ratio  {} of {} operations failed; outputs {}",
            e.failed,
            e.attempted,
            if e.correct { "correct" } else { "INCORRECT" }
        );
        if let Some(known) = e.note("known_violations") {
            println!("  known violations {known:>11} count  lone-survivor aborts the ring-completion oracle reports; counted apart, not failed");
        }
        for d in PER_LAYER.iter().filter(|d| per_workload(d)) {
            if let Some(v) = runs.layers.metrics.get(d.name) {
                println!("  {:<28} {:>12} {}", d.name, fmt_value(*v), d.unit);
            }
        }
        for (_, span) in runs.layers.notes.iter().filter(|(k, _)| k == "span") {
            let f: Vec<&str> = span.split(' ').collect();
            if let [name, count, total, own] = f[..] {
                let ms = |ns: &str| ns.parse::<f64>().unwrap_or(f64::NAN) / 1e6;
                println!(
                    "  span {name:<10} x{count:<8} total {:>10.2} ms  self {:>10.2} ms",
                    ms(total),
                    ms(own)
                );
            }
        }
        for (_, why) in e
            .notes
            .iter()
            .chain(&runs.layers.notes)
            .filter(|(k, _)| k == "failure")
        {
            println!("  FAILURE: {why}");
        }
        ok &= e.correct && runs.layers.correct;
    }

    println!(
        "\nlayers — median of the {} traced passes [lowest .. highest]",
        set.len()
    );
    for d in PER_LAYER.iter().filter(|d| !per_workload(d)) {
        let values: Vec<f64> = set
            .iter()
            .filter_map(|r| r.layers.metrics.get(d.name).copied())
            .collect();
        if values.is_empty() {
            println!("  {:<42} missing", d.name);
            continue;
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  {:<42} {:>12} {:<7} [{} .. {}]{}",
            d.name,
            fmt_value(median(&values)),
            d.unit,
            fmt_value(lo),
            fmt_value(hi),
            if d.exact { "  exact" } else { "" }
        );
    }

    println!("\nchecks");
    let digests: Vec<&str> = set
        .iter()
        .filter_map(|r| r.layers.note("decision_digest"))
        .collect();
    let same = digests.len() == set.len() && digests.windows(2).all(|w| w[0] == w[1]);
    println!(
        "  decision_digest {} — identical in all {} passes: {}",
        digests.first().unwrap_or(&"missing"),
        set.len(),
        yes_no(same)
    );
    ok &= same;
    for d in PER_LAYER.iter().filter(|d| d.exact) {
        let values: Vec<f64> = set
            .iter()
            .filter_map(|r| r.layers.metrics.get(d.name).copied())
            .collect();
        let same = values.len() == set.len() && values.windows(2).all(|w| w[0] == w[1]);
        println!("  {} identical in all passes: {}", d.name, yes_no(same));
        ok &= same;
    }
    let layer = |name: &str| {
        let v: Vec<f64> = set
            .iter()
            .filter_map(|r| r.layers.metrics.get(name).copied())
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    // A missing value is NaN, and NaN is within nothing.
    for n in ["n4", "n8"] {
        let r = layer(&format!("dst.attribution.residual_share_{n}"));
        let within = r.abs() <= 0.10;
        println!(
            "  ledger: |dst.attribution.residual_share_{n}| = {:.3} <= 0.10: {}",
            r.abs(),
            yes_no(within)
        );
        ok &= within;
    }
    let lap = 4.0 * layer("ftmpi.pt2pt.hop_us_n4");
    let ring = WORKLOADS
        .iter()
        .zip(set)
        .find(|(w, _)| w.name == "ring_ft_4")
        .and_then(|(_, r)| r.end_to_end.metrics.get("op_us_p50").copied())
        .unwrap_or(f64::NAN);
    let gap = lap / ring - 1.0;
    let within = gap.abs() <= 0.10;
    println!(
        "  ledger: ftmpi.pt2pt.hop_us_n4 x 4 = {lap:.2} us vs ring_ft_4 op_us_p50 = {ring:.2} us ({:+.1}%), within 10%: {}",
        gap * 100.0,
        yes_no(within)
    );
    ok &= within;
    println!(
        "  all outputs correct and the ledger adds up: {}",
        yes_no(ok)
    );
    ok
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

/// How much worse the worse of `a`, `b` is than the better one, as a
/// share of the better one (the two sets have no fixed order).
fn gap(d: &MetricDef, a: f64, b: f64) -> f64 {
    let (better, worse) = match d.better {
        Better::Lower => (a.min(b), a.max(b)),
        Better::Higher => (a.max(b), a.min(b)),
    };
    if better == 0.0 {
        return if worse == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (worse - better).abs() / better.abs()
}

fn compare_sets(a: &[WorkloadRuns], b: &[WorkloadRuns]) -> bool {
    let mut ok = true;
    println!("\nrepeatability — two sets of the same build");
    println!(
        "  {:<16} {:<14} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for ((w, ra), rb) in WORKLOADS.iter().zip(a).zip(b) {
        for d in &END_TO_END {
            let (Some(&x), Some(&y)) = (
                ra.end_to_end.metrics.get(d.name),
                rb.end_to_end.metrics.get(d.name),
            ) else {
                println!("  {:<16} {:<14} missing", w.name, d.name);
                ok = false;
                continue;
            };
            let g = gap(d, x, y);
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let within = g <= bound;
            ok &= within;
            println!(
                "  {:<16} {:<14} {:>12} {:>12} {:>7.2}% {:>6.0}%{}",
                w.name,
                d.name,
                fmt_value(x),
                fmt_value(y),
                g * 100.0,
                bound * 100.0,
                if within { "" } else { "  OUTSIDE" }
            );
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let (x, y) = (ra.layers.metrics.get(d.name), rb.layers.metrics.get(d.name));
            if x.is_none() || x != y {
                println!("  {:<16} {} differs: {x:?} vs {y:?}", w.name, d.name);
                ok = false;
            }
        }
        let (x, y) = (
            ra.layers.note("decision_digest"),
            rb.layers.note("decision_digest"),
        );
        if x.is_none() || x != y {
            println!("  {:<16} decision_digest differs: {x:?} vs {y:?}", w.name);
            ok = false;
        }
    }
    println!(
        "  exact counts and decision_digest equal, every gap within its bound: {}",
        yes_no(ok)
    );
    ok
}

pub fn suite(seed: u64, seconds: f64, repeat: bool) -> ExitCode {
    let pinned = crate::pinned_cpu();
    println!(
        "  seed: {seed}\n  windows: {seconds} s untraced; traced pass {} s reference + {} s traced + {} s unpinned probe\n  pinned_cpu: {}",
        seconds / 8.0,
        seconds * 3.0 / 8.0,
        seconds * 3.0 / 8.0,
        pinned.map_or("none".to_string(), |c| c.to_string())
    );
    if pinned.is_none() {
        println!("NOT PINNED: taskset failed or run.sh was bypassed; no numbers are printed under the pinned names");
        return ExitCode::from(3);
    }
    let mut sets = Vec::new();
    for _ in 0..if repeat { 2 } else { 1 } {
        match run_set(seed, seconds) {
            Ok(s) => sets.push(s),
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let mut ok = true;
    for (i, set) in sets.iter().enumerate() {
        if repeat {
            println!("\n==== set {} of 2 ====", i + 1);
        }
        ok &= print_set(set);
    }
    if let [a, b] = &sets[..] {
        ok &= compare_sets(a, b);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_parses_notes_and_the_last_line() {
        let out = "note tail p99 612.5 801\nnote failure seed 0x2d violated no-duplicate: lap 3\n\
                   {\"correct\": false, \"attempted\": 16020, \"failed\": 1, \"metrics\": \
                   {\"ops_per_s\": {\"value\": 2002.5, \"unit\": \"1/s\"}}}\n";
        let r = parse_child(out).unwrap();
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (16020, 1));
        assert_eq!(r.metrics["ops_per_s"], 2002.5);
        assert_eq!(r.note("tail"), Some("p99 612.5 801"));
        assert_eq!(
            r.note("failure"),
            Some("seed 0x2d violated no-duplicate: lap 3")
        );
        assert!(parse_child("").is_err());
        assert!(parse_child("note only a note\n").is_err());
        assert!(parse_child("{\"correct\": true}\n").is_err());
    }

    #[test]
    fn gap_is_measured_from_the_better_value() {
        let lower = &END_TO_END[2];
        assert_eq!(lower.better, Better::Lower);
        assert!((gap(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((gap(lower, 110.0, 100.0) - 0.10).abs() < 1e-12);
        let higher = &END_TO_END[1];
        assert_eq!(higher.better, Better::Higher);
        assert!((gap(higher, 2000.0, 1800.0) - 0.10).abs() < 1e-12);
        assert_eq!(gap(lower, 0.0, 0.0), 0.0);
        assert_eq!(gap(lower, 0.0, 1.0), f64::INFINITY);
    }
}
