//! CLI-level tests for the `dst` binary: flag validation (checked
//! numeric casts, per-subcommand flag gating, shape selection) and the
//! clean-run triage output. Each test invokes the compiled binary the
//! way CI and humans do.

use std::process::{Command, Output};

fn dst(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dst"))
        .args(args)
        .output()
        .expect("dst binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `--ranks`, `--jobs`, `--max-failures` used to truncate through
/// unchecked `as usize` casts; values beyond the sane caps must be
/// usage errors, not wrapped or truncated configurations.
#[test]
fn absurd_numeric_flags_are_usage_errors() {
    for args in [
        ["explore", "--seeds", "1", "--ranks", "1025"],
        ["explore", "--seeds", "1", "--ranks", "0x100000001"],
        ["explore", "--seeds", "1", "--jobs", "1025"],
        ["explore", "--seeds", "1", "--max-failures", "1000001"],
        ["explore", "--seeds", "1", "--ranks", "18446744073709551615"],
    ] {
        let out = dst(&args);
        assert!(!out.status.success(), "{args:?} was accepted");
        let err = stderr(&out);
        assert!(
            err.contains("exceeds the supported maximum") && err.contains("usage:"),
            "{args:?} produced unexpected stderr: {err}"
        );
    }
    // In-range values are accepted.
    let out = dst(&["explore", "--seeds", "1", "--jobs", "4", "--max-failures", "10"]);
    assert!(out.status.success(), "in-range flags rejected: {}", stderr(&out));
}

/// `--log` is only meaningful for `replay`; every other subcommand
/// used to swallow it silently.
#[test]
fn log_flag_is_rejected_outside_replay() {
    for cmd in ["explore", "shrink", "determinism"] {
        let out = dst(&[cmd, "--seed", "3", "--seeds", "1", "--log"]);
        assert!(!out.status.success(), "{cmd} --log was accepted");
        let err = stderr(&out);
        assert!(
            err.contains("--log only applies to replay"),
            "{cmd} --log produced unexpected stderr: {err}"
        );
    }
    let out = dst(&["replay", "--seed", "3", "--log"]);
    assert!(out.status.success(), "replay --log failed: {}", stderr(&out));
    assert!(stdout(&out).contains("--- decision log ---"));
}

/// A green `replay --triage` prints an explicit no-pending-operations
/// line instead of empty output.
#[test]
fn triage_on_green_run_is_explicit() {
    // Seed 3 replays green at the default 4 ranks (pinned corpus).
    let out = dst(&["replay", "--seed", "3", "--triage"]);
    assert!(out.status.success(), "green replay failed: {}", stderr(&out));
    assert!(
        stdout(&out).contains("no pending operations"),
        "green triage output is not explicit: {}",
        stdout(&out)
    );
}

/// A hang is reported where it happens: the buggy ring's seed 0x3d
/// loses its token to a dead rank, and both `replay --triage` and the
/// explore failure line say at which step the last enabled rank
/// blocked, not that a budget ran out.
#[test]
fn a_deadlock_is_reported_at_its_step() {
    let out = dst(&["replay", "--seed", "0x3d", "--buggy", "--triage"]);
    assert!(!out.status.success(), "buggy seed 0x3d no longer fails");
    let text = stdout(&out);
    assert!(text.contains("hung: true"), "{text}");
    assert!(text.contains("wait-for graph (deadlock at step 41):"), "{text}");
    assert!(text.contains("rank 0 waits on T_N from rank 2"), "{text}");

    let out = dst(&["explore", "--start", "0x3d", "--seeds", "1", "--buggy"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("triage: deadlock at step 41: rank 0 waits on T_N from rank 2"), "{text}");
    assert!(!text.contains("budget"), "{text}");
}

/// A schedule costs steps in proportion to its messages, and 256 ranks
/// at three laps run green on the library default: the builder raises
/// it only past 12 500 rank-laps.
#[test]
fn large_world_runs_on_the_default_budget() {
    let out = dst(&["explore", "--ranks", "256", "--seeds", "2", "--stats"]);
    assert!(out.status.success(), "256-rank sweep failed: {}{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 green, 0 failing, 0 hung"), "{text}");
    // The per-schedule step count `ci.yml` gates on: about 13 per rank
    // at three laps, nowhere near the 200 000 default.
    let steps: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("sched [shape pair]: ")?.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no steps/schedule in: {text}"));
    assert!(steps < 256.0 * 20.0, "{steps} steps per 256-rank schedule");
}

/// A fixed step budget called a long ring a livelock: 64 ranks × 1000
/// laps takes ≈ 210 000 steps, past the 200 000 default. The builder
/// grants 16 steps per rank per lap, so the replay is green.
#[test]
fn a_long_ring_gets_a_step_budget_for_its_laps() {
    let out = dst(&["replay", "--seed", "0", "--ranks", "64", "--iters", "1000"]);
    assert!(out.status.success(), "{}{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("all applicable oracles green"));
}

/// `--shape` accepts every taxonomy name on single-schedule commands,
/// rejects unknown names, and gates `all` to explore.
#[test]
fn shape_flag_validation() {
    let out = dst(&["replay", "--seed", "3", "--shape", "triple"]);
    assert!(out.status.success(), "replay --shape triple failed: {}", stderr(&out));
    assert!(stdout(&out).contains("shape triple"));

    let out = dst(&["replay", "--seed", "3", "--shape", "bogus"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown kill shape: bogus"));

    let out = dst(&["replay", "--seed", "3", "--shape", "all"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--shape all only applies to explore"));

    let out = dst(&["explore", "--seeds", "1", "--shape", "all", "--buggy"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--buggy only applies to the pair shape"));
}

/// `explore --shape all` sweeps every shape and prints one summary
/// line per shape.
#[test]
fn explore_all_shapes_prints_per_shape_summaries() {
    let out = dst(&["explore", "--seeds", "3", "--shape", "all"]);
    assert!(out.status.success(), "explore --shape all failed: {}", stderr(&out));
    let text = stdout(&out);
    for shape in ["pair", "triple", "root-chain", "cascade", "validate", "spaced", "masked"] {
        assert!(
            text.contains(&format!("(shape {shape},")),
            "missing summary for shape {shape}: {text}"
        );
    }
}

/// `fuzz` gates its flags like every other subcommand: no shape (it
/// seeds across all of them), no buggy mode, and `--budget` belongs to
/// fuzz alone. The sweep engine's knobs (`--jobs`, `--shrink-failures`)
/// belong to explore alone — replay/shrink/determinism used to accept
/// them silently.
#[test]
fn fuzz_flag_gating() {
    for (args, needle) in [
        (vec!["fuzz", "--shape", "pair"], "--shape does not apply to fuzz"),
        (vec!["fuzz", "--buggy"], "--buggy does not apply to fuzz"),
        (vec!["fuzz", "--budget", "0"], "--budget must be at least 1"),
        (vec!["fuzz", "--jobs", "2"], "--jobs only applies to explore"),
        (vec!["fuzz", "--shrink-failures"], "--shrink-failures only applies to explore"),
        (vec!["replay", "--seed", "3", "--jobs", "4"], "--jobs only applies to explore"),
        (
            vec!["replay", "--seed", "3", "--shrink-failures"],
            "--shrink-failures only applies to explore",
        ),
        (vec!["shrink", "--seed", "0x2d", "--buggy", "--jobs", "4"], "--jobs only applies to explore"),
        (
            vec!["determinism", "--seed", "3", "--shrink-failures"],
            "--shrink-failures only applies to explore",
        ),
        (vec!["explore", "--seeds", "1", "--budget", "10"], "--budget only applies to fuzz"),
        (vec!["replay", "--seed", "3", "--stats"], "--stats only applies to explore and fuzz"),
    ] {
        let out = dst(&args);
        assert!(!out.status.success(), "{args:?} was accepted");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?} produced unexpected stderr: {err}");
    }
}

/// `--threads-budget` sized a pool of rank threads that no longer
/// exists, and `--no-pool` selected a second executor that no longer
/// exists; both are gone, not ignored.
#[test]
fn the_rank_thread_budget_flag_is_gone() {
    for flag in ["--threads-budget", "--no-pool"] {
        for cmd in ["explore", "fuzz"] {
            let out = dst(&[cmd, flag, "8"]);
            assert!(!out.status.success(), "{cmd} {flag} was accepted");
            let err = stderr(&out);
            assert!(
                err.contains(&format!("unknown flag: {flag}")) && err.contains("usage:"),
                "{cmd} {flag} produced unexpected stderr: {err}"
            );
        }
    }
}

/// Simulated ranks are coroutines on their worker's thread: a 64-rank
/// sweep ends with a verdict for every seed and never has more threads
/// than its workers, the main thread and one to spare.
#[cfg(target_os = "linux")]
#[test]
fn large_world_sweep_is_green_on_a_bounded_thread_count() {
    const JOBS: usize = 2;
    let mut child = Command::new(env!("CARGO_BIN_EXE_dst"))
        .args(["explore", "--ranks", "64", "--seeds", "50", "--jobs", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("dst binary runs");
    let status_path = format!("/proc/{}/status", child.id());
    let (mut peak, mut samples) = (0usize, 0usize);
    while child.try_wait().expect("child is waitable").is_none() {
        // The file vanishes when the child exits between the two calls.
        if let Ok(status) = std::fs::read_to_string(&status_path) {
            if let Some(threads) = status
                .lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse::<usize>().ok())
            {
                peak = peak.max(threads);
                samples += 1;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let out = child.wait_with_output().expect("child output");
    assert!(out.status.success(), "64-rank sweep failed: {}{}", stdout(&out), stderr(&out));
    assert!(
        stdout(&out).contains("explored 50 seeds") && stdout(&out).contains("50 green, 0 failing"),
        "no verdict per seed: {}",
        stdout(&out)
    );
    assert!(samples > 0, "the sweep finished before its thread count could be read");
    assert!(
        peak <= JOBS + 2,
        "a {JOBS}-worker sweep of 64-rank universes peaked at {peak} threads"
    );
}

/// A small fuzz campaign on the hardened ring: exit 0, a summary line
/// with coverage numbers, and `--stats` adds the full RunStats surface
/// (handoff with its per-schedule and per-grant means, alloc,
/// coverage) — the same three families explore reports.
#[test]
fn fuzz_runs_green_and_reports_coverage() {
    let out = dst(&["fuzz", "--budget", "80", "--seed", "7", "--stats"]);
    assert!(out.status.success(), "fuzz failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("fuzzed 80 schedules"), "summary missing: {text}");
    assert!(text.contains("distinct coverage edges"), "coverage missing: {text}");
    assert!(text.contains("stats [fuzz]:"), "handoff stats missing: {text}");
    assert!(
        text.contains("sched [fuzz]:") && text.contains("enabled ranks/grant"),
        "per-schedule scheduler stats missing: {text}"
    );
    assert!(text.contains("alloc [fuzz]:"), "alloc stats missing: {text}");
    assert!(text.contains("coverage [fuzz]:"), "coverage stats missing: {text}");
}

/// Two CLI invocations with the same master seed print identical
/// summaries apart from wall-clock timings — the user-visible face of
/// the determinism contract.
#[test]
fn fuzz_cli_is_deterministic_across_invocations() {
    let tmp = std::env::temp_dir();
    let c1 = tmp.join("dst_fuzz_cli_det_1.corpus");
    let c2 = tmp.join("dst_fuzz_cli_det_2.corpus");
    let run = |path: &std::path::Path| {
        let out = dst(&["fuzz", "--budget", "60", "--seed", "11", "--corpus",
                        path.to_str().unwrap()]);
        assert!(out.status.success(), "fuzz failed: {}", stderr(&out));
        std::fs::read_to_string(path).expect("corpus written")
    };
    let a = run(&c1);
    let b = run(&c2);
    let _ = std::fs::remove_file(&c1);
    let _ = std::fs::remove_file(&c2);
    assert_eq!(a, b, "evolved corpus files diverged between identical invocations");
    assert!(a.starts_with("# dst fuzz corpus v1"), "corpus header missing: {a}");
}

/// An explore sweep's `--corpus` output goes through the shared
/// `CorpusWrite` summary: clean runs say so without touching the
/// filesystem; failing runs report the line count.
#[test]
fn explore_corpus_write_summary() {
    let tmp = std::env::temp_dir();
    let clean = tmp.join("dst_cli_corpus_clean.txt");
    let out = dst(&["explore", "--seeds", "2", "--corpus", clean.to_str().unwrap()]);
    assert!(out.status.success(), "clean explore failed: {}", stderr(&out));
    assert!(stdout(&out).contains("not written"), "missing no-write summary");
    assert!(!clean.exists(), "clean sweep created a corpus file");

    let failing = tmp.join("dst_cli_corpus_failing.txt");
    let out = dst(&["explore", "--seeds", "1", "--start", "0x2d", "--buggy",
                    "--corpus", failing.to_str().unwrap()]);
    assert!(!out.status.success(), "buggy seed 0x2d no longer fails");
    assert!(
        stdout(&out).contains("wrote 1 repro line(s)"),
        "missing write summary: {}",
        stdout(&out)
    );
    assert!(failing.exists());
    let _ = std::fs::remove_file(&failing);
}

/// One corpus grammar: the failure corpus `explore` writes parses back,
/// line by line, to the schedule each seed derives, and `fuzz` loads it
/// as seed schedules and says how many.
#[test]
fn explore_corpus_round_trips_into_fuzz() {
    use dst::{ScenarioCfg, Schedule};
    let path = std::env::temp_dir().join("dst_cli_corpus_round_trip.txt");
    let file = path.to_str().unwrap();
    let out = dst(&["explore", "--buggy", "--seeds", "60", "--corpus", file]);
    assert!(stdout(&out).contains("wrote 37 repro line(s)"), "{}", stdout(&out));

    let buggy = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 37);
    for line in text.lines() {
        let (schedule, rest) = line.strip_prefix("schedule ").unwrap().split_once(" oracles=").unwrap();
        let schedule: Schedule = schedule.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(schedule, Schedule::from_seed(schedule.seed, &buggy), "{line}");
        assert!(rest.contains(&format!("repro=\"dst replay --seed {:#x} ", schedule.seed)));
    }

    let out = dst(&["fuzz", "--budget", "40", "--corpus", file]);
    assert!(out.status.success(), "fuzz on an explore corpus failed: {}", stderr(&out));
    assert!(stdout(&out).contains("loaded 37 schedule(s)"), "{}", stdout(&out));
    let evolved = std::fs::read_to_string(&path).unwrap();
    assert!(evolved.starts_with("# dst fuzz corpus v1"), "{evolved}");
    let _ = std::fs::remove_file(&path);
}

/// A corpus file `fuzz` cannot read in full is an error naming the
/// line, raised before any schedule runs, so the file is left as it
/// was; an empty or missing file is an empty corpus.
#[test]
fn fuzz_rejects_a_corpus_it_cannot_read_and_leaves_it_alone() {
    let path = std::env::temp_dir().join("dst_cli_corpus_malformed.txt");
    let file = path.to_str().unwrap();
    for (bytes, needle) in [
        (&b"# notes\ngarbage line\n"[..], ":2: not a `schedule"),
        (b"schedule seed=0x1 kills=[1:Tick:2\n", ":1: unterminated kills"),
        (b"schedule seed=0x1 kills=[5:Tick:2]\n", ":1: kills rank 5 but the scenario has 4 ranks"),
        (b"schedule seed=0x1 kills=[] \xff\xfe\n", "valid UTF-8"),
    ] {
        std::fs::write(&path, bytes).unwrap();
        let out = dst(&["fuzz", "--budget", "20", "--corpus", file]);
        assert!(!out.status.success(), "{:?} was accepted", String::from_utf8_lossy(bytes));
        let err = stderr(&out);
        assert!(err.contains("corpus error:") && err.contains(needle), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "a corpus that did not load was rewritten");
    }
    std::fs::write(&path, b"").unwrap();
    for loaded_from in ["an empty file", "a missing file"] {
        let out = dst(&["fuzz", "--budget", "20", "--corpus", file]);
        assert!(out.status.success(), "{loaded_from}: {}", stderr(&out));
        assert!(stdout(&out).contains("loaded 0 schedule(s)"), "{loaded_from}: {}", stdout(&out));
        std::fs::remove_file(&path).unwrap();
    }
}
