//! Golden-log pin: the determinism contract the scheduler hot path
//! must never break.
//!
//! For a fixed seed set (seeds `0..32` at 4 and 8 ranks, hardened
//! ring) the scheduler's decision log must stay **byte-identical**
//! across code changes: replay (`dst replay --seed`) and ddmin
//! shrinking are only sound if the seed → schedule mapping is frozen.
//! The rendered logs are committed under `tests/golden/` and compared
//! verbatim; any optimization that reorders a grant, renumbers a
//! drain call, or changes a pick is caught here before it silently
//! invalidates every recorded failing seed.
//!
//! Regenerate after an *intentional* schedule-mapping change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p dst --test golden_logs
//! ```
//!
//! and justify the regeneration in the commit message — it orphans
//! all previously recorded seeds.

use std::fmt::Write as _;
use std::path::PathBuf;

use dst::{run_seed, KillShape, ScenarioCfg, SeedRunner};

/// Pinned seed set. Small enough to run in CI on every push, wide
/// enough to exercise kills (0–2 per seed), delays, any-source picks
/// and waitany picks at both rank counts.
const SEEDS: std::ops::Range<u64> = 0..32;

/// Additional pins from the 2000..10000 window validated by the
/// root-failover provenance fix (DESIGN.md §8.7): the seven formerly
/// hanging ROADMAP seeds plus the takeover-cascade seed 0x1882. These
/// exercise the root-death recovery paths — detector resends, mid-run
/// re-election, takeover closures — that the low seeds rarely reach,
/// so the determinism pin now covers the repaired code too.
const EXTENDED_SEEDS: [u64; 8] =
    [0x7f3, 0xf7f, 0xfbf, 0x177d, 0x1783, 0x2372, 0x2624, 0x1882];

/// All pinned seeds, low range first so the golden files stay
/// append-only across the extension.
fn all_seeds() -> impl Iterator<Item = u64> {
    SEEDS.chain(EXTENDED_SEEDS)
}

/// Kill-shape taxonomy pins (DESIGN.md §8.8), appended after the pair
/// sections so the extension stays append-only. Four low seeds per
/// non-pair shape exercise each derivation, plus the seeds whose
/// fixes the taxonomy sweeps produced: the mid-forward takeover
/// double-count (root-chain `0x1d1`), the dual-slot consumption
/// reorder (cascade `0xf5a`), and the zero-hop takeover closure
/// (triple `0x18576`, which fails at 8 ranks only but pins both).
fn shape_seeds() -> impl Iterator<Item = (KillShape, u64)> {
    // Masked pins chain last (not in taxonomy order) so its addition
    // kept the golden files append-only.
    let per_shape = KillShape::ALL
        .into_iter()
        .filter(|s| *s != KillShape::Pair && *s != KillShape::Masked)
        .flat_map(|s| (0..4u64).map(move |seed| (s, seed)));
    per_shape
        .chain([
            (KillShape::RootChain, 0x1d1),
            (KillShape::Cascade, 0xf5a),
            (KillShape::Triple, 0x18576),
        ])
        .chain((0..4u64).map(|seed| (KillShape::Masked, seed)))
}

fn golden_path(ranks: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("decision_logs_r{ranks}.txt"))
}

fn render(ranks: usize) -> String {
    let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
    let mut out = String::new();
    for seed in all_seeds() {
        let obs = run_seed(seed, &cfg);
        writeln!(out, "=== seed {seed:#x} ranks {ranks} ===").unwrap();
        out.push_str(&obs.log);
    }
    for (shape, seed) in shape_seeds() {
        let cfg = ScenarioCfg { ranks, shape, ..ScenarioCfg::default() };
        let obs = run_seed(seed, &cfg);
        writeln!(out, "=== seed {seed:#x} ranks {ranks} shape {shape} ===").unwrap();
        out.push_str(&obs.log);
    }
    out
}

/// `render` builds a fresh runner per seed (`run_seed`); here every
/// seed runs back-to-back through ONE runner — the reused-state path
/// sweeps, fuzz campaigns and shrinks take. The same goldens judge both
/// renderings: the standing proof that `Shared::reset` leaves exactly
/// what `Shared::fresh` builds, so a reset-protocol bug that let one
/// schedule's state bleed into the next shows up as a byte divergence
/// here.
fn render_pooled(ranks: usize) -> String {
    let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
    let mut runner = SeedRunner::new(ranks);
    let mut out = String::new();
    for seed in all_seeds() {
        let obs = runner.run_seed(seed, &cfg);
        writeln!(out, "=== seed {seed:#x} ranks {ranks} ===").unwrap();
        out.push_str(&obs.log);
    }
    for (shape, seed) in shape_seeds() {
        let cfg = ScenarioCfg { ranks, shape, ..ScenarioCfg::default() };
        let obs = runner.run_seed(seed, &cfg);
        writeln!(out, "=== seed {seed:#x} ranks {ranks} shape {shape} ===").unwrap();
        out.push_str(&obs.log);
    }
    out
}

fn check(ranks: usize) {
    check_rendering(ranks, render(ranks));
}

/// One-runner rendering judged against the identical goldens. Under
/// `GOLDEN_REGEN` the fresh-runner rendering stays the one that is
/// written; the one-runner rendering is compared against it in memory,
/// so regeneration can never pin a reset-protocol bug into the goldens.
fn check_pooled(ranks: usize) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        assert_eq!(
            render(ranks),
            render_pooled(ranks),
            "one-runner rendering diverged from fresh-runner at {ranks} ranks during regeneration"
        );
        return;
    }
    check_rendering(ranks, render_pooled(ranks));
}

fn check_rendering(ranks: usize, rendered: String) {
    let path = golden_path(ranks);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden log {} ({e}); generate it with \
             GOLDEN_REGEN=1 cargo test -p dst --test golden_logs",
            path.display()
        )
    });
    if golden == rendered {
        return;
    }
    // Find the first divergent line so the failure names the exact
    // decision that moved, not just "files differ".
    for (i, (g, r)) in golden.lines().zip(rendered.lines()).enumerate() {
        if g != r {
            panic!(
                "decision log diverged from golden at {} line {}:\n  golden:  {g}\n  current: {r}\n\
                 the seed → schedule mapping changed; this breaks replay and \
                 shrinking of every recorded seed",
                path.display(),
                i + 1,
            );
        }
    }
    panic!(
        "decision log diverged from golden {} in length only \
         (golden {} lines, current {} lines)",
        path.display(),
        golden.lines().count(),
        rendered.lines().count(),
    );
}

#[test]
fn decision_logs_byte_identical_r4() {
    check(4);
}

#[test]
fn decision_logs_byte_identical_r8() {
    check(8);
}

#[test]
fn pooled_decision_logs_byte_identical_r4() {
    check_pooled(4);
}

#[test]
fn pooled_decision_logs_byte_identical_r8() {
    check_pooled(8);
}
