//! The kill-shape taxonomy (DESIGN.md §8.8) exercised on the
//! **wall-clock** path: the same seed-derived kill-sets the DST sweeps
//! explore, but run without a simulation scheduler, so real thread
//! interleavings and the transport's park/spin handoff carry the run.
//!
//! The same seven ring oracles that judge the simulated interleavings
//! (`dst::RingRun`) judge every wall-clock run here, so the *protocol*
//! under each shape family is shown to survive arbitrary OS scheduling
//! too: no hang (the watchdog breaks one), no double completion, every
//! survivor terminated having handled every lap, and every lap closed
//! whenever the initial root survived (a lone survivor aborting per the
//! paper's Figs. 4/5 is a correct outcome, not a failure).
//!
//! CI runs one shape as a smoke test
//! (`cargo test --test wallclock_shapes shape_pair`); the nightly run
//! executes the full suite.

use std::time::Duration;

use dst::{KillShape, RingRun, ScenarioCfg, Schedule};
use faultsim::FaultPlan;
use ftmpi::{run, UniverseConfig, WORLD};
use ftring::run_ring;

/// Seeds per shape. Wall-clock runs are orders of magnitude slower
/// than simulated ones, so this stays small; the point is coverage of
/// the shape family's protocol structure, not seed-space volume.
const SEEDS: [u64; 3] = [0x1, 0x2d, 0x77];

fn run_shape(shape: KillShape) {
    let cfg = ScenarioCfg { shape, ..ScenarioCfg::default() };
    for seed in SEEDS {
        let schedule = Schedule::from_seed(seed, &cfg);
        let plan = schedule
            .kills
            .iter()
            .fold(FaultPlan::none(), |p, k| p.kill_at(k.victim, k.hook, k.occurrence));
        let ring = cfg.ring_config();
        let report = run(
            cfg.ranks,
            UniverseConfig::with_plan(plan.clone()).watchdog(Duration::from_secs(120)),
            |p| run_ring(p, WORLD, &ring),
        );
        let violations = RingRun::of(&ring, &plan, &report).violations();
        assert!(violations.is_empty(), "shape {shape}, seed {seed:#x}: {violations:?}");
    }
}

#[test]
fn shape_pair() {
    run_shape(KillShape::Pair);
}

#[test]
fn shape_triple() {
    run_shape(KillShape::Triple);
}

#[test]
fn shape_root_chain() {
    run_shape(KillShape::RootChain);
}

#[test]
fn shape_cascade() {
    run_shape(KillShape::Cascade);
}

#[test]
fn shape_validate() {
    run_shape(KillShape::Validate);
}

#[test]
fn shape_spaced() {
    run_shape(KillShape::Spaced);
}

/// The masked shape's delay-mask names simulated drain calls, which
/// have no wall-clock analogue — `run_shape` ignores
/// `Schedule::delay_mask` and exercises the kill-set alone, same as
/// the DST oracles' protocol-level claims.
#[test]
fn shape_masked() {
    run_shape(KillShape::Masked);
}
