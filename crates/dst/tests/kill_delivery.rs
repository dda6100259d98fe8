//! Kill delivery: how many of the fail-stops a seed plans are actually
//! delivered.
//!
//! A kill is planned as "rank `v`, hook `h`, occurrence `k`"; it is
//! delivered only if `v` reaches the `k`-th `h` before the run ends.
//! The event-driven scheduler grants a blocked rank roughly once per
//! message it receives instead of once per draw it happened to win, so
//! a rank left alone would see a handful of `Tick` hooks per run where
//! it used to see hundreds — and `Tick#k` kills (a third of ordinary
//! kill sites, occurrences up to 25) would silently stop firing. The
//! runtime therefore keeps a rank enabled while the fault plan still
//! owes it a `Tick` kill (`Process::wait_loop`). This test is the gate
//! on that rule: per shape, the delivered share over seeds `0..10000`
//! at 4 and 8 ranks is held to what the always-poll scheduler of the
//! parent commit delivered (measured there with this same loop;
//! EXPERIMENTS.md "Kill delivery" has both columns).
//!
//! A seed now names the same kill-set in a different interleaving, so
//! a kill that sat on the edge of the run — the victim's last few
//! ticks — may land on one side and not on the other, in either
//! direction. Over the fourteen cells the change delivers 120 794 kills
//! to the parent's 120 786; single cells differ by −0.11 to +0.27
//! percentage points of the planned kills, where moving the *parent's*
//! seed window to `10000..20000` moves them by 0.06 to 1.2. The gate
//! allows [`SLACK_PP`] of that noise and no more: without the
//! stay-enabled rule two thirds of the `Tick` kills are gone and a cell
//! drops by 3 points (validate, which plans few of them) to 20.

use dst::{KillShape, ScenarioCfg, SeedRunner};
use ftmpi::Event;

const SEEDS: u64 = 10_000;

/// Tolerated shortfall against the parent, in percentage points of the
/// planned kills.
const SLACK_PP: f64 = 0.25;

/// `(planned, delivered)` kills of `shape` over seeds `0..SEEDS`.
fn delivery(shape: KillShape, ranks: usize) -> (u64, u64) {
    let cfg = ScenarioCfg { ranks, shape, ..ScenarioCfg::default() };
    let mut runner = SeedRunner::new(ranks);
    let (mut planned, mut delivered) = (0u64, 0u64);
    for seed in 0..SEEDS {
        let obs = runner.run_seed_quiet(seed, &cfg);
        planned += obs.schedule.kills.len() as u64;
        delivered +=
            obs.trace.iter().filter(|e| matches!(e.event, Event::Killed { .. })).count() as u64;
        runner.recycle(obs);
    }
    (planned, delivered)
}

/// `(planned, delivered)` per shape at the parent commit (`b37a775`),
/// 4 and 8 ranks, in `KillShape::ALL` order. `planned` is a function of
/// the seed alone and is asserted equal.
const PARENT: [(KillShape, [(u64, u64); 2]); 7] = [
    (KillShape::Pair, [(9936, 3784), (9936, 4075)]),
    (KillShape::Triple, [(30000, 11263), (30000, 12350)]),
    (KillShape::RootChain, [(24968, 11391), (24968, 11418)]),
    (KillShape::Cascade, [(24968, 11611), (29936, 13308)]),
    (KillShape::Validate, [(14968, 7149), (14968, 7180)]),
    (KillShape::Spaced, [(24968, 6479), (24968, 9343)]),
    (KillShape::Masked, [(14968, 5317), (14968, 6118)]),
];

#[test]
fn delivered_share_per_shape_holds_the_always_poll_level() {
    // One thread per cell: 140 000 traced schedules are a minute of
    // debug-profile work on one core.
    let cells: Vec<(KillShape, usize, (u64, u64))> = PARENT
        .into_iter()
        .flat_map(|(shape, parent)| [4usize, 8].into_iter().zip(parent).map(move |(r, p)| (shape, r, p)))
        .collect();
    let measured: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> =
            cells.iter().map(|&(shape, ranks, _)| s.spawn(move || delivery(shape, ranks))).collect();
        handles.into_iter().map(|h| h.join().expect("cell thread")).collect()
    });
    let (mut total, mut parent_total) = (0u64, 0u64);
    for ((shape, ranks, (parent_planned, parent_delivered)), (planned, delivered)) in
        cells.into_iter().zip(measured)
    {
        println!(
            "{shape} {ranks} ranks: planned {planned}, delivered {delivered} \
             (parent {parent_delivered})"
        );
        assert_eq!(planned, parent_planned, "{shape} at {ranks} ranks plans differently");
        let floor = parent_delivered as f64 - planned as f64 * SLACK_PP / 100.0;
        assert!(
            delivered as f64 >= floor,
            "{shape} at {ranks} ranks delivers {delivered} of {planned} kills, \
             the parent delivered {parent_delivered}"
        );
        total += delivered;
        parent_total += parent_delivered;
    }
    assert!(total >= parent_total, "{total} kills delivered in all, the parent {parent_total}");
}
