//! DST-backed property test: *adjacent-pair double kills in close
//! succession* over randomized deterministic schedules.
//!
//! On real threads the OS scheduler rarely lines up a second death
//! inside the first death's detection-to-repost gap, so the
//! cascading-failure window is almost never hit. This suite drives that
//! kill shape through the deterministic scheduler, where the seed also
//! controls grant order, match picks and delivery delays — the
//! exact machinery that exposed seeds 0x7f3 … 0x2624 and the takeover
//! cascade of 0x1882 (DESIGN.md §8.7). The vendored proptest shim does
//! not shrink or persist a failure; a case it found is pinned below.

use dst::{check_all, run_schedule, run_seed, triage, Kill, KillShape, ScenarioCfg, Schedule};
use faultsim::HookKind;
use proptest::prelude::*;

const HOOKS: [HookKind; 3] =
    [HookKind::Tick, HookKind::AfterSend, HookKind::AfterRecvComplete];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 64,
        .. ProptestConfig::default()
    })]

    /// Two adjacent ranks die within `delta <= 3` hook occurrences of
    /// each other, at arbitrary protocol points, over 4–8 ranks, under
    /// a scheduler seed that owns every interleaving decision. The
    /// hardened ring must complete and all oracles must stay green —
    /// in particular ring-completion (no hang) and
    /// detector-completeness (nobody waits forever on a dead peer).
    #[test]
    fn adjacent_double_kills_in_close_succession_stay_green(
        seed in 0u64..0x1_0000_0000,
        ranks in 4usize..9,
        first in 0usize..8,
        hook_a in 0usize..3,
        hook_b in 0usize..3,
        occurrence in 1u64..20,
        delta in 0u64..4,
    ) {
        prop_assume!(first < ranks);
        let second = (first + 1) % ranks;
        let kills = vec![
            Kill { victim: first, hook: HOOKS[hook_a], occurrence },
            Kill { victim: second, hook: HOOKS[hook_b], occurrence: occurrence + delta },
        ];
        let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
        let schedule = Schedule { seed, kills: kills.clone(), delay_mask: None };
        let obs = run_schedule(&schedule, &cfg);
        // On a hang, fail with the wait-for graph, not just "hung".
        prop_assert!(
            !obs.hung,
            "hung under {kills:?} (seed {seed:#x}, {ranks} ranks): {}",
            triage(&obs).one_line()
        );
        let violations = check_all(&obs);
        prop_assert!(
            violations.is_empty(),
            "oracle violations under {kills:?} (seed {seed:#x}, {ranks} ranks): {violations:?}"
        );
    }

    /// Every taxonomy shape (DESIGN.md §8.8), arbitrary seeds, 4–8
    /// ranks: the seed-derived schedule for the shape must leave all
    /// applicable oracles green. This is the property form of
    /// `dst explore --shape all`, biased toward fresh seeds every run.
    #[test]
    fn every_kill_shape_stays_green(
        seed in 0u64..0x1_0000_0000,
        shape_ix in 0usize..KillShape::ALL.len(),
        ranks in 4usize..9,
    ) {
        let shape = KillShape::ALL[shape_ix];
        let cfg = ScenarioCfg { ranks, shape, ..ScenarioCfg::default() };
        let obs = run_seed(seed, &cfg);
        prop_assert!(
            !obs.hung,
            "shape {shape} hung (seed {seed:#x}, {ranks} ranks, kills {:?}): {}",
            obs.schedule.kills,
            triage(&obs).one_line()
        );
        let violations = check_all(&obs);
        prop_assert!(
            violations.is_empty(),
            "shape {shape} violations (seed {seed:#x}, {ranks} ranks, kills {:?}): {violations:?}",
            obs.schedule.kills
        );
    }

    /// Cascading takeovers, explicitly: a strictly-increasing chain of
    /// kills starting at rank 0 so each newly-elected root dies in
    /// turn. The remaining ranks must still finish (or, when only one
    /// remains, abort per Figs. 4/5) with every oracle green.
    #[test]
    fn explicit_takeover_cascades_stay_green(
        seed in 0u64..0x1_0000_0000,
        ranks in 4usize..9,
        chain in 2usize..5,
        start in 1u64..8,
        gaps in proptest::collection::vec(1u64..6, 4..5),
        hooks in proptest::collection::vec(0usize..3, 4..5),
    ) {
        let chain = chain.min(ranks - 1);
        let mut occurrence = start;
        let mut kills = Vec::with_capacity(chain);
        for victim in 0..chain {
            kills.push(Kill { victim, hook: HOOKS[hooks[victim % hooks.len()]], occurrence });
            occurrence += gaps[victim % gaps.len()];
        }
        let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
        let schedule = Schedule { seed, kills: kills.clone(), delay_mask: None };
        let obs = run_schedule(&schedule, &cfg);
        prop_assert!(
            !obs.hung,
            "cascade hung under {kills:?} (seed {seed:#x}, {ranks} ranks): {}",
            triage(&obs).one_line()
        );
        let violations = check_all(&obs);
        prop_assert!(
            violations.is_empty(),
            "cascade violations under {kills:?} (seed {seed:#x}, {ranks} ranks): {violations:?}"
        );
    }
}

/// Explicit pin of the case this property discovered against the
/// pre-provenance protocol: ranks 3 and 0 die two grants apart at
/// Tick#7/Tick#9 under seed 0x558cf107, leaving the two survivors
/// waiting on each other's token forever.
#[test]
fn adjacent_kill_regression_0x558cf107() {
    let kills = vec![
        Kill { victim: 3, hook: HookKind::Tick, occurrence: 7 },
        Kill { victim: 0, hook: HookKind::Tick, occurrence: 9 },
    ];
    let schedule = Schedule { seed: 0x558cf107, kills, delay_mask: None };
    let obs = run_schedule(&schedule, &ScenarioCfg::default());
    assert!(!obs.hung, "regression hangs again: {}", triage(&obs).one_line());
    let violations = check_all(&obs);
    assert!(violations.is_empty(), "regression violates oracles: {violations:?}");
}
