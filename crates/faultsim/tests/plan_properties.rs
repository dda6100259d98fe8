//! Property tests for the fault-injection machinery itself: rules fire
//! exactly once, exactly at their occurrence, and only for matching
//! hooks — under arbitrary hook streams.

use proptest::prelude::*;

use faultsim::{Decision, FaultPlan, FaultRule, Hook, HookKind, Injector, Trigger};

const KINDS: [HookKind; 6] = [
    HookKind::BeforeSend,
    HookKind::AfterSend,
    HookKind::BeforeRecvPost,
    HookKind::AfterRecvComplete,
    HookKind::BeforeCollective,
    HookKind::Tick,
];

fn hook_strategy() -> impl Strategy<Value = (usize, Hook)> {
    (0usize..4, 0usize..KINDS.len(), prop::option::of(0usize..4), prop::option::of(0i32..3))
        .prop_map(|(rank, k, peer, tag)| (rank, Hook { kind: KINDS[k], peer, tag }))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// A rule fires exactly when its n-th matching hook is observed,
    /// and never again.
    #[test]
    fn rule_fires_exactly_on_nth_match(
        stream in prop::collection::vec(hook_strategy(), 1..80),
        victim in 0usize..4,
        kind_idx in 0usize..KINDS.len(),
        occurrence in 1u64..6,
    ) {
        let kind = KINDS[kind_idx];
        let plan = FaultPlan::none()
            .with(FaultRule::kill(victim, Trigger::on(kind).nth(occurrence)));
        let inj = Injector::new(&plan);

        let mut matches_seen = 0u64;
        let mut fired_at: Option<usize> = None;
        for (i, (rank, hook)) in stream.iter().enumerate() {
            let decision = inj.observe(*rank, hook);
            let is_match = *rank == victim && hook.kind == kind;
            if is_match {
                matches_seen += 1;
            }
            match decision {
                Decision::KillSelf => {
                    prop_assert!(is_match, "fired on a non-matching hook");
                    prop_assert_eq!(matches_seen, occurrence, "fired at the wrong occurrence");
                    prop_assert!(fired_at.is_none(), "fired twice");
                    fired_at = Some(i);
                }
                Decision::Continue => {
                    if is_match && fired_at.is_none() {
                        prop_assert!(matches_seen != occurrence);
                    }
                }
                Decision::KillOthers(_) => prop_assert!(false, "no KillOther rules armed"),
            }
        }
        let total_matches = stream
            .iter()
            .filter(|(r, h)| *r == victim && h.kind == kind)
            .count() as u64;
        prop_assert_eq!(
            fired_at.is_some(),
            total_matches >= occurrence,
            "fired iff enough matches occurred"
        );
        let next = inj.observe(victim, &Hook::bare(kind));
        prop_assert_eq!(next == Decision::KillSelf, total_matches + 1 == occurrence);
    }

    /// Peer/tag constraints narrow matches correctly.
    #[test]
    fn peer_and_tag_constraints_respected(
        stream in prop::collection::vec(hook_strategy(), 1..60),
        peer in 0usize..4,
        tag in 0i32..3,
    ) {
        let plan = FaultPlan::none().with(FaultRule::kill(
            0,
            Trigger::on(HookKind::AfterSend).peer(peer).tag(tag).nth(1),
        ));
        let inj = Injector::new(&plan);
        for (rank, hook) in &stream {
            let decision = inj.observe(*rank, hook);
            if decision == Decision::KillSelf {
                prop_assert_eq!(*rank, 0usize);
                prop_assert_eq!(hook.kind, HookKind::AfterSend);
                prop_assert_eq!(hook.peer, Some(peer));
                prop_assert_eq!(hook.tag, Some(tag));
            }
        }
    }

    /// Independent rules count independently: two victims with
    /// different occurrences both fire given enough matches.
    #[test]
    fn independent_rules_fire_independently(
        n_ticks in 4u64..20,
        occ_a in 1u64..4,
        occ_b in 1u64..4,
    ) {
        let plan = FaultPlan::none()
            .with(FaultRule::kill(0, Trigger::on(HookKind::Tick).nth(occ_a)))
            .with(FaultRule::kill(1, Trigger::on(HookKind::Tick).nth(occ_b)));
        let inj = Injector::new(&plan);
        let mut fired = [0u64, 0];
        for i in 1..=n_ticks {
            for rank in 0..2usize {
                if inj.observe(rank, &Hook::bare(HookKind::Tick)) == Decision::KillSelf {
                    fired[rank] = i;
                }
            }
        }
        prop_assert_eq!(fired[0], occ_a.min(n_ticks));
        prop_assert_eq!(fired[1], occ_b.min(n_ticks));
        prop_assert!(fired.iter().all(|&at| at > 0), "both rules fired");
    }
}
