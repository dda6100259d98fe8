//! The armed, shared form of a fault plan.
//!
//! The runtime holds an `Arc<Injector>` and calls [`Injector::observe`]
//! at every protocol point. `observe` is called *very* often on hot
//! paths, so the empty-plan case is a single relaxed atomic load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::plan::{FaultAction, FaultPlan};
use crate::trigger::Hook;
use crate::Rank;

/// What the runtime must do after reporting a hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Nothing fired; carry on.
    Continue,
    /// The observing rank must fail-stop *now*.
    KillSelf,
    /// The listed ranks must be fail-stopped (asynchronously, by the
    /// runtime's kill mechanism); the observer itself continues.
    KillOthers(KillList),
}

/// Up to two victims of a cross-rank kill; plans needing more use
/// multiple rules.
pub type KillList = [Option<Rank>; 2];

struct ArmedRule {
    observer: Rank,
    trigger: crate::trigger::Trigger,
    action: FaultAction,
    /// Occurrence counter for this rule (counts matching hooks).
    count: AtomicU64,
    /// `count` when the plan's first rule fired; 0 until one has.
    at_first_kill: AtomicU64,
    /// Fired rules never fire again.
    fired: AtomicBool,
}

/// Thread-safe armed fault plan consulted by the runtime.
pub struct Injector {
    rules: Vec<ArmedRule>,
    /// Fast path: true when there are no rules at all.
    empty: bool,
    /// Whether some rule has fired.
    killed: AtomicBool,
}

impl Injector {
    /// Arm a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let rules = plan
            .rules()
            .iter()
            .map(|r| ArmedRule {
                observer: r.observer,
                trigger: r.trigger,
                action: r.action,
                count: AtomicU64::new(0),
                at_first_kill: AtomicU64::new(0),
                fired: AtomicBool::new(false),
            })
            .collect::<Vec<_>>();
        Injector { empty: rules.is_empty(), rules, killed: AtomicBool::new(false) }
    }

    /// Report that `rank` reached protocol point `hook`.
    ///
    /// Counts occurrences per rule and returns the combined decision.
    /// If several rules fire on the same hook, `KillSelf` dominates.
    pub fn observe(&self, rank: Rank, hook: &Hook) -> Decision {
        if self.empty {
            return Decision::Continue;
        }
        let mut kill_self = false;
        let mut others: KillList = [None, None];
        let mut n_others = 0usize;
        for rule in &self.rules {
            if rule.observer != rank || rule.fired.load(Ordering::Acquire) {
                continue;
            }
            if !rule.trigger.matches(hook) {
                continue;
            }
            let seen = rule.count.fetch_add(1, Ordering::AcqRel) + 1;
            if seen != rule.trigger.occurrence {
                continue;
            }
            if rule.fired.swap(true, Ordering::AcqRel) {
                continue; // raced; already fired
            }
            if !self.killed.swap(true, Ordering::AcqRel) {
                for r in &self.rules {
                    r.at_first_kill.store(r.count.load(Ordering::Acquire), Ordering::Release);
                }
            }
            match rule.action {
                FaultAction::Kill => kill_self = true,
                FaultAction::KillOther(victim) => {
                    if n_others < others.len() {
                        others[n_others] = Some(victim);
                        n_others += 1;
                    }
                }
            }
        }
        if kill_self {
            Decision::KillSelf
        } else if n_others > 0 {
            Decision::KillOthers(others)
        } else {
            Decision::Continue
        }
    }

    /// Whether some rule observing `rank`'s `kind` hooks has yet to
    /// fire. A simulated rank with an unfired [`HookKind::Tick`] rule
    /// must keep taking wait-loop passes even when it has nothing to
    /// wait for, or the rule's occurrence count would never be reached.
    ///
    /// [`HookKind::Tick`]: crate::trigger::HookKind::Tick
    pub fn pending(&self, rank: Rank, kind: crate::trigger::HookKind) -> bool {
        !self.empty
            && self.rules.iter().any(|r| {
                r.observer == rank && r.trigger.kind == kind && !r.fired.load(Ordering::Acquire)
            })
    }

    /// Per rule, in plan order: the hooks it matched until it fired (all of them, for a rule
    /// at an occurrence out of reach), and how many it had matched when the first rule fired.
    pub fn counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let load = |n: &AtomicU64| n.load(Ordering::Acquire);
        self.rules.iter().map(move |r| (load(&r.count), load(&r.at_first_kill)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultRule;
    use crate::trigger::{HookKind, Trigger};

    #[test]
    fn disarmed_always_continues() {
        let inj = Injector::new(FaultPlan::none());
        assert_eq!(inj.observe(0, &Hook::bare(HookKind::Tick)), Decision::Continue);
    }

    #[test]
    fn fires_on_exact_occurrence_only_once() {
        let plan = FaultPlan::none().with(FaultRule::kill(
            2,
            Trigger::on(HookKind::AfterRecvComplete).nth(3),
        ));
        let inj = Injector::new(plan);
        let hook = Hook::recv(HookKind::AfterRecvComplete, Some(1), 1);
        assert_eq!(inj.observe(2, &hook), Decision::Continue);
        assert_eq!(inj.observe(2, &hook), Decision::Continue);
        assert_eq!(inj.observe(2, &hook), Decision::KillSelf);
        // Already fired: later occurrences are ignored.
        assert_eq!(inj.observe(2, &hook), Decision::Continue);
    }

    #[test]
    fn pending_names_the_observer_and_kind_until_the_rule_fires() {
        let inj = Injector::new(FaultPlan::none().kill_at(1, HookKind::Tick, 2));
        assert!(inj.pending(1, HookKind::Tick));
        assert!(!inj.pending(0, HookKind::Tick), "another rank's rule");
        assert!(!inj.pending(1, HookKind::AfterSend), "another kind");
        let tick = Hook::bare(HookKind::Tick);
        assert_eq!(inj.observe(1, &tick), Decision::Continue);
        assert!(inj.pending(1, HookKind::Tick), "counted once, fires on the second");
        assert_eq!(inj.observe(1, &tick), Decision::KillSelf);
        assert!(!inj.pending(1, HookKind::Tick));
        assert!(!Injector::new(FaultPlan::none()).pending(0, HookKind::Tick));
    }

    #[test]
    fn other_ranks_hooks_do_not_count() {
        let plan = FaultPlan::none().kill_at(1, HookKind::AfterSend, 1);
        let inj = Injector::new(plan);
        let hook = Hook::send(HookKind::AfterSend, 0, 1);
        assert_eq!(inj.observe(0, &hook), Decision::Continue);
        assert_eq!(inj.observe(1, &hook), Decision::KillSelf);
    }

    #[test]
    fn kill_other_reports_victims() {
        let plan = FaultPlan::none().with(FaultRule::kill_other(
            3,
            2,
            Trigger::on(HookKind::AfterSend).peer(0),
        ));
        let inj = Injector::new(plan);
        let hook = Hook::send(HookKind::AfterSend, 0, 1);
        assert_eq!(inj.observe(3, &hook), Decision::KillOthers([Some(2), None]));
        assert_eq!(inj.observe(3, &hook), Decision::Continue, "fires once");
    }

    #[test]
    fn kill_self_dominates_kill_other_on_same_hook() {
        let trig = Trigger::on(HookKind::Tick);
        let plan = FaultPlan::none()
            .with(FaultRule::kill_other(0, 5, trig))
            .with(FaultRule::kill(0, trig));
        let inj = Injector::new(plan);
        assert_eq!(inj.observe(0, &Hook::bare(HookKind::Tick)), Decision::KillSelf);
    }

    #[test]
    fn concurrent_observation_fires_exactly_once() {
        use std::sync::Arc;
        let plan = FaultPlan::none().kill_at(0, HookKind::Tick, 100);
        let inj = Arc::new(Injector::new(plan));
        let mut handles = Vec::new();
        let kills = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let inj = Arc::clone(&inj);
            let kills = Arc::clone(&kills);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    if inj.observe(0, &Hook::bare(HookKind::Tick)) == Decision::KillSelf {
                        kills.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kills.load(Ordering::Relaxed), 1);
    }
}
