//! Declarative fault plans.
//!
//! A [`FaultPlan`] is an ordered collection of [`FaultRule`]s. Each rule
//! names a victim rank, a [`Trigger`] and a [`FaultAction`]. Plans are
//! built once and then armed into an [`crate::Injector`] that the
//! runtime consults.

use crate::trigger::{HookKind, Trigger};
use crate::Rank;

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail-stop the victim at this exact protocol point.
    ///
    /// The runtime marks the rank failed *before* the protocol point
    /// takes effect for `Before*` hooks, and *after* it took effect for
    /// `After*` hooks — e.g. `AfterRecvComplete` + `Kill` reproduces
    /// "received the message, then died before doing anything with it"
    /// (the Fig. 6 scenario).
    Kill,
    /// Fail-stop a *different* rank at this protocol point.
    ///
    /// Lets a plan express cross-rank timing such as "when rank 3
    /// completes its send to rank 0, kill rank 2" (the Fig. 8
    /// duplicate-message scenario, where P2 dies concurrently with
    /// P3's forward).
    KillOther(Rank),
}

/// One rule: victim + trigger + action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// The rank whose hooks are observed (and, for [`FaultAction::Kill`],
    /// the rank that dies).
    pub observer: Rank,
    /// When to fire.
    pub trigger: Trigger,
    /// What to do.
    pub action: FaultAction,
}

impl FaultRule {
    /// Kill `rank` when its own hook matching `trigger` occurs.
    pub fn kill(rank: Rank, trigger: Trigger) -> Self {
        FaultRule { observer: rank, trigger, action: FaultAction::Kill }
    }

    /// Kill `victim` when `observer`'s hook matching `trigger` occurs.
    pub fn kill_other(observer: Rank, victim: Rank, trigger: Trigger) -> Self {
        FaultRule { observer, trigger, action: FaultAction::KillOther(victim) }
    }
}

/// An ordered set of fault rules.
///
/// Rules are independent; each counts its own matching occurrences and
/// fires at most once.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults — the failure-free run).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from rules.
    pub fn new(rules: Vec<FaultRule>) -> Self {
        FaultPlan { rules }
    }

    /// Add a rule, builder-style.
    pub fn with(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Convenience: kill `rank` on its n-th `kind` hook.
    pub fn kill_at(self, rank: Rank, kind: HookKind, occurrence: u64) -> Self {
        self.with(FaultRule::kill(rank, Trigger::on(kind).nth(occurrence)))
    }

    /// Drop every rule, keeping the allocation for the next plan.
    pub fn clear(&mut self) {
        self.rules.clear();
    }

    /// The rules in order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The set of ranks this plan may kill (victims of every rule).
    pub fn victims(&self) -> Vec<Rank> {
        let mut v: Vec<Rank> = self
            .rules
            .iter()
            .map(|r| match r.action {
                FaultAction::Kill => r.observer,
                FaultAction::KillOther(victim) => victim,
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::HookKind;

    #[test]
    fn empty_plan_has_no_victims() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(p.victims().is_empty());
    }

    #[test]
    fn victims_are_sorted_and_deduped() {
        let p = FaultPlan::none()
            .kill_at(3, HookKind::AfterSend, 1)
            .kill_at(1, HookKind::AfterRecvComplete, 2)
            .with(FaultRule::kill_other(0, 3, Trigger::on(HookKind::Tick)));
        assert_eq!(p.victims(), vec![1, 3]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn kill_other_victim_is_the_other_rank() {
        let r = FaultRule::kill_other(5, 2, Trigger::on(HookKind::AfterSend));
        assert_eq!(r.observer, 5);
        assert_eq!(r.action, FaultAction::KillOther(2));
    }
}
