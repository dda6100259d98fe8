//! The armed, shared form of a fault plan.
//!
//! The runtime holds an `Arc<Injector>` and reports protocol points to
//! [`Injector::observe`]. A plan holds a handful of rules, each
//! watching one hook kind of one rank, while every rank reaches a
//! protocol point at each wait-loop pass, send and receive. So a rank
//! asks [`Injector::watched`] once which kinds its own unfired rules
//! watch, and reports only hooks of those kinds: a hook no rule
//! watches costs the caller one bit test. The mask stays exact
//! because a rule is counted and fired only by its observer's own
//! `observe`; it changes only when that call returns something other
//! than [`Decision::Continue`], and the caller asks again then.

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
    /// Whether some rule has fired.
    killed: AtomicBool,
}

impl Injector {
    /// Arm a plan.
    pub fn new(plan: &FaultPlan) -> Self {
        let killed = AtomicBool::new(false);
        let mut injector = Injector { rules: Vec::new(), killed };
        injector.rearm(plan);
        injector
    }

    /// Arm `plan` in place of the current one: every count starts from
    /// zero and no rule has fired, as in [`Injector::new`], and the rule
    /// buffer is reused.
    pub fn rearm(&mut self, plan: &FaultPlan) {
        let armed = |r: &crate::plan::FaultRule| ArmedRule {
            observer: r.observer,
            trigger: r.trigger,
            action: r.action,
            count: AtomicU64::new(0),
            at_first_kill: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        };
        self.rules.clear();
        self.rules.extend(plan.rules().iter().map(armed));
        *self.killed.get_mut() = false;
    }

    /// Report that `rank` reached protocol point `hook`.
    ///
    /// Counts occurrences per rule and returns the combined decision.
    /// If several rules fire on the same hook, `KillSelf` dominates.
    /// A hook whose kind is not in [`Injector::watched`]`(rank)`
    /// matches no rule: leaving it unreported changes nothing.
    pub fn observe(&self, rank: Rank, hook: &Hook) -> Decision {
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

    /// The hook kinds that `rank`'s unfired rules watch, one
    /// [`HookKind::bit`] each; 0 when no rule of `rank` is left to
    /// fire. It changes only when one of those rules fires, which only
    /// `rank`'s own [`Injector::observe`] does and reports as a
    /// decision other than [`Decision::Continue`].
    ///
    /// [`HookKind::bit`]: crate::trigger::HookKind::bit
    pub fn watched(&self, rank: Rank) -> u16 {
        self.rules
            .iter()
            .filter(|r| r.observer == rank && !r.fired.load(Ordering::Acquire))
            .fold(0, |mask, r| mask | r.trigger.kind.bit())
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
        let inj = Injector::new(&FaultPlan::none());
        assert_eq!(inj.observe(0, &Hook::bare(HookKind::Tick)), Decision::Continue);
    }

    #[test]
    fn fires_on_exact_occurrence_only_once() {
        let plan = FaultPlan::none().with(FaultRule::kill(
            2,
            Trigger::on(HookKind::AfterRecvComplete).nth(3),
        ));
        let inj = Injector::new(&plan);
        let hook = Hook::recv(HookKind::AfterRecvComplete, Some(1), 1);
        assert_eq!(inj.observe(2, &hook), Decision::Continue);
        assert_eq!(inj.observe(2, &hook), Decision::Continue);
        assert_eq!(inj.observe(2, &hook), Decision::KillSelf);
        // Already fired: later occurrences are ignored.
        assert_eq!(inj.observe(2, &hook), Decision::Continue);
    }

    #[test]
    fn rearm_counts_from_zero_like_a_fresh_injector() {
        let tick = Hook::bare(HookKind::Tick);
        let mut inj = Injector::new(&FaultPlan::none().kill_at(0, HookKind::Tick, 1));
        assert_eq!(inj.observe(0, &tick), Decision::KillSelf);
        let plan = FaultPlan::none().kill_at(1, HookKind::Tick, 2);
        inj.rearm(&plan);
        let fresh = Injector::new(&plan);
        assert!(inj.counts().eq(fresh.counts()), "counts start from zero");
        for inj in [&inj, &fresh] {
            assert_eq!(inj.observe(0, &tick), Decision::Continue, "rank 0's rule is gone");
            assert_eq!(inj.observe(1, &tick), Decision::Continue);
            assert_eq!(inj.observe(1, &tick), Decision::KillSelf);
        }
        inj.rearm(&FaultPlan::none());
        assert_eq!(inj.observe(1, &tick), Decision::Continue);
        assert_eq!(inj.counts().count(), 0);
    }

    #[test]
    fn watched_names_the_observers_kinds_until_their_rules_fire() {
        let plan = FaultPlan::none()
            .kill_at(1, HookKind::Tick, 2)
            .kill_at(1, HookKind::AfterSend, 1)
            .kill_at(2, HookKind::BeforeSend, 1);
        let inj = Injector::new(&plan);
        let (tick, after_send) = (HookKind::Tick.bit(), HookKind::AfterSend.bit());
        assert_eq!(inj.watched(1), tick | after_send);
        assert_eq!(inj.watched(2), HookKind::BeforeSend.bit());
        assert_eq!(inj.watched(0), 0, "no rule of rank 0");
        let hook = Hook::bare(HookKind::Tick);
        assert_eq!(inj.observe(1, &hook), Decision::Continue);
        assert_eq!(inj.watched(1), tick | after_send, "counted once, fires on the second");
        assert_eq!(inj.observe(1, &hook), Decision::KillSelf);
        assert_eq!(inj.watched(1), after_send);
        assert_eq!(inj.watched(2), HookKind::BeforeSend.bit(), "another rank's rules stay");
        assert_eq!(Injector::new(&FaultPlan::none()).watched(0), 0);
    }

    #[test]
    fn other_ranks_hooks_do_not_count() {
        let plan = FaultPlan::none().kill_at(1, HookKind::AfterSend, 1);
        let inj = Injector::new(&plan);
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
        let inj = Injector::new(&plan);
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
        let inj = Injector::new(&plan);
        assert_eq!(inj.observe(0, &Hook::bare(HookKind::Tick)), Decision::KillSelf);
    }

    #[test]
    fn concurrent_observation_fires_exactly_once() {
        use std::sync::Arc;
        let plan = FaultPlan::none().kill_at(0, HookKind::Tick, 100);
        let inj = Arc::new(Injector::new(&plan));
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
