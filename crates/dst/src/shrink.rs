//! Delta-debugging schedule minimization.
//!
//! Once exploration finds a seed whose schedule violates an oracle, the
//! raw failure is usually noisy: extra kills that aren't needed, delays
//! that happened to fire but don't matter. [`shrink`] applies the
//! classic ddmin algorithm (Zeller & Hildebrandt) over the schedule's
//! *event set* — the union of its kills and its observed delay calls —
//! to find a locally minimal subset that still violates.
//!
//! Removal is sound because both dimensions are first-class schedule
//! inputs: dropping a kill just shrinks the fault plan, and replaying
//! with an explicit delay-mask (`Schedule::delay_mask`) pins exactly
//! which drain calls may hold messages back, with all other decisions
//! still derived from the same seed. The result is typically a one- or
//! two-event schedule: "kill rank 2 after its 3rd send" — the paper's
//! Fig. 8 scenario, rediscovered and minimized automatically.

use crate::oracle::{check_all, Violation};
use crate::scenario::{Kill, Observation, Retention, ScenarioCfg, Schedule, SeedRunner};

/// One removable schedule event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// An injected fail-stop.
    Kill(Kill),
    /// A message delay at this drain-call index.
    Delay(u64),
}

impl std::fmt::Display for Ev {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ev::Kill(k) => write!(f, "{k}"),
            Ev::Delay(c) => write!(f, "delay drain-call {c}"),
        }
    }
}

/// Outcome of a shrink.
#[derive(Debug)]
pub struct Shrunk {
    /// Locally minimal event set that still violates.
    pub events: Vec<Ev>,
    /// The violations the minimal schedule produces.
    pub violations: Vec<Violation>,
    /// The observation of the minimal schedule.
    pub observation: Observation,
    /// How many schedules the shrinker executed.
    pub runs: usize,
}

fn schedule_of(seed: u64, events: &[Ev]) -> Schedule {
    let mut kills = Vec::new();
    let mut delays = Vec::new();
    for ev in events {
        match ev {
            Ev::Kill(k) => kills.push(*k),
            Ev::Delay(c) => delays.push(*c),
        }
    }
    Schedule { seed, kills, delay_mask: Some(delays) }
}

/// Minimize the failing schedule of `seed` to a locally minimal event
/// set for which `failing` still holds. `failing` defaults to "any
/// applicable oracle is violated" when `None`.
pub fn shrink(
    seed: u64,
    cfg: &ScenarioCfg,
    failing: Option<&dyn Fn(&Observation) -> bool>,
) -> Option<Shrunk> {
    let default_pred = |obs: &Observation| !check_all(obs).is_empty();
    let pred: &dyn Fn(&Observation) -> bool = match failing {
        Some(f) => f,
        None => &default_pred,
    };

    // One runner for the exploration run and every ddmin candidate.
    let mut runner = SeedRunner::new(cfg.ranks);

    // The starting event set: the seed's derived kills plus the delays
    // actually observed on its exploration run. Replaying with that
    // explicit mask must still fail, otherwise the failure depends on
    // unmasked randomness and cannot be shrunk soundly.
    let first = runner.run_seed(seed, cfg);

    let mut runs = 0usize;
    let mut test = |events: &[Ev]| -> (bool, Observation) {
        runs += 1;
        let obs = runner.run_schedule_with(&schedule_of(seed, events), cfg, Retention::Full);
        (pred(&obs), obs)
    };
    let mut events: Vec<Ev> = first
        .schedule
        .kills
        .iter()
        .map(|k| Ev::Kill(*k))
        .chain(first.delay_calls.iter().map(|c| Ev::Delay(*c)))
        .collect();
    let (still_fails, mut best_obs) = test(&events);
    if !still_fails {
        return None;
    }

    // ddmin: try removing chunks at decreasing granularity.
    let mut n = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            // Complement of events[start..end].
            let candidate: Vec<Ev> = events[..start]
                .iter()
                .chain(events[end..].iter())
                .copied()
                .collect();
            let (fails, obs) = test(&candidate);
            if fails {
                events = candidate;
                best_obs = obs;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= events.len() {
                break;
            }
            n = (n * 2).min(events.len());
        }
    }

    let violations = check_all(&best_obs);
    Some(Shrunk { events, violations, observation: best_obs, runs })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic predicate over event sets lets us test ddmin without
    /// running universes: fail iff the set contains both markers.
    fn ddmin_core(mut events: Vec<Ev>, pred: impl Fn(&[Ev]) -> bool) -> Vec<Ev> {
        let mut n = 2usize;
        while events.len() >= 2 {
            let chunk = events.len().div_ceil(n);
            let mut reduced = false;
            let mut start = 0usize;
            while start < events.len() {
                let end = (start + chunk).min(events.len());
                let candidate: Vec<Ev> = events[..start]
                    .iter()
                    .chain(events[end..].iter())
                    .copied()
                    .collect();
                if pred(&candidate) {
                    events = candidate;
                    n = n.saturating_sub(1).max(2);
                    reduced = true;
                    break;
                }
                start = end;
            }
            if !reduced {
                if n >= events.len() {
                    break;
                }
                n = (n * 2).min(events.len());
            }
        }
        events
    }

    #[test]
    fn ddmin_isolates_the_two_culprits() {
        let events: Vec<Ev> = (0..16).map(Ev::Delay).collect();
        let culprits = [Ev::Delay(3), Ev::Delay(11)];
        let minimal = ddmin_core(events, |set| culprits.iter().all(|c| set.contains(c)));
        assert_eq!(minimal.len(), 2);
        for c in &culprits {
            assert!(minimal.contains(c));
        }
    }

    #[test]
    fn ddmin_handles_single_culprit() {
        let events: Vec<Ev> = (0..9).map(Ev::Delay).collect();
        let minimal = ddmin_core(events, |set| set.contains(&Ev::Delay(5)));
        assert_eq!(minimal, vec![Ev::Delay(5)]);
    }
}
