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

use crate::scenario::{Kill, Observation, Retention, ScenarioCfg, Schedule, SeedRunner};
use crate::verdict::judge;

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
    /// The locally minimal schedule that still fails: `events` under
    /// the original seed, every delay pinned by the mask.
    pub schedule: Schedule,
    /// The events of that schedule, as ddmin left them.
    pub events: Vec<Ev>,
    /// The violation messages the minimal schedule produces.
    pub violations: Vec<String>,
    /// How many schedules the shrinker executed.
    pub runs: usize,
}

impl Shrunk {
    /// The minimal events on one line, `; `-separated.
    pub fn events_text(&self) -> String {
        self.events.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ")
    }
}

/// The schedule that replays exactly `events` under `seed`.
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

/// ddmin: drop chunks of `events` at decreasing granularity for as
/// long as `test` still holds on what is left. `test` must hold on
/// `events` itself; the result is 1-minimal with respect to it.
fn ddmin(mut events: Vec<Ev>, mut test: impl FnMut(&[Ev]) -> bool) -> Vec<Ev> {
    let mut n = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            // Complement of events[start..end].
            let candidate: Vec<Ev> =
                events[..start].iter().chain(events[end..].iter()).copied().collect();
            if test(&candidate) {
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

/// Minimize a failing `schedule` to a locally minimal event set for
/// which `failing` still holds. `failing` defaults to "any applicable
/// oracle is violated" when `None`. `None` when the schedule does not
/// fail once its delays are pinned.
pub fn shrink_schedule(
    schedule: &Schedule,
    cfg: &ScenarioCfg,
    failing: Option<&dyn Fn(&Observation) -> bool>,
) -> Option<Shrunk> {
    let default_pred = |obs: &Observation| judge(obs).is_some();
    let pred = failing.unwrap_or(&default_pred);

    // One runner for the exploration run and every ddmin candidate.
    let mut runner = SeedRunner::new(cfg.ranks);

    // The starting event set: the schedule's kills plus the delays
    // actually observed when it runs. Replaying with that explicit mask
    // must still fail, otherwise the failure depends on unmasked
    // randomness and cannot be shrunk soundly.
    let first = runner.run_schedule_with(schedule, cfg, Retention::Full);
    let kills = schedule.kills.iter().copied().map(Ev::Kill);
    let events: Vec<Ev> = kills.chain(first.delay_calls.iter().copied().map(Ev::Delay)).collect();

    let mut runs = 0usize;
    let mut minimal: Option<Observation> = None;
    let mut test = |events: &[Ev]| {
        runs += 1;
        let candidate = schedule_of(schedule.seed, events);
        let obs = runner.run_schedule_with(&candidate, cfg, Retention::Full);
        let fails = pred(&obs);
        if fails {
            minimal = Some(obs);
        }
        fails
    };
    if !test(&events) {
        return None;
    }
    let events = ddmin(events, &mut test);
    let minimal = minimal.expect("the full event set failed");
    let violations = judge(&minimal).map(|f| f.violations).unwrap_or_default();
    Some(Shrunk { schedule: minimal.schedule, events, violations, runs })
}

/// Convenience: [`shrink_schedule`] on the schedule `seed` derives.
pub fn shrink(
    seed: u64,
    cfg: &ScenarioCfg,
    failing: Option<&dyn Fn(&Observation) -> bool>,
) -> Option<Shrunk> {
    shrink_schedule(&Schedule::from_seed(seed, cfg), cfg, failing)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic predicate over event sets tests ddmin without
    /// running universes: fail iff the set contains both markers.
    #[test]
    fn ddmin_isolates_the_two_culprits() {
        let events: Vec<Ev> = (0..16).map(Ev::Delay).collect();
        let culprits = [Ev::Delay(3), Ev::Delay(11)];
        let minimal = ddmin(events, |set| culprits.iter().all(|c| set.contains(c)));
        assert_eq!(minimal.len(), 2);
        for c in &culprits {
            assert!(minimal.contains(c));
        }
    }

    #[test]
    fn ddmin_handles_single_culprit() {
        let events: Vec<Ev> = (0..9).map(Ev::Delay).collect();
        let minimal = ddmin(events, |set| set.contains(&Ev::Delay(5)));
        assert_eq!(minimal, vec![Ev::Delay(5)]);
    }
}
