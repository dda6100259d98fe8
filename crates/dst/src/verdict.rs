//! The one verdict path: [`judge`] turns an observation into a
//! [`Failure`] record or nothing, and a [`Tally`] folds judged runs
//! into counters, merged [`RunStats`], the exact coverage-edge union
//! and a bounded failure map. `sweep`, `fuzz`, `explore`, `shrink` and
//! `dst replay` all judge here, so a schedule has one verdict whichever
//! engine ran it (DESIGN.md §8.4).

use std::collections::BTreeMap;

use faultsim::RunStats;

use crate::coverage::CoverageSet;
use crate::oracle::check_all;
use crate::scenario::{Observation, Schedule};

/// One failing schedule: everything needed to report and re-run it,
/// nothing that grows with the run (no observation, no decision log).
#[derive(Debug, Clone)]
pub struct Failure {
    /// The failing schedule (seed + explicit kills + mask).
    pub schedule: Schedule,
    /// Violated oracle names, deduplicated, in oracle order.
    pub oracles: Vec<String>,
    /// Full violation messages.
    pub violations: Vec<String>,
    /// Whether the run hung (deadlock or livelock verdict).
    pub hung: bool,
    /// For hung runs, `deadlock at step N` or `livelock (budget)` and
    /// who waits on whom, on one line (`dst replay --triage` prints the
    /// full graph); empty otherwise.
    pub triage: String,
}

/// The head of a corpus line: `schedule <schedule> oracles=a,b`, then
/// ` hung` and ` triage=[…]` for a hang. Engines append their own
/// `key=value` fields.
impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule {} oracles={}", self.schedule, self.oracles.join(","))?;
        if self.hung {
            f.write_str(" hung")?;
        }
        if !self.triage.is_empty() {
            write!(f, " triage=[{}]", self.triage)?;
        }
        Ok(())
    }
}

/// Run every applicable oracle over `obs`; `None` is green. Nothing is
/// allocated for a green run beyond what the oracles themselves do.
pub fn judge(obs: &Observation) -> Option<Failure> {
    let violations = check_all(obs);
    if violations.is_empty() {
        return None;
    }
    let mut oracles: Vec<String> = Vec::new();
    for v in &violations {
        if !oracles.iter().any(|o| o.as_str() == v.oracle) {
            oracles.push(v.oracle.to_string());
        }
    }
    Some(Failure {
        schedule: obs.schedule.clone(),
        oracles,
        violations: violations.iter().map(|v| v.to_string()).collect(),
        hung: obs.hung,
        // The trace survives `Retention::Quiet` so that a hang can be
        // triaged here without re-running the schedule.
        triage: if obs.hung { crate::triage::triage(obs).one_line() } else { String::new() },
    })
}

/// Streaming summary of judged runs: a green run costs counter bumps,
/// a failing one is kept only while its key is among the lowest `cap`
/// failing keys — so memory is O(cap), and the retained set does not
/// depend on the order runs arrive or tallies merge in.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs with every applicable oracle green.
    pub green: u64,
    /// Runs with at least one violation.
    pub failing: u64,
    /// Runs that hung.
    pub hung: u64,
    /// Failing runs beyond the cap: counted, never silently dropped.
    pub dropped: u64,
    /// The failing runs with the lowest keys, at most `cap` of them.
    pub failures: BTreeMap<u64, Failure>,
    /// Every distinct coverage edge any run touched.
    pub edges: CoverageSet,
    stats: RunStats,
    cap: usize,
}

impl Tally {
    /// An empty tally retaining at most `cap` (at least one) failures.
    pub fn new(cap: usize) -> Self {
        Tally { cap: cap.max(1), ..Tally::default() }
    }

    /// Judge `obs` and fold it in under `key` (a seed, or an execution
    /// index). Returns how many of its coverage edges are new here.
    pub fn record(&mut self, key: u64, obs: &Observation) -> u64 {
        self.stats.merge(&obs.stats);
        let fresh = self.edges.union(&obs.coverage);
        self.hung += u64::from(obs.hung);
        match judge(obs) {
            None => self.green += 1,
            Some(failure) => {
                self.failing += 1;
                self.retain(key, failure);
            }
        }
        fresh
    }

    /// Fold another tally in (a sweep worker's, at join).
    pub fn merge(&mut self, other: Tally) {
        self.green += other.green;
        self.failing += other.failing;
        self.hung += other.hung;
        self.dropped += other.dropped;
        self.stats.merge(&other.stats);
        self.edges.union(&other.edges);
        for (key, failure) in other.failures {
            self.retain(key, failure);
        }
    }

    fn retain(&mut self, key: u64, failure: Failure) {
        self.failures.insert(key, failure);
        if self.failures.len() > self.cap {
            self.failures.pop_last();
            self.dropped += 1;
        }
    }

    /// The merged per-run stats, `coverage` taken from the exact edge
    /// union (signature = XOR of its members).
    pub fn stats(&self) -> RunStats {
        RunStats { coverage: self.edges.stats(), ..self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioCfg, SeedRunner};

    /// The tally retains the lowest failing keys whatever order the
    /// runs arrive in and however they are split across merged tallies.
    #[test]
    fn tally_keeps_lowest_keys_whatever_the_arrival_order() {
        // Seeds 0, 1, 4 and 5 all fail under the injected dedup bug.
        let cfg = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        let mut runner = SeedRunner::new(cfg.ranks);
        let mut tally_of = |seeds: &[u64]| {
            let mut t = Tally::new(2);
            for &s in seeds {
                t.record(s, &runner.run_seed_quiet(s, &cfg));
            }
            t
        };
        let a = tally_of(&[5, 1, 4, 0]);
        let b = tally_of(&[0, 4, 1, 5]);
        let mut c = tally_of(&[5, 0]);
        c.merge(tally_of(&[4, 1]));
        for t in [&a, &b, &c] {
            assert_eq!(t.failures.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
            assert_eq!((t.failing, t.dropped, t.green), (4, 2, 0));
        }
    }

    /// The tally's coverage is the exact union: overlapping runs must
    /// not double-count edges or cancel signatures, and `record`
    /// reports only the edges new to it.
    #[test]
    fn tally_coverage_is_the_exact_union() {
        use crate::coverage::{edge, EdgeKind};
        let mut obs = crate::scenario::run_seed(0, &ScenarioCfg::default());
        let mut tally = Tally::new(4);
        let mut fresh = Vec::new();
        let (a, b, c) = ((0, EdgeKind::Grant, 0), (1, EdgeKind::Exit, 1), (3, EdgeKind::Kill, 2));
        for edges in [[a, b], [b, c], [a, b]] {
            obs.coverage = CoverageSet::new(4);
            for (rank, kind, phase) in edges {
                obs.coverage.record(rank, kind, phase);
            }
            obs.stats.coverage = obs.coverage.stats();
            fresh.push(tally.record(0, &obs));
        }
        assert_eq!(fresh, vec![2, 1, 0]);
        let stats = tally.stats();
        assert_eq!(stats.coverage.edges, 3);
        let [a, b, c] = [a, b, c].map(|(rank, kind, phase)| edge(rank, kind, phase));
        assert_eq!(stats.coverage.signature, a ^ b ^ c);
        assert_eq!(tally.green, 3);
    }
}
