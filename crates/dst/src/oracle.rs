//! The seven correctness oracles.
//!
//! DESIGN.md §5 lists the invariants the fault-tolerant ring must hold
//! under arbitrary fail-stop schedules. Each is one function of a
//! [`RingRun`], a borrowed view of a ring run, and [`ORACLES`] lists
//! them in §5 order. Every ring run is judged by them: an explored,
//! fuzzed or replayed [`Observation`] through [`check_all`], and a
//! refereed or wall-clock [`RunReport`] through [`RingRun::of`] —
//! the figure table, the ring referees and the wall-clock shapes.
//!
//! | § | Invariant | Oracle |
//! |---|---|---|
//! | 1 | per-pair FIFO / non-overtaking | `non-overtaking` |
//! | 2 | the hardened ring completes all iterations | `ring-completion` |
//! | 3 | no iteration closes twice, no duplicate forwards | `no-duplicate` |
//! | 4 | each rank's closure markers are strictly increasing | `markers-monotone` |
//! | 5 | `validate_all` answers agree across survivors | `validate-agreement` |
//! | 6 | at most one rank wins the root election, and it is the minimum survivor | `election-agreement` |
//! | 7 | the detector always fires: the hardened ring never hangs | `detector-completeness` |
//!
//! Liveness oracles (2, 7) only apply to the hardened configuration —
//! the deliberately buggy ring is *supposed* to misbehave, and the
//! whole point of the harness is that `no-duplicate` (which stays on)
//! catches it.
//!
//! A green run allocates nothing: the oracles sort into per-thread
//! scratch, and only a violation's report is built on the heap.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;

use faultsim::FaultPlan;
use ftmpi::{Event, RankOutcome, RunReport, TimedEvent};
use ftring::{RingConfig, RingStats};

use crate::scenario::Observation;
use crate::triage::Hang;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the oracle that fired.
    pub oracle: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.oracle, self.detail)
    }
}

/// What the oracles see of one ring run.
#[derive(Debug, Clone)]
pub struct RingRun<'a> {
    /// Laps every survivor owes the ring.
    pub max_iter: u64,
    /// Whether the liveness oracles apply: the ring is not the
    /// deliberately buggy one.
    pub hardened: bool,
    /// Ranks the fault plan kills, indexed like `outcomes`.
    pub killed: Cow<'a, [usize]>,
    /// How each rank of the ring ended.
    pub outcomes: &'a [RankOutcome<RingStats>],
    /// The protocol trace (empty for an untraced run).
    pub trace: &'a [TimedEvent],
    /// Whether a hang had to be broken.
    pub hung: bool,
    /// The scheduler's verdict, if it ended the run.
    pub hang: Option<Hang>,
}

impl<'a> RingRun<'a> {
    /// The world ring `cfg` ran under `plan`. It counts as hardened:
    /// a refereed run already may not hang, and a wall-clock one must
    /// not.
    pub fn of(cfg: &RingConfig, plan: &FaultPlan, report: &'a RunReport<RingStats>) -> Self {
        RingRun {
            max_iter: cfg.max_iter,
            hardened: true,
            killed: plan.victims().into(),
            outcomes: &report.outcomes,
            trace: &report.trace,
            hung: report.hung,
            hang: None,
        }
    }

    /// Every oracle this run owes, in §5 order; returns all violations
    /// (empty = green).
    pub fn violations(&self) -> Vec<Violation> {
        ORACLES
            .iter()
            .filter(|o| self.hardened || !o.hardened_only)
            .filter_map(|o| Some(Violation { oracle: o.name, detail: (o.check)(self).err()? }))
            .collect()
    }

    /// Ranks that finished with ring stats.
    fn survivors(&self) -> impl Iterator<Item = (usize, &'a RingStats)> {
        self.outcomes.iter().enumerate().filter_map(|(r, o)| o.as_ok().map(|s| (r, s)))
    }
}

/// One invariant of DESIGN.md §5.
pub struct Oracle {
    /// Stable oracle name.
    pub name: &'static str,
    /// Whether only the hardened ring owes it: the liveness invariants.
    pub hardened_only: bool,
    /// The check; `Err` describes the violation.
    pub check: fn(&RingRun) -> Result<(), String>,
}

/// The seven oracles, in DESIGN.md §5 order.
pub const ORACLES: [Oracle; 7] = [
    Oracle { name: "non-overtaking", hardened_only: false, check: non_overtaking },
    Oracle { name: "ring-completion", hardened_only: true, check: ring_completion },
    Oracle { name: "no-duplicate", hardened_only: false, check: no_duplicate },
    Oracle { name: "markers-monotone", hardened_only: false, check: markers_monotone },
    Oracle { name: "validate-agreement", hardened_only: false, check: validate_agreement },
    Oracle { name: "election-agreement", hardened_only: false, check: election_agreement },
    Oracle { name: "detector-completeness", hardened_only: true, check: detector_completeness },
];

/// Run every applicable oracle on an explored schedule; returns all
/// violations (empty = green).
pub fn check_all(obs: &Observation) -> Vec<Violation> {
    // The victims, on the stack unless the schedule has more kills
    // than any kill shape or mutator makes.
    let kills = &obs.schedule.kills;
    let mut victims = [0; 8];
    let killed = match victims.get_mut(..kills.len()) {
        Some(on_stack) => {
            on_stack.iter_mut().zip(kills).for_each(|(v, k)| *v = k.victim);
            Cow::Borrowed(&*on_stack)
        }
        None => kills.iter().map(|k| k.victim).collect(),
    };
    RingRun {
        max_iter: obs.cfg.max_iter,
        hardened: !obs.cfg.buggy_dedup,
        killed,
        outcomes: &obs.outcomes,
        trace: &obs.trace,
        hung: obs.hung,
        hang: Hang::of(obs),
    }
    .violations()
}

/// A (receiver, sender, context, tag) quadruple.
type Quad = (usize, usize, u64, i32);

/// What the oracles sort, kept per thread from run to run.
#[derive(Default)]
struct Scratch {
    /// `RecvMatch` events: quadruple, trace position, `seq`.
    matches: Vec<(Quad, usize, u64)>,
    /// Survivors' closures: marker, position in survivor-then-closure
    /// order, rank.
    closures: Vec<(u64, usize, usize)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The survivors' closures into `out`, sorted by marker and then by
/// position.
fn sorted_closures(run: &RingRun, out: &mut Vec<(u64, usize, usize)>) {
    out.clear();
    for (rank, s) in run.survivors() {
        for &(marker, _) in &s.closures {
            out.push((marker, out.len(), rank));
        }
    }
    out.sort_unstable();
}

/// §5.1 — messages between a fixed (sender, receiver, context, tag)
/// quadruple are matched in send order. Checked straight off the trace:
/// the per-pair `seq` stamped on every `RecvMatch` must be strictly
/// increasing. The first match in trace order that is not is reported.
fn non_overtaking(run: &RingRun) -> Result<(), String> {
    SCRATCH.with_borrow_mut(|Scratch { matches, .. }| {
        matches.clear();
        matches.extend(run.trace.iter().enumerate().filter_map(|(at, te)| match te.event {
            Event::RecvMatch { dst, src, context, tag, seq } => {
                Some(((dst, src, context, tag), at, seq))
            }
            _ => None,
        }));
        // Each quadruple's matches in trace order, side by side.
        matches.sort_unstable();
        let overtaken = matches.windows(2).filter(|m| m[0].0 == m[1].0 && m[1].2 <= m[0].2);
        match overtaken.min_by_key(|m| m[1].1) {
            None => Ok(()),
            Some(&[(_, _, prev), ((dst, src, context, tag), _, seq)]) => Err(format!(
                "rank {dst} matched seq {seq} from rank {src} \
                 (ctx {context}, tag {tag}) after seq {prev}"
            )),
            Some(_) => unreachable!("windows of two"),
        }
    })
}

/// §5.2 — under the hardened configuration, the survivors finish every
/// iteration: no hang, no unexpected abort, every survivor reaches
/// termination having handled every lap once (originated or forwarded
/// it), and each closure names a marker inside `0..max_iter` and counts
/// no more ranks than the ring has.
///
/// Full marker coverage (every iteration observed closed) is only
/// demanded when rank 0 survives: closures are recorded at the root,
/// and a killed root takes its closure records to the grave, so under
/// root failover the surviving union legitimately misses the dead
/// root's iterations.
///
/// A rank that ends `Aborted { code: -1 }` is accepted exactly when
/// every other rank fail-stopped: that is the paper's Fig. 4/5 "alone
/// in the communicator → `MPI_Abort`" answer, reachable under the
/// triple / root-chain / cascade kill shapes that reduce a small ring
/// to one survivor.
fn ring_completion(run: &RingRun) -> Result<(), String> {
    if run.hung {
        return Err(match run.hang {
            Some(hang) => format!("run hung: {hang}"),
            None => "run hung".to_string(),
        });
    }
    // Fig. 4/5: a rank that finds itself alone in the communicator
    // calls `MPI_Abort(comm, -1)`. That is the paper's prescribed
    // ending, not a defect — but only when the rank truly was the
    // last one standing: every other rank actually fail-stopped
    // (a scheduled kill that never fired leaves a live peer, and
    // aborting with a live peer is still a violation).
    let lone_survivor_abort =
        |rank: usize| run.outcomes.iter().enumerate().all(|(q, o)| q == rank || o.is_failed());
    for (rank, o) in run.outcomes.iter().enumerate() {
        match o {
            RankOutcome::Ok(_) => {}
            RankOutcome::Failed if run.killed.contains(&rank) => {}
            RankOutcome::Aborted { code: -1 } if lone_survivor_abort(rank) => {}
            other => return Err(format!("rank {rank} ended as {} unexpectedly", ending(other))),
        }
    }
    let ranks = run.outcomes.len() as i64;
    for (rank, s) in run.survivors() {
        if !s.terminated {
            return Err(format!("rank {rank} never terminated"));
        }
        let handled = s.originated + s.forwarded;
        if handled != run.max_iter {
            return Err(format!("rank {rank} handled {handled} of {} laps", run.max_iter));
        }
        for &(marker, value) in &s.closures {
            if marker >= run.max_iter {
                return Err(format!("rank {rank} closed out-of-range iteration {marker}"));
            }
            if value > ranks {
                return Err(format!(
                    "rank {rank} closed iteration {marker} counting {value} of {ranks} ranks"
                ));
            }
        }
    }
    if !run.killed.contains(&0) && run.outcomes[0].is_ok() {
        // The initial root ran to completion, so every closure
        // record survived too. (A rank-0 lone-survivor abort cuts
        // the job short by design — no coverage to demand.) Every
        // marker is below `max_iter` by now, so all were closed
        // exactly when `max_iter` distinct ones were.
        let closed = SCRATCH.with_borrow_mut(|Scratch { closures, .. }| {
            sorted_closures(run, closures);
            closures.chunk_by(|a, b| a.0 == b.0).count() as u64
        });
        if closed != run.max_iter {
            let seen: BTreeSet<u64> =
                run.survivors().flat_map(|(_, s)| s.closures.iter().map(|c| c.0)).collect();
            let it = (0..run.max_iter).find(|it| !seen.contains(it)).expect("a marker is missing");
            return Err(format!("iteration {it} was never closed (closed: {seen:?})"));
        }
    }
    Ok(())
}

/// How a rank ended, in the words `ring-completion` reports it.
fn ending(o: &RankOutcome<RingStats>) -> String {
    match o {
        RankOutcome::Aborted { code } => format!("Aborted({code})"),
        RankOutcome::Err(e) => format!("Err({:?})", e.to_string()),
        other => format!("{other:?}"),
    }
}

/// §5.3 — an iteration's token is consumed exactly once at the root:
/// no rank observes the same closure marker twice across the whole run,
/// and nobody forwards a duplicate token. This is the oracle that
/// catches the reverted iteration-marker dedup check.
fn no_duplicate(run: &RingRun) -> Result<(), String> {
    // The first closure, in survivor order, of a marker closed before.
    let twice = SCRATCH.with_borrow_mut(|Scratch { closures, .. }| {
        sorted_closures(run, closures);
        let again = closures.windows(2).filter(|c| c[0].0 == c[1].0).map(|c| c[1]);
        again.min_by_key(|&(_, at, _)| at)
    });
    for (rank, s) in run.survivors() {
        if let Some((marker, _, _)) = twice.filter(|&(_, _, by)| by == rank) {
            return Err(format!("iteration {marker} closed twice (second closure at rank {rank})"));
        }
        if s.duplicate_forwards > 0 {
            return Err(format!(
                "rank {rank} forwarded {} duplicate token(s)",
                s.duplicate_forwards
            ));
        }
    }
    Ok(())
}

/// §5.4 — within one rank, closure markers appear in strictly
/// increasing iteration order.
fn markers_monotone(run: &RingRun) -> Result<(), String> {
    for (rank, s) in run.survivors() {
        for pair in s.closures.windows(2) {
            if pair[1].0 <= pair[0].0 {
                return Err(format!(
                    "rank {rank} closed iteration {} after {}",
                    pair[1].0, pair[0].0
                ));
            }
        }
    }
    Ok(())
}

/// §5.5 — when survivors ran a `validate_all`, they agreed on the size
/// of the failed set, and it counts no more ranks than ended `Failed`.
fn validate_agreement(run: &RingRun) -> Result<(), String> {
    let mut answers = run.survivors().filter_map(|(rank, s)| s.validate_failed.map(|f| (rank, f)));
    if let Some((rank, first)) = answers.next() {
        let failed = run.outcomes.iter().filter(|o| o.is_failed()).count();
        if first > failed {
            return Err(format!(
                "rank {rank} validated {first} failed ranks, {failed} ended failed"
            ));
        }
        for (rank, f) in answers {
            if f != first {
                return Err(format!(
                    "rank {rank} validated {f} failed ranks, others saw {first}"
                ));
            }
        }
    }
    Ok(())
}

/// §5.6 — root failover elects at most one new root, and it is the
/// lowest-ranked survivor (the deterministic election of Fig. 12).
fn election_agreement(run: &RingRun) -> Result<(), String> {
    let winners = || run.survivors().filter(|(_, s)| s.became_root).map(|(r, _)| r);
    if winners().nth(1).is_some() {
        return Err(format!("multiple ranks became root: {:?}", winners().collect::<Vec<_>>()));
    }
    if let Some(w) = winners().next() {
        let min_survivor = run.survivors().map(|(r, _)| r).min().unwrap_or(w);
        if w != min_survivor {
            return Err(format!(
                "rank {w} became root but the minimum survivor is {min_survivor}"
            ));
        }
    }
    Ok(())
}

/// §5.7 — the failure detector is complete: with the detector-based
/// receive strategy, a fail-stop is always observed and the hardened
/// ring never waits forever on a dead peer.
fn detector_completeness(run: &RingRun) -> Result<(), String> {
    if run.hung || run.hang.is_some() {
        return Err(
            "the scheduler ended a hang: some rank waited forever on a failed peer".to_string()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_seed, ScenarioCfg};

    #[test]
    fn failure_free_run_passes_every_oracle() {
        let obs = run_seed(0, &ScenarioCfg::default());
        let violations = check_all(&obs);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// Only the hardened ring owes liveness: a run the step budget
    /// ended violates both liveness oracles and nothing else, and the
    /// same run of the buggy ring violates nothing.
    #[test]
    fn liveness_oracles_gate_off_in_buggy_mode() {
        let liveness: Vec<&str> =
            ORACLES.iter().filter(|o| o.hardened_only).map(|o| o.name).collect();
        assert_eq!(liveness, ["ring-completion", "detector-completeness"]);
        for buggy_dedup in [false, true] {
            let cfg = ScenarioCfg { buggy_dedup, step_budget: 20, ..ScenarioCfg::default() };
            let obs = run_seed(0, &cfg);
            assert!(obs.hung && obs.budget_exhausted, "buggy={buggy_dedup}");
            let fired: Vec<&str> = check_all(&obs).iter().map(|v| v.oracle).collect();
            let expected: &[&str] = if buggy_dedup { &[] } else { &liveness };
            assert_eq!(fired, expected, "buggy={buggy_dedup}");
        }
    }

    /// Rank `rank`'s stats in a run where it survived.
    fn stats(obs: &mut Observation, rank: usize) -> &mut RingStats {
        let RankOutcome::Ok(s) = &mut obs.outcomes[rank] else { panic!("rank {rank} died") };
        s
    }

    /// A green run's observation after `edit` violates `oracle` and no other.
    fn only_violation(oracle: &str, edit: impl FnOnce(&mut Observation)) {
        let mut obs = run_seed(0, &ScenarioCfg::default());
        edit(&mut obs);
        let violations = check_all(&obs);
        let fired: Vec<&str> = violations.iter().map(|v| v.oracle).collect();
        assert_eq!(fired, [oracle], "{violations:?}");
    }

    #[test]
    fn a_pair_matched_out_of_order_breaks_non_overtaking() {
        only_violation("non-overtaking", |obs| {
            let mut matches = obs.trace.iter_mut().filter_map(|te| match &mut te.event {
                Event::RecvMatch { dst, src, context, tag, seq } => {
                    Some(((*dst, *src, *context, *tag), seq))
                }
                _ => None,
            });
            let (pair, first) = matches.next().expect("a receive matched");
            let (_, second) = matches.find(|m| m.0 == pair).expect("its pair matched again");
            std::mem::swap(first, second);
        });
    }

    #[test]
    fn a_survivor_that_missed_a_lap_breaks_ring_completion() {
        only_violation("ring-completion", |obs| stats(obs, 1).forwarded -= 1);
    }

    #[test]
    fn a_closure_counting_more_ranks_than_the_ring_breaks_ring_completion() {
        only_violation("ring-completion", |obs| stats(obs, 0).closures[0].1 = 5);
    }

    #[test]
    fn a_lap_closed_again_at_another_rank_breaks_no_duplicate() {
        only_violation("no-duplicate", |obs| {
            let first = stats(obs, 0).closures[0];
            stats(obs, 1).closures.push(first);
        });
    }

    #[test]
    fn reversed_closures_break_markers_monotone() {
        only_violation("markers-monotone", |obs| stats(obs, 0).closures.reverse());
    }

    #[test]
    fn an_agreed_count_above_the_failed_ranks_breaks_validate_agreement() {
        only_violation("validate-agreement", |obs| {
            (0..obs.cfg.ranks).for_each(|rank| stats(obs, rank).validate_failed = Some(1))
        });
    }

    #[test]
    fn two_new_roots_break_election_agreement() {
        only_violation("election-agreement", |obs| {
            stats(obs, 1).became_root = true;
            stats(obs, 2).became_root = true;
        });
    }

    #[test]
    fn a_deadlock_verdict_breaks_detector_completeness() {
        only_violation("detector-completeness", |obs| obs.deadlock_at = Some(10));
    }
}
