//! Hang triager: wait-for graphs from hung schedules.
//!
//! The scheduler says *that* a schedule hung and how — a [`Hang`]: a
//! deadlock at the step no suspended rank was enabled any more, or a
//! livelock the step budget ended — not *why*. The runtime helps: every
//! rank the scheduler aborts snapshots the requests it is still parked
//! on into the trace as [`Event::Blocked`] records (the live request
//! table, not an inference — see `ftmpi::process`); for a deadlock that
//! happens at the very step it formed. This module folds those
//! records, plus the kill and progress events before them, into a
//! [`TriageReport`]: one [`WaitEdge`] per parked request, annotated
//! with whether the awaited peer is dead and what the rank last did
//! before parking. Rendered by `dst replay --seed S --triage` and
//! appended to explore failure lines, it turns "hung" into "deadlock at
//! step 212: rank 2 waits on T_N from rank 1 (DEAD)".
//!
//! The triager is a pure function of an [`Observation`], and the trace
//! survives [`Retention::Quiet`](crate::Retention), so sweep workers
//! can triage failures without re-running the seed.

use ftmpi::{BlockedOn, Event, Tag, TimedEvent};
use ftring::{T_D, T_N, T_R};

use crate::scenario::Observation;

/// How the scheduler ended a hung schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hang {
    /// Ranks were suspended and none was enabled; `step` is the
    /// logical time at which the last of them blocked.
    Deadlock {
        /// The scheduler's step count at the verdict.
        step: u64,
    },
    /// Ranks kept being granted without the run ending, until the step
    /// budget ran out.
    Livelock,
}

impl Hang {
    /// The scheduler's verdict on `obs`, if it ended the run.
    pub fn of(obs: &Observation) -> Option<Hang> {
        match obs.deadlock_at {
            Some(step) => Some(Hang::Deadlock { step }),
            None if obs.budget_exhausted => Some(Hang::Livelock),
            None => None,
        }
    }
}

impl std::fmt::Display for Hang {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Hang::Deadlock { step } => write!(f, "deadlock at step {step}"),
            Hang::Livelock => write!(f, "livelock (budget)"),
        }
    }
}

/// What a parked rank was waiting on, with liveness annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitKind {
    /// A posted receive that never completed.
    Recv {
        /// Peer the receive names; `None` for `MPI_ANY_SOURCE`.
        src: Option<usize>,
        /// Tag the receive names; `None` for `MPI_ANY_TAG`.
        tag: Option<Tag>,
        /// Whether the named peer was fail-stopped during the run.
        peer_dead: bool,
    },
    /// An `icomm_validate_all` round that never decided.
    Validate {
        /// The undecided round.
        round: u64,
    },
    /// An `ibarrier` round that never completed.
    Barrier {
        /// The incomplete round.
        round: u64,
    },
}

/// One edge of the wait-for graph: `rank` is parked on `on`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// The parked rank.
    pub rank: usize,
    /// The request it is parked on.
    pub on: WaitKind,
    /// The last protocol step `rank` completed before parking, rendered
    /// (e.g. "sent T_N to 2 at t=76"), when the trace shows one.
    pub last_step: Option<String>,
    /// Tokens (`T_N`/`T_R` matches) this rank handled before parking —
    /// how far around the ring it got.
    pub tokens_handled: u64,
}

/// The reconstructed wait-for graph of one hung schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriageReport {
    /// How the run ended, when the scheduler ended it ([`triage`] fills
    /// this in from the observation; a bare trace does not say).
    pub hang: Option<Hang>,
    /// One edge per parked request, in rank order (then record order).
    pub edges: Vec<WaitEdge>,
    /// Ranks fail-stopped during the run, in kill order.
    pub killed: Vec<usize>,
}

impl TriageReport {
    /// Whether the graph has any edge — a completed run triages empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Edges whose awaited peer is dead: the root causes. A hang with
    /// none of these is a cycle among live ranks instead.
    pub fn dead_peer_edges(&self) -> impl Iterator<Item = &WaitEdge> {
        self.edges.iter().filter(|e| {
            matches!(e.on, WaitKind::Recv { peer_dead: true, .. })
        })
    }

    /// One-line rendering for sweep failure output: the verdict, then
    /// the edges.
    pub fn one_line(&self) -> String {
        let edges = self.edges.iter().map(render_edge).collect::<Vec<_>>().join("; ");
        match self.hang {
            Some(hang) if edges.is_empty() => hang.to_string(),
            Some(hang) => format!("{hang}: {edges}"),
            None => edges,
        }
    }
}

/// Protocol-aware tag name: the ring's three tags get their DESIGN.md
/// names, anything else stays numeric.
fn tag_name(tag: Tag) -> String {
    match tag {
        t if t == T_N => "T_N".into(),
        t if t == T_D => "T_D".into(),
        t if t == T_R => "T_R".into(),
        t => format!("tag {t}"),
    }
}

fn render_edge(e: &WaitEdge) -> String {
    let mut s = match &e.on {
        WaitKind::Recv { src, tag, peer_dead } => {
            let tag = match tag {
                Some(t) => tag_name(*t),
                None => "any tag".into(),
            };
            match src {
                Some(p) => format!(
                    "rank {} waits on {} from rank {}{}",
                    e.rank,
                    tag,
                    p,
                    if *peer_dead { " (DEAD)" } else { "" }
                ),
                None => format!("rank {} waits on {} from any source", e.rank, tag),
            }
        }
        WaitKind::Validate { round } => {
            format!("rank {} waits on validate round {}", e.rank, round)
        }
        WaitKind::Barrier { round } => {
            format!("rank {} waits on barrier round {}", e.rank, round)
        }
    };
    if let Some(last) = &e.last_step {
        s.push_str(&format!(" [last: {last}]"));
    }
    s
}

impl std::fmt::Display for TriageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let title = match self.hang {
            Some(hang) => format!("wait-for graph ({hang})"),
            None => "wait-for graph".to_string(),
        };
        if self.is_empty() {
            return writeln!(
                f,
                "{title}: empty — no pending operations (no rank parked at abort)"
            );
        }
        writeln!(f, "{title}:")?;
        if !self.killed.is_empty() {
            writeln!(f, "  dead: {:?}", self.killed)?;
        }
        for e in &self.edges {
            writeln!(f, "  {} [{} token(s) handled]", render_edge(e), e.tokens_handled)?;
        }
        Ok(())
    }
}

/// Reconstruct the wait-for graph from a trace: one [`WaitEdge`] per
/// [`Event::Blocked`] record, each annotated from the events *before*
/// it (kills for peer liveness, sends/matches for the rank's last
/// completed step and token count).
///
/// Works on any [`Observation`] — completed runs have no `Blocked`
/// records and triage to an empty graph — and on hand-built traces
/// (see the unit tests), so it needs no live universe.
pub fn triage(obs: &Observation) -> TriageReport {
    TriageReport { hang: Hang::of(obs), ..triage_trace(&obs.trace) }
}

/// [`triage`] on a bare event stream.
pub fn triage_trace(trace: &[TimedEvent]) -> TriageReport {
    let mut killed: Vec<usize> = Vec::new();
    // Last completed protocol step per rank, updated as the scan walks
    // the trace in record order, so each Blocked record sees the state
    // just before its rank parked.
    let n_ranks = trace
        .iter()
        .map(|te| match &te.event {
            Event::Send { src, dst, .. } => (*src).max(*dst) + 1,
            Event::RecvMatch { dst, .. } => *dst + 1,
            Event::Blocked { rank, .. }
            | Event::Killed { rank }
            | Event::RecvFailure { rank, .. } => *rank + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    let mut last_step: Vec<Option<String>> = vec![None; n_ranks];
    let mut tokens: Vec<u64> = vec![0; n_ranks];
    let mut edges: Vec<WaitEdge> = Vec::new();

    for te in trace {
        match &te.event {
            Event::Killed { rank } => {
                if !killed.contains(rank) {
                    killed.push(*rank);
                }
            }
            Event::Send { src, dst, tag, .. } => {
                last_step[*src] =
                    Some(format!("sent {} to {} at t={}", tag_name(*tag), dst, te.at_us));
            }
            Event::RecvMatch { dst, src, tag, .. } => {
                last_step[*dst] =
                    Some(format!("matched {} from {} at t={}", tag_name(*tag), src, te.at_us));
                if *tag == T_N || *tag == T_R {
                    tokens[*dst] += 1;
                }
            }
            Event::RecvFailure { rank, peer } => {
                last_step[*rank] =
                    Some(format!("detector fired on rank {} at t={}", peer, te.at_us));
            }
            Event::Blocked { rank, on } => {
                let on = match *on {
                    BlockedOn::Recv { src, tag, .. } => WaitKind::Recv {
                        src,
                        tag,
                        peer_dead: src.map_or(false, |p| killed.contains(&p)),
                    },
                    BlockedOn::Validate { round } => WaitKind::Validate { round },
                    BlockedOn::Barrier { round } => WaitKind::Barrier { round },
                };
                edges.push(WaitEdge {
                    rank: *rank,
                    on,
                    last_step: last_step[*rank].clone(),
                    tokens_handled: tokens[*rank],
                });
            }
            _ => {}
        }
    }
    // The scheduler aborts the suspended ranks lowest first, so the
    // records already come in rank order. Identical edges collapse —
    // the ring's detector receive often names the same peer and tag as
    // the normal receive (two-survivor case: left == right).
    edges.dedup();
    TriageReport { hang: None, edges, killed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(at_us: u64, event: Event) -> TimedEvent {
        TimedEvent { at_us, event }
    }

    /// A hand-built hung trace yields exactly the expected edges: the
    /// survivor parked on its dead left neighbor's token, annotated
    /// with its last completed step, and the dead set.
    #[test]
    fn hand_built_hang_yields_expected_edges() {
        let trace = vec![
            at(1, Event::Send { src: 0, dst: 1, context: 0, tag: T_N, len: 8 }),
            at(2, Event::RecvMatch { dst: 1, src: 0, context: 0, tag: T_N, seq: 0 }),
            at(3, Event::Killed { rank: 1 }),
            at(4, Event::Killed { rank: 3 }),
            at(5, Event::RecvFailure { rank: 2, peer: 3 }),
            at(6, Event::Aborted { code: -9999 }),
            at(
                6,
                Event::Blocked { rank: 0, on: BlockedOn::Validate { round: 2 } },
            ),
            at(
                6,
                Event::Blocked {
                    rank: 2,
                    on: BlockedOn::Recv { context: 0, src: Some(1), tag: Some(T_N) },
                },
            ),
        ];
        let report = triage_trace(&trace);
        assert_eq!(report.killed, vec![1, 3]);
        assert_eq!(report.edges.len(), 2);

        // In abort order, which is rank order: rank 0's validate edge
        // first.
        assert_eq!(report.edges[0].rank, 0);
        assert_eq!(report.edges[0].on, WaitKind::Validate { round: 2 });
        assert_eq!(
            report.edges[0].last_step.as_deref(),
            Some("sent T_N to 1 at t=1")
        );

        assert_eq!(report.edges[1].rank, 2);
        assert_eq!(
            report.edges[1].on,
            WaitKind::Recv { src: Some(1), tag: Some(T_N), peer_dead: true }
        );
        assert_eq!(
            report.edges[1].last_step.as_deref(),
            Some("detector fired on rank 3 at t=5")
        );
        assert_eq!(report.dead_peer_edges().count(), 1);

        let rendered = report.to_string();
        assert!(rendered.contains("rank 2 waits on T_N from rank 1 (DEAD)"), "{rendered}");
        assert!(rendered.contains("rank 0 waits on validate round 2"), "{rendered}");

        // The verdict leads both renderings once the observation
        // supplies it.
        let report = TriageReport { hang: Some(Hang::Deadlock { step: 6 }), ..report };
        assert!(report.to_string().starts_with("wait-for graph (deadlock at step 6):\n"));
        assert!(report.one_line().starts_with("deadlock at step 6: rank 0 waits on validate"));
        let nobody_parked = TriageReport { hang: Some(Hang::Livelock), ..Default::default() };
        assert_eq!(nobody_parked.one_line(), "livelock (budget)");
    }

    /// The two verdicts end to end. A budget too small for the ring is
    /// a livelock: ranks were still being granted. The default budget
    /// on the same seed is green, with nothing to triage.
    #[test]
    fn a_spent_budget_is_a_livelock_not_a_deadlock() {
        let cfg = crate::ScenarioCfg { step_budget: 20, ..Default::default() };
        let obs = crate::run_seed(3, &cfg);
        assert!(obs.hung && obs.budget_exhausted && obs.deadlock_at.is_none());
        let report = triage(&obs);
        assert_eq!(report.hang, Some(Hang::Livelock));
        assert!(report.one_line().starts_with("livelock (budget)"), "{}", report.one_line());
        let violations = crate::check_all(&obs);
        assert!(
            violations.iter().any(|v| v.detail == "run hung: livelock (budget)"),
            "{violations:?}"
        );

        let green = crate::run_seed(3, &crate::ScenarioCfg::default());
        assert!(!green.hung);
        assert_eq!(triage(&green).hang, None);
    }

    /// A completed run records no `Blocked` events, so the graph is
    /// empty no matter how much traffic the trace holds.
    #[test]
    fn completed_trace_triages_empty() {
        let trace = vec![
            at(1, Event::Send { src: 0, dst: 1, context: 0, tag: T_N, len: 8 }),
            at(2, Event::RecvMatch { dst: 1, src: 0, context: 0, tag: T_N, seq: 0 }),
            at(3, Event::Send { src: 1, dst: 0, context: 0, tag: T_N, len: 8 }),
        ];
        let report = triage_trace(&trace);
        assert!(report.is_empty());
        assert!(report.killed.is_empty());
        assert!(report.to_string().contains("empty"));
    }

    /// Token counts distinguish "never got the token" from "lost it
    /// mid-lap", and `MPI_ANY_SOURCE` receives render without a peer.
    #[test]
    fn token_counts_and_any_source_render() {
        let trace = vec![
            at(1, Event::RecvMatch { dst: 2, src: 1, context: 0, tag: T_N, seq: 0 }),
            at(2, Event::RecvMatch { dst: 2, src: 1, context: 0, tag: T_R, seq: 1 }),
            at(3, Event::RecvMatch { dst: 2, src: 1, context: 0, tag: T_D, seq: 2 }),
            at(
                4,
                Event::Blocked {
                    rank: 2,
                    on: BlockedOn::Recv { context: 0, src: None, tag: Some(T_D) },
                },
            ),
        ];
        let report = triage_trace(&trace);
        assert_eq!(report.edges.len(), 1);
        // T_N + T_R count as tokens; T_D does not.
        assert_eq!(report.edges[0].tokens_handled, 2);
        assert!(report.one_line().contains("rank 2 waits on T_D from any source"));
    }
}
