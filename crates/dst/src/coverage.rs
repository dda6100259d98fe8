//! Schedule-coverage signatures (DESIGN.md §8.11).
//!
//! A blind seed sweep spends most of its budget re-running schedules
//! that are *equivalent*: different seeds, same protocol behavior. The
//! coverage signature is the feedback signal that tells them apart.
//! Every decision the scheduler makes is hashed into a per-run edge
//! set, where an **edge** is the triple
//!
//! ```text
//! (rank, decision-kind, protocol-phase)
//! ```
//!
//! * `rank` — who the decision concerned (granted rank, choosing rank,
//!   kill victim, exiting rank).
//! * `decision-kind` — one of the nine [`EdgeKind`]s: token grants,
//!   the three choice funnels (with drains split into full-delivery
//!   vs delaying, since a delay is the semantically interesting case),
//!   kills, exits, and the two hang verdicts (deadlock, budget).
//! * `protocol-phase` — how many fail-stops had been delivered when
//!   the decision was made, saturated at [`PHASE_CAP`]. The same
//!   decision before any failure, during first repair, and during
//!   stacked repair exercises different protocol code, so the phase
//!   keeps those distinct without tracking protocol state the
//!   scheduler cannot see.
//!
//! The triple is packed into a word and mixed through the splitmix64
//! finalizer, so an edge is a single well-distributed `u64`. A run's
//! edge set lives in a [`CoverageSet`] — a small open-addressing hash
//! table that tracks its size and the XOR of its members (an
//! order-independent digest: two runs covering the same edges report
//! byte-identical signatures regardless of discovery order). The
//! fuzzer unions run sets into a global `BTreeSet` and keeps exactly
//! the schedules that contributed a novel edge.
//!
//! Everything here is deterministic: no addresses, no time, no
//! `HashMap` iteration order. The signature of a schedule is as
//! reproducible as its decision log.

/// Protocol-phase saturation: phases `0..=PHASE_CAP` are distinct,
/// every later kill stays at `PHASE_CAP`. Three kills is the deepest
/// stacked-failure scenario the kill shapes generate (`Cascade`).
pub const PHASE_CAP: u8 = 3;

/// What kind of scheduler decision an edge records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EdgeKind {
    /// Execution-token grant.
    Grant = 0,
    /// `waitany` pick among ready requests.
    WaitAny = 1,
    /// `ANY_SOURCE` sender match.
    AnySource = 2,
    /// Mailbox drain delivering the whole queue.
    DrainFull = 3,
    /// Mailbox drain withholding a suffix (a delay).
    DrainDelay = 4,
    /// Fail-stop delivery.
    Kill = 5,
    /// Rank thread left the universe.
    Exit = 6,
    /// Logical step budget exhausted (livelock backstop).
    Budget = 7,
    /// No suspended rank enabled (deadlock verdict).
    Deadlock = 8,
}

/// splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash the `(rank, kind, phase)` triple into its edge value. Never
/// returns 0 (the [`CoverageSet`] empty-slot sentinel).
#[inline]
pub fn edge(rank: usize, kind: EdgeKind, phase: u8) -> u64 {
    let packed = ((rank as u64) << 16)
        | ((kind as u64) << 8)
        | u64::from(phase.min(PHASE_CAP))
        // Constant tag so edge values are not trivially the finalizer
        // of small integers (they share hashed-space with nothing
        // else today, but a salt costs nothing).
        | 0x6564_6765_0000_0000; // "edge"
    let h = mix(packed);
    if h == 0 {
        1
    } else {
        h
    }
}

/// Initial slot count. Sized so a typical run (≤ 8 ranks × 9 kinds ×
/// 4 phases = 288 possible edges, a few dozen realized) never rehashes:
/// one allocation per scheduler, zero growth in the steady state.
const INITIAL_SLOTS: usize = 512;

/// Load factor ceiling: grow at 3/4 full.
const GROW_NUM: usize = 3;
const GROW_DEN: usize = 4;

/// A run's coverage-edge set: open-addressing table of nonzero `u64`
/// edge hashes, tracking the member count and XOR digest.
///
/// Deliberately not `std::collections::HashSet`: the edges are already
/// well-mixed hashes (identity probing is enough), the set must be
/// deterministic to iterate, and the steady-state cost must stay at
/// one allocation per scheduler for the §8.10 alloc ceilings.
#[derive(Debug, Clone)]
pub struct CoverageSet {
    /// Power-of-two slot array; 0 = empty.
    slots: Vec<u64>,
    len: usize,
    digest: u64,
}

impl Default for CoverageSet {
    fn default() -> Self {
        CoverageSet::new()
    }
}

impl CoverageSet {
    /// Empty set with the standard pre-sized table.
    pub fn new() -> Self {
        CoverageSet { slots: vec![0; INITIAL_SLOTS], len: 0, digest: 0 }
    }

    /// Empty set that has not allocated its table yet (it materializes
    /// on first insert). For placeholder values that are swapped away.
    pub fn empty() -> Self {
        CoverageSet { slots: Vec::new(), len: 0, digest: 0 }
    }

    /// Number of distinct edges.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no edge has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Order-independent digest: XOR of all member edges.
    pub fn signature(&self) -> u64 {
        self.digest
    }

    /// Insert an edge hash (nonzero). Returns `true` iff it was new.
    pub fn insert(&mut self, edge: u64) -> bool {
        debug_assert_ne!(edge, 0, "edge hashes are nonzero by construction");
        if self.slots.is_empty() {
            self.slots = vec![0; INITIAL_SLOTS];
        } else if self.len * GROW_DEN >= self.slots.len() * GROW_NUM {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (edge as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == edge {
                return false;
            }
            if s == 0 {
                self.slots[i] = edge;
                self.len += 1;
                self.digest ^= edge;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Record a `(rank, kind, phase)` decision. Returns `true` iff the
    /// edge was new to this set.
    pub fn record(&mut self, rank: usize, kind: EdgeKind, phase: u8) -> bool {
        self.insert(edge(rank, kind, phase))
    }

    /// Iterate the member edges in slot order (deterministic for a
    /// deterministic insert sequence).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().copied().filter(|&e| e != 0)
    }

    /// Clear all members, keeping the table allocation.
    pub fn reset(&mut self) {
        self.slots.fill(0);
        self.len = 0;
        self.digest = 0;
    }

    /// Summary counters for the stats chain.
    pub fn stats(&self) -> faultsim::CoverageStats {
        faultsim::CoverageStats { edges: self.len as u64, signature: self.digest }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len().max(INITIAL_SLOTS)) * 2;
        let old = std::mem::replace(&mut self.slots, vec![0; new_cap]);
        let mask = new_cap - 1;
        for e in old {
            if e == 0 {
                continue;
            }
            let mut i = (e as usize) & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_distinct_and_nonzero() {
        let kinds = [
            EdgeKind::Grant,
            EdgeKind::WaitAny,
            EdgeKind::AnySource,
            EdgeKind::DrainFull,
            EdgeKind::DrainDelay,
            EdgeKind::Kill,
            EdgeKind::Exit,
            EdgeKind::Budget,
            EdgeKind::Deadlock,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for rank in 0..16 {
            for &kind in &kinds {
                for phase in 0..=PHASE_CAP {
                    let e = edge(rank, kind, phase);
                    assert_ne!(e, 0);
                    assert!(seen.insert(e), "collision at ({rank},{kind:?},{phase})");
                }
            }
        }
    }

    #[test]
    fn phase_saturates_at_cap() {
        assert_eq!(
            edge(3, EdgeKind::Kill, PHASE_CAP),
            edge(3, EdgeKind::Kill, PHASE_CAP + 5)
        );
        assert_ne!(edge(3, EdgeKind::Kill, 0), edge(3, EdgeKind::Kill, 1));
    }

    #[test]
    fn set_tracks_len_and_digest_order_independently() {
        let a = edge(0, EdgeKind::Grant, 0);
        let b = edge(1, EdgeKind::Grant, 0);
        let c = edge(2, EdgeKind::Exit, 1);
        let mut s1 = CoverageSet::new();
        let mut s2 = CoverageSet::new();
        for e in [a, b, c, a, b] {
            s1.insert(e);
        }
        for e in [c, b, a] {
            s2.insert(e);
        }
        assert_eq!(s1.len(), 3);
        assert_eq!(s2.len(), 3);
        assert_eq!(s1.signature(), s2.signature());
        assert_eq!(s1.signature(), a ^ b ^ c);
        let mut members: Vec<u64> = s1.iter().collect();
        members.sort_unstable();
        let mut expect = vec![a, b, c];
        expect.sort_unstable();
        assert_eq!(members, expect);
    }

    #[test]
    fn insert_reports_novelty() {
        let mut s = CoverageSet::new();
        assert!(s.record(0, EdgeKind::Grant, 0));
        assert!(!s.record(0, EdgeKind::Grant, 0));
        assert!(s.record(0, EdgeKind::Grant, 1));
    }

    #[test]
    fn grows_past_load_factor() {
        let mut s = CoverageSet::new();
        let mut digest = 0u64;
        let n = INITIAL_SLOTS * 2;
        for i in 0..n {
            let e = mix(i as u64 + 1).max(1);
            if s.insert(e) {
                digest ^= e;
            }
        }
        assert!(s.len() > INITIAL_SLOTS * GROW_NUM / GROW_DEN);
        assert_eq!(s.signature(), digest);
        // Every inserted edge still findable (re-insert = not new).
        for i in 0..n {
            let e = mix(i as u64 + 1).max(1);
            assert!(!s.insert(e));
        }
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut s = CoverageSet::new();
        s.record(1, EdgeKind::Kill, 2);
        let cap = s.slots.len();
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.signature(), 0);
        assert_eq!(s.slots.len(), cap);
    }
}
