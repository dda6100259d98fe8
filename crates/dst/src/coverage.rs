//! Schedule-coverage signatures (DESIGN.md §8.11).
//!
//! A blind seed sweep spends most of its budget re-running schedules
//! that are *equivalent*: different seeds, same protocol behavior. The
//! coverage signature is the feedback signal that tells them apart.
//! Every decision the scheduler makes is recorded in a per-run edge
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
//! An edge's value is the triple packed into a word and mixed through
//! the splitmix64 finalizer, a well-distributed `u64`. A run's edges
//! are a [`CoverageSet`]: one bitmap word per rank, one bit per
//! `(kind, phase)`, with its size and the XOR of its member edges (an
//! order-independent digest: two runs covering the same edges report
//! byte-identical signatures regardless of discovery order). The
//! fuzzer unions run sets by word-OR and keeps exactly the schedules
//! that contributed a novel edge.
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
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash the `(rank, kind, phase)` triple into its edge value, never 0:
/// `mix` is a bijection fixing only 0, and the salt is nonzero.
#[inline]
pub fn edge(rank: usize, kind: EdgeKind, phase: u8) -> u64 {
    edge_at(rank, bit(kind, phase))
}

/// Distinct phases, so a rank's 9 × 4 = 36 edges fit in one word.
const PHASES: u32 = PHASE_CAP as u32 + 1;

/// The bit of `(kind, phase)` in a rank's word.
fn bit(kind: EdgeKind, phase: u8) -> u32 {
    kind as u32 * PHASES + u32::from(phase.min(PHASE_CAP))
}

/// The edge of bit `bit` in `rank`'s word.
fn edge_at(rank: usize, bit: u32) -> u64 {
    mix(((rank as u64) << 16)
        | u64::from(bit / PHASES) << 8
        | u64::from(bit % PHASES)
        // Constant tag so edge values are not trivially the finalizer
        // of small integers (they share hashed-space with nothing
        // else today, but a salt costs nothing).
        | 0x6564_6765_0000_0000) // "edge"
}

/// A coverage-edge set: one bitmap word per rank, bit `kind × 4 +
/// phase`, with its member count and XOR digest. A scheduler's is built
/// once for its ranks and never grows; a union grows to the wider set.
#[derive(Debug, Clone, Default)]
pub struct CoverageSet {
    words: Vec<u64>,
    len: usize,
    digest: u64,
}

impl CoverageSet {
    /// Empty set with room for the edges of ranks `0..ranks`.
    pub fn new(ranks: usize) -> Self {
        CoverageSet { words: vec![0; ranks], len: 0, digest: 0 }
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

    /// Record a `(rank, kind, phase)` decision; `rank` is below the
    /// count the set was built for. Returns `true` iff the edge was new
    /// to this set.
    pub fn record(&mut self, rank: usize, kind: EdgeKind, phase: u8) -> bool {
        let bit = bit(kind, phase);
        let word = &mut self.words[rank];
        if *word >> bit & 1 != 0 {
            return false;
        }
        *word |= 1 << bit;
        self.len += 1;
        self.digest ^= edge_at(rank, bit);
        true
    }

    /// Add every member of `other`. Returns how many were new here.
    pub fn union(&mut self, other: &CoverageSet) -> u64 {
        self.words.resize(self.words.len().max(other.words.len()), 0);
        let known = self.len;
        for (rank, (mine, theirs)) in self.words.iter_mut().zip(&other.words).enumerate() {
            let mut fresh = theirs & !*mine;
            *mine |= fresh;
            while fresh != 0 {
                self.len += 1;
                self.digest ^= edge_at(rank, fresh.trailing_zeros());
                fresh &= fresh - 1;
            }
        }
        (self.len - known) as u64
    }

    /// Iterate the member edges by rank, then kind, then phase.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(rank, &word)| {
            (0..64).filter(move |bit| word >> bit & 1 != 0).map(move |bit| edge_at(rank, bit))
        })
    }

    /// Clear all members, keeping the allocation.
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.len = 0;
        self.digest = 0;
    }

    /// Summary counters for the stats chain.
    pub fn stats(&self) -> faultsim::CoverageStats {
        faultsim::CoverageStats { edges: self.len as u64, signature: self.digest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SplitMix64;
    use std::collections::BTreeSet;

    const KINDS: [EdgeKind; 9] = [
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

    #[test]
    fn edges_are_distinct_and_nonzero() {
        let mut seen = BTreeSet::new();
        for rank in 0..16 {
            for kind in KINDS {
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
        let mut s = CoverageSet::new(4);
        assert!(s.record(3, EdgeKind::Kill, PHASE_CAP));
        assert!(!s.record(3, EdgeKind::Kill, PHASE_CAP + 5));
    }

    #[test]
    fn set_tracks_len_and_digest_order_independently() {
        let (a, b, c) = ((0, EdgeKind::Grant, 0), (1, EdgeKind::Grant, 0), (2, EdgeKind::Exit, 1));
        let mut s1 = CoverageSet::new(3);
        let mut s2 = CoverageSet::new(3);
        for (rank, kind, phase) in [a, b, c, a, b] {
            s1.record(rank, kind, phase);
        }
        for (rank, kind, phase) in [c, b, a] {
            s2.record(rank, kind, phase);
        }
        assert_eq!(s1.len(), 3);
        assert_eq!(s2.len(), 3);
        assert_eq!(s1.signature(), s2.signature());
        let [a, b, c] = [a, b, c].map(|(rank, kind, phase)| edge(rank, kind, phase));
        assert_eq!(s1.signature(), a ^ b ^ c);
        let members: BTreeSet<u64> = s1.iter().collect();
        assert_eq!(members, BTreeSet::from([a, b, c]));
        assert!(s1.iter().eq(s2.iter()), "members iterate in (rank, kind, phase) order");
    }

    #[test]
    fn record_reports_novelty() {
        let mut s = CoverageSet::new(1);
        assert!(s.record(0, EdgeKind::Grant, 0));
        assert!(!s.record(0, EdgeKind::Grant, 0));
        assert!(s.record(0, EdgeKind::Grant, 1));
        assert!(s.record(0, EdgeKind::WaitAny, 0));
        assert_eq!(s.len(), 3);
    }

    /// A union adds exactly the other set's new bits, counts them, and
    /// grows the receiver to the wider set; the result is the same
    /// set whichever side is wider or which order the unions come in.
    #[test]
    fn union_grows_to_the_wider_set_and_counts_new_bits() {
        let mut narrow = CoverageSet::new(2);
        narrow.record(0, EdgeKind::Grant, 0);
        narrow.record(1, EdgeKind::Exit, 2);
        let mut wide = CoverageSet::new(130);
        wide.record(1, EdgeKind::Exit, 2);
        wide.record(129, EdgeKind::Deadlock, 3);
        let mut direct = CoverageSet::new(130);
        for (rank, kind, phase) in
            [(0, EdgeKind::Grant, 0), (1, EdgeKind::Exit, 2), (129, EdgeKind::Deadlock, 3)]
        {
            direct.record(rank, kind, phase);
        }
        let mut left = narrow.clone();
        assert_eq!(left.union(&wide), 1);
        let mut right = wide.clone();
        assert_eq!(right.union(&narrow), 1);
        let mut from_empty = CoverageSet::default();
        assert_eq!(from_empty.union(&narrow) + from_empty.union(&wide), 3);
        for s in [&left, &right, &from_empty] {
            assert_eq!((s.len(), s.signature()), (direct.len(), direct.signature()));
            assert!(s.iter().eq(direct.iter()));
        }
        assert_eq!(left.union(&direct), 0, "nothing new the second time");
        assert!(left.record(128, EdgeKind::Kill, 1), "the union grew the receiver");
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut s = CoverageSet::new(8);
        s.record(7, EdgeKind::Kill, 2);
        let cap = s.words.capacity();
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.signature(), 0);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.words.capacity(), cap);
        assert!(s.record(7, EdgeKind::Kill, 2), "a reset set forgets its members");
    }

    /// Every `(rank, kind, phase)`, recorded twice in shuffled order,
    /// makes the set of their `edge()` values: the same members, length and XOR
    /// signature as a `BTreeSet` of them, whatever the word count.
    #[test]
    fn every_edge_in_shuffled_order_matches_a_btreeset() {
        let mut rng = SplitMix64::new(0xC0FE);
        for ranks in [1usize, 4, 64, 65, 1024] {
            let mut all: Vec<(usize, EdgeKind, u8)> = (0..ranks)
                .flat_map(|r| KINDS.map(|k| (r, k)))
                .flat_map(|(r, k)| (0..=PHASE_CAP).map(move |p| (r, k, p)))
                .collect();
            all.extend(all.clone());
            for i in (1..all.len()).rev() {
                all.swap(i, rng.below(i + 1));
            }
            let mut set = CoverageSet::new(ranks);
            let mut model = BTreeSet::new();
            for &(rank, kind, phase) in &all {
                assert_eq!(set.record(rank, kind, phase), model.insert(edge(rank, kind, phase)));
            }
            assert_eq!(set.len(), model.len());
            assert_eq!(set.signature(), model.iter().fold(0, |d, e| d ^ e));
            assert_eq!(set.iter().collect::<BTreeSet<_>>(), model);
        }
    }
}
