//! Property pin for the payload pool's aliasing contract
//! (DESIGN.md §8.10): a buffer re-admitted by
//! [`PayloadPool::recycle`] is never handed out while any live
//! `Bytes` still views it.
//!
//! The model keeps every live payload next to an owned copy of its
//! expected contents and drives the pool through random interleavings
//! of make / clone / recycle / drop. Two violations would surface:
//!
//! * **direct overlap** — a fresh `make` returning memory some live
//!   view still points into (checked by pointer-range disjointness);
//! * **delayed corruption** — a recycled-too-early buffer being
//!   overwritten by a later `make` while an old handle still reads it
//!   (checked by re-verifying every live payload after every step).
//!
//! Shrunk counterexamples persist next to this file in
//! `paypool_aliasing.proptest-regressions`.

use ftmpi::bytes::Bytes;
use ftmpi::PayloadPool;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Pool a payload of `len` bytes filled with `fill`.
    Make { len: usize, fill: u8 },
    /// Clone a live payload (shares the backing allocation).
    Clone { pick: usize },
    /// Hand a live payload back to the pool.
    Recycle { pick: usize },
    /// Drop a live payload without recycling (normal `Arc` death).
    Drop { pick: usize },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Half the lengths spread across every size class plus the
        // oversize fall-through, half straddle the inline cutoff
        // (`bytes::INLINE_CAP`, 32) and the first class above it.
        // Makes and recycles listed twice so hand-outs and
        // re-admissions dominate the mix.
        (0usize..70_000, any::<u8>()).prop_map(|(len, fill)| Op::Make { len, fill }),
        (0usize..=64, any::<u8>()).prop_map(|(len, fill)| Op::Make { len, fill }),
        any::<usize>().prop_map(|pick| Op::Clone { pick }),
        any::<usize>().prop_map(|pick| Op::Recycle { pick }),
        any::<usize>().prop_map(|pick| Op::Recycle { pick }),
        any::<usize>().prop_map(|pick| Op::Drop { pick }),
    ]
}

/// Half-open address range of a payload's visible bytes.
fn span(b: &Bytes) -> (usize, usize) {
    (b.as_ptr() as usize, b.as_ptr() as usize + b.len())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn recycled_buffers_never_alias_live_payloads(
        ops in proptest::collection::vec(op(), 1..250),
    ) {
        let pool = PayloadPool::new();
        let mut live: Vec<(Bytes, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                Op::Make { len, fill } => {
                    let data = vec![fill; len];
                    let b = pool.make(&data);
                    prop_assert_eq!(&b[..], &data[..]);
                    // Fresh memory must be disjoint from every live
                    // view — clones may share with each other, but
                    // nothing live may share with a new hand-out.
                    if !b.is_empty() {
                        let (ns, ne) = span(&b);
                        for (l, _) in &live {
                            if l.is_empty() {
                                continue;
                            }
                            let (ls, le) = span(l);
                            prop_assert!(
                                ne <= ls || le <= ns,
                                "fresh payload aliases a live one"
                            );
                        }
                    }
                    live.push((b, data));
                }
                Op::Clone { pick } if !live.is_empty() => {
                    let (b, d) = &live[pick % live.len()];
                    let (b, d) = (b.clone(), d.clone());
                    live.push((b, d));
                }
                Op::Recycle { pick } if !live.is_empty() => {
                    let (b, _) = live.swap_remove(pick % live.len());
                    pool.recycle(b);
                }
                Op::Drop { pick } if !live.is_empty() => {
                    live.swap_remove(pick % live.len());
                }
                // Pick ops against an empty table are no-ops.
                Op::Clone { .. } | Op::Recycle { .. } | Op::Drop { .. } => {}
            }
            // Delayed-corruption check: every live payload still reads
            // exactly what was written into it.
            for (b, expect) in &live {
                prop_assert_eq!(&b[..], &expect[..], "live payload corrupted");
            }
        }
    }
}
