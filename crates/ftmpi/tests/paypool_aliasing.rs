//! Property pin for the payload pool's aliasing contract
//! (DESIGN.md §8.10): a buffer re-admitted by
//! [`PayloadPool::recycle`] is never handed out while any live
//! `Bytes` still views it.
//!
//! The model keeps every live payload next to an owned copy of its
//! expected contents and drives the pool through random interleavings
//! of make / swap / clone / recycle / drop, where a swap encodes into
//! one persistent `BytesMut` (a rank's encode buffer) and hands it to
//! [`PayloadPool::swap`]. Three violations would surface:
//!
//! * **direct overlap** — a fresh `make` or `swap` returning memory
//!   some live view still points into (checked by pointer-range
//!   disjointness);
//! * **a shared encode buffer** — the vector a swap leaves in the
//!   encode buffer overlapping a live payload, which the next encode
//!   would overwrite (checked the same way after every step);
//! * **delayed corruption** — a recycled-too-early buffer being
//!   overwritten by a later `make` while an old handle still reads it
//!   (checked by re-verifying every live payload after every step).
//!
//! Shrunk counterexamples persist next to this file in
//! `paypool_aliasing.proptest-regressions`.

use ftmpi::bytes::{Bytes, BytesMut};
use ftmpi::{Datatype, PayloadPool};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Pool a payload of `len` bytes filled with `fill`.
    Make { len: usize, fill: u8 },
    /// Encode `len` bytes of `fill` into the encode buffer and swap
    /// them out as a payload.
    Swap { len: usize, fill: u8 },
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
        (0usize..70_000, any::<u8>()).prop_map(|(len, fill)| Op::Swap { len, fill }),
        (0usize..=300, any::<u8>()).prop_map(|(len, fill)| Op::Swap { len, fill }),
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

/// Whether `(start, end)` shares no byte with any non-empty live view.
fn disjoint_from_live((start, end): (usize, usize), live: &[(Bytes, Vec<u8>)]) -> bool {
    start == end
        || live.iter().filter(|(l, _)| !l.is_empty()).all(|(l, _)| {
            let (ls, le) = span(l);
            end <= ls || le <= start
        })
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
        let mut encode_buf = BytesMut::new();
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
                    let fresh = disjoint_from_live(span(&b), &live);
                    prop_assert!(fresh, "fresh payload aliases a live one");
                    live.push((b, data));
                }
                Op::Swap { len, fill } => {
                    let data = vec![fill; len];
                    encode_buf.clear();
                    u8::encode_slice(&data, &mut encode_buf);
                    let b = pool.swap(&mut encode_buf);
                    prop_assert_eq!(&b[..], &data[..]);
                    prop_assert!(encode_buf.is_empty());
                    let fresh = disjoint_from_live(span(&b), &live);
                    prop_assert!(fresh, "swapped payload aliases a live one");
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
            // The encode buffer's whole vector, spare capacity too, is
            // the next encode's to write.
            let spare = encode_buf.as_ptr() as usize;
            prop_assert!(
                disjoint_from_live((spare, spare + encode_buf.capacity()), &live),
                "the encode buffer aliases a live payload"
            );
            // Delayed-corruption check: every live payload still reads
            // exactly what was written into it.
            for (b, expect) in &live {
                prop_assert_eq!(&b[..], &expect[..], "live payload corrupted");
            }
        }
    }
}
