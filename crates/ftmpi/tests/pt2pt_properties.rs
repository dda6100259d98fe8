//! Property tests for point-to-point semantics: MPI matching rules
//! (non-overtaking, tag/context selectivity) and datatype round-trips
//! across the wire, under randomized message mixes. Each case runs
//! every seed of `dst::figures::SEEDS` under the scheduler, one
//! interleaving of the streams per seed (DESIGN.md §6).

use proptest::prelude::*;

use dst::refereed;
use faultsim::FaultPlan;
use ftmpi::{Datatype, Process, Src, TagSel, WORLD};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 32,
        .. ProptestConfig::default()
    })]

    /// Non-overtaking: for every (sender, tag) stream, messages are
    /// received in send order, regardless of how streams interleave.
    #[test]
    fn per_tag_streams_preserve_order(
        // (tag in 0..3, payload) messages from each of two senders
        msgs_a in prop::collection::vec((0i32..3, any::<u32>()), 1..20),
        msgs_b in prop::collection::vec((0i32..3, any::<u32>()), 1..20),
    ) {
        let body = |p: &mut Process| {
            match p.world_rank() {
                1 => {
                    for (tag, v) in &msgs_a {
                        p.send(WORLD, 0, *tag, v)?;
                    }
                    Ok(vec![])
                }
                2 => {
                    for (tag, v) in &msgs_b {
                        p.send(WORLD, 0, *tag, v)?;
                    }
                    Ok(vec![])
                }
                _ => {
                    // Receive every message, per (sender, tag) stream,
                    // in stream order; the wait order across streams is
                    // deliberately scrambled (stream-major) to stress
                    // the unexpected queue.
                    let mut got = Vec::new();
                    for (src, msgs) in [(1usize, &msgs_a), (2usize, &msgs_b)] {
                        for tag in 0..3i32 {
                            for (t, v) in msgs.iter().filter(|(t, _)| *t == tag) {
                                let (r, st) = p.recv::<u32>(WORLD, Src::Rank(src), *t)?;
                                assert_eq!(r, *v, "stream ({src}, {t})");
                                assert_eq!(st.source, Some(src));
                                got.push((src, *t, r));
                            }
                        }
                    }
                    Ok(got)
                }
            }
        };
        refereed(3, FaultPlan::none(), body, |at, report| {
            assert!(report.all_ok(), "{at}");
            let got = report.outcomes[0].as_ok().unwrap();
            assert_eq!(got.len(), msgs_a.len() + msgs_b.len(), "{at}");
        });
    }

    /// ANY_TAG receives drain a single sender's stream in exact send
    /// order (FIFO per pair spans tags when the receive is wild).
    #[test]
    fn any_tag_preserves_pair_order(
        msgs in prop::collection::vec((0i32..5, any::<i64>()), 1..25),
    ) {
        let body = |p: &mut Process| {
            if p.world_rank() == 1 {
                for (tag, v) in &msgs {
                    p.send(WORLD, 0, *tag, v)?;
                }
                Ok(vec![])
            } else {
                let mut got = Vec::new();
                for _ in 0..msgs.len() {
                    let (data, st) = p.recv_bytes(WORLD, Src::Rank(1), TagSel::Any)?;
                    got.push((st.tag, i64::from_bytes(&data).unwrap()));
                }
                Ok(got)
            }
        };
        refereed(2, FaultPlan::none(), body, |at, report| {
            assert!(report.all_ok(), "{at}");
            assert_eq!(report.outcomes[0].as_ok().unwrap(), &msgs, "{at}");
        });
    }

    /// Wire round-trip: arbitrary nested payloads survive send/recv.
    #[test]
    fn payload_roundtrip_across_the_wire(
        payload in prop::collection::vec((any::<u64>(), any::<f64>()), 0..50),
        scalar in any::<i64>(),
    ) {
        let body = |proc_: &mut Process| {
            if proc_.world_rank() == 0 {
                proc_.send(WORLD, 1, 1, &(scalar, payload.clone()))?;
                Ok((0, vec![]))
            } else {
                let ((s, v), _) = proc_.recv::<(i64, Vec<(u64, f64)>)>(WORLD, Src::Rank(0), 1)?;
                Ok((s, v))
            }
        };
        refereed(2, FaultPlan::none(), body, |at, report| {
            assert!(report.all_ok(), "{at}");
            let (s, v) = report.outcomes[1].as_ok().unwrap();
            assert_eq!(*s, scalar, "{at}");
            assert_eq!(v.len(), payload.len(), "{at}");
            for ((ga, gb), (ea, eb)) in v.iter().zip(&payload) {
                assert_eq!(ga, ea, "{at}");
                assert!((gb == eb) || (gb.is_nan() && eb.is_nan()), "{at}");
            }
        });
    }

    /// Posted-receive order is respected: when several identical
    /// receives are posted, completions happen in post order.
    #[test]
    fn posted_receives_complete_in_post_order(count in 1usize..12) {
        let body = |p: &mut Process| {
            if p.world_rank() == 1 {
                for i in 0..count as u64 {
                    p.send(WORLD, 0, 2, &i)?;
                }
                Ok(vec![])
            } else {
                let reqs: Vec<_> = (0..count)
                    .map(|_| p.irecv(WORLD, Src::Rank(1), 2))
                    .collect::<Result<_, _>>()?;
                let out = p.waitall(&reqs)?;
                let values: Vec<u64> = out
                    .into_iter()
                    .map(|c| u64::from_bytes(&c.unwrap().data).unwrap())
                    .collect();
                Ok(values)
            }
        };
        refereed(2, FaultPlan::none(), body, |at, report| {
            assert!(report.all_ok(), "{at}");
            let got = report.outcomes[0].as_ok().unwrap();
            assert_eq!(got, &(0..count as u64).collect::<Vec<_>>(), "{at}");
        });
    }
}
