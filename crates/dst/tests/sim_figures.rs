//! The paper's behavioural figures under the deterministic scheduler.
//!
//! One test per row of `dst::figures::table`: `dst::figures::run` holds
//! the row to its claim on seeds `0..32`, and the test pins how many of
//! them resent a token, closed a lap twice and dropped a duplicate.

use dst::figures::{figure, run, table, Counts};

/// A test per row: its name, the row's id and its `(resent, doubled, dropped)` seeds.
macro_rules! rows {
    ($($(#[$doc:meta])* $name:ident: $id:literal => $pin:expr;)*) => {
        $($(#[$doc])* #[test] fn $name() {
            let Counts { resent, doubled, dropped, .. } = run(&figure($id));
            assert_eq!((resent, doubled, dropped), $pin, "{}", $id);
        })*
        /// Every row has a test above.
        #[test]
        fn every_figure_has_a_test() {
            let ids: Vec<&str> = table().iter().map(|f| f.id).collect();
            assert_eq!(ids, [$($id),*]);
        }
    };
}

rows! {
    /// Fig. 6: P2 dies holding the token; the naive receive waits forever.
    fig6_naive_recv_hangs_when_token_dies_with_rank: "F6" => (0, 0, 0);
    /// Fig. 6's control: the naive receive without a failure.
    naive_config_is_fine_without_failures: "F6 control" => (0, 0, 0);
    /// Fig. 7: the same fault with the Fig. 9 receive; P1 always resends.
    fig7_detector_recv_recovers_from_the_same_fault: "F7" => (32, 0, 0);
    /// Fig. 8: P2 dies after forwarding to P3. On 27 seeds P1's detector
    /// wins its `waitany` and the resend closes a lap twice; on the
    /// other 5 P1 takes lap 2's token first and resends nothing.
    fig8_no_dedup_double_completes_an_iteration: "F8" => (27, 27, 0);
    /// Fig. 10: the same fault with the iteration marker; every resend is dropped.
    fig10_marker_dedup_discards_the_duplicate: "F10" => (27, 0, 27);
    /// §III-B's separate resend tag under the same fault.
    separate_tag_variant_also_controls_duplicates: "F10b" => (30, 0, 30);
    /// Fig. 11 with rank 3 dying as it posts its `T_D` receive.
    root_broadcast_with_failure_during_termination: "F11" => (32, 0, 0);
    /// Fig. 13 with rank 3 dying as it enters the terminating consensus.
    validate_all_survives_failure_during_consensus: "F13" => (30, 0, 0);
    /// The defect §III-D fixes: Fig. 11's ring wedges when the root dies.
    root_broadcast_hangs_on_mid_ring_root_failure: "S3D Fig. 11" => (0, 0, 0);
    /// The same death with root failover: rank 1 takes over.
    root_dies_mid_ring_and_rank1_takes_over: "S3D failover" => (32, 0, 0);
    /// §III-C's rejected double ibarrier under the Fig. 6 fault.
    double_ibarrier_terminates_under_a_failure: "S3C ibarrier" => (32, 0, 0);
    /// §III-C: three non-root deaths, every kill firing on every seed.
    multiple_non_root_failures_run_through: "S3C multiple" => (32, 0, 25);
    /// Every rank adds once to every lap; nothing is resent.
    failure_free_ft_ring_matches_baseline_values: "failure-free" => (0, 0, 0);
    /// Two ranks: the detector and the normal receive name one peer.
    two_rank_ring_completes: "failure-free 2" => (0, 0, 0);
}
