//! The paper's figures and every placed ring scenario under the
//! deterministic scheduler.
//!
//! One test per claim, each running one or more rows of
//! `dst::figures::table`: `dst::figures::run` holds the row to its claim
//! on seeds `0..32`, and the test pins how many of them resent a token,
//! closed a lap twice and dropped a duplicate.

use dst::figures::{figure, run, table, Counts};

/// A test per claim: its name, then each of its rows' ids with the row's `(resent, doubled,
/// dropped)` seeds.
macro_rules! rows {
    ($($(#[$doc:meta])* $name:ident: $($id:literal => $pin:expr),+;)*) => {
        $($(#[$doc])* #[test] fn $name() {
            $(
                let Counts { resent, doubled, dropped, .. } = run(&figure($id));
                assert_eq!((resent, doubled, dropped), $pin, "{}", $id);
            )+
        })*
        /// Every row has a test above.
        #[test]
        fn every_figure_has_a_test() {
            let ids: Vec<&str> = table().iter().map(|f| f.id).collect();
            assert_eq!(ids, [$($($id),+),*]);
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
    /// Fig. 11's stated limitation: a root that dies as it starts the
    /// termination broadcast leaves every other rank to `MPI_Abort`.
    root_broadcast_aborts_on_root_failure_in_termination: "F11 root dies" => (0, 0, 0);
    /// Fig. 13 with rank 3 dying as it enters the terminating consensus.
    validate_all_survives_failure_during_consensus: "F13" => (30, 0, 0);
    /// Fig. 13 with a mid-run failure: the terminating consensus counts it.
    validate_all_reports_the_agreed_failure_count: "F13 mid-ring" => (32, 0, 0);
    /// The defect §III-D fixes: Fig. 11's ring wedges when the root dies.
    root_broadcast_hangs_on_mid_ring_root_failure: "S3D Fig. 11" => (0, 0, 0);
    /// The same death with root failover: rank 1 takes over.
    root_dies_mid_ring_and_rank1_takes_over: "S3D failover" => (32, 0, 0);
    /// The root dies at its first ring send: the new root originates every
    /// lap itself.
    root_dies_before_first_origination: "S3D first send" => (0, 0, 0);
    /// The root dies right after originating lap 1: the new root adopts the
    /// lap in flight.
    root_dies_with_token_in_flight: "S3D in flight" => (31, 0, 25);
    /// Rank 0 dies after the closure of lap 1; rank 1 takes over and dies
    /// as soon as it has originated lap 2, its third send; rank 2 finishes.
    cascading_root_failures: "S3D cascade" => (32, 0, 22);
    /// A root and a non-root death in one run.
    root_and_non_root_die_in_one_run: "S3D root+1" => (32, 0, 0);
    /// CountOnly termination, the paper's starting point, failure-free.
    count_only_termination_failure_free: "S3C count only" => (0, 0, 0);
    /// §III-C's rejected double ibarrier under the Fig. 6 fault.
    double_ibarrier_terminates_under_a_failure: "S3C ibarrier" => (32, 0, 0);
    /// §III-C: three non-root deaths, every kill firing on every seed.
    multiple_non_root_failures_run_through: "S3C multiple" => (32, 0, 25);
    /// Every rank adds once to every lap; nothing is resent.
    failure_free_ft_ring_matches_baseline_values: "failure-free" => (0, 0, 0);
    /// Two ranks: the detector and the normal receive name one peer.
    two_rank_ring_completes: "failure-free 2" => (0, 0, 0);
    /// On a two-rank communicator right == left, so a detector receive left
    /// posted by one run would match the next run's first token.
    two_rank_ring_runs_twice_on_one_communicator: "failure-free 2, twice" => (0, 0, 0);
    /// Every row's body checks that `run_ring` released every receive it
    /// posted, the failure detector included; this row adds the double
    /// ibarrier, the one termination mode no other failure-free row runs.
    run_ring_leaves_no_request_behind: "ibarrier failure-free" => (0, 0, 0);
    /// Failover configured, nothing fails: nothing is resent, nobody takes
    /// over.
    failover_config_failure_free: "failover failure-free" => (0, 0, 0);
    /// Root failover without a root-independent termination or the
    /// detector receive is an error every rank gets back, not a panic.
    inconsistent_failover_config_is_an_error:
        "failover broadcast" => (0, 0, 0),
        "failover count only" => (0, 0, 0),
        "failover naive" => (0, 0, 0);
    /// The ring on a duplicate of the world.
    ring_on_a_duplicated_communicator: "dup failure-free" => (0, 0, 0);
    /// Fig. 7's fault on a duplicate of the world.
    ring_on_a_duplicated_communicator_with_failure: "dup F7" => (32, 0, 0);
    /// Ranks 0–2 and 3–5 run one ring each at once, each rooted at its
    /// lowest world rank, three participants a lap.
    two_rings_on_split_halves_run_concurrently: "halves failure-free" => (0, 0, 0);
    /// Rank 4 dies mid-ring: the second half runs through, the first never
    /// notices.
    split_ring_with_failure_in_one_half_leaves_other_untouched: "halves F7" => (32, 0, 0);
}
