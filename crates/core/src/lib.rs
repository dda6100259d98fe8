//! # ftring — the fault-tolerant ring of Hursey & Graham (2011)
//!
//! Reproduction of *"Building a Fault Tolerant MPI Application: A Ring
//! Communication Example"* on the `ftmpi` run-through-stabilization
//! runtime. Every artifact of the paper is here:
//!
//! | Paper figure | Item |
//! |---|---|
//! | Fig. 2 | [`baseline::run_baseline_ring`] |
//! | Fig. 3 | [`ring::run_ring`] with [`ring::RingConfig::paper`] |
//! | Fig. 4 | [`neighbors::to_left_of`], [`neighbors::to_right_of`] (one walk) |
//! | Fig. 5 | `FT_Send_right` (`send` module, used by `run_ring`) |
//! | Fig. 6 | [`ring::RecvStrategy::Naive`] (demonstrably hangs) |
//! | Fig. 7, Fig. 9 | [`ring::RecvStrategy::Detector`]: the right-neighbour watch, written once in the `recv` module and reused by every termination wait |
//! | Fig. 8 | [`ring::DedupStrategy::None`] (double completion) |
//! | Fig. 10 | [`ring::DedupStrategy::IterationMarker`] |
//! | §III-B | [`ring::DedupStrategy::SeparateTag`] (resends on [`T_R`]) |
//! | Fig. 11 | [`ring::TerminationMode::RootBroadcast`] |
//! | §III-C | [`ring::TerminationMode::DoubleBarrier`] (the design the paper rejects as costly) |
//! | Fig. 12 | [`neighbors::get_current_root`]: the lowest alive rank, a local scan |
//! | Fig. 13 | [`ring::TerminationMode::ValidateAll`] |
//! | §III-D | `allow_root_failure` + [`ring::RingConfig::with_root_failover`] |
//!
//! ## Quickstart
//!
//! ```
//! use ftmpi::{run, UniverseConfig, WORLD};
//! use ftring::{run_ring, summarize, RingConfig};
//!
//! // Ring of 5 ranks, 10 iterations, rank 2 dies mid-run.
//! let plan = ftmpi::faultsim::FaultPlan::none().kill_at(
//!     2,
//!     ftmpi::faultsim::HookKind::AfterRecvComplete,
//!     3,
//! );
//! let cfg = RingConfig::paper(10);
//! let report = run(
//!     5,
//!     UniverseConfig::with_plan(plan).watchdog(std::time::Duration::from_secs(30)),
//!     move |p| run_ring(p, WORLD, &cfg),
//! );
//! let summary = summarize(&report);
//! assert!(!summary.hung);
//! assert_eq!(summary.completed_iterations(), 10);
//! assert!(!summary.has_double_completion());
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod baseline;
pub mod diagram;
pub mod msg;
pub mod neighbors;
pub mod report;
pub mod ring;

mod recv;
mod root_recovery;
mod send;
mod termination;

pub use baseline::{run_baseline_ring, BaselineStats};
pub use msg::{RingMsg, T_D, T_N, T_R};
pub use neighbors::{get_current_root, to_left_of, to_right_of};
pub use diagram::render_sequence_diagram;
pub use report::{summarize, RingRunSummary};
pub use ring::{
    run_ring, DedupStrategy, RecvStrategy, RingConfig, RingStats, TerminationMode,
};
