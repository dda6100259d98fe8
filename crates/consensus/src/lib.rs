//! # consensus — application-level agreement over `ftmpi`
//!
//! The paper's §III-D discusses what a *fault-tolerant application*
//! can build when the root fails: a leader election (Fig. 12), a
//! reliable broadcast (discussed and rejected as "delicate to
//! implement"), and finally the MPI-provided fault-tolerant consensus
//! (`MPI_Comm_validate_all`). The `ftmpi` runtime implements
//! `validate_all` as a shared-memory decision barrier; this crate
//! provides the election and *message-passing* agreements an
//! application (or a real MPI library) would use instead:
//!
//! * [`election`] — the lowest-alive-rank leader election of Fig. 12;
//! * [`agreement`] — a coordinator-based uniform agreement on the
//!   failed set, with coordinator-crash recovery;
//! * [`flooding`] — an all-to-all echo agreement, simpler but only
//!   agreeing in failure-quiescent runs (the textbook reason the
//!   coordinator protocol exists).

#![warn(missing_docs)]

pub mod agreement;
pub mod election;
pub mod flooding;

pub use agreement::{agree_on_failed_set, AgreementConfig};
pub use election::current_root;
pub use flooding::flooding_failed_set;
