//! Shared helpers for `all_experiments`, the binary that regenerates
//! the paper's behavioural figures.

pub mod harness;

pub use harness::{ring_once, ExperimentRow};
