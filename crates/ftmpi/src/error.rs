//! Error classes and error handlers.
//!
//! The run-through stabilization proposal keeps MPI's error-handler
//! model: the default is `MPI_ERRORS_ARE_FATAL` (abort the job) and a
//! fault-tolerant application must install `MPI_ERRORS_RETURN` on every
//! communicator involved in fault handling (paper Fig. 3, line 10).
//!
//! The error class central to the proposal is
//! [`Error::RankFailStop`] (`MPI_ERR_RANK_FAIL_STOP`): raised when an
//! operation references a failed-and-unrecognized rank, directly
//! (point-to-point) or indirectly (`ANY_SOURCE`, collectives).

/// Result alias for all runtime operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Error classes raised by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Class `MPI_ERR_RANK_FAIL_STOP`: the operation involved a failed,
    /// unrecognized process. `rank` is the failed peer's rank *in the
    /// communicator the operation used* when attributable to a single
    /// peer; for indirect notification (ANY_SOURCE / collectives) it is
    /// the lowest failed unrecognized rank.
    RankFailStop {
        /// Failed peer (communicator rank).
        rank: usize,
    },
    /// This process has itself been fail-stopped (fault injection). The
    /// application must unwind; every subsequent call returns this too.
    SelfFailed,
    /// The job was aborted (`MPI_Abort` or a fatal error handler).
    Aborted {
        /// The abort code passed to `abort`.
        code: i32,
    },
    /// A rank argument was outside the communicator.
    InvalidRank {
        /// The offending rank argument.
        rank: isize,
    },
    /// A tag argument was outside the user tag space.
    InvalidTag {
        /// The offending tag.
        tag: i32,
    },
    /// A request handle was invalid or already consumed.
    InvalidRequest,
    /// The received message was longer than the posted buffer.
    Truncated {
        /// Bytes that arrived.
        got: usize,
        /// Bytes the receiver allowed.
        cap: usize,
    },
    /// Payload could not be decoded as the requested datatype.
    TypeMismatch,
    /// Operation invalid in the current state (e.g. an unknown
    /// communicator handle).
    InvalidState(&'static str),
}

impl Error {
    /// Whether the error means this process must unwind (it is dead or
    /// the job is gone) rather than attempt recovery.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Error::SelfFailed | Error::Aborted { .. })
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::RankFailStop { rank } => {
                write!(f, "MPI_ERR_RANK_FAIL_STOP: rank {rank} has failed")
            }
            Error::SelfFailed => write!(f, "this process has been fail-stopped"),
            Error::Aborted { code } => write!(f, "job aborted with code {code}"),
            Error::InvalidRank { rank } => write!(f, "invalid rank {rank}"),
            Error::InvalidTag { tag } => write!(f, "invalid tag {tag}"),
            Error::InvalidRequest => write!(f, "invalid or consumed request"),
            Error::Truncated { got, cap } => {
                write!(f, "message truncated: {got} bytes into {cap}-byte buffer")
            }
            Error::TypeMismatch => write!(f, "payload does not decode as requested type"),
            Error::InvalidState(s) => write!(f, "invalid state: {s}"),
        }
    }
}

impl std::error::Error for Error {}

/// Communicator error handler, per the MPI model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorHandler {
    /// `MPI_ERRORS_ARE_FATAL` (the default): any error aborts the job.
    #[default]
    ErrorsAreFatal,
    /// `MPI_ERRORS_RETURN`: errors are returned to the caller.
    ErrorsReturn,
}

/// Outcome of one rank's closure in [`crate::Universe::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankOutcome<T> {
    /// The closure returned normally.
    Ok(T),
    /// The rank was fail-stopped by fault injection and unwound.
    Failed,
    /// The rank observed a job abort.
    Aborted {
        /// The abort code.
        code: i32,
    },
    /// The closure returned a non-terminal error.
    Err(Error),
    /// The closure panicked (a bug in the application or runtime).
    Panicked(String),
}

impl<T> RankOutcome<T> {
    /// Unwrap the `Ok` value, panicking otherwise.
    pub fn unwrap(self) -> T {
        match self {
            RankOutcome::Ok(v) => v,
            RankOutcome::Failed => panic!("rank outcome was Failed, not Ok"),
            RankOutcome::Aborted { code } => panic!("rank outcome was Aborted({code}), not Ok"),
            RankOutcome::Err(e) => panic!("rank outcome was Err({e}), not Ok"),
            RankOutcome::Panicked(m) => panic!("rank outcome was Panicked({m}), not Ok"),
        }
    }

    /// Whether this outcome is `Ok`.
    pub fn is_ok(&self) -> bool {
        matches!(self, RankOutcome::Ok(_))
    }

    /// Whether this rank was fail-stopped.
    pub fn is_failed(&self) -> bool {
        matches!(self, RankOutcome::Failed)
    }

    /// Reference to the `Ok` value, if any.
    pub fn as_ok(&self) -> Option<&T> {
        match self {
            RankOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        assert!(Error::SelfFailed.is_terminal());
        assert!(Error::Aborted { code: 1 }.is_terminal());
        assert!(!Error::RankFailStop { rank: 0 }.is_terminal());
    }

    #[test]
    fn display_is_informative() {
        let s = Error::RankFailStop { rank: 2 }.to_string();
        assert!(s.contains("RANK_FAIL_STOP") && s.contains('2'));
        let t = Error::Truncated { got: 10, cap: 4 }.to_string();
        assert!(t.contains("10") && t.contains('4'));
    }

    #[test]
    fn outcome_accessors() {
        let o: RankOutcome<i32> = RankOutcome::Ok(7);
        assert!(o.is_ok());
        assert_eq!(o.as_ok(), Some(&7));
        assert_eq!(o.unwrap(), 7);
        let f: RankOutcome<i32> = RankOutcome::Failed;
        assert!(f.is_failed());
        assert!(f.as_ok().is_none());
    }

    #[test]
    #[should_panic]
    fn unwrap_of_failed_panics() {
        let f: RankOutcome<i32> = RankOutcome::Failed;
        let _ = f.unwrap();
    }

    #[test]
    fn default_errhandler_is_fatal() {
        assert_eq!(ErrorHandler::default(), ErrorHandler::ErrorsAreFatal);
    }
}
