//! Wire-level message envelope.

use bytes::Bytes;

use crate::rank::CommRank;
use crate::tag::Tag;

/// Identifies a communication context (one per communicator).
///
/// Matching never crosses contexts, which is what isolates library
/// traffic on a duplicated communicator from application traffic — the
/// property the proposal relies on for per-communicator failure
/// notification.
pub type ContextId = u64;

/// One message as carried by the transport.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender's rank within the communicator `context` belongs to —
    /// the rank receivers match against.
    pub src_comm: CommRank,
    /// Communicator context.
    pub context: ContextId,
    /// Message tag (may be a negative system tag).
    pub tag: Tag,
    /// Payload bytes.
    pub payload: Bytes,
    /// Per (sender, receiver) sequence number within one run, wrapping
    /// at 2^32; diagnostic only (FIFO is provided by the transport,
    /// this lets tests assert it).
    pub seq: u32,
    /// The sender's generation (`Process::generation`): a receive that
    /// names its source matches only envelopes from the incarnation it
    /// was posted on (DESIGN.md §7). `seq` is 32 bits wide so that
    /// this field costs no space: an envelope stays 72 bytes.
    pub gen: u32,
    /// Poison marker: this envelope is not data but an error
    /// notification from a peer abandoning a collective (see
    /// `collective` module docs). Poisoned envelopes complete matching
    /// receives with `RankFailStop`.
    pub poison: bool,
}
