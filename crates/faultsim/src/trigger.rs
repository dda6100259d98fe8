//! Protocol-point triggers.
//!
//! A [`Hook`] describes one observable protocol point at one rank. The
//! runtime reports hooks; a [`Trigger`] decides whether a rule fires.

use crate::{Rank, Tag};

/// The kind of protocol point, without its parameters.
///
/// The set mirrors the places where the 2011 run-through-stabilization
/// prototype could observe a process: around point-to-point calls,
/// around collectives, and around the validate operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookKind {
    /// About to hand a message to the transport.
    BeforeSend,
    /// Transport accepted the message (it is now in flight / delivered).
    AfterSend,
    /// About to post a receive (blocking or nonblocking).
    BeforeRecvPost,
    /// A posted receive completed successfully (payload delivered).
    AfterRecvComplete,
    /// Entering a collective operation.
    BeforeCollective,
    /// Leaving a collective operation (successfully).
    AfterCollective,
    /// Entering `comm_validate_all` / polling `icomm_validate_all`.
    BeforeValidate,
    /// A `validate_all` decision was consumed by this rank.
    AfterValidate,
    /// Generic progress tick inside a wait loop.
    Tick,
}

impl HookKind {
    /// This kind's bit in an [`Injector::watched`] mask.
    ///
    /// [`Injector::watched`]: crate::Injector::watched
    pub const fn bit(self) -> u16 {
        1 << self as u16
    }
}

/// A fully-parameterised protocol point observed at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hook {
    /// Which kind of point this is.
    pub kind: HookKind,
    /// The *world* rank of the peer involved, if any.
    ///
    /// `None` for peer-less points (collectives, validate, ticks) and
    /// for `ANY_SOURCE` receive posts.
    pub peer: Option<Rank>,
    /// The tag involved, if the point carries one.
    pub tag: Option<Tag>,
}

impl Hook {
    /// A send-side hook.
    pub fn send(kind: HookKind, peer: Rank, tag: Tag) -> Self {
        Hook { kind, peer: Some(peer), tag: Some(tag) }
    }

    /// A receive-side hook (peer may be unknown for ANY_SOURCE).
    pub fn recv(kind: HookKind, peer: Option<Rank>, tag: Tag) -> Self {
        Hook { kind, peer, tag: Some(tag) }
    }

    /// A peer-less, tag-less hook (collectives, validate, tick).
    pub fn bare(kind: HookKind) -> Self {
        Hook { kind, peer: None, tag: None }
    }
}

/// Matcher for the peer field of a hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerMatch {
    /// Match any peer (including none).
    #[default]
    Any,
    /// Match exactly this world rank.
    Exact(Rank),
}

impl PeerMatch {
    fn matches(self, peer: Option<Rank>) -> bool {
        match self {
            PeerMatch::Any => true,
            PeerMatch::Exact(r) => peer == Some(r),
        }
    }
}

/// Matcher for the tag field of a hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TagMatch {
    /// Match any tag (including none).
    #[default]
    Any,
    /// Match exactly this tag.
    Exact(Tag),
}

impl TagMatch {
    fn matches(self, tag: Option<Tag>) -> bool {
        match self {
            TagMatch::Any => true,
            TagMatch::Exact(t) => tag == Some(t),
        }
    }
}

/// A predicate over hooks, firing on the n-th match.
///
/// `occurrence` is 1-based: `occurrence == 1` fires on the first
/// matching hook. This is what lets a plan express "the *second* time
/// rank 2 completes a receive of the ring tag, kill it" — i.e. kill it
/// mid-iteration k.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trigger {
    /// Required hook kind.
    pub kind: HookKind,
    /// Peer constraint.
    pub peer: PeerMatch,
    /// Tag constraint.
    pub tag: TagMatch,
    /// Fire on the n-th (1-based) hook matching the constraints.
    pub occurrence: u64,
}

impl Trigger {
    /// Trigger on the first occurrence of `kind`, any peer, any tag.
    pub fn on(kind: HookKind) -> Self {
        Trigger { kind, peer: PeerMatch::Any, tag: TagMatch::Any, occurrence: 1 }
    }

    /// Restrict the trigger to an exact peer world rank.
    pub fn peer(mut self, peer: Rank) -> Self {
        self.peer = PeerMatch::Exact(peer);
        self
    }

    /// Restrict the trigger to an exact tag.
    pub fn tag(mut self, tag: Tag) -> Self {
        self.tag = TagMatch::Exact(tag);
        self
    }

    /// Fire on the n-th (1-based) matching occurrence.
    pub fn nth(mut self, occurrence: u64) -> Self {
        assert!(occurrence >= 1, "occurrence is 1-based");
        self.occurrence = occurrence;
        self
    }

    /// Whether `hook` satisfies the static (non-counting) constraints.
    pub fn matches(&self, hook: &Hook) -> bool {
        self.kind == hook.kind && self.peer.matches(hook.peer) && self.tag.matches(hook.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_peer_and_tag_match() {
        let t = Trigger::on(HookKind::AfterRecvComplete).peer(1).tag(7);
        assert!(t.matches(&Hook::recv(HookKind::AfterRecvComplete, Some(1), 7)));
        assert!(!t.matches(&Hook::recv(HookKind::AfterRecvComplete, Some(2), 7)));
        assert!(!t.matches(&Hook::recv(HookKind::AfterRecvComplete, Some(1), 8)));
        assert!(!t.matches(&Hook::recv(HookKind::BeforeRecvPost, Some(1), 7)));
    }

    #[test]
    fn any_matches_everything() {
        let t = Trigger::on(HookKind::Tick);
        assert!(t.matches(&Hook::bare(HookKind::Tick)));
    }

    #[test]
    #[should_panic]
    fn zero_occurrence_rejected() {
        let _ = Trigger::on(HookKind::Tick).nth(0);
    }

    #[test]
    fn bare_hook_has_no_peer_or_tag() {
        let h = Hook::bare(HookKind::BeforeValidate);
        assert_eq!(h.peer, None);
        assert_eq!(h.tag, None);
    }
}
