//! Named fault scenarios for every failure figure in the paper.
//!
//! The builders are parameterised by ring tag and neighbour ranks so
//! this crate stays independent of the ring implementation; the
//! `ftring` crate re-exports them instantiated with its own tag.
//!
//! Figure-to-scenario map:
//!
//! * **Fig. 6 / Fig. 7** — `P2` fails *after receiving* the ring buffer
//!   from `P1` but *before sending* it to `P3`. With the naive receive
//!   the program hangs (Fig. 6); with the Irecv-failure-detector receive
//!   `P1` notices and resends to `P3` (Fig. 7). Same fault, different
//!   receive function: [`kill_after_recv`].
//! * **Fig. 8 / Fig. 10** — `P2` fails *after sending* the buffer to
//!   `P3`; `P1` notices and resends, so `P3` sees the same iteration
//!   twice. Without duplicate control the iteration completes twice
//!   (Fig. 8); with the iteration marker the resend is discarded
//!   (Fig. 10). Same fault, different dedup policy:
//!   [`kill_after_send`].
//! * **§III-D** — the root fails mid-ring; survivors elect a new root
//!   which reconstructs the iteration state: [`kill_after_send`] /
//!   [`kill_after_recv`] aimed at rank 0.

use crate::plan::{FaultPlan, FaultRule};
use crate::trigger::{HookKind, Trigger};
use crate::{Rank, Tag};

/// Kill `victim` immediately after it completes its `iteration`-th
/// receive of `tag` from `from` (1-based iteration).
///
/// This is the Fig. 6 / Fig. 7 fault: the buffer is consumed but never
/// forwarded, so ring control is lost with the victim.
pub fn kill_after_recv(victim: Rank, from: Rank, tag: Tag, iteration: u64) -> FaultPlan {
    FaultPlan::none().with(FaultRule::kill(
        victim,
        Trigger::on(HookKind::AfterRecvComplete).peer(from).tag(tag).nth(iteration),
    ))
}

/// Kill `victim` immediately after its `iteration`-th send of `tag` to
/// `to` completes (1-based iteration).
///
/// This is the Fig. 8 / Fig. 10 fault: the buffer *was* forwarded, but
/// the left neighbour cannot know that and will resend, producing a
/// duplicate at the right neighbour.
pub fn kill_after_send(victim: Rank, to: Rank, tag: Tag, iteration: u64) -> FaultPlan {
    FaultPlan::none().with(FaultRule::kill(
        victim,
        Trigger::on(HookKind::AfterSend).peer(to).tag(tag).nth(iteration),
    ))
}

/// Kill `victim` just *before* it posts its `n`-th receive of `tag`.
///
/// Useful for killing a rank while it is idle between iterations.
pub fn kill_before_recv_post(victim: Rank, tag: Tag, n: u64) -> FaultPlan {
    FaultPlan::none().with(FaultRule::kill(
        victim,
        Trigger::on(HookKind::BeforeRecvPost).tag(tag).nth(n),
    ))
}

/// Kill `victim` when it enters (or first polls) its `n`-th
/// `validate_all`, exercising failure *during* the consensus (Fig. 13
/// line 17: "Validate should not fail, but if it does repost").
pub fn kill_in_validate(victim: Rank, n: u64) -> FaultPlan {
    FaultPlan::none()
        .with(FaultRule::kill(victim, Trigger::on(HookKind::BeforeValidate).nth(n)))
}

/// Kill `victim` at the exact moment `observer` *completes its
/// `occurrence`-th receive* of `tag`.
///
/// With `observer` two positions downstream of the victim, this pins
/// the Fig. 8 interleaving deterministically: at the instant the kill
/// lands, the token of lap `occurrence - 1` has passed the victim and
/// its successor but sits *inside* the observer's receive hook — the
/// lap cannot have closed, so the victim's left neighbour provably
/// still holds the already-delivered token as its `last_sent`, and its
/// resend produces a genuine duplicate at the victim's successor.
/// (Killing the victim on its *own* `AfterSend` can land late on a
/// busy scheduler — the next lap may already be in the dying rank's
/// mailbox, turning the resend into a loss-rescue instead.)
pub fn kill_behind_token(
    victim: Rank,
    observer: Rank,
    tag: Tag,
    occurrence: u64,
) -> FaultPlan {
    FaultPlan::none().with(FaultRule::kill_other(
        observer,
        victim,
        Trigger::on(HookKind::AfterRecvComplete).tag(tag).nth(occurrence),
    ))
}

/// Chain several independent single-kill scenarios into one plan
/// ("multiple, non-root process failures", §III-C).
pub fn combine(plans: impl IntoIterator<Item = FaultPlan>) -> FaultPlan {
    let mut all = FaultPlan::none();
    for p in plans {
        for r in p.rules() {
            all = all.with(*r);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_plan_shape() {
        let p = kill_after_recv(2, 1, 1, 3);
        assert_eq!(p.victims(), vec![2]);
        let r = p.rules()[0];
        assert_eq!(r.trigger.kind, HookKind::AfterRecvComplete);
        assert_eq!(r.trigger.occurrence, 3);
    }

    #[test]
    fn fig8_plan_shape() {
        let p = kill_after_send(2, 3, 1, 2);
        let r = p.rules()[0];
        assert_eq!(r.trigger.kind, HookKind::AfterSend);
        assert_eq!(r.trigger.peer, crate::trigger::PeerMatch::Exact(3));
    }

    #[test]
    fn combine_merges_rules() {
        let p = combine([
            kill_after_recv(2, 1, 1, 1),
            kill_after_send(3, 0, 1, 4),
            kill_in_validate(5, 1),
        ]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.victims(), vec![2, 3, 5]);
    }
}
