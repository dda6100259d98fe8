//! Regression pins for the kill-shape taxonomy sweeps (DESIGN.md §8.8).
//!
//! Sweeping the taxonomy shapes beyond adjacent pairs surfaced three
//! protocol defects and one oracle defect:
//!
//! * **Mid-forward takeover double-count** (root-chain seed `0x1d1`,
//!   hang): a non-root forwarding a token walks `ft_send_right` past a
//!   dead right neighbour into `check_root_change`; if the root is
//!   also dead, the takeover ran with `cur` not yet incremented, saw
//!   `cur == 0`, originated a second copy of the in-hand lap, and the
//!   lap was then counted twice — the new root later dropped its own
//!   closure as stale and both survivors deadlocked. Fixed by
//!   advancing `cur` before the forwarding send.
//! * **Detector-slot consumption reorder** (cascade seed `0xf5a`,
//!   `InvalidState`): in a ring shrunk to two survivors the detector
//!   and normal receives both point at the same peer; with two tokens
//!   in flight on that link (a delayed forward plus the takeover
//!   root's next origination) the detector-first wait handed out the
//!   *newer* token first, tripping the future-iteration guard. Fixed
//!   by consuming dual-slot data in marker order.
//! * **Zero-hop takeover closure** (triple seed `0x18576` at 8 ranks,
//!   hang): the dying root's detector resend reached the next root
//!   *directly from the originator*; the takeover-closure branch read
//!   it as the dead root's lap coming home and originated the next
//!   lap while the real token still circulated — two live tokens.
//!   When a rank died holding the older one, the Fig. 9 resend (which
//!   keeps only `last_sent`) could resurrect only the newer, and the
//!   next survivor errored on a lap it never saw. Fixed by requiring
//!   a takeover closure's immediate sender to differ from its origin:
//!   a circulated token arrives from the live predecessor, never from
//!   the dead origin itself.
//! * **Lone-survivor abort misflagged** (triple seeds `0x3c`/`0x51`):
//!   shapes that kill all but one rank legitimately end with the
//!   survivor calling `MPI_Abort(comm, -1)` (paper Figs. 4/5); the
//!   ring-completion oracle treated any `Aborted(-1)` — and the
//!   resulting missing closure records — as violations. The oracle now
//!   accepts the abort exactly when every other rank fail-stopped.
//!
//! * **Zombie at `AfterValidate`** (fuzz campaigns 4, 5 and 6 at a
//!   400 budget; long filed as a lone-survivor `ring-completion` gap):
//!   `Process::poll_validates` discarded the hook's `SelfFailed`, so a
//!   rank killed while consuming the validate decision was dead to
//!   every peer and still ran its body to `Ok`. With two more kills
//!   the one live rank correctly found itself alone and aborted
//!   (Fig. 5), and the oracle, counting the zombie as a survivor,
//!   reported the abort. Fixed in the runtime: the hook's error
//!   propagates ([`AFTER_VALIDATE_SCHEDULES`]).
//!
//! As in `double_kill_seeds.rs` the pin is double: each seed must
//! replay green under its shape, and each seed's *pre-fix kill
//! schedule* — recorded verbatim below — must complete when applied
//! explicitly, so the regression survives any seed→schedule remap.
//! The seed-keyed half was re-derived when the scheduler stopped
//! drawing blocked ranks (same kill-sets, different grant order):
//! [`FAILED_RANKS`] pins which planned victims each seed still lands.

use dst::{
    check_all, fuzz, run_schedule, run_seed, sweep, FuzzCfg, Kill, KillShape, ScenarioCfg, Schedule,
    SweepCfg,
};
use faultsim::HookKind::{AfterRecvComplete, AfterSend, Tick};

/// Failing seeds found by per-shape sweeps of `0..100_000`, each with
/// the rank count it failed at and the kill schedule its seed derived
/// when the defect was found.
const SHAPE_SEEDS: [(KillShape, usize, u64, [Kill; 3]); 5] = [
    (
        // Hang: mid-forward takeover double-counted `cur`.
        KillShape::RootChain,
        4,
        0x1d1,
        [
            Kill { victim: 0, hook: Tick, occurrence: 10 },
            Kill { victim: 1, hook: AfterSend, occurrence: 8 },
            Kill { victim: 2, hook: Tick, occurrence: 10 },
        ],
    ),
    (
        // InvalidState: dual-slot consumption reorder on a shrunk ring.
        KillShape::Cascade,
        4,
        0xf5a,
        [
            Kill { victim: 0, hook: AfterSend, occurrence: 2 },
            Kill { victim: 1, hook: Tick, occurrence: 5 },
            Kill { victim: 2, hook: Tick, occurrence: 9 },
        ],
    ),
    (
        // Lone survivor (rank 3) aborts with -1 per Figs. 4/5.
        KillShape::Triple,
        4,
        0x3c,
        [
            Kill { victim: 0, hook: AfterRecvComplete, occurrence: 1 },
            Kill { victim: 1, hook: Tick, occurrence: 12 },
            Kill { victim: 2, hook: Tick, occurrence: 20 },
        ],
    ),
    (
        // Lone survivor (rank 0, the initial root) aborts with -1; the
        // oracle must not demand closure coverage from the cut-short
        // root.
        KillShape::Triple,
        4,
        0x51,
        [
            Kill { victim: 3, hook: Tick, occurrence: 4 },
            Kill { victim: 1, hook: AfterSend, occurrence: 1 },
            Kill { victim: 2, hook: AfterSend, occurrence: 2 },
        ],
    ),
    (
        // Hang via zero-hop takeover closure: the dying root's detector
        // resend reached its successor directly, was misread as the
        // dead root's lap coming home, and put two live tokens in the
        // ring; rank 6 then died holding the older one and rank 7 —
        // which never saw that lap — errored on the newer. Only
        // reachable at 8 ranks: the duplicate needs enough surviving
        // hops downstream for both tokens to be in flight at once.
        KillShape::Triple,
        8,
        0x18576,
        [
            Kill { victim: 1, hook: Tick, occurrence: 4 },
            Kill { victim: 0, hook: Tick, occurrence: 9 },
            Kill { victim: 6, hook: AfterRecvComplete, occurrence: 1 },
        ],
    ),
];

fn cfg_for(shape: KillShape, ranks: usize) -> ScenarioCfg {
    ScenarioCfg { shape, ranks, ..ScenarioCfg::default() }
}

/// The ranks each seed fail-stops under the current seed→interleaving
/// map, in `SHAPE_SEEDS` order. Root-chain `0x1d1` plans rank 1 at
/// `AfterSend#8`, which a three-lap ring never reaches; every other
/// planned kill lands.
const FAILED_RANKS: [&[usize]; 5] = [&[0, 2], &[0, 1, 2], &[0, 1, 2], &[1, 2, 3], &[0, 1, 6]];

/// Every formerly-failing seed replays green under its shape: no
/// deadlock, no budget exhaustion, no oracle violation, and the kills
/// that make it the schedule it is are delivered.
#[test]
fn formerly_failing_shape_seeds_replay_green() {
    for ((shape, ranks, seed, _), failed) in SHAPE_SEEDS.into_iter().zip(FAILED_RANKS) {
        let obs = run_seed(seed, &cfg_for(shape, ranks));
        assert!(!obs.hung, "shape {shape} seed {seed:#x} still hangs");
        assert!(obs.deadlock_at.is_none(), "shape {shape} seed {seed:#x} deadlocked");
        assert!(
            !obs.budget_exhausted,
            "shape {shape} seed {seed:#x} exhausted its step budget"
        );
        let died: Vec<usize> =
            (0..ranks).filter(|&r| obs.outcomes[r].is_failed()).collect();
        assert_eq!(died, failed, "shape {shape} seed {seed:#x} lands different kills");
        let violations = check_all(&obs);
        assert!(
            violations.is_empty(),
            "shape {shape} seed {seed:#x} violates oracles: {violations:?}"
        );
    }
}

/// Fuzz-found schedules (4 ranks, 3 laps) whose first kill lands at
/// `AfterValidate`, in the one-line text form `dst fuzz` prints, each
/// with the rank that kill used to leave running.
const AFTER_VALIDATE_SCHEDULES: [(&str, usize); 3] = [
    ("seed=0x21b7435904011cc2 kills=[3:AfterValidate:1,2:BeforeValidate:1,0:AfterRecvComplete:2]", 3),
    ("seed=0xc82d7c169c0f8319 kills=[3:AfterValidate:1,0:Tick:3,1:Tick:7]", 3),
    ("seed=0xb7b1ea334ea6a25c kills=[2:AfterValidate:1,1:Tick:7,3:AfterSend:1]", 2),
];

/// A rank killed at `AfterValidate` ends `Failed`, never `Ok`, and the
/// schedules that used to report a lone survivor's abort are green.
#[test]
fn a_kill_at_after_validate_leaves_no_zombie() {
    for (text, victim) in AFTER_VALIDATE_SCHEDULES {
        let schedule: Schedule = text.parse().expect("pinned schedule text parses");
        assert_eq!(schedule.to_string(), text);
        let obs = run_schedule(&schedule, &ScenarioCfg::default());
        assert!(obs.outcomes[victim].is_failed(), "{text}: {:?}", obs.outcomes);
        let violations = check_all(&obs);
        assert!(violations.is_empty(), "{text}: {violations:?} with {:?}", obs.outcomes);
    }
}

/// The derived schedules still match the recorded pre-fix kill-sets.
/// If this fails, the shape's seed→schedule mapping moved and the
/// seeds above now name different, likely-benign schedules — the
/// explicit replays below are then the only live pin.
#[test]
fn shape_derivation_still_names_the_recorded_schedules() {
    for (shape, ranks, seed, kills) in SHAPE_SEEDS {
        let derived = Schedule::from_seed(seed, &cfg_for(shape, ranks));
        assert_eq!(
            derived.kills, kills,
            "shape {shape} seed {seed:#x} now derives a different kill schedule"
        );
    }
}

/// The pre-fix kill schedules complete when applied *explicitly*:
/// whatever the seeds mean later, these exact triple-kill
/// interleavings are what used to hang, error, or misflag.
#[test]
fn recorded_shape_schedules_complete_when_applied_explicitly() {
    for (shape, ranks, seed, kills) in SHAPE_SEEDS {
        let schedule = Schedule { seed, kills: kills.to_vec(), delay_mask: None };
        let obs = run_schedule(&schedule, &cfg_for(shape, ranks));
        assert!(
            !obs.hung,
            "explicit schedule of shape {shape} seed {seed:#x} still hangs: {kills:?}"
        );
        let violations = check_all(&obs);
        assert!(
            violations.is_empty(),
            "explicit schedule of shape {shape} seed {seed:#x} violates oracles: {violations:?}"
        );
    }
}

/// The smallest world the CLI accepts. Kill derivation draws victims
/// from `ranks - 1` buckets, so at two ranks every shape degenerates to
/// at most one victim and the lone survivor's Fig. 4/5 abort: all seven
/// shapes under `explore`, and a `fuzz` campaign, stay green there.
#[test]
fn two_ranks_are_green_under_every_shape_and_under_fuzz() {
    let sweep_cfg = SweepCfg { count: 200, ..SweepCfg::default() };
    for shape in KillShape::ALL {
        let report = sweep(&sweep_cfg, &cfg_for(shape, 2)).unwrap();
        assert_eq!(
            (report.green, report.hung),
            (200, 0),
            "shape {shape} at 2 ranks: {:?}",
            report.failures
        );
    }
    let fuzz_cfg = FuzzCfg { budget: 400, ..FuzzCfg::default() };
    let report = fuzz(&fuzz_cfg, &cfg_for(KillShape::Pair, 2)).unwrap();
    assert_eq!((report.green, report.hung), (400, 0), "fuzz at 2 ranks: {:?}", report.failures);
}
