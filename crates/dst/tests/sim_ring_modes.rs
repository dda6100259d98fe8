//! Every ring mode under the deterministic scheduler.
//!
//! `dst explore` / `fuzz` only ever run two `RingConfig`s
//! (`ScenarioCfg::ring_config`: `with_root_failover` and `no_dedup`), so
//! the golden decision logs referee Fig. 13 termination and marker
//! dedup on `T_N` alone. Fig. 11's root broadcast, the §III-C double
//! `ibarrier` and the `T_R` resend tag were only ever run against the
//! wall clock. This file runs the ring (`dst::figures::ring`, the body
//! every simulated ring run shares) in five modes on a simulated
//! universe — 2, 4 and 8 ranks, seeds `0..64`, one protocol-point kill
//! on every third seed, the root spared unless failover is on — and
//! pins what a change to the token machine must not move:
//!
//! * no schedule ends in a deadlock or budget verdict, every planned
//!   kill fires, and a schedule run twice leaves a byte-identical
//!   decision log (`dst::referee`);
//! * every run passes the seven ring oracles (`dst::RingRun`): every
//!   rank the plan did not kill returns `Ok` and terminated having
//!   handled every lap once (at 2 ranks the survivor of a kill is
//!   alone, and the Fig. 4/5 rule ends it `Aborted { code: -1 }`), no
//!   marker is closed twice, and no closure counts more ranks than
//!   there are; and every survivor released every request it posted;
//! * how many two-rank survivors end alone is pinned per mode;
//! * the FNV-1a digest of every log and every rank's stats is pinned,
//!   per mode and rank count, so a moved digest names both.

use dst::figures::{ring, On};
use dst::{referee, Kills, RingRun, Workload};
use faultsim::{FaultPlan, FaultRule, HookKind, Trigger};
use ftmpi::{Process, RankOutcome};
use ftring::{DedupStrategy, RingConfig, RingStats, TerminationMode, T_N};

const SEEDS: std::ops::Range<u64> = 0..64;
const RANKS: [usize; 3] = [2, 4, 8];
const MAX_ITER: u64 = 3;

/// The ring in one mode, on the world.
struct Mode(RingConfig);

impl Workload for Mode {
    type Report = RingStats;

    fn body(&self, p: &mut Process) -> ftmpi::Result<RingStats> {
        ring(p, &self.0, On::World, 1)
    }

    /// Every third seed kills one rank at one protocol point of the
    /// ring: holding a token it just received, just after passing one
    /// on, about to post a `T_N` receive (the normal slot or the
    /// detector), or on some pass of one of its waits.
    fn kills(&self, seed: u64, ranks: usize) -> Kills {
        if !seed.is_multiple_of(3) {
            return Kills::Plan(FaultPlan::none());
        }
        let k = seed / 3;
        let victim = if self.0.allow_root_failure {
            k as usize % ranks
        } else {
            1 + k as usize % (ranks - 1)
        };
        let lap = 1 + k / 4 % MAX_ITER;
        let trigger = match k % 4 {
            0 => Trigger::on(HookKind::AfterRecvComplete).tag(T_N).nth(lap),
            1 => Trigger::on(HookKind::AfterSend).tag(T_N).nth(lap),
            2 => Trigger::on(HookKind::BeforeRecvPost).tag(T_N).nth(lap),
            _ => Trigger::on(HookKind::Tick).nth(1 + k / 4 % 5),
        };
        Kills::Plan(FaultPlan::none().with(FaultRule::kill(victim, trigger)))
    }
}

/// Sweep one mode over every rank count, judging every run by the ring
/// oracles. `alone` is how many of the 22 two-rank kills leave the
/// survivor still owing the ring a send or a watch (the rest land after
/// its last one); `digests` is indexed like [`RANKS`].
fn sweep(cfg: RingConfig, alone: usize, digests: [u64; 3]) {
    let (mode, mut aborted) = (Mode(cfg), 0);
    let got = RANKS.map(|ranks| {
        referee(&mode, &[ranks], SEEDS, |at, plan, report, _| {
            let violations = RingRun::of(&mode.0, plan, report).violations();
            assert!(violations.is_empty(), "{at}: {violations:?}");
            // Fig. 4/5: the neighbour walk came back to the caller.
            let alone = report.outcomes.iter().filter(|o| matches!(o, RankOutcome::Aborted { .. }));
            aborted += alone.count();
        })
        .0
    });
    assert_eq!(aborted, alone, "two-rank survivors that ended alone");
    assert_eq!(got, digests, "logs or stats moved at {RANKS:?} ranks: {got:#018x?}");
}

#[test]
fn paper() {
    let cfg = RingConfig::paper(MAX_ITER);
    sweep(cfg, 19, [0xd46a_3101_f5f4_4f8c, 0xc3a4_ae15_7946_2ca8, 0x4063_eabf_affd_32b2]);
}

#[test]
fn paper_separate_tag() {
    let cfg = RingConfig::paper(MAX_ITER).dedup(DedupStrategy::SeparateTag);
    sweep(cfg, 19, [0xd18a_3743_ff91_f985, 0xc37a_24a8_0f24_6667, 0xcb52_450b_c058_0c1d]);
}

#[test]
fn paper_double_barrier() {
    let cfg = RingConfig::paper(MAX_ITER).termination(TerminationMode::DoubleBarrier);
    sweep(cfg, 19, [0x82a0_bf41_4ac4_648a, 0x381e_6d0f_0e41_aaab, 0x3cea_b939_bb2a_dc31]);
}

#[test]
fn failover_double_barrier() {
    let cfg = RingConfig::with_root_failover(MAX_ITER).termination(TerminationMode::DoubleBarrier);
    sweep(cfg, 20, [0xaf3b_f489_3c81_4d5a, 0x2dce_780a_0478_a6f5, 0x3e23_36fb_cbd1_d19b]);
}

#[test]
fn failover_separate_tag() {
    let cfg = RingConfig::with_root_failover(MAX_ITER).dedup(DedupStrategy::SeparateTag);
    sweep(cfg, 20, [0x8cb9_839a_bfc4_3c2a, 0x9ebd_2d23_bf91_5fd0, 0x1827_0e84_b311_d32f]);
}
