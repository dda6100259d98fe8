//! 1-D heat diffusion with fault-tolerant neighbour exchange.
//!
//! The paper motivates ABFT with domains like heat-transfer codes
//! (§IV, citing Ltaief et al.). This application exercises the same
//! neighbour-based communication pattern as the ring, on a physical
//! workload: a 1-D rod split across ranks, Jacobi iterations with halo
//! exchange, and *natural fault tolerance* semantics on failure — the
//! dead rank's sub-domain is abandoned and the surviving ranks re-knit
//! the rod around it (an approximate answer instead of a lost job,
//! §IV's "natural fault tolerance").

use ftmpi::{Comm, Error, Process, RankState, Result, Src, Tag};

use crate::neighbors::{to_left_of, to_right_of};

const HEAT_TAG: Tag = 11;

/// Diffusion coefficient (`alpha * dt / dx^2`), stable for < 0.5.
const NU: f64 = 0.25;

/// Fixed temperatures at the rod's ends, `[LEFT, RIGHT]`.
const BOUNDARY: [f64; 2] = [1.0, 0.0];

/// Configuration of a heat-diffusion run.
#[derive(Debug, Clone)]
pub struct HeatConfig {
    /// Cells per rank.
    pub cells_per_rank: usize,
    /// Jacobi steps.
    pub steps: u64,
}

/// Per-rank result.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatResult {
    /// Final temperatures of this rank's cells.
    pub cells: Vec<f64>,
    /// Steps actually computed.
    pub steps: u64,
    /// Halo exchanges that fell back to an insulated boundary because
    /// the neighbour had failed.
    pub halo_fallbacks: u64,
    /// Neighbour re-selections performed.
    pub neighbor_switches: u64,
}

/// The two sides of a rank, as indices into its per-side state.
const LEFT: usize = 0;
const RIGHT: usize = 1;

/// Whether no alive rank remains on one side of `me`: this rank holds
/// that end of the rod.
fn at_end(p: &Process, comm: Comm, me: usize, side: usize) -> Result<bool> {
    let beyond = if side == LEFT { 0..me } else { me + 1..p.comm_size(comm)? };
    for r in beyond {
        if p.comm_validate_rank(comm, r)?.state == RankState::Ok {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Re-knit one side around a failed neighbour: the next alive rank
/// past it (the Fig. 4 walk), or `None` when nobody is left there.
fn heal(p: &Process, comm: Comm, failed: usize, side: usize) -> Option<usize> {
    let walk = if side == LEFT { to_left_of } else { to_right_of };
    walk(p, comm, failed).ok()
}

/// Sentinel step marking "this partner finished its run".
const STEP_DONE: u64 = u64::MAX;

/// Outcome of one halo receive.
enum Halo {
    /// A halo value from the current partner. After a heal the step
    /// labels of the two sides can be offset by a step or two; each
    /// side consumes exactly one message per step, so the pairing
    /// stays live and the transient value skew is part of the
    /// documented approximate-answer semantics.
    Value(f64),
    /// The partner failed: boundary this step, and the re-knit
    /// neighbour for the next one if anybody is left on that side.
    Fallback(Option<usize>),
    /// The partner completed all of its steps: this side is a boundary
    /// for the rest of the run.
    PartnerDone,
}

/// Receive one halo value from the neighbour on one side, tolerating
/// its failure.
fn halo_recv(p: &mut Process, comm: Comm, neighbor: usize, side: usize) -> Result<Halo> {
    match p.recv::<(u64, f64)>(comm, Src::Rank(neighbor), HEAT_TAG) {
        Ok(((STEP_DONE, _), _)) => Ok(Halo::PartnerDone),
        Ok(((_, v), _)) => Ok(Halo::Value(v)),
        // Neighbour failed (or a PROC_NULL blank decoded): re-knit
        // around it. The new neighbour did not send to us this step (it
        // was paired with the dead rank), so this step degrades to an
        // insulated boundary.
        Err(Error::RankFailStop { .. }) | Err(Error::TypeMismatch) => {
            Ok(Halo::Fallback(heal(p, comm, neighbor, side)))
        }
        Err(e) => Err(e),
    }
}

/// Run the diffusion on this rank.
pub fn run_heat(p: &mut Process, comm: Comm, cfg: &HeatConfig) -> Result<HeatResult> {
    p.set_errhandler(comm, ftmpi::ErrorHandler::ErrorsReturn)?;
    let me = p.comm_rank(comm)?;
    let size = p.comm_size(comm)?;
    let n = cfg.cells_per_rank;
    assert!(n >= 2, "need at least two cells per rank");

    // Initial condition: linear ramp across the global rod.
    let global = (size * n) as f64;
    let mut cells: Vec<f64> = (0..n)
        .map(|i| {
            let x = (me * n + i) as f64 / (global - 1.0);
            BOUNDARY[LEFT] + (BOUNDARY[RIGHT] - BOUNDARY[LEFT]) * x
        })
        .collect();

    // Current partner on each side, `[LEFT, RIGHT]`.
    let mut partner = [me.checked_sub(1), Some(me + 1).filter(|&r| r < size)];
    let mut fallbacks = 0u64;
    let mut switches = 0u64;

    for step in 0..cfg.steps {
        // Send halos to both sides, healing the pairing on the send
        // path: if a neighbour died, walk to the next alive rank and
        // send to it instead — otherwise the new partner would block
        // waiting for a halo that went to the dead rank.
        let edge = [cells[0], cells[n - 1]];
        for side in [LEFT, RIGHT] {
            while let Some(nb) = partner[side] {
                match p.send(comm, nb, HEAT_TAG, &(step, edge[side])) {
                    Ok(()) => break,
                    Err(Error::RankFailStop { .. }) => {
                        partner[side] = heal(p, comm, nb, side);
                        switches += partner[side].is_some() as u64;
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        // Receive halos, degrading to boundary conditions on failure
        // or when the partner has completed its run.
        let mut halo = [None; 2];
        for side in [LEFT, RIGHT] {
            let Some(nb) = partner[side] else { continue };
            if at_end(p, comm, me, side)? {
                partner[side] = None;
                continue;
            }
            match halo_recv(p, comm, nb, side)? {
                Halo::Value(v) => halo[side] = Some(v),
                Halo::Fallback(healed) => {
                    fallbacks += 1;
                    // Alone on this side: the send path drops the dead
                    // partner next step.
                    if healed.is_some() {
                        partner[side] = healed;
                        switches += 1;
                    }
                }
                Halo::PartnerDone => {
                    partner[side] = None;
                    fallbacks += 1;
                }
            }
        }

        // Jacobi update. Missing halos become fixed boundaries (global
        // ends) — or reflective walls where a neighbour died.
        let lh = halo[LEFT].unwrap_or(if me == 0 { BOUNDARY[LEFT] } else { cells[0] });
        let rh = halo[RIGHT].unwrap_or(if me + 1 == size { BOUNDARY[RIGHT] } else { cells[n - 1] });
        let mut next = cells.clone();
        for i in 0..n {
            let l = if i == 0 { lh } else { cells[i - 1] };
            let r = if i == n - 1 { rh } else { cells[i + 1] };
            next[i] = cells[i] + NU * (l - 2.0 * cells[i] + r);
        }
        cells = next;
    }

    // Tell every other rank we are done, so a rank that heals onto us
    // late (and would otherwise wait for halos we will never send)
    // degrades its side to a boundary instead of hanging. Not only the
    // current partners: one may die before it reads this, and the rank
    // past it then re-knits onto us.
    for nb in (0..size).filter(|&r| r != me) {
        match p.send(comm, nb, HEAT_TAG, &(STEP_DONE, 0.0f64)) {
            Ok(()) | Err(Error::RankFailStop { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    Ok(HeatResult { cells, steps: cfg.steps, halo_fallbacks: fallbacks, neighbor_switches: switches })
}

/// Serial reference for the failure-free case: the same scheme on one
/// array.
pub fn serial_reference(ranks: usize, cfg: &HeatConfig) -> Vec<f64> {
    let n = ranks * cfg.cells_per_rank;
    let mut cells: Vec<f64> = (0..n)
        .map(|i| {
            let x = i as f64 / (n as f64 - 1.0);
            BOUNDARY[LEFT] + (BOUNDARY[RIGHT] - BOUNDARY[LEFT]) * x
        })
        .collect();
    for _ in 0..cfg.steps {
        let mut next = cells.clone();
        for i in 0..n {
            let l = if i == 0 { BOUNDARY[LEFT] } else { cells[i - 1] };
            let r = if i == n - 1 { BOUNDARY[RIGHT] } else { cells[i + 1] };
            next[i] = cells[i] + NU * (l - 2.0 * cells[i] + r);
        }
        cells = next;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use dst::refereed;
    use faultsim::{FaultPlan, HookKind};
    use ftmpi::WORLD;

    #[test]
    fn failure_free_matches_serial_reference() {
        let cfg = HeatConfig { cells_per_rank: 8, steps: 50 };
        let ranks = 4;
        let reference = serial_reference(ranks, &cfg);
        refereed(ranks, FaultPlan::none(), |p| run_heat(p, WORLD, &cfg), |at, report| {
            assert!(report.all_ok(), "{at}");
            for (rank, o) in report.outcomes.iter().enumerate() {
                let r = o.as_ok().unwrap();
                for (i, &v) in r.cells.iter().enumerate() {
                    let expected = reference[rank * cfg.cells_per_rank + i];
                    assert!(
                        (v - expected).abs() < 1e-9,
                        "{at}: rank {rank} cell {i}: {v} vs {expected}"
                    );
                }
            }
        });
    }

    #[test]
    fn survivors_run_through_a_mid_run_failure() {
        let cfg = HeatConfig { cells_per_rank: 8, steps: 60 };
        // Rank 1 dies after its 10th halo receive.
        let plan = FaultPlan::none().kill_at(1, HookKind::AfterRecvComplete, 10);
        refereed(4, plan, |p| run_heat(p, WORLD, &cfg), |at, report| {
            for r in [0usize, 2, 3] {
                let res = report.outcomes[r].as_ok().unwrap_or_else(|| {
                    panic!("{at}: rank {r} did not survive: {:?}", report.outcomes[r])
                });
                assert_eq!(res.steps, 60, "{at}");
                assert!(res.cells.iter().all(|v| v.is_finite()), "{at}");
            }
            // Someone adjacent to rank 1 must have re-knit the rod.
            let switches: u64 = [0usize, 2, 3]
                .iter()
                .filter_map(|&r| report.outcomes[r].as_ok())
                .map(|res| res.neighbor_switches)
                .sum();
            assert!(switches >= 1, "{at}: no survivor re-knit around the failure");
        });
    }

    #[test]
    fn single_rank_runs_standalone() {
        let cfg = HeatConfig { cells_per_rank: 16, steps: 20 };
        refereed(1, FaultPlan::none(), |p| run_heat(p, WORLD, &cfg), |at, report| {
            assert!(report.all_ok(), "{at}");
        });
    }
}
