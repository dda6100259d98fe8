//! Concurrent-universe isolation: the property the `dst` parallel
//! seed-sweep engine rests on. Every piece of runtime state — fabric,
//! failure registry, fault injector, coordination boards, trace — is
//! owned by one universe's `Shared`, never process-global, and the
//! simulation scheduler a simulated universe and its trace clock read
//! sits in a per-thread slot, so many universes running at once behave
//! exactly like the same universes run one after another.

use std::time::Duration;

use faultsim::{ChoiceKind, FaultPlan, HookKind, SchedHook, SchedPoint, StepOutcome};
use ftmpi::{run, Process, RankOutcome, Src, UniverseConfig, WORLD};

fn wd() -> Duration {
    Duration::from_secs(60)
}

/// One ring exchange with both neighbours. The kill point the callers
/// plan makes the outcome timing-independent: the victim dies only once
/// its receive completed, which is strictly after every send naming it
/// (its own send precedes its wait in program order, and delivery is
/// synchronous), so no rank ever addresses a dead peer and everyone
/// else completes the round.
fn exchange(p: &mut Process) -> ftmpi::Result<usize> {
    let (me, n) = (p.comm_rank(WORLD)?, p.world_size());
    let (right, left) = ((me + 1) % n, (me + n - 1) % n);
    let (v, _): (usize, _) = p.sendrecv(WORLD, right, 7, &me, Src::Rank(left), 7)?;
    Ok(v)
}

/// One small universe: a ring token pass with rank `victim` killed
/// after its first receive completes. Returns (per-rank ok flags,
/// killed events in the trace).
fn ring_universe(n: usize, victim: usize) -> (Vec<bool>, Vec<usize>) {
    let plan = FaultPlan::none().kill_at(victim, HookKind::AfterRecvComplete, 1);
    let cfg = UniverseConfig::with_plan(plan).traced().watchdog(wd());
    let report = run(n, cfg, exchange);
    let oks = report.outcomes.iter().map(|o| o.is_ok()).collect();
    let killed = report
        .trace
        .iter()
        .filter_map(|te| match te.event {
            ftmpi::Event::Killed { rank } => Some(rank),
            _ => None,
        })
        .collect();
    (oks, killed)
}

/// Run the same set of distinct universes serially and concurrently;
/// each must observe only its own failure and reach the same outcome.
#[test]
fn concurrent_universes_match_their_serial_runs() {
    let n = 4;
    let victims: Vec<usize> = vec![0, 1, 2, 3, 1, 2];

    let serial: Vec<_> = victims.iter().map(|&v| ring_universe(n, v)).collect();

    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = victims
            .iter()
            .map(|&v| scope.spawn(move || ring_universe(n, v)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (s, c)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(s, c, "universe {i} (victim {}) diverged under concurrency", victims[i]);
        // Isolation: each trace contains exactly this universe's kill,
        // never a neighbor's.
        assert_eq!(c.1, vec![victims[i]], "universe {i} saw foreign kill events");
    }
}

/// Fault injectors are per-universe: two concurrent universes with
/// different plans never leak kills into each other, and a plan-free
/// universe stays entirely green while a faulty one runs next to it.
#[test]
fn injector_state_does_not_leak_between_universes() {
    std::thread::scope(|scope| {
        let faulty = scope.spawn(|| {
            let plan = FaultPlan::none().kill_at(1, HookKind::AfterRecvComplete, 1);
            let report = run(3, UniverseConfig::with_plan(plan).watchdog(wd()), |p| {
                let me = p.comm_rank(WORLD)?;
                let n = 3;
                let (v, _): (usize, _) =
                    p.sendrecv(WORLD, (me + 1) % n, 1, &me, Src::Rank((me + n - 1) % n), 1)?;
                Ok(v)
            });
            assert!(matches!(report.outcomes[1], RankOutcome::Failed));
        });
        let clean = scope.spawn(|| {
            for _ in 0..3 {
                let report = run(3, UniverseConfig::default(), |p| {
                    let me = p.comm_rank(WORLD)?;
                    let n = 3;
                    let (v, _): (usize, _) =
                        p.sendrecv(WORLD, (me + 1) % n, 1, &me, Src::Rank((me + n - 1) % n), 1)?;
                    Ok(v)
                });
                assert!(report.all_ok(), "plan-free universe caught a foreign fault");
            }
        });
        faulty.join().unwrap();
        clean.join().unwrap();
    });
}

/// A seeded scheduler: grants a random enabled rank, answers every
/// choice at random, and its step count is the trace's clock.
struct Seeded {
    state: u64,
    waiting: Vec<usize>,
    blocked: Vec<usize>,
    steps: u64,
}

impl Seeded {
    fn new(seed: u64) -> Self {
        Seeded { state: seed, waiting: Vec::new(), blocked: Vec::new(), steps: 0 }
    }

    /// A splitmix64 draw in `0..n`.
    fn draw(&mut self, n: usize) -> usize {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

impl SchedHook for Seeded {
    fn arrive(&mut self, rank: usize, point: SchedPoint) {
        match point {
            SchedPoint::Blocked => self.blocked.push(rank),
            _ => self.waiting.push(rank),
        }
    }
    fn next(&mut self) -> Option<(usize, StepOutcome)> {
        assert!(
            !self.waiting.is_empty() || self.blocked.is_empty(),
            "deadlock: ranks {:?} all blocked",
            self.blocked
        );
        if self.waiting.is_empty() {
            return None;
        }
        self.steps += 1;
        let pick = self.draw(self.waiting.len());
        Some((self.waiting.swap_remove(pick), StepOutcome::Run))
    }
    fn wake(&mut self, rank: usize) {
        if let Some(i) = self.blocked.iter().position(|&r| r == rank) {
            self.waiting.push(self.blocked.swap_remove(i));
        }
    }
    fn wake_all(&mut self) {
        self.waiting.append(&mut self.blocked);
    }
    fn choose(&mut self, _rank: usize, _kind: ChoiceKind, n: usize) -> usize {
        self.draw(n)
    }
    fn on_exit(&mut self, _rank: usize) {}
    fn now(&mut self) -> u64 {
        self.steps
    }
}

/// `exchange` on `n` ranks under a scheduler seeded with `seed`, rank
/// `victim` killed after its first receive: the outcomes, and the
/// trace with its logical timestamps, as text.
fn simulated_universe(n: usize, victim: usize, seed: u64) -> (Vec<RankOutcome<usize>>, String) {
    let plan = FaultPlan::none().kill_at(victim, HookKind::AfterRecvComplete, 1);
    let mut sched = Seeded::new(seed);
    let report = run(n, UniverseConfig::with_plan(plan).traced().sim(&mut sched), exchange);
    assert!(sched.steps > 0, "the scheduler lent to the run drove it");
    (report.outcomes, format!("{:?}", report.trace))
}

/// Simulated universes on several threads at once, each driven by its
/// own scheduler, reach the outcomes and byte-identical traces of their
/// serial runs: each thread's ranks and trace read that thread's
/// scheduler only.
#[test]
fn concurrent_simulated_universes_match_their_serial_runs() {
    let n = 4;
    let runs: Vec<(usize, u64)> = (0..6).map(|i| (i % n, 0x5eed + i as u64)).collect();
    let serial: Vec<_> = runs.iter().map(|&(v, seed)| simulated_universe(n, v, seed)).collect();
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|&(v, seed)| scope.spawn(move || simulated_universe(n, v, seed)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (s, c)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(s, c, "simulated universe {i} diverged under concurrency");
        assert!(s.0[runs[i].0].is_failed(), "universe {i}: the victim did not fail");
    }
    assert!(serial.windows(2).any(|w| w[0].1 != w[1].1), "the seeds all traced alike");
}
