//! The calibrated clock.
//!
//! The sandbox this benchmark runs in drifts between regimes that last
//! from tens of seconds to tens of minutes: within one session the same
//! binary ran `explore_pair_4` at 400, 600 and 740 µs per schedule, the
//! 4-rank ring at 11, 17 and 18 µs per lap, fan-in at 1.1, 1.8 and
//! 1.9 µs per message. A loop that stays in registers does not move
//! (±2%), so it is not the clock; a throughput-bound loop over an
//! L1-resident array moves the most (x1.9), a park/unpark round trip
//! between two threads about as much as the workloads — what a busy SMT
//! sibling on the host would do. No window length or percentile choice
//! inside a run removes a drift that outlasts the run (ten consecutive
//! 8 s runs per workload: interquartile range ÷ median of the
//! wall-clock rate 11–22%, where the gate is meant to tell 10%), so
//! every duration is instead taken with a [`Stopwatch`] that runs a
//! probe right before and right after the timed region and reports
//!
//! ```text
//! calibrated = raw ÷ slowdown^sensitivity
//! slowdown   = (handoff ÷ 2.05 µs)^0.7 x (loop ÷ 1.58 ns)^0.3
//! ```
//!
//! i.e. the time the region would have taken with the sandbox in its
//! fast regime, where the handoff round trip costs 2.05 µs and one loop
//! iteration 1.58 ns. The weights come from a log-log regression of
//! four workload kinds on the two probes over a 25-minute recording
//! that covered two regimes (a memory walk, an allocator churn and a
//! memcpy loop were tried as probes too and did not help); the
//! sensitivity says how strongly the work being timed follows the
//! probes, see [`HANDOFF_BOUND`]. On the same ten runs the calibrated
//! rate spread 2–6%.
//!
//! What the clock does not see is the host taking the vCPU away
//! (`steal` in `/proc/stat`, 0–7% here): that lengthens a share of the
//! batches, so it moves p90 (by up to 19% on `ring_ft_4`, whose batches
//! are otherwise within 7% of each other) and the rate (by the stolen
//! share) while p50 stays put. README, "The calibrated clock", has the
//! recordings.
//!
//! The probe is the benchmark's own code, so no change to the
//! repository moves it. Wall-clock figures and the probe readings are
//! printed beside the calibrated ones.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

/// The sandbox's fast regime: µs per handoff round trip, ns per loop
/// iteration, and how much each weighs in the slowdown.
const REF_HANDOFF_US: f64 = 2.05;
const REF_LOOP_NS: f64 = 1.58;
const HANDOFF_WEIGHT: f64 = 0.7;
const LOOP_WEIGHT: f64 = 0.3;

/// How strongly a kind of work follows the probes: its time grows as
/// `slowdown^sensitivity`. Work that waits on thread handoffs (the
/// explore and fuzz schedules, the pad-0 rings, fan-in) follows them
/// fully: regressed on the slowdown over a 28-minute recording that
/// crossed regimes (x1.0–1.7), the calibrated p50 of those six
/// workloads had slopes within ±0.1 of zero. The 16 KiB ring spends its
/// laps in byte-at-a-time encode and decode loops, which a busy sibling
/// slows less: divided by the full slowdown its p50 fell from 565 to
/// 505 µs as the slowdown rose from 1.03 to 1.55 (slope −0.28; −0.37 in
/// a second recording).
pub const HANDOFF_BOUND: f64 = 1.0;
pub const BYTES_BOUND: f64 = 0.7;

/// Round trips per probe (after [`WARM`] untimed ones), ≈0.15 ms, and
/// loop iterations per probe, ≈0.05 ms.
const ROUNDS: u32 = 64;
const WARM: u32 = 4;
const LOOP_ITERS: usize = 32 * 1024;

/// Name of the echo thread; `procfs::sample` counts its context
/// switches apart from the workload's.
pub const ECHO_THREAD: &str = "calib-echo";

struct Shared {
    /// Even: the prober's turn. Odd: the echo thread's.
    turn: AtomicU64,
    stop: AtomicBool,
    /// Who to wake when the turn comes back.
    prober: Mutex<Option<Thread>>,
}

pub struct Calibrator {
    shared: Arc<Shared>,
    echo: Option<JoinHandle<()>>,
    /// One probe at a time.
    probing: Mutex<()>,
}

impl Calibrator {
    pub fn start() -> Self {
        let shared = Arc::new(Shared {
            turn: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            prober: Mutex::new(None),
        });
        let theirs = Arc::clone(&shared);
        let echo = std::thread::Builder::new()
            .name(ECHO_THREAD.into())
            .spawn(move || loop {
                while theirs.turn.load(Ordering::SeqCst).is_multiple_of(2) {
                    if theirs.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::park();
                }
                let prober = theirs.prober.lock().expect("prober handle lock").clone();
                theirs.turn.fetch_add(1, Ordering::SeqCst);
                if let Some(t) = prober {
                    t.unpark();
                }
            })
            .expect("spawn calibration thread");
        Calibrator {
            shared,
            echo: Some(echo),
            probing: Mutex::new(()),
        }
    }

    /// How much slower than its fast regime the sandbox is right now.
    pub fn probe(&self) -> Probe {
        let _one = self.probing.lock().expect("probe lock");
        Probe {
            handoff_us: self.handoff_us(),
            loop_ns: loop_ns(),
        }
    }

    /// µs per park/unpark round trip with the echo thread.
    fn handoff_us(&self) -> f64 {
        *self.shared.prober.lock().expect("prober handle lock") = Some(std::thread::current());
        let echo = self
            .echo
            .as_ref()
            .expect("echo thread runs until drop")
            .thread();
        let mut start = Instant::now();
        for round in 0..WARM + ROUNDS {
            if round == WARM {
                start = Instant::now();
            }
            self.shared.turn.fetch_add(1, Ordering::SeqCst);
            echo.unpark();
            while !self.shared.turn.load(Ordering::SeqCst).is_multiple_of(2) {
                std::thread::park();
            }
        }
        start.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS)
    }

    /// The clock for work of the given sensitivity.
    pub fn clock(&self, sensitivity: f64) -> Clock<'_> {
        Clock {
            cal: self,
            sensitivity,
        }
    }
}

/// A calibrator plus the sensitivity of the work it is about to time.
#[derive(Clone, Copy)]
pub struct Clock<'a> {
    cal: &'a Calibrator,
    sensitivity: f64,
}

impl<'a> Clock<'a> {
    /// Probe, then start timing.
    pub fn stopwatch(self) -> Stopwatch<'a> {
        let before = self.cal.probe();
        Stopwatch {
            clock: self,
            before,
            start: Instant::now(),
        }
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.echo.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

pub struct Stopwatch<'a> {
    clock: Clock<'a>,
    before: Probe,
    start: Instant,
}

/// ns per iteration of a throughput-bound loop: four independent
/// chains of multiplies, adds and rotates over a 16 KiB array, with a
/// data-dependent branch. It keeps the execution ports and the L1 busy,
/// which is what a busy sibling hardware thread takes away.
fn loop_ns() -> f64 {
    let mut buf = [1u64; 2048];
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let start = Instant::now();
    for i in 0..LOOP_ITERS {
        let k = i & 2047;
        a = a.wrapping_mul(3).wrapping_add(buf[k]);
        b = b.wrapping_add(a ^ 7);
        c = c.rotate_left(5) ^ buf[(k * 7) & 2047];
        d = d.wrapping_add(c | 1);
        buf[(k * 13) & 2047] = a ^ d;
        if b & 64 == 0 {
            c = c.wrapping_add(1);
        }
    }
    black_box((a, b, c, d, &buf));
    start.elapsed().as_secs_f64() * 1e9 / LOOP_ITERS as f64
}

/// One probe reading.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub handoff_us: f64,
    pub loop_ns: f64,
}

impl Probe {
    pub fn slowdown(&self) -> f64 {
        (self.handoff_us / REF_HANDOFF_US).powf(HANDOFF_WEIGHT)
            * (self.loop_ns / REF_LOOP_NS).powf(LOOP_WEIGHT)
    }

    fn mean(a: Probe, b: Probe) -> Probe {
        Probe {
            handoff_us: (a.handoff_us + b.handoff_us) / 2.0,
            loop_ns: (a.loop_ns + b.loop_ns) / 2.0,
        }
    }
}

/// One timed region.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock µs.
    pub raw_us: f64,
    /// Mean of the probes around the region.
    pub probe: Probe,
    /// Of the work in the region; see [`HANDOFF_BOUND`].
    pub sensitivity: f64,
}

impl Timed {
    /// µs on the calibrated clock.
    pub fn us(&self) -> f64 {
        self.raw_us / self.probe.slowdown().powf(self.sensitivity)
    }
}

impl Stopwatch<'_> {
    /// Stop timing, then probe again.
    pub fn stop(self) -> Timed {
        let raw_us = self.start.elapsed().as_secs_f64() * 1e6;
        let after = self.clock.cal.probe();
        Timed {
            raw_us,
            probe: Probe::mean(self.before, after),
            sensitivity: self.clock.sensitivity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_divides_by_the_weighted_slowdown() {
        let fast = Probe {
            handoff_us: REF_HANDOFF_US,
            loop_ns: REF_LOOP_NS,
        };
        assert!((fast.slowdown() - 1.0).abs() < 1e-12);
        // Both probes twice as slow: everything counts as twice as slow.
        let twice = Probe {
            handoff_us: 2.0 * REF_HANDOFF_US,
            loop_ns: 2.0 * REF_LOOP_NS,
        };
        assert!((twice.slowdown() - 2.0).abs() < 1e-12);
        let timed = |sensitivity| Timed {
            raw_us: 600.0,
            probe: twice,
            sensitivity,
        };
        assert!((timed(1.0).us() - 300.0).abs() < 1e-9);
        // Work half as sensitive as the probes was slowed by sqrt(2).
        assert!((timed(0.5).us() - 600.0 / 2f64.sqrt()).abs() < 1e-9);
        // Only the handoff slower: its weight decides.
        let handoff = Probe {
            handoff_us: 2.0 * REF_HANDOFF_US,
            loop_ns: REF_LOOP_NS,
        };
        assert!((handoff.slowdown() - 2f64.powf(HANDOFF_WEIGHT)).abs() < 1e-12);
        let m = Probe::mean(fast, twice);
        assert!((m.handoff_us - 1.5 * REF_HANDOFF_US).abs() < 1e-12);
    }

    #[test]
    fn probe_round_trips_and_the_echo_thread_stops_on_drop() {
        let cal = Calibrator::start();
        let a = cal.probe();
        let sw = cal.clock(HANDOFF_BOUND).stopwatch();
        black_box((0..1000u64).sum::<u64>());
        let t = sw.stop();
        assert!(a.handoff_us > 0.0 && a.loop_ns > 0.0 && a.slowdown().is_finite());
        assert!(t.raw_us >= 0.0 && t.us().is_finite() && t.us() > 0.0);
        // Probing from another thread works too (rank bodies do).
        std::thread::scope(|s| {
            s.spawn(|| assert!(cal.probe().slowdown() > 0.0));
        });
        drop(cal); // joins; a hang here fails the test by timeout
    }
}
