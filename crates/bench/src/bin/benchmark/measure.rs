//! Sample arithmetic: medians and percentiles, the tail-percentile
//! rule, the two-point cost fit, and the closed-loop window that every
//! workload is measured with.

use std::time::{Duration, Instant};

use crate::calib::{Clock, Probe, Timed};
use crate::spans::Tracer;
use crate::workloads::Workload;

/// Nearest-rank percentile (`p` in 0..=1) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the two middle ones when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail percentiles a report may quote, in per mille, highest last.
const TAILS: [(usize, &str); 4] = [(500, "p50"), (900, "p90"), (990, "p99"), (999, "p99.9")];

/// The highest percentile that still has at least ten samples beyond
/// it — a tail quoted from fewer is one or two outliers, not a
/// percentile. Returns `(fraction, label)`; p50 when even p90 is too
/// thin.
pub fn tail_percentile(samples: usize) -> (f64, &'static str) {
    let mut best = TAILS[0];
    for t in TAILS {
        if samples * (1000 - t.0) >= 10 * 1000 {
            best = t;
        }
    }
    (best.0 as f64 / 1000.0, best.1)
}

/// Line through two measured points: `(intercept, slope)`.
///
/// Used to split a schedule's cost into a fixed term and a per-step
/// term from kill-free runs at two ring lengths.
pub fn two_point_fit(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    assert!(a.0 != b.0, "two-point fit needs distinct x");
    let slope = (b.1 - a.1) / (b.0 - a.0);
    (a.1 - slope * a.0, slope)
}

/// What one measurement window observed.
pub struct WindowResult {
    /// Operations attempted in the window.
    pub ops: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// Heap allocations `RunStats.alloc` attributed to those operations.
    pub allocs: u64,
    /// Known oracle reports counted apart from `failed` (fuzz only).
    pub known_violations: u64,
    /// `(operations, time)` of every batch, in the order they ran.
    pub batches: Vec<(u64, Timed)>,
    /// First failure message, if any operation failed.
    pub first_failure: Option<String>,
}

/// A window is judged slice by slice: at most this many slices of
/// consecutive batches, each at least [`MIN_SLICE`] batches long.
const MAX_SLICES: usize = 16;
const MIN_SLICE: usize = 10;

impl WindowResult {
    /// Per-batch calibrated `time ÷ ops` in µs, ascending.
    pub fn op_us_sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.batches.iter().map(op_us).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The whole window as one timed region: the wall-clock time of its
    /// batches with the median probe readings during it — what the
    /// calibrated figures were derived from.
    pub fn whole(&self) -> Timed {
        let med = |f: fn(&Probe) -> f64| {
            median(
                &self
                    .batches
                    .iter()
                    .map(|(_, t)| f(&t.probe))
                    .collect::<Vec<f64>>(),
            )
        };
        Timed {
            raw_us: self.batches.iter().map(|(_, t)| t.raw_us).sum(),
            probe: Probe {
                handoff_us: med(|p| p.handoff_us),
                loop_ns: med(|p| p.loop_ns),
            },
            sensitivity: self.batches[0].1.sensitivity,
        }
    }

    /// Consecutive, near-equal runs of batches. Besides the slow drift
    /// the calibrated clock removes, the sandbox stalls for tens of
    /// milliseconds at a time; a statistic taken per slice and reported
    /// as the median over slices ignores such phases as long as they
    /// touch fewer than half of the slices, where the whole-window mean
    /// rate and p90 move with how much of the window they covered.
    fn slices(&self) -> impl Iterator<Item = &[(u64, Timed)]> {
        let n = self.batches.len();
        let k = (n / MIN_SLICE).clamp(1, MAX_SLICES);
        (0..k).map(move |i| &self.batches[i * n / k..(i + 1) * n / k])
    }

    /// Median over slices of `operations ÷ time`.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .slices()
            .map(|s| {
                let (ops, us) = s
                    .iter()
                    .fold((0u64, 0.0), |acc, b| (acc.0 + b.0, acc.1 + b.1.us()));
                ops as f64 / (us / 1e6)
            })
            .collect();
        median(&rates)
    }

    /// Median over slices of the slice's `p`-th percentile batch.
    pub fn op_us(&self, p: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices()
            .map(|s| {
                let mut v: Vec<f64> = s.iter().map(op_us).collect();
                v.sort_by(f64::total_cmp);
                percentile(&v, p)
            })
            .collect();
        median(&per_slice)
    }
}

/// Calibrated µs per operation of one batch.
fn op_us((ops, t): &(u64, Timed)) -> f64 {
    t.us() / (*ops).max(1) as f64
}

/// Closed loop, one driver: run batches back to back until `window`
/// has elapsed (at least two batches), timing each batch on its own.
pub fn run_window(
    w: &mut dyn Workload,
    window: Duration,
    tr: &mut Tracer,
    clock: Clock,
) -> WindowResult {
    let mut r = WindowResult {
        ops: 0,
        failed: 0,
        allocs: 0,
        known_violations: 0,
        batches: Vec::new(),
        first_failure: None,
    };
    let root = tr.enter("workload");
    let start = Instant::now();
    let mut index = 0u64;
    while r.batches.len() < 2 || start.elapsed() < window {
        let watch = clock.stopwatch();
        let span = tr.enter("batch");
        let b = w.batch(index, tr);
        tr.exit(span);
        let dt = watch.stop();
        index += 1;
        r.ops += b.ops;
        r.failed += b.failed;
        r.allocs += b.allocs;
        r.known_violations += b.known_violations;
        if r.first_failure.is_none() {
            r.first_failure = b.failure;
        }
        r.batches.push((b.ops, dt));
    }
    tr.exit(root);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(5).1, "p50");
        assert_eq!(tail_percentile(99).1, "p50");
        assert_eq!(tail_percentile(100).1, "p90");
        assert_eq!(tail_percentile(999).1, "p90");
        assert_eq!(tail_percentile(1000).1, "p99");
        assert_eq!(tail_percentile(9_999).1, "p99");
        assert_eq!(tail_percentile(10_000).1, "p99.9");
    }

    #[test]
    fn percentile_is_nearest_rank_and_median_splits_even_counts() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn slice_medians_ignore_a_slow_phase() {
        // 200 batches of 20 ops at 400 µs/op, every fifth one a 450 µs/op
        // straggler; 60 consecutive batches run 30% slow.
        // A probe reading that leaves the wall time as it is.
        let ref_probe = Probe {
            handoff_us: 2.05,
            loop_ns: 1.58,
        };
        assert_eq!(ref_probe.slowdown(), 1.0);
        let at_ref = |raw_us| Timed {
            raw_us,
            probe: ref_probe,
            sensitivity: 1.0,
        };
        let batches: Vec<(u64, Timed)> = (0..200)
            .map(|i| {
                let base = if i % 5 == 4 { 450.0 } else { 400.0 };
                (
                    20,
                    at_ref(20.0 * base * if (50..110).contains(&i) { 1.3 } else { 1.0 }),
                )
            })
            .collect();
        let r = WindowResult {
            ops: 4000,
            failed: 0,
            allocs: 0,
            known_violations: 0,
            batches,
            first_failure: None,
        };
        assert_eq!(r.slices().count(), 16);
        assert_eq!(r.slices().map(<[_]>::len).sum::<usize>(), 200);
        // The slow phase covers 5 of 16 slices: the medians do not see it.
        assert_eq!(r.op_us(0.5), 400.0);
        assert_eq!(r.op_us(0.9), 450.0);
        let clean_rate = 1e6 / (0.8 * 400.0 + 0.2 * 450.0);
        assert!(
            (r.ops_per_s() / clean_rate - 1.0).abs() < 0.01,
            "{}",
            r.ops_per_s()
        );
        // The whole-window figures would have moved with the phase.
        let sorted = r.op_us_sorted();
        assert!(percentile(&sorted, 0.9) > 500.0);

        // Too few batches for ten per slice: one slice, plain statistics.
        let few = WindowResult {
            ops: 3,
            failed: 0,
            allocs: 0,
            known_violations: 0,
            batches: vec![(1, at_ref(5.0)), (1, at_ref(7.0)), (1, at_ref(6.0))],
            first_failure: None,
        };
        assert_eq!(few.slices().count(), 1);
        assert_eq!(few.op_us(0.5), 6.0);
    }

    #[test]
    fn two_point_fit_recovers_fixed_and_per_step_cost() {
        // 55 µs + 4.7 µs × steps, sampled at 40 and 150 steps.
        let (fixed, per_step) =
            two_point_fit((40.0, 55.0 + 4.7 * 40.0), (150.0, 55.0 + 4.7 * 150.0));
        assert!((fixed - 55.0).abs() < 1e-9, "{fixed}");
        assert!((per_step - 4.7).abs() < 1e-12, "{per_step}");
        // Order of the points does not matter.
        let (f2, s2) = two_point_fit((150.0, 760.0), (40.0, 243.0));
        assert!((f2 - 55.0).abs() < 1e-9 && (s2 - 4.7).abs() < 1e-12);
    }
}
