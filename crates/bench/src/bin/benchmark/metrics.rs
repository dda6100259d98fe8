//! The metric registry: every name the benchmark prints, with unit,
//! direction and (end-to-end only) the bound by which it may worsen.
//! `BENCHMARK.json` at the repository root carries the same lists; a
//! unit test keeps the two identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// A count the program makes that must repeat exactly for one
    /// seed; `--repeat` asserts equality instead of a gap.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Printed by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("op_us_p50", "us", Lower, 0.20),
    e2e("op_us_p90", "us", Lower, 0.25),
    e2e("allocs_per_op", "count", Lower, 0.02),
];

/// Printed by every workload with `--trace 1`.
pub const PER_LAYER: [MetricDef; 49] = [
    layer("ftmpi.pool.spawn_us_n8", "us", Lower),
    layer("ftmpi.pool.run_empty_us_n4", "us", Lower),
    layer("ftmpi.pool.run_empty_us_n8", "us", Lower),
    layer("ftmpi.pt2pt.self_roundtrip_ns", "ns", Lower),
    layer("ftmpi.matching.posted_d16_ns", "ns", Lower),
    layer("ftmpi.matching.posted_d256_ns", "ns", Lower),
    layer("ftmpi.matching.unexpected_d256_ns", "ns", Lower),
    layer("ftmpi.pt2pt.hop_us_n2", "us", Lower),
    layer("ftmpi.pt2pt.hop_us_n4", "us", Lower),
    layer("ftmpi.pt2pt.hop_us_n8", "us", Lower),
    layer("ftmpi.transport.wake_switch_us", "us", Lower),
    layer("ftmpi.datatype.encode_ns_per_kib", "ns/KiB", Lower),
    layer("ftmpi.datatype.decode_ns_per_kib", "ns/KiB", Lower),
    layer("ftmpi.paypool.make_recycle_ns_4k", "ns", Lower),
    layer("ftmpi.validate.validate_all_us_n8", "us", Lower),
    layer("ftmpi.trace.traced_ratio", "ratio", Lower),
    layer("consensus.coordinator_us_n8", "us", Lower),
    layer("consensus.flooding_us_n8", "us", Lower),
    exact("faultsim.handoff.steps_per_schedule_n4", "steps", Lower),
    exact("faultsim.handoff.steps_per_schedule_n8", "steps", Lower),
    layer("faultsim.handoff.self_grant_share_n8", "ratio", Higher),
    layer("faultsim.handoff.parks_per_schedule_n8", "count", Lower),
    exact("ftring.ring.msgs_per_lap_n4", "count", Lower),
    layer("ftring.ring.ft_over_baseline_ratio_n4", "ratio", Lower),
    layer("ftring.recovery.clean_run_us_n8", "us", Lower),
    layer("ftring.recovery.resends_per_kill", "count", Lower),
    layer("ftring.recovery.detector_fires_per_kill", "count", Lower),
    exact("ftring.recovery.token_stall_steps_p50", "steps", Lower),
    layer("dst.scenario.derive_ns", "ns", Lower),
    layer("dst.schedule.fixed_us_n4", "us", Lower),
    layer("dst.schedule.fixed_us_n8", "us", Lower),
    layer("dst.sim.us_per_step_n4", "us", Lower),
    layer("dst.sim.us_per_step_n8", "us", Lower),
    layer("dst.oracle.check_ns_n4", "ns", Lower),
    layer("dst.oracle.check_ns_n8", "ns", Lower),
    layer("dst.attribution.residual_share_n4", "ratio", Lower),
    layer("dst.attribution.residual_share_n8", "ratio", Lower),
    layer("dst.scenario.full_over_quiet_ratio_n4", "ratio", Lower),
    layer("dst.sweep.engine_over_serial_ratio", "ratio", Lower),
    exact("dst.fuzz.edges", "count", Higher),
    layer("dst.fuzz.novel_share", "ratio", Higher),
    layer("dst.fuzz.over_explore_ratio_n4", "ratio", Lower),
    exact("dst.shrink.runs", "count", Lower),
    layer("dst.shrink.ms", "ms", Lower),
    layer("os.sys_cpu_share", "ratio", Lower),
    layer("os.ctx_switches_per_op", "count", Lower),
    layer("os.peak_rss_kib", "KiB", Lower),
    layer("os.unpinned_over_pinned_ratio_n4", "ratio", Higher),
    layer("bench.trace_overhead_ratio", "ratio", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is what the driver reads; the registry is what
    /// the binary prints. They must name the same things.
    #[test]
    fn registry_matches_benchmark_json() {
        let doc =
            parse(include_str!("../../../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("BENCHMARK.json {key}: {other:?}"),
        };
        let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let items = list(key);
            assert_eq!(items.len(), defs.len(), "{key} length");
            for (j, d) in items.iter().zip(defs) {
                assert_eq!(text(j, "name"), d.name);
                assert_eq!(text(j, "unit"), d.unit, "{}", d.name);
                assert_eq!(text(j, "better"), d.better.name(), "{}", d.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::Str(
                "crates/bench/src/bin/benchmark".into()
            )]))
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
        }
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert_eq!(
            END_TO_END[0].bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }
}
