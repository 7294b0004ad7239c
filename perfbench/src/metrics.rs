//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names, units and directions
//! `BENCHMARK.json` lists; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// What an untraced run reports: host time of the whole workload plus
/// two exact simulated results.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", Lower),
    m("cpu_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("replay_ops_per_s", "ops/s", Higher),
    m("peak_rss_mib", "MiB", Lower),
    m("sim_speedup_wtsc", "x", Higher),
    m("sim_write_ratio_wtsc", "ratio", Lower),
];

/// What a traced run reports, per layer (workspace crate).
pub const PER_LAYER: &[Metric] = &[
    m("workloads.generate_s", "s", Lower),
    m("workloads.trace_ops", "count", Lower),
    m("workloads.prepop_inserts", "count", Lower),
    m("workloads.ns_per_prepop_insert", "ns", Lower),
    m("sim.warm_up_s", "s", Lower),
    m("sim.measured_s", "s", Lower),
    m("sim.split_overhead", "ratio", Lower),
    m("sim.run_psan_s", "s", Lower),
    m("sim.psan_overhead", "ratio", Lower),
    m("sim.full_functional_s", "s", Lower),
    m("sim.crash_s", "s", Lower),
    m("sim.recover_s", "s", Lower),
    m("sim.crash_case_s", "s", Lower),
    m("experiments.run_jobs_s", "s", Lower),
    m("experiments.worker_util", "ratio", Higher),
    m("experiments.job_s_max", "s", Lower),
    m("experiments.report_s", "s", Lower),
    m("crypto.full_mode_overhead", "ratio", Lower),
    m("crypto.aes_hw_blocks", "count", Higher),
    m("crypto.hash_batch_runs", "count", Higher),
    m("crypto.sip_simd_rows", "count", Higher),
    m("crypto.aes_batch8_ns", "ns", Lower),
    m("crypto.sip_batch64_ns", "ns", Lower),
    m("crypto.mac_both_levels_ns", "ns", Lower),
    m("merkle.update_leaf_ns", "ns", Lower),
    m("cache.ctr_hit_rate", "ratio", Higher),
    m("cache.mac_hit_rate", "ratio", Higher),
    m("cache.llc_hit_rate", "ratio", Higher),
    m("cache.probe_ns", "ns", Lower),
    m("memctrl.wpq_inserts", "count", Lower),
    m("memctrl.wpq_coalesced", "count", Higher),
    m("memctrl.wpq_full_stalls", "count", Lower),
    m("memctrl.wpq_stall_cycles", "cycles", Lower),
    m("memctrl.wpq_insert_ns", "ns", Lower),
    m("core.pcb_inserts", "count", Lower),
    m("core.pcb_merged", "count", Higher),
    m("core.pub_evictions", "count", Lower),
    m("core.pub_policy_persists", "count", Lower),
    m("nvm.reads", "count", Lower),
    m("nvm.writes.data", "count", Lower),
    m("nvm.writes.counter", "count", Lower),
    m("nvm.writes.mac", "count", Lower),
    m("nvm.writes.pub", "count", Lower),
    m("nvm.writes.tree", "count", Lower),
    m("nvm.writes.shadow", "count", Lower),
    m("nvm.time_access_ns", "ns", Lower),
    m("sim-engine.bank_events_coalesced", "count", Higher),
    m("psan.check_s", "s", Lower),
    m("psan.events", "count", Lower),
    m("psan.findings", "count", Lower),
    m("crashtest.cases", "count", Higher),
    m("crashtest.failures", "count", Lower),
    m("telemetry.overhead", "ratio", Lower),
    m("bench.tracing_overhead", "ratio", Lower),
    m("bench.span_coverage", "ratio", Higher),
];

/// Looks a metric up in either list.
#[must_use]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The benchmark's last output line.
#[derive(Debug, Clone, Default)]
pub struct ResultLine {
    /// Every output check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Formats a measured value with every digit (shortest round-trip form);
/// non-finite values have no JSON form and print as `null`.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

impl ResultLine {
    /// The single-line JSON object:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    ///
    /// # Panics
    ///
    /// Panics on a metric missing from the catalogue.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = find(name)
                .unwrap_or_else(|| panic!("uncatalogued metric {name}"))
                .unit;
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            );
        }
        out.push_str("}}");
        out
    }

    /// Aligned `name value unit` lines for humans.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let unit = find(name).map_or("", |m| m.unit);
            let _ = writeln!(out, "  {name:<34} {:>18} {unit}", number(*value));
        }
        out
    }
}
