//! Per-layer numbers of the traced run: span sums, report counts, and
//! the overhead and unit-cost probes that run after the traced workload
//! (outside its root span, so they never count toward its coverage).

use std::collections::BTreeMap;
use std::time::Instant;

use thoth_sim::{FunctionalMode, Mode, SecureNvm, SimReport, TelemetryConfig};
use thoth_workloads::{spec, WorkloadKind};

use crate::host;
use crate::probes::{self, UnitCosts};
use crate::spans::{Span, SpanId, SpanLog};
use crate::stats::{median, percentile, tail_percentile};
use crate::workload::{audit, AuditCounts, Input, Params, Sample, Tracer, CRASH_CASES};
use thoth_experiments::amean;

/// Repetitions of each timed probe call; the probe reports medians.
const PROBE_REPS: usize = 3;

/// `true` when span `id` sits at or below `ancestor`.
fn under(spans: &[Span], mut id: SpanId, ancestor: SpanId) -> bool {
    loop {
        if id == ancestor {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

/// Summed duration of the spans called `name` below `ancestor`.
#[must_use]
pub fn sum_named(spans: &[Span], name: &str, ancestor: SpanId) -> f64 {
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == name && under(spans, *i, ancestor))
        .map(|(_, s)| s.duration())
        .sum()
}

/// The first span called `name`.
#[must_use]
pub fn find_named(spans: &[Span], name: &str) -> Option<SpanId> {
    spans.iter().position(|s| s.name == name)
}

/// Share of `root`'s duration covered by its direct children (the phase
/// spans).
#[must_use]
pub fn coverage(spans: &[Span], root: SpanId) -> f64 {
    let phases: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::duration)
        .sum();
    let total = spans[root].duration();
    if total > 0.0 {
        phases / total
    } else {
        0.0
    }
}

/// Audit-layer span sums below `ancestor`.
fn audit_times(spans: &[Span], ancestor: SpanId, out: &mut BTreeMap<&'static str, f64>) {
    for (metric, span) in [
        ("sim.run_psan_s", "run_psan"),
        ("psan.check_s", "check_events"),
        ("sim.full_functional_s", "full_run"),
        ("sim.crash_s", "crash"),
        ("sim.recover_s", "recover"),
        ("sim.crash_case_s", "crash_case"),
    ] {
        out.insert(metric, sum_named(spans, span, ancestor));
    }
}

fn audit_counts(c: &AuditCounts, out: &mut BTreeMap<&'static str, f64>) {
    out.insert("psan.events", c.psan_events as f64);
    out.insert("psan.findings", c.psan_findings as f64);
    out.insert("crashtest.cases", c.cases as f64);
    out.insert(
        "crashtest.failures",
        (c.case_failures + c.unclean_recoveries) as f64,
    );
}

/// Simulated counts summed (cache hit rates averaged) over `reports`.
fn report_counts(
    reports: &BTreeMap<crate::workload::Key, SimReport>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.values().map(f).sum::<u64>() as f64;
    let avg = |f: &dyn Fn(&SimReport) -> f64| amean(&reports.values().map(f).collect::<Vec<_>>());
    out.insert("cache.ctr_hit_rate", avg(&|r| r.ctr_cache_hit_rate));
    out.insert("cache.mac_hit_rate", avg(&|r| r.mac_cache_hit_rate));
    out.insert("cache.llc_hit_rate", avg(&|r| r.llc_hit_rate));
    out.insert("memctrl.wpq_inserts", sum(&|r| r.wpq_inserts));
    out.insert("memctrl.wpq_coalesced", sum(&|r| r.wpq_coalesced));
    out.insert("memctrl.wpq_full_stalls", sum(&|r| r.wpq_full_stalls));
    out.insert("memctrl.wpq_stall_cycles", sum(&|r| r.wpq_stall_cycles));
    out.insert("core.pcb_inserts", sum(&|r| r.pcb_inserts));
    out.insert("core.pcb_merged", sum(&|r| r.pcb_merged));
    out.insert(
        "core.pub_evictions",
        sum(&|r| r.pub_evictions.values().sum()),
    );
    out.insert("core.pub_policy_persists", sum(&|r| r.pub_policy_persists));
    out.insert("nvm.reads", sum(&|r| r.nvm_reads));
    for (metric, tag) in [
        ("nvm.writes.data", "data"),
        ("nvm.writes.counter", "counter"),
        ("nvm.writes.mac", "mac"),
        ("nvm.writes.pub", "pub"),
        ("nvm.writes.tree", "tree"),
        ("nvm.writes.shadow", "shadow"),
    ] {
        out.insert(metric, sum(&|r| r.writes.get(tag).copied().unwrap_or(0)));
    }
}

/// Per-layer numbers of one (untraced, traced) pair. `root` is the
/// traced run's root span.
#[must_use]
pub fn pair_metrics(
    params: &Params,
    untraced: &Sample,
    traced: &Sample,
    spans: &[Span],
    root: SpanId,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    out.insert("workloads.generate_s", sum_named(spans, "generate", root));
    out.insert("workloads.trace_ops", traced.trace_ops as f64);
    out.insert("workloads.prepop_inserts", traced.prepop_inserts as f64);
    let prepop_gen_s: f64 = params
        .gens
        .iter()
        .filter(|g| g.kind != WorkloadKind::Swap)
        .map(|g| sum_named(spans, g.kind.name(), root))
        .sum();
    out.insert(
        "workloads.ns_per_prepop_insert",
        prepop_gen_s * 1e9 / traced.prepop_inserts.max(1) as f64,
    );
    out.insert("sim.warm_up_s", sum_named(spans, "warm_up", root));
    out.insert("sim.measured_s", sum_named(spans, "measured", root));
    let job_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "job")
        .map(Span::duration)
        .collect();
    let workers = host::cores().min(params.job_count().max(1)) as f64;
    out.insert("experiments.run_jobs_s", untraced.run_jobs_s);
    out.insert(
        "experiments.worker_util",
        job_s.iter().sum::<f64>() / (workers * untraced.run_jobs_s.max(1e-9)),
    );
    out.insert(
        "experiments.job_s_max",
        job_s.iter().copied().fold(0.0, f64::max),
    );
    out.insert("experiments.report_s", sum_named(spans, "report", root));
    if let Some(audits) = find_named(spans, "audits") {
        audit_times(spans, audits, &mut out);
        audit_counts(&traced.audits, &mut out);
    }
    report_counts(&traced.reports, &mut out);
    out.insert("bench.span_coverage", coverage(spans, root));
    out.insert(
        "bench.tracing_overhead",
        traced.wall_s / untraced.wall_s.max(1e-9) - 1.0,
    );
    out
}

/// Per-kind and per-mode breakdowns for the layer table file.
#[must_use]
pub fn breakdown(
    params: &Params,
    traced: &Sample,
    spans: &[Span],
    root: SpanId,
) -> Vec<(String, f64, &'static str)> {
    let mut rows = Vec::new();
    for g in &params.gens {
        let kind = g.kind.name();
        rows.push((
            format!("workloads.generate_s.{kind}"),
            sum_named(spans, kind, root),
            "s",
        ));
    }
    for mode in &params.modes {
        let label = mode.label();
        let secs: f64 = spans
            .iter()
            .filter(|s| {
                s.name == "measured"
                    && s.job
                        .as_deref()
                        .is_some_and(|j| j.ends_with(&format!("/{label}")))
            })
            .map(Span::duration)
            .sum();
        rows.push((format!("sim.measured_s.{label}"), secs, "s"));
    }
    let job_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "job")
        .map(Span::duration)
        .collect();
    if !job_s.is_empty() {
        rows.push((
            format!("experiments.job_s.median (n={})", job_s.len()),
            median(&job_s),
            "s",
        ));
        if let Some(p) = tail_percentile(job_s.len()) {
            rows.push((
                format!("experiments.job_s.p{p} (n={})", job_s.len()),
                percentile(&job_s, p),
                "s",
            ));
        }
    }
    for g in &params.gens {
        let kind = g.kind.name();
        let rates: Vec<f64> = traced
            .reports
            .iter()
            .filter(|((k, _, _), _)| k == kind)
            .map(|(_, r)| r.llc_hit_rate)
            .collect();
        rows.push((format!("cache.llc_hit_rate.{kind}"), amean(&rates), "ratio"));
    }
    rows
}

/// What the probes found.
#[derive(Debug, Default)]
pub struct ProbeOutcome {
    /// Probe metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Checked operations the probes ran (cold≡warm and neutrality
    /// comparisons, audit operations).
    pub attempted: u64,
    /// Probe checks that failed (cold≡warm, telemetry neutrality, audits).
    pub failed: u64,
    /// What failed, one line each.
    pub problems: Vec<String>,
}

/// Median seconds of `PROBE_REPS` calls of `f`, with the last result.
fn probe_time<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let started = Instant::now();
        last = Some(f());
        secs.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), median(&secs))
}

/// Runs the probes over the traced run's `inputs` under thoth-wtsc,
/// recording spans below a `probes` root in `log`:
///
/// * split / telemetry: per trace, a cold `run`, a `warm_boot` + `run`,
///   and a counters-only `run_telemetry` at the workload's job config;
/// * audit overheads: per audited trace (the workload's own for
///   `crash-audit`, its hashmap trace otherwise), a plain vs `run_psan`
///   run and a fast vs full-functional run of the audit config; on
///   workloads without audits, one full audit of the hashmap trace
///   supplies the audit-layer spans and counts;
/// * isolated unit costs of the substrate crates.
#[must_use]
pub fn probe(params: &Params, inputs: &[Input], log: &SpanLog, unit_calls: usize) -> ProbeOutcome {
    let mut out = ProbeOutcome::default();
    let wtsc = Mode::thoth_wtsc();
    let root = log.open("probes", "bench", None, 0, None);
    let tracer = Tracer::on(log, Some(root));
    let fail = |out: &mut ProbeOutcome, ok: bool, what: String| {
        out.attempted += 1;
        if !ok {
            out.failed += 1;
            out.problems.push(what);
        }
    };

    // Split and telemetry overheads, plus the substrate counters.
    let (mut cold_s, mut warm_s, mut telem_s) = (0.0, 0.0, 0.0);
    let mut counters: BTreeMap<&'static str, f64> = BTreeMap::new();
    for input in inputs {
        let cfg = params.job_config(wtsc, params.blocks[0]);
        let trace = &*input.trace;
        let kind = input.config.kind;
        let (cold, c) = tracer.span("cold_run", "sim", |_| {
            probe_time(|| SecureNvm::new(cfg.clone()).run(trace))
        });
        let (warm, w) = tracer.span("warm_run", "sim", |_| {
            probe_time(|| SecureNvm::new(cfg.clone()).warm_boot(trace).run(trace))
        });
        let ((telem, report), t) = tracer.span("telemetry_run", "telemetry", |_| {
            probe_time(|| {
                SecureNvm::new(cfg.clone()).run_telemetry(trace, &TelemetryConfig::counters_only())
            })
        });
        cold_s += c;
        warm_s += w;
        telem_s += t;
        fail(
            &mut out,
            cold.digest() == warm.digest(),
            format!("{kind}: warm-boot report differs from the cold run"),
        );
        fail(
            &mut out,
            cold.digest() == telem.digest(),
            format!("{kind}: telemetry changed the report"),
        );
        for (metric, counter) in [
            ("sim-engine.bank_events_coalesced", "bank_events_coalesced"),
            ("crypto.hash_batch_runs", "hash_batch_runs"),
            ("crypto.sip_simd_rows", "sip_simd_rows"),
        ] {
            *counters.entry(metric).or_insert(0.0) +=
                report.registry.counter_value(counter).unwrap_or(0) as f64;
        }
    }
    out.metrics
        .insert("sim.split_overhead", warm_s / cold_s.max(1e-12) - 1.0);
    out.metrics
        .insert("telemetry.overhead", telem_s / cold_s.max(1e-12) - 1.0);
    out.metrics.extend(counters);

    // Audit overheads over the audited traces.
    let hashmap_only;
    let audited: &[Input] = if params.audit_modes.is_empty() {
        let config = *params
            .gens
            .iter()
            .find(|g| g.kind == WorkloadKind::Hashmap)
            .expect("every workload replays hashmap");
        let annotated = spec::generate_annotated(config);
        hashmap_only = [Input {
            config,
            trace: std::sync::Arc::new(annotated.trace),
            classes: Some(annotated.classes),
        }];
        &hashmap_only
    } else {
        inputs
    };
    let (mut plain_s, mut psan_s, mut fast_s, mut full_s, mut aes_blocks) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for input in audited {
        let trace = &*input.trace;
        let psan_cfg = thoth_psan::sim_config_for(wtsc);
        let full_cfg = params.audit_config(wtsc);
        let mut fast_cfg = full_cfg.clone();
        fast_cfg.functional = FunctionalMode::Fast;
        plain_s += tracer.span("psan_plain_run", "sim", |_| {
            probe_time(|| SecureNvm::new(psan_cfg.clone()).run(trace)).1
        });
        psan_s += tracer.span("psan_run", "sim", |_| {
            probe_time(|| SecureNvm::new(psan_cfg.clone()).run_psan(trace)).1
        });
        fast_s += tracer.span("fast_run", "sim", |_| {
            probe_time(|| SecureNvm::new(fast_cfg.clone()).run(trace)).1
        });
        full_s += tracer.span("full_functional_run", "sim", |_| {
            probe_time(|| SecureNvm::new(full_cfg.clone()).run(trace)).1
        });
        let (_, report) = tracer.span("telemetry_full_run", "telemetry", |_| {
            SecureNvm::new(full_cfg.clone()).run_telemetry(trace, &TelemetryConfig::counters_only())
        });
        aes_blocks += report.registry.counter_value("aes_hw_blocks").unwrap_or(0) as f64;
    }
    out.metrics
        .insert("sim.psan_overhead", psan_s / plain_s.max(1e-12) - 1.0);
    out.metrics.insert(
        "crypto.full_mode_overhead",
        full_s / fast_s.max(1e-12) - 1.0,
    );
    out.metrics.insert("crypto.aes_hw_blocks", aes_blocks);

    if params.audit_modes.is_empty() {
        let probe_params = Params {
            crash_cases: CRASH_CASES,
            ..params.clone()
        };
        let counts = tracer.span("audit", "bench", |t| {
            audit(&probe_params, &audited[0], wtsc, t, &mut Vec::new())
        });
        out.attempted += 3 + counts.cases;
        if counts.failures() > 0 {
            out.failed += counts.failures();
            out.problems
                .push(format!("hashmap audit under thoth-wtsc: {counts:?}"));
        }
        let spans = log.spans();
        let audit_root = spans
            .iter()
            .rposition(|s| s.name == "audit" && s.parent == Some(root))
            .expect("audit span recorded above");
        audit_times(&spans, audit_root, &mut out.metrics);
        audit_counts(&counts, &mut out.metrics);
    }

    let units: UnitCosts = tracer.span("unit_costs", "bench", |_| probes::measure(unit_calls));
    for (metric, v) in [
        ("crypto.aes_batch8_ns", units.aes_batch8_ns),
        ("crypto.sip_batch64_ns", units.sip_batch64_ns),
        ("crypto.mac_both_levels_ns", units.mac_both_levels_ns),
        ("merkle.update_leaf_ns", units.merkle_update_leaf_ns),
        ("cache.probe_ns", units.cache_probe_ns),
        ("memctrl.wpq_insert_ns", units.wpq_insert_ns),
        ("nvm.time_access_ns", units.nvm_time_access_ns),
    ] {
        out.metrics.insert(metric, v);
    }
    log.close(root);
    out
}
