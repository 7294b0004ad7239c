//! `crashtest` — the crash-injection sweep as an experiment.
//!
//! Sweeps every paper workload: enumerate the crash points the trace
//! exposes, sample a seeded subset, and run crash → recover → audit for
//! each (see `thoth-crashtest`). Also runs the oracle selftest, which
//! proves the auditor actually detects a deliberately torn counter-block
//! write. Results go to stdout as a table and to `results/crashtest.json`.
//!
//! Any failing crash point is minimized to the earliest failing ordinal
//! and printed as a one-line reproduction recipe
//! (`crashtest --point WORKLOAD:SITE:N --seed S`).

use crate::runner::ExpSettings;
use crate::tablefmt::Table;

use thoth_crashtest::{oracle_selftest, run_case, sweep_workload, SweepConfig, SweepResult};
use thoth_sim::{CrashPlan, CrashSiteKind, Mode};
use thoth_workloads::WorkloadKind;

use std::fmt::Write as _;

/// Tables plus an overall verdict (the binary exits non-zero on `!ok`).
#[derive(Debug)]
pub struct CrashtestOutcome {
    /// Rendered result tables.
    pub tables: Vec<Table>,
    /// Every sampled point passed its audit and the oracle selftest held.
    pub ok: bool,
}

/// Maps experiment settings onto a sweep configuration. `quick` trims the
/// sample count to the CI smoke size.
#[must_use]
pub fn sweep_config(settings: ExpSettings, quick: bool) -> SweepConfig {
    let base = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::default()
    };
    SweepConfig {
        seed: settings.seed,
        scale: settings.scale,
        ..base
    }
}

/// The metadata-persistence mechanisms the sweep audits: each has a
/// distinct recovery procedure (Thoth merges the PUB, Phoenix
/// reconstructs the MAC region, the Freij variants rebuild from strict
/// state), and each must recover cleanly from every sampled crash
/// point. Baseline persists its metadata strictly and eADR flushes its
/// caches at crash; their coverage lives in the sim crate's recovery
/// tests. AnubisEcc is left out because it does not recover: its ECC
/// ride-along metadata never reaches NVM, so `recover()` after a clean
/// end-of-run crash fails root verification (at seed `0xC0FFEE`, 3878
/// of 11001 hashmap blocks fail).
#[must_use]
pub fn sweep_modes() -> [Mode; 4] {
    [
        Mode::thoth_wtsc(),
        Mode::phoenix(),
        Mode::freij_strict(),
        Mode::freij_lazy(),
    ]
}

/// Runs the sweep over the paper's five workloads plus the multi-tenant
/// service core — under every mechanism in [`sweep_modes`] — plus the
/// per-mode oracle selftests, writes `results/crashtest.json`, and
/// reports the verdict.
#[must_use]
pub fn run(settings: ExpSettings, quick: bool) -> CrashtestOutcome {
    let base = sweep_config(settings, quick);
    let mut sweeps: Vec<(Mode, SweepResult)> = Vec::new();
    for mode in sweep_modes() {
        let cfg = base.clone().with_mode(mode);
        for kind in WorkloadKind::ALL.into_iter().chain([WorkloadKind::Service]) {
            eprintln!(
                "[thoth-experiments] crashtest sweeping {kind} under {}...",
                mode.label()
            );
            sweeps.push((mode, sweep_workload(kind, &cfg)));
        }
    }
    let selftests: Vec<(Mode, Result<(), String>)> = sweep_modes()
        .into_iter()
        .map(|mode| (mode, oracle_selftest(&base.clone().with_mode(mode))))
        .collect();

    let mut t = Table::new(
        &format!(
            "Crash sweep: seed {:#x}, {} samples/workload, faults {}",
            base.seed,
            base.samples_per_workload,
            if base.faults.is_active() { "ON" } else { "off" },
        ),
        &["workload", "mode", "sites", "sampled", "passed", "failed", "min repro"],
    );
    for (mode, s) in &sweeps {
        let sites: u64 = CrashSiteKind::ALL.iter().map(|&k| s.counts.of(k)).sum();
        t.row(vec![
            s.workload.name().to_owned(),
            mode.label().to_owned(),
            sites.to_string(),
            s.cases.len().to_string(),
            (s.cases.len() - s.failures()).to_string(),
            s.failures().to_string(),
            s.minimized
                .map_or_else(|| "-".to_owned(), |p| p.label()),
        ]);
    }
    for (mode, selftest) in &selftests {
        t.row(vec![
            "oracle-selftest".to_owned(),
            mode.label().to_owned(),
            String::new(),
            String::new(),
            if selftest.is_ok() { "1" } else { "0" }.to_owned(),
            if selftest.is_ok() { "0" } else { "1" }.to_owned(),
            String::new(),
        ]);
    }

    for (mode, selftest) in &selftests {
        if let Err(e) = selftest {
            eprintln!(
                "[thoth-experiments] oracle selftest under {} FAILED: {e}",
                mode.label()
            );
        }
    }
    for (mode, s) in &sweeps {
        if let Some(p) = s.minimized {
            eprintln!(
                "[thoth-experiments] crashtest FAILURE: reproduce with \
                 `crashtest --point {}:{} --mode {} --seed {:#x}`",
                s.workload.name(),
                p.label(),
                mode.label(),
                base.seed
            );
        }
    }

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/crashtest.json", to_json(&base, &sweeps, &selftests))
        .expect("write results/crashtest.json");
    eprintln!("[thoth-experiments] wrote results/crashtest.json");

    let ok = selftests.iter().all(|(_, r)| r.is_ok())
        && sweeps.iter().all(|(_, s)| s.all_passed());
    CrashtestOutcome { tables: vec![t], ok }
}

/// Replays a single crash point from a `WORKLOAD:SITE:N` spec (the
/// reproduction recipe printed on failure) under `mode` and reports the
/// full audit.
#[must_use]
pub fn run_point(settings: ExpSettings, spec: &str, mode: Mode) -> CrashtestOutcome {
    let (kind, plan) = parse_point(spec).unwrap_or_else(|| {
        eprintln!(
            "bad --point spec {spec:?}: expected WORKLOAD:SITE:N, \
             e.g. btree:persist:117"
        );
        std::process::exit(2);
    });
    let cfg = sweep_config(settings, true).with_mode(mode);
    let trace = cfg.trace(kind);
    let sim = cfg.sim_config();
    let case = run_case(&sim, &trace, kind, plan, &cfg.faults);
    let a = &case.audit;

    let mut t = Table::new(
        &format!(
            "Crash point {}:{} under {} (seed {:#x})",
            kind,
            plan.label(),
            mode.label(),
            cfg.seed
        ),
        &["check", "value"],
    );
    t.row(vec!["fired".into(), case.fired.to_string()]);
    t.row(vec!["root ok".into(), a.root_ok.to_string()]);
    t.row(vec!["pub blocks scanned".into(), a.pub_blocks_scanned.to_string()]);
    t.row(vec!["entries merged".into(), a.entries_merged.to_string()]);
    t.row(vec!["blocks checked".into(), a.blocks_checked.to_string()]);
    t.row(vec!["auth failures".into(), a.auth_failures.to_string()]);
    t.row(vec!["content mismatches".into(), a.content_mismatches.to_string()]);
    t.row(vec!["version disagreements".into(), a.version_disagreements.to_string()]);
    t.row(vec!["committed blocks".into(), a.committed_blocks.to_string()]);
    t.row(vec!["in-flight blocks".into(), a.inflight_blocks.to_string()]);
    t.row(vec!["verdict".into(), if case.passed { "PASS" } else { "FAIL" }.into()]);
    if !a.diagnostics.is_clean() {
        eprintln!("{}", a.diagnostics);
    }
    CrashtestOutcome {
        tables: vec![t],
        ok: case.passed,
    }
}

/// Parses `WORKLOAD:SITE:N` (e.g. `swap:pub-append:3`).
fn parse_point(spec: &str) -> Option<(WorkloadKind, CrashPlan)> {
    let (name, rest) = spec.split_once(':')?;
    Some((WorkloadKind::from_name(name)?, CrashPlan::parse(rest)?))
}

/// Serializes the sweep as JSON (hand-rolled — no serializer dependency
/// by design; see DESIGN.md §5).
#[must_use]
pub fn to_json(
    cfg: &SweepConfig,
    sweeps: &[(Mode, SweepResult)],
    selftests: &[(Mode, Result<(), String>)],
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"config\": {{ \"seed\": {}, \"scale\": {}, \"samples_per_workload\": {}, \
         \"faults_active\": {} }},",
        cfg.seed,
        cfg.scale,
        cfg.samples_per_workload,
        cfg.faults.is_active()
    );
    s.push_str("  \"oracle_selftest\": { ");
    for (i, (mode, r)) in selftests.iter().enumerate() {
        let _ = write!(s, "\"{}\": {}", mode.label(), r.is_ok());
        if i + 1 < selftests.len() {
            s.push_str(", ");
        }
    }
    s.push_str(" },\n");
    s.push_str("  \"workloads\": [\n");
    for (i, (mode, sw)) in sweeps.iter().enumerate() {
        let _ = write!(
            s,
            "    {{ \"workload\": \"{}\", \"mode\": \"{}\", \"sites\": {{ ",
            sw.workload.name(),
            mode.label()
        );
        for (j, &kind) in CrashSiteKind::ALL.iter().enumerate() {
            let _ = write!(s, "\"{}\": {}", kind.tag(), sw.counts.of(kind));
            if j + 1 < CrashSiteKind::ALL.len() {
                s.push_str(", ");
            }
        }
        s.push_str(" },\n      \"cases\": [\n");
        for (j, c) in sw.cases.iter().enumerate() {
            let _ = write!(
                s,
                "        {{ \"point\": \"{}\", \"fired\": {}, \"passed\": {}, \
                 \"root_ok\": {}, \"auth_failures\": {}, \"content_mismatches\": {}, \
                 \"committed_blocks\": {}, \"inflight_blocks\": {} }}",
                c.plan.label(),
                c.fired,
                c.passed,
                c.audit.root_ok,
                c.audit.auth_failures,
                c.audit.content_mismatches,
                c.audit.committed_blocks,
                c.audit.inflight_blocks
            );
            s.push_str(if j + 1 < sw.cases.len() { ",\n" } else { "\n" });
        }
        s.push_str("      ],\n");
        let _ = write!(
            s,
            "      \"minimized\": {} }}",
            sw.minimized
                .map_or_else(|| "null".to_owned(), |p| format!("\"{}\"", p.label()))
        );
        s.push_str(if i + 1 < sweeps.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_spec_roundtrips() {
        let (kind, plan) = parse_point("swap:pub-append:3").expect("parses");
        assert_eq!(kind, WorkloadKind::Swap);
        assert_eq!(plan.label(), "pub-append:3");
        assert!(parse_point("swap").is_none());
        assert!(parse_point("nosuch:persist:1").is_none());
        assert!(parse_point("swap:persist:x").is_none());
    }

    #[test]
    fn quick_config_inherits_settings() {
        let mut settings = ExpSettings::quick();
        settings.seed = 42;
        let cfg = sweep_config(settings, true);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.scale, settings.scale);
        assert!(!cfg.faults.is_active());
    }

    #[test]
    fn json_is_balanced() {
        let cfg = SweepConfig::quick();
        let sweeps = vec![(Mode::thoth_wtsc(), sweep_workload(WorkloadKind::Swap, &cfg))];
        let selftests = vec![
            (Mode::thoth_wtsc(), Ok(())),
            (Mode::phoenix(), Ok(())),
        ];
        let j = to_json(&cfg, &sweeps, &selftests);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"thoth-wtsc\": true"));
        assert!(j.contains("\"phoenix\": true"));
        assert!(j.contains("\"workload\": \"swap\""));
        assert!(j.contains("\"mode\": \"thoth-wtsc\""));
    }

    #[test]
    fn sweep_modes_cover_every_distinct_recovery_procedure() {
        let modes = sweep_modes();
        assert!(modes.contains(&Mode::thoth_wtsc()), "PUB merge recovery");
        assert!(modes.contains(&Mode::phoenix()), "MAC reconstruction recovery");
        assert!(modes.contains(&Mode::freij_strict()));
        assert!(modes.contains(&Mode::freij_lazy()));
    }
}
