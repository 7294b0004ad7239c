//! `psan` — the persist-ordering sanitizer as an experiment.
//!
//! Two halves, both required for the verdict:
//!
//! * **Clean sweep** — every paper workload (plus the service extension)
//!   runs unmodified through the instrumented simulator under every
//!   persistence mechanism (baseline, Thoth/WTSC, Thoth/WTBC, ideal
//!   Anubis-ECC, Phoenix, Freij strict/lazy — everything except eADR,
//!   whose in-domain caches collapse the persist lifecycle the checker
//!   replays); the sanitizer must report zero durability or ordering
//!   findings *and* zero performance smells for all of them (the
//!   workload runtime's undo-log dedup keeps the transactions
//!   smell-free, and a mechanism-dependent finding would mean the
//!   checker models the mechanism, not the program).
//! * **Seeded corpus** — the classic single-core bugs (dropped flush,
//!   swapped log/data, double flush) are planted in every paper
//!   workload, and each cross-core race variant (unfenced counter,
//!   swapped drain order, relaxed steal, cover overlap) is planted in a
//!   designated workload via the pilot-run alignment
//!   ([`thoth_psan::seed_variant`]). The sanitizer must produce a
//!   finding of the expected class at exactly the planted site (core,
//!   op index, block address). A miss or a wrong-site detection fails
//!   the experiment.
//!
//! Results go to stdout as tables and to `results/psan.json`; the binary
//! exits non-zero on `!ok`.

use crate::runner::ExpSettings;
use crate::tablefmt::Table;

use thoth_psan::{
    analyze_under, analyze_variant_with_events, detection, expected_class, race_manifested,
    seed_variant_under, sim_config_for, workload_config, BLOCK_BYTES,
};
use thoth_sim::Mode;
use thoth_workloads::{spec, AnnotatedTrace, SeededBug, WorkloadKind};

use std::fmt::Write as _;

/// The persistence mechanisms the clean sweep must be silent under —
/// every mode except eADR (whose in-domain caches make every store
/// durable at issue, so the persist-event lifecycle the checker replays
/// never forms).
fn modes() -> [Mode; 7] {
    [
        Mode::baseline(),
        Mode::thoth_wtsc(),
        Mode::thoth_wtbc(),
        Mode::AnubisEcc,
        Mode::phoenix(),
        Mode::freij_strict(),
        Mode::freij_lazy(),
    ]
}

/// The mechanisms the seeded-bug corpus runs under: the planted bugs
/// are program-level, so each new mechanism must catch all of them at
/// the planted sites too. Thoth/WTSC is the historical default; the
/// remaining strict-persistence modes behave like the baseline seen
/// from the checker, so one representative (the corpus under
/// Thoth/WTSC has exercised `in-place` covers since psan v1) keeps the
/// matrix proportionate.
fn corpus_modes() -> [Mode; 4] {
    [
        Mode::thoth_wtsc(),
        Mode::phoenix(),
        Mode::freij_strict(),
        Mode::freij_lazy(),
    ]
}

/// The designated workload for each cross-core race bug: one planting
/// per race kind keeps the corpus proportionate while the library test
/// suite covers the full (race × workload) matrix.
const RACE_SITES: [(SeededBug, WorkloadKind); 4] = [
    (SeededBug::UnfencedCounter, WorkloadKind::Btree),
    (SeededBug::SwappedDrainOrder, WorkloadKind::Hashmap),
    (SeededBug::RelaxedSteal, WorkloadKind::Ctree),
    (SeededBug::CoverOverlap, WorkloadKind::Rbtree),
];

/// Tables plus an overall verdict (the binary exits non-zero on `!ok`).
#[derive(Debug)]
pub struct PsanOutcome {
    /// Rendered result tables.
    pub tables: Vec<Table>,
    /// Clean workloads were finding-free under every mode and every
    /// planted bug was caught at its site.
    pub ok: bool,
}

/// One clean-workload verdict (per mode).
#[derive(Debug)]
struct CleanRow {
    kind: WorkloadKind,
    mode: Mode,
    errors: usize,
    smells: usize,
    events: u64,
}

/// One corpus-variant verdict.
#[derive(Debug)]
struct CorpusRow {
    kind: WorkloadKind,
    mode: Mode,
    bug: SeededBug,
    seed: u64,
    /// `None` when the workload exposes no eligible site for the bug
    /// (the swap workload is log-free, so log/data swaps cannot exist).
    site: Option<String>,
    /// For cross-core race bugs: whether the planted race actually
    /// manifested in this mode's schedule (two cores co-resident on the
    /// victim block in the WPQ). A race whose window closed — strict
    /// mechanisms drain the block between the racing persists — owes no
    /// finding, exactly as for a dynamic data-race detector. Always
    /// true for single-core bugs.
    manifested: bool,
    detected: bool,
    findings: usize,
}

/// True when `bug` can manifest under `mode`. Freij strict subtree
/// persistence streams every updated tree-path node — including the
/// shared BMT root — through the WPQ with each store, so drain
/// publication orders effectively every pair of cross-core persists:
/// the pure happens-before race plantings are ordered by construction
/// and cannot manifest there. Relaxed steal stays eligible everywhere —
/// when no peer connects, the defect surfaces as a plain durability
/// bug, independent of cross-core ordering.
fn bug_applies(bug: SeededBug, mode: Mode) -> bool {
    !(mode == Mode::freij_strict()
        && matches!(
            bug,
            SeededBug::UnfencedCounter | SeededBug::SwappedDrainOrder | SeededBug::CoverOverlap
        ))
}

/// Site-selection seeds per (workload, bug) pair: quick plants one
/// variant each, full plants two.
fn seeds(quick: bool) -> &'static [u64] {
    if quick {
        &[1]
    } else {
        &[1, 2]
    }
}

/// Plants `bug` with `seed` in the (cached) annotated trace of `kind`
/// and records the verdict row.
fn plant(
    rows: &mut Vec<CorpusRow>,
    annotated: &thoth_workloads::AnnotatedTrace,
    kind: WorkloadKind,
    mode: Mode,
    bug: SeededBug,
    seed: u64,
) {
    let Some(variant) = seed_variant_under(annotated, bug, seed, mode) else {
        rows.push(CorpusRow {
            kind,
            mode,
            bug,
            seed,
            site: None,
            manifested: false,
            detected: false,
            findings: 0,
        });
        return;
    };
    let (run, events) = analyze_variant_with_events(&variant, mode);
    let detected = detection(&run, &variant).is_some();
    rows.push(CorpusRow {
        kind,
        mode,
        bug,
        seed,
        site: Some(format!(
            "core{}:op{}:{:#x}",
            variant.site.core, variant.site.op, variant.site.addr
        )),
        manifested: !bug.is_cross_core() || detected || race_manifested(&events, variant.site.addr),
        detected,
        findings: run.report.findings.len(),
    });
}

/// Runs the clean sweep and the seeded-bug corpus, writes
/// `results/psan.json`, and reports the verdict.
#[must_use]
pub fn run(settings: ExpSettings, quick: bool) -> PsanOutcome {
    let scale = settings.scale;
    let mut clean_rows = Vec::new();
    let mut corpus_rows = Vec::new();

    // The paper's five workloads plus the multi-tenant service core, so
    // the open-loop subsystem ships with ordering-sanitizer coverage —
    // each under every persisting mechanism. Each trace is generated
    // once and shared by the clean sweep and the corpus.
    let traces: Vec<(WorkloadKind, AnnotatedTrace)> = WorkloadKind::ALL
        .into_iter()
        .chain([WorkloadKind::Service])
        .map(|kind| (kind, spec::generate_annotated(workload_config(kind, scale))))
        .collect();
    for &(kind, ref clean) in &traces {
        for mode in modes() {
            eprintln!(
                "[thoth-experiments] psan analyzing clean {kind} under {}...",
                mode.label()
            );
            let run = analyze_under(&clean.trace, &clean.classes, sim_config_for(mode));
            clean_rows.push(CleanRow {
                kind,
                mode,
                errors: run
                    .report
                    .findings
                    .iter()
                    .filter(|f| !f.class.is_smell())
                    .count(),
                smells: run.report.smells().len(),
                events: run.report.stats.events,
            });
        }
    }

    // Corpus: classic bugs across every paper workload, race bugs once
    // each at their designated workload (alignment-seeded, per mode —
    // event sequence numbers shift with the persist schedule), the
    // whole matrix repeated under each corpus mechanism.
    for &(kind, ref annotated) in traces.iter().filter(|(k, _)| WorkloadKind::ALL.contains(k)) {
        for mode in corpus_modes() {
            eprintln!(
                "[thoth-experiments] psan planting corpus in {kind} under {}...",
                mode.label()
            );
            for bug in SeededBug::CLASSIC {
                for &seed in seeds(quick) {
                    plant(&mut corpus_rows, annotated, kind, mode, bug, seed);
                }
            }
            for (bug, site_kind) in RACE_SITES {
                if site_kind == kind && bug_applies(bug, mode) {
                    for &seed in seeds(quick) {
                        plant(&mut corpus_rows, annotated, kind, mode, bug, seed);
                    }
                }
            }
        }
    }

    let clean_ok = clean_rows.iter().all(|r| r.errors == 0 && r.smells == 0);
    let corpus_ok = corpus_rows
        .iter()
        .all(|r| r.site.is_none() || !r.manifested || r.detected);
    let ok = clean_ok && corpus_ok;

    let eligible = corpus_rows
        .iter()
        .filter(|r| r.site.is_some() && r.manifested)
        .count();
    let caught = corpus_rows.iter().filter(|r| r.detected).count();
    eprintln!("[thoth-experiments] psan corpus: {caught}/{eligible} planted bugs caught");

    let mut t_clean = Table::new(
        &format!("Sanitizer clean sweep (scale {scale}, all mechanisms)"),
        &["workload", "mode", "events", "errors", "smells", "verdict"],
    );
    for r in &clean_rows {
        t_clean.row(vec![
            r.kind.name().to_owned(),
            r.mode.label().to_owned(),
            r.events.to_string(),
            r.errors.to_string(),
            r.smells.to_string(),
            if r.errors == 0 && r.smells == 0 {
                "clean"
            } else {
                "DIRTY"
            }
            .to_owned(),
        ]);
    }

    let mut t_corpus = Table::new(
        &format!("Sanitizer seeded-bug corpus ({caught}/{eligible} caught at planted sites)"),
        &["workload", "mode", "bug", "seed", "site", "findings", "verdict"],
    );
    for r in &corpus_rows {
        t_corpus.row(vec![
            r.kind.name().to_owned(),
            r.mode.label().to_owned(),
            r.bug.name().to_owned(),
            r.seed.to_string(),
            r.site.clone().unwrap_or_else(|| "(no eligible site)".to_owned()),
            r.findings.to_string(),
            if r.site.is_none() {
                "n/a"
            } else if r.detected {
                "caught"
            } else if !r.manifested {
                "window closed"
            } else {
                "MISSED"
            }
            .to_owned(),
        ]);
    }

    for r in &corpus_rows {
        if r.site.is_some() && r.manifested && !r.detected {
            eprintln!(
                "[thoth-experiments] psan MISS: {}:{} under {} seed {} expected {} at {}",
                r.kind.name(),
                r.bug.name(),
                r.mode.label(),
                r.seed,
                expected_class(r.bug),
                r.site.as_deref().unwrap_or("?"),
            );
        }
    }

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(
        "results/psan.json",
        to_json(settings, quick, &clean_rows, &corpus_rows, ok),
    )
    .expect("write results/psan.json");
    eprintln!("[thoth-experiments] wrote results/psan.json");

    PsanOutcome {
        tables: vec![t_clean, t_corpus],
        ok,
    }
}

/// Serializes the run as JSON (hand-rolled — no serializer dependency by
/// design; see DESIGN.md §5).
fn to_json(
    settings: ExpSettings,
    quick: bool,
    clean: &[CleanRow],
    corpus: &[CorpusRow],
    ok: bool,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"config\": {{ \"scale\": {}, \"quick\": {}, \"block_bytes\": {} }},",
        settings.scale, quick, BLOCK_BYTES
    );
    s.push_str("  \"clean\": [\n");
    for (i, r) in clean.iter().enumerate() {
        let _ = write!(
            s,
            "    {{ \"workload\": \"{}\", \"mode\": \"{}\", \"events\": {}, \"errors\": {}, \
             \"smells\": {} }}",
            r.kind.name(),
            r.mode.label(),
            r.events,
            r.errors,
            r.smells
        );
        s.push_str(if i + 1 < clean.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"corpus\": [\n");
    for (i, r) in corpus.iter().enumerate() {
        let _ = write!(
            s,
            "    {{ \"workload\": \"{}\", \"mode\": \"{}\", \"bug\": \"{}\", \"seed\": {}, \
             \"eligible\": {}, \"manifested\": {}, \"site\": {}, \"expected_class\": \"{}\", \
             \"detected\": {}, \"findings\": {} }}",
            r.kind.name(),
            r.mode.label(),
            r.bug.name(),
            r.seed,
            r.site.is_some(),
            r.manifested,
            r.site
                .as_ref()
                .map_or_else(|| "null".to_owned(), |l| format!("\"{l}\"")),
            expected_class(r.bug),
            r.detected,
            r.findings
        );
        s.push_str(if i + 1 < corpus.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(s, "  ],\n  \"ok\": {ok}\n}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_scale_with_mode() {
        assert_eq!(seeds(true).len(), 1);
        assert_eq!(seeds(false).len(), 2);
    }

    #[test]
    fn race_sites_cover_every_race_bug_once() {
        for bug in SeededBug::RACES {
            assert_eq!(RACE_SITES.iter().filter(|&&(b, _)| b == bug).count(), 1);
        }
        // Quick corpus size per mode: 5 workloads × 3 classic bugs − 1
        // ineligible (swap has no log) + 4 races = 18 eligible
        // detections, planted under each of the 4 corpus mechanisms.
        let classic = WorkloadKind::ALL.len() * SeededBug::CLASSIC.len() - 1;
        assert_eq!(classic + RACE_SITES.len(), 18);
        assert_eq!(corpus_modes().len(), 4);
    }

    #[test]
    fn strict_subtree_mode_excludes_only_pure_hb_races() {
        let mut skipped = 0;
        for mode in corpus_modes() {
            for bug in SeededBug::CLASSIC.into_iter().chain(SeededBug::RACES) {
                if !bug_applies(bug, mode) {
                    assert_eq!(mode, Mode::freij_strict());
                    assert!(bug.is_cross_core());
                    assert_ne!(bug, SeededBug::RelaxedSteal);
                    skipped += 1;
                }
            }
        }
        assert_eq!(skipped, 3);
    }

    #[test]
    fn corpus_modes_are_a_subset_of_the_clean_sweep() {
        // Every mechanism the corpus plants bugs under must also be
        // proven finding-free on the clean traces, or a detection could
        // be a mechanism artifact rather than the planted bug.
        for m in corpus_modes() {
            assert!(modes().contains(&m), "{} missing from clean sweep", m.label());
        }
    }

    #[test]
    fn json_is_balanced_and_carries_the_verdict() {
        let clean = vec![CleanRow {
            kind: WorkloadKind::Swap,
            mode: Mode::baseline(),
            errors: 0,
            smells: 0,
            events: 10,
        }];
        let corpus = vec![CorpusRow {
            kind: WorkloadKind::Swap,
            mode: Mode::phoenix(),
            bug: SeededBug::DroppedFlush,
            seed: 1,
            site: Some("core0:op5:0x1000".to_owned()),
            manifested: true,
            detected: true,
            findings: 1,
        }];
        let j = to_json(ExpSettings::quick(), true, &clean, &corpus, true);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"ok\": true"));
        assert!(j.contains("\"mode\": \"baseline\""));
        assert!(j.contains("\"expected_class\": \"durability\""));
    }

    #[test]
    fn quick_run_on_one_variant_detects() {
        // A focused end-to-end check (the full sweep runs in CI): plant a
        // dropped flush in the swap workload and catch it — under both
        // the historical default mechanism and the Phoenix extension.
        let scale = thoth_psan::DEFAULT_SCALE;
        let annotated =
            spec::generate_annotated(thoth_psan::workload_config(WorkloadKind::Swap, scale));
        for mode in [Mode::thoth_wtsc(), Mode::phoenix()] {
            let v = seed_variant_under(&annotated, SeededBug::DroppedFlush, 1, mode)
                .expect("swap exposes dropped-flush sites");
            let run = thoth_psan::analyze_variant_under(&v, mode);
            assert!(detection(&run, &v).is_some(), "missed under {}", mode.label());
        }
    }
}
