//! End-to-end sanitizer validation: the five unmodified workloads check
//! clean, and every seeded-bug variant is caught with exact attribution.

use thoth_psan::{
    analyze_clean, analyze_clean_under, analyze_variant, detection, expected_class, seed_variant,
    FindingClass, DEFAULT_SCALE,
};
use thoth_sim::Mode;
use thoth_workloads::{spec, SeededBug, WorkloadConfig, WorkloadKind};

fn annotated(kind: WorkloadKind) -> thoth_workloads::AnnotatedTrace {
    spec::generate_annotated(WorkloadConfig::paper_default(kind).scaled(DEFAULT_SCALE))
}

#[test]
fn clean_workloads_have_no_durability_or_ordering_findings() {
    for kind in WorkloadKind::ALL {
        let run = analyze_clean(kind, DEFAULT_SCALE);
        let errors: Vec<_> = run
            .report
            .findings
            .iter()
            .filter(|f| !f.class.is_smell())
            .collect();
        assert!(errors.is_empty(), "{kind}: {errors:?}");
        // The dedup'd runtime should also produce no covered-log-append
        // or redundant-flush smells on clean traces.
        assert_eq!(run.report.count(FindingClass::CoveredLogAppend), 0, "{kind}");
        assert_eq!(run.report.count(FindingClass::RedundantFlush), 0, "{kind}");
        // Sanity: the stream actually exercised the machinery.
        assert!(run.report.stats.stores > 0, "{kind}");
        assert!(run.report.stats.commits > 0, "{kind}");
        assert!(run.report.stats.data_accepts > 0, "{kind}");
        assert!(run.report.stats.meta_covers > 0, "{kind}");
        // Swap's footprint is tiny by design: its partial updates keep
        // merging in the PCB and may never seal a PUB block.
        if kind != WorkloadKind::Swap {
            assert!(run.report.stats.pub_appends > 0, "{kind}");
        }
    }
}

#[test]
fn every_seeded_bug_is_caught_at_its_planted_site() {
    let mut detected = 0usize;
    for kind in WorkloadKind::ALL {
        let a = annotated(kind);
        for bug in SeededBug::ALL {
            for seed in [1u64, 2] {
                let Some(v) = seed_variant(&a, bug, seed) else {
                    // Swap is log-free: no swapped-log-data site exists.
                    assert_eq!(
                        (kind, bug),
                        (WorkloadKind::Swap, SeededBug::SwappedLogData),
                        "only swap/swapped-log-data may lack a site"
                    );
                    continue;
                };
                let run = analyze_variant(&v);
                let hit = detection(&run, &v);
                assert!(
                    hit.is_some(),
                    "{kind}/{bug} seed {seed}: expected a {} finding at core {} op {} \
                     addr {:#x}; got {:?}",
                    expected_class(bug),
                    v.site.core,
                    v.site.op,
                    v.site.addr,
                    run.report.findings
                );
                detected += 1;
            }
        }
    }
    // 5 workloads × 7 bugs × 2 seeds, minus the 2 impossible swap combos.
    assert_eq!(detected, 68);
}

#[test]
fn seeded_variants_do_not_drown_the_signal() {
    // A single planted single-core bug should produce a small,
    // attributable finding set — not an avalanche of spurious reports.
    // Cross-core races legitimately fan out (TSan-style, every racing
    // endpoint pair reports), so those only need a bounded total.
    let a = annotated(WorkloadKind::Btree);
    for bug in SeededBug::ALL {
        let v = seed_variant(&a, bug, 5).expect("site");
        let run = analyze_variant(&v);
        let errors = run
            .report
            .findings
            .iter()
            .filter(|f| !f.class.is_smell())
            .count();
        match bug {
            SeededBug::DoubleFlush => {
                assert_eq!(errors, 0, "a double flush is a smell, not an error");
            }
            _ if bug.is_cross_core() => assert!(
                (1..=128).contains(&errors),
                "{bug}: {errors} error findings"
            ),
            _ => assert!(
                (1..=4).contains(&errors),
                "{bug}: {errors} error findings"
            ),
        }
    }
}

#[test]
fn clean_sweep_is_silent_under_every_mechanism() {
    // Mechanism neutrality: a clean program must check clean no matter
    // which persistence mechanism runs underneath — a mode-dependent
    // finding would mean the checker models the mechanism, not the
    // program. Six workloads (the paper's five plus the multi-tenant
    // service) under all four modes.
    let modes = [
        Mode::baseline(),
        Mode::thoth_wtsc(),
        Mode::thoth_wtbc(),
        Mode::AnubisEcc,
    ];
    for kind in WorkloadKind::ALL.into_iter().chain([WorkloadKind::Service]) {
        for mode in modes {
            let run = analyze_clean_under(kind, DEFAULT_SCALE, mode);
            assert!(
                run.report.findings.is_empty(),
                "{kind} under {}: {:?}",
                mode.label(),
                run.report.findings
            );
            assert!(run.report.stats.events > 0, "{kind}/{}", mode.label());
        }
    }
}
