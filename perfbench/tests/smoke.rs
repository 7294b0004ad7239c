//! Tiny-size runs of every workload, untraced and traced: each emits
//! exactly its catalogued metrics with their units, passes its checks,
//! and writes its artefacts.

use std::path::PathBuf;

use thoth_perfbench::metrics::{END_TO_END, PER_LAYER};
use thoth_perfbench::workload::{
    run_once, Params, Size, Tracer, Workload, HELD_BACK_SEED, SIZING_SEED,
};
use thoth_perfbench::{run, Args};

/// The golden quick-matrix digest: the tiny `headline` is exactly
/// `thoth-experiments perf --quick`'s matrix.
const GOLDEN_QUICK: u64 = 0xaa9d_df0c_ed97_6c32;

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn smoke(workload: Workload, trace: bool) {
    let tag = format!("{}-{}", workload.name(), u8::from(trace));
    let args = Args {
        workload,
        seed: SIZING_SEED,
        seconds: 0.01,
        trace,
        out_dir: out_dir(&tag),
        size: Size::Tiny,
    };
    let result = run(&args).expect("benchmark ran");
    assert!(result.correct, "{tag}: checks failed");
    assert_eq!(result.failed, 0);
    assert!(result.attempted > 0);
    let want = if trace { PER_LAYER } else { END_TO_END };
    let mut names: Vec<&str> = result.metrics.keys().copied().collect();
    let mut expected: Vec<&str> = want.iter().map(|m| m.name).collect();
    names.sort_unstable();
    expected.sort_unstable();
    assert_eq!(names, expected, "{tag}: metric set");
    let json = result.to_json();
    for m in want {
        let entry = format!("\"{}\":{{\"value\":", m.name);
        let at = json
            .find(&entry)
            .unwrap_or_else(|| panic!("{tag}: {} missing", m.name));
        let unit = format!("\"unit\":\"{}\"}}", m.unit);
        assert!(
            json[at..].starts_with(&entry) && json[at..].contains(&unit),
            "{tag}: {} unit",
            m.name
        );
        assert!(
            result.metrics[m.name].is_finite(),
            "{tag}: {} not finite",
            m.name
        );
    }
    let name = workload.name();
    let dir = &args.out_dir;
    assert!(dir.join(format!("{name}-tables.txt")).exists());
    if trace {
        let spans =
            std::fs::read_to_string(dir.join(format!("{name}-trace.json"))).expect("span file");
        thoth_telemetry::json::validate(&spans).expect("span file is JSON");
        let table =
            std::fs::read_to_string(dir.join(format!("{name}-layers.txt"))).expect("layer table");
        assert!(table.contains("self [s]"));
        assert!(result.metrics["bench.span_coverage"] >= thoth_perfbench::MIN_SPAN_COVERAGE);
        assert!(dir.join(format!("{name}-traced.json")).exists());
    } else {
        assert!(dir.join(format!("{name}-result.json")).exists());
    }
}

#[test]
fn headline_untraced() {
    smoke(Workload::Headline, false);
}

#[test]
fn headline_traced() {
    smoke(Workload::Headline, true);
}

#[test]
fn replay_matrix_untraced() {
    smoke(Workload::ReplayMatrix, false);
}

#[test]
fn replay_matrix_traced() {
    smoke(Workload::ReplayMatrix, true);
}

#[test]
fn crash_audit_untraced() {
    smoke(Workload::CrashAudit, false);
}

#[test]
fn crash_audit_traced() {
    smoke(Workload::CrashAudit, true);
}

#[test]
fn tiny_headline_is_the_golden_quick_matrix() {
    let params = Params::new(Workload::Headline, SIZING_SEED, Size::Tiny);
    let (sample, _) = run_once(&params, Tracer::off(), &out_dir("golden"));
    assert_eq!(sample.failed, 0, "{:?}", sample.problems);
    assert_eq!(
        sample.digest, GOLDEN_QUICK,
        "digest {:#018x}",
        sample.digest
    );
}

#[test]
fn held_back_seed_passes_every_check() {
    for workload in Workload::ALL {
        let params = Params::new(workload, HELD_BACK_SEED, Size::Tiny);
        let (sample, _) = run_once(&params, Tracer::off(), &out_dir("held-back"));
        assert_eq!(params.pinned_digest(), None);
        assert_eq!(
            sample.failed,
            0,
            "{}: {:?}",
            workload.name(),
            sample.problems
        );
        assert_eq!(sample.attempted, params.ops_per_run());
    }
}
