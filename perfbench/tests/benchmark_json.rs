//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and catalogued metrics this benchmark runs and emits.

use thoth_perfbench::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use thoth_perfbench::workload::Workload;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The text of the `"key": [...]` array.
fn section<'a>(doc: &'a str, key: &str) -> &'a str {
    let start = doc
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("{key} missing"));
    let rest = &doc[start..];
    &rest[..rest.find(']').expect("array closes")]
}

fn check(doc: &str, key: &str, metrics: &[Metric]) {
    let text = section(doc, key);
    assert_eq!(
        text.matches("\"name\":").count(),
        metrics.len(),
        "{key}: metric count"
    );
    for m in metrics {
        let better = match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            m.name, m.unit
        );
        assert!(text.contains(&entry), "{key}: {entry} missing");
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    thoth_telemetry::json::validate(&doc).expect("valid JSON");
    check(&doc, "end_to_end", END_TO_END);
    check(&doc, "per_layer", PER_LAYER);
    let workloads = section(&doc, "workloads");
    assert_eq!(workloads.matches("\"name\":").count(), Workload::ALL.len());
    for w in Workload::ALL {
        assert!(
            workloads.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{}",
            w.name()
        );
    }
    assert!(doc.contains("\"paths\": [\"perfbench\"]"));
    assert!(doc.contains("\"--manifest-path\", \"perfbench/Cargo.toml\""));
}
