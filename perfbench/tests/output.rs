//! The result line and the artefacts are valid JSON (checked with the
//! in-tree `thoth_telemetry::json::validate`) and carry every digit.

use std::collections::BTreeMap;

use thoth_perfbench::metrics::{number, ResultLine, END_TO_END, PER_LAYER};
use thoth_perfbench::workload::{Params, Size, Workload, SIZING_SEED};
use thoth_perfbench::{artefact_json, parse_args};

fn line(names: &[&'static str]) -> ResultLine {
    ResultLine {
        correct: true,
        attempted: 40,
        failed: 0,
        metrics: names
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, 1.0 / (i as f64 + 3.0)))
            .collect::<BTreeMap<_, _>>(),
    }
}

#[test]
fn result_line_is_valid_json_with_units() {
    for list in [END_TO_END, PER_LAYER] {
        let names: Vec<&'static str> = list.iter().map(|m| m.name).collect();
        let json = line(&names).to_json();
        thoth_telemetry::json::validate(&json).expect("valid result JSON");
        assert!(json.starts_with("{\"correct\":true,\"attempted\":40,\"failed\":0,\"metrics\":{"));
        for m in list {
            let needle = format!("\"{}\":{{\"value\":", m.name);
            assert!(json.contains(&needle), "{} missing", m.name);
            assert!(json.contains(&format!("\"unit\":\"{}\"", m.unit)));
        }
        assert!(!json.contains('\n'));
    }
}

#[test]
fn numbers_keep_every_digit() {
    assert_eq!(number(1.0 / 3.0), "0.3333333333333333");
    assert_eq!(number(2.0), "2.0");
    assert_eq!(number(f64::NAN), "null");
    assert_eq!(number(1e21), "1e21");
}

#[test]
fn artefact_is_valid_json() {
    let params = Params::new(Workload::CrashAudit, SIZING_SEED, Size::Full);
    let samples = vec![
        ("wall_s".to_owned(), 1.5),
        ("wall_s".to_owned(), 1.25),
        ("setup_s".to_owned(), 0.125),
    ];
    let problems = vec!["a \"quoted\" problem".to_owned()];
    let json = artefact_json(&params, &samples, &line(&["wall_s", "setup_s"]), &problems);
    thoth_telemetry::json::validate(&json).expect("valid artefact JSON");
    for key in [
        "\"provenance\":",
        "\"cores\":",
        "\"aes_backend\":",
        "\"sip_backend\":",
        "\"rustc\":",
    ] {
        assert!(json.contains(key), "{key} missing");
    }
    for key in [
        "\"kinds\":[\"hashmap\",\"ctree\",\"swap\"]",
        "\"footprints\":[20000,20000,4]",
        "\"audit_modes\":",
    ] {
        assert!(json.contains(key), "{key} missing");
    }
    assert!(json.contains("\"pinned_digest\":\"0x36d7a7093a3c4148\""));
}

#[test]
fn arguments_parse_and_reject() {
    let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
    let a = args("--workload replay-matrix --seed 0xC0FFEE --seconds 10 --trace 1").expect("valid");
    assert_eq!(a.workload, Workload::ReplayMatrix);
    assert_eq!(a.seed, 0xC0FFEE);
    assert!(a.trace);
    assert_eq!(
        args("--workload headline --seed 7 --seconds 1 --trace 0")
            .expect("valid")
            .seed,
        7
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload headline --seed x --seconds 1 --trace 0",
        "--workload headline --seed 1 --seconds 0 --trace 0",
        "--workload headline --seed 1 --seconds 1 --trace 2",
        "--workload headline --seed 1 --seconds 1",
        "--workload headline --seed 1 --seconds 1 --trace 0 --bogus 3",
    ] {
        assert!(args(bad).is_err(), "{bad} accepted");
    }
}
