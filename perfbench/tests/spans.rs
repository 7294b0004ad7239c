//! Span self-time arithmetic and the Chrome trace export.

use thoth_perfbench::spans::{
    chrome_trace_json, layer_table, self_time_by_layer, self_times, union_length, Span, SpanLog,
};

fn span(
    name: &'static str,
    layer: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
) -> Span {
    Span {
        name,
        layer,
        start,
        end,
        parent,
        lane: 0,
        job: None,
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn union_merges_overlaps_and_keeps_gaps() {
    assert!(close(union_length(&mut []), 0.0));
    assert!(close(
        union_length(&mut [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]),
        5.0
    ));
    assert!(close(
        union_length(&mut [(7.0, 8.0), (1.0, 3.0), (3.0, 4.0)]),
        4.0
    ));
    assert!(close(union_length(&mut [(0.0, 10.0), (2.0, 3.0)]), 10.0));
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // root [0, 10] with overlapping parallel children [1, 3] and [2, 5],
    // a sequential child [7, 8], and a grandchild [2, 2.5] under the
    // first child.
    let spans = vec![
        span("workload", "bench", 0.0, 10.0, None),
        span("job", "experiments", 1.0, 3.0, Some(0)),
        span("job", "experiments", 2.0, 5.0, Some(0)),
        span("report", "experiments", 7.0, 8.0, Some(0)),
        span("measured", "sim", 2.0, 2.5, Some(1)),
    ];
    let selfs = self_times(&spans);
    assert!(close(selfs[0], 10.0 - 5.0), "root self time {}", selfs[0]);
    assert!(close(selfs[1], 2.0 - 0.5));
    assert!(close(selfs[2], 3.0));
    assert!(close(selfs[3], 1.0));
    assert!(close(selfs[4], 0.5));

    let table = layer_table(&spans);
    let jobs = &table[&("experiments", "job")];
    assert_eq!(jobs.count, 2);
    assert!(close(jobs.total_s, 5.0));
    assert!(close(jobs.self_s, 4.5));
    let by_layer = self_time_by_layer(&spans);
    assert!(close(by_layer["experiments"], 5.5));
    assert!(close(by_layer["sim"], 0.5));
    assert!(close(by_layer["bench"], 5.0));
    // Self times cover the root's interval once, plus the 1 s the two
    // parallel jobs overlap.
    assert!(close(by_layer.values().sum::<f64>(), 10.0 + 1.0));
}

#[test]
fn children_are_clipped_to_their_parent() {
    let spans = vec![
        span("phase", "bench", 1.0, 2.0, None),
        span("leak", "sim", 0.5, 1.5, Some(0)),
    ];
    assert!(close(self_times(&spans)[0], 0.5));
}

#[test]
fn log_nests_and_exports_valid_chrome_json() {
    let log = SpanLog::new();
    let root = log.open("workload", "bench", None, 0, None);
    let out = log.time("generate", "workloads", Some(root), |id| {
        let job = log.open(
            "job",
            "experiments",
            Some(id),
            1,
            Some("hashmap/128/thoth-wtsc".into()),
        );
        log.close(job);
        42
    });
    log.close(root);
    assert_eq!(out, 42);
    let spans = log.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(root));
    assert_eq!(spans[2].parent, Some(1));
    assert!(spans.iter().all(|s| s.end >= s.start));
    assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

    let json = chrome_trace_json(&spans);
    thoth_telemetry::json::validate(&json).expect("valid JSON");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"job\":\"hashmap/128/thoth-wtsc\""));
    assert!(json.contains("\"name\":\"worker-0\""));
}
