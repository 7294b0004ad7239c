//! Host-time spans recorded by the benchmark around calls into each
//! layer's public functions.
//!
//! Spans live in memory (name, layer, start, end, parent, lane, job id)
//! and are written out once the traced run ends: as Chrome `trace_event`
//! JSON (the `{"traceEvents": [...]}` shape the simulated-time
//! `SpanTracer` of `thoth-telemetry` emits, plus an `args` object
//! carrying the layer, parent and job) and as a per-layer self-time
//! table. A span's self time is its duration minus the part of its
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One recorded span. Times are seconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran (`generate`, `warm_up`, `measured`, ...).
    pub name: &'static str,
    /// The workspace crate whose public function the span times.
    pub layer: &'static str,
    /// Start, seconds since the log's origin.
    pub start: f64,
    /// End, seconds since the log's origin (`start` while open).
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Thread lane: 0 is the driving thread, `1 + w` is worker `w`.
    pub lane: usize,
    /// Simulation job the span belongs to, as `kind/block/mode`.
    pub job: Option<String>,
}

impl Span {
    /// Wall duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe in-memory span recorder.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        lane: usize,
        job: Option<String>,
    ) -> SpanId {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent,
            lane,
            job,
        });
        spans.len() - 1
    }

    /// Closes span `id` at the current time.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.spans.lock().expect("span log poisoned by a panic")[id].end = end;
    }

    /// Runs `f` inside a span on the driving lane, passing it the span id
    /// so nested calls can name it as their parent.
    pub fn time<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(name, layer, parent, 0, None);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panic")
            .clone()
    }
}

/// Total length of the union of `intervals` (each `(start, end)`).
#[must_use]
pub fn union_length(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are never NaN"));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent's own interval).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.duration() - union_length(kids)).max(0.0))
        .collect()
}

/// One row of the per-layer table: a `(layer, span name)` pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    /// Spans aggregated into the row.
    pub count: usize,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
}

/// Aggregates spans by `(layer, name)`.
#[must_use]
pub fn layer_table(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerRow> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<(&'static str, &'static str), LayerRow> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(selfs) {
        let row = table.entry((s.layer, s.name)).or_default();
        row.count += 1;
        row.total_s += s.duration();
        row.self_s += self_s;
    }
    table
}

/// Self time summed per layer.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for ((layer, _), row) in layer_table(spans) {
        *out.entry(layer).or_insert(0.0) += row.self_s;
    }
    out
}

/// Renders the per-layer table as aligned text.
#[must_use]
pub fn render_layer_table(spans: &[Span]) -> String {
    let table = layer_table(spans);
    let by_layer = self_time_by_layer(spans);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<22} {:>7} {:>11} {:>11}",
        "layer", "span", "count", "total [s]", "self [s]"
    );
    for ((layer, name), row) in &table {
        let _ = writeln!(
            out,
            "{layer:<12} {name:<22} {:>7} {:>11.4} {:>11.4}",
            row.count, row.total_s, row.self_s
        );
    }
    let _ = writeln!(out, "\n{:<12} {:>11}", "layer", "self [s]");
    for (layer, self_s) in &by_layer {
        let _ = writeln!(out, "{layer:<12} {self_s:>11.4}");
    }
    out
}

/// Exports the spans as Chrome `trace_event` JSON: one complete (`"X"`)
/// event per span, timestamps in microseconds, `tid` = lane, with the
/// layer, parent index and job id under `args`.
#[must_use]
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let esc = thoth_telemetry::json::escape;
    let mut out = String::from("{\"traceEvents\":[");
    let mut lanes: Vec<usize> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut first = true;
    let mut push = |out: &mut String, item: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&item);
    };
    for lane in lanes {
        let name = if lane == 0 {
            "main".to_owned()
        } else {
            format!("worker-{}", lane - 1)
        };
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{lane},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let job = s
            .job
            .as_deref()
            .map_or_else(|| "null".to_owned(), |j| format!("\"{}\"", esc(j)));
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{i},\"layer\":\"{}\",\"parent\":{parent},\
                 \"job\":{job}}}}}",
                s.lane,
                esc(s.name),
                s.start * 1e6,
                s.duration() * 1e6,
                esc(s.layer),
            ),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}
