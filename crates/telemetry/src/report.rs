//! The live sink a run records into, and the immutable report it yields.
//!
//! [`TelemetrySink`] bundles the registry, the epoch timeline, and the
//! optional tracer; the simulator owns one only when telemetry is
//! enabled, so every hook is gated by a single `Option` check.
//! [`TelemetrySink::finish`] freezes it into a [`TelemetryReport`] whose
//! CSV/JSON renderers the experiments runner writes to
//! `results/telemetry/`.

use crate::registry::Registry;
use crate::timeline::Timeline;
use crate::tracer::SpanTracer;
use crate::{QueueProbe, TelemetryConfig};

/// End-of-run summary of one [`QueueProbe`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSummary {
    /// Queue name.
    pub name: &'static str,
    /// Queue capacity.
    pub capacity: u64,
    /// Highest recorded occupancy.
    pub peak: u64,
    /// Number of occupancy samples.
    pub samples: u64,
    /// Mean recorded occupancy.
    pub mean: f64,
}

/// The mutable recording state for one instrumented run.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    config: TelemetryConfig,
    /// Counters and histograms.
    pub registry: Registry,
    /// Epoch-sampled series.
    pub timeline: Timeline,
    /// Span tracer (present only when [`TelemetryConfig::trace`] is set).
    pub tracer: Option<SpanTracer>,
    next_sample: u64,
    probes: Vec<ProbeSummary>,
}

impl TelemetrySink {
    /// A sink for `config` with the given timeline columns.
    #[must_use]
    pub fn new(config: TelemetryConfig, columns: &[&'static str]) -> Self {
        TelemetrySink {
            config,
            registry: Registry::new(),
            timeline: Timeline::new(columns),
            tracer: config.trace.then(|| SpanTracer::new(config.trace_cap)),
            next_sample: 0,
            probes: Vec::new(),
        }
    }

    /// The configuration this sink was created with.
    #[must_use]
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// `true` when a timeline sample is due at `now`.
    #[must_use]
    pub fn sample_due(&self, now: u64) -> bool {
        now >= self.next_sample
    }

    /// Advances the sampling deadline past `now` (call after pushing the
    /// row for this epoch).
    pub fn advance_epoch(&mut self, now: u64) {
        let epoch = self.config.epoch_cycles.max(1);
        while self.next_sample <= now {
            self.next_sample += epoch;
        }
    }

    /// Records a probe's end-of-run summary (harvest step).
    pub fn absorb_probe(&mut self, probe: &QueueProbe) {
        self.probes.push(ProbeSummary {
            name: probe.name(),
            capacity: probe.capacity(),
            peak: probe.peak(),
            samples: probe.samples(),
            mean: probe.hist().mean(),
        });
    }

    /// Freezes the sink into an immutable report.
    #[must_use]
    pub fn finish(self) -> TelemetryReport {
        let (trace_json, trace_dropped, trace_well_nested) = match self.tracer {
            Some(t) => (Some(t.to_trace_json()), t.dropped(), t.well_nested()),
            None => (None, 0, true),
        };
        TelemetryReport {
            registry: self.registry,
            timeline: self.timeline,
            probes: self.probes,
            trace_json,
            trace_dropped,
            trace_well_nested,
        }
    }
}

/// Everything one instrumented run recorded.
#[derive(Debug)]
pub struct TelemetryReport {
    /// Final counter and histogram values.
    pub registry: Registry,
    /// The epoch-sampled timeline.
    pub timeline: Timeline,
    /// Per-queue occupancy summaries.
    pub probes: Vec<ProbeSummary>,
    /// Chrome `trace_event` JSON, when tracing was on.
    pub trace_json: Option<String>,
    /// Events the tracer discarded after hitting its cap.
    pub trace_dropped: u64,
    /// Verdict of [`SpanTracer::well_nested`] at freeze time (`true` when
    /// tracing was off) — spans on every lane were properly nested with
    /// per-lane monotone timestamps.
    pub trace_well_nested: bool,
}

impl TelemetryReport {
    /// Probe summaries as CSV (`queue,capacity,peak,samples,mean`).
    #[must_use]
    pub fn probes_csv(&self) -> String {
        let mut s = String::from("queue,capacity,peak,samples,mean\n");
        for p in &self.probes {
            s.push_str(&format!(
                "{},{},{},{},{:.3}\n",
                p.name, p.capacity, p.peak, p.samples, p.mean
            ));
        }
        s
    }

    /// Writes the report's artifacts into `dir` as
    /// `<prefix>-timeline.csv`, `<prefix>-counters.csv`,
    /// `<prefix>-hists.csv`, `<prefix>-queues.csv`, and (when tracing)
    /// `<prefix>-trace.json`. Returns the file names written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_dir(
        &self,
        dir: &std::path::Path,
        prefix: &str,
    ) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let mut emit = |name: String, body: &str| -> std::io::Result<()> {
            std::fs::write(dir.join(&name), body)?;
            written.push(name);
            Ok(())
        };
        emit(format!("{prefix}-timeline.csv"), &self.timeline.to_csv())?;
        emit(format!("{prefix}-counters.csv"), &self.registry.counters_csv())?;
        emit(format!("{prefix}-hists.csv"), &self.registry.hists_csv())?;
        emit(format!("{prefix}-queues.csv"), &self.probes_csv())?;
        if let Some(trace) = &self.trace_json {
            emit(format!("{prefix}-trace.json"), trace)?;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_advancing() {
        let config = TelemetryConfig {
            enabled: true,
            epoch_cycles: 100,
            ..TelemetryConfig::default()
        };
        let mut sink = TelemetrySink::new(config, &["x"]);
        assert!(sink.sample_due(0));
        sink.advance_epoch(0);
        assert!(!sink.sample_due(99));
        assert!(sink.sample_due(100));
        sink.advance_epoch(357);
        assert!(!sink.sample_due(399));
        assert!(sink.sample_due(400));
    }

    #[test]
    fn finish_carries_probe_and_trace_state() {
        let mut sink = TelemetrySink::new(TelemetryConfig::full(), &["occ"]);
        let mut probe = QueueProbe::new("wpq", 64);
        probe.record(5);
        probe.record(9);
        sink.absorb_probe(&probe);
        sink.timeline.push(0, &[5.0]);
        let lane = sink.tracer.as_mut().expect("tracing on").lane("memctrl");
        sink.tracer.as_mut().expect("tracing on").instant(lane, "tick", 3);
        let report = sink.finish();
        assert_eq!(report.probes.len(), 1);
        assert_eq!(report.probes[0].peak, 9);
        assert!(report.probes_csv().contains("wpq,64,9,2,7.000\n"));
        let trace = report.trace_json.expect("trace present");
        crate::json::validate(&trace).expect("valid trace JSON");
        assert_eq!(report.trace_dropped, 0);
        assert!(report.trace_well_nested);
    }

    #[test]
    fn counters_only_has_no_tracer() {
        let sink = TelemetrySink::new(TelemetryConfig::counters_only(), &[]);
        assert!(sink.tracer.is_none());
        assert!(sink.finish().trace_json.is_none());
    }
}
