//! Structured progress reporting for long-running job batches.
//!
//! The experiments runner used to format its per-job progress lines
//! inline with `eprintln!`; routing them through a [`ProgressSink`]
//! keeps the format in one testable place and gives callers a capture
//! mode (tests assert on the exact lines instead of scraping stderr).

use std::fmt::Debug;
use std::io::Write as _;
use std::time::Duration;

/// Where progress lines go.
#[derive(Debug)]
pub enum ProgressSink {
    /// Write each line to stderr as it arrives (the CLI default).
    Stderr,
    /// Collect lines in memory (for tests and quiet embedders).
    Capture(Vec<String>),
}

impl ProgressSink {
    /// Reports one finished job out of `total`. `estimate` is the
    /// scheduler's predicted wall time for the job (from its cost model,
    /// calibrated on the batch's completed jobs); `None` before any
    /// calibration exists. Printing both makes cost-model drift visible
    /// in the progress stream itself.
    pub fn job_done<K: Debug>(
        &mut self,
        done: usize,
        total: usize,
        key: &K,
        elapsed: Duration,
        estimate: Option<Duration>,
    ) {
        let est = match estimate {
            Some(e) => format!("est {e:.2?}"),
            None => "est n/a".to_owned(),
        };
        self.line(format!(
            "[thoth-experiments] job {done}/{total} {key:?} finished in {elapsed:.2?} ({est})"
        ));
    }

    /// Emits one raw progress line.
    pub fn line(&mut self, msg: String) {
        match self {
            ProgressSink::Stderr => {
                // Best-effort, matching eprintln's behaviour of ignoring
                // a broken stderr.
                let _ = writeln!(std::io::stderr(), "{msg}");
            }
            ProgressSink::Capture(lines) => lines.push(msg),
        }
    }

    /// Captured lines (empty for the stderr sink).
    #[must_use]
    pub fn lines(&self) -> &[String] {
        match self {
            ProgressSink::Stderr => &[],
            ProgressSink::Capture(lines) => lines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_records_formatted_lines() {
        let mut sink = ProgressSink::Capture(Vec::new());
        sink.job_done(2, 10, &("btree", 64), Duration::from_millis(1500), None);
        assert_eq!(sink.lines().len(), 1);
        let line = &sink.lines()[0];
        assert!(line.starts_with("[thoth-experiments] job 2/10 (\"btree\", 64) finished in "));
        assert!(line.contains("1.50s"));
        assert!(line.contains("(est n/a)"), "uncalibrated jobs say so: {line}");
    }

    #[test]
    fn estimates_appear_next_to_actuals() {
        let mut sink = ProgressSink::Capture(Vec::new());
        sink.job_done(
            3,
            10,
            &"swap",
            Duration::from_millis(250),
            Some(Duration::from_millis(230)),
        );
        let line = &sink.lines()[0];
        assert!(line.contains("finished in 250"));
        assert!(line.contains("(est 230"), "estimate printed: {line}");
    }

    #[test]
    fn stderr_sink_captures_nothing() {
        let sink = ProgressSink::Stderr;
        assert!(sink.lines().is_empty());
    }
}
