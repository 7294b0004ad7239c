//! The determinism contract behind every optimization in this repo:
//!
//! 1. the parallel job runner produces byte-identical reports to a strict
//!    sequential replay of the same jobs, and
//! 2. per-run telemetry depends only on the run, not on process state
//!    left behind by earlier job batches.
//!
//! The third leg — the headline matrix digests to a pinned golden value,
//! so "faster" can never silently become "different" — lives with the
//! pin table in `headline.rs` and is checked by every `headline` run.

use std::sync::Arc;
use thoth_experiments::headline::{matrix_digest, matrix_jobs, HeadlineRuns};
use thoth_experiments::runner::{
    run_jobs, run_jobs_sequential, sim_config, ExpSettings, Job, TraceCache,
};
use thoth_sim::{Mode, SecureNvm, TelemetryConfig};
use thoth_workloads::WorkloadKind;

#[test]
fn parallel_and_sequential_runs_agree() {
    let mut cache = TraceCache::new(ExpSettings::quick());
    let par: HeadlineRuns = run_jobs(matrix_jobs(&mut cache)).into_iter().collect();
    let seq: HeadlineRuns = run_jobs_sequential(matrix_jobs(&mut cache))
        .into_iter()
        .collect();
    assert_eq!(par.len(), seq.len());
    for (key, report) in &par {
        assert_eq!(
            report.digest(),
            seq[key].digest(),
            "parallel and sequential reports diverge for {key:?}"
        );
    }
    assert_eq!(matrix_digest(&par), matrix_digest(&seq));
}

#[test]
fn telemetry_counters_ignore_earlier_job_batches() {
    let mut cache = TraceCache::new(ExpSettings::quick());
    let trace = cache.get(WorkloadKind::Swap, 64);
    let counters = || {
        let mut m = SecureNvm::new(sim_config(Mode::thoth_wtsc(), 128));
        let (_, telem) = m.run_telemetry(&trace, &TelemetryConfig::counters_only());
        telem.registry.counters_csv()
    };
    let before = counters();
    // Submitted cheapest-first: with two or more workers the scheduler
    // pulls the Thoth job (higher cost weight) ahead of the baseline one.
    let jobs = [Mode::baseline(), Mode::thoth_wtsc()].map(|mode| Job {
        key: mode.label(),
        config: sim_config(mode, 128),
        trace: Arc::clone(&trace),
    });
    let _ = run_jobs(jobs.into());
    assert_eq!(before, counters(), "a job batch leaked into telemetry");
}
