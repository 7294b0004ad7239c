//! The three benchmark workloads and one run of each.
//!
//! All three are batch runs: a fixed input, generated from the seed,
//! runs to completion in one process. Plain simulation jobs go through
//! `thoth_experiments::runner::run_jobs`, the path `thoth-experiments
//! headline` uses; the traced run replays the same jobs itself through
//! `SecureNvm::warm_boot` / `WarmBoot::run` so warm-up and measured
//! phases get separate spans.
//!
//! * `headline` — exactly the matrix of `thoth-experiments headline
//!   --scale 0.1`: 5 paper workloads × {128, 256} B × {baseline,
//!   thoth-wtsc, thoth-wtbc, anubis-ecc}. Trace generation dominates.
//! * `replay-matrix` — hashmap at the paper footprint plus swap, with
//!   long traces, under all 8 mechanisms × {128, 256} B. Replay
//!   dominates; hashmap misses in the metadata caches, swap stays
//!   resident in them.
//! * `crash-audit` — hashmap and ctree at a shrunk footprint plus swap,
//!   each under `thoth_experiments::crashtest::sweep_modes()`: a psan
//!   run and check, a full-functional run → crash → recover, and
//!   sampled crash-point cases through `thoth_crashtest::run_case`.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use thoth_crashtest::run_case;
use thoth_experiments::crashtest::sweep_modes;
use thoth_experiments::headline::{self, matrix_digest, HeadlineRuns};
use thoth_experiments::runner::{job_cost, run_jobs, sim_config, ExpSettings, Job};
use thoth_experiments::tablefmt::Table;
use thoth_experiments::{amean, gmean};
use thoth_nvm::FaultConfig;
use thoth_psan::check_events;
use thoth_sim::{
    byte_digest, CrashPlan, CrashSiteKind, FunctionalMode, Mode, SecureNvm, SimConfig, SimReport,
};
use thoth_sim_engine::DetRng;
use thoth_workloads::{spec, MultiCoreTrace, OpClass, WorkloadConfig, WorkloadKind};

use crate::host;
use crate::spans::{SpanId, SpanLog};

/// The seed the workloads were sized on; the digests are pinned here.
pub const SIZING_SEED: u64 = 0xC0FFEE;

/// A seed held back from sizing: the checks must hold on it too.
pub const HELD_BACK_SEED: u64 = 0x2026_1017;

/// Trace scale of `replay-matrix` (transactions per core × 1.0 = 1000
/// warm-up + 2000 measured).
pub const REPLAY_MATRIX_SCALE: f64 = 1.0;

/// Trace scale of `crash-audit`.
pub const CRASH_AUDIT_SCALE: f64 = 0.5;

/// Keyspace of the shrunk `crash-audit` tree/hash workloads.
pub const CRASH_AUDIT_FOOTPRINT: u64 = 20_000;

/// Sampled crash-point cases per (trace, mechanism) in `crash-audit`.
pub const CRASH_CASES: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper-figure matrix at scale 0.1.
    Headline,
    /// Long hashmap + swap traces under every mechanism.
    ReplayMatrix,
    /// Sanitizer, recovery and crash-point audits.
    CrashAudit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Headline,
        Workload::ReplayMatrix,
        Workload::CrashAudit,
    ];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Headline => "headline",
            Workload::ReplayMatrix => "replay-matrix",
            Workload::CrashAudit => "crash-audit",
        }
    }

    /// Parses a name produced by [`Self::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload digest at [`SIZING_SEED`] and full size. `headline`
    /// folds with `headline::matrix_digest` and equals the repository's
    /// scale-0.1 pin.
    #[must_use]
    pub fn pin(self) -> u64 {
        match self {
            Workload::Headline => 0x7a4d_2eee_8b41_f3a6,
            Workload::ReplayMatrix => 0xc2b2_198a_be77_1dd3,
            Workload::CrashAudit => 0x36d7_a709_3a3c_4148,
        }
    }
}

/// Input size: the benchmark's own, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Quick-scale inputs (seconds in a debug build).
    Tiny,
}

/// A plain job's key: (workload kind, block bytes, mode label).
pub type Key = (String, usize, String);

/// Everything that defines one workload's inputs and jobs.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Generation seed.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Trace scale (transactions per core relative to 1000 + 2000).
    pub scale: f64,
    /// One generation config per trace kind.
    pub gens: Vec<WorkloadConfig>,
    /// Block sizes of the plain jobs.
    pub blocks: Vec<usize>,
    /// Mechanisms of the plain jobs.
    pub modes: Vec<Mode>,
    /// Mechanisms every trace is audited under (`crash-audit` only).
    pub audit_modes: Vec<Mode>,
    /// Crash-point cases per (trace, audited mechanism).
    pub crash_cases: usize,
}

impl Params {
    /// The parameters of `workload` at `seed` and `size`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, size: Size) -> Params {
        let tiny = size == Size::Tiny;
        match workload {
            Workload::Headline => {
                let scale = if tiny { 0.02 } else { 0.1 };
                let settings = ExpSettings { scale, seed };
                Params {
                    workload,
                    seed,
                    size,
                    scale,
                    gens: WorkloadKind::ALL
                        .iter()
                        .map(|&k| settings.workload(k, 128))
                        .collect(),
                    blocks: vec![128, 256],
                    modes: vec![
                        Mode::baseline(),
                        Mode::thoth_wtsc(),
                        Mode::thoth_wtbc(),
                        Mode::AnubisEcc,
                    ],
                    audit_modes: Vec::new(),
                    crash_cases: 0,
                }
            }
            Workload::ReplayMatrix => {
                let scale = if tiny { 0.02 } else { REPLAY_MATRIX_SCALE };
                let settings = ExpSettings { scale, seed };
                Params {
                    workload,
                    seed,
                    size,
                    scale,
                    gens: [WorkloadKind::Hashmap, WorkloadKind::Swap]
                        .iter()
                        .map(|&k| settings.workload(k, 128))
                        .collect(),
                    blocks: vec![128, 256],
                    modes: Mode::ALL.to_vec(),
                    audit_modes: Vec::new(),
                    crash_cases: 0,
                }
            }
            Workload::CrashAudit => {
                let scale = if tiny { 0.02 } else { CRASH_AUDIT_SCALE };
                let footprint = if tiny { 2_000 } else { CRASH_AUDIT_FOOTPRINT };
                let gens = [
                    WorkloadKind::Hashmap,
                    WorkloadKind::Ctree,
                    WorkloadKind::Swap,
                ]
                .iter()
                .map(|&kind| {
                    let mut cfg = WorkloadConfig::paper_default(kind).scaled(scale);
                    cfg.seed = seed;
                    if kind != WorkloadKind::Swap {
                        cfg.footprint = footprint;
                        cfg.prepopulate = footprint / 2;
                    }
                    cfg
                })
                .collect();
                Params {
                    workload,
                    seed,
                    size,
                    scale,
                    gens,
                    blocks: vec![128],
                    modes: vec![Mode::baseline(), Mode::thoth_wtsc()],
                    audit_modes: sweep_modes().to_vec(),
                    crash_cases: CRASH_CASES,
                }
            }
        }
    }

    /// Machine configuration of a plain job. `crash-audit` uses the
    /// sanitizer's configuration (fast functional mode, no PUB prefill,
    /// 64 KiB PUB) so its plain runs compare with its psan runs.
    #[must_use]
    pub fn job_config(&self, mode: Mode, block: usize) -> SimConfig {
        match self.workload {
            Workload::CrashAudit => thoth_psan::sim_config_for(mode),
            _ => sim_config(mode, block),
        }
    }

    /// Machine configuration of the recovery audit of `mode`: the
    /// sanitizer's configuration (no prefill, 64 KiB PUB, default eviction
    /// threshold) in full functional mode, so every audit step of a trace
    /// runs the same machine. The crash sweep's own 8 KiB PUB with a 20%
    /// threshold is not used: thoth-wtsc does not always recover under it
    /// on these traces (see the README's known defects).
    #[must_use]
    pub fn audit_config(&self, mode: Mode) -> SimConfig {
        let mut cfg = thoth_psan::sim_config_for(mode);
        cfg.functional = FunctionalMode::Full;
        cfg
    }

    /// The digest this run must reproduce, when it has one.
    #[must_use]
    pub fn pinned_digest(&self) -> Option<u64> {
        (self.seed == SIZING_SEED && self.size == Size::Full).then(|| self.workload.pin())
    }

    /// Plain jobs per run.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.gens.len() * self.blocks.len() * self.modes.len()
    }

    /// Operations per run: plain jobs plus, per (trace, audited mode),
    /// one psan check, one full-functional job, one recovery and the
    /// crash cases.
    #[must_use]
    pub fn ops_per_run(&self) -> u64 {
        (self.job_count() + self.gens.len() * self.audit_modes.len() * (3 + self.crash_cases))
            as u64
    }

    /// JSON object describing the inputs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let list = |items: Vec<String>| items.join(",");
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"size\":\"{:?}\",\"scale\":{},\
             \"kinds\":[{}],\"footprints\":[{}],\"prepopulate\":[{}],\"tx_size\":{},\
             \"blocks\":[{}],\"modes\":[{}],\"audit_modes\":[{}],\"crash_cases\":{},\
             \"pinned_digest\":{}}}",
            self.workload.name(),
            self.seed,
            self.size,
            self.scale,
            list(
                self.gens
                    .iter()
                    .map(|g| format!("\"{}\"", g.kind))
                    .collect()
            ),
            list(self.gens.iter().map(|g| g.footprint.to_string()).collect()),
            list(
                self.gens
                    .iter()
                    .map(|g| g.prepopulate.to_string())
                    .collect()
            ),
            self.gens[0].tx_size,
            list(self.blocks.iter().map(ToString::to_string).collect()),
            list(
                self.modes
                    .iter()
                    .map(|m| format!("\"{}\"", m.label()))
                    .collect()
            ),
            list(
                self.audit_modes
                    .iter()
                    .map(|m| format!("\"{}\"", m.label()))
                    .collect()
            ),
            self.crash_cases,
            self.pinned_digest()
                .map_or_else(|| "null".to_owned(), |d| format!("\"{d:#018x}\"")),
        )
    }
}

/// Optional span recording: a log plus the parent new spans attach to.
#[derive(Clone, Copy)]
pub struct Tracer<'a> {
    log: Option<&'a SpanLog>,
    parent: Option<SpanId>,
}

impl<'a> Tracer<'a> {
    /// Records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            log: None,
            parent: None,
        }
    }

    /// Records into `log` under `parent`.
    #[must_use]
    pub fn on(log: &'a SpanLog, parent: Option<SpanId>) -> Self {
        Tracer {
            log: Some(log),
            parent,
        }
    }

    /// Runs `f` inside a span (when recording), handing it a tracer for
    /// nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(Tracer<'a>) -> T,
    ) -> T {
        match self.log {
            None => f(*self),
            Some(log) => log.time(name, layer, self.parent, |id| f(Tracer::on(log, Some(id)))),
        }
    }
}

/// One generated trace.
pub struct Input {
    /// Generation config.
    pub config: WorkloadConfig,
    /// The trace, shared by every job replaying it.
    pub trace: Arc<MultiCoreTrace>,
    /// Per-op classes (`crash-audit` only; the sanitizer needs them).
    pub classes: Option<Vec<Vec<OpClass>>>,
}

impl Input {
    /// Ops one whole-trace replay executes (warm-up included).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.trace.cores.iter().map(|c| c.len() as u64).sum()
    }
}

/// Generates every trace of `params`, each in its own `workloads` span.
pub fn generate(params: &Params, tracer: Tracer<'_>) -> Vec<Input> {
    params
        .gens
        .iter()
        .map(|&config| {
            tracer.span(config.kind.name(), "workloads", |_| {
                if params.audit_modes.is_empty() {
                    Input {
                        config,
                        trace: Arc::new(spec::generate(config)),
                        classes: None,
                    }
                } else {
                    let annotated = spec::generate_annotated(config);
                    Input {
                        config,
                        trace: Arc::new(annotated.trace),
                        classes: Some(annotated.classes),
                    }
                }
            })
        })
        .collect()
}

/// The plain jobs of `params` over `inputs`, in headline order (kind,
/// block, mode).
#[must_use]
pub fn jobs(params: &Params, inputs: &[Input]) -> Vec<Job<Key>> {
    let mut out = Vec::with_capacity(params.job_count());
    for input in inputs {
        for &block in &params.blocks {
            for &mode in &params.modes {
                out.push(Job {
                    key: (
                        input.config.kind.name().to_owned(),
                        block,
                        mode.label().to_owned(),
                    ),
                    config: params.job_config(mode, block),
                    trace: input.trace.clone(),
                });
            }
        }
    }
    out
}

/// A traced job's result and its submission index.
struct TracedJob {
    index: usize,
    key: Key,
    report: SimReport,
}

/// Replays `jobs` on as many worker threads as `run_jobs` would use, in
/// its longest-first order, splitting each into a `warm_up` span
/// (`SecureNvm::warm_boot`) and a `measured` span (`WarmBoot::run`).
/// Results come back in submission order.
fn replay_traced(
    jobs: Vec<Job<Key>>,
    log: &SpanLog,
    parent: Option<SpanId>,
) -> Vec<(Key, SimReport)> {
    let workers = host::cores().min(jobs.len().max(1));
    let mut order: Vec<(usize, Job<Key>)> = jobs.into_iter().enumerate().collect();
    order.sort_by_key(|(_, job)| std::cmp::Reverse(job_cost(job)));
    let queue = Mutex::new(VecDeque::from(order));
    let done: Mutex<Vec<TracedJob>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (queue, done) = (&queue, &done);
            scope.spawn(move || loop {
                let item = queue
                    .lock()
                    .expect("job queue poisoned by a panic")
                    .pop_front();
                let Some((index, job)) = item else { break };
                let label = format!("{}/{}/{}", job.key.0, job.key.1, job.key.2);
                let lane = 1 + w;
                let span = log.open("job", "experiments", parent, lane, Some(label.clone()));
                let warm = log.open("warm_up", "sim", Some(span), lane, Some(label.clone()));
                let boot = SecureNvm::new(job.config.clone()).warm_boot(&job.trace);
                log.close(warm);
                let measured = log.open("measured", "sim", Some(span), lane, Some(label));
                let report = boot.run(&job.trace);
                log.close(measured);
                drop(boot);
                log.close(span);
                done.lock()
                    .expect("results poisoned by a panic")
                    .push(TracedJob {
                        index,
                        key: job.key,
                        report,
                    });
            });
        }
    });
    let mut done = done.into_inner().expect("results poisoned by a panic");
    done.sort_by_key(|j| j.index);
    done.into_iter().map(|j| (j.key, j.report)).collect()
}

/// Counts of one (trace, mechanism) audit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuditCounts {
    /// Persist events the sanitizer checked.
    pub psan_events: u64,
    /// Sanitizer findings (must be 0 on these clean traces).
    pub psan_findings: u64,
    /// Recoveries that were not clean (must be 0).
    pub unclean_recoveries: u64,
    /// Crash-point cases run.
    pub cases: u64,
    /// Crash-point cases whose audit failed (must be 0).
    pub case_failures: u64,
    /// Ops replayed by whole-trace replays (psan run, full run, crash
    /// site enumeration).
    pub replay_ops: u64,
    /// Host seconds of those whole-trace replays.
    pub replay_s: f64,
}

impl AuditCounts {
    /// Failed operations.
    #[must_use]
    pub fn failures(&self) -> u64 {
        u64::from(self.psan_findings > 0) + self.unclean_recoveries + self.case_failures
    }

    fn absorb(&mut self, o: &AuditCounts) {
        self.psan_events += o.psan_events;
        self.psan_findings += o.psan_findings;
        self.unclean_recoveries += o.unclean_recoveries;
        self.cases += o.cases;
        self.case_failures += o.case_failures;
        self.replay_ops += o.replay_ops;
        self.replay_s += o.replay_s;
    }
}

/// Seconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Appends `v` to a digest buffer (hashed with `byte_digest` at the end).
fn fold(digest: &mut Vec<u8>, v: u64) {
    digest.extend_from_slice(&v.to_le_bytes());
}

/// Audits one trace under one mechanism: psan run + check, a
/// full-functional run → crash → recover, and sampled crash cases.
/// Appends every outcome to `digest`.
pub fn audit(
    params: &Params,
    input: &Input,
    mode: Mode,
    tracer: Tracer<'_>,
    digest: &mut Vec<u8>,
) -> AuditCounts {
    let trace = &*input.trace;
    let classes = input
        .classes
        .as_deref()
        .expect("audited inputs carry op classes");
    let kind = input.config.kind;
    let mut counts = AuditCounts::default();

    let ((psan_report, events), psan_s) = timed(|| {
        tracer.span("run_psan", "sim", |_| {
            SecureNvm::new(thoth_psan::sim_config_for(mode)).run_psan(trace)
        })
    });
    let findings = tracer.span("check_events", "psan", |_| {
        check_events(&events, classes, thoth_psan::BLOCK_BYTES as u64)
            .findings
            .len() as u64
    });
    counts.psan_events = events.len() as u64;
    counts.psan_findings = findings;
    counts.replay_ops += input.ops();
    counts.replay_s += psan_s;
    fold(digest, psan_report.digest());
    fold(digest, counts.psan_events);
    fold(digest, findings);
    drop(events);

    let sim = params.audit_config(mode);
    let mut machine = SecureNvm::new(sim.clone());
    let (full_report, full_s) = timed(|| tracer.span("full_run", "sim", |_| machine.run(trace)));
    counts.replay_ops += input.ops();
    counts.replay_s += full_s;
    tracer.span("crash", "sim", |_| machine.crash());
    let recovery = tracer.span("recover", "sim", |_| machine.recover());
    drop(machine);
    counts.unclean_recoveries = u64::from(!recovery.is_clean());
    fold(digest, full_report.digest());
    for v in [
        u64::from(recovery.root_verified),
        recovery.blocks_verified,
        recovery.blocks_failed,
        recovery.entries_merged,
        recovery.ctr_blocks_recovered,
        recovery.mac_blocks_recovered,
    ] {
        fold(digest, v);
    }

    tracer.span("crash_sweep", "crashtest", |t| {
        let (sites, enum_s) = timed(|| {
            t.span("enumerate_sites", "sim", |_| {
                SecureNvm::new(sim.clone()).enumerate_crash_sites(trace)
            })
        });
        counts.replay_ops += input.ops();
        counts.replay_s += enum_s;
        let exposed: Vec<CrashSiteKind> = CrashSiteKind::ALL
            .into_iter()
            .filter(|&k| sites.of(k) > 0)
            .collect();
        let mut rng = DetRng::seed_from(
            params.seed
                ^ byte_digest(kind.name().as_bytes())
                ^ byte_digest(mode.label().as_bytes()),
        );
        for i in 0..params.crash_cases {
            let site = exposed[i % exposed.len()];
            let plan = CrashPlan {
                site,
                nth: rng.gen_range(sites.of(site)),
            };
            let case = t.span("crash_case", "crashtest", |_| {
                run_case(&sim, trace, kind, plan, &FaultConfig::default())
            });
            counts.cases += 1;
            counts.case_failures += u64::from(!case.passed);
            fold(digest, site.index() as u64);
            fold(digest, plan.nth);
            fold(digest, u64::from(case.fired));
            fold(digest, u64::from(case.passed));
        }
    });
    counts
}

/// Everything one run of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Host wall seconds, workload start to last output written.
    pub wall_s: f64,
    /// Process user + system CPU seconds over the same interval.
    pub cpu_s: f64,
    /// CPU seconds the host stole from this machine over the interval.
    pub steal_s: f64,
    /// Host seconds in trace generation.
    pub setup_s: f64,
    /// Ops replayed by whole-trace replays.
    pub replay_ops: u64,
    /// Host seconds spent in those replays.
    pub replay_s: f64,
    /// Simulated: gmean over (kind, block) of baseline / thoth-wtsc cycles.
    pub sim_speedup_wtsc: f64,
    /// Simulated: mean over (kind, block) of thoth-wtsc / baseline writes.
    pub sim_write_ratio_wtsc: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Workload digest.
    pub digest: u64,
    /// What failed, one line each.
    pub problems: Vec<String>,
    /// Plain-job reports.
    pub reports: BTreeMap<Key, SimReport>,
    /// Audit totals (`crash-audit`).
    pub audits: AuditCounts,
    /// Ops across the generated traces (one copy of each).
    pub trace_ops: u64,
    /// Untraced pre-population inserts across the generated traces.
    pub prepop_inserts: u64,
    /// Host seconds in the plain jobs' replay (the `run_jobs` makespan,
    /// or the traced pool's).
    pub run_jobs_s: f64,
}

/// Runs `params` once. With a tracer, plain jobs replay through the
/// traced pool; otherwise through `run_jobs`. Report tables go to
/// `out_dir`. A panic anywhere fails every operation of the run. The
/// generated inputs come back (empty after a panic) so the traced run
/// can probe them; freeing them is outside the timed interval.
#[must_use]
pub fn run_once(params: &Params, tracer: Tracer<'_>, out_dir: &Path) -> (Sample, Vec<Input>) {
    let started = Instant::now();
    let cpu0 = host::cpu_seconds().unwrap_or(0.0);
    let steal0 = host::steal_seconds().unwrap_or(0.0);
    let outcome = catch_unwind(AssertUnwindSafe(|| run_inner(params, tracer, out_dir)));
    let (mut sample, inputs) = outcome.unwrap_or_else(|_| {
        let sample = Sample {
            attempted: params.ops_per_run(),
            failed: params.ops_per_run(),
            problems: vec!["the run panicked".to_owned()],
            ..Sample::default()
        };
        (sample, Vec::new())
    });
    sample.wall_s = started.elapsed().as_secs_f64();
    sample.cpu_s = host::cpu_seconds().unwrap_or(0.0) - cpu0;
    sample.steal_s = host::steal_seconds().unwrap_or(0.0) - steal0;
    (sample, inputs)
}

fn run_inner(params: &Params, tracer: Tracer<'_>, out_dir: &Path) -> (Sample, Vec<Input>) {
    let mut s = Sample {
        attempted: params.ops_per_run(),
        ..Sample::default()
    };
    let (inputs, setup_s) = timed(|| tracer.span("generate", "workloads", |t| generate(params, t)));
    s.setup_s = setup_s;
    s.trace_ops = inputs.iter().map(Input::ops).sum();
    s.prepop_inserts = inputs
        .iter()
        .filter(|i| i.config.kind != WorkloadKind::Swap)
        .map(|i| i.config.prepopulate * i.config.cores as u64)
        .sum();

    let jobs = jobs(params, &inputs);
    let job_ops: u64 = jobs
        .iter()
        .map(|j| j.trace.cores.iter().map(|c| c.len() as u64).sum::<u64>())
        .sum();
    let (results, run_jobs_s) = timed(|| {
        tracer.span("run_jobs", "experiments", |t| match t.log {
            Some(log) => replay_traced(jobs, log, t.parent),
            None => run_jobs(jobs),
        })
    });
    s.run_jobs_s = run_jobs_s;
    s.replay_ops = job_ops;
    s.replay_s = run_jobs_s;
    s.reports = results.into_iter().collect();

    let mut digest = Vec::new();
    if !params.audit_modes.is_empty() {
        tracer.span("audits", "bench", |t| {
            for input in &inputs {
                for &mode in &params.audit_modes {
                    let counts = audit(params, input, mode, t, &mut digest);
                    if counts.failures() > 0 {
                        s.problems.push(format!(
                            "{} under {}: {} psan findings, {} unclean recoveries, {} failed crash cases",
                            input.config.kind,
                            mode.label(),
                            counts.psan_findings,
                            counts.unclean_recoveries,
                            counts.case_failures
                        ));
                    }
                    s.failed += counts.failures();
                    s.audits.absorb(&counts);
                }
            }
        });
    }
    s.replay_ops += s.audits.replay_ops;
    s.replay_s += s.audits.replay_s;

    tracer.span("report", "experiments", |_| {
        let runs: &HeadlineRuns = &s.reports;
        let matrix = matrix_digest(runs);
        s.digest = if params.audit_modes.is_empty() {
            matrix
        } else {
            fold(&mut digest, matrix);
            byte_digest(&digest)
        };
        let (speedups, ratios) = wtsc_vs_baseline(runs);
        s.sim_speedup_wtsc = gmean(&speedups);
        s.sim_write_ratio_wtsc = amean(&ratios);
        let text = render_tables(params, runs);
        let path = out_dir.join(format!("{}-tables.txt", params.workload.name()));
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    });

    if let Some(pin) = params.pinned_digest() {
        if s.digest != pin {
            s.problems.push(format!(
                "digest {:#018x} differs from the pin {pin:#018x}",
                s.digest
            ));
            s.failed += params.job_count() as u64;
        }
    }
    (s, inputs)
}

/// Per (kind, block): thoth-wtsc speedup over baseline and its write
/// ratio.
#[must_use]
pub fn wtsc_vs_baseline(reports: &BTreeMap<Key, SimReport>) -> (Vec<f64>, Vec<f64>) {
    let mut speedups = Vec::new();
    let mut ratios = Vec::new();
    for ((kind, block, mode), base) in reports {
        if mode != Mode::baseline().label() {
            continue;
        }
        let key = (kind.clone(), *block, Mode::thoth_wtsc().label().to_owned());
        if let Some(wtsc) = reports.get(&key) {
            speedups.push(wtsc.speedup_over(base));
            ratios.push(wtsc.write_ratio_vs(base));
        }
    }
    (speedups, ratios)
}

/// The workload's report: the paper figures for `headline`, a per-job
/// speedup / write-ratio table otherwise.
fn render_tables(params: &Params, runs: &HeadlineRuns) -> String {
    let tables = match params.workload {
        Workload::Headline => vec![
            headline::figure8(runs),
            headline::figure9(runs),
            headline::category_breakdown(runs, 128),
            headline::category_breakdown(runs, 256),
            headline::anubis_compare(runs),
        ],
        _ => {
            let mut t = Table::new(
                &format!(
                    "{}: simulated cycles and writes vs baseline",
                    params.workload.name()
                ),
                &["workload", "block", "mode", "speedup", "writes/base"],
            );
            for ((kind, block, mode), r) in runs {
                if let Some(base) =
                    runs.get(&(kind.clone(), *block, Mode::baseline().label().to_owned()))
                {
                    t.row(vec![
                        kind.clone(),
                        block.to_string(),
                        mode.clone(),
                        format!("{:.3}", r.speedup_over(base)),
                        format!("{:.3}", r.write_ratio_vs(base)),
                    ]);
                }
            }
            vec![t]
        }
    };
    tables
        .iter()
        .map(Table::render)
        .collect::<Vec<_>>()
        .join("\n")
}
