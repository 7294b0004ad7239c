//! Host-time benchmark of the Thoth reproduction.
//!
//! One command per workload measures the end-to-end metrics with tracing
//! off; `--trace 1` runs the same workload in (untraced, traced) pairs
//! and reports the per-layer metrics, writing the spans as Chrome
//! `trace_event` JSON and a per-layer self-time table. Every output
//! carries its provenance: host cores, the crypto backends selected, the
//! compiler, the seed and the workload's parameters. See `README.md`.

pub mod host;
pub mod layers;
pub mod metrics;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use metrics::{number, ResultLine, END_TO_END};
use spans::SpanLog;
use stats::{median, quartiles, relative_spread};
use workload::{run_once, Params, Sample, Size, Tracer, Workload};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Where artefacts go.
    pub out_dir: PathBuf,
    /// Input size.
    pub size: Size,
}

/// Usage text.
pub const USAGE: &str = "usage: thoth-perfbench --workload <headline|replay-matrix|crash-audit> \
--seed <n> --seconds <s> --trace <0|1>";

/// Where artefacts go, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Describes the first missing or malformed argument.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(parse_seed(&value).ok_or_else(|| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out_dir: PathBuf::from(OUT_DIR),
        size: Size::Full,
    })
}

/// Whether to start another run: it would end no more than half a run
/// past `seconds`, judging by the last run's length (so at least one run
/// always happens).
fn should_continue(started: Instant, seconds: f64, last_wall: f64) -> bool {
    started.elapsed().as_secs_f64() + 0.5 * last_wall < seconds
}

fn sample_line(tag: &str, i: usize, s: &Sample) -> String {
    format!(
        "{tag} {i}: wall {:.3} s, cpu {:.3} s, steal {:.2} s, setup {:.3} s, replay {:.0} ops/s, \
         ops {}/{} ok, digest {:#018x}",
        s.wall_s,
        s.cpu_s,
        s.steal_s,
        s.setup_s,
        s.replay_ops as f64 / s.replay_s.max(1e-9),
        s.attempted - s.failed,
        s.attempted,
        s.digest
    )
}

/// Checks every run reproduced the first run's digest (the simulator is
/// deterministic, so any drift is a failure of every plain job).
fn check_repeatable(params: &Params, digests: &[u64], problems: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (i, d) in digests.iter().enumerate().skip(1) {
        if *d != digests[0] {
            problems.push(format!("run {i} digest {d:#018x} differs from run 0"));
            failed += params.job_count() as u64;
        }
    }
    failed
}

/// End-to-end metrics of untraced samples: medians over the runs.
#[must_use]
pub fn end_to_end(samples: &[Sample], peak_rss_mib: f64) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let mut m = BTreeMap::new();
    m.insert("wall_s", med(&|s| s.wall_s));
    m.insert("cpu_s", med(&|s| s.cpu_s));
    m.insert("setup_s", med(&|s| s.setup_s));
    m.insert(
        "replay_ops_per_s",
        med(&|s| s.replay_ops as f64 / s.replay_s.max(1e-9)),
    );
    m.insert("peak_rss_mib", peak_rss_mib);
    m.insert("sim_speedup_wtsc", med(&|s| s.sim_speedup_wtsc));
    m.insert("sim_write_ratio_wtsc", med(&|s| s.sim_write_ratio_wtsc));
    m
}

/// The validation statement printed beside the simulated metrics.
fn validation_note(params: &Params) -> String {
    let start = if params.audit_modes.is_empty() {
        "after warm-up and PUB prefill (caches warm)"
    } else {
        "after warm-up, with no PUB prefill"
    };
    format!(
        "sim_speedup_wtsc / sim_write_ratio_wtsc: scale {} over this workload's (kind, block) \
         pairs; statistics start {start}. The model is not validated against hardware. The only \
         reference is the paper's average over its full five-workload matrix (EXPERIMENTS.md): \
         1.22x / 1.16x speedup and 32% / 37% fewer writes at 128 B / 256 B blocks. No error \
         figure is claimed.",
        params.scale
    )
}

fn header(args: &Args, params: &Params) -> String {
    let prov = host::Provenance::detect();
    format!(
        "thoth-perfbench {} (trace {}), seed {:#x}\n  provenance {}\n  params {}\n",
        args.workload.name(),
        u8::from(args.trace),
        args.seed,
        prov.to_json(),
        params.to_json()
    )
}

/// Writes a JSON artefact with provenance, parameters, samples and
/// metrics, validated by the in-tree JSON checker first.
fn write_artefact(
    path: &Path,
    params: &Params,
    samples: &[(String, f64)],
    result: &ResultLine,
    problems: &[String],
) -> Result<(), String> {
    let json = artefact_json(params, samples, result, problems);
    thoth_telemetry::json::validate(&json).map_err(|e| format!("artefact JSON invalid: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The artefact document (see [`write_artefact`]).
#[must_use]
pub fn artefact_json(
    params: &Params,
    samples: &[(String, f64)],
    result: &ResultLine,
    problems: &[String],
) -> String {
    let esc = thoth_telemetry::json::escape;
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (name, v) in samples {
        by_name.entry(name.as_str()).or_default().push(*v);
    }
    let mut runs = String::new();
    for (i, (name, vs)) in by_name.iter().enumerate() {
        let [q1, q2, q3] = quartiles(vs);
        let list: Vec<String> = vs.iter().map(|v| number(*v)).collect();
        let _ = write!(
            runs,
            "{}\"{}\":{{\"samples\":[{}],\"q1\":{},\"median\":{},\"q3\":{},\"spread\":{}}}",
            if i > 0 { "," } else { "" },
            esc(name),
            list.join(","),
            number(q1),
            number(q2),
            number(q3),
            number(relative_spread(vs))
        );
    }
    let problems: Vec<String> = problems.iter().map(|p| format!("\"{}\"", esc(p))).collect();
    format!(
        "{{\"provenance\":{},\"params\":{},\"runs\":{{{runs}}},\"problems\":[{}],\"result\":{}}}",
        host::Provenance::detect().to_json(),
        params.to_json(),
        problems.join(","),
        result.to_json()
    )
}

/// Runs the benchmark, printing progress and tables to stdout, and
/// returns the result line (the caller prints it last).
///
/// # Errors
///
/// Fails when the artefact directory cannot be written.
pub fn run(args: &Args) -> Result<ResultLine, String> {
    let params = Params::new(args.workload, args.seed, args.size);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    print!("{}", header(args, &params));
    if args.trace {
        run_traced(args, &params)
    } else {
        run_untraced(args, &params)
    }
}

fn run_untraced(args: &Args, params: &Params) -> Result<ResultLine, String> {
    let started = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    loop {
        let (sample, inputs) = run_once(params, Tracer::off(), &args.out_dir);
        drop(inputs);
        println!("{}", sample_line("run", samples.len(), &sample));
        let last = sample.wall_s;
        samples.push(sample);
        if !should_continue(started, args.seconds, last) {
            break;
        }
    }
    let mut problems: Vec<String> = samples.iter().flat_map(|s| s.problems.clone()).collect();
    let mut failed: u64 = samples.iter().map(|s| s.failed).sum();
    let digests: Vec<u64> = samples.iter().map(|s| s.digest).collect();
    failed += check_repeatable(params, &digests, &mut problems);
    let attempted = samples.iter().map(|s| s.attempted).sum();
    let metrics = end_to_end(&samples, host::peak_rss_mib().unwrap_or(0.0));
    let result = ResultLine {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics,
    };
    let per_run: Vec<(String, f64)> = samples
        .iter()
        .flat_map(|s| {
            END_TO_END
                .iter()
                .filter(|m| m.name != "peak_rss_mib")
                .map(move |m| {
                    let v = end_to_end(std::slice::from_ref(s), 0.0)[m.name];
                    (m.name.to_owned(), v)
                })
        })
        .collect();
    println!(
        "{} runs, median of each (failed_frac {}):",
        samples.len(),
        number(failed as f64 / attempted.max(1) as f64)
    );
    print!("{}", result.render());
    println!("{}", validation_note(params));
    for p in &problems {
        println!("FAILED: {p}");
    }
    let path = args
        .out_dir
        .join(format!("{}-result.json", params.workload.name()));
    write_artefact(&path, params, &per_run, &result, &problems)?;
    Ok(result)
}

/// Minimum share of the traced run's wall time its phase spans must
/// cover.
pub const MIN_SPAN_COVERAGE: f64 = 0.95;

fn run_traced(args: &Args, params: &Params) -> Result<ResultLine, String> {
    let started = Instant::now();
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();
    let mut pairs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut digests = Vec::new();
    let (log, root, traced, inputs) = loop {
        let (untraced, inputs) = run_once(params, Tracer::off(), &args.out_dir);
        drop(inputs);
        let log = SpanLog::new();
        let root = log.open("workload", "bench", None, 0, None);
        let (traced, inputs) = run_once(params, Tracer::on(&log, Some(root)), &args.out_dir);
        log.close(root);
        println!("{}", sample_line("untraced", pairs.len(), &untraced));
        println!("{}", sample_line("traced  ", pairs.len(), &traced));
        for s in [&untraced, &traced] {
            attempted += s.attempted;
            failed += s.failed;
            problems.extend(s.problems.iter().cloned());
            digests.push(s.digest);
        }
        // cold ≡ warm: every warm-started report equals the cold one.
        for (key, warm) in &traced.reports {
            if untraced.reports.get(key).map(thoth_sim::SimReport::digest) != Some(warm.digest()) {
                failed += 1;
                problems.push(format!(
                    "{key:?}: warm-boot report differs from the cold run_jobs report"
                ));
            }
        }
        let spans = log.spans();
        pairs.push(layers::pair_metrics(
            params, &untraced, &traced, &spans, root,
        ));
        let wall = untraced.wall_s + traced.wall_s;
        if !should_continue(started, args.seconds, wall) {
            break (log, root, traced, inputs);
        }
    };
    failed += check_repeatable(params, &digests, &mut problems);
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    for name in pairs[0].keys() {
        let vs: Vec<f64> = pairs.iter().map(|p| p[name]).collect();
        metrics.insert(name, median(&vs));
    }
    let unit_calls = if args.size == Size::Tiny { 200 } else { 20_000 };
    let probe = layers::probe(params, &inputs, &log, unit_calls);
    drop(inputs);
    attempted += probe.attempted;
    failed += probe.failed;
    problems.extend(probe.problems.iter().cloned());
    for (name, v) in &probe.metrics {
        metrics.entry(name).or_insert(*v);
    }
    let coverage = metrics["bench.span_coverage"];
    if coverage < MIN_SPAN_COVERAGE {
        problems.push(format!(
            "phase spans cover {coverage:.3} of the traced wall time (< {MIN_SPAN_COVERAGE})"
        ));
    }

    let spans = log.spans();
    let name = params.workload.name();
    let trace_path = args.out_dir.join(format!("{name}-trace.json"));
    let chrome = spans::chrome_trace_json(&spans);
    thoth_telemetry::json::validate(&chrome).map_err(|e| format!("trace JSON invalid: {e}"))?;
    std::fs::write(&trace_path, chrome)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    let mut table = spans::render_layer_table(&spans);
    table.push_str("\nper-kind and per-mode breakdown (last traced run):\n");
    for (metric, v, unit) in layers::breakdown(params, &traced, &spans, root) {
        let _ = writeln!(table, "  {metric:<34} {:>18} {unit}", number(v));
    }
    let layer_path = args.out_dir.join(format!("{name}-layers.txt"));
    std::fs::write(&layer_path, &table)
        .map_err(|e| format!("writing {}: {e}", layer_path.display()))?;

    let result = ResultLine {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics,
    };
    println!(
        "{} traced pairs; per-layer metrics (medians over pairs, probes once):",
        pairs.len()
    );
    print!("{}", result.render());
    print!("{table}");
    println!(
        "spans: {} ; layer table: {}",
        trace_path.display(),
        layer_path.display()
    );
    for p in &problems {
        println!("FAILED: {p}");
    }
    let per_pair: Vec<(String, f64)> = pairs
        .iter()
        .flat_map(|p| p.iter().map(|(k, v)| ((*k).to_owned(), *v)))
        .collect();
    let path = args.out_dir.join(format!("{name}-traced.json"));
    write_artefact(&path, params, &per_pair, &result, &problems)?;
    Ok(result)
}
