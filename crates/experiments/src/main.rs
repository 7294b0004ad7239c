//! Command-line driver regenerating every table and figure of the paper.
//!
//! ```text
//! thoth-experiments [EXPERIMENT ...] [--scale F] [--quick] [--csv DIR]
//!
//! EXPERIMENT: fig3 | headline | fig8 | fig9 | fig10 | table2 | table3 |
//!             fig11 | fig12 | anubis | recovery | crashtest | psan |
//!             telemetry | service | all (default: all)
//! --scale F   transaction-count scale factor (default 0.25)
//! --seed N    workload RNG seed
//! --quick     tiny smoke-test scale (0.02)
//! --csv DIR   also write each table as CSV into DIR
//! ```

use thoth_experiments::runner::ExpSettings;
use thoth_experiments::tablefmt::Table;
use thoth_experiments::{
    ablation, cachesweep, crashtest, fig3, fuzz, headline, lifetime, perf, psan, recovery,
    service, telemetry, txsweep, wpqsweep,
};

use std::path::PathBuf;

fn main() {
    let mut settings = ExpSettings::default();
    let mut csv_dir: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut scale_given = false;
    let mut quick = false;
    let mut point: Option<String> = None;
    let mut point_mode = thoth_sim::Mode::thoth_wtsc();
    let mut trace: Option<String> = None;
    let mut trajectory: Vec<f64> = Vec::new();
    let mut expect_digest: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                settings.scale = v.parse().expect("--scale takes a float");
                scale_given = true;
            }
            "--quick" => {
                settings = ExpSettings::quick();
                quick = true;
            }
            "--point" => {
                point = Some(args.next().expect("--point needs WORKLOAD:SITE:N"));
            }
            "--mode" => {
                let v = args.next().expect("--mode needs a mode label");
                point_mode = *thoth_sim::Mode::ALL
                    .iter()
                    .find(|m| m.label() == v)
                    .unwrap_or_else(|| {
                        eprintln!("unknown mode {v:?}; one of:");
                        for m in thoth_sim::Mode::ALL {
                            eprintln!("  {}", m.label());
                        }
                        std::process::exit(2);
                    });
            }
            "--trace" => {
                trace = Some(args.next().expect("--trace needs SEED:ANCHOR"));
            }
            "--trajectory" => {
                let v = args.next().expect("--trajectory needs S1,S2,...");
                trajectory = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("--trajectory takes floats"))
                    .collect();
            }
            "--expect-digest" => {
                let v = args.next().expect("--expect-digest needs a hex digest");
                let hex = v.trim_start_matches("0x");
                expect_digest =
                    Some(u64::from_str_radix(hex, 16).expect("--expect-digest takes hex"));
            }
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                settings.seed = v.parse().expect("--seed takes a u64");
            }
            "--csv" => {
                csv_dir = Some(PathBuf::from(args.next().expect("--csv needs a dir")));
            }
            "--help" | "-h" => {
                println!("{HELP}");
                return;
            }
            other => wanted.push(other.to_owned()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_owned());
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }

    let emit = |tables: Vec<Table>, slug: &str| {
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            if let Some(dir) = &csv_dir {
                let path = dir.join(format!("{slug}-{i}.csv"));
                std::fs::write(&path, t.to_csv()).expect("write csv");
            }
        }
    };

    for exp in &wanted {
        let all = exp == "all";
        match exp.as_str() {
            "fig3" => {
                let (t, _) = fig3::run(settings, &fig3::PAPER_FIFO_SIZES);
                emit(vec![t], "fig3");
            }
            "headline" | "fig8" | "fig9" | "anubis" => {
                emit(headline::run(settings), "headline");
            }
            "fig10" | "table2" | "table3" | "txsweep" => {
                emit(txsweep::run(settings, &txsweep::TX_SIZES), "txsweep");
            }
            "fig11" => emit(cachesweep::run(settings), "fig11"),
            "fig12" => emit(wpqsweep::run(settings), "fig12"),
            "recovery" => emit(recovery::run(settings), "recovery"),
            "perf" => {
                // Perf trajectory defaults to the quick headline config so
                // successive runs are comparable; --scale overrides.
                let mut s = settings;
                if !scale_given {
                    s.scale = ExpSettings::quick().scale;
                }
                let out = perf::run(s, &trajectory, expect_digest);
                emit(out.tables, "perf");
                if !out.ok {
                    eprintln!("perf: FAILED (matrix digest does not match the pin)");
                    std::process::exit(1);
                }
            }
            "crashtest" => {
                // Crash sweeps default to the quick trace scale so each
                // sampled point replays quickly; --scale overrides.
                let mut s = settings;
                if !scale_given {
                    s.scale = ExpSettings::quick().scale;
                }
                let out = match &point {
                    Some(spec) => crashtest::run_point(s, spec, point_mode),
                    None => crashtest::run(s, quick),
                };
                emit(out.tables, "crashtest");
                if !out.ok {
                    eprintln!("crashtest: FAILED (see reproduction recipe above)");
                    std::process::exit(1);
                }
            }
            "psan" => {
                // Sanitizer runs default to the quick trace scale so the
                // corpus replays quickly; --scale overrides.
                let mut s = settings;
                if !scale_given {
                    s.scale = ExpSettings::quick().scale;
                }
                let out = psan::run(s, quick);
                emit(out.tables, "psan");
                if !out.ok {
                    eprintln!("psan: FAILED (missed bug or dirty clean run, see above)");
                    std::process::exit(1);
                }
            }
            "fuzz" => {
                let out = fuzz::run(settings, quick || !scale_given, trace.as_deref());
                emit(out.tables, "fuzz");
                if !out.ok {
                    eprintln!("fuzz: FAILED (observer disagreement or blind selftest, see above)");
                    std::process::exit(1);
                }
            }
            "telemetry" => {
                // Instrumented runs default to the quick trace scale so
                // artifacts regenerate quickly; --scale overrides.
                let mut s = settings;
                if !scale_given {
                    s.scale = ExpSettings::quick().scale;
                }
                let out = telemetry::run(s, quick);
                emit(out.tables, "telemetry");
                if !out.ok {
                    eprintln!("telemetry: FAILED (non-neutral or invalid artifact, see above)");
                    std::process::exit(1);
                }
            }
            "service" => {
                // The saturation sweep defaults to the quick trace scale
                // so load points replay quickly; --scale overrides.
                let mut s = settings;
                if !scale_given {
                    s.scale = ExpSettings::quick().scale;
                }
                let out = service::run(s, quick);
                emit(out.tables, "service");
                if !out.ok {
                    eprintln!("service: FAILED (unpopulated quantiles or no knee, see above)");
                    std::process::exit(1);
                }
            }
            "ablation" => emit(ablation::run(settings), "ablation"),
            "lifetime" => emit(lifetime::run(settings), "lifetime"),
            "all" => {}
            other => {
                eprintln!("unknown experiment: {other}\n{HELP}");
                std::process::exit(2);
            }
        }
        if all {
            let (t, _) = fig3::run(settings, &fig3::PAPER_FIFO_SIZES);
            emit(vec![t], "fig3");
            emit(headline::run(settings), "headline");
            emit(txsweep::run(settings, &txsweep::TX_SIZES), "txsweep");
            emit(cachesweep::run(settings), "fig11");
            emit(wpqsweep::run(settings), "fig12");
            emit(recovery::run(settings), "recovery");
            emit(ablation::run(settings), "ablation");
            emit(lifetime::run(settings), "lifetime");
        }
    }
}

const HELP: &str = "\
thoth-experiments — regenerate the tables and figures of the Thoth paper

USAGE:
  thoth-experiments [EXPERIMENT ...] [--scale F] [--quick] [--csv DIR]

EXPERIMENTS:
  fig3      Figure 3  — PUB eviction breakdown vs FIFO size
  headline  Figures 8 & 9 + Section V-F (also: fig8, fig9, anubis)
  txsweep   Figure 10 + Tables II & III (also: fig10, table2, table3)
  fig11     Figure 11 — metadata cache size sensitivity
  fig12     Figure 12 — WPQ size sensitivity
  recovery  Section IV-D — crash recovery + time model
  perf      perf-trajectory harness: wall-clock + persists/s per mode,
            writes results/BENCH_perf.json (quick scale unless --scale)
  crashtest crash-injection sweep + recovery audit across all workloads,
            writes results/crashtest.json; exits non-zero on any failing
            crash point (quick scale unless --scale)
  psan      persist-ordering sanitizer: clean sweep (no findings allowed)
            + seeded-bug corpus (every planted bug caught at its site),
            writes results/psan.json; exits non-zero on any miss
            (quick scale unless --scale)
  fuzz      persist-trace fuzzer: seeded well-formed traces crash-injected
            through the machine, cross-checked by three observers (psan,
            recovery audit, event-derived shadow heap) plus an injected-
            disagreement selftest; writes results/fuzz.json; exits
            non-zero on any disagreement (200 traces, 400 with --scale)
  telemetry instrumented headline runs: occupancy timelines, counters,
            Chrome trace_event JSON under results/telemetry/, with a
            telemetry-off-vs-on neutrality check; exits non-zero on any
            non-neutral or invalid point (quick scale unless --scale)
  service   open-loop multi-tenant KV saturation sweep: p50/p99/p999
            persist-ACK latency (from arrival) vs offered load per mode,
            writes results/service.json + results/BENCH_service.json;
            exits non-zero if quantiles are unpopulated/non-monotone or
            no saturation knee appears (quick scale unless --scale)
  ablation  PUB/PCB design-space sweeps, PCB arrangement, eADR
  lifetime  NVM write totals + wear concentration per mode
  all       everything above (default)

OPTIONS:
  --scale F  transaction-count scale factor (default 0.25)
  --quick    tiny smoke-test scale
  --seed N   workload RNG seed (default 0xC0FFEE)
  --csv DIR  also write each table as CSV into DIR
  --point WORKLOAD:SITE:N
             (crashtest only) replay one crash point, e.g.
             btree:persist:117 — the recipe printed on sweep failure
  --mode LABEL
             (crashtest --point only) mechanism to replay the point
             under, e.g. phoenix (default thoth-wtsc)
  --trace SEED:ANCHOR[:MODE]
             (fuzz only) replay one fuzz case verbosely — the recipe
             printed when a disagreement is minimized; the optional
             MODE is a mechanism label such as phoenix (default
             thoth-wtsc)
  --trajectory S1,S2,...
             (perf only) also measure the matrix at each extra scale and
             record every point in the results trajectory array
  --expect-digest HEX
             (perf only) CI gate: run, compare the matrix digest against
             the pin, write nothing, exit non-zero on mismatch";
