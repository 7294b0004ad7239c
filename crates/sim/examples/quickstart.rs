//! Quickstart: run one persistent workload through the baseline and
//! through Thoth, and compare cycles and NVM write traffic.
//!
//! ```text
//! cargo run --release -p thoth-sim --example quickstart [workload] [scale]
//! # e.g.  cargo run --release -p thoth-sim --example quickstart hashmap 0.25
//! ```

use thoth_sim::{run_trace, Mode, SimConfig};
use thoth_workloads::{spec, WorkloadConfig, WorkloadKind};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = args
        .get(1)
        .and_then(|s| WorkloadKind::from_name(s))
        .unwrap_or(WorkloadKind::Hashmap);
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.1);

    println!("generating `{kind}` trace (scale {scale}) ...");
    let trace = spec::generate(WorkloadConfig::paper_default(kind).scaled(scale));
    println!(
        "  {} transactions, {} persistent stores\n",
        trace.total_txs(),
        trace.total_stores()
    );

    let mut reports = Vec::new();
    for mode in [Mode::baseline(), Mode::thoth_wtsc()] {
        let config = SimConfig::paper_default(mode, 128);
        println!("simulating {} ...", mode.label());
        let report = run_trace(&config, &trace);
        println!(
            "  cycles: {:>12}   NVM writes: {:>8}   ciphertext share: {:4.1}%",
            report.total_cycles,
            report.writes_total(),
            report.ciphertext_write_fraction() * 100.0
        );
        for (cat, n) in &report.writes {
            println!("    {cat:<8} {n}");
        }
        reports.push(report);
    }

    let (base, thoth) = (&reports[0], &reports[1]);
    println!("\nThoth vs baseline:");
    println!("  speedup          : {:.3}x", thoth.speedup_over(base));
    println!(
        "  write reduction  : {:.1}%",
        100.0 * (1.0 - thoth.write_ratio_vs(base))
    );
    println!(
        "  PCB merge rate   : {:.1}%",
        thoth.pcb_merge_fraction() * 100.0
    );
    println!("  PUB evictions    : {:?}", thoth.pub_evictions);
}
