//! Import an externally captured persistent-store trace (the text format
//! of `thoth_workloads::trace_io`) and evaluate it under the baseline and
//! Thoth. With no argument, a small built-in demo trace is used.
//!
//! ```text
//! cargo run --release -p thoth-sim --example trace_import [trace.txt]
//! ```

use thoth_sim::{run_trace, Mode, SimConfig};
use thoth_workloads::trace_io;

const DEMO: &str = "\
# demo: two cores appending to logs and updating a shared-format table
core 0
W 0x100000 64
W 0x200000 128
C
W 0x100040 64
W 0x200080 128
C
W 0x100080 64
W 0x200000 128
C
core 1
W 0x40100000 64
W 0x40200000 128
C
W 0x40100040 64
W 0x40200000 128
C
";

fn main() {
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).expect("read trace file"),
        None => {
            println!("(no trace file given; using the built-in demo trace)\n");
            DEMO.to_owned()
        }
    };
    let trace = match trace_io::from_text(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!(
        "imported trace: {} cores, {} transactions, {} stores",
        trace.cores.len(),
        trace.total_txs(),
        trace.total_stores()
    );

    for mode in [Mode::baseline(), Mode::thoth_wtsc()] {
        let mut cfg = SimConfig::paper_default(mode, 128);
        cfg.pub_size_bytes = 64 << 10;
        let r = run_trace(&cfg, &trace);
        println!(
            "{:<12} cycles={:<10} writes={:<6} by category {:?}",
            mode.label(),
            r.total_cycles,
            r.writes_total(),
            r.writes
        );
    }
}
