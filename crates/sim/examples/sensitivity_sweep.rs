//! Sensitivity mini-sweep: how Thoth's advantage moves with the WPQ size
//! and the secure metadata cache size (Figures 11 and 12 in miniature).
//!
//! ```text
//! cargo run --release -p thoth-sim --example sensitivity_sweep
//! ```

use thoth_sim::{run_trace, Mode, SimConfig};
use thoth_workloads::{spec, WorkloadConfig, WorkloadKind};

fn main() {
    let trace = spec::generate(
        WorkloadConfig::paper_default(WorkloadKind::Btree).scaled(0.1),
    );

    println!("WPQ size sweep (btree, 128 B blocks):");
    println!("{:>8}  {:>10}  {:>10}  {:>8}", "wpq", "base cyc", "thoth cyc", "speedup");
    for wpq in [64usize, 32, 16] {
        let mut base_cfg = SimConfig::paper_default(Mode::baseline(), 128);
        base_cfg.wpq_entries = wpq;
        base_cfg.pcb_entries = (wpq / 8).max(1);
        let mut thoth_cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        thoth_cfg.wpq_entries = wpq;
        thoth_cfg.pcb_entries = (wpq / 8).max(1);
        let base = run_trace(&base_cfg, &trace);
        let thoth = run_trace(&thoth_cfg, &trace);
        println!(
            "{wpq:>8}  {:>10}  {:>10}  {:>8.3}",
            base.total_cycles,
            thoth.total_cycles,
            thoth.speedup_over(&base)
        );
    }

    println!("\nmetadata cache sweep (btree, 128 B blocks):");
    println!("{:>12}  {:>8}  {:>12}", "ctr/mac", "speedup", "thoth writes");
    for (ctr, mac) in [(64usize << 10, 128usize << 10), (512 << 10, 1 << 20), (1 << 20, 2 << 20)] {
        let mut base_cfg = SimConfig::paper_default(Mode::baseline(), 128);
        base_cfg.ctr_cache_bytes = ctr;
        base_cfg.mac_cache_bytes = mac;
        let mut thoth_cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        thoth_cfg.ctr_cache_bytes = ctr;
        thoth_cfg.mac_cache_bytes = mac;
        let base = run_trace(&base_cfg, &trace);
        let thoth = run_trace(&thoth_cfg, &trace);
        println!(
            "{:>5}k/{:>5}k  {:>8.3}  {:>12}",
            ctr >> 10,
            mac >> 10,
            thoth.speedup_over(&base),
            thoth.writes_total()
        );
    }
}
