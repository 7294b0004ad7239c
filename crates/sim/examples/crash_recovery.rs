//! Crash-consistency demo: run Thoth in full functional mode (real AES
//! ciphertexts, real MACs in simulated NVM), pull the plug, recover, and
//! verify everything — then show that tampering is detected.
//!
//! ```text
//! cargo run --release -p thoth-sim --example crash_recovery
//! ```

use thoth_sim::{FunctionalMode, Mode, SecureNvm, SimConfig};
use thoth_workloads::{spec, WorkloadConfig, WorkloadKind};

fn machine_and_trace() -> (SecureNvm, thoth_workloads::MultiCoreTrace) {
    let mut wl = WorkloadConfig::paper_default(WorkloadKind::Btree).scaled(0.05);
    wl.footprint = 20_000;
    wl.prepopulate = 10_000;
    let trace = spec::generate(wl);
    let mut cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
    cfg.functional = FunctionalMode::Full;
    cfg.pub_size_bytes = 256 << 10;
    cfg.pub_prefill = false;
    (SecureNvm::new(cfg), trace)
}

fn main() {
    // --- clean crash + recovery -------------------------------------
    println!("running btree under Thoth (full functional mode) ...");
    let (mut machine, trace) = machine_and_trace();
    let report = machine.run(&trace);
    println!(
        "  {} transactions, {} NVM writes, root register = {:#018x}",
        report.transactions,
        report.writes_total(),
        machine.root()
    );

    println!("\nCRASH: dropping volatile state, ADR flushes WPQ + PCB ...");
    machine.crash();

    println!("recovering (PUB merge -> tree rebuild -> verification) ...");
    let rec = machine.recover();
    println!(
        "  scanned {} PUB blocks / {} entries: {} merged, {} stale",
        rec.pub_blocks_scanned, rec.entries_examined, rec.entries_merged, rec.entries_stale
    );
    println!("  integrity-tree root verified : {}", rec.root_verified);
    println!(
        "  data blocks authenticated    : {} ok, {} failed",
        rec.blocks_verified, rec.blocks_failed
    );
    println!("  modeled recovery time        : {:.4} s", rec.modeled_seconds);
    assert!(rec.is_clean(), "recovery must be clean");

    // --- tampered crash ----------------------------------------------
    println!("\nnow the adversarial rerun: flip one ciphertext bit after the crash");
    let (mut machine, trace) = machine_and_trace();
    machine.run(&trace);
    machine.crash();
    // Core 0's commit record is written on every transaction, so its
    // block is guaranteed to hold live ciphertext.
    let victim = machine
        .layout()
        .block_addr(machine.layout().block_index(0x1000_0000u64 + (1 << 20) - 8));
    machine.nvm_mut().tamper(victim + 17, 0x01);
    let rec = machine.recover();
    println!(
        "  after tampering {victim:#x}: {} blocks failed authentication",
        rec.blocks_failed
    );
    assert!(rec.blocks_failed > 0, "tampering must be detected");
    println!("  tamper detected — recovery refuses the forged block.");
}
