//! End-to-end integration: every workload through every machine mode,
//! checking the cross-crate invariants the reproduction rests on.

use thoth_nvm::WriteCategory;
use thoth_sim::{run_trace, Mode, SimConfig, SimReport};
use thoth_workloads::{spec, MultiCoreTrace, WorkloadConfig, WorkloadKind};

fn quick_trace(kind: WorkloadKind) -> MultiCoreTrace {
    let mut cfg = WorkloadConfig::paper_default(kind).scaled(0.02);
    cfg.footprint = if kind == WorkloadKind::Swap { 4 } else { 5_000 };
    cfg.prepopulate = cfg.footprint / 2;
    spec::generate(cfg)
}

fn small_cfg(mode: Mode, block: usize) -> SimConfig {
    let mut c = SimConfig::paper_default(mode, block);
    c.pub_size_bytes = 128 << 10; // keep the PUB active at tiny scales
    c
}

fn run(kind: WorkloadKind, mode: Mode, block: usize) -> SimReport {
    run_trace(&small_cfg(mode, block), &quick_trace(kind))
}

#[test]
fn every_workload_runs_in_every_mode() {
    for kind in WorkloadKind::ALL {
        for mode in [
            Mode::baseline(),
            Mode::thoth_wtsc(),
            Mode::thoth_wtbc(),
            Mode::AnubisEcc,
        ] {
            let r = run(kind, mode, 128);
            assert!(r.total_cycles > 0, "{kind}/{}", mode.label());
            assert!(r.transactions > 0, "{kind}/{}", mode.label());
        }
    }
}

#[test]
fn thoth_never_writes_more_than_baseline() {
    for kind in WorkloadKind::ALL {
        let base = run(kind, Mode::baseline(), 128);
        let thoth = run(kind, Mode::thoth_wtsc(), 128);
        assert!(
            thoth.writes_total() <= base.writes_total(),
            "{kind}: thoth {} > baseline {}",
            thoth.writes_total(),
            base.writes_total()
        );
    }
}

#[test]
fn anubis_ideal_lower_bounds_thoth_writes() {
    for kind in [WorkloadKind::Btree, WorkloadKind::Hashmap] {
        let thoth = run(kind, Mode::thoth_wtsc(), 128);
        let ideal = run(kind, Mode::AnubisEcc, 128);
        assert!(
            ideal.writes_total() <= thoth.writes_total(),
            "{kind}: ideal {} > thoth {}",
            ideal.writes_total(),
            thoth.writes_total()
        );
    }
}

#[test]
fn baseline_emits_no_pub_traffic_and_thoth_does() {
    let base = run(WorkloadKind::Ctree, Mode::baseline(), 128);
    assert_eq!(base.writes_in(WriteCategory::PubBlock), 0);
    assert_eq!(base.pcb_inserts, 0);
    let thoth = run(WorkloadKind::Ctree, Mode::thoth_wtsc(), 128);
    assert!(thoth.writes_in(WriteCategory::PubBlock) > 0);
    assert!(thoth.pcb_inserts > 0);
}

#[test]
fn both_block_sizes_work() {
    for block in [128usize, 256] {
        let base = run(WorkloadKind::Hashmap, Mode::baseline(), block);
        let thoth = run(WorkloadKind::Hashmap, Mode::thoth_wtsc(), block);
        assert!(base.writes_total() > 0, "block {block}");
        assert!(thoth.writes_total() <= base.writes_total(), "block {block}");
    }
}

#[test]
fn reports_are_deterministic_across_runs() {
    let trace = quick_trace(WorkloadKind::Rbtree);
    let cfg = small_cfg(Mode::thoth_wtsc(), 128);
    let a = run_trace(&cfg, &trace);
    let b = run_trace(&cfg, &trace);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.writes, b.writes);
    assert_eq!(a.pub_evictions, b.pub_evictions);
    assert_eq!(a.pcb_merged, b.pcb_merged);
}

#[test]
fn wtsc_persists_at_least_as_much_as_wtbc() {
    for kind in [WorkloadKind::Btree, WorkloadKind::Hashmap] {
        let wtsc = run(kind, Mode::thoth_wtsc(), 128);
        let wtbc = run(kind, Mode::thoth_wtbc(), 128);
        assert!(
            wtsc.pub_policy_persists >= wtbc.pub_policy_persists,
            "{kind}: WTSC {} < WTBC {} (WTSC is the conservative policy)",
            wtsc.pub_policy_persists,
            wtbc.pub_policy_persists
        );
    }
}

#[test]
fn transactions_counted_match_trace() {
    let trace = quick_trace(WorkloadKind::Swap);
    let measured: usize = trace.total_txs() - trace.warmup_txs_per_core * trace.cores.len();
    let r = run_trace(&small_cfg(Mode::baseline(), 128), &trace);
    assert_eq!(r.transactions as usize, measured);
}

#[test]
fn tx_size_sweep_changes_traffic_volume() {
    let mut small = WorkloadConfig::paper_default(WorkloadKind::Btree).scaled(0.02);
    small.footprint = 5_000;
    small.prepopulate = 2_500;
    let mut large = small;
    large.tx_size = 1024;
    let rs = run_trace(&small_cfg(Mode::baseline(), 128), &spec::generate(small));
    let rl = run_trace(&small_cfg(Mode::baseline(), 128), &spec::generate(large));
    assert!(
        rl.writes_in(WriteCategory::Data) > rs.writes_in(WriteCategory::Data),
        "1 KB transactions must write more data blocks"
    );
}

#[test]
fn cache_hit_rates_are_sane() {
    let r = run(WorkloadKind::Btree, Mode::thoth_wtsc(), 128);
    for (name, v) in [
        ("ctr", r.ctr_cache_hit_rate),
        ("mac", r.mac_cache_hit_rate),
        ("llc", r.llc_hit_rate),
    ] {
        assert!((0.0..=1.0).contains(&v), "{name} hit rate {v}");
    }
    assert!(r.llc_hit_rate > 0.3, "LLC should absorb most reads");
}

#[test]
fn eadr_never_loses_to_thoth() {
    // The eADR machine (paper's future work) ACKs persists immediately;
    // no ADR-domain scheme can beat whole-hierarchy persistence.
    for kind in [WorkloadKind::Btree, WorkloadKind::Hashmap] {
        let thoth = run(kind, Mode::thoth_wtsc(), 128);
        let eadr = run(kind, Mode::eadr(), 128);
        assert!(
            eadr.total_cycles <= thoth.total_cycles,
            "{kind}: eadr {} > thoth {}",
            eadr.total_cycles,
            thoth.total_cycles
        );
        assert_eq!(eadr.pcb_inserts, 0, "eADR needs no PCB");
        assert_eq!(eadr.writes_in(WriteCategory::PubBlock), 0);
    }
}

#[test]
fn pcb_after_wpq_performs_like_before_wpq() {
    // Section IV-C: the paper found the augmented PCB-before-WPQ design
    // obtains similar performance to PCB-after-WPQ.
    use thoth_sim::PcbArrangement;
    for kind in [WorkloadKind::Btree, WorkloadKind::Swap] {
        let trace = quick_trace(kind);
        let before = run_trace(&small_cfg(Mode::thoth_wtsc(), 128), &trace);
        let mut cfg = small_cfg(Mode::thoth_wtsc(), 128);
        cfg.pcb_arrangement = PcbArrangement::AfterWpq;
        let after = run_trace(&cfg, &trace);
        let ratio = after.total_cycles as f64 / before.total_cycles.max(1) as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "{kind}: arrangements should perform similarly, ratio {ratio:.3}"
        );
    }
}

#[test]
fn queue_extension_workload_runs_in_all_modes() {
    let mut cfg = WorkloadConfig::paper_default(WorkloadKind::Queue).scaled(0.02);
    cfg.footprint = 32;
    let trace = spec::generate(cfg);
    let base = run_trace(&small_cfg(Mode::baseline(), 128), &trace);
    let thoth = run_trace(&small_cfg(Mode::thoth_wtsc(), 128), &trace);
    assert!(base.transactions > 0);
    assert!(thoth.writes_total() <= base.writes_total());
}
