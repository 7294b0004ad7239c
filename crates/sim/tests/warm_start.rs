//! Differential test: warm-start snapshots must be invisible.
//!
//! A [`WarmBoot`] clones the machine state captured at the warm-up
//! boundary and replays only the measured phase, so repeated runs of the
//! same trace skip the warm-up. The contract is bit-identity: for every
//! mode × workload, a warm-started run must produce exactly the report a
//! cold [`SecureNvm::run`] produces — same FNV digest, same cycle count,
//! same write totals. Anything less would let the snapshot path drift
//! from the simulated machine.

use thoth_sim::{run_trace, Mode, SecureNvm, SimConfig, WarmBoot};
use thoth_workloads::{spec, MultiCoreTrace, WorkloadConfig, WorkloadKind};

/// The paper's five workloads plus the queue extension — every generator
/// with a conventional warm-up phase (service traces gate on arrivals and
/// carry no warm-up to skip).
const WORKLOADS: [WorkloadKind; 6] = [
    WorkloadKind::Btree,
    WorkloadKind::Rbtree,
    WorkloadKind::Hashmap,
    WorkloadKind::Ctree,
    WorkloadKind::Swap,
    WorkloadKind::Queue,
];

/// A small-but-real trace: paper defaults scaled down, with the
/// pre-population shrunk the same way the experiment runner's quick mode
/// does so generation stays fast.
fn trace_for(kind: WorkloadKind) -> MultiCoreTrace {
    let mut cfg = WorkloadConfig::paper_default(kind).scaled(0.01);
    cfg.footprint = match kind {
        WorkloadKind::Swap => 4,
        WorkloadKind::Queue => 32,
        _ => 2_000,
    };
    cfg.prepopulate = cfg.footprint / 2;
    spec::generate(cfg)
}

#[test]
fn warm_start_is_bit_identical_to_cold_across_modes_and_workloads() {
    for kind in WORKLOADS {
        let trace = trace_for(kind);
        for mode in Mode::ALL {
            let config = SimConfig::paper_default(mode, 128);
            let cold = run_trace(&config, &trace);

            let boot: WarmBoot = SecureNvm::new(config).warm_boot(&trace);
            let warm = boot.run(&trace);
            let point = format!("{}/{}", kind.name(), mode.label());
            assert_eq!(
                cold.digest(),
                warm.digest(),
                "warm start perturbed the report digest at {point}"
            );
            assert_eq!(
                cold.total_cycles, warm.total_cycles,
                "warm start perturbed timing at {point}"
            );
            assert_eq!(
                cold.writes_total(),
                warm.writes_total(),
                "warm start perturbed NVM writes at {point}"
            );
        }
    }
}

#[test]
fn one_boot_serves_many_identical_runs() {
    let trace = trace_for(WorkloadKind::Btree);
    let config = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
    let cold = run_trace(&config, &trace);
    let boot = SecureNvm::new(config).warm_boot(&trace);
    let first = boot.run(&trace);
    let second = boot.run(&trace);
    assert_eq!(cold.digest(), first.digest());
    assert_eq!(first.digest(), second.digest(), "the snapshot is reusable");
}

/// Full functional mode drives real CTR encryption, MAC computation, and
/// tree hashing — the deep-clone must carry all of that state, not just
/// the fast-path fabrications.
#[test]
fn warm_start_survives_full_functional_mode() {
    let trace = trace_for(WorkloadKind::Queue);
    let mut config = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
    config.functional = thoth_sim::FunctionalMode::Full;
    let cold = run_trace(&config, &trace);
    let boot = SecureNvm::new(config).warm_boot(&trace);
    let warm = boot.run(&trace);
    assert_eq!(cold.digest(), warm.digest());
    assert_eq!(cold.total_cycles, warm.total_cycles);
}
