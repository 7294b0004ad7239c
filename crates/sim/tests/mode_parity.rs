//! Mode-parity regression for the *extension* mechanisms: Phoenix and
//! both Freij variants must replay identically run after run (self-parity),
//! without pinning their digests — their schedules are allowed to evolve.
//! The four original modes are held to the pinned quick headline matrix
//! digest instead, which `thoth-experiments headline` checks on every run
//! (see the pin table in `crates/experiments/src/headline.rs`).

use thoth_sim::{run_trace, Mode, SimConfig};
use thoth_workloads::{spec, WorkloadConfig, WorkloadKind};

#[test]
fn extension_modes_are_deterministic() {
    let modes = [Mode::phoenix(), Mode::freij_strict(), Mode::freij_lazy()];
    // The quick experiment trace: scale 0.02, default seed, 128 B txs.
    let trace = spec::generate(WorkloadConfig::at_scale(WorkloadKind::Hashmap, 0.02));
    for mode in modes {
        let cfg = SimConfig::paper_default(mode, 128);
        let a = run_trace(&cfg, &trace);
        let b = run_trace(&cfg, &trace);
        assert_eq!(a.digest(), b.digest(), "{} must replay identically", mode.label());
        assert!(a.writes_total() > 0);
    }
}
