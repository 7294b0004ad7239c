#!/usr/bin/env bash
# Tier-1 gate: build, tests, and lint — fully offline (the workspace has
# zero external dependencies; see DESIGN.md §5 and the committed
# Cargo.lock). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release --locked

echo "== tests =="
cargo test -q --locked

echo "== clippy (deny warnings) =="
cargo clippy --all-targets --locked -- -D warnings

echo "== thoth-workloads tests (trace-hash pins, heap read path) =="
cargo test -q --locked -p thoth-workloads

echo "== thoth-workloads clippy (deny warnings) =="
cargo clippy -p thoth-workloads --all-targets --locked -- -D warnings

echo "== sim-engine / sim / experiments tests (warm_start, telemetry, determinism) =="
cargo test -q --locked -p thoth-sim-engine -p thoth-sim -p thoth-experiments

echo "== sim-engine / sim / experiments / bench clippy (deny warnings) =="
cargo clippy -p thoth-sim-engine -p thoth-sim -p thoth-experiments -p thoth-bench \
    --all-targets --locked -- -D warnings

echo "== thoth-lint (repo invariants) =="
cargo run -q --release --locked -p thoth-lint

echo "== mode parity (trait refactor must not move the golden quick matrix) =="
cargo test -q --locked -p thoth-sim --test mode_parity

echo "== ablation smoke (incl. six-mechanism comparison table) =="
cargo run -q --release --locked -p thoth-experiments -- ablation --quick

echo "== crashtest smoke (sampled crash points, all workloads) =="
cargo run -q --release --locked -p thoth-experiments -- crashtest --quick

echo "== psan (sanitizer clean sweep + seeded-bug corpus) =="
cargo run -q --release --locked -p thoth-experiments -- psan --quick

echo "== fuzz (persist-trace fuzzer, three-observer cross-check) =="
cargo run -q --release --locked -p thoth-experiments -- fuzz --quick

echo "== telemetry (observability layer unit tests) =="
cargo test -q --locked -p thoth-telemetry

echo "== telemetry smoke (neutrality + artifact schema, one workload) =="
cargo run -q --release --locked -p thoth-experiments -- telemetry --quick

echo "== service smoke (open-loop saturation: finite monotone quantiles + knee) =="
cargo run -q --release --locked -p thoth-experiments -- service --quick

echo "== perf digest gate (quick matrix must match the pinned digest) =="
cargo run -q --release --locked -p thoth-experiments -- perf --quick \
    --expect-digest 0xaa9ddf0ced976c32

echo "== perf digest gate (scale 0.1 — exercises batch shapes quick mode misses) =="
cargo run -q --release --locked -p thoth-experiments -- perf --scale 0.1 \
    --expect-digest 0x7a4d2eee8b41f3a6

echo "== crypto with intrinsics disabled (thoth_soft_aes fallback must not rot) =="
RUSTFLAGS="--cfg thoth_soft_aes" cargo test -q --locked -p thoth-crypto

echo "== crypto with SIMD hashing disabled (thoth_soft_sip fallback must not rot) =="
RUSTFLAGS="--cfg thoth_soft_sip" cargo test -q --locked -p thoth-crypto

echo "ci: all green"
