#!/usr/bin/env bash
# Tier-1 gate: build, tests, and lint — fully offline (the workspace has
# zero external dependencies; see DESIGN.md §5 and the committed
# Cargo.lock). Run from the repository root. The root manifest is a
# virtual workspace, so the plain `cargo test` / `cargo clippy` stages
# cover every member crate. Each stage prints its elapsed seconds, and
# the last line the total.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# stage NAME CMD...: runs CMD under a banner and reports its wall time.
stage() {
    local name=$1 start=$SECONDS
    shift
    echo "== $name =="
    "$@"
    echo "-- $name: $((SECONDS - start)) s"
}

experiment() {
    cargo run -q --release --locked -p thoth-experiments -- "$@"
}

stage "build (release)" cargo build --release --locked

stage "tests (every workspace crate)" cargo test -q --locked

stage "clippy (deny warnings, every workspace crate)" \
    cargo clippy --all-targets --locked -- -D warnings

stage "thoth-lint (repo invariants)" cargo run -q --release --locked -p thoth-lint

stage "ablation smoke (incl. six-mechanism comparison table)" experiment ablation --quick

stage "crashtest smoke (sampled crash points, all workloads)" experiment crashtest --quick

stage "psan (sanitizer clean sweep + seeded-bug corpus)" experiment psan --quick

stage "fuzz (persist-trace fuzzer, three-observer cross-check)" experiment fuzz --quick

stage "telemetry smoke (neutrality + artifact schema, one workload)" experiment telemetry --quick

stage "service smoke (open-loop saturation: finite monotone quantiles + knee)" \
    experiment service --quick

stage "headline digest gate (quick matrix must match its pin)" experiment headline --quick

stage "headline digest gate (scale 0.1 — exercises batch shapes quick mode misses)" \
    experiment headline --scale 0.1

stage "crypto with intrinsics disabled (thoth_soft_aes fallback must not rot)" \
    env RUSTFLAGS="--cfg thoth_soft_aes" cargo test -q --locked -p thoth-crypto

stage "crypto with SIMD hashing disabled (thoth_soft_sip fallback must not rot)" \
    env RUSTFLAGS="--cfg thoth_soft_sip" cargo test -q --locked -p thoth-crypto

echo "ci: all green in ${SECONDS} s"
