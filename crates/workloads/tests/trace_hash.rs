//! Pins the exact op and class streams `spec::generate_annotated` emits.
//!
//! Trace generation is a host-side hot path that gets optimised; the
//! traces it produces are the simulator's input and must not move. Each
//! case folds every core's op stream and class stream into an FNV-1a
//! hash over a fixed field encoding and compares it with a committed
//! value. A mismatch means the generated workload changed, not just its
//! speed.

use thoth_workloads::spec::generate_annotated;
use thoth_workloads::{OpClass, TraceOp, WorkloadConfig, WorkloadKind};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn op_words(op: &TraceOp) -> [u64; 3] {
    match *op {
        TraceOp::Read { addr, len } => [1, addr, u64::from(len)],
        TraceOp::Store { addr, len } => [2, addr, u64::from(len)],
        TraceOp::StoreRelaxed { addr, len } => [3, addr, u64::from(len)],
        TraceOp::Flush { addr, len } => [4, addr, u64::from(len)],
        TraceOp::Fence => [5, 0, 0],
        TraceOp::Commit => [6, 0, 0],
    }
}

fn class_words(class: &OpClass) -> [u64; 3] {
    match *class {
        OpClass::Read => [1, 0, 0],
        OpClass::LogAppend {
            guard_addr,
            guard_len,
        } => [2, guard_addr, u64::from(guard_len)],
        OpClass::CommitRecord => [3, 0, 0],
        OpClass::DataInPlace => [4, 0, 0],
        OpClass::DataFresh => [5, 0, 0],
        OpClass::Flush => [6, 0, 0],
        OpClass::Fence => [7, 0, 0],
        OpClass::Commit => [8, 0, 0],
    }
}

/// `(ops hash, classes hash)` of the annotated trace for `cfg`.
fn trace_hashes(cfg: WorkloadConfig) -> (u64, u64) {
    let a = generate_annotated(cfg);
    let (mut ops, mut classes) = (Fnv::new(), Fnv::new());
    ops.word(a.trace.warmup_txs_per_core as u64);
    for (core_ops, core_classes) in a.trace.cores.iter().zip(&a.classes) {
        assert_eq!(
            core_ops.len(),
            core_classes.len(),
            "class stream misaligned"
        );
        ops.word(core_ops.len() as u64);
        classes.word(core_classes.len() as u64);
        for w in core_ops.iter().flat_map(op_words) {
            ops.word(w);
        }
        for w in core_classes.iter().flat_map(class_words) {
            classes.word(w);
        }
    }
    (ops.0, classes.0)
}

/// A small two-core configuration of `kind` with a shrunken footprint.
fn small(kind: WorkloadKind) -> WorkloadConfig {
    let mut c = WorkloadConfig::paper_default(kind).scaled(0.05);
    c.cores = 2;
    c.footprint = match kind {
        WorkloadKind::Swap => 32,
        WorkloadKind::Queue => 64,
        _ => 4000,
    };
    c.prepopulate = c.footprint / 2;
    c.delete_per_mille = 100;
    c
}

#[test]
fn small_traces_of_every_workload_are_pinned() {
    let pins: [(WorkloadKind, u64, u64); 7] = [
        (
            WorkloadKind::Btree,
            0xde38_ddaa_1992_59b8,
            0x7952_4f6a_41c3_b411,
        ),
        (
            WorkloadKind::Rbtree,
            0x0ffb_d014_96c8_5738,
            0x0340_d649_18f2_5778,
        ),
        (
            WorkloadKind::Hashmap,
            0xb30a_fdd7_03bb_9efc,
            0x73e6_a490_630b_4101,
        ),
        (
            WorkloadKind::Ctree,
            0xa2a6_6d6b_3ce0_760c,
            0x000e_9412_d14d_4f20,
        ),
        (
            WorkloadKind::Swap,
            0x1518_9e56_d86f_b4bf,
            0x2073_f0d4_bf01_f745,
        ),
        (
            WorkloadKind::Queue,
            0x6557_7726_a1fb_87c5,
            0xed7f_4040_9b49_ca05,
        ),
        (
            WorkloadKind::Service,
            0x662c_53e5_1e89_b645,
            0x0a0e_c78e_91c6_9092,
        ),
    ];
    assert_eq!(pins.map(|p| p.0), WorkloadKind::EXTENDED);
    let got: Vec<(WorkloadKind, u64, u64)> = WorkloadKind::EXTENDED
        .into_iter()
        .map(|kind| {
            let (ops, classes) = trace_hashes(small(kind));
            (kind, ops, classes)
        })
        .collect();
    assert_eq!(got, pins);
}

/// The paper footprint (200k keys, 100k pre-populated per core) drives
/// the heap through thousands of pages before the traced phase starts.
#[test]
fn paper_footprint_btree_trace_is_pinned() {
    let mut cfg = WorkloadConfig::paper_default(WorkloadKind::Btree).scaled(0.02);
    cfg.cores = 2;
    let (ops, classes) = trace_hashes(cfg);
    assert_eq!(
        (ops, classes),
        (0xb1e0_8423_aecb_bfc5, 0xaee2_37d3_6d2e_55b5)
    );
}
