//! The undo-logging transaction runtime and the persistent-store trace.
//!
//! WHISPER's database benchmarks wrap every operation in a durable
//! transaction: old values are appended to a persistent undo log, the data
//! is updated in place, and a commit record makes the transaction durable
//! (each step ordered by persist barriers). [`TxRuntime`] provides exactly
//! that discipline to the workload data structures and records every
//! persistent store and read as a [`TraceOp`] for the simulator to replay.

use crate::heap::PersistentHeap;

/// One operation in a core's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A data read (pointer chase, key comparison, old-value fetch).
    Read {
        /// Byte address.
        addr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// A persistent store that must reach the persistence domain.
    Store {
        /// Byte address.
        addr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// A store that stays in the volatile cache hierarchy until a later
    /// [`TraceOp::Flush`] writes it back (the `mov` + `clwb` idiom;
    /// [`TraceOp::Store`] models non-temporal stores whose write-back is
    /// implicit). On its own it creates **no** durable-ordering edge.
    StoreRelaxed {
        /// Byte address.
        addr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Cache-line write-back of `[addr, addr+len)` (`clwb`): every
    /// relaxed-dirty block in the range enters the persistence domain.
    Flush {
        /// Byte address.
        addr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// A persist barrier (`sfence`) without commit semantics: the core
    /// waits for every outstanding persist ACK before continuing.
    Fence,
    /// The transaction's persist barrier (sfence after the commit record):
    /// every prior store must be ACKed persistent before the core
    /// continues.
    Commit,
}

/// The transactional role of one [`TraceOp`] — recorded alongside the
/// trace by [`TxRuntime`] so the persistency sanitizer (`thoth-psan`) can
/// check the undo-logging discipline op by op. The class stream is always
/// index-aligned with the op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A read access.
    Read,
    /// An undo-log append guarding the in-place update of
    /// `[guard_addr, guard_addr + guard_len)`. Must be persist-ordered
    /// before that update (write-ahead logging).
    LogAppend {
        /// Address of the data range this log entry guards.
        guard_addr: u64,
        /// Length of the guarded range.
        guard_len: u32,
    },
    /// The commit record making the transaction durable.
    CommitRecord,
    /// An in-place data update (guarded by a [`OpClass::LogAppend`] of the
    /// same transaction).
    DataInPlace,
    /// A store to freshly allocated, never-exposed memory (needs no undo
    /// entry).
    DataFresh,
    /// A cache-line write-back.
    Flush,
    /// A persist barrier.
    Fence,
    /// The transaction's commit barrier.
    Commit,
}

/// The trace of one core: the ops of all its transactions, in order.
pub type CoreTrace = Vec<TraceOp>;

/// Traces for all simulated cores plus the warmup boundary.
#[derive(Debug, Clone, Default)]
pub struct MultiCoreTrace {
    /// One trace per core.
    pub cores: Vec<CoreTrace>,
    /// Number of leading transactions per core that are warm-up (the
    /// paper fast-forwards ≥5000 transactions per core before measuring).
    pub warmup_txs_per_core: usize,
}

impl MultiCoreTrace {
    /// Total committed transactions across all cores.
    #[must_use]
    pub fn total_txs(&self) -> usize {
        self.cores
            .iter()
            .map(|c| c.iter().filter(|op| matches!(op, TraceOp::Commit)).count())
            .sum()
    }

    /// Total persistent stores across all cores (relaxed stores count:
    /// they carry persistent data even though their write-back is a
    /// separate [`TraceOp::Flush`]).
    #[must_use]
    pub fn total_stores(&self) -> usize {
        self.cores
            .iter()
            .map(|c| {
                c.iter()
                    .filter(|op| {
                        matches!(op, TraceOp::Store { .. } | TraceOp::StoreRelaxed { .. })
                    })
                    .count()
            })
            .sum()
    }
}

/// A trace together with its per-op [`OpClass`] annotations
/// (`classes[core][i]` classifies `trace.cores[core][i]`).
#[derive(Debug, Clone, Default)]
pub struct AnnotatedTrace {
    /// The op streams.
    pub trace: MultiCoreTrace,
    /// Index-aligned class streams, one per core.
    pub classes: Vec<Vec<OpClass>>,
}

/// Per-runtime statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Committed transactions.
    pub txs: u64,
    /// Persistent stores emitted (including log appends and commits).
    pub stores: u64,
    /// Persistent bytes stored.
    pub bytes_stored: u64,
    /// Undo-log appends.
    pub log_appends: u64,
}

/// The per-core transaction runtime: heap + undo log + trace recorder.
///
/// # Example
///
/// ```
/// use thoth_workloads::{TraceOp, TxRuntime};
///
/// let mut rt = TxRuntime::new(0x1000_0000);
/// let p = rt.alloc(64);
/// rt.begin();
/// rt.write_new(p, &[1u8; 16]);   // fresh allocation: no undo entry
/// rt.commit();
///
/// rt.begin();
/// rt.write(p, &[2u8; 16]);       // in-place update: undo-logged
/// rt.commit();
///
/// let trace = rt.into_trace();
/// assert_eq!(trace.iter().filter(|op| matches!(op, TraceOp::Commit)).count(), 2);
/// ```
#[derive(Debug)]
pub struct TxRuntime {
    heap: PersistentHeap,
    trace: CoreTrace,
    /// Index-aligned with `trace`.
    classes: Vec<OpClass>,
    log_base: u64,
    log_cap: u64,
    log_head: u64,
    in_tx: bool,
    stores_in_tx: u64,
    /// Ranges undo-logged in the open transaction (dedup: a range's
    /// pre-transaction image only needs logging once — re-logging it
    /// would capture an intermediate value, which is both wasted write
    /// bandwidth and an undo-replay hazard).
    logged_ranges: Vec<(u64, u64)>,
    /// Reused buffer that undo records and value blobs are built in.
    scratch: Vec<u8>,
    undo_dedup: bool,
    tracing: bool,
    stats: RuntimeStats,
}

/// Undo-log region size per core (1 MB; transactions are far smaller).
const LOG_CAP: u64 = 1 << 20;

/// Undo-log entry header: target address (8 B) + length (8 B).
const LOG_HDR: u64 = 16;

impl TxRuntime {
    /// Creates a runtime whose heap starts at `heap_base`. The undo log is
    /// carved from the start of the heap.
    #[must_use]
    pub fn new(heap_base: u64) -> Self {
        let mut heap = PersistentHeap::new(heap_base);
        let log_base = heap.alloc(LOG_CAP);
        TxRuntime {
            heap,
            trace: Vec::new(),
            classes: Vec::new(),
            log_base,
            log_cap: LOG_CAP,
            log_head: 0,
            in_tx: false,
            stores_in_tx: 0,
            logged_ranges: Vec::new(),
            scratch: Vec::new(),
            undo_dedup: true,
            tracing: true,
            stats: RuntimeStats::default(),
        }
    }

    /// Enables or disables per-transaction undo-log dedup (on by default).
    /// With dedup off, every [`Self::write`] appends an undo entry even if
    /// the same range was already logged in the open transaction — the
    /// covered-log-append smell `thoth-psan` flags.
    pub fn set_undo_dedup(&mut self, on: bool) {
        self.undo_dedup = on;
    }

    /// Enables or disables trace recording. With tracing off, heap
    /// mutations and undo logging still execute (the structure is really
    /// built) but no [`TraceOp`]s are emitted — used to pre-populate a
    /// workload's data set before the traced phase, like WHISPER's
    /// database-loading step.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// The underlying heap (read-only).
    #[must_use]
    pub fn heap(&self) -> &PersistentHeap {
        &self.heap
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Number of trace ops recorded so far (the open-loop service
    /// generator delimits per-request op extents with length deltas).
    #[must_use]
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// Allocates persistent memory (no trace — allocator metadata updates
    /// are modeled as part of the structures' own writes).
    pub fn alloc(&mut self, size: u64) -> u64 {
        self.heap.alloc(size)
    }

    /// Begins a transaction.
    ///
    /// # Panics
    ///
    /// Panics on nested transactions.
    pub fn begin(&mut self) {
        assert!(!self.in_tx, "nested transactions are not supported");
        self.in_tx = true;
        self.stores_in_tx = 0;
        self.log_head = 0;
        self.logged_ranges.clear();
    }

    /// Records one op and its class (only while tracing).
    fn push_op(&mut self, op: TraceOp, class: OpClass) {
        self.trace.push(op);
        self.classes.push(class);
    }

    /// Records a read of `[addr, addr+len)` (only while tracing).
    fn record_read(&mut self, addr: u64, len: usize) {
        if self.tracing {
            self.push_op(
                TraceOp::Read {
                    addr,
                    len: len as u32,
                },
                OpClass::Read,
            );
        }
    }

    /// Fills `out` with the bytes at `addr`, recording the access.
    pub fn read_into(&mut self, addr: u64, out: &mut [u8]) {
        self.record_read(addr, out.len());
        self.heap.read_into(addr, out);
    }

    /// Reads `len` bytes into a new vector, recording the access.
    pub fn read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Reads a `u64`, recording the access.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        self.record_read(addr, 8);
        self.heap.read_u64(addr)
    }

    fn raw_store(&mut self, addr: u64, bytes: &[u8], class: OpClass) {
        self.heap.write(addr, bytes);
        self.stores_in_tx += 1;
        if self.tracing {
            self.push_op(
                TraceOp::Store {
                    addr,
                    len: bytes.len() as u32,
                },
                class,
            );
            self.stats.stores += 1;
            self.stats.bytes_stored += bytes.len() as u64;
        }
    }

    /// Appends an undo record for `[addr, addr+len)` to the log.
    fn log_append(&mut self, addr: u64, len: usize) {
        let need = LOG_HDR + len as u64;
        if self.log_head + need > self.log_cap {
            self.log_head = 0; // circular; validity is bounded by the commit record
        }
        let dst = self.log_base + self.log_head;
        // Header then the old bytes, read straight into the reused buffer.
        let mut rec = std::mem::take(&mut self.scratch);
        rec.clear();
        rec.extend_from_slice(&addr.to_le_bytes());
        rec.extend_from_slice(&(len as u64).to_le_bytes());
        rec.resize(LOG_HDR as usize + len, 0);
        self.heap.read_into(addr, &mut rec[LOG_HDR as usize..]);
        self.raw_store(
            dst,
            &rec,
            OpClass::LogAppend {
                guard_addr: addr,
                guard_len: len as u32,
            },
        );
        self.scratch = rec;
        self.log_head += need;
        self.stats.log_appends += 1;
    }

    /// Transactionally writes `bytes` at `addr`: the old contents are
    /// undo-logged first (write-ahead), then the data is stored. A range
    /// already logged by this transaction is not re-logged (see
    /// [`Self::set_undo_dedup`]).
    ///
    /// # Panics
    ///
    /// Panics outside a transaction.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        assert!(self.in_tx, "transactional write outside a transaction");
        let len = bytes.len() as u64;
        let covered = self.undo_dedup
            && self
                .logged_ranges
                .iter()
                .any(|&(a, l)| a <= addr && addr + len <= a + l);
        if !covered {
            self.log_append(addr, bytes.len());
            self.logged_ranges.push((addr, len));
        }
        self.raw_store(addr, bytes, OpClass::DataInPlace);
    }

    /// Transactionally writes a `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Writes to freshly allocated, never-exposed memory: persistent but
    /// with no undo entry (there is no old state to restore).
    pub fn write_new(&mut self, addr: u64, bytes: &[u8]) {
        assert!(self.in_tx, "transactional write outside a transaction");
        self.raw_store(addr, bytes, OpClass::DataFresh);
    }

    /// Writes a `u64` to fresh memory.
    pub fn write_new_u64(&mut self, addr: u64, v: u64) {
        self.write_new(addr, &v.to_le_bytes());
    }

    /// Allocates a `size`-byte value blob and fills it, as fresh memory,
    /// with the byte pattern `fill + i` (wrapping). Returns its address.
    pub fn write_new_blob(&mut self, size: usize, fill: u64) -> u64 {
        let blob = self.alloc(size as u64);
        let mut bytes = std::mem::take(&mut self.scratch);
        bytes.clear();
        bytes.extend((0..size).map(|i| (fill as u8).wrapping_add(i as u8)));
        self.write_new(blob, &bytes);
        self.scratch = bytes;
        blob
    }

    /// Commits: writes the commit record and emits the persist barrier.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction.
    pub fn commit(&mut self) {
        assert!(self.in_tx, "commit outside a transaction");
        // Commit record: transaction sequence number at the log tail
        // slot. Read-only transactions persist nothing and need no
        // record (nor a persist barrier).
        if self.stores_in_tx > 0 {
            let rec_addr = self.log_base + self.log_cap - 8;
            let seq = self.stats.txs + 1;
            self.raw_store(rec_addr, &seq.to_le_bytes(), OpClass::CommitRecord);
            if self.tracing {
                self.push_op(TraceOp::Commit, OpClass::Commit);
                self.stats.txs += 1;
            }
        }
        self.in_tx = false;
    }

    /// Finishes tracing and returns the recorded trace.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is still open.
    #[must_use]
    pub fn into_trace(self) -> CoreTrace {
        assert!(!self.in_tx, "open transaction at end of trace");
        self.trace
    }

    /// Finishes tracing and returns the trace together with its
    /// index-aligned [`OpClass`] stream.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is still open.
    #[must_use]
    pub fn into_annotated(self) -> (CoreTrace, Vec<OpClass>) {
        assert!(!self.in_tx, "open transaction at end of trace");
        debug_assert_eq!(self.trace.len(), self.classes.len());
        (self.trace, self.classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_logs_old_value_first() {
        let mut rt = TxRuntime::new(0);
        let p = rt.alloc(8);
        rt.begin();
        rt.write_new_u64(p, 7);
        rt.commit();
        rt.begin();
        rt.write_u64(p, 9);
        rt.commit();
        let stats = rt.stats();
        assert_eq!(stats.txs, 2);
        assert_eq!(stats.log_appends, 1, "only the in-place update logs");
        // Ops of tx2: log store, data store, commit store, Commit.
        let trace = rt.into_trace();
        let tx2: Vec<_> = trace
            .split(|op| matches!(op, TraceOp::Commit))
            .nth(1)
            .unwrap()
            .to_vec();
        assert_eq!(tx2.len(), 3);
        assert!(matches!(tx2[0], TraceOp::Store { len: 24, .. })); // 16B header + 8B old
        assert!(matches!(tx2[1], TraceOp::Store { addr, len: 8 } if addr == p));
    }

    #[test]
    fn undo_log_contains_old_bytes() {
        let mut rt = TxRuntime::new(0);
        let p = rt.alloc(8);
        rt.begin();
        rt.write_new_u64(p, 0xAAAA);
        rt.commit();
        rt.begin();
        rt.write_u64(p, 0xBBBB);
        // Log entry sits at log_base: header {addr, len} + old value.
        let log_base = rt.log_base;
        assert_eq!(rt.heap().read_u64(log_base), p);
        assert_eq!(rt.heap().read_u64(log_base + 8), 8);
        assert_eq!(rt.heap().read_u64(log_base + 16), 0xAAAA);
        rt.commit();
    }

    #[test]
    fn reads_are_traced() {
        let mut rt = TxRuntime::new(0);
        let p = rt.alloc(8);
        rt.begin();
        rt.write_new_u64(p, 5);
        rt.commit();
        assert_eq!(rt.read_u64(p), 5);
        let trace = rt.into_trace();
        assert!(trace
            .iter()
            .any(|op| matches!(op, TraceOp::Read { addr, len: 8 } if *addr == p)));
    }

    #[test]
    fn heap_state_reflects_writes() {
        let mut rt = TxRuntime::new(0x5000);
        let p = rt.alloc(16);
        rt.begin();
        rt.write_new(p, b"persistentmemory");
        rt.commit();
        assert_eq!(rt.heap().read(p, 16), b"persistentmemory");
    }

    #[test]
    fn log_wraps_without_overflowing_region() {
        let mut rt = TxRuntime::new(0);
        let p = rt.alloc(4096);
        rt.begin();
        rt.write_new(p, &vec![1u8; 4096]);
        rt.commit();
        // Many large logged updates exceed the 1 MB log: must wrap.
        for _ in 0..600 {
            rt.begin();
            rt.write(p, &vec![2u8; 4096]);
            rt.commit();
        }
        assert!(rt.log_head <= rt.log_cap);
    }

    #[test]
    fn multicore_trace_counters() {
        let mut rt = TxRuntime::new(0);
        let p = rt.alloc(8);
        rt.begin();
        rt.write_new_u64(p, 1);
        rt.commit();
        let mc = MultiCoreTrace {
            cores: vec![rt.into_trace()],
            warmup_txs_per_core: 0,
        };
        assert_eq!(mc.total_txs(), 1);
        assert_eq!(mc.total_stores(), 2); // data + commit record
    }

    #[test]
    fn undo_dedup_skips_covered_ranges() {
        // Default (dedup on): a range already logged in the open
        // transaction is not logged again.
        let mut rt = TxRuntime::new(0);
        let p = rt.alloc(8);
        rt.begin();
        rt.write_new_u64(p, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(p, 2);
        rt.write_u64(p, 3);
        rt.commit();
        assert_eq!(rt.stats().log_appends, 1, "second write is covered");

        // Dedup off: the covered-log-append smell returns (what the
        // sanitizer flags).
        let mut rt = TxRuntime::new(0);
        rt.set_undo_dedup(false);
        let p = rt.alloc(8);
        rt.begin();
        rt.write_new_u64(p, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(p, 2);
        rt.write_u64(p, 3);
        rt.commit();
        assert_eq!(rt.stats().log_appends, 2);
    }

    #[test]
    fn undo_dedup_resets_at_transaction_boundaries() {
        let mut rt = TxRuntime::new(0);
        let p = rt.alloc(8);
        rt.begin();
        rt.write_new_u64(p, 1);
        rt.commit();
        for v in [2u64, 3] {
            rt.begin();
            rt.write_u64(p, v);
            rt.commit();
        }
        assert_eq!(rt.stats().log_appends, 2, "each tx logs the range once");
    }

    #[test]
    fn annotated_classes_mirror_the_ops() {
        let mut rt = TxRuntime::new(0);
        let p = rt.alloc(8);
        rt.begin();
        rt.write_new_u64(p, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(p, 2);
        rt.commit();
        let (ops, classes) = rt.into_annotated();
        assert_eq!(ops.len(), classes.len());
        // Transaction 2: log append, in-place data, commit record, commit.
        let n = ops.len();
        assert!(matches!(
            classes[n - 4],
            OpClass::LogAppend { guard_addr, guard_len } if guard_addr == p && guard_len == 8
        ));
        assert_eq!(classes[n - 3], OpClass::DataInPlace);
        assert_eq!(classes[n - 2], OpClass::CommitRecord);
        assert_eq!(classes[n - 1], OpClass::Commit);
        assert!(matches!(ops[n - 1], TraceOp::Commit));
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nested_begin_panics() {
        let mut rt = TxRuntime::new(0);
        rt.begin();
        rt.begin();
    }

    #[test]
    #[should_panic(expected = "outside a transaction")]
    fn write_outside_tx_panics() {
        let mut rt = TxRuntime::new(0);
        let p = rt.alloc(8);
        rt.write_u64(p, 1);
    }

    #[test]
    #[should_panic(expected = "open transaction")]
    fn into_trace_with_open_tx_panics() {
        let mut rt = TxRuntime::new(0);
        rt.begin();
        let _ = rt.into_trace();
    }
}
