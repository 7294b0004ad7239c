//! The machine-side telemetry session: pre-registered stat handles,
//! trace lanes, and the epoch-sampled timeline schema.
//!
//! [`MachineTelemetry`] wraps a [`TelemetrySink`] with everything the
//! replay loop needs resolved up front — counter/histogram IDs and one
//! tracer lane per core plus the memory-controller and PUB-engine lanes
//! — so per-op recording is array indexing, never name lookup. The
//! machine holds it as `Option<Box<MachineTelemetry>>`: plain runs pay
//! one `is_some` branch per hook and nothing else (the differential
//! test `telemetry_neutrality` pins byte-identical reports).

use thoth_telemetry::{CounterId, HistId, TelemetryConfig, TelemetrySink};
use thoth_workloads::TraceOp;

/// Column schema of the epoch-sampled timeline (`cycle` is implicit).
pub const TIMELINE_COLUMNS: &[&str] = &[
    "wpq_occ",
    "pcb_updates",
    "pub_fill",
    "nvm_qdepth",
    "evict_skip_rate",
    "bytes_data",
    "bytes_counter",
    "bytes_mac",
    "bytes_pub",
    "bytes_tree",
    "bytes_shadow",
];

/// Per-op stat handles: a counter and a latency histogram kept in
/// lock-step through [`thoth_telemetry::Registry::event`].
#[derive(Clone, Copy)]
struct OpStat {
    counter: CounterId,
    latency: HistId,
}

/// One run's telemetry state, owned by the machine while instrumented.
#[derive(Clone)]
pub struct MachineTelemetry {
    /// The underlying sink (registry + timeline + tracer).
    pub sink: TelemetrySink,
    reads: OpStat,
    stores: OpStat,
    stores_relaxed: OpStat,
    flushes: OpStat,
    fences: OpStat,
    commits: OpStat,
    pub_appends: CounterId,
    pub_evicts: CounterId,
    wpq_accepts: CounterId,
    wpq_drains: CounterId,
    aes_hw_blocks: CounterId,
    hash_batch_runs: CounterId,
    bank_events_coalesced: CounterId,
    sip_simd_rows: CounterId,
    core_lanes: Vec<u32>,
    mc_lane: u32,
    pub_lane: u32,
    /// End cycle of the most recently recorded op — the timestamp WPQ
    /// events (which carry none of their own) are stamped with.
    last_now: u64,
}

impl MachineTelemetry {
    /// Builds the session for `cores` replay lanes.
    #[must_use]
    pub fn new(config: TelemetryConfig, cores: usize) -> Self {
        let mut sink = TelemetrySink::new(config, TIMELINE_COLUMNS);
        let op = |sink: &mut TelemetrySink, name: &'static str, lat: &'static str| OpStat {
            counter: sink.registry.counter(name),
            latency: sink.registry.hist(lat),
        };
        let reads = op(&mut sink, "ops_read", "read_cycles");
        let stores = op(&mut sink, "ops_store", "store_cycles");
        let stores_relaxed = op(&mut sink, "ops_store_relaxed", "store_relaxed_cycles");
        let flushes = op(&mut sink, "ops_flush", "flush_cycles");
        let fences = op(&mut sink, "ops_fence", "fence_cycles");
        let commits = op(&mut sink, "ops_commit", "commit_cycles");
        let pub_appends = sink.registry.counter("pub_appends");
        let pub_evicts = sink.registry.counter("pub_evicts");
        let wpq_accepts = sink.registry.counter("wpq_accepts");
        let wpq_drains = sink.registry.counter("wpq_drains");
        let aes_hw_blocks = sink.registry.counter("aes_hw_blocks");
        let hash_batch_runs = sink.registry.counter("hash_batch_runs");
        let bank_events_coalesced = sink.registry.counter("bank_events_coalesced");
        let sip_simd_rows = sink.registry.counter("sip_simd_rows");
        let (core_lanes, mc_lane, pub_lane) = match sink.tracer.as_mut() {
            Some(t) => {
                let lanes: Vec<u32> = (0..cores)
                    .map(|i| t.lane(&format!("core{i}")))
                    .collect();
                (lanes, t.lane("memctrl"), t.lane("pub-engine"))
            }
            None => (vec![0; cores], 0, 0),
        };
        MachineTelemetry {
            sink,
            reads,
            stores,
            stores_relaxed,
            flushes,
            fences,
            commits,
            pub_appends,
            pub_evicts,
            wpq_accepts,
            wpq_drains,
            aes_hw_blocks,
            hash_batch_runs,
            bank_events_coalesced,
            sip_simd_rows,
            core_lanes,
            mc_lane,
            pub_lane,
            last_now: 0,
        }
    }

    /// Records one replayed op: its counter/latency pair plus (when
    /// tracing) a complete span on the issuing core's lane.
    pub fn record_op(&mut self, core: usize, op: TraceOp, start: u64, end: u64) {
        let (stat, name) = match op {
            TraceOp::Read { .. } => (self.reads, "read"),
            TraceOp::Store { .. } => (self.stores, "store"),
            TraceOp::StoreRelaxed { .. } => (self.stores_relaxed, "store_relaxed"),
            TraceOp::Flush { .. } => (self.flushes, "flush"),
            TraceOp::Fence => (self.fences, "fence"),
            TraceOp::Commit => (self.commits, "commit"),
        };
        let latency = end.saturating_sub(start);
        self.last_now = self.last_now.max(end);
        self.sink.registry.event(stat.counter, stat.latency, latency);
        if let Some(t) = self.sink.tracer.as_mut() {
            t.complete(self.core_lanes[core], name, start, latency);
        }
    }

    /// Records a PUB append (packed block entering the circular buffer).
    pub fn record_pub_append(&mut self, now: u64) {
        self.sink.registry.add(self.pub_appends, 1);
        if let Some(t) = self.sink.tracer.as_mut() {
            t.instant(self.pub_lane, "pub_append", now);
        }
    }

    /// Records a PUB eviction read (oldest block leaving the buffer).
    pub fn record_pub_evict(&mut self, now: u64) {
        self.sink.registry.add(self.pub_evicts, 1);
        if let Some(t) = self.sink.tracer.as_mut() {
            t.instant(self.pub_lane, "pub_evict", now);
        }
    }

    /// Records a WPQ acceptance; non-coalesced entries open an async
    /// residency interval on the memory-controller lane keyed by address.
    pub fn record_wpq_accept(&mut self, addr: u64, coalesced: bool) {
        self.sink.registry.add(self.wpq_accepts, 1);
        if !coalesced {
            let now = self.last_now;
            if let Some(t) = self.sink.tracer.as_mut() {
                t.async_begin(self.mc_lane, "wpq", addr, now);
            }
        }
    }

    /// Harvests the substrate throughput counters at session end: AES
    /// blocks encrypted by the hardware backend, batched hash-kernel
    /// invocations (merkle + MAC), NVM bank completions coalesced into
    /// shared scoreboard entries, and SipHash rows that went through the
    /// multi-lane SIMD kernel. These are read once from the engines rather
    /// than recorded per event — the hot paths stay telemetry-free.
    pub fn record_substrate_counters(
        &mut self,
        aes_hw_blocks: u64,
        hash_batch_runs: u64,
        bank_events_coalesced: u64,
        sip_simd_rows: u64,
    ) {
        self.sink.registry.add(self.aes_hw_blocks, aes_hw_blocks);
        self.sink.registry.add(self.hash_batch_runs, hash_batch_runs);
        self.sink
            .registry
            .add(self.bank_events_coalesced, bank_events_coalesced);
        self.sink.registry.add(self.sip_simd_rows, sip_simd_rows);
    }

    /// Records a WPQ drain, closing the entry's residency interval.
    pub fn record_wpq_drain(&mut self, addr: u64) {
        self.sink.registry.add(self.wpq_drains, 1);
        let now = self.last_now;
        if let Some(t) = self.sink.tracer.as_mut() {
            t.async_end(self.mc_lane, "wpq", addr, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stats_stay_in_lock_step() {
        let mut tm = MachineTelemetry::new(TelemetryConfig::full(), 2);
        tm.record_op(0, TraceOp::Read { addr: 0, len: 64 }, 100, 160);
        tm.record_op(1, TraceOp::Commit, 200, 200);
        tm.record_op(0, TraceOp::Read { addr: 64, len: 64 }, 160, 400);
        let r = &tm.sink.registry;
        assert_eq!(r.counter_value("ops_read"), Some(2));
        assert_eq!(r.hist_named("read_cycles").expect("registered").count(), 2);
        assert_eq!(r.hist_named("read_cycles").expect("registered").sum(), 300);
        assert_eq!(r.counter_value("ops_commit"), Some(1));
        let tracer = tm.sink.tracer.as_ref().expect("full config traces");
        assert_eq!(tracer.lanes().len(), 4, "2 cores + memctrl + pub-engine");
        assert!(tracer.well_nested());
    }

    #[test]
    fn counters_only_skips_lanes() {
        let mut tm = MachineTelemetry::new(TelemetryConfig::counters_only(), 1);
        tm.record_op(0, TraceOp::Fence, 0, 10);
        tm.record_pub_append(5);
        tm.record_wpq_accept(0x80, false);
        tm.record_wpq_drain(0x80);
        assert!(tm.sink.tracer.is_none());
        let r = &tm.sink.registry;
        assert_eq!(r.counter_value("pub_appends"), Some(1));
        assert_eq!(r.counter_value("wpq_accepts"), Some(1));
        assert_eq!(r.counter_value("wpq_drains"), Some(1));
    }
}
