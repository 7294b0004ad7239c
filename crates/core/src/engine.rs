//! The complete Thoth mechanism as a reusable engine.
//!
//! [`ThothEngine`] packages the paper's contribution — PCB combining, PUB
//! buffering, and WTSC/WTBC eviction filtering — behind a host-agnostic
//! interface, so it can be dropped into any memory-controller model (the
//! full-system simulator in `thoth-sim` is one host; a trace-driven
//! analysis or another group's simulator can be another).
//!
//! The host provides four capabilities through [`ThothHost`]:
//!
//! 1. the metadata cache's ground-truth **view** of a block at eviction
//!    time (resident? dirty? does the entry hold the latest value?),
//! 2. **persisting** a metadata block in place (and marking it clean),
//! 3. **writing** a packed PUB block into the persistence path,
//! 4. **reading** a PUB block back from NVM.
//!
//! Everything else — entry packing, FIFO management, the 80% threshold,
//! policy decisions, and the Figure-3 outcome accounting — lives here.

use crate::entry::{PartialUpdate, PubBlockCodec};
use crate::pcb::{Pcb, PcbInsert, PcbStats};
use crate::policy::{BlockView, EvictOutcome, EvictionPolicy, MetadataKind};
use crate::pub_buffer::{PubBuffer, PubConfig, PubStats};

use std::collections::BTreeMap;
use thoth_telemetry::QueueProbe;

/// Host callbacks the engine drives (see module docs).
pub trait ThothHost {
    /// Ground-truth cache state of the metadata block (`kind` side) that
    /// `update` belongs to, including WTBC's value comparison.
    fn metadata_view(&mut self, kind: MetadataKind, update: &PartialUpdate) -> BlockView;

    /// Persists the metadata block (`kind` side) holding `update`'s
    /// counter or MAC to its home location and marks it clean.
    fn persist_metadata(&mut self, kind: MetadataKind, update: &PartialUpdate);

    /// Writes one packed PUB block at `addr` through the persistence path.
    fn write_pub_block(&mut self, addr: u64, image: &[u8]);

    /// Reads the PUB block at `addr` from NVM.
    fn read_pub_block(&mut self, addr: u64) -> Vec<u8>;

    /// `true` once the host has injected a crash: the engine stops starting
    /// new work (evictions) but always finishes the atomic transition in
    /// flight, so volatile FIFO registers never disagree with the
    /// persistence domain. Hosts without crash injection keep the default.
    fn power_failed(&self) -> bool {
        false
    }
}

/// The Thoth mechanism: PCB + PUB + eviction policy.
#[derive(Clone)]
pub struct ThothEngine {
    pcb: Pcb,
    pub_buf: PubBuffer,
    policy: EvictionPolicy,
    codec: PubBlockCodec,
    outcomes: BTreeMap<EvictOutcome, u64>,
    policy_persists: u64,
    /// Telemetry probes over PCB buffered updates and PUB fill; `None`
    /// (off) by default — the insert path pays one branch each.
    pcb_probe: Option<QueueProbe>,
    pub_probe: Option<QueueProbe>,
    /// Reusable encode buffer for PUB appends (one block image) — the
    /// append path is hot enough that a fresh `Vec` per block shows up.
    scratch: Vec<u8>,
}

impl ThothEngine {
    /// Creates an engine with `pcb_slots` reserved combining entries over
    /// the PUB region described by `pub_config`, filtering evictions with
    /// `policy`.
    #[must_use]
    pub fn new(policy: EvictionPolicy, pcb_slots: usize, pub_config: PubConfig) -> Self {
        let codec = PubBlockCodec::new(pub_config.block_bytes);
        ThothEngine {
            pcb: Pcb::new(pcb_slots, codec.entries_per_block()),
            pub_buf: PubBuffer::new(pub_config),
            policy,
            codec,
            outcomes: BTreeMap::new(),
            policy_persists: 0,
            pcb_probe: None,
            pub_probe: None,
            scratch: vec![0; pub_config.block_bytes],
        }
    }

    /// Installs telemetry probes over the PCB (buffered partial updates)
    /// and the PUB (valid blocks), recorded after every insert/eviction.
    pub fn attach_probes(&mut self, pcb: QueueProbe, pub_: QueueProbe) {
        self.pcb_probe = Some(pcb);
        self.pub_probe = Some(pub_);
    }

    /// Removes and returns the probes as `(pcb, pub)`, if attached.
    pub fn take_probes(&mut self) -> Option<(QueueProbe, QueueProbe)> {
        match (self.pcb_probe.take(), self.pub_probe.take()) {
            (Some(p), Some(q)) => Some((p, q)),
            _ => None,
        }
    }

    /// Maximum partial updates the PCB can buffer (slots × entries per
    /// packed block) — the capacity bound for its occupancy probe.
    #[must_use]
    pub fn pcb_capacity_updates(&self) -> usize {
        self.pcb.num_slots() * self.codec.entries_per_block()
    }

    /// Partial updates currently buffered in the PCB.
    #[must_use]
    pub fn pcb_buffered_updates(&self) -> usize {
        self.pcb.buffered_updates()
    }

    fn note_occupancies(&mut self) {
        if let Some(p) = self.pcb_probe.as_mut() {
            p.record(self.pcb.buffered_updates() as u64);
        }
        if let Some(p) = self.pub_probe.as_mut() {
            p.record(self.pub_buf.len_blocks());
        }
    }

    /// The eviction policy in force.
    #[must_use]
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// The PUB entry codec.
    #[must_use]
    pub fn codec(&self) -> PubBlockCodec {
        self.codec
    }

    /// PCB statistics (Table III's merge rate).
    #[must_use]
    pub fn pcb_stats(&self) -> PcbStats {
        self.pcb.stats()
    }

    /// PUB occupancy statistics.
    #[must_use]
    pub fn pub_stats(&self) -> PubStats {
        self.pub_buf.stats()
    }

    /// Ground-truth eviction outcome counts (the Figure 3 breakdown).
    #[must_use]
    pub fn outcomes(&self) -> &BTreeMap<EvictOutcome, u64> {
        &self.outcomes
    }

    /// Metadata block persists the policy actually performed.
    #[must_use]
    pub fn policy_persists(&self) -> u64 {
        self.policy_persists
    }

    /// Inserts one partial update: merges in the PCB when possible, packs
    /// full blocks into the PUB, and services eviction pressure (the 80%
    /// threshold) through the host.
    pub fn insert(&mut self, update: PartialUpdate, host: &mut impl ThothHost) {
        let r = self.pcb.insert(update);
        match r {
            PcbInsert::Merged | PcbInsert::Added => {}
            PcbInsert::Emit(block) => {
                // PUB append is one atomic transition: write the packed
                // block into the persistence path *then* advance the end
                // register. A crash tap firing inside write_pub_block
                // still sees the full transition complete — gating happens
                // at the loop boundaries below, never mid-append.
                let addr = self.pub_buf.peek_tail();
                self.codec.encode_into(&block, &mut self.scratch);
                host.write_pub_block(addr, &self.scratch);
                self.pub_buf.commit_tail();
                while self.pub_buf.needs_eviction() && !host.power_failed() {
                    if !self.evict_one(host) {
                        break;
                    }
                }
            }
        }
        self.note_occupancies();
    }

    /// Evicts the oldest PUB block, classifying every entry and persisting
    /// the metadata blocks the policy requires.
    ///
    /// The victim is popped only after every entry is processed; if the
    /// host's power fails partway through, the start register still points
    /// at the victim and recovery re-merges it (persisting metadata is
    /// idempotent). Returns `false` if the eviction was abandoned.
    fn evict_one(&mut self, host: &mut impl ThothHost) -> bool {
        let Some(victim) = self.pub_buf.peek_oldest() else {
            return false;
        };
        let image = host.read_pub_block(victim);
        for e in self.codec.decode(&image) {
            if host.power_failed() {
                return false;
            }
            for (kind, status) in [
                (MetadataKind::Counter, e.ctr_status),
                (MetadataKind::Mac, e.mac_status),
            ] {
                let view = host.metadata_view(kind, &e);
                *self.outcomes.entry(EvictOutcome::classify(view)).or_insert(0) += 1;
                if self.policy.requires_persist(status, view) {
                    self.policy_persists += 1;
                    host.persist_metadata(kind, &e);
                }
            }
        }
        let popped = self.pub_buf.pop_oldest();
        debug_assert_eq!(popped, Some(victim));
        true
    }

    /// Crash: the ADR domain flushes each non-empty PCB slot to the PUB as
    /// one crash-padded block (duplicate-fill, Section IV-A). The host's
    /// write here is the residual-power flush (functional, untimed).
    ///
    /// # Panics
    ///
    /// Panics if the PUB lacks space for the flush — the region must keep
    /// at least `pcb_slots` blocks of headroom above the eviction
    /// threshold (the paper's 64 MB region at 80% leaves ~13 MB of
    /// headroom against an 8-block flush; see `SimConfig::validate`).
    pub fn crash_flush(&mut self, mut write: impl FnMut(u64, &[u8])) {
        for slot in self.pcb.crash_drain() {
            let addr = self.pub_buf.allocate_tail();
            write(addr, &self.codec.encode(&slot));
        }
    }

    /// Snapshot of the PCB's buffered partial updates, oldest slot first
    /// (see [`Pcb::pending`]).
    #[must_use]
    pub fn pcb_pending(&self) -> Vec<Vec<PartialUpdate>> {
        self.pcb.pending()
    }

    /// Recovery scan order: every valid PUB block address, oldest first.
    #[must_use]
    pub fn recovery_scan(&self) -> Vec<u64> {
        self.pub_buf.scan_oldest_to_youngest()
    }

    /// Empties the PUB after recovery has merged its contents.
    pub fn clear(&mut self) {
        self.pub_buf.clear();
    }

    /// Direct access to the PUB (occupancy inspection, pre-filling).
    pub fn pub_buffer_mut(&mut self) -> &mut PubBuffer {
        &mut self.pub_buf
    }

    /// Read-only access to the PUB.
    #[must_use]
    pub fn pub_buffer(&self) -> &PubBuffer {
        &self.pub_buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A minimal host: metadata views scripted per data block, PUB blocks
    /// stored in a map, persists recorded.
    struct ScriptedHost {
        views: HashMap<(MetadataKind, u32), BlockView>,
        pub_mem: HashMap<u64, Vec<u8>>,
        persisted: Vec<(MetadataKind, u32)>,
    }

    impl ScriptedHost {
        fn new() -> Self {
            ScriptedHost {
                views: HashMap::new(),
                pub_mem: HashMap::new(),
                persisted: Vec::new(),
            }
        }
    }

    impl ThothHost for ScriptedHost {
        fn metadata_view(&mut self, kind: MetadataKind, u: &PartialUpdate) -> BlockView {
            self.views
                .get(&(kind, u.block_index))
                .copied()
                .unwrap_or(BlockView::NotPresent)
        }
        fn persist_metadata(&mut self, kind: MetadataKind, u: &PartialUpdate) {
            self.persisted.push((kind, u.block_index));
        }
        fn write_pub_block(&mut self, addr: u64, image: &[u8]) {
            self.pub_mem.insert(addr, image.to_vec());
        }
        fn read_pub_block(&mut self, addr: u64) -> Vec<u8> {
            self.pub_mem[&addr].clone()
        }
    }

    fn tiny_engine(threshold: u8) -> ThothEngine {
        ThothEngine::new(
            EvictionPolicy::Wtsc,
            2,
            PubConfig {
                base_addr: 0x1000,
                size_bytes: 4 * 128,
                block_bytes: 128,
                evict_threshold_pct: threshold,
            },
        )
    }

    fn pu(i: u32, status: bool) -> PartialUpdate {
        PartialUpdate {
            block_index: i,
            minor: (i % 128) as u8,
            mac2: u64::from(i) * 77,
            ctr_status: status,
            mac_status: status,
        }
    }

    #[test]
    fn packs_blocks_into_pub_through_host() {
        let mut e = tiny_engine(100);
        let mut h = ScriptedHost::new();
        // 2 PCB slots x 9 entries: the 19th distinct update evicts a full
        // slot into the PUB.
        for i in 0..19 {
            e.insert(pu(i, false), &mut h);
        }
        assert_eq!(h.pub_mem.len(), 1);
        assert_eq!(e.pub_buffer().len_blocks(), 1);
        let img = h.pub_mem.values().next().unwrap();
        assert_eq!(e.codec().decode(img).len(), 9);
    }

    #[test]
    fn eviction_respects_policy_and_counts_outcomes() {
        let mut e = tiny_engine(25); // evict as soon as 1/4 blocks used
        let mut h = ScriptedHost::new();
        // Make block 0's counter side dirty-latest, MAC side clean.
        for i in 0..9 {
            h.views.insert(
                (MetadataKind::Counter, i),
                BlockView::Dirty { subblock_dirty: true, value_matches: true },
            );
            h.views.insert((MetadataKind::Mac, i), BlockView::Clean);
        }
        // Fill both PCB slots and emit one block (triggering eviction).
        for i in 0..19 {
            e.insert(pu(i, true), &mut h);
        }
        // The evicted block held entries 0..9: counter side persisted,
        // MAC side skipped as clean copies.
        assert_eq!(e.policy_persists(), 9);
        assert!(h.persisted.iter().all(|(k, _)| *k == MetadataKind::Counter));
        assert_eq!(e.outcomes()[&EvictOutcome::WrittenBack], 9);
        assert_eq!(e.outcomes()[&EvictOutcome::CleanCopy], 9);
    }

    #[test]
    fn crash_flush_pads_partial_slots() {
        let mut e = tiny_engine(100);
        let mut h = ScriptedHost::new();
        for i in 0..4 {
            e.insert(pu(i, false), &mut h);
        }
        let mut flushed = Vec::new();
        e.crash_flush(|addr, img| flushed.push((addr, img.to_vec())));
        assert_eq!(flushed.len(), 1, "one padded block");
        let entries = e.codec().decode(&flushed[0].1);
        assert_eq!(entries.len(), 4, "duplicates collapse on decode");
        assert_eq!(e.recovery_scan().len(), 1);
        e.clear();
        assert!(e.recovery_scan().is_empty());
    }

    #[test]
    fn probes_track_pcb_and_pub_occupancy() {
        let mut e = tiny_engine(100);
        let mut h = ScriptedHost::new();
        let pcb_cap = e.pcb_capacity_updates() as u64;
        assert_eq!(pcb_cap, 18, "2 slots x 9 entries per 128 B block");
        e.attach_probes(
            QueueProbe::new("pcb", pcb_cap),
            QueueProbe::new("pub", e.pub_buffer().capacity_blocks()),
        );
        for i in 0..19 {
            e.insert(pu(i, false), &mut h);
        }
        let (pcb, pub_) = e.take_probes().expect("probes attached");
        assert!(pcb.within_capacity());
        assert!(pub_.within_capacity());
        assert_eq!(pcb.samples(), 19, "one sample per insert");
        assert_eq!(pub_.peak(), 1, "one packed block emitted");
        assert!(e.take_probes().is_none());
    }

    #[test]
    fn merge_in_pcb_produces_no_pub_traffic() {
        let mut e = tiny_engine(100);
        let mut h = ScriptedHost::new();
        for _ in 0..100 {
            e.insert(pu(7, false), &mut h); // same block every time
        }
        assert!(h.pub_mem.is_empty());
        assert_eq!(e.pcb_stats().merged, 99);
    }
}
