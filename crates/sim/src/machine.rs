//! The secure-NVM machine: cores, secure memory controller, WPQ, PCB,
//! PUB and the NVM device, replaying workload traces.

use crate::config::{FunctionalMode, Mode, SimConfig};
use crate::crash::{CrashControl, CrashPlan, CrashSiteCounts, CrashSiteKind, LoggedOp};
use crate::diagnostics::{byte_digest, LeafMismatch, MacMismatch};
use crate::layout::MemoryLayout;
use crate::mechanism::{mechanism_of, ReencryptMeta, StoreMeta};
use crate::psan_events::{PersistEvent, PersistEventKind, PsanRecorder, NO_CTX};
use crate::report::{RecoveryReport, SimReport};
use crate::service::{ServiceReport, ServiceSession};
use crate::telemetry::MachineTelemetry;

use thoth_cache::{CacheConfig, CacheStats, SetAssocCache};
use thoth_core::engine::{ThothEngine, ThothHost};
use thoth_core::policy::{BlockView, MetadataKind};
use thoth_core::{EvictOutcome, PartialUpdate, PcbStats, PubConfig};
use thoth_crypto::counter::CounterGroup;
use thoth_crypto::{CtrMode, MacEngine, MacKey};
use thoth_memctrl::{Wpq, WpqConfig, WpqEvent, WpqStats};
use thoth_merkle::{BonsaiTree, MerkleConfig, ShadowTracker};
use thoth_nvm::{FaultConfig, NvmDevice, WriteCategory};
use thoth_sim_engine::{Cycle, DetRng};
use thoth_telemetry::{QueueProbe, TelemetryConfig, TelemetryReport};
use thoth_workloads::service::ServiceTrace;
use thoth_workloads::{MultiCoreTrace, TraceOp};

use std::collections::BTreeMap;
use thoth_sim_engine::{FastMap, FastSet};

/// Keys are fixed for reproducibility; a real system draws them at boot.
const ENC_KEY: [u8; 16] = *b"thoth-enc-key..!";
const MAC_KEY: [u8; 16] = *b"thoth-mac-key..!";
const TREE_KEY: u64 = 0x7407_113A_57EE_C0DE;

/// How many warm-up partial updates to keep for PUB pre-filling.
const PREFILL_POOL: usize = 8192;

/// The full machine. See the crate docs for the overall structure.
/// `pub(crate)` fields are the surface the [`crate::mechanism`] seam
/// works against.
#[derive(Clone)]
pub struct SecureNvm {
    pub(crate) config: SimConfig,
    pub(crate) layout: MemoryLayout,
    pub(crate) nvm: NvmDevice,
    pub(crate) wpq: Wpq,
    ctr_mode: CtrMode,
    pub(crate) mac: MacEngine,
    /// Counter cache: payload = unpacked split-counter groups.
    pub(crate) ctr_cache: SetAssocCache<Vec<CounterGroup>>,
    /// MAC cache: payload = the MAC block image (first-level MACs).
    pub(crate) mac_cache: SetAssocCache<Vec<u8>>,
    /// Merkle-tree cache: payload-free (the logical tree holds values).
    mt_cache: SetAssocCache<()>,
    /// Data-side LLC model.
    llc: SetAssocCache<()>,
    /// The logical (always fresh) integrity tree; its root models the
    /// on-chip persistent root register.
    tree: BonsaiTree,
    shadow: ShadowTracker,
    shadow_writes_emitted: u64,
    /// The paper's mechanism (Thoth modes only).
    pub(crate) thoth: Option<ThothEngine>,
    /// Per-data-block logical write version (the "application data").
    pub(crate) data_versions: FastMap<u64, u64>,
    /// Ring of warm-up partial updates used to pre-fill the PUB.
    prefill_pool: Vec<PartialUpdate>,
    /// Thoth/after-WPQ: partial updates absorbed by pending WPQ entries.
    pub(crate) pcb_wpq_bypass: u64,
    transactions: u64,
    /// Armed (or observing) crash trigger plus the armed run's
    /// durably-ACKed op log; `None` in normal runs.
    crash_ctl: Option<CrashControl>,
    /// Persist-event recorder for the sanitizer; `None` in normal runs.
    psan: Option<PsanRecorder>,
    /// Telemetry session; `None` in normal runs (every hook is gated on
    /// this being present, so plain runs are byte-identical).
    telem: Option<Box<MachineTelemetry>>,
    /// Open-loop service session (arrival gating + request latency);
    /// `None` in normal runs.
    service: Option<Box<ServiceSession>>,
    /// Blocks holding relaxed-store data not yet written back (volatile
    /// dirty lines awaiting a `Flush`).
    relaxed_pending: FastSet<u64>,
}

/// A post-warm-up machine image: the state of [`SecureNvm::run`] right
/// after warm-up replay, boundary synchronization, and PUB prefill,
/// packaged by [`SecureNvm::warm_boot`] so repeated measured runs of the
/// same trace skip the warm-up. Cloning the image is bit-identical to
/// re-running the warm-up (guarded by the `warm_start` test suite and
/// the perf harness's cold-vs-warm digest check).
pub struct WarmBoot {
    machine: SecureNvm,
    cores: Vec<CoreState>,
    boundary: Cycle,
    snap: Snapshot,
}

impl WarmBoot {
    /// Replays the measured phase of `trace` on a clone of the boundary
    /// state. The trace must be the one given to [`SecureNvm::warm_boot`]
    /// — the core cursors index into it.
    #[must_use]
    pub fn run(&self, trace: &MultiCoreTrace) -> SimReport {
        let mut machine = self.machine.clone();
        let mut cores = self.cores.clone();
        machine.run_measured(trace, &mut cores, self.boundary, &self.snap)
    }
}

/// Per-core replay cursor.
#[derive(Clone)]
struct CoreState {
    time: Cycle,
    /// Persist ACKs outstanding in the current transaction.
    pending_ack: Cycle,
    idx: usize,
    txs_done: usize,
    done: bool,
}

impl SecureNvm {
    /// Builds a machine from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        config.validate();
        let layout = MemoryLayout::new(config.block_bytes);
        let meta_block = config.block_bytes;
        let thoth = match config.mode {
            Mode::Thoth(policy) => Some(ThothEngine::new(
                policy,
                config.pcb_entries,
                PubConfig {
                    base_addr: layout.pub_base,
                    size_bytes: config.pub_size_bytes,
                    block_bytes: config.block_bytes,
                    evict_threshold_pct: config.pub_threshold_pct,
                },
            )),
            _ => None,
        };
        let wpq_cfg = WpqConfig::with_capacity(config.effective_wpq_entries());
        SecureNvm {
            layout,
            nvm: NvmDevice::new(config.nvm),
            wpq: Wpq::new(wpq_cfg),
            ctr_mode: CtrMode::new(&ENC_KEY),
            mac: MacEngine::new(MacKey(MAC_KEY)),
            ctr_cache: SetAssocCache::new(CacheConfig::new(
                config.ctr_cache_bytes,
                config.ctr_cache_ways,
                meta_block,
            )),
            mac_cache: SetAssocCache::new(CacheConfig::new(
                config.mac_cache_bytes,
                config.mac_cache_ways,
                meta_block,
            )),
            mt_cache: SetAssocCache::new(CacheConfig::new(
                config.mt_cache_bytes,
                config.mt_cache_ways,
                64,
            )),
            llc: SetAssocCache::new(CacheConfig::new(
                config.llc_bytes,
                config.llc_ways,
                meta_block,
            )),
            tree: BonsaiTree::new(MerkleConfig::new(8, layout.tree_leaves()), TREE_KEY),
            shadow: ShadowTracker::new(),
            shadow_writes_emitted: 0,
            thoth,
            data_versions: FastMap::default(),
            prefill_pool: Vec::new(),
            pcb_wpq_bypass: 0,
            transactions: 0,
            crash_ctl: None,
            psan: None,
            telem: None,
            service: None,
            relaxed_pending: FastSet::default(),
            config,
        }
    }

    /// The configuration this machine was built with.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The address-space layout.
    #[must_use]
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// Direct access to the NVM device (tests use this for tamper
    /// injection and content checks).
    pub fn nvm_mut(&mut self) -> &mut NvmDevice {
        &mut self.nvm
    }

    /// The on-chip integrity-tree root register (folds any deferred tree
    /// updates first — the register always reflects every issued store).
    pub fn root(&mut self) -> u64 {
        self.tree.flush();
        self.tree.root()
    }

    // ------------------------------------------------------------------
    // Functional helpers
    // ------------------------------------------------------------------

    /// Deterministic plaintext of a data block at a logical version.
    fn plaintext(&self, addr: u64, version: u64) -> Vec<u8> {
        let mut out = vec![0u8; self.config.block_bytes];
        let mut x = addr ^ version.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xA5A5_A5A5;
        for chunk in out.chunks_mut(8) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        }
        out
    }

    /// First-level MAC: real (over ciphertext) in Full mode, fabricated
    /// deterministically from the counter in Fast mode.
    fn first_level_mac(&self, addr: u64, major: u64, minor: u8, ct: Option<&[u8]>) -> Vec<u8> {
        match ct {
            Some(ct) => self.mac.first_level(addr, major, minor, ct),
            None => {
                // One batched-kernel call fabricates every tag word;
                // each row hashes bit-identically to `raw_hash` over its
                // 32-byte LE encoding, so values match the old per-word
                // loop exactly.
                let words = self.layout.mac_len() / 8;
                let rows: Vec<[u64; 4]> = (0..words)
                    .map(|i| [addr, major, u64::from(minor), i as u64])
                    .collect();
                let mut out = Vec::with_capacity(self.layout.mac_len());
                for tag in self.mac.raw_hash_words_batch(&rows) {
                    out.extend_from_slice(&tag.to_le_bytes());
                }
                out
            }
        }
    }

    pub(crate) fn pack_ctr_block(&self, groups: &[CounterGroup]) -> Vec<u8> {
        self.layout.ctr_geometry.pack(groups)
    }

    // ------------------------------------------------------------------
    // Metadata cache management
    // ------------------------------------------------------------------

    /// Ensures a counter block is cached; returns added latency.
    ///
    /// Misses snoop the WPQ first (read forwarding): a pending write-back
    /// holds newer state than the device, and fetching around it would
    /// regress counters.
    fn ensure_ctr(&mut self, now: Cycle, cb: u64) -> u64 {
        if self.ctr_cache.lookup(cb).is_some() {
            return 0;
        }
        let (image, latency) = match self.wpq.forward(cb) {
            Some(img) => (img.clone(), 0),
            None => {
                let img = self.nvm.read_block(cb);
                let done = self.nvm.time_access(now, cb, false);
                (img, done - now)
            }
        };
        let groups = self.layout.ctr_geometry.unpack(&image);
        if let Some(ev) = self.ctr_cache.insert(cb, groups) {
            self.writeback_ctr(now, ev.addr, &ev.value, ev.dirty);
        }
        latency
    }

    /// Ensures a MAC block is cached; returns added latency. Snoops the
    /// WPQ like [`Self::ensure_ctr`].
    fn ensure_mac(&mut self, now: Cycle, mb: u64) -> u64 {
        if self.mac_cache.lookup(mb).is_some() {
            return 0;
        }
        let (image, latency) = match self.wpq.forward(mb) {
            Some(img) => (img.clone(), 0),
            None => {
                let img = self.nvm.read_block(mb);
                let done = self.nvm.time_access(now, mb, false);
                (img, done - now)
            }
        };
        if let Some(ev) = self.mac_cache.insert(mb, image) {
            self.writeback_mac(now, ev.addr, &ev.value, ev.dirty);
        }
        latency
    }

    /// Natural write-back of an evicted counter block.
    fn writeback_ctr(&mut self, now: Cycle, addr: u64, groups: &[CounterGroup], dirty: bool) {
        if dirty {
            let image = self.pack_ctr_block(groups);
            self.wpq
                .insert(now, addr, Some(image), WriteCategory::CounterBlock, &mut self.nvm);
            self.note_shadow_clean(now, addr);
        }
    }

    /// Natural write-back of an evicted MAC block.
    fn writeback_mac(&mut self, now: Cycle, addr: u64, image: &[u8], dirty: bool) {
        if dirty {
            self.wpq.insert(
                now,
                addr,
                Some(image.to_vec()),
                WriteCategory::MacBlock,
                &mut self.nvm,
            );
            self.note_shadow_clean(now, addr);
        }
    }

    pub(crate) fn note_shadow_dirty(&mut self, now: Cycle, addr: u64) {
        if !mechanism_of(self.config.mode).shadow_tracked() {
            // Strict persistence keeps NVM consistent; eADR's caches are
            // themselves persistent; Phoenix reconstructs at boot.
            return;
        }
        if self.shadow.note_dirty(addr) {
            self.emit_shadow_write(now);
        }
    }

    pub(crate) fn note_shadow_clean(&mut self, now: Cycle, addr: u64) {
        if !mechanism_of(self.config.mode).shadow_tracked() {
            return;
        }
        if self.shadow.note_clean(addr) {
            self.emit_shadow_write(now);
        }
    }

    /// Shadow updates pack `block/8` entries per block; emit one block
    /// write per full pack.
    fn emit_shadow_write(&mut self, now: Cycle) {
        let per_block = (self.config.block_bytes / 8) as u64;
        let n = self.shadow.updates();
        if n.is_multiple_of(per_block) {
            let addr = self.layout.shadow_addr(n);
            self.wpq
                .insert(now, addr, None, WriteCategory::Shadow, &mut self.nvm);
            self.shadow_writes_emitted += 1;
        }
    }

    // ------------------------------------------------------------------
    // The secure write pipeline
    // ------------------------------------------------------------------

    /// Performs one persistent block store; returns the persist-ACK cycle.
    fn store_block(&mut self, now: Cycle, addr: u64) -> Cycle {
        let index = self.layout.block_index(addr);
        let (cb, group, slot) = self.layout.ctr_location(index);
        let (mb, mslot) = self.layout.mac_location(index);

        // Fetch metadata (misses overlap with each other).
        let lat_c = self.ensure_ctr(now, cb);
        let lat_m = self.ensure_mac(now, mb);
        let mut t = now + lat_c.max(lat_m);

        // Status bits are sampled BEFORE this update dirties the blocks.
        let ctr_was_dirty = self.ctr_cache.is_dirty(cb);
        let mac_was_dirty = self.mac_cache.is_dirty(mb);

        // Increment the counter.
        let groups = self.ctr_cache.lookup_mut(cb).expect("ensured");
        let outcome = groups[group].increment(slot);
        let (major, minor) = groups[group].value_of(slot);
        let overflowed = outcome == thoth_crypto::counter::IncrementOutcome::MajorOverflow;

        // Application data version bump.
        let version = self.data_versions.entry(index).or_insert(0);
        *version += 1;
        let version = *version;

        // Encrypt + first-level MAC (pad generation overlaps the fetch;
        // charge the serial tail).
        t += self.config.aes_cycles + self.config.hash_cycles;
        let ciphertext = match self.config.functional {
            FunctionalMode::Full => {
                let pt = self.plaintext(addr, version);
                Some(self.ctr_mode.encrypt(addr, major, minor, &pt))
            }
            FunctionalMode::Fast => None,
        };
        let first_mac = self.first_level_mac(addr, major, minor, ciphertext.as_deref());

        // Update the MAC cache image.
        let mac_len = self.layout.mac_len();
        let img = self.mac_cache.lookup_mut(mb).expect("ensured");
        img[mslot * mac_len..(mslot + 1) * mac_len].copy_from_slice(&first_mac);

        // Eager integrity-tree update over the cached counter block.
        let leaf = self.layout.tree_leaf(cb);
        let packed = {
            let groups = self.ctr_cache.peek(cb).expect("ensured");
            self.pack_ctr_block(groups)
        };
        let leaf_hash = self.tree.leaf_hash_of(cb, &packed);
        // The logical-tree rehash is deferred: the path's node identities
        // are positional (level L holds index `leaf / arity^L`), so the
        // caching/persistence walk below needs no hashing, and queued
        // updates fold through the batched multi-lane kernel before any
        // tree observation. The timing model is unchanged — it charges
        // fixed hash latencies, not host-side hash work.
        self.tree.update_leaf_deferred(leaf, leaf_hash);
        let arity = self.tree.config().arity;
        let tree_levels = self.tree.levels();
        t += self.config.hash_cycles; // eager cache-tree update
        let mechanism = mechanism_of(self.config.mode);
        if mechanism.extra_store_hash() {
            // "we calculate another hash for the last level" (Section V-A)
            t += self.config.hash_cycles;
        }
        // NVM tree persistence, per the mechanism's schedule: strict
        // subtrees stream every updated path node through the WPQ with
        // the store (pipelined, so no extra serial hash); lazy subtrees
        // touch path nodes in the MT cache and let dirty evictions become
        // TreeNode writes.
        let mut tree_ack = Cycle::ZERO;
        if mechanism.strict_tree_path() {
            let mut node_index = leaf;
            for level in 0..tree_levels {
                let naddr = self.layout.tree_node_addr(level, node_index);
                if self.mt_cache.lookup(naddr).is_none() {
                    self.mt_cache.insert(naddr, ());
                }
                let a = self
                    .wpq
                    .insert(t, naddr, None, WriteCategory::TreeNode, &mut self.nvm);
                tree_ack = tree_ack.max(a);
                node_index /= arity;
            }
        } else {
            let mut node_index = leaf;
            for level in 0..tree_levels {
                let naddr = self.layout.tree_node_addr(level, node_index);
                if self.mt_cache.lookup(naddr).is_none() {
                    if let Some(ev) = self.mt_cache.insert(naddr, ()) {
                        if ev.dirty {
                            self.wpq.insert(
                                t,
                                ev.addr,
                                None,
                                WriteCategory::TreeNode,
                                &mut self.nvm,
                            );
                        }
                    }
                }
                self.mt_cache.mark_dirty(naddr, None);
                node_index /= arity;
            }
        }

        // Persist, per the mechanism's schedule.
        let data_ack = self
            .wpq
            .insert(t, addr, ciphertext, WriteCategory::Data, &mut self.nvm);
        let mut ack = data_ack.max(tree_ack);

        let meta = StoreMeta {
            index,
            addr,
            cb,
            mb,
            mslot,
            minor,
            ctr_was_dirty,
            mac_was_dirty,
            first_mac,
            packed_ctr: packed,
        };
        let mech = mechanism.persist_store(self, &mut t, &mut ack, meta);
        if let Some(p) = self.psan.as_mut() {
            p.emit(PersistEventKind::MetaCover { block: addr, mech });
        }

        // Minor-counter overflow: persist the counter block immediately
        // and re-encrypt the page.
        if overflowed {
            ack = ack.max(self.handle_overflow(t, cb, index));
        }
        ack
    }

    /// Inserts a partial update into the PCB, handling emission into the
    /// PUB and PUB eviction pressure. Returns the persist-ACK cycle (PCB
    /// acceptance is immediate: it is ADR-backed).
    pub(crate) fn insert_partial_update(&mut self, now: Cycle, pu: PartialUpdate) -> Cycle {
        if self.prefill_pool.len() < PREFILL_POOL {
            self.prefill_pool.push(pu);
        } else {
            let i = (pu.block_index as usize * 31 + pu.minor as usize) % PREFILL_POOL;
            self.prefill_pool[i] = pu;
        }
        let Self {
            thoth,
            layout,
            nvm,
            wpq,
            ctr_cache,
            mac_cache,
            mac,
            shadow,
            shadow_writes_emitted,
            config,
            crash_ctl,
            psan,
            telem,
            ..
        } = self;
        let mut host = MachineHost {
            now,
            layout,
            block_bytes: config.block_bytes,
            shadow_tracking: mechanism_of(config.mode).shadow_tracked(),
            nvm,
            wpq,
            ctr_cache,
            mac_cache,
            mac,
            shadow,
            shadow_writes_emitted,
            crash_ctl: crash_ctl.as_mut(),
            psan: psan.as_mut(),
            telem: telem.as_deref_mut(),
        };
        thoth.as_mut().expect("Thoth mode").insert(pu, &mut host);
        now
    }

    /// Minor-counter overflow: eagerly persist the counter block and
    /// re-encrypt every written block of the overflowed page.
    fn handle_overflow(&mut self, now: Cycle, cb: u64, trigger_index: u64) -> Cycle {
        // Eager counter-block persist.
        let image = {
            let groups = self.ctr_cache.peek(cb).expect("resident");
            self.pack_ctr_block(groups)
        };
        let mut ack = self
            .wpq
            .insert(now, cb, Some(image), WriteCategory::CounterBlock, &mut self.nvm);
        self.ctr_cache.clean(cb);
        self.note_shadow_clean(now, cb);

        // Re-encrypt the page of the triggering block.
        let bpp = self.layout.ctr_geometry.blocks_per_page as u64;
        let page_first = trigger_index - trigger_index % bpp;
        let mut t = now;
        for idx in page_first..page_first + bpp {
            if idx == trigger_index {
                continue; // the triggering write re-encrypts it anyway
            }
            if !self.data_versions.contains_key(&idx) {
                continue; // never written: nothing to re-encrypt
            }
            t += 2 * self.config.aes_cycles; // decrypt + encrypt
            let a = self.reencrypt_block(t, idx);
            ack = ack.max(a);
        }
        ack
    }

    /// Re-encrypts one data block under its current (post-overflow)
    /// counter, updating its MAC and emitting the data write.
    fn reencrypt_block(&mut self, now: Cycle, index: u64) -> Cycle {
        let addr = self.layout.block_addr(index);
        let (cb, group, slot) = self.layout.ctr_location(index);
        let (mb, mslot) = self.layout.mac_location(index);
        let lat = self.ensure_mac(now, mb);
        let t = now + lat;
        let (major, minor) = {
            let groups = self.ctr_cache.peek(cb).expect("resident");
            groups[group].value_of(slot)
        };
        let version = self.data_versions[&index];
        let ciphertext = match self.config.functional {
            FunctionalMode::Full => {
                let pt = self.plaintext(addr, version);
                Some(self.ctr_mode.encrypt(addr, major, minor, &pt))
            }
            FunctionalMode::Fast => None,
        };
        let first_mac = self.first_level_mac(addr, major, minor, ciphertext.as_deref());
        let mac_len = self.layout.mac_len();
        let mac_was_dirty = self.mac_cache.is_dirty(mb);
        let img = self.mac_cache.lookup_mut(mb).expect("ensured");
        img[mslot * mac_len..(mslot + 1) * mac_len].copy_from_slice(&first_mac);
        let ack = self
            .wpq
            .insert(t, addr, ciphertext, WriteCategory::Data, &mut self.nvm);
        let meta = ReencryptMeta {
            index,
            addr,
            mb,
            mslot,
            minor,
            mac_was_dirty,
            first_mac,
        };
        let mech = mechanism_of(self.config.mode).persist_reencrypt(self, t, meta);
        if let Some(p) = self.psan.as_mut() {
            p.emit(PersistEventKind::MetaCover { block: addr, mech });
        }
        ack
    }

    /// One data read through the LLC and (on a miss) the secure read path.
    fn read_block_timed(&mut self, now: Cycle, addr: u64) -> u64 {
        if self.llc.lookup(addr).is_some() {
            return self.config.llc_hit_cycles;
        }
        self.llc.insert(addr, ());
        let index = self.layout.block_index(addr);
        let (cb, _, _) = self.layout.ctr_location(index);
        let (mb, _) = self.layout.mac_location(index);
        let data_done = self.nvm.time_access(now, addr, false);
        let lat_data = data_done - now;
        let lat_ctr = self.ensure_ctr(now, cb);
        let lat_mac = self.ensure_mac(now, mb);
        // Pad generation overlaps the data fetch; MAC check follows.
        lat_data.max(lat_ctr + self.config.aes_cycles).max(lat_mac) + self.config.hash_cycles
    }

    // ------------------------------------------------------------------
    // Trace replay
    // ------------------------------------------------------------------

    /// Replays a multi-core trace and reports measured-phase results.
    ///
    /// The warm-up transactions of each core run first; at the boundary
    /// the statistics reset, cores synchronize, and (in Thoth mode with
    /// `pub_prefill`) the PUB is filled to its eviction threshold with
    /// warm-up-shaped entries, as the paper does during fast-forwarding.
    pub fn run(&mut self, trace: &MultiCoreTrace) -> SimReport {
        let (mut cores, boundary, snap) = self.warm_up(trace);
        self.run_measured(trace, &mut cores, boundary, &snap)
    }

    /// Phase 1 of [`Self::run`]: replays the warm-up transactions,
    /// synchronizes the cores at the boundary, pre-fills the PUB, and
    /// snapshots the boundary statistics.
    fn warm_up(&mut self, trace: &MultiCoreTrace) -> (Vec<CoreState>, Cycle, Snapshot) {
        let mut cores = Self::fresh_cores(trace);
        self.replay(trace, &mut cores, Some(trace.warmup_txs_per_core));

        // Synchronize cores at the boundary.
        let boundary = cores.iter().map(|c| c.time).max().unwrap_or(Cycle::ZERO);
        for c in &mut cores {
            c.time = boundary;
        }
        if self.config.pub_prefill {
            self.prefill_pub();
        }
        let snap = self.snapshot();
        (cores, boundary, snap)
    }

    /// Phase 2 of [`Self::run`]: replays the measured transactions from
    /// the warm-up boundary state and builds the report.
    fn run_measured(
        &mut self,
        trace: &MultiCoreTrace,
        cores: &mut [CoreState],
        boundary: Cycle,
        snap: &Snapshot,
    ) -> SimReport {
        self.replay(trace, cores, None);
        let end = cores.iter().map(|c| c.time).max().unwrap_or(boundary);

        // Drain the WPQ tail so write accounting covers every persist the
        // measured phase issued (execution time excludes the tail — the
        // workload finished; the queue empties in the background).
        self.wpq.drain_all(end, &mut self.nvm);

        self.build_report(snap, end.saturating_since(boundary))
    }

    /// Runs the warm-up phase once and packages the boundary state as a
    /// reusable [`WarmBoot`]: every [`WarmBoot::run`] clones the snapshot
    /// and replays only the measured phase, producing a report
    /// bit-identical to a cold [`Self::run`] of the same trace.
    ///
    /// # Panics
    ///
    /// Panics if the machine carries instrumentation (crash control,
    /// sanitizer, telemetry, or service sessions) — warm boots snapshot
    /// plain runs only.
    #[must_use]
    pub fn warm_boot(mut self, trace: &MultiCoreTrace) -> WarmBoot {
        assert!(
            self.crash_ctl.is_none()
                && self.psan.is_none()
                && self.telem.is_none()
                && self.service.is_none(),
            "warm boots snapshot plain runs only"
        );
        let (cores, boundary, snap) = self.warm_up(trace);
        WarmBoot {
            machine: self,
            cores,
            boundary,
            snap,
        }
    }

    /// Runs `trace` with persist-event instrumentation enabled, returning
    /// the report plus the full event stream (warm-up included — the
    /// sanitizer checks the whole execution, not just the measured phase).
    ///
    /// Events produced by the final background WPQ drain carry the
    /// [`NO_CTX`] context.
    pub fn run_psan(&mut self, trace: &MultiCoreTrace) -> (SimReport, Vec<PersistEvent>) {
        self.with_psan(|m| m.run(trace))
    }

    /// [`Self::run_to_crash`] with persist-event instrumentation: replays
    /// the trace until the planned crash point fires (logging durably-ACKed
    /// ops for the oracle) while recording the persist-event stream up to
    /// the crash. Returns whether the crash fired plus the pre-crash
    /// events — the fuzzer's psan observer analyzes exactly what the
    /// machine saw before power was lost.
    ///
    /// # Panics
    ///
    /// Panics outside [`FunctionalMode::Full`] — auditing needs real bytes.
    pub fn run_psan_to_crash(
        &mut self,
        trace: &MultiCoreTrace,
        plan: CrashPlan,
    ) -> (bool, Vec<PersistEvent>) {
        self.with_psan(|m| m.run_to_crash(trace, plan))
    }

    /// Runs `body` with the persist-event recorder installed and returns
    /// its result plus the recorded stream.
    fn with_psan<R>(&mut self, body: impl FnOnce(&mut Self) -> R) -> (R, Vec<PersistEvent>) {
        self.wpq.record_events(true);
        self.psan = Some(PsanRecorder::new());
        let out = body(self);
        // Events buffered after the last op (the tail drain in `run`, or
        // the op that crashed) belong to no op.
        if let Some(p) = self.psan.as_mut() {
            p.set_ctx(NO_CTX, NO_CTX);
        }
        self.pump_wpq_events();
        self.wpq.record_events(false);
        self.wpq.set_origin(0);
        let events = self
            .psan
            .take()
            .expect("recorder installed above")
            .into_events();
        (out, events)
    }

    /// Runs `trace` with the observability layer enabled per `tcfg`,
    /// returning the (unchanged) timing report plus everything the
    /// instrumentation recorded: counters, the epoch-sampled timeline,
    /// per-queue occupancy summaries, and (with [`TelemetryConfig::trace`])
    /// Chrome `trace_event` JSON.
    ///
    /// With `tcfg.enabled == false` this is exactly [`Self::run`] plus an
    /// empty report — no sink or probe is ever installed.
    pub fn run_telemetry(
        &mut self,
        trace: &MultiCoreTrace,
        tcfg: &TelemetryConfig,
    ) -> (SimReport, TelemetryReport) {
        if !tcfg.enabled {
            let report = self.run(trace);
            return (
                report,
                crate::telemetry::MachineTelemetry::new(*tcfg, trace.cores.len())
                    .sink
                    .finish(),
            );
        }
        self.wpq
            .attach_probe(QueueProbe::new("wpq", self.wpq.config().capacity as u64));
        self.nvm.attach_probe(QueueProbe::new(
            "nvm_banks",
            self.nvm.config().num_banks as u64,
        ));
        if let Some(engine) = self.thoth.as_mut() {
            engine.attach_probes(
                QueueProbe::new("pcb", engine.pcb_capacity_updates() as u64),
                QueueProbe::new("pub", engine.pub_buffer().capacity_blocks()),
            );
        }
        // WPQ acceptance/drain counters (and, when tracing, the residency
        // arrows) come from the event log.
        self.wpq.record_events(true);
        self.telem = Some(Box::new(MachineTelemetry::new(*tcfg, trace.cores.len())));

        let report = self.run(trace);

        // The tail drain in `run` buffered WPQ events after the last op.
        self.pump_wpq_events();
        self.wpq.record_events(false);
        let mut tm = self.telem.take().expect("session installed above");
        if let Some(p) = self.wpq.take_probe() {
            tm.sink.absorb_probe(&p);
        }
        if let Some(p) = self.nvm.take_probe() {
            tm.sink.absorb_probe(&p);
        }
        if let Some(engine) = self.thoth.as_mut() {
            if let Some((pcb, pub_)) = engine.take_probes() {
                tm.sink.absorb_probe(&pcb);
                tm.sink.absorb_probe(&pub_);
            }
        }
        tm.record_substrate_counters(
            self.ctr_mode.hw_blocks(),
            self.tree.batch_runs() + self.mac.batch_runs(),
            self.nvm.bank_events_coalesced(),
            self.tree.simd_rows() + self.mac.simd_rows(),
        );
        (report, tm.sink.finish())
    }

    /// Runs an open-loop service trace: every request is gated at its
    /// arrival cycle, and per-request persist-ACK latency is measured
    /// **from arrival** (queueing delay included) into log2-bucket
    /// histograms. Returns the ordinary timing report plus the service
    /// latency report. Warm-up requests replay but are excluded from the
    /// latency histograms (the trace carries `warmup_txs_per_core == 0`,
    /// so the whole run is the measured phase of [`Self::run`]).
    ///
    /// # Panics
    ///
    /// Panics if the trace's request extents do not partition its op
    /// streams (a malformed [`ServiceTrace`]).
    pub fn run_service(&mut self, st: &ServiceTrace) -> (SimReport, ServiceReport) {
        self.service = Some(Box::new(ServiceSession::new(st)));
        let report = self.run(&st.trace);
        let session = self.service.take().expect("session installed above");
        (report, session.into_report())
    }

    /// Pushes one timeline row if the sampling epoch elapsed at `now`.
    fn telemetry_sample(&mut self, now: Cycle) {
        let Self {
            telem,
            wpq,
            nvm,
            thoth,
            config,
            ..
        } = self;
        let Some(tm) = telem.as_mut() else {
            return;
        };
        if !tm.sink.sample_due(now.0) {
            return;
        }
        let (pcb_updates, pub_fill, skip_rate) = match thoth.as_ref() {
            Some(engine) => {
                let outcomes: u64 = engine.outcomes().values().sum();
                let persists = engine.policy_persists();
                let skip = if outcomes == 0 {
                    0.0
                } else {
                    1.0 - persists as f64 / outcomes as f64
                };
                (
                    engine.pcb_buffered_updates() as f64,
                    engine.pub_buffer().occupancy(),
                    skip,
                )
            }
            None => (0.0, 0.0, 0.0),
        };
        let bytes = |cat: WriteCategory| (nvm.writes_in(cat) * config.block_bytes as u64) as f64;
        let row = [
            wpq.occupancy() as f64,
            pcb_updates,
            pub_fill,
            nvm.queue_depth(now) as f64,
            skip_rate,
            bytes(WriteCategory::Data),
            bytes(WriteCategory::CounterBlock),
            bytes(WriteCategory::MacBlock),
            bytes(WriteCategory::PubBlock),
            bytes(WriteCategory::TreeNode),
            bytes(WriteCategory::Shadow),
        ];
        tm.sink.timeline.push(now.0, &row);
        tm.sink.advance_epoch(now.0);
    }

    /// Replays ops; with `tx_limit` set, each core stops after that many
    /// transactions (the warm-up boundary).
    ///
    /// Cores interleave by an argmin scheduler: each core has at most one
    /// outstanding wake-up, a `(cycle, seq)` slot, and the earliest slot
    /// issues next; `seq` (wake-up order) breaks cycle ties, so the
    /// interleaving is deterministic.
    fn replay(&mut self, trace: &MultiCoreTrace, cores: &mut [CoreState], tx_limit: Option<usize>) {
        let mut at: Vec<Cycle> = vec![Cycle::ZERO; cores.len()];
        let mut seq: Vec<u64> = vec![u64::MAX; cores.len()];
        let mut next_seq: u64 = 0;
        let ready = |c: &CoreState, i: usize| {
            !c.done && c.idx < trace.cores[i].len() && tx_limit.is_none_or(|l| c.txs_done < l)
        };
        for (i, c) in cores.iter().enumerate() {
            if ready(c, i) {
                at[i] = c.time;
                seq[i] = next_seq;
                next_seq += 1;
            }
        }
        loop {
            let mut ci = usize::MAX;
            let mut best = (Cycle(u64::MAX), u64::MAX);
            for i in 0..cores.len() {
                if seq[i] != u64::MAX && (at[i], seq[i]) < best {
                    best = (at[i], seq[i]);
                    ci = i;
                }
            }
            if ci == usize::MAX {
                break;
            }
            seq[ci] = u64::MAX;
            // Open-loop service runs: a core whose next request has not
            // arrived yet sleeps until the arrival cycle instead of
            // issuing (closed-loop runs have no session and never stall).
            if let Some(s) = self.service.as_mut() {
                if let Some(wake) = s.gate(ci, cores[ci].time) {
                    cores[ci].time = wake;
                    at[ci] = wake;
                    seq[ci] = next_seq;
                    next_seq += 1;
                    continue;
                }
            }
            let op = trace.cores[ci][cores[ci].idx];
            cores[ci].idx += 1;
            if cores[ci].idx >= trace.cores[ci].len() {
                cores[ci].done = true;
            }
            let now = cores[ci].time;
            if let Some(p) = self.psan.as_mut() {
                p.set_ctx(ci as u32, (cores[ci].idx - 1) as u32);
            }
            if self.psan.is_some() {
                // Stamp WPQ entries inserted by this op with the issuing
                // core, so drain events carry cross-core provenance.
                self.wpq.set_origin(1u32 << (ci as u32 & 31));
            }
            match op {
                TraceOp::Read { addr, len } => {
                    let mut lat = 0;
                    let (mut block, last, bs) = self.block_span(addr, len);
                    while block <= last {
                        lat = lat.max(self.read_block_timed(now, block));
                        block += bs;
                    }
                    cores[ci].time = now + lat + self.config.compute_gap_cycles;
                }
                TraceOp::Store { addr, len } => {
                    if let Some(p) = self.psan.as_mut() {
                        p.emit(PersistEventKind::Store {
                            addr,
                            len,
                            relaxed: false,
                        });
                    }
                    let mut ack = cores[ci].pending_ack;
                    let mut t = now;
                    let (mut block, last, bs) = self.block_span(addr, len);
                    while block <= last {
                        self.llc.insert(block, ());
                        // A plain (non-temporal) store persists the line a
                        // relaxed store may have left volatile-dirty.
                        self.relaxed_pending.remove(&block);
                        // The store completes atomically — even if a crash
                        // tap fires inside it, its persist was ACKed, so it
                        // is logged as durable; we just never start the
                        // next block.
                        ack = ack.max(self.store_block(t, block));
                        t += self.config.compute_gap_cycles;
                        if self.crash_persist(ci, block) {
                            break;
                        }
                        block += bs;
                    }
                    cores[ci].pending_ack = ack;
                    cores[ci].time = t;
                    if let Some(ctl) = self.crash_ctl.as_mut() {
                        if !ctl.fired() {
                            ctl.tap(CrashSiteKind::Store);
                        }
                    }
                }
                TraceOp::StoreRelaxed { addr, len } => {
                    // A plain `mov`: the line dirties in the LLC but gains
                    // no durable-ordering edge until a later write-back.
                    if let Some(p) = self.psan.as_mut() {
                        p.emit(PersistEventKind::Store {
                            addr,
                            len,
                            relaxed: true,
                        });
                    }
                    let (mut block, last, bs) = self.block_span(addr, len);
                    while block <= last {
                        self.llc.insert(block, ());
                        self.relaxed_pending.insert(block);
                        block += bs;
                    }
                    cores[ci].time =
                        now + self.config.llc_hit_cycles + self.config.compute_gap_cycles;
                }
                TraceOp::Flush { addr, len } => {
                    // `clwb`: write back any volatile-dirty relaxed data in
                    // the spanned lines through the secure write pipeline.
                    let mut ack = cores[ci].pending_ack;
                    let mut t = now;
                    let (mut block, last, bs) = self.block_span(addr, len);
                    while block <= last {
                        let pending = self.relaxed_pending.remove(&block);
                        if let Some(p) = self.psan.as_mut() {
                            p.emit(PersistEventKind::Flush { block, pending });
                        }
                        if pending {
                            ack = ack.max(self.store_block(t, block));
                            t += self.config.compute_gap_cycles;
                            if self.crash_persist(ci, block) {
                                break;
                            }
                        } else {
                            // Clean line: the write-back is a no-op.
                            t += self.config.llc_hit_cycles;
                        }
                        block += bs;
                    }
                    cores[ci].pending_ack = ack;
                    cores[ci].time = t;
                }
                TraceOp::Fence => {
                    // `sfence`: order — wait for outstanding persist ACKs —
                    // without ending the transaction.
                    if let Some(p) = self.psan.as_mut() {
                        p.emit(PersistEventKind::Fence);
                    }
                    cores[ci].time = now.max(cores[ci].pending_ack);
                    cores[ci].pending_ack = Cycle::ZERO;
                }
                TraceOp::Commit => {
                    if let Some(p) = self.psan.as_mut() {
                        p.emit(PersistEventKind::Commit);
                    }
                    cores[ci].time = now.max(cores[ci].pending_ack);
                    cores[ci].pending_ack = Cycle::ZERO;
                    cores[ci].txs_done += 1;
                    self.transactions += 1;
                    if let Some(ctl) = self.crash_ctl.as_mut() {
                        ctl.log(LoggedOp::Commit { core: ci });
                    }
                }
            }
            if let Some(s) = self.service.as_mut() {
                s.end_op(ci, cores[ci].time);
            }
            if let Some(tm) = self.telem.as_mut() {
                tm.record_op(ci, op, now.0, cores[ci].time.0);
            }
            self.telemetry_sample(cores[ci].time);
            self.pump_wpq_events();
            if self.crash_ctl.as_ref().is_some_and(CrashControl::fired) {
                self.tree.flush();
                return; // power is gone: no core issues anything further
            }
            if ready(&cores[ci], ci) {
                at[ci] = cores[ci].time;
                seq[ci] = next_seq;
                next_seq += 1;
            }
        }
        // Replay end is a quiesce point: fold the deferred tree updates so
        // every post-run observer sees the up-to-date logical tree.
        self.tree.flush();
    }

    /// Moves buffered WPQ acceptance/drain events into the persist-event
    /// stream, stamped with the current op context. Called after each
    /// replayed op so every event of one op is contiguous in the stream.
    fn pump_wpq_events(&mut self) {
        if self.psan.is_none() && self.telem.is_none() {
            return;
        }
        let events = self.wpq.take_events();
        if let Some(p) = self.psan.as_mut() {
            for e in &events {
                match *e {
                    WpqEvent::Accepted {
                        addr,
                        category,
                        coalesced,
                    } => p.emit(PersistEventKind::Accepted {
                        block: addr,
                        category,
                        coalesced,
                    }),
                    WpqEvent::Drained { addr, origins } => {
                        p.emit(PersistEventKind::Drained { block: addr, origins });
                    }
                }
            }
        }
        if let Some(tm) = self.telem.as_mut() {
            for e in &events {
                match *e {
                    WpqEvent::Accepted {
                        addr, coalesced, ..
                    } => tm.record_wpq_accept(addr, coalesced),
                    WpqEvent::Drained { addr, .. } => tm.record_wpq_drain(addr),
                }
            }
        }
    }

    /// `(first_block, last_block, block_bytes)` of the span `[addr,
    /// addr + len)` — callers walk `first..=last` in `block_bytes` steps.
    fn block_span(&self, addr: u64, len: u32) -> (u64, u64, u64) {
        let bs = self.config.block_bytes as u64;
        let first = addr - addr % bs;
        let last = (addr + u64::from(len).max(1) - 1) / bs * bs;
        (first, last, bs)
    }

    #[cfg(test)]
    fn blocks_spanned(&self, addr: u64, len: u32) -> Vec<u64> {
        let (first, last, bs) = self.block_span(addr, len);
        (first..=last).step_by(bs as usize).collect()
    }

    /// Fills the PUB to its eviction threshold with warm-up-shaped
    /// entries (direct functional writes — warm-up is untimed).
    fn prefill_pub(&mut self) {
        if self.prefill_pool.is_empty() {
            return;
        }
        let Some(engine) = self.thoth.as_mut() else {
            return;
        };
        let codec = engine.codec();
        let per_block = codec.entries_per_block();
        let pub_buf = engine.pub_buffer_mut();
        let pool = &self.prefill_pool;
        let pool_len = pool.len();
        let block_bytes = self.config.block_bytes;
        let mut cursor = 0usize;
        // The prefill writes tens of thousands of blocks, but the pool is
        // cycled `per_block` entries at a time, so only a few hundred
        // distinct images ever occur. Encode each one once, and install
        // the bytes without write accounting: the snapshot taken
        // immediately after prefill resets every stat the accounting
        // path would have touched.
        let mut images: FastMap<usize, Box<[u8]>> = FastMap::default();
        let mut updates: Vec<PartialUpdate> = Vec::with_capacity(per_block);
        self.nvm.reserve_blocks(pub_buf.capacity_blocks() as usize);
        while !pub_buf.needs_eviction() {
            let start = cursor % pool_len;
            cursor += per_block;
            let addr = pub_buf.allocate_tail();
            let image = images.entry(start).or_insert_with(|| {
                updates.clear();
                updates.extend((0..per_block).map(|i| pool[(start + i) % pool_len]));
                let mut img = vec![0u8; block_bytes];
                codec.encode_into(&updates, &mut img);
                img.into_boxed_slice()
            });
            self.nvm.install_block(addr, image);
        }
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    fn snapshot(&mut self) -> Snapshot {
        self.nvm.reset_stats();
        Snapshot {
            wpq: self.wpq.stats(),
            pcb: self.thoth.as_ref().map(ThothEngine::pcb_stats).unwrap_or_default(),
            outcomes: self
                .thoth
                .as_ref()
                .map(|t| t.outcomes().clone())
                .unwrap_or_default(),
            policy_persists: self.thoth.as_ref().map_or(0, ThothEngine::policy_persists),
            transactions: self.transactions,
            ctr_stats: self.ctr_cache.stats(),
            mac_stats: self.mac_cache.stats(),
            llc_stats: self.llc.stats(),
        }
    }

    fn build_report(&mut self, snap: &Snapshot, cycles: u64) -> SimReport {
        let wpq = self.wpq.stats();
        let pcb = self.thoth.as_ref().map(ThothEngine::pcb_stats).unwrap_or_default();
        let mut writes = BTreeMap::new();
        for cat in WriteCategory::ALL {
            let n = self.nvm.writes_in(cat);
            if n > 0 {
                writes.insert(cat.tag().to_owned(), n);
            }
        }
        let mut pub_evictions = BTreeMap::new();
        if let Some(engine) = &self.thoth {
            for (k, v) in engine.outcomes() {
                let delta = v - snap.outcomes.get(k).copied().unwrap_or(0);
                if delta > 0 {
                    pub_evictions.insert(k.label().to_owned(), delta);
                }
            }
        }
        let rate = |now: CacheStats, before: CacheStats| {
            let h = now.hits - before.hits;
            let m = now.misses - before.misses;
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        SimReport {
            mode: self.config.mode.label().to_owned(),
            total_cycles: cycles,
            transactions: self.transactions - snap.transactions,
            writes,
            nvm_reads: self.nvm.timed_reads(),
            wpq_inserts: wpq.inserts - snap.wpq.inserts,
            wpq_coalesced: wpq.coalesced - snap.wpq.coalesced,
            wpq_full_stalls: wpq.full_stalls - snap.wpq.full_stalls,
            wpq_stall_cycles: wpq.stall_cycles - snap.wpq.stall_cycles,
            pcb_inserts: pcb.inserts - snap.pcb.inserts,
            pcb_merged: pcb.merged - snap.pcb.merged,
            pcb_emitted: pcb.emitted_blocks - snap.pcb.emitted_blocks,
            pub_evictions,
            pub_policy_persists: self.thoth.as_ref().map_or(0, ThothEngine::policy_persists)
                - snap.policy_persists,
            pcb_wpq_bypass: self.pcb_wpq_bypass,
            ctr_cache_hit_rate: rate(self.ctr_cache.stats(), snap.ctr_stats),
            mac_cache_hit_rate: rate(self.mac_cache.stats(), snap.mac_stats),
            llc_hit_rate: rate(self.llc.stats(), snap.llc_stats),
            wear_blocks_touched: self.nvm.wear().blocks_touched() as u64,
            wear_hottest_writes: self.nvm.wear().hottest().map_or(0, |(_, n)| n),
            wear_mean_writes: self.nvm.wear().mean_writes(),
        }
    }

    // ------------------------------------------------------------------
    // Crash injection (thoth-crashtest drives these)
    // ------------------------------------------------------------------

    /// Replays the whole trace (warm-up included, no phase split) in
    /// observer mode, returning how many crash-anchor events of each kind
    /// the workload exposes — the population the crash sweep samples from.
    pub fn enumerate_crash_sites(&mut self, trace: &MultiCoreTrace) -> CrashSiteCounts {
        self.replay_whole(trace, CrashControl::observer());
        self.crash_ctl.take().expect("installed by replay_whole").counts()
    }

    /// Replays the trace until the planned crash point fires, logging every
    /// durably-ACKed operation for an external oracle
    /// ([`Self::take_op_log`]). Returns `false` if the trace finished
    /// before the planned event occurred (the crash never happened).
    ///
    /// Call [`Self::crash_with`] (or [`Self::crash`]) next to take the
    /// machine down at the reached point.
    ///
    /// # Panics
    ///
    /// Panics outside [`FunctionalMode::Full`] — auditing needs real bytes.
    pub fn run_to_crash(&mut self, trace: &MultiCoreTrace, plan: CrashPlan) -> bool {
        assert!(
            self.config.functional == FunctionalMode::Full,
            "crash testing requires FunctionalMode::Full"
        );
        self.replay_whole(trace, CrashControl::armed(plan));
        self.crash_ctl.as_ref().is_some_and(CrashControl::fired)
    }

    /// Replays the whole trace from fresh cores (warm-up included, no
    /// phase split) under crash control `ctl`, which stays installed.
    fn replay_whole(&mut self, trace: &MultiCoreTrace, ctl: CrashControl) {
        self.crash_ctl = Some(ctl);
        let mut cores = Self::fresh_cores(trace);
        self.replay(trace, &mut cores, None);
    }

    /// Crash hook after core `core` completed a persistent store to
    /// `block`: logs the store for the oracle and taps the persist anchor.
    /// Returns `true` once power has failed.
    fn crash_persist(&mut self, core: usize, block: u64) -> bool {
        let Some(ctl) = self.crash_ctl.as_mut() else {
            return false;
        };
        ctl.persist(LoggedOp::Store {
            core,
            block: self.layout.block_index(block),
        })
    }

    fn fresh_cores(trace: &MultiCoreTrace) -> Vec<CoreState> {
        (0..trace.cores.len())
            .map(|_| CoreState {
                time: Cycle::ZERO,
                pending_ack: Cycle::ZERO,
                idx: 0,
                txs_done: 0,
                done: false,
            })
            .collect()
    }

    /// The durably-ACKed operation log of the last [`Self::run_to_crash`],
    /// in execution order. Empty if no crash run logged anything.
    pub fn take_op_log(&mut self) -> Vec<LoggedOp> {
        self.crash_ctl
            .as_mut()
            .map(CrashControl::take_log)
            .unwrap_or_default()
    }

    /// The crash plan currently armed, if any.
    #[must_use]
    pub fn crash_plan(&self) -> Option<CrashPlan> {
        self.crash_ctl.as_ref().and_then(CrashControl::plan)
    }

    // ------------------------------------------------------------------
    // Crash & recovery (Section IV-D)
    // ------------------------------------------------------------------

    /// Simulates a power failure: the ADR domain (WPQ + PCB) flushes to
    /// NVM, every volatile structure is lost. The integrity-tree root and
    /// the PUB start/end registers survive (persistent registers).
    pub fn crash(&mut self) {
        self.crash_with(&FaultConfig::default());
    }

    /// [`Self::crash`] under a fault model: the WPQ flush honors the torn
    /// and drop faults, and `crash_bit_flips` seeded single-bit flips land
    /// in resident counter/MAC/PUB-region blocks after the flush. With the
    /// default config this is bit-identical to [`Self::crash`].
    pub fn crash_with(&mut self, faults: &FaultConfig) {
        // The persistent root register holds the up-to-date root: fold any
        // deferred tree updates before power is lost.
        self.tree.flush();
        // Mechanism-specific residual-energy work (e.g. eADR flushes
        // every dirty cache line) runs before the ADR flush.
        mechanism_of(self.config.mode).crash_residual(self);
        self.wpq.crash_flush_with(&mut self.nvm, faults);
        if let Some(engine) = self.thoth.as_mut() {
            let nvm = &mut self.nvm;
            engine.crash_flush(|addr, image| {
                nvm.write_block(addr, image, WriteCategory::PubBlock);
            });
        }
        // Media bit rot at the crash instant: seeded single-bit flips in
        // resident blocks of the counter, MAC and PUB regions. These are
        // the corruptions recovery must *detect*, never absorb.
        if faults.crash_bit_flips > 0 {
            let mut rng = DetRng::seed_from(faults.seed ^ 0xB17F_11B5_0C8A_51F0);
            let mut targets = self
                .nvm
                .block_addrs_in(self.layout.ctr_base, self.layout.tree_base);
            targets.extend(
                self.nvm
                    .block_addrs_in(self.layout.pub_base, self.layout.shadow_base),
            );
            if !targets.is_empty() {
                for _ in 0..faults.crash_bit_flips {
                    let block = targets[rng.gen_index(targets.len())];
                    let byte = rng.gen_range(self.config.block_bytes as u64);
                    let bit = rng.gen_range(8) as u8;
                    self.nvm.tamper(block + byte, 1 << bit);
                }
            }
        }
        // Volatile state is gone. Note: the logical tree stays as the
        // holder of the persistent *root register* only; recovery rebuilds
        // a fresh tree from NVM and compares roots.
        self.ctr_cache.drain();
        self.mac_cache.drain();
        self.mt_cache.drain();
        self.llc.drain();
        // Relaxed-store data that never got a write-back is simply lost.
        self.relaxed_pending = FastSet::default();
    }

    /// Runs recovery: scan the PUB oldest→youngest, merge verified
    /// entries into the metadata blocks, rebuild the integrity tree, and
    /// verify the root and every written data block.
    ///
    /// # Panics
    ///
    /// Panics in [`FunctionalMode::Fast`] — recovery needs real bytes.
    pub fn recover(&mut self) -> RecoveryReport {
        assert!(
            self.config.functional == FunctionalMode::Full,
            "recovery requires FunctionalMode::Full"
        );
        self.tree.flush();
        let mut report = RecoveryReport::default();

        // 1. The mechanism-specific recovery step (Thoth: merge the PUB
        //    oldest to youngest; Phoenix: reconstruct the MAC region from
        //    the persisted counters and ciphertext; strict mechanisms:
        //    nothing), timing the serial work on the device model.
        self.nvm.reset_timing();
        let mut t = Cycle::ZERO;
        mechanism_of(self.config.mode).recover_metadata(self, &mut t, &mut report);
        report.measured_seconds = self.config.frequency.cycles_to_secs(t.0);
        self.nvm.reset_timing();
        if let Some(engine) = self.thoth.as_mut() {
            engine.clear();
        }

        // 2. Rebuild the integrity tree from the counter region and verify
        //    the root against the persistent register.
        let ctr_blocks = self
            .nvm
            .block_addrs_in(self.layout.ctr_base, self.layout.mac_base);
        let rebuilt = BonsaiTree::from_leaves(
            MerkleConfig::new(8, self.layout.tree_leaves()),
            TREE_KEY,
            ctr_blocks.iter().map(|&cb| {
                let img = self.nvm.read_block(cb);
                (self.layout.tree_leaf(cb), self.tree.leaf_hash_of(cb, &img))
            }),
        );
        report.root_verified = rebuilt.root() == self.tree.root();

        // 3. Verify every written data block decrypts and authenticates.
        let mac_len = self.layout.mac_len();
        let indices: Vec<u64> = self.data_versions.keys().copied().collect();
        for index in indices {
            let addr = self.layout.block_addr(index);
            let (cb, group, slot) = self.layout.ctr_location(index);
            let (mb, mslot) = self.layout.mac_location(index);
            let groups = self.layout.ctr_geometry.unpack(&self.nvm.read_block(cb));
            let (major, minor) = groups[group].value_of(slot);
            let ct = self.nvm.read_block(addr);
            let expect = self.mac.first_level(addr, major, minor, &ct);
            let mac_img = self.nvm.read_block(mb);
            if mac_img[mslot * mac_len..(mslot + 1) * mac_len] == expect[..] {
                report.blocks_verified += 1;
            } else {
                report.blocks_failed += 1;
            }
        }

        // The machine is alive again.
        self.wpq.power_restore();
        report
    }

    /// Counter-block leaves whose persisted NVM image hashes differently
    /// from the logical tree's current leaf value — structured diagnostics
    /// shared by the recovery auditor and the debugging tools. Not part of
    /// the recovery algorithm itself.
    #[must_use]
    pub fn leaf_mismatches(&self) -> Vec<LeafMismatch> {
        let ctr_blocks = self
            .nvm
            .block_addrs_in(self.layout.ctr_base, self.layout.mac_base);
        let mut out = Vec::new();
        for cb in ctr_blocks {
            let img = self.nvm.read_block(cb);
            let leaf = self.layout.tree_leaf(cb);
            let actual = self.tree.leaf_hash_of(cb, &img);
            let expected = self.tree.hash_of(thoth_merkle::NodeId { level: 0, index: leaf });
            if actual != expected {
                out.push(LeafMismatch {
                    leaf,
                    counter_block: cb,
                    expected,
                    actual,
                });
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Recovery-audit accessors (the external oracle's view)
    // ------------------------------------------------------------------

    /// Every data block ever written, as `(block_index, logical_version)`,
    /// ascending by index.
    #[must_use]
    pub fn written_blocks(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .data_versions
            .iter()
            .map(|(&i, &v)| (i, v))
            .collect();
        out.sort_unstable();
        out
    }

    /// The deterministic application plaintext of `block_index` at
    /// `version` — what a durable store of that version wrote.
    #[must_use]
    pub fn expected_plaintext(&self, block_index: u64, version: u64) -> Vec<u8> {
        self.plaintext(self.layout.block_addr(block_index), version)
    }

    /// Decrypts the *persisted* ciphertext of `block_index` under the
    /// *persisted* counter — the bytes an application would read back
    /// after recovery.
    #[must_use]
    pub fn decrypt_persisted(&self, block_index: u64) -> Vec<u8> {
        let addr = self.layout.block_addr(block_index);
        let (cb, group, slot) = self.layout.ctr_location(block_index);
        let groups = self.layout.ctr_geometry.unpack(&self.nvm.read_block(cb));
        let (major, minor) = groups[group].value_of(slot);
        let ct = self.nvm.read_block(addr);
        self.ctr_mode.decrypt(addr, major, minor, &ct)
    }

    /// Authenticates the persisted ciphertext of `block_index` against the
    /// persisted counter and MAC blocks (first-level MAC check over NVM
    /// state only — exactly what recovery relies on).
    ///
    /// # Errors
    ///
    /// Returns the mismatch (with expected/actual MAC digests) when
    /// authentication fails.
    pub fn authenticate_persisted(&self, block_index: u64) -> Result<(), MacMismatch> {
        let addr = self.layout.block_addr(block_index);
        let (cb, group, slot) = self.layout.ctr_location(block_index);
        let (mb, mslot) = self.layout.mac_location(block_index);
        let groups = self.layout.ctr_geometry.unpack(&self.nvm.read_block(cb));
        let (major, minor) = groups[group].value_of(slot);
        let ct = self.nvm.read_block(addr);
        let expect = self.mac.first_level(addr, major, minor, &ct);
        let mac_len = self.layout.mac_len();
        let mac_img = self.nvm.read_block(mb);
        let stored = &mac_img[mslot * mac_len..(mslot + 1) * mac_len];
        if stored == expect.as_slice() {
            Ok(())
        } else {
            Err(MacMismatch {
                block_index,
                addr,
                expected: byte_digest(&expect),
                actual: byte_digest(stored),
            })
        }
    }

    /// Read-only access to the NVM device.
    #[must_use]
    pub fn nvm(&self) -> &NvmDevice {
        &self.nvm
    }

    /// Merges one PUB entry if it matches the persisted ciphertext.
    pub(crate) fn merge_entry(&mut self, e: &PartialUpdate) -> bool {
        let index = u64::from(e.block_index);
        let addr = self.layout.block_addr(index);
        let (cb, group, slot) = self.layout.ctr_location(index);
        let (mb, mslot) = self.layout.mac_location(index);
        let ct = self.nvm.read_block(addr);
        let mut groups = self.layout.ctr_geometry.unpack(&self.nvm.read_block(cb));
        let major = groups[group].major();
        let first = self.mac.first_level(addr, major, e.minor, &ct);
        if self.mac.second_level(addr, &first) != e.mac2 {
            return false; // stale: a newer entry or in-place copy wins
        }
        if groups[group].value_of(slot).1 != e.minor {
            groups[group].set_minor(slot, e.minor);
            let img = self.pack_ctr_block(&groups);
            self.nvm.write_block(cb, &img, WriteCategory::Recovery);
        }
        let mac_len = self.layout.mac_len();
        let mut mac_img = self.nvm.read_block(mb);
        if mac_img[mslot * mac_len..(mslot + 1) * mac_len] != first[..] {
            mac_img[mslot * mac_len..(mslot + 1) * mac_len].copy_from_slice(&first);
            self.nvm.write_block(mb, &mac_img, WriteCategory::Recovery);
        }
        true
    }
}

/// The simulator's implementation of the Thoth engine's host interface:
/// metadata views come from the secure metadata caches, persists go
/// through the WPQ, PUB blocks live in the NVM device.
struct MachineHost<'a> {
    now: Cycle,
    layout: &'a MemoryLayout,
    block_bytes: usize,
    shadow_tracking: bool,
    nvm: &'a mut NvmDevice,
    wpq: &'a mut Wpq,
    ctr_cache: &'a mut SetAssocCache<Vec<CounterGroup>>,
    mac_cache: &'a mut SetAssocCache<Vec<u8>>,
    mac: &'a MacEngine,
    shadow: &'a mut ShadowTracker,
    shadow_writes_emitted: &'a mut u64,
    crash_ctl: Option<&'a mut CrashControl>,
    psan: Option<&'a mut PsanRecorder>,
    telem: Option<&'a mut MachineTelemetry>,
}

impl MachineHost<'_> {
    fn note_shadow_clean(&mut self, addr: u64) {
        if self.shadow_tracking && self.shadow.note_clean(addr) {
            let per_block = (self.block_bytes / 8) as u64;
            let n = self.shadow.updates();
            if n.is_multiple_of(per_block) {
                let saddr = self.layout.shadow_addr(n);
                self.wpq
                    .insert(self.now, saddr, None, WriteCategory::Shadow, self.nvm);
                *self.shadow_writes_emitted += 1;
            }
        }
    }
}

impl ThothHost for MachineHost<'_> {
    fn metadata_view(&mut self, kind: MetadataKind, e: &PartialUpdate) -> BlockView {
        let index = u64::from(e.block_index);
        match kind {
            MetadataKind::Counter => {
                let (cb, group, slot) = self.layout.ctr_location(index);
                if !self.ctr_cache.contains(cb) {
                    BlockView::NotPresent
                } else if !self.ctr_cache.is_dirty(cb) {
                    BlockView::Clean
                } else {
                    let sub = self.layout.ctr_subblock(index) % 64;
                    let subblock_dirty = self.ctr_cache.dirty_mask(cb) & (1 << sub) != 0;
                    let value_matches = self
                        .ctr_cache
                        .peek(cb)
                        .is_some_and(|g| g[group].value_of(slot).1 == e.minor);
                    BlockView::Dirty {
                        subblock_dirty,
                        value_matches,
                    }
                }
            }
            MetadataKind::Mac => {
                let (mb, mslot) = self.layout.mac_location(index);
                let mac_len = self.layout.mac_len();
                if !self.mac_cache.contains(mb) {
                    BlockView::NotPresent
                } else if !self.mac_cache.is_dirty(mb) {
                    BlockView::Clean
                } else {
                    let subblock_dirty = self.mac_cache.dirty_mask(mb) & (1 << (mslot % 64)) != 0;
                    let addr = self.layout.block_addr(index);
                    let value_matches = self.mac_cache.peek(mb).is_some_and(|img| {
                        let first = &img[mslot * mac_len..(mslot + 1) * mac_len];
                        self.mac.second_level(addr, first) == e.mac2
                    });
                    BlockView::Dirty {
                        subblock_dirty,
                        value_matches,
                    }
                }
            }
        }
    }

    fn persist_metadata(&mut self, kind: MetadataKind, e: &PartialUpdate) {
        let index = u64::from(e.block_index);
        match kind {
            MetadataKind::Counter => {
                let (cb, _, _) = self.layout.ctr_location(index);
                let image = {
                    let groups = self.ctr_cache.peek(cb).expect("dirty implies resident");
                    self.layout.ctr_geometry.pack(groups)
                };
                self.wpq
                    .insert(self.now, cb, Some(image), WriteCategory::CounterBlock, self.nvm);
                self.ctr_cache.clean(cb);
                self.note_shadow_clean(cb);
            }
            MetadataKind::Mac => {
                let (mb, _) = self.layout.mac_location(index);
                let image = self.mac_cache.peek(mb).expect("dirty implies resident").clone();
                self.wpq
                    .insert(self.now, mb, Some(image), WriteCategory::MacBlock, self.nvm);
                self.mac_cache.clean(mb);
                self.note_shadow_clean(mb);
            }
        }
        if let Some(ctl) = self.crash_ctl.as_mut() {
            ctl.tap(CrashSiteKind::MetaPersist);
        }
    }

    fn write_pub_block(&mut self, addr: u64, image: &[u8]) {
        if let Some(p) = self.psan.as_mut() {
            p.emit(PersistEventKind::PubAppend {
                addr,
                image: image.to_vec(),
            });
        }
        if let Some(tm) = self.telem.as_mut() {
            tm.record_pub_append(self.now.0);
        }
        self.wpq.insert(
            self.now,
            addr,
            Some(image.to_vec()),
            WriteCategory::PubBlock,
            self.nvm,
        );
        if let Some(ctl) = self.crash_ctl.as_mut() {
            ctl.tap(CrashSiteKind::PubAppend);
        }
    }

    fn read_pub_block(&mut self, addr: u64) -> Vec<u8> {
        if let Some(p) = self.psan.as_mut() {
            p.emit(PersistEventKind::PubEvict { addr });
        }
        if let Some(tm) = self.telem.as_mut() {
            tm.record_pub_evict(self.now.0);
        }
        let _ = self.nvm.time_access(self.now, addr, false);
        self.nvm.read_block(addr)
    }

    fn power_failed(&self) -> bool {
        self.crash_ctl.as_ref().is_some_and(|c| c.fired())
    }
}

/// Statistics snapshot at the warm-up boundary.
#[derive(Clone)]
struct Snapshot {
    wpq: WpqStats,
    pcb: PcbStats,
    outcomes: BTreeMap<EvictOutcome, u64>,
    policy_persists: u64,
    transactions: u64,
    ctr_stats: CacheStats,
    mac_stats: CacheStats,
    llc_stats: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use thoth_workloads::{spec, WorkloadConfig, WorkloadKind};

    fn tiny_trace(kind: WorkloadKind) -> MultiCoreTrace {
        let mut cfg = WorkloadConfig::paper_default(kind).scaled(0.01);
        cfg.cores = 2;
        cfg.footprint = if kind == WorkloadKind::Swap { 32 } else { 2000 };
        spec::generate(cfg)
    }

    fn small_config(mode: Mode) -> SimConfig {
        let mut c = SimConfig::paper_default(mode, 128);
        c.pub_size_bytes = 64 << 10; // small PUB so eviction paths run
        c
    }

    #[test]
    fn baseline_runs_and_writes_metadata() {
        let trace = tiny_trace(WorkloadKind::Ctree);
        let mut m = SecureNvm::new(small_config(Mode::baseline()));
        let r = m.run(&trace);
        assert!(r.total_cycles > 0);
        assert!(r.writes_in(WriteCategory::Data) > 0);
        assert!(r.writes_in(WriteCategory::CounterBlock) > 0);
        assert!(r.writes_in(WriteCategory::MacBlock) > 0);
        assert_eq!(r.writes_in(WriteCategory::PubBlock), 0);
        assert!(r.transactions > 0);
    }

    #[test]
    fn thoth_runs_with_pub_traffic() {
        let trace = tiny_trace(WorkloadKind::Ctree);
        let mut m = SecureNvm::new(small_config(Mode::thoth_wtsc()));
        let r = m.run(&trace);
        assert!(r.writes_in(WriteCategory::PubBlock) > 0);
        assert!(r.pcb_inserts > 0);
        assert!(
            !r.pub_evictions.is_empty(),
            "prefilled PUB must evict during the measured phase"
        );
    }

    #[test]
    fn thoth_writes_fewer_blocks_than_baseline() {
        let trace = tiny_trace(WorkloadKind::Hashmap);
        let base = SecureNvm::new(small_config(Mode::baseline())).run(&trace);
        let thoth = SecureNvm::new(small_config(Mode::thoth_wtsc())).run(&trace);
        assert!(
            thoth.writes_total() < base.writes_total(),
            "thoth {} vs baseline {}",
            thoth.writes_total(),
            base.writes_total()
        );
    }

    #[test]
    fn anubis_ecc_writes_least() {
        let trace = tiny_trace(WorkloadKind::Hashmap);
        let thoth = SecureNvm::new(small_config(Mode::thoth_wtsc())).run(&trace);
        let ideal = SecureNvm::new(small_config(Mode::AnubisEcc)).run(&trace);
        assert!(ideal.writes_total() <= thoth.writes_total());
    }

    #[test]
    fn deterministic_replay() {
        let trace = tiny_trace(WorkloadKind::Btree);
        let a = SecureNvm::new(small_config(Mode::thoth_wtsc())).run(&trace);
        let b = SecureNvm::new(small_config(Mode::thoth_wtsc())).run(&trace);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.pub_evictions, b.pub_evictions);
    }

    #[test]
    fn full_functional_mode_roundtrips_crash_recovery() {
        let mut cfg = small_config(Mode::thoth_wtsc());
        cfg.functional = FunctionalMode::Full;
        let trace = tiny_trace(WorkloadKind::Swap);
        let mut m = SecureNvm::new(cfg);
        m.run(&trace);
        m.crash();
        let rec = m.recover();
        assert!(rec.root_verified, "tree root must verify after recovery");
        assert_eq!(rec.blocks_failed, 0, "all data MACs must verify");
        assert!(rec.blocks_verified > 0);
    }

    #[test]
    fn recovery_detects_ciphertext_tampering() {
        let mut cfg = small_config(Mode::thoth_wtsc());
        cfg.functional = FunctionalMode::Full;
        let trace = tiny_trace(WorkloadKind::Swap);
        let mut m = SecureNvm::new(cfg);
        m.run(&trace);
        m.crash();
        // Find some written data block and flip one ciphertext bit.
        let victim = *m.data_versions.keys().next().expect("data written");
        let addr = m.layout.block_addr(victim);
        m.nvm_mut().tamper(addr + 5, 0x40);
        let rec = m.recover();
        assert!(rec.blocks_failed > 0, "tamper must be detected");
    }

    #[test]
    fn baseline_recovery_is_trivially_clean() {
        let mut cfg = small_config(Mode::baseline());
        cfg.functional = FunctionalMode::Full;
        let trace = tiny_trace(WorkloadKind::Swap);
        let mut m = SecureNvm::new(cfg);
        m.run(&trace);
        m.crash();
        let rec = m.recover();
        assert!(rec.is_clean());
        assert_eq!(rec.pub_blocks_scanned, 0);
    }

    #[test]
    fn phoenix_recovers_by_reconstructing_the_mac_region() {
        let mut cfg = small_config(Mode::phoenix());
        cfg.functional = FunctionalMode::Full;
        let trace = tiny_trace(WorkloadKind::Swap);
        let mut m = SecureNvm::new(cfg);
        m.run(&trace);
        m.crash();
        // Lazy MAC lines died with the caches: the persisted region is
        // stale until recovery reconstructs it from counters + ciphertext.
        let rec = m.recover();
        assert!(rec.is_clean(), "phoenix recovery must verify fully");
        assert!(
            rec.mac_blocks_recovered > 0,
            "reconstruction must rebuild the stale MAC region"
        );
        assert_eq!(rec.pub_blocks_scanned, 0, "phoenix has no PUB");
    }

    #[test]
    fn phoenix_recovery_detects_counter_tampering() {
        let mut cfg = small_config(Mode::phoenix());
        cfg.functional = FunctionalMode::Full;
        let trace = tiny_trace(WorkloadKind::Swap);
        let mut m = SecureNvm::new(cfg);
        m.run(&trace);
        m.crash();
        // Flip a bit in a persisted counter block: the strictly-persistent
        // leaves are exactly what the root register guards.
        let victim = *m.data_versions.keys().next().expect("data written");
        let (cb, _, _) = m.layout.ctr_location(victim);
        m.nvm_mut().tamper(cb + 3, 0x10);
        let rec = m.recover();
        assert!(!rec.root_verified, "counter tamper must break the root");
        assert!(!m.leaf_mismatches().is_empty());
    }

    #[test]
    fn freij_modes_recover_trivially_clean() {
        for mode in [Mode::freij_strict(), Mode::freij_lazy()] {
            let mut cfg = small_config(mode);
            cfg.functional = FunctionalMode::Full;
            let trace = tiny_trace(WorkloadKind::Swap);
            let mut m = SecureNvm::new(cfg);
            m.run(&trace);
            m.crash();
            let rec = m.recover();
            assert!(rec.is_clean(), "{} must recover cleanly", mode.label());
            assert_eq!(rec.pub_blocks_scanned, 0);
            assert_eq!(rec.mac_blocks_recovered, 0, "strict MACs need no rebuild");
        }
    }

    #[test]
    fn freij_strict_streams_tree_nodes_lazy_does_not() {
        let trace = tiny_trace(WorkloadKind::Hashmap);
        let strict = SecureNvm::new(small_config(Mode::freij_strict())).run(&trace);
        let lazy = SecureNvm::new(small_config(Mode::freij_lazy())).run(&trace);
        assert!(
            strict.writes_in(WriteCategory::TreeNode) > lazy.writes_in(WriteCategory::TreeNode),
            "strict subtree persistence must emit more tree-node writes ({} vs {})",
            strict.writes_in(WriteCategory::TreeNode),
            lazy.writes_in(WriteCategory::TreeNode)
        );
        assert!(lazy.total_cycles <= strict.total_cycles);
    }

    #[test]
    fn phoenix_skips_strict_mac_writes() {
        let trace = tiny_trace(WorkloadKind::Hashmap);
        let base = SecureNvm::new(small_config(Mode::baseline())).run(&trace);
        let phoenix = SecureNvm::new(small_config(Mode::phoenix())).run(&trace);
        assert!(
            phoenix.writes_in(WriteCategory::MacBlock) < base.writes_in(WriteCategory::MacBlock),
            "phoenix MACs are lazy ({} vs baseline {})",
            phoenix.writes_in(WriteCategory::MacBlock),
            base.writes_in(WriteCategory::MacBlock)
        );
        assert!(phoenix.writes_in(WriteCategory::CounterBlock) > 0);
    }

    #[test]
    fn minor_overflow_triggers_eager_persist_and_reencryption() {
        // Hammer one block until its 7-bit minor overflows: the counter
        // block must be persisted eagerly and the page re-encrypted.
        let mut cfg = small_config(Mode::thoth_wtsc());
        cfg.functional = FunctionalMode::Full;
        cfg.pub_prefill = false;
        let mut m = SecureNvm::new(cfg);
        let addr = 0x8000u64;
        let mut t = Cycle(0);
        for _ in 0..130 {
            t = m.store_block(t, addr) + 100;
        }
        m.wpq.drain_all(t, &mut m.nvm);
        // The overflow forced at least one in-place counter-block persist.
        assert!(m.nvm.writes_in(WriteCategory::CounterBlock) >= 1);
        // The *cache* (logical truth) shows the bumped major and the
        // post-overflow increments; the eagerly persisted in-place copy
        // holds the state as of the overflow (minors reset to 0).
        let (cb, group, slot) = m.layout.ctr_location(m.layout.block_index(addr));
        let (major, minor) = m.ctr_cache.peek(cb).expect("resident")[group].value_of(slot);
        assert_eq!(major, 1, "one overflow after 130 increments");
        assert_eq!(u64::from(minor), 130 - 128);
        let inplace = m.layout.ctr_geometry.unpack(&m.nvm.read_block(cb));
        assert_eq!(inplace[group].major(), 1, "overflow persisted eagerly");
        // After a crash the state must still verify.
        m.crash();
        assert!(m.recover().is_clean());
    }

    fn crashable_config() -> SimConfig {
        let mut cfg = small_config(Mode::thoth_wtsc());
        cfg.functional = FunctionalMode::Full;
        cfg.pub_prefill = false;
        cfg.pub_size_bytes = 8 << 10; // 64 blocks: evictions happen in tiny traces
        cfg
    }

    #[test]
    fn crash_site_enumeration_is_deterministic() {
        let trace = tiny_trace(WorkloadKind::Swap);
        let a = SecureNvm::new(crashable_config()).enumerate_crash_sites(&trace);
        let b = SecureNvm::new(crashable_config()).enumerate_crash_sites(&trace);
        assert_eq!(a, b);
        assert!(a.of(CrashSiteKind::Persist) > 0);
        assert!(a.of(CrashSiteKind::Store) > 0);
        assert!(
            a.of(CrashSiteKind::Persist) >= a.of(CrashSiteKind::Store),
            "every Store op issues at least one persist"
        );
    }

    #[test]
    fn crash_mid_trace_recovers_cleanly() {
        // A crash injected mid-trace — flush-in-flight state either fully
        // persisted (ADR) or never started — must recover with the root
        // verified and every block authenticated.
        let trace = tiny_trace(WorkloadKind::Swap);
        for plan in [
            CrashPlan { site: CrashSiteKind::Persist, nth: 25 },
            CrashPlan { site: CrashSiteKind::Store, nth: 7 },
        ] {
            let mut m = SecureNvm::new(crashable_config());
            assert!(m.run_to_crash(&trace, plan), "{} must fire", plan.label());
            m.crash();
            let rec = m.recover();
            assert!(rec.root_verified, "root after {}", plan.label());
            assert_eq!(rec.blocks_failed, 0, "auth after {}", plan.label());
            assert!(m.leaf_mismatches().is_empty());
        }
    }

    #[test]
    fn crash_mid_pub_append_and_mid_eviction_recover() {
        let trace = tiny_trace(WorkloadKind::Btree);
        // Evict aggressively so the tiny trace reaches the mid-eviction
        // (MetaPersist) window.
        let mut cfg = crashable_config();
        cfg.pub_threshold_pct = 20;
        let counts = SecureNvm::new(cfg.clone()).enumerate_crash_sites(&trace);
        for site in [CrashSiteKind::PubAppend, CrashSiteKind::MetaPersist] {
            let n = counts.of(site);
            assert!(n > 0, "tiny config must expose {} sites, got {counts:?}", site.tag());
            let plan = CrashPlan { site, nth: n / 2 };
            let mut m = SecureNvm::new(cfg.clone());
            assert!(m.run_to_crash(&trace, plan));
            m.crash();
            let rec = m.recover();
            assert!(rec.root_verified, "root after {}", plan.label());
            assert_eq!(rec.blocks_failed, 0, "auth after {}", plan.label());
        }
    }

    #[test]
    fn op_log_matches_data_versions() {
        // Every durably-ACKed store is logged exactly once: replaying the
        // log must reproduce the machine's per-block version map.
        let trace = tiny_trace(WorkloadKind::Swap);
        let mut m = SecureNvm::new(crashable_config());
        m.run_to_crash(&trace, CrashPlan { site: CrashSiteKind::Persist, nth: 40 });
        let mut versions: FastMap<u64, u64> = FastMap::default();
        for op in m.take_op_log() {
            if let LoggedOp::Store { block, .. } = op {
                *versions.entry(block).or_insert(0) += 1;
            }
        }
        let written = m.written_blocks();
        assert_eq!(written.len(), versions.len());
        for (block, version) in written {
            assert_eq!(versions.get(&block), Some(&version), "block {block}");
        }
    }

    #[test]
    fn crash_run_past_trace_end_reports_no_fire() {
        let trace = tiny_trace(WorkloadKind::Swap);
        let mut m = SecureNvm::new(crashable_config());
        let plan = CrashPlan { site: CrashSiteKind::Persist, nth: u64::MAX };
        assert!(!m.run_to_crash(&trace, plan), "trace ends before the point");
        m.crash();
        assert!(m.recover().is_clean(), "completed run still recovers");
    }

    #[test]
    fn torn_counter_write_without_recovery_merge_fails_auth() {
        // The acceptance check: a deliberately torn counter-block write at
        // crash time, *without* replaying recovery's PUB merge, must be
        // caught by per-block authentication.
        let trace = tiny_trace(WorkloadKind::Swap);
        let mut m = SecureNvm::new(crashable_config());
        m.run_to_crash(&trace, CrashPlan { site: CrashSiteKind::Persist, nth: 30 });
        m.crash();
        // Corrupt one written block's counter in place: bump the stored
        // minor as a torn 64 B-prefix write would.
        let (block, _) = m.written_blocks()[0];
        let (cb, _, _) = m.layout.ctr_location(block);
        m.nvm_mut().tamper(cb + 1, 0xFF);
        let failures: Vec<u64> = m
            .written_blocks()
            .iter()
            .filter(|(b, _)| m.authenticate_persisted(*b).is_err())
            .map(|&(b, _)| b)
            .collect();
        assert!(failures.contains(&block), "corruption must fail authentication");
    }

    #[test]
    fn wpq_forwarding_prevents_stale_metadata_refetch() {
        // Regression for the counter-regression bug: evict a dirty counter
        // block into the WPQ, immediately refetch it, and check the cache
        // sees the written-back (newest) state, not the device's.
        let mut m = SecureNvm::new(small_config(Mode::thoth_wtsc()));
        let addr = 0x4000u64;
        let t = m.store_block(Cycle(0), addr);
        let index = m.layout.block_index(addr);
        let (cb, group, slot) = m.layout.ctr_location(index);
        // Force the dirty line out through the write-back path...
        let ev = m.ctr_cache.remove(cb).expect("resident");
        let groups = ev.value.clone();
        m.writeback_ctr(t, cb, &groups, ev.dirty);
        // ...and refetch before any drain could complete.
        m.ensure_ctr(t + 1, cb);
        let seen = m.ctr_cache.peek(cb).expect("refetched")[group].value_of(slot);
        assert_eq!(seen, groups[group].value_of(slot), "stale refetch");
        assert_eq!(seen.1, 1, "the store's increment must be visible");
    }

    #[test]
    fn classic_64_byte_blocks_work_end_to_end() {
        // DDR4-style 64 B granularity: 4 PUB entries per block, classic
        // 64-minors-per-counter-block split-counter layout.
        let trace = tiny_trace(WorkloadKind::Ctree);
        let mut cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 64);
        cfg.pub_size_bytes = 64 << 10;
        let r = SecureNvm::new(cfg).run(&trace);
        assert!(r.writes_in(WriteCategory::PubBlock) > 0);
        let mut base_cfg = SimConfig::paper_default(Mode::baseline(), 64);
        base_cfg.pub_size_bytes = 64 << 10;
        let base = SecureNvm::new(base_cfg).run(&trace);
        assert!(r.writes_total() <= base.writes_total());
    }

    #[test]
    fn shadow_writes_are_packed() {
        // Shadow updates pack block/8 entries per block: shadow-category
        // writes must be far fewer than metadata dirty transitions.
        let trace = tiny_trace(WorkloadKind::Hashmap);
        let mut m = SecureNvm::new(small_config(Mode::thoth_wtsc()));
        let r = m.run(&trace);
        let shadow = r.writes_in(WriteCategory::Shadow);
        assert!(shadow * 8 <= m.shadow.updates() + 8, "packing violated");
    }

    #[test]
    fn blocks_spanned_computes_correctly() {
        let m = SecureNvm::new(small_config(Mode::baseline()));
        assert_eq!(m.blocks_spanned(0, 1), vec![0]);
        assert_eq!(m.blocks_spanned(0, 128), vec![0]);
        assert_eq!(m.blocks_spanned(0, 129), vec![0, 128]);
        assert_eq!(m.blocks_spanned(100, 56), vec![0, 128]);
        assert_eq!(m.blocks_spanned(130, 8), vec![128]);
    }
}

