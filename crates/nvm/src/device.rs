//! The NVM device: sparse functional store + banked timing model.

use crate::category::WriteCategory;
use crate::wear::WearTracker;
use thoth_sim_engine::{CoalescedEventQueue, Cycle, FastMap, Frequency};
use thoth_telemetry::QueueProbe;

/// Static configuration of the NVM device (paper Table I defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmConfig {
    /// Total capacity in bytes (32 GB in the paper).
    pub capacity_bytes: u64,
    /// Access granularity in bytes (64, 128 or 256).
    pub block_bytes: usize,
    /// Number of independently timed banks.
    pub num_banks: usize,
    /// Read latency in nanoseconds (150 in the paper).
    pub read_ns: u64,
    /// Write latency in nanoseconds (500 in the paper).
    pub write_ns: u64,
    /// Core clock used to convert latencies into cycles.
    pub frequency: Frequency,
}

impl NvmConfig {
    /// The paper's Table I configuration with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero or not a power of two.
    #[must_use]
    pub fn table_i(block_bytes: usize) -> Self {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        NvmConfig {
            capacity_bytes: 32 << 30,
            block_bytes,
            num_banks: 16,
            read_ns: 150,
            write_ns: 500,
            frequency: Frequency::ghz(4),
        }
    }

    /// Read latency in cycles.
    #[must_use]
    pub fn read_cycles(&self) -> u64 {
        self.frequency.ns_to_cycles(self.read_ns)
    }

    /// Write latency in cycles.
    #[must_use]
    pub fn write_cycles(&self) -> u64 {
        self.frequency.ns_to_cycles(self.write_ns)
    }
}

/// The simulated NVM device.
///
/// # Example
///
/// ```
/// use thoth_nvm::{NvmConfig, NvmDevice, WriteCategory};
/// use thoth_sim_engine::Cycle;
///
/// let mut nvm = NvmDevice::new(NvmConfig::table_i(128));
/// nvm.write_block(0x1000, &[7u8; 128], WriteCategory::Data);
/// assert_eq!(nvm.read_block(0x1000)[0], 7);
/// assert_eq!(nvm.writes_in(WriteCategory::Data), 1);
///
/// // Timing: a write occupies its bank for 2000 cycles (500 ns @ 4 GHz).
/// let done = nvm.time_access(Cycle(0), 0x1000, true);
/// assert_eq!(done, Cycle(2000));
/// let done2 = nvm.time_access(Cycle(0), 0x1000, true); // same bank: serialized
/// assert_eq!(done2, Cycle(4000));
/// ```
#[derive(Debug, Clone)]
pub struct NvmDevice {
    config: NvmConfig,
    /// Sparse block store: block-aligned address -> fixed-size block image.
    /// `Box<[u8]>` rather than `Vec<u8>`: blocks never resize, and rewrites
    /// reuse the existing allocation instead of replacing it.
    blocks: FastMap<u64, Box<[u8]>>,
    /// Per-bank earliest availability (authoritative timing state).
    bank_busy_until: Vec<Cycle>,
    /// Bank-completion scoreboard: same-cycle completions coalesce into
    /// one `(cycle, bank bitmask)` entry, so busy-bank queries drain a
    /// handful of entries instead of scanning every bank. Each busy bank
    /// has exactly one live entry bit; a bank whose occupancy was
    /// extended re-checks `bank_busy_until` at pop time and reschedules.
    completions: CoalescedEventQueue,
    /// Bitmask of banks holding a live scoreboard entry. A bank schedules
    /// at most one completion event at a time; the bit clears only when
    /// its entry pops with the bank genuinely idle. Tracking per-bank
    /// bits (not a counter) keeps the scoreboard correct even when cores
    /// issue accesses with non-monotonic timestamps.
    live_events: u64,
    /// High-water mark of scoreboard drains; queries behind it fall back
    /// to the scan (the scoreboard only moves forward in time).
    drained_to: Cycle,
    wear: WearTracker,
    /// Functional writes per category, indexed by [`WriteCategory::index`]
    /// (a dense array so the per-write accounting is two adds, not a
    /// string-keyed map lookup).
    writes_by_cat: [u64; WriteCategory::ALL.len()],
    /// Timed accesses issued through [`Self::time_access`].
    timed_reads: u64,
    timed_writes: u64,
    /// Telemetry probe recording busy-bank counts per timed access.
    /// `None` (the default) keeps the timing path probe-free.
    probe: Option<QueueProbe>,
}

impl NvmDevice {
    /// Creates an empty (all-zero) device.
    #[must_use]
    pub fn new(config: NvmConfig) -> Self {
        NvmDevice {
            config,
            blocks: FastMap::default(),
            bank_busy_until: vec![Cycle::ZERO; config.num_banks],
            completions: CoalescedEventQueue::new(),
            live_events: 0,
            drained_to: Cycle::ZERO,
            wear: WearTracker::new(),
            writes_by_cat: [0; WriteCategory::ALL.len()],
            timed_reads: 0,
            timed_writes: 0,
            probe: None,
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> NvmConfig {
        self.config
    }

    fn align(&self, addr: u64) -> u64 {
        addr - addr % self.config.block_bytes as u64
    }

    fn check_range(&self, addr: u64) {
        assert!(
            addr < self.config.capacity_bytes,
            "address {addr:#x} beyond NVM capacity {:#x}",
            self.config.capacity_bytes
        );
    }

    /// The bank servicing `addr` (low block-address bits).
    #[must_use]
    pub fn bank_of(&self, addr: u64) -> usize {
        ((self.align(addr) / self.config.block_bytes as u64) % self.config.num_banks as u64)
            as usize
    }

    // ---- functional interface -------------------------------------------

    /// Reads the block containing `addr`. Untouched blocks read as zeros.
    #[must_use]
    pub fn read_block(&self, addr: u64) -> Vec<u8> {
        self.check_range(addr);
        let block = self.align(addr);
        self.blocks
            .get(&block)
            .map_or_else(|| vec![0; self.config.block_bytes], |b| b.to_vec())
    }

    /// Borrowing read of the block containing `addr`, or `None` for a
    /// never-written (all-zero) block. The allocation-free path for hot
    /// callers; [`Self::read_block`] stays for everyone who wants an owned
    /// image.
    #[must_use]
    pub fn block_image(&self, addr: u64) -> Option<&[u8]> {
        self.check_range(addr);
        self.blocks.get(&self.align(addr)).map(|b| &**b)
    }

    /// Writes one full block, tagged with a traffic category.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block, or `addr` is out of range.
    pub fn write_block(&mut self, addr: u64, data: &[u8], category: WriteCategory) {
        self.check_range(addr);
        assert_eq!(
            data.len(),
            self.config.block_bytes,
            "write must be one full block"
        );
        let block = self.align(addr);
        // Reuse the existing allocation on rewrite — the common case once a
        // block is resident.
        if let Some(img) = self.blocks.get_mut(&block) {
            img.copy_from_slice(data);
        } else {
            self.blocks.insert(block, data.into());
        }
        self.wear.record(block);
        self.writes_by_cat[category.index()] += 1;
    }

    /// Writes only the first `prefix_bytes` of a block — the torn-write
    /// fault model (see [`crate::fault`]): power failed after a prefix of
    /// 64 B units persisted. The rest of the block keeps its old contents
    /// (zeros if never written). A zero-length prefix still counts as a
    /// write attempt for accounting, but changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not one full block, `prefix_bytes` exceeds the
    /// block or is not a multiple of [`crate::fault::TORN_WRITE_UNIT`],
    /// or `addr` is out of range.
    pub fn write_block_torn(
        &mut self,
        addr: u64,
        data: &[u8],
        prefix_bytes: usize,
        category: WriteCategory,
    ) {
        self.check_range(addr);
        assert_eq!(
            data.len(),
            self.config.block_bytes,
            "torn write must start from one full block"
        );
        assert!(
            prefix_bytes <= self.config.block_bytes,
            "torn prefix exceeds the block"
        );
        assert!(
            prefix_bytes.is_multiple_of(crate::fault::TORN_WRITE_UNIT),
            "torn prefix must be whole {} B units",
            crate::fault::TORN_WRITE_UNIT
        );
        let block = self.align(addr);
        let block_bytes = self.config.block_bytes;
        let img = self
            .blocks
            .entry(block)
            .or_insert_with(|| vec![0u8; block_bytes].into());
        img[..prefix_bytes].copy_from_slice(&data[..prefix_bytes]);
        self.wear.record(block);
        self.writes_by_cat[category.index()] += 1;
    }

    /// Installs block contents with **no** wear or category accounting —
    /// the warm-up/prefill path. Callers use this only for state whose
    /// stats the next [`Self::reset_stats`] would discard anyway; measured
    /// traffic must go through [`Self::write_block`].
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block, or `addr` is out of range.
    pub fn install_block(&mut self, addr: u64, data: &[u8]) {
        self.check_range(addr);
        assert_eq!(
            data.len(),
            self.config.block_bytes,
            "install must be one full block"
        );
        let block = self.align(addr);
        if let Some(img) = self.blocks.get_mut(&block) {
            img.copy_from_slice(data);
        } else {
            self.blocks.insert(block, data.into());
        }
    }

    /// Pre-sizes the block store for `additional` more resident blocks
    /// (bulk-install paths like the PUB prefill).
    pub fn reserve_blocks(&mut self, additional: usize) {
        self.blocks.reserve(additional);
    }

    /// Records a write for accounting/wear without storing bytes.
    ///
    /// Fast timing-only simulations use this when functional contents are
    /// disabled; the write still counts toward categories and wear.
    pub fn note_write(&mut self, addr: u64, category: WriteCategory) {
        self.check_range(addr);
        let block = self.align(addr);
        self.wear.record(block);
        self.writes_by_cat[category.index()] += 1;
    }

    /// Reads `len` bytes starting at `addr` (may span blocks).
    #[must_use]
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let bs = self.config.block_bytes as u64;
        let mut cur = addr;
        while out.len() < len {
            let block = self.align(cur);
            let offset = (cur - block) as usize;
            let img = self.read_block(cur);
            let take = (len - out.len()).min(self.config.block_bytes - offset);
            out.extend_from_slice(&img[offset..offset + take]);
            cur = block + bs;
        }
        out
    }

    /// Corrupts one byte in place — used by tamper-detection tests. Does
    /// not count as a tracked write (an attacker bypasses the controller).
    pub fn tamper(&mut self, addr: u64, xor_mask: u8) {
        self.check_range(addr);
        let block = self.align(addr);
        let offset = (addr - block) as usize;
        let block_bytes = self.config.block_bytes;
        let img = self
            .blocks
            .entry(block)
            .or_insert_with(|| vec![0u8; block_bytes].into());
        img[offset] ^= xor_mask;
    }

    /// Number of distinct blocks ever written.
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Addresses of all materialized blocks in `[lo, hi)`, sorted.
    /// Recovery uses this to enumerate the counter blocks to rebuild the
    /// integrity tree from.
    #[must_use]
    pub fn block_addrs_in(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .blocks
            .keys()
            .copied()
            .filter(|&a| (lo..hi).contains(&a))
            .collect();
        out.sort_unstable();
        out
    }

    // ---- timing interface -----------------------------------------------

    /// Schedules an access beginning no earlier than `now`; returns its
    /// completion cycle and occupies the bank until then.
    pub fn time_access(&mut self, now: Cycle, addr: u64, is_write: bool) -> Cycle {
        self.check_range(addr);
        let bank = self.bank_of(addr);
        let latency = if is_write {
            self.config.write_cycles()
        } else {
            self.config.read_cycles()
        };
        self.drain_completions(now);
        let bit = 1u64 << bank;
        let start = now.max(self.bank_busy_until[bank]);
        let done = start + latency;
        self.bank_busy_until[bank] = done;
        if self.live_events & bit == 0 {
            // No live entry: open the bank's single scoreboard entry.
            // A bank that already has one keeps it (now stale), and the
            // entry re-checks `bank_busy_until` and reschedules when it
            // pops.
            self.live_events |= bit;
            self.completions.schedule(done, bank as u32);
        }
        if is_write {
            self.timed_writes += 1;
        } else {
            self.timed_reads += 1;
        }
        if self.probe.is_some() {
            let busy = self.tracked_busy_banks(now);
            let p = self.probe.as_mut().expect("checked above");
            p.record(busy);
        }
        done
    }

    /// Pops every due scoreboard entry, settling each carried bank:
    /// still-extended banks reschedule at their current availability,
    /// genuinely free banks leave the busy count.
    fn drain_completions(&mut self, now: Cycle) {
        if now < self.drained_to {
            return; // the scoreboard only moves forward
        }
        self.drained_to = now;
        while let Some((_, mask)) = self.completions.pop_due(now) {
            let mut remaining = mask;
            while remaining != 0 {
                let bank = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                let until = self.bank_busy_until[bank];
                if until > now {
                    self.completions.schedule(until, bank as u32);
                } else {
                    self.live_events &= !(1u64 << bank);
                }
            }
        }
    }

    /// Busy-bank count from the scoreboard: O(due entries) amortized
    /// instead of a full bank scan. Queries behind the drain high-water
    /// mark fall back to the scan, which is always authoritative.
    pub fn tracked_busy_banks(&mut self, now: Cycle) -> u64 {
        if now < self.drained_to {
            return self.queue_depth(now);
        }
        self.drain_completions(now);
        u64::from(self.live_events.count_ones())
    }

    /// Completion events absorbed into same-cycle bitmask entries — the
    /// schedules a per-event queue would have carried separately.
    #[must_use]
    pub fn bank_events_coalesced(&self) -> u64 {
        self.completions.coalesced()
    }

    /// Number of banks still busy at `now` — the device-side queue-depth
    /// proxy the telemetry timeline samples.
    #[must_use]
    pub fn queue_depth(&self, now: Cycle) -> u64 {
        self.bank_busy_until
            .iter()
            .filter(|&&until| until > now)
            .count() as u64
    }

    /// Installs a telemetry probe recording busy-bank counts at every
    /// timed access.
    pub fn attach_probe(&mut self, probe: QueueProbe) {
        self.probe = Some(probe);
    }

    /// Removes and returns the telemetry probe, if any.
    pub fn take_probe(&mut self) -> Option<QueueProbe> {
        self.probe.take()
    }

    /// Earliest cycle at which a new access to `addr` could start.
    #[must_use]
    pub fn earliest_start(&self, now: Cycle, addr: u64) -> Cycle {
        now.max(self.bank_busy_until[self.bank_of(addr)])
    }

    /// Resets all bank timing (not the functional state). Used between the
    /// warm-up and measured phases of an experiment.
    pub fn reset_timing(&mut self) {
        self.bank_busy_until.fill(Cycle::ZERO);
        self.completions.clear();
        self.live_events = 0;
        self.drained_to = Cycle::ZERO;
    }

    // ---- statistics -------------------------------------------------------

    /// Count of functional writes in `category`.
    #[must_use]
    pub fn writes_in(&self, category: WriteCategory) -> u64 {
        self.writes_by_cat[category.index()]
    }

    /// Total functional writes across all categories.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.writes_by_cat.iter().sum()
    }

    /// Reads issued through the timing model.
    #[must_use]
    pub fn timed_reads(&self) -> u64 {
        self.timed_reads
    }

    /// Writes issued through the timing model.
    #[must_use]
    pub fn timed_writes(&self) -> u64 {
        self.timed_writes
    }

    /// The wear tracker (per-block write counts).
    #[must_use]
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Zeroes all statistics and wear (keeps functional contents). Used at
    /// the end of warm-up so measured counts cover only the region of
    /// interest.
    pub fn reset_stats(&mut self) {
        self.writes_by_cat = [0; WriteCategory::ALL.len()];
        self.timed_reads = 0;
        self.timed_writes = 0;
        self.wear = WearTracker::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NvmDevice {
        NvmDevice::new(NvmConfig::table_i(128))
    }

    #[test]
    fn table_i_latencies() {
        let c = NvmConfig::table_i(128);
        assert_eq!(c.read_cycles(), 600);
        assert_eq!(c.write_cycles(), 2000);
        assert_eq!(c.capacity_bytes, 32 << 30);
    }

    #[test]
    fn untouched_blocks_read_zero() {
        let d = dev();
        assert_eq!(d.read_block(0x4000), vec![0u8; 128]);
        assert_eq!(d.resident_blocks(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = dev();
        let data: Vec<u8> = (0..128).map(|i| i as u8).collect();
        d.write_block(0x2000, &data, WriteCategory::Data);
        assert_eq!(d.read_block(0x2000), data);
        assert_eq!(d.read_block(0x2040), data, "same block via inner address");
    }

    #[test]
    fn read_bytes_spans_blocks() {
        let mut d = dev();
        d.write_block(0, &[0xAA; 128], WriteCategory::Data);
        d.write_block(128, &[0xBB; 128], WriteCategory::Data);
        let span = d.read_bytes(120, 16);
        assert_eq!(&span[..8], &[0xAA; 8]);
        assert_eq!(&span[8..], &[0xBB; 8]);
    }

    #[test]
    fn category_accounting() {
        let mut d = dev();
        d.write_block(0, &[0; 128], WriteCategory::Data);
        d.write_block(128, &[0; 128], WriteCategory::Data);
        d.write_block(256, &[0; 128], WriteCategory::MacBlock);
        d.write_block(384, &[0; 128], WriteCategory::PubBlock);
        assert_eq!(d.writes_in(WriteCategory::Data), 2);
        assert_eq!(d.writes_in(WriteCategory::MacBlock), 1);
        assert_eq!(d.writes_in(WriteCategory::PubBlock), 1);
        assert_eq!(d.writes_in(WriteCategory::CounterBlock), 0);
        assert_eq!(d.total_writes(), 4);
    }

    #[test]
    fn banks_serialize_same_bank_accesses() {
        let mut d = dev();
        let done1 = d.time_access(Cycle(0), 0, true);
        let done2 = d.time_access(Cycle(0), 0, true);
        assert_eq!(done1, Cycle(2000));
        assert_eq!(done2, Cycle(4000));
        // A later arrival starts when it arrives, not earlier.
        let done3 = d.time_access(Cycle(10_000), 0, false);
        assert_eq!(done3, Cycle(10_600));
    }

    #[test]
    fn different_banks_run_in_parallel() {
        let mut d = dev();
        // Consecutive blocks map to consecutive banks.
        let a = d.time_access(Cycle(0), 0, true);
        let b = d.time_access(Cycle(0), 128, true);
        assert_eq!(a, Cycle(2000));
        assert_eq!(b, Cycle(2000));
        assert_ne!(d.bank_of(0), d.bank_of(128));
    }

    #[test]
    fn bank_mapping_is_block_granular() {
        let d = dev();
        assert_eq!(d.bank_of(0), d.bank_of(127));
        assert_eq!(d.bank_of(0), d.bank_of(16 * 128)); // wraps at num_banks
    }

    #[test]
    fn earliest_start_reflects_bank_occupancy() {
        let mut d = dev();
        d.time_access(Cycle(0), 0, true);
        assert_eq!(d.earliest_start(Cycle(0), 0), Cycle(2000));
        assert_eq!(d.earliest_start(Cycle(3000), 0), Cycle(3000));
        assert_eq!(d.earliest_start(Cycle(0), 128), Cycle(0));
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let mut d = dev();
        d.write_block(0, &[0x11; 128], WriteCategory::Data);
        d.write_block_torn(0, &[0x22; 128], 64, WriteCategory::Data);
        let img = d.read_block(0);
        assert_eq!(&img[..64], &[0x22; 64][..]);
        assert_eq!(&img[64..], &[0x11; 64][..], "tail keeps old contents");
        assert_eq!(d.writes_in(WriteCategory::Data), 2, "torn write still counted");
    }

    #[test]
    fn torn_write_with_zero_prefix_changes_nothing() {
        let mut d = dev();
        d.write_block(0, &[0x11; 128], WriteCategory::Data);
        d.write_block_torn(0, &[0x22; 128], 0, WriteCategory::Data);
        assert_eq!(d.read_block(0), vec![0x11; 128]);
    }

    #[test]
    fn torn_write_to_untouched_block_leaves_zero_tail() {
        let mut d = dev();
        d.write_block_torn(0x4000, &[0x33; 128], 64, WriteCategory::CounterBlock);
        let img = d.read_block(0x4000);
        assert_eq!(&img[..64], &[0x33; 64][..]);
        assert_eq!(&img[64..], &[0u8; 64][..]);
    }

    #[test]
    #[should_panic(expected = "whole 64 B units")]
    fn torn_write_rejects_unaligned_prefix() {
        let mut d = dev();
        d.write_block_torn(0, &[0; 128], 17, WriteCategory::Data);
    }

    #[test]
    fn tamper_flips_bits_without_counting() {
        let mut d = dev();
        d.write_block(0, &[0u8; 128], WriteCategory::Data);
        let before_writes = d.total_writes();
        d.tamper(5, 0xFF);
        assert_eq!(d.read_block(0)[5], 0xFF);
        assert_eq!(d.total_writes(), before_writes);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut d = dev();
        d.write_block(0, &[3u8; 128], WriteCategory::Data);
        d.reset_stats();
        assert_eq!(d.total_writes(), 0);
        assert_eq!(d.read_block(0)[0], 3);
    }

    #[test]
    fn reset_timing_clears_banks() {
        let mut d = dev();
        d.time_access(Cycle(0), 0, true);
        d.reset_timing();
        assert_eq!(d.earliest_start(Cycle(0), 0), Cycle(0));
    }

    #[test]
    #[should_panic(expected = "beyond NVM capacity")]
    fn out_of_range_panics() {
        let mut d = dev();
        d.write_block(32 << 30, &[0; 128], WriteCategory::Data);
    }

    #[test]
    #[should_panic(expected = "one full block")]
    fn partial_write_panics() {
        let mut d = dev();
        d.write_block(0, &[0; 64], WriteCategory::Data);
    }

    #[test]
    fn install_block_stores_without_accounting() {
        let mut d = dev();
        d.reserve_blocks(8);
        d.install_block(0x2000, &[9u8; 128]);
        assert_eq!(d.read_block(0x2000), vec![9u8; 128]);
        assert_eq!(d.total_writes(), 0, "no category accounting");
        assert_eq!(d.wear().blocks_touched(), 0, "no wear accounting");
        // Re-install reuses the residency (same as write_block).
        d.install_block(0x2000, &[7u8; 128]);
        assert_eq!(d.resident_blocks(), 1);
        assert_eq!(d.read_block(0x2000)[0], 7);
    }

    /// Differential: the coalescing completion scoreboard must agree
    /// with the full bank scan at every step of a pseudo-random but
    /// time-monotonic access schedule, while actually merging events.
    #[test]
    fn completion_scoreboard_matches_bank_scan() {
        let mut d = dev();
        let mut x: u64 = 0x00c0_ffee_0000_1234;
        let mut now = 0u64;
        for step in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Bursts of same-cycle accesses across banks force same-cycle
            // completions; occasional jumps drain everything.
            if x.is_multiple_of(4) {
                now += x % 3000;
            }
            let addr = (x >> 16) % (1 << 20);
            let is_write = x.is_multiple_of(2);
            d.time_access(Cycle(now), addr, is_write);
            assert_eq!(
                d.tracked_busy_banks(Cycle(now)),
                d.queue_depth(Cycle(now)),
                "step {step} at cycle {now}"
            );
        }
        assert!(
            d.bank_events_coalesced() > 0,
            "same-cycle completions must coalesce"
        );
        // Far future: everything drains back to idle.
        assert_eq!(d.tracked_busy_banks(Cycle(now + 1_000_000)), 0);
        // Queries behind the drain mark fall back to the scan.
        assert_eq!(d.tracked_busy_banks(Cycle(0)), d.queue_depth(Cycle(0)));
    }

    #[test]
    fn scoreboard_survives_timing_reset() {
        let mut d = dev();
        d.time_access(Cycle(0), 0, true);
        d.time_access(Cycle(0), 128, true);
        assert_eq!(d.tracked_busy_banks(Cycle(0)), 2);
        d.reset_timing();
        assert_eq!(d.tracked_busy_banks(Cycle(0)), 0);
        let done = d.time_access(Cycle(100), 0, false);
        assert_eq!(done, Cycle(700));
        assert_eq!(d.tracked_busy_banks(Cycle(100)), 1);
        assert_eq!(d.tracked_busy_banks(Cycle(700)), 0);
    }

    #[test]
    fn queue_depth_counts_busy_banks() {
        let mut d = dev();
        assert_eq!(d.queue_depth(Cycle(0)), 0);
        d.time_access(Cycle(0), 0, true); // bank 0 busy until 2000
        d.time_access(Cycle(0), 128, false); // bank 1 busy until 600
        assert_eq!(d.queue_depth(Cycle(0)), 2);
        assert_eq!(d.queue_depth(Cycle(1000)), 1);
        assert_eq!(d.queue_depth(Cycle(2000)), 0);
    }

    #[test]
    fn probe_records_busy_banks_and_detaches() {
        let mut d = dev();
        d.attach_probe(QueueProbe::new("nvm_banks", 16));
        d.time_access(Cycle(0), 0, true);
        d.time_access(Cycle(0), 128, true);
        let p = d.take_probe().expect("probe attached");
        assert_eq!(p.samples(), 2);
        assert_eq!(p.peak(), 2);
        assert!(p.within_capacity());
        assert!(d.take_probe().is_none());
        // Timing results are probe-independent.
        let done = d.time_access(Cycle(0), 0, true);
        assert_eq!(done, Cycle(4000));
    }
}
