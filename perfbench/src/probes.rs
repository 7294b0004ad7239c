//! Isolated unit costs of the substrate layers, timed on their public
//! functions at the shapes the simulator uses (128 B blocks, 8-block AES
//! batches, 64-row tree-node hash batches, Table I cache and WPQ
//! geometry). These are isolated calls, not shares of a workload's time.

use std::hint::black_box;
use std::time::Instant;

use thoth_cache::{CacheConfig, SetAssocCache};
use thoth_crypto::{Aes128, MacEngine, MacKey, SipHash24};
use thoth_memctrl::{Wpq, WpqConfig};
use thoth_merkle::{BonsaiTree, MerkleConfig};
use thoth_nvm::{NvmDevice, WriteCategory};
use thoth_sim::{MemoryLayout, Mode, SimConfig};
use thoth_sim_engine::{Cycle, DetRng};

use crate::stats::median;

/// Block size every probe uses (the paper's emerging-NVM block).
const BLOCK: usize = 128;

/// Timed batches per probe; the reported cost is their median.
const BATCHES: usize = 7;

/// Nanoseconds per call of `step`, as the median over [`BATCHES`]
/// batches of `calls` calls each.
fn ns_per_call(calls: usize, mut step: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let started = Instant::now();
        for _ in 0..calls {
            step(i);
            i += 1;
        }
        samples.push(started.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    median(&samples)
}

/// Pseudo-random block-aligned addresses below `span_blocks` blocks.
fn addresses(n: usize, span_blocks: u64, seed: u64) -> Vec<u64> {
    let mut rng = DetRng::seed_from(seed);
    (0..n)
        .map(|_| rng.gen_range(span_blocks) * BLOCK as u64)
        .collect()
}

/// Isolated per-call costs, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// `Aes128::encrypt_blocks` on 8 blocks (one 128 B block's pads).
    pub aes_batch8_ns: f64,
    /// `SipHash24::hash_words_batch` on 64 tree-node rows.
    pub sip_batch64_ns: f64,
    /// `MacEngine::both_levels` over a 128 B ciphertext.
    pub mac_both_levels_ns: f64,
    /// `BonsaiTree::update_leaf` on the 128 B layout's tree.
    pub merkle_update_leaf_ns: f64,
    /// `SetAssocCache::lookup` (plus `insert` on a miss) at the counter
    /// cache's geometry over a footprint four times its capacity.
    pub cache_probe_ns: f64,
    /// `Wpq::insert` at the Thoth WPQ capacity.
    pub wpq_insert_ns: f64,
    /// `NvmDevice::time_access`, alternating reads and writes.
    pub nvm_time_access_ns: f64,
}

/// Measures every unit cost. `calls` scales the batch length (tests
/// pass a small value).
#[must_use]
pub fn measure(calls: usize) -> UnitCosts {
    let cfg = SimConfig::paper_default(Mode::thoth_wtsc(), BLOCK);
    let key = [0x5au8; 16];

    let aes = Aes128::new(&key);
    let mut blocks = [[7u8; 16]; 8];
    let aes_batch8_ns = ns_per_call(calls, |_| aes.encrypt_blocks(black_box(&mut blocks)));

    let sip = SipHash24::from_key_bytes(&key);
    let rows: Vec<[u64; 10]> = (0..64u64).map(|r| [r; 10]).collect();
    let sip_batch64_ns = ns_per_call(calls / 8 + 1, |_| {
        black_box(sip.hash_words_batch(black_box(&rows)));
    });

    let mac = MacEngine::new(MacKey(key));
    let ct = [0x3cu8; BLOCK];
    let mac_both_levels_ns = ns_per_call(calls, |i| {
        black_box(mac.both_levels(i as u64 * BLOCK as u64, 1, (i % 64) as u8, black_box(&ct)));
    });

    let layout = MemoryLayout::new(BLOCK);
    let leaves = layout.tree_leaves();
    let mut tree = BonsaiTree::new(MerkleConfig::new(8, leaves), 0x7407_113A_57EE_C0DE);
    let leaf_ids = addresses(4096, leaves, 1);
    let merkle_update_leaf_ns = ns_per_call(calls, |i| {
        let leaf = leaf_ids[i % leaf_ids.len()] / BLOCK as u64;
        black_box(tree.update_leaf(leaf, i as u64));
    });

    let mut cache: SetAssocCache<()> = SetAssocCache::new(CacheConfig::new(
        cfg.ctr_cache_bytes,
        cfg.ctr_cache_ways,
        BLOCK,
    ));
    let footprint = 4 * (cfg.ctr_cache_bytes / BLOCK) as u64;
    let cache_addrs = addresses(8192, footprint, 2);
    let cache_probe_ns = ns_per_call(calls, |i| {
        let addr = cache_addrs[i % cache_addrs.len()];
        if cache.lookup(addr).is_none() {
            black_box(cache.insert(addr, ()));
        }
    });

    let mut nvm = NvmDevice::new(cfg.nvm);
    let mut wpq = Wpq::new(WpqConfig::with_capacity(cfg.effective_wpq_entries()));
    let wpq_addrs = addresses(4096, 1 << 20, 3);
    let wpq_insert_ns = ns_per_call(calls, |i| {
        let now = Cycle(i as u64 * 200);
        let addr = wpq_addrs[i % wpq_addrs.len()];
        black_box(wpq.insert(now, addr, None, WriteCategory::Data, &mut nvm));
    });

    let mut device = NvmDevice::new(cfg.nvm);
    let nvm_addrs = addresses(4096, 1 << 20, 4);
    let nvm_time_access_ns = ns_per_call(calls, |i| {
        let now = Cycle(i as u64 * 100);
        black_box(device.time_access(now, nvm_addrs[i % nvm_addrs.len()], i % 2 == 0));
    });

    UnitCosts {
        aes_batch8_ns,
        sip_batch64_ns,
        mac_both_levels_ns,
        merkle_update_leaf_ns,
        cache_probe_ns,
        wpq_insert_ns,
        nvm_time_access_ns,
    }
}
