//! Microbenchmarks of the substrates (ablation-style): AES, SipHash,
//! two-level MACs, split-counter packing, Merkle-tree updates, the
//! set-associative cache, and the PUB block codec.

use thoth_bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use thoth_cache::{CacheConfig, SetAssocCache};
use thoth_core::{PartialUpdate, PubBlockCodec};
use thoth_crypto::counter::CounterGroup;
use thoth_crypto::{Aes128, CtrMode, MacEngine, MacKey, SipHash24};
use thoth_merkle::{BonsaiTree, MerkleConfig};
use thoth_sim_engine::{CoalescedEventQueue, Cycle, HeapEventQueue};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let aes = Aes128::new(b"0123456789abcdef");
    group.bench_function("aes128-encrypt-block", |b| {
        b.iter(|| black_box(aes.encrypt_block(black_box(&[7u8; 16]))));
    });

    // Head-to-head: the T-table path the simulator uses vs the byte-wise
    // textbook rounds kept as the property-test oracle.
    group.bench_function("aes_ttable_vs_bytewise/ttable", |b| {
        b.iter(|| black_box(aes.encrypt_block_ttable(black_box(&[7u8; 16]))));
    });
    group.bench_function("aes_ttable_vs_bytewise/bytewise", |b| {
        b.iter(|| black_box(aes.encrypt_block_bytewise(black_box(&[7u8; 16]))));
    });

    // Dispatched backend (AES-NI where the CPU has it) vs the T-table
    // software path, on the 8-block batch shape the CTR engine issues.
    group.bench_function("aes_hw_vs_ttable/dispatched-batch8", |b| {
        b.iter(|| {
            let mut blocks = [[7u8; 16]; 8];
            aes.encrypt_blocks(black_box(&mut blocks));
            black_box(blocks)
        });
    });
    group.bench_function("aes_hw_vs_ttable/ttable-batch8", |b| {
        b.iter(|| {
            let mut blocks = [[7u8; 16]; 8];
            for blk in &mut blocks {
                *blk = aes.encrypt_block_ttable(black_box(blk));
            }
            black_box(blocks)
        });
    });

    let sip = SipHash24::new(1, 2);
    group.bench_function("siphash24-64B", |b| {
        b.iter(|| black_box(sip.hash(black_box(&[5u8; 64]))));
    });

    // Head-to-head on the merkle/MAC row shape: the dispatched multi-lane
    // batch kernel (AVX2 where the CPU has it) vs the forced-soft
    // scalar-interleaved path, over a 64-row batch of 9-word rows (one
    // dirty-parent set of an arity-8 tree level).
    let rows: Vec<[u64; 9]> = (0..64u64)
        .map(|i| std::array::from_fn(|j| i * 31 + j as u64))
        .collect();
    group.bench_function("siphash_simd_vs_scalar/dispatched-batch64", |b| {
        b.iter(|| black_box(sip.hash_words_batch(black_box(&rows))));
    });
    let sip_soft = SipHash24::new_soft(1, 2);
    group.bench_function("siphash_simd_vs_scalar/soft-batch64", |b| {
        b.iter(|| black_box(sip_soft.hash_words_batch(black_box(&rows))));
    });
    group.bench_function("siphash_simd_vs_scalar/serial-batch64", |b| {
        b.iter(|| {
            let out: Vec<u64> = rows.iter().map(|r| sip.hash_words(black_box(r))).collect();
            black_box(out)
        });
    });

    let ctr = CtrMode::new(b"0123456789abcdef");
    group.bench_function("ctr-encrypt-128B-block", |b| {
        b.iter(|| black_box(ctr.encrypt(0x1000, 3, 4, black_box(&[9u8; 128]))));
    });

    let mac = MacEngine::new(MacKey([3u8; 16]));
    group.bench_function("two-level-mac-128B", |b| {
        b.iter(|| black_box(mac.both_levels(0x1000, 3, 4, black_box(&[9u8; 128]))));
    });

    group.bench_function("counter-group-pack-unpack", |b| {
        let mut g = CounterGroup::new(32);
        g.increment(7);
        b.iter(|| {
            let img = g.to_bytes();
            black_box(CounterGroup::from_bytes(&img, 32))
        });
    });

    group.bench_function("merkle-update-leaf-10-level", |b| {
        let mut t = BonsaiTree::new(MerkleConfig::new(8, 8u64.pow(9)), 42);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 12345) % 8u64.pow(9);
            black_box(t.update_leaf(i, i))
        });
    });

    group.bench_function("cache-lookup-insert", |b| {
        let mut cache: SetAssocCache<u64> =
            SetAssocCache::new(CacheConfig::new(64 << 10, 4, 64));
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37);
            let addr = (i % 100_000) * 64;
            if cache.lookup(addr).is_none() {
                cache.insert(addr, i);
            }
            black_box(cache.len())
        });
    });

    // Bank-completion scoreboard shape: accesses issue in bursts (8 per
    // cycle over 16 lanes) and every completion lands a fixed NVM write
    // latency out, so same-cycle issues collide on their completion
    // cycle; the due-drain runs before every issue, exactly as the bank
    // scoreboard does. The coalesced queue merges each collision burst
    // into one bitmask entry where the heap pushes and pops every event.
    const BANK_LAT: u64 = 2000;
    fn bank_lane(x: &mut u64) -> u32 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        ((*x >> 8) % 16) as u32
    }
    group.bench_function("event_queue_coalesced_vs_heap/coalesced", |b| {
        b.iter(|| {
            let mut q = CoalescedEventQueue::new();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut popped = 0u64;
            for i in 0..4096u64 {
                let now = Cycle(i / 8);
                while let Some((_, mask)) = q.pop_due(now) {
                    popped += u64::from(mask.count_ones());
                }
                q.schedule(Cycle(now.0 + BANK_LAT), bank_lane(&mut x));
            }
            while let Some((_, mask)) = q.pop() {
                popped += u64::from(mask.count_ones());
            }
            black_box(popped)
        });
    });
    group.bench_function("event_queue_coalesced_vs_heap/heap", |b| {
        b.iter(|| {
            let mut q: HeapEventQueue<u32> = HeapEventQueue::new();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut popped = 0u64;
            for i in 0..4096u64 {
                let now = Cycle(i / 8);
                while q.peek_cycle().is_some_and(|c| c <= now) {
                    q.pop();
                    popped += 1;
                }
                q.schedule(Cycle(now.0 + BANK_LAT), bank_lane(&mut x));
            }
            while q.pop().is_some() {
                popped += 1;
            }
            black_box(popped)
        });
    });

    let codec = PubBlockCodec::new(128);
    let updates: Vec<PartialUpdate> = (0..9)
        .map(|i| PartialUpdate {
            block_index: i * 1000,
            minor: (i % 128) as u8,
            mac2: u64::from(i) * 31,
            ctr_status: true,
            mac_status: false,
        })
        .collect();
    group.bench_function("pub-codec-encode-decode-128B", |b| {
        b.iter(|| {
            let img = codec.encode(black_box(&updates));
            black_box(codec.decode(&img))
        });
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
