//! A persistent chained hash table (WHISPER's `hashmap` workload).
//!
//! A fixed bucket array of head pointers plus chained entry records.
//! Inserts prepend to the chain (one fresh entry write + one undo-logged
//! bucket-head update); updates are copy-on-write pointer swings. The
//! bucket array gives this workload the most *spatially uniform* store
//! pattern of the suite — bucket-head updates scatter across the array,
//! touching many distinct counter/MAC blocks.
//!
//! Entry layout (24 bytes): `key (u64) | value ptr (u64) | next (u64)`.

use crate::runtime::TxRuntime;
use thoth_sim_engine::DetRng;

const ENTRY_BYTES: u64 = 24;
const NIL: u64 = 0;

/// A persistent chained hash map.
#[derive(Debug)]
pub struct HashMapPm {
    buckets: u64,
    num_buckets: u64,
    len: usize,
    value_size: usize,
}

fn hash(key: u64) -> u64 {
    // Fibonacci hashing: cheap and well distributed for our key streams.
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl HashMapPm {
    /// Creates a table with `num_buckets` buckets inside an open
    /// transaction; values are `value_size`-byte blobs.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is zero.
    pub fn create(rt: &mut TxRuntime, num_buckets: u64, value_size: usize) -> Self {
        assert!(num_buckets > 0, "hash table needs at least one bucket");
        let buckets = rt.alloc(num_buckets * 8);
        // The bucket array starts zeroed (heap semantics); a real system
        // would persist the zeroing, which we charge as one streaming
        // write of the array region.
        rt.write_new(buckets, &vec![0u8; (num_buckets * 8) as usize]);
        HashMapPm {
            buckets,
            num_buckets,
            len: 0,
            value_size,
        }
    }

    /// Number of keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_addr(&self, key: u64) -> u64 {
        self.buckets + (hash(key) % self.num_buckets) * 8
    }

    /// Inserts or copy-on-write-updates `key`. Must run in a transaction.
    pub fn insert(&mut self, rt: &mut TxRuntime, key: u64, fill: u64) {
        let bucket = self.bucket_addr(key);
        // Chain walk (traced reads).
        let mut cur = rt.read_u64(bucket);
        while cur != NIL {
            let k = rt.read_u64(cur);
            if k == key {
                let blob = rt.write_new_blob(self.value_size, fill);
                rt.write_u64(cur + 8, blob); // logged pointer swing
                return;
            }
            cur = rt.read_u64(cur + 16);
        }
        // Prepend a fresh entry.
        let head = rt.read_u64(bucket);
        let entry = rt.alloc(ENTRY_BYTES);
        let blob = rt.write_new_blob(self.value_size, fill);
        let mut img = [0u8; 24];
        img[0..8].copy_from_slice(&key.to_le_bytes());
        img[8..16].copy_from_slice(&blob.to_le_bytes());
        img[16..24].copy_from_slice(&head.to_le_bytes());
        rt.write_new(entry, &img);
        rt.write_u64(bucket, entry); // logged bucket-head update
        self.len += 1;
    }

    /// Unlinks `key` from its chain (one logged pointer store). Returns
    /// `true` if the key was present. Must run inside a transaction.
    pub fn delete(&mut self, rt: &mut TxRuntime, key: u64) -> bool {
        let bucket = self.bucket_addr(key);
        let mut prev_slot = bucket; // heap cell holding the pointer to cur
        let mut cur = rt.read_u64(bucket);
        while cur != NIL {
            if rt.read_u64(cur) == key {
                let next = rt.read_u64(cur + 16);
                rt.write_u64(prev_slot, next);
                self.len -= 1;
                return true;
            }
            prev_slot = cur + 16;
            cur = rt.read_u64(cur + 16);
        }
        false
    }

    /// Looks up `key`, returning its value-blob address.
    pub fn lookup(&self, rt: &mut TxRuntime, key: u64) -> Option<u64> {
        let mut cur = rt.read_u64(self.bucket_addr(key));
        while cur != NIL {
            if rt.read_u64(cur) == key {
                return Some(rt.read_u64(cur + 8));
            }
            cur = rt.read_u64(cur + 16);
        }
        None
    }
}

/// Runs the hashmap workload: untraced pre-population of `prepopulate`
/// keys, then per traced transaction one lookup plus one insert/update of
/// a `tx_size`-byte value.
pub fn run(
    rt: &mut TxRuntime,
    rng: &mut DetRng,
    prepopulate: usize,
    txs: usize,
    tx_size: usize,
    keyspace: u64,
    delete_per_mille: u16,
) {
    rt.set_tracing(false);
    rt.begin();
    let mut map = HashMapPm::create(rt, (keyspace / 2).max(16), tx_size);
    rt.commit();
    for _ in 0..prepopulate {
        rt.begin();
        map.insert(rt, rng.gen_range(keyspace), 0);
        rt.commit();
    }
    rt.set_tracing(true);
    for n in 0..txs {
        let key = rng.gen_range(keyspace);
        let probe = rng.gen_range(keyspace);
        rt.begin();
        let _ = map.lookup(rt, probe);
        // Mixed mutation: a delete-flavoured transaction removes the key
        // if present, otherwise falls back to inserting it (so every
        // transaction mutates and the structure size stays balanced).
        let deleting =
            delete_per_mille > 0 && rng.gen_range(1000) < u64::from(delete_per_mille);
        if !(deleting && map.delete(rt, key)) {
            map.insert(rt, key, n as u64);
        }
        rt.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(buckets: u64) -> (TxRuntime, HashMapPm) {
        let mut rt = TxRuntime::new(0x300_0000);
        rt.begin();
        let map = HashMapPm::create(&mut rt, buckets, 32);
        rt.commit();
        (rt, map)
    }

    #[test]
    fn insert_and_lookup() {
        let (mut rt, mut map) = fresh(64);
        rt.begin();
        for k in 0..100u64 {
            map.insert(&mut rt, k * 3, k);
        }
        rt.commit();
        assert_eq!(map.len(), 100);
        for k in 0..100u64 {
            assert!(map.lookup(&mut rt, k * 3).is_some());
        }
        assert!(map.lookup(&mut rt, 1).is_none());
    }

    #[test]
    fn chains_survive_collisions() {
        // One bucket: everything chains.
        let (mut rt, mut map) = fresh(1);
        rt.begin();
        for k in 0..50u64 {
            map.insert(&mut rt, k, k);
        }
        rt.commit();
        for k in 0..50u64 {
            assert!(map.lookup(&mut rt, k).is_some(), "key {k}");
        }
        assert_eq!(map.len(), 50);
    }

    #[test]
    fn update_is_copy_on_write() {
        let (mut rt, mut map) = fresh(16);
        rt.begin();
        map.insert(&mut rt, 9, 1);
        rt.commit();
        let v1 = map.lookup(&mut rt, 9).unwrap();
        rt.begin();
        map.insert(&mut rt, 9, 2);
        rt.commit();
        let v2 = map.lookup(&mut rt, 9).unwrap();
        assert_ne!(v1, v2);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn delete_unlinks_anywhere_in_chain() {
        // Single bucket so the chain is deep and position-dependent.
        let (mut rt, mut map) = fresh(1);
        rt.begin();
        for k in 0..10u64 {
            map.insert(&mut rt, k, k);
        }
        // Head (last inserted), middle, tail (first inserted), missing.
        for (k, expect) in [(9u64, true), (4, true), (0, true), (99, false)] {
            assert_eq!(map.delete(&mut rt, k), expect, "key {k}");
        }
        rt.commit();
        assert_eq!(map.len(), 7);
        for k in 0..10u64 {
            let gone = [9, 4, 0].contains(&k);
            assert_eq!(map.lookup(&mut rt, k).is_none(), gone, "key {k}");
        }
        // Reinsert a deleted key.
        rt.begin();
        map.insert(&mut rt, 4, 1);
        rt.commit();
        assert!(map.lookup(&mut rt, 4).is_some());
        assert_eq!(map.len(), 8);
    }

    #[test]
    fn value_bytes_match_fill() {
        let (mut rt, mut map) = fresh(16);
        rt.begin();
        map.insert(&mut rt, 1, 0x10);
        rt.commit();
        let blob = map.lookup(&mut rt, 1).unwrap();
        assert_eq!(rt.heap().read(blob, 2), [0x10, 0x11]);
    }

    #[test]
    fn run_commits_all() {
        let mut rt = TxRuntime::new(0);
        let mut rng = DetRng::seed_from(11);
        run(&mut rt, &mut rng, 10, 30, 128, 200, 0);
        assert_eq!(rt.stats().txs, 30);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let mut rt = TxRuntime::new(0);
        rt.begin();
        let _ = HashMapPm::create(&mut rt, 0, 8);
    }
}
