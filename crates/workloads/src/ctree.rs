//! A persistent crit-bit tree (WHISPER's `ctree` workload).
//!
//! A binary radix tree over 64-bit keys: internal nodes test a single bit
//! and have exactly two children; leaves carry the key and a value
//! pointer. Insertion splices one fresh internal node into the path and
//! rewrites exactly one existing pointer (undo-logged), so each
//! transaction's structural write set is tiny and highly concentrated
//! near the root — the strongest temporal-locality workload of the suite.
//!
//! Pointers use a tag bit (LSB set = leaf) — all allocations are 16-byte
//! aligned so the bit is free.
//!
//! Layouts: internal node (24 B) `bit (u64) | child0 | child1`;
//! leaf (16 B) `key | value ptr`.

use crate::runtime::TxRuntime;
use thoth_sim_engine::DetRng;

const NIL: u64 = 0;
const LEAF_TAG: u64 = 1;

fn is_leaf(ptr: u64) -> bool {
    ptr & LEAF_TAG != 0
}
fn leaf_addr(ptr: u64) -> u64 {
    ptr & !LEAF_TAG
}

/// A persistent crit-bit tree.
#[derive(Debug)]
pub struct CritBitTree {
    /// Tagged root pointer (0 = empty).
    root: u64,
    /// Heap location holding the persistent root pointer.
    root_cell: u64,
    len: usize,
    value_size: usize,
}

impl CritBitTree {
    /// Creates an empty tree inside an open transaction.
    pub fn create(rt: &mut TxRuntime, value_size: usize) -> Self {
        let root_cell = rt.alloc(8);
        rt.write_new_u64(root_cell, NIL);
        CritBitTree {
            root: NIL,
            root_cell,
            len: 0,
            value_size,
        }
    }

    /// Number of keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn new_leaf(&self, rt: &mut TxRuntime, key: u64, fill: u64) -> u64 {
        let blob = rt.write_new_blob(self.value_size, fill);
        let leaf = rt.alloc(16);
        let mut img = [0u8; 16];
        img[..8].copy_from_slice(&key.to_le_bytes());
        img[8..].copy_from_slice(&blob.to_le_bytes());
        rt.write_new(leaf, &img);
        leaf | LEAF_TAG
    }

    /// Walks to the leaf that `key` would reach.
    fn descend(rt: &mut TxRuntime, mut ptr: u64, key: u64) -> u64 {
        while !is_leaf(ptr) {
            let bit = rt.read_u64(ptr);
            let side = (key >> bit) & 1;
            ptr = rt.read_u64(ptr + 8 + side * 8);
        }
        ptr
    }

    /// Inserts or copy-on-write-updates `key`. Must run in a transaction.
    pub fn insert(&mut self, rt: &mut TxRuntime, key: u64, fill: u64) {
        if self.root == NIL {
            let leaf = self.new_leaf(rt, key, fill);
            rt.write_u64(self.root_cell, leaf);
            self.root = leaf;
            self.len += 1;
            return;
        }
        // Find the best-match leaf and the critical bit.
        let best = Self::descend(rt, self.root, key);
        let best_key = rt.read_u64(leaf_addr(best));
        if best_key == key {
            let blob = rt.write_new_blob(self.value_size, fill);
            rt.write_u64(leaf_addr(best) + 8, blob); // CoW pointer swing
            return;
        }
        let crit = 63 - u64::from((best_key ^ key).leading_zeros());
        let new_leaf = self.new_leaf(rt, key, fill);

        // Splice a fresh internal node where the path first decides below
        // the critical bit: walk from the root while nodes test higher bits.
        let mut parent_slot: Option<u64> = None; // heap addr of pointer to rewrite
        let mut ptr = self.root;
        while !is_leaf(ptr) {
            let bit = rt.read_u64(ptr);
            if bit < crit {
                break;
            }
            let side = (key >> bit) & 1;
            parent_slot = Some(ptr + 8 + side * 8);
            ptr = rt.read_u64(ptr + 8 + side * 8);
        }

        let node = rt.alloc(24);
        let side_of_new = (key >> crit) & 1;
        let mut img = [0u8; 24];
        img[..8].copy_from_slice(&crit.to_le_bytes());
        let (c0, c1) = if side_of_new == 0 {
            (new_leaf, ptr)
        } else {
            (ptr, new_leaf)
        };
        img[8..16].copy_from_slice(&c0.to_le_bytes());
        img[16..24].copy_from_slice(&c1.to_le_bytes());
        rt.write_new(node, &img);

        match parent_slot {
            Some(slot) => rt.write_u64(slot, node), // logged single-pointer splice
            None => {
                rt.write_u64(self.root_cell, node);
                self.root = node;
            }
        }
        self.len += 1;
    }

    /// Removes `key`: the leaf's parent internal node is spliced out by
    /// pointing the grandparent slot at the sibling (one logged pointer
    /// store), the exact inverse of insertion. Returns `true` if present.
    /// Must run inside a transaction.
    pub fn delete(&mut self, rt: &mut TxRuntime, key: u64) -> bool {
        if self.root == NIL {
            return false;
        }
        if is_leaf(self.root) {
            if rt.read_u64(leaf_addr(self.root)) != key {
                return false;
            }
            rt.write_u64(self.root_cell, NIL);
            self.root = NIL;
            self.len -= 1;
            return true;
        }
        // Walk remembering the grandparent slot and the parent node.
        let mut gp_slot: Option<u64> = None;
        let mut parent = self.root;
        loop {
            let bit = rt.read_u64(parent);
            let side = (key >> bit) & 1;
            let child = rt.read_u64(parent + 8 + side * 8);
            if is_leaf(child) {
                if rt.read_u64(leaf_addr(child)) != key {
                    return false;
                }
                let sibling = rt.read_u64(parent + 8 + (1 - side) * 8);
                match gp_slot {
                    Some(slot) => rt.write_u64(slot, sibling),
                    None => {
                        rt.write_u64(self.root_cell, sibling);
                        self.root = sibling;
                    }
                }
                self.len -= 1;
                return true;
            }
            gp_slot = Some(parent + 8 + side * 8);
            parent = child;
        }
    }

    /// Looks up `key`, returning its value-blob address.
    pub fn lookup(&self, rt: &mut TxRuntime, key: u64) -> Option<u64> {
        if self.root == NIL {
            return None;
        }
        let leaf = Self::descend(rt, self.root, key);
        let k = rt.read_u64(leaf_addr(leaf));
        (k == key).then(|| rt.read_u64(leaf_addr(leaf) + 8))
    }

    /// All keys, in ascending order (verification helper).
    pub fn keys_in_order(&self, rt: &mut TxRuntime) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        if self.root != NIL {
            self.walk(rt, self.root, &mut out);
        }
        out
    }

    fn walk(&self, rt: &mut TxRuntime, ptr: u64, out: &mut Vec<u64>) {
        if is_leaf(ptr) {
            out.push(rt.read_u64(leaf_addr(ptr)));
            return;
        }
        let c0 = rt.read_u64(ptr + 8);
        let c1 = rt.read_u64(ptr + 16);
        self.walk(rt, c0, out);
        self.walk(rt, c1, out);
    }
}

/// Runs the ctree workload: untraced pre-population of `prepopulate`
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
    let mut tree = CritBitTree::create(rt, tx_size);
    rt.commit();
    for _ in 0..prepopulate {
        rt.begin();
        tree.insert(rt, rng.gen_range(keyspace), 0);
        rt.commit();
    }
    rt.set_tracing(true);
    for n in 0..txs {
        let key = rng.gen_range(keyspace);
        let probe = rng.gen_range(keyspace);
        rt.begin();
        let _ = tree.lookup(rt, probe);
        // Mixed mutation: a delete-flavoured transaction removes the key
        // if present, otherwise falls back to inserting it (so every
        // transaction mutates and the structure size stays balanced).
        let deleting =
            delete_per_mille > 0 && rng.gen_range(1000) < u64::from(delete_per_mille);
        if !(deleting && tree.delete(rt, key)) {
            tree.insert(rt, key, n as u64);
        }
        rt.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (TxRuntime, CritBitTree) {
        let mut rt = TxRuntime::new(0x400_0000);
        rt.begin();
        let tree = CritBitTree::create(&mut rt, 32);
        rt.commit();
        (rt, tree)
    }

    #[test]
    fn insert_and_lookup() {
        let (mut rt, mut t) = fresh();
        rt.begin();
        for k in [0u64, 1, 2, 255, 256, u64::MAX, 0x8000_0000_0000_0000] {
            t.insert(&mut rt, k, k);
        }
        rt.commit();
        for k in [0u64, 1, 2, 255, 256, u64::MAX, 0x8000_0000_0000_0000] {
            assert!(t.lookup(&mut rt, k).is_some(), "key {k:#x}");
        }
        assert!(t.lookup(&mut rt, 3).is_none());
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn keys_ascend_in_order_traversal() {
        let (mut rt, mut t) = fresh();
        let mut rng = DetRng::seed_from(5);
        let mut keys = std::collections::BTreeSet::new();
        rt.begin();
        for _ in 0..300 {
            let k = rng.next_u64();
            keys.insert(k);
            t.insert(&mut rt, k, 0);
        }
        rt.commit();
        assert_eq!(t.keys_in_order(&mut rt), keys.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn update_is_copy_on_write() {
        let (mut rt, mut t) = fresh();
        rt.begin();
        t.insert(&mut rt, 77, 1);
        rt.commit();
        let v1 = t.lookup(&mut rt, 77).unwrap();
        rt.begin();
        t.insert(&mut rt, 77, 2);
        rt.commit();
        let v2 = t.lookup(&mut rt, 77).unwrap();
        assert_ne!(v1, v2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn dense_sequential_keys() {
        let (mut rt, mut t) = fresh();
        rt.begin();
        for k in 0..200u64 {
            t.insert(&mut rt, k, k);
        }
        rt.commit();
        assert_eq!(t.keys_in_order(&mut rt), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn delete_splices_out_and_reinserts() {
        let (mut rt, mut t) = fresh();
        let keys: Vec<u64> = vec![0b0000, 0b0001, 0b0100, 0b1100, 0b1111];
        rt.begin();
        for &k in &keys {
            t.insert(&mut rt, k, k);
        }
        assert!(t.delete(&mut rt, 0b0100));
        assert!(!t.delete(&mut rt, 0b0100));
        assert!(!t.delete(&mut rt, 0b0111), "never inserted");
        rt.commit();
        assert!(t.lookup(&mut rt, 0b0100).is_none());
        assert_eq!(t.len(), 4);
        let mut expect: Vec<u64> = keys.iter().copied().filter(|&k| k != 0b0100).collect();
        expect.sort_unstable();
        assert_eq!(t.keys_in_order(&mut rt), expect);
        rt.begin();
        t.insert(&mut rt, 0b0100, 9);
        rt.commit();
        assert!(t.lookup(&mut rt, 0b0100).is_some());
    }

    #[test]
    fn delete_down_to_empty_and_regrow() {
        let (mut rt, mut t) = fresh();
        rt.begin();
        for k in 0..20u64 {
            t.insert(&mut rt, k, k);
        }
        for k in 0..20u64 {
            assert!(t.delete(&mut rt, k), "key {k}");
        }
        rt.commit();
        assert!(t.is_empty());
        assert!(t.lookup(&mut rt, 3).is_none());
        rt.begin();
        t.insert(&mut rt, 7, 7);
        rt.commit();
        assert_eq!(t.keys_in_order(&mut rt), vec![7]);
    }

    #[test]
    fn splice_rewrites_single_pointer() {
        let (mut rt, mut t) = fresh();
        rt.begin();
        t.insert(&mut rt, 0b0000, 0);
        t.insert(&mut rt, 0b1000, 0);
        rt.commit();
        let before = rt.stats().stores;
        rt.begin();
        t.insert(&mut rt, 0b1100, 0); // splices under the bit-3 node
        rt.commit();
        let stores = rt.stats().stores - before;
        // value blob + leaf + internal node + 1 logged pointer (log+data)
        // + commit record = 6 stores.
        assert_eq!(stores, 6);
    }

    #[test]
    fn run_commits_all() {
        let mut rt = TxRuntime::new(0);
        let mut rng = DetRng::seed_from(2);
        run(&mut rt, &mut rng, 10, 25, 64, 100, 0);
        assert_eq!(rt.stats().txs, 25);
    }
}
