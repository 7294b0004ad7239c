//! A persistent B-tree (WHISPER's `btree` workload).
//!
//! Order-8 B-tree keyed by `u64`, values stored as out-of-line blobs of
//! the configured transaction size. Updates to existing keys use the
//! copy-on-write idiom common in persistent-memory code: the new blob is
//! written to fresh memory and the 8-byte value pointer is swung
//! atomically (undo-logged), so a crash never exposes a torn value.
//!
//! Node layout (152 bytes, allocated as 160):
//!
//! ```text
//! 0   is_leaf  (u64)
//! 8   nkeys    (u64)
//! 16  keys[8]  (u64 each)
//! 80  ptrs[9]  (child pointers, or value pointers in leaves)
//! ```

use crate::runtime::TxRuntime;
use thoth_sim_engine::DetRng;

/// Maximum keys per node.
const ORDER: usize = 8;
/// Node size on the heap.
const NODE_BYTES: u64 = 160;
/// Bytes of the node image (the layout above).
const IMAGE_BYTES: usize = 152;

#[derive(Debug, Clone)]
struct Node {
    addr: u64,
    is_leaf: bool,
    keys: Vec<u64>,
    ptrs: Vec<u64>,
}

impl Node {
    /// An empty node whose key/pointer vectors are sized so that one
    /// `insert` into a full node never reallocates.
    fn empty(addr: u64, is_leaf: bool) -> Node {
        Node {
            addr,
            is_leaf,
            keys: Vec::with_capacity(ORDER + 1),
            ptrs: Vec::with_capacity(ORDER + 2),
        }
    }

    fn load(rt: &mut TxRuntime, addr: u64) -> Node {
        let mut raw = [0u8; IMAGE_BYTES];
        rt.read_into(addr, &mut raw);
        let word = |i: usize| {
            u64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
        };
        let mut node = Node::empty(addr, word(0) != 0);
        let nkeys = word(1) as usize;
        node.keys.extend((0..nkeys).map(|i| word(2 + i)));
        let nptrs = if node.is_leaf { nkeys } else { nkeys + 1 };
        node.ptrs.extend((0..nptrs).map(|i| word(10 + i)));
        node
    }

    fn image(&self) -> [u8; IMAGE_BYTES] {
        let mut out = [0u8; IMAGE_BYTES];
        let mut put = |i: usize, v: u64| out[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        put(0, u64::from(self.is_leaf));
        put(1, self.keys.len() as u64);
        for (i, &k) in self.keys.iter().enumerate() {
            put(2 + i, k);
        }
        for (i, &p) in self.ptrs.iter().enumerate() {
            put(10 + i, p);
        }
        out
    }

    /// Persists an in-place modification (undo-logged).
    fn store(&self, rt: &mut TxRuntime) {
        rt.write(self.addr, &self.image());
    }

    /// Persists a freshly allocated node (no undo entry).
    fn store_new(&self, rt: &mut TxRuntime) {
        rt.write_new(self.addr, &self.image());
    }
}

/// A persistent B-tree rooted in the runtime's heap.
#[derive(Debug)]
pub struct BTree {
    root: u64,
    len: usize,
    value_size: usize,
}

impl BTree {
    /// Creates an empty tree inside an open transaction; values are blobs
    /// of `value_size` bytes.
    pub fn create(rt: &mut TxRuntime, value_size: usize) -> Self {
        let root = rt.alloc(NODE_BYTES);
        Node::empty(root, true).store_new(rt);
        BTree {
            root,
            len: 0,
            value_size,
        }
    }

    /// Number of keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key` (or updates it copy-on-write if present) with a fresh
    /// value blob filled from `fill`. Must run inside a transaction.
    pub fn insert(&mut self, rt: &mut TxRuntime, key: u64, fill: u64) {
        // Preemptive split of a full root.
        let root = Node::load(rt, self.root);
        if root.keys.len() == ORDER {
            let new_root_addr = rt.alloc(NODE_BYTES);
            let mut new_root = Node::empty(new_root_addr, false);
            new_root.ptrs.push(self.root);
            self.split_child(rt, &mut new_root, 0);
            new_root.store_new(rt);
            self.root = new_root_addr;
        }
        self.insert_nonfull(rt, self.root, key, fill);
    }

    /// Splits full child `idx` of `parent` (parent must have room).
    /// The parent is updated in memory only; callers persist it.
    fn split_child(&mut self, rt: &mut TxRuntime, parent: &mut Node, idx: usize) {
        let child = Node::load(rt, parent.ptrs[idx]);
        debug_assert_eq!(child.keys.len(), ORDER);
        let mid = ORDER / 2;
        let up_key = child.keys[mid];

        let right_addr = rt.alloc(NODE_BYTES);
        let (right_keys, left_keys, right_ptrs, left_ptrs);
        if child.is_leaf {
            // Leaves keep the separator key in the right sibling.
            right_keys = child.keys[mid..].to_vec();
            left_keys = child.keys[..mid].to_vec();
            right_ptrs = child.ptrs[mid..].to_vec();
            left_ptrs = child.ptrs[..mid].to_vec();
        } else {
            right_keys = child.keys[mid + 1..].to_vec();
            left_keys = child.keys[..mid].to_vec();
            right_ptrs = child.ptrs[mid + 1..].to_vec();
            left_ptrs = child.ptrs[..=mid].to_vec();
        }
        let right = Node {
            addr: right_addr,
            is_leaf: child.is_leaf,
            keys: right_keys,
            ptrs: right_ptrs,
        };
        right.store_new(rt);
        let left = Node {
            addr: child.addr,
            is_leaf: child.is_leaf,
            keys: left_keys,
            ptrs: left_ptrs,
        };
        left.store(rt);

        parent.keys.insert(idx, up_key);
        parent.ptrs.insert(idx + 1, right_addr);
    }

    fn insert_nonfull(&mut self, rt: &mut TxRuntime, addr: u64, key: u64, fill: u64) {
        let mut node = Node::load(rt, addr);
        if node.is_leaf {
            match node.keys.binary_search(&key) {
                Ok(pos) => {
                    // Copy-on-write update: new blob, swing the pointer.
                    let blob = rt.write_new_blob(self.value_size, fill);
                    node.ptrs[pos] = blob;
                    node.store(rt);
                }
                Err(pos) => {
                    let blob = rt.write_new_blob(self.value_size, fill);
                    node.keys.insert(pos, key);
                    node.ptrs.insert(pos, blob);
                    node.store(rt);
                    self.len += 1;
                }
            }
            return;
        }
        let mut idx = node.keys.partition_point(|&k| k <= key);
        let child = Node::load(rt, node.ptrs[idx]);
        if child.keys.len() == ORDER {
            self.split_child(rt, &mut node, idx);
            node.store(rt);
            if key >= node.keys[idx] {
                idx += 1;
            }
        }
        self.insert_nonfull(rt, node.ptrs[idx], key, fill);
    }

    /// Removes `key` from its leaf (lazy deletion: no rebalancing —
    /// underfull leaves are tolerated and refilled by later inserts,
    /// a common persistent-B-tree simplification that keeps the delete
    /// write set to one node). Returns `true` if the key was present.
    /// Must run inside a transaction.
    pub fn delete(&mut self, rt: &mut TxRuntime, key: u64) -> bool {
        let mut addr = self.root;
        loop {
            let mut node = Node::load(rt, addr);
            if node.is_leaf {
                match node.keys.binary_search(&key) {
                    Ok(pos) => {
                        node.keys.remove(pos);
                        node.ptrs.remove(pos);
                        node.store(rt);
                        self.len -= 1;
                        return true;
                    }
                    Err(_) => return false,
                }
            }
            let idx = node.keys.partition_point(|&k| k <= key);
            addr = node.ptrs[idx];
        }
    }

    /// Looks up `key`, returning its value-blob address.
    pub fn lookup(&self, rt: &mut TxRuntime, key: u64) -> Option<u64> {
        let mut addr = self.root;
        loop {
            let node = Node::load(rt, addr);
            if node.is_leaf {
                return node
                    .keys
                    .binary_search(&key)
                    .ok()
                    .map(|pos| node.ptrs[pos]);
            }
            let idx = node.keys.partition_point(|&k| k <= key);
            addr = node.ptrs[idx];
        }
    }

    /// In-order key traversal (test/verification helper).
    pub fn keys_in_order(&self, rt: &mut TxRuntime) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.walk(rt, self.root, &mut out);
        out
    }

    fn walk(&self, rt: &mut TxRuntime, addr: u64, out: &mut Vec<u64>) {
        let node = Node::load(rt, addr);
        if node.is_leaf {
            out.extend_from_slice(&node.keys);
            return;
        }
        for i in 0..node.ptrs.len() {
            self.walk(rt, node.ptrs[i], out);
            if i < node.keys.len() {
                // Keys in internal nodes are separators only; leaf copies
                // carry the actual entries.
            }
        }
    }
}

/// Runs the btree workload: an untraced pre-population phase loads
/// `prepopulate` random keys (WHISPER's database-loading step), then each
/// traced transaction is one lookup (pointer-chase reads) plus one
/// insert/update of a `tx_size`-byte value.
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
    let mut tree = BTree::create(rt, tx_size);
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

    fn fresh() -> (TxRuntime, BTree) {
        let mut rt = TxRuntime::new(0x100_0000);
        rt.begin();
        let tree = BTree::create(&mut rt, 32);
        rt.commit();
        (rt, tree)
    }

    #[test]
    fn insert_and_lookup_small() {
        let (mut rt, mut tree) = fresh();
        rt.begin();
        for k in [5u64, 1, 9, 3] {
            tree.insert(&mut rt, k, k);
        }
        rt.commit();
        assert_eq!(tree.len(), 4);
        for k in [5u64, 1, 9, 3] {
            assert!(tree.lookup(&mut rt, k).is_some(), "key {k}");
        }
        assert!(tree.lookup(&mut rt, 2).is_none());
    }

    #[test]
    fn grows_through_many_splits_keeping_order() {
        let (mut rt, mut tree) = fresh();
        let keys: Vec<u64> = (0..500).map(|i| (i * 7919) % 10_000).collect();
        rt.begin();
        for &k in &keys {
            tree.insert(&mut rt, k, k);
        }
        rt.commit();
        let mut expect: Vec<u64> = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(tree.keys_in_order(&mut rt), expect);
        assert_eq!(tree.len(), expect.len());
        for &k in &keys {
            assert!(tree.lookup(&mut rt, k).is_some());
        }
    }

    #[test]
    fn update_swings_value_pointer() {
        let (mut rt, mut tree) = fresh();
        rt.begin();
        tree.insert(&mut rt, 42, 1);
        rt.commit();
        let v1 = tree.lookup(&mut rt, 42).unwrap();
        rt.begin();
        tree.insert(&mut rt, 42, 2);
        rt.commit();
        let v2 = tree.lookup(&mut rt, 42).unwrap();
        assert_ne!(v1, v2, "copy-on-write: new blob");
        assert_eq!(tree.len(), 1, "update, not insert");
    }

    #[test]
    fn descending_and_ascending_inserts() {
        let (mut rt, mut tree) = fresh();
        rt.begin();
        for k in (0..100).rev() {
            tree.insert(&mut rt, k, k);
        }
        for k in 100..200 {
            tree.insert(&mut rt, k, k);
        }
        rt.commit();
        assert_eq!(tree.keys_in_order(&mut rt), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn delete_removes_and_tolerates_missing() {
        let (mut rt, mut tree) = fresh();
        rt.begin();
        for k in 0..100u64 {
            tree.insert(&mut rt, k, k);
        }
        rt.commit();
        rt.begin();
        assert!(tree.delete(&mut rt, 40));
        assert!(!tree.delete(&mut rt, 40), "already gone");
        assert!(!tree.delete(&mut rt, 1000), "never existed");
        rt.commit();
        assert!(tree.lookup(&mut rt, 40).is_none());
        assert_eq!(tree.len(), 99);
        // Reinsert works after lazy deletion.
        rt.begin();
        tree.insert(&mut rt, 40, 7);
        rt.commit();
        assert!(tree.lookup(&mut rt, 40).is_some());
        assert_eq!(tree.len(), 100);
    }

    #[test]
    fn heavy_delete_then_traversal_stays_sorted() {
        let (mut rt, mut tree) = fresh();
        rt.begin();
        for k in 0..300u64 {
            tree.insert(&mut rt, k, k);
        }
        for k in (0..300u64).step_by(2) {
            assert!(tree.delete(&mut rt, k));
        }
        rt.commit();
        let keys = tree.keys_in_order(&mut rt);
        assert_eq!(keys, (1..300).step_by(2).collect::<Vec<u64>>());
    }

    #[test]
    fn values_are_written_with_tx_size() {
        let mut rt = TxRuntime::new(0);
        rt.begin();
        let mut tree = BTree::create(&mut rt, 128);
        tree.insert(&mut rt, 1, 0xAB);
        rt.commit();
        let blob = tree.lookup(&mut rt, 1).unwrap();
        let bytes = rt.heap().read(blob, 128);
        assert_eq!(bytes[0], 0xAB);
        assert_eq!(bytes[1], 0xAC);
    }

    #[test]
    fn run_emits_transactions() {
        let mut rt = TxRuntime::new(0);
        let mut rng = DetRng::seed_from(1);
        run(&mut rt, &mut rng, 20, 50, 128, 1000, 0);
        assert_eq!(rt.stats().txs, 50, "only traced txs count");
        assert!(rt.stats().stores > 100);
    }
}
