//! A simulated persistent heap: byte-addressable storage plus a bump
//! allocator.
//!
//! Workload data structures store their *real* bytes here (keys, pointers,
//! node contents), so inserts, lookups, rebalances and swaps genuinely
//! execute — the emitted store trace is the true memory behaviour of the
//! structure, not a synthetic approximation.
//!
//! Backing pages live in a dense vector indexed from the page holding the
//! heap base: a bump allocator's footprint is contiguous, so a lookup is a
//! subtraction and an index, with no hashing. Pages materialize on first
//! write; bytes never written read as zero.

/// Page size of the backing store (an implementation detail, not the
/// architectural page size).
const PAGE: usize = 4096;

/// Alignment of every allocation. Using 16 keeps adjacent small nodes in
/// the same cache block, like a real PM allocator's small-object classes.
const ALIGN: u64 = 16;

/// A byte-addressable persistent heap with a bump allocator.
///
/// # Example
///
/// ```
/// use thoth_workloads::PersistentHeap;
///
/// let mut h = PersistentHeap::new(0x1000_0000);
/// let p = h.alloc(64);
/// h.write_u64(p, 0xdead_beef);
/// assert_eq!(h.read_u64(p), 0xdead_beef);
/// ```
#[derive(Debug, Clone)]
pub struct PersistentHeap {
    base: u64,
    brk: u64,
    /// `pages[i]` backs page `base / PAGE + i`; `None` until first written.
    pages: Vec<Option<Box<[u8; PAGE]>>>,
}

impl PersistentHeap {
    /// Creates an empty heap whose allocations start at `base`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        PersistentHeap {
            base,
            brk: base,
            pages: Vec::new(),
        }
    }

    /// First address of the heap.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the highest allocated address.
    #[must_use]
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Total bytes allocated so far.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.brk - self.base
    }

    /// Allocates `size` bytes (16-byte aligned), returning the address.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn alloc(&mut self, size: u64) -> u64 {
        assert!(size > 0, "zero-sized allocation");
        let addr = self.brk;
        let size = size.div_ceil(ALIGN) * ALIGN;
        self.brk += size;
        addr
    }

    /// Index into `pages` of the page holding `addr`, if at or above the
    /// base page.
    fn page_index(&self, addr: u64) -> Option<usize> {
        let idx = (addr / PAGE as u64).checked_sub(self.base / PAGE as u64)?;
        usize::try_from(idx).ok()
    }

    /// Fills `out` with the bytes at `addr` (untouched bytes, including
    /// any below the heap base, read as zero).
    pub fn read_into(&self, addr: u64, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let a = addr + done as u64;
            let off = (a % PAGE as u64) as usize;
            let take = (out.len() - done).min(PAGE - off);
            let dst = &mut out[done..done + take];
            let page = self
                .page_index(a)
                .and_then(|i| self.pages.get(i))
                .and_then(Option::as_deref);
            match page {
                Some(p) => dst.copy_from_slice(&p[off..off + take]),
                None => dst.fill(0),
            }
            done += take;
        }
    }

    /// Reads `len` bytes at `addr` into a new vector (see
    /// [`Self::read_into`] for the allocation-free form).
    #[must_use]
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Writes `bytes` at `addr`, materializing zeroed pages as needed.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies below the heap base.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        assert!(
            addr >= self.base,
            "write at {addr:#x} below the heap base {:#x}",
            self.base
        );
        let mut done = 0;
        while done < bytes.len() {
            let a = addr + done as u64;
            let off = (a % PAGE as u64) as usize;
            let take = (bytes.len() - done).min(PAGE - off);
            let idx = self.page_index(a).expect("address at or above the base");
            if idx >= self.pages.len() {
                self.pages.resize_with(idx + 1, || None);
            }
            let p = self.pages[idx].get_or_insert_with(|| {
                vec![0u8; PAGE]
                    .into_boxed_slice()
                    .try_into()
                    .expect("PAGE bytes")
            });
            p[off..off + take].copy_from_slice(&bytes[done..done + take]);
            done += take;
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut word = [0u8; 8];
        self.read_into(addr, &mut word);
        u64::from_le_bytes(word)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Number of materialized backing pages (memory footprint check).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_monotonic_and_aligned() {
        let mut h = PersistentHeap::new(0x1000);
        let a = h.alloc(10);
        let b = h.alloc(1);
        let c = h.alloc(100);
        assert_eq!(a, 0x1000);
        assert_eq!(b, 0x1010, "10 rounds to 16");
        assert_eq!(c, 0x1020);
        assert!(a.is_multiple_of(16) && b.is_multiple_of(16) && c.is_multiple_of(16));
        assert_eq!(h.allocated(), 0x20 + 112);
    }

    #[test]
    fn read_write_roundtrip_within_page() {
        let mut h = PersistentHeap::new(0);
        h.write(100, b"hello");
        assert_eq!(h.read(100, 5), b"hello");
        assert_eq!(h.read(99, 1), [0], "neighbours untouched");
    }

    #[test]
    fn read_write_across_page_boundary() {
        let mut h = PersistentHeap::new(0);
        let addr = PAGE as u64 - 3;
        h.write(addr, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(h.read(addr, 6), [1, 2, 3, 4, 5, 6]);
        assert_eq!(h.resident_pages(), 2);
    }

    #[test]
    fn untouched_reads_zero() {
        let h = PersistentHeap::new(0);
        assert_eq!(h.read(12345, 16), vec![0; 16]);
        assert_eq!(h.read_u64(999), 0);
    }

    #[test]
    fn u64_helpers() {
        let mut h = PersistentHeap::new(0);
        h.write_u64(8, u64::MAX);
        h.write_u64(16, 0x0102_0304_0506_0708);
        assert_eq!(h.read_u64(8), u64::MAX);
        assert_eq!(h.read_u64(16), 0x0102_0304_0506_0708);
    }

    #[test]
    fn read_into_spans_a_page_boundary() {
        let mut h = PersistentHeap::new(0x1000);
        let addr = 0x1000 + PAGE as u64 - 5;
        let bytes: Vec<u8> = (1..=12).collect();
        h.write(addr, &bytes);
        let mut out = [0xffu8; 12];
        h.read_into(addr, &mut out);
        assert_eq!(out.as_slice(), bytes.as_slice());
        assert_eq!(
            h.read_u64(addr + 1),
            u64::from_le_bytes([2, 3, 4, 5, 6, 7, 8, 9])
        );
    }

    #[test]
    fn read_into_zeroes_never_written_pages() {
        let mut h = PersistentHeap::new(0x1000);
        h.write_u64(0x1000, 7);
        // A page past the materialized ones and a hole between two
        // materialized pages both read as zero, overwriting `out`.
        h.write_u64(0x1000 + 3 * PAGE as u64, 9);
        for addr in [0x1000 + PAGE as u64, 0x1000 + 5 * PAGE as u64] {
            let mut out = [0xffu8; 32];
            h.read_into(addr, &mut out);
            assert_eq!(out, [0; 32], "{addr:#x}");
        }
        assert_eq!(h.resident_pages(), 2);
    }

    #[test]
    fn read_into_far_address_reads_zero_without_materializing() {
        let mut h = PersistentHeap::new(0x1000_0000);
        h.write_u64(0x1000_0000, 1);
        let mut out = [0xffu8; 16];
        h.read_into(u64::MAX - 16, &mut out);
        assert_eq!(out, [0; 16]);
        h.read_into(0x1000_0000 + (1 << 40), &mut out);
        assert_eq!(out, [0; 16]);
        assert_eq!(h.resident_pages(), 1);
    }

    #[test]
    fn far_write_materializes_only_its_page() {
        let mut h = PersistentHeap::new(0x1000_0000);
        let far = 0x1000_0000 + (1 << 30) + 3;
        h.write_u64(far, 0xfeed);
        assert_eq!(h.read_u64(far), 0xfeed);
        assert_eq!(h.resident_pages(), 1);
    }

    #[test]
    fn reads_below_base_are_zero() {
        let mut h = PersistentHeap::new(0x2000 + 8);
        h.write_u64(0x2008, u64::MAX);
        let mut out = [0xffu8; 16];
        // Straddles the base: the 8 bytes below it read as zero.
        h.read_into(0x2000, &mut out);
        assert_eq!(out[..8], [0; 8]);
        assert_eq!(out[8..], [0xff; 8]);
        assert_eq!(h.read_u64(0x10), 0, "a page below the base page");
    }

    #[test]
    #[should_panic(expected = "below the heap base")]
    fn write_below_base_panics() {
        PersistentHeap::new(0x2000).write_u64(0x1ff8, 1);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_alloc_panics() {
        PersistentHeap::new(0).alloc(0);
    }
}
