//! Sparse functional backing store.
//!
//! Devices in this crate can model terabytes of capacity; allocating
//! that eagerly would be absurd. [`SparseMemory`] allocates 4 KiB pages
//! on first write and reads zeros from untouched pages (matching how a
//! scrubbed DIMM behaves after IPL).

use std::collections::HashMap;

use contutto_sim::snapshot::{persist_sorted_map, restore_map, Persist, RestoreError, SnapReader};

const PAGE_SIZE: u64 = 4096;

/// A sparse, zero-initialized byte store.
///
/// # Example
///
/// ```
/// use contutto_memdev::SparseMemory;
/// let mut m = SparseMemory::new();
/// m.write(1_000_000, b"hello");
/// let mut buf = [0u8; 5];
/// m.read(1_000_000, &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl SparseMemory {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut offset = 0usize;
        while offset < buf.len() {
            let cur = addr + offset as u64;
            let page_idx = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - offset);
            match self.pages.get(&page_idx) {
                Some(page) => buf[offset..offset + n].copy_from_slice(&page[in_page..in_page + n]),
                None => buf[offset..offset + n].fill(0),
            }
            offset += n;
        }
    }

    /// Writes `data` starting at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut offset = 0usize;
        while offset < data.len() {
            let cur = addr + offset as u64;
            let page_idx = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(data.len() - offset);
            let page = self
                .pages
                .entry(page_idx)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
            page[in_page..in_page + n].copy_from_slice(&data[offset..offset + n]);
            offset += n;
        }
    }

    /// Number of 4 KiB pages materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Base addresses of all materialized pages, ascending. The sort
    /// makes walkers (e.g. the patrol scrubber) deterministic despite
    /// the hash-map backing.
    pub fn resident_page_addrs(&self) -> Vec<u64> {
        let mut addrs: Vec<u64> = self.pages.keys().map(|idx| idx * PAGE_SIZE).collect();
        addrs.sort_unstable();
        addrs
    }

    /// Drops all contents (simulated power loss on volatile media).
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Copies `len` bytes from `src_addr` in `src` into `self` at
    /// `dst_addr` (used by the NVDIMM save/restore engine).
    pub fn copy_from(&mut self, src: &SparseMemory, src_addr: u64, dst_addr: u64, len: u64) {
        let mut buf = vec![0u8; 64 * 1024];
        let mut done = 0u64;
        while done < len {
            let n = (len - done).min(buf.len() as u64) as usize;
            src.read(src_addr + done, &mut buf[..n]);
            self.write(dst_addr + done, &buf[..n]);
            done += n as u64;
        }
    }
}

impl Persist for SparseMemory {
    fn persist(&self, out: &mut Vec<u8>) {
        persist_sorted_map(&self.pages, out);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        r.bound_len(8, "sparse memory page table")?;
        Ok(SparseMemory {
            pages: restore_map(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_reads_zero() {
        let m = SparseMemory::new();
        let mut buf = [0xFFu8; 64];
        m.read(123_456, &mut buf);
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip_within_page() {
        let mut m = SparseMemory::new();
        m.write(100, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn write_read_across_page_boundary() {
        let mut m = SparseMemory::new();
        let data: Vec<u8> = (0..100).collect();
        m.write(PAGE_SIZE - 50, &data);
        let mut buf = vec![0u8; 100];
        m.read(PAGE_SIZE - 50, &mut buf);
        assert_eq!(buf, data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn partial_page_keeps_surroundings_zero() {
        let mut m = SparseMemory::new();
        m.write(10, &[0xAA]);
        let mut buf = [0u8; 3];
        m.read(9, &mut buf);
        assert_eq!(buf, [0, 0xAA, 0]);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut m = SparseMemory::new();
        m.write(0, &[9; 32]);
        m.clear();
        let mut buf = [1u8; 32];
        m.read(0, &mut buf);
        assert_eq!(buf, [0u8; 32]);
    }

    #[test]
    fn resident_page_addrs_are_sorted() {
        let mut m = SparseMemory::new();
        for addr in [9 * PAGE_SIZE, PAGE_SIZE, 5 * PAGE_SIZE] {
            m.write(addr, &[1]);
        }
        assert_eq!(
            m.resident_page_addrs(),
            vec![PAGE_SIZE, 5 * PAGE_SIZE, 9 * PAGE_SIZE]
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_contents() {
        let mut m = SparseMemory::new();
        m.write(100, &[1, 2, 3]);
        m.write(9 * PAGE_SIZE + 7, &[0xEE; 64]);
        let mut img = Vec::new();
        m.persist(&mut img);
        let restored = SparseMemory::restore(&mut SnapReader::new(&img)).unwrap();
        assert_eq!(restored.resident_page_addrs(), m.resident_page_addrs());
        let mut buf = [0u8; 3];
        restored.read(100, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn snapshot_restore_rejects_oversized_page_table() {
        let mut img = Vec::new();
        (u64::MAX).persist(&mut img);
        let err = SparseMemory::restore(&mut SnapReader::new(&img)).unwrap_err();
        assert!(matches!(err, RestoreError::Truncated { .. }), "got {err:?}");
    }

    #[test]
    fn copy_from_transfers_large_region() {
        let mut src = SparseMemory::new();
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        src.write(5_000, &data);
        let mut dst = SparseMemory::new();
        dst.copy_from(&src, 5_000, 77_000, data.len() as u64);
        let mut buf = vec![0u8; data.len()];
        dst.read(77_000, &mut buf);
        assert_eq!(buf, data);
    }
}
