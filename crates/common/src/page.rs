//! The slotted page format shared by every component that materializes pages.
//!
//! The paper's model is "the log is the database": the master's buffer pool,
//! read replicas, and Page Store consolidation all produce page versions by
//! replaying the same physiological log records. To guarantee they produce
//! *identical bytes*, they share this one page implementation and the
//! [`crate::apply::apply_record`] function.
//!
//! Layout (little-endian):
//!
//! ```text
//! 0      8      9      10      12         14     22     30  32
//! | lsn  | type | level | nslots | heap_off | next | prev |pad| slots... -> ... <- cells |
//! ```
//!
//! The slot directory grows upward from the header; cells (key/value payloads)
//! grow downward from the end of the page. Each slot is `(offset: u16,
//! len: u16)`; each cell is `[klen: u16][key][value]`.

use crate::error::{Result, TaurusError};
use crate::lsn::Lsn;

/// Size of every database page in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Fixed page header size in bytes.
pub const HEADER_SIZE: usize = 32;
/// Bytes of slot-directory overhead per record.
pub const SLOT_SIZE: usize = 4;
/// Largest key+value payload a single page record may carry. Chosen so that
/// at least four records always fit on a page, which keeps B+tree splits
/// productive.
pub const MAX_CELL_PAYLOAD: usize = (PAGE_SIZE - HEADER_SIZE) / 4 - SLOT_SIZE - 2;

const OFF_LSN: usize = 0;
const OFF_TYPE: usize = 8;
const OFF_LEVEL: usize = 9;
const OFF_NSLOTS: usize = 10;
const OFF_HEAP: usize = 12;
const OFF_NEXT: usize = 14;
const OFF_PREV: usize = 22;

/// What a page is used for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PageType {
    /// Unallocated / zeroed page.
    Free = 0,
    /// B+tree leaf: cells are (key, value) user records.
    Leaf = 1,
    /// B+tree internal node: cells are (separator key, child page id).
    Internal = 2,
    /// Database control page (page 0): engine metadata such as the B+tree
    /// root pointer and the page allocation high-water mark.
    Control = 3,
}

impl PageType {
    pub fn from_u8(v: u8) -> Result<PageType> {
        match v {
            0 => Ok(PageType::Free),
            1 => Ok(PageType::Leaf),
            2 => Ok(PageType::Internal),
            3 => Ok(PageType::Control),
            _ => Err(TaurusError::PageCorrupt("unknown page type")),
        }
    }
}

/// An owned, heap-allocated page image.
#[derive(Clone)]
pub struct PageBuf {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for PageBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageBuf")
            .field("lsn", &self.lsn())
            .field("type", &self.page_type())
            .field("nslots", &self.nslots())
            .field("free", &self.free_space())
            .finish()
    }
}

impl PartialEq for PageBuf {
    fn eq(&self, other: &Self) -> bool {
        self.data[..] == other.data[..]
    }
}
impl Eq for PageBuf {}

impl PageBuf {
    /// A zeroed (Free) page at LSN 0.
    pub fn new() -> Self {
        PageBuf {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Reconstructs a page from raw bytes (e.g. read from a storage device).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(TaurusError::PageCorrupt("wrong page image size"));
        }
        let mut p = PageBuf::new();
        p.data.copy_from_slice(bytes);
        Ok(p)
    }

    /// Raw page image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    fn u16_at(&self, off: usize) -> u16 {
        let mut w = [0u8; 2];
        w.copy_from_slice(&self.data[off..off + 2]);
        u16::from_le_bytes(w)
    }
    fn put_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }
    fn u64_at(&self, off: usize) -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&self.data[off..off + 8]);
        u64::from_le_bytes(w)
    }
    fn put_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Version of the page: LSN of the last record applied to it.
    pub fn lsn(&self) -> Lsn {
        Lsn(self.u64_at(OFF_LSN))
    }
    /// Sets the page version. Called only by [`crate::apply::apply_record`].
    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.put_u64(OFF_LSN, lsn.0);
    }

    pub fn page_type(&self) -> PageType {
        PageType::from_u8(self.data[OFF_TYPE]).unwrap_or(PageType::Free)
    }

    /// B+tree level (0 = leaf). Only meaningful for Internal pages.
    pub fn level(&self) -> u8 {
        self.data[OFF_LEVEL]
    }

    /// Sibling link (leaf chain / overflow), 0 = none.
    pub fn next(&self) -> u64 {
        self.u64_at(OFF_NEXT)
    }
    pub fn prev(&self) -> u64 {
        self.u64_at(OFF_PREV)
    }
    pub fn set_links(&mut self, next: u64, prev: u64) {
        self.put_u64(OFF_NEXT, next);
        self.put_u64(OFF_PREV, prev);
    }

    /// Number of records on the page.
    pub fn nslots(&self) -> usize {
        self.u16_at(OFF_NSLOTS) as usize
    }
    fn set_nslots(&mut self, n: usize) {
        self.put_u16(OFF_NSLOTS, n as u16);
    }

    /// Offset of the lowest cell byte (data region is `heap_off..PAGE_SIZE`).
    fn heap_off(&self) -> usize {
        let v = self.u16_at(OFF_HEAP) as usize;
        if v == 0 {
            PAGE_SIZE
        } else {
            v
        }
    }
    fn set_heap_off(&mut self, off: usize) {
        debug_assert!(off <= PAGE_SIZE);
        self.put_u16(OFF_HEAP, if off == PAGE_SIZE { 0 } else { off as u16 });
    }

    /// (Re)formats the page as an empty page of the given type, clearing all
    /// records. Preserves nothing but the supplied metadata; the LSN is reset
    /// to ZERO (the applying record will set it).
    pub fn format(&mut self, ty: PageType, level: u8) {
        self.data.fill(0);
        self.data[OFF_TYPE] = ty as u8;
        self.data[OFF_LEVEL] = level;
        self.set_heap_off(PAGE_SIZE);
    }

    fn slot(&self, idx: usize) -> (usize, usize) {
        let base = HEADER_SIZE + idx * SLOT_SIZE;
        (self.u16_at(base) as usize, self.u16_at(base + 2) as usize)
    }
    fn set_slot(&mut self, idx: usize, off: usize, len: usize) {
        let base = HEADER_SIZE + idx * SLOT_SIZE;
        self.put_u16(base, off as u16);
        self.put_u16(base + 2, len as u16);
    }

    /// Contiguous free bytes between the slot directory and the cell heap.
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_SIZE + self.nslots() * SLOT_SIZE;
        self.heap_off().saturating_sub(dir_end)
    }

    /// Total free bytes that a compaction could reclaim (contiguous +
    /// fragmented holes left by removals/updates).
    pub fn usable_space(&self) -> usize {
        let live: usize = (0..self.nslots()).map(|i| self.slot(i).1).sum();
        PAGE_SIZE - HEADER_SIZE - self.nslots() * SLOT_SIZE - live
    }

    /// The key of record `idx`.
    pub fn key(&self, idx: usize) -> Result<&[u8]> {
        let (off, len) = self.checked_slot(idx)?;
        let klen = self.u16_at(off) as usize;
        if 2 + klen > len {
            return Err(TaurusError::PageCorrupt("cell key overruns cell"));
        }
        Ok(&self.data[off + 2..off + 2 + klen])
    }

    /// The value of record `idx`.
    pub fn value(&self, idx: usize) -> Result<&[u8]> {
        let (off, len) = self.checked_slot(idx)?;
        let klen = self.u16_at(off) as usize;
        if 2 + klen > len {
            return Err(TaurusError::PageCorrupt("cell key overruns cell"));
        }
        Ok(&self.data[off + 2 + klen..off + len])
    }

    fn checked_slot(&self, idx: usize) -> Result<(usize, usize)> {
        if idx >= self.nslots() {
            return Err(TaurusError::PageCorrupt("slot index out of range"));
        }
        let (off, len) = self.slot(idx);
        if off < HEADER_SIZE || off + len > PAGE_SIZE || len < 2 {
            return Err(TaurusError::PageCorrupt("slot points outside page"));
        }
        Ok((off, len))
    }

    /// Binary-searches for `key`. `Ok(idx)` if present; `Err(idx)` gives the
    /// insertion point that keeps the page sorted.
    pub fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let mut lo = 0usize;
        let mut hi = self.nslots();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.key(mid).map(|k| k.cmp(key)) {
                Ok(std::cmp::Ordering::Less) => lo = mid + 1,
                Ok(std::cmp::Ordering::Greater) => hi = mid,
                Ok(std::cmp::Ordering::Equal) => return Ok(mid),
                Err(_) => return Err(lo), // corrupt page: treated as absent
            }
        }
        Err(lo)
    }

    /// Inserts a record at slot `idx`, shifting later slots right. Fails with
    /// `PageCorrupt` if the payload cannot fit even after compaction (callers
    /// split first).
    pub fn insert(&mut self, idx: usize, key: &[u8], val: &[u8]) -> Result<()> {
        let n = self.nslots();
        if idx > n {
            return Err(TaurusError::PageCorrupt("insert index out of range"));
        }
        let cell_len = 2 + key.len() + val.len();
        if key.len() + val.len() > MAX_CELL_PAYLOAD {
            return Err(TaurusError::PageCorrupt("cell exceeds MAX_CELL_PAYLOAD"));
        }
        let need = cell_len + SLOT_SIZE;
        if self.free_space() < need {
            if self.usable_space() < need {
                return Err(TaurusError::PageCorrupt("page full"));
            }
            self.compact();
        }
        // Write the cell at the new heap frontier.
        let off = self.heap_off() - cell_len;
        self.put_u16(off, key.len() as u16);
        self.data[off + 2..off + 2 + key.len()].copy_from_slice(key);
        self.data[off + 2 + key.len()..off + cell_len].copy_from_slice(val);
        self.set_heap_off(off);
        // Shift the slot directory.
        let dir_start = HEADER_SIZE + idx * SLOT_SIZE;
        let dir_end = HEADER_SIZE + n * SLOT_SIZE;
        self.data
            .copy_within(dir_start..dir_end, dir_start + SLOT_SIZE);
        self.set_slot(idx, off, cell_len);
        self.set_nslots(n + 1);
        Ok(())
    }

    /// Removes the record at slot `idx`, shifting later slots left. The cell
    /// bytes become a reclaimable hole.
    pub fn remove(&mut self, idx: usize) -> Result<()> {
        let n = self.nslots();
        if idx >= n {
            return Err(TaurusError::PageCorrupt("remove index out of range"));
        }
        let dir_start = HEADER_SIZE + (idx + 1) * SLOT_SIZE;
        let dir_end = HEADER_SIZE + n * SLOT_SIZE;
        self.data
            .copy_within(dir_start..dir_end, dir_start - SLOT_SIZE);
        self.set_nslots(n - 1);
        Ok(())
    }

    /// Replaces the value of the record at `idx`, keeping its key. A value
    /// of the old length is overwritten in place, so a same-size update
    /// leaves no hole (and a full page never compacts for one); any other
    /// length re-inserts the cell at the heap frontier.
    pub fn update_value(&mut self, idx: usize, val: &[u8]) -> Result<()> {
        let (off, len) = self.checked_slot(idx)?;
        let klen = self.key(idx)?.len();
        if len - 2 - klen == val.len() {
            self.data[off + 2 + klen..off + len].copy_from_slice(val);
            return Ok(());
        }
        let key = self.key(idx)?.to_vec();
        self.remove(idx)?;
        self.insert(idx, &key, val)
    }

    /// Drops all records from slot `idx` onward (used when replaying the
    /// left half of a page split).
    pub fn truncate_from(&mut self, idx: usize) -> Result<()> {
        if idx > self.nslots() {
            return Err(TaurusError::PageCorrupt("truncate index out of range"));
        }
        self.set_nslots(idx);
        Ok(())
    }

    /// Rewrites the cell heap to squeeze out holes. Slot order and contents
    /// are unchanged.
    pub fn compact(&mut self) {
        // Cells are copied out of a snapshot of the page: one cell's new
        // home may overlap another's old one.
        let old = self.data.clone();
        let mut frontier = PAGE_SIZE;
        for i in 0..self.nslots() {
            let (off, len) = self.slot(i);
            frontier -= len;
            self.data[frontier..frontier + len].copy_from_slice(&old[off..off + len]);
            self.set_slot(i, frontier, len);
        }
        self.set_heap_off(frontier);
    }

    /// All records on the page as owned (key, value) pairs, in slot order.
    pub fn records(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..self.nslots())
            .map(|i| {
                (
                    self.key(i).unwrap_or(&[]).to_vec(),
                    self.value(i).unwrap_or(&[]).to_vec(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> PageBuf {
        let mut p = PageBuf::new();
        p.format(PageType::Leaf, 0);
        p
    }

    #[test]
    fn fresh_page_is_empty() {
        let p = leaf();
        assert_eq!(p.nslots(), 0);
        assert_eq!(p.page_type(), PageType::Leaf);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_SIZE);
        assert_eq!(p.lsn(), Lsn::ZERO);
    }

    #[test]
    fn insert_and_read_back_in_order() {
        let mut p = leaf();
        p.insert(0, b"b", b"2").unwrap();
        p.insert(0, b"a", b"1").unwrap();
        p.insert(2, b"c", b"3").unwrap();
        assert_eq!(p.nslots(), 3);
        assert_eq!(p.key(0).unwrap(), b"a");
        assert_eq!(p.value(0).unwrap(), b"1");
        assert_eq!(p.key(1).unwrap(), b"b");
        assert_eq!(p.key(2).unwrap(), b"c");
    }

    #[test]
    fn search_finds_keys_and_insertion_points() {
        let mut p = leaf();
        for (i, k) in [b"b", b"d", b"f"].iter().enumerate() {
            p.insert(i, *k, b"v").unwrap();
        }
        assert_eq!(p.search(b"b"), Ok(0));
        assert_eq!(p.search(b"d"), Ok(1));
        assert_eq!(p.search(b"a"), Err(0));
        assert_eq!(p.search(b"c"), Err(1));
        assert_eq!(p.search(b"z"), Err(3));
    }

    #[test]
    fn remove_shifts_slots() {
        let mut p = leaf();
        for (i, k) in [b"a", b"b", b"c"].iter().enumerate() {
            p.insert(i, *k, b"v").unwrap();
        }
        p.remove(1).unwrap();
        assert_eq!(p.nslots(), 2);
        assert_eq!(p.key(0).unwrap(), b"a");
        assert_eq!(p.key(1).unwrap(), b"c");
    }

    #[test]
    fn update_value_in_place_and_grow() {
        let mut p = leaf();
        p.insert(0, b"k", b"small").unwrap();
        p.update_value(0, b"a much longer value than before")
            .unwrap();
        assert_eq!(p.value(0).unwrap(), b"a much longer value than before");
        assert_eq!(p.key(0).unwrap(), b"k");
        assert_eq!(p.nslots(), 1);
    }

    /// Fills a leaf with 200-byte rows under 14-byte keys until the next
    /// one no longer fits; returns the row count.
    fn fill_with_rows(p: &mut PageBuf) -> usize {
        let mut n = 0usize;
        while p.free_space() >= 2 + 14 + 200 + SLOT_SIZE {
            let key = format!("key{n:011}");
            p.insert(n, key.as_bytes(), &[n as u8; 200]).unwrap();
            n += 1;
        }
        n
    }

    #[test]
    fn same_length_updates_on_a_full_page_never_move_the_heap() {
        let mut p = leaf();
        let n = fill_with_rows(&mut p);
        let (free, heap) = (p.free_space(), p.heap_off());
        assert!(free < 220, "page is full: {free} bytes left");
        for i in 0..1_000usize {
            let idx = i * 7 % n;
            p.update_value(idx, &[i as u8; 200]).unwrap();
            assert_eq!(p.value(idx).unwrap(), &[i as u8; 200][..]);
            assert_eq!(p.key(idx).unwrap(), format!("key{idx:011}").as_bytes());
        }
        assert_eq!((p.free_space(), p.heap_off()), (free, heap));
        assert_eq!(p.usable_space(), free, "no holes");
    }

    #[test]
    fn resizing_updates_on_a_full_page_compact_only_when_they_must() {
        let mut p = leaf();
        let n = fill_with_rows(&mut p);
        let free = p.free_space();
        // Shorter: the old cell becomes a hole, the new one takes frontier
        // space, so the contiguous free space shrinks.
        p.update_value(3, &[0xaa; 4]).unwrap();
        assert_eq!(p.value(3).unwrap(), &[0xaa; 4][..]);
        assert!(p.free_space() < free);
        assert_eq!(p.usable_space(), free + 196);
        // Longer than the frontier has room for: fits only by compacting
        // the hole away, after which free and usable space agree again.
        p.update_value(5, &[0xbb; 380]).unwrap();
        assert_eq!(p.value(5).unwrap(), &[0xbb; 380][..]);
        assert_eq!(p.free_space(), p.usable_space());
        assert_eq!(p.usable_space(), free + 196 - 180);
        // Every other row survived both moves.
        for i in (0..n).filter(|i| *i != 3 && *i != 5) {
            assert_eq!(p.key(i).unwrap(), format!("key{i:011}").as_bytes());
            assert_eq!(p.value(i).unwrap(), &[i as u8; 200][..]);
        }
        // And one that cannot fit even compacted is refused.
        assert!(p.update_value(0, &[0xcc; 1_000]).is_err());
    }

    #[test]
    fn page_fills_then_rejects_then_compaction_reclaims() {
        let mut p = leaf();
        let val = vec![0xabu8; 100];
        let mut n = 0usize;
        loop {
            let key = format!("key{n:06}");
            match p.insert(n, key.as_bytes(), &val) {
                Ok(()) => n += 1,
                Err(_) => break,
            }
        }
        assert!(n > 50, "expected dozens of records, got {n}");
        // Remove half, making holes; inserts must succeed again via compaction.
        for i in (0..n).rev().step_by(2) {
            p.remove(i).unwrap();
        }
        let before = p.nslots();
        p.insert(0, b"aaa", &val).unwrap();
        assert_eq!(p.nslots(), before + 1);
    }

    #[test]
    fn truncate_from_drops_suffix() {
        let mut p = leaf();
        for i in 0..10 {
            let k = format!("k{i:02}");
            p.insert(i, k.as_bytes(), b"v").unwrap();
        }
        p.truncate_from(4).unwrap();
        assert_eq!(p.nslots(), 4);
        assert_eq!(p.key(3).unwrap(), b"k03");
    }

    #[test]
    fn links_roundtrip() {
        let mut p = leaf();
        p.set_links(77, 33);
        assert_eq!(p.next(), 77);
        assert_eq!(p.prev(), 33);
    }

    #[test]
    fn bytes_roundtrip_is_lossless() {
        let mut p = leaf();
        p.insert(0, b"k", b"v").unwrap();
        p.set_lsn(Lsn(99));
        let q = PageBuf::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.lsn(), Lsn(99));
    }

    #[test]
    fn oversized_cell_is_rejected() {
        let mut p = leaf();
        let huge = vec![0u8; MAX_CELL_PAYLOAD + 1];
        assert!(p.insert(0, b"k", &huge).is_err());
    }

    #[test]
    fn out_of_range_accesses_error_cleanly() {
        let mut p = leaf();
        assert!(p.key(0).is_err());
        assert!(p.remove(0).is_err());
        assert!(p.insert(1, b"k", b"v").is_err());
        assert!(p.truncate_from(1).is_err());
    }
}
