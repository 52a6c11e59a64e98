//! Functional (data-holding) physical memory.
//!
//! The timing model never needs byte contents, but the security
//! demonstrations do: to show that a malicious accelerator *actually
//! corrupts* a victim's data under the unsafe baseline and *cannot* under
//! Border Control, the simulator carries a real sparse byte store.
//!
//! # Layout
//!
//! Every functional access used to hash a `HashMap<Ppn, Box<[u8]>>`. The
//! store is now a dense, lazily-materialized *slab*: a frame-indexed slot
//! table (`u32` per physical frame, sized once from the machine's frame
//! count) pointing into a page arena of fixed 64 KiB chunks. The hot path
//! — Protection-Table byte reads on every border check — is three array
//! indexes and no allocation. The arena grows a chunk at a time, so no
//! page ever moves and peak memory does not depend on where the heap
//! places a reallocated buffer (DESIGN.md §10). Pages still materialize
//! zero-filled on first write, and probes outside the configured frame
//! range (tests and doc examples construct stores with no sizing at all)
//! fall back to the original sparse map with identical semantics.

// The page-crossing copy loops bound every slice range with
// `take = (PAGE_SIZE - offset).min(remaining)`, so `offset + take` never
// exceeds the 4 KiB page buffer and the buffer ranges never exceed the
// caller slice. Slot indexes are produced by the slot table, whose
// entries are only ever written with in-bounds arena offsets.
#![allow(clippy::indexing_slicing)]

use bc_sim::fxmap::FxHashMap;

use crate::addr::{PhysAddr, Ppn, PAGE_SIZE};

// bc-lint: allow-file(narrowing-cast) — store indexing: page offsets
// (< PAGE_SIZE) and slot numbers bounded by the allocated frame count
// convert to usize for Vec indexing; lossless on every supported host.
const PAGE: usize = PAGE_SIZE as usize;

/// Slot-table sentinel: page not materialized.
const NO_SLOT: u32 = u32::MAX;

/// Pages per arena chunk (64 KiB).
const CHUNK_PAGES: usize = 16;

/// Sparse, byte-accurate physical memory contents.
///
/// Pages materialize zero-filled on first write, mirroring zeroed DRAM
/// handed out by an OS.
///
/// # Example
///
/// ```
/// use bc_mem::{PhysMemStore, PhysAddr};
///
/// let mut m = PhysMemStore::new();
/// m.write(PhysAddr::new(0x1000), b"secret");
/// assert_eq!(m.read_vec(PhysAddr::new(0x1000), 6), b"secret");
/// assert_eq!(m.read_vec(PhysAddr::new(0x2000), 4), vec![0, 0, 0, 0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhysMemStore {
    /// Frame-indexed slot table: `slots[ppn]` is the page's arena slot,
    /// or [`NO_SLOT`] while the page is unmaterialized.
    slots: Vec<u32>,
    /// Page arena in fixed-size chunks of [`CHUNK_PAGES`] pages; slot `s`
    /// owns page `s % CHUNK_PAGES` of chunk `s / CHUNK_PAGES`.
    arena: Vec<Box<[u8]>>,
    /// Slots the arena holds, in use or on `free_slots`.
    arena_slots: usize,
    /// Recycled arena slots from discarded pages (zeroed on reuse).
    free_slots: Vec<u32>,
    /// Materialized in-range pages (kept so `resident_pages` stays O(1)).
    dense_resident: usize,
    /// Fallback for pages at or above the configured frame count.
    sparse: FxHashMap<Ppn, Box<[u8]>>,
    /// When set, pages touched by accelerator-attributed writes are
    /// appended to `accel_writes` for the audit layer to drain.
    log_accel_writes: bool,
    accel_writes: Vec<Ppn>,
    /// `Cell`s so `&self` read paths can count without threading `&mut`.
    #[cfg(feature = "hotprof")]
    prof_fast_hits: std::cell::Cell<u64>,
    #[cfg(feature = "hotprof")]
    prof_slow_hits: std::cell::Cell<u64>,
}

/// Hot-path profile counters (compiled in under the `hotprof` feature).
#[cfg(feature = "hotprof")]
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreProfile {
    /// Page lookups served by the dense slot table.
    pub fast_hits: u64,
    /// Page lookups that fell back to the sparse map.
    pub slow_hits: u64,
}

/// Who issued a functional-memory write. The timing model does not care,
/// but the audit layer must prove that every *accelerator* write held W
/// permission at issue time — host writes are outside Border Control's
/// jurisdiction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOrigin {
    /// A CPU-side write (OS, host threads): never audited.
    Host,
    /// A write crossing the accelerator border: subject to the shadow
    /// permission oracle.
    Accelerator,
}

impl PhysMemStore {
    /// Creates an empty store with no dense range: every page lives in
    /// the sparse fallback. Fine for tests and examples; machines built
    /// by the kernel use [`with_frames`](Self::with_frames).
    #[must_use]
    pub fn new() -> Self {
        PhysMemStore::default()
    }

    /// Creates a store whose first `frames` physical pages are served by
    /// the dense frame-indexed slab (out-of-range probes still work via
    /// the sparse fallback). The slot table is allocated eagerly (4 bytes
    /// per frame); page contents stay lazy.
    #[must_use]
    pub fn with_frames(frames: u64) -> Self {
        PhysMemStore {
            slots: vec![NO_SLOT; usize::try_from(frames).unwrap_or(0)],
            ..PhysMemStore::default()
        }
    }

    /// Turns accelerator-write logging on or off (off by default; the
    /// audit layer switches it on).
    pub fn set_accel_write_logging(&mut self, on: bool) {
        self.log_accel_writes = on;
        if !on {
            self.accel_writes.clear();
        }
    }

    /// Writes `data` at `addr` with an explicit origin. Identical byte
    /// semantics to [`write`](Self::write); accelerator-origin writes are
    /// additionally logged when logging is enabled — each physical page
    /// the range touches is pushed exactly once per call, in ascending
    /// page order, with no duplicates for the audit layer to re-dedup.
    pub fn write_as(&mut self, origin: WriteOrigin, addr: PhysAddr, data: &[u8]) {
        if self.log_accel_writes && origin == WriteOrigin::Accelerator && !data.is_empty() {
            let first = addr.ppn().as_u64();
            let last = addr.offset(data.len() as u64 - 1).ppn().as_u64();
            for ppn in first..=last {
                self.accel_writes.push(Ppn::new(ppn));
            }
        }
        self.write(addr, data);
    }

    /// Drains the pages written by the accelerator since the last drain.
    pub fn take_accel_writes(&mut self) -> Vec<Ppn> {
        std::mem::take(&mut self.accel_writes)
    }

    /// Number of pages that have been materialized.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.dense_resident + self.sparse.len()
    }

    /// Read-only page lookup across both tiers; `None` = unmaterialized.
    #[inline]
    fn page_ref(&self, ppn: Ppn) -> Option<&[u8]> {
        let idx = usize::try_from(ppn.as_u64()).unwrap_or(usize::MAX);
        match self.slots.get(idx) {
            Some(&NO_SLOT) => {
                self.prof_fast();
                None
            }
            Some(&slot) => {
                self.prof_fast();
                Some(self.slot_page(slot))
            }
            None => {
                self.prof_slow();
                self.sparse.get(&ppn).map(|p| &p[..])
            }
        }
    }

    /// Materializes (zero-filled) and returns the page's bytes.
    fn page_mut(&mut self, ppn: Ppn) -> &mut [u8] {
        let idx = usize::try_from(ppn.as_u64()).unwrap_or(usize::MAX);
        if let Some(slot) = self.slots.get(idx).copied() {
            self.prof_fast();
            let slot = if slot == NO_SLOT {
                let s = self.materialize_slot();
                self.slots[idx] = s;
                self.dense_resident += 1;
                s
            } else {
                slot
            };
            self.slot_page_mut(slot)
        } else {
            self.prof_slow();
            self.sparse
                .entry(ppn)
                .or_insert_with(|| vec![0u8; PAGE].into_boxed_slice())
        }
    }

    /// The bytes of arena slot `slot`.
    #[inline]
    fn slot_page(&self, slot: u32) -> &[u8] {
        let s = slot as usize;
        let base = (s % CHUNK_PAGES) * PAGE;
        &self.arena[s / CHUNK_PAGES][base..base + PAGE]
    }

    /// The bytes of arena slot `slot`, writable.
    #[inline]
    fn slot_page_mut(&mut self, slot: u32) -> &mut [u8] {
        let s = slot as usize;
        let base = (s % CHUNK_PAGES) * PAGE;
        &mut self.arena[s / CHUNK_PAGES][base..base + PAGE]
    }

    /// Grabs a zeroed arena slot: recycled (re-zeroed) or freshly grown,
    /// a zeroed chunk at a time.
    fn materialize_slot(&mut self) -> u32 {
        match self.free_slots.pop() {
            Some(s) => {
                self.slot_page_mut(s).fill(0);
                s
            }
            None => {
                let s = u32::try_from(self.arena_slots).expect("arena under 16 TiB");
                if self.arena_slots.is_multiple_of(CHUNK_PAGES) {
                    self.arena
                        .push(vec![0; CHUNK_PAGES * PAGE].into_boxed_slice());
                }
                self.arena_slots += 1;
                s
            }
        }
    }

    #[inline]
    fn prof_fast(&self) {
        #[cfg(feature = "hotprof")]
        self.prof_fast_hits.set(self.prof_fast_hits.get() + 1);
    }

    #[inline]
    fn prof_slow(&self) {
        #[cfg(feature = "hotprof")]
        self.prof_slow_hits.set(self.prof_slow_hits.get() + 1);
    }

    /// Hot-path profile counters.
    #[cfg(feature = "hotprof")]
    #[must_use]
    pub fn profile(&self) -> StoreProfile {
        StoreProfile {
            fast_hits: self.prof_fast_hits.get(),
            slow_hits: self.prof_slow_hits.get(),
        }
    }

    /// Writes `data` starting at `addr`, crossing page boundaries as
    /// needed.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        let mut cur = addr;
        let mut remaining = data;
        while !remaining.is_empty() {
            let offset = cur.page_offset() as usize;
            let space = PAGE - offset;
            let take = space.min(remaining.len());
            let page = self.page_mut(cur.ppn());
            page[offset..offset + take].copy_from_slice(&remaining[..take]);
            remaining = &remaining[take..];
            cur = cur.offset(take as u64);
        }
    }

    /// Reads one byte — the Protection-Table lookup fast path: no
    /// allocation, no page-crossing loop.
    #[must_use]
    #[inline]
    pub fn read_byte(&self, addr: PhysAddr) -> u8 {
        let offset = addr.page_offset() as usize;
        match self.page_ref(addr.ppn()) {
            Some(p) => p[offset],
            None => 0,
        }
    }

    /// Writes one byte (the Protection-Table update fast path).
    #[inline]
    pub fn write_byte(&mut self, addr: PhysAddr, byte: u8) {
        let offset = addr.page_offset() as usize;
        self.page_mut(addr.ppn())[offset] = byte;
    }

    /// Reads `len` bytes starting at `addr` into a new vector; untouched
    /// memory reads as zero.
    #[must_use]
    pub fn read_vec(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Reads into a caller-provided buffer; untouched memory reads as zero.
    pub fn read_into(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mut cur = addr;
        let mut filled = 0;
        while filled < buf.len() {
            let offset = cur.page_offset() as usize;
            let space = PAGE - offset;
            let take = space.min(buf.len() - filled);
            if let Some(page) = self.page_ref(cur.ppn()) {
                buf[filled..filled + take].copy_from_slice(&page[offset..offset + take]);
            } else {
                buf[filled..filled + take].fill(0);
            }
            filled += take;
            cur = cur.offset(take as u64);
        }
    }

    /// Fills one whole page with zeros (page-grain scrubbing, e.g. when the
    /// OS hands a recycled frame to a new process).
    pub fn zero_page(&mut self, ppn: Ppn) {
        self.page_mut(ppn).fill(0);
    }

    /// Copies one whole page (used for copy-on-write resolution and memory
    /// compaction).
    pub fn copy_page(&mut self, from: Ppn, to: Ppn) {
        // A 4 KiB bounce buffer keeps the two-tier borrow simple; page
        // copies happen on CoW faults and compaction, not per access.
        let mut buf = [0u8; PAGE];
        if let Some(src) = self.page_ref(from) {
            buf.copy_from_slice(src);
        }
        self.page_mut(to).copy_from_slice(&buf);
    }

    /// Drops a page's contents entirely (frame freed).
    pub fn discard_page(&mut self, ppn: Ppn) {
        let idx = usize::try_from(ppn.as_u64()).unwrap_or(usize::MAX);
        match self.slots.get_mut(idx) {
            Some(slot) if *slot != NO_SLOT => {
                self.free_slots.push(*slot);
                *slot = NO_SLOT;
                self.dense_resident -= 1;
            }
            Some(_) => {}
            None => {
                self.sparse.remove(&ppn);
            }
        }
    }
}

/// Snapshot codec: materialized pages (dense tier ascending by frame,
/// then sparse tier ascending by page number) with their full 4 KiB
/// contents, plus the accelerator-write log. Arena slot numbers and the
/// free-slot list are layout, not state — a restored store re-packs
/// pages into fresh slots with identical read/write semantics.
mod snap_impls {
    use bc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

    use super::{PhysMemStore, NO_SLOT, PAGE};
    use crate::addr::Ppn;

    impl Snap for PhysMemStore {
        fn save(&self, w: &mut SnapWriter) {
            w.section(*b"PMEM");
            w.usize(self.slots.len());
            w.usize(self.dense_resident);
            for (idx, &slot) in self.slots.iter().enumerate() {
                if slot != NO_SLOT {
                    w.u64(idx as u64);
                    w.bytes(self.slot_page(slot));
                }
            }
            let mut sparse: Vec<Ppn> = self.sparse.keys().copied().collect();
            sparse.sort_unstable();
            w.usize(sparse.len());
            for ppn in sparse {
                w.u64(ppn.as_u64());
                w.bytes(self.sparse.get(&ppn).map_or(&[], |p| &p[..]));
            }
            w.bool(self.log_accel_writes);
            w.snap(&self.accel_writes);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            r.section(*b"PMEM")?;
            let frames = r.usize()?;
            let mut store = PhysMemStore {
                slots: vec![NO_SLOT; frames],
                ..PhysMemStore::default()
            };
            let dense = r.usize()?;
            for _ in 0..dense {
                let ppn = r.u64()?;
                if ppn >= frames as u64 {
                    return Err(SnapError::BadValue("dense page out of range"));
                }
                let bytes = r.byte_slice()?;
                if bytes.len() != PAGE {
                    return Err(SnapError::BadValue("page size"));
                }
                store.page_mut(Ppn::new(ppn)).copy_from_slice(bytes);
            }
            let sparse = r.usize()?;
            for _ in 0..sparse {
                let ppn = r.u64()?;
                let bytes = r.byte_slice()?;
                if bytes.len() != PAGE {
                    return Err(SnapError::BadValue("page size"));
                }
                store.page_mut(Ppn::new(ppn)).copy_from_slice(bytes);
            }
            store.log_accel_writes = r.bool()?;
            store.accel_writes = r.snap()?;
            Ok(store)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = PhysMemStore::new();
        assert_eq!(m.read_vec(PhysAddr::new(12345), 8), vec![0u8; 8]);
    }

    #[test]
    fn write_read_roundtrip_within_page() {
        let mut m = PhysMemStore::new();
        m.write(PhysAddr::new(0x1010), &[1, 2, 3, 4]);
        assert_eq!(m.read_vec(PhysAddr::new(0x1010), 4), vec![1, 2, 3, 4]);
        assert_eq!(
            m.read_vec(PhysAddr::new(0x100E), 8),
            vec![0, 0, 1, 2, 3, 4, 0, 0]
        );
    }

    #[test]
    fn write_crosses_page_boundary() {
        let mut m = PhysMemStore::new();
        let addr = PhysAddr::new(2 * PAGE_SIZE - 2);
        m.write(addr, &[9, 9, 9, 9]);
        assert_eq!(m.read_vec(addr, 4), vec![9, 9, 9, 9]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn zero_page_scrubs() {
        let mut m = PhysMemStore::new();
        m.write(PhysAddr::new(0x3000), b"key material");
        m.zero_page(Ppn::new(3));
        assert_eq!(m.read_vec(PhysAddr::new(0x3000), 12), vec![0u8; 12]);
    }

    #[test]
    fn copy_page_duplicates_contents() {
        let mut m = PhysMemStore::new();
        m.write(PhysAddr::new(0x4000), b"cow me");
        m.copy_page(Ppn::new(4), Ppn::new(9));
        assert_eq!(m.read_vec(PhysAddr::new(0x9000), 6), b"cow me");
        // Copying an unmaterialized page yields zeros.
        m.copy_page(Ppn::new(100), Ppn::new(101));
        assert_eq!(m.read_vec(Ppn::new(101).base(), 4), vec![0u8; 4]);
    }

    #[test]
    fn accel_writes_logged_only_when_enabled() {
        let mut m = PhysMemStore::new();
        m.write_as(WriteOrigin::Accelerator, PhysAddr::new(0x1000), b"pre");
        assert!(m.take_accel_writes().is_empty());
        m.set_accel_write_logging(true);
        m.write_as(WriteOrigin::Host, PhysAddr::new(0x2000), b"host");
        // A cross-page accelerator write logs every spanned page.
        m.write_as(
            WriteOrigin::Accelerator,
            PhysAddr::new(2 * PAGE_SIZE - 2),
            &[7, 7, 7, 7],
        );
        assert_eq!(m.take_accel_writes(), vec![Ppn::new(1), Ppn::new(2)]);
        assert!(m.take_accel_writes().is_empty());
        // Byte semantics identical to plain write.
        assert_eq!(m.read_vec(PhysAddr::new(2 * PAGE_SIZE - 2), 4), vec![7; 4]);
    }

    #[test]
    fn multi_page_accel_write_logs_each_page_once() {
        let mut m = PhysMemStore::new();
        m.set_accel_write_logging(true);
        // 2.5 pages starting mid-page: spans pages 5, 6, 7, 8.
        let start = PhysAddr::new(5 * PAGE_SIZE + PAGE_SIZE / 2);
        let data = vec![0xAB; (3 * PAGE_SIZE) as usize];
        m.write_as(WriteOrigin::Accelerator, start, &data);
        let logged = m.take_accel_writes();
        assert_eq!(
            logged,
            vec![Ppn::new(5), Ppn::new(6), Ppn::new(7), Ppn::new(8)],
            "each touched page exactly once, ascending, no duplicates"
        );
        // Two calls in one drain window: per-call exactness, not global.
        m.write_as(WriteOrigin::Accelerator, PhysAddr::new(5 * PAGE_SIZE), b"x");
        m.write_as(WriteOrigin::Accelerator, PhysAddr::new(5 * PAGE_SIZE), b"y");
        assert_eq!(m.take_accel_writes(), vec![Ppn::new(5), Ppn::new(5)]);
    }

    #[test]
    fn discard_page_reads_zero_again() {
        let mut m = PhysMemStore::new();
        m.write(PhysAddr::new(0x5000), b"x");
        assert_eq!(m.resident_pages(), 1);
        m.discard_page(Ppn::new(5));
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.read_vec(PhysAddr::new(0x5000), 1), vec![0]);
    }

    #[test]
    fn dense_store_matches_sparse_semantics() {
        let mut dense = PhysMemStore::with_frames(16);
        let mut sparse = PhysMemStore::new();
        for m in [&mut dense, &mut sparse] {
            m.write(PhysAddr::new(0x1ff0), &[1; 32]); // crosses page 1 -> 2
            m.write(PhysAddr::new(0x3000), b"abc");
            m.zero_page(Ppn::new(1));
            m.copy_page(Ppn::new(3), Ppn::new(5));
            m.discard_page(Ppn::new(2));
            // Out of the dense range (frame 100 >= 16): sparse fallback.
            m.write(PhysAddr::new(100 * PAGE_SIZE + 7), b"far");
        }
        for addr in [0x1ff0, 0x2000, 0x3000, 0x5000, 100 * PAGE_SIZE + 7] {
            assert_eq!(
                dense.read_vec(PhysAddr::new(addr), 40),
                sparse.read_vec(PhysAddr::new(addr), 40),
                "mismatch at {addr:#x}"
            );
        }
        assert_eq!(dense.resident_pages(), sparse.resident_pages());
    }

    #[test]
    fn slot_recycling_zeroes_reused_frames() {
        let mut m = PhysMemStore::with_frames(8);
        m.write(PhysAddr::new(0x1000), &[0xFF; 64]);
        m.discard_page(Ppn::new(1));
        // New page reuses the slot and must read zero before its write.
        m.write(PhysAddr::new(0x2004), &[9]);
        assert_eq!(
            m.read_vec(PhysAddr::new(0x2000), 8),
            [0, 0, 0, 0, 9, 0, 0, 0]
        );
        // And the original page is zero again too.
        assert_eq!(m.read_vec(PhysAddr::new(0x1000), 4), vec![0; 4]);
    }

    #[test]
    fn pages_across_arena_chunks_keep_their_bytes() {
        let pages = 3 * CHUNK_PAGES as u64 + 5;
        let mut m = PhysMemStore::with_frames(pages + 1);
        let tag = |ppn: u64| [ppn.to_le_bytes()[0], 0xEE];
        // Materialize in descending frame order so slots and frames differ.
        for ppn in (0..pages).rev() {
            m.write(Ppn::new(ppn).base().offset(ppn), &tag(ppn));
        }
        // Frame `f` got slot 32, the first of chunk 2, and frame `f + 1`
        // slot 31, the last of chunk 1: a write across their border.
        let f = pages - 1 - 2 * CHUNK_PAGES as u64;
        let edge = Ppn::new(f).base().offset(PAGE_SIZE - 1);
        m.write(edge, &[0xA1, 0xA2]);
        // Recycled slots come back zeroed, wherever their chunk is.
        m.discard_page(Ppn::new(2));
        m.discard_page(Ppn::new(pages - 1));
        m.write(Ppn::new(pages).base(), &[0x77]);
        m.write_byte(Ppn::new(2).base().offset(9), 0x33);

        for ppn in (0..pages - 1).filter(|&p| p != 2) {
            let at = Ppn::new(ppn).base().offset(ppn);
            assert_eq!(m.read_vec(at, 2), tag(ppn), "frame {ppn}");
        }
        assert_eq!(m.read_vec(edge, 2), [0xA1, 0xA2]);
        let mut two = vec![0; PAGE];
        two[9] = 0x33;
        assert_eq!(m.read_vec(Ppn::new(2).base(), PAGE), two);
        let mut last = vec![0; PAGE];
        last[0] = 0x77;
        assert_eq!(m.read_vec(Ppn::new(pages).base(), PAGE), last);
        assert_eq!(m.read_vec(Ppn::new(pages - 1).base(), PAGE), vec![0; PAGE]);
        assert_eq!(m.resident_pages() as u64, pages);
    }

    #[test]
    fn byte_fast_paths_match_vec_paths() {
        let mut m = PhysMemStore::with_frames(4);
        assert_eq!(m.read_byte(PhysAddr::new(0x1abc)), 0);
        m.write_byte(PhysAddr::new(0x1abc), 0x5A);
        assert_eq!(m.read_byte(PhysAddr::new(0x1abc)), 0x5A);
        assert_eq!(m.read_vec(PhysAddr::new(0x1abc), 1), vec![0x5A]);
        // Out of dense range as well.
        m.write_byte(PhysAddr::new(99 * PAGE_SIZE), 7);
        assert_eq!(m.read_byte(PhysAddr::new(99 * PAGE_SIZE)), 7);
    }
}
