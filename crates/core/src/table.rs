//! The Protection Table: a flat, physically indexed permission table in
//! host physical memory (§3.1.1).

// Byte offsets are reduced modulo the fixed block geometry before every
// array access, so unchecked indexing cannot go out of bounds.
#![allow(clippy::indexing_slicing)]

use bc_mem::addr::{PhysAddr, Ppn, BLOCK_SIZE, PAGE_SIZE};
use bc_mem::perms::PagePerms;
use bc_mem::store::PhysMemStore;

/// Pages of permissions held in one 128-byte memory block (512: the
/// subblocking factor that gives the BCC its reach).
pub const PAGES_PER_BLOCK: u64 = BLOCK_SIZE * 4;

/// Bytes in one table block (the BCC fill granule).
// bc-lint: allow(narrowing-cast) — const BLOCK_SIZE (128) fits usize.
pub const BLOCK_BYTES: usize = BLOCK_SIZE as usize;

/// A per-accelerator Protection Table.
///
/// The table is *physically indexed* — "lookups are done by physical
/// address" — and stores 2 bits (read, write) per physical page number.
/// It lives in ordinary physical memory located by a base register and
/// guarded by a bounds register; the flat layout guarantees every lookup
/// is exactly one memory access (§3.1.1).
///
/// The table's contents are stored *in the simulated physical memory*
/// ([`PhysMemStore`]), not in a private side structure: the storage
/// overhead the paper reports is real here, and the table's memory
/// accesses consume real simulated DRAM bandwidth.
///
/// # Example
///
/// ```
/// use bc_core::ProtectionTable;
/// use bc_mem::{PhysMemStore, Ppn, PagePerms};
///
/// let mut store = PhysMemStore::new();
/// // Table at physical page 100, covering 1024 physical pages.
/// let pt = ProtectionTable::new(Ppn::new(100), 1024);
/// assert_eq!(pt.lookup(&store, Ppn::new(5)), PagePerms::NONE); // starts zeroed
/// pt.merge(&mut store, Ppn::new(5), PagePerms::READ_ONLY);
/// assert_eq!(pt.lookup(&store, Ppn::new(5)), PagePerms::READ_ONLY);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectionTable {
    /// Base register: first physical page of the table.
    base: Ppn,
    /// Bounds register: number of physical pages the table covers (i.e.
    /// the size of physical memory in pages).
    bounds_pages: u64,
}

impl ProtectionTable {
    /// Creates a table descriptor with its base and bounds registers.
    /// The backing memory must be zeroed by the OS before use (Fig 3a);
    /// [`bc_os::Kernel::alloc_protection_table`] does exactly that.
    ///
    /// [`bc_os::Kernel::alloc_protection_table`]:
    ///     https://docs.rs/bc-os/latest/bc_os/struct.Kernel.html
    #[must_use]
    pub fn new(base: Ppn, bounds_pages: u64) -> Self {
        ProtectionTable { base, bounds_pages }
    }

    /// The base register (first physical page of the table).
    #[must_use]
    pub fn base(&self) -> Ppn {
        self.base
    }

    /// The bounds register, in physical pages covered.
    #[must_use]
    pub fn bounds_pages(&self) -> u64 {
        self.bounds_pages
    }

    /// Whether `ppn` is inside the bounds register — checked *before* any
    /// table access (§3.2.3).
    #[must_use]
    pub fn in_bounds(&self, ppn: Ppn) -> bool {
        ppn.as_u64() < self.bounds_pages
    }

    /// Bytes of table storage needed for `bounds_pages` of physical
    /// memory: 2 bits per page.
    #[must_use]
    pub fn storage_bytes(bounds_pages: u64) -> u64 {
        bounds_pages.div_ceil(4)
    }

    /// Table size in 4 KiB pages (what the OS must allocate contiguously).
    #[must_use]
    pub fn storage_pages(bounds_pages: u64) -> u64 {
        Self::storage_bytes(bounds_pages).div_ceil(PAGE_SIZE)
    }

    /// Storage overhead as a fraction of the physical memory covered.
    /// The paper's headline number: ~0.006 % (1/16384).
    #[must_use]
    // bc-lint: allow(float) — storage-comparison summary for reports.
    pub fn storage_overhead_fraction(bounds_pages: u64) -> f64 {
        if bounds_pages == 0 {
            return 0.0;
        }
        Self::storage_bytes(bounds_pages) as f64 / (bounds_pages * PAGE_SIZE) as f64
    }

    /// Physical address of the table byte holding `ppn`'s bits.
    #[must_use]
    pub fn entry_addr(&self, ppn: Ppn) -> PhysAddr {
        self.base.base().offset(ppn.as_u64() / 4)
    }

    /// Physical address of the 128-byte table *block* holding `ppn`'s
    /// bits — the unit the BCC fetches ("we fetch an entire block at a
    /// time from memory", §3.1.2).
    #[must_use]
    pub fn block_addr(&self, ppn: Ppn) -> PhysAddr {
        self.entry_addr(ppn).block_aligned()
    }

    /// Reads the permissions of one physical page. Out-of-bounds pages
    /// report no permissions.
    #[must_use]
    pub fn lookup(&self, store: &PhysMemStore, ppn: Ppn) -> PagePerms {
        if !self.in_bounds(ppn) {
            return PagePerms::NONE;
        }
        let byte = store.read_byte(self.entry_addr(ppn));
        let shift = (ppn.as_u64() % 4) * 2;
        let bits = (byte >> shift) & 0b11;
        PagePerms::new(bits & 0b01 != 0, bits & 0b10 != 0, false)
    }

    /// Sets the permissions of one physical page (overwrite).
    pub fn set(&self, store: &mut PhysMemStore, ppn: Ppn, perms: PagePerms) {
        if !self.in_bounds(ppn) {
            return;
        }
        let addr = self.entry_addr(ppn);
        let mut byte = store.read_byte(addr);
        let shift = (ppn.as_u64() % 4) * 2;
        // bc-lint: allow(narrowing-cast) — bool→u8 permission-bit pack.
        let bits = (perms.readable() as u8) | ((perms.writable() as u8) << 1);
        byte = (byte & !(0b11 << shift)) | (bits << shift);
        store.write_byte(addr, byte);
    }

    /// Merges (ORs) permissions into one page's entry — the lazy-insertion
    /// and multiprocess-union operation. The invariant "no page ever has
    /// read or write permission in the Protection Table if it does not
    /// have it according to the process page table" (§3.2.1) is the
    /// caller's obligation: only ATS-delivered, page-table-derived
    /// permissions may be merged.
    pub fn merge(&self, store: &mut PhysMemStore, ppn: Ppn, perms: PagePerms) {
        let old = self.lookup(store, ppn);
        self.set(store, ppn, old | crate::proto::insertion_perms(perms));
    }

    /// Merges permissions for a run of consecutive physical pages — the
    /// huge-page insertion of §3.4.4 (512 entries = one table block for a
    /// 2 MiB page).
    pub fn merge_range(&self, store: &mut PhysMemStore, base: Ppn, pages: u64, perms: PagePerms) {
        for i in 0..pages {
            self.merge(store, base.add(i), perms);
        }
    }

    /// Zeroes the entire table — process completion (Fig 3e) or a
    /// full-flush downgrade (§3.2.4). Returns the number of 128-byte
    /// blocks written, which the timing model charges to DRAM.
    pub fn zero(&self, store: &mut PhysMemStore, pages_touched_hint: Option<u64>) -> u64 {
        for page in 0..Self::storage_pages(self.bounds_pages) {
            store.zero_page(self.base.add(page));
        }
        let _ = pages_touched_hint;
        Self::storage_bytes(self.bounds_pages).div_ceil(bc_mem::BLOCK_SIZE)
    }

    /// Reads the raw 128 bytes of the table block containing `ppn` — the
    /// BCC fill granule, in the table's own layout: page `ppn_in_block`
    /// holds bits `2 * (ppn_in_block % 4)` (R) and the one above (W) of
    /// byte `ppn_in_block / 4`. Bits of pages past the bounds register
    /// read as zero, so an out-of-bounds page never enters the BCC with
    /// permissions.
    #[must_use]
    pub fn block_bytes(&self, store: &PhysMemStore, ppn: Ppn) -> [u8; BLOCK_BYTES] {
        let mut bytes = [0u8; BLOCK_BYTES];
        store.read_into(self.block_addr(ppn), &mut bytes);
        let block_base = ppn.as_u64() - ppn.as_u64() % PAGES_PER_BLOCK;
        if self.bounds_pages < block_base + PAGES_PER_BLOCK {
            // Pages of this block inside the bounds (none if the block
            // starts past them).
            let live = self.bounds_pages.max(block_base) - block_base;
            // bc-lint: allow(narrowing-cast) — live < 512 here.
            let whole = (live / 4) as usize;
            let partial = live % 4;
            let cleared = if partial == 0 {
                whole
            } else {
                bytes[whole] &= (1u8 << (partial * 2)) - 1;
                whole + 1
            };
            bytes[cleared..].fill(0);
        }
        bytes
    }

    /// Reads the 512 page-permission pairs of the table block containing
    /// `ppn`, indexed by `ppn_in_block = ppn % 512`: a decoder of
    /// [`ProtectionTable::block_bytes`] for callers that want perms rather
    /// than the table's bit layout.
    #[must_use]
    pub fn read_block(&self, store: &PhysMemStore, ppn: Ppn) -> [PagePerms; 512] {
        let bytes = self.block_bytes(store, ppn);
        let mut out = [PagePerms::NONE; 512];
        for (i, slot) in out.iter_mut().enumerate() {
            let bits = (bytes[i / 4] >> ((i % 4) * 2)) & 0b11;
            *slot = PagePerms::new(bits & 0b01 != 0, bits & 0b10 != 0, false);
        }
        out
    }
}

/// Snapshot codec: the table is just its two registers — the permission
/// bits themselves live in [`PhysMemStore`], which snapshots separately.
mod snap_impls {
    use super::ProtectionTable;

    bc_sim::snap_struct!(ProtectionTable: base, bounds_pages);
}

#[cfg(test)]
// bc-lint: allow(float) — assertions on summary ratios only.
mod tests {
    use super::*;

    fn setup() -> (PhysMemStore, ProtectionTable) {
        let store = PhysMemStore::new();
        // Table at page 1000, covering 64 Ki physical pages (256 MiB).
        (store, ProtectionTable::new(Ppn::new(1000), 64 * 1024))
    }

    #[test]
    fn starts_zeroed() {
        let (store, pt) = setup();
        for p in [0u64, 1, 511, 512, 65535] {
            assert_eq!(pt.lookup(&store, Ppn::new(p)), PagePerms::NONE);
        }
    }

    #[test]
    fn merge_and_lookup_all_phases() {
        let (mut store, pt) = setup();
        // Four pages sharing one byte: check bit packing doesn't bleed.
        pt.merge(&mut store, Ppn::new(0), PagePerms::READ_ONLY);
        pt.merge(&mut store, Ppn::new(1), PagePerms::READ_WRITE);
        pt.merge(&mut store, Ppn::new(2), PagePerms::WRITE_ONLY);
        assert_eq!(pt.lookup(&store, Ppn::new(0)), PagePerms::READ_ONLY);
        assert_eq!(pt.lookup(&store, Ppn::new(1)), PagePerms::READ_WRITE);
        assert_eq!(pt.lookup(&store, Ppn::new(2)), PagePerms::WRITE_ONLY);
        assert_eq!(pt.lookup(&store, Ppn::new(3)), PagePerms::NONE);
    }

    #[test]
    fn merge_is_union_never_downgrade() {
        let (mut store, pt) = setup();
        pt.merge(&mut store, Ppn::new(7), PagePerms::READ_ONLY);
        pt.merge(&mut store, Ppn::new(7), PagePerms::WRITE_ONLY);
        assert_eq!(pt.lookup(&store, Ppn::new(7)), PagePerms::READ_WRITE);
        // Merging NONE changes nothing.
        pt.merge(&mut store, Ppn::new(7), PagePerms::NONE);
        assert_eq!(pt.lookup(&store, Ppn::new(7)), PagePerms::READ_WRITE);
    }

    #[test]
    fn execute_permission_never_stored() {
        let (mut store, pt) = setup();
        pt.merge(&mut store, Ppn::new(4), PagePerms::READ_EXEC);
        // Only the R bit survives: the border cannot enforce execute.
        assert_eq!(pt.lookup(&store, Ppn::new(4)), PagePerms::READ_ONLY);
    }

    #[test]
    fn set_overwrites_downward() {
        let (mut store, pt) = setup();
        pt.merge(&mut store, Ppn::new(9), PagePerms::READ_WRITE);
        pt.set(&mut store, Ppn::new(9), PagePerms::READ_ONLY);
        assert_eq!(pt.lookup(&store, Ppn::new(9)), PagePerms::READ_ONLY);
        pt.set(&mut store, Ppn::new(9), PagePerms::NONE);
        assert_eq!(pt.lookup(&store, Ppn::new(9)), PagePerms::NONE);
    }

    #[test]
    fn bounds_checked() {
        let (mut store, pt) = setup();
        let out = Ppn::new(64 * 1024);
        assert!(!pt.in_bounds(out));
        pt.merge(&mut store, out, PagePerms::READ_WRITE);
        assert_eq!(pt.lookup(&store, out), PagePerms::NONE);
    }

    #[test]
    fn storage_matches_paper_numbers() {
        // 16 GiB system -> 1 MiB table (paper §3.1.1).
        let pages_16g = (16u64 << 30) / PAGE_SIZE;
        assert_eq!(ProtectionTable::storage_bytes(pages_16g), 1 << 20);
        // Overhead fraction ~0.006 %.
        let frac = ProtectionTable::storage_overhead_fraction(pages_16g);
        assert!((frac - 1.0 / 16384.0).abs() < 1e-12);
        assert!((frac * 100.0 - 0.0061).abs() < 0.001);
        // The paper's simulated system: 196 KiB table (Table 3) ≈ 3 GiB.
        let pages_3g = (3u64 << 30) / PAGE_SIZE;
        assert_eq!(ProtectionTable::storage_bytes(pages_3g), 196608);
        assert_eq!(ProtectionTable::storage_bytes(pages_3g) / 1024, 192);
    }

    #[test]
    fn entry_and_block_addresses() {
        let pt = ProtectionTable::new(Ppn::new(1000), 64 * 1024);
        // Page 0..3 share byte 0; page 4 is byte 1.
        assert_eq!(pt.entry_addr(Ppn::new(0)), Ppn::new(1000).byte(0));
        assert_eq!(pt.entry_addr(Ppn::new(4)), Ppn::new(1000).byte(1));
        // 512 pages per 128-byte block.
        assert_eq!(pt.block_addr(Ppn::new(0)), pt.block_addr(Ppn::new(511)));
        assert_ne!(pt.block_addr(Ppn::new(0)), pt.block_addr(Ppn::new(512)));
    }

    #[test]
    fn zero_clears_and_reports_blocks() {
        let (mut store, pt) = setup();
        pt.merge(&mut store, Ppn::new(42), PagePerms::READ_WRITE);
        let blocks = pt.zero(&mut store, None);
        // 64Ki pages -> 16 KiB of table -> 128 blocks.
        assert_eq!(blocks, 128);
        assert_eq!(pt.lookup(&store, Ppn::new(42)), PagePerms::NONE);
    }

    #[test]
    fn read_block_returns_whole_granule() {
        let (mut store, pt) = setup();
        pt.merge(&mut store, Ppn::new(512), PagePerms::READ_ONLY);
        pt.merge(&mut store, Ppn::new(513), PagePerms::READ_WRITE);
        pt.merge(&mut store, Ppn::new(1023), PagePerms::WRITE_ONLY);
        let block = pt.read_block(&store, Ppn::new(700));
        assert_eq!(block[0], PagePerms::READ_ONLY);
        assert_eq!(block[1], PagePerms::READ_WRITE);
        assert_eq!(block[511], PagePerms::WRITE_ONLY);
        assert_eq!(block[2], PagePerms::NONE);
    }

    #[test]
    fn merge_range_huge_page() {
        let (mut store, pt) = setup();
        pt.merge_range(&mut store, Ppn::new(1024), 512, PagePerms::READ_WRITE);
        assert_eq!(pt.lookup(&store, Ppn::new(1024)), PagePerms::READ_WRITE);
        assert_eq!(pt.lookup(&store, Ppn::new(1535)), PagePerms::READ_WRITE);
        assert_eq!(pt.lookup(&store, Ppn::new(1536)), PagePerms::NONE);
    }
}
