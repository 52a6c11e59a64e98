//! The Border Control Cache (BCC): a small cache of the Protection Table
//! (§3.1.2).

// Set/way indices are reduced modulo the fixed cache geometry before
// every array access, so unchecked indexing cannot go out of bounds.
#![allow(clippy::indexing_slicing)]

use bc_mem::addr::Ppn;
use bc_mem::perms::PagePerms;
use bc_sim::stats::HitMiss;

use crate::table::{BLOCK_BYTES, PAGES_PER_BLOCK};

/// BCC geometry.
///
/// Entries are *subblocked*: one tag covers `pages_per_entry` consecutive
/// physical pages' permissions, "similar to a subblock TLB" (§3.1.2).
/// The paper's default — 64 entries × 512 pages/entry — is 8 KiB of
/// permission bits with a 128 MiB reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BccConfig {
    /// Number of entries.
    pub entries: usize,
    /// Pages covered per entry (power of two, ≤ 512).
    pub pages_per_entry: u64,
    /// Associativity.
    pub ways: usize,
    /// Lookup latency in cycles (Table 3: 10 cycles).
    pub latency: u64,
}

impl Default for BccConfig {
    fn default() -> Self {
        BccConfig {
            entries: 64,
            pages_per_entry: 512,
            ways: 8,
            latency: 10,
        }
    }
}

impl BccConfig {
    /// Per-entry tag size in bits (the paper charges a 36-bit tag, §5.2.2).
    pub const TAG_BITS: u64 = 36;

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry.
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0 && self.entries >= self.ways);
        assert!(
            self.pages_per_entry.is_power_of_two() && self.pages_per_entry <= PAGES_PER_BLOCK,
            "pages_per_entry must be a power of two ≤ 512"
        );
        let sets = self.entries / self.ways;
        assert!(
            sets.is_power_of_two(),
            "BCC set count must be a power of two"
        );
        sets
    }

    /// Permission-bit storage in bytes (2 bits per covered page).
    #[must_use]
    pub fn data_bytes(&self) -> u64 {
        self.entries as u64 * self.pages_per_entry * 2 / 8
    }

    /// Total storage in bytes including tags — the x-axis of Figure 6.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        (self.entries as u64 * (self.pages_per_entry * 2 + Self::TAG_BITS)).div_ceil(8)
    }

    /// Physical-memory reach in bytes.
    #[must_use]
    pub fn reach_bytes(&self) -> u64 {
        self.entries as u64 * self.pages_per_entry * bc_mem::PAGE_SIZE
    }
}

/// Largest per-entry permission payload: 512 pages × 2 bits = 128 bytes.
/// Inlining the maximum keeps every entry one flat `Copy` record — no
/// heap indirection on the lookup path; smaller `pages_per_entry`
/// configurations simply use a prefix of the array.
// bc-lint: allow-file(narrowing-cast) — BCC geometry: indices are masked
// (set_mask) or bounded by PAGES_PER_BLOCK before conversion, and the
// bool→u8 casts pack permission bits.
const ENTRY_BITS_BYTES: usize = BLOCK_BYTES;

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Group number: `ppn / pages_per_entry`.
    tag: u64,
    valid: bool,
    last_use: u64,
    /// 2 bits per page, packed 4 pages/byte, `pages_per_entry` pages.
    bits: [u8; ENTRY_BITS_BYTES],
}

impl Entry {
    const EMPTY: Entry = Entry {
        tag: 0,
        valid: false,
        last_use: 0,
        bits: [0; ENTRY_BITS_BYTES],
    };

    fn perms_of(&self, index: u64) -> PagePerms {
        let byte = self.bits[(index / 4) as usize];
        let shift = (index % 4) * 2;
        let bits = (byte >> shift) & 0b11;
        PagePerms::new(bits & 0b01 != 0, bits & 0b10 != 0, false)
    }

    fn set_perms(&mut self, index: u64, perms: PagePerms) {
        let slot = &mut self.bits[(index / 4) as usize];
        let shift = (index % 4) * 2;
        let bits = (perms.readable() as u8) | ((perms.writable() as u8) << 1);
        *slot = (*slot & !(0b11 << shift)) | (bits << shift);
    }
}

/// The Border Control Cache.
///
/// Explicitly managed by the Border Control hardware — it "does not
/// require hardware cache coherence" (§3.1.2); instead every update is
/// written through to the Protection Table by the engine, so the BCC is
/// always a subset view of the table.
///
/// # Example
///
/// ```
/// use bc_core::{Bcc, BccConfig};
/// use bc_mem::{Ppn, PagePerms};
///
/// let mut bcc = Bcc::new(BccConfig::default());
/// assert_eq!(bcc.lookup(Ppn::new(7)), None); // cold miss
/// let block = [PagePerms::READ_ONLY; 512];
/// bcc.fill(Ppn::new(7), &block);
/// assert_eq!(bcc.lookup(Ppn::new(7)), Some(PagePerms::READ_ONLY));
/// ```
#[derive(Debug, Clone)]
pub struct Bcc {
    config: BccConfig,
    /// Flat entry store: entry for (set, way) lives at `set * ways + way`.
    entries: Box<[Entry]>,
    set_mask: u64,
    clock: u64,
    stats: HitMiss,
    /// Incrementally maintained count of valid entries.
    occupancy: usize,
}

impl Bcc {
    /// Creates an empty BCC.
    #[must_use]
    pub fn new(config: BccConfig) -> Self {
        let sets = config.sets();
        Bcc {
            entries: vec![Entry::EMPTY; sets * config.ways].into_boxed_slice(),
            set_mask: sets as u64 - 1,
            clock: 0,
            config,
            stats: HitMiss::new(),
            occupancy: 0,
        }
    }

    /// The geometry in use.
    #[must_use]
    pub fn config(&self) -> BccConfig {
        self.config
    }

    fn group_of(&self, ppn: Ppn) -> u64 {
        ppn.as_u64() / self.config.pages_per_entry
    }

    fn set_of(&self, group: u64) -> usize {
        (group & self.set_mask) as usize
    }

    /// The flat slice holding one set's ways.
    fn set_slice(&self, set: usize) -> &[Entry] {
        let base = set * self.config.ways;
        &self.entries[base..base + self.config.ways]
    }

    fn set_slice_mut(&mut self, set: usize) -> &mut [Entry] {
        let base = set * self.config.ways;
        &mut self.entries[base..base + self.config.ways]
    }

    /// Looks up one page's permissions; `None` is a BCC miss (the engine
    /// then reads the Protection Table block and [`Bcc::fill_bytes`]).
    pub fn lookup(&mut self, ppn: Ppn) -> Option<PagePerms> {
        self.clock += 1;
        let clock = self.clock;
        let group = self.group_of(ppn);
        let index = ppn.as_u64() % self.config.pages_per_entry;
        let set = self.set_of(group);
        let base = set * self.config.ways;
        for way in 0..self.config.ways {
            let e = &mut self.entries[base + way];
            if e.valid && e.tag == group {
                e.last_use = clock;
                let perms = e.perms_of(index);
                self.stats.hit();
                return Some(perms);
            }
        }
        self.stats.miss();
        None
    }

    /// Checks presence without touching LRU/stats.
    #[must_use]
    pub fn peek(&self, ppn: Ppn) -> Option<PagePerms> {
        let group = self.group_of(ppn);
        let index = ppn.as_u64() % self.config.pages_per_entry;
        self.set_slice(self.set_of(group))
            .iter()
            .find(|e| e.valid && e.tag == group)
            .map(|e| e.perms_of(index))
    }

    /// Fills the entry covering `ppn` from a Protection Table block (the
    /// 512-page granule returned by
    /// [`ProtectionTable::read_block`](crate::table::ProtectionTable::read_block)).
    /// Packs the block into the table's 2-bit layout and fills from the
    /// bytes with [`Bcc::fill_bytes`].
    pub fn fill(&mut self, ppn: Ppn, block: &[PagePerms; 512]) {
        let mut bytes = [0u8; BLOCK_BYTES];
        for (i, perms) in block.iter().enumerate() {
            let bits = (perms.readable() as u8) | ((perms.writable() as u8) << 1);
            bytes[i / 4] |= bits << ((i % 4) * 2);
        }
        self.fill_bytes(ppn, &bytes);
    }

    /// Fills the entry covering `ppn` straight from the raw bytes of its
    /// Protection Table block
    /// ([`ProtectionTable::block_bytes`](crate::table::ProtectionTable::block_bytes)):
    /// the entry's bits are the table's bits, so the fill copies the
    /// entry's `pages_per_entry / 4` bytes from the entry's offset in the
    /// block ("we fetch an entire block at a time", §3.1.2). With 1 or 2
    /// pages per entry only the entry's 2-bit fields of byte 0 change.
    /// Evicts LRU on conflict. Eviction needs no writeback: the BCC is
    /// write-through.
    pub fn fill_bytes(&mut self, ppn: Ppn, block: &[u8; BLOCK_BYTES]) {
        self.clock += 1;
        let clock = self.clock;
        let ppe = self.config.pages_per_entry;
        let group = self.group_of(ppn);
        let set_idx = self.set_of(group);
        let set = self.set_slice_mut(set_idx);
        let way = match set.iter().position(|e| !e.valid) {
            Some(w) => w,
            None => set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("non-empty set"),
        };
        let entry = &mut set[way];
        let newly_valid = !entry.valid;
        entry.tag = group;
        entry.valid = true;
        entry.last_use = clock;
        // Position of this entry's group within the 512-page PT block.
        let offset_in_block = (group * ppe) % PAGES_PER_BLOCK;
        let first = (offset_in_block / 4) as usize;
        if ppe >= 4 {
            let len = (ppe / 4) as usize;
            entry.bits[..len].copy_from_slice(&block[first..first + len]);
        } else {
            let mask = (1u8 << (ppe * 2)) - 1;
            let shift = (offset_in_block % 4) * 2;
            entry.bits[0] = (entry.bits[0] & !mask) | ((block[first] >> shift) & mask);
        }
        if newly_valid {
            self.occupancy += 1;
        }
    }

    /// Merges permissions for one page if its entry is present; returns
    /// whether an update happened (if not, the engine must fill first).
    /// The engine writes the same update through to the Protection Table.
    pub fn update(&mut self, ppn: Ppn, perms: PagePerms) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let group = self.group_of(ppn);
        let index = ppn.as_u64() % self.config.pages_per_entry;
        let set = self.set_of(group);
        for e in self.set_slice_mut(set) {
            if e.valid && e.tag == group {
                let old = e.perms_of(index);
                e.set_perms(index, old | perms.border_enforceable());
                e.last_use = clock;
                return true;
            }
        }
        false
    }

    /// Overwrites (possibly downgrading) one page's permissions if
    /// present — used on permission downgrades after the accelerator
    /// flush completes (§3.2.4).
    pub fn overwrite(&mut self, ppn: Ppn, perms: PagePerms) -> bool {
        let group = self.group_of(ppn);
        let index = ppn.as_u64() % self.config.pages_per_entry;
        let set = self.set_of(group);
        for e in self.set_slice_mut(set) {
            if e.valid && e.tag == group {
                e.set_perms(index, perms.border_enforceable());
                return true;
            }
        }
        false
    }

    /// Invalidates the entry covering `ppn`.
    pub fn invalidate_page(&mut self, ppn: Ppn) -> bool {
        let group = self.group_of(ppn);
        let set = self.set_of(group);
        let base = set * self.config.ways;
        for way in 0..self.config.ways {
            let e = &mut self.entries[base + way];
            if e.valid && e.tag == group {
                e.valid = false;
                self.occupancy -= 1;
                return true;
            }
        }
        false
    }

    /// Invalidates everything (full-flush downgrade / process completion).
    pub fn invalidate_all(&mut self) {
        for e in self.entries.iter_mut() {
            e.valid = false;
        }
        self.occupancy = 0;
    }

    /// Visits every cached page permission: `f(ppn, perms)` for each page
    /// covered by a valid entry. Subblocked tags store the *full* group
    /// number, so the page number reconstructs exactly. Used by the audit
    /// layer's BCC ⊆ Protection-Table subset sweep; does not touch
    /// LRU/stats.
    pub fn for_each_valid(&self, mut f: impl FnMut(Ppn, PagePerms)) {
        let ppe = self.config.pages_per_entry;
        for e in self.entries.iter() {
            if !e.valid {
                continue;
            }
            for i in 0..ppe {
                f(Ppn::new(e.tag * ppe + i), e.perms_of(i));
            }
        }
    }

    /// Test-only fault injection: forcibly rewrites a cached page's
    /// permissions *without* the engine's Protection-Table write-through,
    /// breaking the subset invariant on purpose. Returns whether an entry
    /// covering `ppn` was present to corrupt.
    #[doc(hidden)]
    pub fn debug_corrupt(&mut self, ppn: Ppn, perms: PagePerms) -> bool {
        let group = self.group_of(ppn);
        let index = ppn.as_u64() % self.config.pages_per_entry;
        let set = self.set_of(group);
        for e in self.set_slice_mut(set) {
            if e.valid && e.tag == group {
                e.set_perms(index, perms.border_enforceable());
                return true;
            }
        }
        false
    }

    /// Number of valid entries (incrementally maintained).
    #[must_use]
    pub fn valid_entries(&self) -> usize {
        self.occupancy
    }

    /// Hit/miss statistics — the quantity swept in Figure 6.
    #[must_use]
    pub fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Resets hit/miss statistics (between measurement phases).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

/// Snapshot codec. Entries are saved *positionally* (fill scans for the
/// first invalid way, so which slot holds which entry is behavioral);
/// the config is fixed by the build that is read over, and `occupancy`
/// is recounted from the restored valid bits.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::Bcc;

    impl Snap for Bcc {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"BCC0")?;
            for e in self.entries.iter_mut() {
                c.snap(&mut e.valid)?;
                if e.valid {
                    c.snap(&mut e.tag)?;
                    c.snap(&mut e.last_use)?;
                    c.bytes(&mut e.bits, "BCC entry bits")?;
                }
            }
            c.snap(&mut self.clock)?;
            c.snap(&mut self.stats)?;
            if c.reading() {
                self.occupancy = self.entries.iter().filter(|e| e.valid).count();
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_with(pairs: &[(u64, PagePerms)]) -> [PagePerms; 512] {
        let mut b = [PagePerms::NONE; 512];
        for &(i, p) in pairs {
            b[i as usize] = p;
        }
        b
    }

    #[test]
    fn default_config_is_paper_8kib() {
        let c = BccConfig::default();
        assert_eq!(c.data_bytes(), 8 << 10);
        assert_eq!(c.reach_bytes(), 128 << 20);
        assert_eq!(c.sets(), 8);
    }

    #[test]
    fn cold_miss_then_fill_then_hit() {
        let mut bcc = Bcc::new(BccConfig::default());
        assert_eq!(bcc.lookup(Ppn::new(100)), None);
        bcc.fill(Ppn::new(100), &block_with(&[(100, PagePerms::READ_WRITE)]));
        assert_eq!(bcc.lookup(Ppn::new(100)), Some(PagePerms::READ_WRITE));
        // Neighbour in the same 512-page group is also present (subblocking).
        assert_eq!(bcc.lookup(Ppn::new(101)), Some(PagePerms::NONE));
        assert_eq!(bcc.stats().hits(), 2);
        assert_eq!(bcc.stats().misses(), 1);
    }

    #[test]
    fn small_entries_cover_partial_block() {
        let cfg = BccConfig {
            entries: 16,
            pages_per_entry: 32,
            ways: 4,
            latency: 10,
        };
        let mut bcc = Bcc::new(cfg);
        // Page 100 lives in group 3 (pages 96..128), block offset 96..128.
        bcc.fill(
            Ppn::new(100),
            &block_with(&[(100, PagePerms::READ_ONLY), (127, PagePerms::READ_WRITE)]),
        );
        assert_eq!(bcc.peek(Ppn::new(100)), Some(PagePerms::READ_ONLY));
        assert_eq!(bcc.peek(Ppn::new(127)), Some(PagePerms::READ_WRITE));
        // Page 128 is in the next group: miss.
        assert_eq!(bcc.peek(Ppn::new(128)), None);
    }

    #[test]
    fn update_merges_only_when_present() {
        let mut bcc = Bcc::new(BccConfig::default());
        assert!(!bcc.update(Ppn::new(5), PagePerms::READ_ONLY));
        bcc.fill(Ppn::new(5), &[PagePerms::NONE; 512]);
        assert!(bcc.update(Ppn::new(5), PagePerms::READ_ONLY));
        assert!(bcc.update(Ppn::new(5), PagePerms::WRITE_ONLY));
        assert_eq!(bcc.peek(Ppn::new(5)), Some(PagePerms::READ_WRITE));
    }

    #[test]
    fn update_drops_execute() {
        let mut bcc = Bcc::new(BccConfig::default());
        bcc.fill(Ppn::new(5), &[PagePerms::NONE; 512]);
        bcc.update(Ppn::new(5), PagePerms::READ_EXEC);
        assert_eq!(bcc.peek(Ppn::new(5)), Some(PagePerms::READ_ONLY));
    }

    #[test]
    fn overwrite_downgrades() {
        let mut bcc = Bcc::new(BccConfig::default());
        bcc.fill(Ppn::new(5), &block_with(&[(5, PagePerms::READ_WRITE)]));
        assert!(bcc.overwrite(Ppn::new(5), PagePerms::NONE));
        assert_eq!(bcc.peek(Ppn::new(5)), Some(PagePerms::NONE));
        assert!(!bcc.overwrite(Ppn::new(u64::MAX / 4096), PagePerms::NONE));
    }

    #[test]
    fn lru_eviction() {
        let cfg = BccConfig {
            entries: 2,
            pages_per_entry: 512,
            ways: 2,
            latency: 10,
        };
        let mut bcc = Bcc::new(cfg);
        bcc.fill(Ppn::new(0), &[PagePerms::READ_ONLY; 512]); // group 0
        bcc.fill(Ppn::new(512), &[PagePerms::READ_ONLY; 512]); // group 1
        bcc.lookup(Ppn::new(0)); // touch group 0
        bcc.fill(Ppn::new(1024), &[PagePerms::READ_ONLY; 512]); // evicts group 1
        assert!(bcc.peek(Ppn::new(0)).is_some());
        assert!(bcc.peek(Ppn::new(512)).is_none());
        assert!(bcc.peek(Ppn::new(1024)).is_some());
    }

    #[test]
    fn invalidate_page_and_all() {
        let mut bcc = Bcc::new(BccConfig::default());
        bcc.fill(Ppn::new(0), &[PagePerms::READ_ONLY; 512]);
        bcc.fill(Ppn::new(512), &[PagePerms::READ_ONLY; 512]);
        assert_eq!(bcc.valid_entries(), 2);
        assert!(bcc.invalidate_page(Ppn::new(100)));
        assert_eq!(bcc.valid_entries(), 1);
        bcc.invalidate_all();
        assert_eq!(bcc.valid_entries(), 0);
    }

    #[test]
    fn total_bytes_accounts_tags() {
        let c = BccConfig {
            entries: 8,
            pages_per_entry: 1,
            ways: 8,
            latency: 10,
        };
        // 8 entries * (2 + 36) bits = 304 bits = 38 bytes.
        assert_eq!(c.total_bytes(), 38);
        let d = BccConfig::default();
        // 64 * (1024 + 36) bits = 8480 bytes.
        assert_eq!(d.total_bytes(), 8480);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_pages_per_entry_rejected() {
        let _ = Bcc::new(BccConfig {
            entries: 8,
            pages_per_entry: 3,
            ways: 8,
            latency: 10,
        });
    }
}
