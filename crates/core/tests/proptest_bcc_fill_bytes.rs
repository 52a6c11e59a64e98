//! Property test pinning the byte-level BCC fill to the per-page fill it
//! replaced.
//!
//! The engine fills the BCC straight from the raw bytes of a Protection
//! Table block (`ProtectionTable::block_bytes` + `Bcc::fill_bytes`): the
//! entry's bits are copied, not decoded to 512 `PagePerms` and packed
//! back. The reference below is a test-only copy of the decode-and-pack
//! path: the table decoder (`read_block`, with its per-page bounds rule)
//! and a BCC whose fill writes each page's 2-bit field with `set_perms`.
//! Under random merges, sets and raw writes into the table (whose bounds
//! register ends mid-block and mid-byte), fills that reuse ways, lookups
//! and invalidations, the two BCCs must have equal snapshot bytes after
//! every fill — these carry every entry's 128 bit-bytes, so bits outside
//! the entry's own pages count too — and equal lookups for every page of
//! the filled entry.

use bc_core::table::PAGES_PER_BLOCK;
use bc_core::{Bcc, BccConfig, ProtectionTable};
use bc_mem::{PagePerms, PhysMemStore, Ppn};
use bc_sim::rng::SimRng;
use bc_sim::snapshot::to_bytes;
use proptest::prelude::*;

/// Test-only copy of the decode-and-pack fill path.
mod reference {
    use super::{BccConfig, PagePerms, PhysMemStore, Ppn, ProtectionTable, PAGES_PER_BLOCK};
    use bc_sim::snapshot::SnapWriter;

    /// The table decoder: each page of the block containing `ppn`,
    /// `NONE` past the bounds register.
    pub fn read_block(table: &ProtectionTable, store: &PhysMemStore, ppn: Ppn) -> [PagePerms; 512] {
        let block_base_ppn = Ppn::new(ppn.as_u64() - (ppn.as_u64() % PAGES_PER_BLOCK));
        let mut bytes = [0u8; 128];
        store.read_into(table.block_addr(ppn), &mut bytes);
        let mut out = [PagePerms::NONE; 512];
        for (i, slot) in out.iter_mut().enumerate() {
            let p = block_base_ppn.add(i as u64);
            if !table.in_bounds(p) {
                continue;
            }
            let byte = bytes[i / 4];
            let shift = (i % 4) * 2;
            let bits = (byte >> shift) & 0b11;
            *slot = PagePerms::new(bits & 0b01 != 0, bits & 0b10 != 0, false);
        }
        out
    }

    #[derive(Debug, Clone, Copy)]
    struct Entry {
        tag: u64,
        valid: bool,
        last_use: u64,
        bits: [u8; 128],
    }

    impl Entry {
        const EMPTY: Entry = Entry {
            tag: 0,
            valid: false,
            last_use: 0,
            bits: [0; 128],
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

    /// A BCC filled page by page, with the real one's slab layout, LRU
    /// and statistics so the two snapshot identically.
    pub struct RefBcc {
        config: BccConfig,
        entries: Vec<Entry>,
        set_mask: u64,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl RefBcc {
        pub fn new(config: BccConfig) -> Self {
            let sets = config.sets();
            RefBcc {
                entries: vec![Entry::EMPTY; sets * config.ways],
                set_mask: sets as u64 - 1,
                clock: 0,
                config,
                hits: 0,
                misses: 0,
            }
        }

        fn group_of(&self, ppn: Ppn) -> u64 {
            ppn.as_u64() / self.config.pages_per_entry
        }

        fn set_range(&self, group: u64) -> std::ops::Range<usize> {
            let base = (group & self.set_mask) as usize * self.config.ways;
            base..base + self.config.ways
        }

        pub fn lookup(&mut self, ppn: Ppn) -> Option<PagePerms> {
            self.clock += 1;
            let clock = self.clock;
            let group = self.group_of(ppn);
            let index = ppn.as_u64() % self.config.pages_per_entry;
            let range = self.set_range(group);
            for e in &mut self.entries[range] {
                if e.valid && e.tag == group {
                    e.last_use = clock;
                    self.hits += 1;
                    return Some(e.perms_of(index));
                }
            }
            self.misses += 1;
            None
        }

        pub fn fill(&mut self, ppn: Ppn, block: &[PagePerms; 512]) {
            self.clock += 1;
            let clock = self.clock;
            let ppe = self.config.pages_per_entry;
            let group = self.group_of(ppn);
            let range = self.set_range(group);
            let set = &mut self.entries[range];
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
            entry.tag = group;
            entry.valid = true;
            entry.last_use = clock;
            let offset_in_block = (group * ppe) % PAGES_PER_BLOCK;
            for i in 0..ppe {
                entry.set_perms(i, block[(offset_in_block + i) as usize]);
            }
        }

        pub fn invalidate_page(&mut self, ppn: Ppn) {
            let group = self.group_of(ppn);
            let range = self.set_range(group);
            if let Some(e) = self.entries[range]
                .iter_mut()
                .find(|e| e.valid && e.tag == group)
            {
                e.valid = false;
            }
        }

        pub fn invalidate_all(&mut self) {
            for e in &mut self.entries {
                e.valid = false;
            }
        }

        /// The bytes `Bcc`'s snapshot codec writes for the same state.
        pub fn snap_bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.section(*b"BCC0");
            for e in &self.entries {
                w.bool(e.valid);
                if e.valid {
                    w.u64(e.tag);
                    w.u64(e.last_use);
                    w.bytes(&e.bits);
                }
            }
            w.u64(self.clock);
            w.u64(self.hits);
            w.u64(self.misses);
            w.into_bytes()
        }
    }
}

use reference::RefBcc;

/// Geometries covering every fill shape: sub-byte (1, 2 pages per
/// entry), one byte (4), partial blocks (32, 64) and the whole block
/// (512). Few entries, so fills keep evicting and reusing ways.
const GEOMETRIES: [(u64, usize, usize); 6] = [
    // (pages_per_entry, entries, ways)
    (1, 8, 2),
    (2, 8, 4),
    (4, 16, 4),
    (32, 8, 2),
    (64, 16, 4),
    (512, 4, 2),
];

/// First page of the table's storage in physical memory.
const TABLE_BASE: u64 = 1000;

#[derive(Debug, Clone)]
enum Op {
    Merge(u64, u8),
    Set(u64, u8),
    /// A raw byte written at `table byte offset = bounds / 4 + delta`:
    /// past the bounds register (or into its last, shared byte).
    Scribble(u64, u8),
    Fill(u64),
    Lookup(u64),
    InvalidatePage(u64),
    InvalidateAll,
}

fn perms_from(bits: u8) -> PagePerms {
    PagePerms::new(bits & 0b01 != 0, bits & 0b10 != 0, false)
}

/// A page number: anywhere up to a block past the bounds, or within a
/// few pages of the bounds register.
fn page(bounds: u64, near: bool, raw: u64) -> u64 {
    if near {
        (bounds + raw % 16).max(8) - 8
    } else {
        raw % (bounds + PAGES_PER_BLOCK)
    }
}

fn op_strategy() -> impl Strategy<Value = (u8, bool, u64, u8)> {
    (0u8..14, any::<bool>(), any::<u64>(), any::<u8>())
}

fn decode_op(bounds: u64, (sel, near, raw, byte): (u8, bool, u64, u8)) -> Op {
    let p = page(bounds, near, raw);
    match sel {
        0..=2 => Op::Merge(p, byte),
        3 => Op::Set(p, byte),
        4 => Op::Scribble(raw % 160, byte),
        5..=8 => Op::Fill(p),
        9..=11 => Op::Lookup(p),
        12 => Op::InvalidatePage(p),
        _ => Op::InvalidateAll,
    }
}

fn snap_of(bcc: &mut Bcc) -> Vec<u8> {
    to_bytes(bcc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn byte_fill_matches_per_page_fill(
        geometry in 0usize..6,
        blocks in 1u64..4,
        tail in 0u64..512,
        seed in any::<u64>(),
        raw_ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let (pages_per_entry, entries, ways) = GEOMETRIES[geometry];
        let cfg = BccConfig { entries, pages_per_entry, ways, latency: 10 };
        // The bounds register ends `tail` pages into the last block: mid
        // block, and mid byte whenever `tail % 4 != 0`.
        let bounds = (blocks - 1) * PAGES_PER_BLOCK + tail.max(1);
        let table = ProtectionTable::new(Ppn::new(TABLE_BASE), bounds);
        let mut store = PhysMemStore::new();
        // Seeded permissions for every page, and raw bytes past the
        // bounds (which the table's own writes never touch), so both the
        // entry's offset and the bounds rule show in the bytes.
        let mut rng = SimRng::seed_from(seed);
        for p in 0..bounds {
            table.set(&mut store, Ppn::new(p), perms_from((rng.next_u64() & 0b11) as u8));
        }
        let last = table.entry_addr(Ppn::new(bounds));
        for k in 0..160 {
            let addr = last.offset(k);
            if k > 0 || bounds.is_multiple_of(4) {
                store.write_byte(addr, (rng.next_u64() & 0xff) as u8);
            } else {
                // The byte shared with the last in-bounds pages: scribble
                // only its out-of-bounds fields.
                let live = (1u8 << ((bounds % 4) * 2)) - 1;
                let old = store.read_byte(addr);
                store.write_byte(addr, (old & live) | (!live & 0b1010_1010));
            }
        }

        let mut real = Bcc::new(cfg);
        let mut model = RefBcc::new(cfg);
        for (step, raw) in raw_ops.into_iter().enumerate() {
            match decode_op(bounds, raw) {
                Op::Merge(p, bits) => table.merge(&mut store, Ppn::new(p), perms_from(bits)),
                Op::Set(p, bits) => table.set(&mut store, Ppn::new(p), perms_from(bits)),
                Op::Scribble(delta, byte) => {
                    let addr = table.entry_addr(Ppn::new(bounds)).offset(delta);
                    store.write_byte(addr, byte);
                }
                Op::Fill(p) => {
                    let ppn = Ppn::new(p);
                    real.fill_bytes(ppn, &table.block_bytes(&store, ppn));
                    model.fill(ppn, &reference::read_block(&table, &store, ppn));
                    prop_assert_eq!(snap_of(&mut real), model.snap_bytes(), "snapshot after fill of page {} at step {}", p, step);
                    let first = p - p % pages_per_entry;
                    for q in first..first + pages_per_entry {
                        prop_assert_eq!(real.lookup(Ppn::new(q)), model.lookup(Ppn::new(q)), "page {} after fill of page {} at step {}", q, p, step);
                    }
                }
                Op::Lookup(p) => {
                    prop_assert_eq!(real.lookup(Ppn::new(p)), model.lookup(Ppn::new(p)), "lookup of page {} at step {}", p, step);
                }
                Op::InvalidatePage(p) => {
                    real.invalidate_page(Ppn::new(p));
                    model.invalidate_page(Ppn::new(p));
                }
                Op::InvalidateAll => {
                    real.invalidate_all();
                    model.invalidate_all();
                }
            }
        }
        prop_assert_eq!(snap_of(&mut real), model.snap_bytes(), "final snapshot");
    }
}

/// `Bcc::fill` (perms in, packed into the table's layout) and the byte
/// fill leave identical state, and `read_block` decodes `block_bytes`.
#[test]
fn perm_fill_and_read_block_wrap_the_byte_path() {
    let table = ProtectionTable::new(Ppn::new(TABLE_BASE), 3 * PAGES_PER_BLOCK - 5);
    let mut store = PhysMemStore::new();
    let mut rng = SimRng::seed_from(7);
    for p in 0..table.bounds_pages() {
        table.set(
            &mut store,
            Ppn::new(p),
            perms_from((rng.next_u64() & 0b11) as u8),
        );
    }
    for &(pages_per_entry, entries, ways) in &GEOMETRIES {
        let cfg = BccConfig {
            entries,
            pages_per_entry,
            ways,
            latency: 10,
        };
        let mut by_perms = Bcc::new(cfg);
        let mut by_bytes = Bcc::new(cfg);
        for p in (0..table.bounds_pages() + 8).step_by(7) {
            let ppn = Ppn::new(p);
            let bytes = table.block_bytes(&store, ppn);
            let perms = table.read_block(&store, ppn);
            for (i, &decoded) in perms.iter().enumerate() {
                let bits = (bytes[i / 4] >> ((i % 4) * 2)) & 0b11;
                assert_eq!(decoded, perms_from(bits), "page {i} of the block of {p}");
            }
            by_perms.fill(ppn, &perms);
            by_bytes.fill_bytes(ppn, &bytes);
            assert_eq!(
                snap_of(&mut by_perms),
                snap_of(&mut by_bytes),
                "fill of page {p}"
            );
        }
    }
}
