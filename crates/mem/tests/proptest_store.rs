//! Property tests: the sparse physical store is byte-for-byte faithful.

use std::collections::{BTreeSet, HashMap};

use bc_mem::{PhysAddr, PhysMemStore};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary writes (crossing page boundaries at will) read back
    /// exactly as a flat byte-map model says they should.
    #[test]
    fn writes_read_back_like_flat_memory(
        writes in proptest::collection::vec(
            (0u64..40_000, proptest::collection::vec(any::<u8>(), 1..300)),
            1..40,
        ),
        probes in proptest::collection::vec((0u64..41_000, 1usize..64), 1..20),
    ) {
        let mut store = PhysMemStore::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (addr, data) in &writes {
            store.write(PhysAddr::new(*addr), data);
            for (i, b) in data.iter().enumerate() {
                model.insert(addr + i as u64, *b);
            }
        }
        for (addr, len) in probes {
            let got = store.read_vec(PhysAddr::new(addr), len);
            for (i, b) in got.iter().enumerate() {
                let expect = model.get(&(addr + i as u64)).copied().unwrap_or(0);
                prop_assert_eq!(*b, expect, "byte at {:#x}", addr + i as u64);
            }
        }
    }

    /// copy_page + zero_page preserve / clear exactly one page.
    #[test]
    fn page_ops_are_page_exact(fill in any::<u8>(), from in 1u64..30, to in 31u64..60) {
        let mut store = PhysMemStore::new();
        let data = vec![fill; 4096];
        store.write(bc_mem::Ppn::new(from).base(), &data);
        store.copy_page(bc_mem::Ppn::new(from), bc_mem::Ppn::new(to));
        prop_assert_eq!(store.read_vec(bc_mem::Ppn::new(to).base(), 4096), data.clone());
        store.zero_page(bc_mem::Ppn::new(from));
        prop_assert_eq!(store.read_vec(bc_mem::Ppn::new(from).base(), 8), vec![0u8; 8]);
        // The copy survives the source's zeroing, which released its page.
        prop_assert_eq!(store.read_vec(bc_mem::Ppn::new(to).base(), 4096), data);
        prop_assert_eq!(store.resident_pages(), 1);
    }

    /// The dense frame slab (pages below the configured frame count live
    /// in one contiguous arena; pages above fall back to the sparse map)
    /// is indistinguishable from the old pure-HashMap store. Interleaves
    /// writes, byte ops, page copies and zeroings straddling the
    /// dense/sparse boundary against a flat byte-map model, and checks
    /// that exactly the pages written since their last zeroing hold
    /// storage.
    #[test]
    fn dense_slab_matches_flat_memory_model(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..16, proptest::collection::vec(any::<u8>(), 1..200), 0u64..500),
            1..60,
        ),
        probes in proptest::collection::vec((0u64..66_000, 1usize..64), 1..20),
    ) {
        // 8 dense frames; ppn 0..8 hit the arena, ppn 8..16 the sparse
        // fallback. `offset` pushes some writes across both boundaries.
        let mut store = PhysMemStore::with_frames(8);
        let mut model: HashMap<u64, u8> = HashMap::new();
        // Pages written since they were last zeroed: the ones that must
        // hold storage.
        let mut written: BTreeSet<u64> = BTreeSet::new();
        for (sel, ppn, data, offset) in &ops {
            let base = ppn * 4096 + offset;
            match sel {
                0..=3 => {
                    store.write(PhysAddr::new(base), data);
                    for (i, b) in data.iter().enumerate() {
                        model.insert(base + i as u64, *b);
                    }
                    written.extend(base / 4096..=(base + data.len() as u64 - 1) / 4096);
                }
                4 => {
                    store.write_byte(PhysAddr::new(base), data[0]);
                    model.insert(base, data[0]);
                    written.insert(base / 4096);
                }
                5 => {
                    let got = store.read_byte(PhysAddr::new(base));
                    let expect = model.get(&base).copied().unwrap_or(0);
                    prop_assert_eq!(got, expect);
                }
                6 => {
                    let to = (ppn + 7) % 16; // copies cross the boundary both ways
                    store.copy_page(bc_mem::Ppn::new(*ppn), bc_mem::Ppn::new(to));
                    for i in 0..4096u64 {
                        let b = model.get(&(ppn * 4096 + i)).copied().unwrap_or(0);
                        if b == 0 {
                            model.remove(&(to * 4096 + i));
                        } else {
                            model.insert(to * 4096 + i, b);
                        }
                    }
                    if written.contains(ppn) {
                        written.insert(to);
                    } else {
                        written.remove(&to);
                    }
                }
                _ => {
                    store.zero_page(bc_mem::Ppn::new(*ppn));
                    for i in 0..4096u64 {
                        model.remove(&(ppn * 4096 + i));
                    }
                    written.remove(ppn);
                }
            }
            prop_assert_eq!(store.resident_pages(), written.len());
        }
        for (addr, len) in probes {
            let got = store.read_vec(PhysAddr::new(addr), len);
            for (i, b) in got.iter().enumerate() {
                let expect = model.get(&(addr + i as u64)).copied().unwrap_or(0);
                prop_assert_eq!(*b, expect, "byte at {:#x}", addr + i as u64);
            }
        }
    }
}
