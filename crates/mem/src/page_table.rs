//! A 4-level radix page table with a cost-reporting walker.
//!
//! The table mirrors an x86-64-style layout: four levels of nodes of up
//! to 512 slots, 9 bits of virtual page number per level. Base (4 KiB)
//! pages leaf at level 0; huge (2 MiB) pages leaf at level 1 and must be
//! 512-page aligned. Translations report how many node accesses the walk
//! performed, which the IOMMU uses to charge page-walk memory traffic;
//! that count follows the radix structure, not how the nodes are stored.
//!
//! A node stores its slots only up to its highest mapped one: `map` grows
//! a node's slot vector to the slot it writes, and a lookup reads a slot
//! past the end as empty. A process that maps a few pages (a tenant maps
//! 8) costs a few slots per node rather than 512 slots of 16 bytes each,
//! and listing or dropping its table visits only those slots. A table
//! that maps a contiguous region keeps dense leaf nodes, which cost what
//! a 512-slot node costs.

// `Vpn::radix_index` masks to 9 bits, and `map` grows a node to the slot
// it writes before indexing it; every other descent reads with `get`.
#![allow(clippy::indexing_slicing)]

use std::error::Error;
use std::fmt;

use crate::addr::{Asid, PageSize, Ppn, Vpn};
use crate::perms::PagePerms;

const FANOUT: usize = 512;

/// One translation result returned by [`PageTable::translate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical page the virtual page maps to. For huge pages this is the
    /// physical page of the *requested* 4 KiB sub-page, not the huge-page
    /// base, so callers can use it directly.
    pub ppn: Ppn,
    /// Permissions of the mapping.
    pub perms: PagePerms,
    /// Size of the underlying mapping.
    pub size: PageSize,
    /// Number of page-table node accesses the walk performed.
    pub levels_walked: u64,
    /// Whether the page is currently marked copy-on-write.
    pub copy_on_write: bool,
}

/// Errors from [`PageTable::map`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The virtual page is already mapped.
    AlreadyMapped(Vpn),
    /// A huge-page mapping was requested at a non-512-page-aligned VPN/PPN.
    MisalignedHugePage(Vpn),
    /// The requested range overlaps an existing huge page.
    OverlapsHugePage(Vpn),
    /// An interior node expected during the radix descent was missing or
    /// a leaf — the table structure is internally inconsistent.
    TableCorrupt(Vpn),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::AlreadyMapped(v) => write!(f, "virtual page {v} is already mapped"),
            MapError::MisalignedHugePage(v) => {
                write!(f, "huge page mapping at {v} is not 2MiB aligned")
            }
            MapError::OverlapsHugePage(v) => {
                write!(f, "mapping at {v} overlaps an existing huge page")
            }
            MapError::TableCorrupt(v) => {
                write!(f, "page table structure is corrupt on the path to {v}")
            }
        }
    }
}

impl Error for MapError {}

/// Errors from [`PageTable::translate`] and friends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateError {
    /// No mapping exists for the virtual page.
    NotMapped(Vpn),
    /// An interior node expected during the radix descent was missing or
    /// a leaf — the table structure is internally inconsistent.
    TableCorrupt(Vpn),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::NotMapped(v) => write!(f, "virtual page {v} is not mapped"),
            TranslateError::TableCorrupt(v) => {
                write!(f, "page table structure is corrupt on the path to {v}")
            }
        }
    }
}

impl Error for TranslateError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeafEntry {
    ppn: Ppn,
    perms: PagePerms,
    size: PageSize,
    copy_on_write: bool,
}

#[derive(Debug)]
enum Slot {
    Empty,
    Table(Box<Node>),
    Leaf(LeafEntry),
}

/// A radix node. `slots` ends at the highest slot `map` has written; a
/// slot past the end is empty.
#[derive(Debug, Default)]
struct Node {
    slots: Vec<Slot>,
}

impl Node {
    /// An empty node; it allocates nothing until a slot is mapped.
    fn new() -> Self {
        Node::default()
    }

    /// The slot at `idx`, grown to if the node ends before it: the node
    /// then holds `idx + 1` slots in room for the next power of two of
    /// them, never past `FANOUT` (`Vec::resize_with` alone may double the
    /// room past it). A dense fill therefore reallocates a node 10
    /// times, not once per slot.
    fn slot_grown(&mut self, idx: usize) -> &mut Slot {
        debug_assert!(idx < FANOUT, "radix index {idx} out of range");
        if idx >= self.slots.len() {
            let room = (idx + 1).next_power_of_two().min(FANOUT);
            self.slots.reserve_exact(room - self.slots.len());
            self.slots.resize_with(idx + 1, || Slot::Empty);
        }
        &mut self.slots[idx]
    }
}

/// A process page table: the OS-owned source of truth for virtual-to-
/// physical mappings and their permissions.
///
/// # Example
///
/// ```
/// use bc_mem::{PageTable, Asid, Vpn, Ppn, PagePerms, PageSize};
///
/// let mut pt = PageTable::new(Asid::new(7));
/// pt.map(Vpn::new(100), Ppn::new(555), PagePerms::READ_ONLY, PageSize::Base4K)?;
/// assert_eq!(pt.translate(Vpn::new(100))?.ppn, Ppn::new(555));
/// assert!(pt.translate(Vpn::new(101)).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PageTable {
    asid: Asid,
    root: Node,
    mapped_base_pages: u64,
    walks: u64,
    walk_node_accesses: u64,
}

impl PageTable {
    /// Creates an empty page table for address space `asid`.
    #[must_use]
    pub fn new(asid: Asid) -> Self {
        PageTable {
            asid,
            root: Node::new(),
            mapped_base_pages: 0,
            walks: 0,
            walk_node_accesses: 0,
        }
    }

    /// The address space this table belongs to.
    #[must_use]
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Number of 4 KiB pages currently mapped (huge pages count as 512).
    #[must_use]
    pub fn mapped_base_pages(&self) -> u64 {
        self.mapped_base_pages
    }

    /// Total translations performed (for stats).
    #[must_use]
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Total page-table node accesses across all walks (for stats).
    #[must_use]
    pub fn walk_node_accesses(&self) -> u64 {
        self.walk_node_accesses
    }

    /// Maps `vpn` → `ppn` with `perms`.
    ///
    /// For [`PageSize::Huge2M`], both `vpn` and `ppn` must be 512-page
    /// aligned, and the whole 2 MiB range must be unmapped.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the page (or any part of a huge page) is
    /// already mapped or the alignment requirement is violated.
    pub fn map(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        perms: PagePerms,
        size: PageSize,
    ) -> Result<(), MapError> {
        self.map_with_cow(vpn, ppn, perms, size, false)
    }

    /// Like [`PageTable::map`] but marks the mapping copy-on-write.
    ///
    /// # Errors
    ///
    /// Same as [`PageTable::map`].
    pub fn map_with_cow(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        perms: PagePerms,
        size: PageSize,
        copy_on_write: bool,
    ) -> Result<(), MapError> {
        let leaf_level = match size {
            PageSize::Base4K => 0,
            PageSize::Huge2M => {
                if !vpn.as_u64().is_multiple_of(512) || !ppn.as_u64().is_multiple_of(512) {
                    return Err(MapError::MisalignedHugePage(vpn));
                }
                1
            }
        };
        let entry = LeafEntry {
            ppn,
            perms,
            size,
            copy_on_write,
        };
        let mut node = &mut self.root;
        for level in (leaf_level + 1..=3).rev() {
            let slot = node.slot_grown(vpn.radix_index(level));
            match slot {
                Slot::Empty => {
                    *slot = Slot::Table(Box::new(Node::new()));
                }
                Slot::Table(_) => {}
                Slot::Leaf(_) => return Err(MapError::OverlapsHugePage(vpn)),
            }
            node = match slot {
                Slot::Table(t) => t,
                _ => return Err(MapError::TableCorrupt(vpn)),
            };
        }
        let slot = node.slot_grown(vpn.radix_index(leaf_level));
        match slot {
            Slot::Empty => {
                *slot = Slot::Leaf(entry);
                self.mapped_base_pages += size.base_pages();
                Ok(())
            }
            Slot::Leaf(_) => Err(MapError::AlreadyMapped(vpn)),
            // A base mapping cannot replace an interior node that holds
            // smaller mappings; a huge mapping overlapping base pages lands
            // here too.
            Slot::Table(_) => Err(MapError::OverlapsHugePage(vpn)),
        }
    }

    /// Translates a virtual page, charging and reporting walk cost.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError::NotMapped`] if no mapping covers `vpn`.
    pub fn translate(&mut self, vpn: Vpn) -> Result<Translation, TranslateError> {
        self.walks += 1;
        let (entry, levels) = self.lookup(vpn)?;
        self.walk_node_accesses += levels;
        Ok(Self::materialize(vpn, entry, levels))
    }

    /// Read-only translation that does not update walk statistics; used by
    /// invariant checks and tests, not by the timing model.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError::NotMapped`] if no mapping covers `vpn`.
    pub fn peek(&self, vpn: Vpn) -> Result<Translation, TranslateError> {
        let (entry, levels) = self.lookup(vpn)?;
        Ok(Self::materialize(vpn, entry, levels))
    }

    fn materialize(vpn: Vpn, entry: LeafEntry, levels: u64) -> Translation {
        let ppn = match entry.size {
            PageSize::Base4K => entry.ppn,
            PageSize::Huge2M => Ppn::new(entry.ppn.as_u64() + (vpn.as_u64() % 512)),
        };
        Translation {
            ppn,
            perms: entry.perms,
            size: entry.size,
            levels_walked: levels,
            copy_on_write: entry.copy_on_write,
        }
    }

    fn lookup(&self, vpn: Vpn) -> Result<(LeafEntry, u64), TranslateError> {
        let mut node = &self.root;
        let mut accesses = 1u64; // root access
        for level in (0..=3).rev() {
            match node.slots.get(vpn.radix_index(level)) {
                None | Some(Slot::Empty) => return Err(TranslateError::NotMapped(vpn)),
                Some(Slot::Leaf(e)) => return Ok((*e, accesses)),
                Some(Slot::Table(t)) => {
                    node = t;
                    accesses += 1;
                }
            }
        }
        Err(TranslateError::NotMapped(vpn))
    }

    fn lookup_mut(&mut self, vpn: Vpn) -> Result<&mut LeafEntry, TranslateError> {
        let mut node = &mut self.root;
        for level in (0..=3).rev() {
            match node.slots.get_mut(vpn.radix_index(level)) {
                None | Some(Slot::Empty) => return Err(TranslateError::NotMapped(vpn)),
                Some(Slot::Leaf(e)) => return Ok(e),
                Some(Slot::Table(t)) => node = t,
            }
        }
        Err(TranslateError::NotMapped(vpn))
    }

    /// Changes the permissions of an existing mapping, returning the old
    /// permissions.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError::NotMapped`] if `vpn` has no mapping.
    pub fn protect(&mut self, vpn: Vpn, perms: PagePerms) -> Result<PagePerms, TranslateError> {
        let entry = self.lookup_mut(vpn)?;
        let old = entry.perms;
        entry.perms = perms;
        Ok(old)
    }

    /// Clears or sets the copy-on-write flag of an existing mapping.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError::NotMapped`] if `vpn` has no mapping.
    pub fn set_copy_on_write(&mut self, vpn: Vpn, cow: bool) -> Result<(), TranslateError> {
        let entry = self.lookup_mut(vpn)?;
        entry.copy_on_write = cow;
        Ok(())
    }

    /// Replaces the physical page of an existing mapping (used for CoW
    /// resolution, swap-in, and memory compaction), returning the old PPN.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError::NotMapped`] if `vpn` has no mapping.
    pub fn remap(&mut self, vpn: Vpn, new_ppn: Ppn) -> Result<Ppn, TranslateError> {
        let entry = self.lookup_mut(vpn)?;
        let old = entry.ppn;
        entry.ppn = new_ppn;
        Ok(old)
    }

    /// Removes a mapping, returning its translation (walk stats untouched).
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError::NotMapped`] if `vpn` has no mapping.
    pub fn unmap(&mut self, vpn: Vpn) -> Result<Translation, TranslateError> {
        // Find leaf level first (immutable), then clear.
        let (entry, _) = self.lookup(vpn)?;
        let leaf_level = match entry.size {
            PageSize::Base4K => 0,
            PageSize::Huge2M => 1,
        };
        let mut node = &mut self.root;
        for level in (leaf_level + 1..=3).rev() {
            node = match node.slots.get_mut(vpn.radix_index(level)) {
                Some(Slot::Table(t)) => t,
                _ => return Err(TranslateError::TableCorrupt(vpn)),
            };
        }
        match node.slots.get_mut(vpn.radix_index(leaf_level)) {
            Some(slot) => *slot = Slot::Empty,
            None => return Err(TranslateError::TableCorrupt(vpn)),
        }
        self.mapped_base_pages -= entry.size.base_pages();
        Ok(Self::materialize(vpn, entry, 0))
    }

    /// Visits every mapping as `(vpn, translation)`; huge pages are visited
    /// once, at their base VPN.
    pub fn for_each_mapping(&self, mut f: impl FnMut(Vpn, Translation)) {
        fn walk(node: &Node, prefix: u64, level: usize, f: &mut impl FnMut(Vpn, Translation)) {
            for (i, slot) in node.slots.iter().enumerate() {
                let vpn_bits = prefix | ((i as u64) << (9 * level));
                match slot {
                    Slot::Empty => {}
                    Slot::Leaf(e) => {
                        let vpn = Vpn::new(vpn_bits);
                        f(vpn, PageTable::materialize(vpn, *e, 0));
                    }
                    Slot::Table(t) => walk(t, vpn_bits, level - 1, f),
                }
            }
        }
        walk(&self.root, 0, 3, &mut f);
    }

    /// Collects the VPNs of all current mappings (huge pages once, at their
    /// base VPN). Convenience over [`PageTable::for_each_mapping`].
    #[must_use]
    pub fn mapped_vpns(&self) -> Vec<Vpn> {
        let mut v = Vec::new();
        self.for_each_mapping(|vpn, _| v.push(vpn));
        v
    }
}

/// Snapshot codec: the radix structure is fully determined by the leaf
/// mappings, so the snapshot stores the leaves (in the ascending-VPN
/// order [`PageTable::for_each_mapping`] produces) and a restore rebuilds
/// the tree by re-mapping them; only the walk counters are stored
/// verbatim.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::{Node, PageTable};
    use crate::addr::{PageSize, Ppn, Vpn};
    use crate::perms::PagePerms;

    /// One mapping as the snapshot lists it. Huge pages are listed at
    /// their base VPN, with the huge-page base PPN.
    struct Leaf {
        vpn: Vpn,
        ppn: Ppn,
        perms: PagePerms,
        size: PageSize,
        cow: bool,
    }

    bc_sim::snap_struct!(Leaf: vpn, ppn, perms, size, cow);

    impl Snap for PageTable {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"PGTB")?;
            c.snap(&mut self.asid)?;
            let mut leaves = Vec::new();
            if !c.reading() {
                self.for_each_mapping(|vpn, tr| {
                    leaves.push(Leaf {
                        vpn,
                        ppn: tr.ppn,
                        perms: tr.perms,
                        size: tr.size,
                        cow: tr.copy_on_write,
                    });
                });
            }
            c.snap(&mut leaves)?;
            if c.reading() {
                self.root = Node::new();
                self.mapped_base_pages = 0;
                for l in leaves {
                    self.map_with_cow(l.vpn, l.ppn, l.perms, l.size, l.cow)
                        .map_err(|_| SnapError::BadValue("page table mapping"))?;
                }
            }
            c.snap(&mut self.walks)?;
            c.snap(&mut self.walk_node_accesses)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> PageTable {
        PageTable::new(Asid::new(1))
    }

    #[test]
    fn map_translate_roundtrip() {
        let mut t = pt();
        t.map(
            Vpn::new(5),
            Ppn::new(10),
            PagePerms::READ_WRITE,
            PageSize::Base4K,
        )
        .unwrap();
        let tr = t.translate(Vpn::new(5)).unwrap();
        assert_eq!(tr.ppn, Ppn::new(10));
        assert_eq!(tr.perms, PagePerms::READ_WRITE);
        assert_eq!(tr.size, PageSize::Base4K);
        assert_eq!(tr.levels_walked, 4, "base page walks 4 node accesses");
        assert!(!tr.copy_on_write);
        assert_eq!(t.mapped_base_pages(), 1);
    }

    #[test]
    fn translate_missing_fails() {
        let mut t = pt();
        assert_eq!(
            t.translate(Vpn::new(9)),
            Err(TranslateError::NotMapped(Vpn::new(9)))
        );
        assert_eq!(t.walks(), 1);
    }

    #[test]
    fn double_map_rejected() {
        let mut t = pt();
        t.map(
            Vpn::new(5),
            Ppn::new(10),
            PagePerms::READ_ONLY,
            PageSize::Base4K,
        )
        .unwrap();
        assert_eq!(
            t.map(
                Vpn::new(5),
                Ppn::new(11),
                PagePerms::READ_ONLY,
                PageSize::Base4K
            ),
            Err(MapError::AlreadyMapped(Vpn::new(5)))
        );
    }

    #[test]
    fn huge_page_alignment_enforced() {
        let mut t = pt();
        assert_eq!(
            t.map(
                Vpn::new(5),
                Ppn::new(512),
                PagePerms::READ_ONLY,
                PageSize::Huge2M
            ),
            Err(MapError::MisalignedHugePage(Vpn::new(5)))
        );
        assert_eq!(
            t.map(
                Vpn::new(512),
                Ppn::new(5),
                PagePerms::READ_ONLY,
                PageSize::Huge2M
            ),
            Err(MapError::MisalignedHugePage(Vpn::new(512)))
        );
    }

    #[test]
    fn huge_page_translation_covers_range() {
        let mut t = pt();
        t.map(
            Vpn::new(512),
            Ppn::new(1024),
            PagePerms::READ_WRITE,
            PageSize::Huge2M,
        )
        .unwrap();
        assert_eq!(t.mapped_base_pages(), 512);
        // The 7th sub-page maps to base + 7, found with a 3-level walk.
        let tr = t.translate(Vpn::new(512 + 7)).unwrap();
        assert_eq!(tr.ppn, Ppn::new(1024 + 7));
        assert_eq!(tr.size, PageSize::Huge2M);
        assert_eq!(tr.levels_walked, 3);
    }

    #[test]
    fn base_page_cannot_overlap_huge_page() {
        let mut t = pt();
        t.map(
            Vpn::new(512),
            Ppn::new(1024),
            PagePerms::READ_ONLY,
            PageSize::Huge2M,
        )
        .unwrap();
        assert_eq!(
            t.map(
                Vpn::new(513),
                Ppn::new(3),
                PagePerms::READ_ONLY,
                PageSize::Base4K
            ),
            Err(MapError::OverlapsHugePage(Vpn::new(513)))
        );
    }

    #[test]
    fn huge_page_cannot_overlap_base_pages() {
        let mut t = pt();
        t.map(
            Vpn::new(513),
            Ppn::new(3),
            PagePerms::READ_ONLY,
            PageSize::Base4K,
        )
        .unwrap();
        assert_eq!(
            t.map(
                Vpn::new(512),
                Ppn::new(1024),
                PagePerms::READ_ONLY,
                PageSize::Huge2M
            ),
            Err(MapError::OverlapsHugePage(Vpn::new(512)))
        );
    }

    #[test]
    fn protect_changes_perms() {
        let mut t = pt();
        t.map(
            Vpn::new(7),
            Ppn::new(1),
            PagePerms::READ_WRITE,
            PageSize::Base4K,
        )
        .unwrap();
        let old = t.protect(Vpn::new(7), PagePerms::READ_ONLY).unwrap();
        assert_eq!(old, PagePerms::READ_WRITE);
        assert_eq!(t.peek(Vpn::new(7)).unwrap().perms, PagePerms::READ_ONLY);
        assert!(t.protect(Vpn::new(8), PagePerms::NONE).is_err());
    }

    #[test]
    fn cow_flag_roundtrip() {
        let mut t = pt();
        t.map_with_cow(
            Vpn::new(7),
            Ppn::new(1),
            PagePerms::READ_ONLY,
            PageSize::Base4K,
            true,
        )
        .unwrap();
        assert!(t.peek(Vpn::new(7)).unwrap().copy_on_write);
        t.set_copy_on_write(Vpn::new(7), false).unwrap();
        assert!(!t.peek(Vpn::new(7)).unwrap().copy_on_write);
    }

    #[test]
    fn remap_replaces_frame() {
        let mut t = pt();
        t.map(
            Vpn::new(7),
            Ppn::new(1),
            PagePerms::READ_WRITE,
            PageSize::Base4K,
        )
        .unwrap();
        let old = t.remap(Vpn::new(7), Ppn::new(99)).unwrap();
        assert_eq!(old, Ppn::new(1));
        assert_eq!(t.peek(Vpn::new(7)).unwrap().ppn, Ppn::new(99));
    }

    #[test]
    fn unmap_removes_and_reports() {
        let mut t = pt();
        t.map(
            Vpn::new(7),
            Ppn::new(1),
            PagePerms::READ_WRITE,
            PageSize::Base4K,
        )
        .unwrap();
        let tr = t.unmap(Vpn::new(7)).unwrap();
        assert_eq!(tr.ppn, Ppn::new(1));
        assert_eq!(t.mapped_base_pages(), 0);
        assert!(t.peek(Vpn::new(7)).is_err());
        // Remapping after unmap works.
        t.map(
            Vpn::new(7),
            Ppn::new(2),
            PagePerms::READ_ONLY,
            PageSize::Base4K,
        )
        .unwrap();
    }

    #[test]
    fn walk_stats_accumulate() {
        let mut t = pt();
        t.map(
            Vpn::new(1),
            Ppn::new(1),
            PagePerms::READ_ONLY,
            PageSize::Base4K,
        )
        .unwrap();
        t.translate(Vpn::new(1)).unwrap();
        t.translate(Vpn::new(1)).unwrap();
        assert_eq!(t.walks(), 2);
        assert_eq!(t.walk_node_accesses(), 8);
    }

    #[test]
    fn for_each_mapping_visits_all() {
        let mut t = pt();
        // Spread mappings across distinct radix subtrees.
        let vpns = [1u64, 511, 512, 1 << 18, (1 << 27) + 5];
        for (i, &v) in vpns.iter().enumerate() {
            t.map(
                Vpn::new(v),
                Ppn::new(i as u64 + 1),
                PagePerms::READ_ONLY,
                PageSize::Base4K,
            )
            .unwrap();
        }
        let mut seen = t.mapped_vpns();
        seen.sort();
        let mut expect: Vec<Vpn> = vpns.iter().map(|&v| Vpn::new(v)).collect();
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn nodes_hold_slots_up_to_their_highest_mapping() {
        let mut t = pt();
        // Radix indexes 0, 1, 0 and 3 from the root down.
        let vpn = (1 << 18) | 3;
        t.map(
            Vpn::new(vpn),
            Ppn::new(1),
            PagePerms::READ_ONLY,
            PageSize::Base4K,
        )
        .unwrap();
        assert_eq!(t.root.slots.len(), 1);
        // Past the end of each node on the path, one level at a time.
        for past in [
            1 << 27,
            2 << 18,
            (1 << 18) | (1 << 9),
            (1 << 18) | 4,
            (1 << 18) | 511,
        ] {
            assert_eq!(
                t.translate(Vpn::new(past)),
                Err(TranslateError::NotMapped(Vpn::new(past)))
            );
            assert!(t.protect(Vpn::new(past), PagePerms::NONE).is_err());
            assert!(t.unmap(Vpn::new(past)).is_err());
        }
        assert_eq!(t.translate(Vpn::new(vpn)).unwrap().levels_walked, 4);
        assert_eq!((t.walks(), t.walk_node_accesses()), (6, 4));
        // A node grows to the slot it writes, in room for a power of two
        // of slots.
        t.map(
            Vpn::new((1 << 18) | 300),
            Ppn::new(2),
            PagePerms::READ_ONLY,
            PageSize::Base4K,
        )
        .unwrap();
        let Slot::Table(level2) = &t.root.slots[0] else {
            panic!("level 3 slot 0 holds a table");
        };
        let Slot::Table(level1) = &level2.slots[1] else {
            panic!("level 2 slot 1 holds a table");
        };
        let Slot::Table(leaf) = &level1.slots[0] else {
            panic!("level 1 slot 0 holds a table");
        };
        assert_eq!((leaf.slots.len(), leaf.slots.capacity()), (301, 512));
        assert_eq!(t.mapped_vpns(), [Vpn::new(vpn), Vpn::new((1 << 18) | 300)]);
    }

    #[test]
    fn distant_vpns_do_not_collide() {
        let mut t = pt();
        // Same low 9 bits, different upper levels.
        t.map(
            Vpn::new(3),
            Ppn::new(1),
            PagePerms::READ_ONLY,
            PageSize::Base4K,
        )
        .unwrap();
        t.map(
            Vpn::new(3 + (1 << 9)),
            Ppn::new(2),
            PagePerms::READ_ONLY,
            PageSize::Base4K,
        )
        .unwrap();
        t.map(
            Vpn::new(3 + (1 << 18)),
            Ppn::new(3),
            PagePerms::READ_ONLY,
            PageSize::Base4K,
        )
        .unwrap();
        assert_eq!(t.translate(Vpn::new(3)).unwrap().ppn, Ppn::new(1));
        assert_eq!(
            t.translate(Vpn::new(3 + (1 << 9))).unwrap().ppn,
            Ppn::new(2)
        );
        assert_eq!(
            t.translate(Vpn::new(3 + (1 << 18))).unwrap().ppn,
            Ppn::new(3)
        );
    }
}
