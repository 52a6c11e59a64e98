//! Set-associative, ASID-aware translation lookaside buffers.
//!
//! The paper's accelerator has a 64-entry L1 TLB per compute unit and a
//! 512-entry shared L2 TLB (Table 3). TLB *shootdown* — invalidating
//! entries when the OS changes a mapping — is the mechanism whose
//! incorrect implementation motivates one of the paper's threat vectors:
//! "an incorrect implementation of TLB shootdown could result in memory
//! requests made with stale translations" (§2.1). The buggy-accelerator
//! model simply skips calling [`Tlb::invalidate`]/[`Tlb::flush_asid`].

use bc_mem::addr::{Asid, PageSize, Ppn, Vpn};
use bc_mem::perms::PagePerms;
use bc_sim::fxmap::FxHashMap;
use bc_sim::stats::HitMiss;

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total 4 KiB entries.
    pub entries: usize,
    /// Associativity; `entries` must be divisible by `ways` into a
    /// power-of-two set count. Use `ways == entries` for fully
    /// associative.
    pub ways: usize,
}

impl TlbConfig {
    /// Fully associative 2 MiB-entry slots (separate array, as in real
    /// designs). Fixed at 8 — enough for the workloads' footprints.
    pub const HUGE_SLOTS: usize = 8;
}

impl TlbConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate geometry.
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0 && self.entries >= self.ways);
        let sets = self.entries / self.ways;
        assert!(
            sets.is_power_of_two(),
            "TLB set count must be a power of two"
        );
        sets
    }
}

/// One cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Address space the translation belongs to.
    pub asid: Asid,
    /// Virtual page.
    pub vpn: Vpn,
    /// Physical page it maps to.
    pub ppn: Ppn,
    /// Permissions at translation time. A *stale* entry (after an ignored
    /// shootdown) can hold permissions the OS has since revoked — exactly
    /// what Border Control exists to catch.
    pub perms: PagePerms,
    /// Mapping size.
    pub size: PageSize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: TlbEntry,
    last_use: u64,
    valid: bool,
}

impl Slot {
    const EMPTY: Slot = Slot {
        entry: TlbEntry {
            asid: Asid::new(0),
            vpn: Vpn::new(0),
            ppn: Ppn::new(0),
            perms: PagePerms::NONE,
            size: PageSize::Base4K,
        },
        last_use: 0,
        valid: false,
    };
}

/// Point-lookup key for a 4 KiB translation: ASID in the top 16 bits,
/// VPN below. VPNs in this simulator are far below 2^48.
fn key_of(asid: Asid, vpn: Vpn) -> u64 {
    debug_assert!(vpn.as_u64() < 1 << 48, "VPN overflows the index key");
    (u64::from(asid.as_u16()) << 48) | vpn.as_u64()
}

/// A set-associative TLB with LRU replacement.
///
/// # Example
///
/// ```
/// use bc_cache::{Tlb, TlbConfig, TlbEntry};
/// use bc_mem::{Asid, Vpn, Ppn, PagePerms, PageSize};
///
/// let mut tlb = Tlb::new(TlbConfig { entries: 64, ways: 4 });
/// let e = TlbEntry {
///     asid: Asid::new(1), vpn: Vpn::new(10), ppn: Ppn::new(99),
///     perms: PagePerms::READ_WRITE, size: PageSize::Base4K,
/// };
/// tlb.insert(e);
/// assert_eq!(tlb.lookup(Asid::new(1), Vpn::new(10)), Some(e));
/// assert_eq!(tlb.lookup(Asid::new(2), Vpn::new(10)), None); // ASID match required
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// All 4 KiB slots in one contiguous array, indexed `set * ways + way`.
    /// The paper's per-CU L1 TLB is fully associative (one set, 64 ways),
    /// so a linear scan per lookup would walk the whole structure; the
    /// `index` below turns lookups into one hash probe instead.
    slots: Box<[Slot]>,
    /// `(asid, vpn) -> flat slot` for every valid 4 KiB entry. Entries are
    /// unique per (asid, vpn) — `insert` refreshes in place — so the map
    /// is authoritative; it is only ever probed by key, never iterated,
    /// keeping behavior independent of hash order.
    index: FxHashMap<u64, u32>,
    /// Fully associative 2 MiB entries, keyed by huge-page base VPN.
    huge: [Slot; TlbConfig::HUGE_SLOTS],
    /// Valid entries in `huge`; lookups skip the huge scan when zero
    /// (most workloads never map a huge page).
    huge_valid: usize,
    set_mask: u64,
    clock: u64,
    stats: HitMiss,
}

impl Tlb {
    /// Creates an empty TLB.
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        let sets = config.sets();
        Tlb {
            slots: vec![Slot::EMPTY; sets * config.ways].into_boxed_slice(),
            index: FxHashMap::default(),
            huge: [Slot::EMPTY; TlbConfig::HUGE_SLOTS],
            huge_valid: 0,
            set_mask: sets as u64 - 1,
            clock: 0,
            config,
            stats: HitMiss::new(),
        }
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        let v = vpn.as_u64();
        let bits = self.set_mask.count_ones();
        // XOR-fold upper VPN bits into the index so power-of-two strides
        // (ubiquitous when work is sliced evenly across wavefronts) don't
        // collapse onto a single set.
        ((v ^ (v >> bits) ^ (v >> (2 * bits))) & self.set_mask) as usize
    }

    /// Looks up a translation, updating recency and hit/miss statistics.
    /// Huge entries (keyed by their 2 MiB-aligned base VPN) match any VPN
    /// inside the page.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<TlbEntry> {
        self.clock += 1;
        let clock = self.clock;
        if self.huge_valid > 0 {
            let huge_base = Vpn::new(vpn.as_u64() & !511);
            for slot in &mut self.huge {
                if slot.valid && slot.entry.asid == asid && slot.entry.vpn == huge_base {
                    slot.last_use = clock;
                    self.stats.hit();
                    return Some(slot.entry);
                }
            }
        }
        if let Some(&i) = self.index.get(&key_of(asid, vpn)) {
            let slot = &mut self.slots[i as usize];
            debug_assert!(slot.valid && slot.entry.asid == asid && slot.entry.vpn == vpn);
            slot.last_use = clock;
            self.stats.hit();
            return Some(slot.entry);
        }
        self.stats.miss();
        None
    }

    /// Checks presence without perturbing LRU or statistics.
    #[must_use]
    pub fn peek(&self, asid: Asid, vpn: Vpn) -> Option<TlbEntry> {
        let huge_base = Vpn::new(vpn.as_u64() & !511);
        if let Some(slot) = self
            .huge
            .iter()
            .find(|s| s.valid && s.entry.asid == asid && s.entry.vpn == huge_base)
        {
            return Some(slot.entry);
        }
        self.index
            .get(&key_of(asid, vpn))
            .map(|&i| self.slots[i as usize].entry)
    }

    /// Inserts (or refreshes) a translation, evicting LRU on conflict.
    /// Huge-page entries must be presented with their 2 MiB-aligned base
    /// VPN/PPN (the ATS normalizes them) and land in the huge array.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.clock += 1;
        let clock = self.clock;
        if entry.size == PageSize::Huge2M {
            debug_assert_eq!(entry.vpn.as_u64() % 512, 0, "huge entries are base-aligned");
            if let Some(slot) = self
                .huge
                .iter_mut()
                .find(|s| s.valid && s.entry.asid == entry.asid && s.entry.vpn == entry.vpn)
            {
                slot.entry = entry;
                slot.last_use = clock;
                return;
            }
            let way = match self.huge.iter().position(|s| !s.valid) {
                Some(w) => w,
                None => self
                    .huge
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_use)
                    .map(|(i, _)| i)
                    .expect("non-empty huge array"),
            };
            if !self.huge[way].valid {
                self.huge_valid += 1;
            }
            self.huge[way] = Slot {
                entry,
                last_use: clock,
                valid: true,
            };
            return;
        }
        // Refresh in place if present.
        if let Some(&i) = self.index.get(&key_of(entry.asid, entry.vpn)) {
            let slot = &mut self.slots[i as usize];
            slot.entry = entry;
            slot.last_use = clock;
            return;
        }
        // Empty way, else LRU victim (first-min-wins, as before).
        let set_idx = self.set_of(entry.vpn);
        let base = set_idx * self.config.ways;
        let set = &mut self.slots[base..base + self.config.ways];
        let way = match set.iter().position(|s| !s.valid) {
            Some(w) => w,
            None => set
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i)
                .expect("non-empty set"),
        };
        let victim = set[way];
        if victim.valid {
            self.index
                .remove(&key_of(victim.entry.asid, victim.entry.vpn));
        }
        set[way] = Slot {
            entry,
            last_use: clock,
            valid: true,
        };
        self.index
            .insert(key_of(entry.asid, entry.vpn), (base + way) as u32);
    }

    /// Invalidates one translation (single-entry shootdown). Returns
    /// whether an entry was present. A 4 KiB-page shootdown hitting a
    /// huge entry invalidates the whole huge entry.
    pub fn invalidate(&mut self, asid: Asid, vpn: Vpn) -> bool {
        let huge_base = Vpn::new(vpn.as_u64() & !511);
        for slot in &mut self.huge {
            if slot.valid && slot.entry.asid == asid && slot.entry.vpn == huge_base {
                slot.valid = false;
                self.huge_valid -= 1;
                return true;
            }
        }
        if let Some(i) = self.index.remove(&key_of(asid, vpn)) {
            self.slots[i as usize].valid = false;
            return true;
        }
        false
    }

    /// Invalidates every translation of one address space (full shootdown
    /// for a process). Returns the number removed.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let mut n = 0;
        for slot in &mut self.huge {
            if slot.valid && slot.entry.asid == asid {
                slot.valid = false;
                self.huge_valid -= 1;
                n += 1;
            }
        }
        for slot in self.slots.iter_mut() {
            if slot.valid && slot.entry.asid == asid {
                slot.valid = false;
                self.index.remove(&key_of(slot.entry.asid, slot.entry.vpn));
                n += 1;
            }
        }
        n
    }

    /// Invalidates everything.
    pub fn flush_all(&mut self) -> usize {
        let mut n = self.huge_valid;
        for slot in &mut self.huge {
            slot.valid = false;
        }
        self.huge_valid = 0;
        for slot in self.slots.iter_mut() {
            if slot.valid {
                slot.valid = false;
                n += 1;
            }
        }
        self.index.clear();
        n
    }

    /// Number of valid entries (4 KiB and huge).
    #[must_use]
    pub fn valid_entries(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count() + self.huge_valid
    }

    /// Hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> HitMiss {
        self.stats
    }
}

/// Snapshot codec: both slot arrays are serialized positionally (victim
/// choice takes the first invalid way, so slot positions are
/// behavioral); the config is fixed by the build that is read over, and
/// the point-lookup index and huge-slot count are derived and rebuilt on
/// restore.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::{key_of, Slot, Tlb, TlbEntry};

    bc_sim::snap_struct!(TlbEntry: asid, vpn, ppn, perms, size);

    impl Snap for Slot {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.snap(&mut self.valid)?;
            if self.valid {
                c.snap(&mut self.entry)?;
                c.snap(&mut self.last_use)?;
            }
            Ok(())
        }
    }

    impl Snap for Tlb {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"TLB0")?;
            self.slots.iter_mut().try_for_each(|s| s.snap(c))?;
            c.snap(&mut self.huge)?;
            c.snap(&mut self.clock)?;
            c.snap(&mut self.stats)?;
            if c.reading() {
                let valid = self.slots.iter().enumerate().filter(|(_, s)| s.valid);
                self.index = valid
                    .map(|(i, s)| (key_of(s.entry.asid, s.entry.vpn), i as u32))
                    .collect();
                self.huge_valid = self.huge.iter().filter(|s| s.valid).count();
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(asid: u16, vpn: u64, ppn: u64) -> TlbEntry {
        TlbEntry {
            asid: Asid::new(asid),
            vpn: Vpn::new(vpn),
            ppn: Ppn::new(ppn),
            perms: PagePerms::READ_WRITE,
            size: PageSize::Base4K,
        }
    }

    #[test]
    fn hit_and_miss_stats() {
        let mut t = Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
        });
        assert_eq!(t.lookup(Asid::new(1), Vpn::new(5)), None);
        t.insert(entry(1, 5, 50));
        assert_eq!(
            t.lookup(Asid::new(1), Vpn::new(5)).unwrap().ppn,
            Ppn::new(50)
        );
        assert_eq!(t.stats().hits(), 1);
        assert_eq!(t.stats().misses(), 1);
    }

    #[test]
    fn asid_isolation() {
        let mut t = Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
        });
        t.insert(entry(1, 5, 50));
        assert_eq!(t.lookup(Asid::new(2), Vpn::new(5)), None);
        t.insert(entry(2, 5, 70));
        assert_eq!(
            t.lookup(Asid::new(1), Vpn::new(5)).unwrap().ppn,
            Ppn::new(50)
        );
        assert_eq!(
            t.lookup(Asid::new(2), Vpn::new(5)).unwrap().ppn,
            Ppn::new(70)
        );
    }

    #[test]
    fn insert_refreshes_in_place() {
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            ways: 2,
        });
        t.insert(entry(1, 4, 50));
        let mut updated = entry(1, 4, 50);
        updated.perms = PagePerms::READ_ONLY;
        t.insert(updated);
        assert_eq!(t.valid_entries(), 1);
        assert_eq!(
            t.peek(Asid::new(1), Vpn::new(4)).unwrap().perms,
            PagePerms::READ_ONLY
        );
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 sets, 2 ways; the set index is XOR-hashed, so find three VPNs
        // that collide by probing.
        let t0 = Tlb::new(TlbConfig {
            entries: 4,
            ways: 2,
        });
        let target = t0.set_of(Vpn::new(0));
        let mut collide = vec![0u64];
        let mut v = 1;
        while collide.len() < 3 {
            if t0.set_of(Vpn::new(v)) == target {
                collide.push(v);
            }
            v += 1;
        }
        let (a, b, c) = (collide[0], collide[1], collide[2]);
        let mut t = t0;
        t.insert(entry(1, a, 10));
        t.insert(entry(1, b, 12));
        t.lookup(Asid::new(1), Vpn::new(a)); // touch a; b becomes LRU
        t.insert(entry(1, c, 14));
        assert!(t.peek(Asid::new(1), Vpn::new(a)).is_some());
        assert!(t.peek(Asid::new(1), Vpn::new(b)).is_none());
        assert!(t.peek(Asid::new(1), Vpn::new(c)).is_some());
    }

    #[test]
    fn single_entry_shootdown() {
        let mut t = Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
        });
        t.insert(entry(1, 5, 50));
        assert!(t.invalidate(Asid::new(1), Vpn::new(5)));
        assert!(!t.invalidate(Asid::new(1), Vpn::new(5)));
        assert_eq!(t.lookup(Asid::new(1), Vpn::new(5)), None);
    }

    #[test]
    fn flush_asid_spares_others() {
        let mut t = Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
        });
        t.insert(entry(1, 1, 10));
        t.insert(entry(1, 2, 11));
        t.insert(entry(2, 3, 12));
        assert_eq!(t.flush_asid(Asid::new(1)), 2);
        assert_eq!(t.valid_entries(), 1);
        assert!(t.peek(Asid::new(2), Vpn::new(3)).is_some());
    }

    #[test]
    fn flush_all_empties() {
        let mut t = Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
        });
        t.insert(entry(1, 1, 10));
        t.insert(entry(2, 2, 11));
        assert_eq!(t.flush_all(), 2);
        assert_eq!(t.valid_entries(), 0);
    }

    #[test]
    fn fully_associative_geometry() {
        let mut t = Tlb::new(TlbConfig {
            entries: 64,
            ways: 64,
        });
        for i in 0..64 {
            t.insert(entry(1, i, i + 100));
        }
        assert_eq!(t.valid_entries(), 64);
        t.insert(entry(1, 64, 164));
        assert_eq!(t.valid_entries(), 64, "LRU evicted one");
        assert!(t.peek(Asid::new(1), Vpn::new(0)).is_none(), "vpn 0 was LRU");
    }

    #[test]
    fn huge_entries_match_any_subpage() {
        let mut t = Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
        });
        let huge = TlbEntry {
            asid: Asid::new(1),
            vpn: Vpn::new(1024), // 2 MiB aligned
            ppn: Ppn::new(4096),
            perms: PagePerms::READ_WRITE,
            size: PageSize::Huge2M,
        };
        t.insert(huge);
        for off in [0u64, 1, 200, 511] {
            let e = t.lookup(Asid::new(1), Vpn::new(1024 + off)).unwrap();
            assert_eq!(e.ppn, Ppn::new(4096), "entry reports the base PPN");
            assert_eq!(e.size, PageSize::Huge2M);
        }
        assert!(
            t.lookup(Asid::new(1), Vpn::new(1536)).is_none(),
            "next huge page misses"
        );
        // A shootdown of any covered 4 KiB page kills the huge entry.
        assert!(t.invalidate(Asid::new(1), Vpn::new(1024 + 300)));
        assert!(t.peek(Asid::new(1), Vpn::new(1024)).is_none());
    }

    #[test]
    fn huge_array_is_lru() {
        let mut t = Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
        });
        for i in 0..=TlbConfig::HUGE_SLOTS as u64 {
            t.insert(TlbEntry {
                asid: Asid::new(1),
                vpn: Vpn::new(i * 512),
                ppn: Ppn::new(i * 512 + 4096),
                perms: PagePerms::READ_ONLY,
                size: PageSize::Huge2M,
            });
        }
        // The first huge entry was LRU and got evicted.
        assert!(t.peek(Asid::new(1), Vpn::new(0)).is_none());
        assert!(t.peek(Asid::new(1), Vpn::new(512)).is_some());
        assert_eq!(
            t.valid_entries(),
            TlbConfig::HUGE_SLOTS,
            "huge array holds exactly HUGE_SLOTS entries"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Tlb::new(TlbConfig {
            entries: 6,
            ways: 2,
        });
    }
}
