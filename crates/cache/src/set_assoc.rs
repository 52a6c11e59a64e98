//! Generic set-associative cache model.
//!
//! Lines live in one contiguous array indexed `set * ways + way` (the
//! classic flat tag store), and a per-page resident-line index makes the
//! §3.2.4 selective page flush O(lines actually on the page) instead of
//! O(sets × ways).

use std::collections::hash_map::Entry as MapEntry;

use bc_mem::addr::{PhysAddr, Ppn};
use bc_sim::fxmap::FxHashMap;
use bc_sim::stats::{Counter, HitMiss};
use bc_sim::SimRng;

/// Kind of access presented to a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load (or instruction fetch).
    Read,
    /// A store.
    Write,
}

impl Access {
    /// Whether this access is a write.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, Access::Write)
    }
}

/// Write handling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-back, write-allocate: stores dirty the line; misses allocate.
    /// Used for the GPU's shared L2 in the paper's system.
    WriteBack,
    /// Write-through, no-write-allocate: stores always propagate below and
    /// never dirty or allocate lines. Used for the GPU-internal L1s
    /// ("within the GPU, we use a simple write-through protocol", §5.1).
    WriteThrough,
}

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// True least-recently-used via a use clock.
    Lru,
    /// Uniform random victim (cheap hardware approximation).
    Random,
}

/// Static cache geometry and policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line (block) size in bytes; 128 in the paper's memory system.
    pub block_bytes: u64,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, non-power-of-two
    /// set count, or capacity smaller than one way of blocks).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0, "cache needs at least one way");
        let lines = self.size_bytes / self.block_bytes;
        assert!(lines >= self.ways as u64, "capacity below one set");
        let sets = (lines / self.ways as u64) as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// An evicted line that may require a writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Base physical address of the evicted block.
    pub addr: PhysAddr,
    /// Whether the block was dirty (needs writing back below).
    pub dirty: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The block was present.
    Hit,
    /// The block was absent. If the access allocates, `victim` is the line
    /// that was displaced (with its dirtiness); `allocated` says whether a
    /// fill happened at all (write-through caches do not allocate on write
    /// misses).
    Miss {
        /// Displaced line, if an allocation displaced a valid line.
        victim: Option<Evicted>,
        /// Whether the missing block was brought into the cache.
        allocated: bool,
    },
}

impl LookupResult {
    /// Whether this was a hit.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupResult::Hit)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

impl Line {
    const INVALID: Line = Line {
        tag: 0,
        valid: false,
        dirty: false,
        last_use: 0,
    };
}

/// A set-associative cache tracking block presence and dirtiness (data
/// contents live in [`bc_mem::PhysMemStore`]; the cache is a tag store, as
/// in most timing simulators).
///
/// # Example
///
/// ```
/// use bc_cache::{Cache, CacheConfig, Access, WritePolicy, Replacement};
/// use bc_mem::addr::PhysAddr;
///
/// let mut l2 = Cache::new(CacheConfig {
///     size_bytes: 256 << 10,
///     ways: 16,
///     block_bytes: 128,
///     write_policy: WritePolicy::WriteBack,
///     replacement: Replacement::Lru,
/// });
/// assert!(!l2.access(PhysAddr::new(0x1000), Access::Read).is_hit());
/// assert!(l2.access(PhysAddr::new(0x1000), Access::Read).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Flat tag store: line for (set, way) lives at `set * ways + way`.
    lines: Box<[Line]>,
    set_mask: u64,
    block_shift: u32,
    clock: u64,
    rng: SimRng,
    stats: HitMiss,
    writebacks: Counter,
    write_throughs: Counter,
    /// Incrementally maintained line-population counters (avoids the old
    /// O(sets × ways) scans in `valid_lines`/`dirty_lines`).
    valid_count: usize,
    dirty_count: usize,
    /// Resident-line index: physical page -> flat slots of the lines
    /// currently caching blocks of that page. Maintained on every fill
    /// and invalidation so `flush_page` visits only the page's own lines.
    ///
    /// Built lazily on the first page flush (`index_armed`): most runs
    /// never issue a selective flush, and they should not pay index
    /// upkeep on every miss for a structure they never read.
    page_index: FxHashMap<u64, Vec<u32>>,
    /// Whether `page_index` is live (set by the first `flush_page_into`).
    index_armed: bool,
    /// Recycled slot lists, so steady-state index churn never allocates.
    spare_lists: Vec<Vec<u32>>,
}

impl Cache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            lines: vec![Line::INVALID; sets * config.ways].into_boxed_slice(),
            set_mask: sets as u64 - 1,
            block_shift: config.block_bytes.trailing_zeros(),
            clock: 0,
            rng: SimRng::seed_from(0xCAC4E),
            config,
            stats: HitMiss::new(),
            writebacks: Counter::new(),
            write_throughs: Counter::new(),
            valid_count: 0,
            dirty_count: 0,
            page_index: FxHashMap::default(),
            index_armed: false,
            spare_lists: Vec::new(),
        }
    }

    /// Records `slot` as caching a block of page `ppn`.
    fn index_add(&mut self, ppn: u64, slot: u32) {
        if !self.index_armed {
            return;
        }
        match self.page_index.entry(ppn) {
            MapEntry::Occupied(mut e) => e.get_mut().push(slot),
            MapEntry::Vacant(v) => {
                let mut list = self.spare_lists.pop().unwrap_or_default();
                list.push(slot);
                v.insert(list);
            }
        }
    }

    /// Forgets `slot` as a resident of page `ppn`.
    fn index_remove(&mut self, ppn: u64, slot: u32) {
        if !self.index_armed {
            return;
        }
        if let MapEntry::Occupied(mut e) = self.page_index.entry(ppn) {
            let list = e.get_mut();
            if let Some(pos) = list.iter().position(|&s| s == slot) {
                list.swap_remove(pos);
            }
            if list.is_empty() {
                let mut freed = e.remove();
                freed.clear();
                self.spare_lists.push(freed);
            }
        }
    }

    /// The cache geometry and policy.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn split(&self, addr: PhysAddr) -> (usize, u64) {
        let block = addr.as_u64() >> self.block_shift;
        let bits = self.set_mask.count_ones();
        // XOR-fold the upper bits into the index (standard GPU cache set
        // hashing) so power-of-two strides — ubiquitous in HPC grids —
        // don't collapse onto a handful of sets.
        let set = (block ^ (block >> bits) ^ (block >> (2 * bits))) & self.set_mask;
        (set as usize, block >> bits)
    }

    fn unsplit(&self, set: usize, tag: u64) -> u64 {
        let bits = self.set_mask.count_ones();
        // Invert the XOR fold: the stored tag is the block's upper bits,
        // so recompute the hashed low bits from it.
        let low = (set as u64 ^ tag ^ (tag >> bits)) & self.set_mask;
        (tag << bits) | low
    }

    fn block_addr(&self, set: usize, tag: u64) -> PhysAddr {
        PhysAddr::new(self.unsplit(set, tag) << self.block_shift)
    }

    /// The flat slice holding one set's ways.
    #[inline]
    fn set_lines(&self, set_idx: usize) -> &[Line] {
        let base = set_idx * self.config.ways;
        &self.lines[base..base + self.config.ways]
    }

    /// Presents an access; updates contents, recency and statistics.
    pub fn access(&mut self, addr: PhysAddr, access: Access) -> LookupResult {
        self.clock += 1;
        let (set_idx, tag) = self.split(addr);
        let policy = self.config.write_policy;
        let clock = self.clock;
        let ways = self.config.ways;
        let base = set_idx * ways;
        let set = &mut self.lines[base..base + ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = clock;
            if access.is_write() {
                match policy {
                    WritePolicy::WriteBack => {
                        if !line.dirty {
                            line.dirty = true;
                            self.dirty_count += 1;
                        }
                    }
                    WritePolicy::WriteThrough => self.write_throughs.inc(),
                }
            }
            self.stats.hit();
            return LookupResult::Hit;
        }

        self.stats.miss();

        // Write-through caches do not allocate on write misses.
        if access.is_write() && policy == WritePolicy::WriteThrough {
            self.write_throughs.inc();
            return LookupResult::Miss {
                victim: None,
                allocated: false,
            };
        }

        // Choose a victim way: invalid first, else by replacement policy.
        let way = match set.iter().position(|l| !l.valid) {
            Some(w) => w,
            None => match self.config.replacement {
                Replacement::Lru => set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.last_use)
                    .map(|(i, _)| i)
                    .expect("non-empty set"),
                Replacement::Random => self.rng.below(ways as u64) as usize,
            },
        };

        let slot = (base + way) as u32;
        let old_line = self.lines[base + way];
        let victim = if old_line.valid {
            if old_line.dirty {
                self.writebacks.inc();
                self.dirty_count -= 1;
            }
            let victim_addr = self.block_addr(set_idx, old_line.tag);
            self.index_remove(victim_addr.ppn().as_u64(), slot);
            Some(Evicted {
                addr: victim_addr,
                dirty: old_line.dirty,
            })
        } else {
            self.valid_count += 1;
            None
        };

        let dirty = access.is_write() && policy == WritePolicy::WriteBack;
        if dirty {
            self.dirty_count += 1;
        }
        self.lines[base + way] = Line {
            tag,
            valid: true,
            dirty,
            last_use: clock,
        };
        self.index_add(addr.ppn().as_u64(), slot);

        LookupResult::Miss {
            victim,
            allocated: true,
        }
    }

    /// Whether a block is currently cached (no state change).
    #[must_use]
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (set_idx, tag) = self.split(addr);
        self.set_lines(set_idx)
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Whether a block is cached dirty (no state change).
    #[must_use]
    pub fn is_dirty(&self, addr: PhysAddr) -> bool {
        let (set_idx, tag) = self.split(addr);
        self.set_lines(set_idx)
            .iter()
            .any(|l| l.valid && l.tag == tag && l.dirty)
    }

    /// Downgrades one block from dirty to clean (a remote GetS observed:
    /// M/O -> S), returning whether it was present and whether it was
    /// dirty (the caller writes dirty data back to memory).
    pub fn downgrade_block(&mut self, addr: PhysAddr) -> Option<bool> {
        let (set_idx, tag) = self.split(addr);
        let base = set_idx * self.config.ways;
        for line in &mut self.lines[base..base + self.config.ways] {
            if line.valid && line.tag == tag {
                let was_dirty = line.dirty;
                line.dirty = false;
                if was_dirty {
                    self.writebacks.inc();
                    self.dirty_count -= 1;
                }
                return Some(was_dirty);
            }
        }
        None
    }

    /// Invalidates one block, returning it if it was valid.
    pub fn invalidate_block(&mut self, addr: PhysAddr) -> Option<Evicted> {
        let (set_idx, tag) = self.split(addr);
        let base = set_idx * self.config.ways;
        for way in 0..self.config.ways {
            let line = self.lines[base + way];
            if line.valid && line.tag == tag {
                let ev = Evicted {
                    addr,
                    dirty: line.dirty,
                };
                if line.dirty {
                    self.writebacks.inc();
                    self.dirty_count -= 1;
                }
                self.lines[base + way] = Line::INVALID;
                self.valid_count -= 1;
                self.index_remove(addr.ppn().as_u64(), (base + way) as u32);
                return Some(ev);
            }
        }
        None
    }

    /// Invalidates every block belonging to physical page `ppn` (the
    /// selective-flush optimization of §3.2.4), appending the evicted
    /// blocks to `out` (not cleared here, so one scratch buffer can
    /// collect across caches). Dirty ones must be written back *before*
    /// the permission change takes effect.
    ///
    /// The resident-line index makes this O(lines actually on the page);
    /// evictions are emitted in ascending (set, way) order, matching a
    /// full set-major scan exactly.
    pub fn flush_page_into(&mut self, ppn: Ppn, out: &mut Vec<Evicted>) {
        if !self.index_armed {
            // First selective flush: build the index from the tag store
            // in one pass; from here on fills/evictions keep it current.
            self.index_armed = true;
            for slot in 0..self.lines.len() {
                let line = self.lines[slot];
                if line.valid {
                    let page = self.block_addr(slot / self.config.ways, line.tag).ppn();
                    self.index_add(page.as_u64(), slot as u32);
                }
            }
        }
        let Some(mut slots) = self.page_index.remove(&ppn.as_u64()) else {
            return;
        };
        // The index records fill order; the legacy scan emitted set-major,
        // way-ascending — i.e. ascending flat slot. Sort to preserve the
        // exact eviction (and thus writeback-timing) order.
        slots.sort_unstable();
        for &slot in &slots {
            let line = self.lines[slot as usize];
            debug_assert!(line.valid, "page index held an invalid slot");
            let set_idx = slot as usize / self.config.ways;
            let addr = self.block_addr(set_idx, line.tag);
            debug_assert_eq!(addr.ppn(), ppn, "page index held a foreign slot");
            if line.dirty {
                self.writebacks.inc();
                self.dirty_count -= 1;
            }
            out.push(Evicted {
                addr,
                dirty: line.dirty,
            });
            self.lines[slot as usize] = Line::INVALID;
            self.valid_count -= 1;
        }
        slots.clear();
        self.spare_lists.push(slots);
    }

    /// [`flush_page_into`](Self::flush_page_into), allocating the result.
    pub fn flush_page(&mut self, ppn: Ppn) -> Vec<Evicted> {
        let mut out = Vec::new();
        self.flush_page_into(ppn, &mut out);
        out
    }

    /// Invalidates the whole cache, appending every valid block to `out`
    /// (callers write back the dirty ones). Used on process completion
    /// (§3.2.5) and full-flush downgrades.
    pub fn flush_all_into(&mut self, out: &mut Vec<Evicted>) {
        for slot in 0..self.lines.len() {
            let line = self.lines[slot];
            if line.valid {
                if line.dirty {
                    self.writebacks.inc();
                }
                out.push(Evicted {
                    addr: self.block_addr(slot / self.config.ways, line.tag),
                    dirty: line.dirty,
                });
                self.lines[slot] = Line::INVALID;
            }
        }
        self.valid_count = 0;
        self.dirty_count = 0;
        for (_, mut list) in self.page_index.drain() {
            list.clear();
            self.spare_lists.push(list);
        }
    }

    /// [`flush_all_into`](Self::flush_all_into), allocating the result.
    pub fn flush_all(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        self.flush_all_into(&mut out);
        out
    }

    /// Number of valid lines (incrementally maintained).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.valid_count
    }

    /// Number of dirty lines (incrementally maintained).
    #[must_use]
    pub fn dirty_lines(&self) -> usize {
        self.dirty_count
    }

    /// Hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Dirty evictions counted so far.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks.get()
    }

    /// Write-through store count (write-through caches only).
    #[must_use]
    pub fn write_throughs(&self) -> u64 {
        self.write_throughs.get()
    }
}

/// Snapshot codec: the tag store is serialized positionally (victim
/// choice scans ways in order, so which way holds a line is behavioral),
/// along with the use clock, replacement RNG and counters; the config is
/// fixed by the build that is read over. The line counts are recounted on
/// restore. The
/// resident-page index, its armed flag and the spare lists are
/// rebuild-on-demand amortization: a restored cache re-arms on its first
/// selective flush and emits evictions in the same sorted-slot order
/// either way.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::Cache;

    impl Snap for Cache {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"CACH")?;
            for line in self.lines.iter_mut() {
                c.snap(&mut line.valid)?;
                if line.valid {
                    c.snap(&mut line.tag)?;
                    c.snap(&mut line.dirty)?;
                    c.snap(&mut line.last_use)?;
                }
            }
            c.snap(&mut self.clock)?;
            c.snap(&mut self.rng)?;
            c.snap(&mut self.stats)?;
            c.snap(&mut self.writebacks)?;
            c.snap(&mut self.write_throughs)?;
            if c.reading() {
                self.valid_count = self.lines.iter().filter(|l| l.valid).count();
                self.dirty_count = self.lines.iter().filter(|l| l.valid && l.dirty).count();
                self.page_index.clear();
                self.index_armed = false;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(write_policy: WritePolicy) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024, // 8 lines
            ways: 2,          // 4 sets
            block_bytes: 128,
            write_policy,
            replacement: Replacement::Lru,
        })
    }

    fn addr(block: u64) -> PhysAddr {
        PhysAddr::new(block * 128)
    }

    #[test]
    fn geometry() {
        let c = small(WritePolicy::WriteBack);
        assert_eq!(c.config().sets(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 3 * 128,
            ways: 1,
            block_bytes: 128,
            write_policy: WritePolicy::WriteBack,
            replacement: Replacement::Lru,
        });
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small(WritePolicy::WriteBack);
        assert!(!c.access(addr(0), Access::Read).is_hit());
        assert!(c.access(addr(0), Access::Read).is_hit());
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    /// Returns three distinct block numbers that hash to the same set of
    /// `c` (the set index is XOR-hashed, so conflicts are found by probe).
    fn three_conflicting(c: &Cache) -> (u64, u64, u64) {
        let (target, _) = c.split(addr(0));
        let mut found = vec![0u64];
        let mut b = 1;
        while found.len() < 3 {
            if c.split(addr(b)).0 == target {
                found.push(b);
            }
            b += 1;
        }
        (found[0], found[1], found[2])
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(WritePolicy::WriteBack);
        let (a, b, v) = three_conflicting(&c);
        c.access(addr(a), Access::Read);
        c.access(addr(b), Access::Read);
        c.access(addr(a), Access::Read); // touch a again; b is now LRU
        let res = c.access(addr(v), Access::Read);
        match res {
            LookupResult::Miss {
                victim: Some(ev), ..
            } => assert_eq!(ev.addr, addr(b)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(addr(a)));
        assert!(!c.contains(addr(b)));
        assert!(c.contains(addr(v)));
    }

    #[test]
    fn writeback_dirty_eviction() {
        let mut c = small(WritePolicy::WriteBack);
        let (a, b, v) = three_conflicting(&c);
        c.access(addr(a), Access::Write);
        assert!(c.is_dirty(addr(a)));
        c.access(addr(b), Access::Read);
        let res = c.access(addr(v), Access::Read); // evicts dirty a
        match res {
            LookupResult::Miss {
                victim: Some(ev), ..
            } => {
                assert_eq!(ev.addr, addr(a));
                assert!(ev.dirty);
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn unsplit_inverts_split_exactly() {
        let c = small(WritePolicy::WriteBack);
        for block in (0..20_000u64).step_by(37) {
            let a = addr(block);
            let (set, tag) = c.split(a);
            assert_eq!(
                c.block_addr(set, tag),
                a,
                "round-trip failed for block {block}"
            );
        }
    }

    #[test]
    fn write_through_never_dirty_never_allocates_on_write() {
        let mut c = small(WritePolicy::WriteThrough);
        let res = c.access(addr(0), Access::Write);
        assert_eq!(
            res,
            LookupResult::Miss {
                victim: None,
                allocated: false
            }
        );
        assert!(!c.contains(addr(0)));
        // Read fill, then write hit: stays clean.
        c.access(addr(0), Access::Read);
        c.access(addr(0), Access::Write);
        assert!(c.contains(addr(0)));
        assert!(!c.is_dirty(addr(0)));
        assert_eq!(c.write_throughs(), 2);
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn downgrade_block_cleans_in_place() {
        let mut c = small(WritePolicy::WriteBack);
        c.access(addr(0), Access::Write);
        assert_eq!(c.downgrade_block(addr(0)), Some(true));
        assert!(c.contains(addr(0)), "block stays resident");
        assert!(!c.is_dirty(addr(0)));
        assert_eq!(
            c.downgrade_block(addr(0)),
            Some(false),
            "second downgrade clean"
        );
        assert_eq!(c.downgrade_block(addr(99)), None, "absent block");
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn invalidate_block_reports_dirtiness() {
        let mut c = small(WritePolicy::WriteBack);
        c.access(addr(0), Access::Write);
        let ev = c.invalidate_block(addr(0)).unwrap();
        assert!(ev.dirty);
        assert!(c.invalidate_block(addr(0)).is_none());
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn flush_page_selective() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64 << 10,
            ways: 4,
            block_bytes: 128,
            write_policy: WritePolicy::WriteBack,
            replacement: Replacement::Lru,
        });
        // Page 0 has blocks 0..32 (4096/128); page 1 blocks 32..64.
        c.access(addr(0), Access::Write);
        c.access(addr(1), Access::Read);
        c.access(addr(33), Access::Write);
        let flushed = c.flush_page(Ppn::new(0));
        assert_eq!(flushed.len(), 2);
        assert!(flushed.iter().any(|e| e.dirty));
        assert!(c.contains(addr(33)), "other page untouched");
        assert!(!c.contains(addr(0)));
    }

    #[test]
    fn flush_all_empties() {
        let mut c = small(WritePolicy::WriteBack);
        c.access(addr(0), Access::Write);
        c.access(addr(5), Access::Read);
        let flushed = c.flush_all();
        assert_eq!(flushed.len(), 2);
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(flushed.iter().filter(|e| e.dirty).count(), 1);
    }

    #[test]
    fn random_replacement_runs() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 512, // 4 lines
            ways: 2,
            block_bytes: 128,
            write_policy: WritePolicy::WriteBack,
            replacement: Replacement::Random,
        });
        for b in 0..100 {
            c.access(addr(b), Access::Read);
        }
        assert!(c.valid_lines() <= 4);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small(WritePolicy::WriteBack);
        for b in 0..4 {
            c.access(addr(b), Access::Read);
        }
        for b in 0..4 {
            assert!(c.contains(addr(b)));
        }
    }
}
