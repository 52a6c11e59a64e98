//! The Address Translation Service.

use bc_cache::tlb::{Tlb, TlbConfig, TlbEntry};
use bc_mem::addr::{Asid, Vpn};
use bc_mem::dram::Dram;
use bc_os::{Kernel, OsError, ShootdownRequest, ShootdownScope};
use bc_sim::resource::Channels;
use bc_sim::stats::{Counter, StatsTable};
use bc_sim::Cycle;

/// How the system routes accelerator memory traffic through the IOMMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IommuMode {
    /// The IOMMU only serves translation requests (ATS); the accelerator
    /// caches translations in its own TLB and accesses memory directly by
    /// physical address, unchecked. Fast and unsafe (Figure 1b).
    AtsOnly,
    /// Every accelerator memory request is a virtual address translated
    /// and permission-checked at the IOMMU. Safe and slow (Figure 1a).
    Full,
}

/// ATS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtsConfig {
    /// IOTLB entries (the trusted shared L2 TLB of Table 3: 512 entries).
    pub iotlb_entries: usize,
    /// IOTLB associativity.
    pub iotlb_ways: usize,
    /// IOTLB hit latency in cycles.
    pub iotlb_latency: u64,
    /// Number of concurrent page-table walkers.
    pub walkers: usize,
    /// Page-walk-cache entries: upper-level page-table nodes cached by the
    /// walker, reducing a hit walk to a single leaf-level memory read.
    pub pwc_entries: usize,
    /// Extra kernel-involvement latency charged when a walk takes a minor
    /// page fault (lazy allocation).
    pub fault_latency: u64,
}

impl Default for AtsConfig {
    fn default() -> Self {
        AtsConfig {
            iotlb_entries: 512,
            iotlb_ways: 8,
            iotlb_latency: 5,
            walkers: 8,
            pwc_entries: 64,
            fault_latency: 500,
        }
    }
}

/// An [`AtsConfig`] the hardware cannot be built with. Surfaced as a
/// typed [`build`](Ats::try_new) error instead of a process abort, so a
/// bad sweep cell reports a failure rather than killing the whole
/// sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtsConfigError {
    /// IOTLB geometry is degenerate: zero ways, fewer entries than
    /// ways, or a non-power-of-two set count.
    BadIotlbGeometry {
        /// Configured entry count.
        entries: usize,
        /// Configured associativity.
        ways: usize,
    },
    /// At least one page-table walker is required.
    NoWalkers,
}

impl std::fmt::Display for AtsConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtsConfigError::BadIotlbGeometry { entries, ways } => write!(
                f,
                "degenerate IOTLB geometry: {entries} entries / {ways} ways \
                 (need ways > 0, entries >= ways, power-of-two sets)"
            ),
            AtsConfigError::NoWalkers => write!(f, "ATS needs at least one page-table walker"),
        }
    }
}

impl std::error::Error for AtsConfigError {}

impl AtsConfig {
    /// Validates the geometry the constructors would otherwise assert.
    ///
    /// # Errors
    ///
    /// Returns [`AtsConfigError`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), AtsConfigError> {
        let bad_sets = self.ways() == 0
            || self.iotlb_entries < self.iotlb_ways
            || !(self.iotlb_entries / self.iotlb_ways).is_power_of_two();
        if bad_sets {
            return Err(AtsConfigError::BadIotlbGeometry {
                entries: self.iotlb_entries,
                ways: self.iotlb_ways,
            });
        }
        if self.walkers == 0 {
            return Err(AtsConfigError::NoWalkers);
        }
        Ok(())
    }

    fn ways(&self) -> usize {
        self.iotlb_ways
    }
}

/// A completed translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtsResponse {
    /// The translation, in the shape accelerator TLBs cache.
    pub entry: TlbEntry,
    /// When the response is available.
    pub done: Cycle,
    /// Whether the walk took a minor page fault.
    pub faulted: bool,
    /// Whether the IOTLB hit (no walk was needed).
    pub iotlb_hit: bool,
}

/// The trusted Address Translation Service.
///
/// # Example
///
/// ```
/// use bc_iommu::{Ats, AtsConfig};
/// use bc_os::{Kernel, KernelConfig};
/// use bc_mem::{Dram, DramConfig, PagePerms, VirtAddr};
/// use bc_sim::Cycle;
///
/// let mut kernel = Kernel::new(KernelConfig::default());
/// let mut dram = Dram::new(DramConfig::default());
/// let pid = kernel.create_process();
/// kernel.map_region(pid, VirtAddr::new(0x1000), 1, PagePerms::READ_WRITE)?;
///
/// let mut ats = Ats::new(AtsConfig::default());
/// let resp = ats.translate(Cycle::ZERO, &mut kernel, &mut dram, pid, VirtAddr::new(0x1000).vpn())?;
/// assert!(resp.entry.perms.writable());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Ats {
    config: AtsConfig,
    iotlb: Tlb,
    walker_ports: Channels,
    /// LRU page-walk cache of level-1 table prefixes (`vpn >> 9`).
    pwc: Vec<(u64, u64)>,
    pwc_clock: u64,
    pwc_hits: Counter,
    translations: Counter,
    walks: Counter,
    faults: Counter,
}

impl Ats {
    /// Creates an ATS with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid geometry; prefer [`Ats::try_new`] on
    /// config-driven paths where a bad cell must not abort the process.
    #[allow(clippy::expect_used)] // documented panic on programmer error
    #[must_use]
    pub fn new(config: AtsConfig) -> Self {
        Ats::try_new(config).expect("invalid ATS configuration")
    }

    /// Creates an ATS, rejecting invalid geometry as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`AtsConfigError`] when [`AtsConfig::validate`] fails.
    pub fn try_new(config: AtsConfig) -> Result<Self, AtsConfigError> {
        config.validate()?;
        Ok(Ats {
            iotlb: Tlb::new(TlbConfig {
                entries: config.iotlb_entries,
                ways: config.iotlb_ways,
            }),
            walker_ports: Channels::new(config.walkers),
            pwc: Vec::with_capacity(config.pwc_entries),
            pwc_clock: 0,
            pwc_hits: Counter::new(),
            config,
            translations: Counter::new(),
            walks: Counter::new(),
            faults: Counter::new(),
        })
    }

    /// Looks up / refreshes the page-walk cache for `vpn`'s upper levels;
    /// returns whether the upper levels were cached.
    fn pwc_touch(&mut self, vpn: Vpn) -> bool {
        self.pwc_clock += 1;
        let prefix = vpn.as_u64() >> 9;
        if let Some(slot) = self.pwc.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1 = self.pwc_clock;
            self.pwc_hits.inc();
            return true;
        }
        if self.pwc.len() >= self.config.pwc_entries.max(1) {
            // Evict LRU.
            if let Some(idx) = self
                .pwc
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
            {
                self.pwc.swap_remove(idx);
            }
        }
        if self.config.pwc_entries > 0 {
            self.pwc.push((prefix, self.pwc_clock));
        }
        false
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> AtsConfig {
        self.config
    }

    /// Serves one translation request arriving at `at`.
    ///
    /// On an IOTLB miss the hardware walker reads one page-table node per
    /// level from DRAM (sequentially — each level's address depends on the
    /// previous level's contents), occupying a walker port for the whole
    /// walk. Lazily allocated pages take a minor fault, adding
    /// `fault_latency`.
    ///
    /// # Errors
    ///
    /// Propagates [`OsError`] for segfaults (address outside every VMA),
    /// dead processes, or memory exhaustion. A segfaulting translation is
    /// *not* a Border Control violation — it never produces a physical
    /// address at all; the OS simply refuses.
    pub fn translate(
        &mut self,
        at: Cycle,
        kernel: &mut Kernel,
        dram: &mut Dram,
        asid: Asid,
        vpn: Vpn,
    ) -> Result<AtsResponse, OsError> {
        self.translations.inc();
        if let Some(entry) = self.iotlb.lookup(asid, vpn) {
            return Ok(AtsResponse {
                entry,
                done: at + self.config.iotlb_latency,
                faulted: false,
                iotlb_hit: true,
            });
        }

        // Miss: hardware walk. Wait for a free walker, then perform the
        // per-level DRAM reads in dependency order (each level's address
        // depends on the previous level's contents), holding the walker
        // for the whole walk.
        self.walks.inc();
        let start = self
            .walker_ports
            .earliest_free()
            .max(at + self.config.iotlb_latency);
        let ft = kernel.touch(asid, vpn)?;
        let mut t = start;
        // A page-walk-cache hit skips the upper levels: only the leaf
        // level is read from memory.
        let levels = if self.pwc_touch(vpn) {
            1
        } else {
            ft.translation.levels_walked
        };
        for _ in 0..levels {
            // Each level is one (small) memory read; charge a block read.
            t = dram.read_block(t, ft.translation.ppn.base());
        }
        if ft.faulted {
            self.faults.inc();
            t += self.config.fault_latency;
        }
        self.walker_ports.serve(start, t - start);
        // Huge translations are normalized to their 2 MiB base so one
        // TLB entry covers the whole page.
        let entry = match ft.translation.size {
            bc_mem::PageSize::Base4K => TlbEntry {
                asid,
                vpn,
                ppn: ft.translation.ppn,
                perms: ft.translation.perms,
                size: ft.translation.size,
            },
            bc_mem::PageSize::Huge2M => {
                let sub = vpn.as_u64() % 512;
                TlbEntry {
                    asid,
                    vpn: Vpn::new(vpn.as_u64() - sub),
                    ppn: bc_mem::Ppn::new(ft.translation.ppn.as_u64() - sub),
                    perms: ft.translation.perms,
                    size: ft.translation.size,
                }
            }
        };
        self.iotlb.insert(entry);
        Ok(AtsResponse {
            entry,
            done: t,
            faulted: ft.faulted,
            iotlb_hit: false,
        })
    }

    /// Applies a shootdown to the IOTLB (the ATS is trusted and always
    /// honours shootdowns, unlike a buggy accelerator TLB).
    pub fn shootdown(&mut self, req: &ShootdownRequest) {
        match req.scope {
            ShootdownScope::Page(vpn) => {
                self.iotlb.invalidate(req.asid, vpn);
            }
            ShootdownScope::FullAddressSpace => {
                self.iotlb.flush_asid(req.asid);
            }
        }
    }

    /// Invalidates the whole IOTLB (accelerator release, Fig 3e).
    pub fn flush(&mut self) {
        self.iotlb.flush_all();
    }

    /// Total translation requests served.
    #[must_use]
    pub fn translations(&self) -> u64 {
        self.translations.get()
    }

    /// Page walks performed (IOTLB misses).
    #[must_use]
    pub fn walks(&self) -> u64 {
        self.walks.get()
    }

    /// Minor page faults taken during walks.
    #[must_use]
    pub fn faults(&self) -> u64 {
        self.faults.get()
    }

    /// Page-walk-cache hits (walks shortened to one memory access).
    #[must_use]
    pub fn pwc_hits(&self) -> u64 {
        self.pwc_hits.get()
    }

    /// IOTLB hit/miss statistics.
    #[must_use]
    pub fn iotlb_stats(&self) -> bc_sim::stats::HitMiss {
        self.iotlb.stats()
    }

    /// Renders a stats table for reports.
    #[must_use]
    pub fn stats(&self) -> StatsTable {
        let mut t = StatsTable::new("ATS/IOMMU");
        t.push("translations", self.translations.get());
        t.push("page walks", self.walks.get());
        t.push("minor faults", self.faults.get());
        t.push_pct("IOTLB miss ratio", self.iotlb.stats().miss_ratio());
        t
    }
}

/// Snapshot codec: the IOTLB and walker calendars carry their own
/// codecs; the page-walk cache vector is saved in slot order (lookup is
/// exact-match and eviction is min-by-clock, but `swap_remove` makes the
/// slot order part of the exact state anyway). The config is fixed by
/// the build that is read over.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::Ats;

    impl Snap for Ats {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"ATS0")?;
            c.snap(&mut self.iotlb)?;
            c.snap(&mut self.walker_ports)?;
            c.snap(&mut self.pwc)?;
            c.snap(&mut self.pwc_clock)?;
            c.snap(&mut self.pwc_hits)?;
            c.snap(&mut self.translations)?;
            c.snap(&mut self.walks)?;
            c.snap(&mut self.faults)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_mem::dram::DramConfig;
    use bc_mem::perms::PagePerms;
    use bc_mem::VirtAddr;
    use bc_os::KernelConfig;

    fn setup() -> (Kernel, Dram, Ats, Asid) {
        let mut kernel = Kernel::new(KernelConfig {
            phys_bytes: 64 << 20,
            ..KernelConfig::default()
        });
        let dram = Dram::new(DramConfig::default());
        let ats = Ats::new(AtsConfig::default());
        let pid = kernel.create_process();
        kernel
            .map_region(pid, VirtAddr::new(0x10000), 8, PagePerms::READ_WRITE)
            .unwrap();
        (kernel, dram, ats, pid)
    }

    #[test]
    fn miss_then_hit_timing() {
        let (mut kernel, mut dram, mut ats, pid) = setup();
        let vpn = VirtAddr::new(0x10000).vpn();
        let first = ats
            .translate(Cycle::ZERO, &mut kernel, &mut dram, pid, vpn)
            .unwrap();
        assert!(!first.iotlb_hit);
        assert!(!first.faulted, "eagerly mapped page");
        // 4-level walk: 4 dependent DRAM reads, ~4 * 102 cycles.
        assert!(
            first.done.as_u64() > 400,
            "walk was {}",
            first.done.as_u64()
        );

        let second = ats
            .translate(Cycle::ZERO, &mut kernel, &mut dram, pid, vpn)
            .unwrap();
        assert!(second.iotlb_hit);
        assert_eq!(second.done.as_u64(), AtsConfig::default().iotlb_latency);
        assert_eq!(ats.walks(), 1);
        assert_eq!(ats.translations(), 2);
    }

    #[test]
    fn lazy_page_faults_once() {
        let (mut kernel, mut dram, mut ats, pid) = setup();
        kernel
            .map_lazy_region(pid, VirtAddr::new(0x8000_0000), 4, PagePerms::READ_ONLY)
            .unwrap();
        let vpn = VirtAddr::new(0x8000_0000).vpn();
        let r = ats
            .translate(Cycle::ZERO, &mut kernel, &mut dram, pid, vpn)
            .unwrap();
        assert!(r.faulted);
        assert_eq!(ats.faults(), 1);
        assert!(r.done.as_u64() >= AtsConfig::default().fault_latency);
        // Perms come from the VMA.
        assert_eq!(r.entry.perms, PagePerms::READ_ONLY);
    }

    #[test]
    fn segfault_propagates() {
        let (mut kernel, mut dram, mut ats, pid) = setup();
        let err = ats
            .translate(Cycle::ZERO, &mut kernel, &mut dram, pid, Vpn::new(0xDEAD))
            .unwrap_err();
        assert!(matches!(err, OsError::Segfault(..)));
    }

    #[test]
    fn shootdown_invalidates_iotlb() {
        let (mut kernel, mut dram, mut ats, pid) = setup();
        let vpn = VirtAddr::new(0x10000).vpn();
        ats.translate(Cycle::ZERO, &mut kernel, &mut dram, pid, vpn)
            .unwrap();
        let req = kernel.protect_page(pid, vpn, PagePerms::READ_ONLY).unwrap();
        ats.shootdown(&req);
        // Next translation walks again and sees the new permissions.
        let r = ats
            .translate(Cycle::ZERO, &mut kernel, &mut dram, pid, vpn)
            .unwrap();
        assert!(!r.iotlb_hit);
        assert_eq!(r.entry.perms, PagePerms::READ_ONLY);
        assert_eq!(ats.walks(), 2);
    }

    #[test]
    fn full_flush() {
        let (mut kernel, mut dram, mut ats, pid) = setup();
        for i in 0..4 {
            ats.translate(
                Cycle::ZERO,
                &mut kernel,
                &mut dram,
                pid,
                VirtAddr::new(0x10000).vpn().add(i),
            )
            .unwrap();
        }
        ats.flush();
        let r = ats
            .translate(
                Cycle::ZERO,
                &mut kernel,
                &mut dram,
                pid,
                VirtAddr::new(0x10000).vpn(),
            )
            .unwrap();
        assert!(!r.iotlb_hit);
    }

    #[test]
    fn page_walk_cache_shortens_sibling_walks() {
        let (mut kernel, mut dram, mut ats, pid) = setup();
        let dones: Vec<u64> = (0..3)
            .map(|i| {
                ats.translate(
                    Cycle::ZERO,
                    &mut kernel,
                    &mut dram,
                    pid,
                    VirtAddr::new(0x10000).vpn().add(i),
                )
                .unwrap()
                .done
                .as_u64()
            })
            .collect();
        assert_eq!(ats.walks(), 3);
        // The first walk reads all four levels; its siblings in the same
        // 2 MiB region hit the page-walk cache and read only the leaf.
        assert_eq!(ats.pwc_hits(), 2);
        assert!(
            dones[1] < dones[0] && dones[2] < dones[0],
            "PWC-hit walks should be shorter: {dones:?}"
        );
    }

    #[test]
    fn stats_table_renders() {
        let (mut kernel, mut dram, mut ats, pid) = setup();
        ats.translate(
            Cycle::ZERO,
            &mut kernel,
            &mut dram,
            pid,
            VirtAddr::new(0x10000).vpn(),
        )
        .unwrap();
        let s = ats.stats().to_string();
        assert!(s.contains("page walks"));
    }
}
