//! The GPU-like accelerator: structure and behaviour modes.

use bc_cache::set_assoc::{Cache, CacheConfig, Replacement, WritePolicy};
use bc_cache::tlb::{Tlb, TlbConfig};
use bc_mem::addr::Ppn;
use bc_os::{ShootdownRequest, ShootdownScope};
use bc_sim::{Cycle, SimRng};
use bc_workloads::{AccessStream, WarpOp, Workload};

/// Accelerator trust behaviour (§2.1 threat vectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// A correctly implemented accelerator.
    Correct,
    /// A buggy accelerator whose TLB-shootdown logic is broken: it keeps
    /// using stale translations after the OS revokes them.
    BuggyStaleTlb,
    /// A malicious accelerator that, every `probe_period` ops per
    /// wavefront, also issues a forged physical request to an address it
    /// never obtained from the ATS; `probe_writes` makes the probes
    /// stores (integrity attack) rather than loads (confidentiality
    /// attack). It also ignores shootdowns and cache-flush requests.
    Malicious {
        /// Ops between forged probes (per wavefront).
        probe_period: u64,
        /// Whether probes are writes.
        probe_writes: bool,
    },
}

impl Behavior {
    /// Whether this accelerator honours TLB shootdowns.
    #[must_use]
    pub fn honours_shootdowns(self) -> bool {
        matches!(self, Behavior::Correct)
    }

    /// Whether this accelerator honours cache-flush requests.
    #[must_use]
    pub fn honours_flushes(self) -> bool {
        !matches!(self, Behavior::Malicious { .. })
    }
}

/// GPU structural configuration.
///
/// The two presets reproduce Table 3: a *highly threaded* GPU like an
/// integrated AMD Kaveri (8 compute units, 16 KiB L1 each, 256 KiB shared
/// L2) and a *moderately threaded* single-CU GPU with a 64 KiB L2 — "a
/// proxy for a more latency-sensitive accelerator" (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of compute units.
    pub compute_units: usize,
    /// Wavefront contexts per compute unit (latency tolerance).
    pub wavefronts_per_cu: usize,
    /// Whether the accelerator keeps private L1 caches (removed in the
    /// full-IOMMU and CAPI-like configurations of Table 2).
    pub has_l1: bool,
    /// L1 size per compute unit in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// Whether a shared L2 cache exists (removed in full-IOMMU).
    pub has_l2: bool,
    /// Shared L2 size in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Whether the accelerator keeps an L1 TLB (removed in full-IOMMU and
    /// CAPI-like, where translation lives in trusted hardware).
    pub has_l1_tlb: bool,
    /// L1 TLB entries per compute unit.
    pub l1_tlb_entries: usize,
    /// Extra latency added to L2/TLB accesses when those structures live
    /// in *trusted* hardware farther from the accelerator (the CAPI-like
    /// configuration: "the loose coupling may result in longer TLB and
    /// cache access times", §2.3).
    pub trusted_distance_penalty: u64,
    /// Memory-block size (matches the memory system: 128 B).
    pub block_bytes: u64,
}

impl GpuConfig {
    /// Table 3's highly threaded GPU: 8 CUs, 16 KiB L1s, 256 KiB shared L2.
    #[must_use]
    pub fn highly_threaded() -> Self {
        GpuConfig {
            compute_units: 8,
            wavefronts_per_cu: 16,
            has_l1: true,
            l1_bytes: 16 << 10,
            l1_ways: 4,
            l1_latency: 4,
            has_l2: true,
            l2_bytes: 256 << 10,
            l2_ways: 16,
            l2_latency: 20,
            has_l1_tlb: true,
            l1_tlb_entries: 64,
            trusted_distance_penalty: 0,
            block_bytes: 128,
        }
    }

    /// Table 3's moderately threaded GPU: 1 CU, 16 KiB L1, 64 KiB L2, few
    /// execution contexts — latency sensitive.
    #[must_use]
    pub fn moderately_threaded() -> Self {
        GpuConfig {
            compute_units: 1,
            wavefronts_per_cu: 4,
            l2_bytes: 64 << 10,
            ..Self::highly_threaded()
        }
    }

    fn l1_config(&self) -> CacheConfig {
        CacheConfig {
            size_bytes: self.l1_bytes,
            ways: self.l1_ways,
            block_bytes: self.block_bytes,
            // "Within the GPU, we use a simple write-through coherence
            // protocol" (§5.1).
            write_policy: WritePolicy::WriteThrough,
            replacement: Replacement::Lru,
        }
    }

    fn l2_config(&self) -> CacheConfig {
        CacheConfig {
            size_bytes: self.l2_bytes,
            ways: self.l2_ways,
            block_bytes: self.block_bytes,
            write_policy: WritePolicy::WriteBack,
            replacement: Replacement::Lru,
        }
    }
}

/// One wavefront execution context.
pub struct Wavefront {
    /// The access stream this wavefront executes.
    pub stream: Box<dyn AccessStream>,
    /// The earliest cycle at which the wavefront can issue its next op.
    pub ready_at: Cycle,
    /// Whether the stream is exhausted.
    pub done: bool,
    /// Ops issued so far (drives malicious probe cadence).
    pub ops_issued: u64,
    /// The op whose compute slots are in flight, parked here between its
    /// issue decision and the cycle its memory accesses go out. Each
    /// wavefront has at most one op in flight, so keeping the (inline,
    /// `Copy`) op in the context keeps the event queue's entries small.
    pub in_flight: Option<WarpOp>,
}

impl std::fmt::Debug for Wavefront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wavefront")
            .field("ready_at", &self.ready_at)
            .field("done", &self.done)
            .field("ops_issued", &self.ops_issued)
            .finish_non_exhaustive()
    }
}

impl Wavefront {
    fn new(stream: Box<dyn AccessStream>) -> Self {
        Wavefront {
            stream,
            ready_at: Cycle::ZERO,
            done: false,
            ops_issued: 0,
            in_flight: None,
        }
    }
}

/// One compute unit: private L1 cache, private L1 TLB, wavefront contexts.
#[derive(Debug)]
pub struct ComputeUnit {
    /// Private L1 data cache, if the configuration keeps one.
    pub l1: Option<Cache>,
    /// Private L1 TLB, if the configuration keeps one.
    pub tlb: Option<Tlb>,
    /// Wavefront execution contexts.
    pub wavefronts: Vec<Wavefront>,
}

/// The assembled GPU.
///
/// # Example
///
/// ```
/// use bc_accel::{Gpu, GpuConfig, Behavior};
/// use bc_workloads::{by_name, WorkloadSize};
///
/// let wl = by_name("nn", WorkloadSize::Tiny).unwrap();
/// let gpu = Gpu::new(GpuConfig::moderately_threaded(), Behavior::Correct, wl.as_ref(), 42);
/// assert_eq!(gpu.cus.len(), 1);
/// assert_eq!(gpu.cus[0].wavefronts.len(), 4);
/// ```
#[derive(Debug)]
pub struct Gpu {
    /// Structural configuration.
    pub config: GpuConfig,
    /// Trust behaviour.
    pub behavior: Behavior,
    /// Compute units.
    pub cus: Vec<ComputeUnit>,
    /// Shared L2 cache, if configured.
    pub l2: Option<Cache>,
    /// RNG for malicious probe targets.
    pub probe_rng: SimRng,
    /// Shootdowns the accelerator ignored (buggy/malicious only).
    pub ignored_shootdowns: u64,
}

impl Gpu {
    /// Builds a GPU running `workload`, one stream per wavefront,
    /// synthesized inline ([`bc_workloads::LiveSynthesis`]).
    pub fn new(config: GpuConfig, behavior: Behavior, workload: &dyn Workload, seed: u64) -> Self {
        Self::new_with_source(
            config,
            behavior,
            workload,
            seed,
            &bc_workloads::LiveSynthesis,
        )
    }

    /// Builds a GPU whose per-wavefront streams come from `source` — live
    /// generator synthesis or compiled-trace replay; the op sequences are
    /// identical either way (the [`bc_workloads::StreamSource`]
    /// determinism contract).
    pub fn new_with_source(
        config: GpuConfig,
        behavior: Behavior,
        workload: &dyn Workload,
        seed: u64,
        source: &dyn bc_workloads::StreamSource,
    ) -> Self {
        let total_wfs = (config.compute_units * config.wavefronts_per_cu) as u32;
        let mut cus = Vec::with_capacity(config.compute_units);
        let mut wf_id = 0u32;
        for _ in 0..config.compute_units {
            let mut wavefronts = Vec::with_capacity(config.wavefronts_per_cu);
            for _ in 0..config.wavefronts_per_cu {
                wavefronts.push(Wavefront::new(
                    source.open_stream(workload, wf_id, total_wfs, seed),
                ));
                wf_id += 1;
            }
            cus.push(ComputeUnit {
                l1: config.has_l1.then(|| Cache::new(config.l1_config())),
                tlb: config.has_l1_tlb.then(|| {
                    // Small L1 TLBs are fully associative in practice.
                    Tlb::new(TlbConfig {
                        entries: config.l1_tlb_entries,
                        ways: config.l1_tlb_entries,
                    })
                }),
                wavefronts,
            });
        }
        Gpu {
            l2: config.has_l2.then(|| Cache::new(config.l2_config())),
            config,
            behavior,
            cus,
            probe_rng: SimRng::seed_from(seed ^ 0x4D41_4C49_4349),
            ignored_shootdowns: 0,
        }
    }

    /// Total wavefront contexts.
    #[must_use]
    pub fn total_wavefronts(&self) -> usize {
        self.cus.iter().map(|c| c.wavefronts.len()).sum()
    }

    /// Whether every wavefront has drained its stream.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.cus.iter().all(|c| c.wavefronts.iter().all(|w| w.done))
    }

    /// Delivers a TLB shootdown. A correct accelerator invalidates; buggy
    /// and malicious ones ignore it (and are counted doing so).
    pub fn shootdown(&mut self, req: &ShootdownRequest) {
        if !self.behavior.honours_shootdowns() {
            self.ignored_shootdowns += 1;
            return;
        }
        for cu in &mut self.cus {
            if let Some(tlb) = &mut cu.tlb {
                match req.scope {
                    ShootdownScope::Page(vpn) => {
                        tlb.invalidate(req.asid, vpn);
                    }
                    ShootdownScope::FullAddressSpace => {
                        tlb.flush_asid(req.asid);
                    }
                }
            }
        }
    }

    /// Invalidates every accelerator TLB entry (used with full flushes).
    pub fn flush_tlbs(&mut self) {
        for cu in &mut self.cus {
            if let Some(tlb) = &mut cu.tlb {
                tlb.flush_all();
            }
        }
    }

    /// Flushes all accelerator caches, returning every previously valid
    /// block (dirty ones must be written back through the border by the
    /// caller). A malicious accelerator ignores the request and returns
    /// nothing — §3.2.4 explains why this is still safe: its stale dirty
    /// blocks will be caught at writeback time.
    pub fn flush_caches(&mut self) -> Vec<bc_cache::set_assoc::Evicted> {
        let mut evicted = Vec::new();
        self.flush_caches_into(&mut evicted);
        evicted
    }

    /// [`flush_caches`](Self::flush_caches) into a caller-provided scratch
    /// buffer (appended, not cleared), so downgrade storms reuse one
    /// allocation. Eviction order is unchanged: each CU's L1, then the
    /// shared L2.
    pub fn flush_caches_into(&mut self, out: &mut Vec<bc_cache::set_assoc::Evicted>) {
        if !self.behavior.honours_flushes() {
            return;
        }
        for cu in &mut self.cus {
            if let Some(l1) = &mut cu.l1 {
                l1.flush_all_into(out);
            }
        }
        if let Some(l2) = &mut self.l2 {
            l2.flush_all_into(out);
        }
    }

    /// Flushes blocks of a single physical page from all levels (the
    /// selective flush of §3.2.4).
    pub fn flush_page(&mut self, ppn: Ppn) -> Vec<bc_cache::set_assoc::Evicted> {
        let mut evicted = Vec::new();
        self.flush_page_into(ppn, &mut evicted);
        evicted
    }

    /// [`flush_page`](Self::flush_page) into a caller-provided scratch
    /// buffer (appended, not cleared).
    pub fn flush_page_into(&mut self, ppn: Ppn, out: &mut Vec<bc_cache::set_assoc::Evicted>) {
        if !self.behavior.honours_flushes() {
            return;
        }
        for cu in &mut self.cus {
            if let Some(l1) = &mut cu.l1 {
                l1.flush_page_into(ppn, out);
            }
        }
        if let Some(l2) = &mut self.l2 {
            l2.flush_page_into(ppn, out);
        }
    }

    /// For a malicious accelerator: whether this op index should carry a
    /// forged probe, and the probe's target within `phys_pages`.
    pub fn maybe_probe(&mut self, ops_issued: u64, phys_pages: u64) -> Option<(Ppn, bool)> {
        if let Behavior::Malicious {
            probe_period,
            probe_writes,
        } = self.behavior
        {
            if probe_period > 0 && ops_issued % probe_period == probe_period - 1 {
                // Scan low physical memory, where kernels and early
                // allocations (other processes' data, page tables) live —
                // the realistic target of a probing trojan.
                let scan_range = phys_pages.clamp(1, 2048);
                let ppn = Ppn::new(self.probe_rng.below(scan_range));
                return Some((ppn, probe_writes));
            }
        }
        None
    }
}

/// Snapshot support.
///
/// A [`Wavefront`]'s stream is a `Box<dyn AccessStream>` and cannot be
/// serialized; instead the snapshot records how many ops the wavefront
/// has consumed, and a restore skips the stream the build opened (at its
/// start, through the same [`bc_workloads::StreamSource`] coordinate)
/// that many ops with [`AccessStream::skip`], which a compiled trace
/// answers by seeking. The `StreamSource` determinism contract makes
/// this byte-exact: the built stream yields the same op sequence the
/// original did. The config and the behavior are fixed by the build that
/// is read over; the shape (CU, wavefront, L1, TLB and L2 presence) is
/// checked against it.
mod snapshot_support {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::{ComputeUnit, Gpu, Wavefront};

    /// A `done` wavefront is NOT necessarily at stream exhaustion: an op
    /// cap or a device fence (violation policy) marks it done with ops
    /// still unread. The stream is never read again either way, so its
    /// position past `ops_issued` is irrelevant.
    impl Snap for Wavefront {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.snap(&mut self.ready_at)?;
            c.snap(&mut self.done)?;
            c.snap(&mut self.ops_issued)?;
            c.snap(&mut self.in_flight)?;
            if c.reading() && !self.stream.skip(self.ops_issued) {
                return Err(SnapError::BadValue("stream shorter than snapshot"));
            }
            Ok(())
        }
    }

    impl Snap for ComputeUnit {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.built_opt(&mut self.l1, "L1 presence")?;
            c.built_opt(&mut self.tlb, "L1 TLB presence")?;
            c.each(&mut self.wavefronts, "wavefront count")
        }
    }

    /// The CU count is explicit: a decomposed system peels its CUs into
    /// per-component frontends and snapshots the (then CU-less) device
    /// here, the clusters separately.
    impl Snap for Gpu {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"GPU0")?;
            c.each(&mut self.cus, "GPU compute-unit count")?;
            c.built_opt(&mut self.l2, "L2 presence")?;
            c.snap(&mut self.probe_rng)?;
            c.snap(&mut self.ignored_shootdowns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_mem::addr::{Asid, PageSize, Vpn};
    use bc_mem::perms::PagePerms;
    use bc_workloads::{by_name, WorkloadSize};

    fn tiny_gpu(behavior: Behavior) -> Gpu {
        let wl = by_name("nn", WorkloadSize::Tiny).unwrap();
        Gpu::new(GpuConfig::moderately_threaded(), behavior, wl.as_ref(), 1)
    }

    #[test]
    fn presets_match_table3() {
        let h = GpuConfig::highly_threaded();
        assert_eq!(h.compute_units, 8);
        assert_eq!(h.l1_bytes, 16 << 10);
        assert_eq!(h.l2_bytes, 256 << 10);
        assert_eq!(h.l1_tlb_entries, 64);
        let m = GpuConfig::moderately_threaded();
        assert_eq!(m.compute_units, 1);
        assert_eq!(m.l2_bytes, 64 << 10);
    }

    #[test]
    fn construction_spawns_all_wavefronts() {
        let wl = by_name("nn", WorkloadSize::Tiny).unwrap();
        let gpu = Gpu::new(
            GpuConfig::highly_threaded(),
            Behavior::Correct,
            wl.as_ref(),
            1,
        );
        assert_eq!(gpu.total_wavefronts(), 8 * 16);
        assert!(!gpu.all_done());
        assert!(gpu.l2.is_some());
        assert!(gpu.cus.iter().all(|c| c.l1.is_some() && c.tlb.is_some()));
    }

    #[test]
    fn structureless_configs_have_no_caches() {
        let wl = by_name("nn", WorkloadSize::Tiny).unwrap();
        let cfg = GpuConfig {
            has_l1: false,
            has_l2: false,
            has_l1_tlb: false,
            ..GpuConfig::moderately_threaded()
        };
        let gpu = Gpu::new(cfg, Behavior::Correct, wl.as_ref(), 1);
        assert!(gpu.l2.is_none());
        assert!(gpu.cus.iter().all(|c| c.l1.is_none() && c.tlb.is_none()));
    }

    fn shootdown_for(asid: Asid, vpn: Vpn) -> ShootdownRequest {
        ShootdownRequest {
            asid,
            scope: ShootdownScope::Page(vpn),
            old_ppn: Some(Ppn::new(7)),
            old_perms: PagePerms::READ_WRITE,
            new_perms: PagePerms::NONE,
        }
    }

    #[test]
    fn correct_gpu_honours_shootdowns() {
        let mut gpu = tiny_gpu(Behavior::Correct);
        let asid = Asid::new(1);
        let vpn = Vpn::new(0x10);
        gpu.cus[0].tlb.as_mut().unwrap().insert(bc_cache::TlbEntry {
            asid,
            vpn,
            ppn: Ppn::new(7),
            perms: PagePerms::READ_WRITE,
            size: PageSize::Base4K,
        });
        gpu.shootdown(&shootdown_for(asid, vpn));
        assert!(gpu.cus[0].tlb.as_ref().unwrap().peek(asid, vpn).is_none());
        assert_eq!(gpu.ignored_shootdowns, 0);
    }

    #[test]
    fn buggy_gpu_keeps_stale_translations() {
        let mut gpu = tiny_gpu(Behavior::BuggyStaleTlb);
        let asid = Asid::new(1);
        let vpn = Vpn::new(0x10);
        gpu.cus[0].tlb.as_mut().unwrap().insert(bc_cache::TlbEntry {
            asid,
            vpn,
            ppn: Ppn::new(7),
            perms: PagePerms::READ_WRITE,
            size: PageSize::Base4K,
        });
        gpu.shootdown(&shootdown_for(asid, vpn));
        // The stale entry survives: the exact §2.1 threat.
        assert!(gpu.cus[0].tlb.as_ref().unwrap().peek(asid, vpn).is_some());
        assert_eq!(gpu.ignored_shootdowns, 1);
    }

    #[test]
    fn malicious_gpu_ignores_flushes() {
        let mut gpu = tiny_gpu(Behavior::Malicious {
            probe_period: 10,
            probe_writes: true,
        });
        use bc_cache::set_assoc::Access;
        use bc_mem::addr::PhysAddr;
        if let Some(l2) = &mut gpu.l2 {
            l2.access(PhysAddr::new(0x1000), Access::Write);
            assert_eq!(l2.dirty_lines(), 1);
        }
        let flushed = gpu.flush_caches();
        assert!(flushed.is_empty(), "malicious accel pretends to flush");
        assert_eq!(gpu.l2.as_ref().unwrap().dirty_lines(), 1);
    }

    #[test]
    fn correct_gpu_flushes_dirty_blocks() {
        let mut gpu = tiny_gpu(Behavior::Correct);
        use bc_cache::set_assoc::Access;
        use bc_mem::addr::PhysAddr;
        gpu.l2
            .as_mut()
            .unwrap()
            .access(PhysAddr::new(0x1000), Access::Write);
        let flushed = gpu.flush_caches();
        assert_eq!(flushed.len(), 1);
        assert!(flushed[0].dirty);
    }

    #[test]
    fn selective_page_flush() {
        let mut gpu = tiny_gpu(Behavior::Correct);
        use bc_cache::set_assoc::Access;
        use bc_mem::addr::PhysAddr;
        let l2 = gpu.l2.as_mut().unwrap();
        l2.access(PhysAddr::new(0x1000), Access::Write); // page 1
        l2.access(PhysAddr::new(0x2000), Access::Write); // page 2
        let flushed = gpu.flush_page(Ppn::new(1));
        assert_eq!(flushed.len(), 1);
        assert!(gpu.l2.as_ref().unwrap().contains(PhysAddr::new(0x2000)));
    }

    #[test]
    fn malicious_probe_cadence() {
        let mut gpu = tiny_gpu(Behavior::Malicious {
            probe_period: 5,
            probe_writes: false,
        });
        let probes: Vec<bool> = (0..10)
            .map(|i| gpu.maybe_probe(i, 1000).is_some())
            .collect();
        assert_eq!(
            probes,
            vec![false, false, false, false, true, false, false, false, false, true]
        );
        // Correct accelerators never probe.
        let mut good = tiny_gpu(Behavior::Correct);
        assert!((0..100).all(|i| good.maybe_probe(i, 1000).is_none()));
    }

    #[test]
    fn behavior_predicates() {
        assert!(Behavior::Correct.honours_shootdowns());
        assert!(Behavior::Correct.honours_flushes());
        assert!(!Behavior::BuggyStaleTlb.honours_shootdowns());
        assert!(Behavior::BuggyStaleTlb.honours_flushes());
        let mal = Behavior::Malicious {
            probe_period: 1,
            probe_writes: true,
        };
        assert!(!mal.honours_shootdowns());
        assert!(!mal.honours_flushes());
    }
}
