//! The host CPU actor: Table 3's CPU core, with its own cache hierarchy,
//! sharing the unified virtual address space with the accelerator.
//!
//! The paper's system uses "a MOESI cache coherence protocol with a null
//! directory for coherence between the CPU and the GPU" (§5.1): when the
//! CPU touches a block the GPU holds dirty, the GPU must supply/write it
//! back — and that writeback crosses the border, where Border Control
//! checks it like any other. The host actor makes that traffic real.
//!
//! The CPU runs the host side of the application: polling result buffers
//! and preparing the next batch. Its stream mixes accesses to a private
//! region with touches of the (shared) workload footprint at a
//! configurable rate.

use bc_cache::set_assoc::{Access, Cache, CacheConfig, LookupResult, Replacement, WritePolicy};
use bc_mem::addr::PhysAddr;
use bc_mem::VirtAddr;
use bc_sim::stats::Counter;
use bc_sim::SimRng;

/// Host-CPU activity configuration. `None` in [`crate::SystemConfig`]
/// disables the actor (the paper's kernels run with the host idle; the
/// actor exists for the coherence studies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostActivityConfig {
    // bc-lint: allow-file(float) — workload-mix config fractions; each is
    // consumed through SimRng::chance's single exact comparison or converted
    // to fixed-point once at build time, so runs stay seed-reproducible.
    /// GPU cycles between CPU memory operations (a 3 GHz core issuing a
    /// memory op every ~40 CPU cycles ≈ every 10 GPU cycles).
    pub period: u64,
    /// Fraction of CPU accesses that touch the *shared* workload
    /// footprint (the rest hit the host's private region).
    pub shared_fraction: f64,
    /// Fraction of CPU accesses that are stores.
    pub write_fraction: f64,
    /// Private host working-set size in bytes.
    pub private_bytes: u64,
}

impl Default for HostActivityConfig {
    fn default() -> Self {
        HostActivityConfig {
            period: 10,
            shared_fraction: 0.2,
            write_fraction: 0.25,
            private_bytes: 1 << 20,
        }
    }
}

/// Table 3's CPU cache hierarchy: 64 KiB L1, 2 MiB L2. Latencies are in
/// GPU (700 MHz) cycles — the 3 GHz core's caches look fast from here.
#[derive(Debug)]
pub struct HostCpu {
    config: HostActivityConfig,
    /// 64 KiB L1.
    pub l1: Cache,
    /// 2 MiB L2.
    pub l2: Cache,
    rng: SimRng,
    accesses: Counter,
    shared_touches: Counter,
    /// Dirty GPU blocks the CPU pulled back across the border.
    recalls_from_gpu: Counter,
}

impl HostCpu {
    /// Creates the host actor.
    #[must_use]
    pub fn new(config: HostActivityConfig, seed: u64) -> Self {
        HostCpu {
            config,
            l1: Cache::new(CacheConfig {
                size_bytes: 64 << 10,
                ways: 8,
                block_bytes: 128,
                write_policy: WritePolicy::WriteBack,
                replacement: Replacement::Lru,
            }),
            l2: Cache::new(CacheConfig {
                size_bytes: 2 << 20,
                ways: 16,
                block_bytes: 128,
                write_policy: WritePolicy::WriteBack,
                replacement: Replacement::Lru,
            }),
            rng: SimRng::seed_from(seed ^ 0xC0DE_CAFE),
            accesses: Counter::new(),
            shared_touches: Counter::new(),
            recalls_from_gpu: Counter::new(),
        }
    }

    /// The activity configuration.
    #[must_use]
    pub fn config(&self) -> HostActivityConfig {
        self.config
    }

    /// Chooses the next access: virtual address, whether it is a write,
    /// and whether it landed in the shared footprint.
    pub fn next_access(
        &mut self,
        shared_base: VirtAddr,
        shared_bytes: u64,
        private_base: VirtAddr,
    ) -> (VirtAddr, bool, bool) {
        self.accesses.inc();
        let write = self.rng.chance(self.config.write_fraction);
        let shared = self.rng.chance(self.config.shared_fraction) && shared_bytes >= 128;
        let va = if shared {
            self.shared_touches.inc();
            let blocks = shared_bytes / 128;
            shared_base.offset(self.rng.below(blocks) * 128)
        } else {
            let blocks = self.config.private_bytes / 128;
            private_base.offset(self.rng.below(blocks.max(1)) * 128)
        };
        (va, write, shared)
    }

    /// Runs one access through the CPU hierarchy (tags only; the caller
    /// charges DRAM on a miss). Returns whether the access missed both
    /// levels.
    pub fn access(&mut self, pa: PhysAddr, write: bool) -> CpuLookup {
        let kind = if write { Access::Write } else { Access::Read };
        if self.l1.access(pa, kind).is_hit() {
            return CpuLookup::L1Hit;
        }
        match self.l2.access(pa, kind) {
            LookupResult::Hit => CpuLookup::L2Hit,
            LookupResult::Miss { victim, .. } => CpuLookup::Miss {
                victim_dirty: victim.filter(|v| v.dirty).map(|v| v.addr),
            },
        }
    }

    /// Notes a dirty recall from the GPU.
    pub fn count_recall(&mut self) {
        self.recalls_from_gpu.inc();
    }

    /// Evicts/downgrades a block because the *GPU* requested it (remote
    /// GetS/GetM through the null directory). Returns the dirty block's
    /// address if the CPU must write data back first.
    pub fn snoop(&mut self, pa: PhysAddr, gpu_writes: bool) -> Option<PhysAddr> {
        let mut dirty = false;
        if gpu_writes {
            // Remote GetM: invalidate everywhere.
            if let Some(ev) = self.l1.invalidate_block(pa) {
                dirty |= ev.dirty;
            }
            if let Some(ev) = self.l2.invalidate_block(pa) {
                dirty |= ev.dirty;
            }
        } else {
            // Remote GetS: downgrade to shared, supplying data if dirty.
            if let Some(was) = self.l1.downgrade_block(pa) {
                dirty |= was;
            }
            if let Some(was) = self.l2.downgrade_block(pa) {
                dirty |= was;
            }
        }
        dirty.then_some(pa)
    }

    /// Total CPU memory operations issued.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses.get()
    }

    /// CPU operations that touched the shared footprint.
    #[must_use]
    pub fn shared_touches(&self) -> u64 {
        self.shared_touches.get()
    }

    /// Dirty blocks recalled from the GPU on CPU demand.
    #[must_use]
    pub fn recalls_from_gpu(&self) -> u64 {
        self.recalls_from_gpu.get()
    }
}

/// Result of a CPU cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuLookup {
    /// Hit in the 64 KiB L1.
    L1Hit,
    /// Hit in the 2 MiB L2.
    L2Hit,
    /// Missed both; `victim_dirty` is a dirty eviction needing writeback.
    Miss {
        /// Dirty victim displaced by the fill, if any.
        victim_dirty: Option<PhysAddr>,
    },
}

/// Snapshot codec. The activity configuration carries `f64` mix
/// fractions, so it is never serialized — it comes from the build, as
/// whether the system has a host actor at all.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::HostCpu;

    impl Snap for HostCpu {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"HOST")?;
            c.snap(&mut self.l1)?;
            c.snap(&mut self.l2)?;
            c.snap(&mut self.rng)?;
            c.snap(&mut self.accesses)?;
            c.snap(&mut self.shared_touches)?;
            c.snap(&mut self.recalls_from_gpu)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostCpu {
        HostCpu::new(HostActivityConfig::default(), 42)
    }

    #[test]
    fn access_mix_respects_fractions() {
        let mut h = HostCpu::new(
            HostActivityConfig {
                shared_fraction: 1.0,
                write_fraction: 1.0,
                ..HostActivityConfig::default()
            },
            1,
        );
        let (va, write, shared) = h.next_access(
            VirtAddr::new(0x1000_0000),
            1 << 20,
            VirtAddr::new(0x9000_0000),
        );
        assert!(shared && write);
        assert!(va.as_u64() >= 0x1000_0000 && va.as_u64() < 0x1000_0000 + (1 << 20));
        assert_eq!(h.shared_touches(), 1);

        let mut h0 = HostCpu::new(
            HostActivityConfig {
                shared_fraction: 0.0,
                write_fraction: 0.0,
                ..HostActivityConfig::default()
            },
            1,
        );
        let (va, write, shared) = h0.next_access(
            VirtAddr::new(0x1000_0000),
            1 << 20,
            VirtAddr::new(0x9000_0000),
        );
        assert!(!shared && !write);
        assert!(va.as_u64() >= 0x9000_0000);
    }

    #[test]
    fn hierarchy_hits_after_fill() {
        let mut h = host();
        let pa = PhysAddr::new(0x8000);
        assert!(matches!(h.access(pa, false), CpuLookup::Miss { .. }));
        assert_eq!(h.access(pa, false), CpuLookup::L1Hit);
    }

    #[test]
    fn snoop_gets_invalidates_and_reports_dirty() {
        let mut h = host();
        let pa = PhysAddr::new(0x8000);
        h.access(pa, true); // dirty in L2 (and resident in L1 clean-ish)
                            // GPU writes the block: CPU must give it up, supplying dirty data.
        let dirty = h.snoop(pa, true);
        assert_eq!(dirty, Some(pa));
        assert!(!h.l1.contains(pa) && !h.l2.contains(pa));
        // Second snoop finds nothing.
        assert_eq!(h.snoop(pa, true), None);
    }

    #[test]
    fn snoop_gets_downgrade_keeps_resident() {
        let mut h = host();
        let pa = PhysAddr::new(0x8000);
        h.access(pa, true);
        let dirty = h.snoop(pa, false);
        assert_eq!(dirty, Some(pa));
        assert!(h.l2.contains(pa), "GetS leaves a shared copy");
        assert!(!h.l2.is_dirty(pa));
    }

    #[test]
    fn snoop_clean_block_supplies_nothing() {
        let mut h = host();
        let pa = PhysAddr::new(0x8000);
        h.access(pa, false);
        assert_eq!(h.snoop(pa, false), None);
    }
}
