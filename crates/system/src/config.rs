//! System configuration (the paper's Table 3).

use bc_accel::{Behavior, GpuConfig};
use bc_core::{BccConfig, BorderControlConfig, FlushPolicy};
use bc_iommu::AtsConfig;
use bc_mem::dram::DramConfig;
use bc_os::ViolationPolicy;
use bc_sim::Frequency;
use bc_workloads::WorkloadSize;

use crate::host::HostActivityConfig;
use crate::safety::SafetyModel;

/// Which of Table 3's two GPU configurations to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuClass {
    /// 8 compute units, many execution contexts — "a proxy for a
    /// high-performance, latency-tolerant accelerator".
    HighlyThreaded,
    /// 1 compute unit, few contexts — "a proxy for a more
    /// latency-sensitive accelerator".
    ModeratelyThreaded,
}

impl GpuClass {
    /// The matching structural preset.
    #[must_use]
    pub fn gpu_config(self) -> GpuConfig {
        match self {
            GpuClass::HighlyThreaded => GpuConfig::highly_threaded(),
            GpuClass::ModeratelyThreaded => GpuConfig::moderately_threaded(),
        }
    }

    /// Figure label ("(a) Highly threaded GPU").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GpuClass::HighlyThreaded => "Highly threaded",
            GpuClass::ModeratelyThreaded => "Moderately threaded",
        }
    }

    /// Inverse of [`GpuClass::label`], used by the canonical config
    /// schema (`bc_experiments::schema`).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "Highly threaded" => Some(GpuClass::HighlyThreaded),
            "Moderately threaded" => Some(GpuClass::ModeratelyThreaded),
            _ => None,
        }
    }
}

/// Full-system configuration. [`SystemConfig::table3_defaults`] reproduces
/// the paper's simulated machine.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Safety approach under study.
    pub safety: SafetyModel,
    /// GPU class (Figure 4a vs 4b).
    pub gpu_class: GpuClass,
    /// Accelerator trust behaviour.
    pub behavior: Behavior,
    /// Workload name from the Rodinia-like suite.
    pub workload: String,
    /// Problem scaling.
    pub size: WorkloadSize,
    /// RNG seed (streams + malicious probes); equal seeds give identical
    /// runs.
    pub seed: u64,
    /// Physical memory size in bytes (Table 3's system has ~3 GiB: a
    /// 196 KiB Protection Table).
    pub phys_bytes: u64,
    /// DRAM timing.
    pub dram: DramConfig,
    /// ATS/IOMMU parameters.
    pub ats: AtsConfig,
    /// BCC geometry for the BorderControlBcc configuration.
    pub bcc: BccConfig,
    /// Whether read checks proceed in parallel with the data fetch
    /// (ablation lever; the paper's design says yes).
    pub parallel_read_check: bool,
    /// Downgrade flush policy (the paper's implementation flushes
    /// everything; `Selective` is the §3.2.4 optimization).
    pub flush_policy: FlushPolicy,
    /// Extra latency for trusted (CAPI-like) cache/TLB accesses.
    pub trusted_distance_penalty: u64,
    /// Interconnect round-trip to the IOMMU, charged on every request in
    /// the full-IOMMU configuration (the IOMMU sits with the memory
    /// controller, far from the accelerator).
    pub iommu_hop_latency: u64,
    /// L2 miss-status-holding registers: outstanding L2 misses are capped
    /// at this many; further misses stall until a slot retires.
    pub l2_mshrs: usize,
    /// Writeback-buffer depth: evicted dirty blocks occupy a slot until
    /// their border check *and* DRAM write complete; a full buffer
    /// back-pressures the access that triggered the eviction. This is the
    /// path on which Border Control's check latency becomes visible.
    pub writeback_buffer: usize,
    /// Number of banks/ports on the shared L2 cache (each access occupies
    /// a bank for one cycle). The CAPI-like configuration funnels *all*
    /// accelerator traffic through this shared structure.
    pub l2_ports: usize,
    /// Number of parallel translation pipelines in the central IOMMU.
    /// Only the full-IOMMU configuration funnels *every* request through
    /// them; this finite throughput is what the highly threaded GPU
    /// saturates in Figure 4a.
    pub iommu_ports: usize,
    /// Pipeline occupancy per translated request, in cycles.
    pub iommu_service: u64,
    /// GPU clock (Table 3: 700 MHz) — used to convert the downgrade rate.
    pub gpu_clock_mhz: u64,
    /// Permission downgrades per second of simulated time (Figure 7's
    /// x-axis); zero disables the injector.
    pub downgrades_per_second: u64,
    /// Pipeline-drain stall charged to every wavefront on a downgrade
    /// (finishing outstanding requests, TLB invalidations — costs paid
    /// "even with trusted accelerators", §5.2.4).
    pub downgrade_drain_cycles: u64,
    /// What the kernel does on a violation.
    pub violation_policy: ViolationPolicy,
    /// Map the workload footprint with 2 MiB huge pages (§3.4.4) instead
    /// of 4 KiB base pages.
    pub use_huge_pages: bool,
    /// Host-CPU activity sharing the unified address space with the
    /// accelerator; `None` (the default, matching the paper's runs) keeps
    /// the host idle during the kernel.
    pub host_activity: Option<HostActivityConfig>,
    /// Record the border-check stream for offline BCC sweeps (Figure 6).
    pub record_check_stream: bool,
    /// Keep a bounded event trace (violations, downgrades, recalls) for
    /// post-mortem inspection via [`crate::System::trace`].
    pub trace: bool,
    /// Optional cap on ops per wavefront (trims runs for fast benches).
    pub max_ops_per_wavefront: Option<u64>,
    /// Hard safety valve on simulated cycles.
    pub max_cycles: u64,
    /// Thread the runtime invariant auditor ([`bc_sim::audit`]) through
    /// the run: shadow permission oracle, BCC ⊆ Protection-Table subset
    /// sweeps, and timing monotonicity monitors. Pure observation —
    /// audited runs are cycle-identical to unaudited ones — but costs
    /// host time, so it is off by default and enabled by test harnesses
    /// and the `--audit` sweep flag.
    pub audit: bool,
    /// Worker shards for intra-run parallelism: the per-CU frontends and
    /// the shared backend (L2 + Border Control + IOMMU + host memory) are
    /// distributed over this many cooperating threads. Simulated timing
    /// and every `RunReport` byte are identical at any shard count; only
    /// host wall-clock changes. Clamped to the number of simulated
    /// components at run time.
    pub shards: usize,
    /// Minimum cross-component latency (cycles) on the accelerator's
    /// on-chip interconnect: every message between a CU cluster and the
    /// shared L2/BCC side takes at least this long. It doubles as the
    /// conservative lookahead window of the sharded engine — shards may
    /// run ahead of each other by up to this many cycles without
    /// synchronizing.
    pub cluster_hop_latency: u64,
}

impl SystemConfig {
    /// The paper's Table 3 machine: 700 MHz GPU, 180 GB/s memory,
    /// 64-entry L1 TLBs, 512-entry trusted L2 TLB, 8 KiB BCC at 10
    /// cycles, Protection Table at DRAM latency, ~3 GiB physical memory.
    #[must_use]
    pub fn table3_defaults() -> Self {
        SystemConfig {
            safety: SafetyModel::BorderControlBcc,
            gpu_class: GpuClass::HighlyThreaded,
            behavior: Behavior::Correct,
            workload: "nn".to_string(),
            size: WorkloadSize::Small,
            seed: 2015,
            phys_bytes: 3 << 30,
            dram: DramConfig::default(),
            ats: AtsConfig::default(),
            bcc: BccConfig::default(),
            parallel_read_check: true,
            flush_policy: FlushPolicy::FullFlush,
            trusted_distance_penalty: 20,
            l2_mshrs: 128,
            writeback_buffer: 8,
            l2_ports: 2,
            iommu_hop_latency: 60,
            iommu_ports: 1,
            iommu_service: 8,
            gpu_clock_mhz: 700,
            downgrades_per_second: 0,
            downgrade_drain_cycles: 600,
            violation_policy: ViolationPolicy::KillProcess,
            use_huge_pages: false,
            host_activity: None,
            record_check_stream: false,
            trace: false,
            max_ops_per_wavefront: None,
            max_cycles: 2_000_000_000,
            audit: false,
            shards: 1,
            cluster_hop_latency: 8,
        }
    }

    /// The GPU clock as a [`Frequency`].
    #[must_use]
    pub fn gpu_clock(&self) -> Frequency {
        Frequency::from_mhz(self.gpu_clock_mhz)
    }

    /// Cycles between injected downgrades, or `u64::MAX` when disabled.
    #[must_use]
    pub fn downgrade_period_cycles(&self) -> u64 {
        self.gpu_clock()
            .cycles_per_event(self.downgrades_per_second)
    }

    /// The GPU structural configuration implied by the safety model and
    /// GPU class (Table 2 row applied to the Table 3 machine).
    #[must_use]
    pub fn effective_gpu_config(&self) -> GpuConfig {
        let mut g = self.gpu_class.gpu_config();
        g.has_l1 = self.safety.keeps_l1();
        g.has_l1_tlb = self.safety.keeps_l1_tlb();
        g.has_l2 = self.safety.keeps_l2();
        g.trusted_distance_penalty = if self.safety.trusted_caches() {
            self.trusted_distance_penalty
        } else {
            0
        };
        g
    }

    /// The Border Control configuration implied by the safety model, if
    /// Border Control is present.
    #[must_use]
    pub fn effective_bc_config(&self) -> Option<BorderControlConfig> {
        self.safety.has_bcc().map(|with_bcc| BorderControlConfig {
            bcc: with_bcc.then_some(self.bcc),
            parallel_read_check: self.parallel_read_check,
            flush_policy: self.flush_policy,
            check_occupancy: 1,
            record_stream: self.record_check_stream,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_constants() {
        let c = SystemConfig::table3_defaults();
        assert_eq!(c.gpu_clock().to_string(), "700 MHz");
        assert_eq!(c.phys_bytes, 3 << 30);
        assert_eq!(c.bcc.data_bytes(), 8 << 10);
        assert_eq!(c.bcc.latency, 10);
        assert_eq!(c.dram.access_latency, 100);
        assert_eq!(c.ats.iotlb_entries, 512);
        assert_eq!(
            c.gpu_class.gpu_config().l1_tlb_entries,
            64,
            "Table 3: 64-entry L1 TLB"
        );
    }

    #[test]
    fn downgrade_period_conversion() {
        let mut c = SystemConfig::table3_defaults();
        assert_eq!(c.downgrade_period_cycles(), u64::MAX);
        c.downgrades_per_second = 100;
        assert_eq!(c.downgrade_period_cycles(), 7_000_000);
    }

    #[test]
    fn effective_gpu_config_applies_table2() {
        let mut c = SystemConfig::table3_defaults();

        c.safety = SafetyModel::FullIommu;
        let g = c.effective_gpu_config();
        assert!(!g.has_l1 && !g.has_l2 && !g.has_l1_tlb);

        c.safety = SafetyModel::CapiLike;
        let g = c.effective_gpu_config();
        assert!(!g.has_l1 && g.has_l2 && !g.has_l1_tlb);
        assert_eq!(g.trusted_distance_penalty, 20);

        c.safety = SafetyModel::AtsOnlyIommu;
        let g = c.effective_gpu_config();
        assert!(g.has_l1 && g.has_l2 && g.has_l1_tlb);
        assert_eq!(g.trusted_distance_penalty, 0);
    }

    #[test]
    fn effective_bc_config_follows_safety() {
        let mut c = SystemConfig::table3_defaults();
        c.safety = SafetyModel::AtsOnlyIommu;
        assert!(c.effective_bc_config().is_none());
        c.safety = SafetyModel::BorderControlNoBcc;
        assert!(c.effective_bc_config().unwrap().bcc.is_none());
        c.safety = SafetyModel::BorderControlBcc;
        assert!(c.effective_bc_config().unwrap().bcc.is_some());
    }
}
