//! DRAM timing model.
//!
//! DRAM is the bandwidth bottleneck that separates the paper's
//! configurations: the full-IOMMU configuration (no accelerator caches)
//! pushes every access to memory and saturates it, while Border Control
//! adds at most one extra Protection Table access per border crossing.
//!
//! The model is deliberately simple — fixed access latency plus
//! per-channel occupancy — because those two terms are what produce both
//! the latency and the saturation effects in Figure 4.

use bc_sim::resource::Channels;
use bc_sim::stats::{Counter, StatsTable};
use bc_sim::Cycle;

use crate::addr::PhysAddr;

/// Where the physical memory behind the border lives.
///
/// The paper assumes accelerator and host share local DRAM; Space-Control
/// style deployments put the shared pool behind a CXL-like fabric, where
/// every access pays a cross-host hop and writes additionally pay the
/// pool's coherence protocol. Border Control's checks sit in front of
/// either — the profile only changes what a block costs once it is
/// allowed through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum MemBackend {
    /// Host-local DRAM (Table 3's 180 GB/s device). The default; adds
    /// nothing, so existing configurations are bit-identical.
    #[default]
    LocalDram,
    /// A CXL-like disaggregated pool: ~170 ns extra round-trip at
    /// 700 MHz GPU cycles, half the per-channel bandwidth of local
    /// DRAM (the fabric link, not the DIMMs, is the bottleneck), and a
    /// cross-host coherence charge on every write (ownership must be
    /// granted by the pool's directory before the line can change).
    CxlPool,
}

impl MemBackend {
    /// Extra cycles added to every access (the fabric round-trip).
    #[must_use]
    pub fn extra_latency(self) -> u64 {
        match self {
            MemBackend::LocalDram => 0,
            MemBackend::CxlPool => 120,
        }
    }

    /// Multiplier on per-channel block service time (link bandwidth).
    #[must_use]
    pub fn service_factor(self) -> u64 {
        match self {
            MemBackend::LocalDram => 1,
            MemBackend::CxlPool => 2,
        }
    }

    /// Extra cycles a write pays for cross-host coherence (directory
    /// ownership grant). Reads are served from the pool's current copy.
    #[must_use]
    pub fn write_coherence_cycles(self) -> u64 {
        match self {
            MemBackend::LocalDram => 0,
            MemBackend::CxlPool => 40,
        }
    }

    /// Parses the `--mem` experiment flag spelling.
    #[must_use]
    pub fn from_flag(s: &str) -> Option<MemBackend> {
        match s {
            "local" | "dram" => Some(MemBackend::LocalDram),
            "cxl" | "pool" => Some(MemBackend::CxlPool),
            _ => None,
        }
    }

    /// Stable label (the `Display` spelling) used by the canonical config
    /// schema (`bc_experiments::schema`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MemBackend::LocalDram => "local-dram",
            MemBackend::CxlPool => "cxl-pool",
        }
    }

    /// Inverse of [`MemBackend::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "local-dram" => Some(MemBackend::LocalDram),
            "cxl-pool" => Some(MemBackend::CxlPool),
            _ => None,
        }
    }
}

impl core::fmt::Display for MemBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration for the DRAM timing model.
///
/// Defaults follow Table 3 of the paper, expressed in GPU (700 MHz)
/// cycles: 180 GB/s peak bandwidth is ~257 bytes/cycle, i.e. two 128-byte
/// blocks per cycle, modelled as 4 channels each occupying 2 cycles per
/// block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency from request issue to first data, in cycles.
    pub access_latency: u64,
    /// Channel occupancy per 128-byte block transfer, in cycles.
    pub service_per_block: u64,
    /// Number of independent channels.
    pub channels: usize,
    /// Where the memory lives (local DRAM or a disaggregated pool).
    pub backend: MemBackend,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            access_latency: 100,
            service_per_block: 2,
            channels: 4,
            backend: MemBackend::LocalDram,
        }
    }
}

impl DramConfig {
    /// Peak bandwidth in blocks per cycle implied by this configuration.
    #[must_use]
    // bc-lint: allow(float) — bandwidth headline for reports; the
    // timing model itself schedules in integer cycles.
    pub fn peak_blocks_per_cycle(&self) -> f64 {
        self.channels as f64 / (self.service_per_block * self.backend.service_factor()) as f64
    }

    /// Effective first-data latency including the backend's fabric hop.
    #[must_use]
    pub fn effective_latency(&self) -> u64 {
        self.access_latency + self.backend.extra_latency()
    }
}

/// The DRAM device: channel queues plus traffic statistics.
///
/// # Example
///
/// ```
/// use bc_mem::{Dram, DramConfig, PhysAddr};
/// use bc_sim::Cycle;
///
/// let mut dram = Dram::new(DramConfig::default());
/// let done = dram.read_block(Cycle::ZERO, PhysAddr::new(0x1000));
/// // 100-cycle access latency + 2-cycle transfer.
/// assert_eq!(done.as_u64(), 102);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    channels: Channels,
    reads: Counter,
    writes: Counter,
}

impl Dram {
    /// Creates a DRAM device with the given configuration.
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        Dram {
            channels: Channels::new(config.channels),
            config,
            reads: Counter::new(),
            writes: Counter::new(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Issues a block read arriving at `at`; returns the completion time
    /// (arrival + queueing + access latency + transfer).
    pub fn read_block(&mut self, at: Cycle, _addr: PhysAddr) -> Cycle {
        self.reads.inc();
        let service = self.config.service_per_block * self.config.backend.service_factor();
        let served = self.channels.serve(at, service);
        served + self.config.effective_latency()
    }

    /// Issues a block write arriving at `at`; returns the completion time.
    /// Writes are posted — callers usually don't wait — but the bandwidth
    /// they consume is real and is charged to the channel. Disaggregated
    /// backends additionally pay the pool's coherence ownership grant.
    pub fn write_block(&mut self, at: Cycle, _addr: PhysAddr) -> Cycle {
        self.writes.inc();
        let service = self.config.service_per_block * self.config.backend.service_factor();
        let served = self.channels.serve(at, service);
        served + self.config.effective_latency() + self.config.backend.write_coherence_cycles()
    }

    /// Issues `n` block writes that all arrive at `at`, booking exactly
    /// what `n` calls of [`Self::write_block`] book, and returns the
    /// latest completion (`at` when `n` is zero). A Protection Table's
    /// zeroing streams its blocks this way. The channels book the burst
    /// with [`Channels::serve_burst`]: each channel's share as one run
    /// where its calendar is free from the share's start on, and block
    /// by block where blocks land in gaps.
    pub fn write_blocks(&mut self, at: Cycle, n: u64) -> Cycle {
        if n == 0 {
            return at;
        }
        self.writes.add(n);
        let service = self.config.service_per_block * self.config.backend.service_factor();
        let served = self.channels.serve_burst(at, service, n);
        served + self.config.effective_latency() + self.config.backend.write_coherence_cycles()
    }

    /// Total block reads issued.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Total block writes issued.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Total blocks transferred in either direction.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.reads.get() + self.writes.get()
    }

    /// Aggregate channel utilization over an `elapsed`-cycle window.
    #[must_use]
    // bc-lint: allow(float) — summary ratio of two integer counters.
    pub fn utilization(&self, elapsed: u64) -> f64 {
        self.channels.utilization(elapsed)
    }

    /// Per-channel queue-delay histograms (diagnostics).
    #[must_use]
    pub fn queue_delays(&self) -> Vec<&bc_sim::stats::Histogram> {
        self.channels
            .ports()
            .iter()
            .map(|p| p.queue_delay())
            .collect()
    }

    /// Renders a stats table for reports.
    #[must_use]
    pub fn stats(&self, elapsed: u64) -> StatsTable {
        let mut t = StatsTable::new("DRAM");
        t.push("reads", self.reads.get());
        t.push("writes", self.writes.get());
        t.push_pct("utilization", self.utilization(elapsed));
        t
    }
}

/// Snapshot codec: the device's exact state is its channel calendars
/// plus two counters; its config is fixed by the build that is read over.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::Dram;

    impl Snap for Dram {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"DRAM")?;
            c.snap(&mut self.channels)?;
            c.snap(&mut self.reads)?;
            c.snap(&mut self.writes)
        }
    }
}

#[cfg(test)]
// bc-lint: allow(float) — assertions on summary ratios only.
mod tests {
    use super::*;

    #[test]
    fn uncontended_read_latency() {
        let mut d = Dram::new(DramConfig::default());
        let done = d.read_block(Cycle::new(50), PhysAddr::new(0));
        assert_eq!(done.as_u64(), 50 + 2 + 100);
        assert_eq!(d.reads(), 1);
    }

    #[test]
    fn bandwidth_saturation_queues() {
        let cfg = DramConfig {
            access_latency: 10,
            service_per_block: 2,
            channels: 1,
            backend: MemBackend::LocalDram,
        };
        let mut d = Dram::new(cfg);
        // 5 simultaneous requests on one channel serialize at 2 cycles each.
        let finish: Vec<u64> = (0..5)
            .map(|_| d.read_block(Cycle::ZERO, PhysAddr::new(0)).as_u64())
            .collect();
        assert_eq!(finish, vec![12, 14, 16, 18, 20]);
    }

    #[test]
    fn channels_parallelize() {
        let cfg = DramConfig {
            access_latency: 10,
            service_per_block: 2,
            channels: 4,
            backend: MemBackend::LocalDram,
        };
        let mut d = Dram::new(cfg);
        let finish: Vec<u64> = (0..4)
            .map(|_| d.read_block(Cycle::ZERO, PhysAddr::new(0)).as_u64())
            .collect();
        assert_eq!(finish, vec![12, 12, 12, 12]);
    }

    #[test]
    fn writes_consume_bandwidth() {
        let cfg = DramConfig {
            access_latency: 10,
            service_per_block: 2,
            channels: 1,
            backend: MemBackend::LocalDram,
        };
        let mut d = Dram::new(cfg);
        d.write_block(Cycle::ZERO, PhysAddr::new(0));
        let read_done = d.read_block(Cycle::ZERO, PhysAddr::new(0));
        assert_eq!(read_done.as_u64(), 14, "read queued behind the write");
        assert_eq!(d.writes(), 1);
        assert_eq!(d.total_accesses(), 2);
    }

    #[test]
    fn default_config_matches_table3_bandwidth() {
        let cfg = DramConfig::default();
        // 2 blocks/cycle * 128 B * 700 MHz ≈ 179 GB/s ≈ the paper's 180 GB/s.
        assert!((cfg.peak_blocks_per_cycle() - 2.0).abs() < 1e-12);
        let bytes_per_sec = cfg.peak_blocks_per_cycle() * 128.0 * 700e6;
        assert!((bytes_per_sec - 180e9).abs() / 180e9 < 0.01);
    }

    #[test]
    fn cxl_pool_pays_fabric_and_coherence() {
        let local = DramConfig::default();
        let pool = DramConfig {
            backend: MemBackend::CxlPool,
            ..DramConfig::default()
        };
        // Half the bandwidth of local DRAM, not of the DIMMs.
        assert!((pool.peak_blocks_per_cycle() - local.peak_blocks_per_cycle() / 2.0).abs() < 1e-12);
        let mut d = Dram::new(pool);
        let read = d.read_block(Cycle::ZERO, PhysAddr::new(0)).as_u64();
        assert_eq!(read, 4 + 100 + 120, "transfer + DIMM latency + fabric hop");
        let mut d = Dram::new(pool);
        let write = d.write_block(Cycle::ZERO, PhysAddr::new(0)).as_u64();
        assert_eq!(read + 40, write, "writes add the ownership grant");
        // The default backend changes nothing (golden-report safety).
        assert_eq!(local.backend, MemBackend::LocalDram);
        assert_eq!(local.effective_latency(), local.access_latency);
        assert_eq!(MemBackend::from_flag("cxl"), Some(MemBackend::CxlPool));
        assert_eq!(MemBackend::CxlPool.to_string(), "cxl-pool");
    }

    /// Snapshot bytes: the device's whole state (calendars, counters).
    fn state(d: &Dram) -> Vec<u8> {
        bc_sim::snapshot::to_bytes(&mut d.clone())
    }

    #[test]
    fn write_blocks_books_what_repeated_write_block_books() {
        for backend in [MemBackend::LocalDram, MemBackend::CxlPool] {
            let cfg = DramConfig {
                backend,
                ..DramConfig::default()
            };
            for n in [0u64, 1, 3, 128] {
                let mut burst = Dram::new(cfg);
                let mut single = Dram::new(cfg);
                // A read in flight keeps channel 0 busy when the burst arrives.
                for d in [&mut burst, &mut single] {
                    d.read_block(Cycle::new(40), PhysAddr::new(0));
                }
                let at = Cycle::new(41);
                let done = burst.write_blocks(at, n);
                let want = (0..n)
                    .map(|_| single.write_block(at, PhysAddr::new(0)))
                    .max()
                    .unwrap_or(at);
                assert_eq!(done, want, "{backend}: {n} blocks");
                assert_eq!(burst.writes(), n, "{backend}: write counter");
                assert_eq!(state(&burst), state(&single), "{backend}: {n} blocks");
            }
        }
    }

    #[test]
    fn write_blocks_completes_a_write_latency_after_its_last_transfer() {
        let pool = DramConfig {
            backend: MemBackend::CxlPool,
            ..DramConfig::default()
        };
        // One block: transfer + DIMM latency + fabric hop + ownership grant.
        let one = Dram::new(pool).write_blocks(Cycle::ZERO, 1);
        assert_eq!(one.as_u64(), 4 + 100 + 120 + 40);
        // Nine blocks on four idle channels take three rounds of
        // 4-cycle transfers; the last ends at 12.
        let nine = Dram::new(pool).write_blocks(Cycle::ZERO, 9);
        assert_eq!(nine.as_u64(), 12 + 100 + 120 + 40);
        let local = Dram::new(DramConfig::default()).write_blocks(Cycle::ZERO, 9);
        assert_eq!(local.as_u64(), 6 + 100);
    }

    #[test]
    fn stats_table_renders() {
        let mut d = Dram::new(DramConfig::default());
        d.read_block(Cycle::ZERO, PhysAddr::new(0));
        let s = d.stats(1000).to_string();
        assert!(s.contains("reads"));
        assert!(s.contains("utilization"));
    }
}
