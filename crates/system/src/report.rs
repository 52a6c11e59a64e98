//! Run reports: everything the experiment harness needs from one run.

// bc-lint: allow-file(float) — post-run report type: utilization, miss
// ratios and overhead factors are derived from integer counters for
// display/JSON after the engine has stopped; nothing reads them back.
use std::fmt;

use bc_os::Violation;
use bc_sim::audit::AuditReport;
use bc_sim::stats::StatsTable;

/// Why a run stopped before its wavefronts drained. The old single
/// `aborted` flag conflated "Border Control killed the process" with
/// "the simulation's cycle valve tripped" — very different outcomes for
/// the attacks binary and for sweep error triage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// A violation under the `KillProcess` policy terminated the process.
    ViolationKill,
    /// The `max_cycles` safety valve tripped (runaway / livelocked run).
    CycleLimit,
    /// A translation faulted fatally (segfaulting accelerator access).
    FatalOsError,
}

impl AbortReason {
    /// Every reason, in declaration order.
    pub const ALL: [AbortReason; 3] = [
        AbortReason::ViolationKill,
        AbortReason::CycleLimit,
        AbortReason::FatalOsError,
    ];

    /// Short human-readable label for report tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::ViolationKill => "killed on violation",
            AbortReason::CycleLimit => "cycle valve tripped",
            AbortReason::FatalOsError => "fatal OS fault",
        }
    }

    /// Inverse of [`AbortReason::label`], used by the canonical report
    /// schema (`bc_experiments::schema`) to decode serialized reports.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|r| r.label() == label)
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

bc_sim::snap_enum!(AbortReason, "abort reason", 0 => ViolationKill, 1 => CycleLimit, 2 => FatalOsError);

/// The result of one full-system run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Configuration labels for bookkeeping.
    pub safety: String,
    /// Workload name.
    pub workload: String,
    /// GPU class label.
    pub gpu_class: String,
    /// Total simulated cycles (the figure-4 metric, before normalizing).
    pub cycles: u64,
    /// Wavefront ops executed.
    pub ops: u64,
    /// Coalesced block accesses issued by the GPU.
    pub block_accesses: u64,
    /// Events the scheduler dispatched over the run (the denominator
    /// behind the bench suite's events/sec metric).
    pub events: u64,
    /// Whether the run was aborted (violation under a kill policy or the
    /// cycle safety valve).
    pub aborted: bool,
    /// Why the run aborted; `None` when `aborted` is false.
    pub abort_reason: Option<AbortReason>,
    /// Whether the accelerator was fenced off by the
    /// `DisableAccelerator` policy (the process survives on the CPU).
    pub accel_disabled: bool,
    /// Violations Border Control reported. The canonical encoding
    /// omits them; `violation_count` carries the count.
    pub violations: Vec<Violation>,
    /// Count of violations (survives serialization).
    pub violation_count: u64,
    /// Border checks performed (Figure 5 numerator), if BC present.
    pub bc_checks: u64,
    /// BCC hit/miss, if a BCC was present: (hits, misses).
    pub bcc_hits_misses: Option<(u64, u64)>,
    /// Protection Table memory reads/writes, if BC present.
    pub pt_reads_writes: (u64, u64),
    /// DRAM block reads and writes.
    pub dram_reads_writes: (u64, u64),
    /// DRAM channel utilization over the run.
    pub dram_utilization: f64,
    /// Accelerator L1 misses/accesses aggregated over CUs.
    pub l1: Option<(u64, u64)>,
    /// Shared L2 (hits+misses, misses).
    pub l2: Option<(u64, u64)>,
    /// Accelerator L1 TLB (accesses, misses) aggregated.
    pub l1_tlb: Option<(u64, u64)>,
    /// IOTLB (accesses, misses).
    pub iotlb: (u64, u64),
    /// ATS translations and page walks.
    pub ats_translations_walks: (u64, u64),
    /// Minor page faults taken.
    pub minor_faults: u64,
    /// Downgrades the injector performed.
    pub downgrades: u64,
    /// Malicious probes: attempted, blocked, succeeded.
    pub probes: (u64, u64, u64),
    /// Host-CPU activity, when enabled: (accesses, shared touches, dirty
    /// recalls pulled from the GPU across the border).
    pub host: Option<(u64, u64, u64)>,
    /// Invariant-audit results, when [`SystemConfig::audit`] was set.
    ///
    /// [`SystemConfig::audit`]: crate::SystemConfig::audit
    pub audit: Option<AuditReport>,
}

impl RunReport {
    /// Border checks per cycle — Figure 5's y-axis.
    #[must_use]
    pub fn checks_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bc_checks as f64 / self.cycles as f64
        }
    }

    /// BCC miss ratio — Figure 6's y-axis — if a BCC was present.
    #[must_use]
    pub fn bcc_miss_ratio(&self) -> Option<f64> {
        self.bcc_hits_misses.map(|(h, m)| {
            if h + m == 0 {
                0.0
            } else {
                m as f64 / (h + m) as f64
            }
        })
    }

    /// Runtime overhead of this run relative to a baseline run of the
    /// same workload — Figure 4's y-axis (e.g. 0.15 ⇒ 15 %).
    #[must_use]
    pub fn overhead_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.cycles == 0 {
            return 0.0;
        }
        self.cycles as f64 / baseline.cycles as f64 - 1.0
    }

    /// Renders the report as a stats table.
    #[must_use]
    pub fn stats_table(&self) -> StatsTable {
        let mut t = StatsTable::new(format!(
            "{} / {} / {}",
            self.safety, self.workload, self.gpu_class
        ));
        t.push("cycles", self.cycles);
        t.push("ops", self.ops);
        t.push("block accesses", self.block_accesses);
        t.push("aborted", self.aborted);
        if let Some(reason) = self.abort_reason {
            t.push("abort reason", reason.label());
        }
        t.push("violations", self.violation_count);
        t.push("BC checks", self.bc_checks);
        t.push_f64("BC checks/cycle", self.checks_per_cycle());
        if let Some(r) = self.bcc_miss_ratio() {
            t.push_pct("BCC miss ratio", r);
        }
        t.push("PT reads", self.pt_reads_writes.0);
        t.push("PT writes", self.pt_reads_writes.1);
        t.push("DRAM reads", self.dram_reads_writes.0);
        t.push("DRAM writes", self.dram_reads_writes.1);
        t.push_pct("DRAM utilization", self.dram_utilization);
        if let Some((acc, miss)) = self.l1 {
            t.push("L1 accesses", acc);
            t.push("L1 misses", miss);
        }
        if let Some((acc, miss)) = self.l2 {
            t.push("L2 accesses", acc);
            t.push("L2 misses", miss);
        }
        t.push("IOTLB accesses", self.iotlb.0);
        t.push("IOTLB misses", self.iotlb.1);
        t.push("minor faults", self.minor_faults);
        t.push("downgrades", self.downgrades);
        if let Some(audit) = &self.audit {
            t.push("audit assertions", audit.assertions);
            t.push("audit findings", audit.findings.len());
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank(cycles: u64) -> RunReport {
        RunReport {
            safety: "x".into(),
            workload: "w".into(),
            gpu_class: "g".into(),
            cycles,
            ops: 10,
            events: 15,
            block_accesses: 20,
            aborted: false,
            abort_reason: None,
            accel_disabled: false,
            violations: Vec::new(),
            violation_count: 0,
            bc_checks: 50,
            bcc_hits_misses: Some((90, 10)),
            pt_reads_writes: (1, 2),
            dram_reads_writes: (3, 4),
            dram_utilization: 0.5,
            l1: Some((100, 10)),
            l2: Some((10, 5)),
            l1_tlb: Some((100, 1)),
            iotlb: (10, 2),
            ats_translations_walks: (10, 2),
            minor_faults: 3,
            downgrades: 0,
            probes: (0, 0, 0),
            host: None,
            audit: None,
        }
    }

    #[test]
    fn abort_reason_renders_when_present() {
        let mut r = blank(100);
        r.aborted = true;
        r.abort_reason = Some(AbortReason::CycleLimit);
        let s = r.stats_table().to_string();
        assert!(s.contains("cycle valve tripped"));
        assert_eq!(
            AbortReason::ViolationKill.to_string(),
            "killed on violation"
        );
    }

    #[test]
    fn derived_metrics() {
        let r = blank(1000);
        assert!((r.checks_per_cycle() - 0.05).abs() < 1e-12);
        assert!((r.bcc_miss_ratio().unwrap() - 0.1).abs() < 1e-12);
        let base = blank(800);
        assert!((r.overhead_vs(&base) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_guards() {
        let r = blank(0);
        assert_eq!(r.checks_per_cycle(), 0.0);
        assert_eq!(blank(100).overhead_vs(&r), 0.0);
    }

    #[test]
    fn table_renders_key_rows() {
        let s = blank(1000).stats_table().to_string();
        assert!(s.contains("cycles"));
        assert!(s.contains("BCC miss ratio"));
        assert!(s.contains("DRAM utilization"));
    }
}
