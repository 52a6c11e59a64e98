//! Order statistics, the Fig. 4 accuracy figure and the metric record.

use bc_experiments::geomean_overhead;
use bc_system::RunReport;

/// Paper geomean overheads in percent (footer of `results/fig4.txt`):
/// rows are Fig. 4a (highly threaded) and 4b (moderately threaded),
/// columns Full IOMMU, CAPI-like, BC-noBCC, BC-BCC.
pub const PAPER_FIG4_PCT: [[f64; 4]; 2] = [[374.0, 3.81, 2.04, 0.15], [85.0, 16.5, 7.26, 0.84]];

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100] of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Mean absolute error, in percentage points, of the Fig. 4 geomean
/// overheads against the paper. `report(gpu, safety, workload)` indexes
/// Fig. 4's axes (safety 0 is the ATS-only baseline); `gpus` lists the
/// GPU rows of [`PAPER_FIG4_PCT`] to score.
pub fn fig4_err_pp<'a>(
    gpus: &[usize],
    report: impl Fn(usize, usize, usize) -> &'a RunReport,
) -> f64 {
    let mut err = 0.0;
    let mut n = 0.0;
    for &g in gpus {
        for s in 1..5 {
            let overheads: Vec<f64> = (0..bc_experiments::WORKLOADS.len())
                .map(|w| report(g, s, w).overhead_vs(report(g, 0, w)))
                .collect();
            err += (geomean_overhead(&overheads) * 100.0 - PAPER_FIG4_PCT[g][s - 1]).abs();
            n += 1.0;
        }
    }
    err / n
}

/// Named, unit-tagged results of one run.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, String)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit.to_string();
            }
            None => self
                .entries
                .push((name.to_string(), value, unit.to_string())),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, String)> {
        self.entries.iter()
    }
}

/// Sums over a set of reports of the exact counters every `RunReport`
/// carries (the per-layer work counts of the modelled structures).
#[derive(Default, Debug, Clone, Copy)]
pub struct ReportTotals {
    pub events: u64,
    pub ops: u64,
    pub block_accesses: u64,
    pub l1: (u64, u64),
    pub l2: (u64, u64),
    pub l1_tlb: (u64, u64),
    pub iotlb: (u64, u64),
    pub ats_walks: u64,
    pub bc_checks: u64,
    pub bcc: (u64, u64),
    pub pt: (u64, u64),
    pub dram: (u64, u64),
    pub dram_util_sum: f64,
    pub minor_faults: u64,
    pub reports: u64,
}

impl ReportTotals {
    pub fn add(&mut self, r: &RunReport) {
        let pair = |acc: &mut (u64, u64), v: Option<(u64, u64)>| {
            if let Some((a, b)) = v {
                acc.0 += a;
                acc.1 += b;
            }
        };
        self.events += r.events;
        self.ops += r.ops;
        self.block_accesses += r.block_accesses;
        pair(&mut self.l1, r.l1);
        pair(&mut self.l2, r.l2);
        pair(&mut self.l1_tlb, r.l1_tlb);
        pair(&mut self.iotlb, Some(r.iotlb));
        self.ats_walks += r.ats_translations_walks.1;
        self.bc_checks += r.bc_checks;
        pair(&mut self.bcc, r.bcc_hits_misses);
        pair(&mut self.pt, Some(r.pt_reads_writes));
        pair(&mut self.dram, Some(r.dram_reads_writes));
        self.dram_util_sum += r.dram_utilization;
        self.minor_faults += r.minor_faults;
        self.reports += 1;
    }

    /// Writes the per-structure counts into `m`.
    pub fn write(&self, m: &mut Metrics) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        m.set("sim.events", self.events as f64, "count");
        m.set("accel.ops", self.ops as f64, "count");
        m.set("accel.block_accesses", self.block_accesses as f64, "count");
        m.set("cache.l1.accesses", self.l1.0 as f64, "count");
        m.set("cache.l1.miss_ratio", ratio(self.l1.1, self.l1.0), "ratio");
        m.set("cache.l2.accesses", self.l2.0 as f64, "count");
        m.set("cache.l2.miss_ratio", ratio(self.l2.1, self.l2.0), "ratio");
        m.set(
            "cache.l1_tlb.miss_ratio",
            ratio(self.l1_tlb.1, self.l1_tlb.0),
            "ratio",
        );
        m.set("iommu.iotlb.accesses", self.iotlb.0 as f64, "count");
        m.set(
            "iommu.iotlb.miss_ratio",
            ratio(self.iotlb.1, self.iotlb.0),
            "ratio",
        );
        m.set("iommu.ats.walks", self.ats_walks as f64, "count");
        m.set("core.bc_checks", self.bc_checks as f64, "count");
        m.set(
            "core.bcc.miss_ratio",
            ratio(self.bcc.1, self.bcc.0 + self.bcc.1),
            "ratio",
        );
        m.set("core.pt.reads", self.pt.0 as f64, "count");
        m.set("core.pt.writes", self.pt.1 as f64, "count");
        m.set("mem.dram.reads", self.dram.0 as f64, "count");
        m.set("mem.dram.writes", self.dram.1 as f64, "count");
        m.set(
            "mem.dram.utilization",
            if self.reports == 0 {
                0.0
            } else {
                self.dram_util_sum / self.reports as f64
            },
            "ratio",
        );
        m.set("os.minor_faults", self.minor_faults as f64, "count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
