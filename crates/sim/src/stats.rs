//! Statistics primitives for simulated components.
//!
//! Every hardware structure in the model (caches, TLBs, the Border Control
//! Cache, DRAM channels, …) embeds these small value types and exposes them
//! through its own `stats()` accessor. The experiment harness assembles
//! them into [`StatsTable`]s for printing paper-style rows.

// bc-lint: allow-file(float) — summary-only module: ratios, quantiles and
// geometric means derived from integer counters after the run; no float
// ever feeds back into simulation state.
use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use bc_sim::stats::Counter;
///
/// let mut c = Counter::new();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A hit/miss ratio tracker for cache-like structures.
///
/// # Example
///
/// ```
/// use bc_sim::stats::HitMiss;
///
/// let mut hm = HitMiss::new();
/// hm.hit();
/// hm.hit();
/// hm.miss();
/// assert_eq!(hm.accesses(), 3);
/// assert!((hm.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitMiss {
    hits: u64,
    misses: u64,
}

impl HitMiss {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        HitMiss::default()
    }

    /// Records a hit.
    #[inline]
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    #[inline]
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Records a hit or a miss according to `was_hit`.
    #[inline]
    pub fn record(&mut self, was_hit: bool) {
        if was_hit {
            self.hit()
        } else {
            self.miss()
        }
    }

    /// Total hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total accesses (hits + misses).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Hit ratio in `[0, 1]`; zero when there were no accesses.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Resets both counts to zero.
    pub fn reset(&mut self) {
        *self = HitMiss::default();
    }
}

impl fmt::Display for HitMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.2}% miss)",
            self.hits,
            self.misses,
            self.miss_ratio() * 100.0
        )
    }
}

/// Buckets of a [`Histogram`]: one per power of two of a `u64`.
const HISTOGRAM_BUCKETS: usize = 64;

/// A power-of-two bucketed histogram for latency-like quantities.
///
/// Values are recorded into buckets `[2^k, 2^(k+1))`; this keeps the
/// structure tiny while still giving useful latency distributions.
///
/// # Example
///
/// ```
/// use bc_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 100);
/// assert!((h.mean() - 26.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Inline, so recording touches no second allocation.
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        // Bucket k holds [2^k, 2^(k+1)); value 0 lands in bucket 0
        // alongside 1.
        let bucket = 63 - (value | 1).leading_zeros() as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records the `k` observations `first, first + step, …,
    /// first + (k - 1)·step`, leaving exactly what `k` calls of
    /// [`Self::record`] leave, in one step per bucket the progression
    /// crosses. The last value must fit in a `u64`.
    pub fn record_progression(&mut self, first: u64, step: u64, k: u64) {
        if k == 0 {
            return;
        }
        let last = first + (k - 1) * step;
        let mut value = first;
        let mut left = k;
        loop {
            let bucket = 63 - (value | 1).leading_zeros() as usize;
            // The terms below the next bucket's lower bound, 2^(bucket+1);
            // bucket 63 has none.
            let here = if step == 0 || bucket == 63 {
                left
            } else {
                ((2u64 << bucket) - value).div_ceil(step).min(left)
            };
            self.buckets[bucket] += here;
            left -= here;
            if left == 0 {
                break;
            }
            value += here * step;
        }
        self.count += k;
        // Σ (first + j·step) for j < k, exact in u128 because every term
        // fits in a u64; the u64 sum wraps as `record`'s does in release.
        let total = u128::from(k) * u128::from(first)
            + u128::from(step) * (u128::from(k) * u128::from(k - 1) / 2);
        self.sum += total as u64;
        self.min = self.min.min(first);
        self.max = self.max.max(last);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean; zero when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation; zero when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation; zero when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate p-quantile (by bucket lower bound), `q` in `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return 1u64 << k;
            }
        }
        self.max
    }

    /// Resets the histogram.
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} min={} max={} p50~{} p99~{}",
            self.count,
            self.mean(),
            self.min(),
            self.max(),
            self.quantile(0.5),
            self.quantile(0.99)
        )
    }
}

impl crate::snapshot::Snap for Counter {
    fn snap(
        &mut self,
        c: &mut crate::snapshot::Codec<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        c.snap(&mut self.0)
    }
}

impl crate::snapshot::Snap for HitMiss {
    fn snap(
        &mut self,
        c: &mut crate::snapshot::Codec<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        c.snap(&mut self.hits)?;
        c.snap(&mut self.misses)
    }
}

/// Snapshot codec. The buckets are written as a length-prefixed sequence
/// of 64 (the `Vec<u64>` encoding); a length other than 64 is refused
/// before any bucket is read. `min` uses `u64::MAX` as the "empty"
/// sentinel and is stored verbatim, so a restored empty histogram is
/// field-identical.
impl crate::snapshot::Snap for Histogram {
    fn snap(
        &mut self,
        c: &mut crate::snapshot::Codec<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        c.each(&mut self.buckets, "histogram buckets")?;
        c.snap(&mut self.count)?;
        c.snap(&mut self.sum)?;
        c.snap(&mut self.min)?;
        c.snap(&mut self.max)
    }
}

/// A two-column table of named statistics, used by the experiment harness
/// to print paper-style reports.
///
/// # Example
///
/// ```
/// use bc_sim::stats::StatsTable;
///
/// let mut t = StatsTable::new("demo");
/// t.push("cycles", 1234u64);
/// t.push_f64("miss ratio", 0.25);
/// let s = t.to_string();
/// assert!(s.contains("cycles"));
/// assert!(s.contains("1234"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StatsTable {
    title: String,
    rows: Vec<(String, String)>,
}

impl StatsTable {
    /// Creates an empty table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        StatsTable {
            title: title.into(),
            rows: Vec::new(),
        }
    }

    /// Appends an integer-valued row.
    pub fn push(&mut self, name: impl Into<String>, value: impl fmt::Display) {
        self.rows.push((name.into(), value.to_string()));
    }

    /// Appends a float-valued row, formatted with four significant decimals.
    pub fn push_f64(&mut self, name: impl Into<String>, value: f64) {
        self.rows.push((name.into(), format!("{value:.4}")));
    }

    /// Appends a percentage row (`value` is a fraction in `[0, 1]`).
    pub fn push_pct(&mut self, name: impl Into<String>, value: f64) {
        self.rows
            .push((name.into(), format!("{:.2}%", value * 100.0)));
    }

    /// Title given at construction.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Iterates over `(name, rendered value)` rows.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.rows.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for StatsTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let width = self.rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &self.rows {
            writeln!(f, "  {name:<width$}  {value}")?;
        }
        Ok(())
    }
}

/// Geometric mean of a slice of positive ratios; the paper reports
/// geometric-mean runtime overheads, so the harness uses this helper.
///
/// Returns `None` for an empty slice or any non-positive entry.
///
/// # Example
///
/// ```
/// use bc_sim::stats::geometric_mean;
///
/// let g = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(c.to_string(), "0");
    }

    #[test]
    fn hitmiss_ratios() {
        let mut hm = HitMiss::new();
        assert_eq!(hm.miss_ratio(), 0.0);
        assert_eq!(hm.hit_ratio(), 0.0);
        hm.record(true);
        hm.record(false);
        hm.record(false);
        hm.record(false);
        assert_eq!(hm.hits(), 1);
        assert_eq!(hm.misses(), 3);
        assert!((hm.miss_ratio() - 0.75).abs() < 1e-12);
        assert!((hm.hit_ratio() - 0.25).abs() < 1e-12);
        assert!(hm.to_string().contains("75.00% miss"));
        hm.reset();
        assert_eq!(hm.accesses(), 0);
    }

    #[test]
    fn histogram_zero_and_extremes() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!((256..=512).contains(&p50), "p50 bucket was {p50}");
        assert!(!h.to_string().is_empty());
    }

    #[test]
    fn histogram_snapshot_bytes_keep_the_vec_encoding() {
        use crate::snapshot::{read_into, to_bytes, Codec, SnapWriter};
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 4096, 1 << 40] {
            h.record(v);
        }
        let bytes = to_bytes(&mut h);
        // The encoding of the heap layout: a `Vec<u64>` of 64 buckets,
        // then count, sum, min and max.
        let mut expected = Codec::Write(SnapWriter::new());
        expected.snap(&mut h.buckets.to_vec()).unwrap();
        for mut v in [h.count, h.sum, h.min, h.max] {
            expected.snap(&mut v).unwrap();
        }
        assert_eq!(bytes, expected.into_bytes());
        let mut back = Histogram::new();
        read_into(&bytes, &mut back).expect("round trip, no trailing bytes");
        assert_eq!(back.buckets, h.buckets);
        assert_eq!(
            (back.count, back.sum, back.min, back.max),
            (h.count, h.sum, h.min, h.max)
        );
        // An empty histogram keeps its `min` sentinel through the codec.
        let bytes = to_bytes(&mut Histogram::new());
        let mut empty = h.clone();
        read_into(&bytes, &mut empty).expect("empty round trip");
        assert_eq!(empty.min, u64::MAX);
    }

    #[test]
    fn histogram_decoder_rejects_other_bucket_counts() {
        use crate::snapshot::{read_into, SnapError, SnapWriter};
        // 2^40 buckets would be 8 TiB: the length must be refused before
        // anything is allocated or read for it.
        for len in [0usize, 63, 65, 1 << 40] {
            let mut w = SnapWriter::new();
            w.usize(len);
            for _ in 0..len.min(65) + 4 {
                w.u64(7);
            }
            let bytes = w.into_bytes();
            assert_eq!(
                read_into(&bytes, &mut Histogram::new()),
                Err(SnapError::BadValue("histogram buckets")),
                "bucket count {len}"
            );
        }
    }

    #[test]
    fn stats_table_rendering() {
        let mut t = StatsTable::new("x");
        assert!(t.is_empty());
        t.push("alpha", 1);
        t.push_f64("beta", 0.5);
        t.push_pct("gamma", 0.25);
        assert_eq!(t.len(), 3);
        assert_eq!(t.title(), "x");
        let rendered = t.to_string();
        assert!(rendered.contains("== x =="));
        assert!(rendered.contains("0.5000"));
        assert!(rendered.contains("25.00%"));
        let names: Vec<&str> = t.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn geometric_mean_cases() {
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[1.0, -2.0]), None);
        let g = geometric_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }
}
