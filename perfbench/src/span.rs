//! Spans recorded from the benchmark's own files, around its calls into
//! each layer of the program. Nothing is recorded inside the program.
//!
//! A span has a name (`<layer>.<call>`), start and end times, the span
//! that caused it, and a request id shared by every span of one sweep
//! cell or service job. Spans stay in memory until the run ends. Per-op
//! stream timings are aggregated into counters ([`OpTimer`]) rather than
//! recorded one span per op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bc_workloads::{AccessStream, StreamSource, WarpOp, Workload};

/// Identifier of one recorded span.
pub type SpanId = u64;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Cell index or job id shared by all spans of one request.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer (crate) a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder. When off, [`Tracer::span`] only runs the
/// closure, so an untraced run pays one branch per wrapped call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves an id for a span whose times are recorded later.
    pub fn reserve(&self) -> SpanId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's id
    /// so it can parent nested spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.reserve();
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn record(&self, span: Span) {
        if self.on {
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Sum of durations of the spans named `name`, in milliseconds.
pub fn busy_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .sum::<f64>()
        / 1e6
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// Self time per layer, in milliseconds: each span's duration minus the
/// part of its interval that its child spans cover (children may run on
/// other threads, so overlapping children are merged first).
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *out.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Writes the spans as a JSON array of objects, one per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"req\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.id,
            s.name,
            s.req,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push(']');
    out.push('\n');
    out
}

/// Aggregate of every `next_op` call made through an [`OpTimer`] source.
#[derive(Default)]
pub struct OpCounters {
    opens: AtomicU64,
    ops: AtomicU64,
    ns: AtomicU64,
}

impl OpCounters {
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Total time inside `next_op`, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    pub fn mean_ns(&self) -> f64 {
        if self.ops() == 0 {
            0.0
        } else {
            self.total_ms() * 1e6 / self.ops() as f64
        }
    }
}

/// A [`StreamSource`] wrapper that counts stream opens and times every
/// `next_op` of the streams it hands out.
pub struct OpTimer<'a> {
    pub inner: &'a dyn StreamSource,
    pub counters: Arc<OpCounters>,
}

impl StreamSource for OpTimer<'_> {
    fn open_stream(
        &self,
        workload: &dyn Workload,
        wf: u32,
        total_wfs: u32,
        seed: u64,
    ) -> Box<dyn AccessStream> {
        self.counters.opens.fetch_add(1, Ordering::Relaxed);
        Box::new(TimedStream {
            inner: self.inner.open_stream(workload, wf, total_wfs, seed),
            counters: Arc::clone(&self.counters),
            ops: 0,
            ns: 0,
        })
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// Accumulates locally and publishes on drop, so the hot path touches no
/// shared cache line.
struct TimedStream {
    inner: Box<dyn AccessStream>,
    counters: Arc<OpCounters>,
    ops: u64,
    ns: u64,
}

impl AccessStream for TimedStream {
    fn next_op(&mut self) -> Option<WarpOp> {
        let t = Instant::now();
        let op = self.inner.next_op();
        self.ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ops += 1;
        op
    }
}

impl Drop for TimedStream {
    fn drop(&mut self) {
        self.counters.ops.fetch_add(self.ops, Ordering::Relaxed);
        self.counters.ns.fetch_add(self.ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            span(1, None, "experiments.cell", 0, 100),
            span(2, Some(1), "system.run", 10, 50),
            span(3, Some(1), "system.build", 40, 70),
        ];
        let by_layer = self_ms_by_layer(&spans);
        // Children cover 10..70 of the parent's 0..100.
        assert!((by_layer["experiments"] - 40e-6).abs() < 1e-12);
        assert!((by_layer["system"] - 70e-6).abs() < 1e-12);
    }
}
