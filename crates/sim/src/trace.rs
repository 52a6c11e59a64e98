//! Lightweight event tracing for simulation runs.
//!
//! A [`Tracer`] is a bounded ring of timestamped events. It costs nothing
//! when disabled (the detail string is built lazily), keeps the newest
//! events when full, and renders chronologically — the tool you want when
//! a run aborts and the question is "what did the border see right before
//! that?".

use std::collections::VecDeque;
use std::fmt;

use crate::Cycle;

/// Category of a traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Border Control blocked a request.
    Violation,
    /// A permission downgrade was processed (Fig 3d).
    Downgrade,
    /// A dirty block was recalled across the CPU↔GPU boundary.
    Recall,
    /// An ATS translation completed (Fig 3b).
    Translation,
    /// Process lifecycle (attach/detach/kill).
    Process,
    /// Anything else.
    Other,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::Violation => "VIOLATION",
            TraceKind::Downgrade => "downgrade",
            TraceKind::Recall => "recall",
            TraceKind::Translation => "translate",
            TraceKind::Process => "process",
            TraceKind::Other => "event",
        };
        f.write_str(s)
    }
}

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: Cycle,
    /// What kind of event.
    pub kind: TraceKind,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:<9} {}",
            self.at.as_u64(),
            self.kind,
            self.detail
        )
    }
}

/// A bounded, optionally-disabled event recorder.
///
/// # Example
///
/// ```
/// use bc_sim::trace::{TraceKind, Tracer};
/// use bc_sim::Cycle;
///
/// let mut t = Tracer::new(true, 100);
/// t.record(Cycle::new(5), TraceKind::Other, || "hello".to_string());
/// assert_eq!(t.events().len(), 1);
///
/// let mut off = Tracer::new(false, 100);
/// off.record(Cycle::new(5), TraceKind::Other, || unreachable!("lazy"));
/// assert!(off.events().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer holding at most `capacity` events.
    #[must_use]
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled,
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Whether recording is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event; `detail` is only evaluated when enabled. The
    /// oldest event is dropped when the ring is full.
    pub fn record(&mut self, at: Cycle, kind: TraceKind, detail: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            kind,
            detail: detail(),
        });
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Events of one kind, oldest first.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Events evicted from the ring because it was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the whole ring.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "... {} earlier events dropped ...", self.dropped);
        }
        for e in &self.events {
            let _ = writeln!(out, "{e}");
        }
        out
    }
}

/// Snapshot codecs. The ring order and drop counter are exact state
/// (renders and future evictions depend on both); whether tracing is on
/// and the ring's capacity are config, fixed by the build that is read
/// over.
mod snap_impls {
    use crate::snapshot::{Codec, Snap, SnapError};

    use super::{TraceEvent, TraceKind, Tracer};

    crate::snap_enum!(TraceKind, "trace kind",
        0 => Violation, 1 => Downgrade, 2 => Recall, 3 => Translation, 4 => Process, 5 => Other);

    crate::snap_struct!(TraceEvent: at, kind, detail);

    impl Snap for Tracer {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.snap(&mut self.events)?;
            c.snap(&mut self.dropped)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_free_and_empty() {
        let mut t = Tracer::new(false, 4);
        t.record(Cycle::ZERO, TraceKind::Other, || panic!("must be lazy"));
        assert!(t.events().is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn ring_keeps_newest() {
        let mut t = Tracer::new(true, 3);
        for i in 0..5u64 {
            t.record(Cycle::new(i), TraceKind::Other, || format!("e{i}"));
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.events().front().unwrap().detail, "e2");
        assert_eq!(t.events().back().unwrap().detail, "e4");
        assert!(t.render().contains("2 earlier events dropped"));
    }

    #[test]
    fn kind_filter() {
        let mut t = Tracer::new(true, 10);
        t.record(Cycle::new(1), TraceKind::Violation, || "bad".into());
        t.record(Cycle::new(2), TraceKind::Downgrade, || "down".into());
        t.record(Cycle::new(3), TraceKind::Violation, || "worse".into());
        assert_eq!(t.of_kind(TraceKind::Violation).count(), 2);
        assert_eq!(t.of_kind(TraceKind::Recall).count(), 0);
    }

    #[test]
    fn display_formats() {
        let mut t = Tracer::new(true, 10);
        t.record(Cycle::new(42), TraceKind::Violation, || {
            "write to PPN:0x9".into()
        });
        let s = t.render();
        assert!(s.contains("42"));
        assert!(s.contains("VIOLATION"));
        assert!(s.contains("PPN:0x9"));
    }
}
