//! Contended-resource timing helpers.
//!
//! Bandwidth-limited hardware (DRAM channels, IOMMU page-walkers, the
//! Border Control check port) is modelled as one or more *ports*. A port
//! keeps a **calendar of busy intervals** rather than a single
//! "next-free" cursor: requests may be presented out of arrival order
//! (a page walk reserves DRAM slots far in the future while a demand load
//! arrives "now"), and an earlier request must be allowed to slot into an
//! earlier gap instead of queueing behind a future reservation. Intervals
//! coalesce as they fill.

use serde::{Deserialize, Serialize};

use crate::stats::{Counter, Histogram};
use crate::Cycle;

/// How far behind the latest-seen arrival a port keeps history. Arrivals
/// that regress further (rare, bounded by walk/backlog spreads) are billed
/// optimistically against pruned history.
const RETAIN_CYCLES: u64 = 16_384;

/// A single-server queueing resource with out-of-order-tolerant booking.
///
/// # Example
///
/// ```
/// use bc_sim::{Cycle, resource::Port};
///
/// let mut p = Port::new();
/// // Two back-to-back 10-cycle requests arriving at cycle 0: the second
/// // waits for the first.
/// let first = p.serve(Cycle::new(0), 10);
/// let second = p.serve(Cycle::new(0), 10);
/// assert_eq!(first.as_u64(), 10);
/// assert_eq!(second.as_u64(), 20);
/// // A far-future reservation does not block an earlier arrival.
/// p.serve(Cycle::new(1_000_000), 10);
/// assert_eq!(p.serve(Cycle::new(30), 10).as_u64(), 40);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Port {
    /// Busy intervals `(start, end)`, sorted, disjoint, coalesced. Under
    /// load a DRAM channel keeps hundreds of live intervals (≈570 on
    /// average in the highly-threaded Fig. 4 cells), because retention
    /// spans [`RETAIN_CYCLES`]. Arrivals land near the tail, though: half
    /// book past it and the rest are decided a few intervals before it.
    /// So every search starts at the tail and gallops backward, costing
    /// O(log distance) rather than O(log calendar), and a sorted vector
    /// beats a search tree on the serve path, which runs once per
    /// simulated memory operation.
    busy: Vec<(u64, u64)>,
    /// Index of the first live interval in `busy`. `prune` retires
    /// history by advancing this cursor; the dead prefix is compacted
    /// away only once it outgrows the live tail, so pruning costs
    /// amortized O(1) instead of a front-drain memmove per booking.
    head: usize,
    max_arrival: u64,
    served: Counter,
    busy_cycles: u64,
    queue_delay: Histogram,
}

impl Port {
    /// Creates an idle port.
    #[must_use]
    pub fn new() -> Self {
        Port::default()
    }

    /// The live (unretired) portion of the calendar.
    #[inline]
    fn live(&self) -> &[(u64, u64)] {
        &self.busy[self.head..]
    }

    /// Earliest instant a request arriving at `arrival` needing `service`
    /// cycles could start, without booking it.
    #[must_use]
    pub fn earliest_start(&self, arrival: Cycle, service: u64) -> Cycle {
        let mut candidate = arrival.as_u64();
        if service == 0 {
            return arrival;
        }
        let live = self.live();
        // Fast path: arrival at or past the calendar's end.
        match live.last() {
            None => return arrival,
            Some(&(_, e)) if candidate >= e => return arrival,
            _ => {}
        }
        // Walk intervals that could overlap `[candidate, candidate+service)`,
        // starting from the first interval that ends after `candidate`
        // (interval ends are sorted because intervals are disjoint).
        let mut i = partition_from_tail(live, |&(_, e)| e <= candidate);
        while i < live.len() {
            let (s, e) = live[i];
            if s >= candidate + service {
                break; // fits in the gap before this interval
            }
            candidate = e;
            i += 1;
        }
        Cycle::new(candidate)
    }

    /// Serves a request arriving at `arrival` that occupies the port for
    /// `service` cycles, booking the earliest feasible slot. Returns the
    /// completion instant.
    pub fn serve(&mut self, arrival: Cycle, service: u64) -> Cycle {
        let start = self.earliest_start(arrival, service);
        self.serve_at(arrival, start, service)
    }

    /// Books a request at a `start` previously computed by
    /// [`Self::earliest_start`] for the same `(arrival, service)`. Lets
    /// [`Channels`] dispatch without recomputing the winning channel's
    /// start; callers must not pass any other `start`.
    fn serve_at(&mut self, arrival: Cycle, start: Cycle, service: u64) -> Cycle {
        let done = start + service;
        #[cfg(feature = "audit")]
        self.audit_booking(arrival, start, done);
        self.queue_delay.record(start - arrival);
        self.served.inc();
        self.busy_cycles += service;
        if service > 0 {
            self.insert_interval(start.as_u64(), done.as_u64());
        }
        self.max_arrival = self.max_arrival.max(arrival.as_u64());
        self.prune();
        done
    }

    /// Self-check under the `audit` feature: a booking may never start
    /// before its arrival, and must land in a gap — overlapping an
    /// existing busy interval would double-book the server.
    #[cfg(feature = "audit")]
    fn audit_booking(&self, arrival: Cycle, start: Cycle, done: Cycle) {
        assert!(
            start >= arrival,
            "port booked start {start} before arrival {arrival}"
        );
        let (s, e) = (start.as_u64(), done.as_u64());
        if s == e {
            return;
        }
        let live = self.live();
        let i = live.partition_point(|&(ps, _)| ps < e);
        if i > 0 {
            let (ps, pe) = live[i - 1];
            assert!(
                pe <= s,
                "port double-booked: [{s},{e}) overlaps busy [{ps},{pe})"
            );
        }
    }

    fn insert_interval(&mut self, mut start: u64, mut end: u64) {
        // Fast path: the booking extends or follows the calendar's tail,
        // which is where in-order traffic always lands. An empty live
        // region behaves like an empty calendar regardless of any dead
        // prefix awaiting compaction.
        if self.head == self.busy.len() {
            self.busy.push((start, end));
            return;
        }
        match self.busy.last_mut() {
            None => {
                self.busy.push((start, end));
                return;
            }
            Some(last) => {
                if start > last.1 {
                    self.busy.push((start, end));
                    return;
                }
                if start >= last.0 {
                    // Touches or overlaps the final interval only.
                    last.1 = last.1.max(end);
                    return;
                }
            }
        }
        // General path: merge every interval touching `[start, end]`.
        // Intervals ending before `start` also start before `end`, so
        // `lo <= hi` and `lo` is searched below `hi`.
        let live = self.live();
        let hi = partition_from_tail(live, |&(s, _)| s <= end);
        let lo = self.head + partition_from_tail(&live[..hi], |&(_, e)| e < start);
        let hi = self.head + hi;
        if lo < hi {
            start = start.min(self.busy[lo].0);
            end = end.max(self.busy[hi - 1].1);
            self.busy.drain(lo..hi);
        }
        self.busy.insert(lo, (start, end));
    }

    fn prune(&mut self) {
        // bc-lint: allow(saturating-counter) — retention-window clamp near
        // t=0, not a decrementing counter; zero cutoff keeps everything.
        let cutoff = self.max_arrival.saturating_sub(RETAIN_CYCLES);
        // Walk forward: each interval retires once, so this is amortized
        // O(1), and most bookings retire nothing.
        while self.busy.get(self.head).is_some_and(|&(_, e)| e < cutoff) {
            self.head += 1;
        }
        // Compact once the dead prefix dominates; amortized O(1) per
        // retired interval, and memory stays bounded by 2x the live set.
        if self.head >= 64 && self.head * 2 >= self.busy.len() {
            self.busy.drain(..self.head);
            self.head = 0;
        }
    }

    /// The end of the last booked interval — the instant from which the
    /// port is guaranteed idle (used by walker-style callers that want an
    /// exclusive grab).
    #[must_use]
    pub fn idle_from(&self) -> Cycle {
        Cycle::new(self.live().last().map(|&(_, e)| e).unwrap_or(0))
    }

    /// Number of requests served.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served.get()
    }

    /// Total cycles spent actively serving requests.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Distribution of per-request queueing delay.
    #[must_use]
    pub fn queue_delay(&self) -> &Histogram {
        &self.queue_delay
    }

    /// Utilization over an observation window of `elapsed` cycles, in
    /// `[0, 1]` (clamped).
    // bc-lint: allow(float) — summary ratio of two integer counters,
    // computed for reports only.
    #[must_use]
    pub fn utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            (self.busy_cycles as f64 / elapsed as f64).min(1.0)
        }
    }
}

/// `v.partition_point(pred)`, found by galloping backward from the end of
/// `v`: O(log d) probes for an answer `d` elements before the end. `pred`
/// must hold on a prefix of `v` and fail on the rest.
fn partition_from_tail<T>(v: &[T], pred: impl Fn(&T) -> bool) -> usize {
    // Everything at or after `hi` fails `pred`.
    let mut hi = v.len();
    let mut step = 1;
    while step < hi {
        let probe = hi - step;
        if pred(&v[probe]) {
            return probe + 1 + v[probe + 1..hi].partition_point(&pred);
        }
        hi = probe;
        step *= 2;
    }
    v[..hi].partition_point(pred)
}

impl crate::snapshot::Snap for Port {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        // Only the live calendar is behavioral: every booking decision
        // reads `live()` and the dead prefix exists solely to amortize
        // pruning. Serializing the live slice with `head = 0` restores a
        // port whose every future booking (and every stat) is identical.
        w.snap(&self.live().to_vec());
        w.u64(self.max_arrival);
        w.snap(&self.served);
        w.u64(self.busy_cycles);
        w.snap(&self.queue_delay);
    }
    fn load(r: &mut crate::snapshot::SnapReader<'_>) -> Result<Self, crate::snapshot::SnapError> {
        Ok(Port {
            busy: r.snap()?,
            head: 0,
            max_arrival: r.u64()?,
            served: r.snap()?,
            busy_cycles: r.u64()?,
            queue_delay: r.snap()?,
        })
    }
}

impl crate::snapshot::Snap for Channels {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.snap(&self.ports);
    }
    fn load(r: &mut crate::snapshot::SnapReader<'_>) -> Result<Self, crate::snapshot::SnapError> {
        let ports: Vec<Port> = r.snap()?;
        if ports.is_empty() {
            return Err(crate::snapshot::SnapError::BadValue("zero channels"));
        }
        Ok(Channels { ports })
    }
}

/// A bank of identical ports; each request is dispatched to the port that
/// can start it earliest. Models multi-channel DRAM or multiple parallel
/// page-table walkers.
///
/// # Example
///
/// ```
/// use bc_sim::{Cycle, resource::Channels};
///
/// let mut dram = Channels::new(2);
/// // Two simultaneous requests ride separate channels...
/// assert_eq!(dram.serve(Cycle::new(0), 8).as_u64(), 8);
/// assert_eq!(dram.serve(Cycle::new(0), 8).as_u64(), 8);
/// // ...but a third must queue.
/// assert_eq!(dram.serve(Cycle::new(0), 8).as_u64(), 16);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Channels {
    ports: Vec<Port>,
}

impl Channels {
    /// Creates `n` idle channels.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a resource needs at least one channel");
        Channels {
            ports: vec![Port::new(); n],
        }
    }

    /// Serves a request on the channel that can start it earliest,
    /// walking each channel's calendar once. Ties pick the first tied
    /// channel — the historical `min_by_key` behavior, which downstream
    /// per-channel counters (and therefore every `RunReport`) depend on.
    pub fn serve(&mut self, arrival: Cycle, service: u64) -> Cycle {
        let mut best = 0;
        let mut best_start = self.ports[0].earliest_start(arrival, service);
        for (i, p) in self.ports.iter().enumerate().skip(1) {
            let s = p.earliest_start(arrival, service);
            if s < best_start {
                best = i;
                best_start = s;
            }
        }
        self.ports[best].serve_at(arrival, best_start, service)
    }

    /// Number of channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.ports.len()
    }

    /// Total requests served across all channels.
    pub fn served(&self) -> u64 {
        self.ports.iter().map(Port::served).sum()
    }

    /// Total busy cycles summed over channels.
    pub fn busy_cycles(&self) -> u64 {
        self.ports.iter().map(Port::busy_cycles).sum()
    }

    /// Aggregate utilization over `elapsed` cycles, in `[0, 1]`.
    // bc-lint: allow(float) — summary ratio of two integer counters,
    // computed for reports only.
    #[must_use]
    pub fn utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let cap = elapsed as f64 * self.ports.len() as f64;
        (self.busy_cycles() as f64 / cap).min(1.0)
    }

    /// Read-only view of the underlying ports (diagnostics).
    #[must_use]
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// The earliest instant at which some channel is guaranteed idle
    /// (conservative: ignores interior gaps).
    pub fn earliest_free(&self) -> Cycle {
        self.ports
            .iter()
            .map(Port::idle_from)
            .min()
            .unwrap_or(Cycle::ZERO)
    }
}

#[cfg(test)]
// bc-lint: allow(float) — assertions on summary utilization ratios.
mod tests {
    use super::*;

    #[test]
    fn port_idle_service_starts_at_arrival() {
        let mut p = Port::new();
        assert_eq!(p.serve(Cycle::new(100), 5), Cycle::new(105));
        assert_eq!(p.served(), 1);
        assert_eq!(p.busy_cycles(), 5);
    }

    #[test]
    fn port_queues_when_busy() {
        let mut p = Port::new();
        p.serve(Cycle::new(0), 10);
        let done = p.serve(Cycle::new(3), 10);
        assert_eq!(done, Cycle::new(20));
        // Queue delay of the second request was 7 cycles.
        assert_eq!(p.queue_delay().max(), 7);
    }

    #[test]
    fn port_goes_idle_between_bursts() {
        let mut p = Port::new();
        p.serve(Cycle::new(0), 10);
        let done = p.serve(Cycle::new(50), 10);
        assert_eq!(done, Cycle::new(60));
        assert_eq!(p.utilization(60), 20.0 / 60.0);
    }

    #[test]
    fn early_arrival_uses_gap_before_future_reservation() {
        let mut p = Port::new();
        // Book the far future first.
        assert_eq!(p.serve(Cycle::new(10_000), 10), Cycle::new(10_010));
        // An earlier arrival slots in before it, not after.
        assert_eq!(p.serve(Cycle::new(5), 10), Cycle::new(15));
        // And a request that only fits between them finds the gap.
        assert_eq!(p.serve(Cycle::new(9_990), 10), Cycle::new(10_000));
        assert_eq!(p.served(), 3);
    }

    #[test]
    fn interval_coalescing_keeps_calendar_small() {
        let mut p = Port::new();
        for i in 0..1000u64 {
            p.serve(Cycle::new(i), 2);
        }
        // Fully packed: one merged interval.
        assert_eq!(p.busy_cycles(), 2000);
        assert_eq!(p.idle_from(), Cycle::new(2000));
    }

    #[test]
    fn gap_exactly_fitting_service_is_used() {
        let mut p = Port::new();
        p.serve(Cycle::new(0), 10); // [0,10)
        p.serve(Cycle::new(20), 10); // [20,30)
                                     // A 10-cycle request at 10 fits exactly in [10,20).
        assert_eq!(p.serve(Cycle::new(10), 10), Cycle::new(20));
        // Now fully packed 0..30.
        assert_eq!(p.serve(Cycle::new(0), 5), Cycle::new(35));
    }

    #[test]
    fn zero_service_is_free() {
        let mut p = Port::new();
        p.serve(Cycle::new(0), 10);
        assert_eq!(p.serve(Cycle::new(3), 0), Cycle::new(3));
    }

    #[test]
    fn utilization_clamped_and_zero_window() {
        let mut p = Port::new();
        p.serve(Cycle::new(0), 100);
        assert_eq!(p.utilization(0), 0.0);
        assert_eq!(p.utilization(10), 1.0);
    }

    #[test]
    fn channels_spread_load() {
        let mut ch = Channels::new(4);
        for _ in 0..4 {
            assert_eq!(ch.serve(Cycle::new(0), 10), Cycle::new(10));
        }
        assert_eq!(ch.serve(Cycle::new(0), 10), Cycle::new(20));
        assert_eq!(ch.served(), 5);
        assert_eq!(ch.channel_count(), 4);
    }

    #[test]
    fn channels_earliest_free_tracks_min() {
        let mut ch = Channels::new(2);
        ch.serve(Cycle::new(0), 10);
        assert_eq!(ch.earliest_free(), Cycle::ZERO);
        ch.serve(Cycle::new(0), 4);
        assert_eq!(ch.earliest_free(), Cycle::new(4));
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = Channels::new(0);
    }

    #[test]
    fn channels_aggregate_utilization() {
        let mut ch = Channels::new(2);
        ch.serve(Cycle::new(0), 10);
        ch.serve(Cycle::new(0), 10);
        assert!((ch.utilization(10) - 1.0).abs() < 1e-12);
        assert!((ch.utilization(20) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn channel_ties_pick_first_like_min_by_key() {
        let mut ch = Channels::new(3);
        // All channels idle: a three-way tie must book channel 0.
        ch.serve(Cycle::new(0), 10);
        assert_eq!(ch.ports[0].served(), 1);
        assert_eq!(ch.ports[1].served(), 0);
        assert_eq!(ch.ports[2].served(), 0);
        // Channel 0 frees at 10 while 1 and 2 are still idle; an arrival at
        // 10 ties all three again and must still book channel 0, even though
        // the calendars now differ.
        ch.serve(Cycle::new(10), 5);
        assert_eq!(ch.ports[0].served(), 2);
        assert_eq!(ch.ports[1].served(), 0);
        // An arrival mid-service breaks the tie toward channel 1.
        ch.serve(Cycle::new(12), 5);
        assert_eq!(ch.ports[1].served(), 1);
        assert_eq!(ch.ports[2].served(), 0);
    }

    #[test]
    fn future_reservation_does_not_poison_channels() {
        let mut ch = Channels::new(2);
        ch.serve(Cycle::new(100_000), 10);
        ch.serve(Cycle::new(100_000), 10);
        // Both channels have far-future bookings; early arrivals are fine.
        assert_eq!(ch.serve(Cycle::new(0), 10), Cycle::new(10));
        assert_eq!(ch.serve(Cycle::new(0), 10), Cycle::new(10));
    }
}
