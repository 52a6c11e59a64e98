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
#[derive(Debug, Clone, Default)]
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
        self.serve_run(arrival, start, service, 1)
    }

    /// Books `k ≥ 1` requests arriving at `arrival` back to back from
    /// `start`, and returns the last one's completion. With `k = 1` this
    /// is any booking [`Self::serve_at`] makes. With `k > 1`, `start`
    /// must be a [`Self::runs_from`] start: then each request lands
    /// right after the one before, so the run books what `k` calls of
    /// `serve_at` book — one interval, and queue delays that rise by
    /// `service` from `start - arrival`.
    fn serve_run(&mut self, arrival: Cycle, start: Cycle, service: u64, k: u64) -> Cycle {
        let done = start + k * service;
        #[cfg(feature = "audit")]
        self.audit_booking(arrival, start, done);
        if k == 1 {
            self.queue_delay.record(start - arrival);
        } else {
            self.queue_delay
                .record_progression(start - arrival, service, k);
        }
        self.served.add(k);
        self.busy_cycles += k * service;
        if service > 0 {
            self.insert_interval(start.as_u64(), done.as_u64());
        }
        self.max_arrival = self.max_arrival.max(arrival.as_u64());
        self.prune();
        done
    }

    /// Whether every further request arriving at `arrival` with this
    /// `service` would book right after the one before, starting from
    /// `start`, the channel's next start: `start` is at or past the
    /// calendar's end, so nothing booked lies ahead of it, and `arrival`
    /// is inside the retention window, so pruning cannot reopen a slot
    /// behind it. A zero `service` books no interval at all, so it never
    /// runs.
    fn runs_from(&self, arrival: Cycle, start: Cycle, service: u64) -> bool {
        service > 0 && start >= self.idle_from() && arrival.as_u64() >= self.retain_cutoff()
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

    /// Intervals ending before this instant are retired by `prune`.
    fn retain_cutoff(&self) -> u64 {
        // bc-lint: allow(saturating-counter) — retention-window clamp near
        // t=0, not a decrementing counter; zero cutoff keeps everything.
        self.max_arrival.saturating_sub(RETAIN_CYCLES)
    }

    fn prune(&mut self) {
        let cutoff = self.retain_cutoff();
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

/// How many requests of a run that starts at `start` on channel `i` and
/// steps by `service > 0` come before `(t, c)` in `(start, channel)`
/// order: the starts below `t`, and the one at `t` too when `i < c`.
fn run_requests_before(i: usize, start: Cycle, service: u64, (t, c): (Cycle, usize)) -> u64 {
    let (start, end) = (start.as_u64(), t.as_u64() + u64::from(i < c));
    if end > start {
        (end - start).div_ceil(service)
    } else {
        0
    }
}

impl crate::snapshot::Snap for Port {
    fn snap(
        &mut self,
        c: &mut crate::snapshot::Codec<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        // Only the live calendar is behavioral: every booking decision
        // reads `live()` and the dead prefix exists solely to amortize
        // pruning. Writing the live slice and reading it back with
        // `head = 0` restores a port whose every future booking (and
        // every stat) is identical; writing leaves the port as it is.
        if c.reading() {
            self.head = 0;
            c.snap(&mut self.busy)?;
        } else {
            c.snap(&mut self.live().to_vec())?;
        }
        c.snap(&mut self.max_arrival)?;
        c.snap(&mut self.served)?;
        c.snap(&mut self.busy_cycles)?;
        c.snap(&mut self.queue_delay)
    }
}

/// The channel count comes from the build.
impl crate::snapshot::Snap for Channels {
    fn snap(
        &mut self,
        c: &mut crate::snapshot::Codec<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        c.each(&mut self.ports, "channel count")
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
#[derive(Debug, Clone)]
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

    /// Serves `n` requests that all arrive at `arrival` and each need
    /// `service` cycles, booking exactly what `n` calls of
    /// [`Self::serve`] book, and returns the latest completion (`arrival`
    /// when `n` is zero).
    ///
    /// `n` calls of `serve` book in `(start, channel)` order: each takes
    /// the lowest start, ties to the lowest channel. Each channel's
    /// calendar is searched once up front. A channel whose next start is
    /// at or past its calendar's end, for an arrival inside its retention
    /// window, books every further request right after the one before
    /// ([`Port::runs_from`]): its starts are an arithmetic progression
    /// with step `service`, the same step on every channel. The shares
    /// of such channels are therefore counted, not simulated, and each
    /// channel books its share as one run ([`Port::serve_run`]). The
    /// other channels book one request at a time, as `serve` would: the
    /// start lies in a gap before the calendar's tail, or the arrival is
    /// more than the retention window behind the channel's latest
    /// arrival (where pruning can retire the interval just booked and
    /// reopen its slot), or `service` is zero. After such a booking only
    /// that channel is searched again — from the completion just booked,
    /// or from the arrival behind the window.
    pub fn serve_burst(&mut self, arrival: Cycle, service: u64, n: u64) -> Cycle {
        let mut starts: Vec<Cycle> = self
            .ports
            .iter()
            .map(|p| p.earliest_start(arrival, service))
            .collect();
        let mut latest = arrival;
        let mut left = n;
        while left > 0 {
            let ports = &self.ports;
            let runs = |i: &usize| ports[*i].runs_from(arrival, starts[*i], service);
            // Requests the running channels book before `key`.
            let before = |key| {
                (0..ports.len())
                    .filter(runs)
                    .map(|i| run_requests_before(i, starts[i], service, key))
                    .sum::<u64>()
            };
            // The next one-at-a-time booking: the lowest start among the
            // other channels.
            let single = (0..ports.len())
                .filter(|i| !runs(i))
                .min_by_key(|&i| (starts[i], i));
            // The runs book every request ordered before `limit`: those
            // ahead of the single booking or, when those are not fewer
            // than the `left` still to book, the first `left`. `before`
            // rises by at most one per key, so the first key with `left`
            // requests before it has exactly `left`.
            let limit = match single {
                Some(p) if before((starts[p], p)) < left => (starts[p], p),
                _ => {
                    let first = (0..ports.len())
                        .filter(runs)
                        .map(|i| starts[i])
                        .min()
                        .expect("with no single booking first, some channel runs");
                    // The `left`-th request starts at the first `t` with
                    // `left` requests at or before it, by `first + (left -
                    // 1)·service` at the latest.
                    let (mut lo, mut hi) = (first, first + (left - 1) * service);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if before((mid, ports.len())) >= left {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    (1..=ports.len())
                        .map(|c| (lo, c))
                        .find(|&key| before(key) >= left)
                        .expect("every run request at `lo` is before `(lo, len)`")
                }
            };
            for (i, port) in self.ports.iter_mut().enumerate() {
                if !port.runs_from(arrival, starts[i], service) {
                    continue;
                }
                let k = run_requests_before(i, starts[i], service, limit);
                if k > 0 {
                    starts[i] = port.serve_run(arrival, starts[i], service, k);
                    latest = latest.max(starts[i]);
                    left -= k;
                }
            }
            if left == 0 {
                break;
            }
            let p = single.expect("requests are left only when a single booking is next");
            let port = &mut self.ports[p];
            let done = port.serve_at(arrival, starts[p], service);
            latest = latest.max(done);
            left -= 1;
            let from = if arrival.as_u64() < port.retain_cutoff() {
                arrival
            } else {
                done
            };
            starts[p] = port.earliest_start(from, service);
        }
        latest
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
    fn burst_behind_the_window_reuses_the_slots_pruning_reopens() {
        use crate::snapshot::to_bytes;
        // A zero-service request moves channel 0's latest arrival far
        // ahead without booking anything, so its calendar ends behind
        // the retention window. A burst arriving behind the window books
        // channel 0 one request at a time: each booking is retired at
        // once and the next reuses its slot, so all nine land at cycle 0
        // on channel 0, as nine calls of `serve` book them. Booked as a
        // run, they would spread over both channels.
        let mut burst = Channels::new(2);
        burst.serve(Cycle::new(5), 3);
        burst.serve(Cycle::new(100_000), 0);
        let mut single = burst.clone();
        let done = burst.serve_burst(Cycle::new(0), 2, 9);
        let mut want = Cycle::new(0);
        for _ in 0..9 {
            want = want.max(single.serve(Cycle::new(0), 2));
        }
        assert_eq!((done, want), (Cycle::new(2), Cycle::new(2)));
        assert_eq!(burst.ports[0].served(), 11);
        assert_eq!(to_bytes(&mut burst), to_bytes(&mut single));
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
