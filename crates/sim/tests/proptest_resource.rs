//! Property tests for the calendar-based resource model and the event
//! queue.

use bc_sim::resource::{Channels, Port};
use bc_sim::{Cycle, EventQueue, SimRng};
use proptest::prelude::*;

/// History a port keeps behind its latest arrival; mirrors the private
/// constant in `bc_sim::resource`, which decides results.
const RETAIN_CYCLES: u64 = 16_384;

/// Reference booking model: the calendar `Port` kept before its searches
/// started at the tail. The same sorted, coalesced interval list and
/// `head` cursor, but every search bisects the whole live calendar with
/// `partition_point`. Written independently of the crate's code, so an
/// indexing slip in a faster search shows up as a booking moved to a
/// different gap.
#[derive(Clone, Default)]
struct ModelPort {
    busy: Vec<(u64, u64)>,
    head: usize,
    max_arrival: u64,
    served: u64,
    busy_cycles: u64,
    delays: Vec<u64>,
}

impl ModelPort {
    fn earliest_start(&self, arrival: u64, service: u64) -> u64 {
        if service == 0 {
            return arrival;
        }
        let live = &self.busy[self.head..];
        let mut candidate = arrival;
        let mut i = live.partition_point(|&(_, e)| e <= candidate);
        while i < live.len() && live[i].0 < candidate + service {
            candidate = live[i].1;
            i += 1;
        }
        candidate
    }

    fn serve_at(&mut self, arrival: u64, start: u64, service: u64) -> u64 {
        let done = start + service;
        self.delays.push(start - arrival);
        self.served += 1;
        self.busy_cycles += service;
        if service > 0 {
            let live = &self.busy[self.head..];
            let lo = self.head + live.partition_point(|&(_, e)| e < start);
            let hi = self.head + live.partition_point(|&(s, _)| s <= done);
            let (mut s, mut e) = (start, done);
            if lo < hi {
                s = s.min(self.busy[lo].0);
                e = e.max(self.busy[hi - 1].1);
                self.busy.drain(lo..hi);
            }
            self.busy.insert(lo, (s, e));
        }
        self.max_arrival = self.max_arrival.max(arrival);
        let cutoff = self.max_arrival - self.max_arrival.min(RETAIN_CYCLES);
        self.head += self.busy[self.head..].partition_point(|&(_, e)| e < cutoff);
        done
    }

    fn serve(&mut self, arrival: u64, service: u64) -> u64 {
        let start = self.earliest_start(arrival, service);
        self.serve_at(arrival, start, service)
    }

    fn idle_from(&self) -> u64 {
        self.busy[self.head..].last().map_or(0, |&(_, e)| e)
    }
}

/// [`Channels`] over the model: the first channel with the earliest start
/// wins.
fn model_channels_serve(ports: &mut [ModelPort], arrival: u64, service: u64) -> u64 {
    let mut best = 0;
    let mut best_start = ports[0].earliest_start(arrival, service);
    for (i, p) in ports.iter().enumerate().skip(1) {
        let s = p.earliest_start(arrival, service);
        if s < best_start {
            best = i;
            best_start = s;
        }
    }
    ports[best].serve_at(arrival, best_start, service)
}

/// A DRAM-like request stream: arrivals mostly rising, with bounded
/// regressions (page walks and backlogged requests presented late), a few
/// of them further back than the retention window; services 1–64 cycles.
/// `gap` is the mean arrival spacing, so it sets the load.
fn dram_stream(seed: u64, len: usize, gap: u64) -> Vec<(u64, u64)> {
    let mut rng = SimRng::seed_from(seed);
    let mut clock = 0u64;
    (0..len)
        .map(|_| {
            clock += rng.below(2 * gap + 1);
            let back = match rng.below(100) {
                0..=69 => 0,
                70..=94 => rng.below(512),
                95..=98 => rng.below(4 * 1024),
                _ => RETAIN_CYCLES + rng.below(2 * RETAIN_CYCLES),
            };
            (clock - back.min(clock), 1 + rng.below(64))
        })
        .collect()
}

/// Asserts that a port ended in exactly the model's state.
fn assert_port_matches(
    port: &Port,
    model: &ModelPort,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(port.served(), model.served);
    prop_assert_eq!(port.busy_cycles(), model.busy_cycles);
    let q = port.queue_delay();
    prop_assert_eq!(q.count(), model.delays.len() as u64);
    prop_assert_eq!(q.sum(), model.delays.iter().sum::<u64>());
    prop_assert_eq!(q.min(), model.delays.iter().copied().min().unwrap_or(0));
    prop_assert_eq!(q.max(), model.delays.iter().copied().max().unwrap_or(0));
    prop_assert_eq!(port.idle_from().as_u64(), model.idle_from());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Service never starts before arrival, busy time is conserved, and
    /// utilization can never exceed 1 over the span actually used.
    #[test]
    fn port_conserves_time(
        reqs in proptest::collection::vec((0u64..10_000, 1u64..50), 1..200),
    ) {
        let mut port = Port::new();
        let mut total_service = 0;
        let mut latest_done = 0;
        for (arrival, service) in &reqs {
            let done = port.serve(Cycle::new(*arrival), *service);
            prop_assert!(done.as_u64() >= arrival + service, "finished before it could");
            total_service += service;
            latest_done = latest_done.max(done.as_u64());
        }
        prop_assert_eq!(port.busy_cycles(), total_service);
        // Work conservation: the port cannot have been busy for more
        // cycles than exist in the horizon it used.
        prop_assert!(total_service <= latest_done);
        prop_assert!(port.utilization(latest_done) <= 1.0);
    }

    /// Out-of-order presentation does not change feasibility: every
    /// request still starts at/after its own arrival, and bookings never
    /// overlap (checked via conservation within the makespan).
    #[test]
    fn port_handles_any_presentation_order(
        mut reqs in proptest::collection::vec((0u64..2_000, 1u64..20), 2..100),
        seed in any::<u64>(),
    ) {
        // Shuffle presentation order deterministically.
        let mut rng = SimRng::seed_from(seed);
        for i in (1..reqs.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            reqs.swap(i, j);
        }
        let mut port = Port::new();
        for (arrival, service) in &reqs {
            let done = port.serve(Cycle::new(*arrival), *service);
            prop_assert!(done.as_u64() >= arrival + service);
        }
        let makespan = port.idle_from().as_u64();
        prop_assert!(port.busy_cycles() <= makespan, "double-booked an interval");
    }

    /// A multi-channel bank serves everything a single channel could, at
    /// least as early.
    #[test]
    fn more_channels_never_hurt(
        reqs in proptest::collection::vec((0u64..1_000, 1u64..16), 1..80),
    ) {
        let mut one = Channels::new(1);
        let mut four = Channels::new(4);
        for (arrival, service) in &reqs {
            let d1 = one.serve(Cycle::new(*arrival), *service);
            let d4 = four.serve(Cycle::new(*arrival), *service);
            prop_assert!(d4 <= d1, "4 channels slower than 1 ({d4:?} vs {d1:?})");
        }
    }

    /// The event queue drains in non-decreasing time order with FIFO ties
    /// regardless of push order.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(Cycle::new(*t), i);
        }
        let mut last: Option<(Cycle, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(id > lid, "FIFO tie-break violated");
                }
            }
            last = Some((t, id));
        }
    }

    /// A port books every request of a long DRAM-like stream exactly
    /// where the bisecting reference calendar does: same completion
    /// times, same counters, same idle point.
    #[test]
    fn port_bookings_match_bisecting_model(
        seed in any::<u64>(),
        len in 1_000usize..4_000,
        gap in 4u64..48,
    ) {
        let mut port = Port::new();
        let mut model = ModelPort::default();
        for (i, &(arrival, service)) in dram_stream(seed, len, gap).iter().enumerate() {
            let done = port.serve(Cycle::new(arrival), service);
            prop_assert_eq!(
                done.as_u64(),
                model.serve(arrival, service),
                "request {} (arrival {}, service {}) booked elsewhere", i, arrival, service
            );
        }
        assert_port_matches(&port, &model)?;
    }

    /// The same pin for a bank of 1–4 channels: every request picks the
    /// same channel and slot as the model's bank.
    #[test]
    fn channel_bookings_match_bisecting_model(
        seed in any::<u64>(),
        len in 1_000usize..4_000,
        gap in 1u64..32,
        n in 1usize..5,
    ) {
        let mut bank = Channels::new(n);
        let mut model = vec![ModelPort::default(); n];
        for (i, &(arrival, service)) in dram_stream(seed, len, gap).iter().enumerate() {
            let done = bank.serve(Cycle::new(arrival), service);
            prop_assert_eq!(
                done.as_u64(),
                model_channels_serve(&mut model, arrival, service),
                "request {} (arrival {}, service {}) booked elsewhere", i, arrival, service
            );
        }
        for (port, model) in bank.ports().iter().zip(&model) {
            assert_port_matches(port, model)?;
        }
    }

    /// The RNG's below() is unbiased enough and in-bounds for any bound.
    #[test]
    fn rng_below_in_bounds(seed in any::<u64>(), bound in 1u64..10_000) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }
}
