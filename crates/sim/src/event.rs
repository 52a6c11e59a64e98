//! Deterministic timestamped event queue.
//!
//! The queue is a hierarchical calendar queue rather than a plain binary
//! heap: the common case in a simulation run — events scheduled a few
//! hundred cycles ahead — lands in a bucket wheel indexed directly by
//! cycle, so push and pop are near-O(1) with no comparisons. The wheel's
//! window slides with the pop cursor; only events scheduled at least
//! [`EventQueue::WHEEL_CYCLES`] ahead of it pay for heap ordering, and
//! each migrates into the wheel once, as soon as the window reaches it.
//! Every pending payload lives in one slab of slots; buckets and heaps
//! hold slot indices, so neither migration nor a bucket's growth moves
//! an event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Cycles the wheel window covers; see [`EventQueue::WHEEL_CYCLES`].
const N: usize = 1024;
const WORDS: usize = N / 64;
/// End of a slot chain (bucket list or free list).
const NIL: u32 = u32::MAX;

/// A min-ordered queue of `(Cycle, E)` events with deterministic FIFO
/// ordering for events scheduled at the same cycle.
///
/// Determinism matters: the whole simulator must produce identical cycle
/// counts for identical seeds, so ties are broken by insertion order rather
/// than by whatever order a heap happens to surface.
///
/// # Structure
///
/// Every pending payload sits in a slot of one slab; freed slots are
/// reused last-in first-out, so the slab stays as large as the peak
/// pending count and the hot slots stay in cache. Three tiers of slot
/// indices, disjoint in the cycles they may hold (`past < cur ≤ wheel <
/// cur + WHEEL_CYCLES ≤ overflow`), so same-cycle FIFO never has to be
/// arbitrated *across* tiers:
///
/// * **Wheel** — [`Self::WHEEL_CYCLES`] buckets of width one cycle covering
///   the window `[cur, cur + WHEEL_CYCLES)`, where `cur` is the pop cursor.
///   Each bucket is a FIFO list threaded through the slots (a head and a
///   tail index; each slot links to the next); a 1-bit-per-bucket
///   occupancy bitmap lets a pop skip runs of idle cycles with a handful
///   of word scans instead of walking empty buckets. Within the window
///   each bucket maps to exactly one cycle, so bucket FIFO order *is*
///   same-cycle FIFO order, and [`Self::pop_cycle`] takes a whole cycle
///   by unlinking one list.
/// * **Overflow heap** — `(cycle, seq, slot)` entries for events at or
///   beyond the window's end. Whenever a pop moves the cursor, every
///   overflow event the window now covers migrates into the wheel in
///   `(cycle, seq)` order by relinking its slot; when the wheel drains,
///   the cursor jumps to the earliest overflow event first. A push
///   reaches the wheel directly only once its cycle is inside the window,
///   which is after that cycle's overflow events have migrated, so FIFO
///   holds exactly.
/// * **Past heap** — events pushed at cycles strictly before the pop
///   cursor. The simulator never does this (scheduling into the past is an
///   audited bug), but adversarial callers — the model-based proptest —
///   may, and the queue still pops in correct min order by draining this
///   heap first.
///
/// # Example
///
/// ```
/// use bc_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(4), "b");
/// q.push(Cycle::new(4), "c");
/// q.push(Cycle::new(1), "a");
/// assert_eq!(q.pop(), Some((Cycle::new(1), "a")));
/// let mut batch = Vec::new();
/// assert_eq!(q.pop_cycle(Cycle::new(4), &mut batch), None, "4 is not below 4");
/// assert_eq!(q.pop_cycle(Cycle::new(5), &mut batch), Some(Cycle::new(4)));
/// assert_eq!(batch, vec!["b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Payload slots, indexed by the wheel lists and both heaps.
    slots: Vec<Slot<E>>,
    /// Head of the free-slot list (LIFO).
    free: u32,
    /// One FIFO slot list per cycle of the window.
    buckets: Box<[Bucket; N]>,
    /// Occupancy bitmap over `buckets` (bit set ⇔ bucket non-empty).
    occ: [u64; WORDS],
    /// Pop cursor and window start: no wheel event lives before this cycle.
    cur: u64,
    /// Events currently in the wheel.
    wheel_len: usize,
    /// Events at or beyond `cur + WHEEL_CYCLES`.
    overflow: BinaryHeap<HeapEntry>,
    /// Events pushed at cycles `< cur` (adversarial input only).
    past: BinaryHeap<HeapEntry>,
    next_seq: u64,
    /// Self-check state under the `audit` feature: pops must be globally
    /// monotone in time (the defining min-order property the run loop
    /// relies on for `now` never moving backwards). Violating `(previous,
    /// offending)` cycle pairs are recorded for the caller to route into
    /// an `AuditReport` via [`Self::take_order_findings`].
    #[cfg(feature = "audit")]
    last_popped: Cycle,
    #[cfg(feature = "audit")]
    order_violations: Vec<(Cycle, Cycle)>,
}

/// A slab slot: the payload of one pending event (`None` once freed) and
/// the next slot of its bucket list or of the free list.
#[derive(Debug)]
struct Slot<E> {
    payload: Option<E>,
    next: u32,
}

/// A wheel bucket: the first and last slot of its FIFO list.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// A heap entry `(cycle, seq, slot)`, reversed so the max-heap pops the
/// earliest cycle and, among equal cycles, the lowest sequence number.
type HeapEntry = Reverse<(u64, u64, u32)>;

impl<E> EventQueue<E> {
    /// Cycles the wheel window covers (bucket width is one cycle). Sized to
    /// hold the common service latencies — DRAM round trips, page walks,
    /// downgrade drains — yet periodic events and seeding are not the only
    /// pushes past it. About 11 % of the small Fig. 4 sweep's pushes and
    /// 32 % of a tiny warm-started pass's go to the overflow heap.
    /// Highly-threaded cells reach 50 %: backprop is at 34–50 % under
    /// every safety model, and full-IOMMU bfs, hotspot, lud and pathfinder
    /// are at 50 %; moderately-threaded cells stay under 1 %. A plain
    /// 8 192-bucket wheel was slower on the small sweep, so the width
    /// stays (DESIGN.md §8).
    pub const WHEEL_CYCLES: usize = N;

    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            buckets: Box::new([Bucket::EMPTY; N]),
            occ: [0; WORDS],
            cur: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            past: BinaryHeap::new(),
            next_seq: 0,
            #[cfg(feature = "audit")]
            last_popped: Cycle::ZERO,
            #[cfg(feature = "audit")]
            order_violations: Vec::new(),
        }
    }

    /// Whether `t` falls inside the window. Written without computing
    /// `cur + WHEEL_CYCLES`, which can overflow near `u64::MAX`; callers
    /// guarantee `t >= cur`.
    #[inline]
    fn in_window(&self, t: u64) -> bool {
        t - self.cur < N as u64
    }

    /// Stores `payload` in a free slot (the most recently freed one, or
    /// a new one) and returns its index.
    #[inline]
    fn alloc(&mut self, payload: E) -> u32 {
        if self.free == NIL {
            let s = u32::try_from(self.slots.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("fewer than 2^32 - 1 pending events");
            self.slots.push(Slot {
                payload: Some(payload),
                next: NIL,
            });
            return s;
        }
        let s = self.free;
        let slot = &mut self.slots[s as usize];
        self.free = slot.next;
        slot.payload = Some(payload);
        slot.next = NIL;
        s
    }

    /// Takes the payload out of slot `s` and returns the slot to the
    /// free list.
    #[inline]
    fn release(&mut self, s: u32) -> E {
        let slot = &mut self.slots[s as usize];
        slot.next = self.free;
        self.free = s;
        slot.payload
            .take()
            .expect("a pending slot holds its payload")
    }

    /// Appends slot `s` (whose link is `NIL`) to the bucket of in-window
    /// cycle `t`.
    #[inline]
    fn link(&mut self, t: u64, s: u32) {
        let r = (t % N as u64) as usize;
        let b = &mut self.buckets[r];
        if b.tail == NIL {
            b.head = s;
            self.occ[r / 64] |= 1 << (r % 64);
        } else {
            self.slots[b.tail as usize].next = s;
        }
        b.tail = s;
        self.wheel_len += 1;
    }

    /// Moves every overflow event the window now covers into the wheel.
    /// The heap pops in `(cycle, seq)` order, so bucket FIFO order equals
    /// push order.
    fn migrate(&mut self) {
        while let Some(&Reverse((t, _, s))) = self.overflow.peek() {
            if !self.in_window(t) {
                break;
            }
            self.overflow.pop();
            self.link(t, s);
        }
    }

    /// Slides the window to start at `t`, the cycle just popped from the
    /// wheel: buckets below it are empty (it was the wheel minimum), so
    /// the window may take in what it now covers.
    #[inline]
    fn advance(&mut self, t: u64) {
        if t != self.cur {
            self.cur = t;
            self.migrate();
        }
    }

    /// Schedules `payload` to fire at instant `at`.
    pub fn push(&mut self, at: Cycle, payload: E) {
        let t = at.as_u64();
        let s = self.alloc(payload);
        if t >= self.cur && self.in_window(t) {
            self.link(t, s);
            return;
        }
        let entry = Reverse((t, self.next_seq, s));
        self.next_seq += 1;
        if t < self.cur {
            self.past.push(entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Residue of the first occupied bucket at or (circularly) after the
    /// cursor's residue. By the wheel invariant every occupied bucket holds
    /// a cycle in `[cur, cur + WHEEL_CYCLES)`, and that range maps to
    /// residues in increasing cycle order starting at `cur % WHEEL_CYCLES`,
    /// so the first set bit in circular scan order is the minimum pending
    /// cycle.
    fn next_occupied(&self) -> Option<usize> {
        let start = (self.cur % N as u64) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let masked = self.occ[w0] & (!0u64 << b0);
        if masked != 0 {
            return Some(w0 * 64 + masked.trailing_zeros() as usize);
        }
        for i in 1..=WORDS {
            let w = (w0 + i) % WORDS;
            let word = if w == w0 {
                // Wrapped all the way around: only the bits below the
                // starting residue remain unexamined.
                self.occ[w] & !(!0u64 << b0)
            } else {
                self.occ[w]
            };
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Cycle the occupied residue `r` corresponds to within the window.
    #[inline]
    fn cycle_of(&self, r: usize) -> u64 {
        let start = (self.cur % N as u64) as usize;
        self.cur + ((r + N - start) % N) as u64
    }

    /// Residue of the wheel's earliest bucket when its cycle is below
    /// `below`. An empty wheel first jumps the window to the earliest
    /// overflow event — only when that event is below `below`, so a
    /// refusal leaves the window where it was.
    fn first_bucket(&mut self, below: u64) -> Option<(usize, u64)> {
        if self.wheel_len == 0 {
            let &Reverse((t, _, _)) = self.overflow.peek()?;
            if t >= below {
                return None;
            }
            self.cur = t;
            self.migrate();
        }
        let r = self.next_occupied().expect("wheel_len > 0");
        let t = self.cycle_of(r);
        debug_assert!(self.in_window(t));
        (t < below).then_some((r, t))
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let popped = self.pop_inner();
        #[cfg(feature = "audit")]
        if let Some((at, _)) = &popped {
            self.check_order(*at);
        }
        popped
    }

    fn pop_inner(&mut self) -> Option<(Cycle, E)> {
        // Past events are strictly below `cur`, hence below every wheel
        // and overflow event: drain them first.
        if let Some(Reverse((t, _, s))) = self.past.pop() {
            return Some((Cycle::new(t), self.release(s)));
        }
        let (r, t) = self.first_bucket(u64::MAX)?;
        let b = &mut self.buckets[r];
        let s = b.head;
        b.head = self.slots[s as usize].next;
        if b.head == NIL {
            b.tail = NIL;
            self.occ[r / 64] &= !(1 << (r % 64));
        }
        self.wheel_len -= 1;
        let payload = self.release(s);
        self.advance(t);
        Some((Cycle::new(t), payload))
    }

    /// Moves every event of the earliest pending cycle onto `out`, in the
    /// order repeated [`Self::pop`] calls would return them, and returns
    /// that cycle — provided it is below `below`. Otherwise returns `None`
    /// and leaves the queue as it was. One call replaces a `peek_time`
    /// check and one `pop` per event of the cycle.
    pub fn pop_cycle(&mut self, below: Cycle, out: &mut Vec<E>) -> Option<Cycle> {
        let popped = self.pop_cycle_inner(below.as_u64(), out);
        #[cfg(feature = "audit")]
        if let Some(at) = popped {
            self.check_order(at);
        }
        popped
    }

    fn pop_cycle_inner(&mut self, below: u64, out: &mut Vec<E>) -> Option<Cycle> {
        // A past cycle lies wholly in the past heap (every wheel and
        // overflow event is at or after `cur`).
        if let Some(&Reverse((t, _, _))) = self.past.peek() {
            if t >= below {
                return None;
            }
            while let Some(&Reverse((u, _, s))) = self.past.peek() {
                if u != t {
                    break;
                }
                self.past.pop();
                out.push(self.release(s));
            }
            return Some(Cycle::new(t));
        }
        let (r, t) = self.first_bucket(below)?;
        let mut s = self.buckets[r].head;
        self.buckets[r] = Bucket::EMPTY;
        self.occ[r / 64] &= !(1 << (r % 64));
        while s != NIL {
            let next = self.slots[s as usize].next;
            out.push(self.release(s));
            self.wheel_len -= 1;
            s = next;
        }
        self.advance(t);
        Some(Cycle::new(t))
    }

    /// Records `at` against the previous pop's cycle for the audit layer.
    #[cfg(feature = "audit")]
    fn check_order(&mut self, at: Cycle) {
        if at < self.last_popped {
            self.order_violations.push((self.last_popped, at));
        } else {
            self.last_popped = at;
        }
    }

    /// The timestamp of the earliest pending event, if any. Unlike `pop`
    /// this never mutates: the bitmap scan finds the wheel minimum without
    /// advancing the cursor.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        if let Some(&Reverse((t, _, _))) = self.past.peek() {
            return Some(Cycle::new(t));
        }
        if self.wheel_len > 0 {
            let r = self.next_occupied().expect("wheel_len > 0");
            return Some(Cycle::new(self.cycle_of(r)));
        }
        self.overflow
            .peek()
            .map(|&Reverse((t, _, _))| Cycle::new(t))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len() + self.past.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free = NIL;
        if self.wheel_len > 0 {
            self.buckets.fill(Bucket::EMPTY);
        }
        self.occ = [0; WORDS];
        self.cur = 0;
        self.wheel_len = 0;
        self.overflow.clear();
        self.past.clear();
        #[cfg(feature = "audit")]
        {
            // A cleared queue starts a fresh logical schedule; drop any
            // recorded violations so they aren't misattributed to it.
            self.last_popped = Cycle::ZERO;
            self.order_violations.clear();
        }
    }

    /// Drains the `(previous, offending)` cycle pairs from pops that went
    /// backwards in time. Empty on every well-formed schedule; the system
    /// run loop routes any entries into its `AuditReport` as
    /// `EventInPast` findings.
    #[cfg(feature = "audit")]
    pub fn take_order_findings(&mut self) -> Vec<(Cycle, Cycle)> {
        std::mem::take(&mut self.order_violations)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(10), 2);
        q.push(Cycle::new(5), 0);
        q.push(Cycle::new(10), 3);
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(drained, vec![0, 1, 2, 3]);
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle::new(3), ());
        q.push(Cycle::new(1), ());
        assert_eq!(q.peek_time(), Some(Cycle::new(1)));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn large_interleaved_schedule_is_sorted() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(Cycle::new(i * 7919 % 101), i);
        }
        let mut last = Cycle::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn overflow_days_rollover_in_order() {
        let n = EventQueue::<u64>::WHEEL_CYCLES as u64;
        let mut q = EventQueue::new();
        // Several windows ahead, plus in-window events, pushed shuffled.
        let times = [3 * n + 7, 2, n + 5, 9 * n, 2, n + 5, 3 * n + 7];
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycle::new(t), i as u64);
        }
        let drained: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, p)| (t.as_u64(), p))
            .collect();
        // Sorted by cycle; FIFO (push index order) within equal cycles.
        assert_eq!(
            drained,
            vec![
                (2, 1),
                (2, 4),
                (n + 5, 2),
                (n + 5, 5),
                (3 * n + 7, 0),
                (3 * n + 7, 6),
                (9 * n, 3),
            ]
        );
    }

    #[test]
    fn fifo_survives_overflow_migration() {
        // An event sits in the overflow heap, the window jumps to it,
        // and a later push lands at the same cycle directly in the wheel:
        // the migrated (earlier) event must still pop first.
        let far = EventQueue::<&str>::WHEEL_CYCLES as u64 * 2;
        let mut q = EventQueue::new();
        q.push(Cycle::new(far), "early");
        q.push(Cycle::new(1), "first");
        assert_eq!(q.pop(), Some((Cycle::new(1), "first")));
        // Wheel is empty; next pop jumps the window to `far`.
        q.push(Cycle::new(far), "late-overflow");
        assert_eq!(q.pop(), Some((Cycle::new(far), "early")));
        // Same cycle again, now pushed straight into the wheel.
        q.push(Cycle::new(far), "wheel-append");
        assert_eq!(q.pop(), Some((Cycle::new(far), "late-overflow")));
        assert_eq!(q.pop(), Some((Cycle::new(far), "wheel-append")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pushes_into_the_past_still_pop_in_min_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(100), "a");
        assert_eq!(q.pop(), Some((Cycle::new(100), "a")));
        // The cursor is now at 100; these land in the past heap.
        q.push(Cycle::new(7), "p2");
        q.push(Cycle::new(3), "p1");
        q.push(Cycle::new(200), "b");
        assert_eq!(q.peek_time(), Some(Cycle::new(3)));
        assert_eq!(q.pop(), Some((Cycle::new(3), "p1")));
        assert_eq!(q.pop(), Some((Cycle::new(7), "p2")));
        assert_eq!(q.pop(), Some((Cycle::new(200), "b")));
    }

    #[cfg(feature = "audit")]
    #[test]
    fn out_of_order_pops_are_reported_as_cycle_pairs() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(100), ());
        assert!(q.pop().is_some());
        q.push(Cycle::new(40), ());
        assert!(q.pop().is_some());
        assert_eq!(
            q.take_order_findings(),
            vec![(Cycle::new(100), Cycle::new(40))]
        );
        // Drained: a second take returns nothing.
        assert!(q.take_order_findings().is_empty());
    }

    #[cfg(feature = "audit")]
    #[test]
    fn clear_drops_recorded_order_violations() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(100), ());
        assert!(q.pop().is_some());
        q.push(Cycle::new(40), ());
        assert!(q.pop().is_some());
        q.clear();
        // The fresh schedule starts with no findings from the old one.
        assert!(q.take_order_findings().is_empty());
    }
}
