//! Model-based property tests: the calendar-queue [`EventQueue`] versus a
//! reference binary-heap implementation under arbitrary interleaved
//! push/pop sequences.
//!
//! The reference model is exactly the structure the simulator used before
//! the calendar queue replaced it: a min-heap over `(cycle, insertion
//! sequence)`. Equivalence must hold for the full observable surface —
//! every popped `(cycle, payload)` pair including same-cycle FIFO ties,
//! plus `peek_time` and `len` after every operation — and for inputs the
//! simulator itself never produces, like pushes at cycles the pop cursor
//! has already passed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bc_sim::{Cycle, EventQueue, SimRng};
use proptest::prelude::*;

#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    next_seq: u64,
}

impl ModelQueue {
    fn push(&mut self, at: u64, payload: usize) {
        self.heap.push(Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap.pop().map(|Reverse((at, _, p))| (at, p))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One step of lock-step checking: pop (or push) on both queues, then
/// compare the full observable state.
fn check_step(
    q: &mut EventQueue<usize>,
    model: &mut ModelQueue,
    op: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(q.len(), model.len(), "len diverged after {}", op);
    prop_assert_eq!(q.is_empty(), model.len() == 0);
    prop_assert_eq!(
        q.peek_time().map(|c| c.as_u64()),
        model.peek_time(),
        "peek_time diverged after {}",
        op
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Arbitrary interleavings of pushes — dense tie-heavy cycles, in-day
    /// spreads, far-future cycles that live in the overflow heap across
    /// several wheel days — and pops yield identical `(cycle, payload)`
    /// sequences from both queues.
    #[test]
    fn matches_binary_heap_model(
        ops in proptest::collection::vec((0u32..8, 0u64..1_000_000), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        for (i, (kind, raw)) in ops.iter().enumerate() {
            match kind {
                // Dense pushes: heavy same-cycle tie pressure.
                0 | 1 => {
                    let at = raw % 300;
                    q.push(Cycle::new(at), i);
                    model.push(at, i);
                }
                // In-day spread (within one wheel rotation of the cursor).
                2 => {
                    let at = raw % 5_000;
                    q.push(Cycle::new(at), i);
                    model.push(at, i);
                }
                // Far future: overflow heap, multiple day migrations.
                3 => {
                    q.push(Cycle::new(*raw), i);
                    model.push(*raw, i);
                }
                // Pops, including bursts.
                _ => {
                    let n = 1 + (raw % 3);
                    for _ in 0..n {
                        prop_assert_eq!(
                            q.pop().map(|(t, p)| (t.as_u64(), p)),
                            model.pop(),
                            "pop diverged at op {}", i
                        );
                    }
                }
            }
            check_step(&mut q, &mut model, "op")?;
        }
        // Full drain: remaining order must match exactly.
        loop {
            let got = q.pop().map(|(t, p)| (t.as_u64(), p));
            let want = model.pop();
            prop_assert_eq!(got, want, "drain diverged");
            if want.is_none() {
                break;
            }
        }
    }

    /// A tiny cycle universe maximizes same-cycle FIFO collisions and —
    /// because pops interleave with pushes — constantly schedules cycles
    /// the pop cursor has already passed. Both orders must still agree.
    #[test]
    fn fifo_ties_and_past_pushes_match_model(
        ops in proptest::collection::vec((0u32..4, 0u64..8), 2..250),
    ) {
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        for (i, (kind, raw)) in ops.iter().enumerate() {
            if *kind < 3 {
                q.push(Cycle::new(*raw), i);
                model.push(*raw, i);
            } else {
                prop_assert_eq!(
                    q.pop().map(|(t, p)| (t.as_u64(), p)),
                    model.pop(),
                    "pop diverged at op {}", i
                );
            }
            check_step(&mut q, &mut model, "op")?;
        }
        loop {
            let got = q.pop().map(|(t, p)| (t.as_u64(), p));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    /// The simulator's steady state: a standing population of tens to
    /// hundreds of events, and after every pop up to three pushes a delay
    /// `δ` past the popped cycle — mostly a few cycles, some within the
    /// window, a few up to three windows out. The wheel never drains, so
    /// overflow events can only reach it by migrating while the window
    /// slides; the run lasts until the cursor has crossed ten rotations.
    #[test]
    fn steady_state_sliding_window_matches_model(
        seed in any::<u64>(),
        population in 20usize..300,
    ) {
        let n = EventQueue::<usize>::WHEEL_CYCLES as u64;
        let mut rng = SimRng::seed_from(seed);
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut id = 0usize;
        for _ in 0..population {
            let at = rng.below(n);
            q.push(Cycle::new(at), id);
            model.push(at, id);
            id += 1;
        }
        let mut now = 0;
        while now < 10 * n {
            let want = model.pop();
            prop_assert_eq!(q.pop().map(|(t, p)| (t.as_u64(), p)), want, "pop diverged");
            now = want.expect("population never drains").0;
            let pushes = if model.len() < population {
                1 + rng.below(3)
            } else {
                rng.below(2)
            };
            for _ in 0..pushes {
                let delta = match rng.below(20) {
                    0..=15 => rng.below(32),
                    16..=18 => rng.below(n),
                    _ => rng.below(3 * n),
                };
                q.push(Cycle::new(now + delta), id);
                model.push(now + delta, id);
                id += 1;
            }
            check_step(&mut q, &mut model, "step")?;
        }
        loop {
            let got = q.pop().map(|(t, p)| (t.as_u64(), p));
            let want = model.pop();
            prop_assert_eq!(got, want, "drain diverged");
            if want.is_none() {
                break;
            }
        }
    }

    /// `clear` resets to a state indistinguishable from a fresh queue.
    #[test]
    fn clear_matches_fresh_queue(
        times in proptest::collection::vec(0u64..100_000, 1..100),
    ) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(Cycle::new(*t), i);
        }
        // Pop a prefix so the cursor has moved before clearing.
        for _ in 0..times.len() / 2 {
            q.pop();
        }
        q.clear();
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.peek_time(), None);
        let mut model = ModelQueue::default();
        for (i, t) in times.iter().enumerate() {
            q.push(Cycle::new(*t), i);
            model.push(*t, i);
        }
        loop {
            let got = q.pop().map(|(t, p)| (t.as_u64(), p));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }
}
