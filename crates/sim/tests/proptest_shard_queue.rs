//! Model-based property tests: the sharded conservative engine
//! ([`bc_sim::shard::ShardEngine`]) versus an independently written
//! single-queue reference scheduler.
//!
//! The reference owns one global binary heap keyed `(cycle, component,
//! src, seq)` and applies the exact scheduling contract the sharded
//! engine documents — self-sends floored at `now + 1`, cross-component
//! sends floored at `now + lookahead`, below-floor sends clamped up and
//! recorded — but shares none of the engine's machinery: no shards, no
//! barriers, no mailboxes, no per-component queues. If the two agree on
//! every dispatch and every violation for arbitrary programs, then the
//! engine's rounds/mailbox plumbing adds nothing observable beyond the
//! contract.
//!
//! The generated programs are adversarial on purpose: sends land exactly
//! on the lookahead boundary, one cycle inside it (legal for self-sends,
//! violating for cross-sends), in the issuing instant itself (always
//! clamped), and in clusters that force same-cycle ties from multiple
//! source components. Shard count and component-to-shard assignment are
//! also generated, so every program is checked across several
//! decompositions against the one reference schedule. Each program is
//! also cut at a generated cycle on every decomposition, as a warm-start
//! checkpoint cuts a run: the drained calendars must agree, and resuming
//! from one must finish the reference schedule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bc_sim::shard::{
    CompId, Outbox, PendingEvent, ShardEngine, ShardHandler, ShardOrderViolation, ShardSpec,
};
use bc_sim::Cycle;
use proptest::prelude::*;

/// The deterministic toy workload both executors run: from one dispatch
/// of `(comp, now, payload)`, the set of follow-on sends. Pure function
/// of its arguments, so it cannot smuggle ordering information between
/// the two executors — only the *schedulers* differ.
///
/// `payload >> 4` is the next payload, so every generation shrinks the
/// payload by four bits and all programs terminate.
fn model_sends(
    comp: CompId,
    components: usize,
    now: u64,
    payload: u64,
    lookahead: u64,
) -> Vec<(CompId, u64, u64)> {
    let fanout = (payload % 3) as usize;
    let next = payload >> 4;
    (0..fanout)
        .map(|i| {
            // Per-send deterministic mix of the payload bits.
            // bc-lint: allow(saturating-counter) — hash mix of payload bits.
            let x = payload
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(11 * (i as u32 + 1));
            let dst = (comp + (x as usize % components)) % components;
            let at = match (x >> 8) & 7 {
                // Below every floor: clamped, and a recorded violation.
                0 => now,
                // Legal only as a self-send; a cross-send violation.
                1 => now + 1,
                // One cycle inside the cross floor (when lookahead > 1).
                // bc-lint: allow(saturating-counter) — adversarial timestamp
                // generator probing the scheduling floor, not a counter.
                2 => now + lookahead.saturating_sub(1).max(1),
                // Exactly on the lookahead boundary.
                3 => now + lookahead,
                // Just past the boundary.
                4 => now + lookahead + 1,
                // Clustered a few cycles out: forces same-cycle ties
                // between sends from different source components.
                _ => now + lookahead + ((x >> 16) % 5),
            };
            (dst, at, next)
        })
        .collect()
}

/// What one executor observed: per-component dispatch sequences, the
/// violation log, and the total dispatch count.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// `traces[comp]` = the `(cycle, payload)` sequence dispatched there.
    traces: Vec<Vec<(u64, u64)>>,
    violations: Vec<ShardOrderViolation>,
    dispatched: u64,
}

/// A pending reference event: `(at, dst, src, seq, payload)`, reversed
/// into a min-heap.
type RefEvent = Reverse<(u64, usize, usize, u64, u64)>;

/// The independently written single-queue reference: one min-heap over
/// `(cycle, dst component, src component, per-source seq)`. Projected
/// onto any single component that order is `(cycle, src, seq)` — the
/// sharded engine's documented batch order — while the `dst` tiebreak
/// mirrors the engine's ascending-component scan within a cycle.
fn reference_run(components: usize, lookahead: u64, seeds: &[(CompId, u64, u64)]) -> Observed {
    let mut heap: BinaryHeap<RefEvent> = BinaryHeap::new();
    let mut seqs = vec![0u64; components];
    for &(comp, at, payload) in seeds {
        let seq = seqs[comp];
        seqs[comp] += 1;
        heap.push(Reverse((at, comp, comp, seq, payload)));
    }
    let mut obs = Observed {
        traces: vec![Vec::new(); components],
        violations: Vec::new(),
        dispatched: 0,
    };
    while let Some(Reverse((now, comp, _src, _seq, payload))) = heap.pop() {
        obs.dispatched += 1;
        obs.traces[comp].push((now, payload));
        for (dst, at, next) in model_sends(comp, components, now, payload, lookahead) {
            let floor = if dst == comp {
                now + 1
            } else {
                now + lookahead
            };
            let seq = seqs[comp];
            seqs[comp] += 1;
            let t = if at < floor {
                obs.violations.push(ShardOrderViolation {
                    src: comp,
                    dst,
                    now,
                    at,
                    floor,
                    seq,
                });
                floor
            } else {
                at
            };
            heap.push(Reverse((t, dst, comp, seq, next)));
        }
    }
    obs.violations.sort_by_key(|v| (v.now, v.src, v.seq));
    obs
}

/// The sharded engine's handler: records dispatches and replays the same
/// pure workload through the engine's [`Outbox`].
struct Player {
    components: usize,
    /// In this shard's own dispatch order; per-component order is
    /// recovered by bucketing (each component lives on exactly one
    /// shard, so bucketing preserves its sequence).
    trace: Vec<(CompId, u64, u64)>,
}

impl ShardHandler<u64> for Player {
    fn handle(&mut self, comp: CompId, now: Cycle, payload: u64, out: &mut Outbox<'_, u64>) {
        self.trace.push((comp, now.as_u64(), payload));
        for (dst, at, next) in model_sends(
            comp,
            self.components,
            now.as_u64(),
            payload,
            out.lookahead(),
        ) {
            out.send(dst, Cycle::new(at), next);
        }
    }
}

/// One handler per shard of `spec`.
fn players(spec: &ShardSpec) -> Vec<Player> {
    (0..spec.shards)
        .map(|_| Player {
            components: spec.components,
            trace: Vec::new(),
        })
        .collect()
}

/// Appends each handler's dispatches to its component's trace.
fn collect_traces(handlers: Vec<Player>, traces: &mut [Vec<(u64, u64)>]) {
    for h in handlers {
        for (comp, at, payload) in h.trace {
            traces[comp].push((at, payload));
        }
    }
}

/// An engine for `spec` with the program's seed events.
fn seeded(spec: ShardSpec, seeds: &[(CompId, u64, u64)]) -> ShardEngine<u64> {
    let mut engine = ShardEngine::new(spec);
    for &(comp, at, payload) in seeds {
        engine.seed(comp, Cycle::new(at), payload);
    }
    engine
}

/// Runs the same program through the sharded engine under `spec`.
fn sharded_run(spec: ShardSpec, seeds: &[(CompId, u64, u64)]) -> Observed {
    let mut handlers = players(&spec);
    let mut traces = vec![Vec::new(); spec.components];
    let run = seeded(spec, seeds).run(&mut handlers);
    collect_traces(handlers, &mut traces);
    Observed {
        traces,
        violations: run.violations,
        dispatched: run.dispatched,
    }
}

/// What a warm-start cut captures: the drained pending calendar and the
/// per-component sequence counters.
type Cut = (Vec<PendingEvent<u64>>, Vec<u64>);

/// Runs the program under `spec` up to `cut`, drains the engine as a
/// checkpoint would, restores the drain into a fresh engine and runs
/// that to completion. Returns the cut state and what both halves
/// observed together.
fn cut_run(spec: ShardSpec, seeds: &[(CompId, u64, u64)], cut: u64) -> (Cut, Observed) {
    let mut traces = vec![Vec::new(); spec.components];
    let mut first = seeded(spec.clone(), seeds);
    let mut handlers = players(&spec);
    let before = first.run_until(&mut handlers, Cycle::new(cut));
    collect_traces(handlers, &mut traces);
    let pending = first.drain_pending();
    let seqs = first.out_seqs();

    let mut resumed = ShardEngine::new(spec.clone());
    resumed.restore_pending(pending.clone());
    resumed.set_out_seqs(&seqs);
    let mut handlers = players(&spec);
    let after = resumed.run(&mut handlers);
    collect_traces(handlers, &mut traces);

    let mut violations = before.violations;
    violations.extend(after.violations);
    violations.sort_by_key(|v| (v.now, v.src, v.seq));
    let observed = Observed {
        traces,
        violations,
        dispatched: before.dispatched + after.dispatched,
    };
    ((pending, seqs), observed)
}

/// A program: component count, lookahead, seed events (raw comp, cycle,
/// payload), raw bytes that pick the shard assignments, and a raw shard
/// count.
type Program = (usize, u64, Vec<(usize, u64, u64)>, Vec<u8>, usize);

/// Strategy for one program.
fn program() -> impl Strategy<Value = Program> {
    (
        2usize..6,
        1u64..7,
        proptest::collection::vec((0usize..8, 0u64..50, 1u64..4096), 1..8),
        proptest::collection::vec(0u8..8, 8..9),
        1usize..5,
    )
}

/// The program's seed events, with components taken modulo the count.
fn seeds_of(components: usize, raw_seeds: &[(usize, u64, u64)]) -> Vec<(CompId, u64, u64)> {
    raw_seeds
        .iter()
        .map(|&(c, at, p)| (c % components, at, p))
        .collect()
}

/// The three decompositions every program is checked on: the
/// single-shard engine, an arbitrary assignment onto a generated shard
/// count, and one component per shard.
fn decompositions(
    components: usize,
    lookahead: u64,
    raw_assign: &[u8],
    raw_shards: usize,
) -> [ShardSpec; 3] {
    let shards = raw_shards.min(components);
    let spec = |shards, assignment| ShardSpec {
        components,
        shards,
        assignment,
        lookahead,
    };
    [
        spec(1, vec![0; components]),
        spec(
            shards,
            (0..components)
                .map(|c| raw_assign[c] as usize % shards)
                .collect(),
        ),
        spec(components, (0..components).collect()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline pin: for arbitrary adversarial programs, the sharded
    /// engine — at one shard, at a generated shard count/assignment, and
    /// fully decomposed (one component per shard) — observes exactly the
    /// reference scheduler's per-component dispatch traces, violation
    /// log and dispatch count.
    #[test]
    fn sharded_engine_matches_single_queue_reference(
        (components, lookahead, raw_seeds, raw_assign, raw_shards) in program()
    ) {
        let seeds = seeds_of(components, &raw_seeds);
        let want = reference_run(components, lookahead, &seeds);
        prop_assert!(want.dispatched >= seeds.len() as u64);
        for spec in decompositions(components, lookahead, &raw_assign, raw_shards) {
            let (shards, assignment) = (spec.shards, spec.assignment.clone());
            let got = sharded_run(spec, &seeds);
            prop_assert_eq!(
                &got, &want,
                "shards={} assignment={:?} diverged from the reference",
                shards, assignment
            );
        }
    }

    /// A warm-start cut is placement-free: `run_until(cut)` on the
    /// single-shard, generated and fully decomposed engines leaves the
    /// same drained calendar and the same sequence counters, and each,
    /// restored into a fresh engine and run to completion, observes
    /// exactly the reference's traces, violations and dispatch count.
    /// Cuts fall before, inside and after each program's schedule.
    #[test]
    fn warm_start_cuts_match_on_every_decomposition(
        (components, lookahead, raw_seeds, raw_assign, raw_shards) in program(),
        cut in 0u64..120,
    ) {
        let seeds = seeds_of(components, &raw_seeds);
        let want = reference_run(components, lookahead, &seeds);
        let mut first_cut: Option<Cut> = None;
        for spec in decompositions(components, lookahead, &raw_assign, raw_shards) {
            let (shards, assignment) = (spec.shards, spec.assignment.clone());
            let (state, got) = cut_run(spec, &seeds, cut);
            prop_assert!(
                state.0.iter().all(|p| p.at >= Cycle::new(cut)),
                "an event below the cut stayed pending"
            );
            prop_assert_eq!(
                &got, &want,
                "shards={} assignment={:?} cut={} diverged from the reference",
                shards, &assignment, cut
            );
            match &first_cut {
                None => first_cut = Some(state),
                Some(single) => prop_assert_eq!(
                    &state, single,
                    "shards={} assignment={:?} cut={} drained a different calendar",
                    shards, &assignment, cut
                ),
            }
        }
    }

    /// Every recorded violation is internally consistent — the asked-for
    /// cycle really was below the documented floor, and the floor really
    /// is `now + 1` (self) or `now + lookahead` (cross) — and the log
    /// arrives sorted by the deterministic `(now, src, seq)` key.
    #[test]
    fn violation_records_are_exact_and_ordered(
        (components, lookahead, raw_seeds, raw_assign, raw_shards) in program()
    ) {
        let seeds = seeds_of(components, &raw_seeds);
        let [_, spec, _] = decompositions(components, lookahead, &raw_assign, raw_shards);
        let got = sharded_run(spec, &seeds);
        for v in &got.violations {
            let floor = if v.dst == v.src { v.now + 1 } else { v.now + lookahead };
            prop_assert_eq!(v.floor, floor, "floor mismatch in {:?}", v);
            prop_assert!(v.at < v.floor, "recorded a legal send as a violation: {:?}", v);
        }
        let mut sorted = got.violations.clone();
        sorted.sort_by_key(|v| (v.now, v.src, v.seq));
        prop_assert_eq!(got.violations, sorted);
    }
}
