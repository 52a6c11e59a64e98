//! Conservative sharded execution of a component-partitioned event
//! calendar.
//!
//! A sharded run partitions a simulated machine into logical *components*
//! (in `bc-system`: one per CU/L1 group, plus the memory side holding the
//! L2, BCC, IOMMU and host). Components are grouped onto *shards* — OS
//! threads — each keeping one calendar [`EventQueue`] for every event of
//! its components, keyed by target component; shards are synchronized
//! with a classic conservative-lookahead protocol: every cross-component
//! event must be scheduled at least `lookahead` cycles in the future, so
//! each barrier round can safely dispatch every event below
//! `global_min + lookahead` without ever receiving a message into its
//! past.
//!
//! # Determinism
//!
//! The engine's ordering contract is defined entirely over *components*,
//! never over shards, which is what makes the schedule — and therefore
//! every simulation byte — identical at any shard count:
//!
//! * Events carry a `(src component, per-source sequence)` key assigned in
//!   the source's own deterministic dispatch order.
//! * All events of a shard that share a cycle are drained as a batch and
//!   dispatched in `(component, src, seq)` order, regardless of the order
//!   mailbox delivery happened to interleave them. The batch is complete:
//!   every send lands at least one cycle after the dispatch issuing it.
//!   Projected onto one component that is `(cycle, src, seq)` order, the
//!   same at any shard count.
//! * Cross-component influence flows only through these timestamped
//!   events; the engine shares no other mutable state between components.
//!
//! Shard assignment therefore only decides *which thread* runs a
//! component's (fixed) event sequence, never the sequence itself.
//!
//! # Misuse
//!
//! A handler that schedules below the contract floor — into the past, or
//! across components closer than the lookahead — would break both
//! conservatism and shard-invariance. The engine clamps such sends up to
//! the floor (keeping the run well-defined and still shard-invariant,
//! since the clamp depends only on logical quantities) and records a
//! [`ShardOrderViolation`] that callers route into the audit layer as a
//! `shard-order` finding.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::{Cycle, EventQueue};

/// Index of a logical simulation component.
pub type CompId = usize;

/// Static shape of a sharded run: how many components exist, how they map
/// onto shards, and the conservative lookahead window.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Number of logical components (event-queue owners).
    pub components: usize,
    /// Number of worker shards (threads). Shards with no assigned
    /// component are legal; they simply idle through the barriers.
    pub shards: usize,
    /// `assignment[comp] = shard` owning that component.
    pub assignment: Vec<usize>,
    /// Minimum cross-component scheduling distance, in cycles (>= 1).
    /// Every `send` to a *different* component must target at least
    /// `now + lookahead`; self-sends must target at least `now + 1`.
    pub lookahead: u64,
}

impl ShardSpec {
    /// A single-shard spec: every component on shard 0.
    #[must_use]
    pub fn single(components: usize, lookahead: u64) -> Self {
        ShardSpec {
            components,
            shards: 1,
            assignment: vec![0; components],
            lookahead: lookahead.max(1),
        }
    }

    /// Checks internal consistency (lengths, shard bounds, lookahead).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.components == 0 {
            return Err("spec has zero components".to_string());
        }
        if self.shards == 0 {
            return Err("spec has zero shards".to_string());
        }
        if self.lookahead == 0 {
            return Err("lookahead must be >= 1".to_string());
        }
        if self.assignment.len() != self.components {
            return Err(format!(
                "assignment length {} != components {}",
                self.assignment.len(),
                self.components
            ));
        }
        if let Some(&bad) = self.assignment.iter().find(|&&s| s >= self.shards) {
            return Err(format!(
                "assignment names shard {bad} >= shards {}",
                self.shards
            ));
        }
        Ok(())
    }
}

/// Receiver for events dispatched by the engine. One handler instance
/// serves one shard; `comp` identifies which of the shard's components
/// the event belongs to.
pub trait ShardHandler<E>: Send {
    /// Dispatches one event of component `comp` at instant `now`.
    /// Further events are emitted through `out`.
    fn handle(&mut self, comp: CompId, now: Cycle, ev: E, out: &mut Outbox<'_, E>);
}

/// A send that violated the scheduling contract (into the past, or
/// cross-component below the lookahead floor). The engine clamps the
/// event up to `floor` and keeps running; callers surface these as
/// `shard-order` audit findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOrderViolation {
    /// Component that issued the send.
    pub src: CompId,
    /// Component the event targeted.
    pub dst: CompId,
    /// Instant the send was issued at.
    pub now: u64,
    /// Cycle the handler asked for.
    pub at: u64,
    /// Earliest legal cycle; the event was rescheduled here.
    pub floor: u64,
    /// Per-source sequence number the event was assigned.
    pub seq: u64,
}

/// Outcome of one [`ShardEngine::run`].
#[derive(Debug, Default)]
pub struct ShardRun {
    /// Total events dispatched across all components.
    pub dispatched: u64,
    /// Synchronization rounds executed (barrier windows).
    pub rounds: u64,
    /// Contract violations, sorted by `(now, src, seq)`. Empty on every
    /// well-formed model.
    pub violations: Vec<ShardOrderViolation>,
    /// Pop-monotonicity findings surfaced by the per-shard calendars' own
    /// self-check, as `(shard, previous, offending)` cycles.
    #[cfg(feature = "audit")]
    pub shard_queue_findings: Vec<(usize, u64, u64)>,
}

/// An event annotated with its target component and deterministic
/// dispatch key.
#[derive(Debug)]
struct Keyed<E> {
    comp: u32,
    src: u32,
    seq: u64,
    ev: E,
}

/// A pending event extracted from the engine at a warm-start cut: the
/// owning component, firing instant, and the `(src, seq)` dispatch key
/// it was issued with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingEvent<E> {
    /// Component whose queue held the event.
    pub comp: CompId,
    /// Instant the event fires at.
    pub at: Cycle,
    /// Issuing component (dispatch-order tie-break, major).
    pub src: u32,
    /// Issue sequence within `src` (dispatch-order tie-break, minor).
    pub seq: u64,
    /// The event payload.
    pub ev: E,
}

/// A cross-shard event in flight.
type Wire<E> = (Cycle, Keyed<E>);

/// Sink for events emitted while handling a dispatch. Enforces the
/// scheduling contract (clamping + violation records) and routes events
/// either straight into the shard's own calendar or into the cross-shard
/// wire buffer.
pub struct Outbox<'a, E> {
    from: CompId,
    now: u64,
    lookahead: u64,
    shard: usize,
    assignment: &'a [usize],
    queue: &'a mut EventQueue<Keyed<E>>,
    out_seqs: &'a mut [u64],
    remote: &'a mut Vec<Wire<E>>,
    violations: &'a mut Vec<ShardOrderViolation>,
}

impl<E> Outbox<'_, E> {
    /// The instant of the event currently being handled.
    #[must_use]
    pub fn now(&self) -> Cycle {
        Cycle::new(self.now)
    }

    /// The engine's cross-component lookahead window.
    #[must_use]
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    /// Schedules `ev` for component `to` at instant `at`.
    ///
    /// Self-sends must target at least `now + 1`; sends to any other
    /// component at least `now + lookahead`. Earlier targets are clamped
    /// to that floor and recorded as a [`ShardOrderViolation`].
    pub fn send(&mut self, to: CompId, at: Cycle, ev: E) {
        let floor = if to == self.from {
            self.now + 1
        } else {
            self.now + self.lookahead
        };
        let mut t = at.as_u64();
        let seq = self.out_seqs[self.from];
        self.out_seqs[self.from] += 1;
        if t < floor {
            self.violations.push(ShardOrderViolation {
                src: self.from,
                dst: to,
                now: self.now,
                at: t,
                floor,
                seq,
            });
            t = floor;
        }
        let k = Keyed {
            comp: to as u32,
            src: self.from as u32,
            seq,
            ev,
        };
        if self.assignment[to] == self.shard {
            self.queue.push(Cycle::new(t), k);
        } else {
            self.remote.push((Cycle::new(t), k));
        }
    }
}

/// Reusable generation-counting barrier (the workspace denies `unsafe`,
/// so this is the plain atomics-plus-condvar construction). A shard
/// that panics
/// poisons the barrier so its peers fail fast instead of waiting
/// forever.
///
/// Two wait strategies, chosen once per run. When every shard can own a
/// core, waiters spin (briefly) then yield: the round latency is a few
/// hundred nanoseconds and the lost cycles are cheaper than a sleep/wake
/// pair. When the host is oversubscribed (`shards > available cores`),
/// spinning is pathological — a waiter's spin quantum is exactly the
/// time the *working* shard is denied the core, turning every barrier
/// crossing into scheduler ping-pong — so waiters block on a condvar and
/// donate the core to whoever still has events to dispatch. The choice
/// affects only wall-clock: dispatch order (and therefore every report
/// byte) is fixed by the event keys, never by barrier timing.
struct SpinBarrier {
    n: usize,
    blocking: bool,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SpinBarrier {
    fn new(n: usize, blocking: bool) -> Self {
        SpinBarrier {
            n,
            blocking,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Marks the barrier poisoned and wakes every blocked waiter.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    fn wait(&self) {
        if self.n == 1 {
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Release);
            if self.blocking {
                // Publish the new generation under the lock so a waiter
                // that checked it while holding the lock cannot miss the
                // notification that follows.
                let guard = self.lock.lock().expect("barrier lock");
                self.generation.fetch_add(1, Ordering::AcqRel);
                drop(guard);
                self.cv.notify_all();
            } else {
                self.generation.fetch_add(1, Ordering::AcqRel);
            }
            return;
        }
        if self.blocking {
            let mut guard = self.lock.lock().expect("barrier lock");
            while self.generation.load(Ordering::Acquire) == gen {
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("peer shard panicked; barrier poisoned");
                }
                // The timeout is a belt-and-braces bound on any missed
                // wakeup (e.g. a poison racing the first wait); correct
                // runs are woken by notify_all long before it fires.
                let (g, _) = self
                    .cv
                    .wait_timeout(guard, std::time::Duration::from_millis(50))
                    .expect("barrier lock");
                guard = g;
            }
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            if self.poisoned.load(Ordering::Acquire) {
                panic!("peer shard panicked; barrier poisoned");
            }
            spins += 1;
            if spins < 1 << 14 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Poisons the barrier if the owning shard unwinds, so peers blocked in
/// [`SpinBarrier::wait`] abort instead of deadlocking.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// State shared by all shards of one run.
struct Shared<E> {
    mins: Vec<AtomicU64>,
    mailboxes: Vec<Mutex<Vec<Wire<E>>>>,
    barrier: SpinBarrier,
}

/// Per-shard tally returned from the worker loop.
struct ShardStats {
    sid: usize,
    dispatched: u64,
    rounds: u64,
    violations: Vec<ShardOrderViolation>,
}

/// The sharded conservative event engine.
///
/// Lifecycle: [`ShardEngine::new`] with a validated [`ShardSpec`], seed
/// initial events with [`ShardEngine::seed`], then [`ShardEngine::run`]
/// with one [`ShardHandler`] per shard. The engine is reusable:
/// [`ShardEngine::reset`] clears every shard calendar (dropping any
/// recorded findings, per [`EventQueue::clear`] semantics) for a fresh
/// schedule.
pub struct ShardEngine<E> {
    spec: ShardSpec,
    /// One calendar per shard, holding its components' pending events.
    queues: Vec<EventQueue<Keyed<E>>>,
    /// Per-component outgoing sequence counters.
    out_seqs: Vec<u64>,
}

impl<E: Send> ShardEngine<E> {
    /// Creates an engine for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ShardSpec::validate`] — the spec is
    /// constructed by simulator setup code, so an invalid one is a
    /// programming error, not an input error.
    #[must_use]
    pub fn new(spec: ShardSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid shard spec: {e}");
        }
        ShardEngine {
            queues: (0..spec.shards).map(|_| EventQueue::new()).collect(),
            out_seqs: vec![0; spec.components],
            spec,
        }
    }

    /// The spec this engine was built with.
    #[must_use]
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Seeds an initial event for `comp` at instant `at`, keyed as a
    /// self-send so seed order is the same-cycle dispatch order.
    pub fn seed(&mut self, comp: CompId, at: Cycle, ev: E) {
        let seq = self.out_seqs[comp];
        self.out_seqs[comp] += 1;
        self.queues[self.spec.assignment[comp]].push(
            at,
            Keyed {
                comp: comp as u32,
                src: comp as u32,
                seq,
                ev,
            },
        );
    }

    /// Clears every shard calendar and sequence counter, making the
    /// engine ready for a fresh, unrelated schedule.
    pub fn reset(&mut self) {
        self.queues.iter_mut().for_each(EventQueue::clear);
        self.out_seqs.fill(0);
    }

    /// Drains every pending event, keys included, grouped by ascending
    /// component and, within a component, in the order its shard's
    /// calendar popped them. Re-inserting the result through
    /// [`ShardEngine::restore_pending`] (into a fresh engine with the same
    /// spec) reproduces the identical schedule — push order per component
    /// equals pop order, so same-cycle FIFO is preserved. Used by the
    /// snapshot layer at a warm-start cut.
    pub fn drain_pending(&mut self) -> Vec<PendingEvent<E>> {
        let mut out = Vec::new();
        for q in &mut self.queues {
            while let Some((at, k)) = q.pop() {
                out.push(PendingEvent {
                    comp: k.comp as CompId,
                    at,
                    src: k.src,
                    seq: k.seq,
                    ev: k.ev,
                });
            }
        }
        // Stable: each component's events come from one calendar.
        out.sort_by_key(|p| p.comp);
        out
    }

    /// Re-inserts events captured by [`ShardEngine::drain_pending`],
    /// preserving their original dispatch keys.
    ///
    /// # Panics
    ///
    /// Panics if an event names a component outside the spec.
    pub fn restore_pending(&mut self, events: Vec<PendingEvent<E>>) {
        for p in events {
            self.queues[self.spec.assignment[p.comp]].push(
                p.at,
                Keyed {
                    comp: p.comp as u32,
                    src: p.src,
                    seq: p.seq,
                    ev: p.ev,
                },
            );
        }
    }

    /// Per-component outgoing sequence counters. Together with the
    /// pending events these pin the `(src, seq)` tie-break order, so a
    /// restored engine issues exactly the keys the original would have.
    #[must_use]
    pub fn out_seqs(&self) -> Vec<u64> {
        self.out_seqs.clone()
    }

    /// Restores the per-component sequence counters.
    ///
    /// # Panics
    ///
    /// Panics if `seqs.len()` does not match the spec's component count.
    pub fn set_out_seqs(&mut self, seqs: &[u64]) {
        assert_eq!(seqs.len(), self.out_seqs.len(), "one counter per component");
        self.out_seqs.copy_from_slice(seqs);
    }

    /// Runs the schedule to completion. `handlers[s]` serves shard `s`;
    /// shard 0 runs on the calling thread, the rest on scoped threads.
    ///
    /// # Panics
    ///
    /// Panics if `handlers.len() != spec.shards`, or if any handler
    /// panics (the panic is propagated after poisoning the barrier).
    pub fn run<H: ShardHandler<E>>(&mut self, handlers: &mut [H]) -> ShardRun {
        self.run_bounded(handlers, u64::MAX)
    }

    /// Runs the schedule until every pending event sits at or beyond
    /// `until`, then stops, leaving those events queued.
    ///
    /// Every event strictly below `until` is dispatched in exactly the
    /// order [`ShardEngine::run`] would have dispatched it (each round's
    /// horizon is additionally capped at `until`, which only splits
    /// rounds, never reorders dispatches), so state at the cut is
    /// byte-identical to the same instant of an unbounded run — the
    /// property the snapshot/warm-start layer is built on. The engine
    /// remains runnable: a follow-up `run`/`run_until` call continues the
    /// schedule.
    ///
    /// # Panics
    ///
    /// As for [`ShardEngine::run`].
    pub fn run_until<H: ShardHandler<E>>(&mut self, handlers: &mut [H], until: Cycle) -> ShardRun {
        self.run_bounded(handlers, until.as_u64())
    }

    fn run_bounded<H: ShardHandler<E>>(&mut self, handlers: &mut [H], until: u64) -> ShardRun {
        assert_eq!(
            handlers.len(),
            self.spec.shards,
            "one handler per shard required"
        );
        let spec = &self.spec;
        // Each shard bumps only its own components' counters, in its own
        // copy; the owner's copy is folded back after the run.
        let mut shard_seqs = vec![self.out_seqs.clone(); spec.shards];
        let shared = Shared {
            mins: (0..spec.shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            mailboxes: (0..spec.shards).map(|_| Mutex::new(Vec::new())).collect(),
            // Spin only when every shard can own a core; otherwise park
            // waiters so the working shard keeps the hardware.
            barrier: SpinBarrier::new(
                spec.shards,
                spec.shards > std::thread::available_parallelism().map_or(1, |p| p.get()),
            ),
        };

        let mut stats: Vec<ShardStats> = Vec::with_capacity(spec.shards);
        let shared_ref = &shared;
        std::thread::scope(|scope| {
            let mut parts = self
                .queues
                .iter_mut()
                .zip(&mut shard_seqs)
                .zip(handlers.iter_mut())
                .enumerate();
            let (_, ((queue0, seqs0), handler0)) = parts.next().expect("shards >= 1");
            let spawned: Vec<_> = parts
                .map(|(sid, ((queue, seqs), handler))| {
                    scope.spawn(move || {
                        run_shard(sid, spec, queue, seqs, handler, shared_ref, until)
                    })
                })
                .collect();
            stats.push(run_shard(
                0, spec, queue0, seqs0, handler0, shared_ref, until,
            ));
            for handle in spawned {
                match handle.join() {
                    Ok(s) => stats.push(s),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        // Sequence counters persist so a follow-on run keeps globally
        // unique keys.
        for (comp, s) in self.out_seqs.iter_mut().enumerate() {
            *s = shard_seqs[spec.assignment[comp]][comp];
        }

        stats.sort_by_key(|s| s.sid);
        let mut run = ShardRun {
            dispatched: stats.iter().map(|s| s.dispatched).sum(),
            rounds: stats.first().map_or(0, |s| s.rounds),
            violations: stats.into_iter().flat_map(|s| s.violations).collect(),
            #[cfg(feature = "audit")]
            shard_queue_findings: Vec::new(),
        };
        run.violations.sort_by_key(|v| (v.now, v.src, v.seq));
        #[cfg(feature = "audit")]
        for (sid, q) in self.queues.iter_mut().enumerate() {
            for (prev, at) in q.take_order_findings() {
                run.shard_queue_findings
                    .push((sid, prev.as_u64(), at.as_u64()));
            }
        }
        run
    }
}

/// One shard's synchronized round loop. `until` caps the dispatch
/// horizon: events at or beyond it stay queued and the loop exits once
/// the global minimum reaches it (`u64::MAX` = run to completion).
fn run_shard<E, H: ShardHandler<E>>(
    sid: usize,
    spec: &ShardSpec,
    queue: &mut EventQueue<Keyed<E>>,
    out_seqs: &mut [u64],
    handler: &mut H,
    shared: &Shared<E>,
    until: u64,
) -> ShardStats {
    let _poison = PoisonOnPanic(&shared.barrier);
    let mut remote: Vec<Wire<E>> = Vec::new();
    let mut outgoing: Vec<Vec<Wire<E>>> = (0..spec.shards).map(|_| Vec::new()).collect();
    let mut batch: Vec<Keyed<E>> = Vec::new();
    let mut violations: Vec<ShardOrderViolation> = Vec::new();
    let mut rounds = 0u64;
    let mut dispatched = 0u64;
    loop {
        // Phase A: deliver last round's mail, publish the local minimum.
        {
            let mut mailbox = shared.mailboxes[sid].lock().expect("mailbox lock");
            for (at, k) in mailbox.drain(..) {
                queue.push(at, k);
            }
        }
        let local_min = queue.peek_time().map_or(u64::MAX, Cycle::as_u64);
        shared.mins[sid].store(local_min, Ordering::Release);
        shared.barrier.wait();

        // Phase B: everyone computes the same horizon from the published
        // minima, dispatches everything strictly below it, and flushes
        // outgoing wires before the closing barrier (so the next round's
        // Phase A sees them).
        let global_min = shared
            .mins
            .iter()
            .map(|m| m.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX);
        if global_min == u64::MAX || global_min >= until {
            break;
        }
        rounds += 1;
        let horizon = global_min.saturating_add(spec.lookahead).min(until);
        while let Some(t) = queue.peek_time().filter(|t| t.as_u64() < horizon) {
            while queue.peek_time() == Some(t) {
                batch.push(queue.pop().expect("peeked non-empty").1);
            }
            // The deterministic same-cycle order: by target component,
            // then source component, then the source's own issue sequence
            // — independent of mailbox arrival interleaving.
            batch.sort_by_key(|k| (k.comp, k.src, k.seq));
            for k in batch.drain(..) {
                let comp = k.comp as CompId;
                let mut out = Outbox {
                    from: comp,
                    now: t.as_u64(),
                    lookahead: spec.lookahead,
                    shard: sid,
                    assignment: &spec.assignment,
                    queue,
                    out_seqs,
                    remote: &mut remote,
                    violations: &mut violations,
                };
                handler.handle(comp, t, k.ev, &mut out);
                dispatched += 1;
            }
        }
        for w in remote.drain(..) {
            outgoing[spec.assignment[w.1.comp as usize]].push(w);
        }
        for (dest, wires) in outgoing.iter_mut().enumerate() {
            if wires.is_empty() {
                continue;
            }
            let mut mailbox = shared.mailboxes[dest].lock().expect("mailbox lock");
            mailbox.append(wires);
        }
        shared.barrier.wait();
    }
    ShardStats {
        sid,
        dispatched,
        rounds,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: each event is a token with a remaining hop count; the
    /// handler forwards it to `(comp + 1) % components` with a
    /// deterministic delay until the count hits zero, recording every
    /// dispatch it sees.
    struct Hopper {
        trace: Vec<(CompId, u64, u32)>,
        components: usize,
    }

    impl ShardHandler<u32> for Hopper {
        fn handle(&mut self, comp: CompId, now: Cycle, hops: u32, out: &mut Outbox<'_, u32>) {
            self.trace.push((comp, now.as_u64(), hops));
            if hops > 0 {
                let next = (comp + 1) % self.components;
                let delay = out.lookahead() + u64::from(hops % 3);
                out.send(next, Cycle::new(now.as_u64() + delay), hops - 1);
            }
        }
    }

    fn run_hopper(shards: usize, assignment: Vec<usize>) -> (Vec<(CompId, u64, u32)>, ShardRun) {
        let components = assignment.len();
        let spec = ShardSpec {
            components,
            shards,
            assignment,
            lookahead: 4,
        };
        let mut engine = ShardEngine::new(spec);
        for c in 0..components {
            engine.seed(c, Cycle::new(c as u64), 20 + c as u32);
        }
        let mut handlers: Vec<Hopper> = (0..shards)
            .map(|_| Hopper {
                trace: Vec::new(),
                components,
            })
            .collect();
        let run = engine.run(&mut handlers);
        // Merge per-shard traces into per-component order-preserving
        // sequences, then flatten sorted by (cycle, comp) for comparison.
        let mut all: Vec<(CompId, u64, u32)> = handlers.into_iter().flat_map(|h| h.trace).collect();
        all.sort_by_key(|&(c, t, h)| (t, c, h));
        (all, run)
    }

    #[test]
    fn trace_is_identical_at_any_shard_count() {
        let (t1, r1) = run_hopper(1, vec![0, 0, 0, 0]);
        let (t2, r2) = run_hopper(2, vec![0, 1, 0, 1]);
        let (t4, r4) = run_hopper(4, vec![0, 1, 2, 3]);
        assert_eq!(t1, t2);
        assert_eq!(t1, t4);
        assert_eq!(r1.dispatched, r2.dispatched);
        assert_eq!(r1.dispatched, r4.dispatched);
        assert!(r1.violations.is_empty());
        assert!(r4.violations.is_empty());
    }

    #[test]
    fn same_cycle_cross_sources_dispatch_in_component_key_order() {
        // Components 0 and 1 both send to component 2 at the same target
        // cycle; the dispatch order at 2 must be by (src, seq), not by
        // mailbox arrival.
        struct Fan {
            seen: Vec<(u32, u64)>,
        }
        impl ShardHandler<(u32, u64)> for Fan {
            fn handle(
                &mut self,
                comp: CompId,
                now: Cycle,
                ev: (u32, u64),
                out: &mut Outbox<'_, (u32, u64)>,
            ) {
                if comp == 2 {
                    self.seen.push(ev);
                } else {
                    // Two sends each, all landing at the same instant.
                    out.send(2, Cycle::new(now.as_u64() + 10), (comp as u32, 0));
                    out.send(2, Cycle::new(now.as_u64() + 10), (comp as u32, 1));
                }
            }
        }
        for (shards, assignment) in [(1, vec![0, 0, 0]), (3, vec![0, 1, 2]), (2, vec![1, 0, 1])] {
            let spec = ShardSpec {
                components: 3,
                shards,
                assignment,
                lookahead: 10,
            };
            let mut engine = ShardEngine::new(spec);
            engine.seed(0, Cycle::new(5), (99, 99));
            engine.seed(1, Cycle::new(5), (99, 99));
            let mut handlers: Vec<Fan> = (0..shards).map(|_| Fan { seen: Vec::new() }).collect();
            engine.run(&mut handlers);
            let seen: Vec<(u32, u64)> = handlers.into_iter().flat_map(|h| h.seen).collect();
            assert_eq!(
                seen,
                vec![(0, 0), (0, 1), (1, 0), (1, 1)],
                "shards={shards}"
            );
        }
    }

    #[test]
    fn contract_violations_are_clamped_and_recorded() {
        struct Bad;
        impl ShardHandler<u8> for Bad {
            fn handle(&mut self, comp: CompId, now: Cycle, ev: u8, out: &mut Outbox<'_, u8>) {
                if ev == 0 {
                    // Past self-send and a sub-lookahead cross send.
                    // bc-lint: allow(saturating-counter) — deliberately
                    // constructs an in-the-past send to test the clamp.
                    out.send(comp, Cycle::new(now.as_u64().saturating_sub(3)), 1);
                    out.send(1 - comp, Cycle::new(now.as_u64() + 1), 1);
                }
            }
        }
        let spec = ShardSpec {
            components: 2,
            shards: 1,
            assignment: vec![0, 0],
            lookahead: 8,
        };
        let mut engine = ShardEngine::new(spec);
        engine.seed(0, Cycle::new(100), 0);
        let run = engine.run(&mut [Bad]);
        assert_eq!(run.violations.len(), 2);
        assert_eq!(run.violations[0].floor, 101, "self floor is now+1");
        assert_eq!(run.violations[1].floor, 108, "cross floor is now+lookahead");
        // Clamped events still dispatched.
        assert_eq!(run.dispatched, 3);
    }

    #[test]
    fn reset_clears_queues_for_reuse() {
        struct Sink(u64);
        impl ShardHandler<u8> for Sink {
            fn handle(&mut self, _: CompId, _: Cycle, _: u8, _: &mut Outbox<'_, u8>) {
                self.0 += 1;
            }
        }
        let mut engine = ShardEngine::new(ShardSpec::single(2, 4));
        engine.seed(0, Cycle::new(1), 0);
        engine.seed(1, Cycle::new(1), 0);
        let first = engine.run(&mut [Sink(0)]);
        assert_eq!(first.dispatched, 2);
        // Seed again without reset: counters continue, queues are empty.
        engine.seed(0, Cycle::new(1), 0);
        engine.reset();
        let empty = engine.run(&mut [Sink(0)]);
        assert_eq!(empty.dispatched, 0, "reset dropped the pending seed");
        engine.seed(1, Cycle::new(7), 3);
        let again = engine.run(&mut [Sink(0)]);
        assert_eq!(again.dispatched, 1);
    }

    #[test]
    fn run_until_then_continue_matches_straight_run() {
        let assignment = vec![0, 1, 0, 1];
        let spec = ShardSpec {
            components: 4,
            shards: 2,
            assignment,
            lookahead: 4,
        };
        let seed = |engine: &mut ShardEngine<u32>| {
            for c in 0..4 {
                engine.seed(c, Cycle::new(c as u64), 20 + c as u32);
            }
        };
        let handlers = || -> Vec<Hopper> {
            (0..2)
                .map(|_| Hopper {
                    trace: Vec::new(),
                    components: 4,
                })
                .collect()
        };
        let collect = |hs: Vec<Hopper>| -> Vec<(CompId, u64, u32)> {
            let mut all: Vec<_> = hs.into_iter().flat_map(|h| h.trace).collect();
            all.sort_by_key(|&(c, t, h)| (t, c, h));
            all
        };

        // Straight run.
        let mut straight = ShardEngine::new(spec.clone());
        seed(&mut straight);
        let mut hs = handlers();
        let straight_run = straight.run(&mut hs);
        let straight_trace = collect(hs);

        // Cut at 40, extract, restore into a fresh engine, continue.
        let mut warm = ShardEngine::new(spec.clone());
        seed(&mut warm);
        let mut hs1 = handlers();
        let first = warm.run_until(&mut hs1, Cycle::new(40));
        let pending = warm.drain_pending();
        let seqs = warm.out_seqs();
        assert!(
            pending.iter().all(|p| p.at >= Cycle::new(40)),
            "everything below the cut was dispatched"
        );
        let mut resumed = ShardEngine::new(spec);
        resumed.restore_pending(pending);
        resumed.set_out_seqs(&seqs);
        let mut hs2 = handlers();
        let second = resumed.run(&mut hs2);
        let mut warm_trace = collect(hs1);
        warm_trace.extend(collect(hs2));
        warm_trace.sort_by_key(|&(c, t, h)| (t, c, h));

        assert_eq!(straight_trace, warm_trace);
        assert_eq!(
            straight_run.dispatched,
            first.dispatched + second.dispatched
        );
    }

    #[test]
    fn drained_calendar_is_grouped_by_component_in_pop_order() {
        let far = EventQueue::<()>::WHEEL_CYCLES as u64;
        // (component, cycle) in seed order: same-cycle ties within and
        // across components, and cycles beyond one wheel window.
        let seeds = [
            (2, 5),
            (0, 5),
            (1, far + 3),
            (0, 5),
            (2, 1),
            (1, 5),
            (0, 3 * far),
            (2, 5),
            (1, far + 3),
            (0, 1),
            (2, 2 * far + 7),
            (1, 0),
        ];
        let mut seqs = [0u64; 3];
        let mut want: Vec<PendingEvent<usize>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &(comp, at))| {
                seqs[comp] += 1;
                PendingEvent {
                    comp,
                    at: Cycle::new(at),
                    src: comp as u32,
                    seq: seqs[comp] - 1,
                    ev: i,
                }
            })
            .collect();
        // Stable, so seed order breaks (component, cycle) ties.
        want.sort_by_key(|p| (p.comp, p.at));
        for (shards, assignment) in [(1, vec![0, 0, 0]), (2, vec![1, 0, 1])] {
            let spec = ShardSpec {
                components: 3,
                shards,
                assignment,
                lookahead: 4,
            };
            let mut engine = ShardEngine::new(spec.clone());
            for (i, &(comp, at)) in seeds.iter().enumerate() {
                engine.seed(comp, Cycle::new(at), i);
            }
            let drained = engine.drain_pending();
            assert_eq!(drained, want, "shards={shards}");
            let mut restored = ShardEngine::new(spec);
            restored.restore_pending(drained);
            assert_eq!(restored.drain_pending(), want, "shards={shards} restored");
        }
    }

    #[test]
    fn empty_shards_idle_through_the_run() {
        let spec = ShardSpec {
            components: 1,
            shards: 3,
            assignment: vec![1],
            lookahead: 2,
        };
        struct Noop;
        impl ShardHandler<u8> for Noop {
            fn handle(&mut self, _: CompId, _: Cycle, _: u8, _: &mut Outbox<'_, u8>) {}
        }
        let mut engine = ShardEngine::new(spec);
        engine.seed(0, Cycle::new(9), 1);
        let run = engine.run(&mut [Noop, Noop, Noop]);
        assert_eq!(run.dispatched, 1);
    }
}
