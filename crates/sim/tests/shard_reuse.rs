//! Engine-reuse hygiene: a [`ShardEngine`] that already ran one schedule
//! must, after [`ShardEngine::reset`], behave exactly like a fresh one —
//! no violations, no audit findings, and no queue state leaking from the
//! previous run into the next.
//!
//! This matters because the sweep layer reuses simulator structure across
//! cells: a stale finding surviving a reset would attribute one cell's
//! contract breach to an innocent neighbour, and a stale pop cursor would
//! mint `event-in-past` findings for perfectly monotone schedules.

// Driver/harness code: failing fast on setup errors is the right behavior.
#![allow(clippy::unwrap_used)]

use bc_sim::shard::{CompId, Outbox, ShardEngine, ShardHandler, ShardSpec};
use bc_sim::Cycle;

/// Forwards each token once with a legal delay, then sinks it.
struct Legal;

impl ShardHandler<u32> for Legal {
    fn handle(&mut self, comp: CompId, now: Cycle, hops: u32, out: &mut Outbox<'_, u32>) {
        if hops > 0 {
            out.send(
                1 - comp,
                Cycle::new(now.as_u64() + out.lookahead()),
                hops - 1,
            );
        }
    }
}

/// Deliberately breaks the contract: every dispatch re-sends into the
/// issuing instant (below both floors), which the engine clamps and
/// records.
struct Rogue;

impl ShardHandler<u32> for Rogue {
    fn handle(&mut self, comp: CompId, now: Cycle, hops: u32, out: &mut Outbox<'_, u32>) {
        if hops > 0 {
            out.send(1 - comp, now, hops - 1);
        }
    }
}

fn engine() -> ShardEngine<u32> {
    ShardEngine::new(ShardSpec {
        components: 2,
        shards: 2,
        assignment: vec![0, 1],
        lookahead: 6,
    })
}

/// A rogue run's violations must not survive into the next schedule: the
/// violation log is per-run already, and after `reset()` a legal
/// schedule reports a completely clean `ShardRun`.
#[test]
fn reset_gives_a_reused_engine_a_clean_slate() {
    let mut engine = engine();
    engine.seed(0, Cycle::new(10), 3);
    let rogue = engine.run(&mut [Rogue, Rogue]);
    assert_eq!(rogue.violations.len(), 3, "every rogue send is recorded");
    assert_eq!(rogue.dispatched, 4);

    // Leave a pending event behind, then reset: nothing may carry over.
    engine.seed(1, Cycle::new(1), 9);
    engine.reset();

    engine.seed(0, Cycle::new(10), 3);
    let clean = engine.run(&mut [Legal, Legal]);
    assert_eq!(clean.dispatched, 4, "reset dropped the stale seed only");
    assert!(
        clean.violations.is_empty(),
        "violations leaked across reset: {:?}",
        clean.violations
    );
    #[cfg(feature = "audit")]
    assert!(clean.shard_queue_findings.is_empty());
}

/// Under the audit feature the per-shard calendars self-check pop
/// monotonicity across their whole lifetime. Seeding a *second* schedule
/// into the past of the first one trips that check — the documented
/// misuse `reset()` exists for — and resetting instead starts a fresh
/// cursor, so the identical schedule audits clean.
#[cfg(feature = "audit")]
#[test]
fn reset_restarts_the_queue_monotonicity_cursor() {
    let mut engine = engine();
    engine.seed(0, Cycle::new(1_000), 0);
    let first = engine.run(&mut [Legal, Legal]);
    assert_eq!(first.dispatched, 1);
    assert!(first.shard_queue_findings.is_empty());

    // Reuse without reset: shard 0's calendar (component 0's) already
    // popped cycle 1000, so a fresh seed at cycle 5 pops backwards in time.
    engine.seed(0, Cycle::new(5), 0);
    let stale = engine.run(&mut [Legal, Legal]);
    assert_eq!(
        stale.shard_queue_findings,
        vec![(0, 1_000, 5)],
        "the queue self-check must catch the backwards pop"
    );

    // The same schedule after a reset is a fresh logical run: clean.
    engine.reset();
    engine.seed(0, Cycle::new(5), 0);
    let fresh = engine.run(&mut [Legal, Legal]);
    assert_eq!(fresh.dispatched, 1);
    assert!(
        fresh.shard_queue_findings.is_empty(),
        "reset must drop the stale pop cursor: {:?}",
        fresh.shard_queue_findings
    );
}

/// The violations a `ShardRun` reports are what the audit layer turns
/// into `shard-order` findings: check the routing contract end to end at
/// the `Auditor` level — kind, label and non-clean report.
#[cfg(feature = "audit")]
#[test]
fn shard_order_violations_surface_as_shard_order_findings() {
    use bc_sim::audit::{AuditKind, Auditor};

    let mut engine = engine();
    engine.seed(0, Cycle::new(50), 1);
    let run = engine.run(&mut [Rogue, Rogue]);
    assert_eq!(run.violations.len(), 1);

    let mut auditor = Auditor::new(false, 8);
    for v in &run.violations {
        auditor.shard_order(v.now, v.src, v.dst, v.at, v.floor);
    }
    let report = auditor.report();
    assert!(!report.is_clean());
    assert_eq!(report.findings.len(), 1);
    let finding = &report.findings[0];
    assert_eq!(finding.kind, AuditKind::ShardOrder);
    assert_eq!(finding.kind.to_string(), "shard-order");
    assert_eq!(finding.at, 50);
    assert!(
        finding.detail.contains("below the mailbox floor"),
        "detail should explain the clamp: {}",
        finding.detail
    );
}
