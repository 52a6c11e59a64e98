//! Runtime invariant auditing: a sanitizer for the simulator itself.
//!
//! The paper's whole claim is an invariant — the accelerator can never
//! touch a physical page beyond the permissions the OS granted, and the
//! BCC is always a subset view of the Protection Table (§3.1.2, §3.2) —
//! yet end-to-end tests only probe it at a few points. This module turns
//! the guarantees into machine-checked assertions on every event of a
//! run:
//!
//! * a **shadow permission oracle**: an independent, trivially-correct
//!   map of OS-granted page permissions, updated on every insertion,
//!   downgrade commit and full revocation, against which every border
//!   check's allow/deny decision is compared;
//! * **attribution checks**: every functional-memory write attributable
//!   to the accelerator must have held W permission at issue time;
//! * **timing monotonicity monitors**: no event dispatched or scheduled
//!   in the past, resource completions never before arrivals,
//!   writeback-buffer occupancy within its configured depth, and the
//!   downgrade `stall_until` horizon never regressing;
//! * a sink for **BCC ⊆ Protection-Table subset check** results computed
//!   by the Border Control engine.
//!
//! The auditor is deliberately generic — raw `u64` page numbers and
//! `(read, write)` bit pairs — so this bottom-of-the-workspace crate
//! stays free of memory-system dependencies; `bc-system` adapts its
//! typed world into these calls. Auditing is pure observation: it never
//! changes timing or simulation state, so audited and unaudited runs are
//! cycle-identical.
//!
//! Violations become [`AuditFinding`]s collected into an [`AuditReport`]
//! (serializable, attached to the run report); in fatal mode — the
//! default under tests — the first finding panics with its detail so the
//! failure points at the exact event.

use crate::fxmap::FxHashMap;
use std::fmt;

/// The invariant class a finding violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditKind {
    /// Border Control's allow/deny decision disagreed with the shadow
    /// permission oracle.
    OracleMismatch,
    /// A store write attributed to the accelerator hit a page without W
    /// permission at issue time.
    UnauthorizedWrite,
    /// A BCC entry disagreed with the Protection Table it must be a
    /// subset view of.
    BccSubsetViolation,
    /// An event was dispatched or scheduled before the current instant.
    EventInPast,
    /// A resource completed a request before its arrival.
    NonMonotonicCompletion,
    /// The writeback buffer held more in-flight blocks than its depth.
    WritebackOverflow,
    /// The downgrade-drain `stall_until` horizon moved backwards.
    StallRegression,
    /// A sharded-engine send violated the mailbox ordering contract
    /// (scheduled into the past, or across components below the
    /// conservative lookahead floor).
    ShardOrder,
    /// The deferred-commit counter for the quiesce protocol was
    /// decremented below zero — a commit arrived that was never
    /// injected, which would release the border stall early.
    CommitUnderflow,
    /// A simulation state counter was decremented below zero — e.g. an
    /// op completion arrived for a job with no ops outstanding. The
    /// `saturating_sub` this class replaced would have masked the
    /// double-decrement silently (the `pending_commits` lesson,
    /// generalized).
    CounterUnderflow,
    /// A teardown completed out of order: a frame owned by a dying
    /// address space was reused, or a translation for it survived,
    /// before its Protection Table was zeroed and its BCC/IOTLB residue
    /// flushed (the paper's §3.3 completion contract).
    StaleTeardown,
}

impl AuditKind {
    /// Every invariant class, in declaration order (label round-trip
    /// tables and the report decoder iterate this).
    pub const ALL: [AuditKind; 11] = [
        AuditKind::OracleMismatch,
        AuditKind::UnauthorizedWrite,
        AuditKind::BccSubsetViolation,
        AuditKind::EventInPast,
        AuditKind::NonMonotonicCompletion,
        AuditKind::WritebackOverflow,
        AuditKind::StallRegression,
        AuditKind::ShardOrder,
        AuditKind::CommitUnderflow,
        AuditKind::CounterUnderflow,
        AuditKind::StaleTeardown,
    ];

    /// Stable label (the `Display` spelling).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AuditKind::OracleMismatch => "oracle-mismatch",
            AuditKind::UnauthorizedWrite => "unauthorized-write",
            AuditKind::BccSubsetViolation => "bcc-subset-violation",
            AuditKind::EventInPast => "event-in-past",
            AuditKind::NonMonotonicCompletion => "non-monotonic-completion",
            AuditKind::WritebackOverflow => "writeback-overflow",
            AuditKind::StallRegression => "stall-regression",
            AuditKind::ShardOrder => "shard-order",
            AuditKind::CommitUnderflow => "commit-underflow",
            AuditKind::CounterUnderflow => "counter-underflow",
            AuditKind::StaleTeardown => "stale-teardown",
        }
    }

    /// Inverse of [`AuditKind::label`], used by the canonical report
    /// schema (`bc_experiments::schema`) to decode serialized reports.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        AuditKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl fmt::Display for AuditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One violated invariant.
#[derive(Debug, Clone)]
pub struct AuditFinding {
    /// Invariant class.
    pub kind: AuditKind,
    /// Simulated cycle at which the violation was observed.
    pub at: u64,
    /// Human-readable specifics (page numbers, expected vs actual).
    pub detail: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cycle {}] {}: {}", self.at, self.kind, self.detail)
    }
}

/// Everything the auditor observed over one run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Invariant violations, in observation order.
    pub findings: Vec<AuditFinding>,
    /// Assertions evaluated (a run with zero findings and zero
    /// assertions audited nothing — distinguish the two).
    pub assertions: u64,
}

impl AuditReport {
    /// Whether every evaluated assertion held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of one invariant class.
    pub fn of_kind(&self, kind: AuditKind) -> impl Iterator<Item = &AuditFinding> {
        self.findings.iter().filter(move |f| f.kind == kind)
    }
}

/// The runtime auditor threaded through a system's run loop.
///
/// # Example
///
/// ```
/// use bc_sim::audit::Auditor;
///
/// let mut a = Auditor::new(false, 8);
/// a.set_oracle_bounds(1024);
/// a.grant(5, true, false); // OS granted R on page 5
/// a.check_decision(100, 5, false, true); // read allowed: agrees
/// a.check_decision(101, 5, true, true); // write allowed: MISMATCH
/// let report = a.take_report();
/// assert_eq!(report.findings.len(), 1);
/// assert_eq!(report.assertions, 2);
/// ```
#[derive(Debug)]
pub struct Auditor {
    fatal: bool,
    report: AuditReport,
    /// Shadow oracle: page -> (read, write) the OS has granted the
    /// accelerator (union over attached address spaces, like the
    /// Protection Table's §3.3 semantics). `None` bounds = no process
    /// attached: nothing is permitted.
    granted: FxHashMap<u64, (bool, bool)>,
    oracle_bounds: Option<u64>,
    wb_capacity: usize,
    last_stall: u64,
}

impl Auditor {
    /// Creates an auditor. `fatal` makes the first finding panic (the
    /// mode tests run under); otherwise findings accumulate in the
    /// report. `wb_capacity` is the writeback-buffer depth to enforce.
    #[must_use]
    pub fn new(fatal: bool, wb_capacity: usize) -> Self {
        Auditor {
            fatal,
            report: AuditReport::default(),
            granted: FxHashMap::default(),
            oracle_bounds: None,
            wb_capacity,
            last_stall: 0,
        }
    }

    /// Whether findings panic immediately.
    #[must_use]
    pub fn is_fatal(&self) -> bool {
        self.fatal
    }

    fn record(&mut self, kind: AuditKind, at: u64, detail: String) {
        let finding = AuditFinding { kind, at, detail };
        if self.fatal {
            panic!("audit violation: {finding}");
        }
        self.report.findings.push(finding);
    }

    // ---- shadow permission oracle --------------------------------------

    /// Activates the oracle with the bounds register (physical pages
    /// covered). Mirrors Border Control's attach (Fig 3a): before this,
    /// every decision must be a deny.
    pub fn set_oracle_bounds(&mut self, pages: u64) {
        self.oracle_bounds = Some(pages);
    }

    /// Whether an oracle is active (a Border Control engine is attached).
    #[must_use]
    pub fn oracle_active(&self) -> bool {
        self.oracle_bounds.is_some()
    }

    /// Merges an OS-granted permission for one page (insertion, Fig 3b —
    /// union semantics, like [`ProtectionTable::merge`]).
    ///
    /// [`ProtectionTable::merge`]:
    ///     https://docs.rs/bc-core/latest/bc_core/struct.ProtectionTable.html
    pub fn grant(&mut self, page: u64, read: bool, write: bool) {
        let e = self.granted.entry(page).or_insert((false, false));
        e.0 |= read;
        e.1 |= write;
    }

    /// Overwrites one page's permission (downgrade commit, Fig 3d).
    pub fn set_perms(&mut self, page: u64, read: bool, write: bool) {
        self.granted.insert(page, (read, write));
    }

    /// Revokes everything (full-flush downgrade commit, detach, Fig 3e).
    pub fn revoke_all(&mut self) {
        self.granted.clear();
    }

    /// The oracle's independent decision for a request.
    #[must_use]
    pub fn oracle_decision(&self, page: u64, write: bool) -> bool {
        let Some(bounds) = self.oracle_bounds else {
            return false;
        };
        if page >= bounds {
            return false;
        }
        match self.granted.get(&page) {
            Some(&(r, w)) => {
                if write {
                    w
                } else {
                    r
                }
            }
            None => false,
        }
    }

    /// Asserts that a border check's decision matches the oracle.
    pub fn check_decision(&mut self, at: u64, page: u64, write: bool, allowed: bool) {
        if !self.oracle_active() {
            return;
        }
        self.report.assertions += 1;
        let expect = self.oracle_decision(page, write);
        if expect != allowed {
            let dir = if write { "write" } else { "read" };
            self.record(
                AuditKind::OracleMismatch,
                at,
                format!(
                    "border check {dir} of page {page}: engine said {}, oracle says {}",
                    verdict(allowed),
                    verdict(expect)
                ),
            );
        }
    }

    /// Asserts that an accelerator-attributed store write held W
    /// permission at issue time.
    pub fn accel_write(&mut self, at: u64, page: u64) {
        if !self.oracle_active() {
            return;
        }
        self.report.assertions += 1;
        if !self.oracle_decision(page, true) {
            self.record(
                AuditKind::UnauthorizedWrite,
                at,
                format!("accelerator wrote page {page} without W permission"),
            );
        }
    }

    /// Reports BCC ⊆ Protection-Table mismatches found by the engine's
    /// subset sweep (one call per sampled sweep; `mismatches` are
    /// `(page, cached, table)` permission renderings).
    pub fn bcc_subset(&mut self, at: u64, mismatches: &[(u64, String, String)]) {
        self.report.assertions += 1;
        for (page, cached, table) in mismatches {
            self.record(
                AuditKind::BccSubsetViolation,
                at,
                format!(
                    "BCC holds '{cached}' for page {page} but the Protection Table says '{table}'"
                ),
            );
        }
    }

    // ---- timing monotonicity monitors ----------------------------------

    /// Asserts a popped event does not precede the loop's current instant.
    pub fn event_dispatched(&mut self, now: u64, at: u64) {
        self.report.assertions += 1;
        if at < now {
            self.record(
                AuditKind::EventInPast,
                now,
                format!("event dispatched at cycle {at}, before current cycle {now}"),
            );
        }
    }

    /// Records a pop-monotonicity violation surfaced by the event queue's
    /// own self-check (`audit` feature): the queue popped cycle `at` after
    /// having already popped the later cycle `prev`. The queue reports the
    /// offending pair instead of asserting so the violation lands in the
    /// [`AuditReport`] next to every other finding.
    pub fn queue_pop_order(&mut self, prev: u64, at: u64) {
        self.record(
            AuditKind::EventInPast,
            at,
            format!("event queue popped cycle {at} after already popping cycle {prev}"),
        );
    }

    /// Records a sharded-engine scheduling-contract violation: component
    /// `src` sent component `dst` an event for cycle `at`, below the
    /// legal floor `floor` (now+1 for self-sends, now+lookahead across
    /// components). The engine clamps the event to `floor`; the finding
    /// documents that the model, not the engine, broke the contract.
    pub fn shard_order(&mut self, now: u64, src: usize, dst: usize, at: u64, floor: u64) {
        self.record(
            AuditKind::ShardOrder,
            now,
            format!(
                "component {src} sent component {dst} an event for cycle {at}, \
                 below the mailbox floor {floor}"
            ),
        );
    }

    /// Asserts an event is never scheduled before the current instant.
    pub fn event_scheduled(&mut self, now: u64, at: u64) {
        self.report.assertions += 1;
        if at < now {
            self.record(
                AuditKind::EventInPast,
                now,
                format!("event scheduled for cycle {at}, already past cycle {now}"),
            );
        }
    }

    /// Asserts a resource completion does not precede its arrival
    /// (per-request completion monotonicity; `what` names the resource).
    pub fn completion(&mut self, what: &str, arrival: u64, done: u64) {
        self.report.assertions += 1;
        if done < arrival {
            self.record(
                AuditKind::NonMonotonicCompletion,
                arrival,
                format!("{what} completed at cycle {done}, before its arrival at {arrival}"),
            );
        }
    }

    /// Asserts writeback-buffer occupancy stays within the configured
    /// depth.
    pub fn writeback_occupancy(&mut self, at: u64, occupancy: usize) {
        self.report.assertions += 1;
        if occupancy > self.wb_capacity {
            self.record(
                AuditKind::WritebackOverflow,
                at,
                format!(
                    "writeback buffer holds {occupancy} blocks, depth is {}",
                    self.wb_capacity
                ),
            );
        }
    }

    /// Records a deferred-commit counter underflow: `commit_injected_downgrade`
    /// ran with `pending_commits` already at zero, so a `saturating_sub`
    /// here would have silently unclamped the border stall early.
    pub fn commit_underflow(&mut self, at: u64, vpn: u64) {
        self.record(
            AuditKind::CommitUnderflow,
            at,
            format!("commit for vpn {vpn} arrived with pending_commits already zero"),
        );
    }

    /// Records a generic state-counter underflow: `counter` names the
    /// field, `at` is the cycle. Every `checked_sub` conversion out of
    /// the old `saturating_sub` idiom routes its failure here.
    pub fn counter_underflow(&mut self, at: u64, counter: &str, detail: &str) {
        self.record(
            AuditKind::CounterUnderflow,
            at,
            format!("{counter} decremented below zero: {detail}"),
        );
    }

    /// Asserts the teardown completion contract for a dying address
    /// space: callers pass `stale` descriptions of any residue observed
    /// after the kill point (a reused quarantined frame, a surviving
    /// IOTLB/BCC translation). One call per post-kill access checked.
    pub fn teardown_check(&mut self, at: u64, asid: u64, stale: Option<String>) {
        self.report.assertions += 1;
        if let Some(what) = stale {
            self.record(
                AuditKind::StaleTeardown,
                at,
                format!("post-kill access for asid {asid} hit stale state: {what}"),
            );
        }
    }

    /// Asserts the downgrade `stall_until` horizon never regresses.
    pub fn stall_horizon(&mut self, at: u64, stall_until: u64) {
        self.report.assertions += 1;
        if stall_until < self.last_stall {
            self.record(
                AuditKind::StallRegression,
                at,
                format!(
                    "stall_until moved backwards: {stall_until} after {}",
                    self.last_stall
                ),
            );
        }
        self.last_stall = stall_until;
    }

    // ---- report ---------------------------------------------------------

    /// The report accumulated so far.
    #[must_use]
    pub fn report(&self) -> &AuditReport {
        &self.report
    }

    /// Drains the report (the run attaches it to its own report).
    pub fn take_report(&mut self) -> AuditReport {
        std::mem::take(&mut self.report)
    }
}

/// Snapshot codecs. The shadow-oracle map is hash-ordered in memory, so
/// it is sorted by page before emission to keep snapshot bytes
/// deterministic; restore reinserts in sorted order, which is fine — map
/// iteration order never reaches behavior (every query is keyed). Fatal
/// mode and the writeback depth are config: the restoring build fixes
/// both, so a checkpoint written by a debug build restores under a
/// release build and the reverse.
mod snap_impls {
    use crate::snapshot::{Codec, Snap, SnapError};

    use super::{AuditFinding, AuditKind, AuditReport, Auditor};

    crate::snap_enum!(AuditKind, "audit kind",
        0 => OracleMismatch, 1 => UnauthorizedWrite, 2 => BccSubsetViolation, 3 => EventInPast,
        4 => NonMonotonicCompletion, 5 => WritebackOverflow, 6 => StallRegression,
        7 => ShardOrder, 8 => CommitUnderflow, 9 => CounterUnderflow, 10 => StaleTeardown);

    crate::snap_struct!(AuditFinding: kind, at, detail);

    impl Snap for AuditReport {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.snap(&mut self.findings)?;
            c.snap(&mut self.assertions)
        }
    }

    impl Snap for Auditor {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"AUDT")?;
            c.snap(&mut self.report)?;
            c.snap(&mut self.granted)?;
            c.snap(&mut self.oracle_bounds)?;
            c.snap(&mut self.last_stall)
        }
    }
}

fn verdict(allowed: bool) -> &'static str {
    if allowed {
        "ALLOW"
    } else {
        "DENY"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_inactive_audits_nothing() {
        let mut a = Auditor::new(false, 8);
        a.check_decision(1, 42, true, true);
        a.accel_write(1, 42);
        assert_eq!(a.report().assertions, 0);
        assert!(a.report().is_clean());
    }

    #[test]
    fn oracle_union_and_overwrite_semantics() {
        let mut a = Auditor::new(false, 8);
        a.set_oracle_bounds(100);
        a.grant(7, true, false);
        a.grant(7, false, true); // union: now rw
        assert!(a.oracle_decision(7, true));
        a.set_perms(7, true, false); // downgrade: r only
        assert!(!a.oracle_decision(7, true));
        assert!(a.oracle_decision(7, false));
        a.revoke_all();
        assert!(!a.oracle_decision(7, false));
        // Out of bounds is always a deny, granted or not.
        a.grant(100, true, true);
        assert!(!a.oracle_decision(100, false));
    }

    #[test]
    fn counter_underflow_is_a_finding() {
        let mut a = Auditor::new(false, 8);
        a.counter_underflow(42, "ops_left", "double op completion on accel 3");
        let r = a.take_report();
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.of_kind(AuditKind::CounterUnderflow).count(), 1);
        assert!(!r.is_clean());
        let f = &r.findings[0];
        assert!(f.detail.contains("ops_left"), "{}", f.detail);
        // Label round-trips through the report schema.
        assert_eq!(
            AuditKind::from_label(AuditKind::CounterUnderflow.label()),
            Some(AuditKind::CounterUnderflow)
        );
    }

    #[test]
    fn mismatches_become_findings() {
        let mut a = Auditor::new(false, 8);
        a.set_oracle_bounds(100);
        a.grant(3, true, false);
        a.check_decision(10, 3, false, true); // agree
        a.check_decision(11, 3, true, true); // engine over-permissive
        a.check_decision(12, 3, false, false); // engine over-restrictive
        a.accel_write(13, 3); // no W
        let r = a.take_report();
        assert_eq!(r.assertions, 4);
        assert_eq!(r.findings.len(), 3);
        assert_eq!(r.of_kind(AuditKind::OracleMismatch).count(), 2);
        assert_eq!(r.of_kind(AuditKind::UnauthorizedWrite).count(), 1);
    }

    #[test]
    fn timing_monitors_fire() {
        let mut a = Auditor::new(false, 2);
        a.event_dispatched(100, 99);
        a.event_scheduled(100, 99);
        a.completion("dram", 50, 49);
        a.writeback_occupancy(60, 3);
        a.stall_horizon(70, 500);
        a.stall_horizon(71, 400);
        let r = a.report();
        assert_eq!(r.findings.len(), 5);
        assert_eq!(r.of_kind(AuditKind::EventInPast).count(), 2);
        assert_eq!(r.of_kind(AuditKind::NonMonotonicCompletion).count(), 1);
        assert_eq!(r.of_kind(AuditKind::WritebackOverflow).count(), 1);
        assert_eq!(r.of_kind(AuditKind::StallRegression).count(), 1);
    }

    #[test]
    fn clean_monitors_stay_silent() {
        let mut a = Auditor::new(false, 2);
        a.event_dispatched(100, 100);
        a.event_scheduled(100, 150);
        a.completion("dram", 50, 50);
        a.writeback_occupancy(60, 2);
        a.stall_horizon(70, 500);
        a.stall_horizon(71, 500);
        a.bcc_subset(80, &[]);
        assert!(a.report().is_clean());
        assert_eq!(a.report().assertions, 7);
    }

    #[test]
    fn bcc_subset_mismatch_reported() {
        let mut a = Auditor::new(false, 8);
        a.bcc_subset(90, &[(12, "rw-".to_string(), "r--".to_string())]);
        let r = a.report();
        assert_eq!(r.of_kind(AuditKind::BccSubsetViolation).count(), 1);
        assert!(r.findings[0].detail.contains("page 12"));
    }

    #[test]
    fn commit_underflow_and_teardown_residue_reported() {
        let mut a = Auditor::new(false, 8);
        a.commit_underflow(40, 7);
        a.teardown_check(41, 3, None);
        a.teardown_check(42, 3, Some("IOTLB still maps vpn 9".to_string()));
        let r = a.report();
        assert_eq!(r.of_kind(AuditKind::CommitUnderflow).count(), 1);
        assert_eq!(r.of_kind(AuditKind::StaleTeardown).count(), 1);
        assert_eq!(r.assertions, 2);
        assert!(r.findings[1].detail.contains("asid 3"));
    }

    #[test]
    #[should_panic(expected = "audit violation")]
    fn fatal_mode_panics_on_first_finding() {
        let mut a = Auditor::new(true, 8);
        a.event_dispatched(10, 5);
    }

    #[test]
    fn finding_renders_with_cycle_and_kind() {
        let f = AuditFinding {
            kind: AuditKind::OracleMismatch,
            at: 42,
            detail: "x".to_string(),
        };
        assert_eq!(f.to_string(), "[cycle 42] oracle-mismatch: x");
    }
}
