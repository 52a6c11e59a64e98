//! OS-level accelerator scheduling: N sandboxed processes over M
//! accelerator instances.
//!
//! The paper sizes the Protection Table "per active accelerator" and
//! zeroes it on process completion (§3.3, Fig 3a/3e) — which makes a
//! context switch expensive by construction: the outgoing tenant's PT
//! must be zeroed and its BCC/IOTLB residue flushed before the incoming
//! tenant can be attached, and the incoming tenant starts translation-
//! and border-cache cold. This module captures *when* those steps may
//! happen as pure transition functions, in the same style as
//! [`bc_core::proto`] — the decision logic is total, side-effect free
//! and small enough for `bc-check` to explore exhaustively, while the
//! system model supplies the costs (PT zero DRAM traffic, cold-start
//! misses, drain latency).
//!
//! The protocol's safety core is the **scrub-before-bind** rule: an
//! accelerator that has run a tenant carries *residue* (PT entries,
//! BCC/IOTLB translations, possibly dirty cache blocks) until a
//! teardown completes, and no new tenant may be bound while residue is
//! present. Killing a tenant mid-flight (violation policy) takes the
//! same path as preemption and completion — only the final disposition
//! of the tenant differs — so kill-under-load is not a special case the
//! protocol can get wrong separately.
//!
//! [`bc_core::proto`]: https://docs.rs/bc-core/latest/bc_core/proto/

use std::collections::VecDeque;
use std::fmt;

/// Index of a tenant process in the scheduler's world.
pub type TenantId = usize;
/// Index of an accelerator instance.
pub type AccelId = usize;

/// Why an accelerator is being drained of in-flight work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DrainReason {
    /// Quantum expired: the tenant will be requeued and resumed later.
    Preempt,
    /// The tenant's job finished; it exits cleanly.
    Complete,
    /// Border Control caught a violation; the tenant is killed.
    Kill,
}

impl fmt::Display for DrainReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DrainReason::Preempt => "preempt",
            DrainReason::Complete => "complete",
            DrainReason::Kill => "kill",
        })
    }
}

/// Where one tenant is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantPhase {
    /// Waiting in the ready queue.
    Ready,
    /// Bound to an accelerator and issuing work.
    Running(AccelId),
    /// Issue stopped; in-flight ops draining toward the border.
    Draining(AccelId, DrainReason),
    /// Drained; PT zero + BCC/IOTLB flush (+ frame release unless
    /// preempted) in progress.
    TearingDown(AccelId, DrainReason),
    /// Exited cleanly.
    Done,
    /// Killed on violation.
    Killed,
}

/// One accelerator's binding and scrub status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccelSlot {
    /// The tenant currently owning the accelerator, if any.
    pub bound: Option<TenantId>,
    /// Whether translations/PT entries/dirty blocks from the bound (or a
    /// previous) tenant may still be present. Set when a drain finishes
    /// (the structures still hold the old tenant's state) and cleared
    /// only by a completed teardown. **No bind may happen while set.**
    pub residue: bool,
}

/// The scheduler's complete decision state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedState {
    /// Per-tenant lifecycle phase, indexed by [`TenantId`].
    pub tenants: Vec<TenantPhase>,
    /// Per-accelerator slot, indexed by [`AccelId`].
    pub accels: Vec<AccelSlot>,
    /// FIFO ready queue of runnable tenants.
    pub queue: VecDeque<TenantId>,
}

/// An occurrence the scheduler reacts to. `Dispatch` is the scheduler's
/// own prompting (an idle, scrubbed accelerator and a non-empty queue);
/// the rest arrive from the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedEvent {
    /// Bind the queue head to an idle, residue-free accelerator.
    Dispatch {
        /// Target accelerator.
        accel: AccelId,
    },
    /// The running tenant's time slice expired.
    QuantumExpired {
        /// Accelerator whose quantum ran out.
        accel: AccelId,
    },
    /// The running tenant finished all its work.
    JobDone {
        /// Accelerator reporting completion.
        accel: AccelId,
    },
    /// Border Control reported a violation by the running tenant.
    Violation {
        /// Accelerator the violation came from.
        accel: AccelId,
    },
    /// All in-flight ops of the draining tenant reached the border.
    DrainComplete {
        /// Accelerator that finished draining.
        accel: AccelId,
    },
    /// PT zero + flush (+ release) finished for the tearing-down tenant.
    TeardownComplete {
        /// Accelerator whose scrub finished.
        accel: AccelId,
    },
}

/// What the machine must do in response to a transition. Actions carry
/// no costs — the system model charges PT-zero DRAM traffic, cold-start
/// misses and drain cycles when it executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedAction {
    /// Attach `tenant` to `accel`: allocate + zero its PT (Fig 3a) and
    /// start issue. The tenant starts BCC/IOTLB-cold.
    Bind {
        /// Accelerator being bound.
        accel: AccelId,
        /// Incoming tenant.
        tenant: TenantId,
    },
    /// Stop issue on `accel` and let in-flight ops reach the border.
    Drain {
        /// Accelerator to quiesce.
        accel: AccelId,
        /// Tenant being drained.
        tenant: TenantId,
        /// Why.
        reason: DrainReason,
    },
    /// Scrub `accel`: write back dirty blocks through the border, zero
    /// the PT, flush BCC/IOTLB residue; release the tenant's frames
    /// unless this is a preemption (Fig 3e).
    Teardown {
        /// Accelerator to scrub.
        accel: AccelId,
        /// Outgoing tenant.
        tenant: TenantId,
        /// Why (decides frame disposition).
        reason: DrainReason,
    },
    /// Put a preempted tenant back on the ready queue.
    Requeue {
        /// Tenant to requeue.
        tenant: TenantId,
    },
    /// Mark a tenant cleanly exited.
    Finish {
        /// Tenant that completed.
        tenant: TenantId,
    },
    /// Kill the tenant's process in the kernel (frames quarantined until
    /// the teardown's flush ordering completes).
    Kill {
        /// Tenant being killed.
        tenant: TenantId,
    },
}

impl SchedState {
    /// A fresh world: every tenant ready and queued in id order, every
    /// accelerator idle and scrubbed.
    #[must_use]
    pub fn new(tenants: usize, accels: usize) -> Self {
        SchedState {
            tenants: vec![TenantPhase::Ready; tenants],
            accels: vec![
                AccelSlot {
                    bound: None,
                    residue: false,
                };
                accels
            ],
            queue: (0..tenants).collect(),
        }
    }

    /// Whether every tenant has reached a terminal phase.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        self.tenants
            .iter()
            .all(|t| matches!(t, TenantPhase::Done | TenantPhase::Killed))
    }

    /// The tenant bound to `accel`, if any.
    #[must_use]
    pub fn bound_tenant(&self, accel: AccelId) -> Option<TenantId> {
        self.accels.get(accel).and_then(|a| a.bound)
    }
}

/// Events that may legally occur in `s`, in a fixed deterministic order
/// (accelerator-major). `Violation` is listed for every running tenant —
/// whether one actually happens is the machine's (or the model
/// checker's) choice.
#[must_use]
pub fn enabled_events(s: &SchedState) -> Vec<SchedEvent> {
    let mut out = Vec::new();
    for (i, slot) in s.accels.iter().enumerate() {
        match slot.bound.map(|t| s.tenants.get(t).copied()) {
            Some(Some(TenantPhase::Running(_))) => {
                out.push(SchedEvent::QuantumExpired { accel: i });
                out.push(SchedEvent::JobDone { accel: i });
                out.push(SchedEvent::Violation { accel: i });
            }
            Some(Some(TenantPhase::Draining(..))) => {
                out.push(SchedEvent::DrainComplete { accel: i });
            }
            Some(Some(TenantPhase::TearingDown(..))) => {
                out.push(SchedEvent::TeardownComplete { accel: i });
            }
            _ => {
                if !slot.residue && !s.queue.is_empty() {
                    out.push(SchedEvent::Dispatch { accel: i });
                }
            }
        }
    }
    out
}

/// The transition function: applies `ev` to `s`, returning the new state
/// and the actions the machine must execute. Returns `None` when the
/// event is not enabled in `s` (a stale or malformed occurrence — the
/// system treats that as a protocol error, the checker simply never
/// generates it). Pure: `s` is left as it was, whatever `ev` is.
#[must_use]
pub fn step(s: &SchedState, ev: SchedEvent) -> Option<(SchedState, Vec<SchedAction>)> {
    let mut n = s.clone();
    let actions = transition(&mut n, ev, false)?;
    Some((n, actions))
}

/// The seeded-bug variant used by `bc-check`'s negative tests: binds the
/// next tenant as soon as the old one *drains*, before its teardown has
/// scrubbed the PT/BCC/IOTLB — exactly the reuse-before-flush bug the
/// residue invariant exists to catch.
#[must_use]
pub fn step_bind_before_scrub(
    s: &SchedState,
    ev: SchedEvent,
) -> Option<(SchedState, Vec<SchedAction>)> {
    let mut n = s.clone();
    let actions = transition(&mut n, ev, true)?;
    Some((n, actions))
}

/// The one transition body, run on the state in place: [`step`] runs it
/// on a clone, [`Scheduler::apply`] on its own state. Every check comes
/// before the first change, so an event that is not enabled returns
/// `None` with `n` untouched. (The seeded bug's extra bind can still fail
/// half-way on a malformed queue, but it only runs on `step`'s clone.)
fn transition(
    n: &mut SchedState,
    ev: SchedEvent,
    bind_before_scrub: bool,
) -> Option<Vec<SchedAction>> {
    let mut actions = Vec::new();
    match ev {
        SchedEvent::Dispatch { accel } => {
            let slot = n.accels.get(accel)?;
            if slot.bound.is_some() || slot.residue {
                return None;
            }
            let tenant = *n.queue.front()?;
            if !matches!(n.tenants.get(tenant), Some(TenantPhase::Ready)) {
                return None;
            }
            n.queue.pop_front();
            *n.tenants.get_mut(tenant)? = TenantPhase::Running(accel);
            n.accels.get_mut(accel)?.bound = Some(tenant);
            actions.push(SchedAction::Bind { accel, tenant });
        }
        SchedEvent::QuantumExpired { accel } => {
            let tenant = begin_drain(n, accel, DrainReason::Preempt)?;
            actions.push(SchedAction::Drain {
                accel,
                tenant,
                reason: DrainReason::Preempt,
            });
        }
        SchedEvent::JobDone { accel } => {
            let tenant = begin_drain(n, accel, DrainReason::Complete)?;
            actions.push(SchedAction::Drain {
                accel,
                tenant,
                reason: DrainReason::Complete,
            });
        }
        SchedEvent::Violation { accel } => {
            // The kernel kills the process immediately (frames are
            // quarantined); the accelerator still drains + scrubs before
            // anything of the tenant's can be reused.
            let tenant = begin_drain(n, accel, DrainReason::Kill)?;
            actions.push(SchedAction::Kill { tenant });
            actions.push(SchedAction::Drain {
                accel,
                tenant,
                reason: DrainReason::Kill,
            });
        }
        SchedEvent::DrainComplete { accel } => {
            let tenant = n.bound_tenant(accel)?;
            let TenantPhase::Draining(a, reason) = *n.tenants.get(tenant)? else {
                return None;
            };
            if a != accel {
                return None;
            }
            *n.tenants.get_mut(tenant)? = TenantPhase::TearingDown(accel, reason);
            // The drained structures still hold the tenant's PT entries
            // and translations: the slot is dirty until the scrub ends.
            n.accels.get_mut(accel)?.residue = true;
            actions.push(SchedAction::Teardown {
                accel,
                tenant,
                reason,
            });
            if bind_before_scrub {
                // SEEDED BUG: reuse the accelerator before the scrub.
                if let Some(next) = n.queue.pop_front() {
                    *n.tenants.get_mut(next)? = TenantPhase::Running(accel);
                    n.accels.get_mut(accel)?.bound = Some(next);
                    // The old tenant is silently dropped to a terminal
                    // phase so the bug is a pure ordering violation.
                    *n.tenants.get_mut(tenant)? = match reason {
                        DrainReason::Kill => TenantPhase::Killed,
                        _ => TenantPhase::Done,
                    };
                    actions.push(SchedAction::Bind {
                        accel,
                        tenant: next,
                    });
                }
            }
        }
        SchedEvent::TeardownComplete { accel } => {
            let tenant = n.bound_tenant(accel)?;
            let TenantPhase::TearingDown(a, reason) = *n.tenants.get(tenant)? else {
                return None;
            };
            if a != accel {
                return None;
            }
            let slot = n.accels.get_mut(accel)?;
            slot.bound = None;
            slot.residue = false;
            match reason {
                DrainReason::Preempt => {
                    *n.tenants.get_mut(tenant)? = TenantPhase::Ready;
                    n.queue.push_back(tenant);
                    actions.push(SchedAction::Requeue { tenant });
                }
                DrainReason::Complete => {
                    *n.tenants.get_mut(tenant)? = TenantPhase::Done;
                    actions.push(SchedAction::Finish { tenant });
                }
                DrainReason::Kill => {
                    *n.tenants.get_mut(tenant)? = TenantPhase::Killed;
                }
            }
        }
    }
    Some(actions)
}

/// Shared Running → Draining transition; returns the drained tenant.
fn begin_drain(n: &mut SchedState, accel: AccelId, reason: DrainReason) -> Option<TenantId> {
    let tenant = n.bound_tenant(accel)?;
    let TenantPhase::Running(a) = *n.tenants.get(tenant)? else {
        return None;
    };
    if a != accel {
        return None;
    }
    *n.tenants.get_mut(tenant)? = TenantPhase::Draining(accel, reason);
    Some(tenant)
}

/// Every safety invariant the protocol promises, checked structurally.
/// Returns human-readable descriptions of violations (empty = holds).
#[must_use]
pub fn invariant_violations(s: &SchedState) -> Vec<String> {
    let mut v = Vec::new();
    // 1. Scrub-before-bind: residue means the bound tenant (and only it)
    //    is mid-teardown; a *Running* tenant on a dirty slot is reading
    //    or writing through another tenant's leftover translations.
    for (i, slot) in s.accels.iter().enumerate() {
        if slot.residue {
            match slot.bound.map(|t| s.tenants.get(t).copied()) {
                Some(Some(TenantPhase::TearingDown(a, _))) if a == i => {}
                other => v.push(format!(
                    "accel {i} has residue but holds {other:?} instead of its own teardown"
                )),
            }
        }
    }
    // 2. Binding coherence: bound ⇔ the tenant's phase names this accel.
    for (i, slot) in s.accels.iter().enumerate() {
        if let Some(t) = slot.bound {
            match s.tenants.get(t) {
                Some(
                    TenantPhase::Running(a)
                    | TenantPhase::Draining(a, _)
                    | TenantPhase::TearingDown(a, _),
                ) if *a == i => {}
                other => v.push(format!("accel {i} bound to tenant {t} in phase {other:?}")),
            }
        }
    }
    for (t, phase) in s.tenants.iter().enumerate() {
        if let TenantPhase::Running(a)
        | TenantPhase::Draining(a, _)
        | TenantPhase::TearingDown(a, _) = phase
        {
            if s.accels.get(*a).and_then(|sl| sl.bound) != Some(t) {
                v.push(format!(
                    "tenant {t} claims accel {a} but the slot disagrees"
                ));
            }
        }
    }
    // 3. No double-binding.
    let mut seen = vec![false; s.tenants.len()];
    for slot in &s.accels {
        if let Some(t) = slot.bound {
            if let Some(flag) = seen.get_mut(t) {
                if *flag {
                    v.push(format!("tenant {t} bound to two accelerators"));
                }
                *flag = true;
            }
        }
    }
    // 4. Queue coherence: queued tenants are Ready, unbound, unique.
    let mut queued = vec![false; s.tenants.len()];
    for &t in &s.queue {
        match (s.tenants.get(t), queued.get_mut(t)) {
            (Some(TenantPhase::Ready), Some(flag)) => {
                if *flag {
                    v.push(format!("tenant {t} queued twice"));
                }
                *flag = true;
            }
            (phase, _) => v.push(format!("queued tenant {t} is {phase:?}, not Ready")),
        }
    }
    // 5. Ready tenants are either queued or mid-bind — never lost.
    for (t, phase) in s.tenants.iter().enumerate() {
        if matches!(phase, TenantPhase::Ready) && queued.get(t) != Some(&true) {
            v.push(format!("ready tenant {t} fell off the queue"));
        }
    }
    // 6. No deadlock: a non-terminal state must have an enabled event.
    if !s.is_terminal() && enabled_events(s).is_empty() {
        v.push("non-terminal state with no enabled events (deadlock)".to_string());
    }
    v
}

/// A compact, order-stable rendering of the state for visited sets and
/// pinned-count tests (same role as `proto::canonical_key`).
#[must_use]
pub fn canonical_key(s: &SchedState) -> String {
    use std::fmt::Write;
    let mut k = String::new();
    for t in &s.tenants {
        let c = match t {
            TenantPhase::Ready => "r".to_string(),
            TenantPhase::Running(a) => format!("R{a}"),
            TenantPhase::Draining(a, why) => format!("d{a}{}", reason_tag(*why)),
            TenantPhase::TearingDown(a, why) => format!("t{a}{}", reason_tag(*why)),
            TenantPhase::Done => "D".to_string(),
            TenantPhase::Killed => "K".to_string(),
        };
        let _ = write!(k, "{c},");
    }
    k.push('|');
    for a in &s.accels {
        let _ = match a.bound {
            Some(t) => write!(k, "{}{t},", if a.residue { "*" } else { "" }),
            None => write!(k, "{}_,", if a.residue { "*" } else { "" }),
        };
    }
    k.push('|');
    for &t in &s.queue {
        let _ = write!(k, "{t},");
    }
    k
}

fn reason_tag(r: DrainReason) -> &'static str {
    match r {
        DrainReason::Preempt => "p",
        DrainReason::Complete => "c",
        DrainReason::Kill => "k",
    }
}

/// A stateful convenience wrapper for the system model: owns a
/// [`SchedState`] and applies events, panicking on protocol errors
/// (the system only feeds events it just derived from the state).
#[derive(Debug, Clone)]
pub struct Scheduler {
    state: SchedState,
}

impl Scheduler {
    /// A scheduler over `tenants` processes and `accels` accelerators.
    #[must_use]
    pub fn new(tenants: usize, accels: usize) -> Self {
        Scheduler {
            state: SchedState::new(tenants, accels),
        }
    }

    /// The current decision state.
    #[must_use]
    pub fn state(&self) -> &SchedState {
        &self.state
    }

    /// Whether every tenant has terminated.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        self.state.is_terminal()
    }

    /// Applies one event in place, returning the actions to execute:
    /// the same transition as [`step`], without copying the state.
    ///
    /// # Panics
    ///
    /// Panics if `ev` is not enabled — the caller fed a stale event.
    pub fn apply(&mut self, ev: SchedEvent) -> Vec<SchedAction> {
        transition(&mut self.state, ev, false)
            .unwrap_or_else(|| panic!("scheduler protocol error: {ev:?}"))
    }

    /// Dispatches tenants onto every idle, scrubbed accelerator (start
    /// of run, and after each teardown). Returns all resulting actions.
    pub fn dispatch_idle(&mut self) -> Vec<SchedAction> {
        let mut out = Vec::new();
        for accel in 0..self.state.accels.len() {
            let idle = self
                .state
                .accels
                .get(accel)
                .is_some_and(|sl| sl.bound.is_none() && !sl.residue);
            if idle && !self.state.queue.is_empty() {
                out.extend(self.apply(SchedEvent::Dispatch { accel }));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_terminal(
        mut s: SchedState,
        mut pick: impl FnMut(&[SchedEvent]) -> SchedEvent,
    ) -> SchedState {
        for _ in 0..10_000 {
            if s.is_terminal() {
                return s;
            }
            let evs = enabled_events(&s);
            let (next, _) = step(&s, pick(&evs)).expect("enabled event steps");
            assert_eq!(invariant_violations(&next), Vec::<String>::new());
            s = next;
        }
        panic!("did not terminate");
    }

    #[test]
    fn fresh_state_holds_invariants_and_dispatches() {
        let s = SchedState::new(4, 2);
        assert!(invariant_violations(&s).is_empty());
        let evs = enabled_events(&s);
        assert_eq!(
            evs,
            vec![
                SchedEvent::Dispatch { accel: 0 },
                SchedEvent::Dispatch { accel: 1 }
            ]
        );
    }

    #[test]
    fn complete_lifecycle_runs_every_tenant_to_done() {
        // Always pick the first enabled event: FIFO completion order.
        let s = run_to_terminal(SchedState::new(3, 2), |evs| {
            *evs.iter()
                .find(|e| {
                    !matches!(
                        e,
                        SchedEvent::QuantumExpired { .. } | SchedEvent::Violation { .. }
                    )
                })
                .expect("progress event")
        });
        assert!(s.tenants.iter().all(|t| matches!(t, TenantPhase::Done)));
    }

    #[test]
    fn preemption_requeues_and_eventually_completes() {
        // Preempt a bounded number of times, then let work finish;
        // everyone still reaches Done (requeue keeps tenants live).
        let mut preempts_left = 5u32;
        let s = run_to_terminal(SchedState::new(3, 1), |evs| {
            let preempt = evs
                .iter()
                .find(|e| matches!(e, SchedEvent::QuantumExpired { .. }));
            if let (Some(&e), true) = (preempt, preempts_left > 0) {
                preempts_left -= 1;
                return e;
            }
            *evs.iter()
                .find(|e| {
                    !matches!(
                        e,
                        SchedEvent::QuantumExpired { .. } | SchedEvent::Violation { .. }
                    )
                })
                .expect("progress event")
        });
        assert!(s.tenants.iter().all(|t| matches!(t, TenantPhase::Done)));
    }

    #[test]
    fn violation_kills_victim_while_siblings_finish() {
        let mut s = SchedState::new(2, 2);
        // Bind both.
        let (s1, _) = step(&s, SchedEvent::Dispatch { accel: 0 }).unwrap();
        let (s2, _) = step(&s1, SchedEvent::Dispatch { accel: 1 }).unwrap();
        s = s2;
        // Tenant 0 violates; drain + teardown carry the kill through.
        let (s3, acts) = step(&s, SchedEvent::Violation { accel: 0 }).unwrap();
        assert!(acts.contains(&SchedAction::Kill { tenant: 0 }));
        let (s4, acts) = step(&s3, SchedEvent::DrainComplete { accel: 0 }).unwrap();
        assert!(matches!(
            acts.as_slice(),
            [SchedAction::Teardown {
                reason: DrainReason::Kill,
                ..
            }]
        ));
        // Sibling keeps running the whole time.
        assert!(matches!(s4.tenants.get(1), Some(TenantPhase::Running(1))));
        let (s5, _) = step(&s4, SchedEvent::TeardownComplete { accel: 0 }).unwrap();
        assert!(matches!(s5.tenants.first(), Some(TenantPhase::Killed)));
        assert!(invariant_violations(&s5).is_empty());
        // Accel 0 is clean and idle again — but the queue is empty, so
        // no dispatch is enabled there.
        let accel0 = s5.accels.first().expect("accel 0");
        assert!(!accel0.residue);
        assert_eq!(accel0.bound, None);
    }

    #[test]
    fn no_bind_while_residue_present() {
        let mut s = SchedState::new(2, 1);
        let (s1, _) = step(&s, SchedEvent::Dispatch { accel: 0 }).unwrap();
        let (s2, _) = step(&s1, SchedEvent::JobDone { accel: 0 }).unwrap();
        let (s3, _) = step(&s2, SchedEvent::DrainComplete { accel: 0 }).unwrap();
        s = s3;
        assert!(s.accels.first().is_some_and(|a| a.residue));
        // Tenant 1 is queued and ready, but the slot is dirty: no
        // Dispatch may be enabled, and forcing one must be rejected.
        assert!(!enabled_events(&s)
            .iter()
            .any(|e| matches!(e, SchedEvent::Dispatch { .. })));
        assert!(step(&s, SchedEvent::Dispatch { accel: 0 }).is_none());
    }

    #[test]
    fn seeded_bind_before_scrub_bug_trips_residue_invariant() {
        let s = SchedState::new(2, 1);
        let (s1, _) = step(&s, SchedEvent::Dispatch { accel: 0 }).unwrap();
        let (s2, _) = step(&s1, SchedEvent::JobDone { accel: 0 }).unwrap();
        let (s3, acts) =
            step_bind_before_scrub(&s2, SchedEvent::DrainComplete { accel: 0 }).unwrap();
        assert!(acts
            .iter()
            .any(|a| matches!(a, SchedAction::Bind { tenant: 1, .. })));
        let v = invariant_violations(&s3);
        assert!(
            v.iter().any(|m| m.contains("residue")),
            "the bug must violate scrub-before-bind, got: {v:?}"
        );
    }

    #[test]
    fn scheduler_wrapper_round_trips() {
        let mut sched = Scheduler::new(2, 1);
        let acts = sched.dispatch_idle();
        assert_eq!(
            acts,
            vec![SchedAction::Bind {
                accel: 0,
                tenant: 0
            }]
        );
        sched.apply(SchedEvent::JobDone { accel: 0 });
        sched.apply(SchedEvent::DrainComplete { accel: 0 });
        sched.apply(SchedEvent::TeardownComplete { accel: 0 });
        let acts = sched.dispatch_idle();
        assert_eq!(
            acts,
            vec![SchedAction::Bind {
                accel: 0,
                tenant: 1
            }]
        );
        sched.apply(SchedEvent::JobDone { accel: 0 });
        sched.apply(SchedEvent::DrainComplete { accel: 0 });
        sched.apply(SchedEvent::TeardownComplete { accel: 0 });
        assert!(sched.is_terminal());
    }

    #[test]
    fn disabled_events_leave_the_state_untouched() {
        // Walk a lifecycle with preemptions and kills; at every state, a
        // disabled event run in place returns `None` and changes nothing.
        let mut s = SchedState::new(3, 2);
        for i in 0..200 {
            let enabled = enabled_events(&s);
            for accel in 0..3 {
                for ev in [
                    SchedEvent::Dispatch { accel },
                    SchedEvent::QuantumExpired { accel },
                    SchedEvent::JobDone { accel },
                    SchedEvent::Violation { accel },
                    SchedEvent::DrainComplete { accel },
                    SchedEvent::TeardownComplete { accel },
                ] {
                    if enabled.contains(&ev) {
                        continue;
                    }
                    let mut n = s.clone();
                    assert_eq!(transition(&mut n, ev, false), None, "{ev:?}");
                    assert_eq!(n, s, "{ev:?} changed the state");
                }
            }
            let Some(&ev) = enabled.get(i % enabled.len().max(1)) else {
                break;
            };
            s = step(&s, ev).expect("enabled event steps").0;
        }
    }

    #[test]
    fn canonical_key_distinguishes_and_stabilizes() {
        let a = SchedState::new(2, 1);
        let b = SchedState::new(2, 1);
        assert_eq!(canonical_key(&a), canonical_key(&b));
        let (c, _) = step(&a, SchedEvent::Dispatch { accel: 0 }).unwrap();
        assert_ne!(canonical_key(&a), canonical_key(&c));
    }
}
