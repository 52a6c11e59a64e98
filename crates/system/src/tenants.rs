//! Multi-tenant scale: N sandboxed processes time-sliced over M
//! accelerators by the OS scheduler of [`bc_os::sched`].
//!
//! The single-tenant [`crate::System`] answers the paper's overhead
//! questions (Figures 4–7). This module answers the *operating-system*
//! question the paper's §3.2 teardown/downgrade protocol exists for:
//! what does Border Control cost when one host multiplexes many
//! mutually-distrusting processes over a few accelerators?
//!
//! Every context switch pays the full sandbox hand-off: drain in-flight
//! ops to the border, zero the outgoing tenant's Protection Table
//! (streamed DRAM writes), invalidate the BCC, flush the IOTLB, and —
//! for exits and kills — quarantine the frames until the scrub finishes
//! (`Kernel::finish_teardown`). The incoming tenant starts cold on every
//! checking structure. Scheduling decisions are made exclusively by the
//! [`Scheduler`] protocol machine, the same pure-transition-function
//! state the `bc-check` explorer proves scrub-before-bind over; this
//! module only *executes* its actions and charges their costs.
//!
//! Three stress axes compose:
//!
//! * **scale** — thousands of tenants over single-digit accelerators,
//!   reported as per-tenant completion/kill *tail* latencies (p50/p95/
//!   p99 — multi-tenant interference lives in the tails, not the mean);
//! * **hostility** — a deterministic subset of tenants is malicious and
//!   probes random physical frames; Border Control must block every
//!   probe and the kill must not disturb sibling tenants;
//! * **downgrade storms** — the OS concurrently write-protects and
//!   restores pages of *running* tenants, exercising the §3.2.4
//!   flush-before-commit path under load.
//!
//! The run is driven by the sharded engine of [`bc_sim::shard`], so the
//! report is byte-identical at any `shards` setting, and the optional
//! `--audit` oracle cross-checks every border decision plus the
//! stale-translation teardown invariants.

use bc_core::{BorderControl, BorderControlConfig, DowngradeAction, MemRequest};
use bc_iommu::{Ats, AtsConfig};
use bc_mem::addr::{Asid, Ppn, Vpn};
use bc_mem::dram::{Dram, DramConfig, MemBackend};
use bc_mem::perms::PagePerms;
use bc_mem::VirtAddr;
use bc_os::sched::{DrainReason, SchedAction, SchedEvent, Scheduler, TenantPhase};
use bc_os::{Kernel, KernelConfig, ViolationPolicy};
use bc_sim::audit::{AuditReport, Auditor};
use bc_sim::shard::{CompId, Outbox, ShardEngine, ShardHandler, ShardSpec};
use bc_sim::{Cycle, SimRng};

use crate::BuildError;

/// Base virtual address of every tenant's working region (address
/// spaces are per-ASID, so tenants can share a layout).
const TENANT_BASE_VA: u64 = 0x4000_0000;

/// Configuration of one multi-tenant run. Everything — tenant count,
/// hostility, storm cadence, memory backend — derives deterministically
/// from these fields plus `seed`.
#[derive(Debug, Clone)]
pub struct TenantsConfig {
    /// Number of tenant processes (N).
    pub tenants: usize,
    /// Number of accelerator instances sharing the host (M).
    pub accels: usize,
    /// Master seed; every stream forks from it.
    pub seed: u64,
    /// Eagerly-mapped pages per tenant.
    pub pages_per_tenant: u64,
    /// Accelerator ops each tenant must complete to exit.
    pub ops_per_tenant: u64,
    /// Scheduling quantum in cycles (preempt when the ready queue is
    /// non-empty).
    pub quantum: u64,
    /// Cycles between downgrade storms against running tenants
    /// (`0` disables storms).
    pub storm_period: u64,
    /// Per-mille of tenants that are malicious (probe random frames).
    pub malicious_permille: u64,
    /// Per-mille chance a malicious tenant attaches a wild-frame probe
    /// to an op.
    pub probe_permille: u64,
    /// Per-mille of ops that are writes.
    pub write_permille: u64,
    /// Host physical memory size in bytes.
    pub phys_bytes: u64,
    /// DRAM backend profile (local DDR vs CXL-like pool).
    pub mem_backend: MemBackend,
    /// Worker shards (byte-identical results at any value).
    pub shards: usize,
    /// Conservative lookahead of the sharded engine.
    pub lookahead: u64,
    /// Run the audit oracle alongside the machine.
    pub audit: bool,
    /// Abort valve: stop issuing past this cycle.
    pub max_cycles: u64,
}

impl Default for TenantsConfig {
    fn default() -> Self {
        TenantsConfig {
            tenants: 32,
            accels: 2,
            seed: 0xB0C0_0D05,
            pages_per_tenant: 8,
            ops_per_tenant: 48,
            quantum: 4_000,
            storm_period: 2_500,
            malicious_permille: 125,
            probe_permille: 200,
            write_permille: 300,
            phys_bytes: 256 << 20,
            mem_backend: MemBackend::LocalDram,
            shards: 1,
            lookahead: 8,
            audit: false,
            max_cycles: 200_000_000,
        }
    }
}

/// Events of the multi-tenant machine. Accelerator components model
/// issue only; all authority (translation, border check, scheduling)
/// lives in the host backend component.
#[derive(Debug, Clone, Copy)]
enum TEvent {
    /// Backend boot: dispatch tenants onto every idle accelerator.
    Boot,
    /// Backend → accel: start running `tenant`.
    Bind {
        tenant: usize,
        ops_left: u64,
        malicious: bool,
        bind_seq: u64,
    },
    /// Backend → accel: reply to one op. `denied` means the op was
    /// refused at the border (or the process died under it).
    OpDone { denied: bool },
    /// Backend → accel: stop issuing and drain.
    DrainReq,
    /// Accel self: issue the next op.
    Tick,
    /// Accel → backend: one memory op crossing the border, with an
    /// optional malicious wild-frame probe riding along.
    Access {
        accel: usize,
        vpn: Vpn,
        write: bool,
        probe: Option<Ppn>,
    },
    /// Accel → backend: the bound tenant ran out of work.
    JobFinished { accel: usize },
    /// Accel → backend: an `OpDone` arrived with `ops_left` already
    /// zero — a double-completion the old `saturating_sub` would have
    /// masked. Routed to the accel slot's auditor as `counter-underflow`.
    OpUnderflow { accel: usize },
    /// Accel → backend: issue stopped, nothing in flight.
    Drained { accel: usize, ops_left: u64 },
    /// Backend self: PT zero + flush for `accel` finished.
    TeardownDone { accel: usize },
    /// Backend self: time-slice check for `accel`.
    QuantumTick { accel: usize },
    /// Backend self: downgrade storm against running tenants.
    StormTick,
}

/// One accelerator's issue engine: a thin frontend that draws ops from
/// a per-bind RNG stream and waits for the border's verdict. It holds
/// no authority — its TLB state is modeled inside the host's ATS/IOTLB,
/// which the teardown protocol flushes.
struct AccelComp {
    comp: CompId,
    back: CompId,
    lookahead: u64,
    seed: u64,
    pages: u64,
    total_frames: u64,
    probe_permille: u64,
    write_permille: u64,
    base_vpn: u64,
    bound: Option<AccelJob>,
    ops_issued: u64,
}

struct AccelJob {
    ops_left: u64,
    malicious: bool,
    rng: SimRng,
    draining: bool,
    in_flight: bool,
}

/// Decrements an op counter without wrapping: a completion that arrives
/// with the counter already at zero is a protocol bug (double `OpDone`),
/// reported as an underflow rather than silently clamped.
fn dec_op_counter(ops_left: u64) -> (u64, bool) {
    match ops_left.checked_sub(1) {
        Some(n) => (n, false),
        None => (0, true),
    }
}

impl AccelComp {
    fn handle(&mut self, now: Cycle, ev: TEvent, out: &mut Outbox<'_, TEvent>) {
        match ev {
            TEvent::Bind {
                tenant,
                ops_left,
                malicious,
                bind_seq,
            } => {
                // Per-bind stream: the issue pattern after a preemption
                // resumes from a fresh fork, keyed only by coordinates.
                // bc-lint: allow(saturating-counter) — golden-ratio
                // seed mix over bind coordinates, not a counter.
                let mix = (tenant as u64)
                    .wrapping_mul(0x9E37_79B9_97F4_A7C5)
                    .wrapping_add(bind_seq)
                    .wrapping_add((self.comp as u64) << 32);
                self.bound = Some(AccelJob {
                    ops_left,
                    malicious,
                    rng: SimRng::seed_from(self.seed ^ 0x7E4A_4E75 ^ mix),
                    draining: false,
                    in_flight: false,
                });
                out.send(self.comp, now + 1, TEvent::Tick);
            }
            TEvent::Tick => {
                let Some(job) = &mut self.bound else { return };
                if job.draining || job.in_flight {
                    return;
                }
                if job.ops_left == 0 {
                    out.send(
                        self.back,
                        now + self.lookahead,
                        TEvent::JobFinished { accel: self.comp },
                    );
                    return;
                }
                let vpn = Vpn::new(self.base_vpn + job.rng.below(self.pages));
                let write = job.rng.below(1000) < self.write_permille;
                let probe = (job.malicious && job.rng.below(1000) < self.probe_permille)
                    .then(|| Ppn::new(job.rng.below(self.total_frames)));
                job.in_flight = true;
                self.ops_issued += 1;
                out.send(
                    self.back,
                    now + self.lookahead,
                    TEvent::Access {
                        accel: self.comp,
                        vpn,
                        write,
                        probe,
                    },
                );
            }
            TEvent::OpDone { denied } => {
                let Some(job) = &mut self.bound else { return };
                job.in_flight = false;
                if !denied {
                    let (n, underflow) = dec_op_counter(job.ops_left);
                    job.ops_left = n;
                    if underflow {
                        out.send(
                            self.back,
                            now + self.lookahead,
                            TEvent::OpUnderflow { accel: self.comp },
                        );
                        debug_assert!(
                            false,
                            "ops_left underflow: double op completion on accel {}",
                            self.comp
                        );
                    }
                }
                if job.draining {
                    let ops_left = job.ops_left;
                    self.bound = None;
                    out.send(
                        self.back,
                        now + self.lookahead,
                        TEvent::Drained {
                            accel: self.comp,
                            ops_left,
                        },
                    );
                } else if denied || job.ops_left == 0 {
                    // A denied op means the border refused us; stop and
                    // report done — the kill path's DrainReq (if any)
                    // normally arrives first and takes the branch above.
                    out.send(
                        self.back,
                        now + self.lookahead,
                        TEvent::JobFinished { accel: self.comp },
                    );
                } else {
                    let think = job.rng.below(4) + 1;
                    out.send(self.comp, now + think, TEvent::Tick);
                }
            }
            TEvent::DrainReq => {
                let Some(job) = &mut self.bound else { return };
                job.draining = true;
                if !job.in_flight {
                    let ops_left = job.ops_left;
                    self.bound = None;
                    out.send(
                        self.back,
                        now + self.lookahead,
                        TEvent::Drained {
                            accel: self.comp,
                            ops_left,
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

/// One accelerator slot on the host side: its Border Control engine,
/// its ATS (IOTLB + walkers), and — under `--audit` — its oracle.
struct AccelSlotHw {
    bc: BorderControl,
    ats: Ats,
    auditor: Option<Auditor>,
}

/// Per-tenant bookkeeping on the host.
struct TenantRec {
    asid: Asid,
    ops_left: u64,
    malicious: bool,
    binds: u64,
    violated_at: Option<u64>,
    completed_at: Option<u64>,
    kill_latency: Option<u64>,
    dead: bool,
}

/// The host backend: kernel, shared DRAM, per-accelerator checking
/// hardware, and the scheduling protocol machine. The single contended
/// component, pinned to shard 0.
struct HostBackend {
    comp: CompId,
    lookahead: u64,
    cfg: TenantsConfig,
    kernel: Kernel,
    dram: Dram,
    slots: Vec<AccelSlotHw>,
    sched: Scheduler,
    recs: Vec<TenantRec>,
    storm_rng: SimRng,
    outgoing: Vec<(CompId, Cycle, TEvent)>,
    aborted: bool,
    last_cycle: u64,
    // Counters.
    binds: u64,
    preempts: u64,
    kills: u64,
    pt_zero_blocks: u64,
    storms: u64,
    probes_attempted: u64,
    probes_blocked: u64,
    probes_succeeded: u64,
    violations: u64,
}

impl HostBackend {
    fn send(&mut self, to: CompId, at: Cycle, ev: TEvent) {
        self.outgoing.push((to, at, ev));
    }

    fn bound_tenant(&self, accel: usize) -> Option<usize> {
        self.sched.state().bound_tenant(accel)
    }

    /// Executes the Bind action: (re)attach the tenant to the slot's
    /// Border Control (allocating + zeroing a fresh PT) and start issue.
    fn do_bind(&mut self, now: Cycle, accel: usize, tenant: usize) {
        let asid = self.recs[tenant].asid;
        if self.slots[accel]
            .bc
            .attach_process(&mut self.kernel, asid)
            .is_err()
        {
            self.aborted = true;
            return;
        }
        self.recs[tenant].binds += 1;
        self.binds += 1;
        let ev = TEvent::Bind {
            tenant,
            ops_left: self.recs[tenant].ops_left,
            malicious: self.recs[tenant].malicious,
            bind_seq: self.recs[tenant].binds,
        };
        self.send(accel, now + self.lookahead, ev);
    }

    fn run_actions(&mut self, now: Cycle, actions: Vec<SchedAction>) {
        for action in actions {
            match action {
                SchedAction::Bind { accel, tenant } => self.do_bind(now, accel, tenant),
                SchedAction::Drain { accel, .. } => {
                    self.send(accel, now + self.lookahead, TEvent::DrainReq);
                }
                // Teardown costs are charged when the Drained event
                // arrives (the action and the event coincide there);
                // Requeue/Finish/Kill are scheduler-internal or handled
                // at the call site.
                _ => {}
            }
        }
    }

    /// Routes a queued kernel shootdown to every ATS (the IOMMU is
    /// trusted and always honours them).
    fn drain_shootdowns(&mut self) {
        for req in self.kernel.take_shootdowns() {
            for slot in &mut self.slots {
                slot.ats.shootdown(&req);
            }
        }
    }

    /// The kill path: report to the kernel (which kills the process and
    /// quarantines its frames under `KillProcess`), tell the scheduler,
    /// and start the drain. In-flight ops already past the border are
    /// unaffected — that is the drain's job.
    fn on_violation(
        &mut self,
        now: Cycle,
        accel: usize,
        tenant: usize,
        violation: Option<bc_os::Violation>,
    ) {
        self.violations += 1;
        if self.bound_tenant(accel) != Some(tenant)
            || !matches!(
                self.sched.state().tenants.get(tenant),
                Some(TenantPhase::Running(a)) if *a == accel
            )
        {
            return;
        }
        if let Some(v) = violation {
            let policy = self.kernel.report_violation(v);
            debug_assert_eq!(policy, ViolationPolicy::KillProcess);
        }
        self.recs[tenant].violated_at = Some(now.as_u64());
        let actions = self.sched.apply(SchedEvent::Violation { accel });
        self.run_actions(now, actions);
        self.drain_shootdowns();
    }

    /// Serves one border-crossing op: translate through the ATS, insert
    /// into the PT (Fig 3b), check at the border (Fig 3c), then move the
    /// data. Returns the reply.
    fn serve_access(
        &mut self,
        now: Cycle,
        accel: usize,
        tenant: usize,
        vpn: Vpn,
        write: bool,
    ) -> (Cycle, bool) {
        let asid = self.recs[tenant].asid;
        let resp = {
            let slot = &mut self.slots[accel];
            match slot
                .ats
                .translate(now, &mut self.kernel, &mut self.dram, asid, vpn)
            {
                Ok(r) => r,
                // A dead or unmapped address space: the OS refuses the
                // translation; no physical address is ever produced.
                Err(_) => return (now + 1, true),
            }
        };
        let mut t = resp.done;
        {
            let slot = &mut self.slots[accel];
            slot.bc
                .on_translation(t, &resp.entry, self.kernel.store_mut(), &mut self.dram);
            if let Some(a) = &mut slot.auditor {
                for i in 0..resp.entry.size.base_pages() {
                    a.grant(
                        resp.entry.ppn.add(i).as_u64(),
                        resp.entry.perms.readable(),
                        resp.entry.perms.writable(),
                    );
                }
            }
        }
        let req = MemRequest {
            ppn: resp.entry.ppn,
            write,
            asid: Some(asid),
        };
        let outcome = {
            let slot = &mut self.slots[accel];
            let o = slot
                .bc
                .check(t, req, self.kernel.store_mut(), &mut self.dram);
            if let Some(a) = &mut slot.auditor {
                a.check_decision(t.as_u64(), req.ppn.as_u64(), write, o.allowed);
            }
            o
        };
        // Teardown oracle: an *allowed* access landing on a quarantined
        // frame is stale authority, unless the claimer itself is the
        // tenant mid-teardown (its own in-flight tail). Only the slot's
        // auditor reads the answer, and the quarantine scan is not free.
        if outcome.allowed
            && self.slots[accel].auditor.is_some()
            && self.kernel.frame_quarantined(req.ppn)
        {
            let own_teardown = self.kernel.unfinished_teardowns().any(|a| a == asid);
            if !own_teardown {
                if let Some(a) = &mut self.slots[accel].auditor {
                    a.teardown_check(
                        now.as_u64(),
                        u64::from(asid.as_u16()),
                        Some(format!(
                            "asid {} allowed on quarantined frame {}",
                            asid.as_u16(),
                            req.ppn.as_u64()
                        )),
                    );
                }
            }
        }
        if outcome.allowed {
            let done = if write {
                self.dram.write_block(outcome.done, resp.entry.ppn.base())
            } else {
                self.dram.read_block(outcome.done, resp.entry.ppn.base())
            };
            t = outcome.done.max(done);
            (t, false)
        } else {
            self.on_violation(now, accel, tenant, outcome.violation);
            (outcome.done, true)
        }
    }

    /// One downgrade-and-restore against the tenant running on `accel`:
    /// write-protect a page (§3.2.4 flush-before-commit), then restore
    /// write permission. The pair is atomic from the machine's view —
    /// in-flight ops see either the pre-storm or post-restore state,
    /// both writable, so honest tenants are never killed by a storm.
    fn storm_accel(&mut self, now: Cycle, accel: usize) {
        let Some(tenant) = self.bound_tenant(accel) else {
            return;
        };
        if !matches!(
            self.sched.state().tenants.get(tenant),
            Some(TenantPhase::Running(a)) if *a == accel
        ) {
            return;
        }
        let asid = self.recs[tenant].asid;
        let vpn = Vpn::new(
            VirtAddr::new(TENANT_BASE_VA).vpn().as_u64()
                + self.storm_rng.below(self.cfg.pages_per_tenant),
        );
        let Ok(down) = self.kernel.protect_page(asid, vpn, PagePerms::READ_ONLY) else {
            return;
        };
        let mut t = now;
        let slot = &mut self.slots[accel];
        match slot.bc.downgrade_action(&down) {
            DowngradeAction::CommitNow => {}
            DowngradeAction::FlushPage(ppn) => {
                // The tenants accelerator model is cacheless (every
                // access crossed the border already), so the flush is a
                // single writeback slot, not a cache sweep.
                t = self.dram.write_block(t, ppn.base());
            }
            DowngradeAction::FlushAll => {}
        }
        slot.ats.shootdown(&down);
        t = slot
            .bc
            .commit_downgrade(t, &down, self.kernel.store_mut(), &mut self.dram);
        if let Some(a) = &mut slot.auditor {
            match slot.bc.config().flush_policy {
                bc_core::FlushPolicy::FullFlush => a.revoke_all(),
                bc_core::FlushPolicy::Selective => {
                    if let Some(ppn) = down.old_ppn {
                        a.set_perms(ppn.as_u64(), true, false);
                    }
                }
            }
        }
        // Restore: a pure upgrade, committed without flushing. The next
        // access re-translates and re-inserts fresh permissions.
        if let Ok(up) = self.kernel.protect_page(asid, vpn, PagePerms::READ_WRITE) {
            let slot = &mut self.slots[accel];
            slot.ats.shootdown(&up);
            slot.bc
                .commit_downgrade(t, &up, self.kernel.store_mut(), &mut self.dram);
        }
        self.drain_shootdowns();
        self.storms += 1;
    }

    /// Executes the teardown the scheduler ordered for `accel`: stream
    /// the PT zeroing writes, flush the IOTLB, dispose of the frames by
    /// reason, and schedule the completion event.
    fn teardown(&mut self, now: Cycle, accel: usize, tenant: usize, reason: DrainReason) {
        let asid = self.recs[tenant].asid;
        self.drain_shootdowns();
        let blocks = self.slots[accel].bc.detach_process(&mut self.kernel, asid);
        self.pt_zero_blocks += blocks;
        // The zeroing writes stream back-to-back as one burst; channel
        // occupancy bounds them, exactly like the engine's ZeroAll path.
        // Without a table there is nothing to zero and `t` stays `now`.
        let t = self.dram.write_blocks(now, blocks);
        self.slots[accel].ats.flush();
        if let Some(a) = &mut self.slots[accel].auditor {
            a.revoke_all();
        }
        match reason {
            DrainReason::Preempt => self.preempts += 1,
            DrainReason::Complete => {
                // Exit: release the address space; frames quarantine
                // until the scrub (this very teardown) completes.
                let _ = self.kernel.terminate(asid);
            }
            // The kernel already killed the process (and quarantined
            // its frames) when the violation was reported.
            DrainReason::Kill => {}
        }
        self.drain_shootdowns();
        self.send(self.comp, t.max(now + 1), TEvent::TeardownDone { accel });
    }

    fn handle(&mut self, now: Cycle, ev: TEvent) {
        self.last_cycle = self.last_cycle.max(now.as_u64());
        match ev {
            TEvent::Boot => {
                let actions = self.sched.dispatch_idle();
                self.run_actions(now, actions);
            }
            TEvent::Access {
                accel,
                vpn,
                write,
                probe,
            } => {
                if self.aborted {
                    return;
                }
                let Some(tenant) = self.bound_tenant(accel) else {
                    return;
                };
                if self.recs[tenant].dead {
                    if let Some(a) = &mut self.slots[accel].auditor {
                        a.teardown_check(
                            now.as_u64(),
                            u64::from(self.recs[tenant].asid.as_u16()),
                            Some("access arrived after teardown completed".to_string()),
                        );
                    }
                    return;
                }
                // Serve the op first (it was in flight before any probe
                // consequence), then let the probe trip the border.
                let (done, denied) = self.serve_access(now, accel, tenant, vpn, write);
                self.send(accel, done.max(now + 1), TEvent::OpDone { denied });
                if let Some(ppn) = probe {
                    self.probe(now, accel, tenant, ppn);
                }
            }
            TEvent::OpUnderflow { accel } => {
                if let Some(slot) = self.slots.get_mut(accel) {
                    if let Some(a) = &mut slot.auditor {
                        a.counter_underflow(
                            now.as_u64(),
                            "ops_left",
                            &format!("double op completion on accel {accel}"),
                        );
                    }
                }
            }
            TEvent::JobFinished { accel } => {
                let Some(tenant) = self.bound_tenant(accel) else {
                    return;
                };
                if matches!(
                    self.sched.state().tenants.get(tenant),
                    Some(TenantPhase::Running(a)) if *a == accel
                ) {
                    let actions = self.sched.apply(SchedEvent::JobDone { accel });
                    self.run_actions(now, actions);
                }
            }
            TEvent::Drained { accel, ops_left } => {
                let Some(tenant) = self.bound_tenant(accel) else {
                    return;
                };
                self.recs[tenant].ops_left = ops_left;
                let reason = match self.sched.state().tenants.get(tenant) {
                    Some(TenantPhase::Draining(_, r)) => *r,
                    _ => return,
                };
                let actions = self.sched.apply(SchedEvent::DrainComplete { accel });
                self.run_actions(now, actions);
                self.teardown(now, accel, tenant, reason);
            }
            TEvent::TeardownDone { accel } => {
                let Some(tenant) = self.bound_tenant(accel) else {
                    return;
                };
                let reason = match self.sched.state().tenants.get(tenant) {
                    Some(TenantPhase::TearingDown(_, r)) => *r,
                    _ => return,
                };
                let actions = self.sched.apply(SchedEvent::TeardownComplete { accel });
                self.run_actions(now, actions);
                let asid = self.recs[tenant].asid;
                match reason {
                    DrainReason::Preempt => {}
                    DrainReason::Complete => {
                        let released = self.kernel.finish_teardown(asid);
                        debug_assert!(released > 0, "exit released no frames");
                        self.recs[tenant].dead = true;
                        self.recs[tenant].completed_at = Some(now.as_u64());
                        if let Some(a) = &mut self.slots[accel].auditor {
                            a.teardown_check(now.as_u64(), u64::from(asid.as_u16()), None);
                        }
                    }
                    DrainReason::Kill => {
                        self.kernel.finish_teardown(asid);
                        self.recs[tenant].dead = true;
                        self.kills += 1;
                        // bc-lint: allow(saturating-counter) — kill
                        // latency metric; teardown finishes at or after
                        // the violation by construction.
                        let lat = self.recs[tenant]
                            .violated_at
                            .map_or(0, |v| now.as_u64().saturating_sub(v));
                        self.recs[tenant].kill_latency = Some(lat);
                        if let Some(a) = &mut self.slots[accel].auditor {
                            a.teardown_check(now.as_u64(), u64::from(asid.as_u16()), None);
                        }
                    }
                }
                let actions = self.sched.dispatch_idle();
                self.run_actions(now, actions);
            }
            TEvent::QuantumTick { accel } => {
                if now.as_u64() > self.cfg.max_cycles {
                    self.aborted = true;
                }
                if self.aborted || self.sched.is_terminal() {
                    return;
                }
                let preempt = self.bound_tenant(accel).is_some_and(|t| {
                    matches!(
                        self.sched.state().tenants.get(t),
                        Some(TenantPhase::Running(a)) if *a == accel
                    )
                }) && !self.sched.state().queue.is_empty();
                if preempt {
                    let actions = self.sched.apply(SchedEvent::QuantumExpired { accel });
                    self.run_actions(now, actions);
                }
                self.send(
                    self.comp,
                    now + self.cfg.quantum,
                    TEvent::QuantumTick { accel },
                );
            }
            TEvent::StormTick => {
                if now.as_u64() > self.cfg.max_cycles {
                    self.aborted = true;
                }
                if self.aborted || self.sched.is_terminal() {
                    return;
                }
                for accel in 0..self.slots.len() {
                    self.storm_accel(now, accel);
                }
                self.send(self.comp, now + self.cfg.storm_period, TEvent::StormTick);
            }
            TEvent::Bind { .. } | TEvent::OpDone { .. } | TEvent::DrainReq | TEvent::Tick => {
                debug_assert!(false, "accel event routed to the backend: {ev:?}");
            }
        }
    }

    /// A malicious wild-frame probe hitting the border. Purely physical:
    /// Border Control needs no ASID to refuse it.
    fn probe(&mut self, now: Cycle, accel: usize, tenant: usize, ppn: Ppn) {
        self.probes_attempted += 1;
        let asid = self.recs[tenant].asid;
        let req = MemRequest {
            ppn,
            write: true,
            asid: Some(asid),
        };
        let outcome = {
            let slot = &mut self.slots[accel];
            let o = slot
                .bc
                .check(now, req, self.kernel.store_mut(), &mut self.dram);
            if let Some(a) = &mut slot.auditor {
                a.check_decision(now.as_u64(), ppn.as_u64(), true, o.allowed);
            }
            o
        };
        if outcome.allowed {
            // The wild guess landed inside the tenant's own granted
            // frames — not a violation, just a wasted probe.
            self.probes_succeeded += 1;
        } else {
            self.probes_blocked += 1;
            self.on_violation(now, accel, tenant, outcome.violation);
        }
    }
}

/// Shard worker: owns the backend (shard 0) or a set of accel issue
/// engines, mirroring the single-tenant `System::run` decomposition.
/// `accels[i]` is accelerator `i` when this worker owns it.
struct TenantWorker<'a> {
    back: Option<&'a mut HostBackend>,
    accels: Vec<Option<&'a mut AccelComp>>,
}

impl ShardHandler<TEvent> for TenantWorker<'_> {
    fn handle(&mut self, comp: CompId, now: Cycle, ev: TEvent, out: &mut Outbox<'_, TEvent>) {
        match self.accels.get_mut(comp).and_then(Option::as_mut) {
            Some(a) => a.handle(now, ev, out),
            None => {
                let back = self
                    .back
                    .as_mut()
                    .expect("event routed to a shard owning neither backend nor accel");
                back.handle(now, ev);
                let mut msgs = std::mem::take(&mut back.outgoing);
                for (to, at, ev) in msgs.drain(..) {
                    out.send(to, at, ev);
                }
                back.outgoing = msgs;
            }
        }
    }
}

/// The assembled multi-tenant machine.
pub struct MultiTenantSystem {
    cfg: TenantsConfig,
    back: HostBackend,
    accels: Vec<AccelComp>,
}

impl MultiTenantSystem {
    /// Builds the machine: boots the kernel, creates and eagerly maps
    /// every tenant, wires one Border Control + ATS per accelerator, and
    /// seeds the scheduler with every tenant ready.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for zero-sized worlds or a physical memory
    /// too small to hold every tenant's working set.
    pub fn build(cfg: &TenantsConfig) -> Result<Self, BuildError> {
        if cfg.tenants == 0 || cfg.accels == 0 {
            return Err(BuildError::Config(
                "tenants and accels must both be nonzero".to_string(),
            ));
        }
        if cfg.pages_per_tenant == 0 || cfg.ops_per_tenant == 0 {
            return Err(BuildError::Config(
                "pages and ops per tenant must be nonzero".to_string(),
            ));
        }
        let need = (cfg.tenants as u64) * cfg.pages_per_tenant * 4096;
        if need + (4 << 20) > cfg.phys_bytes {
            return Err(BuildError::Config(format!(
                "phys_bytes {} too small for {} tenants x {} pages",
                cfg.phys_bytes, cfg.tenants, cfg.pages_per_tenant
            )));
        }
        let mut kernel = Kernel::new(KernelConfig {
            phys_bytes: cfg.phys_bytes,
            violation_policy: ViolationPolicy::KillProcess,
        });
        let mut build_rng = SimRng::seed_from(cfg.seed ^ 0x7E4A_4E75_5EED);
        let mut recs = Vec::with_capacity(cfg.tenants);
        for _ in 0..cfg.tenants {
            let asid = kernel.create_process();
            kernel
                .map_region(
                    asid,
                    VirtAddr::new(TENANT_BASE_VA),
                    cfg.pages_per_tenant,
                    PagePerms::READ_WRITE,
                )
                .map_err(BuildError::Os)?;
            recs.push(TenantRec {
                asid,
                ops_left: cfg.ops_per_tenant,
                malicious: build_rng.below(1000) < cfg.malicious_permille,
                binds: 0,
                violated_at: None,
                completed_at: None,
                kill_latency: None,
                dead: false,
            });
        }
        let total_frames = kernel.total_frames();
        let dram = Dram::new(DramConfig {
            backend: cfg.mem_backend,
            ..DramConfig::default()
        });
        let slots = (0..cfg.accels)
            .map(|i| {
                let mut auditor = cfg.audit.then(|| Auditor::new(false, 64));
                if let Some(a) = &mut auditor {
                    a.set_oracle_bounds(total_frames);
                }
                AccelSlotHw {
                    bc: BorderControl::new(i as u32, BorderControlConfig::default()),
                    ats: Ats::new(AtsConfig::default()),
                    auditor,
                }
            })
            .collect();
        let back = HostBackend {
            comp: cfg.accels,
            lookahead: cfg.lookahead.max(1),
            cfg: cfg.clone(),
            kernel,
            dram,
            slots,
            sched: Scheduler::new(cfg.tenants, cfg.accels),
            recs,
            storm_rng: SimRng::seed_from(cfg.seed ^ 0x0057_084D_71C4),
            outgoing: Vec::new(),
            aborted: false,
            last_cycle: 0,
            binds: 0,
            preempts: 0,
            kills: 0,
            pt_zero_blocks: 0,
            storms: 0,
            probes_attempted: 0,
            probes_blocked: 0,
            probes_succeeded: 0,
            violations: 0,
        };
        let accels = (0..cfg.accels)
            .map(|i| AccelComp {
                comp: i,
                back: cfg.accels,
                lookahead: cfg.lookahead.max(1),
                seed: cfg.seed,
                pages: cfg.pages_per_tenant,
                total_frames,
                probe_permille: cfg.probe_permille,
                write_permille: cfg.write_permille,
                base_vpn: VirtAddr::new(TENANT_BASE_VA).vpn().as_u64(),
                bound: None,
                ops_issued: 0,
            })
            .collect();
        Ok(MultiTenantSystem {
            cfg: cfg.clone(),
            back,
            accels,
        })
    }

    /// Runs the machine until every tenant terminates (or the cycle
    /// valve trips), returning the tail-latency report. Byte-identical
    /// at any [`TenantsConfig::shards`] setting.
    pub fn run(&mut self) -> TenantsReport {
        let components = self.accels.len() + 1;
        let back_comp = self.accels.len();
        let shards = self.cfg.shards.max(1).min(components);
        let mut assignment = vec![0usize; components];
        if shards > 1 {
            for (i, slot) in assignment.iter_mut().enumerate().take(back_comp) {
                *slot = 1 + (i % (shards - 1));
            }
        }
        let spec = ShardSpec {
            components,
            shards,
            assignment: assignment.clone(),
            lookahead: self.back.lookahead,
        };
        let mut engine = ShardEngine::new(spec);
        engine.seed(back_comp, Cycle::ZERO, TEvent::Boot);
        for accel in 0..self.accels.len() {
            // Small deterministic stagger so quanta don't all expire on
            // the same backend cycle.
            engine.seed(
                back_comp,
                Cycle::new(self.cfg.quantum + accel as u64),
                TEvent::QuantumTick { accel },
            );
        }
        if self.cfg.storm_period > 0 {
            engine.seed(
                back_comp,
                Cycle::new(self.cfg.storm_period),
                TEvent::StormTick,
            );
        }
        let run = {
            let n = self.accels.len();
            let mut workers: Vec<TenantWorker<'_>> = (0..shards)
                .map(|_| TenantWorker {
                    back: None,
                    accels: (0..n).map(|_| None).collect(),
                })
                .collect();
            workers[0].back = Some(&mut self.back);
            for (i, a) in self.accels.iter_mut().enumerate() {
                workers[assignment[i]].accels[i] = Some(a);
            }
            engine.run(&mut workers)
        };
        for v in &run.violations {
            match self.back.slots.first_mut().and_then(|s| s.auditor.as_mut()) {
                Some(a) => a.shard_order(v.now, v.src, v.dst, v.at, v.floor),
                None => debug_assert!(false, "sharded engine clamped a send: {v:?}"),
            }
        }
        self.report(run.dispatched)
    }

    fn report(&mut self, events: u64) -> TenantsReport {
        let mut completions: Vec<u64> = self
            .back
            .recs
            .iter()
            .filter_map(|r| r.completed_at)
            .collect();
        completions.sort_unstable();
        let mut kill_lats: Vec<u64> = self
            .back
            .recs
            .iter()
            .filter_map(|r| r.kill_latency)
            .collect();
        kill_lats.sort_unstable();
        let audit = self.cfg.audit.then(|| {
            let mut merged = AuditReport::default();
            for slot in &mut self.back.slots {
                if let Some(a) = &mut slot.auditor {
                    let r = a.take_report();
                    merged.assertions += r.assertions;
                    merged.findings.extend(r.findings);
                }
            }
            merged
        });
        TenantsReport {
            tenants: self.cfg.tenants,
            accels: self.cfg.accels,
            mem_backend: self.cfg.mem_backend.to_string(),
            seed: self.cfg.seed,
            cycles: self.back.last_cycle,
            events,
            completed: completions.len() as u64,
            killed: kill_lats.len() as u64,
            aborted: self.back.aborted,
            completion_p50: pct(&completions, 50),
            completion_p95: pct(&completions, 95),
            completion_p99: pct(&completions, 99),
            kill_p50: pct(&kill_lats, 50),
            kill_p95: pct(&kill_lats, 95),
            kill_p99: pct(&kill_lats, 99),
            binds: self.back.binds,
            preempts: self.back.preempts,
            pt_zero_blocks: self.back.pt_zero_blocks,
            storms: self.back.storms,
            probes: (
                self.back.probes_attempted,
                self.back.probes_blocked,
                self.back.probes_succeeded,
            ),
            violations: self.back.violations,
            checks: self.back.slots.iter().map(|s| s.bc.checks()).sum(),
            translations: self.back.slots.iter().map(|s| s.ats.translations()).sum(),
            walks: self.back.slots.iter().map(|s| s.ats.walks()).sum(),
            dram_reads: self.back.dram.reads(),
            dram_writes: self.back.dram.writes(),
            audit,
        }
    }
}

/// Nearest-rank percentile over an already-sorted sample (0 when empty).
fn pct(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Everything one multi-tenant run produced, tails first. Its canonical
/// JSON encoding (`bc_experiments::schema::encode_tenants_report`) keeps
/// the field order, so byte equality is a meaningful determinism check.
#[derive(Debug, Clone)]
pub struct TenantsReport {
    /// Tenant count (N).
    pub tenants: usize,
    /// Accelerator count (M).
    pub accels: usize,
    /// Memory backend label (`local-dram` / `cxl-pool`).
    pub mem_backend: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Last simulated cycle observed by the host.
    pub cycles: u64,
    /// Events dispatched by the engine.
    pub events: u64,
    /// Tenants that exited cleanly.
    pub completed: u64,
    /// Tenants killed on violation.
    pub killed: u64,
    /// Whether the cycle valve tripped before the scheduler terminated.
    pub aborted: bool,
    /// Median completion cycle across clean tenants.
    pub completion_p50: u64,
    /// 95th-percentile completion cycle.
    pub completion_p95: u64,
    /// 99th-percentile completion cycle (the queueing tail).
    pub completion_p99: u64,
    /// Median violation-to-teardown-complete kill latency.
    pub kill_p50: u64,
    /// 95th-percentile kill latency.
    pub kill_p95: u64,
    /// 99th-percentile kill latency.
    pub kill_p99: u64,
    /// Total binds (first-time plus re-binds after preemption).
    pub binds: u64,
    /// Preemption context switches.
    pub preempts: u64,
    /// Protection Table blocks zeroed across every teardown.
    pub pt_zero_blocks: u64,
    /// Downgrade storms executed.
    pub storms: u64,
    /// Malicious probes `(attempted, blocked, lucky)`.
    pub probes: (u64, u64, u64),
    /// Border violations observed.
    pub violations: u64,
    /// Border checks performed.
    pub checks: u64,
    /// ATS translations served.
    pub translations: u64,
    /// Page-table walks (IOTLB misses).
    pub walks: u64,
    /// DRAM block reads.
    pub dram_reads: u64,
    /// DRAM block writes.
    pub dram_writes: u64,
    /// Oracle report when [`TenantsConfig::audit`] was set.
    pub audit: Option<AuditReport>,
}

impl TenantsReport {
    /// Whether the audited run held every oracle assertion (vacuously
    /// true when auditing was off).
    #[must_use]
    pub fn audit_clean(&self) -> bool {
        self.audit.as_ref().is_none_or(AuditReport::is_clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(tenants: usize, accels: usize) -> TenantsConfig {
        TenantsConfig {
            tenants,
            accels,
            ops_per_tenant: 24,
            quantum: 1_500,
            storm_period: 900,
            malicious_permille: 0,
            audit: true,
            ..TenantsConfig::default()
        }
    }

    #[test]
    fn op_counter_never_wraps_on_double_completion() {
        // Normal decrements count down…
        assert_eq!(dec_op_counter(24), (23, false));
        assert_eq!(dec_op_counter(1), (0, false));
        // …and a completion past zero reports an underflow instead of
        // wrapping to u64::MAX (the old saturating clamp hid this).
        assert_eq!(dec_op_counter(0), (0, true));
    }

    #[test]
    fn every_honest_tenant_completes() {
        let cfg = tiny(6, 2);
        let r = MultiTenantSystem::build(&cfg).expect("build").run();
        assert!(!r.aborted, "valve tripped: {r:?}");
        assert_eq!(r.completed, 6);
        assert_eq!(r.killed, 0);
        assert_eq!(r.violations, 0);
        assert!(r.completion_p99 >= r.completion_p50);
        assert!(r.completion_p50 > 0);
        assert!(r.audit_clean(), "{r:?}");
    }

    #[test]
    fn preemption_multiplexes_more_tenants_than_accels() {
        let cfg = tiny(9, 2);
        let r = MultiTenantSystem::build(&cfg).expect("build").run();
        assert_eq!(r.completed, 9);
        assert!(r.preempts > 0, "no preemptions: {r:?}");
        assert!(r.binds > 9, "every preemption needs a re-bind");
        assert!(r.pt_zero_blocks > 0, "teardowns must zero the PT");
        assert!(r.audit_clean());
    }

    #[test]
    fn storms_never_kill_honest_tenants() {
        let mut cfg = tiny(8, 2);
        cfg.storm_period = 300;
        let r = MultiTenantSystem::build(&cfg).expect("build").run();
        assert!(r.storms > 0);
        assert_eq!(r.killed, 0, "storm killed an honest tenant: {r:?}");
        assert_eq!(r.completed, 8);
        assert!(r.audit_clean());
    }

    #[test]
    fn malicious_tenants_are_killed_and_siblings_survive() {
        let mut cfg = tiny(10, 2);
        cfg.malicious_permille = 300;
        cfg.probe_permille = 400;
        let r = MultiTenantSystem::build(&cfg).expect("build").run();
        assert!(r.killed > 0, "no malicious tenant got caught: {r:?}");
        assert_eq!(r.completed + r.killed, 10, "a tenant vanished");
        assert_eq!(r.probes.1, r.violations, "all violations come from probes");
        assert!(r.kill_p50 > 0, "kill latency must be visible");
        assert!(r.audit_clean(), "{r:?}");
    }

    #[test]
    fn shard_count_is_byte_invariant() {
        let mut cfg = tiny(7, 3);
        cfg.malicious_permille = 250;
        cfg.probe_permille = 300;
        let base = MultiTenantSystem::build(&cfg).expect("build").run();
        for shards in [2, 4] {
            let mut c = cfg.clone();
            c.shards = shards;
            let r = MultiTenantSystem::build(&c).expect("build").run();
            assert_eq!(
                format!("{base:?}"),
                format!("{r:?}"),
                "shards={shards} diverged"
            );
        }
    }

    #[test]
    fn cxl_pool_is_slower_than_local_dram() {
        let cfg = tiny(6, 2);
        let local = MultiTenantSystem::build(&cfg).expect("build").run();
        let mut cxl_cfg = cfg.clone();
        cxl_cfg.mem_backend = MemBackend::CxlPool;
        let cxl = MultiTenantSystem::build(&cxl_cfg).expect("build").run();
        assert!(
            cxl.completion_p50 > local.completion_p50,
            "cxl p50 {} <= local p50 {}",
            cxl.completion_p50,
            local.completion_p50
        );
        assert!(cxl.audit_clean());
    }

    #[test]
    fn reports_serialize_deterministically() {
        let cfg = tiny(4, 2);
        let a = MultiTenantSystem::build(&cfg).expect("build").run();
        let b = MultiTenantSystem::build(&cfg).expect("build").run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
