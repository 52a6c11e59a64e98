//! The assembled system and its discrete-event run loop.

use std::error::Error;
use std::fmt;

use bc_accel::Gpu;
use bc_cache::mshr::{MshrOutcome, MshrTable};
use bc_cache::set_assoc::{Access, LookupResult};
use bc_core::{BorderControl, DowngradeAction, MemRequest};
use bc_iommu::Ats;
use bc_mem::addr::{Asid, PhysAddr, Vpn};
use bc_mem::dram::Dram;
use bc_mem::perms::PagePerms;
use bc_mem::{VirtAddr, WriteOrigin};
use bc_os::{
    Kernel, KernelConfig, OsError, ShootdownRequest, ShootdownScope, Violation, ViolationPolicy,
};
use bc_sim::audit::Auditor;
use bc_sim::shard::{CompId, Outbox, ShardEngine, ShardHandler, ShardSpec};
use bc_sim::snapshot::{Codec, Snap, SnapError, SnapReader, SnapWriter};
use bc_sim::trace::{TraceKind, Tracer};
use bc_sim::{Cycle, SimRng};
use bc_workloads::{by_name, BlockAccess, BlockList, BASE_VA};

use crate::config::SystemConfig;
use crate::frontend::{phys_block_from_entry, Event, Frontend, FrontendParams};
use crate::host::{CpuLookup, HostCpu};
use crate::report::{AbortReason, RunReport};
use crate::safety::SafetyModel;

/// Errors from [`System::build`].
#[derive(Debug)]
pub enum BuildError {
    /// The workload name matches nothing in the suite.
    UnknownWorkload(String),
    /// Kernel setup failed.
    Os(OsError),
    /// The configured ATS geometry cannot be built.
    Ats(bc_iommu::AtsConfigError),
    /// A configuration value is out of range or inconsistent.
    Config(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownWorkload(w) => write!(f, "unknown workload '{w}'"),
            BuildError::Os(e) => write!(f, "kernel setup failed: {e}"),
            BuildError::Ats(e) => write!(f, "ATS setup failed: {e}"),
            BuildError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Os(e) => Some(e),
            BuildError::Ats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OsError> for BuildError {
    fn from(e: OsError) -> Self {
        BuildError::Os(e)
    }
}

impl From<bc_iommu::AtsConfigError> for BuildError {
    fn from(e: bc_iommu::AtsConfigError) -> Self {
        BuildError::Ats(e)
    }
}

/// Splits a footprint of `pages` pages into `(read_only, read_write)`
/// counts by the workload's writable fraction. An f64 multiply here used
/// to under/over-count a page on large footprints; scale the fraction to
/// 1/2^32 units once, then stay in integers (round to nearest, and
/// `ro + rw == pages` by construction).
// bc-lint: allow(float) — config fraction is converted to 1/2^32
// fixed-point exactly once, at build time, before any event runs.
fn split_footprint(pages: u64, writable_fraction: f64) -> (u64, u64) {
    let wf_fp = (writable_fraction.clamp(0.0, 1.0) * (1u64 << 32) as f64).round() as u64;
    let rw = (((pages as u128 * wf_fp as u128) + (1 << 31)) >> 32).min(pages as u128) as u64;
    (pages - rw, rw)
}

/// The full simulated machine.
///
/// Build one from a [`SystemConfig`], then [`System::run`] it to
/// completion; see the crate-level example.
///
/// Internally the machine is decomposed into logical components of the
/// sharded engine ([`bc_sim::shard`]): when the safety model keeps
/// per-CU L1s, each CU cluster becomes a [`Frontend`] and everything
/// shared (L2, MSHRs, Border Control, IOMMU, DRAM, host CPU, OS) stays
/// in the [`Backend`]. [`SystemConfig::shards`] spreads the components
/// over worker threads; simulated timing is identical at any count.
pub struct System {
    pub(crate) back: Backend,
    pub(crate) frontends: Vec<Frontend>,
    /// Engine calendar captured at a warm-start cut ([`System::restore`]),
    /// consumed by the next [`System::run`] instead of fresh seeding.
    resume: Option<ResumeState>,
}

/// The sharded engine's pending calendar at a warm-start cut. Component
/// ids and `(src, seq)` dispatch keys are logical properties of the run,
/// so a snapshot restores under any [`SystemConfig::shards`] setting.
struct ResumeState {
    pending: Vec<bc_sim::shard::PendingEvent<Event>>,
    out_seqs: Vec<u64>,
}

/// The shared side of the machine (plus, for centralized safety models,
/// the whole machine): everything behind the accelerator's on-chip
/// interconnect, driven as one logical component of the sharded engine.
pub(crate) struct Backend {
    config: SystemConfig,
    kernel: Kernel,
    dram: Dram,
    ats: Ats,
    bc: Option<BorderControl>,
    gpu: Gpu,
    asid: Asid,
    now: Cycle,
    stall_until: Cycle,
    ops: u64,
    block_accesses: u64,
    events_dispatched: u64,
    violations: Vec<Violation>,
    aborted: bool,
    abort_reason: Option<AbortReason>,
    accel_disabled: bool,
    downgrades_done: u64,
    probes_attempted: u64,
    probes_blocked: u64,
    probes_succeeded: u64,
    footprint_pages: u64,
    rng: SimRng,
    iommu_port: bc_sim::resource::Channels,
    l2_port: bc_sim::resource::Channels,
    cu_ports: Vec<bc_sim::resource::Port>,
    /// Completion times of in-flight writebacks (finite buffer).
    wb_queue: std::collections::VecDeque<Cycle>,
    /// L2 miss-status holding registers.
    l2_mshr: MshrTable,
    /// Bounded post-mortem event trace.
    tracer: Tracer,
    /// Host CPU actor (coherence studies), if enabled.
    host: Option<HostCpu>,
    host_private_base: VirtAddr,
    shared_base: VirtAddr,
    shared_bytes: u64,
    /// Runtime invariant auditor, when [`SystemConfig::audit`] is set.
    auditor: Option<Auditor>,
    /// Reusable eviction buffer for downgrade flushes: a downgrade storm
    /// stops allocating a fresh `Vec` per flush.
    flush_scratch: Vec<bc_cache::set_assoc::Evicted>,
    /// Cross-component latency floor == the engine's lookahead window.
    lookahead: u64,
    /// Number of per-CU frontend components (0 = centralized machine).
    n_frontends: usize,
    /// Wavefronts that reported `WfDone` (decomposed termination).
    done_wfs: u64,
    total_wfs: u64,
    /// Messages produced by the current dispatch, drained into the
    /// engine's outbox by the shard worker (self-sends included).
    outgoing: Vec<(CompId, Cycle, Event)>,
    /// Latest in-flight `TlbFill` arrival at any frontend. A mapping
    /// downgrade must quiesce past this horizon before committing, or a
    /// block resumed by an old-permission fill could cross the border
    /// after the Protection Table was rewritten.
    fill_horizon: Cycle,
    /// Injected downgrades sitting between their quiesce broadcast and
    /// the Protection-Table commit.
    pending_commits: u32,
    /// Translation requests that arrived during a downgrade quiesce
    /// window; served in arrival order once the commit lands, so their
    /// fills carry post-commit permissions.
    deferred_translates: Vec<(usize, Vpn)>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("safety", &self.back.config.safety)
            .field("workload", &self.back.config.workload)
            .field("now", &self.back.now)
            .field("ops", &self.back.ops)
            .finish_non_exhaustive()
    }
}

impl Backend {
    /// Builds the centralized machine described by `config` (the caller
    /// then peels per-CU frontends off it when the safety model keeps
    /// L1s): boots the kernel, creates the workload process and its
    /// memory areas, constructs the GPU per Table 2's structure for the
    /// chosen safety model, and (for Border Control configurations)
    /// allocates the Protection Table.
    fn build(
        config: &SystemConfig,
        source: &dyn bc_workloads::StreamSource,
    ) -> Result<Self, BuildError> {
        let workload = by_name(&config.workload, config.size)
            .ok_or_else(|| BuildError::UnknownWorkload(config.workload.clone()))?;

        let mut kernel = Kernel::new(KernelConfig {
            phys_bytes: config.phys_bytes,
            violation_policy: config.violation_policy,
        });
        let asid = kernel.create_process();

        // Map the workload footprint: a read-only head (inputs/weights)
        // and a writable tail, per the workload's declared split.
        let footprint = workload.footprint_bytes();
        let pages = footprint.div_ceil(bc_mem::PAGE_SIZE);
        let base = VirtAddr::new(BASE_VA);
        if config.use_huge_pages {
            // §3.4.4: the whole footprint in eagerly-backed 2 MiB pages.
            // Permission granularity is 2 MiB, so the RO/RW split is
            // dropped and everything is mapped writable.
            let huge = pages.div_ceil(512);
            kernel.map_region_2m(asid, base, huge, PagePerms::READ_WRITE)?;
        } else {
            let (ro_pages, _) = split_footprint(pages, workload.writable_fraction());
            if ro_pages > 0 {
                kernel.map_lazy_region(asid, base, ro_pages, PagePerms::READ_ONLY)?;
            }
            if pages > ro_pages {
                kernel.map_lazy_region(
                    asid,
                    VirtAddr::new(BASE_VA + ro_pages * bc_mem::PAGE_SIZE),
                    pages - ro_pages,
                    PagePerms::READ_WRITE,
                )?;
            }
            // The CPU stages input data before launching the kernel (the
            // Rodinia workloads initialize buffers host-side), so the
            // pages are already faulted in when the accelerator starts:
            // GPU-side demand faults would otherwise serialize on the
            // page walkers and dominate runtime in every configuration
            // equally.
            for p in 0..pages {
                kernel
                    .touch(asid, base.vpn().add(p))
                    .map_err(BuildError::Os)?;
            }
        }

        // Host-CPU actor: its private working set lives in the same
        // address space, far from the workload buffers.
        let host_private_base = VirtAddr::new(0x9_0000_0000);
        let host = match config.host_activity {
            Some(activity) => {
                let pages = activity.private_bytes.div_ceil(bc_mem::PAGE_SIZE).max(1);
                kernel.map_lazy_region(asid, host_private_base, pages, PagePerms::READ_WRITE)?;
                for p in 0..pages {
                    kernel
                        .touch(asid, host_private_base.vpn().add(p))
                        .map_err(BuildError::Os)?;
                }
                Some(HostCpu::new(activity, config.seed))
            }
            None => None,
        };

        let gpu = Gpu::new_with_source(
            config.effective_gpu_config(),
            config.behavior,
            workload.as_ref(),
            config.seed,
            source,
        );

        let bc = match config.effective_bc_config() {
            Some(bc_config) => {
                let mut engine = BorderControl::new(0, bc_config);
                engine.attach_process(&mut kernel, asid)?;
                Some(engine)
            }
            None => None,
        };

        // Invariant auditor: pure observation of the run. Findings panic
        // under debug builds (tests) and accumulate into the report
        // otherwise (sweeps capture worker panics as error rows either
        // way). The permission oracle activates only when a Border
        // Control engine exists to compare against; the timing monitors
        // run for every safety model.
        let auditor = config.audit.then(|| {
            let mut a = Auditor::new(cfg!(debug_assertions), config.writeback_buffer);
            if bc.is_some() {
                a.set_oracle_bounds(kernel.total_frames());
            }
            kernel.store_mut().set_accel_write_logging(true);
            a
        });

        let cu_count = gpu.cus.len();
        let total_wfs = gpu.cus.iter().map(|cu| cu.wavefronts.len() as u64).sum();
        Ok(Backend {
            ats: Ats::try_new(config.ats)?,
            dram: Dram::new(config.dram),
            kernel,
            bc,
            gpu,
            asid,
            now: Cycle::ZERO,
            stall_until: Cycle::ZERO,
            ops: 0,
            block_accesses: 0,
            events_dispatched: 0,
            violations: Vec::new(),
            aborted: false,
            abort_reason: None,
            accel_disabled: false,
            downgrades_done: 0,
            probes_attempted: 0,
            probes_blocked: 0,
            probes_succeeded: 0,
            footprint_pages: pages,
            rng: SimRng::seed_from(config.seed ^ 0x5157_5445),
            iommu_port: bc_sim::resource::Channels::new(config.iommu_ports),
            l2_port: bc_sim::resource::Channels::new(config.l2_ports),
            cu_ports: vec![bc_sim::resource::Port::new(); cu_count],
            wb_queue: std::collections::VecDeque::new(),
            l2_mshr: MshrTable::new(config.l2_mshrs),
            tracer: Tracer::new(config.trace, 256),
            host,
            host_private_base,
            shared_base: base,
            shared_bytes: footprint,
            auditor,
            flush_scratch: Vec::new(),
            lookahead: config.cluster_hop_latency.max(1),
            n_frontends: 0,
            done_wfs: 0,
            total_wfs,
            outgoing: Vec::new(),
            fill_horizon: Cycle::ZERO,
            pending_commits: 0,
            deferred_translates: Vec::new(),
            config: config.clone(),
        })
    }

    /// Global completion: every wavefront drained. The decomposed machine
    /// counts `WfDone` notifications; the centralized one asks the GPU.
    fn done(&self) -> bool {
        if self.n_frontends > 0 {
            self.done_wfs >= self.total_wfs
        } else {
            self.gpu.all_done()
        }
    }

    /// The backend's own component id (frontends occupy `0..n_frontends`).
    fn comp_id(&self) -> CompId {
        self.n_frontends
    }

    /// Dispatches one backend event, mirroring the old single-queue run
    /// loop: the abort/completion drop, the cycle valve, then the event
    /// itself. A posted store's `L2Req` is exempt from the completion
    /// drop — the serial loop processed a final op's trailing stores
    /// inline before the last wavefront flipped `done`.
    fn handle(&mut self, t: Cycle, ev: Event) {
        let posted_store = matches!(ev, Event::L2Req { write: true, .. });
        if self.aborted || (self.done() && !posted_store) {
            return;
        }
        if t.as_u64() > self.config.max_cycles {
            self.aborted = true;
            self.abort_reason = Some(AbortReason::CycleLimit);
            return;
        }
        // Termination bookkeeping, not a simulated event (its serial
        // equivalent was a flag flip inside the wavefront step).
        if matches!(ev, Event::WfDone) {
            self.done_wfs += 1;
            return;
        }
        if let Some(a) = &mut self.auditor {
            a.event_dispatched(self.now.as_u64(), t.as_u64());
        }
        self.now = t;
        self.events_dispatched += 1;
        match ev {
            Event::WavefrontReady { cu, wf } => self.step_wavefront(cu, wf),
            Event::IssueOp { cu, wf } => {
                let op = self.gpu.cus[cu].wavefronts[wf]
                    .in_flight
                    .take()
                    .expect("IssueOp event with no op in flight");
                self.issue_op(cu, wf, &op);
            }
            Event::Downgrade => self.inject_downgrade(),
            Event::CommitDowngrade { vpn } => self.commit_injected_downgrade(vpn),
            Event::CpuTick => self.cpu_tick(),
            Event::Translate { cu, vpn } => self.translate_for(cu, vpn),
            Event::L2Req {
                cu,
                wf,
                block,
                pa,
                write,
            } => self.l2_req(cu, wf, block, pa, write),
            Event::Probe { ppn, write } => {
                let at = self.now;
                self.issue_probe(at, ppn, write);
            }
            ev => unreachable!("frontend-only event routed to the backend: {ev:?}"),
        }
    }

    /// Schedules a backend self-event, auditing that nothing is ever
    /// scheduled in the past.
    fn schedule(&mut self, at: Cycle, ev: Event) {
        if let Some(a) = &mut self.auditor {
            a.event_scheduled(self.now.as_u64(), at.as_u64());
        }
        let comp = self.comp_id();
        self.outgoing.push((comp, at, ev));
    }

    /// Sends a reply/broadcast to a frontend. Arrival respects the
    /// interconnect's latency floor: a response computed for an earlier
    /// cycle still takes the hop.
    fn send_front(&mut self, cu: usize, at: Cycle, ev: Event) {
        let at = at.max(self.now + self.lookahead);
        if let Some(a) = &mut self.auditor {
            a.event_scheduled(self.now.as_u64(), at.as_u64());
        }
        self.outgoing.push((cu, at, ev));
    }

    /// Broadcasts a control event to every frontend (no-op when the
    /// machine is centralized).
    fn broadcast(&mut self, ev: Event) {
        for cu in 0..self.n_frontends {
            self.send_front(cu, self.now + self.lookahead, ev.clone());
        }
    }

    /// Raises the downgrade-drain stall horizon and tells the frontends.
    fn raise_stall(&mut self, until: Cycle) {
        if until > self.stall_until {
            self.stall_until = until;
            self.broadcast(Event::StallHorizon { until });
        }
    }

    // ---- decomposed-machine request handlers ----------------------------

    /// An L1-TLB miss forwarded by a frontend: translate at the IOMMU/ATS
    /// and report the granted translation to Border Control (Fig 3b),
    /// exactly as the serial TLB-miss path did, then answer the cluster.
    fn translate_for(&mut self, cu: usize, vpn: Vpn) {
        // A pending mapping downgrade holds translation service (the
        // IOMMU's invalidation epoch): answering now would hand out a
        // pre-commit entry whose blocks could cross the border after the
        // Protection Table changed underneath them.
        if self.pending_commits > 0 {
            self.deferred_translates.push((cu, vpn));
            return;
        }
        let now = self.now;
        let resp = match self
            .ats
            .translate(now, &mut self.kernel, &mut self.dram, self.asid, vpn)
        {
            Ok(r) => r,
            Err(e) => {
                self.on_fatal_os_error(now, e);
                return;
            }
        };
        if let Some(bc) = &mut self.bc {
            bc.on_translation(now, &resp.entry, self.kernel.store_mut(), &mut self.dram);
            self.audit_translation_granted(&resp.entry);
        }
        self.fill_horizon = self.fill_horizon.max(resp.done.max(now + self.lookahead));
        self.send_front(cu, resp.done, Event::TlbFill { entry: resp.entry });
    }

    /// A frontend access crossing to the shared L2 (read fill or posted
    /// store). Reads are answered with their completion time; stores are
    /// posted, so nothing is waiting.
    fn l2_req(&mut self, cu: usize, wf: usize, block: u8, pa: PhysAddr, write: bool) {
        let now = self.now;
        let done = self.l2_and_memory(now, pa, write);
        if !write && !self.aborted {
            self.send_front(cu, done, Event::BlockDone { wf, block, done });
        }
    }

    // ---- wavefront stepping ---------------------------------------------

    fn step_wavefront(&mut self, cu: usize, wf: usize) {
        // Downgrade-drain stall: re-queue the issue.
        if self.now < self.stall_until {
            let at = self.stall_until;
            self.schedule(at, Event::WavefrontReady { cu, wf });
            return;
        }

        let (op, ops_issued) = {
            let wave = &mut self.gpu.cus[cu].wavefronts[wf];
            if wave.done {
                return;
            }
            if let Some(limit) = self.config.max_ops_per_wavefront {
                if wave.ops_issued >= limit {
                    wave.done = true;
                    return;
                }
            }
            match wave.stream.next_op() {
                Some(op) => {
                    wave.ops_issued += 1;
                    (op, wave.ops_issued)
                }
                None => {
                    wave.done = true;
                    return;
                }
            }
        };

        self.ops += 1;
        let _ = ops_issued;
        // The compute unit's shared issue pipeline executes this op's
        // compute slots (`think` instruction cycles) before the memory
        // accesses issue; wavefronts on the same CU contend for it, which
        // bounds per-CU throughput like a real GPU pipeline. The memory
        // accesses are deferred to an `IssueOp` event at the pipeline's
        // completion time so that shared resources (DRAM channels, the
        // IOMMU, Border Control) always observe arrivals in time order.
        let issue_at = self.cu_ports[cu].serve(self.now, op.think.max(1));
        self.gpu.cus[cu].wavefronts[wf].in_flight = Some(op);
        self.schedule(issue_at, Event::IssueOp { cu, wf });
    }

    fn issue_op(&mut self, cu: usize, wf: usize, op: &bc_workloads::WarpOp) {
        let at = self.now;
        let mut completion = at + 1;
        for access in &op.blocks {
            self.block_accesses += 1;
            let done = self.block_access(at, *access);
            completion = completion.max(done);
            if self.aborted {
                return;
            }
        }

        // Malicious hardware: forge a physical probe alongside real work.
        let ops_issued = self.gpu.cus[cu].wavefronts[wf].ops_issued;
        if let Some((ppn, write)) = self.gpu.maybe_probe(ops_issued, self.kernel.total_frames()) {
            self.issue_probe(at, ppn, write);
            if self.aborted {
                return;
            }
        }

        self.schedule(completion, Event::WavefrontReady { cu, wf });
    }

    /// One coalesced block access through a centralized model's memory
    /// path. Returns the wavefront-visible completion time (stores are
    /// posted and complete at issue).
    fn block_access(&mut self, at: Cycle, access: BlockAccess) -> Cycle {
        match self.config.safety {
            SafetyModel::FullIommu => self.access_full_iommu(at, access),
            SafetyModel::CapiLike => self.access_capi(at, access),
            SafetyModel::AtsOnlyIommu
            | SafetyModel::BorderControlNoBcc
            | SafetyModel::BorderControlBcc => {
                unreachable!("direct models issue on their frontends, not the backend")
            }
        }
    }

    /// Full IOMMU: every request is translated and checked at the IOMMU;
    /// no accelerator caches exist.
    fn access_full_iommu(&mut self, at: Cycle, access: BlockAccess) -> Cycle {
        let vpn = access.va.vpn();
        // Every request rides the interconnect to the distant IOMMU and
        // occupies one of its translation pipelines.
        let at = self.iommu_port.serve(
            at + self.config.iommu_hop_latency,
            self.config.iommu_service,
        );
        let resp = match self
            .ats
            .translate(at, &mut self.kernel, &mut self.dram, self.asid, vpn)
        {
            Ok(r) => r,
            Err(e) => return self.on_fatal_os_error(at, e),
        };
        // The IOMMU enforces permissions on the translated request.
        if !bc_core::proto::access_allowed(resp.entry.perms, access.write) {
            return resp.done; // dropped by trusted hardware
        }
        let pa = phys_block_from_entry(&resp.entry, access.va);
        if access.write {
            self.dram.write_block(resp.done, pa);
            resp.done
        } else {
            self.dram.read_block(resp.done, pa)
        }
    }

    /// CAPI-like: trusted shared L2 + trusted TLB, both with a distance
    /// penalty; no private L1s; no Border Control needed.
    fn access_capi(&mut self, at: Cycle, access: BlockAccess) -> Cycle {
        let penalty = self.config.trusted_distance_penalty;
        let vpn = access.va.vpn();
        let resp = match self
            .ats
            .translate(at, &mut self.kernel, &mut self.dram, self.asid, vpn)
        {
            Ok(r) => r,
            Err(e) => return self.on_fatal_os_error(at, e),
        };
        if !bc_core::proto::access_allowed(resp.entry.perms, access.write) {
            return resp.done;
        }
        let t = self.l2_port.serve(resp.done + penalty, 1);
        let pa = phys_block_from_entry(&resp.entry, access.va);
        let l2_latency = self.gpu.config.l2_latency + penalty;
        let result = self
            .gpu
            .l2
            .as_mut()
            .expect("CAPI keeps a (trusted) L2")
            .access(
                pa,
                if access.write {
                    Access::Write
                } else {
                    Access::Read
                },
            );
        match result {
            LookupResult::Hit => {
                let done = t + l2_latency;
                if access.write {
                    t
                } else {
                    done
                }
            }
            LookupResult::Miss { victim, .. } => {
                let mut t = t + l2_latency;
                if let Some(v) = victim {
                    if v.dirty {
                        // Trusted hardware: no border check, but the
                        // victim still needs a writeback-buffer slot.
                        let admit = self.wb_admit(t);
                        let retire = self.dram.write_block(admit, v.addr);
                        self.wb_queue.push_back(retire);
                        if let Some(a) = &mut self.auditor {
                            a.completion("writeback", admit.as_u64(), retire.as_u64());
                            a.writeback_occupancy(admit.as_u64(), self.wb_queue.len());
                        }
                        t = admit;
                    }
                }
                let fill_done = self.dram.read_block(t, pa);
                if access.write {
                    t
                } else {
                    fill_done
                }
            }
        }
    }

    /// Shared L2 plus the border crossing to memory.
    fn l2_and_memory(&mut self, at: Cycle, pa: PhysAddr, write: bool) -> Cycle {
        let at = self.l2_port.serve(at, 1);
        let kind = if write { Access::Write } else { Access::Read };
        let result = self
            .gpu
            .l2
            .as_mut()
            .expect("direct configurations keep an L2")
            .access(pa, kind);
        let t = at + self.gpu.config.l2_latency;
        match result {
            LookupResult::Hit => t,
            LookupResult::Miss { victim, .. } => {
                let mut t = t;
                if let Some(v) = victim {
                    if v.dirty {
                        // The fill cannot proceed until the victim has a
                        // writeback-buffer slot.
                        t = self.border_write(t, v.addr);
                    }
                }
                // An MSHR tracks the outstanding fill; a full table
                // stalls the requester until a slot retires. (Duplicate
                // in-flight fills are rare here because the tag array is
                // updated at access time; the capacity bound is the
                // constraint that matters.)
                let block = pa.block_index();
                let t = match self.l2_mshr.register(t, block) {
                    MshrOutcome::NewMiss => t,
                    MshrOutcome::MergedWith(done) => return done,
                    MshrOutcome::StallUntil(until) => {
                        self.l2_mshr.register(until, block);
                        until
                    }
                };
                // The fill crosses the border as a read (GetS) or a
                // write-allocate fetch (GetM); either way the null
                // directory snoops the host CPU's caches first.
                let t = self.snoop_host(t, pa, write);
                let done = self.border_read(t, pa);
                self.l2_mshr.fill_issued(block, done);
                done
            }
        }
    }

    /// A read request crossing the border (L2 miss fill). With Border
    /// Control, the permission check proceeds in parallel with the data
    /// fetch (§3.1.1) and the data is released only once both complete.
    fn border_read(&mut self, at: Cycle, pa: PhysAddr) -> Cycle {
        match &mut self.bc {
            None => self.dram.read_block(at, pa),
            Some(bc) => {
                if bc.config().parallel_read_check {
                    let data_done = self.dram.read_block(at, pa);
                    let out = bc.check(
                        at,
                        MemRequest {
                            ppn: pa.ppn(),
                            write: false,
                            asid: Some(self.asid),
                        },
                        self.kernel.store_mut(),
                        &mut self.dram,
                    );
                    self.audit_check(at, pa, false, out.allowed);
                    if !out.allowed {
                        let v = out.violation.expect("denied check carries violation");
                        self.on_violation(v);
                        return out.done;
                    }
                    data_done.max(out.done)
                } else {
                    // Ablation: serialize check before fetch.
                    let out = bc.check(
                        at,
                        MemRequest {
                            ppn: pa.ppn(),
                            write: false,
                            asid: Some(self.asid),
                        },
                        self.kernel.store_mut(),
                        &mut self.dram,
                    );
                    self.audit_check(at, pa, false, out.allowed);
                    if !out.allowed {
                        let v = out.violation.expect("denied check carries violation");
                        self.on_violation(v);
                        return out.done;
                    }
                    self.dram.read_block(out.done, pa)
                }
            }
        }
    }

    /// Admits a writeback into the finite writeback buffer, returning the
    /// instant a slot is available (the triggering access waits for it).
    fn wb_admit(&mut self, at: Cycle) -> Cycle {
        while let Some(&front) = self.wb_queue.front() {
            if front <= at {
                self.wb_queue.pop_front();
            } else {
                break;
            }
        }
        if self.wb_queue.len() >= self.config.writeback_buffer {
            // Wait for the oldest in-flight writeback to retire.
            self.wb_queue.pop_front().expect("non-empty").max(at)
        } else {
            at
        }
    }

    /// A write(back) crossing the border. The GPU does not wait for the
    /// write itself, but the block holds a writeback-buffer slot until
    /// its permission check *and* DRAM write complete — a full buffer
    /// back-pressures the evicting access. A denied writeback is dropped
    /// and reported (§3.2.4: "This will raise a permission error, and the
    /// writeback will be blocked").
    ///
    /// Returns the instant the triggering access may proceed (buffer
    /// admission), not the write's completion. Callers that must order
    /// against the write's *retire* time (the null directory's dirty
    /// recall) use [`Self::border_write_timed`].
    fn border_write(&mut self, at: Cycle, pa: PhysAddr) -> Cycle {
        self.border_write_timed(at, pa).0
    }

    /// As [`Self::border_write`], returning both `(admission, retire)`:
    /// the slot-available instant the evicting access waits for, and the
    /// instant the block's check + DRAM write actually completed.
    fn border_write_timed(&mut self, at: Cycle, pa: PhysAddr) -> (Cycle, Cycle) {
        let admit = self.wb_admit(at);
        let retire = match &mut self.bc {
            None => self.dram.write_block(admit, pa),
            Some(bc) => {
                let out = bc.check(
                    admit,
                    MemRequest {
                        ppn: pa.ppn(),
                        write: true,
                        asid: Some(self.asid),
                    },
                    self.kernel.store_mut(),
                    &mut self.dram,
                );
                self.audit_check(admit, pa, true, out.allowed);
                if out.allowed {
                    self.dram.write_block(out.done, pa)
                } else {
                    let v = out.violation.expect("denied check carries violation");
                    self.on_violation(v);
                    out.done
                }
            }
        };
        self.wb_queue.push_back(retire);
        if let Some(a) = &mut self.auditor {
            a.completion("writeback", admit.as_u64(), retire.as_u64());
            a.writeback_occupancy(admit.as_u64(), self.wb_queue.len());
        }
        (admit, retire)
    }

    // ---- CPU <-> GPU coherence (null directory, §5.1) ----------------------

    /// Before a GPU fill, the null directory checks the host CPU's
    /// caches; a dirty host copy is written back (and invalidated on
    /// GetM / downgraded on GetS) before the GPU may read memory.
    fn snoop_host(&mut self, at: Cycle, pa: PhysAddr, gpu_writes: bool) -> Cycle {
        let Some(host) = &mut self.host else {
            return at;
        };
        if let Some(dirty) = host.snoop(pa, gpu_writes) {
            // Trusted CPU writeback straight to DRAM; the GPU's fill
            // waits for the data to land.
            return self.dram.write_block(at, dirty);
        }
        at
    }

    /// One host-CPU memory operation: translate (trusted MMU), look up
    /// the CPU hierarchy, and on a miss recall any dirty GPU copy through
    /// the border before reading memory.
    fn cpu_tick(&mut self) {
        if self.done() || self.aborted {
            return;
        }
        let Some(host) = &mut self.host else { return };
        let (va, mut write, _shared) =
            host.next_access(self.shared_base, self.shared_bytes, self.host_private_base);
        let period = host.config().period;

        if let Ok(tr) = self.kernel.translate(self.asid, va.vpn()) {
            if write && !tr.perms.writable() {
                write = false; // host respects its own page table
            }
            let pa = tr.ppn.byte(va.page_offset()).block_aligned();
            let host = self.host.as_mut().expect("still present");
            if let CpuLookup::Miss { victim_dirty } = host.access(pa, write) {
                let t = self.now;
                if let Some(v) = victim_dirty {
                    self.dram.write_block(t, v);
                }
                // Null directory: recall the block from the GPU, then
                // fill the CPU's miss from memory.
                let t = self.recall_from_gpu(t, pa, write);
                self.dram.read_block(t, pa);
            }
        }

        let next = self.now + period;
        self.schedule(next, Event::CpuTick);
    }

    /// Null-directory recall of one block from the GPU on a host-CPU
    /// miss. Dirty GPU data crosses the *border* on its way back — and is
    /// checked like any other accelerator writeback. Returns the instant
    /// the CPU's memory read may issue: for a dirty recall that is the
    /// writeback's *retire* time ([`Self::border_write`] returns buffer
    /// admission, which is too early — reading then would return the
    /// stale pre-writeback block).
    fn recall_from_gpu(&mut self, t: Cycle, pa: PhysAddr, write: bool) -> Cycle {
        let gpu_has_dirty = self
            .gpu
            .l2
            .as_ref()
            .map(|l2| l2.is_dirty(pa))
            .unwrap_or(false);
        let plan = bc_core::proto::recall_plan(write, gpu_has_dirty);
        if plan.invalidate_l1s {
            // GetM: ownership moves to the CPU, so every GPU copy must
            // go — the write-through L1s can hold (clean) copies of the
            // block the L2 has dirty. L1s exist only on the decomposed
            // machine's frontends, one hop away.
            self.broadcast(Event::RecallInv { pa });
        }
        if let Some(l2) = &mut self.gpu.l2 {
            if plan.invalidate_l2 {
                l2.invalidate_block(pa);
            } else if plan.downgrade_l2 {
                l2.downgrade_block(pa);
            }
        }
        if plan.writeback_through_border {
            let (_admit, retire) = self.border_write_timed(t, pa);
            self.host.as_mut().expect("present").count_recall();
            self.tracer.record(self.now, TraceKind::Recall, || {
                format!("CPU recalled dirty GPU block at {pa}")
            });
            if plan.wait_for_retire {
                return retire;
            }
        }
        t
    }

    // ---- malicious probes -------------------------------------------------

    fn issue_probe(&mut self, at: Cycle, ppn: bc_mem::Ppn, write: bool) {
        self.probes_attempted += 1;
        match self.config.safety {
            // No physical-address path exists at all: the trusted
            // interface only accepts virtual addresses.
            SafetyModel::FullIommu | SafetyModel::CapiLike => {
                self.probes_blocked += 1;
            }
            SafetyModel::AtsOnlyIommu => {
                // Unsafe baseline: the forged request goes straight to
                // memory — and really corrupts / reads it.
                self.probes_succeeded += 1;
                let pa = ppn.base();
                if write {
                    self.dram.write_block(at, pa);
                    self.kernel.store_mut().write_as(
                        WriteOrigin::Accelerator,
                        pa,
                        b"PWNED_BY_ACCELERATOR",
                    );
                    self.audit_accel_writes(at);
                } else {
                    self.dram.read_block(at, pa);
                }
            }
            SafetyModel::BorderControlNoBcc | SafetyModel::BorderControlBcc => {
                let bc = self.bc.as_mut().expect("BC configured");
                let out = bc.check(
                    at,
                    MemRequest {
                        ppn,
                        write,
                        asid: Some(self.asid),
                    },
                    self.kernel.store_mut(),
                    &mut self.dram,
                );
                self.audit_check(at, ppn.base(), write, out.allowed);
                if out.allowed {
                    // The probe happened to land on a page this process
                    // legitimately owns — BC correctly lets it through.
                    self.probes_succeeded += 1;
                    let pa = ppn.base();
                    if write {
                        self.dram.write_block(out.done, pa);
                        self.kernel.store_mut().write_as(
                            WriteOrigin::Accelerator,
                            pa,
                            b"PWNED_BY_ACCELERATOR",
                        );
                        self.audit_accel_writes(out.done);
                    } else {
                        self.dram.read_block(out.done, pa);
                    }
                } else {
                    self.probes_blocked += 1;
                    let v = out.violation.expect("denied check carries violation");
                    self.on_violation(v);
                }
            }
        }
    }

    // ---- OS interaction -----------------------------------------------------

    fn on_violation(&mut self, v: Violation) {
        self.tracer
            .record(self.now, TraceKind::Violation, || v.to_string());
        self.violations.push(v);
        let policy = self.kernel.report_violation(v);
        match policy {
            ViolationPolicy::KillProcess => {
                self.aborted = true;
                self.abort_reason = Some(AbortReason::ViolationKill);
                self.broadcast(Event::Halt);
                self.tracer.record(self.now, TraceKind::Process, || {
                    format!("policy KillProcess: terminating {:?}", v.asid)
                });
            }
            ViolationPolicy::DisableAccelerator => {
                // §3.2.3: "terminating the process or disabling the
                // accelerator". The device is fenced off: every wavefront
                // halts; the process itself survives on the CPU.
                self.accel_disabled = true;
                for cu in &mut self.gpu.cus {
                    for wf in &mut cu.wavefronts {
                        wf.done = true;
                    }
                }
                // Decomposed wavefronts halt quietly (no WfDone races the
                // fence); completion is forced here instead.
                self.done_wfs = self.total_wfs;
                self.broadcast(Event::Disable);
                self.tracer.record(self.now, TraceKind::Process, || {
                    "policy DisableAccelerator: device fenced off".to_string()
                });
            }
            ViolationPolicy::LogOnly => {}
        }
        // Deliver the kill's full-address-space shootdown (and any others).
        self.drain_shootdowns();
        // Complete the teardown only now: the shootdown drain above
        // flushed the IOTLB for the dying ASID and ran the
        // full-address-space downgrade (cache flush through the border +
        // Protection Table zero), so the quarantined frames can be
        // released without any structure still holding a translation to
        // them (§3.3's completion contract).
        if matches!(policy, ViolationPolicy::KillProcess) {
            if let Some(asid) = v.asid {
                self.ats.flush();
                self.kernel.finish_teardown(asid);
                if let Some(a) = &mut self.auditor {
                    a.teardown_check(self.now.as_u64(), u64::from(asid.as_u16()), None);
                }
            }
        }
    }

    fn on_fatal_os_error(&mut self, at: Cycle, e: OsError) -> Cycle {
        // A segfaulting translation terminates the offending process.
        let _ = e;
        self.aborted = true;
        self.abort_reason = Some(AbortReason::FatalOsError);
        self.broadcast(Event::Halt);
        at
    }

    /// Delivers queued shootdowns to every translation-holding structure
    /// and runs Border Control's mapping-update flow (Fig 3d).
    ///
    /// `Gpu::shootdown` covers any CUs still held centrally *and* counts
    /// an ignored shootdown device-wide; decomposed L1 TLBs get the same
    /// request over the interconnect.
    fn drain_shootdowns(&mut self) {
        for req in self.kernel.take_shootdowns() {
            self.ats.shootdown(&req);
            self.gpu.shootdown(&req);
            self.broadcast(Event::Shootdown(req));
            self.handle_bc_downgrade(&req);
        }
    }

    fn handle_bc_downgrade(&mut self, req: &ShootdownRequest) {
        let Some(bc) = &mut self.bc else { return };
        if !req.is_downgrade() {
            return;
        }
        let t = self.now;
        let action = bc.downgrade_action(req);
        let mut flushed = std::mem::take(&mut self.flush_scratch);
        flushed.clear();
        match action {
            DowngradeAction::CommitNow => {}
            DowngradeAction::FlushPage(ppn) => {
                self.gpu.flush_page_into(ppn, &mut flushed);
                self.broadcast(Event::FlushPage(ppn));
            }
            DowngradeAction::FlushAll => {
                self.gpu.flush_caches_into(&mut flushed);
                self.gpu.flush_tlbs();
                self.broadcast(Event::FlushAll);
            }
        }
        // Dirty blocks are written back through the border *before* the
        // Protection Table is updated, so they pass the old permissions.
        let mut flush_done = t;
        for ev in flushed.iter().filter(|e| e.dirty) {
            self.border_write(flush_done, ev.addr);
            flush_done += 1; // back-to-back writeback issue
        }
        self.flush_scratch = flushed;
        let bc = self.bc.as_mut().expect("still configured");
        let commit_done =
            bc.commit_downgrade(flush_done, req, self.kernel.store_mut(), &mut self.dram);
        let stall = (t + self.config.downgrade_drain_cycles).max(commit_done);
        self.raise_stall(stall);

        // Mirror the commit into the shadow oracle, then verify the BCC
        // still agrees with the Protection Table.
        if self.auditor.is_some() {
            match action {
                DowngradeAction::FlushAll => {
                    self.auditor.as_mut().expect("checked").revoke_all();
                }
                DowngradeAction::CommitNow | DowngradeAction::FlushPage(_) => {
                    if let (Some(ppn), ShootdownScope::Page(_)) = (req.old_ppn, req.scope) {
                        let p = req.new_perms.border_enforceable();
                        self.auditor.as_mut().expect("checked").set_perms(
                            ppn.as_u64(),
                            p.readable(),
                            p.writable(),
                        );
                    }
                }
            }
            self.audit_bcc_subset();
            let stall = self.stall_until.as_u64();
            self.auditor
                .as_mut()
                .expect("checked")
                .stall_horizon(self.now.as_u64(), stall);
        }
    }

    // ---- Figure 7's downgrade injector ----------------------------------------

    fn inject_downgrade(&mut self) {
        let period = self.config.downgrade_period_cycles();
        if period != u64::MAX && !self.aborted && !self.done() {
            self.schedule(self.now + period, Event::Downgrade);
        }

        // Pick a currently-mapped writable page of the workload.
        let mut target = None;
        for _ in 0..16 {
            let vpn = Vpn::new(BASE_VA / bc_mem::PAGE_SIZE + self.rng.below(self.footprint_pages));
            if let Ok(tr) = self.kernel.translate(self.asid, vpn) {
                if tr.perms.writable() {
                    target = Some(vpn);
                    break;
                }
            }
        }
        let Some(vpn) = target else { return };
        self.downgrades_done += 1;
        self.tracer.record(self.now, TraceKind::Downgrade, || {
            format!("injected downgrade of {vpn} (rw -> r-)")
        });

        if self.n_frontends > 0 {
            // Decomposed machine: the OS cannot yank a mapping out from
            // under in-flight device traffic. Quiesce first — stall new
            // issues, hold translation service, and let every request
            // already on the interconnect (issues up to one hop out,
            // blocks resumed by in-flight fills) reach the border under
            // the old permissions — then commit. Mirrors the serial
            // machine, where dispatch order made flush + commit atomic
            // with respect to all accesses.
            let slack = 2 * self.lookahead + self.gpu.config.l1_latency + 2;
            let commit_at = self.now.max(self.fill_horizon) + slack;
            self.pending_commits += 1;
            self.schedule(commit_at, Event::CommitDowngrade { vpn });
            self.raise_stall(commit_at + self.config.downgrade_drain_cycles);
            if let Some(a) = &mut self.auditor {
                let stall = self.stall_until.as_u64();
                a.stall_horizon(self.now.as_u64(), stall);
            }
            return;
        }
        self.commit_injected_downgrade(vpn);
    }

    /// The downgrade proper: protect read-only, shoot down + flush +
    /// commit, restore. Runs inline on the centralized machine and at the
    /// end of the quiesce window on the decomposed one.
    fn commit_injected_downgrade(&mut self, vpn: Vpn) {
        // Only the decomposed machine defers commits (and increments the
        // counter); the serial path calls straight in. A double-decrement
        // here used to be masked by `saturating_sub`, which would release
        // the border stall early instead of failing — underflow is now a
        // hard protocol error.
        if self.n_frontends > 0 {
            match self.pending_commits.checked_sub(1) {
                Some(n) => self.pending_commits = n,
                None => {
                    let (now, v) = (self.now.as_u64(), vpn.as_u64());
                    if let Some(a) = &mut self.auditor {
                        a.commit_underflow(now, v);
                    }
                    debug_assert!(
                        false,
                        "pending_commits underflow committing downgrade of {vpn}"
                    );
                }
            }
        }

        // Downgrade (e.g. context switch away / swap preparation)...
        if self
            .kernel
            .protect_page(self.asid, vpn, PagePerms::READ_ONLY)
            .is_ok()
        {
            // Even a trusted accelerator pays the drain: outstanding
            // requests finish, TLB entries are invalidated, the ATS
            // flushes (§5.2.4).
            let drain = self.now + self.config.downgrade_drain_cycles;
            self.raise_stall(drain);
            if let Some(a) = &mut self.auditor {
                let stall = self.stall_until.as_u64();
                a.stall_horizon(self.now.as_u64(), stall);
            }
            self.drain_shootdowns();

            // ...and restore (switched back): an upgrade, no flush needed.
            let _ = self
                .kernel
                .protect_page(self.asid, vpn, PagePerms::READ_WRITE);
            self.drain_shootdowns();
        }

        // Reopen translation service: deferred requests are answered in
        // arrival order against the post-commit page tables.
        if self.pending_commits == 0 && !self.deferred_translates.is_empty() {
            let deferred = std::mem::take(&mut self.deferred_translates);
            for (cu, vpn) in deferred {
                self.translate_for(cu, vpn);
            }
        }
    }

    // ---- invariant auditing (bc_sim::audit) -------------------------------------

    /// Compares one border-check decision with the shadow oracle, and —
    /// while any teardown is unfinished — asserts the completion
    /// contract: an access must never be *allowed* to a frame still
    /// quarantined by a dying address space (it would be reaching the
    /// dead process's memory through a stale translation).
    fn audit_check(&mut self, at: Cycle, pa: PhysAddr, write: bool, allowed: bool) {
        if let Some(a) = &mut self.auditor {
            a.check_decision(at.as_u64(), pa.ppn().as_u64(), write, allowed);
            if let Some(dying) = self.kernel.unfinished_teardowns().next() {
                let stale = (allowed && self.kernel.frame_quarantined(pa.ppn())).then(|| {
                    format!(
                        "border allowed {} of quarantined frame {}",
                        if write { "write" } else { "read" },
                        pa.ppn().as_u64()
                    )
                });
                a.teardown_check(at.as_u64(), u64::from(dying.as_u16()), stale);
            }
        }
    }

    /// Mirrors a Fig-3b insertion into the shadow oracle (same union
    /// semantics as [`ProtectionTable::merge_range`]), then sweeps the
    /// BCC ⊆ Protection-Table subset invariant.
    ///
    /// [`ProtectionTable::merge_range`]: bc_core::ProtectionTable::merge_range
    fn audit_translation_granted(&mut self, entry: &bc_cache::TlbEntry) {
        if self.auditor.is_none() {
            return;
        }
        let perms = entry.perms.border_enforceable();
        let a = self.auditor.as_mut().expect("checked");
        for i in 0..entry.size.base_pages() {
            a.grant(
                entry.ppn.add(i).as_u64(),
                perms.readable(),
                perms.writable(),
            );
        }
        self.audit_bcc_subset();
    }

    /// Runs the engine's BCC subset sweep and reports mismatches.
    fn audit_bcc_subset(&mut self) {
        let (Some(a), Some(bc)) = (&mut self.auditor, &self.bc) else {
            return;
        };
        let mismatches = bc.audit_bcc_subset(self.kernel.store());
        a.bcc_subset(self.now.as_u64(), &mismatches);
    }

    /// Drains accelerator-attributed store writes and asserts each held W
    /// permission at issue time.
    fn audit_accel_writes(&mut self, at: Cycle) {
        if self.auditor.is_none() {
            return;
        }
        let pages = self.kernel.store_mut().take_accel_writes();
        let a = self.auditor.as_mut().expect("checked");
        for p in pages {
            a.accel_write(at.as_u64(), p.as_u64());
        }
    }

    // ---- helpers ---------------------------------------------------------------

    /// Builds the final report, merging the per-CU frontends' counters
    /// and cache statistics with the backend's own.
    fn report(&mut self, frontends: &[Frontend]) -> RunReport {
        // The run "ends" at the latest event any component dispatched.
        let end = frontends
            .iter()
            .map(|f| f.last_event)
            .fold(self.now, Cycle::max);
        let elapsed = end.as_u64().max(1);
        let ops = self.ops + frontends.iter().map(|f| f.ops).sum::<u64>();
        let events = self.events_dispatched + frontends.iter().map(|f| f.events).sum::<u64>();
        let block_accesses =
            self.block_accesses + frontends.iter().map(|f| f.block_accesses).sum::<u64>();
        let cus = || self.gpu.cus.iter().chain(frontends.iter().map(|f| &f.cu));
        let l1 = self.config.safety.keeps_l1().then(|| {
            let mut acc = 0;
            let mut miss = 0;
            for cu in cus() {
                if let Some(l1) = &cu.l1 {
                    acc += l1.stats().accesses();
                    miss += l1.stats().misses();
                }
            }
            (acc, miss)
        });
        let l1_tlb = self.config.safety.keeps_l1_tlb().then(|| {
            let mut acc = 0;
            let mut miss = 0;
            for cu in cus() {
                if let Some(tlb) = &cu.tlb {
                    acc += tlb.stats().accesses();
                    miss += tlb.stats().misses();
                }
            }
            (acc, miss)
        });
        let l2 = self
            .gpu
            .l2
            .as_ref()
            .map(|l2| (l2.stats().accesses(), l2.stats().misses()));
        let iotlb = {
            let s = self.ats.iotlb_stats();
            (s.accesses(), s.misses())
        };
        RunReport {
            safety: self.config.safety.label().to_string(),
            workload: self.config.workload.clone(),
            gpu_class: self.config.gpu_class.label().to_string(),
            cycles: end.as_u64(),
            ops,
            events,
            block_accesses,
            aborted: self.aborted,
            abort_reason: self.abort_reason,
            accel_disabled: self.accel_disabled,
            violation_count: self.violations.len() as u64,
            violations: std::mem::take(&mut self.violations),
            bc_checks: self.bc.as_ref().map(|b| b.checks()).unwrap_or(0),
            bcc_hits_misses: self
                .bc
                .as_ref()
                .and_then(|b| b.bcc_stats())
                .map(|s| (s.hits(), s.misses())),
            pt_reads_writes: self
                .bc
                .as_ref()
                .map(|b| (b.pt_reads(), b.pt_writes()))
                .unwrap_or((0, 0)),
            dram_reads_writes: (self.dram.reads(), self.dram.writes()),
            dram_utilization: self.dram.utilization(elapsed),
            l1,
            l2,
            l1_tlb,
            iotlb,
            ats_translations_walks: (self.ats.translations(), self.ats.walks()),
            minor_faults: self.kernel.minor_faults(),
            downgrades: self.downgrades_done,
            probes: (
                self.probes_attempted,
                self.probes_blocked,
                self.probes_succeeded,
            ),
            host: self
                .host
                .as_ref()
                .map(|h| (h.accesses(), h.shared_touches(), h.recalls_from_gpu())),
            audit: self.auditor.as_mut().map(Auditor::take_report),
        }
    }
}

/// One shard's slice of the machine: at most one worker owns the
/// backend; each owns the frontends assigned to its shard, found by
/// component id (`fronts[i]` is frontend `i` when this worker owns it).
struct Worker<'a> {
    back: Option<&'a mut Backend>,
    fronts: Vec<Option<&'a mut Frontend>>,
}

impl ShardHandler<Event> for Worker<'_> {
    fn handle(&mut self, comp: CompId, now: Cycle, ev: Event, out: &mut Outbox<'_, Event>) {
        match self.fronts.get_mut(comp).and_then(Option::as_mut) {
            Some(f) => f.handle(now, ev, out),
            None => {
                let back = self
                    .back
                    .as_mut()
                    .expect("event routed to a shard owning neither backend nor component");
                back.handle(now, ev);
                // Drain the dispatch's messages into the engine (the
                // buffer swap keeps its allocation warm).
                let mut msgs = std::mem::take(&mut back.outgoing);
                for (to, at, ev) in msgs.drain(..) {
                    out.send(to, at, ev);
                }
                back.outgoing = msgs;
            }
        }
    }
}

impl System {
    /// Builds the machine described by `config`: boots the kernel, creates
    /// the workload process and its memory areas, constructs the GPU per
    /// Table 2's structure for the chosen safety model, and (for Border
    /// Control configurations) allocates the Protection Table. Safety
    /// models that keep per-CU L1s get their CU clusters peeled off into
    /// per-component frontends so the run can shard.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for unknown workloads or kernel failures.
    pub fn build(config: &SystemConfig) -> Result<Self, BuildError> {
        Self::build_with_source(config, &bc_workloads::LiveSynthesis)
    }

    /// As [`System::build`], drawing every wavefront's op stream from
    /// `source` instead of live synthesis — e.g. a compiled-trace CAS
    /// (`bc_trace::TraceDir`). The source's determinism contract
    /// guarantees the run is byte-identical to the live-synthesis run.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for unknown workloads or kernel failures.
    pub fn build_with_source(
        config: &SystemConfig,
        source: &dyn bc_workloads::StreamSource,
    ) -> Result<Self, BuildError> {
        let mut back = Backend::build(config, source)?;
        let mut frontends = Vec::new();
        if config.safety.keeps_l1() {
            let params = FrontendParams {
                asid: back.asid,
                behavior: config.behavior,
                l1_latency: back.gpu.config.l1_latency,
                lookahead: back.lookahead,
                max_ops: config.max_ops_per_wavefront,
                max_cycles: config.max_cycles,
                total_frames: back.kernel.total_frames(),
                seed: config.seed,
            };
            let cus: Vec<_> = back.gpu.cus.drain(..).collect();
            let n = cus.len();
            back.n_frontends = n;
            for (i, cu) in cus.into_iter().enumerate() {
                frontends.push(Frontend::new(i, n, cu, &params));
            }
        }
        Ok(System {
            back,
            frontends,
            resume: None,
        })
    }

    /// The kernel (for examples that stage data or inspect memory).
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.back.kernel
    }

    /// Mutable kernel access (trusted CPU side).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.back.kernel
    }

    /// The workload process's address-space id.
    #[must_use]
    pub fn asid(&self) -> Asid {
        self.back.asid
    }

    /// The DRAM device (diagnostics).
    #[must_use]
    pub fn dram(&self) -> &Dram {
        &self.back.dram
    }

    /// The Border Control engine, when the safety model includes one.
    #[must_use]
    pub fn border_control(&self) -> Option<&BorderControl> {
        self.back.bc.as_ref()
    }

    /// Drains the recorded border-check stream (see
    /// [`SystemConfig::record_check_stream`]).
    pub fn take_check_stream(&mut self) -> Vec<(bc_mem::Ppn, bool)> {
        self.back
            .bc
            .as_mut()
            .map(|b| b.take_stream())
            .unwrap_or_default()
    }

    /// The post-mortem event trace (empty unless [`SystemConfig::trace`]
    /// was set).
    #[must_use]
    pub fn trace(&self) -> &Tracer {
        &self.back.tracer
    }

    /// Runs the machine until every wavefront drains (or a violation kills
    /// the process / the cycle valve trips), returning the report.
    ///
    /// The event schedule — and therefore every byte of the report — is
    /// identical at any [`SystemConfig::shards`] setting: shard count
    /// only decides which worker thread dispatches which component.
    pub fn run(&mut self) -> RunReport {
        let (spec, assignment) = self.shard_plan();
        let shards = spec.shards;
        let mut engine = ShardEngine::new(spec);
        self.prime_engine(&mut engine);
        let run = self.drive(&mut engine, shards, &assignment, None);
        self.absorb_engine_telemetry(&run);

        // A frontend-side cycle-valve trip is a global CycleLimit abort
        // (the serial loop's single valve covered the whole machine).
        if !self.back.aborted && self.frontends.iter().any(|f| f.valve_tripped) {
            self.back.aborted = true;
            self.back.abort_reason = Some(AbortReason::CycleLimit);
        }
        self.back.report(&self.frontends)
    }

    /// Runs the machine up to (never beyond) `cut`, then serializes the
    /// complete simulator state — every component plus the engine's
    /// pending calendar — as a versioned warm-start snapshot. Restoring
    /// the bytes ([`System::restore`]) and continuing produces a run
    /// byte-identical to one that never paused, at any shard count
    /// (component ids and dispatch keys are logical, not placement).
    ///
    /// After this call the system holds the post-cut component state but
    /// its calendar has been drained into the snapshot: to continue the
    /// run, restore the returned bytes rather than calling
    /// [`System::run`] on this instance.
    pub fn snapshot_to(&mut self, cut: Cycle, code_rev: &str) -> Vec<u8> {
        let (spec, assignment) = self.shard_plan();
        let shards = spec.shards;
        let mut engine = ShardEngine::new(spec);
        self.prime_engine(&mut engine);
        let run = self.drive(&mut engine, shards, &assignment, Some(cut));
        self.absorb_engine_telemetry(&run);
        let mut resume = ResumeState {
            pending: engine.drain_pending(),
            out_seqs: engine.out_seqs(),
        };

        let mut w = SnapWriter::with_header(code_rev);
        w.str(&warm_key(&self.back.config));
        let mut c = Codec::Write(w);
        self.snap_machine(&mut c, &mut resume)
            .expect("writing cannot fail");
        c.into_bytes()
    }

    /// Rebuilds a system from a [`System::snapshot_to`] buffer and primes
    /// it to continue exactly where the snapshot cut: the next
    /// [`System::run`] restores the serialized calendar instead of
    /// seeding a fresh one. `config` must match the snapshotting config
    /// in every field except [`SystemConfig::shards`] (the engine's
    /// schedule is shard-invariant). The machine is built once from
    /// `config` and `source`, as [`System::build_with_source`] does, and
    /// the bytes are read over it: each wavefront keeps the stream the
    /// build opened and skips it to its recorded position, under the
    /// [`bc_workloads::StreamSource`] determinism contract.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Build`] when the structural machine cannot be
    /// built, [`RestoreError::Snapshot`] on malformed or stale bytes or
    /// on bytes that disagree with the built machine (a config field, a
    /// length, a pending event naming a slot it lacks),
    /// [`RestoreError::ConfigMismatch`] when the snapshot was taken
    /// under a different configuration.
    pub fn restore(
        config: &SystemConfig,
        bytes: &[u8],
        code_rev: &str,
        source: &dyn bc_workloads::StreamSource,
    ) -> Result<Self, RestoreError> {
        let mut sys = System::build_with_source(config, source)?;
        let mut r = SnapReader::with_header(bytes, code_rev)?;
        if r.string()? != warm_key(config) {
            return Err(RestoreError::ConfigMismatch);
        }
        let mut c = Codec::Read(r);
        let mut resume = ResumeState {
            pending: Vec::new(),
            out_seqs: Vec::new(),
        };
        sys.snap_machine(&mut c, &mut resume)?;
        c.finish()?;
        sys.resume = Some(resume);
        Ok(sys)
    }

    /// The snapshot description of the machine after the header and the
    /// warm key: the backend, every frontend, then the engine's pending
    /// calendar and its per-source sequence counters. Reading checks
    /// every pending event against the machine (see
    /// [`System::event_fits`]), then the calendar against each
    /// wavefront's state (see [`System::wavefronts_fit`]).
    fn snap_machine(
        &mut self,
        c: &mut Codec<'_>,
        resume: &mut ResumeState,
    ) -> Result<(), SnapError> {
        c.snap(&mut self.back)?;
        c.each(&mut self.frontends, "frontend count")?;
        let components = self.frontends.len() + 1;
        let n = c.count(resume.pending.len())?;
        resume
            .pending
            .resize_with(n, || bc_sim::shard::PendingEvent {
                comp: 0,
                at: Cycle::ZERO,
                src: 0,
                seq: 0,
                ev: Event::Halt,
            });
        for p in &mut resume.pending {
            c.snap(&mut p.comp)?;
            if p.comp >= components {
                return Err(SnapError::BadValue("pending event component"));
            }
            c.snap(&mut p.at)?;
            c.snap(&mut p.src)?;
            c.snap(&mut p.seq)?;
            c.snap(&mut p.ev)?;
            if !self.event_fits(p.comp, &p.ev) {
                return Err(SnapError::BadValue("pending event slot"));
            }
        }
        resume.out_seqs.resize(components, 0);
        c.each(&mut resume.out_seqs, "out-seq count")?;
        if c.reading() && !self.wavefronts_fit(&resume.pending) {
            return Err(SnapError::BadValue("pending wavefront events"));
        }
        Ok(())
    }

    /// Whether the calendar gives each wavefront that still dispatches
    /// one thread of control. A frontend that has not halted, and the
    /// centralized backend while it is neither aborted nor done, run a
    /// wavefront as one chain of events: at most one `WavefrontReady` or
    /// `IssueOp` is pending for it, an `IssueOp` only while it holds an
    /// op in flight, and neither only while it is done or its op waits on
    /// blocks. Halted frontends are exempt: they drop what they are sent,
    /// and `Disable` leaves their queued `IssueOp`s behind.
    fn wavefronts_fit(&self, pending: &[bc_sim::shard::PendingEvent<Event>]) -> bool {
        let back = self.frontends.len();
        // (WavefrontReady, IssueOp) counts per (component, CU, wavefront);
        // a frontend runs its own CU, whatever CU the event names.
        let mut tally = std::collections::BTreeMap::new();
        for p in pending {
            let (cu, wf, issue) = match p.ev {
                Event::WavefrontReady { cu, wf } => (cu, wf, false),
                Event::IssueOp { cu, wf } => (cu, wf, true),
                _ => continue,
            };
            let cu = if p.comp == back { cu } else { 0 };
            let n: &mut (u32, u32) = tally.entry((p.comp, cu, wf)).or_default();
            if issue {
                n.1 += 1;
            } else {
                n.0 += 1;
            }
        }
        let fits = |key, wave: &bc_accel::Wavefront, waiting: bool| match tally.get(&key) {
            None => wave.done || waiting,
            Some((1, 0)) => true,
            Some((0, 1)) => wave.in_flight.is_some(),
            Some(_) => false,
        };
        let back_fits = self.back.aborted
            || self.back.done()
            || self.back.gpu.cus.iter().enumerate().all(|(cu, c)| {
                let mut waves = c.wavefronts.iter().enumerate();
                waves.all(|(wf, w)| fits((back, cu, wf), w, false))
            });
        back_fits
            && self.frontends.iter().enumerate().all(|(i, f)| {
                let mut waves = f.cu.wavefronts.iter().zip(&f.runs).enumerate();
                f.halted || waves.all(|(wf, (w, run))| fits((i, 0, wf), w, run.is_some()))
            })
    }

    /// Whether component `comp` of this machine handles `ev`, and every
    /// index `ev` carries names a slot the machine has: a frontend, a
    /// wavefront of the CU that runs it, a block of an op.
    fn event_fits(&self, comp: usize, ev: &Event) -> bool {
        let to_back = comp == self.frontends.len();
        let back_wfs = |cu: usize| self.back.gpu.cus.get(cu).map_or(0, |c| c.wavefronts.len());
        let front_wfs = |cu: usize| self.frontends.get(cu).map_or(0, |f| f.cu.wavefronts.len());
        let block_fits = |block: u8| usize::from(block) < BlockList::CAPACITY;
        match *ev {
            // A frontend runs the wavefronts of its own CU.
            Event::WavefrontReady { cu, wf } | Event::IssueOp { cu, wf } => {
                wf < if to_back {
                    back_wfs(cu)
                } else {
                    front_wfs(comp)
                }
            }
            Event::Translate { cu, .. } => to_back && cu < self.frontends.len(),
            Event::L2Req { cu, wf, block, .. } => {
                to_back && wf < front_wfs(cu) && block_fits(block)
            }
            Event::Downgrade
            | Event::CommitDowngrade { .. }
            | Event::CpuTick
            | Event::Probe { .. }
            | Event::WfDone => to_back,
            Event::BlockDone { wf, block, .. } => {
                !to_back && wf < front_wfs(comp) && block_fits(block)
            }
            Event::TlbFill { .. }
            | Event::StallHorizon { .. }
            | Event::Shootdown(_)
            | Event::FlushPage(_)
            | Event::FlushAll
            | Event::RecallInv { .. }
            | Event::Disable
            | Event::Halt => !to_back,
        }
    }

    /// The engine layout for this machine: spec plus the
    /// component-to-shard assignment (the backend gets shard 0 to itself
    /// — it is the contended component; frontends round-robin over the
    /// rest, and every shard is non-empty because `shards <=
    /// components`).
    fn shard_plan(&self) -> (ShardSpec, Vec<usize>) {
        let components = self.frontends.len() + 1;
        let back_comp = self.frontends.len();
        let shards = self.back.config.shards.max(1).min(components);
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
        (spec, assignment)
    }

    /// Fills the engine's calendar: the serialized warm-start calendar
    /// when one is staged, the serial seeding order otherwise.
    fn prime_engine(&mut self, engine: &mut ShardEngine<Event>) {
        if let Some(rs) = self.resume.take() {
            engine.restore_pending(rs.pending);
            engine.set_out_seqs(&rs.out_seqs);
            return;
        }
        let back_comp = self.frontends.len();
        if self.frontends.is_empty() {
            for cu in 0..self.back.gpu.cus.len() {
                for wf in 0..self.back.gpu.cus[cu].wavefronts.len() {
                    engine.seed(back_comp, Cycle::ZERO, Event::WavefrontReady { cu, wf });
                }
            }
        } else {
            for (i, f) in self.frontends.iter().enumerate() {
                for wf in 0..f.cu.wavefronts.len() {
                    engine.seed(i, Cycle::ZERO, Event::WavefrontReady { cu: i, wf });
                }
            }
        }
        let period = self.back.config.downgrade_period_cycles();
        if period != u64::MAX {
            engine.seed(back_comp, Cycle::new(period), Event::Downgrade);
        }
        if let Some(activity) = self.back.config.host_activity {
            engine.seed(back_comp, Cycle::new(activity.period), Event::CpuTick);
        }
    }

    /// Assembles per-shard workers and runs the engine — to completion,
    /// or (for a warm-start cut) no further than `until`.
    fn drive(
        &mut self,
        engine: &mut ShardEngine<Event>,
        shards: usize,
        assignment: &[usize],
        until: Option<Cycle>,
    ) -> bc_sim::shard::ShardRun {
        let n = self.frontends.len();
        let mut workers: Vec<Worker<'_>> = (0..shards)
            .map(|_| Worker {
                back: None,
                fronts: (0..n).map(|_| None).collect(),
            })
            .collect();
        workers[0].back = Some(&mut self.back);
        for (i, f) in self.frontends.iter_mut().enumerate() {
            workers[assignment[i]].fronts[i] = Some(f);
        }
        match until {
            Some(cut) => engine.run_until(&mut workers, cut),
            None => engine.run(&mut workers),
        }
    }

    /// Engine contract telemetry routes into the audit layer. The
    /// production components never trip the ordering floors (every
    /// cross-component send is latency-padded by construction), so a
    /// finding here means a scheduler or component bug.
    fn absorb_engine_telemetry(&mut self, run: &bc_sim::shard::ShardRun) {
        for v in &run.violations {
            match &mut self.back.auditor {
                Some(a) => a.shard_order(v.now, v.src, v.dst, v.at, v.floor),
                None => debug_assert!(false, "sharded engine clamped a send: {v:?}"),
            }
        }
        #[cfg(feature = "audit")]
        for (shard, prev, at) in &run.shard_queue_findings {
            match &mut self.back.auditor {
                Some(a) => a.queue_pop_order(*prev, *at),
                None => {
                    panic!("shard {shard} calendar popped cycle {at} after already popping {prev}")
                }
            }
        }
    }
}

/// Canonical configuration identity for warm-start checkpoints: every
/// timing-relevant field of the config, with [`SystemConfig::shards`]
/// normalized away — the sharded engine's schedule is byte-identical at
/// any shard count, so one checkpoint serves them all. The rendering is
/// compared for equality only, never parsed.
#[must_use]
pub fn warm_key(config: &SystemConfig) -> String {
    let mut c = config.clone();
    c.shards = 1;
    format!("{c:?}")
}

/// Errors from [`System::restore`].
#[derive(Debug)]
pub enum RestoreError {
    /// Rebuilding the structural machine failed.
    Build(BuildError),
    /// The snapshot bytes are malformed, truncated, or from a different
    /// code revision.
    Snapshot(SnapError),
    /// The snapshot was taken under a different configuration (only the
    /// shard count may differ between snapshot and restore).
    ConfigMismatch,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Build(e) => write!(f, "rebuilding machine: {e}"),
            RestoreError::Snapshot(e) => write!(f, "decoding snapshot: {e}"),
            RestoreError::ConfigMismatch => {
                f.write_str("snapshot was taken under a different configuration")
            }
        }
    }
}

impl Error for RestoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RestoreError::Build(e) => Some(e),
            RestoreError::Snapshot(e) => Some(e),
            RestoreError::ConfigMismatch => None,
        }
    }
}

impl From<BuildError> for RestoreError {
    fn from(e: BuildError) -> Self {
        RestoreError::Build(e)
    }
}

impl From<SnapError> for RestoreError {
    fn from(e: SnapError) -> Self {
        RestoreError::Snapshot(e)
    }
}

/// Snapshot codec for the backend. Config-derived fields (the config
/// itself, footprint geometry, lookahead, component counts) are fixed by
/// the build that is read over; the CU port count and whether the host
/// actor and the auditor exist are checked against it; transients
/// (`outgoing`, `flush_scratch`) are empty at any cut by construction;
/// everything the run mutates is serialized exactly.
impl Snap for Backend {
    fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
        debug_assert!(
            self.outgoing.is_empty(),
            "dispatch in progress at snapshot cut"
        );
        c.section(*b"SYS0")?;
        c.snap(&mut self.kernel)?;
        c.snap(&mut self.dram)?;
        c.snap(&mut self.ats)?;
        c.built_opt(&mut self.bc, "Border Control presence")?;
        c.snap(&mut self.gpu)?;
        c.snap(&mut self.asid)?;
        c.snap(&mut self.now)?;
        c.snap(&mut self.stall_until)?;
        c.snap(&mut self.ops)?;
        c.snap(&mut self.block_accesses)?;
        c.snap(&mut self.events_dispatched)?;
        c.snap(&mut self.violations)?;
        c.snap(&mut self.aborted)?;
        c.snap(&mut self.abort_reason)?;
        c.snap(&mut self.accel_disabled)?;
        c.snap(&mut self.downgrades_done)?;
        c.snap(&mut self.probes_attempted)?;
        c.snap(&mut self.probes_blocked)?;
        c.snap(&mut self.probes_succeeded)?;
        c.snap(&mut self.rng)?;
        c.snap(&mut self.iommu_port)?;
        c.snap(&mut self.l2_port)?;
        c.each(&mut self.cu_ports, "CU port count")?;
        c.snap(&mut self.wb_queue)?;
        c.snap(&mut self.l2_mshr)?;
        c.snap(&mut self.tracer)?;
        c.built_opt(&mut self.host, "host actor presence")?;
        c.built_opt(&mut self.auditor, "auditor presence")?;
        c.snap(&mut self.done_wfs)?;
        c.snap(&mut self.fill_horizon)?;
        c.snap(&mut self.pending_commits)?;
        c.snap(&mut self.deferred_translates)
    }
}

#[cfg(test)]
// bc-lint: allow(float) — test assertions compare summary ratios from
// finished reports; no float reaches simulation state.
mod tests {
    use super::*;
    use crate::config::GpuClass;
    use bc_accel::Behavior;
    use bc_workloads::WorkloadSize;

    fn tiny(safety: SafetyModel) -> SystemConfig {
        let mut c = SystemConfig::table3_defaults();
        c.safety = safety;
        c.gpu_class = GpuClass::ModeratelyThreaded;
        c.workload = "nn".to_string();
        c.size = WorkloadSize::Tiny;
        c.max_ops_per_wavefront = Some(2000);
        c
    }

    #[test]
    fn unknown_workload_rejected() {
        let mut c = tiny(SafetyModel::AtsOnlyIommu);
        c.workload = "quake".into();
        assert!(matches!(
            System::build(&c),
            Err(BuildError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn all_configs_run_to_completion() {
        for safety in SafetyModel::ALL {
            let report = System::build(&tiny(safety)).unwrap().run();
            assert!(!report.aborted, "{safety} aborted");
            assert!(report.cycles > 0, "{safety} did nothing");
            assert!(report.ops > 0);
            assert_eq!(report.violation_count, 0, "{safety} saw violations");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            System::build(&tiny(SafetyModel::BorderControlBcc))
                .unwrap()
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.bc_checks, b.bc_checks);
        assert_eq!(a.dram_reads_writes, b.dram_reads_writes);
    }

    #[test]
    fn safety_configs_are_slower_than_unsafe_baseline() {
        let cycles = |s| System::build(&tiny(s)).unwrap().run().cycles;
        let base = cycles(SafetyModel::AtsOnlyIommu);
        let full = cycles(SafetyModel::FullIommu);
        let capi = cycles(SafetyModel::CapiLike);
        let bcc = cycles(SafetyModel::BorderControlBcc);
        assert!(full > base, "full IOMMU must be slower ({full} vs {base})");
        assert!(
            capi >= base,
            "CAPI-like at least as slow ({capi} vs {base})"
        );
        assert!(
            (bcc as f64) < (base as f64) * 1.10,
            "BC-BCC should be within 10% of unsafe ({bcc} vs {base})"
        );
    }

    #[test]
    fn full_iommu_loses_badly_on_cache_friendly_workloads() {
        // On a stencil with reuse, losing all caches (full IOMMU) must be
        // far worse than keeping a trusted shared L2 (CAPI-like). On pure
        // streaming (nn) the two legitimately converge — no reuse for any
        // cache to exploit — so the ordering claim is made on hotspot.
        let cycles = |s| {
            let mut c = tiny(s);
            c.workload = "hotspot".to_string();
            System::build(&c).unwrap().run().cycles
        };
        let base = cycles(SafetyModel::AtsOnlyIommu);
        let full = cycles(SafetyModel::FullIommu);
        let capi = cycles(SafetyModel::CapiLike);
        assert!(
            capi > base,
            "CAPI pays for losing the L1 ({capi} vs {base})"
        );
        assert!(
            full as f64 > capi as f64 * 1.3,
            "full IOMMU should be much slower than CAPI-like ({full} vs {capi})"
        );
    }

    #[test]
    fn bc_checks_happen_only_with_border_control() {
        let r = System::build(&tiny(SafetyModel::AtsOnlyIommu))
            .unwrap()
            .run();
        assert_eq!(r.bc_checks, 0);
        let r = System::build(&tiny(SafetyModel::BorderControlBcc))
            .unwrap()
            .run();
        assert!(r.bc_checks > 0);
        assert!(r.bcc_hits_misses.is_some());
        let r = System::build(&tiny(SafetyModel::BorderControlNoBcc))
            .unwrap()
            .run();
        assert!(r.bc_checks > 0);
        assert!(r.bcc_hits_misses.is_none());
        assert!(r.pt_reads_writes.0 > 0, "noBCC reads the table every check");
    }

    #[test]
    fn malicious_probes_blocked_by_bc_and_succeed_unchecked() {
        let mut c = tiny(SafetyModel::AtsOnlyIommu);
        c.behavior = Behavior::Malicious {
            probe_period: 50,
            probe_writes: true,
        };
        let r = System::build(&c).unwrap().run();
        assert!(r.probes.0 > 0, "probes attempted");
        assert_eq!(r.probes.2, r.probes.0, "unsafe baseline: all succeed");
        assert_eq!(r.violation_count, 0, "nothing even notices");

        let mut c = tiny(SafetyModel::BorderControlBcc);
        c.behavior = Behavior::Malicious {
            probe_period: 50,
            probe_writes: true,
        };
        c.violation_policy = bc_os::ViolationPolicy::LogOnly;
        let r = System::build(&c).unwrap().run();
        assert!(r.probes.0 > 0);
        assert!(r.probes.1 > 0, "BC blocks forged probes");
        assert!(r.violation_count > 0, "and reports them");
    }

    #[test]
    fn kill_policy_aborts_on_first_violation() {
        let mut c = tiny(SafetyModel::BorderControlBcc);
        c.behavior = Behavior::Malicious {
            probe_period: 10,
            probe_writes: true,
        };
        let r = System::build(&c).unwrap().run();
        assert!(r.aborted);
        assert!(r.violation_count >= 1);
    }

    #[test]
    fn downgrade_injector_fires() {
        let mut c = tiny(SafetyModel::BorderControlBcc);
        c.downgrades_per_second = 100_000; // every 7000 cycles at 700 MHz
        let r = System::build(&c).unwrap().run();
        assert!(r.downgrades > 0, "injector should fire");
        assert_eq!(
            r.violation_count, 0,
            "correct accel + BC flush = no violations"
        );
    }

    #[test]
    fn downgrades_cost_more_under_bc_than_unsafe() {
        let run = |safety, rate| {
            let mut c = tiny(safety);
            c.downgrades_per_second = rate;
            System::build(&c).unwrap().run().cycles
        };
        let bc0 = run(SafetyModel::BorderControlBcc, 0);
        let bc_hi = run(SafetyModel::BorderControlBcc, 200_000);
        let ats0 = run(SafetyModel::AtsOnlyIommu, 0);
        let ats_hi = run(SafetyModel::AtsOnlyIommu, 200_000);
        let bc_over = bc_hi as f64 / bc0 as f64 - 1.0;
        let ats_over = ats_hi as f64 / ats0 as f64 - 1.0;
        assert!(
            bc_over > ats_over,
            "BC downgrades cost more ({bc_over:.4} vs {ats_over:.4})"
        );
    }

    #[test]
    fn huge_pages_run_safely_with_fewer_walks() {
        let mut c = tiny(SafetyModel::BorderControlBcc);
        c.workload = "nn".to_string();
        let small_pages = System::build(&c).unwrap().run();
        c.use_huge_pages = true;
        let huge_pages = System::build(&c).unwrap().run();
        assert!(!huge_pages.aborted);
        assert_eq!(huge_pages.violation_count, 0);
        assert!(
            huge_pages.ats_translations_walks.1 < small_pages.ats_translations_walks.1,
            "2 MiB pages must walk less ({} vs {})",
            huge_pages.ats_translations_walks.1,
            small_pages.ats_translations_walks.1,
        );
        // Border Control still checks all border crossings.
        assert!(huge_pages.bc_checks > 0);
    }

    #[test]
    fn host_cpu_generates_coherence_traffic() {
        use crate::host::HostActivityConfig;

        let mut c = tiny(SafetyModel::BorderControlBcc);
        c.workload = "hotspot".to_string();
        c.host_activity = Some(HostActivityConfig {
            period: 5,
            shared_fraction: 0.6,
            write_fraction: 0.3,
            private_bytes: 256 << 10,
        });
        let r = System::build(&c).unwrap().run();
        let (accesses, shared, recalls) = r.host.expect("host actor enabled");
        assert!(accesses > 100, "CPU should have issued ops ({accesses})");
        assert!(shared > 0, "some ops touch the shared footprint");
        assert!(
            recalls > 0,
            "a stencil with writes must have dirty GPU blocks for the CPU to recall"
        );
        assert_eq!(
            r.violation_count, 0,
            "recalled writebacks pass the border check"
        );
    }

    #[test]
    fn host_cpu_interference_slows_the_gpu() {
        use crate::host::HostActivityConfig;

        let quiet = System::build(&tiny(SafetyModel::AtsOnlyIommu))
            .unwrap()
            .run();
        let mut c = tiny(SafetyModel::AtsOnlyIommu);
        c.host_activity = Some(HostActivityConfig {
            period: 2,
            shared_fraction: 0.8,
            write_fraction: 0.5,
            private_bytes: 64 << 10,
        });
        let busy = System::build(&c).unwrap().run();
        assert!(
            busy.cycles >= quiet.cycles,
            "an aggressive host sharing data cannot speed the GPU up ({} vs {})",
            busy.cycles,
            quiet.cycles
        );
    }

    #[test]
    fn disable_accelerator_policy_fences_device_but_spares_process() {
        let mut c = tiny(SafetyModel::BorderControlBcc);
        c.behavior = Behavior::Malicious {
            probe_period: 20,
            probe_writes: true,
        };
        c.violation_policy = bc_os::ViolationPolicy::DisableAccelerator;
        let mut sys = System::build(&c).unwrap();
        let asid = sys.asid();
        let r = sys.run();
        assert!(r.accel_disabled, "device fenced");
        assert!(!r.aborted, "a fenced device is a graceful end");
        assert!(r.violation_count >= 1);
        assert_eq!(
            sys.kernel().process(asid).unwrap().state(),
            bc_os::ProcessState::Running,
            "the process survives on the CPU"
        );
    }

    #[test]
    fn trace_captures_violations_and_downgrades() {
        use bc_sim::trace::TraceKind;

        let mut c = tiny(SafetyModel::BorderControlBcc);
        c.behavior = Behavior::Malicious {
            probe_period: 50,
            probe_writes: true,
        };
        c.violation_policy = bc_os::ViolationPolicy::LogOnly;
        c.downgrades_per_second = 200_000;
        c.trace = true;
        let mut sys = System::build(&c).unwrap();
        sys.run();
        let trace = sys.trace();
        assert!(
            trace.of_kind(TraceKind::Violation).count() > 0,
            "violations traced"
        );
        assert!(
            trace.of_kind(TraceKind::Downgrade).count() > 0,
            "downgrades traced"
        );
        let rendered = trace.render();
        assert!(rendered.contains("VIOLATION"));

        // Disabled by default: no events.
        let mut quiet = tiny(SafetyModel::BorderControlBcc);
        quiet.behavior = Behavior::Malicious {
            probe_period: 50,
            probe_writes: true,
        };
        quiet.violation_policy = bc_os::ViolationPolicy::LogOnly;
        let mut sys = System::build(&quiet).unwrap();
        sys.run();
        assert!(sys.trace().events().is_empty());
    }

    #[test]
    fn report_table_renders() {
        let r = System::build(&tiny(SafetyModel::BorderControlBcc))
            .unwrap()
            .run();
        let s = r.stats_table().to_string();
        assert!(s.contains("Border Control-BCC"));
        assert!(s.contains("cycles"));
    }

    #[test]
    fn footprint_split_is_exact_in_integer_arithmetic() {
        // ro + rw must equal the page count for every fraction — the old
        // f64 truncation drifted by a page on large footprints.
        for pages in [1u64, 7, 512, 786_433, 1 << 24] {
            for wf in [0.0, 0.1, 1.0 / 3.0, 0.5, 0.7, 0.999, 1.0] {
                let (ro, rw) = split_footprint(pages, wf);
                assert_eq!(ro + rw, pages, "pages={pages} wf={wf}");
                let exact = pages as f64 * wf;
                assert!(
                    (rw as f64 - exact).abs() <= 0.5 + 1e-6,
                    "pages={pages} wf={wf}: rw={rw} vs exact {exact}"
                );
            }
        }
        assert_eq!(split_footprint(10, -0.5), (10, 0), "clamped below");
        assert_eq!(split_footprint(10, 1.5), (0, 10), "clamped above");
        // The regression itself: 3 × (1/3) must round to a whole page
        // count, never truncate to rw = 0 ro = 3 ± 1 drift.
        let (ro, rw) = split_footprint(3, 1.0 / 3.0);
        assert_eq!((ro, rw), (2, 1));
    }

    /// Translates one writable workload page on `sys` (so the Protection
    /// Table authorizes border writes to it) and returns its block address.
    fn translate_writable_page(sys: &mut System) -> PhysAddr {
        let back = &mut sys.back;
        let va = VirtAddr::new(BASE_VA + (back.footprint_pages - 1) * bc_mem::PAGE_SIZE);
        let resp = back
            .ats
            .translate(
                Cycle::new(1),
                &mut back.kernel,
                &mut back.dram,
                back.asid,
                va.vpn(),
            )
            .expect("workload page translates");
        let bc = back.bc.as_mut().expect("BC present");
        bc.on_translation(
            Cycle::new(1),
            &resp.entry,
            back.kernel.store_mut(),
            &mut back.dram,
        );
        phys_block_from_entry(&resp.entry, va)
    }

    fn coherence_config(safety: SafetyModel) -> SystemConfig {
        use crate::host::HostActivityConfig;

        let mut c = tiny(safety);
        c.host_activity = Some(HostActivityConfig {
            period: 5,
            shared_fraction: 0.5,
            write_fraction: 0.5,
            private_bytes: 64 << 10,
        });
        c
    }

    #[test]
    fn dirty_recall_fill_waits_for_border_write_retire() {
        use bc_cache::Access;

        // Twin systems: builds are deterministic, so the reference
        // system's own writeback timing is ground truth for the recall.
        let c = coherence_config(SafetyModel::BorderControlNoBcc);
        let mut sys = System::build(&c).unwrap();
        let mut reference = System::build(&c).unwrap();
        let pa = translate_writable_page(&mut sys);
        assert_eq!(pa, translate_writable_page(&mut reference));

        sys.back.gpu.l2.as_mut().unwrap().access(pa, Access::Write);
        assert!(sys.back.gpu.l2.as_ref().unwrap().is_dirty(pa));

        let t = Cycle::new(500);
        let done = sys.back.recall_from_gpu(t, pa, false);
        let (admit, retire) = reference.back.border_write_timed(t, pa);
        assert!(retire > admit, "retire must trail admission");
        assert_eq!(
            done, retire,
            "the CPU fill must wait for the recalled block's border-write \
             *retire*, not its writeback-buffer admission"
        );
    }

    #[test]
    fn cpu_getm_on_dirty_gpu_block_invalidates_every_cu_l1() {
        use bc_cache::Access;

        let mut c = coherence_config(SafetyModel::BorderControlBcc);
        c.gpu_class = GpuClass::HighlyThreaded; // 8 CUs, each with an L1
        let mut sys = System::build(&c).unwrap();
        let pa = translate_writable_page(&mut sys);

        // Clean copies in every CU L1 (the write-through L1s allocate on
        // reads), dirty block in the shared L2. BC keeps L1s, so the CUs
        // live in per-component frontends.
        for f in &mut sys.frontends {
            f.cu.l1
                .as_mut()
                .expect("BC keeps L1s")
                .access(pa, Access::Read);
        }
        sys.back.gpu.l2.as_mut().unwrap().access(pa, Access::Write);
        assert!(sys.frontends.len() > 1);
        assert!(sys
            .frontends
            .iter()
            .all(|f| f.cu.l1.as_ref().unwrap().contains(pa)));

        sys.back.recall_from_gpu(Cycle::new(500), pa, true);
        // The backend queues an invalidation broadcast for the remote
        // L1s; deliver it by hand (no engine running in this test).
        let msgs: Vec<_> = sys.back.outgoing.drain(..).collect();
        assert!(
            msgs.iter()
                .filter(|(_, _, ev)| matches!(ev, Event::RecallInv { .. }))
                .count()
                == sys.frontends.len(),
            "one RecallInv per frontend"
        );
        for (to, _at, ev) in msgs {
            if let Event::RecallInv { pa } = ev {
                if let Some(l1) = &mut sys.frontends[to].cu.l1 {
                    l1.invalidate_block(pa);
                }
            }
        }
        for (i, f) in sys.frontends.iter().enumerate() {
            assert!(
                !f.cu.l1.as_ref().unwrap().contains(pa),
                "CU{i}'s L1 kept a stale copy across the CPU's GetM"
            );
        }
        assert!(
            !sys.back.gpu.l2.as_ref().unwrap().contains(pa),
            "the L2 copy must be gone too"
        );
    }

    #[test]
    fn abort_reason_distinguishes_kill_from_cycle_valve() {
        let mut c = tiny(SafetyModel::BorderControlBcc);
        c.behavior = Behavior::Malicious {
            probe_period: 10,
            probe_writes: true,
        };
        let r = System::build(&c).unwrap().run();
        assert!(r.aborted);
        assert_eq!(r.abort_reason, Some(AbortReason::ViolationKill));

        let mut c = tiny(SafetyModel::AtsOnlyIommu);
        c.max_cycles = 50;
        let r = System::build(&c).unwrap().run();
        assert!(r.aborted);
        assert_eq!(r.abort_reason, Some(AbortReason::CycleLimit));

        let r = System::build(&tiny(SafetyModel::AtsOnlyIommu))
            .unwrap()
            .run();
        assert!(!r.aborted);
        assert_eq!(r.abort_reason, None);
    }

    /// Regression for the quiesce protocol's commit accounting: a commit
    /// that was never injected used to be masked by `saturating_sub` and
    /// silently released the border stall early. On the decomposed
    /// machine it is now a hard protocol error.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pending_commits underflow")]
    fn spurious_commit_underflow_is_fatal_on_decomposed_machine() {
        let mut sys = System::build(&tiny(SafetyModel::BorderControlBcc)).unwrap();
        assert!(sys.back.n_frontends > 0, "BC configs decompose");
        assert_eq!(sys.back.pending_commits, 0);
        let vpn = VirtAddr::new(BASE_VA).vpn();
        sys.back.commit_injected_downgrade(vpn);
    }

    /// The serial machine never increments `pending_commits` (commits run
    /// inline), so the underflow guard must not fire there.
    #[test]
    fn serial_machine_commits_inline_without_underflow() {
        let mut sys = System::build(&tiny(SafetyModel::FullIommu)).unwrap();
        assert_eq!(sys.back.n_frontends, 0, "full-IOMMU stays centralized");
        let vpn = VirtAddr::new(BASE_VA).vpn();
        sys.back.commit_injected_downgrade(vpn);
        assert_eq!(sys.back.pending_commits, 0);
    }

    #[test]
    fn audited_runs_are_clean_and_cycle_identical() {
        for safety in SafetyModel::ALL {
            let plain = System::build(&tiny(safety)).unwrap().run();
            assert!(plain.audit.is_none(), "no report without the flag");

            let mut c = tiny(safety);
            c.audit = true;
            let audited = System::build(&c).unwrap().run();
            assert_eq!(
                plain.cycles, audited.cycles,
                "{safety}: the auditor must be pure observation"
            );
            let audit = audited.audit.expect("audit report attached");
            assert!(
                audit.is_clean(),
                "{safety}: audit violations: {:?}",
                audit.findings
            );
            assert!(audit.assertions > 0, "{safety}: auditor checked nothing");
        }
    }

    #[test]
    fn audited_malicious_run_stays_clean() {
        // The oracle must agree with Border Control on *denials* too: a
        // probing accelerator exercises the deny path of every check.
        let mut c = tiny(SafetyModel::BorderControlBcc);
        c.audit = true;
        c.behavior = Behavior::Malicious {
            probe_period: 50,
            probe_writes: true,
        };
        c.violation_policy = bc_os::ViolationPolicy::LogOnly;
        let r = System::build(&c).unwrap().run();
        assert!(r.probes.1 > 0, "probes were blocked");
        let audit = r.audit.expect("audit report attached");
        assert!(audit.is_clean(), "audit violations: {:?}", audit.findings);
    }

    #[test]
    fn shard_count_never_changes_the_report() {
        // Decomposed (8 frontends) and centralized (single-component)
        // models, byte-compared across shard counts — including counts
        // past the component clamp.
        for safety in [
            SafetyModel::AtsOnlyIommu,
            SafetyModel::BorderControlBcc,
            SafetyModel::FullIommu,
        ] {
            let mut c = tiny(safety);
            c.gpu_class = GpuClass::HighlyThreaded;
            c.max_ops_per_wavefront = Some(300);
            let baseline = format!("{:?}", System::build(&c).unwrap().run());
            for shards in [2, 4, 8] {
                c.shards = shards;
                let got = format!("{:?}", System::build(&c).unwrap().run());
                assert_eq!(baseline, got, "{safety} diverged at {shards} shards");
            }
        }
    }

    #[test]
    fn decomposition_follows_the_safety_model() {
        // Direct models shard per CU; centralized models keep one
        // component (and degenerate to the serial schedule).
        let mut c = tiny(SafetyModel::BorderControlBcc);
        c.gpu_class = GpuClass::HighlyThreaded;
        let sys = System::build(&c).unwrap();
        assert_eq!(sys.frontends.len(), 8);
        assert!(sys.back.gpu.cus.is_empty());

        let sys = System::build(&tiny(SafetyModel::FullIommu)).unwrap();
        assert!(sys.frontends.is_empty());
        assert!(!sys.back.gpu.cus.is_empty());
    }
}
