//! Per-CU frontend component of the sharded system.
//!
//! The direct-access safety models (ATS-only and both Border Control
//! configurations) keep private L1s and L1 TLBs next to each compute
//! unit. That locality is what makes intra-run parallelism possible: a
//! CU cluster (wavefront scheduler + issue port + L1 + L1 TLB) only
//! talks to the rest of the machine through messages that cross the
//! accelerator's on-chip interconnect, and every such hop costs at
//! least [`SystemConfig::cluster_hop_latency`] cycles. Each cluster
//! therefore becomes one logical component of the sharded engine
//! ([`bc_sim::shard`]), exchanging [`Event`]s with the shared backend
//! (L2 + MSHRs + Border Control + IOMMU + DRAM + host) under the
//! engine's conservative-lookahead schedule.
//!
//! Determinism does not depend on which shard a frontend lands on: the
//! engine orders same-cycle events by `(source component, per-source
//! sequence)`, both of which are logical properties of the run.
//!
//! [`SystemConfig::cluster_hop_latency`]: crate::SystemConfig::cluster_hop_latency

use bc_accel::{Behavior, ComputeUnit};
use bc_cache::set_assoc::Access;
use bc_cache::TlbEntry;
use bc_mem::addr::{Asid, PhysAddr, Ppn, Vpn};
use bc_mem::VirtAddr;
use bc_os::{ShootdownRequest, ShootdownScope};
use bc_sim::resource::Port;
use bc_sim::shard::Outbox;
use bc_sim::{Cycle, SimRng};
use bc_workloads::{BlockList, WarpOp};

/// Everything that moves between components of the simulated machine.
///
/// The first four variants are the classic single-queue events (and the
/// only ones used when the safety model centralizes all state in the
/// backend); the rest carry the frontend/backend split.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A wavefront is ready to fetch its next op and contend for the CU
    /// issue pipeline.
    WavefrontReady {
        cu: usize,
        wf: usize,
    },
    /// An op's compute slots retired; its memory accesses issue *now*, so
    /// every shared resource sees arrivals in global time order. The op
    /// itself is parked in the wavefront's `in_flight` slot (exactly one
    /// op is ever in flight per wavefront), which keeps event-queue
    /// entries small enough to move cheaply through the calendar queue.
    IssueOp {
        cu: usize,
        wf: usize,
    },
    Downgrade,
    /// End of a downgrade's quiesce window: in-flight old-permission
    /// traffic has drained, so the Protection-Table commit is now safe
    /// (backend self-event; only exists on the decomposed machine).
    CommitDowngrade {
        vpn: Vpn,
    },
    /// The host CPU issues its next memory operation.
    CpuTick,

    // ---- frontend -> backend ------------------------------------------
    /// L1 TLB miss: ask the IOMMU/ATS side for a translation.
    Translate {
        cu: usize,
        vpn: Vpn,
    },
    /// An access that must cross to the shared L2 (read miss fill, or a
    /// posted store's write-through traffic).
    L2Req {
        cu: usize,
        wf: usize,
        block: u8,
        pa: PhysAddr,
        write: bool,
    },
    /// Malicious hardware forging a physical-address probe.
    Probe {
        ppn: Ppn,
        write: bool,
    },
    /// One wavefront drained (used for global termination).
    WfDone,

    // ---- backend -> frontend ------------------------------------------
    /// Translation response; the frontend fills its L1 TLB and resumes
    /// every block waiting on a page this entry covers.
    TlbFill {
        entry: TlbEntry,
    },
    /// A read fill returned from the L2/memory side; `done` is the
    /// request's completion time on the shared side.
    BlockDone {
        wf: usize,
        block: u8,
        done: Cycle,
    },
    /// The backend raised the downgrade-drain stall horizon.
    StallHorizon {
        until: Cycle,
    },
    /// TLB shootdown broadcast (honoured per accelerator behaviour).
    Shootdown(ShootdownRequest),
    /// Border Control downgrade flush of one page.
    FlushPage(Ppn),
    /// Border Control full flush (caches per behaviour, TLBs always).
    FlushAll,
    /// Null-directory recall: invalidate one L1 block (CPU GetM).
    RecallInv {
        pa: PhysAddr,
    },
    /// Violation policy fenced the device: all wavefronts halt, quietly.
    Disable,
    /// The process died (kill policy / fatal OS error): stop everything.
    Halt,
}

/// Physical block address implied by a TLB entry — huge entries carry
/// their 2 MiB base, so the sub-page offset is re-applied.
pub(crate) fn phys_block_from_entry(entry: &TlbEntry, va: VirtAddr) -> PhysAddr {
    match entry.size {
        bc_mem::PageSize::Base4K => entry.ppn.byte(va.page_offset()).block_aligned(),
        bc_mem::PageSize::Huge2M => {
            let sub = va.vpn().as_u64() - entry.vpn.as_u64();
            entry.ppn.add(sub).byte(va.page_offset()).block_aligned()
        }
    }
}

/// Does `entry` translate `vpn`? (A huge entry covers 512 base pages.)
fn entry_covers(entry: &TlbEntry, vpn: Vpn) -> bool {
    let base = entry.vpn.as_u64();
    vpn.as_u64() >= base && vpn.as_u64() < base + entry.size.base_pages()
}

/// Per-block continuation state of an in-flight op.
///
/// The serial loop issues all of an op's coalesced blocks at the same
/// cycle (ports and channels serialize them in *state*, not in issue
/// order); the frontend mirrors that by walking every block at issue
/// time and parking only the ones that need a backend round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum BlockState {
    /// Completed locally (or its response already arrived).
    #[default]
    Done,
    /// Waiting for a `TlbFill` covering the block's page.
    WaitTlb,
    /// Waiting for the `BlockDone` of its L2/memory fill.
    WaitL2,
}

/// One op in flight on a wavefront, with the completion running-max the
/// serial `issue_op` kept on its stack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpRun {
    op: WarpOp,
    completion: Cycle,
    pending: u8,
    state: [BlockState; BlockList::CAPACITY],
}

/// One CU cluster: wavefronts, issue port, L1 and L1 TLB, driven purely
/// by [`Event`]s. All fields are crate-visible so the system assembler
/// can build and the report aggregator can read them.
pub(crate) struct Frontend {
    /// This frontend's component id (== its CU index).
    pub(crate) id: usize,
    /// The backend's component id.
    pub(crate) back: usize,
    pub(crate) cu: ComputeUnit,
    pub(crate) port: Port,
    pub(crate) asid: Asid,
    pub(crate) behavior: Behavior,
    pub(crate) l1_latency: u64,
    pub(crate) lookahead: u64,
    pub(crate) max_ops: Option<u64>,
    pub(crate) max_cycles: u64,
    /// Physical frames in the machine (malicious probes scan these).
    pub(crate) total_frames: u64,
    pub(crate) probe_rng: SimRng,
    pub(crate) stall_until: Cycle,
    /// Set by `Halt`/`Disable` (and by the cycle valve): drop everything.
    pub(crate) halted: bool,
    /// The local cycle valve fired; the run aggregator turns any tripped
    /// valve into a `CycleLimit` abort.
    pub(crate) valve_tripped: bool,
    pub(crate) runs: Vec<Option<OpRun>>,
    /// Reusable eviction buffer for flush broadcasts.
    pub(crate) scratch: Vec<bc_cache::set_assoc::Evicted>,
    // ---- counters merged into the RunReport ---------------------------
    pub(crate) ops: u64,
    pub(crate) block_accesses: u64,
    pub(crate) events: u64,
    pub(crate) last_event: Cycle,
}

/// Run-wide constants shared by every frontend at construction.
pub(crate) struct FrontendParams {
    pub(crate) asid: Asid,
    pub(crate) behavior: Behavior,
    pub(crate) l1_latency: u64,
    pub(crate) lookahead: u64,
    pub(crate) max_ops: Option<u64>,
    pub(crate) max_cycles: u64,
    pub(crate) total_frames: u64,
    pub(crate) seed: u64,
}

impl Frontend {
    pub(crate) fn new(id: usize, back: usize, cu: ComputeUnit, p: &FrontendParams) -> Self {
        let wavefronts = cu.wavefronts.len();
        Frontend {
            id,
            back,
            cu,
            port: Port::new(),
            asid: p.asid,
            behavior: p.behavior,
            l1_latency: p.l1_latency,
            lookahead: p.lookahead,
            max_ops: p.max_ops,
            max_cycles: p.max_cycles,
            total_frames: p.total_frames,
            // Same tweak constant as the serial GPU's shared probe rng, so
            // a single-CU machine draws the identical probe sequence; the
            // golden-ratio spread keeps multi-CU streams independent.
            // bc-lint: allow(saturating-counter) — golden-ratio seed mix.
            probe_rng: SimRng::seed_from(
                p.seed ^ 0x4D41_4C49_4349 ^ (id as u64).wrapping_mul(0x9E37_79B9_97F4_A7C5),
            ),
            stall_until: Cycle::ZERO,
            halted: false,
            valve_tripped: false,
            runs: vec![None; wavefronts],
            scratch: Vec::new(),
            ops: 0,
            block_accesses: 0,
            events: 0,
            last_event: Cycle::ZERO,
        }
    }

    /// Dispatches one event. Control broadcasts (stalls, flushes,
    /// shootdowns, halts) are not counted as simulated events — their
    /// serial equivalents were synchronous calls, not queue entries.
    pub(crate) fn handle(&mut self, now: Cycle, ev: Event, out: &mut Outbox<'_, Event>) {
        if self.halted {
            return;
        }
        if now.as_u64() > self.max_cycles {
            // Local cycle valve: the backend trips the global abort; this
            // just stops the frontend from running past the horizon.
            self.valve_tripped = true;
            self.halted = true;
            return;
        }
        match ev {
            Event::WavefrontReady { wf, .. } => {
                self.count(now);
                self.ready(now, wf, out);
            }
            Event::IssueOp { wf, .. } => {
                self.count(now);
                self.issue(now, wf, out);
            }
            Event::TlbFill { entry } => {
                self.count(now);
                self.tlb_fill(now, entry, out);
            }
            Event::BlockDone { wf, block, done } => {
                self.count(now);
                self.block_done(now, wf, block, done, out);
            }
            Event::StallHorizon { until } => self.stall_until = self.stall_until.max(until),
            Event::Shootdown(req) => self.apply_shootdown(&req),
            Event::FlushPage(ppn) => self.flush_page(ppn),
            Event::FlushAll => self.flush_all(),
            Event::RecallInv { pa } => {
                if let Some(l1) = &mut self.cu.l1 {
                    l1.invalidate_block(pa);
                }
            }
            Event::Disable => {
                // Fence the device: wavefronts halt where they stand. No
                // WfDone is sent — the backend already forced global
                // completion when it chose this policy.
                for wf in &mut self.cu.wavefronts {
                    wf.done = true;
                    wf.in_flight = None;
                }
                self.runs.iter_mut().for_each(|r| *r = None);
                self.halted = true;
            }
            Event::Halt => self.halted = true,
            _ => unreachable!("backend-only event routed to a frontend: {ev:?}"),
        }
    }

    fn count(&mut self, now: Cycle) {
        self.events += 1;
        self.last_event = now;
    }

    /// Mirror of the serial `step_wavefront`.
    fn ready(&mut self, now: Cycle, wf: usize, out: &mut Outbox<'_, Event>) {
        if now < self.stall_until {
            let at = self.stall_until;
            out.send(self.id, at, Event::WavefrontReady { cu: self.id, wf });
            return;
        }
        let max_ops = self.max_ops;
        let op = {
            let wave = &mut self.cu.wavefronts[wf];
            if wave.done {
                return;
            }
            let capped = max_ops.is_some_and(|limit| wave.ops_issued >= limit);
            let op = if capped { None } else { wave.stream.next_op() };
            match op {
                Some(op) => {
                    wave.ops_issued += 1;
                    Some(op)
                }
                None => {
                    wave.done = true;
                    None
                }
            }
        };
        match op {
            Some(op) => {
                self.ops += 1;
                let issue_at = self.port.serve(now, op.think.max(1));
                self.cu.wavefronts[wf].in_flight = Some(op);
                out.send(self.id, issue_at, Event::IssueOp { cu: self.id, wf });
            }
            // The wavefront drained; tell the backend (one hop away).
            None => out.send(self.back, now + self.lookahead, Event::WfDone),
        }
    }

    /// Mirror of the serial `issue_op`: all blocks issue at the same
    /// cycle; local hits complete locally, everything else parks in a
    /// per-block continuation until the backend answers.
    fn issue(&mut self, now: Cycle, wf: usize, out: &mut Outbox<'_, Event>) {
        // A drain window opened while this op sat in the issue port: hold
        // it until the stall lifts, by which point the downgrade has
        // committed and stale TLB entries have been shot down. Without
        // this, an op issued mid-quiesce could cross the border under
        // pre-downgrade permissions after the commit.
        if now < self.stall_until {
            out.send(
                self.id,
                self.stall_until,
                Event::IssueOp { cu: self.id, wf },
            );
            return;
        }
        let op = self.cu.wavefronts[wf]
            .in_flight
            .take()
            .expect("IssueOp event with no op in flight");
        let at = now;
        let mut run = OpRun {
            op,
            completion: at + 1,
            pending: 0,
            state: [BlockState::Done; BlockList::CAPACITY],
        };
        // Translate-request dedup *within* this op: one miss per distinct
        // page, like the serial walk whose first miss filled the TLB for
        // its neighbours.
        let mut requested = [None; BlockList::CAPACITY];
        let mut n_requested = 0;
        for b in 0..run.op.blocks.as_slice().len() {
            let access = run.op.blocks.as_slice()[b];
            self.block_accesses += 1;
            let vpn = access.va.vpn();
            let hit = self
                .cu
                .tlb
                .as_mut()
                .expect("direct configurations keep an L1 TLB")
                .lookup(self.asid, vpn);
            match hit {
                Some(entry) => match self.walk_block(&entry, access, at + 1, wf, b, out) {
                    Some(done) => run.completion = run.completion.max(done),
                    None => {
                        run.state[b] = BlockState::WaitL2;
                        run.pending += 1;
                    }
                },
                None => {
                    run.state[b] = BlockState::WaitTlb;
                    run.pending += 1;
                    if !requested[..n_requested].contains(&Some(vpn)) {
                        requested[n_requested] = Some(vpn);
                        n_requested += 1;
                        out.send(
                            self.back,
                            at + 1 + self.lookahead,
                            Event::Translate { cu: self.id, vpn },
                        );
                    }
                }
            }
        }

        // Malicious hardware: forge a physical probe alongside real work.
        let ops_issued = self.cu.wavefronts[wf].ops_issued;
        if let Some((ppn, write)) = self.maybe_probe(ops_issued) {
            out.send(self.back, at + self.lookahead, Event::Probe { ppn, write });
        }

        if run.pending == 0 {
            let ready_at = run.completion.max(now + 1);
            out.send(self.id, ready_at, Event::WavefrontReady { cu: self.id, wf });
        } else {
            self.runs[wf] = Some(run);
        }
    }

    /// One block through L1 TLB-hit territory: L1 lookup, then either
    /// local completion or an L2 crossing. Returns the wavefront-visible
    /// completion (stores are posted), or `None` when the block must wait
    /// for its fill.
    fn walk_block(
        &mut self,
        entry: &TlbEntry,
        access: bc_workloads::BlockAccess,
        t: Cycle,
        wf: usize,
        block: usize,
        out: &mut Outbox<'_, Event>,
    ) -> Option<Cycle> {
        let pa = phys_block_from_entry(entry, access.va);
        let kind = if access.write {
            Access::Write
        } else {
            Access::Read
        };
        let l1_result = self
            .cu
            .l1
            .as_mut()
            .expect("direct configurations keep an L1")
            .access(pa, kind);
        let t = t + self.l1_latency;
        if access.write {
            // Store: posted at L1; the write-through traffic crosses to
            // the shared side without the wavefront waiting.
            out.send(
                self.back,
                t + self.lookahead,
                Event::L2Req {
                    cu: self.id,
                    wf,
                    block: block as u8,
                    pa,
                    write: true,
                },
            );
            return Some(t);
        }
        if l1_result.is_hit() {
            return Some(t);
        }
        out.send(
            self.back,
            t + self.lookahead,
            Event::L2Req {
                cu: self.id,
                wf,
                block: block as u8,
                pa,
                write: false,
            },
        );
        None
    }

    /// A translation arrived: fill the TLB and resume every block (in any
    /// wavefront) parked on a page this entry covers.
    fn tlb_fill(&mut self, now: Cycle, entry: TlbEntry, out: &mut Outbox<'_, Event>) {
        if let Some(tlb) = &mut self.cu.tlb {
            tlb.insert(entry);
        }
        for wf in 0..self.runs.len() {
            let Some(mut run) = self.runs[wf].take() else {
                continue;
            };
            for b in 0..run.op.blocks.as_slice().len() {
                if run.state[b] != BlockState::WaitTlb {
                    continue;
                }
                let access = run.op.blocks.as_slice()[b];
                if !entry_covers(&entry, access.va.vpn()) {
                    continue;
                }
                match self.walk_block(&entry, access, now, wf, b, out) {
                    Some(done) => {
                        run.state[b] = BlockState::Done;
                        run.pending -= 1;
                        run.completion = run.completion.max(done);
                    }
                    None => run.state[b] = BlockState::WaitL2,
                }
            }
            self.finish_or_park(now, wf, run, out);
        }
    }

    /// A read fill completed on the shared side.
    fn block_done(
        &mut self,
        now: Cycle,
        wf: usize,
        block: u8,
        done: Cycle,
        out: &mut Outbox<'_, Event>,
    ) {
        let Some(mut run) = self.runs[wf].take() else {
            return;
        };
        if run.state[block as usize] == BlockState::WaitL2 {
            run.state[block as usize] = BlockState::Done;
            run.pending -= 1;
            run.completion = run.completion.max(done);
        }
        self.finish_or_park(now, wf, run, out);
    }

    fn finish_or_park(&mut self, now: Cycle, wf: usize, run: OpRun, out: &mut Outbox<'_, Event>) {
        if run.pending == 0 {
            let ready_at = run.completion.max(now + 1);
            out.send(self.id, ready_at, Event::WavefrontReady { cu: self.id, wf });
        } else {
            self.runs[wf] = Some(run);
        }
    }

    fn maybe_probe(&mut self, ops_issued: u64) -> Option<(Ppn, bool)> {
        if let Behavior::Malicious {
            probe_period,
            probe_writes,
        } = self.behavior
        {
            if probe_period > 0 && ops_issued % probe_period == probe_period - 1 {
                let scan_range = self.total_frames.clamp(1, 2048);
                let ppn = Ppn::new(self.probe_rng.below(scan_range));
                return Some((ppn, probe_writes));
            }
        }
        None
    }

    /// Shootdown broadcast. The backend already counted an ignored
    /// shootdown once device-wide, so the frontend only applies (or
    /// silently skips) the TLB work.
    fn apply_shootdown(&mut self, req: &ShootdownRequest) {
        if !self.behavior.honours_shootdowns() {
            return;
        }
        if let Some(tlb) = &mut self.cu.tlb {
            match req.scope {
                ShootdownScope::Page(vpn) => {
                    tlb.invalidate(req.asid, vpn);
                }
                ShootdownScope::FullAddressSpace => {
                    tlb.flush_asid(req.asid);
                }
            }
        }
    }

    fn flush_page(&mut self, ppn: Ppn) {
        if !self.behavior.honours_flushes() {
            return;
        }
        if let Some(l1) = &mut self.cu.l1 {
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.clear();
            l1.flush_page_into(ppn, &mut scratch);
            // Write-through L1s never hold dirty lines; the backend's own
            // flush of the (write-back) L2 is what produces border writes.
            debug_assert!(scratch.iter().all(|e| !e.dirty));
            self.scratch = scratch;
        }
    }

    fn flush_all(&mut self) {
        if self.behavior.honours_flushes() {
            if let Some(l1) = &mut self.cu.l1 {
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                l1.flush_all_into(&mut scratch);
                debug_assert!(scratch.iter().all(|e| !e.dirty));
                self.scratch = scratch;
            }
        }
        // TLB invalidation is forced by the trusted side regardless of
        // accelerator behaviour (mirrors `Gpu::flush_tlbs`).
        if let Some(tlb) = &mut self.cu.tlb {
            tlb.flush_all();
        }
    }
}

/// Snapshot codecs: events (a warm-start cut serializes the engine's
/// pending calendar), op continuations, and the frontend's exact state.
/// Params-derived fields (ids, behavior, latencies, the probe-rng *seed*)
/// and the CU's shape come from the build; everything the run mutates is
/// serialized.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::{BlockState, Event, Frontend, OpRun};

    bc_sim::snap_enum!(Event, "event discriminant",
        0 => WavefrontReady { cu, wf }, 1 => IssueOp { cu, wf }, 2 => Downgrade,
        3 => CommitDowngrade { vpn }, 4 => CpuTick, 5 => Translate { cu, vpn },
        6 => L2Req { cu, wf, block, pa, write }, 7 => Probe { ppn, write }, 8 => WfDone,
        9 => TlbFill { entry }, 10 => BlockDone { wf, block, done },
        11 => StallHorizon { until }, 12 => Shootdown(req), 13 => FlushPage(ppn), 14 => FlushAll,
        15 => RecallInv { pa }, 16 => Disable, 17 => Halt);

    bc_sim::snap_enum!(BlockState: Default, "block state", 0 => Done, 1 => WaitTlb, 2 => WaitL2);

    bc_sim::snap_struct!(OpRun: op, completion, pending, state);

    impl Snap for Frontend {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"FRNT")?;
            c.snap(&mut self.cu)?;
            c.snap(&mut self.port)?;
            c.snap(&mut self.probe_rng)?;
            c.snap(&mut self.stall_until)?;
            c.snap(&mut self.halted)?;
            c.snap(&mut self.valve_tripped)?;
            c.each(&mut self.runs, "frontend run-slot count")?;
            c.snap(&mut self.ops)?;
            c.snap(&mut self.block_accesses)?;
            c.snap(&mut self.events)?;
            c.snap(&mut self.last_event)
        }
    }
}
