//! The Border Control engine: the hardware at the untrusted-to-trusted
//! border, implementing the event flows of the paper's Figure 3.

use bc_cache::tlb::TlbEntry;
use bc_mem::addr::{Asid, Ppn};
use bc_mem::dram::Dram;
use bc_mem::perms::PagePerms;

use bc_mem::store::PhysMemStore;
use bc_os::{Kernel, OsError, ShootdownRequest, Violation, ViolationKind};
use bc_sim::resource::Port;
use bc_sim::stats::{Counter, StatsTable};
use bc_sim::Cycle;

use crate::proto;

use crate::bcc::{Bcc, BccConfig};
use crate::table::ProtectionTable;

/// How Border Control reacts to a permission downgrade (§3.2.4): either
/// flush everything — "if the entire accelerator cache is flushed, the
/// Protection Table can be zeroed and the BCC and accelerator TLB can be
/// invalidated" — or selectively flush only the affected page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlushPolicy {
    /// Flush all accelerator caches, zero the Protection Table, invalidate
    /// the BCC and accelerator TLB. This is the implementation the paper
    /// evaluates (Figure 7).
    #[default]
    FullFlush,
    /// Selectively flush only blocks of the affected page and update just
    /// that page's Protection Table / BCC entry ("as an optimization,
    /// selectively flush only blocks from the affected page").
    Selective,
}

impl FlushPolicy {
    /// Stable label used by the canonical config schema
    /// (`bc_experiments::schema`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlushPolicy::FullFlush => "full-flush",
            FlushPolicy::Selective => "selective",
        }
    }

    /// Inverse of [`FlushPolicy::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "full-flush" => Some(FlushPolicy::FullFlush),
            "selective" => Some(FlushPolicy::Selective),
            _ => None,
        }
    }
}

/// Border Control configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BorderControlConfig {
    /// BCC geometry; `None` gives the Border Control-noBCC configuration
    /// of Table 2 (every check reads the Protection Table in memory).
    pub bcc: Option<BccConfig>,
    /// Whether the Protection Table lookup of a *read* proceeds in
    /// parallel with the data fetch ("the flat layout guarantees that all
    /// permission lookups can be completed with a single memory access,
    /// which can proceed in parallel with read requests", §3.1.1).
    /// Disabled, every read serializes check-then-fetch — an ablation.
    pub parallel_read_check: bool,
    /// Downgrade handling policy.
    pub flush_policy: FlushPolicy,
    /// Cycles the check port is occupied per request (bandwidth of the
    /// Border Control checker itself).
    pub check_occupancy: u64,
    /// Record every checked `(ppn, is_write)` so offline sweeps (the
    /// Figure 6 BCC study) can replay the exact border-crossing stream.
    pub record_stream: bool,
}

impl Default for BorderControlConfig {
    fn default() -> Self {
        BorderControlConfig {
            bcc: Some(BccConfig::default()),
            parallel_read_check: true,
            flush_policy: FlushPolicy::FullFlush,
            check_occupancy: 1,
            record_stream: false,
        }
    }
}

impl BorderControlConfig {
    /// The Border Control-noBCC configuration of Table 2.
    #[must_use]
    pub fn without_bcc() -> Self {
        BorderControlConfig {
            bcc: None,
            ..Self::default()
        }
    }
}

/// One accelerator memory request presented at the border (§3.2.3): a
/// physical address and a direction. Reads are cache-miss fills; writes
/// are writebacks from the accelerator's caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// The physical page targeted.
    pub ppn: Ppn,
    /// `true` for writes/writebacks (need W), `false` for reads (need R).
    pub write: bool,
    /// The address space the accelerator claims to act for, if known
    /// (used only for violation reporting — the check itself is purely
    /// physical).
    pub asid: Option<Asid>,
}

/// The result of a border check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Whether the request may proceed to memory.
    pub allowed: bool,
    /// When the permission check completed. For allowed *reads* with
    /// [`BorderControlConfig::parallel_read_check`], the data fetch may
    /// overlap this; the system model takes `max(check_done, data_done)`.
    pub done: Cycle,
    /// Violation details when blocked.
    pub violation: Option<Violation>,
    /// Whether the BCC hit (`None` when running without a BCC).
    pub bcc_hit: Option<bool>,
    /// Whether a Protection Table memory access was needed.
    pub pt_accessed: bool,
}

/// What the system must do before Border Control commits a downgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DowngradeAction {
    /// Nothing to flush (page was clean / upgrade): commit immediately.
    CommitNow,
    /// Flush accelerator-cached blocks of this physical page, writing
    /// dirty ones back through the border, *then* commit.
    FlushPage(Ppn),
    /// Flush all accelerator caches (and the accelerator TLB), then
    /// commit.
    FlushAll,
}

/// The Border Control engine for one accelerator.
///
/// # Example
///
/// ```
/// use bc_core::{BorderControl, BorderControlConfig, MemRequest};
/// use bc_os::{Kernel, KernelConfig};
/// use bc_mem::{Dram, DramConfig, PagePerms, Ppn, VirtAddr};
/// use bc_sim::Cycle;
///
/// let mut kernel = Kernel::new(KernelConfig::default());
/// let mut dram = Dram::new(DramConfig::default());
/// let pid = kernel.create_process();
/// kernel.map_region(pid, VirtAddr::new(0x1000), 1, PagePerms::READ_WRITE)?;
///
/// let mut bc = BorderControl::new(0, BorderControlConfig::default());
/// bc.attach_process(&mut kernel, pid)?;
///
/// // A request to a page never delivered by the ATS is blocked.
/// let outcome = bc.check(
///     Cycle::ZERO,
///     MemRequest { ppn: Ppn::new(0x1234), write: false, asid: Some(pid) },
///     kernel.store_mut(),
///     &mut dram,
/// );
/// assert!(!outcome.allowed);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BorderControl {
    accel_id: u32,
    config: BorderControlConfig,
    table: Option<ProtectionTable>,
    table_pages: u64,
    bcc: Option<Bcc>,
    attached: Vec<Asid>,
    check_port: Port,
    checks: Counter,
    violations: Counter,
    pt_reads: Counter,
    pt_writes: Counter,
    insertions: Counter,
    stream: Vec<(Ppn, bool)>,
}

impl BorderControl {
    /// Creates an idle Border Control instance for accelerator `accel_id`.
    pub fn new(accel_id: u32, config: BorderControlConfig) -> Self {
        BorderControl {
            accel_id,
            bcc: config.bcc.map(Bcc::new),
            config,
            table: None,
            table_pages: 0,
            attached: Vec::new(),
            check_port: Port::new(),
            checks: Counter::new(),
            violations: Counter::new(),
            pt_reads: Counter::new(),
            pt_writes: Counter::new(),
            insertions: Counter::new(),
            stream: Vec::new(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> BorderControlConfig {
        self.config
    }

    /// The current Protection Table registers, if a process is attached.
    #[must_use]
    pub fn table(&self) -> Option<&ProtectionTable> {
        self.table.as_ref()
    }

    /// ASIDs currently attached (the "use count" of Fig 3a/3e).
    #[must_use]
    pub fn attached(&self) -> &[Asid] {
        &self.attached
    }

    // ---- Figure 3a: process initialization ---------------------------------

    /// Attaches a process to the accelerator. On the first attach the OS
    /// allocates and zeroes the Protection Table and Border Control's base
    /// and bounds registers are set; otherwise only the use count grows.
    ///
    /// # Errors
    ///
    /// Propagates [`OsError::OutOfMemory`] if the table cannot be carved
    /// out.
    pub fn attach_process(&mut self, kernel: &mut Kernel, asid: Asid) -> Result<(), OsError> {
        if self.table.is_none() {
            let bounds = kernel.total_frames();
            let pages = ProtectionTable::storage_pages(bounds);
            let base = kernel.alloc_protection_table(pages)?;
            self.table = Some(ProtectionTable::new(base, bounds));
            self.table_pages = pages;
        }
        if !self.attached.contains(&asid) {
            self.attached.push(asid);
        }
        Ok(())
    }

    // ---- Figure 3e: process completion --------------------------------------

    /// Detaches a process: zeroes the Protection Table (revoking every
    /// permission this accelerator held), invalidates the BCC, and — when
    /// the last process leaves — returns the table's memory to the OS.
    /// The *caller* must first flush the accelerator caches and write
    /// dirty data back through the border.
    ///
    /// Returns the number of Protection Table blocks zeroed so the system
    /// can charge the DRAM writes.
    pub fn detach_process(&mut self, kernel: &mut Kernel, asid: Asid) -> u64 {
        self.attached.retain(|a| *a != asid);
        let mut blocks = 0;
        if let Some(table) = self.table {
            blocks = table.zero(kernel.store_mut(), None);
            if let Some(bcc) = &mut self.bcc {
                bcc.invalidate_all();
            }
            if self.attached.is_empty() {
                kernel.free_protection_table(table.base(), self.table_pages);
                self.table = None;
                self.table_pages = 0;
            }
        }
        blocks
    }

    // ---- Figure 3b: protection table insertion -------------------------------

    /// Observes a completed ATS translation ("the ATS … sends the result
    /// to both the accelerator TLB and Border Control"). Permissions are
    /// merged into the Protection Table — and the BCC, write-through —
    /// covering every 4 KiB page of the translation (512 for a 2 MiB huge
    /// page, §3.4.4). Returns when the insertion completed.
    pub fn on_translation(
        &mut self,
        at: Cycle,
        entry: &TlbEntry,
        store: &mut PhysMemStore,
        dram: &mut Dram,
    ) -> Cycle {
        let Some(table) = self.table else {
            return at;
        };
        self.insertions.inc();
        let pages = entry.size.base_pages();
        let base = entry.ppn;
        let perms = proto::insertion_perms(entry.perms);

        let t = at;
        // Protection Table update: for a base page all bits live in one
        // block (one read-modify-write); a 2 MiB page spans exactly one
        // block too (512 entries × 2 bits = 128 B).
        let cached = self.bcc.as_ref().and_then(|b| b.peek(base));
        if proto::insertion_covered(cached, perms, pages) {
            // "If there is an entry for this page in the BCC and it has
            // the correct permissions, no action is taken."
            return t;
        }

        // The table update is posted: the write-through (and any BCC fill
        // read) consume DRAM bandwidth but do not delay delivering the
        // translation to the accelerator TLB — Border Control is not on
        // the translation's critical path, only on the request-check path.
        table.merge_range(store, base, pages, perms);
        self.pt_writes.inc();
        dram.write_block(t, table.block_addr(base));

        if let Some(bcc) = &mut self.bcc {
            let mut filled_from = None;
            for i in 0..pages {
                let ppn = base.add(i);
                if !bcc.update(ppn, perms) {
                    // BCC miss: allocate the entry by fetching its table
                    // block (one read per distinct block).
                    let block_addr = table.block_addr(ppn);
                    if filled_from != Some(block_addr) {
                        self.pt_reads.inc();
                        dram.read_block(t, block_addr);
                        filled_from = Some(block_addr);
                    }
                    bcc.fill_bytes(ppn, &table.block_bytes(store, ppn));
                }
            }
        }
        t
    }

    // ---- Figure 3c: accelerator memory request --------------------------------

    /// Checks one request crossing the border. Reads need R, writebacks
    /// need W; a request outside the bounds register, or whose Protection
    /// Table entry lacks the needed bit, is blocked and reported.
    pub fn check(
        &mut self,
        at: Cycle,
        req: MemRequest,
        store: &mut PhysMemStore,
        dram: &mut Dram,
    ) -> CheckOutcome {
        self.checks.inc();
        if self.config.record_stream {
            self.stream.push((req.ppn, req.write));
        }
        // The checker sustains one check per cycle; Figure 5 shows demand
        // peaks at ~0.3 checks/cycle, so occupancy is charged as fixed
        // latency rather than a queueing cursor (the simulator processes
        // wavefronts slightly out of arrival order, which would otherwise
        // fabricate queueing that the real in-order port never sees).
        let start = at + self.config.check_occupancy;
        self.check_port.serve(at, self.config.check_occupancy);

        let Some(table) = self.table else {
            // No process attached: nothing is permitted.
            return self.deny(start, req, ViolationKind::OutOfBounds);
        };

        // Bounds register first (§3.2.3).
        if !table.in_bounds(req.ppn) {
            return self.deny(start, req, ViolationKind::OutOfBounds);
        }

        let mut t = start;
        let mut bcc_hit = None;
        let mut pt_accessed = false;

        let perms = if let Some(bcc) = &mut self.bcc {
            t += bcc.config().latency;
            match bcc.lookup(req.ppn) {
                Some(p) => {
                    bcc_hit = Some(true);
                    p
                }
                None => {
                    bcc_hit = Some(false);
                    pt_accessed = true;
                    self.pt_reads.inc();
                    t = dram.read_block(t, table.block_addr(req.ppn));
                    bcc.fill_bytes(req.ppn, &table.block_bytes(store, req.ppn));
                    table.lookup(store, req.ppn)
                }
            }
        } else {
            pt_accessed = true;
            self.pt_reads.inc();
            t = dram.read_block(t, table.block_addr(req.ppn));
            table.lookup(store, req.ppn)
        };

        if proto::access_allowed(perms, req.write) {
            CheckOutcome {
                allowed: true,
                done: t,
                violation: None,
                bcc_hit,
                pt_accessed,
            }
        } else {
            let mut out = self.deny(t, req, proto::denial_kind(req.write));
            out.bcc_hit = bcc_hit;
            out.pt_accessed = pt_accessed;
            out
        }
    }

    fn deny(&mut self, at: Cycle, req: MemRequest, kind: ViolationKind) -> CheckOutcome {
        self.violations.inc();
        CheckOutcome {
            allowed: false,
            done: at,
            violation: Some(Violation {
                accel_id: self.accel_id,
                asid: req.asid,
                ppn: req.ppn,
                kind,
                at,
            }),
            bcc_hit: None,
            pt_accessed: false,
        }
    }

    // ---- Figure 3d: memory mapping update --------------------------------------

    /// Decides what must happen before a mapping update can be committed.
    /// New mappings and pure upgrades need nothing ("If a new translation
    /// … is added, the Border Control takes no action"). Downgrades of
    /// pages that may be dirty require an accelerator cache flush first.
    #[must_use]
    pub fn downgrade_action(&self, req: &ShootdownRequest) -> DowngradeAction {
        proto::downgrade_action(self.config.flush_policy, req)
    }

    /// Commits a mapping update after any required flush completed.
    /// Returns when the Protection Table / BCC maintenance finished (DRAM
    /// traffic charged).
    pub fn commit_downgrade(
        &mut self,
        at: Cycle,
        req: &ShootdownRequest,
        store: &mut PhysMemStore,
        dram: &mut Dram,
    ) -> Cycle {
        let Some(table) = self.table else {
            return at;
        };
        match proto::commit_plan(self.config.flush_policy, req) {
            proto::CommitPlan::Nothing => at,
            proto::CommitPlan::SetPage { ppn, perms } => {
                table.set(store, ppn, perms);
                self.pt_writes.inc();
                let t = dram.write_block(at, table.block_addr(ppn));
                if let Some(bcc) = &mut self.bcc {
                    bcc.overwrite(ppn, perms);
                }
                t
            }
            proto::CommitPlan::ZeroAll => {
                let blocks = table.zero(store, None);
                // The zeroing writes are streamed back-to-back; DRAM
                // channel occupancy (not per-access latency) bounds them.
                let t = dram.write_blocks(at, blocks);
                self.pt_writes.add(blocks);
                if let Some(bcc) = &mut self.bcc {
                    bcc.invalidate_all();
                }
                t
            }
        }
    }

    // ---- audit support ------------------------------------------------------------

    /// Sweeps the BCC and returns every cached page whose permissions
    /// disagree with the Protection Table — the BCC is write-through, so
    /// a valid entry must always mirror the table exactly (§3.1.2: the
    /// BCC "is always a subset view" of the table). Each mismatch is
    /// `(page, cached, table)` with unix-style permission renderings.
    /// Empty when no table or no BCC is configured. Read-only: touches
    /// neither LRU state nor statistics, and charges no DRAM traffic
    /// (the audit layer is pure observation).
    #[must_use]
    pub fn audit_bcc_subset(&self, store: &PhysMemStore) -> Vec<(u64, String, String)> {
        let (Some(table), Some(bcc)) = (self.table.as_ref(), self.bcc.as_ref()) else {
            return Vec::new();
        };
        let mut mismatches = Vec::new();
        bcc.for_each_valid(|ppn, cached| {
            // The tail of a subblocked entry can extend past the bounds
            // register; the bounds check blocks those pages before the
            // BCC is ever consulted, so they carry no authority.
            if !table.in_bounds(ppn) {
                return;
            }
            let truth = table.lookup(store, ppn).border_enforceable();
            if cached != truth {
                mismatches.push((ppn.as_u64(), cached.to_string(), truth.to_string()));
            }
        });
        mismatches
    }

    /// Test-only fault injection: corrupts the BCC entry covering `ppn`
    /// without the table write-through, so the subset sweep has something
    /// to catch. Returns whether an entry was present to corrupt.
    #[doc(hidden)]
    pub fn debug_corrupt_bcc(&mut self, ppn: Ppn, perms: PagePerms) -> bool {
        self.bcc
            .as_mut()
            .map(|b| b.debug_corrupt(ppn, perms))
            .unwrap_or(false)
    }

    // ---- statistics ---------------------------------------------------------------

    /// Requests checked so far (the numerator of Figure 5).
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks.get()
    }

    /// Requests blocked.
    #[must_use]
    pub fn violations_blocked(&self) -> u64 {
        self.violations.get()
    }

    /// Protection Table memory reads.
    #[must_use]
    pub fn pt_reads(&self) -> u64 {
        self.pt_reads.get()
    }

    /// Protection Table memory writes.
    #[must_use]
    pub fn pt_writes(&self) -> u64 {
        self.pt_writes.get()
    }

    /// Translations observed (Fig 3b insertions).
    #[must_use]
    pub fn insertions(&self) -> u64 {
        self.insertions.get()
    }

    /// BCC hit/miss statistics, if a BCC is configured.
    #[must_use]
    pub fn bcc_stats(&self) -> Option<bc_sim::stats::HitMiss> {
        self.bcc.as_ref().map(|b| b.stats())
    }

    /// The recorded border-crossing stream (empty unless
    /// [`BorderControlConfig::record_stream`] was set), drained.
    pub fn take_stream(&mut self) -> Vec<(Ppn, bool)> {
        std::mem::take(&mut self.stream)
    }

    /// Requests checked per cycle over an `elapsed` window (Figure 5).
    #[must_use]
    // bc-lint: allow(float) — summary throughput ratio for reports.
    pub fn checks_per_cycle(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.checks.get() as f64 / elapsed as f64
        }
    }

    /// Renders a stats table for reports.
    #[must_use]
    pub fn stats(&self, elapsed: u64) -> StatsTable {
        let mut t = StatsTable::new(format!("Border Control (accel {})", self.accel_id));
        t.push("checks", self.checks.get());
        t.push("violations blocked", self.violations.get());
        t.push("PT reads", self.pt_reads.get());
        t.push("PT writes", self.pt_writes.get());
        t.push("insertions", self.insertions.get());
        t.push_f64("checks/cycle", self.checks_per_cycle(elapsed));
        if let Some(hm) = self.bcc_stats() {
            t.push_pct("BCC miss ratio", hm.miss_ratio());
        }
        t
    }
}

/// Snapshot codec: everything an engine holds is exact state — registers,
/// BCC contents, use counts, port calendar, counters, and any recorded
/// border-crossing stream — except its id and config, fixed by the build
/// that is read over, and whether it has a BCC, which is checked against
/// that build.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::BorderControl;

    impl Snap for BorderControl {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"BCTL")?;
            c.snap(&mut self.table)?;
            c.snap(&mut self.table_pages)?;
            c.built_opt(&mut self.bcc, "BCC presence")?;
            c.snap(&mut self.attached)?;
            c.snap(&mut self.check_port)?;
            c.snap(&mut self.checks)?;
            c.snap(&mut self.violations)?;
            c.snap(&mut self.pt_reads)?;
            c.snap(&mut self.pt_writes)?;
            c.snap(&mut self.insertions)?;
            c.snap(&mut self.stream)
        }
    }
}

// bc-lint: allow(float) — assertions on summary ratios only.
#[cfg(test)]
#[allow(clippy::indexing_slicing)] // tests may index asserted-nonempty results
mod tests {
    use super::*;
    use bc_mem::addr::{PageSize, VirtAddr};
    use bc_mem::dram::DramConfig;
    use bc_mem::perms::PagePerms;
    use bc_os::KernelConfig;

    fn setup(config: BorderControlConfig) -> (Kernel, Dram, BorderControl, Asid) {
        let mut kernel = Kernel::new(KernelConfig {
            phys_bytes: 256 << 20,
            ..KernelConfig::default()
        });
        let dram = Dram::new(DramConfig::default());
        let mut bc = BorderControl::new(0, config);
        let pid = kernel.create_process();
        kernel
            .map_region(pid, VirtAddr::new(0x10000), 8, PagePerms::READ_WRITE)
            .unwrap();
        bc.attach_process(&mut kernel, pid).unwrap();
        (kernel, dram, bc, pid)
    }

    fn tlb_entry(asid: Asid, vpn: u64, ppn: Ppn, perms: PagePerms) -> TlbEntry {
        TlbEntry {
            asid,
            vpn: bc_mem::Vpn::new(vpn),
            ppn,
            perms,
            size: PageSize::Base4K,
        }
    }

    #[test]
    fn attach_allocates_zeroed_table_once() {
        let (mut kernel, _dram, mut bc, pid) = setup(BorderControlConfig::default());
        let table = *bc.table().unwrap();
        assert_eq!(table.bounds_pages(), kernel.total_frames());
        assert_eq!(bc.attached(), &[pid]);
        // Second process reuses the same table.
        let pid2 = kernel.create_process();
        bc.attach_process(&mut kernel, pid2).unwrap();
        assert_eq!(bc.table().unwrap().base(), table.base());
        assert_eq!(bc.attached().len(), 2);
    }

    #[test]
    fn forged_address_blocked() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::default());
        let out = bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: Ppn::new(0x500),
                write: false,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(!out.allowed);
        assert_eq!(
            out.violation.unwrap().kind,
            ViolationKind::ReadWithoutPermission
        );
        assert_eq!(bc.violations_blocked(), 1);
    }

    #[test]
    fn translation_grants_then_check_passes() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::default());
        let tr = kernel.translate(pid, VirtAddr::new(0x10000).vpn()).unwrap();
        bc.on_translation(
            Cycle::ZERO,
            &tlb_entry(pid, 0x10, tr.ppn, tr.perms),
            kernel.store_mut(),
            &mut dram,
        );
        let read = bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: tr.ppn,
                write: false,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(read.allowed);
        let write = bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: tr.ppn,
                write: true,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(write.allowed);
    }

    #[test]
    fn read_only_page_blocks_writeback() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::default());
        kernel
            .map_region(pid, VirtAddr::new(0x9000_0000), 1, PagePerms::READ_ONLY)
            .unwrap();
        let tr = kernel
            .translate(pid, VirtAddr::new(0x9000_0000).vpn())
            .unwrap();
        bc.on_translation(
            Cycle::ZERO,
            &tlb_entry(pid, 0x90000, tr.ppn, tr.perms),
            kernel.store_mut(),
            &mut dram,
        );
        let write = bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: tr.ppn,
                write: true,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(!write.allowed);
        assert_eq!(
            write.violation.unwrap().kind,
            ViolationKind::WriteWithoutPermission
        );
        // Reads are fine.
        let read = bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: tr.ppn,
                write: false,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(read.allowed);
    }

    #[test]
    fn bcc_hit_is_fast_miss_reads_table() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::default());
        let tr = kernel.translate(pid, VirtAddr::new(0x10000).vpn()).unwrap();
        bc.on_translation(
            Cycle::ZERO,
            &tlb_entry(pid, 0x10, tr.ppn, tr.perms),
            kernel.store_mut(),
            &mut dram,
        );
        let first = bc.check(
            Cycle::new(1000),
            MemRequest {
                ppn: tr.ppn,
                write: false,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        // Insertion filled the BCC: hit at BCC latency.
        assert_eq!(first.bcc_hit, Some(true));
        assert!(!first.pt_accessed);
        assert_eq!(first.done.as_u64() - 1000, 1 + BccConfig::default().latency);
    }

    #[test]
    fn no_bcc_always_reads_table() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::without_bcc());
        let tr = kernel.translate(pid, VirtAddr::new(0x10000).vpn()).unwrap();
        bc.on_translation(
            Cycle::ZERO,
            &tlb_entry(pid, 0x10, tr.ppn, tr.perms),
            kernel.store_mut(),
            &mut dram,
        );
        for _ in 0..3 {
            let out = bc.check(
                Cycle::ZERO,
                MemRequest {
                    ppn: tr.ppn,
                    write: false,
                    asid: Some(pid),
                },
                kernel.store_mut(),
                &mut dram,
            );
            assert!(out.allowed);
            assert_eq!(out.bcc_hit, None);
            assert!(out.pt_accessed);
        }
        assert_eq!(bc.pt_reads(), 3);
    }

    #[test]
    fn out_of_bounds_is_blocked_before_table_access() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::default());
        let beyond = Ppn::new(kernel.total_frames() + 5);
        let out = bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: beyond,
                write: false,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(!out.allowed);
        assert_eq!(out.violation.unwrap().kind, ViolationKind::OutOfBounds);
        assert!(!out.pt_accessed);
    }

    #[test]
    fn detached_engine_denies_everything() {
        let mut kernel = Kernel::new(KernelConfig {
            phys_bytes: 64 << 20,
            ..KernelConfig::default()
        });
        let mut dram = Dram::new(DramConfig::default());
        let mut bc = BorderControl::new(1, BorderControlConfig::default());
        let out = bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: Ppn::new(1),
                write: false,
                asid: None,
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(!out.allowed);
    }

    #[test]
    fn multiprocess_union_permissions() {
        let (mut kernel, mut dram, mut bc, pid1) = setup(BorderControlConfig::default());
        let pid2 = kernel.create_process();
        kernel
            .map_region(pid2, VirtAddr::new(0x20000), 1, PagePerms::READ_ONLY)
            .unwrap();
        bc.attach_process(&mut kernel, pid2).unwrap();

        let tr2 = kernel
            .translate(pid2, VirtAddr::new(0x20000).vpn())
            .unwrap();
        bc.on_translation(
            Cycle::ZERO,
            &tlb_entry(pid2, 0x20, tr2.ppn, tr2.perms),
            kernel.store_mut(),
            &mut dram,
        );
        // pid1 never got this page, but the accelerator as a whole did:
        // union semantics (§3.3) allow the read.
        let out = bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: tr2.ppn,
                write: false,
                asid: Some(pid1),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(out.allowed);
        // But not a write: the union holds only R for that page.
        let w = bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: tr2.ppn,
                write: true,
                asid: Some(pid1),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(!w.allowed);
    }

    #[test]
    fn detach_zeroes_table_and_revokes() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::default());
        let tr = kernel.translate(pid, VirtAddr::new(0x10000).vpn()).unwrap();
        bc.on_translation(
            Cycle::ZERO,
            &tlb_entry(pid, 0x10, tr.ppn, tr.perms),
            kernel.store_mut(),
            &mut dram,
        );
        let blocks = bc.detach_process(&mut kernel, pid);
        assert!(blocks > 0);
        assert!(bc.table().is_none(), "last detach frees the table");
        let out = bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: tr.ppn,
                write: false,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(!out.allowed, "permissions revoked at completion");
    }

    #[test]
    fn downgrade_full_flush_zeroes_table() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::default());
        let vpn = VirtAddr::new(0x10000).vpn();
        let tr = kernel.translate(pid, vpn).unwrap();
        bc.on_translation(
            Cycle::ZERO,
            &tlb_entry(pid, vpn.as_u64(), tr.ppn, tr.perms),
            kernel.store_mut(),
            &mut dram,
        );
        let req = kernel.protect_page(pid, vpn, PagePerms::READ_ONLY).unwrap();
        assert_eq!(bc.downgrade_action(&req), DowngradeAction::FlushAll);
        let done = bc.commit_downgrade(Cycle::ZERO, &req, kernel.store_mut(), &mut dram);
        assert!(done > Cycle::ZERO);
        // All permissions gone until re-inserted by the ATS.
        let out = bc.check(
            Cycle::new(done.as_u64()),
            MemRequest {
                ppn: tr.ppn,
                write: false,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert!(!out.allowed);
    }

    #[test]
    fn downgrade_selective_updates_single_page() {
        let config = BorderControlConfig {
            flush_policy: FlushPolicy::Selective,
            ..Default::default()
        };
        let (mut kernel, mut dram, mut bc, pid) = setup(config);
        let vpn = VirtAddr::new(0x10000).vpn();
        let other_vpn = vpn.add(1);
        for v in [vpn, other_vpn] {
            let tr = kernel.translate(pid, v).unwrap();
            bc.on_translation(
                Cycle::ZERO,
                &tlb_entry(pid, v.as_u64(), tr.ppn, tr.perms),
                kernel.store_mut(),
                &mut dram,
            );
        }
        let tr = kernel.translate(pid, vpn).unwrap();
        let other_tr = kernel.translate(pid, other_vpn).unwrap();
        let req = kernel.protect_page(pid, vpn, PagePerms::READ_ONLY).unwrap();
        assert_eq!(
            bc.downgrade_action(&req),
            DowngradeAction::FlushPage(tr.ppn)
        );
        bc.commit_downgrade(Cycle::ZERO, &req, kernel.store_mut(), &mut dram);

        // Downgraded page: write blocked, read allowed.
        assert!(
            !bc.check(
                Cycle::ZERO,
                MemRequest {
                    ppn: tr.ppn,
                    write: true,
                    asid: Some(pid)
                },
                kernel.store_mut(),
                &mut dram,
            )
            .allowed
        );
        assert!(
            bc.check(
                Cycle::ZERO,
                MemRequest {
                    ppn: tr.ppn,
                    write: false,
                    asid: Some(pid)
                },
                kernel.store_mut(),
                &mut dram,
            )
            .allowed
        );
        // Untouched page keeps write permission.
        assert!(
            bc.check(
                Cycle::ZERO,
                MemRequest {
                    ppn: other_tr.ppn,
                    write: true,
                    asid: Some(pid)
                },
                kernel.store_mut(),
                &mut dram,
            )
            .allowed
        );
    }

    #[test]
    fn upgrade_requires_no_action() {
        let (mut kernel, _dram, bc, pid) = setup(BorderControlConfig::default());
        kernel
            .map_region(pid, VirtAddr::new(0x9000_0000), 1, PagePerms::READ_ONLY)
            .unwrap();
        let req = kernel
            .protect_page(pid, VirtAddr::new(0x9000_0000).vpn(), PagePerms::READ_WRITE)
            .unwrap();
        assert_eq!(bc.downgrade_action(&req), DowngradeAction::CommitNow);
    }

    #[test]
    fn cow_downgrade_of_readonly_page_needs_no_flush() {
        let (mut kernel, _dram, bc, pid) = setup(BorderControlConfig::default());
        kernel
            .map_region(pid, VirtAddr::new(0x9000_0000), 1, PagePerms::READ_ONLY)
            .unwrap();
        // Remap of a read-only page (e.g. CoW bookkeeping): downgrade of a
        // clean page -> commit immediately, no accelerator flush.
        let req = kernel
            .swap_out_page(pid, VirtAddr::new(0x9000_0000).vpn())
            .unwrap();
        assert!(req.is_downgrade());
        assert!(!req.may_have_dirty_data());
        assert_eq!(bc.downgrade_action(&req), DowngradeAction::CommitNow);
    }

    #[test]
    fn huge_page_insertion_covers_512_pages() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::default());
        // Fabricate a huge-page translation (aligned PPN).
        let entry = TlbEntry {
            asid: pid,
            vpn: bc_mem::Vpn::new(512),
            ppn: Ppn::new(1024),
            perms: PagePerms::READ_WRITE,
            size: PageSize::Huge2M,
        };
        bc.on_translation(Cycle::ZERO, &entry, kernel.store_mut(), &mut dram);
        for p in [1024u64, 1300, 1535] {
            let out = bc.check(
                Cycle::ZERO,
                MemRequest {
                    ppn: Ppn::new(p),
                    write: true,
                    asid: Some(pid),
                },
                kernel.store_mut(),
                &mut dram,
            );
            assert!(out.allowed, "page {p} of the huge page should pass");
        }
        assert!(
            !bc.check(
                Cycle::ZERO,
                MemRequest {
                    ppn: Ppn::new(1536),
                    write: false,
                    asid: Some(pid)
                },
                kernel.store_mut(),
                &mut dram,
            )
            .allowed
        );
    }

    #[test]
    fn attach_same_process_twice_is_idempotent() {
        let (mut kernel, _dram, mut bc, pid) = setup(BorderControlConfig::default());
        bc.attach_process(&mut kernel, pid).unwrap();
        assert_eq!(bc.attached().len(), 1, "use count not double-incremented");
    }

    #[test]
    fn detach_with_remaining_process_keeps_table() {
        let (mut kernel, _dram, mut bc, pid) = setup(BorderControlConfig::default());
        let pid2 = kernel.create_process();
        bc.attach_process(&mut kernel, pid2).unwrap();
        let base = bc.table().unwrap().base();
        bc.detach_process(&mut kernel, pid);
        // Zeroed but still allocated for pid2.
        assert_eq!(bc.table().unwrap().base(), base);
        assert_eq!(bc.attached(), &[pid2]);
    }

    #[test]
    fn record_stream_captures_checked_requests() {
        let config = BorderControlConfig {
            record_stream: true,
            ..Default::default()
        };
        let (mut kernel, mut dram, mut bc, pid) = setup(config);
        for (p, w) in [(3u64, false), (5, true), (3, false)] {
            bc.check(
                Cycle::ZERO,
                MemRequest {
                    ppn: Ppn::new(p),
                    write: w,
                    asid: Some(pid),
                },
                kernel.store_mut(),
                &mut dram,
            );
        }
        let stream = bc.take_stream();
        assert_eq!(
            stream,
            vec![
                (Ppn::new(3), false),
                (Ppn::new(5), true),
                (Ppn::new(3), false)
            ]
        );
        assert!(bc.take_stream().is_empty(), "drained");
    }

    #[test]
    fn serialized_read_check_config_plumbs_through() {
        let config = BorderControlConfig {
            parallel_read_check: false,
            ..Default::default()
        };
        let (_kernel, _dram, bc, _pid) = setup(config);
        assert!(!bc.config().parallel_read_check);
        assert!(BorderControlConfig::without_bcc().bcc.is_none());
        assert!(BorderControlConfig::without_bcc().parallel_read_check);
    }

    #[test]
    fn insertion_already_correct_in_bcc_is_free() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::default());
        let tr = kernel.translate(pid, VirtAddr::new(0x10000).vpn()).unwrap();
        let entry = tlb_entry(pid, 0x10, tr.ppn, tr.perms);
        bc.on_translation(Cycle::ZERO, &entry, kernel.store_mut(), &mut dram);
        let writes_before = bc.pt_writes();
        // Re-observing the same translation: "If there is an entry for
        // this page in the BCC and it has the correct permissions, no
        // action is taken."
        bc.on_translation(Cycle::ZERO, &entry, kernel.store_mut(), &mut dram);
        assert_eq!(bc.pt_writes(), writes_before, "no redundant table write");
        assert_eq!(bc.insertions(), 2, "both observations counted");
    }

    #[test]
    fn check_occupancy_adds_fixed_latency() {
        let config = BorderControlConfig {
            check_occupancy: 7,
            ..Default::default()
        };
        let (mut kernel, mut dram, mut bc, pid) = setup(config);
        let tr = kernel.translate(pid, VirtAddr::new(0x10000).vpn()).unwrap();
        bc.on_translation(
            Cycle::ZERO,
            &tlb_entry(pid, 0x10, tr.ppn, tr.perms),
            kernel.store_mut(),
            &mut dram,
        );
        let out = bc.check(
            Cycle::new(500),
            MemRequest {
                ppn: tr.ppn,
                write: false,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        assert_eq!(out.done.as_u64(), 500 + 7 + BccConfig::default().latency);
    }

    #[test]
    fn bcc_subset_audit_clean_after_insert_and_downgrade() {
        let config = BorderControlConfig {
            flush_policy: FlushPolicy::Selective,
            ..Default::default()
        };
        let (mut kernel, mut dram, mut bc, pid) = setup(config);
        let vpn = VirtAddr::new(0x10000).vpn();
        let tr = kernel.translate(pid, vpn).unwrap();
        bc.on_translation(
            Cycle::ZERO,
            &tlb_entry(pid, vpn.as_u64(), tr.ppn, tr.perms),
            kernel.store_mut(),
            &mut dram,
        );
        assert!(bc.audit_bcc_subset(kernel.store()).is_empty());
        let req = kernel.protect_page(pid, vpn, PagePerms::READ_ONLY).unwrap();
        bc.commit_downgrade(Cycle::ZERO, &req, kernel.store_mut(), &mut dram);
        assert!(bc.audit_bcc_subset(kernel.store()).is_empty());
    }

    #[test]
    fn injected_downgrade_skip_is_caught_by_subset_audit() {
        // Selective flush keeps the BCC entry alive across the commit, so
        // a skipped write-through leaves a detectable stale entry.
        let config = BorderControlConfig {
            flush_policy: FlushPolicy::Selective,
            ..Default::default()
        };
        let (mut kernel, mut dram, mut bc, pid) = setup(config);
        let vpn = VirtAddr::new(0x10000).vpn();
        let tr = kernel.translate(pid, vpn).unwrap();
        bc.on_translation(
            Cycle::ZERO,
            &tlb_entry(pid, vpn.as_u64(), tr.ppn, tr.perms),
            kernel.store_mut(),
            &mut dram,
        );
        let req = kernel.protect_page(pid, vpn, PagePerms::READ_ONLY).unwrap();
        bc.commit_downgrade(Cycle::ZERO, &req, kernel.store_mut(), &mut dram);
        // Simulate a buggy downgrade that updated the table but skipped
        // (or re-upgraded) the BCC: the cache now claims RW where the
        // table says R.
        assert!(bc.debug_corrupt_bcc(tr.ppn, PagePerms::READ_WRITE));
        let mismatches = bc.audit_bcc_subset(kernel.store());
        assert_eq!(mismatches.len(), 1);
        assert_eq!(mismatches[0].0, tr.ppn.as_u64());
        assert_eq!(mismatches[0].1, "rw-");
        assert_eq!(mismatches[0].2, "r--");
    }

    #[test]
    fn stats_render() {
        let (mut kernel, mut dram, mut bc, pid) = setup(BorderControlConfig::default());
        bc.check(
            Cycle::ZERO,
            MemRequest {
                ppn: Ppn::new(3),
                write: false,
                asid: Some(pid),
            },
            kernel.store_mut(),
            &mut dram,
        );
        let s = bc.stats(100).to_string();
        assert!(s.contains("checks"));
        assert!(s.contains("BCC miss ratio"));
        assert!(bc.checks_per_cycle(100) > 0.0);
    }
}
