//! The trusted kernel: address-space management and violation policy.

use std::collections::BTreeMap;

use bc_sim::fxmap::FxHashMap;
use std::error::Error;
use std::fmt;

use bc_mem::addr::{Asid, PageSize, Ppn, VirtAddr, Vpn, PAGE_SIZE};
use bc_mem::frames::FrameAllocator;
use bc_mem::page_table::{MapError, TranslateError, Translation};
use bc_mem::perms::PagePerms;
use bc_mem::store::PhysMemStore;
use bc_sim::stats::Counter;

use crate::process::{Process, ProcessState, Vma};
use crate::shootdown::{ShootdownRequest, ShootdownScope};
use crate::violation::{Violation, ViolationPolicy};

/// Kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Physical memory size in bytes. Defaults to 3 GiB, which matches the
    /// paper's simulated system (whose 196 KiB Protection Table covers
    /// 3 GiB at 2 bits per 4 KiB page, Table 3).
    pub phys_bytes: u64,
    /// Policy applied when Border Control reports a violation.
    pub violation_policy: ViolationPolicy,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            phys_bytes: 3 << 30,
            violation_policy: ViolationPolicy::KillProcess,
        }
    }
}

/// Errors surfaced by kernel operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// The address space id names no live process.
    NoSuchProcess(Asid),
    /// The access landed outside every VMA of the process.
    Segfault(Asid, Vpn),
    /// The access violates the VMA's permissions.
    AccessDenied(Asid, Vpn, PagePerms),
    /// Physical memory exhausted.
    OutOfMemory,
    /// The requested VMA overlaps an existing one.
    VmaOverlap(Vpn),
    /// Page-table manipulation failed.
    Map(MapError),
    /// Translation failed where a mapping was expected.
    Translate(TranslateError),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NoSuchProcess(a) => write!(f, "no such process {a}"),
            OsError::Segfault(a, v) => write!(f, "segmentation fault: {a} touched {v}"),
            OsError::AccessDenied(a, v, p) => {
                write!(f, "access denied: {a} needs {p} at {v}")
            }
            OsError::OutOfMemory => write!(f, "out of physical memory"),
            OsError::VmaOverlap(v) => write!(f, "VMA overlapping {v}"),
            OsError::Map(e) => write!(f, "mapping failed: {e}"),
            OsError::Translate(e) => write!(f, "translation failed: {e}"),
        }
    }
}

impl Error for OsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OsError::Map(e) => Some(e),
            OsError::Translate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MapError> for OsError {
    fn from(e: MapError) -> Self {
        OsError::Map(e)
    }
}

impl From<TranslateError> for OsError {
    fn from(e: TranslateError) -> Self {
        OsError::Translate(e)
    }
}

/// Result of a demand-translation through the kernel (the path the ATS
/// takes on an accelerator TLB miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultedTranslation {
    /// The translation that now exists.
    pub translation: Translation,
    /// Whether a minor page fault (lazy allocation) happened to produce it.
    pub faulted: bool,
}

/// The trusted operating system.
///
/// Owns physical memory (frames and contents), all processes and their
/// page tables, and the violation policy. Mapping changes queue
/// [`ShootdownRequest`]s that the system model must drain and deliver to
/// every translation-caching structure.
#[derive(Debug)]
pub struct Kernel {
    config: KernelConfig,
    frames: FrameAllocator,
    store: PhysMemStore,
    processes: BTreeMap<u16, Process>,
    next_asid: u16,
    pending_shootdowns: Vec<ShootdownRequest>,
    violations: Vec<Violation>,
    minor_faults: Counter,
    downgrades: Counter,
    /// Reference counts for frames mapped into more than one address
    /// space (shared/shadow mappings); absent means exclusively owned.
    frame_refs: FxHashMap<u64, u32>,
    /// Frames owned by dying address spaces, quarantined between
    /// `kill`/`terminate` and [`Kernel::finish_teardown`]. The paper's
    /// completion contract (§3.3, Fig 3e) zeroes the Protection Table and
    /// flushes BCC/IOTLB residue *before* frames are reused; holding the
    /// frames here keeps the allocator from handing them out while
    /// translations for them may still be cached.
    quarantined: BTreeMap<u16, Vec<Ppn>>,
}

impl Kernel {
    /// Boots a kernel over `config.phys_bytes` of physical memory.
    #[must_use]
    pub fn new(config: KernelConfig) -> Self {
        Kernel {
            frames: FrameAllocator::new(config.phys_bytes),
            store: PhysMemStore::with_frames(config.phys_bytes / PAGE_SIZE),
            processes: BTreeMap::new(),
            next_asid: 1,
            pending_shootdowns: Vec::new(),
            violations: Vec::new(),
            minor_faults: Counter::new(),
            downgrades: Counter::new(),
            frame_refs: FxHashMap::default(),
            quarantined: BTreeMap::new(),
            config,
        }
    }

    /// Releases one reference to a frame, freeing it (and its contents)
    /// when the last reference drops.
    fn release_frame(&mut self, ppn: Ppn) {
        match self.frame_refs.get_mut(&ppn.as_u64()) {
            Some(n) if *n > 1 => {
                *n -= 1;
            }
            Some(_) => {
                self.frame_refs.remove(&ppn.as_u64());
                self.frames.free(ppn);
                self.store.zero_page(ppn);
            }
            None => {
                self.frames.free(ppn);
                self.store.zero_page(ppn);
            }
        }
    }

    /// The configuration the kernel booted with.
    #[must_use]
    pub fn config(&self) -> KernelConfig {
        self.config
    }

    /// Physical memory size in bytes.
    #[must_use]
    pub fn phys_bytes(&self) -> u64 {
        self.frames.phys_bytes()
    }

    /// Total physical frames.
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.frames.total_frames()
    }

    // ---- process lifecycle -------------------------------------------------

    /// Creates a new process and returns its address-space id.
    pub fn create_process(&mut self) -> Asid {
        let asid = Asid::new(self.next_asid);
        self.next_asid += 1;
        self.processes.insert(asid.as_u16(), Process::new(asid));
        asid
    }

    /// Looks up a live process.
    #[must_use]
    pub fn process(&self, asid: Asid) -> Option<&Process> {
        self.processes.get(&asid.as_u16())
    }

    fn process_mut(&mut self, asid: Asid) -> Result<&mut Process, OsError> {
        self.processes
            .get_mut(&asid.as_u16())
            .ok_or(OsError::NoSuchProcess(asid))
    }

    /// Terminates a process: frees its frames, flushes its translations
    /// everywhere (full-address-space shootdown), marks it exited.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchProcess`] for an unknown ASID.
    pub fn terminate(&mut self, asid: Asid) -> Result<(), OsError> {
        self.end_process(asid, ProcessState::Exited)
    }

    /// Kills a process (violation policy); like terminate but marked
    /// [`ProcessState::Killed`].
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchProcess`] for an unknown ASID.
    pub fn kill(&mut self, asid: Asid) -> Result<(), OsError> {
        self.end_process(asid, ProcessState::Killed)
    }

    fn end_process(&mut self, asid: Asid, state: ProcessState) -> Result<(), OsError> {
        let proc = self.process_mut(asid)?;
        if proc.state() != ProcessState::Running {
            return Ok(());
        }
        let mappings: Vec<(Vpn, Translation)> = {
            let mut v = Vec::new();
            proc.page_table()
                .for_each_mapping(|vpn, tr| v.push((vpn, tr)));
            v
        };
        for (vpn, tr) in &mappings {
            proc.page_table_mut().unmap(*vpn).expect("mapping listed");
            let _ = tr;
        }
        proc.set_state(state);
        // Do NOT release the frames yet: ops may still be in flight
        // against cached translations, and a freed frame could be
        // reallocated (and its new owner's data read or clobbered)
        // before the shootdown below lands. Quarantine them until the
        // system has flushed every translation-holding structure and
        // zeroed the Protection Table, then calls `finish_teardown`.
        self.quarantined
            .entry(asid.as_u16())
            .or_default()
            .extend(mappings.iter().map(|(_, tr)| tr.ppn));
        self.pending_shootdowns.push(ShootdownRequest {
            asid,
            scope: ShootdownScope::FullAddressSpace,
            old_ppn: None,
            old_perms: PagePerms::READ_WRITE,
            new_perms: PagePerms::NONE,
        });
        Ok(())
    }

    /// Completes a teardown begun by [`Kernel::kill`]/[`Kernel::terminate`]:
    /// releases the quarantined frames back to the allocator. Callers must
    /// first deliver the queued full-address-space shootdown and flush the
    /// accelerator side (BCC/IOTLB, Protection Table zero) — this is the
    /// "frames reused only after residue is gone" half of the contract.
    /// Returns the number of frame references released. Idempotent.
    pub fn finish_teardown(&mut self, asid: Asid) -> u64 {
        let frames = self.quarantined.remove(&asid.as_u16()).unwrap_or_default();
        let n = frames.len() as u64;
        for ppn in frames {
            self.release_frame(ppn);
        }
        n
    }

    /// Whether `ppn` is quarantined by an unfinished teardown (used by the
    /// `--audit` oracle: a post-kill access that hits such a frame through
    /// a cached translation is a stale-teardown violation).
    #[must_use]
    pub fn frame_quarantined(&self, ppn: Ppn) -> bool {
        self.quarantined.values().any(|v| v.contains(&ppn))
    }

    /// ASIDs whose teardown has begun but not been finished.
    pub fn unfinished_teardowns(&self) -> impl Iterator<Item = Asid> + '_ {
        self.quarantined.keys().map(|&a| Asid::new(a))
    }

    // ---- memory mapping ----------------------------------------------------

    /// Creates a VMA of `pages` pages at `base` and eagerly maps zeroed
    /// frames for all of it.
    ///
    /// # Errors
    ///
    /// Fails on overlap, unknown process, or memory exhaustion.
    pub fn map_region(
        &mut self,
        asid: Asid,
        base: VirtAddr,
        pages: u64,
        perms: PagePerms,
    ) -> Result<(), OsError> {
        self.map_lazy_region(asid, base, pages, perms)?;
        for i in 0..pages {
            self.touch(asid, base.vpn().add(i))?;
        }
        Ok(())
    }

    /// Creates a VMA of `huge_pages` 2 MiB pages at `base` and eagerly
    /// backs each with 512 physically contiguous, zeroed frames (§3.4.4 —
    /// huge pages are allocated eagerly; lazy 2 MiB faulting buys little).
    ///
    /// # Errors
    ///
    /// Fails on overlap, misalignment, unknown process, or when no
    /// contiguous run of frames is available.
    pub fn map_region_2m(
        &mut self,
        asid: Asid,
        base: VirtAddr,
        huge_pages: u64,
        perms: PagePerms,
    ) -> Result<(), OsError> {
        self.map_lazy_region(asid, base, huge_pages * 512, perms)?;
        for i in 0..huge_pages {
            let vpn = Vpn::new(base.vpn().as_u64() + i * 512);
            let ppn = self
                .frames
                .alloc_contiguous_aligned(512, 512)
                .map_err(|_| OsError::OutOfMemory)?;
            for p in 0..512 {
                self.store.zero_page(ppn.add(p));
            }
            let proc = self.process_mut(asid)?;
            proc.page_table_mut()
                .map(vpn, ppn, perms, PageSize::Huge2M)?;
        }
        Ok(())
    }

    /// Maps `pages` of `dst`'s address space at `dst_base` onto the
    /// *same physical frames* already backing `src_base` in `src` —
    /// shared memory, and the mechanism behind §3.4.1's shadow page
    /// tables: "A simple way to handle this case is for the OS to provide
    /// an alternate (shadow) page table for the accelerator", exposing
    /// only selected pages of a larger address space.
    ///
    /// Shared frames are reference-counted; they are freed only when the
    /// last mapping goes away.
    ///
    /// # Errors
    ///
    /// Fails if any source page is unmapped, or on VMA overlap in `dst`.
    pub fn map_shared(
        &mut self,
        dst: Asid,
        dst_base: VirtAddr,
        src: Asid,
        src_base: VirtAddr,
        pages: u64,
        perms: PagePerms,
    ) -> Result<(), OsError> {
        // Source frames must already exist (fault them if lazily mapped).
        // bc-lint: allow(narrowing-cast) — capacity hint, bounded by
        // the physical frame count.
        let mut frames = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let ft = self.touch(src, src_base.vpn().add(i))?;
            frames.push(ft.translation.ppn);
        }
        self.map_lazy_region(dst, dst_base, pages, perms)?;
        for (i, ppn) in frames.into_iter().enumerate() {
            let proc = self.process_mut(dst)?;
            proc.page_table_mut().map(
                dst_base.vpn().add(i as u64),
                ppn,
                perms,
                PageSize::Base4K,
            )?;
            // Now referenced by both src and dst.
            let n = self.frame_refs.entry(ppn.as_u64()).or_insert(1);
            *n += 1;
        }
        Ok(())
    }

    /// Creates a VMA without backing it — pages materialize on first
    /// touch, like real `mmap`.
    ///
    /// # Errors
    ///
    /// Fails on overlap or unknown process.
    pub fn map_lazy_region(
        &mut self,
        asid: Asid,
        base: VirtAddr,
        pages: u64,
        perms: PagePerms,
    ) -> Result<(), OsError> {
        let proc = self.process_mut(asid)?;
        let vma = Vma {
            start: base.vpn(),
            pages,
            perms,
        };
        if !proc.add_vma(vma) {
            return Err(OsError::VmaOverlap(base.vpn()));
        }
        Ok(())
    }

    /// Demand-translates `vpn` for `asid`: returns the existing
    /// translation, or takes a minor fault to allocate and map a zeroed
    /// frame if the page is inside a VMA but not yet backed.
    ///
    /// This is the kernel half of the ATS: "The ATS takes a virtual
    /// address, walks the page table on behalf of the accelerator, and
    /// returns the physical address" (§2.3).
    ///
    /// # Errors
    ///
    /// [`OsError::Segfault`] outside every VMA, [`OsError::OutOfMemory`]
    /// when no frame is available.
    pub fn touch(&mut self, asid: Asid, vpn: Vpn) -> Result<FaultedTranslation, OsError> {
        let proc = self.process_mut(asid)?;
        match proc.page_table_mut().translate(vpn) {
            Ok(tr) => Ok(FaultedTranslation {
                translation: tr,
                faulted: false,
            }),
            Err(e @ TranslateError::TableCorrupt(_)) => Err(e.into()),
            Err(TranslateError::NotMapped(_)) => {
                let vma = *proc.vma_covering(vpn).ok_or(OsError::Segfault(asid, vpn))?;
                let ppn = self.frames.alloc().map_err(|_| OsError::OutOfMemory)?;
                self.store.zero_page(ppn);
                self.minor_faults.inc();
                let proc = self.process_mut(asid)?;
                proc.page_table_mut()
                    .map(vpn, ppn, vma.perms, PageSize::Base4K)?;
                let tr = proc.page_table_mut().translate(vpn)?;
                Ok(FaultedTranslation {
                    translation: tr,
                    faulted: true,
                })
            }
        }
    }

    /// Read-only translation without faulting (no stats perturbation).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`TranslateError`] if unmapped.
    pub fn translate(&self, asid: Asid, vpn: Vpn) -> Result<Translation, OsError> {
        let proc = self.process(asid).ok_or(OsError::NoSuchProcess(asid))?;
        Ok(proc.page_table().peek(vpn)?)
    }

    // ---- mapping updates (the Figure 3d events) -----------------------------

    /// Changes a page's permissions, queueing the shootdown. The common
    /// downgrades of §3.2.4 — swap preparation, CoW marking — go through
    /// here.
    ///
    /// # Errors
    ///
    /// Fails if the process or mapping does not exist.
    pub fn protect_page(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        new_perms: PagePerms,
    ) -> Result<ShootdownRequest, OsError> {
        let proc = self.process_mut(asid)?;
        let tr = proc.page_table().peek(vpn)?;
        proc.page_table_mut().protect(vpn, new_perms)?;
        let req = ShootdownRequest {
            asid,
            scope: ShootdownScope::Page(vpn),
            old_ppn: Some(tr.ppn),
            old_perms: tr.perms,
            new_perms,
        };
        if req.is_downgrade() {
            self.downgrades.inc();
        }
        self.pending_shootdowns.push(req);
        Ok(req)
    }

    /// Moves a page to a fresh physical frame (memory compaction),
    /// copying contents. The old frame loses all permissions — from Border
    /// Control's physically indexed view this is a downgrade of the old
    /// PPN to none.
    ///
    /// # Errors
    ///
    /// Fails if the mapping does not exist or memory is exhausted.
    pub fn compact_page(&mut self, asid: Asid, vpn: Vpn) -> Result<ShootdownRequest, OsError> {
        let old = {
            let proc = self.process_mut(asid)?;
            proc.page_table().peek(vpn)?
        };
        let new_ppn = self.frames.alloc().map_err(|_| OsError::OutOfMemory)?;
        self.store.copy_page(old.ppn, new_ppn);
        let proc = self.process_mut(asid)?;
        proc.page_table_mut().remap(vpn, new_ppn)?;
        self.release_frame(old.ppn);
        let req = ShootdownRequest {
            asid,
            scope: ShootdownScope::Page(vpn),
            old_ppn: Some(old.ppn),
            old_perms: old.perms,
            new_perms: PagePerms::NONE,
        };
        self.downgrades.inc();
        self.pending_shootdowns.push(req);
        Ok(req)
    }

    /// Swaps a page out: unmaps it and frees the frame (contents dropped —
    /// the backing store is not modelled).
    ///
    /// # Errors
    ///
    /// Fails if the mapping does not exist.
    pub fn swap_out_page(&mut self, asid: Asid, vpn: Vpn) -> Result<ShootdownRequest, OsError> {
        let proc = self.process_mut(asid)?;
        let tr = proc.page_table_mut().unmap(vpn)?;
        self.release_frame(tr.ppn);
        let req = ShootdownRequest {
            asid,
            scope: ShootdownScope::Page(vpn),
            old_ppn: Some(tr.ppn),
            old_perms: tr.perms,
            new_perms: PagePerms::NONE,
        };
        self.downgrades.inc();
        self.pending_shootdowns.push(req);
        Ok(req)
    }

    /// Forks a process with copy-on-write semantics: the child shares
    /// every frame read-only; writable pages in the *parent* are also
    /// downgraded to read-only (queueing shootdowns).
    ///
    /// # Errors
    ///
    /// Fails for an unknown parent.
    pub fn fork_cow(&mut self, parent: Asid) -> Result<Asid, OsError> {
        let mappings: Vec<(Vpn, Translation)> = {
            let proc = self.process(parent).ok_or(OsError::NoSuchProcess(parent))?;
            let mut v = Vec::new();
            proc.page_table()
                .for_each_mapping(|vpn, tr| v.push((vpn, tr)));
            v
        };
        let vmas: Vec<Vma> = self
            .process(parent)
            .ok_or(OsError::NoSuchProcess(parent))?
            .vmas()
            .to_vec();
        let child = self.create_process();
        for vma in vmas {
            let child_proc = self.process_mut(child)?;
            child_proc.add_vma(vma);
        }
        for (vpn, tr) in mappings {
            let ro = tr.perms.without_write();
            // Child maps the shared frame read-only, CoW-flagged.
            self.process_mut(child)?
                .page_table_mut()
                .map_with_cow(vpn, tr.ppn, ro, tr.size, true)?;
            // Parent writable pages get downgraded (emits shootdown).
            if tr.perms.writable() {
                self.protect_page(parent, vpn, ro)?;
                self.process_mut(parent)?
                    .page_table_mut()
                    .set_copy_on_write(vpn, true)?;
            }
        }
        Ok(child)
    }

    /// Resolves a copy-on-write fault on `vpn`: allocates a private frame,
    /// copies contents, and upgrades the mapping to its VMA permissions.
    /// Upgrades need no accelerator flush (§3.2.4).
    ///
    /// # Errors
    ///
    /// Fails if the page is not CoW or memory is exhausted.
    pub fn resolve_cow(&mut self, asid: Asid, vpn: Vpn) -> Result<Translation, OsError> {
        let (old, vma_perms) = {
            let proc = self.process(asid).ok_or(OsError::NoSuchProcess(asid))?;
            let tr = proc.page_table().peek(vpn)?;
            let vma = proc.vma_covering(vpn).ok_or(OsError::Segfault(asid, vpn))?;
            (tr, vma.perms)
        };
        if !old.copy_on_write {
            return Err(OsError::AccessDenied(asid, vpn, PagePerms::WRITE_ONLY));
        }
        let new_ppn = self.frames.alloc().map_err(|_| OsError::OutOfMemory)?;
        self.store.copy_page(old.ppn, new_ppn);
        self.minor_faults.inc();
        let proc = self.process_mut(asid)?;
        proc.page_table_mut().remap(vpn, new_ppn)?;
        proc.page_table_mut().protect(vpn, vma_perms)?;
        proc.page_table_mut().set_copy_on_write(vpn, false)?;
        // An upgrade adds permissions on the *new* PPN; the old shared
        // frame keeps belonging to the other process. No downgrade, hence
        // no shootdown-driven flush — but stale-translation caches must
        // still be told the VPN moved.
        self.pending_shootdowns.push(ShootdownRequest {
            asid,
            scope: ShootdownScope::Page(vpn),
            old_ppn: Some(old.ppn),
            old_perms: old.perms,
            new_perms: old.perms, // old frame keeps read permission via the sibling
        });
        Ok(self
            .process(asid)
            .ok_or(OsError::NoSuchProcess(asid))?
            .page_table()
            .peek(vpn)?)
    }

    // ---- data access (trusted CPU side) -------------------------------------

    /// Writes bytes through a process's virtual address space, faulting
    /// pages in as needed. Trusted-CPU path used to stage workload data.
    ///
    /// # Errors
    ///
    /// Fails on segfault or if the VMA lacks write permission.
    // Slice ranges are bounded by `take = (PAGE_SIZE - offset).min(len)`.
    #[allow(clippy::indexing_slicing)]
    pub fn write_virt(&mut self, asid: Asid, va: VirtAddr, data: &[u8]) -> Result<(), OsError> {
        let mut cur = va;
        let mut remaining = data;
        while !remaining.is_empty() {
            let ft = self.touch(asid, cur.vpn())?;
            if !ft.translation.perms.writable() {
                return Err(OsError::AccessDenied(
                    asid,
                    cur.vpn(),
                    PagePerms::WRITE_ONLY,
                ));
            }
            let offset = cur.page_offset();
            // bc-lint: allow(narrowing-cast) — at most PAGE_SIZE (4096).
            let space = (PAGE_SIZE - offset) as usize;
            let take = space.min(remaining.len());
            self.store
                .write(ft.translation.ppn.byte(offset), &remaining[..take]);
            remaining = &remaining[take..];
            cur = cur.offset(take as u64);
        }
        Ok(())
    }

    /// Reads bytes through a process's virtual address space.
    ///
    /// # Errors
    ///
    /// Fails on segfault or if the VMA lacks read permission.
    // Slice ranges are bounded by `take = (PAGE_SIZE - offset).min(len)`.
    #[allow(clippy::indexing_slicing)]
    pub fn read_virt(&mut self, asid: Asid, va: VirtAddr, len: usize) -> Result<Vec<u8>, OsError> {
        let mut out = vec![0u8; len];
        let mut cur = va;
        let mut filled = 0;
        while filled < len {
            let ft = self.touch(asid, cur.vpn())?;
            if !ft.translation.perms.readable() {
                return Err(OsError::AccessDenied(asid, cur.vpn(), PagePerms::READ_ONLY));
            }
            let offset = cur.page_offset();
            // bc-lint: allow(narrowing-cast) — at most PAGE_SIZE (4096).
            let space = (PAGE_SIZE - offset) as usize;
            let take = space.min(len - filled);
            self.store.read_into(
                ft.translation.ppn.byte(offset),
                &mut out[filled..filled + take],
            );
            filled += take;
            cur = cur.offset(take as u64);
        }
        Ok(out)
    }

    /// Direct access to physical memory contents (trusted components and
    /// the DRAM model).
    #[must_use]
    pub fn store(&self) -> &PhysMemStore {
        &self.store
    }

    /// Mutable access to physical memory contents.
    pub fn store_mut(&mut self) -> &mut PhysMemStore {
        &mut self.store
    }

    // ---- Border Control support ----------------------------------------------

    /// Carves out a zeroed, physically contiguous region for an
    /// accelerator's Protection Table (Fig 3a: "Allocate and zero
    /// protection table"). Returns the base PPN.
    ///
    /// # Errors
    ///
    /// [`OsError::OutOfMemory`] when no contiguous run exists.
    pub fn alloc_protection_table(&mut self, pages: u64) -> Result<Ppn, OsError> {
        let base = self
            .frames
            .alloc_contiguous(pages)
            .map_err(|_| OsError::OutOfMemory)?;
        for i in 0..pages {
            self.store.zero_page(base.add(i));
        }
        Ok(base)
    }

    /// Returns a Protection Table region to the frame pool (Fig 3e:
    /// "Deallocate protection table").
    pub fn free_protection_table(&mut self, base: Ppn, pages: u64) {
        for i in 0..pages {
            self.store.zero_page(base.add(i));
        }
        self.frames.free_contiguous(base, pages);
    }

    /// Handles a Border Control violation according to policy. Returns the
    /// policy that was applied.
    pub fn report_violation(&mut self, v: Violation) -> ViolationPolicy {
        self.violations.push(v);
        match self.config.violation_policy {
            ViolationPolicy::KillProcess => {
                if let Some(asid) = v.asid {
                    let _ = self.kill(asid);
                }
            }
            ViolationPolicy::DisableAccelerator | ViolationPolicy::LogOnly => {}
        }
        self.config.violation_policy
    }

    /// All violations reported so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    // ---- event plumbing -------------------------------------------------------

    /// Drains queued shootdown requests; the system model delivers them.
    pub fn take_shootdowns(&mut self) -> Vec<ShootdownRequest> {
        std::mem::take(&mut self.pending_shootdowns)
    }

    /// Minor page faults taken (lazy allocation + CoW).
    #[must_use]
    pub fn minor_faults(&self) -> u64 {
        self.minor_faults.get()
    }

    /// Permission downgrades performed.
    #[must_use]
    pub fn downgrades(&self) -> u64 {
        self.downgrades.get()
    }

    /// Frames currently allocated.
    #[must_use]
    pub fn frames_allocated(&self) -> u64 {
        self.frames.allocated()
    }
}

/// Snapshot codec for the whole kernel. The process and quarantine
/// `BTreeMap`s iterate sorted, giving deterministic bytes; the shared
/// frame refcounts live in an `FxHashMap` (unspecified iteration order),
/// so their keys are sorted before emission. The config, and with it the
/// frame allocator's and the store's frame counts, is fixed by the build
/// that is read over.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::Kernel;

    impl Snap for Kernel {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"KRNL")?;
            c.snap(&mut self.frames)?;
            c.snap(&mut self.store)?;
            c.snap(&mut self.processes)?;
            c.snap(&mut self.next_asid)?;
            c.snap(&mut self.pending_shootdowns)?;
            c.snap(&mut self.violations)?;
            c.snap(&mut self.minor_faults)?;
            c.snap(&mut self.downgrades)?;
            c.snap(&mut self.frame_refs)?;
            c.snap(&mut self.quarantined)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig {
            phys_bytes: 64 << 20, // 64 MiB for fast tests
            violation_policy: ViolationPolicy::KillProcess,
        })
    }

    #[test]
    fn create_and_eager_map() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_region(pid, VirtAddr::new(0x10000), 4, PagePerms::READ_WRITE)
            .unwrap();
        for i in 0..4 {
            let tr = k
                .translate(pid, VirtAddr::new(0x10000).vpn().add(i))
                .unwrap();
            assert_eq!(tr.perms, PagePerms::READ_WRITE);
        }
        assert_eq!(k.frames_allocated(), 4);
        assert_eq!(k.minor_faults(), 4, "eager map goes through the fault path");
    }

    #[test]
    fn lazy_map_faults_on_touch() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_lazy_region(pid, VirtAddr::new(0), 10, PagePerms::READ_ONLY)
            .unwrap();
        assert_eq!(k.frames_allocated(), 0);
        let ft = k.touch(pid, Vpn::new(3)).unwrap();
        assert!(ft.faulted);
        assert_eq!(k.frames_allocated(), 1);
        let ft2 = k.touch(pid, Vpn::new(3)).unwrap();
        assert!(!ft2.faulted);
        assert_eq!(ft.translation.ppn, ft2.translation.ppn);
    }

    #[test]
    fn segfault_outside_vma() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_lazy_region(pid, VirtAddr::new(0), 1, PagePerms::READ_ONLY)
            .unwrap();
        assert_eq!(
            k.touch(pid, Vpn::new(5)),
            Err(OsError::Segfault(pid, Vpn::new(5)))
        );
    }

    #[test]
    fn vma_overlap_rejected() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_lazy_region(pid, VirtAddr::new(0), 10, PagePerms::READ_ONLY)
            .unwrap();
        assert!(matches!(
            k.map_lazy_region(pid, VirtAddr::new(0x5000), 10, PagePerms::READ_ONLY),
            Err(OsError::VmaOverlap(_))
        ));
    }

    #[test]
    fn protect_emits_downgrade_shootdown() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_region(pid, VirtAddr::new(0), 1, PagePerms::READ_WRITE)
            .unwrap();
        let req = k
            .protect_page(pid, Vpn::new(0), PagePerms::READ_ONLY)
            .unwrap();
        assert!(req.is_downgrade());
        assert!(req.may_have_dirty_data());
        assert_eq!(k.downgrades(), 1);
        let reqs = k.take_shootdowns();
        assert_eq!(reqs.len(), 1);
        assert!(k.take_shootdowns().is_empty(), "drained");
        assert_eq!(
            k.translate(pid, Vpn::new(0)).unwrap().perms,
            PagePerms::READ_ONLY
        );
    }

    #[test]
    fn upgrade_is_not_downgrade() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_region(pid, VirtAddr::new(0), 1, PagePerms::READ_ONLY)
            .unwrap();
        let req = k
            .protect_page(pid, Vpn::new(0), PagePerms::READ_WRITE)
            .unwrap();
        assert!(!req.is_downgrade());
        assert_eq!(k.downgrades(), 0);
    }

    #[test]
    fn compact_moves_contents_and_downgrades_old_ppn() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_region(pid, VirtAddr::new(0), 1, PagePerms::READ_WRITE)
            .unwrap();
        k.write_virt(pid, VirtAddr::new(0x10), b"hello").unwrap();
        let old = k.translate(pid, Vpn::new(0)).unwrap();
        let req = k.compact_page(pid, Vpn::new(0)).unwrap();
        assert_eq!(req.old_ppn, Some(old.ppn));
        assert_eq!(req.new_perms, PagePerms::NONE);
        let new = k.translate(pid, Vpn::new(0)).unwrap();
        assert_ne!(new.ppn, old.ppn);
        assert_eq!(k.read_virt(pid, VirtAddr::new(0x10), 5).unwrap(), b"hello");
    }

    #[test]
    fn swap_out_unmaps() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_region(pid, VirtAddr::new(0), 2, PagePerms::READ_WRITE)
            .unwrap();
        let req = k.swap_out_page(pid, Vpn::new(0)).unwrap();
        assert!(req.is_downgrade());
        assert!(k.translate(pid, Vpn::new(0)).is_err());
        assert_eq!(k.frames_allocated(), 1);
        // Touch faults it back in (fresh zeroed frame).
        let ft = k.touch(pid, Vpn::new(0)).unwrap();
        assert!(ft.faulted);
    }

    #[test]
    fn fork_cow_shares_then_splits() {
        let mut k = kernel();
        let parent = k.create_process();
        k.map_region(parent, VirtAddr::new(0), 1, PagePerms::READ_WRITE)
            .unwrap();
        k.write_virt(parent, VirtAddr::new(0), b"shared").unwrap();
        let child = k.fork_cow(parent).unwrap();

        // Both read the same data; both are now read-only.
        assert_eq!(k.read_virt(child, VirtAddr::new(0), 6).unwrap(), b"shared");
        let ptr = k.translate(parent, Vpn::new(0)).unwrap();
        let ctr = k.translate(child, Vpn::new(0)).unwrap();
        assert_eq!(ptr.ppn, ctr.ppn);
        assert!(!ptr.perms.writable());
        assert!(ctr.copy_on_write && ptr.copy_on_write);

        // Parent's downgrade queued a shootdown.
        assert!(k
            .take_shootdowns()
            .iter()
            .any(|r| r.asid == parent && r.is_downgrade()));

        // Child write resolves CoW into a private frame.
        let resolved = k.resolve_cow(child, Vpn::new(0)).unwrap();
        assert_ne!(resolved.ppn, ptr.ppn);
        assert!(resolved.perms.writable());
        k.write_virt(child, VirtAddr::new(0), b"child!").unwrap();
        assert_eq!(k.read_virt(child, VirtAddr::new(0), 6).unwrap(), b"child!");
        // Parent still sees the original.
        let parent_view = k.store().read_vec(ptr.ppn.byte(0), 6);
        assert_eq!(parent_view, b"shared");
    }

    #[test]
    fn resolve_cow_on_non_cow_denied() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_region(pid, VirtAddr::new(0), 1, PagePerms::READ_WRITE)
            .unwrap();
        assert!(matches!(
            k.resolve_cow(pid, Vpn::new(0)),
            Err(OsError::AccessDenied(..))
        ));
    }

    #[test]
    fn terminate_quarantines_then_finish_teardown_frees() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_region(pid, VirtAddr::new(0), 8, PagePerms::READ_WRITE)
            .unwrap();
        assert_eq!(k.frames_allocated(), 8);
        let ppn = k.translate(pid, Vpn::new(0)).unwrap().ppn;
        k.terminate(pid).unwrap();
        assert_eq!(k.process(pid).unwrap().state(), ProcessState::Exited);
        // Frames stay quarantined until the flush ordering completes —
        // the allocator must not reuse them under cached translations.
        assert_eq!(k.frames_allocated(), 8);
        assert!(k.frame_quarantined(ppn));
        assert_eq!(k.unfinished_teardowns().collect::<Vec<_>>(), vec![pid]);
        let reqs = k.take_shootdowns();
        assert!(reqs
            .iter()
            .any(|r| matches!(r.scope, ShootdownScope::FullAddressSpace)));
        assert_eq!(k.finish_teardown(pid), 8);
        assert_eq!(k.frames_allocated(), 0);
        assert!(!k.frame_quarantined(ppn));
        // Both phases are idempotent.
        k.terminate(pid).unwrap();
        assert_eq!(k.finish_teardown(pid), 0);
    }

    #[test]
    fn write_denied_on_readonly_vma() {
        let mut k = kernel();
        let pid = k.create_process();
        k.map_lazy_region(pid, VirtAddr::new(0), 1, PagePerms::READ_ONLY)
            .unwrap();
        assert!(matches!(
            k.write_virt(pid, VirtAddr::new(0), b"x"),
            Err(OsError::AccessDenied(..))
        ));
    }

    #[test]
    fn protection_table_alloc_zeroed_contiguous() {
        let mut k = kernel();
        let base = k.alloc_protection_table(16).unwrap();
        // All zero.
        for i in 0..16 {
            assert_eq!(k.store().read_vec(base.add(i).byte(0), 8), vec![0u8; 8]);
        }
        let before = k.frames_allocated();
        k.free_protection_table(base, 16);
        assert_eq!(k.frames_allocated(), before - 16);
    }

    #[test]
    fn map_shared_aliases_frames_with_refcounts() {
        let mut k = kernel();
        let owner = k.create_process();
        let shadow = k.create_process();
        k.map_region(owner, VirtAddr::new(0x10000), 2, PagePerms::READ_WRITE)
            .unwrap();
        k.write_virt(owner, VirtAddr::new(0x10000), b"shared!")
            .unwrap();
        k.map_shared(
            shadow,
            VirtAddr::new(0x9000_0000),
            owner,
            VirtAddr::new(0x10000),
            2,
            PagePerms::READ_ONLY,
        )
        .unwrap();
        // Same frames, restricted permissions.
        let o = k.translate(owner, VirtAddr::new(0x10000).vpn()).unwrap();
        let s = k
            .translate(shadow, VirtAddr::new(0x9000_0000).vpn())
            .unwrap();
        assert_eq!(o.ppn, s.ppn);
        assert_eq!(s.perms, PagePerms::READ_ONLY);
        assert_eq!(
            k.read_virt(shadow, VirtAddr::new(0x9000_0000), 7).unwrap(),
            b"shared!"
        );
        // Owner exits: the frames survive for the shadow even after the
        // owner's teardown fully completes (refcounts)...
        k.terminate(owner).unwrap();
        k.finish_teardown(owner);
        assert_eq!(
            k.read_virt(shadow, VirtAddr::new(0x9000_0000), 7).unwrap(),
            b"shared!"
        );
        // ...and are freed when the shadow's teardown completes too.
        let before = k.frames_allocated();
        k.terminate(shadow).unwrap();
        assert_eq!(k.frames_allocated(), before, "still quarantined");
        k.finish_teardown(shadow);
        assert_eq!(k.frames_allocated(), before - 2);
    }

    #[test]
    fn huge_region_maps_contiguous_2m_pages() {
        let mut k = Kernel::new(KernelConfig {
            phys_bytes: 64 << 20,
            violation_policy: ViolationPolicy::KillProcess,
        });
        let pid = k.create_process();
        // Base must be 2 MiB aligned: 0x4000_0000 is.
        k.map_region_2m(pid, VirtAddr::new(0x4000_0000), 2, PagePerms::READ_WRITE)
            .unwrap();
        assert_eq!(k.frames_allocated(), 1024);
        let base_vpn = VirtAddr::new(0x4000_0000).vpn();
        let first = k.translate(pid, base_vpn).unwrap();
        assert_eq!(first.size, PageSize::Huge2M);
        // Sub-pages are contiguous within each huge page.
        let sub = k.translate(pid, base_vpn.add(17)).unwrap();
        assert_eq!(sub.ppn, first.ppn.add(17));
        // The second huge page exists and is itself 512-aligned.
        let second = k.translate(pid, base_vpn.add(512)).unwrap();
        assert_eq!(second.size, PageSize::Huge2M);
        assert_eq!(second.ppn.as_u64() % 512, 0);
        // Data written through the region round-trips.
        k.write_virt(pid, VirtAddr::new(0x4000_0000 + 4096 * 700), b"huge")
            .unwrap();
        assert_eq!(
            k.read_virt(pid, VirtAddr::new(0x4000_0000 + 4096 * 700), 4)
                .unwrap(),
            b"huge"
        );
    }

    #[test]
    fn violation_policy_kills_process() {
        use bc_sim::Cycle;

        let mut k = kernel();
        let pid = k.create_process();
        k.map_region(pid, VirtAddr::new(0), 1, PagePerms::READ_WRITE)
            .unwrap();
        let v = Violation {
            accel_id: 0,
            asid: Some(pid),
            ppn: Ppn::new(1),
            kind: crate::violation::ViolationKind::WriteWithoutPermission,
            at: Cycle::new(10),
        };
        k.report_violation(v);
        assert_eq!(k.violations().len(), 1);
        assert_eq!(k.process(pid).unwrap().state(), ProcessState::Killed);
    }

    #[test]
    fn log_only_policy_spares_process() {
        use bc_sim::Cycle;

        let mut k = Kernel::new(KernelConfig {
            phys_bytes: 16 << 20,
            violation_policy: ViolationPolicy::LogOnly,
        });
        let pid = k.create_process();
        k.map_region(pid, VirtAddr::new(0), 1, PagePerms::READ_WRITE)
            .unwrap();
        k.report_violation(Violation {
            accel_id: 0,
            asid: Some(pid),
            ppn: Ppn::new(1),
            kind: crate::violation::ViolationKind::ReadWithoutPermission,
            at: Cycle::ZERO,
        });
        assert_eq!(k.process(pid).unwrap().state(), ProcessState::Running);
    }

    #[test]
    fn default_config_is_3gib() {
        let k = Kernel::new(KernelConfig::default());
        assert_eq!(k.phys_bytes(), 3 << 30);
    }
}
