//! Processes and their virtual memory areas.

use bc_mem::addr::{Asid, Vpn};
use bc_mem::page_table::PageTable;
use bc_mem::perms::PagePerms;

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Scheduled and able to run (including on an accelerator).
    Running,
    /// Terminated normally.
    Exited,
    /// Killed by the kernel — e.g. after a Border Control violation.
    Killed,
}

/// A virtual memory area: a contiguous range of virtual pages with uniform
/// permissions, backed lazily by physical frames on first touch (the
/// "OS lazily allocates physical pages to virtual pages" behaviour of
/// §3.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// First virtual page of the area.
    pub start: Vpn,
    /// Length in pages.
    pub pages: u64,
    /// Permissions every page of the area carries.
    pub perms: PagePerms,
}

impl Vma {
    /// Whether `vpn` falls inside this area.
    #[must_use]
    pub fn contains(&self, vpn: Vpn) -> bool {
        vpn >= self.start && vpn.as_u64() < self.start.as_u64() + self.pages
    }

    /// Whether two areas overlap.
    #[must_use]
    pub fn overlaps(&self, other: &Vma) -> bool {
        self.start.as_u64() < other.start.as_u64() + other.pages
            && other.start.as_u64() < self.start.as_u64() + self.pages
    }
}

/// One process: an address space, its VMAs, and lifecycle state.
#[derive(Debug)]
pub struct Process {
    asid: Asid,
    page_table: PageTable,
    vmas: Vec<Vma>,
    state: ProcessState,
}

impl Process {
    pub(crate) fn new(asid: Asid) -> Self {
        Process {
            asid,
            page_table: PageTable::new(asid),
            vmas: Vec::new(),
            state: ProcessState::Running,
        }
    }

    /// The process's address-space id.
    #[must_use]
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Lifecycle state.
    #[must_use]
    pub fn state(&self) -> ProcessState {
        self.state
    }

    pub(crate) fn set_state(&mut self, s: ProcessState) {
        self.state = s;
    }

    /// The process page table (the OS-trusted source of permissions).
    #[must_use]
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    pub(crate) fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// The registered virtual memory areas.
    #[must_use]
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    pub(crate) fn add_vma(&mut self, vma: Vma) -> bool {
        if self.vmas.iter().any(|v| v.overlaps(&vma)) {
            return false;
        }
        self.vmas.push(vma);
        true
    }

    /// The VMA covering `vpn`, if any.
    #[must_use]
    pub fn vma_covering(&self, vpn: Vpn) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.contains(vpn))
    }
}

/// Snapshot codecs. VMA order is exact state (`vma_covering` returns the
/// first match in registration order).
mod snap_impls {
    use bc_mem::addr::Asid;
    use bc_sim::snapshot::{Blank, Codec, Snap, SnapError};

    use super::{Process, ProcessState, Vma};

    bc_sim::snap_enum!(ProcessState, "process state", 0 => Running, 1 => Exited, 2 => Killed);

    bc_sim::snap_struct!(Vma: start, pages, perms);

    impl Snap for Process {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"PROC")?;
            c.snap(&mut self.asid)?;
            c.snap(&mut self.page_table)?;
            c.snap(&mut self.vmas)?;
            c.snap(&mut self.state)
        }
    }

    impl Blank for Process {
        fn blank() -> Self {
            Process::new(Asid::default())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vma_contains_and_overlaps() {
        let a = Vma {
            start: Vpn::new(10),
            pages: 5,
            perms: PagePerms::READ_WRITE,
        };
        assert!(a.contains(Vpn::new(10)));
        assert!(a.contains(Vpn::new(14)));
        assert!(!a.contains(Vpn::new(15)));
        assert!(!a.contains(Vpn::new(9)));
        let b = Vma {
            start: Vpn::new(14),
            pages: 2,
            perms: PagePerms::READ_ONLY,
        };
        let c = Vma {
            start: Vpn::new(15),
            pages: 2,
            perms: PagePerms::READ_ONLY,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn process_rejects_overlapping_vmas() {
        let mut p = Process::new(Asid::new(1));
        assert!(p.add_vma(Vma {
            start: Vpn::new(0),
            pages: 10,
            perms: PagePerms::READ_WRITE,
        }));
        assert!(!p.add_vma(Vma {
            start: Vpn::new(5),
            pages: 10,
            perms: PagePerms::READ_ONLY,
        }));
        assert_eq!(p.vmas().len(), 1);
        assert!(p.vma_covering(Vpn::new(3)).is_some());
        assert!(p.vma_covering(Vpn::new(30)).is_none());
    }
}
