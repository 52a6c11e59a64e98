//! TLB shootdown requests.
//!
//! When the OS changes or removes an existing virtual-to-physical mapping,
//! every structure caching that translation must be told (§3.2.4). The
//! kernel expresses this as a [`ShootdownRequest`] value which the system
//! model delivers to CPU TLBs, accelerator TLBs, the IOMMU's IOTLB, and —
//! under Border Control — to the Protection Table / BCC maintenance logic.
//!
//! A *correct* accelerator honours these. The buggy-accelerator threat
//! model drops them on the floor, which is safe exactly because Border
//! Control re-checks at the border.

use bc_mem::addr::{Asid, Ppn, Vpn};
use bc_mem::perms::PagePerms;

/// What part of the address space a shootdown covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShootdownScope {
    /// A single page's translation changed.
    Page(Vpn),
    /// The whole address space must be flushed (context switch, exec,
    /// process exit).
    FullAddressSpace,
}

/// A request to invalidate cached translations, with enough context for
/// Border Control to decide whether accelerator caches must be flushed
/// first (a *permission downgrade* on a potentially-dirty page).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShootdownRequest {
    /// Address space whose translations are affected.
    pub asid: Asid,
    /// Scope of invalidation.
    pub scope: ShootdownScope,
    /// The physical page previously mapped (single-page scope only);
    /// Border Control uses it to update the Protection Table entry.
    pub old_ppn: Option<Ppn>,
    /// Permissions before the change.
    pub old_perms: PagePerms,
    /// Permissions after the change ([`PagePerms::NONE`] for unmap).
    pub new_perms: PagePerms,
}

impl ShootdownRequest {
    /// Whether the change *removes* permissions — the case that requires
    /// writing back dirty accelerator-cached data before the Protection
    /// Table entry is updated (§3.2.4).
    #[must_use]
    pub fn is_downgrade(&self) -> bool {
        self.old_perms.downgraded_by(self.new_perms)
    }

    /// Whether the affected page could hold dirty data in an accelerator
    /// cache: only if it was writable before the change. Read-only pages
    /// (e.g. copy-on-write) need no flush — "Copy-on-write thus incurs no
    /// extra overhead over the trusted accelerator case" (§3.2.4).
    #[must_use]
    pub fn may_have_dirty_data(&self) -> bool {
        self.old_perms.writable()
    }
}

/// Snapshot codecs for queued shootdown requests.
mod snap_impls {
    use super::{ShootdownRequest, ShootdownScope};

    bc_sim::snap_enum!(ShootdownScope, "shootdown scope", 0 => Page(vpn), 1 => FullAddressSpace);

    bc_sim::snap_struct!(ShootdownRequest: asid, scope, old_ppn, old_perms, new_perms);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(old: PagePerms, new: PagePerms) -> ShootdownRequest {
        ShootdownRequest {
            asid: Asid::new(1),
            scope: ShootdownScope::Page(Vpn::new(5)),
            old_ppn: Some(Ppn::new(9)),
            old_perms: old,
            new_perms: new,
        }
    }

    #[test]
    fn downgrade_detection() {
        assert!(req(PagePerms::READ_WRITE, PagePerms::READ_ONLY).is_downgrade());
        assert!(req(PagePerms::READ_ONLY, PagePerms::NONE).is_downgrade());
        assert!(!req(PagePerms::READ_ONLY, PagePerms::READ_WRITE).is_downgrade());
        assert!(!req(PagePerms::READ_WRITE, PagePerms::READ_WRITE).is_downgrade());
    }

    #[test]
    fn cow_pages_cannot_be_dirty() {
        // A read-only (CoW) page being remapped never forces a flush.
        let r = req(PagePerms::READ_ONLY, PagePerms::NONE);
        assert!(r.is_downgrade());
        assert!(!r.may_have_dirty_data());
        // A writable page being downgraded does.
        let w = req(PagePerms::READ_WRITE, PagePerms::READ_ONLY);
        assert!(w.may_have_dirty_data());
    }
}
