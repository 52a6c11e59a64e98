//! Strongly typed addresses, page numbers, and address-space identifiers.
//!
//! The whole simulator distinguishes *physical* from *virtual* addresses at
//! the type level; an accelerator TLB maps [`Vpn`] → [`Ppn`], Border
//! Control's Protection Table is indexed by [`Ppn`] only, and the confusion
//! of the two — the very bug class the paper defends against — cannot
//! happen by accident inside the trusted model code.

use std::fmt;

/// Base page size: 4 KiB, the minimum page size on most systems (§3.1.1).
pub const PAGE_SIZE: u64 = 4096;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Memory-system block (cache line) size in bytes. The paper's memory
/// system uses 128-byte blocks, which makes one block of the Protection
/// Table cover 512 pages (§3.1.2).
pub const BLOCK_SIZE: u64 = 128;

/// log2 of [`BLOCK_SIZE`].
pub const BLOCK_SHIFT: u32 = 7;

/// A physical memory address.
///
/// # Example
///
/// ```
/// use bc_mem::addr::{PhysAddr, Ppn};
///
/// let a = PhysAddr::new(0x1234);
/// assert_eq!(a.ppn(), Ppn::new(1));
/// assert_eq!(a.page_offset(), 0x234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

/// A virtual memory address within some address space ([`Asid`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

/// A physical page number (`PhysAddr >> 12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(u64);

/// A virtual page number (`VirtAddr >> 12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(u64);

/// An address-space identifier, naming one process's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asid(u16);

macro_rules! addr_common {
    ($ty:ident) => {
        impl $ty {
            /// Wraps a raw value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                $ty(raw)
            }

            /// Unwraps to the raw value.
            #[inline]
            pub const fn as_u64(self) -> u64 {
                self.0
            }
        }

        impl From<u64> for $ty {
            fn from(raw: u64) -> Self {
                $ty(raw)
            }
        }
    };
}

addr_common!(PhysAddr);
addr_common!(VirtAddr);
addr_common!(Ppn);
addr_common!(Vpn);

impl PhysAddr {
    /// The physical page containing this address.
    #[inline]
    #[must_use]
    pub const fn ppn(self) -> Ppn {
        Ppn(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the 4 KiB page.
    #[inline]
    #[must_use]
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// This address rounded down to its 128-byte memory block.
    #[inline]
    #[must_use]
    pub const fn block_aligned(self) -> PhysAddr {
        PhysAddr(self.0 & !(BLOCK_SIZE - 1))
    }

    /// Global index of the 128-byte block containing this address.
    #[inline]
    #[must_use]
    pub const fn block_index(self) -> u64 {
        self.0 >> BLOCK_SHIFT
    }

    /// Adds a byte offset.
    #[inline]
    #[must_use]
    pub const fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }
}

impl VirtAddr {
    /// The virtual page containing this address.
    #[inline]
    #[must_use]
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the 4 KiB page.
    #[inline]
    #[must_use]
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// This address rounded down to its 128-byte memory block.
    #[inline]
    #[must_use]
    pub const fn block_aligned(self) -> VirtAddr {
        VirtAddr(self.0 & !(BLOCK_SIZE - 1))
    }

    /// Adds a byte offset.
    #[inline]
    #[must_use]
    pub const fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

impl Ppn {
    /// First byte of the page.
    #[inline]
    #[must_use]
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }

    /// The `n`th page after this one.
    #[inline]
    #[must_use]
    pub const fn add(self, n: u64) -> Ppn {
        Ppn(self.0 + n)
    }

    /// A specific byte within the page.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `offset >= PAGE_SIZE`.
    #[inline]
    #[must_use]
    pub fn byte(self, offset: u64) -> PhysAddr {
        debug_assert!(offset < PAGE_SIZE);
        PhysAddr((self.0 << PAGE_SHIFT) | offset)
    }
}

impl Vpn {
    /// First byte of the page.
    #[inline]
    #[must_use]
    pub const fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// The `n`th page after this one.
    #[inline]
    #[must_use]
    pub const fn add(self, n: u64) -> Vpn {
        Vpn(self.0 + n)
    }

    /// Radix-tree index at `level` (0 = leaf level, 3 = root) for a
    /// 4-level, 9-bits-per-level page table.
    #[inline]
    #[must_use]
    pub const fn radix_index(self, level: usize) -> usize {
        ((self.0 >> (9 * level)) & 0x1FF) as usize // bc-lint: allow(narrowing-cast) — masked to 9 bits first
    }
}

impl Asid {
    /// Wraps a raw address-space id.
    #[inline]
    #[must_use]
    pub const fn new(raw: u16) -> Self {
        Asid(raw)
    }

    /// Unwraps to the raw id.
    #[inline]
    #[must_use]
    pub const fn as_u16(self) -> u16 {
        self.0
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA:{:#x}", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VA:{:#x}", self.0)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PPN:{:#x}", self.0)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VPN:{:#x}", self.0)
    }
}

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ASID:{}", self.0)
    }
}

/// Supported page sizes (§3.4.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageSize {
    /// 4 KiB base pages.
    Base4K,
    /// 2 MiB huge pages; a huge-page translation updates 512 consecutive
    /// Protection Table entries — exactly one 128-byte memory block.
    Huge2M,
}

impl PageSize {
    /// Size in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Base4K => 4 << 10,
            PageSize::Huge2M => 2 << 20,
        }
    }

    /// Number of 4 KiB base pages this page spans.
    #[must_use]
    pub const fn base_pages(self) -> u64 {
        self.bytes() / PAGE_SIZE
    }

    /// Number of radix-tree levels a translation for this size walks
    /// (4 for base pages, 3 for 2 MiB pages whose leaf lives one level up).
    #[must_use]
    pub const fn walk_levels(self) -> u64 {
        match self {
            PageSize::Base4K => 4,
            PageSize::Huge2M => 3,
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Base4K => write!(f, "4KiB"),
            PageSize::Huge2M => write!(f, "2MiB"),
        }
    }
}

/// Snapshot codecs for the address newtypes ([`bc_sim::snapshot::Snap`]):
/// raw varints for the integer-backed types, one byte for [`PageSize`].
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::{Asid, PageSize, PhysAddr, Ppn, VirtAddr, Vpn};

    macro_rules! snap_newtype {
        ($($ty:ident: $raw:ident),*) => {$(
            impl Snap for $ty {
                fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
                    let mut raw = self.$raw();
                    c.snap(&mut raw)?;
                    *self = $ty::new(raw);
                    Ok(())
                }
            }
        )*};
    }

    snap_newtype!(PhysAddr: as_u64, VirtAddr: as_u64, Ppn: as_u64, Vpn: as_u64, Asid: as_u16);

    bc_sim::snap_enum!(PageSize, "page size", 0 => Base4K, 1 => Huge2M);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_decomposition() {
        let a = PhysAddr::new(0xABCD_E678);
        assert_eq!(a.ppn().as_u64(), 0xABCDE);
        assert_eq!(a.page_offset(), 0x678);
        assert_eq!(a.block_aligned().as_u64(), 0xABCD_E600);
        assert_eq!(a.block_index(), 0xABCD_E678 >> 7);
        assert_eq!(a.offset(8).as_u64(), 0xABCD_E680);
    }

    #[test]
    fn virt_addr_decomposition() {
        let a = VirtAddr::new(0x7FFF_1234);
        assert_eq!(a.vpn().as_u64(), 0x7FFF1);
        assert_eq!(a.page_offset(), 0x234);
        assert_eq!(a.block_aligned().as_u64(), 0x7FFF_1200);
    }

    #[test]
    fn ppn_vpn_round_trip() {
        let p = Ppn::new(42);
        assert_eq!(p.base().ppn(), p);
        assert_eq!(p.byte(0x10).as_u64(), 42 * 4096 + 0x10);
        assert_eq!(p.add(3).as_u64(), 45);
        let v = Vpn::new(42);
        assert_eq!(v.base().vpn(), v);
        assert_eq!(v.add(1).as_u64(), 43);
    }

    #[test]
    fn radix_index_extracts_nine_bit_fields() {
        // VPN with distinct 9-bit groups: level0 = 1, level1 = 2, level2 = 3, level3 = 4.
        let v = Vpn::new(1 | (2 << 9) | (3 << 18) | (4 << 27));
        assert_eq!(v.radix_index(0), 1);
        assert_eq!(v.radix_index(1), 2);
        assert_eq!(v.radix_index(2), 3);
        assert_eq!(v.radix_index(3), 4);
    }

    #[test]
    fn page_size_math() {
        assert_eq!(PageSize::Base4K.bytes(), 4096);
        assert_eq!(PageSize::Base4K.base_pages(), 1);
        assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Huge2M.base_pages(), 512);
        assert_eq!(PageSize::Base4K.walk_levels(), 4);
        assert_eq!(PageSize::Huge2M.walk_levels(), 3);
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(PhysAddr::new(0x10).to_string(), "PA:0x10");
        assert_eq!(VirtAddr::new(0x10).to_string(), "VA:0x10");
        assert_eq!(Ppn::new(0x10).to_string(), "PPN:0x10");
        assert_eq!(Vpn::new(0x10).to_string(), "VPN:0x10");
        assert_eq!(Asid::new(3).to_string(), "ASID:3");
        assert_eq!(PageSize::Base4K.to_string(), "4KiB");
        assert_eq!(PageSize::Huge2M.to_string(), "2MiB");
    }

    #[test]
    fn block_constants_consistent() {
        assert_eq!(1u64 << PAGE_SHIFT, PAGE_SIZE);
        assert_eq!(1u64 << BLOCK_SHIFT, BLOCK_SIZE);
        // One PT block covers 512 pages: 128 bytes * 4 pages/byte.
        assert_eq!(BLOCK_SIZE * 4, 512);
    }
}
