//! Page access permissions.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// Read/write/execute permission bits for one page.
///
/// Border Control's Protection Table stores only the read and write bits
/// (execute cannot be enforced at the border, §3.1.1); the page table keeps
/// all three. Permissions form a lattice under union ([`BitOr`]) and
/// subset-ordering ([`PagePerms::contains`]), which is exactly the algebra
/// the multiprocess union rule of §3.3 needs.
///
/// # Example
///
/// ```
/// use bc_mem::PagePerms;
///
/// let r = PagePerms::READ_ONLY;
/// let rw = r | PagePerms::WRITE_ONLY;
/// assert!(rw.contains(PagePerms::READ_ONLY));
/// assert!(rw.writable());
/// assert_eq!(rw.to_string(), "rw-");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PagePerms {
    read: bool,
    write: bool,
    execute: bool,
}

impl PagePerms {
    /// No access at all — the state every Protection Table entry starts in.
    pub const NONE: PagePerms = PagePerms {
        read: false,
        write: false,
        execute: false,
    };

    /// Read access only.
    pub const READ_ONLY: PagePerms = PagePerms {
        read: true,
        write: false,
        execute: false,
    };

    /// Write access only (unusual, but representable).
    pub const WRITE_ONLY: PagePerms = PagePerms {
        read: false,
        write: true,
        execute: false,
    };

    /// Read and write access.
    pub const READ_WRITE: PagePerms = PagePerms {
        read: true,
        write: true,
        execute: false,
    };

    /// Read and execute access (typical code page).
    pub const READ_EXEC: PagePerms = PagePerms {
        read: true,
        write: false,
        execute: true,
    };

    /// Builds permissions from individual bits.
    #[must_use]
    pub const fn new(read: bool, write: bool, execute: bool) -> Self {
        PagePerms {
            read,
            write,
            execute,
        }
    }

    /// Whether reads are allowed.
    #[must_use]
    pub const fn readable(self) -> bool {
        self.read
    }

    /// Whether writes are allowed.
    #[must_use]
    pub const fn writable(self) -> bool {
        self.write
    }

    /// Whether instruction fetch is allowed.
    #[must_use]
    pub const fn executable(self) -> bool {
        self.execute
    }

    /// Whether no access is allowed at all.
    #[must_use]
    pub const fn is_none(self) -> bool {
        !self.read && !self.write && !self.execute
    }

    /// Whether `self` grants everything `other` grants (lattice ≥).
    #[must_use]
    pub const fn contains(self, other: PagePerms) -> bool {
        (self.read || !other.read)
            && (self.write || !other.write)
            && (self.execute || !other.execute)
    }

    /// The intersection of two permission sets.
    #[must_use]
    pub const fn intersect(self, other: PagePerms) -> PagePerms {
        PagePerms {
            read: self.read && other.read,
            write: self.write && other.write,
            execute: self.execute && other.execute,
        }
    }

    /// Whether moving from `self` to `new` *removes* any permission — the
    /// "permission downgrade" of §3.2.4 that forces cache flushes.
    #[must_use]
    pub const fn downgraded_by(self, new: PagePerms) -> bool {
        !new.contains(self)
    }

    /// The read/write projection Border Control can actually enforce;
    /// execute is dropped because the border cannot see how a block is used
    /// once inside the accelerator (§3.1.1).
    #[must_use]
    pub const fn border_enforceable(self) -> PagePerms {
        PagePerms {
            read: self.read,
            write: self.write,
            execute: false,
        }
    }

    /// Removes write permission (the most common downgrade: copy-on-write,
    /// swap-out preparation).
    #[must_use]
    pub const fn without_write(self) -> PagePerms {
        PagePerms {
            read: self.read,
            write: false,
            execute: self.execute,
        }
    }
}

impl BitOr for PagePerms {
    type Output = PagePerms;

    fn bitor(self, rhs: PagePerms) -> PagePerms {
        PagePerms {
            read: self.read || rhs.read,
            write: self.write || rhs.write,
            execute: self.execute || rhs.execute,
        }
    }
}

impl BitOrAssign for PagePerms {
    fn bitor_assign(&mut self, rhs: PagePerms) {
        *self = *self | rhs;
    }
}

impl fmt::Display for PagePerms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.execute { 'x' } else { '-' },
        )
    }
}

/// Snapshot codec: the three permission bits packed into one byte.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::PagePerms;

    impl Snap for PagePerms {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            let mut bits = u8::from(self.readable())
                | (u8::from(self.writable()) << 1)
                | (u8::from(self.executable()) << 2);
            c.snap(&mut bits)?;
            if bits > 0b111 {
                return Err(SnapError::BadValue("page permission bits"));
            }
            *self = PagePerms::new(bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_bits() {
        assert!(PagePerms::NONE.is_none());
        assert!(PagePerms::READ_ONLY.readable() && !PagePerms::READ_ONLY.writable());
        assert!(PagePerms::READ_WRITE.readable() && PagePerms::READ_WRITE.writable());
        assert!(PagePerms::READ_EXEC.executable());
        assert!(PagePerms::WRITE_ONLY.writable() && !PagePerms::WRITE_ONLY.readable());
    }

    #[test]
    fn union_is_lattice_join() {
        let u = PagePerms::READ_ONLY | PagePerms::WRITE_ONLY;
        assert_eq!(u, PagePerms::READ_WRITE);
        assert!(u.contains(PagePerms::READ_ONLY));
        assert!(u.contains(PagePerms::WRITE_ONLY));
        let mut v = PagePerms::NONE;
        v |= PagePerms::READ_EXEC;
        assert_eq!(v, PagePerms::READ_EXEC);
    }

    #[test]
    fn contains_is_reflexive_and_ordered() {
        for p in [
            PagePerms::NONE,
            PagePerms::READ_ONLY,
            PagePerms::READ_WRITE,
            PagePerms::READ_EXEC,
        ] {
            assert!(p.contains(p));
            assert!(p.contains(PagePerms::NONE));
        }
        assert!(!PagePerms::READ_ONLY.contains(PagePerms::READ_WRITE));
    }

    #[test]
    fn intersect_is_lattice_meet() {
        assert_eq!(
            PagePerms::READ_WRITE.intersect(PagePerms::READ_EXEC),
            PagePerms::READ_ONLY
        );
        assert_eq!(
            PagePerms::NONE.intersect(PagePerms::READ_WRITE),
            PagePerms::NONE
        );
    }

    #[test]
    fn downgrade_detection() {
        assert!(PagePerms::READ_WRITE.downgraded_by(PagePerms::READ_ONLY));
        assert!(!PagePerms::READ_ONLY.downgraded_by(PagePerms::READ_WRITE));
        assert!(!PagePerms::READ_ONLY.downgraded_by(PagePerms::READ_ONLY));
        assert!(PagePerms::READ_ONLY.downgraded_by(PagePerms::NONE));
    }

    #[test]
    fn border_enforceable_drops_execute() {
        assert_eq!(
            PagePerms::READ_EXEC.border_enforceable(),
            PagePerms::READ_ONLY
        );
        assert_eq!(
            PagePerms::READ_WRITE.border_enforceable(),
            PagePerms::READ_WRITE
        );
    }

    #[test]
    fn without_write_removes_only_write() {
        assert_eq!(PagePerms::READ_WRITE.without_write(), PagePerms::READ_ONLY);
        assert_eq!(PagePerms::READ_EXEC.without_write(), PagePerms::READ_EXEC);
    }

    #[test]
    fn display_is_unix_style() {
        assert_eq!(PagePerms::NONE.to_string(), "---");
        assert_eq!(PagePerms::READ_WRITE.to_string(), "rw-");
        assert_eq!(PagePerms::READ_EXEC.to_string(), "r-x");
    }
}
