//! Border Control violation reports and kernel policy.
//!
//! "If the accelerator attempts to access a page for which it does not
//! have sufficient permission, the access is not allowed to proceed and
//! the OS is notified. … The OS can act accordingly by terminating the
//! process or disabling the accelerator." (§3, §3.2.3)

use std::fmt;

use bc_mem::addr::{Asid, Ppn};
use bc_sim::Cycle;

/// The kind of improper access Border Control blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A read request to a page without read permission — a
    /// confidentiality violation attempt (§2.1).
    ReadWithoutPermission,
    /// A write (or writeback) to a page without write permission — an
    /// integrity violation attempt (§2.1).
    WriteWithoutPermission,
    /// A physical address outside the Protection Table's bounds register.
    OutOfBounds,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::ReadWithoutPermission => write!(f, "read without permission"),
            ViolationKind::WriteWithoutPermission => write!(f, "write without permission"),
            ViolationKind::OutOfBounds => write!(f, "physical address out of bounds"),
        }
    }
}

/// A blocked access, as reported by Border Control to the OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Accelerator that issued the bad request (opaque id assigned by the
    /// system model).
    pub accel_id: u32,
    /// Address space the accelerator claimed to run (if any process was
    /// attached).
    pub asid: Option<Asid>,
    /// The physical page targeted.
    pub ppn: Ppn,
    /// What was attempted.
    pub kind: ViolationKind,
    /// When the border check failed.
    pub at: Cycle,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accelerator {} attempted {} at {} ({})",
            self.accel_id, self.kind, self.ppn, self.at
        )
    }
}

/// What the kernel does when notified of a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViolationPolicy {
    /// Kill the process running on the accelerator (default).
    #[default]
    KillProcess,
    /// Disable the accelerator entirely; its processes survive on the CPU.
    DisableAccelerator,
    /// Log only (used by analysis runs that want to count violations).
    LogOnly,
}

impl ViolationPolicy {
    /// Stable label used by the canonical config schema
    /// (`bc_experiments::schema`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ViolationPolicy::KillProcess => "kill-process",
            ViolationPolicy::DisableAccelerator => "disable-accelerator",
            ViolationPolicy::LogOnly => "log-only",
        }
    }

    /// Inverse of [`ViolationPolicy::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "kill-process" => Some(ViolationPolicy::KillProcess),
            "disable-accelerator" => Some(ViolationPolicy::DisableAccelerator),
            "log-only" => Some(ViolationPolicy::LogOnly),
            _ => None,
        }
    }
}

/// Snapshot codecs for the violation report types.
mod snap_impls {
    use super::{Violation, ViolationKind};

    bc_sim::snap_enum!(ViolationKind, "violation kind",
        0 => ReadWithoutPermission, 1 => WriteWithoutPermission, 2 => OutOfBounds);

    bc_sim::snap_struct!(Violation: accel_id, asid, ppn, kind, at);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_read_well() {
        let v = Violation {
            accel_id: 3,
            asid: Some(Asid::new(7)),
            ppn: Ppn::new(0x99),
            kind: ViolationKind::WriteWithoutPermission,
            at: Cycle::new(42),
        };
        let s = v.to_string();
        assert!(s.contains("accelerator 3"));
        assert!(s.contains("write without permission"));
        assert!(s.contains("cycle 42"));
    }

    #[test]
    fn default_policy_kills_process() {
        assert_eq!(ViolationPolicy::default(), ViolationPolicy::KillProcess);
    }
}
