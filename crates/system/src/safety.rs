//! The five safety configurations under study (Tables 1 and 2).

use std::fmt;

/// Memory-safety approach, following Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SafetyModel {
    /// The unsafe baseline: the IOMMU serves only initial translations;
    /// the GPU keeps physical addresses in its TLB and caches and accesses
    /// memory directly, unchecked.
    AtsOnlyIommu,
    /// Every memory request is a virtual address translated and checked at
    /// the IOMMU; the accelerator keeps no caches and no TLB.
    FullIommu,
    /// IBM-CAPI-style: caches and TLB live in *trusted* hardware, farther
    /// from the accelerator (no private L1s; shared trusted L2 and L2 TLB
    /// with a distance penalty).
    CapiLike,
    /// Border Control with only the in-memory Protection Table.
    BorderControlNoBcc,
    /// Border Control with the Protection Table and the Border Control
    /// Cache — the paper's headline configuration.
    BorderControlBcc,
}

impl SafetyModel {
    /// All five configurations in Figure-4 bar order.
    pub const ALL: [SafetyModel; 5] = [
        SafetyModel::AtsOnlyIommu,
        SafetyModel::FullIommu,
        SafetyModel::CapiLike,
        SafetyModel::BorderControlNoBcc,
        SafetyModel::BorderControlBcc,
    ];

    /// Short label used in figure output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SafetyModel::AtsOnlyIommu => "ATS-only IOMMU",
            SafetyModel::FullIommu => "Full IOMMU",
            SafetyModel::CapiLike => "CAPI-like",
            SafetyModel::BorderControlNoBcc => "Border Control-noBCC",
            SafetyModel::BorderControlBcc => "Border Control-BCC",
        }
    }

    /// Inverse of [`SafetyModel::label`], used by the canonical config
    /// schema (`bc_experiments::schema`).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        SafetyModel::ALL.into_iter().find(|s| s.label() == label)
    }

    /// Table 2: is the configuration safe against improper accelerator
    /// accesses?
    #[must_use]
    pub fn is_safe(self) -> bool {
        !matches!(self, SafetyModel::AtsOnlyIommu)
    }

    /// Table 2: does the accelerator keep private L1 caches?
    #[must_use]
    pub fn keeps_l1(self) -> bool {
        matches!(
            self,
            SafetyModel::AtsOnlyIommu
                | SafetyModel::BorderControlNoBcc
                | SafetyModel::BorderControlBcc
        )
    }

    /// Table 2: does the accelerator keep an L1 TLB?
    #[must_use]
    pub fn keeps_l1_tlb(self) -> bool {
        self.keeps_l1()
    }

    /// Table 2: does a (possibly trusted) L2 cache exist?
    #[must_use]
    pub fn keeps_l2(self) -> bool {
        !matches!(self, SafetyModel::FullIommu)
    }

    /// Table 2: does the configuration include a BCC?
    #[must_use]
    pub fn has_bcc(self) -> Option<bool> {
        match self {
            SafetyModel::BorderControlNoBcc => Some(false),
            SafetyModel::BorderControlBcc => Some(true),
            _ => None,
        }
    }

    /// Whether Border Control hardware is present at all.
    #[must_use]
    pub fn uses_border_control(self) -> bool {
        matches!(
            self,
            SafetyModel::BorderControlNoBcc | SafetyModel::BorderControlBcc
        )
    }

    /// Whether the accelerator's caches live in trusted, more distant
    /// hardware (the CAPI-like penalty).
    #[must_use]
    pub fn trusted_caches(self) -> bool {
        matches!(self, SafetyModel::CapiLike)
    }

    /// Whether every request must be translated at the IOMMU.
    #[must_use]
    pub fn translates_every_request(self) -> bool {
        matches!(self, SafetyModel::FullIommu | SafetyModel::CapiLike)
    }

    /// Table 1: does the approach protect the OS from the accelerator?
    #[must_use]
    pub fn protects_os(self) -> bool {
        self.is_safe()
    }

    /// Table 1: does it protect *between processes*?
    #[must_use]
    pub fn protects_between_processes(self) -> bool {
        self.is_safe()
    }

    /// Table 1: can the accelerator access memory directly by physical
    /// address (keeping physical caches/TLBs)?
    #[must_use]
    pub fn direct_physical_access(self) -> bool {
        matches!(
            self,
            SafetyModel::AtsOnlyIommu
                | SafetyModel::BorderControlNoBcc
                | SafetyModel::BorderControlBcc
        )
    }
}

impl fmt::Display for SafetyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One row of the paper's Table 1 (including the non-simulated TrustZone
/// row for completeness of the comparison table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Approach name.
    pub approach: &'static str,
    /// Protects the OS from the accelerator.
    pub protects_os: bool,
    /// Provides protection between processes.
    pub protection_between_processes: bool,
    /// Allows the accelerator direct access to physical memory.
    pub direct_physical_access: bool,
}

/// Regenerates Table 1 of the paper.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            approach: "ATS-only IOMMU",
            protects_os: false,
            protection_between_processes: false,
            direct_physical_access: true,
        },
        Table1Row {
            approach: "Full IOMMU",
            protects_os: true,
            protection_between_processes: true,
            direct_physical_access: false,
        },
        Table1Row {
            approach: "IBM CAPI",
            protects_os: true,
            protection_between_processes: true,
            direct_physical_access: false,
        },
        Table1Row {
            approach: "ARM TrustZone",
            protects_os: true,
            protection_between_processes: false,
            direct_physical_access: true,
        },
        Table1Row {
            approach: "Border Control",
            protects_os: true,
            protection_between_processes: true,
            direct_physical_access: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_structure_matrix() {
        use SafetyModel as S;
        // Safe?
        assert!(!S::AtsOnlyIommu.is_safe());
        for s in [
            S::FullIommu,
            S::CapiLike,
            S::BorderControlNoBcc,
            S::BorderControlBcc,
        ] {
            assert!(s.is_safe(), "{s} should be safe");
        }
        // L1 / L1 TLB rows.
        assert!(S::AtsOnlyIommu.keeps_l1());
        assert!(!S::FullIommu.keeps_l1());
        assert!(!S::CapiLike.keeps_l1());
        assert!(S::BorderControlBcc.keeps_l1());
        // L2 row.
        assert!(!S::FullIommu.keeps_l2());
        assert!(S::CapiLike.keeps_l2());
        // BCC row.
        assert_eq!(S::AtsOnlyIommu.has_bcc(), None);
        assert_eq!(S::BorderControlNoBcc.has_bcc(), Some(false));
        assert_eq!(S::BorderControlBcc.has_bcc(), Some(true));
    }

    #[test]
    fn border_control_unique_in_table1() {
        // The paper's claim: only Border Control gets all three.
        for row in table1() {
            let all_three =
                row.protects_os && row.protection_between_processes && row.direct_physical_access;
            assert_eq!(all_three, row.approach == "Border Control");
        }
    }

    #[test]
    fn labels_are_figure_labels() {
        assert_eq!(
            SafetyModel::BorderControlBcc.to_string(),
            "Border Control-BCC"
        );
        assert_eq!(SafetyModel::ALL.len(), 5);
    }

    #[test]
    fn safety_model_matrix_matches_table1_matrix() {
        for s in SafetyModel::ALL {
            if s.uses_border_control() {
                assert!(s.protects_os() && s.direct_physical_access());
            }
        }
        assert!(SafetyModel::AtsOnlyIommu.direct_physical_access());
        assert!(!SafetyModel::FullIommu.direct_physical_access());
    }
}
