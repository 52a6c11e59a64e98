//! Property tests: the radix page table behaves exactly like a flat map.

use std::collections::{BTreeMap, BTreeSet};

use bc_mem::{Asid, MapError, PagePerms, PageSize, PageTable, Ppn, TranslateError, Vpn};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Map { vpn: u64, ppn: u64, write: bool },
    MapHuge { base: u64, ppn: u64, write: bool },
    Unmap { vpn: u64 },
    Protect { vpn: u64, write: bool },
    Remap { vpn: u64, ppn: u64 },
    Translate { vpn: u64 },
}

/// 2 MiB-aligned bases the huge-page ops use: each shares its region with
/// VPNs the base-page ops draw, and the last two sit at radix index 511.
const HUGE_BASES: [u64; 5] = [0, 1 << 9, 1 << 27, 511 << 9, (1 << 36) - 512];

fn vpn_strategy() -> impl Strategy<Value = u64> {
    // Small VPN space to provoke collisions, but with bits in several
    // radix levels, radix index 511 at each level and at all four, and
    // pages inside every huge-page region.
    prop_oneof![
        0u64..64,
        (1u64 << 9)..(1u64 << 9) + 8,
        (1u64 << 27)..(1u64 << 27) + 8,
        (0usize..4).prop_map(|level| 511u64 << (9 * level)),
        (1u64 << 36) - 8..1u64 << 36,
        (0usize..HUGE_BASES.len(), 0u64..512).prop_map(|(i, off)| HUGE_BASES[i] + off),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let vpn = vpn_strategy;
    let perms = any::<bool>;
    prop_oneof![
        (vpn(), 1u64..1000, perms()).prop_map(|(vpn, ppn, write)| Op::Map { vpn, ppn, write }),
        (0usize..HUGE_BASES.len(), 1u64..64, perms()).prop_map(|(i, ppn, write)| {
            Op::MapHuge {
                base: HUGE_BASES[i],
                ppn: ppn * 512,
                write,
            }
        }),
        vpn().prop_map(|vpn| Op::Unmap { vpn }),
        (vpn(), perms()).prop_map(|(vpn, write)| Op::Protect { vpn, write }),
        (vpn(), 1u64..1000).prop_map(|(vpn, ppn)| Op::Remap { vpn, ppn }),
        vpn().prop_map(|vpn| Op::Translate { vpn }),
    ]
}

fn perms_of(write: bool) -> PagePerms {
    if write {
        PagePerms::READ_WRITE
    } else {
        PagePerms::READ_ONLY
    }
}

/// The flat model: base pages and huge pages by VPN, plus the 2 MiB
/// regions that hold a level-0 node. Such a node outlives its last
/// mapping, so a huge page can never again be mapped over it.
#[derive(Default)]
struct Model {
    base: BTreeMap<u64, (u64, PagePerms)>,
    huge: BTreeMap<u64, (u64, PagePerms)>,
    leaf_nodes: BTreeSet<u64>,
}

impl Model {
    /// The mapping covering `vpn`: its map key, size and entry.
    fn covering(&mut self, vpn: u64) -> Option<(u64, PageSize, &mut (u64, PagePerms))> {
        if let Some(e) = self.base.get_mut(&vpn) {
            return Some((vpn, PageSize::Base4K, e));
        }
        let base = vpn & !511;
        self.huge
            .get_mut(&base)
            .map(|e| (base, PageSize::Huge2M, e))
    }

    /// Translation of `vpn`: physical page, perms, size, levels walked.
    fn translate(&mut self, vpn: u64) -> Option<(u64, PagePerms, PageSize, u64)> {
        self.covering(vpn)
            .map(|(key, size, &mut (ppn, perms))| match size {
                PageSize::Base4K => (ppn, perms, size, 4),
                PageSize::Huge2M => (ppn + (vpn - key), perms, size, 3),
            })
    }

    fn base_pages(&self) -> u64 {
        self.base.len() as u64 + 512 * self.huge.len() as u64
    }

    /// Every mapping's VPN, huge pages at their base, ascending.
    fn listing(&self) -> Vec<Vpn> {
        let all: BTreeSet<u64> = self.base.keys().chain(self.huge.keys()).copied().collect();
        all.into_iter().map(Vpn::new).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every op's result, the mapped page count, the walk counters and
    /// the mapping listing, in the ascending-VPN order snapshots and the
    /// teardown quarantine rely on, agree with the flat model after
    /// every step.
    #[test]
    fn page_table_matches_flat_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut table = PageTable::new(Asid::new(1));
        let mut model = Model::default();
        let (mut walks, mut accesses) = (0u64, 0u64);

        for op in ops {
            match op {
                Op::Map { vpn, ppn, write } => {
                    let perms = perms_of(write);
                    let r = table.map(Vpn::new(vpn), Ppn::new(ppn), perms, PageSize::Base4K);
                    let want = if model.huge.contains_key(&(vpn & !511)) {
                        Err(MapError::OverlapsHugePage(Vpn::new(vpn)))
                    } else if model.base.contains_key(&vpn) {
                        model.leaf_nodes.insert(vpn >> 9);
                        Err(MapError::AlreadyMapped(Vpn::new(vpn)))
                    } else {
                        model.leaf_nodes.insert(vpn >> 9);
                        model.base.insert(vpn, (ppn, perms));
                        Ok(())
                    };
                    prop_assert_eq!(r, want);
                }
                Op::MapHuge { base, ppn, write } => {
                    let perms = perms_of(write);
                    let r = table.map(Vpn::new(base), Ppn::new(ppn), perms, PageSize::Huge2M);
                    let want = if model.huge.contains_key(&base) {
                        Err(MapError::AlreadyMapped(Vpn::new(base)))
                    } else if model.leaf_nodes.contains(&(base >> 9)) {
                        Err(MapError::OverlapsHugePage(Vpn::new(base)))
                    } else {
                        model.huge.insert(base, (ppn, perms));
                        Ok(())
                    };
                    prop_assert_eq!(r, want);
                }
                Op::Unmap { vpn } => {
                    let r = table.unmap(Vpn::new(vpn));
                    match model.translate(vpn) {
                        Some((ppn, perms, size, _)) => {
                            let tr = r.unwrap();
                            prop_assert_eq!((tr.ppn, tr.perms, tr.size), (Ppn::new(ppn), perms, size));
                            match size {
                                PageSize::Base4K => model.base.remove(&vpn),
                                PageSize::Huge2M => model.huge.remove(&(vpn & !511)),
                            };
                        }
                        None => prop_assert_eq!(r, Err(TranslateError::NotMapped(Vpn::new(vpn)))),
                    }
                }
                Op::Protect { vpn, write } => {
                    let perms = perms_of(write);
                    let r = table.protect(Vpn::new(vpn), perms);
                    match model.covering(vpn) {
                        Some((_, _, entry)) => {
                            prop_assert_eq!(r, Ok(entry.1));
                            entry.1 = perms;
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
                Op::Remap { vpn, ppn } => {
                    let r = table.remap(Vpn::new(vpn), Ppn::new(ppn));
                    match model.covering(vpn) {
                        Some((_, _, entry)) => {
                            prop_assert_eq!(r, Ok(Ppn::new(entry.0)));
                            entry.0 = ppn;
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
                Op::Translate { vpn } => {
                    let r = table.translate(Vpn::new(vpn));
                    walks += 1;
                    match model.translate(vpn) {
                        Some((ppn, perms, size, levels)) => {
                            let tr = r.unwrap();
                            prop_assert_eq!(
                                (tr.ppn, tr.perms, tr.size, tr.levels_walked),
                                (Ppn::new(ppn), perms, size, levels)
                            );
                            accesses += levels;
                        }
                        // Also a VPN past the end of a short node.
                        None => prop_assert_eq!(r, Err(TranslateError::NotMapped(Vpn::new(vpn)))),
                    }
                }
            }

            // Full agreement after every step, the listing unsorted.
            prop_assert_eq!(table.mapped_base_pages(), model.base_pages());
            prop_assert_eq!((table.walks(), table.walk_node_accesses()), (walks, accesses));
            prop_assert_eq!(table.mapped_vpns(), model.listing());
        }

        for vpn in model.listing() {
            let want = model.translate(vpn.as_u64()).expect("model says mapped");
            let tr = table.peek(vpn).expect("model says mapped");
            prop_assert_eq!(
                (tr.ppn, tr.perms, tr.size, tr.levels_walked),
                (Ppn::new(want.0), want.1, want.2, want.3)
            );
        }
    }

    #[test]
    fn huge_pages_cover_all_subpages(base in 0u64..32, ppn_base in 0u64..32) {
        let mut table = PageTable::new(Asid::new(1));
        table
            .map(
                Vpn::new(base * 512),
                Ppn::new(ppn_base * 512),
                PagePerms::READ_WRITE,
                PageSize::Huge2M,
            )
            .unwrap();
        for off in [0u64, 1, 17, 255, 511] {
            let tr = table.peek(Vpn::new(base * 512 + off)).unwrap();
            prop_assert_eq!(tr.ppn, Ppn::new(ppn_base * 512 + off));
            prop_assert_eq!(tr.size, PageSize::Huge2M);
        }
        // The page after the huge page is unmapped.
        prop_assert!(table.peek(Vpn::new(base * 512 + 512)).is_err());
    }
}
