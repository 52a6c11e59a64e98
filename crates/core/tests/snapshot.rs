//! Round-trip checks for the kernel and Border Control snapshot codecs:
//! a warmed engine serialized and restored must behave identically —
//! same BCC victims, same check outcomes, same allocator decisions.

use bc_core::{BorderControl, BorderControlConfig, MemRequest};
use bc_mem::addr::{Ppn, VirtAddr, Vpn};
use bc_mem::dram::{Dram, DramConfig};
use bc_mem::perms::PagePerms;
use bc_os::{Kernel, KernelConfig, ProcessState, Violation, ViolationKind, ViolationPolicy};
use bc_sim::snapshot::{read_into, to_bytes, Snap};
use bc_sim::Cycle;

/// Writes `v`, then reads the bytes over the value `build` makes the
/// way `v` was made, as a restore reads over the machine it built.
fn round_trip<T: Snap>(v: &mut T, build: impl FnOnce(&T) -> T) -> T {
    let mut out = build(v);
    read_into(&to_bytes(v), &mut out).expect("decodes, fully consumed");
    out
}

#[test]
fn kernel_round_trip_preserves_processes_and_books() {
    let mut k = Kernel::new(KernelConfig {
        phys_bytes: 64 << 20,
        violation_policy: ViolationPolicy::LogOnly,
    });
    let pid = k.create_process();
    k.map_region(pid, VirtAddr::new(0x10000), 4, PagePerms::READ_WRITE)
        .unwrap();
    k.write_virt(pid, VirtAddr::new(0x10000), b"payload")
        .unwrap();
    let child = k.fork_cow(pid).unwrap();
    // Leave the CoW shootdowns queued — they must survive the cut.
    let dead = k.create_process();
    k.map_region(dead, VirtAddr::new(0x50000), 2, PagePerms::READ_WRITE)
        .unwrap();
    k.terminate(dead).unwrap(); // quarantined, teardown unfinished
    k.report_violation(Violation {
        accel_id: 0,
        asid: Some(pid),
        ppn: Ppn::new(9),
        kind: ViolationKind::OutOfBounds,
        at: Cycle::new(77),
    });

    let mut r = round_trip(&mut k, |k| Kernel::new(k.config()));
    assert_eq!(r.frames_allocated(), k.frames_allocated());
    assert_eq!(r.minor_faults(), k.minor_faults());
    assert_eq!(r.downgrades(), k.downgrades());
    assert_eq!(r.violations(), k.violations());
    assert_eq!(r.process(dead).unwrap().state(), ProcessState::Exited);
    assert_eq!(
        r.unfinished_teardowns().collect::<Vec<_>>(),
        k.unfinished_teardowns().collect::<Vec<_>>()
    );
    assert_eq!(
        r.read_virt(pid, VirtAddr::new(0x10000), 7).unwrap(),
        b"payload"
    );

    // Queued shootdowns drain identically.
    assert_eq!(r.take_shootdowns(), k.take_shootdowns());
    // Shared-frame refcounts survive: resolving CoW in the child splits
    // the same way, and future process ids continue from the same point.
    assert_eq!(
        r.resolve_cow(child, VirtAddr::new(0x10000).vpn()).unwrap(),
        k.resolve_cow(child, VirtAddr::new(0x10000).vpn()).unwrap()
    );
    assert_eq!(r.create_process(), k.create_process());
}

#[test]
fn border_control_round_trip_behaves_identically() {
    let mut kernel = Kernel::new(KernelConfig {
        phys_bytes: 256 << 20,
        ..KernelConfig::default()
    });
    let mut dram = Dram::new(DramConfig::default());
    let mut bc = BorderControl::new(3, BorderControlConfig::default());
    let pid = kernel.create_process();
    kernel
        .map_region(pid, VirtAddr::new(0x10000), 8, PagePerms::READ_WRITE)
        .unwrap();
    bc.attach_process(&mut kernel, pid).unwrap();
    for i in 0..8u64 {
        let tr = kernel.translate(pid, Vpn::new(0x10 + i)).unwrap();
        bc.on_translation(
            Cycle::new(i),
            &bc_cache::TlbEntry {
                asid: pid,
                vpn: Vpn::new(0x10 + i),
                ppn: tr.ppn,
                perms: tr.perms,
                size: bc_mem::PageSize::Base4K,
            },
            kernel.store_mut(),
            &mut dram,
        );
    }
    // One violation so the counter is non-zero.
    bc.check(
        Cycle::new(50),
        MemRequest {
            ppn: Ppn::new(0xF000),
            write: true,
            asid: Some(pid),
        },
        kernel.store_mut(),
        &mut dram,
    );

    let mut rk = round_trip(&mut kernel, |k| Kernel::new(k.config()));
    let mut rd = round_trip(&mut dram, |d| Dram::new(d.config()));
    let mut rbc = round_trip(&mut bc, |_| {
        BorderControl::new(3, BorderControlConfig::default())
    });
    assert_eq!(rbc.checks(), bc.checks());
    assert_eq!(rbc.violations_blocked(), bc.violations_blocked());
    assert_eq!(rbc.pt_reads(), bc.pt_reads());
    assert_eq!(rbc.insertions(), bc.insertions());
    assert_eq!(rbc.bcc_stats(), bc.bcc_stats());
    assert_eq!(rbc.attached(), bc.attached());
    assert_eq!(
        rbc.table().map(|t| (t.base(), t.bounds_pages())),
        bc.table().map(|t| (t.base(), t.bounds_pages()))
    );

    // Continued checks take identical outcomes and timings through the
    // restored BCC and DRAM calendars.
    for i in 0..16u64 {
        let tr = kernel.translate(pid, Vpn::new(0x10 + i % 8)).unwrap();
        let req = MemRequest {
            ppn: tr.ppn,
            write: i % 2 == 0,
            asid: Some(pid),
        };
        assert_eq!(
            rbc.check(Cycle::new(100 + i), req, rk.store_mut(), &mut rd),
            bc.check(Cycle::new(100 + i), req, kernel.store_mut(), &mut dram),
            "divergence at check {i}"
        );
    }
    // The subset audit stays clean on the restored pair.
    assert!(rbc.audit_bcc_subset(rk.store()).is_empty());
}
