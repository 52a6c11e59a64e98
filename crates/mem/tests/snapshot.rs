//! Round-trip checks for the memory substrate's snapshot codecs: a
//! mutated structure serialized and restored must be observably
//! identical (contents, books, counters, and future behavior).

use bc_mem::addr::{Asid, PageSize, PhysAddr, Ppn, Vpn, PAGE_SIZE};
use bc_mem::dram::{Dram, DramConfig, MemBackend};
use bc_mem::page_table::PageTable;
use bc_mem::perms::PagePerms;
use bc_mem::store::{PhysMemStore, WriteOrigin};
use bc_mem::FrameAllocator;
use bc_sim::snapshot::{read_into, to_bytes, Snap, SnapError};
use bc_sim::Cycle;

/// Writes `v`, then reads the bytes over the value `build` makes the
/// way `v` was made, as a restore reads over the machine it built.
fn round_trip<T: Snap>(v: &mut T, build: impl FnOnce(&T) -> T) -> T {
    let mut out = build(v);
    read_into(&to_bytes(v), &mut out).expect("decodes, fully consumed");
    out
}

#[test]
fn store_round_trip_preserves_contents_and_tiers() {
    let mut m = PhysMemStore::with_frames(16);
    m.write(PhysAddr::new(0x1ff0), &[7; 32]); // crosses pages 1 -> 2
    m.write(PhysAddr::new(0x3000), b"dense");
    m.write(PhysAddr::new(100 * PAGE_SIZE + 5), b"sparse tier");
    m.set_accel_write_logging(true);
    m.write_as(WriteOrigin::Accelerator, PhysAddr::new(0x2000), b"logged");

    let r = round_trip(&mut m, |_| {
        let mut store = PhysMemStore::with_frames(16);
        store.set_accel_write_logging(true);
        store
    });
    assert_eq!(r.resident_pages(), m.resident_pages());
    for addr in [0x1ff0, 0x2000, 0x3000, 100 * PAGE_SIZE + 5] {
        assert_eq!(
            r.read_vec(PhysAddr::new(addr), 32),
            m.read_vec(PhysAddr::new(addr), 32),
            "mismatch at {addr:#x}"
        );
    }
    // The undrained accelerator-write log survives the cut.
    let mut r = r;
    assert_eq!(r.take_accel_writes(), m.take_accel_writes());
}

/// The bytes list every stored page, so a store that already holds one
/// is refused rather than read over.
#[test]
fn store_restore_refuses_a_store_that_holds_pages() {
    let mut m = PhysMemStore::with_frames(16);
    m.write(PhysAddr::new(0x3000), b"dense");
    let bytes = to_bytes(&mut m);
    let mut over = PhysMemStore::with_frames(16);
    over.write(PhysAddr::new(0x5000), b"stale");
    assert_eq!(
        read_into(&bytes, &mut over),
        Err(SnapError::BadValue("pages stored before the restore"))
    );
}

#[test]
fn page_table_round_trip_preserves_mappings_and_walk_stats() {
    let mut pt = PageTable::new(Asid::new(3));
    pt.map(
        Vpn::new(7),
        Ppn::new(70),
        PagePerms::READ_WRITE,
        PageSize::Base4K,
    )
    .unwrap();
    pt.map_with_cow(
        Vpn::new(9),
        Ppn::new(90),
        PagePerms::READ_ONLY,
        PageSize::Base4K,
        true,
    )
    .unwrap();
    pt.map(
        Vpn::new(1024),
        Ppn::new(2048),
        PagePerms::READ_WRITE,
        PageSize::Huge2M,
    )
    .unwrap();
    pt.translate(Vpn::new(7)).unwrap();
    pt.translate(Vpn::new(1024 + 5)).unwrap();

    let mut r = round_trip(&mut pt, |_| PageTable::new(Asid::default()));
    assert_eq!(r.asid(), pt.asid());
    assert_eq!(r.mapped_base_pages(), pt.mapped_base_pages());
    assert_eq!(r.walks(), pt.walks());
    assert_eq!(r.walk_node_accesses(), pt.walk_node_accesses());
    assert_eq!(r.mapped_vpns(), pt.mapped_vpns());
    for vpn in [7u64, 9, 1024 + 5] {
        assert_eq!(r.peek(Vpn::new(vpn)), pt.peek(Vpn::new(vpn)));
    }
    // Walk accounting continues from the restored totals.
    r.translate(Vpn::new(7)).unwrap();
    assert_eq!(r.walks(), pt.walks() + 1);
}

#[test]
fn frame_allocator_round_trip_reproduces_future_allocations() {
    let mut fa = FrameAllocator::new(1 << 20);
    let a = fa.alloc().unwrap();
    let _b = fa.alloc().unwrap();
    fa.alloc_contiguous(4).unwrap();
    fa.free(a);

    let mut r = round_trip(&mut fa, |_| FrameAllocator::new(1 << 20));
    assert_eq!(r.allocated(), fa.allocated());
    assert_eq!(r.available(), fa.available());
    // Same books, same future: next allocations match exactly.
    for _ in 0..6 {
        assert_eq!(r.alloc().unwrap(), fa.alloc().unwrap());
    }
}

#[test]
fn dram_round_trip_preserves_channel_calendars() {
    let mut d = Dram::new(DramConfig {
        access_latency: 10,
        service_per_block: 2,
        channels: 2,
        backend: MemBackend::CxlPool,
    });
    for i in 0..5 {
        d.read_block(Cycle::new(i), PhysAddr::new(i * 128));
    }
    d.write_block(Cycle::new(2), PhysAddr::new(0));

    let mut r = round_trip(&mut d, |d| Dram::new(d.config()));
    assert_eq!(r.reads(), d.reads());
    assert_eq!(r.writes(), d.writes());
    assert_eq!(r.config(), d.config());
    // Queued channels must replay identically: same arrival, same finish.
    for i in 0..4 {
        assert_eq!(
            r.read_block(Cycle::new(6), PhysAddr::new(i * 128)),
            d.read_block(Cycle::new(6), PhysAddr::new(i * 128)),
        );
    }
}
