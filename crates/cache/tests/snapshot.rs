//! Round-trip checks for the cache hierarchy's snapshot codecs. The
//! contract is stronger than field equality: a restored structure must
//! *behave* identically — same victims, same stall times, same LRU
//! decisions — so each test drives original and restored copies through
//! the same accesses and compares outcomes.

use bc_cache::coherence::{CoherenceState, CpuEvent, MoesiLine};
use bc_cache::{
    Access, Cache, CacheConfig, MshrTable, Replacement, Tlb, TlbConfig, TlbEntry, WritePolicy,
};
use bc_mem::addr::{Asid, PageSize, PhysAddr, Ppn, Vpn};
use bc_mem::perms::PagePerms;
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
fn cache_round_trip_behaves_identically() {
    for (policy, repl) in [
        (WritePolicy::WriteBack, Replacement::Lru),
        (WritePolicy::WriteThrough, Replacement::Lru),
        (WritePolicy::WriteBack, Replacement::Random),
    ] {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 2048,
            ways: 2,
            block_bytes: 128,
            write_policy: policy,
            replacement: repl,
        });
        for b in 0..40u64 {
            let access = if b % 3 == 0 {
                Access::Write
            } else {
                Access::Read
            };
            c.access(PhysAddr::new(b * 128 * 5), access);
        }
        let mut r = round_trip(&mut c, |c| Cache::new(c.config()));
        assert_eq!(r.valid_lines(), c.valid_lines());
        assert_eq!(r.dirty_lines(), c.dirty_lines());
        assert_eq!(r.stats(), c.stats());
        assert_eq!(r.writebacks(), c.writebacks());
        // Continued accesses produce identical outcomes (same victims,
        // same RNG draws, same LRU ordering).
        for b in 0..60u64 {
            let access = if b % 4 == 0 {
                Access::Write
            } else {
                Access::Read
            };
            assert_eq!(
                r.access(PhysAddr::new(b * 128 * 3), access),
                c.access(PhysAddr::new(b * 128 * 3), access),
                "divergence at block {b} under {policy:?}/{repl:?}"
            );
        }
        // Selective flush emits the same evictions after restore.
        assert_eq!(r.flush_page(Ppn::new(0)), c.flush_page(Ppn::new(0)));
    }
}

#[test]
fn tlb_round_trip_behaves_identically() {
    let mut t = Tlb::new(TlbConfig {
        entries: 8,
        ways: 2,
    });
    for i in 0..12u64 {
        t.insert(TlbEntry {
            asid: Asid::new((i % 3) as u16),
            vpn: Vpn::new(i * 7),
            ppn: Ppn::new(i + 100),
            perms: PagePerms::READ_WRITE,
            size: PageSize::Base4K,
        });
    }
    t.insert(TlbEntry {
        asid: Asid::new(1),
        vpn: Vpn::new(1024),
        ppn: Ppn::new(4096),
        perms: PagePerms::READ_ONLY,
        size: PageSize::Huge2M,
    });
    t.lookup(Asid::new(1), Vpn::new(7));

    let mut r = round_trip(&mut t, |t| Tlb::new(t.config()));
    assert_eq!(r.valid_entries(), t.valid_entries());
    assert_eq!(r.stats(), t.stats());
    for i in 0..16u64 {
        assert_eq!(
            r.lookup(Asid::new((i % 3) as u16), Vpn::new(i * 7)),
            t.lookup(Asid::new((i % 3) as u16), Vpn::new(i * 7)),
        );
    }
    // Inserts after restore evict the same victims.
    for i in 50..60u64 {
        r.insert(TlbEntry {
            asid: Asid::new(0),
            vpn: Vpn::new(i),
            ppn: Ppn::new(i),
            perms: PagePerms::READ_ONLY,
            size: PageSize::Base4K,
        });
        t.insert(TlbEntry {
            asid: Asid::new(0),
            vpn: Vpn::new(i),
            ppn: Ppn::new(i),
            perms: PagePerms::READ_ONLY,
            size: PageSize::Base4K,
        });
    }
    for i in 0..60u64 {
        assert_eq!(
            r.peek(Asid::new(0), Vpn::new(i)),
            t.peek(Asid::new(0), Vpn::new(i))
        );
    }
    assert_eq!(r.flush_asid(Asid::new(1)), t.flush_asid(Asid::new(1)));
}

#[test]
fn mshr_round_trip_preserves_outstanding_and_stall_times() {
    let mut m = MshrTable::new(2);
    m.register(Cycle::ZERO, 1);
    m.fill_issued(1, Cycle::new(40));
    m.register(Cycle::ZERO, 2); // fill not yet issued
    m.register(Cycle::new(1), 1); // merge
    m.register(Cycle::new(1), 3); // stall

    let mut r = round_trip(&mut m, |_| MshrTable::new(2));
    assert_eq!(r.in_flight(), m.in_flight());
    assert_eq!(r.merges(), m.merges());
    assert_eq!(r.stalls(), m.stalls());
    assert_eq!(r.register(Cycle::new(2), 3), m.register(Cycle::new(2), 3));
    // Expiry pops the same completion-time index after restore.
    r.expire(Cycle::new(41));
    m.expire(Cycle::new(41));
    assert_eq!(r.in_flight(), m.in_flight());
    assert_eq!(r.register(Cycle::new(41), 9), m.register(Cycle::new(41), 9));
}

#[test]
fn moesi_line_round_trip() {
    for (setup, _) in [
        (None, 0u8),
        (Some((CpuEvent::Load, false)), 1),
        (Some((CpuEvent::Load, true)), 2),
        (Some((CpuEvent::Store, true)), 4),
    ] {
        let mut l = MoesiLine::new();
        if let Some((ev, writable)) = setup {
            l.cpu_event(ev, writable);
        }
        let r = round_trip(&mut l, |_| MoesiLine::new());
        assert_eq!(r.state(), l.state());
    }
    // Owned is only reachable via a bus event.
    let mut l = MoesiLine::new();
    l.cpu_event(CpuEvent::Store, true);
    l.bus_event(bc_cache::coherence::BusEvent::RemoteGetS);
    assert_eq!(l.state(), CoherenceState::Owned);
    assert_eq!(
        round_trip(&mut l, |_| MoesiLine::new()).state(),
        CoherenceState::Owned
    );
}
