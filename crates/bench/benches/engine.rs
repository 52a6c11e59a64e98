//! Microbenchmarks of the simulated hardware structures.

// Driver/harness code: failing fast on setup errors is the right behavior.
#![allow(clippy::unwrap_used)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bc_cache::{Access, Cache, CacheConfig, Replacement, Tlb, TlbConfig, TlbEntry, WritePolicy};
use bc_core::{Bcc, BccConfig, ProtectionTable};
use bc_mem::{Asid, PagePerms, PageSize, PageTable, PhysAddr, PhysMemStore, Ppn, Vpn};
use bc_sim::resource::Channels;
use bc_sim::{Cycle, EventQueue, SimRng};

fn protection_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("protection_table");
    let table = ProtectionTable::new(Ppn::new(1000), 1 << 20);

    group.bench_function("merge", |b| {
        let mut store = PhysMemStore::new();
        let mut i = 0u64;
        b.iter(|| {
            table.merge(&mut store, Ppn::new(i % 100_000), PagePerms::READ_WRITE);
            i += 1;
        });
    });
    group.bench_function("lookup", |b| {
        let mut store = PhysMemStore::new();
        for p in 0..100_000 {
            table.merge(&mut store, Ppn::new(p), PagePerms::READ_ONLY);
        }
        let mut i = 0u64;
        b.iter(|| {
            black_box(table.lookup(&store, Ppn::new(i % 100_000)));
            i += 1;
        });
    });
    group.bench_function("zero_3GiB_table", |b| {
        let mut store = PhysMemStore::new();
        let table = ProtectionTable::new(Ppn::new(1000), (3u64 << 30) / 4096);
        b.iter(|| black_box(table.zero(&mut store, None)));
    });
    group.finish();
}

fn bcc(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcc");
    group.bench_function("lookup_hit", |b| {
        let mut bcc = Bcc::new(BccConfig::default());
        bcc.fill(Ppn::new(0), &[PagePerms::READ_WRITE; 512]);
        b.iter(|| black_box(bcc.lookup(Ppn::new(7))));
    });
    group.bench_function("fill", |b| {
        let mut bcc = Bcc::new(BccConfig::default());
        let block = [PagePerms::READ_WRITE; 512];
        let mut i = 0u64;
        b.iter(|| {
            bcc.fill(Ppn::new((i % 1024) * 512), &block);
            i += 1;
        });
    });
    group.finish();
}

fn caches(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    let config = CacheConfig {
        size_bytes: 256 << 10,
        ways: 16,
        block_bytes: 128,
        write_policy: WritePolicy::WriteBack,
        replacement: Replacement::Lru,
    };
    group.bench_function("l2_access_streaming", |b| {
        let mut cache = Cache::new(config);
        let mut i = 0u64;
        b.iter(|| {
            black_box(cache.access(PhysAddr::new((i % 100_000) * 128), Access::Read));
            i += 1;
        });
    });
    group.bench_function("l2_access_resident", |b| {
        let mut cache = Cache::new(config);
        for i in 0..1024u64 {
            cache.access(PhysAddr::new(i * 128), Access::Read);
        }
        let mut i = 0u64;
        b.iter(|| {
            black_box(cache.access(PhysAddr::new((i % 1024) * 128), Access::Read));
            i += 1;
        });
    });
    group.finish();
}

fn tlbs(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb");
    group.bench_function("fully_assoc_64_lookup", |b| {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 64,
            ways: 64,
        });
        for i in 0..64u64 {
            tlb.insert(TlbEntry {
                asid: Asid::new(1),
                vpn: Vpn::new(i),
                ppn: Ppn::new(i + 100),
                perms: PagePerms::READ_WRITE,
                size: PageSize::Base4K,
            });
        }
        let mut i = 0u64;
        b.iter(|| {
            black_box(tlb.lookup(Asid::new(1), Vpn::new(i % 64)));
            i += 1;
        });
    });
    group.finish();
}

fn page_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_table");
    group.bench_function("translate_4_level", |b| {
        let mut table = PageTable::new(Asid::new(1));
        for i in 0..4096u64 {
            table
                .map(
                    Vpn::new(i),
                    Ppn::new(i + 10),
                    PagePerms::READ_WRITE,
                    PageSize::Base4K,
                )
                .unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            black_box(table.translate(Vpn::new(i % 4096)).unwrap());
            i += 1;
        });
    });
    group.finish();
}

fn event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("push_pop_1k", |b| {
        let mut rng = SimRng::seed_from(7);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(Cycle::new(rng.below(100_000)), i);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
    });
    // Hold model, the simulator's steady state: a standing population of
    // 1 000 events; each step pops the earliest and pushes one `δ` later,
    // δ up to two wheel windows, so the cursor and the window move
    // together and far events migrate as the window slides.
    group.bench_function("hold_1k", |b| {
        let window = EventQueue::<u64>::WHEEL_CYCLES as u64;
        let mut rng = SimRng::seed_from(7);
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(Cycle::new(rng.below(window)), i);
        }
        b.iter(|| {
            let (at, e) = q.pop().unwrap();
            q.push(Cycle::new(at.as_u64() + 1 + rng.below(2 * window)), e);
        });
    });
    group.finish();
}

fn channels(c: &mut Criterion) {
    let mut group = c.benchmark_group("channels");
    // A loaded 4-channel DRAM bank: arrivals rising about 80 % utilised,
    // a quarter presented up to 256 cycles late, services 8–39 cycles.
    // After warm-up every channel holds several hundred live intervals,
    // and bookings land near each calendar's tail.
    group.bench_function("serve_loaded_4ch", |b| {
        let mut rng = SimRng::seed_from(3);
        let mut clock = 0u64;
        let mut request = move || {
            clock += rng.below(16);
            let late = if rng.below(4) == 0 { rng.below(256) } else { 0 };
            (Cycle::new(clock - late.min(clock)), 8 + rng.below(32))
        };
        let mut dram = Channels::new(4);
        for _ in 0..20_000 {
            let (arrival, service) = request();
            dram.serve(arrival, service);
        }
        b.iter(|| {
            let (arrival, service) = request();
            black_box(dram.serve(arrival, service))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    protection_table,
    bcc,
    caches,
    tlbs,
    page_table,
    event_queue,
    channels
);
criterion_main!(benches);
