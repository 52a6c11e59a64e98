//! Host nanoseconds per public call of the modelled structures, replayed
//! from outside the program on address and check streams taken from the
//! same sweep cells, and the reconciliation of count × ns against the
//! measured `System::run` time.

use std::hint::black_box;
use std::time::Instant;

use bc_cache::{Access, Cache, CacheConfig, Replacement, Tlb, TlbConfig, TlbEntry, WritePolicy};
use bc_core::{Bcc, ProtectionTable};
use bc_mem::{Asid, Dram, PagePerms, PageSize, PageTable, PhysAddr, PhysMemStore, Ppn, Vpn};
use bc_sim::{Cycle, EventQueue, SimRng};
use bc_system::{System, SystemConfig};
use bc_workloads::{by_name, LiveSynthesis, StreamSource};

use crate::stats::{median, Metrics, ReportTotals};

/// Accesses kept per replayed cell: enough for a stable mean per call.
const MAX_ACCESSES: usize = 300_000;
/// Each replay runs this many times; the median pass is reported.
const PASSES: usize = 3;

/// Mean host ns per call of each structure's public entry point.
#[derive(Default, Debug, Clone, Copy)]
pub struct Replays {
    pub cache_access_ns: f64,
    pub tlb_lookup_ns: f64,
    pub bcc_lookup_ns: f64,
    pub pt_lookup_ns: f64,
    pub translate_ns: f64,
    pub dram_access_ns: f64,
    pub event_queue_ns: f64,
}

impl Replays {
    pub fn write(&self, m: &mut Metrics) {
        m.set("cache.access.ns", self.cache_access_ns, "ns");
        m.set("cache.tlb.lookup.ns", self.tlb_lookup_ns, "ns");
        m.set("core.bcc.lookup.ns", self.bcc_lookup_ns, "ns");
        m.set("core.pt.lookup.ns", self.pt_lookup_ns, "ns");
        m.set("mem.page_table.translate.ns", self.translate_ns, "ns");
        m.set("mem.dram.access.ns", self.dram_access_ns, "ns");
        m.set("sim.event_queue.push_pop.ns", self.event_queue_ns, "ns");
    }

    /// Σ count × ns over the structures a `RunReport` counts, plus the
    /// stream ops, in milliseconds.
    pub fn explained_ms(&self, t: &ReportTotals, stream_ops: u64, stream_ns: f64) -> f64 {
        let terms = [
            ((t.l1.0 + t.l2.0) as f64, self.cache_access_ns),
            ((t.l1_tlb.0 + t.iotlb.0) as f64, self.tlb_lookup_ns),
            ((t.bcc.0 + t.bcc.1) as f64, self.bcc_lookup_ns),
            (t.pt.0 as f64, self.pt_lookup_ns),
            (t.ats_walks as f64, self.translate_ns),
            ((t.dram.0 + t.dram.1) as f64, self.dram_access_ns),
            (t.events as f64, self.event_queue_ns),
            (stream_ops as f64, stream_ns),
        ];
        terms.iter().map(|(n, ns)| n * ns).sum::<f64>() / 1e6
    }
}

/// Times `f` over `PASSES` passes and returns the median ns per call,
/// where one pass makes `calls` calls.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&passes)
}

/// The cell's wavefront streams, interleaved round-robin the way the
/// GPU issues them, as `(virtual block address, is_write)`.
fn access_stream(config: &SystemConfig) -> Vec<(u64, bool)> {
    let Some(workload) = by_name(&config.workload, config.size) else {
        return Vec::new();
    };
    let gc = config.effective_gpu_config();
    let total = u32::try_from(gc.compute_units * gc.wavefronts_per_cu).unwrap_or(u32::MAX);
    let mut streams: Vec<_> = (0..total)
        .map(|wf| LiveSynthesis.open_stream(workload.as_ref(), wf, total, config.seed))
        .collect();
    let cap = config.max_ops_per_wavefront.unwrap_or(u64::MAX);
    let mut out = Vec::new();
    for _ in 0..cap {
        let mut any = false;
        for s in &mut streams {
            if let Some(op) = s.next_op() {
                any = true;
                out.extend(op.blocks.iter().map(|b| (b.va.as_u64(), b.write)));
            }
        }
        if !any || out.len() >= MAX_ACCESSES {
            break;
        }
    }
    out.truncate(MAX_ACCESSES);
    out
}

/// Replays every structure on the streams of `configs` (cells with a
/// Border Control BCC, so the check stream exists) and averages the
/// per-call cost over the cells.
pub fn replay(configs: &[SystemConfig]) -> Replays {
    let mut sum = Replays::default();
    let mut n = 0.0;
    for config in configs {
        let accesses = access_stream(config);
        let mut traced = config.clone();
        traced.record_check_stream = true;
        let checks: Vec<Ppn> = match System::build(&traced) {
            Ok(mut system) => {
                let _ = system.run();
                let mut s: Vec<Ppn> = system
                    .take_check_stream()
                    .into_iter()
                    .map(|(p, _)| p)
                    .collect();
                s.truncate(MAX_ACCESSES);
                s
            }
            Err(_) => Vec::new(),
        };
        let r = replay_one(config, &accesses, &checks);
        sum.cache_access_ns += r.cache_access_ns;
        sum.tlb_lookup_ns += r.tlb_lookup_ns;
        sum.bcc_lookup_ns += r.bcc_lookup_ns;
        sum.pt_lookup_ns += r.pt_lookup_ns;
        sum.translate_ns += r.translate_ns;
        sum.dram_access_ns += r.dram_access_ns;
        n += 1.0;
    }
    if n > 0.0 {
        sum.cache_access_ns /= n;
        sum.tlb_lookup_ns /= n;
        sum.bcc_lookup_ns /= n;
        sum.pt_lookup_ns /= n;
        sum.translate_ns /= n;
        sum.dram_access_ns /= n;
    }
    sum.event_queue_ns = event_queue_ns();
    sum
}

fn replay_one(config: &SystemConfig, accesses: &[(u64, bool)], checks: &[Ppn]) -> Replays {
    let gc = config.effective_gpu_config();
    let l2 = CacheConfig {
        size_bytes: gc.l2_bytes,
        ways: gc.l2_ways,
        block_bytes: gc.block_bytes,
        write_policy: WritePolicy::WriteBack,
        replacement: Replacement::Lru,
    };
    let kind = |w: bool| if w { Access::Write } else { Access::Read };
    let cache_access_ns = per_call_ns(accesses.len(), || {
        let mut cache = Cache::new(l2);
        for &(va, w) in accesses {
            black_box(cache.access(PhysAddr::new(va), kind(w)));
        }
    });

    let asid = Asid::new(1);
    let entries = gc.l1_tlb_entries.max(1);
    let tlb_lookup_ns = per_call_ns(accesses.len(), || {
        let mut tlb = Tlb::new(TlbConfig {
            entries,
            ways: entries,
        });
        for &(va, _) in accesses {
            let vpn = Vpn::new(va >> 12);
            if black_box(tlb.lookup(asid, vpn)).is_none() {
                tlb.insert(TlbEntry {
                    asid,
                    vpn,
                    ppn: Ppn::new(vpn.as_u64()),
                    perms: PagePerms::READ_WRITE,
                    size: PageSize::Base4K,
                });
            }
        }
    });

    let mut table = PageTable::new(asid);
    let mut vpns: Vec<u64> = accesses.iter().map(|&(va, _)| va >> 12).collect();
    vpns.sort_unstable();
    vpns.dedup();
    for &v in &vpns {
        let _ = table.map(
            Vpn::new(v),
            Ppn::new(v),
            PagePerms::READ_WRITE,
            PageSize::Base4K,
        );
    }
    let translate_ns = per_call_ns(accesses.len(), || {
        for &(va, _) in accesses {
            let _ = black_box(table.translate(Vpn::new(va >> 12)));
        }
    });

    let dram_access_ns = per_call_ns(accesses.len(), || {
        let mut dram = Dram::new(config.dram);
        for (i, &(va, w)) in accesses.iter().enumerate() {
            let at = Cycle::new(i as u64 * 2);
            let addr = PhysAddr::new(va);
            black_box(if w {
                dram.write_block(at, addr)
            } else {
                dram.read_block(at, addr)
            });
        }
    });

    let top = checks.iter().map(|p| p.as_u64()).max().unwrap_or(0) + 1;
    let pt = ProtectionTable::new(Ppn::new(top), top);
    let mut store = PhysMemStore::new();
    for &p in checks {
        pt.merge(&mut store, p, PagePerms::READ_WRITE);
    }
    let pt_lookup_ns = per_call_ns(checks.len(), || {
        for &p in checks {
            black_box(pt.lookup(&store, p));
        }
    });
    let bcc_lookup_ns = per_call_ns(checks.len(), || {
        let mut bcc = Bcc::new(config.bcc);
        for &p in checks {
            if black_box(bcc.lookup(p)).is_none() {
                bcc.fill(p, &pt.read_block(&store, p));
            }
        }
    });

    Replays {
        cache_access_ns,
        tlb_lookup_ns,
        bcc_lookup_ns,
        pt_lookup_ns,
        translate_ns,
        dram_access_ns,
        event_queue_ns: 0.0,
    }
}

/// Steady-state calendar: 1024 pending events, each pop followed by a
/// push a short random delay later.
fn event_queue_ns() -> f64 {
    const CALLS: usize = 500_000;
    per_call_ns(CALLS, || {
        let mut rng = SimRng::seed_from(7);
        let mut q = EventQueue::new();
        for i in 0..1024u64 {
            q.push(Cycle::new(rng.below(1000)), i);
        }
        for _ in 0..CALLS {
            if let Some((at, e)) = q.pop() {
                q.push(Cycle::new(at.as_u64() + 1 + rng.below(1000)), black_box(e));
            }
        }
    })
}

/// Host µs per `ProtectionTable::zero` of a table covering
/// `bounds_pages` pages: the teardown every tenant exit or kill pays.
pub fn pt_zero_us(bounds_pages: u64) -> f64 {
    const CALLS: usize = 200;
    let pt = ProtectionTable::new(Ppn::new(bounds_pages), bounds_pages.max(1));
    let mut store = PhysMemStore::new();
    let mut rng = SimRng::seed_from(11);
    let mut zero_ns = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        for _ in 0..8 {
            let p = Ppn::new(rng.below(bounds_pages.max(1)));
            pt.merge(&mut store, p, PagePerms::READ_WRITE);
        }
        let t = Instant::now();
        black_box(pt.zero(&mut store, None));
        zero_ns.push(t.elapsed().as_nanos() as f64);
    }
    median(&zero_ns) / 1e3
}
