//! `tenants`: 1000 tenants × 4 accelerators on the local-DRAM and
//! CXL-pool backends (the `tenants` binary's defaults), one shard.
//!
//! It is the only workload that runs `MultiTenantSystem`'s own host
//! backend, scheduler, Protection Table teardowns and downgrade storms.

use std::time::Instant;

use bc_experiments::matrices::{self};
use bc_experiments::tenants_grid::{run_tenants_cells, tenants_cells, TenantsCell};
use bc_experiments::SweepOptions;
use bc_mem::MemBackend;
use bc_system::{GpuClass, MultiTenantSystem, TenantsConfig, TenantsReport};
use bc_workloads::WorkloadSize;

use crate::span::{self, Tracer};
use crate::stats::{fig4_err_pp, median};
use crate::{end_to_end, layers, repeat_for, timed_setup, Ctx, Outcome};

/// Untraced/traced pass pairs of a traced run.
const OVERHEAD_PAIRS: usize = 3;
/// Timed set-ups per run.
const SETUP_REPS: usize = 9;

fn base_config(seed: u64) -> TenantsConfig {
    TenantsConfig {
        tenants: 1000,
        accels: 4,
        seed,
        audit: false,
        shards: 1,
        ..TenantsConfig::default()
    }
}

fn cells(seed: u64) -> Vec<TenantsCell> {
    tenants_cells(
        &base_config(seed),
        &[MemBackend::LocalDram, MemBackend::CxlPool],
    )
}

/// The exact counts a tenants report carries, compared pass to pass.
fn fingerprint(r: &TenantsReport) -> [u64; 9] {
    [
        r.cycles,
        r.events,
        r.completed,
        r.killed,
        r.preempts,
        r.storms,
        r.pt_zero_blocks,
        r.checks,
        r.dram_reads + r.dram_writes,
    ]
}

/// A cell fails when tenants go missing or the cycle valve tripped.
fn cell_ok(r: &TenantsReport) -> bool {
    r.completed + r.killed == r.tenants as u64 && !r.aborted
}

/// Fig. 4b accuracy at tiny size. Tenants produce no Fig. 4 output of
/// their own, but every workload must report every end-to-end metric,
/// and none may read 0; this untimed probe after the timed phase supplies
/// the model-accuracy figure. It says nothing about the tenants path.
fn fig4b_probe(seed: u64) -> (f64, u64) {
    let r = matrices::fig4(WorkloadSize::Tiny, &[GpuClass::ModeratelyThreaded])
        .seed(seed)
        .audit(false)
        .shards(1)
        .run(&SweepOptions::with_jobs(1));
    if r.failures() > 0 {
        return (f64::INFINITY, r.failures() as u64);
    }
    (fig4_err_pp(&[1], |_, s, w| r.report([0, 0, s, w])), 0)
}

pub fn tenants(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.traced {
        tenants_traced(&cells(ctx.seed), &mut out);
        return out;
    }
    // Set-up builds the cell list and every cell's system once, so a
    // config that cannot build is found before the timed phase.
    let (setup, grid) = timed_setup(
        SETUP_REPS,
        |_| {
            let grid = cells(ctx.seed);
            for cell in &grid {
                out.attempted += 1;
                if let Err(e) = MultiTenantSystem::build(&cell.config) {
                    eprintln!("tenants cell {} failed to build: {e}", cell.label);
                    out.failed += 1;
                }
            }
            grid
        },
        drop,
    );
    let timed = repeat_for(ctx.seconds, || run_tenants_cells(&grid, 1));
    let passes = &timed.runs;

    let first: Vec<[u64; 9]> = passes[0].1.iter().map(|(_, r)| fingerprint(r)).collect();
    let mut events = 0;
    for (_, pass) in passes {
        for (i, (label, r)) in pass.iter().enumerate() {
            out.attempted += 1;
            events += r.events;
            if !cell_ok(r) || fingerprint(r) != first[i] {
                eprintln!("tenants cell {label} failed");
                out.failed += 1;
            }
        }
    }
    let (err, probe_failed) = fig4b_probe(ctx.seed);
    out.attempted += 35;
    out.failed += probe_failed;
    end_to_end(
        &mut out.metrics,
        &setup,
        grid.len() as f64,
        events as f64 / passes.len() as f64,
        &timed.pass_s(),
        timed.peak_rss_mib,
        err,
    );
    out
}

fn tenants_traced(grid: &[TenantsCell], out: &mut Outcome) {
    let tr = Tracer::new(true);
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut traced: Vec<Option<TenantsReport>> = Vec::new();
    // Alternate untraced and traced passes; the overhead is the median
    // difference.
    for _ in 0..OVERHEAD_PAIRS {
        let t = Instant::now();
        let plain = run_tenants_cells(grid, 1);
        plain_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        traced = grid
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let req = i as u64;
                tr.span("experiments.tenants_cell", None, req, |root| {
                    let mut system = tr
                        .span("system.tenants_build", root, req, |_| {
                            MultiTenantSystem::build(&cell.config)
                        })
                        .ok()?;
                    let r = tr.span("system.tenants_run", root, req, |_| system.run());
                    tr.span("system.drop", root, req, |_| drop(system));
                    Some(r)
                })
            })
            .collect();
        traced_s.push(t.elapsed().as_secs_f64());
        for ((label, p), t) in plain.iter().zip(&traced) {
            out.attempted += 2;
            let same = t
                .as_ref()
                .is_some_and(|t| fingerprint(t) == fingerprint(p) && cell_ok(t));
            out.failed += u64::from(!cell_ok(p)) + u64::from(!same);
            if !same {
                eprintln!("tenants cell {label} failed");
            }
        }
    }
    let spans = tr.take();
    let passes = OVERHEAD_PAIRS as f64;
    let m = &mut out.metrics;
    let reports: Vec<&TenantsReport> = traced.iter().flatten().collect();
    let sum = |f: fn(&TenantsReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let run_ms = span::busy_ms(&spans, "system.tenants_run") / passes;
    m.set(
        "tenants.build.busy_ms",
        span::busy_ms(&spans, "system.tenants_build") / passes,
        "ms",
    );
    m.set("tenants.run.busy_ms", run_ms, "ms");
    m.set("sim.events", sum(|r| r.events), "count");
    m.set(
        "system.run.ns_per_event",
        run_ms * 1e6 / sum(|r| r.events).max(1.0),
        "ns",
    );
    m.set("os.sched.preempts", sum(|r| r.preempts), "count");
    m.set("os.sched.storms", sum(|r| r.storms), "count");
    m.set("tenants.killed", sum(|r| r.killed), "count");
    m.set("core.pt.zero_blocks", sum(|r| r.pt_zero_blocks), "count");
    m.set("core.bc_checks", sum(|r| r.checks), "count");
    m.set("iommu.ats.walks", sum(|r| r.walks), "count");
    m.set("mem.dram.reads", sum(|r| r.dram_reads), "count");
    m.set("mem.dram.writes", sum(|r| r.dram_writes), "count");
    // Every exit and every kill zeroes one whole table; size the replayed
    // table so one zero writes the blocks the run wrote per teardown.
    let teardowns = sum(|r| r.completed + r.killed).max(1.0);
    let blocks = sum(|r| r.pt_zero_blocks) / teardowns;
    let bounds_pages = (blocks * 128.0 * 4.0).round() as u64;
    m.set("core.pt.zero.us", layers::pt_zero_us(bounds_pages), "us");
    let overhead_s = median(&traced_s) - median(&plain_s);
    m.set("tracing.overhead_ms", overhead_s * 1e3, "ms");
    m.set(
        "tracing.overhead_pct",
        100.0 * overhead_s / median(&plain_s),
        "%",
    );
    out.spans = spans;
}
