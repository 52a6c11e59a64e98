//! Multi-tenant scheduler throughput, in two parts:
//!
//! 1. A criterion group timing a small multi-tenant cell (64 tenants
//!    over 2 accelerators) — the full scheduler/teardown/storm pipeline
//!    per iteration.
//!
//! 2. A machine-readable trajectory: the `tenants` binary's production
//!    matrix — 1000 tenants over 4 accelerators, both memory backends —
//!    run at shards 1, 2 and 4, with wall-clock, events/sec and the
//!    per-tenant completion/kill latency tails (p50/p99, in simulated
//!    cycles) written to `BENCH_tenants.json`. Latency tails are
//!    shard-invariant (the matrix JSON is asserted byte-identical across
//!    shard counts before anything is written); only wall-clock moves.
//!    The JSON carries `host_cores` so the walls are interpretable on
//!    any runner.
//!
//! Modes for part 2 (same contract as the sweep/shard benches):
//!
//! * default — production scale, file written to the repo root (or
//!   `$BENCH_OUT`).
//! * quick (`BENCH_QUICK=1` or `--test`) — 100 tenants, one pass;
//!   written only if `$BENCH_OUT` is set so quick numbers never
//!   overwrite the committed trajectory.

use std::time::{Duration, Instant};

use bc_experiments::schema::encode_tenants_matrix;
use bc_experiments::tenants_grid::{run_tenants_cells, tenants_cells};
use bc_mem::dram::MemBackend;
use bc_system::{MultiTenantSystem, TenantsConfig, TenantsReport};
use criterion::{criterion_group, Criterion};

/// The measured matrix: the `tenants` binary's defaults at a given scale.
fn tenants_cell(tenants: usize) -> TenantsConfig {
    TenantsConfig {
        tenants,
        accels: 4,
        ..TenantsConfig::default()
    }
}

fn scheduler_pipeline(c: &mut Criterion) {
    let config = TenantsConfig {
        tenants: 64,
        accels: 2,
        ..TenantsConfig::default()
    };
    let mut group = c.benchmark_group("tenants");
    group.sample_size(10);
    group.bench_function("64x2", |b| {
        b.iter(|| {
            let report = MultiTenantSystem::build(&config)
                .expect("bench config builds")
                .run();
            assert_eq!(report.completed + report.killed, 64);
            report.events
        });
    });
    group.finish();
}

criterion_group!(benches, scheduler_pipeline);

fn run_matrix(base: &TenantsConfig, shards: usize) -> (Duration, Vec<(String, TenantsReport)>) {
    let mut config = base.clone();
    config.shards = shards;
    let cells = tenants_cells(&config, &[MemBackend::LocalDram, MemBackend::CxlPool]);
    let started = Instant::now();
    // Cells run serially (`jobs=1`) so the wall measures the simulator,
    // not the host's spare cores.
    let results = run_tenants_cells(&cells, 1);
    (started.elapsed(), results)
}

fn emit_tenants_json() {
    let quick = bc_bench::quick_mode();
    let base = tenants_cell(if quick { 100 } else { 1000 });

    // Byte-identity first: every shard count must produce the same
    // matrix document, or the walls below compare different work.
    let shard_counts = [1usize, 2, 4];
    let mut walls: Vec<f64> = Vec::new();
    let mut baseline: Option<Vec<(String, TenantsReport)>> = None;
    for &shards in &shard_counts {
        let (wall, results) = run_matrix(&base, shards);
        match &baseline {
            None => baseline = Some(results),
            Some(want) => assert_eq!(
                encode_tenants_matrix(want),
                encode_tenants_matrix(&results),
                "tenants matrix diverged between shard counts — bench aborted"
            ),
        }
        walls.push(wall.as_secs_f64());
    }
    let results = baseline.expect("at least one matrix ran");
    let events: u64 = results.iter().map(|(_, r)| r.events).sum();

    let cells: Vec<String> = results
        .iter()
        .map(|(label, r)| {
            format!(
                "    {{ \"backend\": \"{label}\", \"completed\": {}, \"killed\": {}, \
                 \"completion_p50\": {}, \"completion_p99\": {}, \
                 \"kill_p50\": {}, \"kill_p99\": {} }}",
                r.completed, r.killed, r.completion_p50, r.completion_p99, r.kill_p50, r.kill_p99,
            )
        })
        .collect();
    let shards_json: Vec<String> = shard_counts
        .iter()
        .zip(&walls)
        .map(|(&shards, &wall_s)| {
            format!(
                "    {{ \"shards\": {shards}, \"wall_s\": {wall_s:.4}, \
                 \"events_per_sec\": {eps:.1} }}",
                eps = events as f64 / wall_s,
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"tenants\",\n  \"tenants\": {tenants},\n  \"accels\": 4,\n  \
         \"quick\": {quick},\n  \"host_cores\": {cores},\n  \"events\": {events},\n  \
         \"cells\": [\n{cells}\n  ],\n  \"shards\": [\n{shards}\n  ],\n  \
         \"speedup\": {{ \"x2\": {s2:.3}, \"x4\": {s4:.3} }}\n}}\n",
        tenants = base.tenants,
        cells = cells.join(",\n"),
        shards = shards_json.join(",\n"),
        s2 = walls[0] / walls[1],
        s4 = walls[0] / walls[2],
    );

    bc_bench::emit_trajectory("BENCH_tenants.json", quick, &json);
}

fn main() {
    benches();
    emit_tenants_json();
}
