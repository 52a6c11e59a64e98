//! Intra-run shard scaling, in two parts:
//!
//! 1. A criterion group timing one tiny decomposed cell at `--shards`
//!    1/2/4: the same simulation, byte-identical output, only the thread
//!    count inside the event engine changes.
//!
//! 2. A machine-readable scaling trajectory: one *reference-size* Figure
//!    4 cell — hotspot on the highly-threaded GPU under Border Control
//!    with a BCC, the frontend-heaviest cell of the matrix — run at
//!    shards 1, 2 and 4, with wall-clock, events/sec and the speedup over
//!    the single-shard run written to `BENCH_shard.json`. The JSON
//!    carries `host_cores` so the numbers are interpretable: on a
//!    multi-core host shards convert into speedup (the frontends are
//!    embarrassingly parallel between barrier rounds), while on a
//!    single-core container — like the one that captured the committed
//!    file — extra shards can only add barrier overhead, and the bench
//!    instead documents that cost honestly. CI re-runs the pipeline in
//!    quick mode to keep it green without asserting a multiplier on
//!    unknown runner hardware.
//!
//! Modes for part 2 (same contract as the sweep bench):
//!
//! * default — one full measurement pass per shard count (a reference
//!   cell at four shards is minutes of work on a small host), file
//!   written to the repo root (or `$BENCH_OUT`).
//! * quick (`BENCH_QUICK=1` or `--test`) — tiny size, wavefronts capped,
//!   one pass; written only if `$BENCH_OUT` is set so quick numbers never
//!   overwrite the committed trajectory.

use std::time::{Duration, Instant};

use bc_experiments::base_config;
use bc_experiments::schema::encode_report;
use bc_system::{GpuClass, RunReport, SafetyModel, System, SystemConfig};
use bc_workloads::WorkloadSize;
use criterion::{criterion_group, BenchmarkId, Criterion};

/// The measured cell: the frontend-heaviest fig4 configuration, where
/// per-CU-cluster frontends give the sharded engine the most exploitable
/// parallelism.
fn shard_cell(size: WorkloadSize) -> SystemConfig {
    let mut c = base_config("hotspot", GpuClass::HighlyThreaded, size);
    c.safety = SafetyModel::BorderControlBcc;
    c
}

fn run_with_shards(config: &SystemConfig, shards: usize) -> (Duration, RunReport) {
    let mut c = config.clone();
    c.shards = shards;
    let mut system = System::build(&c).expect("bench config builds");
    let started = Instant::now();
    let report = system.run();
    (started.elapsed(), report)
}

fn shard_scaling(c: &mut Criterion) {
    let mut config = shard_cell(WorkloadSize::Tiny);
    // Keep criterion iterations cheap: on a single-core host a
    // multi-shard run pays barrier quanta, and criterion repeats each
    // point dozens of times.
    config.max_ops_per_wavefront = Some(300);
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let (_, report) = run_with_shards(&config, shards);
                    assert!(report.cycles > 0);
                    report.events
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, shard_scaling);

fn emit_shard_json() {
    let quick = bc_bench::quick_mode();
    let passes = 1;

    let size = if quick {
        WorkloadSize::Tiny
    } else {
        WorkloadSize::Reference
    };
    let mut config = shard_cell(size);
    if quick {
        config.max_ops_per_wavefront = Some(200);
    }

    // Best (fastest) of `passes` per shard count, and the byte-identity
    // cross-check the whole feature is named for: every shard count must
    // produce the same report.
    let shard_counts = [1usize, 2, 4];
    let mut walls: Vec<f64> = Vec::new();
    let mut events = 0u64;
    let mut baseline_json: Option<String> = None;
    for &shards in &shard_counts {
        let mut best: Option<Duration> = None;
        for _ in 0..passes {
            let (wall, report) = run_with_shards(&config, shards);
            let json = encode_report(&report);
            match &baseline_json {
                None => {
                    events = report.events;
                    baseline_json = Some(json);
                }
                Some(want) => assert_eq!(
                    want, &json,
                    "report diverged between shard counts — bench aborted"
                ),
            }
            if best.is_none_or(|b| wall < b) {
                best = Some(wall);
            }
        }
        walls.push(best.expect("at least one pass ran").as_secs_f64());
    }

    let entries: Vec<String> = shard_counts
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
        "{{\n  \"bench\": \"shard\",\n  \"cell\": \"fig4/hotspot/highly-threaded/border-control-bcc\",\n  \
         \"size\": \"{size}\",\n  \"quick\": {quick},\n  \"passes\": {passes},\n  \
         \"host_cores\": {cores},\n  \
         \"events\": {events},\n  \"shards\": [\n{entries}\n  ],\n  \
         \"speedup\": {{ \"x2\": {s2:.3}, \"x4\": {s4:.3} }}\n}}\n",
        size = if quick { "tiny" } else { "reference" },
        entries = entries.join(",\n"),
        s2 = walls[0] / walls[1],
        s4 = walls[0] / walls[2],
    );

    bc_bench::emit_trajectory("BENCH_shard.json", quick, &json);
}

fn main() {
    benches();
    emit_shard_json();
}
