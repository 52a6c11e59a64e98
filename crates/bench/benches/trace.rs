//! Compiled-trace + warm-start sweep pipeline benchmark — the PR's
//! acceptance record.
//!
//! Three passes over the same Figure 4 matrix, single worker so the
//! walls measure the simulator and not the host's spare cores:
//!
//! 1. **inline** — the baseline: every cell synthesizes its access
//!    streams live and simulates from cycle 0.
//! 2. **cold** — `--trace-dir` + `--warm-start W` against *empty*
//!    caches: every cell compiles its traces, runs its warmup prefix,
//!    publishes a checkpoint, and (like every later consumer) restores
//!    from the published bytes before running the tail.
//! 3. **warm** — the same options again: every cell must restore from
//!    the checkpoint store (`warm_hits == cells`) and replay only the
//!    post-cut tail from the compiled traces.
//!
//! Before anything is written the three passes are asserted
//! byte-identical cell by cell — the speedup is only meaningful if the
//! pipeline is exact. The committed full-mode file records the
//! acceptance bar: a reference-size fig4 sweep served ≥3× faster warm
//! than inline. `host_cores` is carried so the absolute walls are
//! interpretable on any runner.
//!
//! Modes (same contract as the sweep bench):
//!
//! * default — reference size, one pass per leg (a reference sweep is
//!   minutes of work), written to the repo root (or `$BENCH_OUT`).
//! * quick (`BENCH_QUICK=1` or `--test`) — a tiny fig4 slice with a
//!   small cut; written only if `$BENCH_OUT` is set so quick numbers
//!   never overwrite the committed trajectory.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use bc_experiments::matrices::{fig4, FIG4_GPUS, FIG4_SAFETIES};
use bc_experiments::schema::encode_report;
use bc_experiments::{SweepMatrix, SweepOptions, SweepResults, WORKLOADS};
use bc_trace::TraceDir;
use bc_workloads::WorkloadSize;

/// Warmup cut for the full-mode reference matrix: past completion for
/// nearly every cell (their checkpoint sits at the final cycle and the
/// warm pass replays nothing — a 4M cut left every backprop cell a
/// ~19M-cycle tail and the warm pass under the 3x bar), while the very
/// longest safety-model/backprop combinations keep a genuine mid-run
/// tail, so the warm pass still exercises restore-and-run-tail.
const FULL_CUT: u64 = 30_000_000;
/// Quick-mode cut: past completion for every tiny cell, so the warm
/// pass is restore-only and beats inline even at tiny scale (a mid-run
/// cut would leave tails comparable to whole tiny runs, and the 1x
/// quick-mode validation floor would be noise; the mid-run path is
/// covered by the sweep test suite and the full-mode run).
const QUICK_CUT: u64 = 50_000_000;

fn matrix(quick: bool) -> SweepMatrix {
    if quick {
        SweepMatrix::new(WorkloadSize::Tiny)
            .gpus(&FIG4_GPUS[..1])
            .safeties(&[FIG4_SAFETIES[0], FIG4_SAFETIES[4]])
            .workloads(&WORKLOADS[..3])
    } else {
        fig4(WorkloadSize::Reference, &FIG4_GPUS)
    }
}

/// `(label, report-json)` per cell, the byte-identity unit. Panics on
/// any failed cell — a speedup over broken cells is meaningless.
fn cell_reports(results: &SweepResults) -> Vec<(String, String)> {
    results
        .iter()
        .map(|o| {
            let report = o
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("cell {} failed: {e}", o.label));
            (o.label.clone(), encode_report(report))
        })
        .collect()
}

fn timed_run(matrix: &SweepMatrix, opts: &SweepOptions) -> (f64, SweepResults) {
    let started = Instant::now();
    let results = matrix.run(opts);
    (started.elapsed().as_secs_f64(), results)
}

fn scratch(tag: &str) -> PathBuf {
    // Distinct per process so concurrent bench invocations cannot share
    // state; removed at the end of the run.
    let dir = std::env::temp_dir().join(format!("bc-trace-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let quick = bc_bench::quick_mode();
    let cut = if quick { QUICK_CUT } else { FULL_CUT };
    let m = matrix(quick);

    let trace_dir = scratch("traces");
    let warm_dir = scratch("warm");
    let source = Arc::new(TraceDir::open(&trace_dir).expect("open trace dir"));
    let warm_opts = || {
        SweepOptions::with_jobs(1)
            .source(source.clone())
            .warm_start(&warm_dir, cut)
    };

    let (inline_wall, inline_results) = timed_run(&m, &SweepOptions::with_jobs(1));
    let (cold_wall, cold_results) = timed_run(&m, &warm_opts());
    let (warm_wall, warm_results) = timed_run(&m, &warm_opts());

    let baseline = cell_reports(&inline_results);
    let cells = baseline.len();
    assert_eq!(
        baseline,
        cell_reports(&cold_results),
        "cold trace+warm-start pass diverged from the inline sweep"
    );
    assert_eq!(
        baseline,
        cell_reports(&warm_results),
        "warm pass diverged from the inline sweep"
    );
    assert_eq!(
        cold_results.warm_misses, cells as u64,
        "cold pass found a pre-warmed checkpoint store"
    );
    assert_eq!(
        warm_results.warm_hits, cells as u64,
        "warm pass was not served entirely from checkpoints"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"trace\",\n  \"matrix\": \"fig4\",\n  \
         \"size\": \"{size}\",\n  \"quick\": {quick},\n  \"jobs\": 1,\n  \
         \"host_cores\": {cores},\n  \"cells\": {cells},\n  \
         \"warm_cut\": {cut},\n  \"inline_wall_s\": {inline_wall:.4},\n  \
         \"cold_wall_s\": {cold_wall:.4},\n  \"warm_wall_s\": {warm_wall:.4},\n  \
         \"speedup_warm\": {speedup:.4},\n  \"warm_hits\": {hits}\n}}\n",
        size = if quick { "tiny" } else { "reference" },
        speedup = inline_wall / warm_wall.max(1e-9),
        hits = warm_results.warm_hits,
    );
    print!("{json}");

    let _ = std::fs::remove_dir_all(&trace_dir);
    let _ = std::fs::remove_dir_all(&warm_dir);

    bc_bench::emit_trajectory("BENCH_trace.json", quick, &json);
}
