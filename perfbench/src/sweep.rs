//! The two Fig. 4 sweep workloads.
//!
//! `fig4-small` runs the full matrix at small size with inline synthesis,
//! a fresh `System` per cell, one worker and one shard: the paper's
//! headline figure, dominated by event dispatch inside `System::run`.
//!
//! `fig4-warm` runs the same matrix at tiny size from compiled traces and
//! warm-start checkpoints that set-up produced; every timed pass opens
//! the trace directory and checkpoint store afresh, as a second
//! `fig4 --trace-dir --warm-start` invocation would. Restore, trace
//! decode and store reads dominate it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bc_experiments::matrices::{self, FIG4_GPUS};
use bc_experiments::schema::{self, CODE_REV};
use bc_experiments::{run_cells_with, SweepCell, SweepMatrix, SweepOptions, SweepResults};
use bc_system::{AbortReason, GpuClass, RunReport, SafetyModel, System, SystemConfig};
use bc_trace::{TraceDir, TraceDirStats};
use bc_workloads::{by_name, LiveSynthesis, StreamSource, WorkloadSize};

use crate::span::{self, OpCounters, OpTimer, SpanId, Tracer};
use crate::stats::{fig4_err_pp, median, Metrics, ReportTotals};
use crate::{end_to_end, host, layers, repeat_for, timed_setup, Ctx, Outcome};

/// Warm-start cut in simulated cycles. Tiny cells run 0.04–4.6 M cycles:
/// 19 of the 70 run past the cut and simulate a tail after restore, the
/// rest finish inside the checkpointed prefix.
pub const WARM_CUT: u64 = 600_000;
/// Cold trace-compile + checkpoint passes timed per fig4-warm run.
const WARM_SETUP_REPS: usize = 2;
/// Timed set-ups per fig4-small run.
const SETUP_REPS: usize = 5;

fn fig4_matrix(size: WorkloadSize, seed: u64) -> SweepMatrix {
    matrices::fig4(size, &FIG4_GPUS)
        .seed(seed)
        .audit(false)
        .shards(1)
}

/// Canonical report bytes of every cell of a pass, or the cell's error.
/// A cell fails on a build error, a panic, or a cycle-valve abort.
fn pass_bytes(results: &SweepResults) -> Vec<Result<String, String>> {
    results
        .iter()
        .map(|o| match &o.result {
            Ok(r) if r.abort_reason == Some(AbortReason::CycleLimit) => {
                Err(format!("{}: cycle valve tripped", o.label))
            }
            Ok(r) => Ok(schema::encode_report(r)),
            Err(e) => Err(format!("{}: {e}", o.label)),
        })
        .collect()
}

/// Counts the cells of `got` that failed or whose bytes differ from
/// `want` (when given).
fn failures(got: &[Result<String, String>], want: Option<&[Result<String, String>]>) -> u64 {
    got.iter()
        .enumerate()
        .filter(|(i, g)| match (g, want.and_then(|w| w.get(*i))) {
            (Err(e), _) => {
                eprintln!("cell failed: {e}");
                true
            }
            (Ok(b), Some(Ok(w))) => b != w,
            (Ok(_), Some(Err(_))) => true,
            (Ok(_), None) => false,
        })
        .count() as u64
}

fn events(results: &SweepResults) -> u64 {
    results
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|r| r.events)
        .sum()
}

fn err_of(results: &SweepResults) -> f64 {
    if results.failures() > 0 {
        return f64::INFINITY;
    }
    fig4_err_pp(&[0, 1], |g, s, w| results.report([0, g, s, w]))
}

/// Flat row-major index of a cell, shared by all its spans.
fn req_of(cell: &SweepCell, dims: [usize; 4]) -> u64 {
    let [o, g, s, w] = cell.coords;
    (((o * dims[1] + g) * dims[2] + s) * dims[3] + w) as u64
}

/// One cell through the layers' public entry points, each call in a
/// span: build (or read the checkpoint and restore) → run → encode →
/// drop. A cell given a checkpoint fails when it cannot read or restore
/// it: after set-up every checkpoint exists, so building instead would
/// quietly time the cold path.
fn traced_cell(
    tr: &Tracer,
    req: u64,
    config: &SystemConfig,
    source: &dyn StreamSource,
    checkpoint: Option<&Path>,
) -> Result<RunReport, String> {
    tr.span("experiments.cell", None, req, |root: Option<SpanId>| {
        let mut system = match checkpoint {
            Some(p) => {
                let bytes = tr
                    .span("experiments.checkpoint_read", root, req, |_| {
                        std::fs::read(p)
                    })
                    .map_err(|e| format!("checkpoint {}: {e}", p.display()))?;
                tr.span("system.restore", root, req, |_| {
                    System::restore(config, &bytes, CODE_REV, source)
                })
                .map_err(|e| format!("restore failed: {e}"))?
            }
            None => tr
                .span("system.build", root, req, |_| {
                    System::build_with_source(config, source)
                })
                .map_err(|e| format!("build failed: {e}"))?,
        };
        let report = tr.span("system.run", root, req, |_| system.run());
        tr.span("experiments.encode_report", root, req, |_| {
            schema::encode_report(&report)
        });
        tr.span("system.drop", root, req, |_| drop(system));
        Ok(report)
    })
}

/// Where the sweep engine keeps a cell's checkpoint: the same rule as
/// `bc_experiments::sweep`, so the traced pass reads the files set-up
/// wrote. Should the rule change, every traced cell fails rather than
/// falling back to a build.
fn checkpoint_path(dir: &Path, config: &SystemConfig, cut: u64) -> PathBuf {
    let material = format!("{CODE_REV}\u{0}{}\u{0}{cut}", bc_system::warm_key(config));
    dir.join(format!(
        "{}.bcws",
        bc_sim::sha256::hex_digest(material.as_bytes())
    ))
}

/// Per-layer schema costs, replayed on the pass's configs and reports.
pub fn schema_replays(m: &mut Metrics, configs: &[SystemConfig], reports: &[RunReport]) {
    let mean_us = |n: usize, t: Instant| t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64;
    let encoded: Vec<String> = configs.iter().map(schema::encode_config).collect();
    const REPS: usize = 20;
    let t = Instant::now();
    for _ in 0..REPS {
        for text in &encoded {
            let _ = std::hint::black_box(schema::decode_config(text));
        }
    }
    m.set(
        "experiments.schema.decode_config.us",
        mean_us(REPS * encoded.len(), t),
        "us",
    );
    let t = Instant::now();
    for _ in 0..REPS {
        for c in configs {
            let material = schema::config_key_material(c, CODE_REV);
            std::hint::black_box(bc_sim::sha256::hex_digest(material.as_bytes()));
        }
    }
    m.set(
        "experiments.schema.key.us",
        mean_us(REPS * configs.len(), t),
        "us",
    );
    if !reports.is_empty() {
        let t = Instant::now();
        for _ in 0..REPS {
            for r in reports {
                std::hint::black_box(schema::encode_report(r));
            }
        }
        m.set(
            "experiments.schema.encode_report.us",
            mean_us(REPS * reports.len(), t),
            "us",
        );
    }
}

/// The highly-threaded × Border Control-BCC row: the cells the structure
/// replays take their streams from.
fn bcc_row(size: WorkloadSize, seed: u64) -> SweepMatrix {
    SweepMatrix::new(size)
        .gpus(&[GpuClass::HighlyThreaded])
        .safeties(&[SafetyModel::BorderControlBcc])
        .workloads(&bc_experiments::WORKLOADS)
        .seed(seed)
        .audit(false)
        .shards(1)
}

/// Events per host second of the row (as measured, not referred to the
/// reference host speed), over the median pass of those run in `seconds`
/// (at least one), so a row that takes a fraction of a second is not
/// decided by one pass. Also returns cells attempted and failed.
fn row_events_per_s(size: WorkloadSize, seed: u64, seconds: f64) -> (f64, u64, u64) {
    let row = bcc_row(size, seed);
    let start = Instant::now();
    let mut runs = Vec::new();
    loop {
        let t = Instant::now();
        let r = row.run(&SweepOptions::with_jobs(1));
        runs.push((t.elapsed().as_secs_f64(), r));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let (attempted, failed) = runs.iter().fold((0, 0), |(a, f), (_, r)| {
        (a + r.iter().count() as u64, f + r.failures() as u64)
    });
    let pass_s = median(&runs.iter().map(|(s, _)| *s).collect::<Vec<_>>());
    (events(&runs[0].1) as f64 / pass_s, attempted, failed)
}

/// fig4-small's set-up: builds the cell list and every cell's `System`
/// once, so a config that cannot build is found before the timed phase.
/// Returns the cells that failed to build.
fn check_builds(matrix: &SweepMatrix) -> u64 {
    let mut failed = 0;
    for cell in matrix.cells() {
        if let Err(e) = System::build(&cell.config) {
            eprintln!("cell {} failed to build: {e}", cell.label);
            failed += 1;
        }
    }
    failed
}

pub fn fig4_small(ctx: &Ctx) -> Outcome {
    let matrix = fig4_matrix(WorkloadSize::Small, ctx.seed);
    let opts = SweepOptions::with_jobs(1);
    if ctx.traced {
        return fig4_small_traced(ctx, &matrix);
    }
    let mut out = Outcome::default();
    let (setup, ()) = timed_setup(
        SETUP_REPS,
        |_| {
            out.attempted += matrix.dims().iter().product::<usize>() as u64;
            out.failed += check_builds(&matrix);
        },
        drop,
    );
    let timed = repeat_for(ctx.seconds, || matrix.run(&opts));
    let passes = &timed.runs;

    let first = pass_bytes(&passes[0].1);
    for (_, r) in passes {
        out.attempted += r.iter().count() as u64;
        out.failed += failures(&pass_bytes(r), Some(&first));
    }
    end_to_end(
        &mut out.metrics,
        &setup,
        first.len() as f64,
        events(&passes[0].1) as f64,
        &timed.pass_s(),
        timed.peak_rss_mib,
        err_of(&passes[0].1),
    );
    out
}

fn fig4_small_traced(ctx: &Ctx, matrix: &SweepMatrix) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let plain = matrix.run(&SweepOptions::with_jobs(1));
    let plain_s = t.elapsed().as_secs_f64();
    let want = pass_bytes(&plain);
    out.attempted += want.len() as u64;
    out.failed += failures(&want, None);

    let tr = Tracer::new(true);
    let counters = Arc::new(OpCounters::default());
    let source = OpTimer {
        inner: &LiveSynthesis,
        counters: Arc::clone(&counters),
    };
    let cells = matrix.cells();
    let dims = matrix.dims();
    let t = Instant::now();
    let outcomes = run_cells_with(&cells, &SweepOptions::with_jobs(1), |cell| {
        traced_cell(&tr, req_of(cell, dims), &cell.config, &source, None)
    });
    let traced_s = t.elapsed().as_secs_f64();
    let reports: Vec<RunReport> = outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok().cloned())
        .collect();
    let got: Vec<Result<String, String>> = outcomes
        .iter()
        .map(|o| {
            o.result
                .as_ref()
                .map(schema::encode_report)
                .map_err(Clone::clone)
        })
        .collect();
    out.attempted += got.len() as u64;
    out.failed += failures(&got, Some(&want));

    let spans = tr.take();
    let m = &mut out.metrics;
    let mut totals = ReportTotals::default();
    reports.iter().for_each(|r| totals.add(r));
    totals.write(m);
    write_system_spans(m, &spans, totals.events);
    m.set(
        "workloads.open_stream.count",
        counters.opens() as f64,
        "count",
    );
    m.set("workloads.next_op.count", counters.ops() as f64, "count");
    m.set("workloads.next_op.ns", counters.mean_ns(), "ns");
    let stream_ms = counters.total_ms();
    out.stream_self = Some(("workloads", stream_ms));
    m.set(
        "experiments.schema.encode_report.us",
        span::busy_ms(&spans, "experiments.encode_report") * 1e3
            / span::count(&spans, "experiments.encode_report").max(1) as f64,
        "us",
    );
    let configs: Vec<SystemConfig> = cells.iter().map(|c| c.config.clone()).collect();
    schema_replays(m, &configs, &[]);

    // Structure costs replayed on the small highly-threaded BC-BCC row's
    // streams, reconciled against the measured run time.
    let row: Vec<SystemConfig> = bcc_row(WorkloadSize::Small, ctx.seed)
        .cells()
        .into_iter()
        .map(|c| c.config)
        .collect();
    let replays = layers::replay(&row);
    replays.write(m);
    let run_ms = span::busy_ms(&spans, "system.run");
    let explained = replays.explained_ms(&totals, counters.ops(), counters.mean_ns());
    m.set(
        "recon.explained_pct",
        100.0 * explained / run_ms.max(1e-9),
        "%",
    );
    m.set("recon.residual_ms", run_ms - explained, "ms");

    // The per-event rate by size, from one commit and one host. A tiny row
    // pass takes about 0.1 s, a reference one several seconds.
    let (tiny_rate, tiny_tried, tiny_fail) = row_events_per_s(WorkloadSize::Tiny, ctx.seed, 3.0);
    let (ref_rate, ref_tried, ref_fail) = row_events_per_s(WorkloadSize::Reference, ctx.seed, 0.0);
    out.attempted += tiny_tried + ref_tried;
    out.failed += tiny_fail + ref_fail;
    m.set("gap.tiny_row.events_per_s", tiny_rate, "events/s");
    m.set("gap.reference_row.events_per_s", ref_rate, "events/s");

    m.set("tracing.overhead_ms", (traced_s - plain_s) * 1e3, "ms");
    m.set(
        "tracing.overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
        "%",
    );
    out.spans = spans;
    out
}

/// Build/run/restore busy times and counts from a pass's spans.
fn write_system_spans(m: &mut Metrics, spans: &[span::Span], events: u64) {
    let run_ms = span::busy_ms(spans, "system.run");
    m.set(
        "system.build.count",
        span::count(spans, "system.build") as f64,
        "count",
    );
    m.set(
        "system.build.busy_ms",
        span::busy_ms(spans, "system.build"),
        "ms",
    );
    m.set("system.run.busy_ms", run_ms, "ms");
    m.set(
        "system.run.ns_per_event",
        run_ms * 1e6 / events.max(1) as f64,
        "ns",
    );
    m.set(
        "system.restore.busy_ms",
        span::busy_ms(spans, "system.restore"),
        "ms",
    );
}

/// Set-up state of fig4-warm: a trace directory and checkpoint store
/// produced by one cold pass.
struct WarmStore {
    root: PathBuf,
    traces: PathBuf,
    ckpt: PathBuf,
    cold_stats: TraceDirStats,
}

fn warm_options(traces: Arc<TraceDir>, ckpt: &Path) -> SweepOptions {
    SweepOptions::with_jobs(1)
        .source(traces)
        .warm_start(ckpt, WARM_CUT)
}

/// The cold pass: compiles every trace and cuts every checkpoint.
fn cold_pass(
    matrix: &SweepMatrix,
    root: PathBuf,
    want: &[Result<String, String>],
    out: &mut Outcome,
) -> WarmStore {
    let _ = std::fs::remove_dir_all(&root);
    let traces = root.join("traces");
    let ckpt = root.join("ckpt");
    let (cold, cold_stats) = match TraceDir::open(&traces) {
        Ok(dir) => {
            let dir = Arc::new(dir);
            let r = matrix.run(&warm_options(Arc::clone(&dir), &ckpt));
            (Some(r), dir.stats())
        }
        Err(e) => {
            eprintln!("cannot open trace dir: {e}");
            (None, TraceDirStats::default())
        }
    };
    out.attempted += want.len() as u64;
    out.failed += match &cold {
        Some(r) => failures(&pass_bytes(r), Some(want)),
        None => want.len() as u64,
    };
    WarmStore {
        root,
        traces,
        ckpt,
        cold_stats,
    }
}

/// One warm pass over freshly opened stores.
fn warm_pass(matrix: &SweepMatrix, store: &WarmStore) -> Option<(SweepResults, TraceDirStats)> {
    let dir = Arc::new(TraceDir::open(&store.traces).ok()?);
    let r = matrix.run(&warm_options(Arc::clone(&dir), &store.ckpt));
    Some((r, dir.stats()))
}

/// Failed cells of a warm pass: cells that failed or differ from the
/// inline reports, and cells that found no checkpoint, since after set-up
/// every cell must restore and a miss would quietly time the cold path.
fn warm_failures(pass: Option<&SweepResults>, want: &[Result<String, String>]) -> u64 {
    match pass {
        Some(r) => {
            if r.warm_misses > 0 {
                eprintln!("{} cells found no checkpoint", r.warm_misses);
            }
            failures(&pass_bytes(r), Some(want)) + r.warm_misses
        }
        None => want.len() as u64,
    }
}

pub fn fig4_warm(ctx: &Ctx) -> Outcome {
    let matrix = fig4_matrix(WorkloadSize::Tiny, ctx.seed);
    let mut out = Outcome::default();
    // Inline reports every warm cell must reproduce byte for byte.
    let inline = matrix.run(&SweepOptions::with_jobs(1));
    let want = pass_bytes(&inline);
    out.attempted += want.len() as u64;
    out.failed += failures(&want, None);

    let reps = if ctx.traced { 1 } else { WARM_SETUP_REPS };
    let (setup, store) = timed_setup(
        reps,
        |rep| {
            let root = ctx.scratch.join(format!("warm-{rep}"));
            cold_pass(&matrix, root, &want, &mut out)
        },
        |old| {
            let _ = std::fs::remove_dir_all(&old.root);
        },
    );
    if ctx.traced {
        fig4_warm_traced(ctx, &matrix, &store, &want, &mut out);
        let _ = std::fs::remove_dir_all(&store.root);
        return out;
    }

    let timed = repeat_for(ctx.seconds, || warm_pass(&matrix, &store));
    let _ = std::fs::remove_dir_all(&store.root);

    for (_, pass) in &timed.runs {
        out.attempted += want.len() as u64;
        out.failed += warm_failures(pass.as_ref().map(|(r, _)| r), &want);
    }
    let ok: Vec<&SweepResults> = timed
        .runs
        .iter()
        .filter_map(|(_, p)| p.as_ref().map(|(r, _)| r))
        .collect();
    let (pass_events, err) = match ok.first() {
        Some(r) => (events(r) as f64, err_of(r)),
        None => (0.0, f64::INFINITY),
    };
    end_to_end(
        &mut out.metrics,
        &setup,
        want.len() as f64,
        pass_events,
        &timed.pass_s(),
        timed.peak_rss_mib,
        err,
    );
    out
}

fn fig4_warm_traced(
    ctx: &Ctx,
    matrix: &SweepMatrix,
    store: &WarmStore,
    want: &[Result<String, String>],
    out: &mut Outcome,
) {
    let t = Instant::now();
    let plain = warm_pass(matrix, store);
    let plain_s = t.elapsed().as_secs_f64();
    out.attempted += want.len() as u64;
    out.failed += warm_failures(plain.as_ref().map(|(r, _)| r), want);
    let (hit_ratio, warm_stats) = match &plain {
        Some((r, stats)) => {
            let tries = (r.warm_hits + r.warm_misses).max(1);
            (r.warm_hits as f64 / tries as f64, *stats)
        }
        None => (0.0, TraceDirStats::default()),
    };

    let tr = Arc::new(Tracer::new(true));
    let counters = Arc::new(OpCounters::default());
    let cells = matrix.cells();
    let dims = matrix.dims();
    let t = Instant::now();
    let traced = TraceDir::open(&store.traces).ok().map(|dir| {
        let source = OpTimer {
            inner: &dir,
            counters: Arc::clone(&counters),
        };
        run_cells_with(&cells, &SweepOptions::with_jobs(1), |cell| {
            let path = checkpoint_path(&store.ckpt, &cell.config, WARM_CUT);
            traced_cell(&tr, req_of(cell, dims), &cell.config, &source, Some(&path))
        })
    });
    let traced_s = t.elapsed().as_secs_f64();
    let outcomes = traced.unwrap_or_default();
    let got: Vec<Result<String, String>> = outcomes
        .iter()
        .map(|o| {
            o.result
                .as_ref()
                .map(schema::encode_report)
                .map_err(Clone::clone)
        })
        .collect();
    out.attempted += want.len() as u64;
    out.failed += if got.is_empty() {
        want.len() as u64
    } else {
        failures(&got, Some(want))
    };
    let reports: Vec<RunReport> = outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok().cloned())
        .collect();

    // Checkpoint cutting, replayed cell by cell from outside.
    let snap_tr = Tracer::new(true);
    if let Ok(dir) = TraceDir::open(&store.traces) {
        for (i, cell) in cells.iter().enumerate() {
            if let Ok(mut system) = System::build_with_source(&cell.config, &dir) {
                snap_tr.span("system.snapshot", None, i as u64, |_| {
                    std::hint::black_box(system.snapshot_to(bc_sim::Cycle::new(WARM_CUT), CODE_REV))
                });
            }
        }
    }
    // Trace compilation, replayed for every stream coordinate.
    let mut coords: Vec<(String, u32, u64)> = cells
        .iter()
        .map(|c| {
            let gc = c.config.effective_gpu_config();
            let wfs = u32::try_from(gc.compute_units * gc.wavefronts_per_cu).unwrap_or(u32::MAX);
            (c.config.workload.clone(), wfs, c.config.seed)
        })
        .collect();
    coords.sort();
    coords.dedup();
    let t = Instant::now();
    for (name, wfs, seed) in &coords {
        if let Some(w) = by_name(name, WorkloadSize::Tiny) {
            std::hint::black_box(bc_trace::compile(w.as_ref(), *wfs, *seed));
        }
    }
    let compile_ms = t.elapsed().as_secs_f64() * 1e3;

    let spans = tr.take();
    let snap_spans = snap_tr.take();
    let m = &mut out.metrics;
    let mut totals = ReportTotals::default();
    reports.iter().for_each(|r| totals.add(r));
    totals.write(m);
    write_system_spans(m, &spans, totals.events);
    m.set(
        "system.snapshot.busy_ms",
        span::busy_ms(&snap_spans, "system.snapshot"),
        "ms",
    );
    m.set(
        "system.snapshot.bytes",
        host::dir_bytes(&store.ckpt) as f64,
        "bytes",
    );
    m.set("experiments.warm.hit_ratio", hit_ratio, "ratio");
    m.set(
        "workloads.open_stream.count",
        counters.opens() as f64,
        "count",
    );
    m.set("trace.next_op.ns", counters.mean_ns(), "ns");
    m.set("trace.compile.busy_ms", compile_ms, "ms");
    m.set(
        "trace.dir.compiles",
        (store.cold_stats.compiles + warm_stats.compiles) as f64,
        "count",
    );
    m.set(
        "trace.dir.disk_loads",
        (store.cold_stats.disk_loads + warm_stats.disk_loads) as f64,
        "count",
    );
    m.set(
        "trace.dir.fallbacks",
        (store.cold_stats.fallbacks + warm_stats.fallbacks) as f64,
        "count",
    );
    m.set(
        "trace.bytes",
        host::dir_bytes(&store.traces) as f64,
        "bytes",
    );
    out.stream_self = Some(("trace", counters.total_ms()));
    m.set(
        "experiments.schema.encode_report.us",
        span::busy_ms(&spans, "experiments.encode_report") * 1e3
            / span::count(&spans, "experiments.encode_report").max(1) as f64,
        "us",
    );
    let configs: Vec<SystemConfig> = cells.iter().map(|c| c.config.clone()).collect();
    schema_replays(m, &configs, &[]);
    let row: Vec<SystemConfig> = bcc_row(WorkloadSize::Tiny, ctx.seed)
        .cells()
        .into_iter()
        .map(|c| c.config)
        .collect();
    layers::replay(&row).write(m);
    m.set("tracing.overhead_ms", (traced_s - plain_s) * 1e3, "ms");
    m.set(
        "tracing.overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
        "%",
    );
    out.spans = spans;

    // The bc-serve layer, measured on a load of its own (see serve.rs) on
    // the same tracer, so span ids and times share one space. Its spans
    // are written beside the sweep's with request ids past the cell
    // indices, and stay out of the sweep's layer split.
    let serve = crate::serve::serve_load(ctx, &tr, cells.len() as u64);
    out.attempted += serve.attempted;
    out.failed += serve.failed;
    for (name, value, unit) in serve.metrics.iter() {
        out.metrics.set(name, *value, unit);
    }
    out.side_spans = serve.spans;
}
