//! The repository's benchmark: three workloads through the public entry
//! points of `bc-experiments`, `bc-system`, `bc-trace` and `bc-serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4-small|fig4-warm|tenants \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run is timed with tracing off and reports the
//! end-to-end metrics, their times referred to one host speed by a probe
//! sampled between passes (see `calib`). With `--trace 1` it reports per-layer metrics:
//! spans recorded around the calls into each layer, exact counts from
//! the reports, per-call costs of the modelled structures replayed from
//! outside, and the tracing overhead. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Scratch
//! stores live under `.bench_scratch/` and are deleted after the run;
//! traced runs leave their spans in `.bench_out/`. See `NOTES.md`.

mod calib;
mod host;
mod layers;
mod serve;
mod span;
mod stats;
mod sweep;
mod tenants;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use span::Span;
use stats::{median, percentile, Metrics};

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("events_per_s", "events/s"),
    ("job_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
    ("fig4_err_pp", "pp"),
];

/// Per-layer metrics, printed by every `--trace 1` run; a layer the
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 87] = [
    ("system.build.count", "count"),
    ("system.build.busy_ms", "ms"),
    ("system.run.busy_ms", "ms"),
    ("system.run.ns_per_event", "ns"),
    ("system.snapshot.busy_ms", "ms"),
    ("system.snapshot.bytes", "bytes"),
    ("system.restore.busy_ms", "ms"),
    ("experiments.warm.hit_ratio", "ratio"),
    ("workloads.open_stream.count", "count"),
    ("workloads.next_op.count", "count"),
    ("workloads.next_op.ns", "ns"),
    ("trace.compile.busy_ms", "ms"),
    ("trace.next_op.ns", "ns"),
    ("trace.dir.compiles", "count"),
    ("trace.dir.disk_loads", "count"),
    ("trace.dir.fallbacks", "count"),
    ("trace.bytes", "bytes"),
    ("sim.events", "count"),
    ("accel.ops", "count"),
    ("accel.block_accesses", "count"),
    ("cache.l1.accesses", "count"),
    ("cache.l1.miss_ratio", "ratio"),
    ("cache.l2.accesses", "count"),
    ("cache.l2.miss_ratio", "ratio"),
    ("cache.l1_tlb.miss_ratio", "ratio"),
    ("iommu.iotlb.accesses", "count"),
    ("iommu.iotlb.miss_ratio", "ratio"),
    ("iommu.ats.walks", "count"),
    ("core.bc_checks", "count"),
    ("core.bcc.miss_ratio", "ratio"),
    ("core.pt.reads", "count"),
    ("core.pt.writes", "count"),
    ("mem.dram.reads", "count"),
    ("mem.dram.writes", "count"),
    ("mem.dram.utilization", "ratio"),
    ("os.minor_faults", "count"),
    ("cache.access.ns", "ns"),
    ("cache.tlb.lookup.ns", "ns"),
    ("core.bcc.lookup.ns", "ns"),
    ("core.pt.lookup.ns", "ns"),
    ("mem.page_table.translate.ns", "ns"),
    ("mem.dram.access.ns", "ns"),
    ("sim.event_queue.push_pop.ns", "ns"),
    ("recon.explained_pct", "%"),
    ("recon.residual_ms", "ms"),
    ("tenants.build.busy_ms", "ms"),
    ("tenants.run.busy_ms", "ms"),
    ("os.sched.preempts", "count"),
    ("os.sched.storms", "count"),
    ("tenants.killed", "count"),
    ("core.pt.zero_blocks", "count"),
    ("core.pt.zero.us", "us"),
    ("experiments.schema.encode_report.us", "us"),
    ("experiments.schema.decode_config.us", "us"),
    ("experiments.schema.key.us", "us"),
    ("serve.http.requests.post_jobs", "count"),
    ("serve.http.requests.get_cell", "count"),
    ("serve.http.requests.other", "count"),
    ("serve.http.handle.us", "us"),
    ("serve.http.rtt.us", "us"),
    ("serve.poll.per_job", "count"),
    ("serve.runner.busy_ms", "ms"),
    ("serve.cas.hits", "count"),
    ("serve.cas.misses", "count"),
    ("serve.cas.puts", "count"),
    ("serve.cas.corrupt", "count"),
    ("serve.cas.hit_ratio", "ratio"),
    ("serve.cas.get.us", "us"),
    ("serve.cas.put.us", "us"),
    ("serve.cas.bytes", "bytes"),
    ("gen.lag_ms.max", "ms"),
    ("serve.self_ms.bench", "ms"),
    ("serve.self_ms.serve", "ms"),
    ("serve.self_ms.system", "ms"),
    ("self_ms.experiments", "ms"),
    ("self_ms.system", "ms"),
    ("self_ms.trace", "ms"),
    ("self_ms.workloads", "ms"),
    ("tracing.overhead_ms", "ms"),
    ("tracing.overhead_pct", "%"),
    ("gap.tiny_row.events_per_s", "events/s"),
    ("gap.reference_row.events_per_s", "events/s"),
    ("spans.count", "count"),
    ("host.cores", "count"),
    ("host.speed_factor", "ratio"),
    ("host.peak_rss_mib", "MiB"),
    ("run.wall_s", "s"),
];

/// One run's inputs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory for stores, deleted when the run ends.
    pub scratch: PathBuf,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The workload's spans: the base of `self_ms.*` and `spans.count`.
    pub spans: Vec<Span>,
    /// Spans of a load run beside the workload (fig4-warm's bc-serve
    /// load), written out with the rest but kept out of the workload's
    /// layer split and span count.
    pub side_spans: Vec<Span>,
    /// Host time spent inside the streams' `next_op` (which runs inside
    /// `System::run`), credited to the named layer instead of `system`.
    pub stream_self: Option<(&'static str, f64)>,
}

/// The passes of one timed phase.
pub struct Timed<T> {
    /// Each pass's wall seconds and result.
    pub runs: Vec<(f64, T)>,
    /// Median over the passes of each pass's peak RSS, so one allocator
    /// outlier does not decide the figure.
    pub peak_rss_mib: f64,
}

impl<T> Timed<T> {
    /// Each pass's wall seconds, as measured. A sweep user waits for a
    /// whole pass; its cells are no job of their own (half are
    /// highly-threaded cells many times slower than the rest, so a
    /// per-cell median would sit on that boundary and flip from run to
    /// run).
    pub fn pass_s(&self) -> Vec<f64> {
        self.runs.iter().map(|(s, _)| *s).collect()
    }
}

/// Pause after each pass and set-up. The sweep and tenants pools run
/// each pass on fresh worker threads; without the pause the next pass's
/// worker can start before the last one has returned its malloc arena,
/// and the process then holds one more arena (about 32 MiB more RSS) from
/// that pass on, at random. It also keeps the speed probe from running
/// beside a worker that is still tearing down.
const PASS_GAP: std::time::Duration = std::time::Duration::from_millis(20);

/// Runs `f` repeatedly until its passes have taken `seconds` (at least
/// once), sampling the host's speed before the first pass and after
/// each, outside the timing.
pub fn repeat_for<T>(seconds: f64, mut f: impl FnMut() -> T) -> Timed<T> {
    let mut measured = 0.0;
    let mut runs = Vec::new();
    let mut peaks = Vec::new();
    calib::sample(0.0);
    loop {
        host::release_free_memory();
        host::reset_peak_rss();
        let t = Instant::now();
        let v = f();
        let s = t.elapsed().as_secs_f64();
        peaks.push(host::peak_rss_mib());
        runs.push((s, v));
        std::thread::sleep(PASS_GAP);
        calib::sample(s);
        measured += s;
        if measured >= seconds {
            break;
        }
    }
    Timed {
        runs,
        peak_rss_mib: median(&peaks),
    }
}

/// Times `reps` set-ups (at least one) and keeps the last one's state;
/// `discard` tears down the one before, outside the timing. The host's
/// speed is sampled before the first set-up and after each.
pub fn timed_setup<S>(
    reps: usize,
    mut build: impl FnMut(usize) -> S,
    mut discard: impl FnMut(S),
) -> (Vec<f64>, S) {
    let mut times = Vec::new();
    let mut last = None;
    calib::sample(0.0);
    for rep in 0..reps.max(1) {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t = Instant::now();
        last = Some(build(rep));
        let s = t.elapsed().as_secs_f64();
        times.push(s);
        std::thread::sleep(PASS_GAP);
        calib::sample(s);
    }
    (times, last.expect("at least one set-up ran"))
}

/// Writes the six end-to-end metrics from a run's measured set-up and
/// pass seconds and the cells and events of one pass. Every time is
/// referred to the reference host speed by the run's speed factor
/// ([`calib::run_factor`]); the measured figures are printed beside.
pub fn end_to_end(
    m: &mut Metrics,
    setup_s: &[f64],
    pass_cells: f64,
    pass_events: f64,
    pass_s: &[f64],
    peak_rss_mib: f64,
    fig4_err_pp: f64,
) {
    let k = calib::run_factor();
    let pass = median(pass_s) * k;
    let job_ms: Vec<f64> = pass_s.iter().map(|s| s * k * 1e3).collect();
    m.set("setup_s", median(setup_s) * k, "s");
    m.set("cells_per_s", pass_cells / pass, "cells/s");
    m.set("events_per_s", pass_events / pass, "events/s");
    m.set("job_ms_p50", percentile(&job_ms, 50.0), "ms");
    m.set("peak_rss_mib", peak_rss_mib, "MiB");
    m.set("fig4_err_pp", fig4_err_pp, "pp");
    println!("samples: {} jobs, {} set-ups", job_ms.len(), setup_s.len());
    println!(
        "measured: set-up median {:.6} s, pass median {:.4} s; host speed factor {:.4} \
         ({} probe samples)",
        median(setup_s),
        median(pass_s),
        k,
        calib::samples(),
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<String, String> {
        argv.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].clone())
            .ok_or_else(|| format!("missing {name}"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
    })
}

fn number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        format!("{}", v + 0.0)
    } else {
        format!("{:e}", f64::MAX)
    }
}

/// A workload's entry point.
type RunFn = fn(&Ctx) -> Outcome;

/// The workloads by name.
const WORKLOADS: [(&str, RunFn); 3] = [
    ("fig4-small", sweep::fig4_small),
    ("fig4-warm", sweep::fig4_warm),
    ("tenants", tenants::tenants),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bc-perfbench: {e}");
            eprintln!(
                "usage: --workload fig4-small|fig4-warm|tenants \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let Some(&(workload, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        eprintln!("bc-perfbench: unknown workload '{}'", args.workload);
        std::process::exit(2);
    };
    let facts = host::HostFacts::gather();
    println!("{}", facts.to_line());
    let out = run_workload(workload, run, &args, &facts);
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    for (name, unit) in names {
        let value = number(out.metrics.get(name).unwrap_or(0.0));
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if json.is_empty() { "" } else { ", " },
        );
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed,
    );
}

/// Runs one workload in its own scratch directory and prints its table.
fn run_workload(workload: &str, run: RunFn, args: &Args, facts: &host::HostFacts) -> Outcome {
    let scratch_root = PathBuf::from(".bench_scratch");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        scratch: scratch_root.join(format!("run-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("bc-perfbench: cannot create {}: {e}", ctx.scratch.display());
        std::process::exit(1);
    }
    let started = Instant::now();
    let mut out = run(&ctx);
    let wall_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    // Leave no empty scratch root behind either.
    let _ = std::fs::remove_dir(&scratch_root);

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        let mut by_layer = span::self_ms_by_layer(&out.spans);
        if let Some((layer, ms)) = out.stream_self {
            *by_layer.entry("system").or_default() -= ms;
            *by_layer.entry(layer).or_default() += ms;
        }
        for (layer, ms) in &by_layer {
            out.metrics.set(&format!("self_ms.{layer}"), *ms, "ms");
        }
        out.metrics
            .set("spans.count", out.spans.len() as f64, "count");
        out.metrics.set("host.cores", facts.cores as f64, "count");
        out.metrics
            .set("host.speed_factor", calib::run_factor(), "ratio");
        out.metrics
            .set("host.peak_rss_mib", host::peak_rss_mib(), "MiB");
        out.metrics.set("run.wall_s", wall_s, "s");
        write_spans(
            workload,
            args.seed,
            facts,
            &[out.spans.as_slice(), &out.side_spans].concat(),
        );
    }
    for (name, _, _) in out.metrics.iter() {
        if !names.iter().any(|(n, _)| n == name) {
            eprintln!("note: metric {name} is not in this run's list and is not printed");
        }
    }
    println!(
        "workload {workload} seed {} seconds {} trace {}: attempted {} failed {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    for (name, unit) in names {
        let value = out.metrics.get(name).unwrap_or(0.0);
        println!("  {name:<40} {:>24} {unit}", number(value));
    }
    out
}

/// Writes a traced run's spans and host facts under `.bench_out/`.
fn write_spans(workload: &str, seed: u64, facts: &host::HostFacts, spans: &[Span]) {
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.json"));
    let body = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"host\": {}, \"spans\": {}}}\n",
        facts.to_json(),
        span::to_json(spans)
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), spans.len()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
