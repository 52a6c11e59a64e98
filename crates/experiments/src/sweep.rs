//! Parallel sweep engine for the experiment matrix.
//!
//! Every figure and table in this reproduction is a cross product of
//! independent full-system simulations — (safety model × GPU class ×
//! workload × size × knob overrides) — which makes reference-size runs
//! embarrassingly parallel. This module turns those nested loops into a
//! declarative [`SweepMatrix`] whose cells are fanned out to a fixed-size
//! worker pool over a shared job queue, then collected back **in matrix
//! order** so rendering code never sees scheduling effects.
//!
//! Determinism guarantees:
//!
//! * every cell's [`SystemConfig`] — including its RNG seed — is fully
//!   fixed when the matrix is built, *before* any thread runs. The seed is
//!   derived (FNV-1a) from the matrix seed and the cell's workload
//!   coordinate, never from thread identity or scheduling. Cells that
//!   differ only in safety model, GPU class or knob override share a seed
//!   **on purpose**: an overhead ratio must compare two simulations of the
//!   *same* generated access stream, exactly as the paper reruns one
//!   benchmark under each scheme;
//! * results are indexed by coordinates, so `--jobs 1` and `--jobs 64`
//!   produce byte-identical reports, and each cell's sharded event engine
//!   is deterministic in its own right, so any `--jobs × --shards`
//!   combination reports the same bytes (`determinism.rs` proves the
//!   cross product);
//! * a panicking or failing cell is captured as an error row ([`CellOutcome`])
//!   instead of killing the sweep.
//!
//! The engine is two layers: [`run_cells_with`] is the generic pool (any
//! `Fn(&SweepCell) -> Result<T, String>` runner — figure 6 uses it to
//! capture and replay check streams), and [`SweepMatrix::run`] is the
//! common case that builds and runs each cell's `System` into a
//! [`RunReport`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
// bc-lint: allow(wall-clock) — wall time feeds only the operator-facing summary
// (throughput, progress lines); no simulated state or RunReport byte depends on it
use std::time::{Duration, Instant};

use bc_sim::stats::{Histogram, StatsTable};
use bc_sim::Cycle;
use bc_system::{warm_key, AbortReason, GpuClass, RunReport, SafetyModel, System, SystemConfig};
use bc_workloads::{LiveSynthesis, StreamSource, WorkloadSize};

use crate::base_config;
use crate::schema::CODE_REV;

/// A named mutation applied to one slice of the override axis.
type OverrideFn = Arc<dyn Fn(&mut SystemConfig) + Send + Sync>;

/// One point of the experiment matrix: a fully-resolved configuration plus
/// the coordinates and label it renders under.
#[derive(Clone)]
pub struct SweepCell {
    /// Human-readable cell name (`override/gpu/safety/workload`).
    pub label: String,
    /// Axis coordinates `[override, gpu, safety, workload]`.
    pub coords: [usize; 4],
    /// The exact configuration this cell simulates (seed already fixed).
    pub config: SystemConfig,
}

/// The outcome of one cell: the runner's value or a captured failure,
/// plus the cell's wall-clock cost.
pub struct CellOutcome<T> {
    /// Label copied from the cell.
    pub label: String,
    /// Axis coordinates copied from the cell.
    pub coords: [usize; 4],
    /// `Ok` payload, or the build error / panic message as text.
    pub result: Result<T, String>,
    /// Wall time this cell took on its worker.
    pub wall: Duration,
}

/// Warm-start configuration: a directory of simulator checkpoints and the
/// cycle the warmup prefix runs to.
///
/// The checkpoint protocol ([`SweepMatrix::run`]): each cell's key is
/// `sha256(CODE_REV ‖ warm_key(config) ‖ cut)` — the same shards-normalized
/// identity [`System::restore`] enforces, wrapped with the simulator
/// revision so a code change invalidates every checkpoint at once. A hit
/// restores the snapshot and simulates only the tail past `cut`; a miss
/// runs the prefix, publishes the snapshot ([`bc_sim::store::publish`],
/// so concurrent sweeps racing on one key both win), **then restores from
/// those same bytes** and finishes — producer and consumer go through
/// identical restore machinery, so fork identity holds by construction
/// and cold/warm reports cannot diverge. A stale or corrupt checkpoint is
/// treated as a miss and overwritten; an unwritable directory only costs
/// the speedup.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Directory the checkpoints live in (created on first use).
    pub dir: PathBuf,
    /// Cycle the warmup prefix runs to before the snapshot is cut.
    pub cut: u64,
}

/// Scheduling options for one sweep.
#[derive(Clone)]
pub struct SweepOptions {
    /// Worker threads (≥ 1). [`SweepOptions::default`] uses
    /// `--jobs`/available parallelism via [`crate::jobs_from_args`].
    pub jobs: usize,
    /// Emit `[k/n] label (wall)` progress lines to stderr as cells finish.
    pub progress: bool,
    /// Where every cell's wavefront access streams come from: `None` is
    /// inline generator synthesis; `Some` is typically a
    /// [`bc_trace::TraceDir`] replaying compiled traces (byte-identical
    /// reports either way — replay identity is pinned by `bc-trace`'s
    /// proptests). [`SweepOptions::default`] wires `--trace-dir`.
    pub source: Option<Arc<dyn StreamSource>>,
    /// Snapshot/warm-start checkpointing, or `None` to simulate every
    /// cell from cycle zero. [`SweepOptions::default`] wires
    /// `--warm-start` / `--warm-dir`.
    pub warm_start: Option<WarmStart>,
}

impl std::fmt::Debug for SweepOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("jobs", &self.jobs)
            .field("progress", &self.progress)
            .field("source", &self.source.as_ref().map(|s| s.label()))
            .field("warm_start", &self.warm_start)
            .finish()
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: crate::jobs_from_args(),
            progress: true,
            source: crate::trace_dir_from_args(),
            warm_start: crate::warm_start_from_args(),
        }
    }
}

impl SweepOptions {
    /// Quiet options with an explicit worker count (used by tests and
    /// benches): live synthesis, no warm-start.
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        SweepOptions {
            jobs,
            progress: false,
            source: None,
            warm_start: None,
        }
    }

    /// Replaces the stream source (builder style).
    #[must_use]
    pub fn source(mut self, source: Arc<dyn StreamSource>) -> Self {
        self.source = Some(source);
        self
    }

    /// Enables warm-start checkpointing (builder style).
    #[must_use]
    pub fn warm_start(mut self, dir: impl Into<PathBuf>, cut: u64) -> Self {
        self.warm_start = Some(WarmStart {
            dir: dir.into(),
            cut,
        });
        self
    }
}

/// A declarative experiment matrix over
/// (knob override × GPU class × safety model × workload) at one size.
///
/// Cell configurations derive from [`base_config`] with the safety model
/// set from the safety axis and the override applied last (so an override
/// can touch *any* knob, including safety itself — the attacks sweep sets
/// behavior and violation policy this way).
pub struct SweepMatrix {
    overrides: Vec<(String, OverrideFn)>,
    gpus: Vec<GpuClass>,
    safeties: Vec<SafetyModel>,
    workloads: Vec<String>,
    size: WorkloadSize,
    matrix_seed: u64,
    audit: bool,
    shards: usize,
}

impl SweepMatrix {
    /// An empty matrix at `size`; fill the axes with the builder methods.
    /// Axes left empty default to a single entry (identity override,
    /// highly-threaded GPU, Border Control-BCC, `nn`). Auditing defaults
    /// from the `--audit` flag (like [`SweepOptions::default`] defaults
    /// jobs from `--jobs`), so every figure binary honours it for free.
    #[must_use]
    pub fn new(size: WorkloadSize) -> Self {
        SweepMatrix {
            overrides: Vec::new(),
            gpus: Vec::new(),
            safeties: Vec::new(),
            workloads: Vec::new(),
            size,
            matrix_seed: 2015,
            audit: crate::audit_from_args(),
            shards: crate::shards_from_args(),
        }
    }

    /// Sets the safety-model axis.
    #[must_use]
    pub fn safeties(mut self, safeties: &[SafetyModel]) -> Self {
        self.safeties = safeties.to_vec();
        self
    }

    /// Sets the GPU-class axis.
    #[must_use]
    pub fn gpus(mut self, gpus: &[GpuClass]) -> Self {
        self.gpus = gpus.to_vec();
        self
    }

    /// Sets the workload axis.
    pub fn workloads<S: AsRef<str>>(mut self, workloads: &[S]) -> Self {
        self.workloads = workloads.iter().map(|w| w.as_ref().to_string()).collect();
        self
    }

    /// Appends one knob-override slice to the override axis.
    pub fn with_override(
        mut self,
        label: impl Into<String>,
        f: impl Fn(&mut SystemConfig) + Send + Sync + 'static,
    ) -> Self {
        self.overrides.push((label.into(), Arc::new(f)));
        self
    }

    /// Sets the seed all per-cell seeds are derived from.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.matrix_seed = seed;
        self
    }

    /// Forces the runtime invariant auditor on (or off) for every cell,
    /// overriding the `--audit` default.
    #[must_use]
    pub fn audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Sets the intra-run shard count for every cell, overriding the
    /// `--shards` default. Shards never change a cell's seed, label or
    /// report — only how many threads simulate it.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Axis lengths `[override, gpu, safety, workload]` after defaulting.
    #[must_use]
    pub fn dims(&self) -> [usize; 4] {
        [
            self.overrides.len().max(1),
            self.gpus.len().max(1),
            self.safeties.len().max(1),
            self.workloads.len().max(1),
        ]
    }

    /// Materializes every cell in row-major
    /// (override, gpu, safety, workload) order.
    #[must_use]
    pub fn cells(&self) -> Vec<SweepCell> {
        let default_workloads = [String::from("nn")];
        let overrides: &[(String, OverrideFn)] = &self.overrides;
        let gpus: &[GpuClass] = if self.gpus.is_empty() {
            &[GpuClass::HighlyThreaded]
        } else {
            &self.gpus
        };
        let safeties: &[SafetyModel] = if self.safeties.is_empty() {
            &[SafetyModel::BorderControlBcc]
        } else {
            &self.safeties
        };
        let workloads: &[String] = if self.workloads.is_empty() {
            &default_workloads
        } else {
            &self.workloads
        };

        let mut cells = Vec::new();
        for oi in 0..overrides.len().max(1) {
            for (gi, &gpu) in gpus.iter().enumerate() {
                for (si, &safety) in safeties.iter().enumerate() {
                    for (wi, workload) in workloads.iter().enumerate() {
                        let mut config = base_config(workload, gpu, self.size);
                        config.safety = safety;
                        // Before the override, so an override can flip
                        // them.
                        config.audit = self.audit;
                        config.shards = self.shards;
                        let mut label_override = String::new();
                        if let Some((name, f)) = overrides.get(oi) {
                            f(&mut config);
                            label_override = format!("{name}/");
                        }
                        // Seed from the workload coordinate only: the
                        // other axes rerun the same stream under a
                        // different mechanism (see module docs).
                        config.seed = cell_seed(self.matrix_seed, &[wi as u64]);
                        cells.push(SweepCell {
                            label: format!(
                                "{label_override}{}/{}/{workload}",
                                gpu.label(),
                                safety.label()
                            ),
                            coords: [oi, gi, si, wi],
                            config,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Runs every cell on `opts.jobs` workers, collecting reports in
    /// matrix order.
    ///
    /// The cell runner honours `opts.source` (compiled-trace replay) and
    /// `opts.warm_start` (checkpoint restore — see [`WarmStart`]); both
    /// are pure wall-clock accelerations that leave every report byte
    /// unchanged (`warm_start_sweep_is_byte_identical` below and
    /// `bc-system`'s fork-identity suite prove it).
    #[must_use]
    pub fn run(&self, opts: &SweepOptions) -> SweepResults {
        let cells = self.cells();
        let started = Instant::now(); // bc-lint: allow(wall-clock) — sweep throughput metric only
        let live = LiveSynthesis;
        let source: &dyn StreamSource = opts.source.as_deref().unwrap_or(&live);
        let warm_hits = AtomicU64::new(0);
        let warm_misses = AtomicU64::new(0);
        let outcomes = run_cells_with(&cells, opts, |cell| {
            run_cell(
                cell,
                source,
                opts.warm_start.as_ref(),
                &warm_hits,
                &warm_misses,
            )
        });
        SweepResults {
            dims: self.dims(),
            outcomes,
            jobs: opts.jobs,
            total_wall: started.elapsed(),
            warm_hits: warm_hits.into_inner(),
            warm_misses: warm_misses.into_inner(),
        }
    }
}

/// Checkpoint file name for one cell: the simulator revision, the
/// shards-normalized config identity and the cut, hashed so the name is
/// filesystem-safe and leaks nothing.
fn checkpoint_path(dir: &Path, config: &SystemConfig, cut: u64) -> PathBuf {
    let material = format!("{CODE_REV}\u{0}{}\u{0}{cut}", warm_key(config));
    dir.join(format!(
        "{}.bcws",
        bc_sim::sha256::hex_digest(material.as_bytes())
    ))
}

/// Runs one cell: straight through, or via the warm-start checkpoint
/// protocol when `warm` is set (see [`WarmStart`] for the contract).
fn run_cell(
    cell: &SweepCell,
    source: &dyn StreamSource,
    warm: Option<&WarmStart>,
    warm_hits: &AtomicU64,
    warm_misses: &AtomicU64,
) -> Result<RunReport, String> {
    let Some(warm) = warm else {
        return System::build_with_source(&cell.config, source)
            .map(|mut system| system.run())
            .map_err(|e| format!("build failed: {e}"));
    };

    let path = checkpoint_path(&warm.dir, &cell.config, warm.cut);
    if let Ok(bytes) = std::fs::read(&path) {
        // A checkpoint that fails to restore (stale revision, foreign
        // config after a hash collision, torn bytes) is just a miss: fall
        // through, recompute, overwrite.
        if let Ok(mut system) = System::restore(&cell.config, &bytes, CODE_REV, source) {
            warm_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(system.run());
        }
    }
    warm_misses.fetch_add(1, Ordering::Relaxed);

    let mut system = System::build_with_source(&cell.config, source)
        .map_err(|e| format!("build failed: {e}"))?;
    let bytes = system.snapshot_to(Cycle::new(warm.cut), CODE_REV);
    // Publish best-effort: an unwritable checkpoint dir only loses the
    // speedup for the next sweep, never the run.
    let published =
        std::fs::create_dir_all(&warm.dir).and_then(|()| bc_sim::store::publish(&path, &bytes));
    if let Err(e) = published {
        eprintln!(
            "warm-start: could not write checkpoint for '{}': {e}",
            cell.label
        );
    }
    // Finish through the same restore machinery a hit uses, so cold and
    // warm cells are literally the same code path after the cut.
    System::restore(&cell.config, &bytes, CODE_REV, source)
        .map(|mut system| system.run())
        .map_err(|e| format!("restore of freshly cut snapshot failed: {e}"))
}

/// Derives a cell seed from the matrix seed and cell coordinates alone
/// (FNV-1a over the coordinate bytes): stable across runs, thread counts
/// and scheduling. [`SweepMatrix`] passes only the workload coordinate so
/// that mechanism axes replay identical streams; replications that *want*
/// fresh draws pass extra coordinates (e.g. a repetition index).
#[must_use]
pub fn cell_seed(matrix_seed: u64, coords: &[u64]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in matrix_seed
        .to_le_bytes()
        .into_iter()
        .chain(coords.iter().flat_map(|c| c.to_le_bytes()))
    {
        hash ^= u64::from(byte);
        // bc-lint: allow(saturating-counter) — FNV-1a multiply wraps by design.
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The generic worker pool: runs `runner` over `cells` on `opts.jobs`
/// threads pulling from a shared queue, returning outcomes in cell order.
///
/// A cell that panics is captured as an `Err` outcome; the sweep and the
/// other workers continue.
pub fn run_cells_with<T, F>(
    cells: &[SweepCell],
    opts: &SweepOptions,
    runner: F,
) -> Vec<CellOutcome<T>>
where
    T: Send,
    F: Fn(&SweepCell) -> Result<T, String> + Sync,
{
    let jobs = opts.jobs.max(1).min(cells.len().max(1));
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellOutcome<T>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let started = Instant::now(); // bc-lint: allow(wall-clock) — per-cell wall metric only
                let result = match catch_unwind(AssertUnwindSafe(|| runner(cell))) {
                    Ok(r) => r,
                    Err(payload) => Err(format!("cell panicked: {}", panic_message(&*payload))),
                };
                let wall = started.elapsed();
                *slots[i].lock().expect("sweep slot mutex poisoned") = Some(CellOutcome {
                    label: cell.label.clone(),
                    coords: cell.coords,
                    result,
                    wall,
                });
                let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
                if opts.progress {
                    eprintln!(
                        "[{done}/{total}] {label} ({ms} ms)",
                        total = cells.len(),
                        label = cell.label,
                        ms = wall.as_millis(),
                    );
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot mutex poisoned")
                .expect("every cell ran")
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// All cell outcomes of one matrix sweep, addressable by coordinates.
pub struct SweepResults {
    dims: [usize; 4],
    outcomes: Vec<CellOutcome<RunReport>>,
    /// Worker threads the sweep ran with.
    pub jobs: usize,
    /// Wall time of the whole sweep.
    pub total_wall: Duration,
    /// Cells served from a warm-start checkpoint (0 without warm-start).
    pub warm_hits: u64,
    /// Cells that ran their warmup prefix and published a checkpoint.
    pub warm_misses: u64,
}

impl SweepResults {
    /// Axis lengths `[override, gpu, safety, workload]`.
    #[must_use]
    pub fn dims(&self) -> [usize; 4] {
        self.dims
    }

    /// Flat row-major index of `coords`.
    fn index(&self, coords: [usize; 4]) -> usize {
        let [o, g, s, w] = coords;
        let [no, ng, ns, nw] = self.dims;
        assert!(o < no && g < ng && s < ns && w < nw, "coords out of range");
        ((o * ng + g) * ns + s) * nw + w
    }

    /// The outcome at `coords` `[override, gpu, safety, workload]`.
    #[must_use]
    pub fn outcome(&self, coords: [usize; 4]) -> &CellOutcome<RunReport> {
        &self.outcomes[self.index(coords)]
    }

    /// The report at `coords`, panicking with the cell label on a failed
    /// cell (figure binaries are leaf tools; failing loudly is right).
    #[must_use]
    pub fn report(&self, coords: [usize; 4]) -> &RunReport {
        let outcome = self.outcome(coords);
        match &outcome.result {
            Ok(report) => report,
            Err(e) => panic!("sweep cell '{}' failed: {e}", outcome.label),
        }
    }

    /// All outcomes in matrix order.
    pub fn iter(&self) -> impl Iterator<Item = &CellOutcome<RunReport>> {
        self.outcomes.iter()
    }

    /// Number of failed cells.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_err()).count()
    }

    /// Count of successful cells whose run aborted for `reason` — lets
    /// error triage tell violation kills from runaway simulations without
    /// digging through per-cell reports.
    #[must_use]
    pub fn aborts_with(&self, reason: AbortReason) -> usize {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .filter(|r| r.abort_reason == Some(reason))
            .count()
    }

    /// Sweep-level statistics: cell count, failures, abort-reason triage,
    /// throughput, and the per-cell wall-time distribution, rendered via
    /// [`bc_sim::stats`]. Audited sweeps add aggregate auditor counts.
    // bc-lint: allow(float) — throughput / parallel-efficiency summary
    // over wall-clock metrics, printed after the sweep.
    #[must_use]
    pub fn summary(&self) -> StatsTable {
        let mut wall = Histogram::new();
        for o in &self.outcomes {
            wall.record(o.wall.as_micros() as u64);
        }
        let total_secs = self.total_wall.as_secs_f64();
        let mut t = StatsTable::new(format!("sweep summary ({} jobs)", self.jobs));
        t.push("cells", self.outcomes.len());
        t.push("failures", self.failures());
        for reason in [
            AbortReason::ViolationKill,
            AbortReason::CycleLimit,
            AbortReason::FatalOsError,
        ] {
            let n = self.aborts_with(reason);
            if n > 0 {
                t.push(format!("aborted: {}", reason.label()), n);
            }
        }
        let (mut assertions, mut findings, mut audited) = (0u64, 0u64, false);
        for r in self.outcomes.iter().filter_map(|o| o.result.as_ref().ok()) {
            if let Some(audit) = &r.audit {
                audited = true;
                assertions += audit.assertions;
                findings += audit.findings.len() as u64;
            }
        }
        if audited {
            t.push("audit assertions", assertions);
            t.push("audit findings", findings);
        }
        if self.warm_hits + self.warm_misses > 0 {
            t.push("warm-start hits", self.warm_hits);
            t.push("warm-start misses", self.warm_misses);
        }
        t.push_f64("sweep wall (s)", total_secs);
        t.push_f64(
            "throughput (cells/s)",
            if total_secs > 0.0 {
                self.outcomes.len() as f64 / total_secs
            } else {
                0.0
            },
        );
        t.push("cell wall min (µs)", wall.min());
        t.push_f64("cell wall mean (µs)", wall.mean());
        t.push("cell wall max (µs)", wall.max());
        t.push_f64(
            "parallel efficiency",
            if total_secs > 0.0 {
                (wall.sum() as f64 / 1e6) / (total_secs * self.jobs as f64)
            } else {
                0.0
            },
        );
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    fn tiny_matrix() -> SweepMatrix {
        SweepMatrix::new(WorkloadSize::Tiny)
            .safeties(&[SafetyModel::AtsOnlyIommu, SafetyModel::BorderControlBcc])
            .gpus(&[GpuClass::ModeratelyThreaded])
            .workloads(&WORKLOADS[..2])
    }

    #[test]
    fn cells_enumerate_in_row_major_order() {
        let m = tiny_matrix();
        let cells = m.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].coords, [0, 0, 0, 0]);
        assert_eq!(cells[1].coords, [0, 0, 0, 1]);
        assert_eq!(cells[2].coords, [0, 0, 1, 0]);
        assert_eq!(cells[0].config.safety, SafetyModel::AtsOnlyIommu);
        assert_eq!(cells[2].config.safety, SafetyModel::BorderControlBcc);
        assert_eq!(cells[1].config.workload, WORKLOADS[1]);
    }

    #[test]
    fn cell_seeds_are_stable_and_follow_the_workload_axis() {
        let m = tiny_matrix();
        let a = m.cells();
        let b = m.cells();
        let seeds: Vec<u64> = a.iter().map(|c| c.config.seed).collect();
        assert_eq!(seeds, b.iter().map(|c| c.config.seed).collect::<Vec<_>>());
        // Same workload column ⇒ same seed (mechanism axes replay the
        // same stream); different workloads ⇒ different seeds.
        assert_eq!(seeds[0], seeds[2], "safety axis must not change the stream");
        assert_ne!(seeds[0], seeds[1], "workload axis must change the stream");
        // Direct derivation check: coordinates fully determine the seed.
        assert_eq!(seeds[0], cell_seed(2015, &[0]));
        assert_eq!(seeds[1], cell_seed(2015, &[1]));
        // A different matrix seed reshuffles every draw.
        assert_ne!(cell_seed(1, &[0]), cell_seed(2, &[0]));
    }

    #[test]
    fn overrides_apply_after_safety_axis() {
        let m = SweepMatrix::new(WorkloadSize::Tiny)
            .safeties(&[SafetyModel::BorderControlBcc])
            .with_override("rate0", |c| c.downgrades_per_second = 0)
            .with_override("rate9", |c| c.downgrades_per_second = 9);
        let cells = m.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].config.downgrades_per_second, 0);
        assert_eq!(cells[1].config.downgrades_per_second, 9);
        assert!(cells[1].label.starts_with("rate9/"));
    }

    #[test]
    fn panicking_cell_becomes_error_row_and_sweep_survives() {
        let m = tiny_matrix();
        let cells = m.cells();
        let outcomes = run_cells_with(&cells, &SweepOptions::with_jobs(2), |cell| {
            if cell.coords == [0, 0, 1, 0] {
                panic!("boom in {label}", label = cell.label);
            }
            Ok(cell.coords[3])
        });
        assert_eq!(outcomes.len(), 4);
        let failed: Vec<_> = outcomes.iter().filter(|o| o.result.is_err()).collect();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].result.as_ref().unwrap_err().contains("boom"));
        assert_eq!(outcomes[3].result.as_ref().copied().unwrap(), 1);
    }

    #[test]
    fn build_failure_is_an_error_row() {
        let m = SweepMatrix::new(WorkloadSize::Tiny).workloads(&["no-such-workload"]);
        let results = m.run(&SweepOptions::with_jobs(1));
        assert_eq!(results.failures(), 1);
        assert!(results.outcome([0, 0, 0, 0]).result.is_err());
        let summary = results.summary().to_string();
        assert!(summary.contains("failures"));
    }

    #[test]
    fn audited_sweep_attaches_clean_reports_and_summary_counts() {
        let m = SweepMatrix::new(WorkloadSize::Tiny)
            .safeties(&[SafetyModel::AtsOnlyIommu, SafetyModel::BorderControlBcc])
            .gpus(&[GpuClass::ModeratelyThreaded])
            .workloads(&["nn"])
            .audit(true);
        assert!(m.cells().iter().all(|c| c.config.audit));
        let results = m.run(&SweepOptions::with_jobs(2));
        assert_eq!(results.failures(), 0);
        for o in results.iter() {
            let audit = o.result.as_ref().unwrap().audit.as_ref().unwrap();
            assert!(audit.is_clean(), "{}: {:?}", o.label, audit.findings);
        }
        let summary = results.summary().to_string();
        assert!(summary.contains("audit assertions"));
        assert!(summary.contains("audit findings"));

        // And off by default (no --audit in the test harness's argv).
        let plain = SweepMatrix::new(WorkloadSize::Tiny).cells();
        assert!(plain.iter().all(|c| !c.config.audit));
    }

    #[test]
    fn shards_apply_to_every_cell_without_touching_seeds_or_labels() {
        let plain = tiny_matrix().cells();
        let sharded = tiny_matrix().shards(4).cells();
        assert!(plain.iter().all(|c| c.config.shards == 1));
        assert!(sharded.iter().all(|c| c.config.shards == 4));
        for (p, s) in plain.iter().zip(&sharded) {
            assert_eq!(p.label, s.label);
            assert_eq!(p.config.seed, s.config.seed);
        }
        // Sub-1 requests clamp rather than wedging the engine.
        assert!(tiny_matrix().shards(0).cells()[0].config.shards == 1);
    }

    #[test]
    fn summary_triages_abort_reasons() {
        let m = SweepMatrix::new(WorkloadSize::Tiny)
            .safeties(&[SafetyModel::AtsOnlyIommu])
            .workloads(&["nn"])
            .with_override("valve", |c| c.max_cycles = 50);
        let results = m.run(&SweepOptions::with_jobs(1));
        assert_eq!(results.aborts_with(AbortReason::CycleLimit), 1);
        assert_eq!(results.aborts_with(AbortReason::ViolationKill), 0);
        let summary = results.summary().to_string();
        assert!(summary.contains("cycle valve tripped"));
        assert!(!summary.contains("killed on violation"));
    }

    /// Reports of a sweep as comparable bytes (full `Debug`, covering
    /// every counter and violation record), keyed by label.
    fn report_bytes(results: &SweepResults) -> Vec<(String, String)> {
        results
            .iter()
            .map(|o| {
                (
                    o.label.clone(),
                    format!("{:?}", o.result.as_ref().expect("cell ran")),
                )
            })
            .collect()
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        // The PID only namespaces a test scratch directory; nothing
        // simulated depends on it.
        let d = std::env::temp_dir().join(format!("bc-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn trace_replay_sweep_is_byte_identical_to_live() {
        let m = tiny_matrix();
        let live = m.run(&SweepOptions::with_jobs(2));
        let dir = scratch_dir("trace");
        let source = Arc::new(bc_trace::TraceDir::open(&dir).expect("trace dir opens"));
        let traced = m.run(&SweepOptions::with_jobs(2).source(source.clone()));
        assert_eq!(report_bytes(&live), report_bytes(&traced));
        let stats = source.stats();
        assert_eq!(stats.fallbacks, 0, "replay must not fall back: {stats:?}");
        assert!(stats.compiles > 0, "first sweep compiles traces");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_sweep_is_byte_identical_and_caches() {
        let m = tiny_matrix();
        let plain = m.run(&SweepOptions::with_jobs(2));
        assert_eq!(plain.warm_hits + plain.warm_misses, 0);

        let dir = scratch_dir("warm");
        let opts = SweepOptions::with_jobs(2).warm_start(&dir, 2_000);
        let cold = m.run(&opts);
        assert_eq!(cold.warm_misses, 4, "first pass publishes every cell");
        assert_eq!(cold.warm_hits, 0);
        assert_eq!(report_bytes(&plain), report_bytes(&cold));

        let warm = m.run(&opts);
        assert_eq!(warm.warm_hits, 4, "second pass restores every cell");
        assert_eq!(warm.warm_misses, 0);
        assert_eq!(report_bytes(&plain), report_bytes(&warm));
        let summary = warm.summary().to_string();
        assert!(summary.contains("warm-start hits"));

        // A corrupt checkpoint is a miss, not a failure: truncate one.
        let entry = std::fs::read_dir(&dir)
            .expect("warm dir")
            .next()
            .expect("has a checkpoint")
            .expect("dir entry");
        let bytes = std::fs::read(entry.path()).expect("checkpoint reads");
        std::fs::write(entry.path(), &bytes[..bytes.len() / 2]).expect("truncates");
        let healed = m.run(&opts);
        assert_eq!(healed.warm_hits, 3);
        assert_eq!(healed.warm_misses, 1, "corrupt checkpoint recomputed");
        assert_eq!(report_bytes(&plain), report_bytes(&healed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_composes_with_trace_replay_and_shards() {
        let m = tiny_matrix();
        let plain = m.run(&SweepOptions::with_jobs(2));
        let trace_dir = scratch_dir("warm-trace");
        let warm_dir = scratch_dir("warm-trace-ckpt");
        let source = Arc::new(bc_trace::TraceDir::open(&trace_dir).expect("trace dir opens"));
        let opts = SweepOptions::with_jobs(2)
            .source(source)
            .warm_start(&warm_dir, 1_500);
        let cold = m.run(&opts);
        assert_eq!(report_bytes(&plain), report_bytes(&cold));
        // Checkpoints cut under shards=1 restore under shards=2: the
        // warm key normalizes shard count, like the result cache.
        let sharded = tiny_matrix().shards(2).run(&opts);
        assert_eq!(sharded.warm_hits, 4, "shard count must not miss");
        assert_eq!(report_bytes(&plain), report_bytes(&sharded));
        let _ = std::fs::remove_dir_all(&trace_dir);
        let _ = std::fs::remove_dir_all(&warm_dir);
    }

    #[test]
    fn more_jobs_than_cells_is_fine() {
        let m = SweepMatrix::new(WorkloadSize::Tiny)
            .safeties(&[SafetyModel::AtsOnlyIommu])
            .workloads(&["nn"]);
        let results = m.run(&SweepOptions::with_jobs(64));
        assert_eq!(results.failures(), 0);
        assert!(results.report([0, 0, 0, 0]).cycles > 0);
    }
}
