//! The job gateway: named sweeps and single cells in, memoized
//! `RunReport` bytes out.
//!
//! A job is submitted as JSON (`POST /v1/jobs`), either naming one of the
//! production sweep matrices (`{"matrix": "fig4", "size": "tiny"}`) or
//! carrying one canonical [`SystemConfig`] document (the exact
//! [`bc_experiments::schema::encode_config`] form). Cells fan out to a
//! fixed worker pool; each cell first consults the content-addressed
//! store ([`crate::cas`]) and only simulates on a miss, filing the result
//! for every later client. Progress is observable per cell
//! (`/v1/jobs/{id}/events`), jobs are cancellable, and a panicking cell
//! marks its job failed without taking down the pool or the server.
//!
//! The API surface:
//!
//! | method & path | effect |
//! |---|---|
//! | `POST /v1/jobs` | submit; returns `{"id", "cells"}` |
//! | `GET /v1/jobs/{id}` | status: state, completed, hits, failures |
//! | `GET /v1/jobs/{id}/cells/{i}` | the cell's report bytes |
//! | `GET /v1/jobs/{id}/keys` | every cell's cache key |
//! | `GET /v1/jobs/{id}/events?from=K` | progress lines from index K |
//! | `POST /v1/jobs/{id}/cancel` | stop scheduling this job's cells |
//! | `GET /v1/stats` | job count + CAS hit/miss/corrupt/put/eviction counters |

use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bc_experiments::matrices;
use bc_experiments::schema::{self, json};
use bc_system::{RunReport, System, SystemConfig};
use bc_workloads::WorkloadSize;

use crate::cas::Cas;
use crate::http::{Request, Response};

/// How a cell's configuration becomes a report. Injectable so the test
/// suite can substitute panicking or counting runners; production uses
/// [`Gateway::default_runner`].
pub type Runner = Arc<dyn Fn(&SystemConfig) -> Result<RunReport, String> + Send + Sync>;

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, not yet scheduled.
    Queued,
    /// Cells are running.
    Running,
    /// Every cell completed successfully (from cache or simulation).
    Done,
    /// At least one cell failed or panicked.
    Failed,
    /// Cancelled before every cell completed.
    Cancelled,
}

impl JobState {
    fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

enum CellResult {
    Pending,
    /// Report bytes served from the store.
    Hit(String),
    /// Report bytes freshly simulated (and now stored).
    Ran(String),
    Failed(String),
    Cancelled,
}

struct CellPlan {
    label: String,
    config: SystemConfig,
    key: String,
}

struct Progress {
    state: JobState,
    results: Vec<CellResult>,
    completed: usize,
    hits: usize,
    failures: usize,
    events: Vec<String>,
}

struct Job {
    id: u64,
    label: String,
    cells: Vec<CellPlan>,
    cancel: AtomicBool,
    progress: Mutex<Progress>,
}

struct Inner {
    cas: Cas,
    runner: Runner,
    workers: usize,
    next_id: AtomicU64,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
}

/// The gateway itself: shared by the HTTP handler and every job's pool.
#[derive(Clone)]
pub struct Gateway {
    inner: Arc<Inner>,
}

impl Gateway {
    /// Wraps an already-opened store (possibly byte-bounded via
    /// [`Cas::open_bounded`]) with `workers` concurrent cells, simulating
    /// via `runner`.
    #[must_use]
    pub fn with_cas(cas: Cas, workers: usize, runner: Runner) -> Gateway {
        Gateway {
            inner: Arc::new(Inner {
                cas,
                runner,
                workers: workers.max(1),
                next_id: AtomicU64::new(1),
                jobs: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Opens a gateway over an unbounded store at `cache_dir` with
    /// `workers` concurrent cells, simulating via `runner`.
    pub fn with_runner(
        cache_dir: impl Into<PathBuf>,
        workers: usize,
        runner: Runner,
    ) -> io::Result<Gateway> {
        Ok(Gateway::with_cas(Cas::open(cache_dir)?, workers, runner))
    }

    /// Production gateway: cells run on [`Gateway::default_runner`].
    pub fn new(cache_dir: impl Into<PathBuf>, workers: usize) -> io::Result<Gateway> {
        Gateway::with_runner(cache_dir, workers, Gateway::default_runner())
    }

    /// Builds and runs one `System` per cell — the same call path the
    /// figure binaries use.
    #[must_use]
    pub fn default_runner() -> Runner {
        Arc::new(|config: &SystemConfig| {
            System::build(config)
                .map(|mut system| system.run())
                .map_err(|e| format!("build failed: {e}"))
        })
    }

    /// Like [`Gateway::default_runner`] but every cell draws its
    /// wavefront access streams from `source` — typically a shared
    /// [`bc_trace::TraceDir`], so one compiled trace serves every cell
    /// (and every job) with the same content key. Replay is
    /// byte-identical to live synthesis, so cached results keyed by
    /// config alone stay valid.
    #[must_use]
    pub fn replay_runner(source: Arc<dyn bc_workloads::StreamSource>) -> Runner {
        Arc::new(move |config: &SystemConfig| {
            System::build_with_source(config, source.as_ref())
                .map(|mut system| system.run())
                .map_err(|e| format!("build failed: {e}"))
        })
    }

    /// Submits a job described by `body` (see module docs for the two
    /// accepted shapes), returning `(job id, cell count)`.
    pub fn submit(&self, body: &str) -> Result<(u64, usize), String> {
        let (label, cells) = parse_spec(body)?;
        let plans: Vec<CellPlan> = cells
            .into_iter()
            .map(|(label, config)| CellPlan {
                label,
                key: Cas::key_for(&config),
                config,
            })
            .collect();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job {
            id,
            label,
            cancel: AtomicBool::new(false),
            progress: Mutex::new(Progress {
                state: JobState::Queued,
                results: plans.iter().map(|_| CellResult::Pending).collect(),
                completed: 0,
                hits: 0,
                failures: 0,
                events: Vec::new(),
            }),
            cells: plans,
        });
        let cells = job.cells.len();
        self.inner
            .jobs
            .lock()
            .expect("job table mutex poisoned")
            .insert(id, Arc::clone(&job));
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || run_job(&inner, &job));
        Ok((id, cells))
    }

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.inner
            .jobs
            .lock()
            .expect("job table mutex poisoned")
            .get(&id)
            .cloned()
    }

    /// Requests cancellation of job `id`; cells already running finish,
    /// unscheduled cells are dropped. Returns false for unknown ids.
    #[must_use = "an unknown id is reported, not an error"]
    pub fn cancel(&self, id: u64) -> bool {
        match self.job(id) {
            Some(job) => {
                job.cancel.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Blocks until job `id` leaves the queued/running states, returning
    /// its final state (test and smoke convenience; the HTTP API polls).
    #[must_use]
    pub fn wait(&self, id: u64) -> Option<JobState> {
        let job = self.job(id)?;
        loop {
            let state = job.progress.lock().expect("job mutex poisoned").state;
            if !matches!(state, JobState::Queued | JobState::Running) {
                return Some(state);
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// Routes one HTTP request. Infallible by construction: unknown
    /// paths, bad ids and malformed bodies all map to 4xx responses.
    #[must_use]
    pub fn handle(&self, req: &Request) -> Response {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("POST", ["v1", "jobs"]) => match self.submit(&req.body) {
                Ok((id, cells)) => {
                    Response::json(200, format!("{{\"id\": {id}, \"cells\": {cells}}}"))
                }
                Err(e) => Response::error(400, &e),
            },
            ("GET", ["v1", "jobs", id]) => self.with_job(id, status_json),
            ("GET", ["v1", "jobs", id, "keys"]) => self.with_job(id, |job| {
                let keys: Vec<String> =
                    job.cells.iter().map(|c| format!("\"{}\"", c.key)).collect();
                Response::json(200, format!("{{\"keys\": [{}]}}", keys.join(", ")))
            }),
            ("GET", ["v1", "jobs", id, "cells", index]) => self.with_job(id, |job| {
                let Ok(i) = index.parse::<usize>() else {
                    return Response::error(400, "cell index is not a number");
                };
                let progress = job.progress.lock().expect("job mutex poisoned");
                match progress.results.get(i) {
                    None => Response::error(404, "cell index out of range"),
                    Some(CellResult::Hit(payload) | CellResult::Ran(payload)) => {
                        Response::json(200, payload.clone())
                    }
                    Some(CellResult::Failed(e)) => {
                        Response::error(409, &format!("cell failed: {e}"))
                    }
                    Some(CellResult::Cancelled) => Response::error(409, "cell cancelled"),
                    Some(CellResult::Pending) => Response::error(409, "cell not complete"),
                }
            }),
            ("GET", ["v1", "jobs", id, "events"]) => self.with_job(id, |job| {
                let from = req
                    .query_param("from")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(0);
                let progress = job.progress.lock().expect("job mutex poisoned");
                let lines: Vec<&str> = progress
                    .events
                    .iter()
                    .skip(from)
                    .map(String::as_str)
                    .collect();
                let mut body = lines.join("\n");
                if !body.is_empty() {
                    body.push('\n');
                }
                Response::text(200, body)
            }),
            ("POST", ["v1", "jobs", id, "cancel"]) => self.with_job(id, |job| {
                job.cancel.store(true, Ordering::Relaxed);
                status_json(job)
            }),
            ("GET", ["v1", "stats"]) => {
                let jobs = self
                    .inner
                    .jobs
                    .lock()
                    .expect("job table mutex poisoned")
                    .len();
                let s = self.inner.cas.stats();
                Response::json(
                    200,
                    format!(
                        "{{\"jobs\": {jobs}, \"cas\": {{\"hits\": {}, \"misses\": {}, \
                         \"corrupt\": {}, \"puts\": {}, \"evictions\": {}, \
                         \"evicted_bytes\": {}}}}}",
                        s.hits, s.misses, s.corrupt, s.puts, s.evictions, s.evicted_bytes
                    ),
                )
            }
            ("GET" | "POST", _) => Response::error(404, "no such endpoint"),
            _ => Response::error(405, "method not supported"),
        }
    }

    fn with_job(&self, id: &str, f: impl FnOnce(&Job) -> Response) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(400, "job id is not a number");
        };
        match self.job(id) {
            Some(job) => f(&job),
            None => Response::error(404, "no such job"),
        }
    }
}

fn status_json(job: &Job) -> Response {
    let p = job.progress.lock().expect("job mutex poisoned");
    Response::json(
        200,
        json::object(&[
            ("id", job.id.to_string()),
            ("label", json::quote(&job.label)),
            ("state", json::quote(p.state.label())),
            ("cells", job.cells.len().to_string()),
            ("completed", p.completed.to_string()),
            ("hits", p.hits.to_string()),
            ("failures", p.failures.to_string()),
        ]),
    )
}

/// Runs one job's cells on the gateway pool: CAS first, simulate on miss,
/// file the result; panics become failed cells, not dead workers.
fn run_job(inner: &Inner, job: &Job) {
    {
        let mut p = job.progress.lock().expect("job mutex poisoned");
        p.state = JobState::Running;
    }
    let next = AtomicUsize::new(0);
    let workers = inner.workers.min(job.cells.len()).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = job.cells.get(i) else { break };
                if job.cancel.load(Ordering::Relaxed) {
                    record(job, i, CellResult::Cancelled, 0);
                    continue;
                }
                let started = Instant::now();
                let outcome = if let Some(payload) = inner.cas.get(&cell.key) {
                    CellResult::Hit(payload)
                } else {
                    match catch_unwind(AssertUnwindSafe(|| (inner.runner)(&cell.config))) {
                        Ok(Ok(report)) => {
                            let payload = schema::encode_report(&report);
                            // A failed put degrades to a cache miss for
                            // the next client; the result still serves.
                            let _ = inner.cas.put(&cell.key, &payload);
                            CellResult::Ran(payload)
                        }
                        Ok(Err(e)) => CellResult::Failed(e),
                        Err(payload) => {
                            CellResult::Failed(format!("cell panicked: {}", panic_text(&*payload)))
                        }
                    }
                };
                record(job, i, outcome, started.elapsed().as_millis());
            });
        }
    });
    let mut p = job.progress.lock().expect("job mutex poisoned");
    p.state = if job.cancel.load(Ordering::Relaxed) {
        JobState::Cancelled
    } else if p.failures > 0 {
        JobState::Failed
    } else {
        JobState::Done
    };
    let line = format!("job {}: {}", job.id, p.state.label());
    p.events.push(line);
}

fn record(job: &Job, i: usize, outcome: CellResult, ms: u128) {
    let mut p = job.progress.lock().expect("job mutex poisoned");
    let verb = match &outcome {
        CellResult::Pending => "pending",
        CellResult::Hit(_) => "hit",
        CellResult::Ran(_) => "ran",
        CellResult::Failed(_) => "failed",
        CellResult::Cancelled => "cancelled",
    };
    match &outcome {
        CellResult::Hit(_) => {
            p.hits += 1;
            p.completed += 1;
        }
        CellResult::Ran(_) => p.completed += 1,
        CellResult::Failed(_) => p.failures += 1,
        CellResult::Pending | CellResult::Cancelled => {}
    }
    let label = job.cells.get(i).map(|c| c.label.as_str()).unwrap_or("?");
    let done = p.completed + p.failures;
    p.events.push(format!(
        "[{done}/{total}] {label} ({verb}, {ms} ms)",
        total = job.cells.len()
    ));
    if let Some(slot) = p.results.get_mut(i) {
        *slot = outcome;
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Job specs
// ---------------------------------------------------------------------------

/// Matrix names the API accepts, in `matrices` order.
pub const MATRICES: [&str; 6] = [
    "fig4",
    "fig5",
    "fig6-capture",
    "fig7",
    "attacks",
    "cpu-coherence",
];

/// Parses a submission body into `(job label, [(cell label, config)])`.
fn parse_spec(body: &str) -> Result<(String, Vec<(String, SystemConfig)>), String> {
    let value = json::parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
    let json::Value::Object(pairs) = &value else {
        return Err("job spec must be a JSON object".to_string());
    };
    let has = |k: &str| pairs.iter().any(|(key, _)| key == k);
    if has("matrix") {
        parse_matrix_spec(pairs)
    } else if has("schema") {
        // The body *is* one canonical config document.
        let config = schema::decode_config(body).map_err(|e| format!("bad cell config: {e}"))?;
        let label = format!("cell/{}", config.workload);
        Ok((label, vec![(config.workload.clone(), config)]))
    } else {
        Err(
            "job spec needs either \"matrix\" (a named sweep) or \"schema\" \
             (one canonical cell config)"
                .to_string(),
        )
    }
}

fn parse_matrix_spec(
    pairs: &[(String, json::Value)],
) -> Result<(String, Vec<(String, SystemConfig)>), String> {
    let mut name = String::new();
    let mut size = WorkloadSize::Small;
    let mut audit = false;
    let mut shards = 1usize;
    let mut seed: Option<u64> = None;
    for (key, value) in pairs {
        match key.as_str() {
            "matrix" => {
                name = value
                    .as_str()
                    .ok_or("\"matrix\" must be a string")?
                    .to_string();
            }
            "size" => {
                let label = value.as_str().ok_or("\"size\" must be a string")?;
                size = WorkloadSize::from_label(label)
                    .ok_or_else(|| format!("unknown size '{label}'"))?;
            }
            "audit" => audit = value.as_bool().ok_or("\"audit\" must be a boolean")?,
            "shards" => {
                shards = value
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .filter(|&n| n >= 1)
                    .ok_or("\"shards\" must be a positive integer")?;
            }
            "seed" => {
                seed = Some(
                    value
                        .as_u64()
                        .ok_or("\"seed\" must be an unsigned integer")?,
                );
            }
            other => return Err(format!("unknown job spec field '{other}'")),
        }
    }
    let mut matrix = match name.as_str() {
        "fig4" => matrices::fig4(size, &matrices::FIG4_GPUS),
        "fig5" => matrices::fig5(size),
        "fig6-capture" => matrices::fig6_capture(size),
        "fig7" => matrices::fig7(size),
        "attacks" => matrices::attacks(size),
        "cpu-coherence" => matrices::cpu_coherence(size),
        other => {
            return Err(format!(
                "unknown matrix '{other}' (one of: {})",
                MATRICES.join(", ")
            ))
        }
    };
    // Pin scheduling knobs from the spec, never from this server's argv.
    matrix = matrix.audit(audit).shards(shards);
    if let Some(seed) = seed {
        matrix = matrix.seed(seed);
    }
    let cells = matrix
        .cells()
        .into_iter()
        .map(|cell| (cell.label, cell.config))
        .collect();
    Ok((format!("{name}/{}", size.label()), cells))
}
