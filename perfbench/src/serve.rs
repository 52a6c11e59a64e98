//! The `bc-serve` load behind the `serve.*` per-layer metrics, which
//! `fig4-warm`'s traced run drives: an in-process gateway on loopback
//! with one worker and a fresh content-addressed store, fed by an open
//! loop. It is no workload of its own, because its latencies follow the
//! host's CPU steal (see `NOTES.md`).
//!
//! One thread submits single-cell, tiny-size canonical-config jobs on a
//! fixed schedule; a second polls outstanding jobs and fetches their
//! reports. Four jobs in five repeat a config already in the store (HTTP,
//! schema and a store read); every fifth carries a fresh seed (simulate,
//! encode, store write). It is the only load that crosses HTTP, the
//! schema decoder and the store, with writes beside reads.
//!
//! Configs come from the moderately-threaded Fig. 4b row, whose tiny
//! cells simulate in 5–40 ms; misses arrive every 45 ms, so one rarely
//! overlaps the next on two cores. A job's latency runs from its due time
//! until its report bytes arrive; the poller re-polls a job after an
//! eighth of its age (0.1–2 ms), so polling adds a bounded fraction to
//! every latency rather than a fixed step.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bc_experiments::matrices;
use bc_experiments::schema;
use bc_serve::{client, Cas, Gateway, Request, Response, Runner, Server};
use bc_sim::SimRng;
use bc_system::{GpuClass, RunReport, System, SystemConfig};
use bc_workloads::WorkloadSize;

use crate::span::{self, Span, SpanId, Tracer};
use crate::{host, Ctx, Outcome};

/// Offered load: jobs per second.
const RATE_PER_S: f64 = 110.0;
/// Every fifth job is a miss: evenly spaced 45 ms apart, so one miss
/// (≤ 40 ms on this row) rarely overlaps the next.
const MISS_EVERY: u64 = 5;
/// Bounds of the age-proportional re-poll interval.
const POLL_MIN: Duration = Duration::from_micros(100);
const POLL_MAX: Duration = Duration::from_millis(2);

/// One scheduled job and the bytes it must return.
struct Job {
    due: Duration,
    body: String,
    want: Arc<String>,
    seed: u64,
}

/// Draws pool indices in seeded shuffled rounds: every run serves each
/// config equally often (±1), and only the order depends on the seed, so
/// the latency tail does not hinge on how often the slowest config was
/// drawn.
struct Rounds {
    rng: SimRng,
    n: usize,
    left: Vec<usize>,
}

impl Rounds {
    fn new(seed: u64, n: usize) -> Self {
        Rounds {
            rng: SimRng::seed_from(seed),
            n,
            left: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            for i in (1..self.n).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.left.swap(i, j);
            }
        }
        self.left.pop().expect("a refilled round is not empty")
    }
}

/// A gateway ready to serve, with its schedule.
struct Rig {
    root: PathBuf,
    server: Server,
    jobs: Vec<Job>,
    failed: u64,
    /// Requests the wrapped handler served, by route.
    routes: Arc<[AtomicU64; 3]>,
}

const ROUTES: [&str; 3] = ["post_jobs", "get_cell", "other"];

fn route_of(req: &Request) -> usize {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["v1", "jobs"]) => 0,
        ("GET", ["v1", "jobs", _, "cells", _]) => 1,
        _ => 2,
    }
}

/// The job id a request or its response names (0 when none).
fn job_id(req: &Request, resp: &Response) -> u64 {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segs.as_slice() {
        ["v1", "jobs", id, ..] => id.parse().unwrap_or(0),
        ["v1", "jobs"] => id_in(&resp.body).unwrap_or(0),
        _ => 0,
    }
}

fn id_in(body: &str) -> Option<u64> {
    let rest = body.split_once("\"id\": ")?.1;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn reference(config: &SystemConfig) -> Result<RunReport, String> {
    System::build(config)
        .map(|mut s| s.run())
        .map_err(|e| format!("build failed: {e}"))
}

/// Gateway start, store prefill, the job schedule and every job's
/// reference report. The gateway's handler and runner are wrapped in
/// spans on `tracer`.
fn set_up(ctx: &Ctx, root: PathBuf, tracer: &Arc<Tracer>) -> std::io::Result<Rig> {
    let _ = std::fs::remove_dir_all(&root);
    let cas_dir = root.join("cas");
    let mut failed = 0;
    let pool_cells = matrices::fig4(WorkloadSize::Tiny, &[GpuClass::ModeratelyThreaded])
        .seed(ctx.seed)
        .audit(false)
        .shards(1)
        .cells();
    let prefill = Cas::open(&cas_dir)?;
    let mut pool_bytes = Vec::new();
    for cell in &pool_cells {
        match reference(&cell.config) {
            Ok(r) => {
                let bytes = Arc::new(schema::encode_report(&r));
                prefill.put(&Cas::key_for(&cell.config), &bytes)?;
                pool_bytes.push(bytes);
            }
            Err(e) => {
                eprintln!("{}: {e}", cell.label);
                failed += 1;
            }
        }
    }
    if pool_bytes.len() != pool_cells.len() {
        return Err(std::io::Error::other("reference pool incomplete"));
    }

    let n = (RATE_PER_S * ctx.seconds).ceil() as u64;
    let mut hit_rounds = Rounds::new(ctx.seed ^ 0x5e7e_0b0c, pool_cells.len());
    let mut miss_rounds = Rounds::new(ctx.seed ^ 0x0b0c_5e7e, pool_cells.len());
    let mut jobs = Vec::new();
    for k in 0..n {
        let due = Duration::from_secs_f64(k as f64 / RATE_PER_S);
        if k % MISS_EVERY != MISS_EVERY - 1 {
            let idx = hit_rounds.next();
            jobs.push(Job {
                due,
                body: schema::encode_config(&pool_cells[idx].config),
                want: Arc::clone(&pool_bytes[idx]),
                seed: pool_cells[idx].config.seed,
            });
            continue;
        }
        let mut config = pool_cells[miss_rounds.next()].config.clone();
        config.seed = bc_experiments::cell_seed(ctx.seed, &[0x5e7e, k]);
        match reference(&config) {
            Ok(r) => jobs.push(Job {
                due,
                body: schema::encode_config(&config),
                want: Arc::new(schema::encode_report(&r)),
                seed: config.seed,
            }),
            Err(e) => {
                eprintln!("miss job {k}: {e}");
                failed += 1;
            }
        }
    }

    let tr = Arc::clone(tracer);
    let runner: Runner = Arc::new(move |config: &SystemConfig| {
        let req = config.seed;
        tr.span("serve.runner", None, req, |root| {
            let mut system = tr
                .span("system.build", root, req, |_| System::build(config))
                .map_err(|e| format!("build failed: {e}"))?;
            let report = tr.span("system.run", root, req, |_| system.run());
            tr.span("system.drop", root, req, |_| drop(system));
            Ok(report)
        })
    });
    let gateway = Gateway::with_cas(Cas::open(&cas_dir)?, 1, runner);
    let routes: Arc<[AtomicU64; 3]> = Arc::default();
    let (tr, counts) = (Arc::clone(tracer), Arc::clone(&routes));
    let handler: Arc<dyn Fn(&Request) -> Response + Send + Sync> =
        Arc::new(move |req: &Request| {
            let id = tr.reserve();
            let start_ns = tr.now_ns();
            let resp = gateway.handle(req);
            let end_ns = tr.now_ns();
            counts[route_of(req)].fetch_add(1, Ordering::Relaxed);
            tr.record(Span {
                id,
                parent: None,
                name: "serve.handle",
                req: job_id(req, &resp),
                start_ns,
                end_ns,
            });
            resp
        });
    let server = Server::start("127.0.0.1:0", handler)?;
    Ok(Rig {
        root,
        server,
        jobs,
        failed,
        routes,
    })
}

/// What the open loop observed for one job.
#[derive(Clone)]
struct Done {
    /// Whether the job's report bytes arrived and were right.
    good: bool,
    polls: u64,
    id: u64,
}

struct LoopResult {
    done: Vec<Done>,
    max_lag: Duration,
    rtt_ns: Vec<u64>,
}

struct Outstanding {
    k: usize,
    id: u64,
    root: SpanId,
    submitted: Instant,
    next_poll: Instant,
    polls: u64,
}

enum Submitted {
    Ok {
        k: usize,
        id: u64,
        root: SpanId,
        at: Instant,
    },
    Refused(usize),
}

/// Times one client exchange as a `bench.*` span.
fn exchange(
    tr: &Tracer,
    name: &'static str,
    parent: SpanId,
    req: u64,
    rtt: &mut Vec<u64>,
    f: impl FnOnce() -> Result<(u16, String), String>,
) -> Result<(u16, String), String> {
    let t = Instant::now();
    let out = tr.span(name, Some(parent), req, |_| f());
    rtt.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    out
}

fn open_loop(rig: &Rig, tr: &Tracer) -> LoopResult {
    let addr: SocketAddr = rig.server.addr();
    let jobs = &rig.jobs;
    let (tx, rx) = mpsc::channel::<Submitted>();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut max_lag = Duration::ZERO;
            let mut rtt = Vec::new();
            for (k, job) in jobs.iter().enumerate() {
                let due = t0 + job.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let at = Instant::now();
                max_lag = max_lag.max(at.saturating_duration_since(due));
                let root = tr.reserve();
                let sent = exchange(tr, "bench.submit", root, 0, &mut rtt, || {
                    client::post(addr, "/v1/jobs", &job.body)
                });
                let msg = match sent {
                    Ok((200, body)) => match id_in(&body) {
                        Some(id) => Submitted::Ok { k, id, root, at },
                        None => Submitted::Refused(k),
                    },
                    _ => Submitted::Refused(k),
                };
                if tx.send(msg).is_err() {
                    break;
                }
            }
            (max_lag, rtt)
        });
        let (done, mut rtt) = poll_loop(rig, tr, addr, t0, &rx);
        let (max_lag, submit_rtt) = submitter.join().expect("submitter panicked");
        rtt.extend(submit_rtt);
        LoopResult {
            done,
            max_lag,
            rtt_ns: rtt,
        }
    })
}

fn poll_loop(
    rig: &Rig,
    tr: &Tracer,
    addr: SocketAddr,
    t0: Instant,
    rx: &mpsc::Receiver<Submitted>,
) -> (Vec<Done>, Vec<u64>) {
    let jobs = &rig.jobs;
    let refused = Done {
        good: false,
        polls: 0,
        id: 0,
    };
    let mut done: Vec<Option<Done>> = vec![None; jobs.len()];
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let mut rtt = Vec::new();
    let mut open = true;
    let mut resolved = 0;
    let accept = |msg: Submitted,
                  outstanding: &mut Vec<Outstanding>,
                  done: &mut Vec<Option<Done>>| match msg {
        Submitted::Ok { k, id, root, at } => outstanding.push(Outstanding {
            k,
            id,
            root,
            submitted: at,
            next_poll: Instant::now(),
            polls: 0,
        }),
        Submitted::Refused(k) => done[k] = Some(refused.clone()),
    };
    while resolved < jobs.len() && (open || !outstanding.is_empty()) {
        // Wait for the next due poll or the next submission.
        let wake = outstanding.iter().map(|o| o.next_poll).min();
        let msg = match wake {
            _ if !open => None,
            None => rx.recv().ok(),
            Some(w) => match rx.recv_timeout(w.saturating_duration_since(Instant::now())) {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    open = false;
                    None
                }
            },
        };
        match msg {
            Some(m) => accept(m, &mut outstanding, &mut done),
            None if wake.is_none() => open = false,
            None => {}
        }
        while let Ok(m) = rx.try_recv() {
            accept(m, &mut outstanding, &mut done);
        }
        if !open && outstanding.is_empty() {
            break;
        }
        let now = Instant::now();
        let mut i = 0;
        while i < outstanding.len() {
            let o = &mut outstanding[i];
            if o.next_poll > now {
                i += 1;
                continue;
            }
            // A single-cell job is polled on its cell: 200 carries the
            // report bytes, 409 "cell not complete" means still pending,
            // anything else (failed, cancelled, an error) ends the job.
            o.polls += 1;
            let fetched = exchange(tr, "bench.poll", o.root, o.id, &mut rtt, || {
                client::get(addr, &format!("/v1/jobs/{}/cells/0", o.id))
            });
            match &fetched {
                Ok((409, body)) if body.contains("cell not complete") => {
                    let age = Instant::now().saturating_duration_since(o.submitted);
                    o.next_poll = Instant::now() + (age / 8).clamp(POLL_MIN, POLL_MAX);
                    i += 1;
                    continue;
                }
                _ => {
                    let job = &jobs[o.k];
                    let arrived = Instant::now();
                    let good = matches!(&fetched, Ok((200, body)) if *body == *job.want);
                    if !good {
                        eprintln!(
                            "job {} (schedule slot {}) failed or returned wrong bytes",
                            o.id, o.k
                        );
                    }
                    tr.record(Span {
                        id: o.root,
                        parent: None,
                        name: "bench.job",
                        req: o.id,
                        start_ns: tr.ns_at(t0 + job.due),
                        end_ns: tr.ns_at(arrived),
                    });
                    done[o.k] = Some(Done {
                        good,
                        polls: o.polls,
                        id: o.id,
                    });
                    outstanding.swap_remove(i);
                }
            }
        }
        resolved = done.iter().filter(|d| d.is_some()).count();
    }
    let done = done
        .into_iter()
        .map(|d| d.unwrap_or_else(|| refused.clone()))
        .collect();
    (done, rtt)
}

fn stat_field(body: &str, name: &str) -> f64 {
    body.split_once(&format!("\"{name}\": "))
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Joins the server-side spans to their job: the runner's spans by the
/// config's seed (unique per miss job), each handler span to the client
/// exchange that carried it (the one of its job whose interval holds it),
/// and every other top-level span to its job's `bench.job` span. Request
/// ids are then moved past `req_base`, so they cannot collide with the
/// ids of the spans written beside them.
fn join_spans(spans: &mut [Span], done: &[Done], jobs: &[Job], req_base: u64) {
    let seed_to_id: BTreeMap<u64, u64> = done
        .iter()
        .zip(jobs)
        .filter(|(d, _)| d.id != 0)
        .map(|(d, j)| (j.seed, d.id))
        .collect();
    let root_of: BTreeMap<u64, SpanId> = spans
        .iter()
        .filter(|s| s.name == "bench.job")
        .map(|s| (s.req, s.id))
        .collect();
    let job_of_root: BTreeMap<SpanId, u64> = root_of.iter().map(|(&j, &r)| (r, j)).collect();
    for s in spans.iter_mut() {
        if matches!(
            s.name,
            "serve.runner" | "system.build" | "system.run" | "system.drop"
        ) {
            s.req = seed_to_id.get(&s.req).copied().unwrap_or(0);
        }
        if s.name == "bench.submit" {
            s.req = s
                .parent
                .and_then(|p| job_of_root.get(&p))
                .copied()
                .unwrap_or(0);
        }
    }
    let mut exchanges: BTreeMap<u64, Vec<(u64, u64, SpanId)>> = BTreeMap::new();
    for s in spans.iter() {
        if matches!(s.name, "bench.submit" | "bench.poll") {
            exchanges
                .entry(s.req)
                .or_default()
                .push((s.start_ns, s.end_ns, s.id));
        }
    }
    for s in spans.iter_mut() {
        if s.name == "serve.handle" {
            s.parent = exchanges.get(&s.req).and_then(|v| {
                v.iter()
                    .find(|(a, b, _)| *a <= s.start_ns && s.end_ns <= *b)
                    .map(|x| x.2)
            });
        }
        if s.parent.is_none() && s.name != "bench.job" {
            s.parent = root_of.get(&s.req).copied();
        }
        s.req += req_base;
    }
}

/// Runs the load once with the gateway's handler and runner and every
/// client exchange in spans on `tracer`, and reports the `serve.*` and
/// `gen.*` metrics. The spans it returns are all `tracer` holds at the
/// end; they carry request ids `req_base + job id` (`req_base` itself for
/// a request that names no job).
pub fn serve_load(ctx: &Ctx, tracer: &Arc<Tracer>, req_base: u64) -> Outcome {
    let mut out = Outcome::default();
    let rig = match set_up(ctx, ctx.scratch.join("serve"), tracer) {
        Ok(rig) => rig,
        Err(e) => {
            eprintln!("serve load set-up failed: {e}");
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let result = open_loop(&rig, tracer);
    out.attempted = rig.jobs.len() as u64 + rig.failed;
    out.failed = result.done.iter().filter(|d| !d.good).count() as u64 + rig.failed;
    let stats = client::get(rig.server.addr(), "/v1/stats")
        .map(|(_, b)| b)
        .unwrap_or_default();
    rig.server.stop();
    let cas_bytes = host::dir_bytes(&rig.root.join("cas"));

    // Store costs, replayed from outside on the schedule's payloads.
    let replay_dir = rig.root.join("cas-replay");
    let (get_us, put_us) = match Cas::open(&replay_dir) {
        Ok(cas) => {
            let payloads: Vec<(String, String)> = rig
                .jobs
                .iter()
                .take(200)
                .map(|j| {
                    (
                        bc_sim::sha256::hex_digest(j.body.as_bytes()),
                        (*j.want).clone(),
                    )
                })
                .collect();
            let per_us =
                |t: Instant| t.elapsed().as_secs_f64() * 1e6 / payloads.len().max(1) as f64;
            let t = Instant::now();
            for (k, p) in &payloads {
                let _ = cas.put(k, p);
            }
            let put = per_us(t);
            let t = Instant::now();
            for (k, _) in &payloads {
                std::hint::black_box(cas.get(k));
            }
            (per_us(t), put)
        }
        Err(_) => (0.0, 0.0),
    };
    let _ = std::fs::remove_dir_all(&rig.root);

    let mut spans = tracer.take();
    join_spans(&mut spans, &result.done, &rig.jobs, req_base);
    let m = &mut out.metrics;
    for (i, r) in ROUTES.iter().enumerate() {
        m.set(
            &format!("serve.http.requests.{r}"),
            rig.routes[i].load(Ordering::Relaxed) as f64,
            "count",
        );
    }
    let handles = span::count(&spans, "serve.handle").max(1) as f64;
    m.set(
        "serve.http.handle.us",
        span::busy_ms(&spans, "serve.handle") * 1e3 / handles,
        "us",
    );
    let rtt_us = result.rtt_ns.iter().sum::<u64>() as f64 / 1e3 / result.rtt_ns.len().max(1) as f64;
    m.set("serve.http.rtt.us", rtt_us, "us");
    let polls: u64 = result.done.iter().map(|d| d.polls).sum();
    m.set(
        "serve.poll.per_job",
        polls as f64 / result.done.len().max(1) as f64,
        "count",
    );
    m.set(
        "serve.runner.busy_ms",
        span::busy_ms(&spans, "serve.runner"),
        "ms",
    );
    let (hits, misses) = (stat_field(&stats, "hits"), stat_field(&stats, "misses"));
    m.set("serve.cas.hits", hits, "count");
    m.set("serve.cas.misses", misses, "count");
    m.set("serve.cas.puts", stat_field(&stats, "puts"), "count");
    m.set("serve.cas.corrupt", stat_field(&stats, "corrupt"), "count");
    m.set(
        "serve.cas.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.set("serve.cas.get.us", get_us, "us");
    m.set("serve.cas.put.us", put_us, "us");
    m.set("serve.cas.bytes", cas_bytes as f64, "bytes");
    m.set("gen.lag_ms.max", result.max_lag.as_secs_f64() * 1e3, "ms");
    // The load's own layer split: client and waiting (`bench`), gateway
    // handler and runner (`serve`), simulation of the misses (`system`).
    for (layer, ms) in span::self_ms_by_layer(&spans) {
        m.set(&format!("serve.self_ms.{layer}"), ms, "ms");
    }
    out.spans = spans;
    out
}
