//! End-to-end gateway tests over real loopback HTTP.
//!
//! Every suite here starts a live [`bc_serve::Server`] on an ephemeral
//! port with a fresh cache directory and talks to it through
//! [`bc_serve::client`] — the same socket path `bc-serve` serves in
//! production. The core property, asserted throughout: a report served by
//! the gateway (cold or from cache) is **byte-identical** to a direct
//! in-process `schema::encode_report(&System::build(..).run())` of the
//! same cell.

// Test driver: failing fast on setup errors is correct here.
#![allow(clippy::unwrap_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bc_experiments::{matrices, schema};
use bc_serve::{client, Cas, Gateway, Request, Runner, Server};
use bc_system::{System, SystemConfig};
use bc_workloads::WorkloadSize;

struct TestServer {
    server: Server,
    cache_dir: PathBuf,
}

impl TestServer {
    fn start(tag: &str, workers: usize, runner: Option<Runner>) -> TestServer {
        let cache_dir =
            std::env::temp_dir().join(format!("bc-gateway-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let gateway = match runner {
            Some(runner) => Gateway::with_runner(&cache_dir, workers, runner),
            None => Gateway::new(&cache_dir, workers),
        }
        .unwrap();
        let handler = Arc::new(move |req: &Request| gateway.handle(req));
        let server = Server::start("127.0.0.1:0", handler).unwrap();
        TestServer { server, cache_dir }
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

fn submit(addr: std::net::SocketAddr, spec: &str) -> u64 {
    let (status, body) = client::post(addr, "/v1/jobs", spec).unwrap();
    assert_eq!(status, 200, "submit rejected: {body}");
    body.split(|c: char| !c.is_ascii_digit())
        .find(|s| !s.is_empty())
        .unwrap()
        .parse()
        .unwrap()
}

fn cell_body(addr: std::net::SocketAddr, job: u64, i: usize) -> String {
    let (status, body) = client::get(addr, &format!("/v1/jobs/{job}/cells/{i}")).unwrap();
    assert_eq!(status, 200, "cell {i} of job {job}: {body}");
    body
}

/// The attacks matrix at tiny size, exactly as the gateway builds it
/// from `{"matrix": "attacks", "size": "tiny"}`.
fn attacks_cells() -> Vec<(String, SystemConfig)> {
    matrices::attacks(WorkloadSize::Tiny)
        .audit(false)
        .shards(1)
        .cells()
        .into_iter()
        .map(|c| (c.label, c.config))
        .collect()
}

fn direct_report(config: &SystemConfig) -> String {
    schema::encode_report(&System::build(config).unwrap().run())
}

#[test]
fn submit_poll_fetch_lifecycle_matches_direct_runs() {
    let ts = TestServer::start("lifecycle", 4, None);
    let addr = ts.addr();

    let job = submit(addr, "{\"matrix\": \"attacks\", \"size\": \"tiny\"}");
    let status = client::wait_for_job(addr, job).unwrap();
    assert!(status.contains("\"state\": \"done\""), "{status}");
    assert!(status.contains("\"failures\": 0"), "{status}");

    let cells = attacks_cells();
    assert!(status.contains(&format!("\"cells\": {}", cells.len())));

    // Every served report is byte-identical to an in-process run.
    for (i, (label, config)) in cells.iter().enumerate() {
        let served = cell_body(addr, job, i);
        assert_eq!(
            served,
            direct_report(config),
            "cell {i} ({label}) drifted from the direct run"
        );
    }

    // The advertised keys are the CAS keys of exactly these configs.
    let (status, keys) = client::get(addr, &format!("/v1/jobs/{job}/keys")).unwrap();
    assert_eq!(status, 200);
    for (_, config) in &cells {
        assert!(
            keys.contains(&Cas::key_for(config)),
            "missing key for {}",
            config.workload
        );
    }

    // Progress events cover every cell and the terminal state.
    let (status, events) = client::get(addr, &format!("/v1/jobs/{job}/events")).unwrap();
    assert_eq!(status, 200);
    let lines: Vec<&str> = events.lines().collect();
    assert_eq!(lines.len(), cells.len() + 1, "{events}");
    assert!(lines
        .iter()
        .any(|l| l.contains(&format!("[{}/{}]", cells.len(), cells.len()))));
    assert!(lines.last().unwrap().contains("done"));
    // Incremental polling: `from` skips what we've already seen.
    let (_, tail) = client::get(
        addr,
        &format!("/v1/jobs/{job}/events?from={}", lines.len() - 1),
    )
    .unwrap();
    assert_eq!(tail.lines().count(), 1);
}

/// A gateway over a byte-bounded store with a trace-replay runner:
/// served bytes still match direct runs exactly (replay identity), and
/// `/v1/stats` surfaces the eviction counters a churning store racks up.
#[test]
fn bounded_trace_replay_gateway_serves_identical_bytes_and_reports_evictions() {
    let tag = format!("bounded-replay-{}", std::process::id());
    let cache_dir = std::env::temp_dir().join(format!("bc-gateway-cache-{tag}"));
    let trace_dir = std::env::temp_dir().join(format!("bc-gateway-traces-{tag}"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);

    // Budget below one report's size: every put immediately churns, so
    // eviction counters must be visible after a single job.
    let cas = Cas::open_bounded(&cache_dir, Some(64)).unwrap();
    let source = Arc::new(bc_trace::TraceDir::open(&trace_dir).unwrap());
    let gateway = Gateway::with_cas(cas, 2, Gateway::replay_runner(source));
    let handler = Arc::new(move |req: &Request| gateway.handle(req));
    let server = Server::start("127.0.0.1:0", handler).unwrap();
    let addr = server.addr();

    let job = submit(addr, "{\"matrix\": \"attacks\", \"size\": \"tiny\"}");
    let status = client::wait_for_job(addr, job).unwrap();
    assert!(status.contains("\"state\": \"done\""), "{status}");

    for (i, (label, config)) in attacks_cells().iter().enumerate() {
        assert_eq!(
            cell_body(addr, job, i),
            direct_report(config),
            "cell {i} ({label}) drifted under trace replay"
        );
    }

    let (code, stats) = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(code, 200);
    assert!(stats.contains("\"evictions\": "), "{stats}");
    assert!(stats.contains("\"evicted_bytes\": "), "{stats}");
    assert!(
        !stats.contains("\"evictions\": 0,"),
        "a 64-byte budget must have evicted: {stats}"
    );

    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

#[test]
fn warm_resubmission_serves_identical_bytes_from_cache() {
    let ts = TestServer::start("warm", 4, None);
    let addr = ts.addr();
    let spec = "{\"matrix\": \"attacks\", \"size\": \"tiny\"}";

    let cold = submit(addr, spec);
    assert!(client::wait_for_job(addr, cold).unwrap().contains("done"));
    let warm = submit(addr, spec);
    let warm_status = client::wait_for_job(addr, warm).unwrap();

    let n = attacks_cells().len();
    assert!(
        warm_status.contains(&format!("\"hits\": {n}")),
        "warm pass not served from cache: {warm_status}"
    );
    for i in 0..n {
        assert_eq!(
            cell_body(addr, cold, i),
            cell_body(addr, warm, i),
            "cell {i}: warm bytes differ from cold bytes"
        );
    }

    let (_, stats) = client::get(addr, "/v1/stats").unwrap();
    assert!(stats.contains(&format!("\"hits\": {n}")), "{stats}");
    assert!(stats.contains(&format!("\"puts\": {n}")), "{stats}");
}

#[test]
fn single_cell_jobs_speak_the_canonical_schema() {
    let ts = TestServer::start("cell", 1, None);
    let addr = ts.addr();

    let (_, config) = attacks_cells().into_iter().next().unwrap();
    let job = submit(addr, &schema::encode_config(&config));
    assert!(client::wait_for_job(addr, job).unwrap().contains("done"));
    let served = cell_body(addr, job, 0);
    assert_eq!(served, direct_report(&config));

    // The served bytes decode back through the schema module.
    let report = schema::decode_report(&served).unwrap();
    assert_eq!(schema::encode_report(&report), served);
}

/// A single-cell job is labelled `cell/<workload>`, and the workload is
/// client input: quotes, backslashes and control characters in it must
/// come back escaped, so status and cancel responses stay valid JSON
/// that carries the label unchanged.
#[test]
fn client_supplied_job_labels_are_escaped() {
    let ts = TestServer::start("label", 1, None);
    let addr = ts.addr();

    let mut config = SystemConfig::table3_defaults();
    config.workload = "a\"b\nc\\d\u{1}".to_string();
    let want = format!("cell/{}", config.workload);
    let job = submit(addr, &schema::encode_config(&config));
    let status = client::wait_for_job(addr, job).unwrap();
    let (_, cancelled) = client::post(addr, &format!("/v1/jobs/{job}/cancel"), "").unwrap();
    for body in [status, cancelled] {
        let value = schema::json::parse(&body)
            .unwrap_or_else(|e| panic!("response is not JSON ({e}): {body}"));
        assert_eq!(
            value.get("label").and_then(|v| v.as_str()),
            Some(want.as_str()),
            "{body}"
        );
    }
}

#[test]
fn concurrent_clients_racing_the_same_sweep_agree_byte_for_byte() {
    let ts = TestServer::start("race", 4, None);
    let addr = ts.addr();
    let spec = "{\"matrix\": \"attacks\", \"size\": \"tiny\"}";
    let n = attacks_cells().len();

    // Four clients submit the same overlapping sweep at once.
    let jobs: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(move || submit(addr, spec)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for &job in &jobs {
        let status = client::wait_for_job(addr, job).unwrap();
        assert!(status.contains("\"state\": \"done\""), "{status}");
        assert!(status.contains("\"failures\": 0"), "{status}");
    }

    // All four saw the same bytes for every cell, and those bytes match
    // the direct run — racing writers of one key store identical objects.
    let cells = attacks_cells();
    for (i, (label, config)) in cells.iter().enumerate() {
        let want = direct_report(config);
        for &job in &jobs {
            assert_eq!(
                cell_body(addr, job, i),
                want,
                "job {job}, cell {i} ({label}) diverged under racing clients"
            );
        }
    }

    // The store holds exactly one object per distinct cell.
    let (_, stats) = client::get(addr, "/v1/stats").unwrap();
    assert!(stats.contains("\"jobs\": 4"), "{stats}");
    let objects = std::fs::read_dir(&ts.cache_dir).unwrap().count();
    assert_eq!(objects, n, "store should hold one object per cell");
}

#[test]
fn malformed_requests_are_rejected_not_served() {
    let ts = TestServer::start("malformed", 1, None);
    let addr = ts.addr();

    // Body-level rejections, all 400.
    for bad in [
        "not json at all",
        "{\"matrix\": \"fig99\", \"size\": \"tiny\"}",
        "{\"matrix\": \"fig4\", \"size\": \"galactic\"}",
        "{\"matrix\": \"fig4\", \"size\": \"tiny\", \"zeed\": 1}",
        "{\"matrix\": 7}",
        "{\"shards\": 2}",
        "{\"schema\": 99}",
        "[1, 2, 3]",
    ] {
        let (status, body) = client::post(addr, "/v1/jobs", bad).unwrap();
        assert_eq!(status, 400, "accepted {bad:?}: {body}");
        assert!(body.contains("\"error\""), "{body}");
    }

    // Routing rejections.
    assert_eq!(client::get(addr, "/v1/nope").unwrap().0, 404);
    assert_eq!(client::get(addr, "/v1/jobs/999").unwrap().0, 404);
    assert_eq!(client::get(addr, "/v1/jobs/xyz").unwrap().0, 400);
    assert_eq!(client::get(addr, "/v1/jobs/999/cells/0").unwrap().0, 404);
    assert_eq!(
        client::post(addr, "/v1/jobs/999/cancel", "").unwrap().0,
        404
    );

    // Raw protocol garbage gets a 400, not a hang or a crash.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // A body shorter than its Content-Length is a 400 once the socket
    // closes, not an infinite wait.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // After all that abuse the server still serves real work.
    let job = submit(addr, "{\"matrix\": \"fig5\", \"size\": \"tiny\"}");
    assert!(client::wait_for_job(addr, job).unwrap().contains("done"));
}

#[test]
fn worker_panic_marks_the_job_failed_and_the_server_survives() {
    // A runner that panics on one workload and simulates the rest.
    let default = Gateway::default_runner();
    let panicking: Runner = Arc::new(move |config: &SystemConfig| {
        assert!(config.workload != "lud", "injected panic for lud");
        default(config)
    });
    let ts = TestServer::start("panic", 2, Some(panicking));
    let addr = ts.addr();

    let job = submit(addr, "{\"matrix\": \"fig5\", \"size\": \"tiny\"}");
    let status = client::wait_for_job(addr, job).unwrap();
    assert!(status.contains("\"state\": \"failed\""), "{status}");
    assert!(status.contains("\"failures\": 1"), "{status}");

    // The poisoned cell reports its panic; its siblings completed and
    // still serve correct bytes.
    let cells: Vec<(String, SystemConfig)> = matrices::fig5(WorkloadSize::Tiny)
        .audit(false)
        .shards(1)
        .cells()
        .into_iter()
        .map(|c| (c.label, c.config))
        .collect();
    let lud = cells.iter().position(|(_, c)| c.workload == "lud").unwrap();
    let (status, body) = client::get(addr, &format!("/v1/jobs/{job}/cells/{lud}")).unwrap();
    assert_eq!(status, 409);
    assert!(body.contains("panic"), "{body}");
    for (i, (_, config)) in cells.iter().enumerate() {
        if i != lud {
            assert_eq!(cell_body(addr, job, i), direct_report(config));
        }
    }

    // The server (and its pool) is alive: the same sweep resubmitted
    // completes every healthy cell again.
    let retry = submit(addr, "{\"matrix\": \"fig5\", \"size\": \"tiny\"}");
    let retry_status = client::wait_for_job(addr, retry).unwrap();
    assert!(retry_status.contains("\"failures\": 1"), "{retry_status}");
    assert!(
        retry_status.contains(&format!("\"hits\": {}", cells.len() - 1)),
        "healthy cells should now be cache hits: {retry_status}"
    );
}

#[test]
fn cancellation_stops_scheduling_and_is_observable() {
    // A slow runner (with a cell counter) so cancellation lands while
    // the job is mid-flight on one worker.
    let started = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&started);
    let default = Gateway::default_runner();
    let slow: Runner = Arc::new(move |config: &SystemConfig| {
        counter.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(40));
        default(config)
    });
    let ts = TestServer::start("cancel", 1, Some(slow));
    let addr = ts.addr();

    let job = submit(addr, "{\"matrix\": \"fig5\", \"size\": \"tiny\"}");
    // Wait until the pool has demonstrably started, then cancel.
    while started.load(Ordering::Relaxed) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, body) = client::post(addr, &format!("/v1/jobs/{job}/cancel"), "").unwrap();
    assert_eq!(status, 200, "{body}");

    let final_status = client::wait_for_job(addr, job).unwrap();
    assert!(
        final_status.contains("\"state\": \"cancelled\""),
        "{final_status}"
    );
    // 7 workloads at 40ms+ each on one worker: cancellation must have
    // dropped at least the tail of the queue.
    let ran = started.load(Ordering::Relaxed);
    assert!(
        ran < 7,
        "cancel did not stop scheduling (ran {ran}/7 cells)"
    );

    // Unran cells answer 409 cancelled; completed ones still serve.
    let (_, events) = client::get(addr, &format!("/v1/jobs/{job}/events")).unwrap();
    assert!(events.contains("(cancelled"), "{events}");
    let last = client::get(addr, &format!("/v1/jobs/{job}/cells/6")).unwrap();
    assert_eq!(last.0, 409, "{}", last.1);
}
