//! A deliberately small HTTP/1.1 server and client over `std::net`.
//!
//! The gateway only needs loopback JSON plumbing: short-lived
//! one-request-per-connection exchanges between `bc-serve` and local
//! tooling/tests. So this speaks exactly that dialect — request line +
//! headers + `Content-Length` body in, status + headers + body out,
//! `Connection: close` always — and rejects everything else with a 4xx
//! rather than guessing. No keep-alive, no chunked encoding, no TLS;
//! pulling a real HTTP stack into a no-network build container is not an
//! option, and the test suite exercises this one end to end.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bc_experiments::schema::json;

/// Largest accepted request body — sweeps are submitted by name or as one
/// canonical config, so anything bigger is a client bug, not a job.
const MAX_BODY: usize = 1 << 20;
/// Largest accepted header section.
const MAX_HEADER: usize = 16 << 10;
/// Per-connection socket timeout: a stalled peer must not wedge its
/// handler thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path without the query string (`/v1/jobs/3`).
    pub path: String,
    /// Raw query string after `?`, empty if none.
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

impl Request {
    /// The value of query parameter `name`, if present (`a=1&b=2` form;
    /// no percent-decoding — the API's values never need it).
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }
}

/// One response to write.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// An `application/json` response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A `text/plain` response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// The standard error shape: `{"error": "..."}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, json::object(&[("error", json::quote(message))]))
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Reads and parses one request from `stream`. `Err` carries the 4xx
/// response the caller should still try to send.
fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|_| Response::error(500, "connection clone failed"))?,
    );

    let mut head = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|_| Response::error(400, "unreadable request head"))?;
        if n == 0 {
            return Err(Response::error(400, "connection closed mid-request"));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
        if head.len() > MAX_HEADER {
            return Err(Response::error(413, "header section too large"));
        }
    }

    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| Response::error(400, "empty request"))?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(Response::error(400, "malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(Response::error(400, "unsupported protocol version"));
    }

    let mut content_length = 0usize;
    for header in lines {
        let Some((name, value)) = header.split_once(':') else {
            return Err(Response::error(400, "malformed header line"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| Response::error(400, "malformed Content-Length"))?;
        }
    }
    if content_length > MAX_BODY {
        return Err(Response::error(413, "request body too large"));
    }

    let mut body_bytes = vec![0u8; content_length];
    reader
        .read_exact(&mut body_bytes)
        .map_err(|_| Response::error(400, "body shorter than Content-Length"))?;
    let body = String::from_utf8(body_bytes)
        .map_err(|_| Response::error(400, "request body is not UTF-8"))?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        body,
    })
}

fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

fn handle_connection(mut stream: TcpStream, handler: &(dyn Fn(&Request) -> Response + Sync)) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&mut stream) {
        // A panicking handler must not take the server down with it: the
        // panic is contained to this connection and answered with a 500.
        Ok(request) => match catch_unwind(AssertUnwindSafe(|| handler(&request))) {
            Ok(response) => response,
            Err(_) => Response::error(500, "handler panicked"),
        },
        Err(rejection) => rejection,
    };
    let _ = write_response(&mut stream, &response);
}

/// A running listener: an accept loop on its own thread, one short-lived
/// thread per connection.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `handler` in the background.
    pub fn start(
        addr: &str,
        handler: Arc<dyn Fn(&Request) -> Response + Send + Sync>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || handle_connection(stream, handler.as_ref()));
            }
        });
        Ok(Server { addr, stop })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop to exit. The loop notices on its next
    /// connection, so a dummy connect nudges it awake.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
