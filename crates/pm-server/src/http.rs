//! The HTTP/1.1 observability listener: a hand-rolled, GET-only,
//! std-`TcpListener` sidecar so ordinary scrape tooling (`curl`,
//! Prometheus, a browser) can read the server without speaking the line
//! protocol.
//!
//! Routes:
//!
//! * `GET /healthz` — liveness: `200 ok`.
//! * `GET /metrics` — the registry in Prometheus text exposition; the
//!   exact snapshot the `metrics` verb returns (both go through
//!   [`ServerCore::metrics_snapshot`]), so the two scrape surfaces can
//!   never drift apart.
//! * `GET /stats` — the [`ServerStats`] struct behind the `stats` verb as
//!   a JSON object.
//! * `GET /trace` — drains the installed trace recorder as Chrome
//!   trace-event JSON (load in Perfetto or `chrome://tracing`); an empty
//!   but valid document when no recorder is installed.
//!
//! Everything else answers `404`; non-GET methods answer `405`; a request
//! line that is not `METHOD TARGET VERSION` answers `400`. Every response
//! carries `Content-Length` and `Connection: close` — one request per
//! connection keeps the parser trivial and scrape clients do exactly that
//! anyway.
//!
//! Like the `stats` and `metrics` verbs, nothing served here is
//! byte-reproducible; the listener exists for operators, not for golden
//! transcripts.
//!
//! [`ServerCore::metrics_snapshot`]: crate::server::ServerCore::metrics_snapshot
//! [`ServerStats`]: crate::protocol::ServerStats

use crate::transport::{accept_loop, Shared};
use pm_telemetry::{info, trace, warn};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The log target every HTTP-side line is tagged with.
const LOG: &str = "pm_server::http";

/// Hard per-connection read budget: a stalled scraper is dropped, it
/// cannot wedge the listener thread serving it.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Longest accepted request head (request line + headers). Scrape requests
/// are a few hundred bytes; anything bigger is a client error.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// Binds `addr` and announces `http listening on ADDR` (tests scan for
/// that substring to learn the ephemeral port).
pub(crate) fn bind(addr: &str) -> io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    info!(LOG, "http listening on {local}");
    Ok((listener, local))
}

/// Spawns the accept loop serving `listener` until the shared shutdown
/// flag is raised; join the returned handle after raising it. Each
/// connection gets its own thread — scrapes are tiny, but one stalled
/// client must not block the next one.
pub(crate) fn spawn(shared: Arc<Shared>, listener: TcpListener) -> thread::JoinHandle<()> {
    thread::spawn(move || accept_loop(&shared, &listener, serve_connection))
}

/// Serves one scrape connection, logging its failure.
fn serve_connection(shared: &Shared, stream: TcpStream, peer: SocketAddr) {
    if let Err(e) = serve_request(shared, stream) {
        warn!(LOG, "http connection {peer}: {e}");
    }
}

/// Reads one request head and writes one response; the connection closes
/// either way.
fn serve_request(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let _span = trace::span("transport", "http");
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?).take(MAX_HEAD_BYTES);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line)? == 0 {
        return Ok(()); // Client connected and hung up: not an error.
    }
    // Drain the header block so well-behaved clients see a clean close
    // (ignore errors: the response does not depend on the headers).
    let mut header = String::new();
    while matches!(reader.read_line(&mut header), Ok(n) if n > 2) {
        header.clear();
    }
    let mut writer = stream;
    let (status, content_type, body) = route(shared, &request_line);
    respond(&mut writer, status, content_type, &body)
}

/// Maps one request line to `(status line, content type, body)`.
fn route(shared: &Shared, request_line: &str) -> (&'static str, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), Some(version), None) if version.starts_with("HTTP/") => {
            (method, target, version)
        }
        _ => {
            return (
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "malformed request line\n".to_string(),
            )
        }
    };
    let _ = version;
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            format!("method {method} not allowed; this listener is GET-only\n"),
        );
    }
    // Scrape tools may append query strings (`/metrics?format=…`); the
    // listener ignores them.
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        "/metrics" => {
            let snapshot = shared.lock().metrics_snapshot();
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                snapshot.to_prometheus(),
            )
        }
        "/stats" => {
            let stats = shared.lock().server_stats();
            match serde_json::to_string(&stats) {
                Ok(json) => ("200 OK", "application/json", json),
                Err(e) => (
                    "500 Internal Server Error",
                    "text/plain; charset=utf-8",
                    format!("serialize stats: {e}\n"),
                ),
            }
        }
        "/trace" => (
            "200 OK",
            "application/json",
            trace::drain().to_chrome_json(),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no route {path}; try /healthz, /metrics, /stats, /trace\n"),
        ),
    }
}

/// Writes one complete HTTP/1.1 response, head and body, in one write and
/// flushes.
fn respond(
    writer: &mut impl Write,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerCore;
    use crate::testing::Writes;

    fn shared() -> Arc<Shared> {
        Shared::new(ServerCore::default(), Vec::new())
    }

    #[test]
    fn routes_cover_the_documented_surface() {
        let shared = shared();
        let (status, _, body) = route(&shared, "GET /healthz HTTP/1.1\r\n");
        assert_eq!(status, "200 OK");
        assert_eq!(body, "ok\n");
        let (status, content_type, body) = route(&shared, "GET /metrics HTTP/1.1\r\n");
        assert_eq!(status, "200 OK");
        assert!(content_type.contains("version=0.0.4"));
        assert!(body.contains("pm_server_verb_latency_us"));
        let (status, content_type, body) = route(&shared, "GET /stats HTTP/1.1\r\n");
        assert_eq!(status, "200 OK");
        assert_eq!(content_type, "application/json");
        assert!(body.contains("\"sessions\":0"));
        let (status, _, body) = route(&shared, "GET /trace HTTP/1.1\r\n");
        assert_eq!(status, "200 OK");
        assert!(body.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn query_strings_are_ignored_in_routing() {
        let shared = shared();
        let (status, _, _) = route(&shared, "GET /healthz?probe=1 HTTP/1.1\r\n");
        assert_eq!(status, "200 OK");
    }

    #[test]
    fn bad_requests_get_4xx_without_panicking() {
        let shared = shared();
        let (status, _, _) = route(&shared, "not an http request\r\n");
        assert_eq!(status, "400 Bad Request");
        let (status, _, _) = route(&shared, "\r\n");
        assert_eq!(status, "400 Bad Request");
        let (status, _, _) = route(&shared, "GET /healthz\r\n");
        assert_eq!(status, "400 Bad Request", "missing HTTP version");
        let (status, _, _) = route(&shared, "POST /metrics HTTP/1.1\r\n");
        assert_eq!(status, "405 Method Not Allowed");
        let (status, _, body) = route(&shared, "GET /nope HTTP/1.1\r\n");
        assert_eq!(status, "404 Not Found");
        assert!(body.contains("/metrics"));
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Writes::default();
        respond(&mut out, "200 OK", "text/plain; charset=utf-8", "ok\n").unwrap();
        let [text] = out.0.as_slice() else {
            panic!("head and body in one write: {:?}", out.0);
        };
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }
}
