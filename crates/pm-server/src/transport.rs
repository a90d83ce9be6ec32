//! Transports: the same [`ServerCore`] served over stdin/stdout or TCP.
//!
//! Both speak the identical line protocol — one JSON [`Request`] per input
//! line, one or more JSON [`Response`] lines per request. Malformed lines
//! answer with an `Error` response and the connection keeps serving; blank
//! lines and `#`-prefixed comment lines are ignored (scripts interleave
//! them freely).
//!
//! A request holds the core lock only while [`ServerCore::handle`] runs:
//! its line is parsed before the lock is taken, and its response lines are
//! serialized into one buffer and sent in one write after the lock is
//! released. Accepted TCP streams set `TCP_NODELAY`, so that write leaves
//! at once instead of waiting on the client's delayed ACK, and a client
//! that stops reading stalls only its own connection.
//!
//! The TCP transport is concurrent: every accepted connection gets its own
//! thread, all of them serializing requests through one shared
//! `Mutex<ServerCore>` (the core itself pumps sessions fairly, so one
//! client's long `run` cannot starve another session — only delay the
//! other client's next response). Connections read with a short timeout so
//! every thread notices shutdown promptly, and buffer at most
//! [`MAX_LINE_BYTES`] of one request line: a longer line is answered with
//! an `Error` naming the limit and the connection is closed. A write that
//! blocks past [`WRITE_TIMEOUT`] (a client that stopped reading) drops its
//! connection, so no connection thread outlives shutdown. `accept`
//! blocks: whoever raises the shutdown flag wakes each listener with one
//! connection to its own address, and repeated `accept` failures back off
//! exponentially instead of spinning. Both transports run the core's housekeeping (autosave,
//! idle-TTL eviction) on its configured cadence from a background tick
//! thread, and once more right before exiting, so a graceful shutdown
//! always leaves current checkpoint files behind.

use crate::protocol::{Request, Response};
use crate::server::ServerCore;
use crate::telemetry::{as_micros, ServerTelemetry};
use pm_telemetry::{error, info, trace, warn, Histogram};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The log target every transport-side line is tagged with.
const LOG: &str = "pm_server::transport";

/// How long a connection read blocks before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);
/// How often the housekeeping thread re-checks the shutdown flag.
const TICK: Duration = Duration::from_millis(10);
/// Accept-error backoff bounds: doubles from the floor to the ceiling.
const BACKOFF_FLOOR: Duration = Duration::from_millis(20);
const BACKOFF_CEILING: Duration = Duration::from_secs(1);
/// How long the shutdown wake-up connection to a listener may take.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long one write to a protocol connection may block. A client that
/// stops reading fills its socket buffers and then stalls the write; past
/// this the connection is dropped and counted in
/// `pm_server_write_timeouts_total`, so its thread ends and a graceful
/// shutdown, which joins every connection thread, still finishes.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The longest request line, newline excluded, that a protocol connection
/// buffers. Checkpoints are a few hundred bytes and scenario specs a few
/// kilobytes, so only a hostile or broken client comes near it.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Serves one connection: reads requests from `input` until EOF or a
/// `shutdown` verb, writing response lines to `output`. Returns `true` iff
/// the connection ended with `shutdown` (the caller should stop serving
/// entirely, not just this connection).
///
/// # Errors
///
/// Propagates I/O errors from the underlying reader or writer.
pub fn serve(
    core: &mut ServerCore,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<bool> {
    let telemetry = core.telemetry();
    let mut handle = |request, out: &mut Vec<Response>| core.handle(request, out);
    for line in input.lines() {
        if handle_line(&telemetry, &line?, &mut handle, &mut output)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Serves one request line: parses it, passes the request to `handle` —
/// the only step that touches the core, so a shared core is locked there
/// and nowhere else — and sends every response line in one write. Returns
/// `true` iff the line was a `shutdown` verb. Blank and comment lines are
/// no-ops.
fn handle_line(
    telemetry: &ServerTelemetry,
    line: &str,
    handle: impl FnOnce(Request, &mut Vec<Response>) -> bool,
    output: &mut impl Write,
) -> io::Result<bool> {
    telemetry.bytes_read.add(line.len() as u64);
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(false);
    }
    let mut responses = Vec::new();
    let shutdown = match serde_json::from_str::<Request>(line) {
        Ok(request) => handle(request, &mut responses),
        Err(e) => {
            telemetry.malformed_requests.inc();
            responses.push(Response::Error {
                message: format!("malformed request: {e}"),
            });
            false
        }
    };
    send(telemetry, responses, output)?;
    Ok(shutdown)
}

/// Sends every response line of one request in one write.
fn send(
    telemetry: &ServerTelemetry,
    responses: Vec<Response>,
    output: &mut impl Write,
) -> io::Result<()> {
    let mut batch = String::new();
    for response in responses {
        let json = serde_json::to_string(&response)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        batch.push_str(&json);
        batch.push('\n');
    }
    telemetry.bytes_written.add(batch.len() as u64);
    output.write_all(batch.as_bytes())?;
    output.flush()
}

/// The state every connection thread shares — protocol connections and the
/// HTTP observability listener alike.
pub(crate) struct Shared {
    core: Mutex<ServerCore>,
    telemetry: Arc<ServerTelemetry>,
    shutdown: AtomicBool,
    /// Every listener's bound address, connected to once on shutdown to
    /// wake its blocking `accept`.
    listeners: Vec<SocketAddr>,
}

impl Shared {
    pub(crate) fn new(core: ServerCore, listeners: Vec<SocketAddr>) -> Arc<Shared> {
        Arc::new(Shared {
            telemetry: core.telemetry(),
            core: Mutex::new(core),
            shutdown: AtomicBool::new(false),
            listeners,
        })
    }

    /// Locks the core, recording the wait in `pm_server_core_lock_wait_us`;
    /// the guard records the hold in `pm_server_core_lock_hold_us` when it
    /// drops.
    pub(crate) fn lock(&self) -> CoreGuard<'_> {
        let asked = Instant::now();
        // A poisoned mutex means a handler panicked; the core's state is
        // still a valid set of sessions (handlers don't leave partial
        // state), so keep serving the remaining clients.
        let core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let locked = Instant::now();
        self.telemetry
            .core_lock_wait_us
            .observe(as_micros(locked - asked));
        CoreGuard {
            core,
            locked,
            hold_us: &self.telemetry.core_lock_hold_us,
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Raises the shutdown flag and, the first time, wakes every
    /// listener's blocking `accept` with one connection to its address.
    fn shut_down(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for &addr in &self.listeners {
            if let Err(e) = TcpStream::connect_timeout(&wake_address(addr), WAKE_TIMEOUT) {
                warn!(LOG, "waking listener {addr} for shutdown: {e}");
            }
        }
    }

    /// Runs one final housekeeping sweep so shutdown leaves current
    /// checkpoint files on disk.
    fn final_sweep(&self) {
        let mut core = self.lock();
        if core.wants_housekeeping() {
            core.housekeeping();
        }
    }

    /// Spawns the periodic housekeeping tick, if the core wants one.
    /// Returns the handle to join after the shutdown flag is raised.
    fn spawn_housekeeping(self: &Arc<Self>) -> Option<thread::JoinHandle<()>> {
        let interval = {
            let core = self.lock();
            core.wants_housekeeping().then(|| core.autosave_interval())
        }?;
        let shared = Arc::clone(self);
        Some(thread::spawn(move || {
            let mut due = Instant::now() + interval;
            while !shared.shutting_down() {
                thread::sleep(TICK.min(interval));
                if Instant::now() >= due {
                    shared.lock().housekeeping();
                    due = Instant::now() + interval;
                }
            }
        }))
    }
}

/// The locked core; dropping it records how long the lock was held.
pub(crate) struct CoreGuard<'a> {
    core: MutexGuard<'a, ServerCore>,
    locked: Instant,
    hold_us: &'a Histogram,
}

impl Deref for CoreGuard<'_> {
    type Target = ServerCore;

    fn deref(&self) -> &ServerCore {
        &self.core
    }
}

impl DerefMut for CoreGuard<'_> {
    fn deref_mut(&mut self) -> &mut ServerCore {
        &mut self.core
    }
}

impl Drop for CoreGuard<'_> {
    fn drop(&mut self) {
        self.hold_us.observe(as_micros(self.locked.elapsed()));
    }
}

/// Where a connection reaches a listener bound to `addr`: an unspecified
/// bind address (`0.0.0.0`, `[::]`) is reached on loopback.
fn wake_address(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Accepts connections on `listener` until shutdown, serving each on its
/// own thread with `serve`, and joins them all before returning. `accept`
/// blocks until [`Shared::shut_down`] wakes it; accept errors back off
/// exponentially.
pub(crate) fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    serve: fn(&Shared, TcpStream, SocketAddr),
) {
    let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut backoff = BACKOFF_FLOOR;
    while !shared.shutting_down() {
        match listener.accept() {
            // The flag is raised before the wake-up connection is made, so
            // anything accepted after it is served no more.
            Ok(_) if shared.shutting_down() => break,
            Ok((stream, peer)) => {
                backoff = BACKOFF_FLOOR;
                let shared = Arc::clone(shared);
                workers.push(thread::spawn(move || serve(&shared, stream, peer)));
                workers.retain(|worker| !worker.is_finished());
            }
            Err(e) => {
                shared.telemetry.accept_errors.inc();
                error!(LOG, "accept error: {e} (backing off {backoff:?})");
                thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CEILING);
            }
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// Transport options beyond the protocol listener itself. The default
/// serves the protocol alone, exactly as before the options existed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeOptions<'a> {
    /// Bind the HTTP observability listener (`/healthz`, `/metrics`,
    /// `/stats`, `/trace`) on this address alongside the transport.
    pub http: Option<&'a str>,
}

/// Runs `serve` over the shared core with the HTTP listener (if asked for)
/// and the housekeeping tick beside it, then raises shutdown, joins both,
/// and runs the final housekeeping sweep. `protocol` is the protocol
/// listener's address, woken at shutdown with the HTTP listener's.
fn serve_shared(
    core: ServerCore,
    protocol: Option<SocketAddr>,
    options: ServeOptions<'_>,
    serve: impl FnOnce(&Arc<Shared>) -> io::Result<()>,
) -> io::Result<()> {
    let http = options.http.map(crate::http::bind).transpose()?;
    let listeners = protocol
        .into_iter()
        .chain(http.as_ref().map(|(_, addr)| *addr));
    let shared = Shared::new(core, listeners.collect());
    let http = http.map(|(listener, _)| crate::http::spawn(Arc::clone(&shared), listener));
    let housekeeper = shared.spawn_housekeeping();
    let result = serve(&shared);
    shared.shut_down();
    if let Some(housekeeper) = housekeeper {
        let _ = housekeeper.join();
    }
    if let Some(http) = http {
        let _ = http.join();
    }
    shared.final_sweep();
    result
}

/// Serves the core over stdin/stdout until EOF or `shutdown`, running
/// housekeeping (autosave, eviction) on the core's cadence in the
/// background and once more before returning.
///
/// # Errors
///
/// Propagates I/O errors from the standard streams.
pub fn serve_stdio(core: ServerCore) -> io::Result<()> {
    serve_stdio_with(core, ServeOptions::default())
}

/// [`serve_stdio`] with transport options (the HTTP observability
/// listener).
///
/// # Errors
///
/// Propagates I/O errors from the standard streams, and bind errors from
/// the HTTP listener.
pub fn serve_stdio_with(core: ServerCore, options: ServeOptions<'_>) -> io::Result<()> {
    serve_shared(core, None, options, |shared| {
        // The stdio pipe counts as one connection for its whole lifetime,
        // so the same dashboards cover both transports.
        let telemetry = &shared.telemetry;
        telemetry.connections_total.inc();
        telemetry.active_connections.add(1);
        let conn_span = trace::span("transport", "connection");
        let served = serve_lines(shared, io::stdin().lock(), io::stdout().lock());
        drop(conn_span);
        telemetry.active_connections.add(-1);
        served
    })
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
/// connections concurrently — one thread per connection over the shared
/// core — until one of them sends `shutdown`. Sessions persist across
/// connections: a client may submit, disconnect, and a later connection
/// resumes the same sessions. The bound address is announced on stderr as
/// an info-level log line containing `listening on ADDR` (tests scan for
/// that substring to learn the ephemeral port).
///
/// Per-connection I/O errors are logged to stderr with the peer address
/// and drop only that connection; `accept` errors back off exponentially.
/// On shutdown the listener stops accepting, every in-flight connection
/// thread drains and joins, and a final housekeeping sweep persists
/// whatever the autosave cadence had not yet written.
///
/// # Errors
///
/// Propagates bind errors and listener configuration failures.
pub fn serve_tcp(core: ServerCore, addr: &str) -> io::Result<SocketAddr> {
    serve_tcp_with(core, addr, ServeOptions::default())
}

/// [`serve_tcp`] with transport options (the HTTP observability listener).
/// The HTTP listener announces its own bound address the same way, as an
/// info log line containing `http listening on ADDR`.
///
/// # Errors
///
/// Propagates bind errors (protocol or HTTP) and listener configuration
/// failures.
pub fn serve_tcp_with(
    core: ServerCore,
    addr: &str,
    options: ServeOptions<'_>,
) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    info!(LOG, "listening on {local}");
    serve_shared(core, Some(local), options, |shared| {
        accept_loop(shared, &listener, serve_connection);
        Ok(())
    })?;
    Ok(local)
}

/// Serves one TCP connection, counted in the connection series. An I/O
/// error is logged with the peer address and drops only this connection.
fn serve_connection(shared: &Shared, stream: TcpStream, peer: SocketAddr) {
    let telemetry = &shared.telemetry;
    telemetry.connections_total.inc();
    telemetry.active_connections.add(1);
    let served = serve_stream(shared, stream);
    telemetry.active_connections.add(-1);
    if let Err(e) = served {
        // A dropped or misbehaving client is its own problem, not the
        // server's: log and keep serving.
        telemetry.connection_errors.inc();
        // Read timeouts are polls that `serve_lines` absorbs, so a timeout
        // that ends the connection is a write past `WRITE_TIMEOUT`.
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            telemetry.write_timeouts.inc();
        }
        warn!(LOG, "connection {peer}: {e}");
    }
}

/// Turns Nagle off and serves the stream's request lines. Reads time out
/// after [`READ_POLL`], so the thread notices shutdown raised elsewhere;
/// writes time out after [`WRITE_TIMEOUT`], which drops the connection.
fn serve_stream(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let _conn = trace::span("transport", "connection");
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    serve_lines(shared, BufReader::new(stream.try_clone()?), stream)
}

/// Serves request lines from `reader` until EOF, a `shutdown` verb (which
/// shuts the whole server down), shutdown raised elsewhere, or a line
/// longer than [`MAX_LINE_BYTES`] (answered with one `Error`, after which
/// the connection is closed). A read that times out keeps its partial
/// line until the newline arrives.
fn serve_lines(
    shared: &Shared,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<()> {
    let mut line = Vec::new();
    while !shared.shutting_down() {
        // One byte past the cap tells an oversize line from a full one.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break, // EOF: client hung up (possibly mid-line).
            Ok(_) if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") => {
                let telemetry = &shared.telemetry;
                telemetry.bytes_read.add(line.len() as u64);
                telemetry.oversize_lines.inc();
                let error = Response::Error {
                    message: format!(
                        "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
                    ),
                };
                return send(telemetry, vec![error], &mut writer);
            }
            // A whole line, or the last one before EOF.
            Ok(_) => {
                let text = std::str::from_utf8(&line).map_err(|_| {
                    io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
                })?;
                let handle = |request, out: &mut Vec<Response>| shared.lock().handle(request, out);
                if handle_line(&shared.telemetry, text, handle, &mut writer)? {
                    shared.shut_down();
                }
                line.clear();
            }
            // Timeout (reported as either kind, platform-dependent): the
            // partial line stays buffered; go check the shutdown flag.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Writes;
    use pm_scenarios::{GeneratorSpec, ScenarioSpec};

    fn submit_line() -> String {
        serde_json::to_string(&Request::Submit {
            spec: ScenarioSpec::new("s", GeneratorSpec::Hexagon { radius: 2 }),
        })
        .unwrap()
    }

    #[test]
    fn malformed_and_comment_lines_keep_the_connection_serving() {
        let mut core = ServerCore::default();
        let script = "# a comment\n\nnot json\n\"Sessions\"\n";
        let mut out = Vec::new();
        let shutdown = serve(&mut core, script.as_bytes(), &mut out).unwrap();
        assert!(!shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("malformed request"));
        assert!(lines[1].contains("sessions"));
    }

    #[test]
    fn shutdown_stops_the_stream_after_bye() {
        let mut core = ServerCore::default();
        let script = format!("{}\n\"Shutdown\"\n\"Shutdown\"\n", submit_line());
        let mut out = Vec::new();
        let shutdown = serve(&mut core, script.as_bytes(), &mut out).unwrap();
        assert!(shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "nothing served after Bye");
        assert!(lines[1].contains("Bye"));
    }

    /// Records every `write` call, each of which must find the core lock
    /// free.
    struct Unlocked<'a> {
        shared: &'a Shared,
        writes: Writes,
    }

    impl Write for Unlocked<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            assert!(
                self.shared.core.try_lock().is_ok(),
                "a response was written under the core lock"
            );
            self.writes.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.writes.flush()
        }
    }

    #[test]
    fn each_request_is_answered_in_one_write_made_without_the_core_lock() {
        let shared = Shared::new(ServerCore::default(), Vec::new());
        let watch = serde_json::to_string(&Request::Watch {
            session: 1,
            rounds: 2,
        })
        .unwrap();
        let script = format!("{}\n# a comment\n{watch}\nnot json\n", submit_line());
        let mut writer = Unlocked {
            shared: &shared,
            writes: Writes::default(),
        };
        serve_lines(&shared, script.as_bytes(), &mut writer).unwrap();
        let writes = writer.writes.0;
        assert_eq!(writes.len(), 3, "one write per request: {writes:?}");
        assert!(writes.iter().all(|write| write.ends_with('\n')));
        assert!(writes[0].contains("Submitted"));
        let watched: Vec<&str> = writes[1].lines().collect();
        assert_eq!(watched.len(), 3, "two rounds and the final status");
        assert!(watched[..2].iter().all(|line| line.contains("Round")));
        assert_eq!(writes[2].lines().count(), 1);
        assert!(writes[2].contains("malformed request"));
    }

    #[test]
    fn every_request_records_a_core_lock_wait_and_hold() {
        const REQUESTS: usize = 5;
        let shared = Shared::new(ServerCore::default(), Vec::new());
        let script = format!("{}\"Metrics\"\n", "\"Sessions\"\n".repeat(REQUESTS));
        let mut out = Vec::new();
        serve_lines(&shared, script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let scrape = text.lines().last().unwrap();
        let Response::Metrics { metrics, .. } = serde_json::from_str(scrape).unwrap() else {
            panic!("expected Metrics, got {scrape}");
        };
        for name in ["pm_server_core_lock_wait_us", "pm_server_core_lock_hold_us"] {
            let count = metrics
                .histograms
                .iter()
                .find(|h| h.name == name)
                .map_or(0, |h| h.count);
            assert!(
                count >= REQUESTS as u64,
                "{name} counted {count} of {REQUESTS}"
            );
        }
    }

    /// Yields its chunks in order and times out before each one, the way
    /// a TCP read with a timeout does while the client pauses.
    struct Stutter {
        chunks: Vec<Vec<u8>>,
        paused: bool,
    }

    impl Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.chunks.first_mut() else {
                return Ok(0);
            };
            if !self.paused {
                self.paused = true;
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(chunk.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.chunks.remove(0);
                self.paused = false;
            }
            Ok(n)
        }
    }

    fn oversize_count(shared: &Shared) -> u64 {
        let metrics = shared.telemetry.snapshot();
        metrics
            .counters
            .iter()
            .find(|c| c.name == "pm_server_oversize_lines_total")
            .map_or(0, |c| c.value)
    }

    #[test]
    fn lines_past_the_cap_get_one_error_and_close_the_connection() {
        let shared = Shared::new(ServerCore::default(), Vec::new());
        // A line of exactly the cap is served (as malformed), and so is a
        // request split across read timeouts.
        let full = "x".repeat(MAX_LINE_BYTES);
        let chunks = [
            format!("{full}\n\"Sess"),
            "ions\"\n".to_string(),
            "y".repeat(2 * MAX_LINE_BYTES),
            "\n\"Sessions\"\n".to_string(),
        ];
        let reader = Stutter {
            chunks: chunks.map(String::into_bytes).to_vec(),
            paused: false,
        };
        let mut out = Vec::new();
        serve_lines(&shared, BufReader::new(reader), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("malformed request"), "{}", lines[0]);
        assert!(lines[1].contains("Sessions"), "{}", lines[1]);
        assert!(
            lines[2].contains(&format!("exceeds {MAX_LINE_BYTES} bytes")),
            "{}",
            lines[2]
        );
        assert_eq!(oversize_count(&shared), 1);
    }

    #[test]
    fn unspecified_bind_addresses_are_woken_on_loopback() {
        let woken = |addr: &str| wake_address(addr.parse().unwrap()).to_string();
        assert_eq!(woken("0.0.0.0:7000"), "127.0.0.1:7000");
        assert_eq!(woken("[::]:7000"), "[::1]:7000");
        assert_eq!(woken("10.1.2.3:7000"), "10.1.2.3:7000");
    }
}
