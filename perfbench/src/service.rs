//! The service path: closed-loop clients driving sessions through an
//! in-process TCP session server — client → TCP → parse → core lock →
//! sweep → serialize → client.
//!
//! Each client owns one connection and runs the session `pm-scenarios
//! load` runs, over and over: submit its next input, run it to the report,
//! cancel it. A session's latency runs from sending the submit to
//! receiving the report.

use crate::library;
use crate::stats::{mean, median, ms, quantile, Metric};
use crate::Inputs;
use pm_core::api::RunReport;
use pm_scenarios::ScenarioSpec;
use pm_server::{Request, Response, ServerCore};
use std::fmt::Debug;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The `pm-scenarios serve` defaults on a two-core machine: 64 steps per
/// session per sweep, two sweep threads.
const SLICE_STEPS: u64 = 64;
const SWEEP_THREADS: usize = 2;
/// How long a client waits for the server to listen, or for a response.
const PATIENCE: Duration = Duration::from_secs(30);
/// The verbs a session sends; their server-side latencies are the
/// `server_ms` layer.
const SESSION_VERBS: [&str; 3] = ["submit", "run", "cancel"];

/// One protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Conn> {
        // Each request leaves in one write, so Nagle's algorithm never
        // holds the client's side: the delays measured are the server's.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(PATIENCE))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends `request` in one write and reads its responses through the
    /// final one, appending the round trip to `latency_ms`.
    fn request(
        &mut self,
        request: &Request,
        latency_ms: &mut Vec<f64>,
    ) -> Result<Vec<Response>, String> {
        let mut line = serde_json::to_string(request).map_err(|e| format!("encode: {e}"))?;
        line.push('\n');
        let sent = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut responses = Vec::new();
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return Err("the server hung up".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            let response: Response =
                serde_json::from_str(self.line.trim_end()).map_err(|e| format!("decode: {e}"))?;
            let last = response.is_final();
            responses.push(response);
            if last {
                break;
            }
        }
        latency_ms.push(ms(sent.elapsed()));
        Ok(responses)
    }
}

/// The start of a value's debug form (a report lists every particle).
fn brief(value: &impl Debug) -> String {
    format!("{value:?}").chars().take(240).collect()
}

/// A client: its connection, and where it is in its input stream.
struct Client {
    conn: Conn,
    stream: u64,
    next: u64,
}

/// An in-process session server on a loopback port, its clients connected.
pub struct Server {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<SocketAddr>>,
    clients: Vec<Client>,
}

impl Server {
    /// Starts a server and connects `clients` clients, each answered once
    /// (`Sessions`) so the server is known to serve them.
    pub fn start(clients: usize) -> Result<Server, String> {
        // Take a free port from the OS, release it, and let the server bind it.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .map_err(|e| format!("reserve a port: {e}"))?;
        let thread = thread::spawn(move || {
            pm_server::serve_tcp(
                ServerCore::new(SLICE_STEPS, SWEEP_THREADS),
                &addr.to_string(),
            )
        });
        let mut server = Server {
            addr,
            thread,
            clients: Vec::with_capacity(clients),
        };
        for c in 0..clients {
            let mut conn = server.connect()?;
            match conn
                .request(&Request::Sessions, &mut Vec::new())?
                .as_slice()
            {
                [Response::Sessions { .. }] => server.clients.push(Client {
                    conn,
                    stream: Inputs::client(c),
                    next: 0,
                }),
                other => return Err(format!("sessions answered {}", brief(&other))),
            }
        }
        Ok(server)
    }

    /// Serves `spec` once through the first client, unmeasured; the served
    /// report must equal `expected`.
    pub fn warm_up(&mut self, spec: &ScenarioSpec, expected: &RunReport) -> Result<(), String> {
        let served = self.clients[0].session(spec, &mut ServiceRun::default())?;
        if served == *expected {
            Ok(())
        } else {
            Err(format!(
                "{}: the served report differs from the library's",
                spec.name
            ))
        }
    }

    /// Connects to the server, retrying until it listens.
    fn connect(&self) -> Result<Conn, String> {
        let deadline = Instant::now() + PATIENCE;
        loop {
            match TcpStream::connect(self.addr) {
                Ok(stream) => return Conn::new(stream).map_err(|e| format!("configure: {e}")),
                Err(e) if self.thread.is_finished() || Instant::now() >= deadline => {
                    return Err(format!("connect to the server at {}: {e}", self.addr))
                }
                // The server thread binds the port as soon as it runs.
                Err(_) => thread::yield_now(),
            }
        }
    }

    /// Runs every client's session loop until `duration` has passed; each
    /// client finishes the session it is in.
    pub fn measure(&mut self, run: &mut ServiceRun, inputs: &Inputs, duration: Duration) {
        let deadline = Instant::now() + duration;
        let logs: Vec<ServiceRun> = thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| scope.spawn(move || client.serve(inputs, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("client threads do not panic"))
                .collect()
        });
        for log in logs {
            run.merge(log);
        }
        run.clients = self.clients.len();
    }

    /// Reads the server's own account of the session verbs, sweeps and
    /// response bytes through the `Metrics` verb.
    pub fn scrape(&self) -> Result<ServerSide, String> {
        let responses = self
            .connect()?
            .request(&Request::Metrics, &mut Vec::new())?;
        let [Response::Metrics { metrics, .. }] = responses.as_slice() else {
            return Err(format!("metrics answered {}", brief(&responses)));
        };
        let mut side = ServerSide::default();
        for histogram in &metrics.histograms {
            let verb = histogram
                .labels
                .iter()
                .find(|label| label.key == "verb")
                .map(|label| label.value.as_str());
            if histogram.name == "pm_server_verb_latency_us"
                && verb.is_some_and(|verb| SESSION_VERBS.contains(&verb))
            {
                side.handle_us += histogram.sum;
                side.requests += histogram.count;
            } else if histogram.name == "pm_server_sweep_duration_us" {
                side.sweep_us += histogram.sum;
                side.sweeps += histogram.count;
            }
        }
        side.bytes_written = metrics
            .counters
            .iter()
            .filter(|counter| counter.name == "pm_server_bytes_written_total")
            .map(|counter| counter.value)
            .sum();
        Ok(side)
    }

    /// Hangs up the clients, shuts the server down and joins its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.clients.clear();
        let responses = self
            .connect()?
            .request(&Request::Shutdown, &mut Vec::new())?;
        if !matches!(responses.as_slice(), [Response::Bye]) {
            return Err(format!("shutdown answered {}", brief(&responses)));
        }
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("the server thread panicked".to_string()),
        }
    }
}

impl Client {
    /// Runs sessions on its next inputs until `deadline`.
    fn serve(&mut self, inputs: &Inputs, deadline: Instant) -> ServiceRun {
        let mut run = ServiceRun::default();
        loop {
            let spec = inputs.scenario(self.stream, self.next);
            self.next += 1;
            run.attempted += 1;
            match self.session(&spec, &mut run) {
                Ok(report) => run.served.push((spec, report)),
                Err(e) => {
                    // After a failed exchange the connection's state is unknown.
                    eprintln!("perfbench: {}: {e}", spec.name);
                    run.failed += 1;
                    break;
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        run
    }

    /// One session: submit, run to the report, cancel. Returns the served
    /// report.
    fn session(&mut self, spec: &ScenarioSpec, run: &mut ServiceRun) -> Result<RunReport, String> {
        let conn = &mut self.conn;
        let began = Instant::now();
        let submit = Request::Submit { spec: spec.clone() };
        let session = match conn.request(&submit, &mut run.submit_ms)?.as_slice() {
            [Response::Submitted { session, .. }] => *session,
            other => return Err(format!("submit answered {}", brief(&other))),
        };
        let ran = conn.request(&Request::Run { session }, &mut run.run_ms)?;
        let report = match <[Response; 1]>::try_from(ran) {
            Ok([Response::Done { report, .. }]) => report,
            other => return Err(format!("run answered {}", brief(&other))),
        };
        let latency = began.elapsed();
        match conn
            .request(&Request::Cancel { session }, &mut run.cancel_ms)?
            .as_slice()
        {
            [Response::Cancelled { .. }] => {}
            other => return Err(format!("cancel answered {}", brief(&other))),
        }
        run.sessions.push(Session {
            latency_ms: ms(latency),
            turn_ms: ms(began.elapsed()),
        });
        Ok(report)
    }
}

/// One measured session.
struct Session {
    /// From sending the submit to receiving the report.
    latency_ms: f64,
    /// From sending the submit to the cancel's acknowledgement: the
    /// client's whole turn.
    turn_ms: f64,
}

/// The service phase of one run (or one client's part of it).
#[derive(Default)]
pub struct ServiceRun {
    pub attempted: usize,
    pub failed: usize,
    sessions: Vec<Session>,
    /// Every served input and its report, for [`ServiceRun::check`].
    served: Vec<(ScenarioSpec, RunReport)>,
    submit_ms: Vec<f64>,
    run_ms: Vec<f64>,
    cancel_ms: Vec<f64>,
    clients: usize,
}

/// The server's totals for the session verbs, from its telemetry registry.
#[derive(Default)]
pub struct ServerSide {
    handle_us: u64,
    requests: u64,
    sweep_us: u64,
    sweeps: u64,
    bytes_written: u64,
}

impl ServiceRun {
    fn merge(&mut self, other: ServiceRun) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.sessions.extend(other.sessions);
        self.served.extend(other.served);
        self.submit_ms.extend(other.submit_ms);
        self.run_ms.extend(other.run_ms);
        self.cancel_ms.extend(other.cancel_ms);
    }

    /// Elects every served input again in-process, unmeasured, and counts a
    /// failure for each served report that differs from that one.
    pub fn check(&mut self) {
        for (spec, served) in self.served.drain(..) {
            match library::elect(&spec, false) {
                Ok(local) if local.report == served => {}
                Ok(_) => {
                    eprintln!(
                        "perfbench: {}: the served report differs from the library's",
                        spec.name
                    );
                    self.failed += 1;
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    self.failed += 1;
                }
            }
        }
    }

    /// The end-to-end metrics, over every session. Throughput is the closed
    /// loop's: clients over the mean client turn.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let latency: Vec<f64> = self.sessions.iter().map(|s| s.latency_ms).collect();
        let turn: Vec<f64> = self.sessions.iter().map(|s| s.turn_ms).collect();
        vec![
            Metric::new("session_ms", "ms", median(&latency)),
            Metric::new("session_p90_ms", "ms", quantile(&latency, 0.9)),
            Metric::new(
                "sessions_per_s",
                "1/s",
                self.clients as f64 / mean(&turn) * 1e3,
            ),
        ]
    }

    /// The per-layer metrics: client-observed medians per verb, and the
    /// server's handler time against the whole round trip.
    pub fn layer_metrics(&self, server: &ServerSide) -> Vec<Metric> {
        // The server's counters also hold the set-up's warm-up session.
        let sessions = self.sessions.len() as f64 + 1.0;
        let requests: Vec<f64> = [&self.submit_ms, &self.run_ms, &self.cancel_ms]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        let server_ms = server.handle_us as f64 / server.requests as f64 / 1e3;
        vec![
            Metric::new("submit_ms", "ms", median(&self.submit_ms)),
            Metric::new("run_ms", "ms", median(&self.run_ms)),
            Metric::new("cancel_ms", "ms", median(&self.cancel_ms)),
            Metric::new("server_ms", "ms", server_ms),
            Metric::new("transport_ms", "ms", mean(&requests) - server_ms),
            Metric::new(
                "sweep_ms",
                "ms",
                server.sweep_us as f64 / server.sweeps as f64 / 1e3,
            ),
            Metric::new(
                "sweeps_per_session",
                "count",
                server.sweeps as f64 / sessions,
            ),
            Metric::new(
                "bytes_per_session",
                "B",
                server.bytes_written as f64 / sessions,
            ),
        ]
    }
}
