//! The protocol client, the server process it talks to, and the scripted
//! client built on both.
//!
//! [`Client`] speaks the line protocol over a TCP stream or a child's
//! pipes. It sends each request line in a single `write_all`, and
//! [`Client::connect`] sets `TCP_NODELAY`: a line split across two small
//! writes waits on the server's delayed ACK (about 40 ms). `Busy` answers
//! are resent under one backoff policy. [`ServerProcess`] spawns a `serve`
//! command, learns its announced addresses, and reaps it.
//!
//! [`run_script`] drives server processes from a `.jsonl` script and
//! records the full response transcript. Script lines are raw protocol
//! [`Request`] JSON, plus two directives and comments:
//!
//! * `# ...` — comment, ignored (the server ignores them too).
//! * `!restart` — shuts the current server child down cleanly and spawns a
//!   **fresh process**; the next request talks to the new server. This is
//!   how the end-to-end suite proves checkpoints survive server restarts.
//! * `!restore` — sends a `Restore` request carrying the checkpoint from
//!   the most recent `Checkpointed` response (typically right after
//!   `!restart`).
//!
//! The transcript is exactly the response lines the server(s) sent, in
//! order, with each request's lines prefixed by a `# >` echo of the request
//! for readability — deterministic end to end, so CI diffs it against a
//! committed golden file. Only the finally-accepted (or finally-rejected)
//! response stream of a `Busy`-retried request lands in the transcript, so
//! scripts that never hit the budget stay byte-reproducible.

use crate::protocol::{Request, Response, SessionCheckpoint};
use std::ffi::OsStr;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many times a `Busy` rejection is resent before it is returned.
const BUSY_RESENDS: u32 = 1000;

/// One protocol connection: a line reader for responses and a writer for
/// requests. TCP by default; [`ServerProcess::stdio`] wraps a child's pipes.
pub struct Client<R = BufReader<TcpStream>, W = TcpStream> {
    reader: R,
    writer: W,
    busy_retries: u64,
}

impl Client {
    /// Connects to a TCP server and disables Nagle's algorithm, so every
    /// request leaves in one segment.
    ///
    /// # Errors
    ///
    /// Connection and socket configuration failures, rendered.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Client::new(BufReader::new(reader), stream))
    }
}

impl<R: BufRead, W: Write> Client<R, W> {
    /// A client reading responses from `reader` and writing requests to
    /// `writer`.
    pub(crate) fn new(reader: R, writer: W) -> Client<R, W> {
        Client {
            reader,
            writer,
            busy_retries: 0,
        }
    }

    /// Sends one request line and returns its response stream — zero or
    /// more `Round` lines, then the final line — each both verbatim and
    /// parsed. A `Busy` answer is resent up to 1000 times, sleeping
    /// `min(attempt, 20)` ms before each resend; only the last attempt's
    /// stream is returned, so a request still `Busy` after that returns
    /// the `Busy`.
    ///
    /// # Errors
    ///
    /// I/O failures, an unparseable response line, or the server closing
    /// the connection before the final line.
    pub fn send(&mut self, line: &str) -> Result<Vec<(String, Response)>, String> {
        let framed = format!("{line}\n");
        let mut attempt = 0;
        loop {
            let responses = self.exchange(framed.as_bytes())?;
            let busy = matches!(responses.last(), Some((_, Response::Busy { .. })));
            if !busy || attempt == BUSY_RESENDS {
                return Ok(responses);
            }
            attempt += 1;
            self.busy_retries += 1;
            std::thread::sleep(Duration::from_millis(u64::from(attempt.min(20))));
        }
    }

    /// Sends `request` (resending on `Busy` as [`Client::send`] does) and
    /// returns its final response.
    ///
    /// # Errors
    ///
    /// As [`Client::send`].
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        let line = serde_json::to_string(request).map_err(|e| format!("serialize: {e}"))?;
        let (_, last) = self
            .send(&line)?
            .pop()
            .expect("a stream ends in its final line");
        Ok(last)
    }

    /// How many `Busy` answers this client has resent so far.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Writes one framed line and reads up to and including its final
    /// response.
    fn exchange(&mut self, framed: &[u8]) -> Result<Vec<(String, Response)>, String> {
        self.writer
            .write_all(framed)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut responses = Vec::new();
        loop {
            let mut raw = String::new();
            let read = self
                .reader
                .read_line(&mut raw)
                .map_err(|e| format!("receive: {e}"))?;
            if read == 0 {
                return Err("server closed the connection mid-request".to_string());
            }
            let text = raw.trim_end().to_string();
            let response: Response = serde_json::from_str(&text)
                .map_err(|e| format!("unparseable server response `{text}`: {e}"))?;
            let done = response.is_final();
            responses.push((text, response));
            if done {
                return Ok(responses);
            }
        }
    }
}

/// A spawned `serve` process. Without `--tcp` it serves its stdin/stdout,
/// wrapped in a [`Client`], and inherits stderr. With `--tcp` its stderr
/// is piped: the listener announcements (`listening on ADDR`, plus `http
/// listening on ADDR` under `--http`) are read first, then a thread
/// drains the rest of the log. Dropping it kills the process.
pub struct ServerProcess {
    child: Child,
    stdio: Option<Client<BufReader<ChildStdout>, ChildStdin>>,
    addr: Option<String>,
    http_addr: Option<String>,
    log: Option<JoinHandle<String>>,
}

impl ServerProcess {
    /// Spawns `command` (program + args, e.g. `[exe, "serve", "--tcp",
    /// "127.0.0.1:0"]`) and waits until every listener it asked for has
    /// announced its address.
    ///
    /// # Errors
    ///
    /// Spawn failures, and a server that exits before announcing.
    pub fn spawn(command: &[impl AsRef<OsStr>]) -> Result<ServerProcess, String> {
        let (program, args) = command.split_first().ok_or("empty server command")?;
        let flag = |name: &str| args.iter().any(|arg| arg.as_ref() == name);
        let (tcp, http) = (flag("--tcp"), flag("--http"));
        let pipe = |on| if on { Stdio::piped() } else { Stdio::inherit() };
        let mut child = Command::new(program)
            .args(args)
            .stdin(pipe(!tcp))
            .stdout(pipe(!tcp))
            .stderr(pipe(tcp))
            .spawn()
            .map_err(|e| format!("spawn `{}`: {e}", program.as_ref().to_string_lossy()))?;
        let stdio = child.stdin.take().zip(child.stdout.take());
        let mut server = ServerProcess {
            stdio: stdio.map(|(input, output)| Client::new(BufReader::new(output), input)),
            child,
            addr: None,
            http_addr: None,
            log: None,
        };
        let Some(stderr) = server.child.stderr.take() else {
            return Ok(server);
        };
        let mut stderr = BufReader::new(stderr);
        let mut log = String::new();
        while server.addr.is_none() || (http && server.http_addr.is_none()) {
            let mut line = String::new();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                return Err(format!(
                    "server exited before announcing its address:\n{log}"
                ));
            }
            // The announcements are log lines: match the substring.
            if let Some(at) = line.find("http listening on ") {
                server.http_addr = Some(line[at + "http listening on ".len()..].trim().into());
            } else if let Some(at) = line.find("listening on ") {
                server.addr = Some(line[at + "listening on ".len()..].trim().into());
            }
            log.push_str(&line);
        }
        server.log = Some(std::thread::spawn(move || {
            let _ = stderr.read_to_string(&mut log);
            log
        }));
        Ok(server)
    }

    /// The protocol listener's address, for a `--tcp` server.
    pub fn addr(&self) -> Option<&str> {
        self.addr.as_deref()
    }

    /// The HTTP listener's address, for an `--http` server.
    pub fn http_addr(&self) -> Option<&str> {
        self.http_addr.as_deref()
    }

    /// The client over a stdio server's pipes (`None` for a TCP server).
    pub fn stdio(&mut self) -> Option<&mut Client<BufReader<ChildStdout>, ChildStdin>> {
        self.stdio.as_mut()
    }

    /// Opens a new connection to a TCP server.
    ///
    /// # Errors
    ///
    /// A stdio server, or a failed connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr().ok_or("the server has no TCP listener")?)
    }

    /// Clean shutdown: sends `Shutdown`, expects `Bye`, and reaps the
    /// process, which must exit successfully. Returns the server's log
    /// (empty for a stdio server, whose stderr is inherited).
    ///
    /// # Errors
    ///
    /// A failed request, an answer other than `Bye`, or an unclean exit.
    pub fn shutdown(mut self) -> Result<String, String> {
        self.say_bye()?;
        self.reap(None)
    }

    /// [`ServerProcess::shutdown`], but the process must exit within
    /// `limit` of its `Bye`; past it the process is killed and the error
    /// says so.
    ///
    /// # Errors
    ///
    /// As [`ServerProcess::shutdown`], and an exit that takes longer than
    /// `limit`.
    pub fn shutdown_within(mut self, limit: Duration) -> Result<String, String> {
        self.say_bye()?;
        self.reap(Some(limit))
    }

    /// Sends `Shutdown` and expects `Bye`.
    fn say_bye(&mut self) -> Result<(), String> {
        let bye = match self.stdio.as_mut() {
            Some(client) => client.request(&Request::Shutdown)?,
            None => self.connect()?.request(&Request::Shutdown)?,
        };
        match bye {
            Response::Bye => Ok(()),
            other => Err(format!("expected Bye on shutdown, got {other:?}")),
        }
    }

    /// SIGKILLs the process: no shutdown verb, no flush, no final
    /// autosave.
    pub fn kill(self) {
        drop(self);
    }

    /// Closes the pipes, waits for the exit (killing the process once
    /// `limit` has passed, if one is given), and collects the drained log.
    fn reap(mut self, limit: Option<Duration>) -> Result<String, String> {
        drop(self.stdio.take());
        let started = Instant::now();
        let status = loop {
            match (self.child.try_wait(), limit) {
                (Ok(Some(status)), _) => break status,
                (Ok(None), Some(limit)) if started.elapsed() >= limit => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    let log = self.drained_log();
                    return Err(format!(
                        "server did not exit within {limit:?} of Bye; killed\n{log}"
                    ));
                }
                (Ok(None), _) => std::thread::sleep(Duration::from_millis(10)),
                (Err(e), _) => return Err(format!("wait for server: {e}")),
            }
        };
        let log = self.drained_log();
        if !status.success() {
            return Err(format!("server exited with {status}\n{log}"));
        }
        Ok(log)
    }

    /// Joins the stderr drain, which ends once the process has exited.
    fn drained_log(&mut self) -> String {
        let drain = self.log.take();
        drain.map_or_else(String::new, |drain| drain.join().unwrap_or_default())
    }
}

impl Drop for ServerProcess {
    /// A server nobody shut down (a panicking test, an early error return)
    /// is killed and reaped rather than left running.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.drained_log();
    }
}

/// Runs a script against freshly spawned server children (respawned at
/// every `!restart`), writing the transcript to `transcript`. The server
/// is spawned as `command` (program + args), e.g.
/// `["/path/to/pm-scenarios", "serve", "--stdio"]`.
///
/// # Errors
///
/// Script parse errors, spawn/pipe failures, protocol violations (a
/// `!restore` before any checkpoint, an unparseable response), and unclean
/// server exits all surface as rendered strings.
pub fn run_script(
    command: &[String],
    script: &str,
    transcript: &mut dyn Write,
) -> Result<(), String> {
    let mut server = Some(ServerProcess::spawn(command)?);
    let mut last_checkpoint: Option<SessionCheckpoint> = None;

    for (index, raw) in script.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = index + 1;
        let request_line = if line == "!restart" {
            if let Some(server) = server.take() {
                server.shutdown()?;
            }
            server = Some(ServerProcess::spawn(command)?);
            writeln!(transcript, "# !restart").map_err(|e| format!("write transcript: {e}"))?;
            continue;
        } else if line == "!restore" {
            let checkpoint = last_checkpoint
                .clone()
                .ok_or(format!("line {lineno}: !restore before any checkpoint"))?;
            serde_json::to_string(&Request::Restore { checkpoint })
                .map_err(|e| format!("line {lineno}: serialize restore: {e}"))?
        } else {
            // Validate the script line up front so a typo fails loudly at
            // its line number instead of as a server-side Error response.
            serde_json::from_str::<Request>(line)
                .map_err(|e| format!("line {lineno}: malformed request: {e}"))?;
            line.to_string()
        };

        let active = server
            .as_mut()
            .and_then(ServerProcess::stdio)
            .ok_or(format!("line {lineno}: request after shutdown"))?;
        let echo = if line == "!restore" {
            line
        } else {
            request_line.as_str()
        };
        writeln!(transcript, "# > {echo}").map_err(|e| format!("write transcript: {e}"))?;
        for (text, response) in active.send(&request_line)? {
            writeln!(transcript, "{text}").map_err(|e| format!("write transcript: {e}"))?;
            match response {
                Response::Checkpointed { checkpoint, .. } => last_checkpoint = Some(checkpoint),
                Response::Bye => {
                    server.take().expect("active server").reap(None)?;
                }
                _ => {}
            }
        }
    }

    if let Some(server) = server.take() {
        server.shutdown()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Writes;

    const BUSY: &str = "{\"Busy\":{\"message\":\"full\"}}\n";
    const ROUND: &str = concat!(
        r#"{"Round":{"session":1,"status":{"algorithm":"dle+collect","phase":"dle","#,
        r#""rounds_in_phase":1,"total_rounds":226,"decided":14,"undecided":77,"#,
        r#""next_round":1,"finished":false}}}"#,
        "\n"
    );

    #[test]
    fn each_send_is_one_whole_line_and_busy_is_resent() {
        let submitted =
            r#"{"Submitted":{"session":1,"name":"s","algorithm":"dle+collect","n":91}}"#;
        let canned = format!("{BUSY}{BUSY}{ROUND}{submitted}\n");
        let mut writes = Writes::default();
        let mut client = Client::new(canned.as_bytes(), &mut writes);
        let line = r#"{"Status":{"session":1}}"#;
        let responses = client.send(line).expect("the third attempt is accepted");
        assert!(matches!(
            responses.as_slice(),
            [(_, Response::Round { .. }), (_, Response::Submitted { .. })]
        ));
        assert_eq!(client.busy_retries(), 2);

        assert_eq!(writes.0.len(), 3, "one write per attempt: {:?}", writes.0);
        for write in &writes.0 {
            assert_eq!(*write, format!("{line}\n"));
        }
    }

    #[test]
    fn a_connection_closed_mid_request_is_an_error() {
        let mut client = Client::new(ROUND.as_bytes(), std::io::sink());
        let error = client
            .request(&Request::Sessions)
            .expect_err("EOF before the final line");
        assert!(error.contains("closed the connection"), "{error}");
    }
}
