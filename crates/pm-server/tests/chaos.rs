//! Chaos suite over the real binary: SIGKILL between autosaves, torn
//! checkpoint files, connections dropped mid-line, crafted, nested and
//! oversize request lines, clients that never read, and a 32-client
//! concurrency storm. The
//! contract under every fault: an accepted session either completes
//! byte-identically after restart or is reported lost with a typed error
//! — never silently corrupted.

use pm_grid::builder::hexagon;
use pm_grid::Shape;
use pm_scenarios::{AlgorithmSpec, GeneratorSpec, ScenarioSpec};
use pm_server::{
    Client, Request, Response, ServerProcess, SessionCheckpoint, MAX_LINE_BYTES, WRITE_TIMEOUT,
};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_pm-scenarios");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pm-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The three scenarios every crash test submits: distinct shapes so a
/// mixed-up restore could not accidentally produce matching reports.
fn chaos_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new("chaos-hex", GeneratorSpec::Hexagon { radius: 3 }),
        ScenarioSpec::new("chaos-ring", GeneratorSpec::Annulus { outer: 4, inner: 2 }),
        ScenarioSpec::new("chaos-small", GeneratorSpec::Hexagon { radius: 2 }),
    ]
}

/// Spawns `serve` with `args` (`--stdio` or `--tcp ADDR` plus knobs).
fn serve(args: &[&str]) -> ServerProcess {
    ServerProcess::spawn(&[&[BIN, "serve"], args].concat()).expect("server spawns")
}

fn submit(client: &mut Client<impl BufRead, impl Write>, spec: &ScenarioSpec) -> u64 {
    match client.request(&Request::Submit { spec: spec.clone() }) {
        Ok(Response::Submitted { session, .. }) => session,
        other => panic!("expected Submitted, got {other:?}"),
    }
}

fn run_report(client: &mut Client<impl BufRead, impl Write>, session: u64) -> String {
    match client.request(&Request::Run { session }) {
        Ok(Response::Done { report, .. }) => serde_json::to_string(&report).unwrap(),
        other => panic!("expected Done for session {session}, got {other:?}"),
    }
}

/// Reports from an uninterrupted submit-and-run of every spec, keyed by
/// scenario name — the byte-identical reference every crash run must hit.
fn golden_reports(threads: usize, specs: &[ScenarioSpec]) -> BTreeMap<String, String> {
    let mut server = serve(&["--stdio", "--threads", &threads.to_string()]);
    let client = server.stdio().expect("stdio server");
    let sessions: Vec<u64> = specs.iter().map(|spec| submit(client, spec)).collect();
    let reports = specs
        .iter()
        .zip(&sessions)
        .map(|(spec, &session)| (spec.name.clone(), run_report(client, session)))
        .collect();
    server.shutdown().expect("clean shutdown");
    reports
}

fn wait_for_files(dir: &PathBuf, count: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let saved = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy().into_owned();
                        name.starts_with("session-") && name.ends_with(".json")
                    })
                    .count()
            })
            .unwrap_or(0);
        if saved >= count {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "autosave produced {saved}/{count} checkpoint files within 20s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The headline crash drill, at every scheduler thread count: submit and
/// partially advance sessions, SIGKILL the server between autosaves,
/// restart it on the same persist dir, and every session must come back
/// and finish with a report byte-identical to an uninterrupted run.
#[test]
fn sigkill_between_autosaves_restores_every_session_byte_identically() {
    let specs = chaos_specs();
    for threads in [1usize, 2, 8] {
        let golden = golden_reports(threads, &specs);

        let dir = temp_dir(&format!("sigkill-{threads}"));
        let threads_arg = threads.to_string();
        let dir_arg = dir.display().to_string();
        let flags = [
            "--stdio",
            "--threads",
            threads_arg.as_str(),
            "--persist-dir",
            dir_arg.as_str(),
            "--autosave-ms",
            "25",
        ];

        let mut server = serve(&flags);
        let client = server.stdio().expect("stdio server");
        let sessions: Vec<u64> = specs.iter().map(|spec| submit(client, spec)).collect();
        for &session in &sessions {
            match client.request(&Request::Watch { session, rounds: 2 }) {
                Ok(Response::Status { .. } | Response::Done { .. }) => {}
                other => panic!("expected Status after watch, got {other:?}"),
            }
        }
        wait_for_files(&dir, specs.len());
        server.kill();

        let mut revived = serve(&flags);
        let client = revived.stdio().expect("stdio server");
        let rows = match client.request(&Request::Sessions) {
            Ok(Response::Sessions { sessions }) => sessions,
            other => panic!("expected Sessions, got {other:?}"),
        };
        assert_eq!(
            rows.len(),
            specs.len(),
            "--threads {threads}: recovery lost sessions"
        );
        for row in rows {
            let report = run_report(client, row.session);
            assert_eq!(
                Some(&report),
                golden.get(&row.name),
                "--threads {threads}: `{}` diverged after SIGKILL + recovery",
                row.name
            );
        }
        revived.shutdown().expect("clean shutdown");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Torn, truncated, and garbage checkpoint files are rejected with a
/// logged typed error at startup — the server recovers what it can and
/// keeps serving, it never panics and never invents a corrupt session.
#[test]
fn torn_checkpoint_files_are_rejected_and_the_server_keeps_serving() {
    let dir = temp_dir("torn");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("session-1.json"), b"{\"spec\":{\"name\":\"half").unwrap();
    std::fs::write(dir.join("session-2.json"), b"not json at all\n").unwrap();

    // Over TCP, so the server's log comes back from `shutdown`.
    let dir_arg = dir.display().to_string();
    let server = serve(&["--tcp", "127.0.0.1:0", "--persist-dir", &dir_arg]);
    let mut client = server.connect().expect("connect");

    // Both corrupt files were skipped; the server is empty and healthy.
    match client.request(&Request::Sessions) {
        Ok(Response::Sessions { sessions }) => assert!(sessions.is_empty()),
        other => panic!("expected Sessions, got {other:?}"),
    }
    let spec = ScenarioSpec::new("after-torn", GeneratorSpec::Hexagon { radius: 2 });
    let session = submit(&mut client, &spec);
    run_report(&mut client, session);

    let log = server.shutdown().expect("clean shutdown");
    assert!(
        log.contains("malformed checkpoint file"),
        "expected typed rejections in the log, got:\n{log}"
    );
    assert!(
        log.contains("recovered 0 session(s)") && log.contains("2 rejected"),
        "expected a recovery summary, got:\n{log}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Clients that die mid-line (half a request, no newline, then a dropped
/// socket) must not take the server or anyone else's session with them.
#[test]
fn connections_killed_mid_line_leave_the_server_serving() {
    let server = serve(&["--tcp", "127.0.0.1:0", "--threads", "2"]);

    for _ in 0..3 {
        let mut victim = TcpStream::connect(server.addr().unwrap()).expect("connect");
        victim
            .write_all(b"{\"Submit\":{\"spec\":{\"name\":\"never")
            .expect("half a line");
        victim.flush().ok();
        drop(victim); // hang up mid-line, newline never sent
    }

    let mut clean = server.connect().expect("connect after carnage");
    let spec = ScenarioSpec::new("survivor", GeneratorSpec::Hexagon { radius: 2 });
    let session = submit(&mut clean, &spec);
    match clean.request(&Request::Run { session }) {
        Ok(Response::Done { report, .. }) => assert!(report.unique_leader()),
        other => panic!("expected Done, got {other:?}"),
    }
    server.shutdown().expect("clean shutdown");
}

/// A fault that removes the elected leader fails only its own session:
/// `Run` answers `Failed` with the no-leader error, another client's
/// session still runs to `Done`, the failed session still answers
/// `Status`, and autosave, which snapshots every session, writes every
/// checkpoint.
#[test]
fn a_fault_that_removes_the_leader_fails_only_its_own_session() {
    let dir = temp_dir("no-leader");
    let dir_arg = dir.display().to_string();
    let server = serve(&[
        "--tcp",
        "127.0.0.1:0",
        "--threads",
        "2",
        "--persist-dir",
        &dir_arg,
        "--autosave-ms",
        "100",
    ]);

    // The pipeline loses its leader to 3 removals before round 1 (plan
    // seed 2), erosion to 10 (plan seed 0).
    let mut victim = server.connect().expect("connect");
    let mut failed = Vec::new();
    for (algorithm, seed, count) in [
        (AlgorithmSpec::Pipeline, 2, 3),
        (AlgorithmSpec::Erosion, 0, 10),
    ] {
        let mut doomed = ScenarioSpec::new("leader-removal", GeneratorSpec::Hexagon { radius: 2 });
        doomed.algorithm = algorithm;
        doomed.faults = serde_json::from_str(&format!(
            r#"{{"seed":{seed},"reset":"None","processes":[{{"kind":"Removals","start":1,"period":0,"until":1,"count":{count}}}]}}"#
        ))
        .unwrap();
        let session = submit(&mut victim, &doomed);
        match victim.request(&Request::Run { session }) {
            Ok(Response::Failed { error, .. }) => assert!(error.contains("no leader"), "{error}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        failed.push(session);
    }

    let mut other = server.connect().expect("connect");
    let healthy = ScenarioSpec::new("healthy", GeneratorSpec::Hexagon { radius: 2 });
    let session = submit(&mut other, &healthy);
    run_report(&mut other, session);
    for session in failed {
        match other.request(&Request::Status { session }) {
            Ok(Response::Status { status, .. }) => assert!(!status.finished),
            other => panic!("expected Status, got {other:?}"),
        }
    }
    wait_for_files(&dir, 3);
    server.shutdown().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// The `Restore` line for `checkpoint` with a `baseline` in the format
/// checkpoints carried while restore could start from a native state: a
/// mid-DLE pipeline on `shape` whose particle 0 sits at (10⁹, 0), decided
/// and terminated.
fn restore_line_with_far_baseline(checkpoint: &SessionCheckpoint, shape: &Shape) -> String {
    let far = r#"{"q":1000000000,"r":0}"#.to_string();
    let particles: Vec<String> = shape
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (at, status, terminated) = match i {
                0 => (far.clone(), "Follower", true),
                _ => (serde_json::to_string(&p).unwrap(), "Undecided", false),
            };
            let ports = |flag: bool| format!("[{}]", vec![flag.to_string(); 6].join(","));
            let memory = format!(
                r#"{{"status":"{status}","outer":{},"eligible":{}}}"#,
                ports(false),
                ports(true)
            );
            format!(r#"{{"head":{at},"tail":{at},"memory":{memory},"terminated":{terminated}}}"#)
        })
        .collect();
    let particles = particles.join(",");
    let flags = vec!["false"; shape.len()].join(",");
    let execution = &checkpoint.execution;
    let (steps, rounds, n) = (execution.steps, execution.rounds, shape.len());
    let obd = execution.total_rounds - execution.rounds_in_phase;
    let system = format!(
        r#"{{"particles":[{particles}],"removed":[{flags}],"parked":[{flags}],"expansions":0,"contractions":0,"handovers":0}}"#
    );
    let stats = format!(
        r#"{{"rounds":{rounds},"activations":{n},"expansions":0,"contractions":0,"handovers":0,"ever_disconnected":false,"disconnected_rounds":0,"final_connected":null}}"#
    );
    let runner =
        format!(r#"{{"system":{system},"stats":{stats},"scheduler":{{"Rng":[1,2,3,4]}}}}"#);
    let state = format!(
        r#"{{"state":"run-dle","reports":[{{"name":"obd","rounds":{obd},"activations":0,"moves":0}}],"obd_ran":true,"dle":null,"collect":null,"done":null,"runner":{runner}}}"#
    );
    let baseline = format!(r#"{{"steps":{steps},"rounds":{rounds},"state":{state}}}"#);
    let line = serde_json::to_string(&Request::Restore {
        checkpoint: checkpoint.clone(),
    })
    .unwrap();
    // The execution object closes the line, inside the checkpoint, the
    // verb and the request.
    let open = line
        .strip_suffix("}}}}")
        .expect("execution closes the line");
    format!(r#"{open},"baseline":{baseline}}}}}}}}}"#)
}

/// A client picks every byte of a `Restore`. Checkpoints used to carry a
/// native-state `baseline`, and one whose particle sat 10⁹ cells away
/// aborted the server with every session in it; a step count inflated
/// past the run's end was replayed step by step under the core lock. Now
/// restore only replays the checkpoint's steps: the baseline, in the
/// format older servers wrote, is ignored and the session comes back
/// with the original report, the inflated count is rejected at once, and
/// other connections keep being served.
#[test]
fn crafted_restore_checkpoints_neither_abort_nor_stall_the_server() {
    let server = serve(&["--tcp", "127.0.0.1:0", "--threads", "2"]);
    let mut client = server.connect().expect("connect");
    let spec = ScenarioSpec::new("crafted", GeneratorSpec::Hexagon { radius: 3 });
    let session = submit(&mut client, &spec);
    client
        .request(&Request::Watch { session, rounds: 1 })
        .expect("watch answers");
    let mut checkpoint = match client.request(&Request::Checkpoint { session }) {
        Ok(Response::Checkpointed { checkpoint, .. }) => checkpoint,
        other => panic!("expected Checkpointed, got {other:?}"),
    };
    assert_eq!(checkpoint.execution.phase.as_deref(), Some("dle"));
    let original = run_report(&mut client, session);

    let mut restorer = server.connect().expect("connect");
    let line = restore_line_with_far_baseline(&checkpoint, &hexagon(3));
    let restored = match restorer.send(&line).expect("an answer").pop() {
        Some((_, Response::Restored { session, steps, .. })) => {
            assert_eq!(steps, checkpoint.execution.steps);
            session
        }
        other => panic!("expected Restored, got {other:?}"),
    };
    assert_eq!(run_report(&mut restorer, restored), original);

    checkpoint.execution.steps += 1_000_000;
    let started = Instant::now();
    match restorer.request(&Request::Restore { checkpoint }) {
        Ok(Response::Error { message }) => assert!(message.contains("diverged"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "restore took {elapsed:?}");

    let mut other = server.connect().expect("connect");
    match other.request(&Request::Sessions) {
        Ok(Response::Sessions { sessions }) => assert_eq!(sessions.len(), 2),
        other => panic!("expected Sessions, got {other:?}"),
    }
    server.shutdown().expect("clean shutdown");
}

/// A client that never sends a newline used to grow its connection
/// thread's line buffer without limit. Past `MAX_LINE_BYTES` the server
/// answers one `Error` naming the limit and closes the connection; other
/// connections keep being served.
#[test]
fn oversize_request_lines_are_refused_and_the_connection_closed() {
    let server = serve(&["--tcp", "127.0.0.1:0", "--threads", "2"]);
    let hostile = TcpStream::connect(server.addr().unwrap()).expect("connect");
    hostile
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut writer = hostile.try_clone().expect("clone");
    // The server stops reading at the cap, so the rest of the 2 MiB may
    // never be taken off the socket; write it from a thread that may fail.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'a'; 2 * MAX_LINE_BYTES]);
    });
    let mut reader = std::io::BufReader::new(hostile);
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("an answer");
    match serde_json::from_str::<Response>(&answer) {
        Ok(Response::Error { message }) => {
            assert!(
                message.contains(&format!("exceeds {MAX_LINE_BYTES} bytes")),
                "{message}"
            );
        }
        other => panic!("expected Error, got {other:?} from {answer:?}"),
    }
    // Closed: end of stream, or a reset because unread bytes were dropped.
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "{rest:?}"
    );
    flood.join().expect("the flood thread ends");

    let mut other = server.connect().expect("connect after the hostile line");
    match other.request(&Request::Sessions) {
        Ok(Response::Sessions { sessions }) => assert!(sessions.is_empty()),
        other => panic!("expected Sessions, got {other:?}"),
    }
    server.shutdown().expect("clean shutdown");
}

/// Shrinks a socket's receive buffer to `bytes` (the kernel may round it
/// up), so a peer's large write fills it after a few kilobytes.
#[cfg(target_os = "linux")]
fn shrink_receive_buffer(stream: &TcpStream, bytes: i32) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    // Linux's SOL_SOCKET and SO_RCVBUF.
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    // SAFETY: the descriptor is the open socket `stream` owns, and the
    // option value is a live `i32` whose size is passed along.
    let status = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &bytes, 4) };
    assert_eq!(status, 0, "setsockopt(SO_RCVBUF)");
}

#[cfg(not(target_os = "linux"))]
fn shrink_receive_buffer(_stream: &TcpStream, _bytes: i32) {}

/// Connects with a 4 KiB receive buffer, asks for `session`'s report 16
/// times over and never reads the answers. The stream is returned so the
/// connection stays open.
fn never_reading_run(server: &ServerProcess, session: u64) -> TcpStream {
    let mut stuck = TcpStream::connect(server.addr().unwrap()).expect("connect");
    shrink_receive_buffer(&stuck, 4096);
    let run = serde_json::to_string(&Request::Run { session }).unwrap() + "\n";
    stuck
        .write_all(run.repeat(16).as_bytes())
        .expect("send Run");
    stuck
}

fn counter(client: &mut Client, name: &str) -> u64 {
    match client.request(&Request::Metrics) {
        Ok(Response::Metrics { metrics, .. }) => metrics
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value),
        other => panic!("expected Metrics, got {other:?}"),
    }
}

/// A client that asks for a large report and never reads it used to block
/// its connection thread in `write_all` forever, and a graceful shutdown
/// joins every connection thread: `Shutdown` answered `Bye` and the
/// process never exited. Protocol writes now time out after
/// `WRITE_TIMEOUT`: the stuck connection is dropped and counted, other
/// connections are served meanwhile, and a shutdown raised while a client
/// is stuck still ends the process.
#[test]
fn clients_that_never_read_are_dropped_and_cannot_wedge_shutdown() {
    let server = serve(&["--tcp", "127.0.0.1:0", "--threads", "2"]);
    let mut other = server.connect().expect("connect");
    // hexagon(100): 16 reports of about 0.55 MB each, far more than a
    // 4 KiB receive buffer and the server's send buffer (at most 4 MiB on
    // a default Linux) hold.
    let spec = ScenarioSpec::new("big", GeneratorSpec::Hexagon { radius: 100 });
    let session = submit(&mut other, &spec);

    let stuck = never_reading_run(&server, session);
    std::thread::sleep(Duration::from_secs(1));
    match other.request(&Request::Sessions) {
        Ok(Response::Sessions { sessions }) => assert_eq!(sessions.len(), 1),
        other => panic!("expected Sessions, got {other:?}"),
    }
    // A write that still makes progress (the kernel may grow the send
    // buffer) restarts the timeout, so allow a few of them.
    let limit = WRITE_TIMEOUT + Duration::from_secs(40);
    let deadline = Instant::now() + limit;
    while counter(&mut other, "pm_server_write_timeouts_total") == 0 {
        assert!(
            Instant::now() < deadline,
            "the stuck write was not dropped within {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    drop(stuck);

    // Stuck again, and shut down while stuck: `Bye`, then the process
    // exits once the write times out.
    let _stuck = never_reading_run(&server, session);
    std::thread::sleep(Duration::from_secs(1));
    server
        .shutdown_within(WRITE_TIMEOUT + Duration::from_secs(20))
        .expect("the server exits although a client never reads");
}

/// One line of 200 000 `[` would overflow the stack of a parser that
/// recursed without a limit and abort the whole process. The nesting
/// limit answers it with a typed `Error`, and other connections keep
/// being served.
#[test]
fn deeply_nested_json_gets_an_error_and_the_server_keeps_serving() {
    let server = serve(&["--tcp", "127.0.0.1:0", "--threads", "2"]);

    let mut hostile = server.connect().expect("connect");
    let responses = hostile.send(&"[".repeat(200_000)).expect("an answer");
    match responses.last() {
        Some((_, Response::Error { message })) => {
            assert!(message.contains("recursion limit exceeded"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    let mut other = server.connect().expect("connect after the hostile line");
    match other.request(&Request::Sessions) {
        Ok(Response::Sessions { sessions }) => assert!(sessions.is_empty()),
        other => panic!("expected Sessions, got {other:?}"),
    }
    server.shutdown().expect("clean shutdown");
}

/// 32 simultaneous TCP clients hammer one server whose session budget is
/// deliberately far smaller than the client count, so the retryable
/// `Busy` rejection is exercised for real. This is the load generator at
/// storm size: it fails unless every client completes every one of its
/// sessions with a unique leader and no session is left live at the end.
#[test]
fn thirty_two_concurrent_clients_share_one_server() {
    let output = Command::new(BIN)
        .args("load --clients 32 --sessions 64 --max-sessions 8 --threads 4".split(' '))
        .output()
        .expect("load runs");
    let report = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "load failed:\n{report}");
    assert!(
        report.contains("64/64 session(s) completed by 32 client(s)"),
        "{report}"
    );
}
