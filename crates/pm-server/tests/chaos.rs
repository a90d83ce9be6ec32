//! Chaos suite over the real binary: SIGKILL between autosaves, torn
//! checkpoint files, connections dropped mid-line, and a 32-client
//! concurrency storm. The contract under every fault: an accepted session
//! either completes byte-identically after restart or is reported lost
//! with a typed error — never silently corrupted.

use pm_scenarios::{GeneratorSpec, ScenarioSpec};
use pm_server::{Client, Request, Response, ServerProcess};
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
