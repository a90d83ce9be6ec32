//! End-to-end suite over the real binary: the committed smoke script drives
//! a scripted session — submit, watch, mid-flight fault, run,
//! checkpoint, **fresh-process** restore, run again — and the transcript
//! must match the committed golden byte for byte, at every scheduler thread
//! count. A second test exercises the TCP transport against a live socket.

use pm_server::{Request, Response, ServerProcess};
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_pm-scenarios");

fn manifest(relative: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(relative)
        .display()
        .to_string()
}

fn client_transcript(threads: usize) -> String {
    let output = Command::new(BIN)
        .args([
            "client",
            "--script",
            &manifest("scripts/server_smoke.jsonl"),
            "--threads",
            &threads.to_string(),
        ])
        .output()
        .expect("client runs");
    assert!(
        output.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("transcript is UTF-8")
}

fn responses(transcript: &str) -> Vec<Response> {
    transcript
        .lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .map(|line| serde_json::from_str(line).expect("transcript line parses"))
        .collect()
}

#[test]
fn smoke_script_matches_golden_across_thread_counts() {
    let golden = std::fs::read_to_string(manifest("golden/server_smoke.jsonl"))
        .expect("committed golden transcript");
    for threads in [1, 2, 8] {
        let transcript = client_transcript(threads);
        assert_eq!(
            transcript, golden,
            "transcript diverged from golden at --threads {threads} \
             (regenerate: pm-scenarios client --script scripts/server_smoke.jsonl \
             > golden/server_smoke.jsonl)"
        );
    }
}

#[test]
fn smoke_transcript_proves_the_full_lifecycle() {
    let parsed = responses(&client_transcript(2));

    let rounds = parsed
        .iter()
        .filter(|r| matches!(r, Response::Round { .. }))
        .count();
    assert!(rounds >= 3, "watch streamed only {rounds} round lines");

    // The mid-flight removal on the reset-and-recover session was accepted.
    assert!(parsed
        .iter()
        .any(|r| matches!(r, Response::Faulted { processes: 1, .. })));

    // Restore replayed the checkpoint's exact cursor in a fresh process.
    assert!(parsed.iter().any(
        |r| matches!(r, Response::Restored { steps, rounds, .. } if *steps > 0 && *rounds > 0)
    ));

    // The mid-flight fault injection on the self-stab session was accepted.
    assert!(parsed
        .iter()
        .any(|r| matches!(r, Response::Faulted { processes: 2, .. })));

    // Three final reports — live run, fault-injected self-stab run, and the
    // restored-after-restart run. Live and restored must be byte-identical,
    // with a unique leader and the injected removals reflected in the
    // survivors.
    let reports: Vec<_> = parsed
        .iter()
        .filter_map(|r| match r {
            Response::Done { report, .. } => Some(report),
            _ => None,
        })
        .collect();
    assert_eq!(
        reports.len(),
        3,
        "expected a live, a faulted and a restored report"
    );
    assert_eq!(
        serde_json::to_string(reports[0]).unwrap(),
        serde_json::to_string(reports[2]).unwrap(),
        "restored run diverged from the live run"
    );
    assert!(reports[0].unique_leader());
    assert_eq!(reports[0].undecided, 0);
    assert!(
        reports[0].final_positions.len() < reports[0].n,
        "the injected removal process removed no particles"
    );
    // The fault-injected session recovered a unique leader with no reset —
    // periodic removals plus injected corruption, absorbed in-stride.
    assert_eq!(reports[1].algorithm, "self-stab-max");
    assert!(reports[1].unique_leader());
    assert_eq!(reports[1].undecided, 0);
    assert!(
        reports[1].final_positions.len() < reports[1].n,
        "the periodic removal process removed no particles"
    );
    assert!(matches!(parsed.last(), Some(Response::Bye)));
}

#[test]
fn tcp_transport_serves_the_same_protocol() {
    let server =
        ServerProcess::spawn(&[BIN, "serve", "--tcp", "127.0.0.1:0"]).expect("server spawns");

    let spec = r#"{"Submit":{"spec":{"name":"tcp","tags":[],"generator":{"Hexagon":{"radius":3}},"algorithm":"Pipeline","scheduler":{"SeededRandom":7},"options":{"assume_outer_boundary_known":false,"reconnect":true,"track_connectivity":false,"round_budget":null,"seed":7},"faults":{"seed":0,"reset":"None","processes":[]}}}}"#;

    // First connection: submit, then drop the connection mid-session.
    let mut first = server.connect().expect("connect");
    let submitted = first.send(spec).expect("submit");
    assert!(
        matches!(
            submitted.as_slice(),
            [(_, Response::Submitted { session: 1, .. })]
        ),
        "unexpected response {submitted:?}"
    );
    drop(first);

    // Second connection: the session survived the disconnect; finish it
    // and shut the server down.
    let mut second = server.connect().expect("reconnect");
    match second.request(&Request::Run { session: 1 }) {
        Ok(Response::Done { session: 1, report }) => assert!(report.unique_leader()),
        other => panic!("expected Done, got {other:?}"),
    }
    server.shutdown().expect("clean shutdown");
}

/// Lines written before `RunOptions` lost its `occupancy` key keep working:
/// the key is skipped as unknown, so a `Submit` that names the removed
/// `Hashed` store and a `Restore` of a checkpoint written with the key get
/// the same responses, the `Done` report included, as the same lines
/// without it.
#[test]
fn legacy_occupancy_keys_are_ignored() {
    const SUBMIT: &str = r#"{"Submit":{"spec":{"name":"legacy","tags":[],"generator":{"Hexagon":{"radius":3}},"algorithm":"Pipeline","scheduler":{"SeededRandom":7},"options":{"assume_outer_boundary_known":false,"reconnect":true,"track_connectivity":true,"round_budget":null,"seed":7,"occupancy":"Hashed"},"faults":{"seed":0,"reset":"None","processes":[]}}}}"#;
    const RESTORE: &str = r#"{"Restore":{"checkpoint":{"spec":{"name":"server-smoke","tags":[],"generator":{"Hexagon":{"radius":5}},"algorithm":"Pipeline","scheduler":{"SeededRandom":7},"options":{"assume_outer_boundary_known":false,"reconnect":true,"track_connectivity":false,"round_budget":null,"seed":7,"occupancy":"Dense"},"faults":{"seed":0,"reset":"Reinitialize","processes":[{"kind":"Removals","start":6,"period":0,"until":6,"count":4}]}},"execution":{"algorithm":"dle+collect","steps":8,"rounds":5,"total_rounds":230,"rounds_in_phase":5,"phase":"dle","decided":74,"undecided":17,"finished":false}}}}"#;
    let responses = |line: &str| -> Vec<String> {
        let script = format!("{line}\n{{\"Run\":{{\"session\":1}}}}\n\"Shutdown\"\n");
        let mut transcript = Vec::new();
        let command = [BIN, "serve", "--stdio"].map(String::from);
        pm_server::run_script(&command, &script, &mut transcript).expect("script runs");
        String::from_utf8(transcript)
            .expect("transcript is UTF-8")
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(String::from)
            .collect()
    };
    for (legacy, key) in [
        (SUBMIT, r#","occupancy":"Hashed""#),
        (RESTORE, r#","occupancy":"Dense""#),
    ] {
        let current = legacy.replace(key, "");
        assert_ne!(current, legacy, "{key} is in the legacy line");
        let (old, new) = (responses(legacy), responses(&current));
        assert!(
            old.iter().any(|line| line.starts_with(r#"{"Done":"#)),
            "{old:?}"
        );
        assert_eq!(old, new, "{key} changed the responses");
    }
}
