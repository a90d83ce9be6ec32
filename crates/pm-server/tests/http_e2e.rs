//! End-to-end suite for the HTTP observability listener: boot the real
//! binary with `serve --tcp … --http …`, drive a session over the
//! protocol, and scrape `/healthz`, `/metrics`, `/stats` and `/trace` over
//! a plain TCP socket speaking hand-written HTTP/1.1 — exactly what `curl`
//! or a Prometheus scraper would send.

use pm_server::{Request, Response, ServerProcess, ServerStats};
use std::io::{Read, Write};
use std::net::TcpStream;

const BIN: &str = env!("CARGO_BIN_EXE_pm-scenarios");

/// Sends raw bytes to the HTTP listener at `addr` and returns the full
/// response (head + body) as text.
fn http_raw(addr: &str, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// A well-formed GET; returns `(status line, body)`.
fn get(addr: &str, path: &str) -> (String, String) {
    let raw = http_raw(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n"),
    );
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status = head.lines().next().expect("status line").to_string();
    (status, body.to_string())
}

#[test]
fn live_server_serves_every_route_and_rejects_garbage() {
    let server = ServerProcess::spawn(&[
        BIN,
        "serve",
        "--tcp",
        "127.0.0.1:0",
        "--http",
        "127.0.0.1:0",
    ])
    .expect("server spawns");
    let http = server.http_addr().expect("http listener announced");
    let mut client = server.connect().expect("connect protocol");

    let (status, body) = get(http, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "ok\n");

    // Drive one fault-injected self-stab session so the scrape surfaces
    // have real content: verb latencies, harvested phases, trace spans.
    let spec = r#"{"Submit":{"spec":{"name":"http-e2e","tags":[],"generator":{"Hexagon":{"radius":3}},"algorithm":"SelfStabMax","scheduler":{"SeededRandom":7},"options":{"assume_outer_boundary_known":false,"reconnect":true,"track_connectivity":false,"round_budget":null,"seed":7},"faults":{"seed":7,"reset":"None","processes":[{"kind":"Removals","start":1,"period":2,"until":5,"count":2}]}}}}"#;
    let submitted = client
        .request(&serde_json::from_str(spec).expect("spec parses"))
        .expect("submit");
    let Response::Submitted { session, .. } = submitted else {
        panic!("expected Submitted, got {submitted:?}");
    };
    match client.request(&Request::Run { session }) {
        Ok(Response::Done { report, .. }) => assert!(report.unique_leader()),
        other => panic!("expected Done, got {other:?}"),
    }

    // /metrics serves the exact exposition the Metrics verb returns —
    // compare series presence, not bytes (latency counters keep moving).
    let (status, scraped) = get(http, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let verb_metrics = match client.request(&Request::Metrics) {
        Ok(Response::Metrics { prometheus, .. }) => prometheus,
        other => panic!("expected Metrics, got {other:?}"),
    };
    for line in verb_metrics.lines().filter(|l| l.starts_with("# ")) {
        assert!(
            scraped.contains(line),
            "verb exposition header `{line}` missing from the HTTP scrape"
        );
    }
    assert!(scraped.contains("pm_server_verb_latency_us"));
    assert!(scraped.contains("pm_election_phase_rounds_total"));
    assert!(scraped.contains("pm_trace_dropped_events 0"));

    let (status, stats_json) = get(http, "/stats");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let stats: ServerStats = serde_json::from_str(&stats_json).expect("stats JSON parses");
    assert_eq!(stats.sessions, 1);
    assert!(stats.sweeps > 0);

    // /trace drains live spans: the run verb and its session slices are in
    // there, and the document is structurally valid Chrome trace JSON.
    let (status, trace_json) = get(http, "/trace");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let trace: serde_json::Value = serde_json::from_str(&trace_json).expect("trace JSON parses");
    let events = trace
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    let names: Vec<String> = events
        .iter()
        .filter_map(|e| match e.get("name") {
            Some(serde_json::Value::Str(name)) => Some(name.clone()),
            _ => None,
        })
        .collect();
    assert!(names.iter().any(|n| n == "run"), "no `run` verb span");
    assert!(
        names.iter().any(|n| n.starts_with("session:")),
        "no session slice span"
    );
    assert!(
        names.iter().any(|n| n.starts_with("fault:")),
        "no fault-firing instant"
    );
    // A second drain starts empty (plus whatever the drain itself traced).
    let (_, drained_again) = get(http, "/trace");
    let again: serde_json::Value =
        serde_json::from_str(&drained_again).expect("second drain parses");
    let remaining = again
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array")
        .len();
    assert!(
        remaining < events.len(),
        "drain did not clear the rings ({remaining} >= {})",
        events.len()
    );

    let (status, body) = get(http, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(body.contains("/metrics"), "404 lists the routes: {body}");

    let raw = http_raw(http, "POST /metrics HTTP/1.1\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 405 "), "POST got: {raw}");

    let raw = http_raw(http, "complete garbage\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 400 "), "garbage got: {raw}");

    server.shutdown().expect("clean shutdown");
}
