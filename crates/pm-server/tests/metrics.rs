//! The `metrics` verb end to end: one registry snapshot served as both
//! structured JSON and Prometheus text exposition, fed by real traffic
//! through the stdio transport.

use pm_server::{serve, Response, ServerCore};
use pm_telemetry::MetricsSnapshot;

const SPEC: &str = r#"{"Submit":{"spec":{"name":"metrics-smoke","tags":[],"generator":{"Hexagon":{"radius":3}},"algorithm":"Pipeline","scheduler":{"SeededRandom":7},"options":{"assume_outer_boundary_known":false,"reconnect":true,"track_connectivity":false,"round_budget":null,"seed":7},"faults":{"seed":0,"reset":"None","processes":[]}}}}"#;

/// Runs a request script through the stdio-style transport and parses
/// every response line.
fn serve_script(script: &str) -> Vec<Response> {
    let mut core = ServerCore::default();
    let mut out = Vec::new();
    serve(&mut core, script.as_bytes(), &mut out).expect("in-memory serve");
    std::str::from_utf8(&out)
        .expect("utf8 responses")
        .lines()
        .map(|line| serde_json::from_str(line).expect("parseable response"))
        .collect()
}

fn scrape(script: &str) -> (MetricsSnapshot, String) {
    let responses = serve_script(script);
    let scrape = responses
        .iter()
        .rev()
        .find_map(|response| match response {
            Response::Metrics {
                metrics,
                prometheus,
            } => Some((metrics.clone(), prometheus.clone())),
            _ => None,
        })
        .expect("script contained a Metrics verb");
    scrape
}

#[test]
fn metrics_verb_returns_one_consistent_snapshot_in_both_renderings() {
    let script = format!("{SPEC}\n{{\"Run\":{{\"session\":1}}}}\n\"Metrics\"\n\"Shutdown\"\n");
    let (snapshot, prometheus) = scrape(&script);

    // Both renderings come from the same snapshot, taken once.
    assert_eq!(snapshot.to_prometheus(), prometheus);

    // The verbs served so far have non-zero latency observations.
    for verb in ["submit", "run", "metrics"] {
        let series = snapshot
            .histograms
            .iter()
            .find(|h| {
                h.name == "pm_server_verb_latency_us"
                    && h.labels.iter().any(|l| l.key == "verb" && l.value == verb)
            })
            .unwrap_or_else(|| panic!("missing verb series `{verb}`"));
        // The metrics verb's own latency is observed *after* the snapshot,
        // so its count is still zero there; served verbs before it count.
        if verb != "metrics" {
            assert!(series.count > 0, "verb `{verb}` was served");
        }
    }

    // The finished election's per-phase profile was harvested.
    let wall = snapshot
        .histograms
        .iter()
        .filter(|h| h.name == "pm_election_phase_wall_us")
        .count();
    assert!(wall >= 2, "pipeline phases harvested, got {wall} series");
    let rounds: u64 = snapshot
        .counters
        .iter()
        .filter(|c| c.name == "pm_election_phase_rounds_total")
        .map(|c| c.value)
        .sum();
    assert!(rounds > 0, "harvested phases completed rounds");

    // Sweep timing fed by the Run pumping.
    let sweeps = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "pm_server_sweep_duration_us")
        .expect("sweep duration series");
    assert!(sweeps.count > 0, "run pumped at least one sweep");

    // Byte counters counted the script and its responses.
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("missing counter `{name}`"))
            .value
    };
    assert!(counter("pm_server_bytes_read_total") >= SPEC.len() as u64);
    assert!(counter("pm_server_bytes_written_total") > 0);
}

#[test]
fn snapshot_round_trips_through_json_and_prometheus_parses() {
    let script = format!("{SPEC}\n{{\"Run\":{{\"session\":1}}}}\n\"Metrics\"\n\"Shutdown\"\n");
    let (snapshot, prometheus) = scrape(&script);

    // JSON round trip through the wire encoding.
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
    assert_eq!(back, snapshot);

    // Prometheus text exposition: every line is a comment or
    // `name{labels} value`, histograms carry cumulative buckets capped by
    // +Inf, and each histogram's _count appears.
    let mut series_lines = 0;
    for line in prometheus.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        series_lines += 1;
        let (name_and_labels, value) = line.rsplit_once(' ').expect("`name value` shape");
        assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
        let name = name_and_labels
            .split('{')
            .next()
            .expect("metric name before labels");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in {line}"
        );
    }
    assert!(series_lines > 0, "exposition is not empty");
    for histogram in &snapshot.histograms {
        assert!(
            prometheus.contains(&format!("{}_count", histogram.name)),
            "missing _count for {}",
            histogram.name
        );
        assert!(
            prometheus.contains("le=\"+Inf\""),
            "missing +Inf bucket for {}",
            histogram.name
        );
    }
}

#[test]
fn stats_verb_carries_the_transport_counters() {
    let script = format!("{SPEC}\n{{\"Run\":{{\"session\":1}}}}\n\"Stats\"\n\"Shutdown\"\n");
    let responses = serve_script(&script);
    let stats = responses
        .iter()
        .find_map(|response| match response {
            Response::Stats { stats } => Some(stats.clone()),
            _ => None,
        })
        .expect("script contained a Stats verb");
    assert!(stats.bytes_read >= SPEC.len() as u64);
    assert!(stats.bytes_written > 0);
    // The in-memory transport never registered a connection, so the gauge
    // sits at zero — what matters is that it is reported at all.
    assert_eq!(stats.active_connections, 0);
}

#[test]
fn metrics_stay_out_of_golden_surfaces() {
    // The deterministic protocol responses must not change when telemetry
    // records differently-sized latencies: two identical scripts produce
    // byte-identical non-Metrics responses.
    let script = format!("{SPEC}\n{{\"Run\":{{\"session\":1}}}}\n\"Shutdown\"\n");
    let first: Vec<String> = serve_script(&script)
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    let second: Vec<String> = serve_script(&script)
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    assert_eq!(first, second, "telemetry leaked into protocol payloads");
}
