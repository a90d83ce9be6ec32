//! `RunReport` must serialize to and from JSON losslessly, so `pm-analysis`
//! tables and future `BENCH_*.json` artifacts can consume reports directly.

use programmable_matter::amoebot::scheduler::SeededRandom;
use programmable_matter::baselines::{
    ErosionLeaderElection, QuadraticBoundary, RandomizedBoundary,
};
use programmable_matter::grid::builder::{annulus, hexagon, line};
use programmable_matter::leader_election::PaperPipeline;
use programmable_matter::{Election, LeaderElection, RunOptions, RunReport};

fn roundtrip(report: &RunReport) -> RunReport {
    let json = serde_json::to_string(report).expect("report serializes");
    serde_json::from_str(&json).expect("report parses back")
}

#[test]
fn pipeline_report_roundtrips_losslessly() {
    // Exercise every field: OBD + DLE + Collect phases, connectivity
    // tracking on, movement counters nonzero.
    let report = Election::on(&annulus(5, 2))
        .scheduler(SeededRandom::new(7))
        .track_connectivity()
        .run()
        .unwrap();
    assert_eq!(roundtrip(&report), report);
}

#[test]
fn reports_of_every_algorithm_roundtrip() {
    let shape = hexagon(4);
    let algorithms: [&dyn LeaderElection; 4] = [
        &PaperPipeline,
        &ErosionLeaderElection,
        &RandomizedBoundary,
        &QuadraticBoundary,
    ];
    for algorithm in algorithms {
        let report = Election::on(&shape)
            .algorithm(algorithm)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", algorithm.name()));
        assert_eq!(
            roundtrip(&report),
            report,
            "lossy round trip for {}",
            algorithm.name()
        );
    }
}

#[test]
fn pretty_and_compact_json_parse_identically() {
    let report = Election::on(&line(9)).run().unwrap();
    let compact = serde_json::to_string(&report).unwrap();
    let pretty = serde_json::to_string_pretty(&report).unwrap();
    assert_ne!(compact, pretty);
    let from_compact: RunReport = serde_json::from_str(&compact).unwrap();
    let from_pretty: RunReport = serde_json::from_str(&pretty).unwrap();
    assert_eq!(from_compact, from_pretty);
    assert_eq!(from_compact, report);
}

#[test]
fn json_shape_is_stable_for_external_consumers() {
    // pm-analysis and future bench artifacts read these fields by name; the
    // test pins the top-level schema.
    let report = Election::on(&hexagon(3)).run().unwrap();
    let json = serde_json::to_string(&report).unwrap();
    for field in [
        "\"algorithm\"",
        "\"scheduler\"",
        "\"n\"",
        "\"leader\"",
        "\"leaders\"",
        "\"followers\"",
        "\"undecided\"",
        "\"phases\"",
        "\"total_rounds\"",
        "\"activations\"",
        "\"moves\"",
        "\"peak_memory_bits\"",
        "\"connectivity\"",
        "\"final_connected\"",
        "\"final_positions\"",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
}

#[test]
fn run_options_roundtrip() {
    let opts = RunOptions {
        assume_outer_boundary_known: true,
        reconnect: false,
        track_connectivity: true,
        round_budget: Some(123),
        seed: 42,
    };
    let json = serde_json::to_string(&opts).unwrap();
    let back: RunOptions = serde_json::from_str(&json).unwrap();
    assert_eq!(back, opts);
    // The None branch of round_budget must survive as well.
    let defaults = RunOptions::default();
    let back: RunOptions =
        serde_json::from_str(&serde_json::to_string(&defaults).unwrap()).unwrap();
    assert_eq!(back, defaults);
}
