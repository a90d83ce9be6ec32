//! DLE executions at scale, pinned against a committed JSON-lines golden.
//!
//! Each row runs [`run_dle`] with connectivity tracking on one shape under
//! one scheduler and records the full `RunStats`, the leader point, the
//! status counts and an FNV-1a digest of the final positions (in particle
//! id order). The shapes are the perfbench-sized blob and holey hexagon,
//! and three larger ones: `hexagon(57)`, `annulus(66, 33)` and
//! `hexagon(182)` (about 10⁴, 10⁴ and 10⁵ particles): long wake lists,
//! runs of hundreds of thousands of activations and disconnections that
//! the small step-transcript golden never reaches.
//!
//! Rows up to [`TIER1_MAX_PARTICLES`] run in every `cargo test`; the large
//! rows are `#[ignore]`d there and run in release with
//! `cargo test --release -p pm-core --test dle_at_scale -- --ignored`.
//!
//! On a mismatch the test writes the lines it produced next to the test
//! binary's temporary files and names the path, so the difference can be
//! reviewed with `diff`. Replace the golden only on a deliberate change of
//! DLE's executions.

use pm_amoebot::scheduler::{RoundRobin, Scheduler, SeededRandom};
use pm_core::dle::{run_dle, DleOutcome};
use pm_grid::builder::{annulus, hexagon};
use pm_grid::random::{random_holey_hexagon, random_simply_connected_blob};
use pm_grid::{Point, Shape};
use serde::{Serialize, Value};

/// Rows with at most this many particles run in the tier-1 suite.
const TIER1_MAX_PARTICLES: usize = 2_500;

fn shapes() -> Vec<(&'static str, Shape)> {
    vec![
        ("blob(2000, seed 1)", random_simply_connected_blob(2000, 1)),
        (
            "holey-hexagon(25, 12%, seed 1)",
            random_holey_hexagon(25, 0.12, 1),
        ),
        ("hexagon(57)", hexagon(57)),
        ("annulus(66, 33)", annulus(66, 33)),
        ("hexagon(182)", hexagon(182)),
    ]
}

type SchedulerFactory = (&'static str, fn() -> Box<dyn Scheduler>);

const SCHEDULERS: [SchedulerFactory; 2] = [
    ("round-robin", || Box::new(RoundRobin)),
    ("seeded-random-7", || Box::new(SeededRandom::new(7))),
];

/// FNV-1a over the positions' coordinates, in order (a digest whose
/// algorithm is fixed here, unlike `DefaultHasher`'s).
fn fnv1a(points: &[Point]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for p in points {
        for byte in p.q.to_le_bytes().into_iter().chain(p.r.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn line(label: &str, n: usize, outcome: &DleOutcome) -> String {
    let (leaders, followers, undecided) = outcome.status_counts;
    let row = Value::Object(vec![
        ("row".to_string(), Value::Str(label.to_string())),
        ("particles".to_string(), Value::Int(n as i64)),
        ("stats".to_string(), outcome.stats.to_value()),
        ("leader_point".to_string(), outcome.leader_point.to_value()),
        (
            "status_counts".to_string(),
            Value::Array(vec![
                Value::Int(leaders as i64),
                Value::Int(followers as i64),
                Value::Int(undecided as i64),
            ]),
        ),
        (
            "final_positions_fnv1a".to_string(),
            Value::Str(format!("{:016x}", fnv1a(&outcome.final_positions))),
        ),
    ]);
    serde_json::to_string(&row).expect("golden lines serialize")
}

/// Runs every row whose particle count `selects`, and checks each line
/// against the golden line with the same row label.
fn check_rows(selects: fn(usize) -> bool, written_as: &str) {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dle_at_scale.jsonl");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let mut actual = Vec::new();
    let mut mismatches = Vec::new();
    for (shape_name, shape) in shapes() {
        if !selects(shape.len()) {
            continue;
        }
        for (scheduler_name, scheduler) in SCHEDULERS {
            let label = format!("{shape_name} {scheduler_name}");
            let outcome = run_dle(&shape, scheduler(), true).expect("DLE elects on every row");
            let text = line(&label, shape.len(), &outcome);
            let prefix = format!("{{\"row\":\"{label}\",");
            if golden.lines().find(|l| l.starts_with(&prefix)) != Some(text.as_str()) {
                mismatches.push(label);
            }
            actual.push(text);
        }
    }
    assert!(!actual.is_empty(), "no row selected");
    if !mismatches.is_empty() {
        let written = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(written_as);
        std::fs::write(&written, actual.join("\n") + "\n").expect("lines written");
        panic!(
            "rows {mismatches:?} differ from {}; this run's lines are at {}",
            golden_path.display(),
            written.display()
        );
    }
}

#[test]
fn dle_runs_up_to_2500_particles_match_the_golden() {
    check_rows(|n| n <= TIER1_MAX_PARTICLES, "dle_at_scale.small.jsonl");
}

#[test]
#[ignore = "10⁴–10⁵ particles: run in release with --ignored"]
fn dle_runs_at_scale_match_the_golden() {
    check_rows(|n| n > TIER1_MAX_PARTICLES, "dle_at_scale.large.jsonl");
}
