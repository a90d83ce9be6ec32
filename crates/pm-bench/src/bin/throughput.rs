//! Throughput benchmark: end-to-end wall-clock cost of full elections
//! (`OBD → DLE → Collect`) on ball / annulus / random-hole shapes at
//! n ≈ 100, 1k and 10k — per-scenario single-run latency and
//! activations/second. The numbers go into the `benchmark`, `max_n` and
//! `results` keys of `BENCH_results.json` at the repo root, so the
//! performance trajectory is tracked over time; every other section of the
//! file is left as it was. Many-run throughput is the session scheduler's
//! to measure (the `sessions` Criterion bench).
//!
//! If `BENCH_baseline.json` exists at the repo root (numbers measured on an
//! earlier revision with this same binary), each scenario also reports the
//! speedup against it.
//!
//! Usage: `cargo run --release -p pm-bench --bin throughput [max_n]`
//! (`max_n` caps the scenario size; CI smoke runs pass a small value).

use pm_amoebot::scheduler::SeededRandom;
use pm_bench::{arg_or, merge_sections};
use pm_core::api::{Election, RunReport};
use pm_grid::Shape;
use pm_scenarios::GeneratorSpec;
use serde_json::Value;
use std::time::Instant;

/// One benchmark scenario: a named shape plus how many timed repetitions to
/// take the minimum over (small instances are noisy, large ones are slow).
struct Scenario {
    label: &'static str,
    shape: Shape,
    reps: u32,
}

/// A shape family: label prefix and the registry specs that land the point
/// count near 100 / 1k / 10k.
struct Family {
    labels: [&'static str; 3],
    specs: [GeneratorSpec; 3],
}

/// The bench corpus, expressed through the `pm-scenarios` generator
/// registry (the single source of workload shapes).
const FAMILIES: [Family; 3] = [
    Family {
        labels: ["ball-100", "ball-1k", "ball-10k"],
        specs: [
            GeneratorSpec::Hexagon { radius: 5 },
            GeneratorSpec::Hexagon { radius: 18 },
            GeneratorSpec::Hexagon { radius: 57 },
        ],
    },
    Family {
        labels: ["annulus-100", "annulus-1k", "annulus-10k"],
        specs: [
            GeneratorSpec::Annulus { outer: 7, inner: 3 },
            GeneratorSpec::Annulus {
                outer: 21,
                inner: 10,
            },
            GeneratorSpec::Annulus {
                outer: 66,
                inner: 33,
            },
        ],
    },
    Family {
        labels: ["holey-100", "holey-1k", "holey-10k"],
        specs: [
            GeneratorSpec::HoleyHexagon {
                radius: 5,
                hole_pct: 8,
                seed: 7,
            },
            GeneratorSpec::HoleyHexagon {
                radius: 18,
                hole_pct: 8,
                seed: 7,
            },
            GeneratorSpec::HoleyHexagon {
                radius: 57,
                hole_pct: 8,
                seed: 7,
            },
        ],
    },
];

fn scenarios(max_n: u32) -> Vec<Scenario> {
    let mut all = Vec::new();
    for family in &FAMILIES {
        for (label, spec) in family.labels.iter().zip(family.specs) {
            let shape = spec.build();
            if shape.len() > max_n as usize {
                continue;
            }
            all.push(Scenario {
                label,
                reps: if shape.len() <= 2_000 { 3 } else { 1 },
                shape,
            });
        }
    }
    all
}

/// Runs one full election and returns the report plus elapsed seconds.
fn timed_run(shape: &Shape) -> (RunReport, f64) {
    let start = Instant::now();
    let report = Election::on(shape)
        .scheduler(SeededRandom::new(7))
        .run()
        .expect("election succeeds on a connected shape");
    (report, start.elapsed().as_secs_f64())
}

/// Loads `label -> elapsed_ms` from a previous results file, if present.
fn load_baseline(path: &std::path::Path) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(Value::Object(root)) = serde_json::from_str::<Value>(&text) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (key, value) in &root {
        if key != "results" {
            continue;
        }
        let Value::Array(items) = value else { continue };
        for item in items {
            let Value::Object(fields) = item else {
                continue;
            };
            let label = fields.iter().find(|(k, _)| k == "label");
            let elapsed = fields.iter().find(|(k, _)| k == "elapsed_ms");
            if let (Some((_, Value::Str(label))), Some((_, elapsed))) = (label, elapsed) {
                let ms = match elapsed {
                    Value::Float(x) => *x,
                    Value::Int(i) => *i as f64,
                    Value::UInt(u) => *u as f64,
                    _ => continue,
                };
                out.push((label.clone(), ms));
            }
        }
    }
    out
}

fn main() {
    let max_n = arg_or(10_000);
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let baseline = load_baseline(&repo_root.join("BENCH_baseline.json"));

    let mut results = Vec::new();
    println!(
        "{:<12} {:>6} {:>8} {:>12} {:>12} {:>14} {:>9}",
        "scenario", "n", "rounds", "activations", "elapsed_ms", "activ/sec", "speedup"
    );
    for scenario in scenarios(max_n) {
        let mut best: Option<(RunReport, f64)> = None;
        for _ in 0..scenario.reps {
            let (report, secs) = timed_run(&scenario.shape);
            if best.as_ref().is_none_or(|(_, b)| secs < *b) {
                best = Some((report, secs));
            }
        }
        let (report, secs) = best.expect("at least one repetition");
        let elapsed_ms = secs * 1e3;
        let per_sec = report.activations as f64 / secs.max(1e-9);
        let speedup = baseline
            .iter()
            .find(|(label, _)| label == scenario.label)
            .map(|(_, base_ms)| base_ms / elapsed_ms.max(1e-9));
        println!(
            "{:<12} {:>6} {:>8} {:>12} {:>12.2} {:>14.0} {:>9}",
            scenario.label,
            report.n,
            report.total_rounds,
            report.activations,
            elapsed_ms,
            per_sec,
            speedup.map_or("-".to_string(), |s| format!("{s:.2}x")),
        );
        let mut fields = vec![
            ("label".to_string(), Value::Str(scenario.label.to_string())),
            ("n".to_string(), Value::UInt(report.n as u64)),
            ("rounds".to_string(), Value::UInt(report.total_rounds)),
            ("activations".to_string(), Value::UInt(report.activations)),
            ("moves".to_string(), Value::UInt(report.moves)),
            ("elapsed_ms".to_string(), Value::Float(elapsed_ms)),
            ("activations_per_sec".to_string(), Value::Float(per_sec)),
        ];
        if let Some(speedup) = speedup {
            fields.push((
                "speedup_vs_baseline".to_string(),
                Value::Float((speedup * 100.0).round() / 100.0),
            ));
        }
        results.push(Value::Object(fields));
    }

    let out_path = repo_root.join("BENCH_results.json");
    merge_sections(
        &out_path,
        vec![
            (
                "benchmark",
                Value::Str("pm-bench throughput (full election, SeededRandom(7))".to_string()),
            ),
            ("max_n", Value::UInt(max_n as u64)),
            ("results", Value::Array(results)),
        ],
    )
    .expect("write BENCH_results.json");
    println!("wrote {}", out_path.display());
}
