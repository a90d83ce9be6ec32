//! Throughput benchmark: end-to-end wall-clock cost of full elections
//! (`OBD → DLE → Collect`) on ball / annulus / random-hole shapes at
//! n ≈ 100, 1k and 10k, and on balls of n ≈ 10⁵ and 10⁶ — per-scenario
//! single-run latency and activations/second. Every scenario is timed
//! [`REPS`] times; the median is its `elapsed_ms`, with the fastest and
//! slowest run beside it. Before each run a fixed reference work that
//! shares no code with the election is timed too; `scaled_ms` is
//! `elapsed_ms` scaled by the median of those times to a host on which
//! the work takes [`REFERENCE_MS`], so rows from invocations on a busier
//! or quieter host compare. The `layers` section splits elections on
//! hexagon(182) and hexagon(577) into the library's layers (shape build,
//! `start`, OBD, DLE, Collect, report assembly), medians over [`REPS`]
//! profiled runs, and times the report's JSON both ways
//! (`serde_json::to_string` and `from_str::<RunReport>`); the reference
//! work is timed before each of those runs too, and every layer median
//! has a `*_scaled_ms` twin scaled as `scaled_ms` is. The numbers go into
//! the `benchmark`, `max_n`, `host`, `results` and `layers` keys of
//! `BENCH_results.json` at the repo root, so the performance trajectory
//! is tracked over time; every other section of the file is left as it
//! was. `host` records where the numbers were taken: the processor count,
//! the processor model, the commit and the invocation's median reference
//! time. Many-run throughput is the session scheduler's to measure (the
//! `sessions` Criterion bench).
//!
//! If `BENCH_baseline.json` exists at the repo root (numbers measured on an
//! earlier revision with this same binary), each scenario also reports the
//! speedup against it.
//!
//! Usage: `cargo run --release -p pm-bench --bin throughput [max_n]`
//! (`max_n` caps the scenario size, layer runs included; the default
//! reaches the n ≈ 10⁶ tier, and CI smoke runs pass a small value).

use pm_amoebot::scheduler::SeededRandom;
use pm_bench::{arg_or, merge_sections};
use pm_core::api::{phase, Election, LeaderElection, PaperPipeline, RunOptions, RunReport};
use pm_grid::Shape;
use pm_scenarios::GeneratorSpec;
use serde_json::Value;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// How many times every scenario is timed.
const REPS: usize = 5;

/// The reference work's wall time on the 2-vCPU VM the committed numbers
/// come from, in its quiet spells: `scaled_ms` is scaled to a host this
/// fast.
const REFERENCE_MS: f64 = 1.0;

/// The shapes whose elections the `layers` section splits by layer.
const LAYER_SHAPES: [(&str, u32); 2] = [("ball-100k", 182), ("ball-1M", 577)];

/// One benchmark scenario: a named shape.
struct Scenario {
    label: &'static str,
    shape: Shape,
}

/// A shape family: its scenarios' labels and the registry specs that land
/// the point count near each label's n.
struct Family {
    labels: &'static [&'static str],
    specs: &'static [GeneratorSpec],
}

/// The bench corpus, expressed through the `pm-scenarios` generator
/// registry (the single source of workload shapes).
const FAMILIES: [Family; 3] = [
    Family {
        labels: &["ball-100", "ball-1k", "ball-10k", "ball-100k", "ball-1M"],
        specs: &[
            GeneratorSpec::Hexagon { radius: 5 },
            GeneratorSpec::Hexagon { radius: 18 },
            GeneratorSpec::Hexagon { radius: 57 },
            GeneratorSpec::Hexagon { radius: 182 },
            GeneratorSpec::Hexagon { radius: 577 },
        ],
    },
    Family {
        labels: &["annulus-100", "annulus-1k", "annulus-10k"],
        specs: &[
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
        labels: &["holey-100", "holey-1k", "holey-10k"],
        specs: &[
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
            all.push(Scenario { label, shape });
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

/// Times a fixed work that shares no code with the election, in ms: small
/// hash maps and vectors built and dropped (allocator-bound, as elections
/// are) and a dependent walk over a 256 KiB table (cache-bound). No change
/// to the program changes this work, so its time measures how fast the
/// host runs this process at the moment.
fn reference_ms() -> f64 {
    let began = Instant::now();
    let mut state = 0x5eed_u64;
    let mut draw = || {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut sum = 0u64;
    for _ in 0..400 {
        let mut small: HashMap<u64, u64> = HashMap::new();
        let mut lists = Vec::new();
        for i in 0..24 {
            let key = draw() % 1024;
            small.insert(key, i);
            lists.push((key, vec![i; 6]));
        }
        for (key, list) in &lists {
            sum = sum.wrapping_add(small[key] + list[3]);
        }
    }
    let table: Vec<u32> = (0..1u32 << 16)
        .map(|i| (draw() as u32 ^ i) & 0xffff)
        .collect();
    let mut at = 0u32;
    for _ in 0..32_768 {
        at = table[at as usize] ^ (at >> 1);
    }
    black_box((sum, at));
    began.elapsed().as_secs_f64() * 1e3
}

/// The median of `samples` (sorted in place; NaN when empty).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Medians over [`REPS`] profiled elections on hexagon(`radius`) of the
/// library's layers, in ms: shape build, `start` (connectivity and shape
/// analysis), the OBD, DLE and Collect phases, the report assembly (the
/// rest of `finish`), and writing the report as JSON and reading it back.
/// The reference work is timed into `references_ms` before each election;
/// each `<layer>_ms` median has a `<layer>_scaled_ms` twin scaled by the
/// median of the row's reference times, as a `results` row's `scaled_ms`.
fn layers(label: &str, radius: u32, references_ms: &mut Vec<f64>) -> Value {
    let spec = GeneratorSpec::Hexagon { radius };
    let names = [
        "build",
        "start",
        "obd",
        "dle",
        "collect",
        "report",
        "report_to_string",
        "report_from_str",
    ];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut reference = Vec::with_capacity(REPS);
    let mut n = 0;
    for _ in 0..REPS {
        reference.push(reference_ms());
        let began = Instant::now();
        let shape = spec.build();
        let build = began.elapsed();
        let mut scheduler = SeededRandom::new(7);
        let mut execution = PaperPipeline
            .start(&shape, &mut scheduler, &RunOptions::default())
            .expect("election starts on a connected shape");
        let start = began.elapsed() - build;
        execution.enable_profiling();
        let report = execution.finish().expect("election succeeds");
        let outside = began.elapsed() - build - start;
        let in_phase = |name: &str| {
            let phases = report.profile.iter().filter(|p| p.name == name);
            Duration::from_nanos(phases.map(|p| p.wall_nanos).sum())
        };
        let in_phases = Duration::from_nanos(report.profile.iter().map(|p| p.wall_nanos).sum());
        let began = Instant::now();
        let json = black_box(serde_json::to_string(&report).expect("reports serialize"));
        let to_string = began.elapsed();
        let began = Instant::now();
        let parsed: RunReport = black_box(serde_json::from_str(&json).expect("reports parse"));
        let from_str = began.elapsed();
        assert!(parsed == report, "the report reads back unchanged");
        let times = [
            build,
            start,
            in_phase(phase::OBD),
            in_phase(phase::DLE),
            in_phase(phase::COLLECT),
            outside.saturating_sub(in_phases),
            to_string,
            from_str,
        ];
        for (sample, time) in samples.iter_mut().zip(times) {
            sample.push(time.as_secs_f64() * 1e3);
        }
        n = report.n;
    }
    let scale = REFERENCE_MS / median(&mut reference);
    references_ms.extend(reference);
    let mut fields = vec![
        ("label".to_string(), Value::Str(label.to_string())),
        ("n".to_string(), Value::UInt(n as u64)),
        ("reps".to_string(), Value::UInt(REPS as u64)),
    ];
    for (name, sample) in names.iter().zip(&mut samples) {
        let ms = median(sample);
        fields.push((format!("{name}_ms"), Value::Float(ms)));
        fields.push((format!("{name}_scaled_ms"), Value::Float(ms * scale)));
    }
    Value::Object(fields)
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

/// The machine and revision the numbers come from: available processors,
/// the processor model (Linux `/proc/cpuinfo`, else the architecture), the
/// checked-out commit (`unknown` outside a git checkout) and the median
/// time of the reference work over the invocation.
fn host(repo_root: &Path, reference_ms: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        });
    let machine = format!(
        "{} ({} {})",
        model.as_deref().unwrap_or("unknown processor"),
        std::env::consts::ARCH,
        std::env::consts::OS
    );
    let commit = Command::new("git")
        .arg("-C")
        .arg(repo_root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Value::Object(vec![
        ("nproc".to_string(), Value::UInt(nproc as u64)),
        ("machine".to_string(), Value::Str(machine)),
        ("commit".to_string(), Value::Str(commit)),
        ("reference_ms".to_string(), Value::Float(reference_ms)),
    ])
}

fn main() {
    let max_n = arg_or(1_100_000);
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let baseline = load_baseline(&repo_root.join("BENCH_baseline.json"));

    let mut results = Vec::new();
    let mut references_ms = Vec::new();
    println!(
        "{:<12} {:>7} {:>8} {:>12} {:>12} {:>19} {:>10} {:>14} {:>9}",
        "scenario",
        "n",
        "rounds",
        "activations",
        "elapsed_ms",
        "min..max_ms",
        "scaled_ms",
        "activ/sec",
        "speedup"
    );
    for scenario in scenarios(max_n) {
        let mut report = None;
        let mut reference = Vec::with_capacity(REPS);
        let mut times_ms: Vec<f64> = (0..REPS)
            .map(|_| {
                reference.push(reference_ms());
                let (run, secs) = timed_run(&scenario.shape);
                report = Some(run);
                secs * 1e3
            })
            .collect();
        let report = report.expect("at least one repetition");
        let elapsed_ms = median(&mut times_ms);
        let (min_ms, max_ms) = (times_ms[0], times_ms[REPS - 1]);
        let scaled_ms = elapsed_ms * REFERENCE_MS / median(&mut reference);
        references_ms.extend(reference);
        let per_sec = report.activations as f64 / (elapsed_ms / 1e3).max(1e-9);
        let speedup = baseline
            .iter()
            .find(|(label, _)| label == scenario.label)
            .map(|(_, base_ms)| base_ms / elapsed_ms.max(1e-9));
        println!(
            "{:<12} {:>7} {:>8} {:>12} {:>12.2} {:>19} {:>10.2} {:>14.0} {:>9}",
            scenario.label,
            report.n,
            report.total_rounds,
            report.activations,
            elapsed_ms,
            format!("{min_ms:.2}..{max_ms:.2}"),
            scaled_ms,
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
            ("scaled_ms".to_string(), Value::Float(scaled_ms)),
            ("elapsed_min_ms".to_string(), Value::Float(min_ms)),
            ("elapsed_max_ms".to_string(), Value::Float(max_ms)),
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

    let mut layer_rows = Vec::new();
    for (label, radius) in LAYER_SHAPES {
        // A hexagon of radius r has 3r(r + 1) + 1 points.
        if 3 * radius * (radius + 1) + 1 > max_n {
            continue;
        }
        let row = layers(label, radius, &mut references_ms);
        println!(
            "layers {label}: {}",
            serde_json::to_string(&row).expect("row")
        );
        layer_rows.push(row);
    }
    let host = host(&repo_root, median(&mut references_ms));

    let out_path = repo_root.join("BENCH_results.json");
    merge_sections(
        &out_path,
        vec![
            (
                "benchmark",
                Value::Str("pm-bench throughput (full election, SeededRandom(7))".to_string()),
            ),
            ("max_n", Value::UInt(max_n as u64)),
            ("host", host.clone()),
            ("results", Value::Array(results)),
            (
                "layers",
                Value::Object(vec![
                    ("host".to_string(), host),
                    ("rows".to_string(), Value::Array(layer_rows)),
                ]),
            ),
        ],
    )
    .expect("write BENCH_results.json");
    println!("wrote {}", out_path.display());
}
