//! Telemetry overhead check: the same full election (`OBD → DLE →
//! Collect`) stepped through the `Execution` handle in three modes —
//! per-phase profiling disabled, enabled, and enabled with the span
//! recorder live — on the ball family up to `max_n`.
//!
//! Profiling and tracing are the only telemetry on the per-step hot path
//! (one `Instant::now()` pair per step, a phase-table update, and — with a
//! recorder installed — one `span_at` push per round reusing those same
//! two instants); everything else in `pm-telemetry` records per request or
//! per sweep. The disabled path must stay a single `Option` check, the
//! profiled path within a ~2% wall-clock regression, and tracing on top of
//! profiling within the same 2% budget measured as the **median of paired
//! per-rep ratios** (each rep runs both modes back to back, so drift hits
//! both sides; asserted at n ≥ 1000, where a run outlasts the noise
//! floor). Results merge into a `telemetry_overhead` section of
//! `BENCH_results.json` without touching the other sections.
//!
//! Usage: `cargo run --release -p pm-bench --bin telemetry_overhead [max_n]`
//! (`max_n` caps the scenario size; CI smoke runs pass a small value).

use pm_amoebot::scheduler::SeededRandom;
use pm_bench::{arg_or, merge_sections};
use pm_core::api::{LeaderElection, PaperPipeline, RunOptions, RunReport};
use pm_grid::Shape;
use pm_scenarios::GeneratorSpec;
use pm_telemetry::trace;
use serde_json::Value;
use std::time::Instant;

/// Wall-clock budget for profiling overhead, and for tracing on top of
/// profiling (median paired ratio), in percent.
const BUDGET_PCT: f64 = 2.0;

/// The ball family at n ≈ 100 / 1k / 10k, as in the throughput bench.
const BALLS: [(&str, GeneratorSpec); 3] = [
    ("ball-100", GeneratorSpec::Hexagon { radius: 5 }),
    ("ball-1k", GeneratorSpec::Hexagon { radius: 18 }),
    ("ball-10k", GeneratorSpec::Hexagon { radius: 57 }),
];

/// One full election through the steppable handle; profiling per `profile`.
fn timed_run(shape: &Shape, profile: bool) -> (RunReport, f64) {
    let mut execution = PaperPipeline
        .start_owned(
            shape,
            Box::new(SeededRandom::new(7)),
            &RunOptions::default(),
        )
        .expect("election starts on a connected shape");
    if profile {
        execution.enable_profiling();
    }
    let start = Instant::now();
    let report = execution.finish().expect("election succeeds");
    (report, start.elapsed().as_secs_f64())
}

fn main() {
    let max_n = arg_or(10_000);
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");

    // One recorder for the whole run, toggled per rep: the traced reps
    // measure recording cost, not install/uninstall churn. Each traced rep
    // drains so ring memory stays bounded and no rep pays wraparound.
    assert!(
        trace::install(trace::DEFAULT_CAPACITY),
        "no recorder must be installed before the bench"
    );
    assert!(trace::set_enabled(false));

    let mut rows = Vec::new();
    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "scenario", "n", "plain_ms", "profiled_ms", "traced_ms", "overhead", "tracing"
    );
    for (label, spec) in BALLS {
        let shape = spec.build();
        if shape.len() > max_n as usize {
            continue;
        }
        let reps = if shape.len() <= 2_000 { 20 } else { 7 };
        // Interleave the modes so drift (thermal, cache) hits all of them;
        // take the minimum of each, the standard noise floor estimate. The
        // tracing comparison additionally keeps each rep's profiled/traced
        // pair together as a ratio, so per-rep drift cancels.
        let mut plain = f64::INFINITY;
        let mut profiled = f64::INFINITY;
        let mut traced = f64::INFINITY;
        let mut ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (plain_report, secs) = timed_run(&shape, false);
            plain = plain.min(secs);
            let (profiled_report, profiled_secs) = timed_run(&shape, true);
            profiled = profiled.min(profiled_secs);
            assert!(trace::set_enabled(true));
            let (traced_report, traced_secs) = timed_run(&shape, true);
            assert!(trace::set_enabled(false));
            let recorded = trace::drain();
            traced = traced.min(traced_secs);
            ratios.push(traced_secs / profiled_secs.max(1e-9));
            assert!(plain_report.profile.is_empty());
            assert_eq!(
                profiled_report.profile.len(),
                profiled_report.phases.len(),
                "one profile entry per phase"
            );
            assert_eq!(
                plain_report, profiled_report,
                "profiling changed the election outcome"
            );
            assert_eq!(
                plain_report, traced_report,
                "tracing changed the election outcome"
            );
            assert!(
                !recorded.is_empty(),
                "the traced rep recorded no round spans"
            );
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let median_ratio = ratios[ratios.len() / 2];
        let overhead_pct = (profiled - plain) / plain.max(1e-9) * 100.0;
        let tracing_pct = (median_ratio - 1.0) * 100.0;
        println!(
            "{:<12} {:>6} {:>12.2} {:>12.2} {:>12.2} {:>9.2}% {:>9.2}%",
            label,
            shape.len(),
            plain * 1e3,
            profiled * 1e3,
            traced * 1e3,
            overhead_pct,
            tracing_pct
        );
        // Small runs finish in microseconds and measure scheduler jitter,
        // not tracing; the budget binds where a run outlasts the noise.
        if shape.len() >= 1_000 {
            assert!(
                tracing_pct <= BUDGET_PCT,
                "{label}: tracing overhead {tracing_pct:.2}% exceeds the \
                 {BUDGET_PCT}% budget (median of {} paired ratios)",
                ratios.len()
            );
        }
        rows.push(Value::Object(vec![
            ("label".to_string(), Value::Str(label.to_string())),
            ("n".to_string(), Value::UInt(shape.len() as u64)),
            ("plain_ms".to_string(), Value::Float(plain * 1e3)),
            ("profiled_ms".to_string(), Value::Float(profiled * 1e3)),
            ("traced_ms".to_string(), Value::Float(traced * 1e3)),
            (
                "overhead_pct".to_string(),
                Value::Float((overhead_pct * 100.0).round() / 100.0),
            ),
            (
                "tracing_overhead_pct".to_string(),
                Value::Float((tracing_pct * 100.0).round() / 100.0),
            ),
        ]));
    }
    let _ = trace::uninstall();

    let section = Value::Object(vec![
        (
            "benchmark".to_string(),
            Value::Str(
                "execution profiling disabled vs enabled vs enabled+tracing \
                 (full election, SeededRandom(7)); tracing column is the \
                 median paired traced/profiled ratio"
                    .to_string(),
            ),
        ),
        ("budget_pct".to_string(), Value::Float(BUDGET_PCT)),
        ("results".to_string(), Value::Array(rows)),
    ]);

    let out_path = repo_root.join("BENCH_results.json");
    merge_sections(&out_path, vec![("telemetry_overhead", section)])
        .expect("write BENCH_results.json");
    println!("wrote {}", out_path.display());
}
