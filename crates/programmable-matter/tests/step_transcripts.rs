//! Step transcripts: every contender's observable step sequence, pinned
//! against a committed JSON-lines golden.
//!
//! For each row (contender × shape × scheduler, plus option, budget and
//! fault variants) the transcript records, after every
//! [`Execution::step_round`]: the `StepOutcome` (or the error's
//! `Display`), `status()`, `next_round()`, whether `system()` is
//! available, and `snapshot()`. It steps once more after `Finished` and
//! once more after an error, and ends with the final report's per-phase
//! profile (every row runs profiled; wall-clock time is left out).
//!
//! On a mismatch the test writes the transcript it produced next to the
//! test binary's temporary files and names the path, so the difference
//! can be reviewed with `diff`. Replace the golden only on a deliberate
//! change of stepping behaviour.

use programmable_matter::amoebot::scheduler::{RoundRobin, Scheduler, SeededRandom};
use programmable_matter::baselines::{
    ErosionLeaderElection, QuadraticBoundary, RandomizedBoundary, SelfStabMaxElection,
};
use programmable_matter::faults::{FaultKind, FaultPlan, FaultProcess, FaultScript, ResetPolicy};
use programmable_matter::grid::builder::{annulus, hexagon, line};
use programmable_matter::grid::Shape;
use programmable_matter::leader_election::api::{
    Execution, PaperPipeline, PhaseProfile, RunOptions, StepOutcome,
};
use programmable_matter::LeaderElection;
use serde::{Serialize, Value};

/// One transcript row: what runs, on what, under which options.
struct Row {
    label: String,
    algorithm: &'static dyn LeaderElection,
    shape: Shape,
    scheduler: fn() -> Box<dyn Scheduler + Send>,
    opts: RunOptions,
    faults: Option<FaultPlan>,
}

fn algorithms() -> [&'static dyn LeaderElection; 5] {
    [
        &PaperPipeline,
        &ErosionLeaderElection,
        &RandomizedBoundary,
        &QuadraticBoundary,
        &SelfStabMaxElection,
    ]
}

type SchedulerFactory = (&'static str, fn() -> Box<dyn Scheduler + Send>);

const ROUND_ROBIN: SchedulerFactory = ("round-robin", || Box::new(RoundRobin));
const SEEDED_RANDOM: SchedulerFactory = ("seeded-random-7", || Box::new(SeededRandom::new(7)));

fn rows() -> Vec<Row> {
    let shapes = [
        ("hexagon(2)", hexagon(2)),
        ("annulus(3,1)", annulus(3, 1)),
        ("line(1)", line(1)),
    ];
    let mut rows = Vec::new();
    for algorithm in algorithms() {
        for (shape_name, shape) in &shapes {
            for (scheduler_name, scheduler) in [ROUND_ROBIN, SEEDED_RANDOM] {
                rows.push(Row {
                    label: format!("{} {shape_name} {scheduler_name}", algorithm.name()),
                    algorithm,
                    shape: shape.clone(),
                    scheduler,
                    opts: RunOptions::default(),
                    faults: None,
                });
            }
        }
    }
    let variant = |label: &str, algorithm, shape: Shape, opts| Row {
        label: label.to_string(),
        algorithm,
        shape,
        scheduler: SEEDED_RANDOM.1,
        opts,
        faults: None,
    };
    rows.push(variant(
        "dle+collect hexagon(2) seeded-random-7 boundary-known",
        &PaperPipeline,
        hexagon(2),
        RunOptions::with_boundary_knowledge(),
    ));
    rows.push(variant(
        "dle+collect hexagon(2) seeded-random-7 no-reconnect",
        &PaperPipeline,
        hexagon(2),
        RunOptions {
            reconnect: false,
            ..RunOptions::default()
        },
    ));
    rows.push(variant(
        "dle+collect hexagon(2) seeded-random-7 budget-2",
        &PaperPipeline,
        hexagon(2),
        RunOptions {
            round_budget: Some(2),
            ..RunOptions::default()
        },
    ));
    rows.push(variant(
        "erosion-le annulus(3,1) seeded-random-7 budget-12",
        &ErosionLeaderElection,
        annulus(3, 1),
        RunOptions {
            round_budget: Some(12),
            ..RunOptions::default()
        },
    ));
    rows.push(Row {
        faults: Some(
            FaultPlan::new(5)
                .reset(ResetPolicy::Reinitialize)
                .process(FaultProcess::once(FaultKind::Removals, 2, 4)),
        ),
        ..variant(
            "dle+collect hexagon(3) seeded-random-7 removals+reinitialize",
            &PaperPipeline,
            hexagon(3),
            RunOptions::default(),
        )
    });
    rows
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// One transcript line: the step's outcome (`null` before the first step)
/// and everything the execution answers right after it.
fn step_line(
    step: usize,
    outcome: Option<&Result<StepOutcome, String>>,
    execution: &mut Execution<'_>,
) -> String {
    let outcome = match outcome {
        None => Value::Null,
        Some(Ok(outcome)) => outcome.to_value(),
        Some(Err(error)) => object(vec![("Err", Value::Str(error.clone()))]),
    };
    let system = execution.system().is_some();
    let line = object(vec![
        ("step", Value::Int(step as i64)),
        ("outcome", outcome),
        ("status", execution.status().to_value()),
        ("next_round", execution.next_round().to_value()),
        ("system", Value::Bool(system)),
        ("snapshot", execution.snapshot().to_value()),
    ]);
    serde_json::to_string(&line).expect("transcript lines serialize")
}

/// The final report's profile without its wall-clock field.
fn profile_line(profile: &[PhaseProfile]) -> String {
    let phases = profile
        .iter()
        .map(|phase| match phase.to_value() {
            Value::Object(entries) => Value::Object(
                entries
                    .into_iter()
                    .filter(|(key, _)| key != "wall_nanos")
                    .collect(),
            ),
            other => other,
        })
        .collect();
    serde_json::to_string(&object(vec![("profile", Value::Array(phases))])).unwrap()
}

/// Runs one row profiled, stepping once more after the step that ends the
/// run (`Finished` or an error).
fn transcript(row: &Row, out: &mut Vec<String>) {
    let header = object(vec![
        ("row", Value::Str(row.label.clone())),
        ("options", row.opts.to_value()),
        ("faults", row.faults.to_value()),
    ]);
    out.push(serde_json::to_string(&header).unwrap());
    let mut scheduler = (row.scheduler)();
    let mut execution = row
        .algorithm
        .start(&row.shape, &mut *scheduler, &row.opts)
        .expect("every row starts on a valid shape");
    execution.enable_profiling();
    let mut script = row.faults.clone().map(FaultScript::new);
    out.push(step_line(0, None, &mut execution));
    let mut ended = false;
    for step in 1..10_000 {
        if let Some(script) = script.as_mut() {
            script.apply_due(&mut execution);
        }
        let outcome = execution.step_round().map_err(|e| e.to_string());
        out.push(step_line(step, Some(&outcome), &mut execution));
        if matches!(outcome, Ok(StepOutcome::Finished(_)) | Err(_)) {
            if ended {
                if let Ok(StepOutcome::Finished(report)) = &outcome {
                    out.push(profile_line(&report.profile));
                }
                return;
            }
            ended = true;
        }
    }
    panic!("{}: runaway transcript", row.label);
}

fn render() -> String {
    let mut out = Vec::new();
    for row in rows() {
        transcript(&row, &mut out);
    }
    let mut text = out.join("\n");
    text.push('\n');
    text
}

#[test]
fn step_transcripts_match_the_committed_golden() {
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/step_transcripts.jsonl");
    let actual = render();
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != golden {
        let written =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("step_transcripts.jsonl");
        std::fs::write(&written, &actual).expect("transcript written");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "step transcripts differ from {} at line {}; this run's transcript is at {}",
            golden_path.display(),
            line + 1,
            written.display()
        );
    }
}

#[test]
fn step_transcripts_are_deterministic() {
    assert_eq!(render(), render());
}
