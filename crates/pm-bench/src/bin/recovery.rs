//! Recovery benchmark: rounds-to-recover vs fault rate, self-stabilising
//! election vs the reset-and-recover baseline.
//!
//! For each fault rate (a periodic removal + corruption schedule with a
//! shrinking period), the same seeded plan is measured two ways on the ball
//! family:
//!
//! - **self-stab-max, no reset** (`ResetPolicy::None`): the
//!   Chalopin–Das–Kokkou constant-memory election absorbs the faults on its
//!   own; `reset_needed` must stay `false`.
//! - **dle+collect, reset-and-recover** (`ResetPolicy::Reinitialize`): the
//!   paper pipeline with the legacy global reset after every firing — the
//!   labelled baseline the repo used to call fault tolerance.
//!
//! A second table re-checks the telemetry budget on fault runs: per-phase
//! profiling enabled vs disabled around an identical fault schedule must
//! stay within the existing 2% wall-clock budget (asserted at n ≥ 1000,
//! where the measurement is above the noise floor; the CI smoke cap of
//! n ≤ 200 records the numbers without enforcing).
//!
//! Merges a `recovery` section into `BENCH_results.json` without touching
//! the other sections.
//!
//! Usage: `cargo run --release -p pm-bench --bin recovery [max_n]`

use pm_amoebot::scheduler::SchedulerSpec;
use pm_baselines::SelfStabMaxElection;
use pm_bench::{arg_or, merge_sections};
use pm_core::api::{LeaderElection, PaperPipeline, RunOptions, RunReport, StepOutcome};
use pm_faults::{
    measure_recovery, FaultKind, FaultPlan, FaultProcess, FaultScript, RecoveryReport, ResetPolicy,
};
use pm_grid::Shape;
use pm_scenarios::GeneratorSpec;
use serde_json::Value;
use std::time::Instant;

/// The ball family at n ≈ 100 / 1k, as in the telemetry-overhead bench
/// (10k omitted: reset-and-recover under per-round faults is quadratic-ish
/// and would dominate the bench wall-clock without adding information).
const BALLS: [(&str, GeneratorSpec); 2] = [
    ("ball-100", GeneratorSpec::Hexagon { radius: 5 }),
    ("ball-1k", GeneratorSpec::Hexagon { radius: 18 }),
];

/// Fault rates as (label, period): one removal + one corruption firing
/// every `period` rounds over the first 12 rounds of the election.
const RATES: [(&str, u64); 3] = [("every-6", 6), ("every-3", 3), ("every-2", 2)];

/// The shared schedule at one rate: removals and corruption interleaved.
fn plan_at(period: u64, reset: ResetPolicy) -> FaultPlan {
    FaultPlan::new(41)
        .reset(reset)
        .process(FaultProcess::periodic(
            FaultKind::Removals,
            1,
            period,
            12,
            1,
        ))
        .process(FaultProcess::periodic(
            FaultKind::Corruption,
            2,
            period,
            12,
            2,
        ))
}

fn recovery_row(recovery: &RecoveryReport) -> Value {
    Value::Object(vec![
        (
            "recovery_rounds".to_string(),
            Value::UInt(recovery.recovery_rounds),
        ),
        (
            "total_rounds".to_string(),
            Value::UInt(recovery.total_rounds),
        ),
        (
            "faults_fired".to_string(),
            Value::UInt(recovery.faults_fired as u64),
        ),
        ("removed".to_string(), Value::UInt(recovery.removed as u64)),
        (
            "corrupted".to_string(),
            Value::UInt(recovery.corrupted as u64),
        ),
        (
            "reset_needed".to_string(),
            Value::Bool(recovery.reset_needed),
        ),
    ])
}

/// `iters` back-to-back profiled-or-not fault runs of the self-stabilising
/// election inside one timer — fault runs finish in single-digit
/// milliseconds, so a lone run sits at the scheduler-jitter noise floor;
/// batching amortises it. Returns the last report and the per-run seconds.
fn timed_fault_run(shape: &Shape, plan: &FaultPlan, profile: bool, iters: u32) -> (RunReport, f64) {
    let mut last = None;
    let start = Instant::now();
    for _ in 0..iters {
        let scheduler = SchedulerSpec::SeededRandom(7);
        let mut scheduler = scheduler.build();
        let mut execution = SelfStabMaxElection
            .start(shape, &mut *scheduler, &RunOptions::default())
            .expect("election starts on a connected shape");
        if profile {
            execution.enable_profiling();
        }
        let mut script = FaultScript::new(plan.clone());
        last = Some(loop {
            script.apply_due(&mut execution);
            if let StepOutcome::Finished(report) =
                execution.step_round().expect("election succeeds")
            {
                break report;
            }
        });
    }
    let secs = start.elapsed().as_secs_f64() / f64::from(iters);
    (last.expect("at least one iteration"), secs)
}

fn main() {
    let max_n = arg_or(10_000);
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");

    // Table 1: recovery rounds vs fault rate, no-reset self-stab vs
    // reset-and-recover DLE on the identical seeded schedule.
    let mut rate_rows = Vec::new();
    println!(
        "{:<10} {:>6} {:<8} {:>6} {:>18} {:>18}",
        "scenario", "n", "rate", "fired", "self-stab rec.", "reset-dle rec."
    );
    for (label, spec) in BALLS {
        let shape = spec.build();
        if shape.len() > max_n as usize {
            continue;
        }
        for (rate_label, period) in RATES {
            let opts = RunOptions::default();
            let scheduler = SchedulerSpec::SeededRandom(13);
            let self_stab = measure_recovery(
                &SelfStabMaxElection,
                &shape,
                &scheduler,
                &opts,
                &plan_at(period, ResetPolicy::None),
            )
            .expect("self-stab recovery run succeeds");
            assert!(
                self_stab.recovered && !self_stab.reset_needed,
                "self-stab failed to absorb faults without reset: {self_stab:?}"
            );
            let reset_dle = measure_recovery(
                &PaperPipeline,
                &shape,
                &scheduler,
                &opts,
                &plan_at(period, ResetPolicy::Reinitialize),
            )
            .expect("reset-and-recover run succeeds");
            assert!(reset_dle.recovered, "{reset_dle:?}");
            println!(
                "{:<10} {:>6} {:<8} {:>6} {:>12} rounds {:>12} rounds",
                label,
                shape.len(),
                rate_label,
                self_stab.faults_fired,
                self_stab.recovery_rounds,
                reset_dle.recovery_rounds
            );
            rate_rows.push(Value::Object(vec![
                ("label".to_string(), Value::Str(label.to_string())),
                ("n".to_string(), Value::UInt(shape.len() as u64)),
                ("rate".to_string(), Value::Str(rate_label.to_string())),
                ("self_stab".to_string(), recovery_row(&self_stab)),
                ("reset_dle".to_string(), recovery_row(&reset_dle)),
            ]));
        }
    }

    // Table 2: the telemetry budget holds on fault runs too.
    let budget_pct = 2.0;
    let mut overhead_rows = Vec::new();
    println!(
        "\n{:<10} {:>6} {:>12} {:>12} {:>10}",
        "scenario", "n", "plain_ms", "profiled_ms", "overhead"
    );
    for (label, spec) in BALLS {
        let shape = spec.build();
        if shape.len() > max_n as usize {
            continue;
        }
        let plan = plan_at(3, ResetPolicy::None);
        // Fault runs are milliseconds long, so machine drift (thermal,
        // noisy neighbours) dwarfs the per-step profiling cost. Each rep
        // times the two modes back-to-back — both members of a pair see
        // the same machine state — and the overhead estimate is the
        // *median of the paired ratios*, which drift and outliers cannot
        // skew the way independent minima can. The min times are still
        // reported as the per-mode noise floors.
        let reps = 16;
        let iters = if shape.len() <= 200 { 64 } else { 8 };
        let mut plain = f64::INFINITY;
        let mut profiled = f64::INFINITY;
        let mut ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (plain_report, plain_secs) = timed_fault_run(&shape, &plan, false, iters);
            plain = plain.min(plain_secs);
            let (profiled_report, profiled_secs) = timed_fault_run(&shape, &plan, true, iters);
            profiled = profiled.min(profiled_secs);
            ratios.push(profiled_secs / plain_secs.max(1e-12));
            assert!(plain_report.profile.is_empty());
            assert!(!profiled_report.profile.is_empty());
            assert_eq!(
                plain_report, profiled_report,
                "profiling changed the fault-run outcome"
            );
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let median = (ratios[reps / 2 - 1] + ratios[reps / 2]) / 2.0;
        let overhead_pct = (median - 1.0) * 100.0;
        println!(
            "{:<10} {:>6} {:>12.2} {:>12.2} {:>9.2}%",
            label,
            shape.len(),
            plain * 1e3,
            profiled * 1e3,
            overhead_pct
        );
        if shape.len() >= 1_000 {
            assert!(
                overhead_pct <= budget_pct,
                "telemetry overhead on fault runs blew the {budget_pct}% budget: {overhead_pct:.2}%"
            );
        }
        overhead_rows.push(Value::Object(vec![
            ("label".to_string(), Value::Str(label.to_string())),
            ("n".to_string(), Value::UInt(shape.len() as u64)),
            ("plain_ms".to_string(), Value::Float(plain * 1e3)),
            ("profiled_ms".to_string(), Value::Float(profiled * 1e3)),
            (
                "overhead_pct".to_string(),
                Value::Float((overhead_pct * 100.0).round() / 100.0),
            ),
        ]));
    }

    let section = Value::Object(vec![
        (
            "benchmark".to_string(),
            Value::Str(
                "recovery rounds vs fault rate: self-stab (no reset) vs dle+collect \
                 (reset-and-recover), identical seeded schedules, SeededRandom(13)"
                    .to_string(),
            ),
        ),
        ("budget_pct".to_string(), Value::Float(budget_pct)),
        ("fault_rates".to_string(), Value::Array(rate_rows)),
        (
            "profiling_overhead".to_string(),
            Value::Array(overhead_rows),
        ),
    ]);

    let out_path = repo_root.join("BENCH_results.json");
    merge_sections(&out_path, vec![("recovery", section)]).expect("write BENCH_results.json");
    println!("wrote {}", out_path.display());
}
