//! Driving scenario suites through the session scheduler.

use crate::spec::ScenarioSpec;
use pm_core::api::RunReport;
use pm_core::session::{Goal, SessionId, SessionScheduler};
use pm_faults::{apply_faults, FaultScript};
use serde::{Deserialize, Serialize};

/// Steps each session gets per sweep. Suites only need every session to
/// finish, so the slice just sets how often sharded sweeps rebalance the
/// sessions still running across threads.
const SLICE_STEPS: u64 = 256;

/// The outcome of one scenario: either a full [`RunReport`] or the error the
/// run surfaced (an *expected* datum for assumption-violation scenarios,
/// e.g. erosion on shapes with holes).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub scenario: String,
    /// The algorithm's stable name.
    pub algorithm: String,
    /// The generator label (family + parameters).
    pub generator: String,
    /// Initial particle count.
    pub n: usize,
    /// Number of fault-plan processes scheduled by the scenario.
    pub faults: usize,
    /// Whether the run produced a report.
    pub ok: bool,
    /// The election report (`null` when the run errored).
    pub report: Option<RunReport>,
    /// The error message (`null` when the run succeeded).
    pub error: Option<String>,
}

/// Runs a suite through one [`SessionScheduler`] sweeping on `threads`
/// threads: every accepted scenario becomes a session with its
/// [`FaultScript`] as payload and [`Goal::Complete`], and the scheduler
/// sweeps under [`apply_faults`] until none is runnable. A scenario whose
/// fault plan is rejected, or whose election fails to start, reports that
/// error without becoming a session.
///
/// Results come back in scenario order and are **bit-identical across thread
/// counts and repeated runs**: every shape, scheduler and fault firing is
/// seeded, sessions never interact, and each one steps exactly as
/// [`FaultScript::drive`] would step it alone.
pub fn run_suite(specs: &[&ScenarioSpec], threads: usize) -> Vec<ScenarioReport> {
    let mut scheduler = SessionScheduler::with_threads(SLICE_STEPS, threads);
    let admitted: Vec<(usize, Result<SessionId, String>)> = specs
        .iter()
        .map(|spec| {
            let shape = spec.build_shape();
            let session = spec.check_faults().and_then(|()| {
                let execution = spec
                    .algorithm
                    .instance()
                    .start_owned(&shape, spec.scheduler.build(), &spec.options)
                    .map_err(|e| e.to_string())?;
                let id = scheduler.admit(execution, FaultScript::new(spec.faults.clone()));
                scheduler.set_goal(id, Goal::Complete);
                Ok(id)
            });
            (shape.len(), session)
        })
        .collect();
    while scheduler.sweep(&apply_faults) > 0 {}

    specs
        .iter()
        .zip(admitted)
        .map(|(spec, (n, session))| {
            let outcome = session.and_then(|id| {
                let outcome = scheduler.outcome(id).expect("swept to completion");
                outcome.clone().map_err(|e| e.to_string())
            });
            let (ok, report, error) = match outcome {
                Ok(report) => (true, Some(report), None),
                Err(error) => (false, None, Some(error)),
            };
            ScenarioReport {
                scenario: spec.name.clone(),
                algorithm: spec.algorithm.name().to_string(),
                generator: spec.generator.to_string(),
                n,
                faults: spec.faults.processes.len(),
                ok,
                report,
                error,
            }
        })
        .collect()
}

/// Serializes a suite result as pretty JSON (newline-terminated — the byte
/// format the golden determinism test and the CI smoke diff pin).
pub fn report_json(reports: &[ScenarioReport]) -> String {
    let mut text = serde_json::to_string_pretty(&reports.to_vec()).expect("reports serialize");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{builtin_corpus, select, FAULTS, SMOKE};

    /// Pins every suite entry to the single-execution loop that
    /// `RecoveryDriver` runs: a borrowed `start` of the same spec, driven by
    /// [`FaultScript::drive`]. `ok`, the report and the error text must all
    /// agree.
    fn assert_entries_match_direct_drives(specs: &[&ScenarioSpec], reports: &[ScenarioReport]) {
        assert_eq!(specs.len(), reports.len());
        for (spec, entry) in specs.iter().zip(reports) {
            let shape = spec.build_shape();
            let mut scheduler = spec.scheduler.build();
            let direct = spec.check_faults().and_then(|()| {
                let execution = spec
                    .algorithm
                    .instance()
                    .start(&shape, &mut *scheduler, &spec.options)
                    .map_err(|e| e.to_string())?;
                FaultScript::new(spec.faults.clone())
                    .drive(execution)
                    .map_err(|e| e.to_string())
            });
            assert_eq!(entry.ok, direct.is_ok(), "{}", spec.name);
            assert_eq!(entry.report.as_ref(), direct.as_ref().ok(), "{}", spec.name);
            assert_eq!(entry.error.as_ref(), direct.as_ref().err(), "{}", spec.name);
        }
    }

    #[test]
    fn suite_results_are_identical_across_thread_counts() {
        let corpus = builtin_corpus();
        let smoke = select(&corpus, SMOKE);
        let sequential = run_suite(&smoke, 1);
        let sharded = run_suite(&smoke, 4);
        assert_eq!(sequential, sharded);
        assert!(sequential.iter().all(|r| r.ok), "smoke runs must succeed");
        assert!(sequential.iter().any(|r| r.faults > 0));
        assert_entries_match_direct_drives(&smoke, &sequential);
    }

    #[test]
    fn faults_suite_runs_and_is_deterministic() {
        let corpus = builtin_corpus();
        let faults = select(&corpus, FAULTS);
        assert!(!faults.is_empty());
        let sequential = run_suite(&faults, 1);
        let sharded = run_suite(&faults, 4);
        assert_eq!(sequential, sharded);
        assert_entries_match_direct_drives(&faults, &sequential);
        assert!(sequential.iter().all(|r| r.ok), "fault runs must succeed");
        assert!(sequential.iter().all(|r| r.faults > 0));
        // Every fault run still ends with a unique leader (self-stabilising
        // contenders absorb the faults; reset-and-recover scenarios restart).
        for report in &sequential {
            let run = report.report.as_ref().expect("fault run report");
            assert!(run.unique_leader(), "{}", report.scenario);
        }
    }

    #[test]
    fn fault_plans_on_closed_form_baselines_are_rejected() {
        use crate::generators::GeneratorSpec;
        use crate::spec::{AlgorithmSpec, ScenarioSpec};
        use pm_faults::{FaultKind, FaultPlan, FaultProcess};
        let spec = ScenarioSpec::new("bad-faults", GeneratorSpec::Hexagon { radius: 3 })
            .algorithm(AlgorithmSpec::QuadraticBoundary)
            .faults(FaultPlan::new(3).process(FaultProcess::once(FaultKind::Removals, 1, 2)));
        let reports = run_suite(&[&spec], 1);
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].ok);
        let error = reports[0].error.as_deref().unwrap_or_default();
        assert!(error.contains("fault plan"), "{error}");
        assert!(error.contains("would never fire"), "{error}");
    }

    #[test]
    fn report_json_round_trips() {
        let corpus = builtin_corpus();
        let one = select(&corpus, "smoke-perturbed-remove");
        let reports = run_suite(&one, 1);
        let text = report_json(&reports);
        let back: Vec<ScenarioReport> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, reports);
        let report = reports[0].report.as_ref().unwrap();
        assert!(report.unique_leader());
        assert!(report.final_positions.len() < report.n);
    }
}
