//! Driving scenario suites through the thread-sharded batch runner.

use crate::spec::ScenarioSpec;
use pm_core::api::{ElectionError, Execution, RunReport};
use pm_core::batch::{BatchJob, BatchRunner, BatchScenario};
use pm_faults::FaultScript;
use serde::{Deserialize, Serialize};

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

/// Runs a suite through [`BatchRunner`] with the given worker count.
///
/// Results come back in scenario order and are **bit-identical across thread
/// counts and repeated runs**: every shape, scheduler and fault firing is
/// seeded, the batch merge is deterministic, and each faulted run's
/// [`FaultScript`] is built fresh inside the worker.
pub fn run_suite(specs: &[&ScenarioSpec], threads: usize) -> Vec<ScenarioReport> {
    type BoxedDriver =
        Box<dyn for<'s> Fn(Execution<'s>) -> Result<RunReport, ElectionError> + Sync>;
    // A fresh script per *run* (inside the worker), so batched faulted runs
    // equal sequential ones.
    let drivers: Vec<Option<BoxedDriver>> = specs
        .iter()
        .map(|spec| {
            spec.is_adversarial().then(|| {
                let plan = spec.faults.clone();
                let driver: BoxedDriver =
                    Box::new(move |execution| FaultScript::new(plan.clone()).drive(execution));
                driver
            })
        })
        .collect();
    let rejections: Vec<Option<String>> =
        specs.iter().map(|spec| spec.check_faults().err()).collect();

    let shapes: Vec<_> = specs.iter().map(|spec| spec.build_shape()).collect();
    let sizes: Vec<usize> = shapes.iter().map(|shape| shape.len()).collect();
    let mut jobs = Vec::with_capacity(specs.len());
    for (((spec, driver), rejection), shape) in
        specs.iter().zip(&drivers).zip(&rejections).zip(shapes)
    {
        if rejection.is_some() {
            continue;
        }
        let mut job = BatchJob::new(
            spec.algorithm.instance(),
            BatchScenario::new(spec.name.clone(), shape)
                .options(spec.options)
                .scheduler(spec.scheduler),
        );
        if let Some(driver) = driver {
            job = job.driven(driver.as_ref());
        }
        jobs.push(job);
    }

    let mut results = BatchRunner::with_threads(threads)
        .run_jobs(jobs)
        .into_iter();

    specs
        .iter()
        .zip(sizes)
        .zip(rejections)
        .map(|((spec, n), rejection)| {
            let (ok, report, error) = match rejection {
                Some(why) => (false, None, Some(why)),
                None => match results.next().expect("one result per accepted job") {
                    Ok(report) => (true, Some(report), None),
                    Err(e) => (false, None, Some(e.to_string())),
                },
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

    #[test]
    fn suite_results_are_identical_across_thread_counts() {
        let corpus = builtin_corpus();
        let smoke = select(&corpus, SMOKE);
        let sequential = run_suite(&smoke, 1);
        let sharded = run_suite(&smoke, 4);
        assert_eq!(sequential, sharded);
        assert!(sequential.iter().all(|r| r.ok), "smoke runs must succeed");
        assert!(sequential.iter().any(|r| r.faults > 0));
    }

    #[test]
    fn faults_suite_runs_and_is_deterministic() {
        let corpus = builtin_corpus();
        let faults = select(&corpus, FAULTS);
        assert!(!faults.is_empty());
        let sequential = run_suite(&faults, 1);
        let sharded = run_suite(&faults, 4);
        assert_eq!(sequential, sharded);
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
