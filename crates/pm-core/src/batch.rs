//! The thread-sharded batch runner: many election scenarios, one call.
//!
//! Experiment sweeps (the Table 1 grid, scaling figures, throughput benches)
//! run hundreds of *independent* elections. [`BatchRunner`] shards them
//! across `std::thread` workers behind the existing
//! [`LeaderElection`]/[`RunReport`] surface: callers describe each run as a
//! [`BatchScenario`] (shape + options + a buildable [`SchedulerSpec`]) and
//! receive results **in scenario order**, regardless of which worker
//! finished first — so batched sweeps are bit-identical to sequential ones
//! and `pm-analysis` / `pm-bench` pick the runner up without changing their
//! output.
//!
//! Nothing here uses external dependencies (the build environment is
//! offline): sharding is a scoped-thread pool over an atomic work counter.

use crate::api::{ElectionError, Execution, LeaderElection, RunOptions, RunReport};
use pm_amoebot::scheduler::{
    DoubleActivation, ReverseRoundRobin, RoundRobin, Scheduler, SeededRandom,
};
use pm_grid::Shape;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A buildable, sendable description of a scheduler.
///
/// Scenarios cross thread boundaries, so they carry a *description* of the
/// scheduler rather than a live `dyn Scheduler`; every worker builds a fresh
/// instance, which also guarantees random streams never leak between runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// Creation order, once per round.
    RoundRobin,
    /// Reverse creation order, once per round.
    ReverseRoundRobin,
    /// A fresh uniformly random order each round, from the given seed.
    SeededRandom(u64),
    /// Every particle twice per round (forward then backward).
    DoubleActivation,
}

impl SchedulerSpec {
    /// Builds a fresh scheduler instance (`Send`, so built schedulers can
    /// back owned executions parked across threads).
    pub fn build(&self) -> Box<dyn Scheduler + Send> {
        match self {
            SchedulerSpec::RoundRobin => Box::new(RoundRobin),
            SchedulerSpec::ReverseRoundRobin => Box::new(ReverseRoundRobin),
            SchedulerSpec::SeededRandom(seed) => Box::new(SeededRandom::new(*seed)),
            SchedulerSpec::DoubleActivation => Box::new(DoubleActivation),
        }
    }

    /// The name the built scheduler reports (`Scheduler::name`).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::RoundRobin => "round-robin",
            SchedulerSpec::ReverseRoundRobin => "reverse-round-robin",
            SchedulerSpec::SeededRandom(_) => "seeded-random",
            SchedulerSpec::DoubleActivation => "double-activation",
        }
    }
}

/// One election run of a batch: a shape, the run options and the scheduler
/// to drive it with.
#[derive(Clone, Debug)]
pub struct BatchScenario {
    /// A caller-chosen label carried through to make results addressable.
    pub label: String,
    /// The initial shape.
    pub shape: Shape,
    /// The run options.
    pub options: RunOptions,
    /// The scheduler description.
    pub scheduler: SchedulerSpec,
}

impl BatchScenario {
    /// A scenario with default options and the default measurement
    /// scheduler (`SeededRandom` with the options' seed).
    pub fn new(label: impl Into<String>, shape: Shape) -> BatchScenario {
        let options = RunOptions::default();
        BatchScenario {
            label: label.into(),
            shape,
            scheduler: SchedulerSpec::SeededRandom(options.seed),
            options,
        }
    }

    /// Replaces the options.
    pub fn options(mut self, options: RunOptions) -> BatchScenario {
        self.options = options;
        self
    }

    /// Replaces the scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> BatchScenario {
        self.scheduler = scheduler;
        self
    }
}

/// A caller-supplied loop that drives a started [`Execution`] to
/// completion. Jobs carry drivers rather than live state because runs
/// execute on worker threads: every worker starts its own execution and
/// hands it to the (stateless, `Sync`) driver, so batched runs stay
/// bit-identical to sequential ones. `pm-scenarios` uses this to fire
/// fault scripts inside batched runs; a future fair scheduler can
/// interleave the executions instead of finishing each one eagerly.
pub type JobDriver<'a> =
    &'a (dyn for<'s> Fn(Execution<'s>) -> Result<RunReport, ElectionError> + Sync);

/// A job of [`BatchRunner::run_jobs`]: a scenario bound to the algorithm
/// that should run it (sweeps that compare contenders mix algorithms within
/// one batch).
pub struct BatchJob<'a> {
    /// The algorithm to run.
    pub algorithm: &'a (dyn LeaderElection + Sync),
    /// The scenario to run it on.
    pub scenario: BatchScenario,
    /// Drives the started execution (`None` runs straight to completion).
    pub driver: Option<JobDriver<'a>>,
}

impl<'a> BatchJob<'a> {
    /// A job that runs straight to completion.
    pub fn new(
        algorithm: &'a (dyn LeaderElection + Sync),
        scenario: BatchScenario,
    ) -> BatchJob<'a> {
        BatchJob {
            algorithm,
            scenario,
            driver: None,
        }
    }

    /// Attaches a custom execution driver (fault-script loops, tracing).
    pub fn driven(mut self, driver: JobDriver<'a>) -> BatchJob<'a> {
        self.driver = Some(driver);
        self
    }
}

/// Runs one job on the calling thread: starts the execution and either
/// finishes it eagerly or hands it to the job's driver.
fn run_job(job: &BatchJob<'_>) -> Result<RunReport, ElectionError> {
    let mut scheduler = job.scenario.scheduler.build();
    let execution =
        job.algorithm
            .start(&job.scenario.shape, &mut *scheduler, &job.scenario.options)?;
    match job.driver {
        Some(drive) => drive(execution),
        None => execution.finish(),
    }
}

/// Shards independent election runs across OS threads.
///
/// Results come back **in job order** (deterministic merge): the output at
/// index `i` is exactly what `jobs[i]` would have produced sequentially, so
/// batching never changes observable results — only wall-clock time.
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    threads: usize,
}

impl Default for BatchRunner {
    fn default() -> BatchRunner {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// A runner using all available hardware parallelism.
    pub fn new() -> BatchRunner {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BatchRunner { threads }
    }

    /// A runner using exactly `threads` workers (1 = sequential; useful for
    /// tests and for measuring parallel speedup).
    pub fn with_threads(threads: usize) -> BatchRunner {
        BatchRunner {
            threads: threads.max(1),
        }
    }

    /// The number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every scenario with the same algorithm; results in scenario
    /// order.
    pub fn run(
        &self,
        algorithm: &(dyn LeaderElection + Sync),
        scenarios: Vec<BatchScenario>,
    ) -> Vec<Result<RunReport, ElectionError>> {
        self.run_jobs(
            scenarios
                .into_iter()
                .map(|scenario| BatchJob::new(algorithm, scenario))
                .collect(),
        )
    }

    /// Runs a heterogeneous batch (each job names its own algorithm);
    /// results in job order.
    pub fn run_jobs(&self, jobs: Vec<BatchJob<'_>>) -> Vec<Result<RunReport, ElectionError>> {
        let total = jobs.len();
        let mut slots: Vec<Option<Result<RunReport, ElectionError>>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        if total == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(total);
        if workers <= 1 {
            return jobs.iter().map(run_job).collect();
        }

        let next = AtomicUsize::new(0);
        let results = Mutex::new(slots);
        let jobs = &jobs;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Result<RunReport, ElectionError>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        local.push((i, run_job(&jobs[i])));
                    }
                    let mut slots = results.lock().expect("no worker panics while holding");
                    for (i, result) in local {
                        slots[i] = Some(result);
                    }
                });
            }
        });
        results
            .into_inner()
            .expect("all workers joined")
            .into_iter()
            .map(|slot| slot.expect("every job index was claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PaperPipeline;
    use pm_grid::builder::{annulus, hexagon, line, swiss_cheese};

    fn scenarios() -> Vec<BatchScenario> {
        vec![
            BatchScenario::new("hexagon", hexagon(4)),
            BatchScenario::new("annulus", annulus(5, 2)).scheduler(SchedulerSpec::RoundRobin),
            BatchScenario::new("swiss", swiss_cheese(5, 3))
                .options(RunOptions::with_boundary_knowledge()),
            BatchScenario::new("line", line(9)).scheduler(SchedulerSpec::DoubleActivation),
            BatchScenario::new("empty", Shape::new()),
        ]
    }

    #[test]
    fn batched_results_equal_sequential_results_in_order() {
        let sequential = BatchRunner::with_threads(1).run(&PaperPipeline, scenarios());
        let batched = BatchRunner::with_threads(4).run(&PaperPipeline, scenarios());
        assert_eq!(sequential.len(), batched.len());
        for (i, (s, b)) in sequential.iter().zip(batched.iter()).enumerate() {
            match (s, b) {
                (Ok(s), Ok(b)) => assert_eq!(s, b, "scenario {i} diverged"),
                (Err(s), Err(b)) => assert_eq!(s, b, "scenario {i} errors diverged"),
                _ => panic!("scenario {i}: one path failed, the other did not"),
            }
        }
        // The empty-shape scenario surfaces its error at its own index.
        assert!(matches!(
            batched[4],
            Err(ElectionError::InvalidInitialConfiguration(_))
        ));
        assert!(batched[..4].iter().all(|r| r.is_ok()));
    }

    #[test]
    fn batch_runs_match_direct_elect_calls() {
        let batched = BatchRunner::new().run(&PaperPipeline, scenarios());
        for (scenario, batch_result) in scenarios().into_iter().zip(batched) {
            let mut scheduler = scenario.scheduler.build();
            let direct = PaperPipeline.elect(&scenario.shape, &mut *scheduler, &scenario.options);
            match (direct, batch_result) {
                (Ok(d), Ok(b)) => assert_eq!(d, b, "{}", scenario.label),
                (Err(d), Err(b)) => assert_eq!(d, b, "{}", scenario.label),
                _ => panic!("{}: batch and direct disagree on success", scenario.label),
            }
        }
    }

    #[test]
    fn heterogeneous_jobs_keep_their_algorithms() {
        use crate::api::phase;
        let jobs = vec![
            BatchJob::new(&PaperPipeline, BatchScenario::new("full", hexagon(3))),
            BatchJob::new(
                &PaperPipeline,
                BatchScenario::new("dle-only", hexagon(3)).options(RunOptions {
                    assume_outer_boundary_known: true,
                    reconnect: false,
                    ..RunOptions::default()
                }),
            ),
        ];
        let results = BatchRunner::with_threads(2).run_jobs(jobs);
        let full = results[0].as_ref().unwrap();
        let dle_only = results[1].as_ref().unwrap();
        assert!(full.phases.iter().any(|p| p.name == phase::OBD));
        assert!(!dle_only.phases.iter().any(|p| p.name == phase::OBD));
        assert!(full.predicate_holds());
    }

    #[test]
    fn scheduler_specs_build_what_they_name() {
        for spec in [
            SchedulerSpec::RoundRobin,
            SchedulerSpec::ReverseRoundRobin,
            SchedulerSpec::SeededRandom(7),
            SchedulerSpec::DoubleActivation,
        ] {
            assert_eq!(spec.build().name(), spec.name());
        }
    }

    #[test]
    fn driven_jobs_batch_deterministically() {
        use crate::api::{Execution, StepOutcome};
        // A driver that injects a fault before round 2 of the round-driven
        // phase: batched results must equal sequential ones exactly.
        fn drive(mut execution: Execution<'_>) -> Result<RunReport, ElectionError> {
            let mut fired = false;
            loop {
                if !fired && execution.status().next_round == Some(2) {
                    fired = true;
                    let mut system = execution.system().expect("round-driven phase");
                    let victim = system.particle_positions()[0];
                    system.remove_at(victim);
                    system.reinitialize();
                }
                if let StepOutcome::Finished(report) = execution.step_round()? {
                    return Ok(report);
                }
            }
        }
        let jobs = || -> Vec<BatchJob<'static>> {
            (0..4)
                .map(|i| {
                    BatchJob::new(
                        &PaperPipeline,
                        BatchScenario::new(format!("j{i}"), hexagon(3)),
                    )
                    .driven(&drive)
                })
                .collect()
        };
        let sequential = BatchRunner::with_threads(1).run_jobs(jobs());
        let batched = BatchRunner::with_threads(4).run_jobs(jobs());
        for (s, b) in sequential.iter().zip(&batched) {
            let (s, b) = (s.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(s, b);
            assert_eq!(s.final_positions.len(), hexagon(3).len() - 1);
            assert!(s.unique_leader());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(BatchRunner::new()
            .run(&PaperPipeline, Vec::new())
            .is_empty());
        assert_eq!(BatchRunner::with_threads(0).threads(), 1);
    }
}
