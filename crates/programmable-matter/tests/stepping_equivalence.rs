//! Differential suite for the steppable `Execution` API: driving a run
//! through `start()` + `step_round()` to completion must produce a
//! **byte-identical** `RunReport` to the eager `elect()` path — for every
//! algorithm, under every scheduler, and for every scenario of the
//! committed smoke corpus. Error paths must agree too (erosion's stall on
//! holes surfaces as the same `Stuck` from whichever driver hits it).

use programmable_matter::amoebot::scheduler::{
    DoubleActivation, ReverseRoundRobin, RoundRobin, Scheduler, SeededRandom,
};
use programmable_matter::baselines::{
    ErosionLeaderElection, QuadraticBoundary, RandomizedBoundary, SelfStabMaxElection,
};
use programmable_matter::grid::builder::{annulus, hexagon, line, swiss_cheese};
use programmable_matter::grid::Shape;
use programmable_matter::leader_election::api::{
    ElectionError, ExecutionStatus, PaperPipeline, RunOptions, RunReport, StepOutcome,
};
use programmable_matter::scenarios::{load_embedded, select};
use programmable_matter::LeaderElection;

type SchedulerFactory = (&'static str, fn() -> Box<dyn Scheduler + Send>);

fn schedulers() -> [SchedulerFactory; 4] {
    [
        ("round-robin", || Box::new(RoundRobin)),
        ("reverse-round-robin", || Box::new(ReverseRoundRobin)),
        ("seeded-random", || Box::new(SeededRandom::new(7))),
        ("double-activation", || Box::new(DoubleActivation)),
    ]
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

/// Drives `start()` + `step_round()` to completion, checking status
/// monotonicity along the way.
fn stepped(
    algorithm: &dyn LeaderElection,
    shape: &Shape,
    scheduler: &mut (dyn Scheduler + Send),
    opts: &RunOptions,
) -> Result<RunReport, ElectionError> {
    let mut execution = algorithm.start(shape, scheduler, opts)?;
    let mut last: Option<ExecutionStatus> = None;
    loop {
        let outcome = execution.step_round()?;
        let status = execution.status();
        if let Some(last) = &last {
            assert!(
                status.total_rounds >= last.total_rounds,
                "{}: total rounds regressed",
                algorithm.name()
            );
        }
        if let StepOutcome::Finished(report) = outcome {
            assert!(status.finished);
            return Ok(report);
        }
        assert!(!status.finished);
        last = Some(status);
    }
}

#[test]
fn stepping_equals_eager_for_all_algorithms_and_schedulers() {
    let shapes = [
        ("hexagon(4)", hexagon(4)),
        ("annulus(5,2)", annulus(5, 2)),
        ("swiss-cheese(4,2)", swiss_cheese(4, 2)),
        ("line(15)", line(15)),
    ];
    for algorithm in algorithms() {
        for (scheduler_label, make_scheduler) in schedulers() {
            for (shape_label, shape) in &shapes {
                let context = format!("{} / {scheduler_label} / {shape_label}", algorithm.name());
                let opts = RunOptions::default();
                let eager = algorithm.elect(shape, &mut *make_scheduler(), &opts);
                let step = stepped(algorithm, shape, &mut *make_scheduler(), &opts);
                match (eager, step) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{context}: reports diverged"),
                    (Err(a), Err(b)) => assert_eq!(a, b, "{context}: errors diverged"),
                    (a, b) => {
                        panic!("{context}: one path failed, the other did not: {a:?} vs {b:?}")
                    }
                }
            }
        }
    }
}

#[test]
fn stepping_equals_eager_for_pipeline_variants() {
    // The RunOptions axis: boundary knowledge, no reconnection, tracking.
    let shape = annulus(5, 3);
    let variants = [
        RunOptions::with_boundary_knowledge(),
        RunOptions {
            reconnect: false,
            track_connectivity: true,
            ..RunOptions::default()
        },
    ];
    for (i, opts) in variants.iter().enumerate() {
        let eager = PaperPipeline
            .elect(&shape, &mut SeededRandom::new(11), opts)
            .unwrap();
        let step = stepped(&PaperPipeline, &shape, &mut SeededRandom::new(11), opts).unwrap();
        assert_eq!(eager, step, "variant {i}");
    }
}

#[test]
fn stepping_equals_eager_across_the_smoke_corpus() {
    // Every fault-free smoke scenario: the committed corpus exercises the
    // full generator × algorithm × scheduler × options surface. (Faulted
    // scenarios have no eager equivalent — the golden-file suite pins
    // those.)
    let corpus = load_embedded().expect("committed corpus parses");
    let smoke = select(&corpus, "smoke");
    let mut compared = 0;
    for spec in smoke {
        if spec.is_adversarial() {
            continue;
        }
        let shape = spec.build_shape();
        let algorithm = spec.algorithm.instance();
        let eager = algorithm.elect(&shape, &mut *spec.scheduler.build(), &spec.options);
        let step = stepped(
            algorithm,
            &shape,
            &mut *spec.scheduler.build(),
            &spec.options,
        );
        match (eager, step) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{}: reports diverged", spec.name),
            (Err(a), Err(b)) => assert_eq!(a, b, "{}: errors diverged", spec.name),
            (a, b) => panic!(
                "{}: one path failed, the other did not: {a:?} vs {b:?}",
                spec.name
            ),
        }
        compared += 1;
    }
    assert!(compared >= 15, "only {compared} smoke scenarios compared");
}

#[test]
fn erosion_stall_surfaces_identically_from_both_drivers() {
    let holey = annulus(4, 1);
    let eager = ErosionLeaderElection.elect(&holey, &mut RoundRobin, &RunOptions::default());
    let step = stepped(
        &ErosionLeaderElection,
        &holey,
        &mut RoundRobin,
        &RunOptions::default(),
    );
    assert!(matches!(eager, Err(ElectionError::Stuck { .. })));
    assert_eq!(eager.unwrap_err(), step.unwrap_err());
}

#[test]
fn finish_resumes_a_partially_stepped_execution() {
    // Hand-stepping part of the run and then calling finish() must land on
    // the same report as either pure driver.
    let shape = hexagon(3);
    let opts = RunOptions::default();
    let eager = PaperPipeline
        .elect(&shape, &mut SeededRandom::new(2), &opts)
        .unwrap();
    let mut scheduler = SeededRandom::new(2);
    let mut execution = PaperPipeline.start(&shape, &mut scheduler, &opts).unwrap();
    for _ in 0..5 {
        execution.step_round().unwrap();
    }
    assert_eq!(execution.finish().unwrap(), eager);
}
