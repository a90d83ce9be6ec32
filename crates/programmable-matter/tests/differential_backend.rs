//! Differential property test of the dense indexed-grid fast path: every
//! election run on the dense occupancy backend must produce a `RunReport`
//! **bit-identical** to the same run on the legacy `HashMap` backend, across
//! all four algorithms and all four fair strong schedulers, on random
//! connected shapes (with and without holes).
//!
//! This is the proof obligation of the fast-path refactor: the dense
//! `GridIndex`/occupancy representation is an implementation detail that may
//! never change observable behaviour — leaders, round counts, phase
//! statistics, final positions, connectivity observations.

use pm_amoebot::scheduler::SchedulerSpec;
use pm_amoebot::system::OccupancyBackend;
use pm_baselines::{
    ErosionLeaderElection, QuadraticBoundary, RandomizedBoundary, SelfStabMaxElection,
};
use pm_core::api::{ElectionError, LeaderElection, PaperPipeline, RunOptions, RunReport};
use pm_grid::random::{random_blob, random_holey_hexagon};
use pm_grid::Shape;
use proptest::prelude::*;

const ALGORITHMS: [(&str, &(dyn LeaderElection + Sync)); 5] = [
    ("dle+collect", &PaperPipeline),
    ("erosion-le", &ErosionLeaderElection),
    ("randomized-boundary", &RandomizedBoundary),
    ("quadratic-boundary", &QuadraticBoundary),
    ("self-stab-max", &SelfStabMaxElection),
];

fn scheduler_specs(seed: u64) -> [SchedulerSpec; 4] {
    [
        SchedulerSpec::RoundRobin,
        SchedulerSpec::ReverseRoundRobin,
        SchedulerSpec::SeededRandom(seed),
        SchedulerSpec::DoubleActivation,
    ]
}

/// Runs one algorithm on one shape under one scheduler with the given
/// occupancy backend.
fn run(
    algorithm: &dyn LeaderElection,
    shape: &Shape,
    spec: SchedulerSpec,
    backend: OccupancyBackend,
) -> Result<RunReport, ElectionError> {
    let opts = RunOptions {
        occupancy: backend,
        track_connectivity: true,
        ..RunOptions::default()
    };
    algorithm.elect(shape, &mut *spec.build(), &opts)
}

/// Asserts dense ≡ hashed for the whole algorithm × scheduler grid on one
/// shape.
fn assert_backends_agree(shape: &Shape, seed: u64) -> Result<(), TestCaseError> {
    for (name, algorithm) in ALGORITHMS {
        for spec in scheduler_specs(seed) {
            let dense = run(algorithm, shape, spec, OccupancyBackend::Dense);
            let hashed = run(algorithm, shape, spec, OccupancyBackend::Hashed);
            match (dense, hashed) {
                (Ok(dense), Ok(hashed)) => {
                    prop_assert_eq!(
                        dense,
                        hashed,
                        "{} under {:?} diverged between backends",
                        name,
                        spec
                    );
                }
                (Err(dense), Err(hashed)) => {
                    prop_assert_eq!(
                        dense,
                        hashed,
                        "{} under {:?}: errors diverged between backends",
                        name,
                        spec
                    );
                }
                (dense, hashed) => {
                    return Err(TestCaseError::Fail(format!(
                        "{name} under {spec:?}: one backend failed, the other did not \
                         (dense: {dense:?}, hashed: {hashed:?})"
                    )));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random Eden-growth blobs (may contain holes, so the erosion baseline
    /// exercises its `Stuck` path too).
    #[test]
    fn backends_agree_on_random_blobs(n in 8usize..48, seed in 0u64..1_000) {
        let shape = random_blob(n, seed);
        assert_backends_agree(&shape, seed)?;
    }

    /// Randomly perforated hexagons: guaranteed holes, all algorithms.
    #[test]
    fn backends_agree_on_holey_hexagons(radius in 3u32..6, seed in 0u64..1_000) {
        let shape = random_holey_hexagon(radius, 0.1, seed);
        assert_backends_agree(&shape, seed)?;
    }
}

/// Satellite: mid-run particle *additions*. The dense occupancy backend
/// resizes/overflows on points outside its initial `GridRect`, so regrow
/// events exercise a code path removals never touch; both backends must
/// still agree byte-for-byte on runs whose shape grows between rounds.
#[test]
fn backends_agree_under_midrun_regrow_additions() {
    use pm_faults::{FaultKind, FaultPlan, FaultProcess, RecoveryDriver};
    use pm_grid::builder::hexagon;

    // Periodic regrow: two fresh particles every other round over the fault
    // window, with a removal process mixed in so additions land on a shape
    // that has also shrunk.
    let plan = FaultPlan::new(29)
        .process(FaultProcess::periodic(FaultKind::Regrow, 1, 2, 9, 2))
        .process(FaultProcess::once(FaultKind::Removals, 4, 2));
    let run = |backend: OccupancyBackend, seed: u64| {
        let opts = RunOptions {
            occupancy: backend,
            track_connectivity: true,
            ..RunOptions::default()
        };
        RecoveryDriver::new(plan.clone())
            .run(
                &SelfStabMaxElection,
                &hexagon(3),
                &mut *SchedulerSpec::SeededRandom(seed).build(),
                &opts,
            )
            .unwrap()
    };
    for seed in [1, 7, 23] {
        let (dense_recovery, dense_report) = run(OccupancyBackend::Dense, seed);
        let (hashed_recovery, hashed_report) = run(OccupancyBackend::Hashed, seed);
        assert_eq!(
            dense_report, hashed_report,
            "regrow run diverged between backends at seed {seed}"
        );
        assert_eq!(dense_recovery, hashed_recovery);
        assert!(
            dense_recovery.added > 0,
            "regrow never fired at seed {seed}"
        );
        assert!(dense_recovery.recovered, "{dense_recovery:?}");
    }
}

/// The fixed workloads of the conformance suite, checked exhaustively (not
/// property-based, so failures name the workload directly).
#[test]
fn backends_agree_on_fixed_workloads() {
    use pm_grid::builder::{annulus, hexagon, line, spiral, swiss_cheese};
    for shape in [
        line(1),
        line(9),
        hexagon(3),
        annulus(5, 2),
        annulus(6, 5),
        swiss_cheese(5, 3),
        spiral(40),
    ] {
        assert_backends_agree(&shape, 7).unwrap();
    }
}
