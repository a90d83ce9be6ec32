//! `ScenarioSpec` ↔ JSON losslessness over arbitrary specs, and the
//! committed corpus file's sync with the in-code corpus.

use pm_amoebot::system::OccupancyBackend;
use pm_core::api::RunOptions;
use pm_core::batch::SchedulerSpec;
use pm_faults::{FaultKind, FaultPlan, FaultProcess, ResetPolicy};
use pm_scenarios::generators::FAMILY_COUNT;
use pm_scenarios::{builtin_corpus, load_embedded, AlgorithmSpec, GeneratorSpec, ScenarioSpec};
use proptest::prelude::*;

fn algorithm_strategy() -> impl Strategy<Value = AlgorithmSpec> {
    prop_oneof![
        Just(AlgorithmSpec::Pipeline),
        Just(AlgorithmSpec::Erosion),
        Just(AlgorithmSpec::RandomizedBoundary),
        Just(AlgorithmSpec::QuadraticBoundary),
        Just(AlgorithmSpec::SelfStabMax),
    ]
}

fn scheduler_strategy() -> impl Strategy<Value = SchedulerSpec> {
    prop_oneof![
        Just(SchedulerSpec::RoundRobin),
        Just(SchedulerSpec::ReverseRoundRobin),
        any::<u64>().prop_map(SchedulerSpec::SeededRandom),
        Just(SchedulerSpec::DoubleActivation),
    ]
}

fn options_strategy() -> impl Strategy<Value = RunOptions> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop_oneof![Just(None), (1u64..100_000).prop_map(Some)],
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(boundary, reconnect, track, budget, seed, hashed)| RunOptions {
                assume_outer_boundary_known: boundary,
                reconnect,
                track_connectivity: track,
                round_budget: budget,
                seed,
                occupancy: if hashed {
                    OccupancyBackend::Hashed
                } else {
                    OccupancyBackend::Dense
                },
            },
        )
}

fn fault_process_strategy() -> impl Strategy<Value = FaultProcess> {
    let kind = prop_oneof![
        Just(FaultKind::Removals),
        (-10i32..10).prop_map(|column| FaultKind::SplitColumn { column }),
        Just(FaultKind::Regrow),
        Just(FaultKind::Corruption),
        Just(FaultKind::Relocate),
    ];
    (kind, 0u64..30, 0u64..5, 0u64..60, 0u32..20).prop_map(|(kind, start, period, until, count)| {
        if period == 0 {
            FaultProcess::once(kind, start, count)
        } else {
            FaultProcess::periodic(kind, start, period, until, count)
        }
    })
}

fn fault_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        any::<bool>(),
        proptest::collection::vec(fault_process_strategy(), 0..3),
    )
        .prop_map(|(seed, reinit, processes)| {
            let mut plan = FaultPlan::new(seed).reset(if reinit {
                ResetPolicy::Reinitialize
            } else {
                ResetPolicy::None
            });
            for process in processes {
                plan = plan.process(process);
            }
            plan
        })
}

fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        (0usize..FAMILY_COUNT, 1u32..10, any::<u64>()),
        proptest::collection::vec(prop_oneof![Just("smoke"), Just("full"), Just("x")], 0..3),
        algorithm_strategy(),
        scheduler_strategy(),
        options_strategy(),
        fault_plan_strategy(),
    )
        .prop_map(
            |((family, size, seed), tags, algorithm, scheduler, options, faults)| {
                let mut spec = ScenarioSpec::new(
                    format!("scenario-{family}-{size}-{seed}"),
                    GeneratorSpec::sample(family, size, seed),
                )
                .algorithm(algorithm)
                .scheduler(scheduler)
                .options(options)
                .faults(faults);
                for tag in tags {
                    spec = spec.tag(tag);
                }
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ScenarioSpec` → JSON → `ScenarioSpec` is the identity, through both
    /// the value tree and the text form.
    #[test]
    fn scenario_specs_round_trip_through_json(spec in scenario_strategy()) {
        let text = serde_json::to_string_pretty(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        prop_assert_eq!(back, spec);
    }
}

/// The committed corpus file must equal the in-code corpus byte for byte
/// (regenerate with `cargo run -p pm-server --bin pm-scenarios -- regen`).
#[test]
fn committed_corpus_matches_builtin() {
    let embedded = load_embedded().expect("committed corpus parses");
    assert_eq!(
        embedded,
        builtin_corpus(),
        "corpus/scenarios.json is out of sync; run `cargo run -p pm-server --bin pm-scenarios -- regen`"
    );
}

/// Every committed scenario round-trips (the embedded corpus exercises the
/// full deserialize path; this pins re-serialization too).
#[test]
fn committed_corpus_round_trips() {
    let corpus = load_embedded().expect("committed corpus parses");
    let text = serde_json::to_string(&corpus).unwrap();
    let back: Vec<ScenarioSpec> = serde_json::from_str(&text).unwrap();
    assert_eq!(back, corpus);
}
