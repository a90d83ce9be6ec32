//! The committed scenario corpus and suite selection.
//!
//! The corpus is authored in code ([`builtin_entries`]) and committed as
//! JSON (`corpus/scenarios.json`, regenerated by `pm-scenarios regen`); the
//! CLI parses the committed JSON at startup, so every invocation exercises
//! the full spec deserialization path, and a test pins the two in sync.
//!
//! Entries are either concrete [`ScenarioSpec`]s or [`FamilySpec`] grids
//! ([`CorpusEntry`]); loading expands families into their instances, so
//! every consumer downstream of [`load_embedded`]/[`load_file`] still sees
//! a flat scenario list.

use crate::family::{expand_entries, CorpusEntry, FamilySpec};
use crate::generators::GeneratorSpec;
use crate::spec::{AlgorithmSpec, ScenarioSpec};
use pm_amoebot::scheduler::SchedulerSpec;
use pm_core::api::RunOptions;
use pm_faults::{FaultKind, FaultPlan, FaultProcess, ResetPolicy};

/// The committed corpus JSON, embedded so the CLI runs from any directory.
pub const EMBEDDED_CORPUS: &str = include_str!("../corpus/scenarios.json");

/// The `smoke` suite tag: small (n ≤ 200), fast, every run succeeds —
/// suitable for CI and the golden determinism test.
pub const SMOKE: &str = "smoke";

/// The `faults` suite tag: small (n ≤ 200) fault-plan scenarios — periodic
/// removals, regrow, corruption and relocation against the self-stabilising
/// contender and the reset-and-recover pipeline — golden-diffed by the CI
/// recovery smoke step.
pub const FAULTS: &str = "faults";

/// The `full` suite tag: larger instances plus scenarios whose *expected*
/// outcome is an assumption-violation error (erosion on holes).
pub const FULL: &str = "full";

/// The `sweep` suite tag: family-generated size × seed grids, for
/// scaling-style sweeps driven from the corpus.
pub const SWEEP: &str = "sweep";

/// The suite name selecting the whole corpus.
pub const ALL: &str = "all";

fn dle_only() -> RunOptions {
    RunOptions {
        reconnect: false,
        ..RunOptions::default()
    }
}

/// An empty plan that resets the survivors after every firing.
fn reset_and_recover(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).reset(ResetPolicy::Reinitialize)
}

/// The built-in corpus *entries*: concrete scenarios plus family grids, as
/// committed to `corpus/scenarios.json`. [`builtin_corpus`] is the expanded
/// flat view.
pub fn builtin_entries() -> Vec<CorpusEntry> {
    let mut entries: Vec<CorpusEntry> = builtin_scenarios()
        .into_iter()
        .map(CorpusEntry::Scenario)
        .collect();
    // The large-hexagon suite is a family grid: one entry, one scenario per
    // size (radius 18 is the former per-instance `full-hexagon-1k`).
    entries.push(CorpusEntry::Family(
        FamilySpec::new("full-hexagon", "hexagon")
            .tag(FULL)
            .sizes([12, 18]),
    ));
    // A corpus-driven scaling sweep: simply-connected blobs over a
    // size × seed grid (sample scales blob families as n = 3·size + 1).
    entries.push(CorpusEntry::Family(
        FamilySpec::new("sweep-blob", "simply-connected-blob")
            .tag(SWEEP)
            .sizes([20, 40, 80])
            .seeds([3, 17]),
    ));
    entries
}

/// The concrete (non-family) scenarios of the built-in corpus: one
/// representative of every structural class the experiments use, the
/// Table 1 variant knobs, every scheduler, every algorithm, and perturbed
/// runs exercising the reconnection dynamics.
fn builtin_scenarios() -> Vec<ScenarioSpec> {
    let mut corpus = Vec::new();

    // --- Shape families (paper pipeline, measurement scheduler) ----------
    let families: [(&str, GeneratorSpec); 12] = [
        ("hexagon", GeneratorSpec::Hexagon { radius: 5 }),
        ("line", GeneratorSpec::Line { n: 40 }),
        (
            "parallelogram",
            GeneratorSpec::Parallelogram {
                width: 8,
                height: 6,
            },
        ),
        ("annulus", GeneratorSpec::Annulus { outer: 6, inner: 3 }),
        (
            "thin-annulus",
            GeneratorSpec::Annulus { outer: 6, inner: 5 },
        ),
        (
            "swiss-cheese",
            GeneratorSpec::SwissCheese {
                radius: 5,
                spacing: 3,
            },
        ),
        (
            "comb",
            GeneratorSpec::Comb {
                teeth: 5,
                tooth_len: 4,
            },
        ),
        ("spiral", GeneratorSpec::Spiral { n: 60 }),
        (
            "dumbbell",
            GeneratorSpec::Dumbbell {
                radius: 3,
                corridor: 12,
            },
        ),
        (
            "caterpillar",
            GeneratorSpec::Caterpillar {
                spine: 12,
                max_tooth: 3,
                seed: 5,
            },
        ),
        (
            "k-hole",
            GeneratorSpec::KHoleHexagon {
                radius: 6,
                holes: 3,
                seed: 9,
            },
        ),
        ("blob", GeneratorSpec::RandomBlob { n: 120, seed: 3 }),
    ];
    for (name, generator) in families {
        corpus.push(ScenarioSpec::new(format!("smoke-{name}"), generator).tag(SMOKE));
    }

    // --- Variant knobs (Table 1 rows) -------------------------------------
    corpus.push(
        ScenarioSpec::new(
            "smoke-boundary-known",
            GeneratorSpec::SimplyConnectedBlob { n: 100, seed: 4 },
        )
        .tag(SMOKE)
        .options(RunOptions::with_boundary_knowledge()),
    );
    corpus.push(
        ScenarioSpec::new(
            "smoke-dle-only",
            GeneratorSpec::HoleyHexagon {
                radius: 5,
                hole_pct: 8,
                seed: 2,
            },
        )
        .tag(SMOKE)
        .options(dle_only()),
    );

    // --- Schedulers --------------------------------------------------------
    corpus.push(
        ScenarioSpec::new("smoke-round-robin", GeneratorSpec::Hexagon { radius: 4 })
            .tag(SMOKE)
            .scheduler(SchedulerSpec::RoundRobin),
    );
    corpus.push(
        ScenarioSpec::new(
            "smoke-reverse-round-robin",
            GeneratorSpec::Annulus { outer: 5, inner: 2 },
        )
        .tag(SMOKE)
        .scheduler(SchedulerSpec::ReverseRoundRobin),
    );
    corpus.push(
        ScenarioSpec::new(
            "smoke-double-activation",
            GeneratorSpec::Comb {
                teeth: 4,
                tooth_len: 3,
            },
        )
        .tag(SMOKE)
        .scheduler(SchedulerSpec::DoubleActivation),
    );

    // --- Baseline algorithms ----------------------------------------------
    corpus.push(
        ScenarioSpec::new("smoke-erosion", GeneratorSpec::Hexagon { radius: 4 })
            .tag(SMOKE)
            .algorithm(AlgorithmSpec::Erosion),
    );
    corpus.push(
        ScenarioSpec::new(
            "smoke-randomized-boundary",
            GeneratorSpec::SimplyConnectedBlob { n: 90, seed: 8 },
        )
        .tag(SMOKE)
        .algorithm(AlgorithmSpec::RandomizedBoundary),
    );
    corpus.push(
        ScenarioSpec::new(
            "smoke-quadratic-boundary",
            GeneratorSpec::Annulus { outer: 5, inner: 1 },
        )
        .tag(SMOKE)
        .algorithm(AlgorithmSpec::QuadraticBoundary),
    );
    corpus.push(
        ScenarioSpec::new("smoke-self-stab", GeneratorSpec::Hexagon { radius: 4 })
            .tag(SMOKE)
            .algorithm(AlgorithmSpec::SelfStabMax),
    );

    // --- Split and removal runs (the reconnection/dynamics axis): one-shot
    // --- faults under reset-and-recover, so the election restarts on the
    // --- mutated configuration ---------------------------------------------
    corpus.push(
        ScenarioSpec::new(
            "smoke-perturbed-remove",
            GeneratorSpec::Hexagon { radius: 5 },
        )
        .tag(SMOKE)
        .faults(reset_and_recover(11).process(FaultProcess::once(FaultKind::Removals, 4, 10))),
    );
    corpus.push(
        ScenarioSpec::new(
            "smoke-perturbed-double-remove",
            GeneratorSpec::SimplyConnectedBlob { n: 150, seed: 9 },
        )
        .tag(SMOKE)
        .faults(
            reset_and_recover(3)
                .process(FaultProcess::once(FaultKind::Removals, 3, 15))
                .process(FaultProcess::once(FaultKind::Removals, 9, 15)),
        ),
    );
    // The column cut splits the dumbbell: each ball elects its own leader.
    corpus.push(
        ScenarioSpec::new(
            "smoke-perturbed-split",
            GeneratorSpec::Dumbbell {
                radius: 3,
                corridor: 10,
            },
        )
        .tag(SMOKE)
        .options(dle_only())
        .faults(reset_and_recover(0).process(FaultProcess::once(
            FaultKind::SplitColumn { column: 8 },
            3,
            0,
        ))),
    );

    // --- Fault-plan scenarios (the `faults` suite: CI recovery smoke) ------
    // The self-stabilising contender absorbs memory corruption without a
    // reset — the acceptance demonstration of pm-faults, as corpus data.
    corpus.push(
        ScenarioSpec::new(
            "faults-selfstab-corruption",
            GeneratorSpec::Hexagon { radius: 3 },
        )
        .tag(FAULTS)
        .algorithm(AlgorithmSpec::SelfStabMax)
        .faults(FaultPlan::new(7).process(FaultProcess::once(FaultKind::Corruption, 3, 6))),
    );
    // Periodic removals against the self-stabilising contender: the
    // adversary keeps shrinking the system while the election runs.
    corpus.push(
        ScenarioSpec::new(
            "faults-selfstab-periodic-removals",
            GeneratorSpec::Hexagon { radius: 4 },
        )
        .tag(FAULTS)
        .algorithm(AlgorithmSpec::SelfStabMax)
        .faults(FaultPlan::new(11).process(FaultProcess::periodic(
            FaultKind::Removals,
            1,
            2,
            9,
            2,
        ))),
    );
    // Relocation: particles teleport to fresh boundary-adjacent cells; the
    // self-stabilising election re-converges on the moved configuration.
    corpus.push(
        ScenarioSpec::new(
            "faults-selfstab-relocate",
            GeneratorSpec::Parallelogram {
                width: 6,
                height: 4,
            },
        )
        .tag(FAULTS)
        .algorithm(AlgorithmSpec::SelfStabMax)
        .faults(FaultPlan::new(19).process(FaultProcess::once(FaultKind::Relocate, 2, 3))),
    );
    // Mid-run regrow against the pipeline: additions land inside DLE's
    // fault window (the window closes within the first few rounds) and are
    // absorbed without a reset.
    corpus.push(
        ScenarioSpec::new(
            "faults-pipeline-regrow",
            GeneratorSpec::Hexagon { radius: 3 },
        )
        .tag(FAULTS)
        .faults(FaultPlan::new(13).process(FaultProcess::once(FaultKind::Regrow, 1, 4))),
    );
    // Corruption breaks DLE's invariants; the reset-and-recover baseline
    // reinitializes after each firing and re-elects from scratch.
    corpus.push(
        ScenarioSpec::new(
            "faults-pipeline-reset-corruption",
            GeneratorSpec::Hexagon { radius: 3 },
        )
        .tag(FAULTS)
        .faults(
            FaultPlan::new(5)
                .reset(ResetPolicy::Reinitialize)
                .process(FaultProcess::once(FaultKind::Corruption, 2, 8)),
        ),
    );

    // --- Larger instances (full suite only; the large-hexagon grid lives
    // --- as a family entry in `builtin_entries`) ---------------------------
    corpus.push(
        ScenarioSpec::new(
            "full-annulus-1k",
            GeneratorSpec::Annulus {
                outer: 21,
                inner: 10,
            },
        )
        .tag(FULL),
    );
    corpus.push(
        ScenarioSpec::new(
            "full-blob-1k",
            GeneratorSpec::RandomBlob { n: 1000, seed: 17 },
        )
        .tag(FULL),
    );
    corpus.push(ScenarioSpec::new("full-spiral-300", GeneratorSpec::Spiral { n: 300 }).tag(FULL));
    corpus.push(
        ScenarioSpec::new(
            "full-caterpillar-200",
            GeneratorSpec::Caterpillar {
                spine: 60,
                max_tooth: 5,
                seed: 21,
            },
        )
        .tag(FULL),
    );
    corpus.push(
        ScenarioSpec::new(
            "full-perturbed-remove-400",
            GeneratorSpec::SimplyConnectedBlob { n: 400, seed: 23 },
        )
        .tag(FULL)
        .faults(reset_and_recover(29).process(FaultProcess::once(FaultKind::Removals, 10, 40))),
    );
    // The erosion family's documented limitation, as data: the run reports
    // `ElectionError::Stuck`, and the suite records the error entry.
    corpus.push(
        ScenarioSpec::new(
            "full-erosion-stuck-on-hole",
            GeneratorSpec::Annulus { outer: 6, inner: 2 },
        )
        .tag(FULL)
        .algorithm(AlgorithmSpec::Erosion),
    );

    corpus
}

/// The built-in corpus as the flat scenario list (families expanded).
pub fn builtin_corpus() -> Vec<ScenarioSpec> {
    expand_entries(&builtin_entries()).expect("the built-in corpus expands")
}

/// Parses the embedded committed corpus and expands its families.
pub fn load_embedded() -> Result<Vec<ScenarioSpec>, String> {
    let entries: Vec<CorpusEntry> =
        serde_json::from_str(EMBEDDED_CORPUS).map_err(|e| format!("embedded corpus: {e}"))?;
    expand_entries(&entries).map_err(|e| format!("embedded corpus: {e}"))
}

/// Loads a corpus from a JSON file and expands its families.
pub fn load_file(path: &std::path::Path) -> Result<Vec<ScenarioSpec>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let entries: Vec<CorpusEntry> =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    expand_entries(&entries).map_err(|e| format!("{}: {e}", path.display()))
}

/// Selects a suite: `all` selects everything, any other name selects the
/// scenarios carrying it as a tag, plus an exact-name match (so `run
/// smoke-hexagon` runs a single scenario).
pub fn select<'a>(corpus: &'a [ScenarioSpec], suite: &str) -> Vec<&'a ScenarioSpec> {
    corpus
        .iter()
        .filter(|s| suite == ALL || s.has_tag(suite) || s.name == suite)
        .collect()
}

/// All distinct suite tags of a corpus, in first-seen order.
pub fn suite_tags(corpus: &[ScenarioSpec]) -> Vec<String> {
    let mut tags: Vec<String> = Vec::new();
    for spec in corpus {
        for tag in &spec.tags {
            if !tags.contains(tag) {
                tags.push(tag.clone());
            }
        }
    }
    tags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_shapes_valid() {
        let corpus = builtin_corpus();
        assert!(corpus.len() >= 30, "corpus has {} scenarios", corpus.len());
        let mut names: Vec<&str> = corpus.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len(), "duplicate scenario names");
        for spec in &corpus {
            let shape = spec.build_shape();
            assert!(!shape.is_empty(), "{}", spec.name);
            assert!(shape.is_connected(), "{}", spec.name);
        }
    }

    #[test]
    fn smoke_suite_meets_its_contract() {
        let corpus = builtin_corpus();
        let smoke = select(&corpus, SMOKE);
        assert!(smoke.len() >= 10, "smoke has {} scenarios", smoke.len());
        assert!(
            smoke.iter().any(|s| s.is_adversarial()),
            "smoke must include a perturbed scenario"
        );
        for spec in smoke {
            assert!(
                spec.build_shape().len() <= 200,
                "{} exceeds the smoke size cap",
                spec.name
            );
        }
    }

    #[test]
    fn faults_suite_meets_its_contract() {
        let corpus = builtin_corpus();
        let faults = select(&corpus, FAULTS);
        assert!(faults.len() >= 5, "faults has {} scenarios", faults.len());
        // The suite covers every fault kind and both recovery strategies:
        // self-stabilising (no reset) and reset-and-recover.
        let kinds: Vec<FaultKind> = faults
            .iter()
            .flat_map(|s| s.faults.processes.iter().map(|p| p.kind))
            .collect();
        for kind in [
            FaultKind::Removals,
            FaultKind::Regrow,
            FaultKind::Corruption,
            FaultKind::Relocate,
        ] {
            assert!(kinds.contains(&kind), "no {kind:?} scenario");
        }
        assert!(faults
            .iter()
            .any(|s| s.faults.reset == ResetPolicy::Reinitialize));
        assert!(faults.iter().any(|s| s.faults.reset == ResetPolicy::None));
        for spec in faults {
            assert!(spec.is_adversarial(), "{}", spec.name);
            assert!(
                spec.build_shape().len() <= 200,
                "{} exceeds the faults size cap",
                spec.name
            );
            assert!(spec.algorithm.supports_faults(), "{}", spec.name);
        }
    }

    #[test]
    fn selection_by_tag_and_name() {
        let corpus = builtin_corpus();
        assert_eq!(select(&corpus, ALL).len(), corpus.len());
        assert_eq!(select(&corpus, "smoke-hexagon").len(), 1);
        assert!(select(&corpus, "no-such-suite").is_empty());
        assert_eq!(
            suite_tags(&corpus),
            vec![
                SMOKE.to_string(),
                FAULTS.to_string(),
                FULL.to_string(),
                SWEEP.to_string()
            ]
        );
    }

    #[test]
    fn family_entries_expand_into_the_corpus() {
        let entries = builtin_entries();
        assert!(
            entries.iter().any(|e| matches!(e, CorpusEntry::Family(_))),
            "the built-in corpus carries at least one family grid"
        );
        let corpus = builtin_corpus();
        // The former per-instance `full-hexagon-1k` now comes out of the
        // `full-hexagon` family at radius 18, same shape as before.
        let hex = corpus
            .iter()
            .find(|s| s.name == "full-hexagon-n18-s0")
            .expect("family instance present");
        assert!(hex.has_tag(FULL));
        assert_eq!(hex.generator, GeneratorSpec::Hexagon { radius: 18 });
        assert_eq!(hex.build_shape().len(), 3 * 18 * 19 + 1);
        // The sweep family contributes its full size × seed grid.
        let sweep = select(&corpus, SWEEP);
        assert_eq!(sweep.len(), 6);
        assert!(sweep.iter().all(|s| s.name.starts_with("sweep-blob-")));
    }
}
