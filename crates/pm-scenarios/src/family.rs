//! Scenario *families*: parameter grids that expand into concrete
//! scenarios at load time.
//!
//! A [`FamilySpec`] names one generator family from the registry
//! ([`GeneratorSpec::families`]) and a small `sizes × seeds` grid; loading
//! the corpus expands it into one [`ScenarioSpec`] per grid point via
//! [`GeneratorSpec::sample`]. Sweeps therefore live in the corpus as *one*
//! entry instead of one entry per instance, and growing a sweep is a data
//! edit, not code.

use crate::generators::GeneratorSpec;
use crate::spec::{AlgorithmSpec, ScenarioSpec};
use pm_amoebot::scheduler::SchedulerSpec;
use pm_core::api::RunOptions;
use pm_faults::FaultPlan;
use serde::{Deserialize, Serialize};

/// One entry of the committed corpus: a concrete scenario, or a family that
/// expands into a grid of scenarios at load time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CorpusEntry {
    /// A single fully specified scenario.
    Scenario(ScenarioSpec),
    /// A parameter grid expanding into scenarios (see [`FamilySpec`]).
    Family(FamilySpec),
}

impl CorpusEntry {
    /// Expands the entry into its concrete scenarios.
    ///
    /// # Errors
    ///
    /// A family naming an unknown generator family or an empty grid is
    /// rejected (see [`FamilySpec::expand`]).
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, String> {
        match self {
            CorpusEntry::Scenario(spec) => Ok(vec![spec.clone()]),
            CorpusEntry::Family(family) => family.expand(),
        }
    }
}

/// A scenario family: one generator family swept over a `sizes × seeds`
/// grid, sharing algorithm, scheduler, options, tags and fault plan across
/// all instances.
///
/// Expansion is deterministic: instance `(size, seed)` is named
/// `{name}-n{size}-s{seed}` and built by
/// [`GeneratorSpec::sample`]`(family, size, seed)`, so a family pins its
/// shapes exactly as strongly as per-instance entries would.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FamilySpec {
    /// Base name; instances append `-n{size}-s{seed}`.
    pub name: String,
    /// Suite tags shared by every instance.
    pub tags: Vec<String>,
    /// Generator family name (one of [`GeneratorSpec::families`]).
    pub family: String,
    /// Size axis of the grid (must be non-empty).
    pub sizes: Vec<u32>,
    /// Seed axis of the grid; an empty list means the single seed 0
    /// (deterministic families ignore the seed anyway).
    pub seeds: Vec<u64>,
    /// The algorithm every instance runs.
    pub algorithm: AlgorithmSpec,
    /// The scheduler every instance runs under.
    pub scheduler: SchedulerSpec,
    /// Run options shared by every instance.
    pub options: RunOptions,
    /// Fault plan shared by every instance (empty = fault-free).
    pub faults: FaultPlan,
}

impl FamilySpec {
    /// A family with the default algorithm (paper pipeline), the default
    /// measurement scheduler (`SeededRandom(7)`), default options, seed 0,
    /// no tags and no faults.
    pub fn new(name: impl Into<String>, family: impl Into<String>) -> FamilySpec {
        FamilySpec {
            name: name.into(),
            tags: Vec::new(),
            family: family.into(),
            sizes: Vec::new(),
            seeds: Vec::new(),
            algorithm: AlgorithmSpec::Pipeline,
            scheduler: SchedulerSpec::SeededRandom(7),
            options: RunOptions::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Adds a suite tag.
    pub fn tag(mut self, tag: &str) -> FamilySpec {
        self.tags.push(tag.to_string());
        self
    }

    /// Sets the size axis.
    pub fn sizes(mut self, sizes: impl IntoIterator<Item = u32>) -> FamilySpec {
        self.sizes = sizes.into_iter().collect();
        self
    }

    /// Sets the seed axis.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> FamilySpec {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, algorithm: AlgorithmSpec) -> FamilySpec {
        self.algorithm = algorithm;
        self
    }

    /// Selects the scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> FamilySpec {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the run options.
    pub fn options(mut self, options: RunOptions) -> FamilySpec {
        self.options = options;
        self
    }

    /// Replaces the shared fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> FamilySpec {
        self.faults = faults;
        self
    }

    /// Expands the grid into concrete scenarios, sizes-major.
    ///
    /// # Errors
    ///
    /// An unknown generator family name or an empty size axis.
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, String> {
        let index = GeneratorSpec::families()
            .iter()
            .position(|f| *f == self.family)
            .ok_or_else(|| {
                format!(
                    "family `{}`: unknown generator family `{}` (known: {})",
                    self.name,
                    self.family,
                    GeneratorSpec::families().join(", ")
                )
            })?;
        if self.sizes.is_empty() {
            return Err(format!("family `{}`: empty size axis", self.name));
        }
        let default_seeds = [0u64];
        let seeds: &[u64] = if self.seeds.is_empty() {
            &default_seeds
        } else {
            &self.seeds
        };
        let mut out = Vec::with_capacity(self.sizes.len() * seeds.len());
        for &size in &self.sizes {
            for &seed in seeds {
                out.push(ScenarioSpec {
                    name: format!("{}-n{size}-s{seed}", self.name),
                    tags: self.tags.clone(),
                    generator: GeneratorSpec::sample(index, size, seed),
                    algorithm: self.algorithm,
                    scheduler: self.scheduler,
                    options: self.options,
                    faults: self.faults.clone(),
                });
            }
        }
        Ok(out)
    }
}

/// Expands a corpus of entries into the flat scenario list the runner and
/// CLI consume, rejecting duplicate scenario names across entries.
///
/// # Errors
///
/// Any entry that fails to expand, or two entries expanding to the same
/// scenario name.
pub fn expand_entries(entries: &[CorpusEntry]) -> Result<Vec<ScenarioSpec>, String> {
    let mut out = Vec::with_capacity(entries.len());
    for entry in entries {
        out.extend(entry.expand()?);
    }
    let mut names: Vec<&str> = out.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("duplicate scenario name `{}`", dup[0]));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_expand_sizes_major_with_stable_names() {
        let family = FamilySpec::new("sweep", "hexagon")
            .tag("t")
            .sizes([2, 3])
            .seeds([5, 7]);
        let expanded = family.expand().unwrap();
        let names: Vec<&str> = expanded.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["sweep-n2-s5", "sweep-n2-s7", "sweep-n3-s5", "sweep-n3-s7"]
        );
        for spec in &expanded {
            assert!(spec.has_tag("t"));
            assert_eq!(spec.generator.family(), "hexagon");
            let shape = spec.build_shape();
            assert!(!shape.is_empty());
            assert!(shape.is_connected());
        }
        // Deterministic families ignore the seed: both seeds build the same
        // shape at the same size.
        assert_eq!(expanded[0].build_shape(), expanded[1].build_shape());
    }

    #[test]
    fn empty_seed_axis_defaults_to_seed_zero() {
        let expanded = FamilySpec::new("f", "line").sizes([4]).expand().unwrap();
        assert_eq!(expanded.len(), 1);
        assert_eq!(expanded[0].name, "f-n4-s0");
        assert_eq!(expanded[0].generator, GeneratorSpec::Line { n: 4 });
    }

    #[test]
    fn invalid_families_are_rejected() {
        assert!(FamilySpec::new("f", "no-such-family")
            .sizes([3])
            .expand()
            .unwrap_err()
            .contains("unknown generator family"));
        assert!(FamilySpec::new("f", "hexagon")
            .expand()
            .unwrap_err()
            .contains("empty size axis"));
    }

    #[test]
    fn expand_entries_rejects_duplicate_names() {
        let spec = ScenarioSpec::new("dup", GeneratorSpec::Line { n: 3 });
        let err = expand_entries(&[
            CorpusEntry::Scenario(spec.clone()),
            CorpusEntry::Scenario(spec),
        ])
        .unwrap_err();
        assert!(err.contains("duplicate scenario name `dup`"), "{err}");
    }

    #[test]
    fn corpus_entries_round_trip_through_json() {
        let entries = vec![
            CorpusEntry::Scenario(ScenarioSpec::new("one", GeneratorSpec::Line { n: 5 })),
            CorpusEntry::Family(
                FamilySpec::new("grid", "simply-connected-blob")
                    .tag("sweep")
                    .sizes([10, 20])
                    .seeds([3]),
            ),
        ];
        let json = serde_json::to_string_pretty(&entries).unwrap();
        let back: Vec<CorpusEntry> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, entries);
        assert_eq!(expand_entries(&back).unwrap().len(), 3);
    }
}
