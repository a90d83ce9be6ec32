//! The declarative scenario: everything one election run needs, as data.

use crate::generators::GeneratorSpec;
use pm_amoebot::scheduler::SchedulerSpec;
use pm_baselines::{
    ErosionLeaderElection, QuadraticBoundary, RandomizedBoundary, SelfStabMaxElection,
};
use pm_core::api::{LeaderElection, PaperPipeline, RunOptions};
use pm_faults::FaultPlan;
use pm_grid::Shape;
use serde::{Deserialize, Serialize};

static PIPELINE: PaperPipeline = PaperPipeline;
static EROSION: ErosionLeaderElection = ErosionLeaderElection;
static RANDOMIZED: RandomizedBoundary = RandomizedBoundary;
static QUADRATIC: QuadraticBoundary = QuadraticBoundary;
static SELF_STAB: SelfStabMaxElection = SelfStabMaxElection;

/// A serializable name for each algorithm behind the unified
/// [`LeaderElection`] trait.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlgorithmSpec {
    /// The paper pipeline (`OBD → DLE → Collect`; phases selected through
    /// [`RunOptions`]).
    #[default]
    Pipeline,
    /// The no-movement erosion baseline (stalls on shapes with holes —
    /// scenarios pairing the two are *expected* to report an error).
    Erosion,
    /// The randomized boundary baseline.
    RandomizedBoundary,
    /// The quadratic deterministic boundary baseline.
    QuadraticBoundary,
    /// The self-stabilising constant-memory election (Chalopin–Das–Kokkou,
    /// arXiv 2408.08775): recovers from arbitrary memory corruption without
    /// a reset, so it is the contender fault scenarios measure against the
    /// reset-and-recover baselines.
    SelfStabMax,
}

impl AlgorithmSpec {
    /// The algorithm instance.
    pub fn instance(&self) -> &'static (dyn LeaderElection + Sync) {
        match self {
            AlgorithmSpec::Pipeline => &PIPELINE,
            AlgorithmSpec::Erosion => &EROSION,
            AlgorithmSpec::RandomizedBoundary => &RANDOMIZED,
            AlgorithmSpec::QuadraticBoundary => &QUADRATIC,
            AlgorithmSpec::SelfStabMax => &SELF_STAB,
        }
    }

    /// The name the instance reports (`LeaderElection::name`).
    pub fn name(&self) -> &'static str {
        self.instance().name()
    }

    /// Whether the algorithm executes a round-driven phase that fault plans
    /// can target (an `Execution` with rounds to step and a live system to
    /// mutate). The boundary baselines are simulated in closed form — a
    /// plan attached to them would never fire, so
    /// [`ScenarioSpec::check_faults`] rejects such scenarios instead of
    /// silently reporting a fault-free run as faulted.
    pub fn supports_faults(&self) -> bool {
        matches!(
            self,
            AlgorithmSpec::Pipeline | AlgorithmSpec::Erosion | AlgorithmSpec::SelfStabMax
        )
    }
}

/// One named, fully declarative election scenario: a generated shape, the
/// algorithm and scheduler to run it with, the run options, and a fault
/// plan (empty for fault-free runs). Serializable, so whole workload suites
/// live as JSON corpora (`corpus/scenarios.json`) instead of code.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Unique scenario name (referenced by the CLI's `render`/`run`).
    pub name: String,
    /// Suite tags (`run <tag>` selects every scenario carrying the tag).
    pub tags: Vec<String>,
    /// The workload shape.
    pub generator: GeneratorSpec,
    /// The algorithm to run.
    pub algorithm: AlgorithmSpec,
    /// The activation scheduler.
    pub scheduler: SchedulerSpec,
    /// Run options (variant knobs: boundary knowledge, reconnection,
    /// connectivity tracking, budgets, seed).
    pub options: RunOptions,
    /// The fault schedule fired mid-run (removals, column cuts, regrow,
    /// corruption, relocation — see `pm_faults::FaultPlan`); an empty plan
    /// schedules nothing.
    pub faults: FaultPlan,
}

impl ScenarioSpec {
    /// A scenario with the default algorithm (paper pipeline), the default
    /// measurement scheduler (`SeededRandom(7)`), default options, no tags
    /// and no faults.
    pub fn new(name: impl Into<String>, generator: GeneratorSpec) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            tags: Vec::new(),
            generator,
            algorithm: AlgorithmSpec::Pipeline,
            scheduler: SchedulerSpec::SeededRandom(7),
            options: RunOptions::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Adds a suite tag.
    pub fn tag(mut self, tag: &str) -> ScenarioSpec {
        self.tags.push(tag.to_string());
        self
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, algorithm: AlgorithmSpec) -> ScenarioSpec {
        self.algorithm = algorithm;
        self
    }

    /// Selects the scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> ScenarioSpec {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the run options.
    pub fn options(mut self, options: RunOptions) -> ScenarioSpec {
        self.options = options;
        self
    }

    /// Replaces the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> ScenarioSpec {
        self.faults = faults;
        self
    }

    /// Whether the scenario schedules any fault processes at all.
    pub fn is_adversarial(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Rejects a fault plan attached to an algorithm with no round-driven
    /// phase ([`AlgorithmSpec::supports_faults`]): the plan would never
    /// fire, and the run would pass for a faulted one. Every surface that
    /// starts a scenario — the suite runner, the server, the CLI — checks
    /// this first.
    ///
    /// # Errors
    ///
    /// The rejection message, naming the scenario and the algorithm.
    pub fn check_faults(&self) -> Result<(), String> {
        if self.is_adversarial() && !self.algorithm.supports_faults() {
            return Err(format!(
                "scenario `{}` attaches a fault plan to `{}`, which runs no \
                 round-driven phase — the plan would never fire",
                self.name,
                self.algorithm.name()
            ));
        }
        Ok(())
    }

    /// Builds the scenario's initial shape.
    pub fn build_shape(&self) -> Shape {
        self.generator.build()
    }

    /// Whether the scenario carries the given suite tag.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.iter().any(|t| t == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_specs_name_their_instances() {
        assert_eq!(AlgorithmSpec::Pipeline.name(), "dle+collect");
        assert_eq!(AlgorithmSpec::Erosion.name(), "erosion-le");
        assert_eq!(
            AlgorithmSpec::RandomizedBoundary.name(),
            "randomized-boundary"
        );
        assert_eq!(
            AlgorithmSpec::QuadraticBoundary.name(),
            "quadratic-boundary"
        );
        assert_eq!(AlgorithmSpec::SelfStabMax.name(), "self-stab-max");
    }

    #[test]
    fn self_stab_supports_adversarial_scripts() {
        // The self-stabilising election runs a round-driven phase, so fault
        // plans can target it; the closed-form boundary baselines cannot.
        assert!(AlgorithmSpec::SelfStabMax.supports_faults());
        assert!(!AlgorithmSpec::RandomizedBoundary.supports_faults());
        assert!(!AlgorithmSpec::QuadraticBoundary.supports_faults());
    }

    #[test]
    fn builder_composes() {
        use pm_faults::{FaultKind, FaultProcess};
        let spec = ScenarioSpec::new("s", GeneratorSpec::Hexagon { radius: 3 })
            .tag("smoke")
            .algorithm(AlgorithmSpec::Erosion)
            .scheduler(SchedulerSpec::RoundRobin);
        assert!(spec.has_tag("smoke"));
        assert!(!spec.has_tag("full"));
        assert_eq!(spec.algorithm, AlgorithmSpec::Erosion);
        assert!(spec.faults.is_empty());
        assert!(!spec.is_adversarial());
        assert_eq!(spec.build_shape().len(), 37);

        let faulted =
            spec.faults(FaultPlan::new(7).process(FaultProcess::once(FaultKind::Corruption, 3, 8)));
        assert!(faulted.is_adversarial());
        assert_eq!(faulted.check_faults(), Ok(()));
        let closed_form = faulted.algorithm(AlgorithmSpec::QuadraticBoundary);
        let error = closed_form.check_faults().unwrap_err();
        assert!(error.contains("fault plan"), "{error}");
        assert!(error.contains("would never fire"), "{error}");
    }
}
