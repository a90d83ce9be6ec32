//! Umbrella crate re-exporting the programmable-matter workspace.
//!
//! This workspace reproduces *"Efficient Deterministic Leader Election for
//! Programmable Matter"* (Dufoulon, Kutten, Moses Jr., PODC 2021). The crates
//! are:
//!
//! * [`grid`] (`pm-grid`) — triangular-grid geometry, shapes, boundaries,
//!   v-nodes, erosion predicates and metric toolkit.
//! * [`amoebot`] (`pm-amoebot`) — the amoebot particle-system simulator:
//!   particles, atomic activations, schedulers, shape generators and an ASCII
//!   renderer.
//! * [`leader_election`] (`pm-core`) — the paper's algorithms: DLE, Collect
//!   (OMP/PRP/SDP), the Outer-Boundary Detection primitive — and the
//!   **unified execution API** (`pm_core::api`): the [`LeaderElection`]
//!   trait, the [`Election`] builder and the serializable [`RunReport`].
//! * [`baselines`] (`pm-baselines`) — the comparison algorithms of Table 1,
//!   all behind the same [`LeaderElection`] trait.
//! * [`scenarios`] (`pm-scenarios`) — the declarative scenario subsystem:
//!   the generator registry, serializable `ScenarioSpec`s with fault plans,
//!   the committed corpus and the `pm-scenarios` CLI.
//! * [`analysis`] (`pm-analysis`) — experiment harness regenerating the
//!   paper's table and the scaling figures over `&dyn LeaderElection`.
//!
//! # Quickstart
//!
//! ```
//! use programmable_matter::amoebot::scheduler::RoundRobin;
//! use programmable_matter::grid::builder::hexagon;
//! use programmable_matter::Election;
//!
//! let shape = hexagon(4);
//! let report = Election::on(&shape)
//!     .scheduler(RoundRobin)
//!     .run()
//!     .expect("election succeeds on a connected shape");
//! assert!(report.unique_leader());
//! assert!(report.final_connected);
//! ```
//!
//! Comparing algorithms through the trait:
//!
//! ```
//! use programmable_matter::baselines::RandomizedBoundary;
//! use programmable_matter::grid::builder::annulus;
//! use programmable_matter::leader_election::PaperPipeline;
//! use programmable_matter::{Election, LeaderElection};
//!
//! let shape = annulus(4, 1);
//! let algorithms: [&dyn LeaderElection; 2] = [&PaperPipeline, &RandomizedBoundary];
//! for algorithm in algorithms {
//!     let report = Election::on(&shape).algorithm(algorithm).run().unwrap();
//!     assert!(report.unique_leader(), "{}", report.algorithm);
//! }
//! ```
//!
//! Driving a run round by round through the steppable [`Execution`] handle
//! (pause, inspect, mutate, resume):
//!
//! ```
//! use programmable_matter::amoebot::scheduler::SeededRandom;
//! use programmable_matter::grid::builder::hexagon;
//! use programmable_matter::leader_election::PaperPipeline;
//! use programmable_matter::{LeaderElection, RunOptions, StepOutcome};
//!
//! let shape = hexagon(3);
//! let mut scheduler = SeededRandom::new(7);
//! let opts = RunOptions::default();
//! let mut execution = PaperPipeline.start(&shape, &mut scheduler, &opts)?;
//! let report = loop {
//!     match execution.step_round()? {
//!         StepOutcome::RoundCompleted { phase, rounds } => {
//!             let status = execution.status();
//!             assert_eq!(status.rounds_in_phase, rounds);
//!             assert_eq!(status.decided + status.undecided, shape.len());
//!         }
//!         StepOutcome::Finished(report) => break report,
//!         _ => {}
//!     }
//! };
//! assert!(report.predicate_holds());
//! # Ok::<(), programmable_matter::ElectionError>(())
//! ```

pub use pm_amoebot as amoebot;
pub use pm_analysis as analysis;
pub use pm_baselines as baselines;
pub use pm_core as leader_election;
pub use pm_faults as faults;
pub use pm_grid as grid;
pub use pm_scenarios as scenarios;

pub use pm_core::api::{
    Election, ElectionBuilder, ElectionError, Execution, ExecutionStatus, LeaderElection,
    RunOptions, RunReport, StepOutcome,
};
