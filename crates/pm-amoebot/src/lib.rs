//! Amoebot particle-system simulator.
//!
//! This crate implements the system model of Section 2.2 of *"Efficient
//! Deterministic Leader Election for Programmable Matter"* (PODC 2021):
//! constant-memory particles on the triangular grid that occupy one point
//! (contracted) or two adjacent points (expanded), communicate by reading and
//! writing the memories of neighbouring particles, and move by expansion,
//! contraction and handover. The particle system progresses through a
//! sequence of atomic particle activations produced by a fair, strong
//! (sequential) scheduler; time is measured in asynchronous rounds.
//!
//! The crate provides:
//!
//! * [`system::ParticleSystem`] — the configuration (particle positions,
//!   expansion states and memories) plus the three movement operations.
//! * [`algorithm::Algorithm`] — the trait a distributed algorithm implements:
//!   a per-particle memory type, an initializer, and an atomic activation
//!   handler that only sees local information through
//!   [`algorithm::ActivationContext`].
//! * [`scheduler`] — fair strong schedulers (round robin, reversed, seeded
//!   random, double-activation adversary) and the [`scheduler::Runner`] that
//!   executes an algorithm to termination while counting rounds.
//! * [`ascii`] — rendering of configurations in the style of the paper's
//!   figures.
//! * [`stats`] — execution statistics (rounds, moves, disconnection events).
//!
//! Workload shapes live in `pm-grid` (`builder` for deterministic families,
//! `random` for seeded random ones); the `pm-scenarios` crate re-exports both
//! behind its generator registry.
//!
//! # Example: a trivial algorithm
//!
//! ```
//! use pm_amoebot::algorithm::{ActivationContext, Algorithm, InitContext};
//! use pm_amoebot::scheduler::{RoundRobin, Runner};
//! use pm_amoebot::system::ParticleSystem;
//! use pm_grid::builder::hexagon;
//!
//! /// Every particle simply terminates on its first activation.
//! struct Noop;
//! #[derive(Clone, Debug, Default)]
//! struct NoopMemory;
//! impl Algorithm for Noop {
//!     type Memory = NoopMemory;
//!     fn init(&self, _ctx: &InitContext) -> NoopMemory { NoopMemory }
//!     fn activate(&self, ctx: &mut ActivationContext<'_, NoopMemory>) { ctx.terminate(); }
//! }
//!
//! let system = ParticleSystem::<NoopMemory>::from_shape(&hexagon(2), &Noop);
//! let mut runner = Runner::new(system, Noop, RoundRobin::default());
//! let stats = runner.run(100).expect("terminates");
//! assert_eq!(stats.rounds, 1);
//! ```

pub mod algorithm;
pub mod ascii;
pub mod particle;
pub mod scheduler;
pub mod stats;
pub mod system;

pub use algorithm::{ActivationContext, Algorithm, InitContext};
pub use particle::{Particle, ParticleId};
pub use scheduler::{
    DoubleActivation, ReverseRoundRobin, RoundRobin, Runner, RunnerSnapshot, Scheduler,
    SchedulerState, SeededRandom,
};
pub use stats::RunStats;
pub use system::{
    MoveError, Neighbors, OccupancyBackend, ParticleSystem, SystemControl, SystemSnapshot,
};
