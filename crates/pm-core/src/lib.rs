//! The paper's algorithms: deterministic leader election for programmable
//! matter in time linear in the diameter (Dufoulon, Kutten, Moses Jr.,
//! PODC 2021).
//!
//! * [`api`] — the **unified execution API**: the [`LeaderElection`] trait
//!   every runnable algorithm implements, the [`Election`] builder, and the
//!   serializable [`RunReport`] all of them produce.
//! * [`dle`] — **Algorithm DLE** (Disconnecting Leader Election): the
//!   per-activation erosion algorithm of Section 4.1. `O(D_A)` rounds under
//!   the initially-known-outer-boundary assumption; the particle system may
//!   temporarily disconnect.
//! * [`collect`] — **Algorithm Collect** (Section 4.3): the phase-based
//!   reconnection algorithm built from the OMP / PRP / SDP movement
//!   primitives; `O(D_G)` rounds; restores connectivity.
//! * [`obd`] — the **Outer-Boundary Detection** primitive (Section 5):
//!   removes the boundary-knowledge assumption at a cost of `O(L_out + D)`
//!   rounds, using segment competition over virtual-node rings.
//! * [`batch`] — the **thread-sharded batch runner**: many independent
//!   election scenarios fanned out over `std::thread` workers behind the
//!   same [`LeaderElection`]/[`RunReport`] surface, with a deterministic
//!   merge order (results are bit-identical to sequential runs).
//! * [`session`] — the **cooperative session scheduler**: thousands of live
//!   elections round-robined fairly with per-session step budgets, plus
//!   replay-based [`ExecutionCheckpoint`]s that restore byte-identically.
//!
//! # Quickstart
//!
//! ```
//! use pm_amoebot::scheduler::RoundRobin;
//! use pm_core::api::Election;
//! use pm_grid::builder::annulus;
//!
//! // A shape with a hole: previous deterministic algorithms either reject it
//! // or need Omega(n^2) rounds; DLE elects in O(D_A).
//! let shape = annulus(5, 2);
//! let report = Election::on(&shape)
//!     .scheduler(RoundRobin)
//!     .run()
//!     .expect("election succeeds");
//! assert!(report.unique_leader());
//! assert!(report.final_connected);
//! assert!(report.rounds_consistent());
//! ```

pub mod api;
pub mod batch;
pub mod collect;
pub mod dle;
pub mod obd;
pub mod session;

pub use api::{
    Election, ElectionBuilder, ElectionError, LeaderElection, PaperPipeline, PhaseProfile,
    PhaseReport, RunOptions, RunReport,
};
pub use batch::{BatchJob, BatchRunner, BatchScenario, SchedulerSpec};
pub use collect::{CollectOutcome, CollectSimulator};
pub use dle::{DleAlgorithm, DleMemory, DleOutcome, Status};
pub use obd::{CompetitionCostModel, ObdOutcome, ObdSimulator};
pub use session::{
    ExecutionCheckpoint, Goal, RestoreError, SessionId, SessionScheduler, SessionView, SweepTotals,
};
