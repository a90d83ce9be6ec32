//! The unified leader-election execution API.
//!
//! Every algorithm the workspace can run — the paper's pipeline and the
//! Table 1 baselines in `pm-baselines` — implements one trait,
//! [`LeaderElection`], and produces one result type, [`RunReport`].
//! Experiments, benches, examples and future runners all drive elections
//! through this surface instead of per-algorithm entry points:
//!
//! ```
//! use pm_core::api::Election;
//! use pm_amoebot::scheduler::SeededRandom;
//! use pm_grid::builder::annulus;
//!
//! let shape = annulus(5, 2);
//! let report = Election::on(&shape)
//!     .scheduler(SeededRandom::new(7))
//!     .track_connectivity()
//!     .run()
//!     .expect("election succeeds on a connected shape");
//! assert!(report.unique_leader());
//! assert!(shape.area().contains(report.leader));
//! assert!(report.final_connected);
//! ```
//!
//! The variants of Table 1 are selected through [`RunOptions`] rather than
//! through different entry points: `assume_boundary_known` skips the OBD
//! phase (the paper's `O(D_A)` row), `skip_reconnection` stops after DLE.
//!
//! # Steppable executions
//!
//! `elect` is run-to-completion; the primitive underneath is
//! [`LeaderElection::start`], which returns a resumable [`Execution`]
//! handle. The caller pumps rounds with [`Execution::step_round`], inspects
//! progress with [`Execution::status`], and may mutate the live particle
//! system **between** rounds through [`Execution::system`] — faults strike
//! between arbitrary rounds, under the caller's control:
//!
//! ```
//! use pm_amoebot::scheduler::SeededRandom;
//! use pm_core::api::{LeaderElection, PaperPipeline, RunOptions, StepOutcome};
//! use pm_grid::builder::hexagon;
//!
//! let shape = hexagon(4);
//! let mut scheduler = SeededRandom::new(7);
//! let opts = RunOptions::default();
//! let mut execution = PaperPipeline.start(&shape, &mut scheduler, &opts)?;
//! let report = loop {
//!     // The adversary strikes before round 3 of the round-driven phase:
//!     // remove a particle, then reset the survivors so the election
//!     // restarts cleanly on the perturbed configuration.
//!     if execution.status().next_round == Some(3) {
//!         let mut system = execution.system().expect("round-driven phase");
//!         let victim = system.particle_positions()[0];
//!         system.remove_at(victim);
//!         system.reinitialize();
//!     }
//!     match execution.step_round()? {
//!         StepOutcome::Finished(report) => break report,
//!         _ => {}
//!     }
//! };
//! assert!(report.unique_leader());
//! assert_eq!(report.final_positions.len(), shape.len() - 1);
//! # Ok::<(), pm_core::api::ElectionError>(())
//! ```
//!
//! Round-by-round *instrumentation* is the same loop without the mutation:
//! match on the [`StepOutcome`]s and read [`Execution::status`].
//!
//! # Declaring a contender
//!
//! One [`Execution`] drives every contender. A contender implements only
//! [`LeaderElection::plan`]: a [`Plan`] of [`Phase`]s (closed-form ones,
//! and a [`Rounds`] phase over a [`RoundDriven`] amoebot algorithm) plus a
//! per-run [`Contender`] state for closed-form bodies and its own report
//! fields. The execution owns the step grammar, the phase reports and
//! their totals, the status, the budget and no-leader errors, and the
//! final report.

use crate::collect::{CollectOutcome, CollectSimulator};
use crate::dle::{
    count_decisions, default_round_budget, DleAlgorithm, DleMemory, DleOutcome, Status,
};
use crate::obd::run_obd;
use pm_amoebot::algorithm::Algorithm;
use pm_amoebot::scheduler::{RunError, Runner, RunnerSnapshot, Scheduler, SeededRandom};
use pm_amoebot::stats::RunStats;
use pm_amoebot::system::{restore_bounds, OccupancyBackend, ParticleSystem, SystemControl};
use pm_grid::{GridRect, Point, Shape};
use pm_telemetry::trace;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Canonical phase names used in [`PhaseReport::name`] and
/// [`StepOutcome`]s.
pub mod phase {
    /// Outer-boundary detection (Section 5).
    pub const OBD: &str = "obd";
    /// Disconnecting leader election (Section 4.1).
    pub const DLE: &str = "dle";
    /// Reconnection (Section 4.3).
    pub const COLLECT: &str = "collect";
    /// The single phase of a baseline that runs as one round-driven loop.
    pub const ELECTION: &str = "election";
    /// The announcement flood of the randomized boundary baseline.
    pub const FLOOD: &str = "flood";
}

/// Options of a single election run, shared by every [`LeaderElection`]
/// implementation. Options an algorithm has no use for are ignored (the
/// closed-form baselines ignore `track_connectivity`, the deterministic ones
/// ignore `seed`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunOptions {
    /// Whether particles are assumed to know initially which of their
    /// incident empty points lie on the outer face. When `true` the paper
    /// pipeline skips the OBD phase (Table 1, next-to-last row).
    pub assume_outer_boundary_known: bool,
    /// Whether to run Algorithm Collect after DLE to reconnect the system.
    pub reconnect: bool,
    /// Whether to track connectivity round-by-round during round-driven
    /// phases (costs one BFS per round).
    pub track_connectivity: bool,
    /// Round budget for round-driven phases; `None` uses the algorithm's
    /// generous default. Exhausting the budget surfaces as
    /// [`ElectionError::Run`] (paper pipeline, a bug per Theorem 18) or
    /// [`ElectionError::Stuck`] (baselines that legitimately stall, e.g.
    /// erosion on shapes with holes).
    pub round_budget: Option<u64>,
    /// Seed for randomized algorithms and for the default scheduler.
    pub seed: u64,
    /// Which occupancy data structure the particle system uses for
    /// round-driven phases. The dense default is the fast path; the hashed
    /// backend is the legacy reference, kept selectable so differential
    /// tests can prove the two paths produce bit-identical reports.
    pub occupancy: OccupancyBackend,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            assume_outer_boundary_known: false,
            reconnect: true,
            track_connectivity: false,
            round_budget: None,
            seed: 7,
            occupancy: OccupancyBackend::Dense,
        }
    }
}

impl RunOptions {
    /// The `O(D_A)` configuration of the paper pipeline: boundary knowledge
    /// assumed, reconnection enabled.
    pub fn with_boundary_knowledge() -> RunOptions {
        RunOptions {
            assume_outer_boundary_known: true,
            ..RunOptions::default()
        }
    }
}

/// An error from an election run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ElectionError {
    /// The initial configuration is not a permitted one (empty or
    /// disconnected).
    InvalidInitialConfiguration(&'static str),
    /// The underlying execution failed (round budget exhausted — for the
    /// paper pipeline this would indicate a bug given Theorem 18).
    Run(RunError),
    /// The algorithm made no progress within its round budget. This is the
    /// *expected* outcome for some baseline/workload pairs — erosion-based
    /// election stalls on shapes with holes, which is exactly the limitation
    /// Table 1 records.
    Stuck {
        /// Rounds executed before the run was declared stuck.
        after_rounds: u64,
    },
    /// The round-driven phase completed with no leader: a caller-side
    /// fault removed the particle that was leader (or would have become
    /// it). The phase stays open, and stepping again answers the same
    /// error.
    NoLeader {
        /// Rounds of the round-driven phase executed when it completed.
        after_rounds: u64,
    },
}

impl fmt::Display for ElectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElectionError::InvalidInitialConfiguration(why) => {
                write!(f, "invalid initial configuration: {why}")
            }
            ElectionError::Run(e) => write!(f, "execution failed: {e}"),
            ElectionError::Stuck { after_rounds } => {
                write!(f, "algorithm made no progress after {after_rounds} rounds")
            }
            ElectionError::NoLeader { after_rounds } => {
                write!(
                    f,
                    "no leader left when the election completed after {after_rounds} rounds"
                )
            }
        }
    }
}

impl std::error::Error for ElectionError {}

impl From<RunError> for ElectionError {
    fn from(e: RunError) -> ElectionError {
        ElectionError::Run(e)
    }
}

/// Statistics of one phase of an election run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase name (see [`phase`]).
    pub name: String,
    /// Asynchronous rounds charged to the phase.
    pub rounds: u64,
    /// Particle activations executed in the phase (0 for phases simulated in
    /// closed form).
    pub activations: u64,
    /// Movement operations (expansions + contractions + handovers) executed
    /// in the phase (0 for phases simulated in closed form).
    pub moves: u64,
}

/// Wall-clock profile of one phase of a *profiled* execution — the
/// out-of-band companion to [`PhaseReport`], produced only when the caller
/// opted in via [`Execution::enable_profiling`].
///
/// Profiles ride along on [`RunReport::profile`] but are **excluded from
/// serialization** (`#[serde(skip)]`): wall-clock timings differ run to
/// run, and serialized reports are golden-diffed byte-for-byte. A
/// deserialized report therefore always carries an empty profile.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Phase name (see [`phase`]).
    pub name: String,
    /// [`Execution::step_round`] calls charged to the phase, boundary steps
    /// included.
    pub steps: u64,
    /// Rounds the phase reported (mirrors [`PhaseReport::rounds`]).
    pub rounds: u64,
    /// Activations the phase reported (mirrors [`PhaseReport::activations`]).
    pub activations: u64,
    /// Moves the phase reported (mirrors [`PhaseReport::moves`]).
    pub moves: u64,
    /// Wall-clock nanoseconds spent inside the phase's steps.
    pub wall_nanos: u64,
}

/// Connectivity observations of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectivityReport {
    /// Whether round-by-round tracking was enabled
    /// ([`RunOptions::track_connectivity`]).
    pub tracked: bool,
    /// Whether the occupied shape was ever observed disconnected at a round
    /// boundary (meaningful only when `tracked`).
    pub ever_disconnected: bool,
    /// Number of round boundaries at which the shape was disconnected
    /// (meaningful only when `tracked`).
    pub disconnected_rounds: u64,
}

/// The uniform, serializable result of any [`LeaderElection`] run.
///
/// Equality ignores [`RunReport::profile`]: profiles carry wall-clock
/// timings, and two executions of the same scenario must compare equal
/// whether or not either was profiled (checkpoint-restore tests rely on
/// exactly this).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// The algorithm's [`LeaderElection::name`].
    pub algorithm: String,
    /// The scheduler's name (`Scheduler::name`).
    pub scheduler: String,
    /// Number of particles of the initial configuration.
    pub n: usize,
    /// The elected leader's final position. Multi-leader baselines (the
    /// quadratic boundary election elects up to six) report a representative
    /// leader here and the count in [`RunReport::leaders`].
    pub leader: Point,
    /// Number of leaders elected (1 for every algorithm but the quadratic
    /// baseline).
    pub leaders: usize,
    /// Number of particles that decided follower.
    pub followers: usize,
    /// Number of particles still undecided at termination (0 whenever the
    /// algorithm upholds the election predicate).
    pub undecided: usize,
    /// Per-phase statistics, in execution order.
    pub phases: Vec<PhaseReport>,
    /// Total rounds across all phases (always the sum of
    /// [`RunReport::phases`] rounds).
    pub total_rounds: u64,
    /// Total particle activations across all phases.
    pub activations: u64,
    /// Total movement operations across all phases.
    pub moves: u64,
    /// Peak per-particle memory across phases, in bits. Measured from the
    /// particle memory structs for activation-driven phases; a nominal
    /// constant-word estimate for phases simulated in closed form.
    pub peak_memory_bits: u64,
    /// Connectivity observations.
    pub connectivity: ConnectivityReport,
    /// Whether the final configuration is connected.
    pub final_connected: bool,
    /// Final particle positions.
    pub final_positions: Vec<Point>,
    /// Per-phase wall-clock profile, populated only by profiled executions
    /// ([`Execution::enable_profiling`]); empty otherwise. Never serialized
    /// — see [`PhaseProfile`].
    #[serde(skip)]
    pub profile: Vec<PhaseProfile>,
}

impl PartialEq for RunReport {
    /// Field-wise equality over every *deterministic* field; the wall-clock
    /// [`RunReport::profile`] is deliberately excluded.
    fn eq(&self, other: &RunReport) -> bool {
        self.algorithm == other.algorithm
            && self.scheduler == other.scheduler
            && self.n == other.n
            && self.leader == other.leader
            && self.leaders == other.leaders
            && self.followers == other.followers
            && self.undecided == other.undecided
            && self.phases == other.phases
            && self.total_rounds == other.total_rounds
            && self.activations == other.activations
            && self.moves == other.moves
            && self.peak_memory_bits == other.peak_memory_bits
            && self.connectivity == other.connectivity
            && self.final_connected == other.final_connected
            && self.final_positions == other.final_positions
    }
}

impl RunReport {
    /// Whether exactly one leader was elected.
    pub fn unique_leader(&self) -> bool {
        self.leaders == 1
    }

    /// Whether the leader-election predicate holds: a unique leader, every
    /// other particle a follower (none undecided), and a connected final
    /// configuration.
    pub fn predicate_holds(&self) -> bool {
        self.unique_leader() && self.undecided == 0 && self.final_connected
    }

    /// The final shape of the particle system.
    pub fn final_shape(&self) -> Shape {
        Shape::from_points(self.final_positions.iter().copied())
    }

    /// Rounds charged to the named phase (0 if the phase did not run).
    pub fn phase_rounds(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.rounds)
            .sum()
    }

    /// Whether the per-phase rounds sum to the reported total (a report
    /// invariant; the conformance suite asserts it for every algorithm).
    pub fn rounds_consistent(&self) -> bool {
        self.total_rounds == self.phases.iter().map(|p| p.rounds).sum::<u64>()
    }
}

// ---------------------------------------------------------------------------
// Steppable executions
// ---------------------------------------------------------------------------

/// What one [`Execution::step_round`] call did.
///
/// A run unfolds as a flat sequence of outcomes: each phase contributes
/// `PhaseStarted`, then — for round-driven phases only — one
/// `RoundCompleted` per asynchronous round, then `PhaseEnded`; phases
/// simulated in closed form (OBD, Collect, the boundary baselines) go from
/// `PhaseStarted` to `PhaseEnded` in a single coarse step. The final step
/// yields `Finished` with the complete [`RunReport`].
///
/// Serializes with the same externally-tagged JSON shape as every other
/// report type, e.g. `{"RoundCompleted": {"phase": "dle", "rounds": 3}}` —
/// the per-step lines `pm-scenarios trace --json` emits.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StepOutcome {
    /// A phase began (see [`phase`] for the names).
    PhaseStarted {
        /// The phase that is starting.
        phase: &'static str,
    },
    /// One asynchronous round of a round-driven phase completed.
    RoundCompleted {
        /// The phase the round belongs to.
        phase: &'static str,
        /// Completed rounds within the phase (1 after the first round).
        rounds: u64,
    },
    /// The current phase finished with the given statistics.
    PhaseEnded {
        /// The completed phase's statistics (also collected into
        /// [`RunReport::phases`]).
        report: PhaseReport,
    },
    /// The run is complete. Further steps return the same report.
    Finished(RunReport),
}

/// A point-in-time snapshot of a running [`Execution`].
///
/// # JSON shape
///
/// Serializes as a flat object mirroring [`RunReport`]'s field style, so
/// `pm-scenarios trace --json` and the session server's `watch` stream emit
/// the *same* per-round shape:
///
/// ```json
/// {
///   "algorithm": "dle+collect",
///   "phase": "dle",
///   "rounds_in_phase": 3,
///   "total_rounds": 17,
///   "decided": 12,
///   "undecided": 25,
///   "next_round": 3,
///   "finished": false
/// }
/// ```
///
/// `phase` and `next_round` are `null` at phase boundaries and after
/// completion; every other field is always present.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionStatus {
    /// The algorithm's [`LeaderElection::name`].
    pub algorithm: &'static str,
    /// The phase currently executing (between its `PhaseStarted` and
    /// `PhaseEnded` steps), if any.
    pub phase: Option<&'static str>,
    /// Completed rounds within the current phase (0 outside round-driven
    /// phases).
    pub rounds_in_phase: u64,
    /// Rounds charged so far across all phases, completed phases included.
    pub total_rounds: u64,
    /// Particles that have decided (leader or follower). Phases simulated
    /// in closed form decide everyone at their final step.
    pub decided: usize,
    /// Particles still undecided.
    pub undecided: usize,
    /// `Some(r)` iff the next [`Execution::step_round`] will execute round
    /// `r` (0-based) of the active round-driven phase — the hook for
    /// mutating [`Execution::system`] at scripted rounds: a fault applied
    /// while `next_round == Some(r)` strikes *before* round `r` runs.
    /// `None` at phase boundaries, during closed-form phases, and once the
    /// phase's algorithm has completed or exhausted its budget.
    pub next_round: Option<u64>,
    /// Whether the run has produced its [`StepOutcome::Finished`] report.
    pub finished: bool,
}

/// A scheduler as a contender's [`LeaderElection::plan`] receives it:
/// borrowed by [`LeaderElection::start`], owned by
/// [`LeaderElection::start_owned`].
pub type BoxedScheduler<'a> = Box<dyn Scheduler + Send + 'a>;

/// An amoebot algorithm that a contender runs as a round-driven phase. The
/// execution steps it one asynchronous round per step and reads each
/// particle's election output off its memory.
pub trait RoundDriven: Algorithm<Memory: Serialize + Deserialize + Send> + Send {
    /// The particle's election output.
    fn status(memory: &Self::Memory) -> Status;

    /// `(decided, undecided)` over the live system: the tally
    /// [`Execution::status`] reports while the phase runs. Counts
    /// [`RoundDriven::status`] by default.
    fn tally(&self, system: &ParticleSystem<Self::Memory>) -> (usize, usize) {
        count_decisions(system.iter().map(|(_, p)| Self::status(p.memory())))
    }
}

/// A round-driven phase's [`Runner`], with its algorithm and scheduler
/// types erased.
trait LiveRunner: Send {
    fn stats(&self) -> &RunStats;
    fn is_empty(&self) -> bool;
    fn is_complete(&self) -> bool;
    fn step(&mut self) -> u64;
    fn tally(&self) -> (usize, usize);
    fn control(&mut self) -> Box<dyn SystemControl + '_>;
    /// Folds in the final counters and reads the phase's outcome; `None`
    /// when no particle is leader.
    fn outcome(&mut self) -> Option<DleOutcome>;
    fn snapshot(&self) -> serde::Value;
    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), String>;
}

impl<A: RoundDriven, S: Scheduler + Send> LiveRunner for Runner<A, S> {
    fn stats(&self) -> &RunStats {
        Runner::stats(self)
    }

    fn is_empty(&self) -> bool {
        self.system().is_empty()
    }

    fn is_complete(&self) -> bool {
        Runner::is_complete(self)
    }

    fn step(&mut self) -> u64 {
        Runner::step(self).rounds
    }

    fn tally(&self) -> (usize, usize) {
        self.algorithm().tally(self.system())
    }

    fn control(&mut self) -> Box<dyn SystemControl + '_> {
        Box::new(Runner::control(self))
    }

    fn outcome(&mut self) -> Option<DleOutcome> {
        let stats = self.finalize();
        DleOutcome::from_run(stats, self.system(), A::status)
    }

    fn snapshot(&self) -> serde::Value {
        Runner::snapshot(self).to_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), String> {
        let snapshot = RunnerSnapshot::from_value(snapshot)
            .map_err(|e| format!("malformed runner snapshot: {e}"))?;
        self.restore_snapshot(&snapshot)
    }
}

/// A round-driven phase: a [`Runner`] over a [`RoundDriven`] algorithm,
/// with the phase's round budget.
pub struct Rounds<'a> {
    name: &'static str,
    /// The live runner; `None` once the phase has ended.
    runner: Option<Box<dyn LiveRunner + 'a>>,
    budget: u64,
    /// Whether running out of budget is a stall the contender may
    /// legitimately hit ([`ElectionError::Stuck`]) rather than a bug
    /// ([`RunError::RoundLimitExceeded`]).
    stalls: bool,
    /// Measured from the algorithm's particle memory.
    memory_bits: u64,
}

impl<'a> Rounds<'a> {
    /// The phase `name`: `algorithm` on a particle system built from
    /// `shape` (with `opts`' occupancy backend and connectivity tracking),
    /// stepped under `scheduler`, within `opts`' round budget or
    /// `default_budget` when `opts` sets none.
    pub fn new<A: RoundDriven + 'a>(
        name: &'static str,
        algorithm: A,
        shape: &Shape,
        scheduler: BoxedScheduler<'a>,
        opts: &RunOptions,
        default_budget: u64,
    ) -> Rounds<'a> {
        let _span = trace::span("start", "start:system");
        let system = ParticleSystem::from_shape_with_backend(shape, &algorithm, opts.occupancy);
        let mut runner = Runner::new(system, algorithm, scheduler);
        runner.track_connectivity = opts.track_connectivity;
        Rounds {
            name,
            runner: Some(Box::new(runner)),
            budget: opts.round_budget.unwrap_or(default_budget),
            stalls: false,
            memory_bits: (std::mem::size_of::<A::Memory>() * 8) as u64,
        }
    }

    /// Declares running out of budget an expected stall of the contender
    /// ([`ElectionError::Stuck`], e.g. erosion on a shape with holes).
    pub fn stalls(self) -> Rounds<'a> {
        Rounds {
            stalls: true,
            ..self
        }
    }
}

/// One phase of a run, as a contender declares it in its [`Plan`].
pub enum Phase<'a> {
    /// A phase simulated in closed form: one step runs
    /// [`Contender::closed_form`] and charges the rounds it returns.
    ClosedForm {
        /// The phase name (see [`phase`]).
        name: &'static str,
        /// Nominal per-particle memory, in bits (a model-level bound;
        /// nothing runs to measure it).
        memory_bits: u64,
    },
    /// A round-driven phase, stepped one asynchronous round per step.
    Rounds(Rounds<'a>),
}

impl Phase<'_> {
    fn name(&self) -> &'static str {
        match self {
            Phase::ClosedForm { name, .. } => name,
            Phase::Rounds(rounds) => rounds.name,
        }
    }

    fn memory_bits(&self) -> u64 {
        match self {
            Phase::ClosedForm { memory_bits, .. } => *memory_bits,
            Phase::Rounds(rounds) => rounds.memory_bits,
        }
    }
}

/// The execution's side of a native snapshot (see [`Contender::snapshot`]).
#[derive(Clone, Debug)]
pub struct DriverState {
    /// The position in the phase sequence: `start-<phase>` before a phase,
    /// `run-<phase>` inside it, `finish` after the last, `done` once
    /// finished.
    pub state: String,
    /// Reports of the phases that have ended (empty once finished: they
    /// have moved into the final report).
    pub reports: Vec<PhaseReport>,
    /// The outcome of the round-driven phase, once it has ended.
    pub rounds: Option<DleOutcome>,
    /// The final report, once finished.
    pub done: Option<RunReport>,
    /// The live runner's snapshot, inside a round-driven phase.
    pub runner: Option<serde::Value>,
}

/// What a contender keeps for one run: the bodies of its closed-form
/// phases and the report fields the execution cannot fill itself. Every
/// method has a default, so a contender that is one round-driven phase
/// plans with `()`.
pub trait Contender: Send {
    /// Runs the closed-form phase `phase` whole and returns the rounds it
    /// charges. `rounds` is the outcome of the round-driven phase, once it
    /// has ended.
    fn closed_form(
        &mut self,
        phase: &'static str,
        shape: &Shape,
        rounds: Option<&DleOutcome>,
    ) -> u64 {
        let _ = (shape, rounds);
        unreachable!("the closed-form phase `{phase}` has no body")
    }

    /// Fills in the contender's own report fields once every phase has
    /// ended. The execution fills the rest beforehand: leader, decision
    /// counts, final positions and connectivity from the round-driven
    /// phase's outcome, or, when no such phase ran, the initial shape as
    /// the final configuration with nobody undecided (the contender then
    /// names the leader, `leaders` and `followers`).
    fn finish(&self, report: &mut RunReport, shape: &Shape) {
        let _ = (report, shape);
    }

    /// A native snapshot of the run: the execution's state, captured on
    /// demand by `driver`, plus the contender's own. `None` (the default)
    /// means no native snapshot support; callers then replay from step
    /// zero.
    fn snapshot(&self, driver: &dyn Fn() -> DriverState) -> Option<serde::Value> {
        let _ = driver;
        None
    }

    /// Takes back the contender's part of a [`Contender::snapshot`] and
    /// returns the execution's part.
    ///
    /// # Errors
    ///
    /// Malformed snapshots, and every snapshot by default.
    fn restore(&mut self, snapshot: &serde::Value) -> Result<DriverState, String> {
        let _ = snapshot;
        Err("this execution does not support native snapshots".to_string())
    }
}

impl Contender for () {}

/// One run as a contender declares it ([`LeaderElection::plan`]): its
/// phases in order, and its per-run state.
pub struct Plan<'a> {
    phases: Vec<Phase<'a>>,
    contender: Box<dyn Contender + 'a>,
}

impl<'a> Plan<'a> {
    /// A run of `phases`, keeping `contender` as its per-run state.
    pub fn new(phases: Vec<Phase<'a>>, contender: impl Contender + 'a) -> Plan<'a> {
        Plan {
            phases,
            contender: Box::new(contender),
        }
    }
}

/// A resumable, inspectable election run: the inversion-of-control handle
/// returned by [`LeaderElection::start`].
///
/// The caller owns the loop: [`Execution::step_round`] advances the run by
/// one observable step, [`Execution::status`] reports progress,
/// [`Execution::system`] grants mutable access to the particle system
/// between rounds (fault injection), and [`Execution::finish`] runs the
/// remainder to completion. [`LeaderElection::elect`] is exactly
/// `start(..)?.finish()`.
///
/// One execution drives every contender: it walks the [`Plan`] the
/// contender declared, and owns the step grammar, the phase reports and
/// their totals, the status, the empty-system, budget and no-leader errors,
/// and the final report.
///
/// Executions are `Send`, so a session scheduler may park thousands of them
/// and sweep them from worker threads; see
/// [`crate::session::SessionScheduler`].
pub struct Execution<'a> {
    /// The contender's [`LeaderElection::name`].
    algorithm: &'static str,
    scheduler: &'static str,
    track_connectivity: bool,
    shape: Cow<'a, Shape>,
    phases: Vec<Phase<'a>>,
    contender: Box<dyn Contender + 'a>,
    /// The running phase, or the next one to start (`phases.len()` once
    /// every phase has ended).
    next: usize,
    /// Whether `phases[next]` has started and not yet ended.
    active: bool,
    /// Reports of the phases that have ended, built exactly once: the same
    /// structs surface in [`StepOutcome::PhaseEnded`] and in the final
    /// [`RunReport::phases`], so the two can never diverge.
    reports: Vec<PhaseReport>,
    /// The outcome of the round-driven phase, once it has ended.
    outcome: Option<DleOutcome>,
    /// The final report, once [`StepOutcome::Finished`] has been returned.
    done: Option<Box<RunReport>>,
    /// Per-phase wall-clock accounting, present only after
    /// [`Execution::enable_profiling`] — the disabled path adds no timing
    /// call and no branch beyond one `Option` check.
    profiler: Option<Profiler>,
}

/// The profiling state of a profiled [`Execution`]: phase profiles in
/// execution order, with the index of the phase currently running.
#[derive(Default)]
struct Profiler {
    phases: Vec<PhaseProfile>,
    current: Option<usize>,
}

impl Profiler {
    /// Charges one completed step (its outcome and wall time) to the
    /// profile, and stamps the accumulated profile into finished reports.
    fn record(&mut self, outcome: &mut StepOutcome, wall_nanos: u64) {
        match outcome {
            StepOutcome::PhaseStarted { phase } => {
                self.phases.push(PhaseProfile {
                    name: (*phase).to_string(),
                    steps: 1,
                    wall_nanos,
                    ..PhaseProfile::default()
                });
                self.current = Some(self.phases.len() - 1);
            }
            StepOutcome::RoundCompleted { .. } => {
                if let Some(profile) = self.current.and_then(|i| self.phases.get_mut(i)) {
                    profile.steps += 1;
                    profile.wall_nanos += wall_nanos;
                }
            }
            StepOutcome::PhaseEnded { report } => {
                if let Some(profile) = self.current.take().and_then(|i| self.phases.get_mut(i)) {
                    profile.steps += 1;
                    profile.wall_nanos += wall_nanos;
                    profile.rounds = report.rounds;
                    profile.activations = report.activations;
                    profile.moves = report.moves;
                }
            }
            StepOutcome::Finished(report) => {
                report.profile = self.phases.clone();
            }
        }
    }
}

impl<'a> Execution<'a> {
    /// Checks the initial configuration and walks the contender's plan from
    /// its first phase: the body of both [`LeaderElection::start`] and
    /// [`LeaderElection::start_owned`].
    fn start<E: LeaderElection + ?Sized>(
        election: &E,
        shape: Cow<'a, Shape>,
        scheduler: BoxedScheduler<'a>,
        opts: &RunOptions,
    ) -> Result<Execution<'a>, ElectionError> {
        check_initial_configuration(&shape)?;
        let scheduler_name = scheduler.name();
        let Plan { phases, contender } = election.plan(&shape, scheduler, opts);
        Ok(Execution {
            algorithm: election.name(),
            scheduler: scheduler_name,
            track_connectivity: opts.track_connectivity,
            shape,
            phases,
            contender,
            next: 0,
            active: false,
            reports: Vec::new(),
            outcome: None,
            done: None,
            profiler: None,
        })
    }

    /// Turns on per-phase wall-clock profiling: from now on every
    /// [`Execution::step_round`] is timed and charged to the active phase,
    /// and the final report's [`RunReport::profile`] carries one
    /// [`PhaseProfile`] per executed phase. Telemetry is out-of-band by
    /// contract — profiling never changes the election's outcome, its
    /// serialized bytes, or its checkpoint/replay behavior (restored
    /// executions re-profile their own replay). Idempotent.
    pub fn enable_profiling(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Profiler::default());
        }
    }

    /// Advances the run by one step: a phase boundary, one asynchronous
    /// round of a round-driven phase, one closed-form phase body, or the
    /// final report. Stepping a finished execution returns
    /// [`StepOutcome::Finished`] again.
    ///
    /// # Errors
    ///
    /// The same errors as [`LeaderElection::elect`], surfaced at the step
    /// that hits them; stepping again after an error returns it again.
    pub fn step_round(&mut self) -> Result<StepOutcome, ElectionError> {
        if self.profiler.is_none() {
            return self.step();
        }
        let started = std::time::Instant::now();
        let mut outcome = self.step()?;
        let ended = std::time::Instant::now();
        let wall_nanos =
            u64::try_from(ended.duration_since(started).as_nanos()).unwrap_or(u64::MAX);
        if let Some(profiler) = self.profiler.as_mut() {
            profiler.record(&mut outcome, wall_nanos);
        }
        // Tracing rides the same opt-in gate as profiling (the unprofiled
        // path above stays one `Option` check) and reuses the step's two
        // clock reads; with no recorder installed this is one atomic load.
        if trace::enabled() {
            Execution::trace_step(&outcome, started, ended);
        }
        Ok(outcome)
    }

    /// The step grammar: each phase contributes `PhaseStarted`, then one
    /// `RoundCompleted` per round of a round-driven phase (or one coarse
    /// step for a closed-form phase), then `PhaseEnded`; `Finished` comes
    /// last and is re-returned on every later step.
    fn step(&mut self) -> Result<StepOutcome, ElectionError> {
        if let Some(report) = &self.done {
            return Ok(StepOutcome::Finished((**report).clone()));
        }
        let Some(phase) = self.phases.get_mut(self.next) else {
            let report = self.report();
            self.done = Some(Box::new(report.clone()));
            return Ok(StepOutcome::Finished(report));
        };
        if !self.active {
            self.active = true;
            return Ok(StepOutcome::PhaseStarted {
                phase: phase.name(),
            });
        }
        let report = match phase {
            Phase::ClosedForm { name, .. } => PhaseReport {
                name: name.to_string(),
                rounds: self
                    .contender
                    .closed_form(name, &self.shape, self.outcome.as_ref()),
                activations: 0,
                moves: 0,
            },
            Phase::Rounds(rounds) => {
                let runner = rounds
                    .runner
                    .as_mut()
                    .expect("a running round-driven phase holds its runner");
                if runner.is_empty() {
                    // Only a caller-side perturbation can empty the system
                    // (the initial configuration was checked non-empty).
                    return Err(ElectionError::Run(RunError::EmptySystem));
                }
                if !runner.is_complete() {
                    if runner.stats().rounds >= rounds.budget {
                        return Err(if rounds.stalls {
                            ElectionError::Stuck {
                                after_rounds: rounds.budget,
                            }
                        } else {
                            ElectionError::Run(RunError::RoundLimitExceeded {
                                limit: rounds.budget,
                            })
                        });
                    }
                    return Ok(StepOutcome::RoundCompleted {
                        phase: rounds.name,
                        rounds: runner.step(),
                    });
                }
                // A fault may have removed the leader. The phase then stays
                // open, so every later step answers the same error and the
                // status and snapshot still read the live system.
                let outcome = runner.outcome().ok_or_else(|| ElectionError::NoLeader {
                    after_rounds: runner.stats().rounds,
                })?;
                rounds.runner = None;
                let report = PhaseReport {
                    name: rounds.name.to_string(),
                    rounds: outcome.stats.rounds,
                    activations: outcome.stats.activations,
                    moves: outcome.stats.moves(),
                };
                self.outcome = Some(outcome);
                report
            }
        };
        self.reports.push(report.clone());
        self.next += 1;
        self.active = false;
        Ok(StepOutcome::PhaseEnded { report })
    }

    /// The final report: the totals and the round-driven phase's outcome,
    /// completed by the contender.
    fn report(&mut self) -> RunReport {
        let n = self.shape.len();
        let (leader, (leaders, followers, undecided), final_positions, final_connected, stats) =
            match &self.outcome {
                Some(outcome) => (
                    outcome.leader_point,
                    outcome.status_counts,
                    outcome.final_positions.clone(),
                    outcome.stats.final_connected == Some(true),
                    outcome.stats,
                ),
                None => (
                    Point::ORIGIN,
                    (0, 0, 0),
                    self.shape.iter().collect(),
                    true,
                    RunStats::default(),
                ),
            };
        let mut report = RunReport {
            algorithm: self.algorithm.to_string(),
            scheduler: self.scheduler.to_string(),
            n,
            leader,
            leaders,
            followers,
            undecided,
            total_rounds: self.reports.iter().map(|p| p.rounds).sum(),
            activations: self.reports.iter().map(|p| p.activations).sum(),
            moves: self.reports.iter().map(|p| p.moves).sum(),
            phases: std::mem::take(&mut self.reports),
            peak_memory_bits: self
                .phases
                .iter()
                .map(Phase::memory_bits)
                .max()
                .unwrap_or(0),
            connectivity: ConnectivityReport {
                tracked: self.track_connectivity,
                ever_disconnected: stats.ever_disconnected,
                disconnected_rounds: stats.disconnected_rounds,
            },
            final_connected,
            final_positions,
            profile: Vec::new(),
        };
        self.contender.finish(&mut report, &self.shape);
        report
    }

    /// Records one profiled step on the trace timeline: rounds and the
    /// closed-form/finalize steps as spans (timestamped from the step's own
    /// profiling clock reads, so tracing adds no extra timing), phase
    /// starts as instant markers. Span names stay `&'static str` on the
    /// per-round path — no allocation per step.
    fn trace_step(outcome: &StepOutcome, started: std::time::Instant, ended: std::time::Instant) {
        match outcome {
            StepOutcome::PhaseStarted { phase } => trace::instant("phase", *phase),
            StepOutcome::RoundCompleted { phase, .. } => {
                trace::span_at("round", *phase, started, ended);
            }
            StepOutcome::PhaseEnded { report } => {
                // The step that ended the phase: a closed-form phase's whole
                // body, or a round-driven phase's finalize step.
                trace::span_at("phase-step", report.name.clone(), started, ended);
            }
            StepOutcome::Finished(_) => trace::span_at("phase-step", "finish", started, ended),
        }
    }

    /// The running round-driven phase and its runner, while the run is
    /// inside one.
    fn running(&self) -> Option<(&Rounds<'a>, &(dyn LiveRunner + 'a))> {
        match self.phases.get(self.next) {
            Some(Phase::Rounds(rounds)) if self.active => Some((rounds, rounds.runner.as_deref()?)),
            _ => None,
        }
    }

    /// The current status snapshot: phase, round counters, decided and
    /// undecided particle counts, and what the next step will do. Costs a
    /// pass over the live particles (the decision tallies); per-round
    /// pollers that only need the upcoming round should use
    /// [`Execution::next_round`].
    pub fn status(&self) -> ExecutionStatus {
        let running = self.running();
        let rounds_in_phase = running.map_or(0, |(_, runner)| runner.stats().rounds);
        let n = self.shape.len();
        let (decided, undecided) = match (running, &self.outcome) {
            (Some((_, runner)), _) => runner.tally(),
            (None, Some(outcome)) => {
                let (leaders, followers, undecided) = outcome.status_counts;
                (leaders + followers, undecided)
            }
            // Closed-form contenders decide everyone at their last phase.
            (None, None) if self.next == self.phases.len() => (n, 0),
            (None, None) => (0, n),
        };
        // Once finished, the phase reports have moved into the final
        // report; read the totals from there.
        let completed = match &self.done {
            Some(report) => report.total_rounds,
            None => self.reports.iter().map(|p| p.rounds).sum(),
        };
        ExecutionStatus {
            algorithm: self.algorithm,
            phase: self
                .phases
                .get(self.next)
                .filter(|_| self.active)
                .map(Phase::name),
            rounds_in_phase,
            total_rounds: completed + rounds_in_phase,
            decided,
            undecided,
            next_round: self.next_round().map(|(_, round)| round),
            finished: self.done.is_some(),
        }
    }

    /// The upcoming round of the active round-driven phase, with its phase
    /// name — the `O(1)` hook fault drivers poll every round:
    /// `Some((phase, r))` iff the next [`Execution::step_round`] will
    /// execute round `r` (equivalently, `status()`'s `phase` zipped with
    /// its `next_round`). `None` at phase boundaries, during closed-form
    /// phases, and once the phase's algorithm has completed or exhausted
    /// its budget.
    pub fn next_round(&self) -> Option<(&'static str, u64)> {
        let (rounds, runner) = self.running()?;
        let done = runner.stats().rounds;
        (!runner.is_complete() && done < rounds.budget).then_some((rounds.name, done))
    }

    /// Mutable access to the live particle system, available between steps
    /// of an active round-driven phase (`None` at phase boundaries and
    /// during closed-form phases). Mutations take effect before the next
    /// round; finish with [`SystemControl::reinitialize`] so the algorithm
    /// restarts cleanly on the perturbed configuration.
    pub fn system(&mut self) -> Option<Box<dyn SystemControl + '_>> {
        match self.phases.get_mut(self.next) {
            Some(Phase::Rounds(rounds)) if self.active => {
                rounds.runner.as_mut().map(|runner| runner.control())
            }
            _ => None,
        }
    }

    /// The execution's side of a native snapshot.
    fn driver_state(&self) -> DriverState {
        let state = match self.phases.get(self.next) {
            _ if self.done.is_some() => "done".to_string(),
            None => "finish".to_string(),
            Some(phase) if self.active => format!("run-{}", phase.name()),
            Some(phase) => format!("start-{}", phase.name()),
        };
        DriverState {
            state,
            reports: self.reports.clone(),
            rounds: self.outcome.clone(),
            done: self.done.as_deref().cloned(),
            runner: self.running().map(|(_, runner)| runner.snapshot()),
        }
    }

    /// A portable snapshot of the execution's complete mid-run state, as a
    /// serde value tree — the substrate of *re-baselined* checkpoints,
    /// whose replay cost is bounded by the snapshot age instead of the
    /// session age. `None` when the contender has no native snapshot
    /// support (see [`Contender::snapshot`]); callers then fall back to
    /// replaying from step zero.
    pub fn snapshot(&self) -> Option<serde::Value> {
        self.contender.snapshot(&|| self.driver_state())
    }

    /// Restores a snapshot captured by [`Execution::snapshot`] into this
    /// (freshly started, identically configured) execution. After a
    /// successful restore it continues exactly as the snapshotted one
    /// would have — byte-identically, by the same determinism contract as
    /// replay.
    ///
    /// # Errors
    ///
    /// Malformed or mismatched snapshots are rejected, and so are states
    /// no run reaches: a round-driven phase's outcome whose positions
    /// repeat, leave the initial shape's [`restore_bounds`], miss the
    /// leader or disagree with its status counts, and a runner state the
    /// runner refuses ([`Runner::restore_snapshot`]). A rejected snapshot
    /// leaves the execution's phases where they were, so callers may
    /// replay it from step zero instead.
    pub fn restore_snapshot(&mut self, snapshot: &serde::Value) -> Result<(), String> {
        let state = self.contender.restore(snapshot)?;
        let (next, active) = match state.state.as_str() {
            "finish" | "done" => (self.phases.len(), false),
            tag => {
                let (active, name) = match tag.split_once('-') {
                    Some(("run", name)) => (true, name),
                    Some(("start", name)) => (false, name),
                    _ => return Err(format!("unknown snapshot state `{tag}`")),
                };
                let next = self
                    .phases
                    .iter()
                    .position(|phase| phase.name() == name)
                    .ok_or_else(|| format!("unknown snapshot state `{tag}`"))?;
                (next, active)
            }
        };
        let done = if state.state == "done" {
            Some(
                state
                    .done
                    .ok_or("`done` snapshot carries no final report")?,
            )
        } else {
            None
        };
        // Later phases read the round-driven phase's outcome, and Collect
        // sizes its work by the outcome's coordinates, so a hand-made one
        // must hold what a run can end in.
        if let Some(outcome) = &state.rounds {
            outcome
                .check_restored(restore_bounds(&self.shape))
                .map_err(|e| format!("`{}` snapshot: {e}", state.state))?;
        }
        for (index, phase) in self.phases.iter_mut().enumerate() {
            let Phase::Rounds(rounds) = phase else {
                continue;
            };
            if index < next && state.rounds.is_none() {
                return Err(format!(
                    "`{}` snapshot carries no `{}` outcome",
                    state.state, rounds.name
                ));
            } else if index == next && active {
                let runner = state
                    .runner
                    .as_ref()
                    .ok_or_else(|| format!("`{}` snapshot carries no runner state", state.state))?;
                // The last check: a rejected runner state leaves the
                // runner unchanged.
                rounds
                    .runner
                    .as_mut()
                    .ok_or("a freshly started execution holds its runner")?
                    .restore(runner)?;
            }
        }
        // An ended phase dropped its runner in the live run. A phase not yet
        // started keeps its fresh runner, which is exactly the snapshotted
        // one (no rounds have run).
        for phase in &mut self.phases[..next] {
            if let Phase::Rounds(rounds) = phase {
                rounds.runner = None;
            }
        }
        if let Some(report) = done {
            self.done = Some(Box::new(report));
        }
        self.next = next;
        self.active = active;
        self.reports = state.reports;
        self.outcome = state.rounds;
        Ok(())
    }

    /// Runs the remaining steps to completion and returns the report.
    ///
    /// # Errors
    ///
    /// See [`LeaderElection::elect`].
    pub fn finish(mut self) -> Result<RunReport, ElectionError> {
        loop {
            if let StepOutcome::Finished(report) = self.step_round()? {
                return Ok(report);
            }
        }
    }
}

/// A leader-election algorithm runnable through the unified API.
///
/// Implementations exist for the paper pipeline ([`PaperPipeline`]) and for
/// the four Table 1 contenders (in `pm-baselines`); experiments iterate over
/// `&[&dyn LeaderElection]` instead of hard-coding per-algorithm drivers.
///
/// A contender writes its [`LeaderElection::name`] and one constructor,
/// [`LeaderElection::plan`]; `start`, `start_owned` and `elect` are
/// provided over the one [`Execution`] that walks every plan.
pub trait LeaderElection {
    /// A short stable identifier used in tables and reports.
    fn name(&self) -> &'static str;

    /// Declares one run on `shape` (already checked to be a permitted
    /// initial configuration): its phases in order — closed-form ones, and
    /// a round-driven one whose [`Rounds`] runner steps under `scheduler` —
    /// and its per-run [`Contender`] state.
    fn plan<'a>(&self, shape: &Shape, scheduler: BoxedScheduler<'a>, opts: &RunOptions)
        -> Plan<'a>;

    /// Starts the election on `shape` under `scheduler`, returning the
    /// [`Execution`] handle positioned before the first phase. The handle
    /// borrows the shape and the scheduler for the run's duration.
    ///
    /// # Errors
    ///
    /// [`ElectionError::InvalidInitialConfiguration`] for empty or
    /// disconnected shapes. Errors that depend on the run itself (budget
    /// exhaustion, stalls) surface later, from the step that hits them.
    fn start<'a>(
        &'a self,
        shape: &'a Shape,
        scheduler: &'a mut (dyn Scheduler + Send),
        opts: &RunOptions,
    ) -> Result<Execution<'a>, ElectionError> {
        Execution::start(self, Cow::Borrowed(shape), Box::new(scheduler), opts)
    }

    /// Like [`LeaderElection::start`], but the returned [`Execution`] *owns*
    /// its shape and scheduler instead of borrowing them — the handle the
    /// session server parks across requests (and threads), where a borrowing
    /// execution could not outlive its caller's stack frame.
    ///
    /// # Errors
    ///
    /// Same as [`LeaderElection::start`].
    fn start_owned(
        &self,
        shape: &Shape,
        scheduler: Box<dyn Scheduler + Send>,
        opts: &RunOptions,
    ) -> Result<Execution<'static>, ElectionError> {
        Execution::start(self, Cow::Owned(shape.clone()), scheduler, opts)
    }

    /// Runs the election on `shape` under `scheduler` with the given
    /// options.
    ///
    /// # Errors
    ///
    /// [`ElectionError::InvalidInitialConfiguration`] for empty or
    /// disconnected shapes; [`ElectionError::Stuck`] when the algorithm
    /// cannot make progress on the workload (e.g. erosion with holes);
    /// [`ElectionError::Run`] for exhausted budgets of algorithms that must
    /// terminate; [`ElectionError::NoLeader`] when a caller-side fault
    /// removed the leader before the round-driven phase ended.
    fn elect(
        &self,
        shape: &Shape,
        scheduler: &mut (dyn Scheduler + Send),
        opts: &RunOptions,
    ) -> Result<RunReport, ElectionError> {
        self.start(shape, scheduler, opts)?.finish()
    }
}

/// Rejects empty and disconnected initial configurations — every
/// contender shares the paper's permitted-initial-configuration
/// precondition.
///
/// The shape's analysis is built first: every contender's particle system
/// reads it next, and the connectivity check then runs on its index.
fn check_initial_configuration(shape: &Shape) -> Result<(), ElectionError> {
    if shape.is_empty() {
        return Err(ElectionError::InvalidInitialConfiguration("empty shape"));
    }
    {
        let _span = trace::span("start", "start:analysis");
        shape.analyze();
    }
    let _span = trace::span("start", "start:connectivity");
    if !shape.is_connected() {
        return Err(ElectionError::InvalidInitialConfiguration(
            "initial shape must be connected",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The paper pipeline as a LeaderElection
// ---------------------------------------------------------------------------

/// Per-particle memory of Algorithm DLE, in bits (measured from
/// [`DleMemory`]).
pub const DLE_MEMORY_BITS: u64 = (std::mem::size_of::<DleMemory>() * 8) as u64;

/// Nominal per-particle memory of the OBD primitive, in bits: a constant
/// number of machine words for the segment-competition counters (the
/// primitive is simulated in closed form, so this is the model-level `O(1)`
/// bound, not a measurement).
pub const OBD_MEMORY_BITS: u64 = 96;

/// Nominal per-particle memory of Algorithm Collect, in bits: role, phase
/// parity and movement-primitive state (closed-form simulation; model-level
/// `O(1)` bound).
pub const COLLECT_MEMORY_BITS: u64 = 32;

/// The paper's composed algorithm — `OBD → DLE → Collect` — behind the
/// unified API. Phase selection is driven by [`RunOptions`]:
/// `assume_outer_boundary_known` skips OBD, `reconnect: false` skips
/// Collect.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaperPipeline;

impl RoundDriven for DleAlgorithm {
    fn status(memory: &DleMemory) -> Status {
        memory.status
    }
}

/// The pipeline's per-run state: whether OBD ran, and Collect's outcome.
struct Pipeline {
    obd_ran: bool,
    collect: Option<CollectOutcome>,
    /// Where a restored DLE outcome may place particles: the initial
    /// shape's [`restore_bounds`].
    restore_bounds: Option<GridRect>,
}

/// The serialized form of a pipeline run mid-way: everything that cannot
/// be rebuilt by re-starting the pipeline on the same spec. The runner
/// snapshot is present exactly in the `run-dle` state (before DLE the fresh
/// runner *is* the restored runner; after DLE it has been consumed into
/// [`DleOutcome`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PipelineSnapshot {
    /// The position in the phase sequence (see [`DriverState::state`]).
    state: String,
    reports: Vec<PhaseReport>,
    obd_ran: bool,
    dle: Option<DleOutcome>,
    collect: Option<CollectOutcome>,
    /// The final report, present exactly in the `done` state.
    done: Option<RunReport>,
    runner: Option<serde::Value>,
}

impl Contender for Pipeline {
    fn closed_form(&mut self, phase: &'static str, shape: &Shape, dle: Option<&DleOutcome>) -> u64 {
        if phase == phase::OBD {
            // Its output is exactly the `outer[0..5]` input DLE's
            // initializer consumes.
            self.obd_ran = true;
            return run_obd(shape).rounds;
        }
        let dle = dle.expect("Collect runs after DLE");
        let collect = CollectSimulator::new(dle.leader_point, &dle.final_positions).run();
        let rounds = collect.rounds;
        self.collect = Some(collect);
        rounds
    }

    fn finish(&self, report: &mut RunReport, _shape: &Shape) {
        if let Some(collect) = &self.collect {
            report.final_positions = collect.final_positions.clone();
        }
        report.final_connected =
            Shape::from_points(report.final_positions.iter().copied()).is_connected();
    }

    fn snapshot(&self, driver: &dyn Fn() -> DriverState) -> Option<serde::Value> {
        let driver = driver();
        let snapshot = PipelineSnapshot {
            state: driver.state,
            reports: driver.reports,
            obd_ran: self.obd_ran,
            dle: driver.rounds,
            collect: self.collect.clone(),
            done: driver.done,
            runner: driver.runner,
        };
        Some(snapshot.to_value())
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<DriverState, String> {
        let snap = PipelineSnapshot::from_value(snapshot)
            .map_err(|e| format!("malformed pipeline snapshot: {e}"))?;
        // Collect's outcome is a function of DLE's. It is rebuilt from the
        // checked DLE outcome rather than taken from the snapshot, whose
        // coordinates would size the final connectivity check.
        let collect = match (&snap.collect, &snap.dle) {
            (None, _) => None,
            (Some(_), Some(dle)) => {
                dle.check_restored(self.restore_bounds)
                    .map_err(|e| format!("`{}` snapshot: {e}", snap.state))?;
                Some(CollectSimulator::new(dle.leader_point, &dle.final_positions).run())
            }
            (Some(_), None) => {
                return Err(format!(
                    "`{}` snapshot carries a Collect outcome but no DLE outcome",
                    snap.state
                ))
            }
        };
        self.obd_ran = snap.obd_ran;
        self.collect = collect;
        Ok(DriverState {
            state: snap.state,
            reports: snap.reports,
            rounds: snap.dle,
            done: snap.done,
            runner: snap.runner,
        })
    }
}

impl LeaderElection for PaperPipeline {
    fn name(&self) -> &'static str {
        "dle+collect"
    }

    fn plan<'a>(
        &self,
        shape: &Shape,
        scheduler: BoxedScheduler<'a>,
        opts: &RunOptions,
    ) -> Plan<'a> {
        let mut phases = Vec::with_capacity(3);
        if !opts.assume_outer_boundary_known {
            phases.push(Phase::ClosedForm {
                name: phase::OBD,
                memory_bits: OBD_MEMORY_BITS,
            });
        }
        let budget = default_round_budget(shape);
        phases.push(Phase::Rounds(Rounds::new(
            phase::DLE,
            DleAlgorithm,
            shape,
            scheduler,
            opts,
            budget,
        )));
        if opts.reconnect {
            phases.push(Phase::ClosedForm {
                name: phase::COLLECT,
                memory_bits: COLLECT_MEMORY_BITS,
            });
        }
        let pipeline = Pipeline {
            obd_ran: false,
            collect: None,
            restore_bounds: restore_bounds(shape),
        };
        Plan::new(phases, pipeline)
    }
}

// ---------------------------------------------------------------------------
// The fluent runner
// ---------------------------------------------------------------------------

/// Entry point of the fluent runner API: `Election::on(&shape)` starts a
/// builder configured with the paper pipeline, the default measurement
/// scheduler and [`RunOptions::default`].
pub struct Election;

/// The default algorithm of the builder.
static PAPER_PIPELINE: PaperPipeline = PaperPipeline;

impl Election {
    /// Starts building an election run on the given initial shape.
    pub fn on(shape: &Shape) -> ElectionBuilder<'_> {
        ElectionBuilder {
            shape,
            algorithm: &PAPER_PIPELINE,
            scheduler: None,
            opts: RunOptions::default(),
        }
    }
}

/// Fluent configuration of one election run; see [`Election::on`].
pub struct ElectionBuilder<'a> {
    shape: &'a Shape,
    algorithm: &'a dyn LeaderElection,
    scheduler: Option<Box<dyn Scheduler + Send + 'a>>,
    opts: RunOptions,
}

impl<'a> ElectionBuilder<'a> {
    /// Selects the algorithm (default: the paper pipeline).
    pub fn algorithm(mut self, algorithm: &'a dyn LeaderElection) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the scheduler (default: `SeededRandom` with the options'
    /// seed — random activation orders exhibit the generic behaviour the
    /// paper's worst-case bounds describe, whereas a lexicographic sweep can
    /// let a whole erosion front cascade within one round).
    pub fn scheduler(mut self, scheduler: impl Scheduler + Send + 'a) -> Self {
        self.scheduler = Some(Box::new(scheduler));
        self
    }

    /// Replaces all options at once.
    pub fn options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Assumes the outer boundary is known initially (skips OBD — the
    /// paper's `O(D_A)` variant).
    pub fn assume_boundary_known(mut self) -> Self {
        self.opts.assume_outer_boundary_known = true;
        self
    }

    /// Stops after DLE without running Collect (the final configuration may
    /// be disconnected).
    pub fn skip_reconnection(mut self) -> Self {
        self.opts.reconnect = false;
        self
    }

    /// Tracks connectivity round by round (one BFS per round).
    pub fn track_connectivity(mut self) -> Self {
        self.opts.track_connectivity = true;
        self
    }

    /// Sets the round budget of round-driven phases.
    pub fn round_budget(mut self, budget: u64) -> Self {
        self.opts.round_budget = Some(budget);
        self
    }

    /// Sets the seed used by randomized algorithms and the default
    /// scheduler.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Selects the occupancy backend for round-driven phases (the dense
    /// fast path by default; the hashed legacy path for differential
    /// testing).
    pub fn occupancy(mut self, backend: OccupancyBackend) -> Self {
        self.opts.occupancy = backend;
        self
    }

    /// Runs the election.
    ///
    /// # Errors
    ///
    /// See [`LeaderElection::elect`].
    pub fn run(self) -> Result<RunReport, ElectionError> {
        let ElectionBuilder {
            shape,
            algorithm,
            scheduler,
            opts,
        } = self;
        let mut default_scheduler;
        let mut boxed_scheduler;
        let scheduler: &mut (dyn Scheduler + Send) = match scheduler {
            Some(boxed) => {
                boxed_scheduler = boxed;
                &mut *boxed_scheduler
            }
            None => {
                default_scheduler = SeededRandom::new(opts.seed);
                &mut default_scheduler
            }
        };
        algorithm.elect(shape, scheduler, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_amoebot::scheduler::{RoundRobin, SeededRandom};
    use pm_grid::builder::{annulus, hexagon, line, swiss_cheese};

    #[test]
    fn builder_defaults_run_the_full_pipeline() {
        let shape = swiss_cheese(5, 3);
        let report = Election::on(&shape).run().unwrap();
        assert_eq!(report.algorithm, "dle+collect");
        assert_eq!(report.scheduler, "seeded-random");
        assert_eq!(report.n, shape.len());
        assert!(report.predicate_holds());
        assert!(report.rounds_consistent());
        assert_eq!(report.final_positions.len(), shape.len());
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, [phase::OBD, phase::DLE, phase::COLLECT]);
        assert!(report.phase_rounds(phase::DLE) > 0);
    }

    #[test]
    fn boundary_knowledge_skips_obd() {
        let report = Election::on(&annulus(4, 1))
            .scheduler(RoundRobin)
            .assume_boundary_known()
            .run()
            .unwrap();
        assert_eq!(report.phase_rounds(phase::OBD), 0);
        assert!(!report.phases.iter().any(|p| p.name == phase::OBD));
        assert!(report.predicate_holds());
        assert_eq!(report.scheduler, "round-robin");
    }

    #[test]
    fn skip_reconnection_may_leave_the_shape_disconnected() {
        // A thin annulus: DLE's inward march leaves a sparse breadcrumb
        // trail, so without Collect the system disconnects (the
        // collect_walkthrough example renders this configuration).
        let report = Election::on(&annulus(8, 7))
            .scheduler(SeededRandom::new(0))
            .assume_boundary_known()
            .skip_reconnection()
            .track_connectivity()
            .run()
            .unwrap();
        assert!(report.unique_leader());
        assert!(!report.phases.iter().any(|p| p.name == phase::COLLECT));
        assert!(report.connectivity.tracked);
        // The report must record the disconnection rather than hide it.
        assert!(report.connectivity.ever_disconnected);
        assert!(report.connectivity.disconnected_rounds > 0);
        assert!(!report.final_connected);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(matches!(
            Election::on(&Shape::new()).run(),
            Err(ElectionError::InvalidInitialConfiguration(_))
        ));
        let mut disconnected = hexagon(1);
        disconnected.insert(Point::new(40, 40));
        assert!(matches!(
            Election::on(&disconnected).run(),
            Err(ElectionError::InvalidInitialConfiguration(_))
        ));
    }

    #[test]
    fn round_budget_is_enforced() {
        let result = Election::on(&hexagon(5)).round_budget(1).run();
        assert!(matches!(
            result,
            Err(ElectionError::Run(RunError::RoundLimitExceeded {
                limit: 1
            }))
        ));
    }

    #[test]
    fn observer_sees_phases_and_rounds() {
        // Round-by-round instrumentation is a plain step loop over the
        // execution's outcomes.
        let mut phases = Vec::new();
        let mut dle_rounds = 0u64;
        let mut ended = Vec::new();
        let shape = annulus(4, 2);
        let mut scheduler = SeededRandom::new(1);
        let algorithm = PaperPipeline;
        let mut execution = algorithm
            .start(&shape, &mut scheduler, &RunOptions::default())
            .unwrap();
        let report = loop {
            match execution.step_round().unwrap() {
                StepOutcome::PhaseStarted { phase } => {
                    phases.push((algorithm.name().to_string(), phase.to_string()));
                }
                StepOutcome::RoundCompleted { phase, rounds } => {
                    assert_eq!(phase, phase::DLE);
                    dle_rounds = rounds;
                }
                StepOutcome::PhaseEnded { report } => ended.push(report.name.clone()),
                StepOutcome::Finished(report) => break report,
            }
        };
        assert_eq!(
            phases,
            [
                ("dle+collect".to_string(), phase::OBD.to_string()),
                ("dle+collect".to_string(), phase::DLE.to_string()),
                ("dle+collect".to_string(), phase::COLLECT.to_string()),
            ]
        );
        assert_eq!(ended, [phase::OBD, phase::DLE, phase::COLLECT]);
        assert_eq!(dle_rounds, report.phase_rounds(phase::DLE));
    }

    #[test]
    fn stepping_walks_the_phase_grammar() {
        // PhaseStarted/RoundCompleted/PhaseEnded must nest correctly, with
        // rounds only inside the round-driven DLE phase, and the final step
        // must yield the report.
        let shape = annulus(4, 2);
        let mut scheduler = SeededRandom::new(1);
        let mut execution = PaperPipeline
            .start(&shape, &mut scheduler, &RunOptions::default())
            .unwrap();
        assert_eq!(execution.status().phase, None);
        assert_eq!(execution.status().undecided, shape.len());
        assert!(!execution.status().finished);

        let mut seen = Vec::new();
        let mut dle_rounds = 0u64;
        let report = loop {
            match execution.step_round().unwrap() {
                StepOutcome::PhaseStarted { phase } => seen.push(format!("start:{phase}")),
                StepOutcome::RoundCompleted { phase, rounds } => {
                    assert_eq!(phase, phase::DLE, "only DLE is round-driven");
                    assert_eq!(rounds, dle_rounds + 1, "rounds count up by one");
                    dle_rounds = rounds;
                    assert_eq!(execution.status().rounds_in_phase, rounds);
                }
                StepOutcome::PhaseEnded { report } => seen.push(format!("end:{}", report.name)),
                StepOutcome::Finished(report) => break report,
            }
        };
        assert_eq!(
            seen,
            [
                "start:obd",
                "end:obd",
                "start:dle",
                "end:dle",
                "start:collect",
                "end:collect"
            ]
        );
        assert_eq!(dle_rounds, report.phase_rounds(phase::DLE));
        assert!(report.predicate_holds());
        let status = execution.status();
        assert!(status.finished);
        assert_eq!(status.decided, shape.len());
        assert_eq!(status.undecided, 0);
        // Stepping a finished execution is idempotent.
        assert_eq!(
            execution.step_round().unwrap(),
            StepOutcome::Finished(report)
        );
    }

    #[test]
    fn stepped_execution_equals_eager_elect() {
        let shape = swiss_cheese(4, 2);
        let eager = PaperPipeline
            .elect(&shape, &mut SeededRandom::new(9), &RunOptions::default())
            .unwrap();
        let mut scheduler = SeededRandom::new(9);
        let mut execution = PaperPipeline
            .start(&shape, &mut scheduler, &RunOptions::default())
            .unwrap();
        let stepped = loop {
            if let StepOutcome::Finished(report) = execution.step_round().unwrap() {
                break report;
            }
        };
        assert_eq!(stepped, eager);
    }

    #[test]
    fn system_access_is_scoped_to_the_round_driven_phase() {
        let shape = hexagon(3);
        let mut scheduler = SeededRandom::new(4);
        let mut execution = PaperPipeline
            .start(&shape, &mut scheduler, &RunOptions::default())
            .unwrap();
        // Before and during OBD there is no steppable system.
        assert!(execution.system().is_none());
        assert_eq!(execution.status().next_round, None);
        assert_eq!(execution.next_round(), None);
        // Advance into DLE: obd start, obd end, dle start.
        for _ in 0..3 {
            execution.step_round().unwrap();
        }
        assert_eq!(execution.status().phase, Some(phase::DLE));
        assert_eq!(execution.status().next_round, Some(0));
        // The O(1) accessor agrees with the full status snapshot.
        assert_eq!(execution.next_round(), Some((phase::DLE, 0)));
        assert!(execution.system().is_some());
        let report = execution.finish().unwrap();
        assert!(report.predicate_holds());
    }

    #[test]
    fn caller_side_perturbation_restarts_on_the_mutated_system() {
        // Remove a particle before round 2 of DLE and reset: the election
        // must terminate with a unique leader on the smaller system, and the
        // report must account for every surviving particle.
        let shape = hexagon(4);
        let mut scheduler = SeededRandom::new(3);
        let opts = RunOptions::default();
        let mut execution = PaperPipeline.start(&shape, &mut scheduler, &opts).unwrap();
        let mut fired = false;
        let report = loop {
            if !fired && execution.status().next_round == Some(2) {
                fired = true;
                let mut system = execution.system().expect("DLE is active");
                let victim = system.particle_positions()[0];
                assert!(system.remove_at(victim));
                system.reinitialize();
            }
            if let StepOutcome::Finished(report) = execution.step_round().unwrap() {
                break report;
            }
        };
        assert!(fired);
        assert!(report.unique_leader());
        assert_eq!(report.undecided, 0);
        assert_eq!(report.final_positions.len(), shape.len() - 1);
    }

    #[test]
    fn budget_errors_surface_from_the_failing_step() {
        let shape = hexagon(4);
        let mut scheduler = SeededRandom::new(0);
        let opts = RunOptions {
            round_budget: Some(2),
            ..RunOptions::default()
        };
        let mut execution = PaperPipeline.start(&shape, &mut scheduler, &opts).unwrap();
        let mut rounds = 0;
        let error = loop {
            match execution.step_round() {
                Ok(StepOutcome::RoundCompleted { .. }) => rounds += 1,
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert_eq!(rounds, 2);
        assert_eq!(
            error,
            ElectionError::Run(RunError::RoundLimitExceeded { limit: 2 })
        );
        // Once the budget is gone, next_round reports no upcoming round.
        assert_eq!(execution.status().next_round, None);
        assert_eq!(execution.next_round(), None);
    }

    #[test]
    fn snapshots_past_the_round_driven_phase_must_carry_its_outcome() {
        let shape = hexagon(2);
        let opts = RunOptions::default();
        let mut scheduler = SeededRandom::new(1);
        let mut execution = PaperPipeline.start(&shape, &mut scheduler, &opts).unwrap();
        while execution.status().phase != Some(phase::COLLECT) {
            execution.step_round().unwrap();
        }
        let mut snapshot = execution.snapshot().unwrap();
        let serde::Value::Object(entries) = &mut snapshot else {
            panic!("snapshots serialize to objects");
        };
        for (key, value) in entries.iter_mut() {
            if key == "dle" {
                *value = serde::Value::Null;
            }
        }
        let mut scheduler = SeededRandom::new(1);
        let mut fresh = PaperPipeline.start(&shape, &mut scheduler, &opts).unwrap();
        assert!(fresh.restore_snapshot(&snapshot).is_err());
    }

    /// The value under `key` of a snapshot object.
    fn entry<'v>(value: &'v mut serde::Value, key: &str) -> &'v mut serde::Value {
        let serde::Value::Object(entries) = value else {
            panic!("`{key}`: not an object");
        };
        let (_, value) = entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no `{key}`"));
        value
    }

    /// Element `i` of a snapshot array.
    fn element(value: &mut serde::Value, i: usize) -> &mut serde::Value {
        let serde::Value::Array(items) = value else {
            panic!("not an array");
        };
        &mut items[i]
    }

    #[test]
    fn crafted_snapshots_with_far_or_stacked_particles_are_refused() {
        let shape = hexagon(3);
        let opts = RunOptions::default();
        let start = || {
            PaperPipeline
                .start_owned(&shape, Box::new(SeededRandom::new(1)), &opts)
                .unwrap()
        };
        let reference = PaperPipeline
            .elect(&shape, &mut SeededRandom::new(1), &opts)
            .unwrap();
        let far = Point::new(1_000_000_000, 0).to_value();
        let mut execution = start();
        while execution.next_round() != Some((phase::DLE, 1)) {
            execution.step_round().unwrap();
        }
        let in_dle = execution.snapshot().unwrap();
        let mut next_phase_end = || loop {
            if let StepOutcome::PhaseEnded { .. } = execution.step_round().unwrap() {
                break execution.snapshot().unwrap();
            }
        };
        let dle_ended = next_phase_end();
        let collected = next_phase_end();
        assert_eq!(
            collected.get("state"),
            Some(&serde::Value::Str("finish".to_string()))
        );

        // A `run-dle` runner whose particle 0 is far away, decided and
        // terminated: before the check, Collect later built a ring of
        // radius ~10⁹ and the process aborted on the allocation.
        let mut far_particle = in_dle.clone();
        let particle = element(
            entry(
                entry(entry(&mut far_particle, "runner"), "system"),
                "particles",
            ),
            0,
        );
        *entry(particle, "head") = far.clone();
        *entry(particle, "tail") = far.clone();
        *entry(entry(particle, "memory"), "status") = Status::Follower.to_value();
        *entry(particle, "terminated") = serde::Value::Bool(true);
        // Particle 1 stacked on particle 0's point.
        let mut stacked = in_dle.clone();
        let particles = entry(entry(entry(&mut stacked, "runner"), "system"), "particles");
        let head = entry(element(particles, 0), "head").clone();
        *entry(element(particles, 1), "head") = head.clone();
        *entry(element(particles, 1), "tail") = head;
        // A `start-collect` DLE outcome with one far final position.
        let mut far_position = dle_ended.clone();
        *element(entry(entry(&mut far_position, "dle"), "final_positions"), 1) = far;
        // The same outcome missing a position its status counts include.
        let mut short = dle_ended.clone();
        let serde::Value::Array(positions) = entry(entry(&mut short, "dle"), "final_positions")
        else {
            panic!("positions serialize to an array");
        };
        positions.pop();

        for (name, crafted) in [
            ("far particle", far_particle),
            ("stacked particles", stacked),
            ("far DLE position", far_position),
            ("short DLE outcome", short),
        ] {
            let mut fresh = start();
            let refused = fresh.restore_snapshot(&crafted);
            assert!(refused.is_err(), "{name}: restored");
            // A refused snapshot leaves the execution where it was, so a
            // replay from step zero reproduces the uninterrupted run.
            assert_eq!(fresh.finish().unwrap(), reference, "{name}");
        }
        for genuine in [in_dle, dle_ended] {
            start().restore_snapshot(&genuine).unwrap();
        }
        // A `finish` snapshot's Collect outcome is rebuilt from its DLE
        // outcome; before, a far point in it sized the final connectivity
        // grid and the allocation aborted the process.
        let mut far_collect = collected;
        *element(
            entry(entry(&mut far_collect, "collect"), "final_positions"),
            1,
        ) = Point::new(1_000_000_000, 1_000_000_000).to_value();
        let mut fresh = start();
        fresh.restore_snapshot(&far_collect).unwrap();
        assert_eq!(fresh.finish().unwrap(), reference);
    }

    #[test]
    fn reports_are_consistent_across_small_workloads() {
        for shape in [line(1), line(2), hexagon(2), annulus(3, 1)] {
            let report = Election::on(&shape).run().unwrap();
            assert!(report.rounds_consistent());
            assert!(report.predicate_holds());
            assert!(report.peak_memory_bits >= DLE_MEMORY_BITS);
            assert_eq!(report.moves, report.phases.iter().map(|p| p.moves).sum());
        }
    }

    #[test]
    fn profiling_mirrors_the_phase_reports_without_changing_the_outcome() {
        let shape = annulus(4, 1);
        let mut scheduler = SeededRandom::new(3);
        let opts = RunOptions::default();
        let mut execution = PaperPipeline.start(&shape, &mut scheduler, &opts).unwrap();
        execution.enable_profiling();
        execution.enable_profiling(); // idempotent
        let profiled = execution.finish().unwrap();

        let mut scheduler = SeededRandom::new(3);
        let plain = PaperPipeline
            .start(&shape, &mut scheduler, &opts)
            .unwrap()
            .finish()
            .unwrap();
        assert!(plain.profile.is_empty());
        // Telemetry is out-of-band: the deterministic fields (everything
        // PartialEq compares) are untouched by profiling.
        assert_eq!(profiled, plain);

        // One profile entry per executed phase, agreeing with the
        // deterministic per-phase counters; every step was timed.
        assert_eq!(profiled.profile.len(), profiled.phases.len());
        for (profile, phase) in profiled.profile.iter().zip(&profiled.phases) {
            assert_eq!(profile.name, phase.name);
            assert_eq!(profile.rounds, phase.rounds);
            assert_eq!(profile.activations, phase.activations);
            assert_eq!(profile.moves, phase.moves);
            // PhaseStarted + the phase body + PhaseEnded.
            assert!(profile.steps >= 2);
        }
    }

    #[test]
    fn profiles_stay_out_of_the_serialized_report() {
        let shape = hexagon(2);
        let mut scheduler = SeededRandom::new(0);
        let mut execution = PaperPipeline
            .start(&shape, &mut scheduler, &RunOptions::default())
            .unwrap();
        execution.enable_profiling();
        let report = execution.finish().unwrap();
        assert!(!report.profile.is_empty());

        let value = serde::Serialize::to_value(&report);
        if let serde::Value::Object(entries) = &value {
            assert!(
                entries.iter().all(|(key, _)| key != "profile"),
                "profile must not leak into serialized reports"
            );
        } else {
            panic!("reports serialize to objects");
        }
        let restored: RunReport = serde::Deserialize::from_value(&value).unwrap();
        assert!(restored.profile.is_empty());
        // Equality ignores the (non-deterministic, wall-clock) profile.
        assert_eq!(restored, report);
    }
}
