//! Fair strong schedulers and the execution runner.
//!
//! The paper assumes a *strong* scheduler: particles are activated one at a
//! time, atomically, and every particle is activated infinitely often (fair
//! executions). An *asynchronous round* is a minimal execution fragment in
//! which every particle is activated at least once; the runner counts rounds
//! by letting the scheduler emit, for each round, an activation order in
//! which every live particle appears at least once.
//!
//! Schedulers write each round's order into a caller-provided buffer
//! ([`Scheduler::fill_round_order`]); the [`Runner`] reuses one buffer (and
//! one live-particle list) across all rounds, so steady-state execution
//! performs no per-round allocation at all.

use crate::algorithm::{ActivationContext, Algorithm};
use crate::particle::ParticleId;
use crate::stats::RunStats;
use crate::system::{ParticleSystem, SystemControl, SystemSnapshot};
use pm_grid::{Point, Shape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The portable mutable state of a [`Scheduler`], for execution snapshots.
///
/// Most schedulers are pure functions of the round number and carry no
/// state at all; [`SeededRandom`] carries its RNG words. Snapshots capture
/// this value and [`Scheduler::restore_state`] re-injects it, so a restored
/// execution's scheduler continues the *identical* activation-order stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerState {
    /// The scheduler has no mutable state.
    Stateless,
    /// The internal words of a seeded random generator.
    Rng([u64; 4]),
}

/// A fair strong scheduler: produces, for every round, a sequence of
/// activations in which each provided particle appears at least once.
pub trait Scheduler {
    /// Appends the activation order for one asynchronous round to `out`
    /// (which the runner hands over cleared, with its capacity retained from
    /// the previous round).
    ///
    /// `ids` lists the particles that have not yet reached a final state;
    /// each of them must appear at least once in the appended order (the
    /// runner checks this in debug builds). Particles may appear more than
    /// once — that only makes the adversary stronger.
    fn fill_round_order(&mut self, ids: &[ParticleId], round: u64, out: &mut Vec<ParticleId>);

    /// Allocating convenience wrapper over
    /// [`Scheduler::fill_round_order`], for tests and one-off callers.
    fn round_order(&mut self, ids: &[ParticleId], round: u64) -> Vec<ParticleId> {
        let mut out = Vec::with_capacity(ids.len());
        self.fill_round_order(ids, round, &mut out);
        out
    }

    /// A short human-readable name used in experiment reports.
    fn name(&self) -> &'static str {
        "scheduler"
    }

    /// Captures the scheduler's mutable state for a snapshot. Schedulers
    /// that are pure functions of the round number (the default) report
    /// [`SchedulerState::Stateless`].
    fn state(&self) -> SchedulerState {
        SchedulerState::Stateless
    }

    /// Re-injects state captured by [`Scheduler::state`], so the scheduler
    /// continues the identical activation-order stream.
    ///
    /// # Errors
    ///
    /// Rejects state of the wrong kind for this scheduler (e.g. RNG words
    /// handed to a stateless scheduler).
    fn restore_state(&mut self, state: &SchedulerState) -> Result<(), String> {
        match state {
            SchedulerState::Stateless => Ok(()),
            SchedulerState::Rng(_) => Err(format!(
                "scheduler `{}` carries no RNG state to restore",
                self.name()
            )),
        }
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn fill_round_order(&mut self, ids: &[ParticleId], round: u64, out: &mut Vec<ParticleId>) {
        (**self).fill_round_order(ids, round, out)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn state(&self) -> SchedulerState {
        (**self).state()
    }
    fn restore_state(&mut self, state: &SchedulerState) -> Result<(), String> {
        (**self).restore_state(state)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn fill_round_order(&mut self, ids: &[ParticleId], round: u64, out: &mut Vec<ParticleId>) {
        (**self).fill_round_order(ids, round, out)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn state(&self) -> SchedulerState {
        (**self).state()
    }
    fn restore_state(&mut self, state: &SchedulerState) -> Result<(), String> {
        (**self).restore_state(state)
    }
}

/// Activates particles in creation order, once per round (the identity
/// permutation: the order is the live list itself, copied without any
/// reordering work).
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin;

impl Scheduler for RoundRobin {
    fn fill_round_order(&mut self, ids: &[ParticleId], _round: u64, out: &mut Vec<ParticleId>) {
        out.extend_from_slice(ids);
    }
    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Activates particles in reverse creation order, once per round.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReverseRoundRobin;

impl Scheduler for ReverseRoundRobin {
    fn fill_round_order(&mut self, ids: &[ParticleId], _round: u64, out: &mut Vec<ParticleId>) {
        out.extend(ids.iter().rev().copied());
    }
    fn name(&self) -> &'static str {
        "reverse-round-robin"
    }
}

/// Activates particles in a fresh uniformly random order each round
/// (deterministic given the seed).
#[derive(Clone, Debug)]
pub struct SeededRandom {
    rng: StdRng,
}

impl SeededRandom {
    /// Creates a random scheduler with the given seed.
    pub fn new(seed: u64) -> SeededRandom {
        SeededRandom {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Default for SeededRandom {
    fn default() -> SeededRandom {
        SeededRandom::new(0x5eed)
    }
}

impl Scheduler for SeededRandom {
    fn fill_round_order(&mut self, ids: &[ParticleId], _round: u64, out: &mut Vec<ParticleId>) {
        // Shuffle only the appended entries: the trait contract is append,
        // and pre-existing buffer contents must stay untouched.
        let start = out.len();
        out.extend_from_slice(ids);
        out[start..].shuffle(&mut self.rng);
    }
    fn name(&self) -> &'static str {
        "seeded-random"
    }
    fn state(&self) -> SchedulerState {
        SchedulerState::Rng(self.rng.state())
    }
    fn restore_state(&mut self, state: &SchedulerState) -> Result<(), String> {
        match state {
            SchedulerState::Rng(words) => {
                self.rng = StdRng::from_state(*words);
                Ok(())
            }
            SchedulerState::Stateless => {
                Err("seeded-random scheduler requires RNG state to restore".to_string())
            }
        }
    }
}

/// An adversarial-flavoured scheduler that activates every particle twice per
/// round: once in creation order and once in reverse order. Rounds therefore
/// contain `2n` activations, exercising algorithms under denser interleaving
/// while still being a legal fair strong scheduler.
#[derive(Clone, Copy, Debug, Default)]
pub struct DoubleActivation;

impl Scheduler for DoubleActivation {
    fn fill_round_order(&mut self, ids: &[ParticleId], _round: u64, out: &mut Vec<ParticleId>) {
        out.extend_from_slice(ids);
        out.extend(ids.iter().rev().copied());
    }
    fn name(&self) -> &'static str {
        "double-activation"
    }
}

/// A buildable, sendable description of one of the schedulers above.
///
/// Scenarios and sessions cross thread boundaries and files, so they carry
/// a *description* of the scheduler rather than a live `dyn Scheduler`;
/// every run builds a fresh instance, which also guarantees random streams
/// never leak between runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// Creation order, once per round.
    RoundRobin,
    /// Reverse creation order, once per round.
    ReverseRoundRobin,
    /// A fresh uniformly random order each round, from the given seed.
    SeededRandom(u64),
    /// Every particle twice per round (forward then backward).
    DoubleActivation,
}

impl SchedulerSpec {
    /// Builds a fresh scheduler instance (`Send`, so built schedulers can
    /// back owned executions parked across threads).
    pub fn build(&self) -> Box<dyn Scheduler + Send> {
        match self {
            SchedulerSpec::RoundRobin => Box::new(RoundRobin),
            SchedulerSpec::ReverseRoundRobin => Box::new(ReverseRoundRobin),
            SchedulerSpec::SeededRandom(seed) => Box::new(SeededRandom::new(*seed)),
            SchedulerSpec::DoubleActivation => Box::new(DoubleActivation),
        }
    }

    /// The name the built scheduler reports (`Scheduler::name`).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::RoundRobin => "round-robin",
            SchedulerSpec::ReverseRoundRobin => "reverse-round-robin",
            SchedulerSpec::SeededRandom(_) => "seeded-random",
            SchedulerSpec::DoubleActivation => "double-activation",
        }
    }
}

/// An error from running an algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The algorithm did not complete within the round budget.
    RoundLimitExceeded {
        /// The budget that was exhausted.
        limit: u64,
    },
    /// The system contained no particles.
    EmptySystem,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::RoundLimitExceeded { limit } => {
                write!(f, "algorithm did not terminate within {limit} rounds")
            }
            RunError::EmptySystem => write!(f, "the particle system is empty"),
        }
    }
}

impl std::error::Error for RunError {}

/// Executes an [`Algorithm`] on a [`ParticleSystem`] under a [`Scheduler`],
/// counting asynchronous rounds and movement operations.
///
/// The runner is *resumable*: [`Runner::step`] executes exactly one
/// asynchronous round against the persistent [`Runner::stats`], and
/// [`Runner::control`] hands out a [`SystemControl`] for mid-run mutation
/// between rounds — the substrate of the steppable `Execution` handle in
/// `pm-core`. [`Runner::run`] is a loop over the same stepping surface.
pub struct Runner<A: Algorithm, S: Scheduler> {
    system: ParticleSystem<A::Memory>,
    algorithm: A,
    scheduler: S,
    /// This round's live particles: the system's ready set (not removed,
    /// not terminated, not parked) in ascending id order, rewritten at the
    /// start of every round by a scan of the set's words. The buffer is
    /// reused (cleared, capacity kept) across rounds.
    live: Vec<ParticleId>,
    /// The activation order buffer, reused (cleared, capacity kept) across
    /// rounds.
    order: Vec<ParticleId>,
    /// Cumulative statistics across all rounds stepped so far (persistent:
    /// stepping is resumable, so the counters survive between calls).
    stats: RunStats,
    /// When set, connectivity of the occupied shape is checked after every
    /// round and the results are reported in [`RunStats`]. Costs one BFS per
    /// round.
    pub track_connectivity: bool,
}

/// A portable snapshot of a mid-run [`Runner`]: the system state, the
/// cumulative statistics, and the scheduler's mutable state.
///
/// The live list and activation-order buffer are *not* captured: the live
/// list is always the ascending-id enumeration of non-terminated,
/// non-removed, non-parked particles, which the system's restore
/// recomputes from the snapshot's flags, so the next round lists the
/// identical particles.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunnerSnapshot<M> {
    /// The particle system's mid-run state.
    pub system: SystemSnapshot<M>,
    /// Cumulative statistics of all rounds stepped so far.
    pub stats: RunStats,
    /// The scheduler's mutable state.
    pub scheduler: SchedulerState,
}

/// The [`SystemControl`] view handed out by [`Runner::control`]: mutable
/// system access paired with the algorithm (whose initializer
/// [`SystemControl::reinitialize`] needs). Every mutation keeps the
/// system's ready set current, so the next round's live list reflects the
/// perturbed configuration.
pub struct RunnerControl<'a, A: Algorithm> {
    system: &'a mut ParticleSystem<A::Memory>,
    algorithm: &'a A,
}

impl<A: Algorithm> SystemControl for RunnerControl<'_, A> {
    fn particle_count(&self) -> usize {
        self.system.len()
    }

    fn particle_positions(&self) -> Vec<Point> {
        self.system.particle_positions()
    }

    fn occupied_shape(&self) -> Shape {
        self.system.shape()
    }

    fn is_connected(&self) -> bool {
        self.system.is_connected()
    }

    fn remove_at(&mut self, p: Point) -> bool {
        match self.system.particle_at(p) {
            Some(id) => self.system.remove_particle(id),
            None => false,
        }
    }

    fn add_at(&mut self, p: Point) -> bool {
        self.system.add_particle(p, self.algorithm)
    }

    fn corrupt_at(&mut self, p: Point, entropy: u64) -> bool {
        match self.system.particle_at(p) {
            Some(id) => self.system.corrupt_particle(id, self.algorithm, entropy),
            None => false,
        }
    }

    fn reinitialize(&mut self) {
        self.system.reinitialize(self.algorithm);
    }
}

impl<A: Algorithm, S: Scheduler> Runner<A, S> {
    /// Creates a runner.
    pub fn new(mut system: ParticleSystem<A::Memory>, algorithm: A, scheduler: S) -> Runner<A, S> {
        system.set_parking(algorithm.supports_quiescence());
        Runner {
            system,
            algorithm,
            scheduler,
            live: Vec::new(),
            order: Vec::new(),
            stats: RunStats::default(),
            track_connectivity: false,
        }
    }

    /// Enables per-round connectivity tracking (see
    /// [`RunStats::ever_disconnected`]).
    pub fn with_connectivity_tracking(mut self) -> Runner<A, S> {
        self.track_connectivity = true;
        self
    }

    /// The current system (before or after running).
    pub fn system(&self) -> &ParticleSystem<A::Memory> {
        &self.system
    }

    /// The algorithm instance.
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// Consumes the runner and returns the system.
    pub fn into_system(self) -> ParticleSystem<A::Memory> {
        self.system
    }

    /// The cumulative statistics of all rounds stepped so far. Movement
    /// counters and final connectivity are folded in by
    /// [`Runner::finalize`]; until then only rounds, activations and the
    /// connectivity-tracking fields are populated.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Whether the algorithm reports completion on the current system state.
    pub fn is_complete(&self) -> bool {
        self.algorithm.is_complete(&self.system)
    }

    /// Mutable access to the particle system between rounds, as the
    /// [`SystemControl`] mutation surface: the entry point for mid-run
    /// perturbations (remove particles, reset the survivors). Mutations
    /// keep the system's ready set current, so the next [`Runner::step`]
    /// activates exactly the perturbed configuration's live particles.
    pub fn control(&mut self) -> RunnerControl<'_, A> {
        RunnerControl {
            system: &mut self.system,
            algorithm: &self.algorithm,
        }
    }

    /// Captures the runner's mid-run state as a [`RunnerSnapshot`].
    pub fn snapshot(&self) -> RunnerSnapshot<A::Memory>
    where
        A::Memory: Clone,
    {
        RunnerSnapshot {
            system: self.system.snapshot(),
            stats: self.stats,
            scheduler: self.scheduler.state(),
        }
    }

    /// Overwrites this runner's state with a snapshot captured by
    /// [`Runner::snapshot`] of a runner built from the same initial shape,
    /// algorithm and scheduler. The system's restore recomputes its ready
    /// set, so the next round's live list is byte-identical to the one the
    /// snapshotted runner would have used: the ascending-id enumeration of
    /// active particles.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose system state or scheduler state does not
    /// match this runner (see [`ParticleSystem::restore_snapshot`]). A
    /// rejected snapshot leaves the runner unchanged, so the caller may
    /// replay it from its current state instead.
    pub fn restore_snapshot(&mut self, snapshot: &RunnerSnapshot<A::Memory>) -> Result<(), String>
    where
        A::Memory: Clone,
    {
        let previous = self.scheduler.state();
        self.scheduler.restore_state(&snapshot.scheduler)?;
        if let Err(error) = self.system.restore_snapshot(&snapshot.system) {
            self.scheduler
                .restore_state(&previous)
                .expect("a scheduler takes back its own state");
            return Err(error);
        }
        self.stats = snapshot.stats;
        Ok(())
    }

    /// Executes exactly one asynchronous round against the persistent
    /// [`Runner::stats`] and returns the updated statistics. Stepping a
    /// completed algorithm is harmless (every activation is a no-op) but
    /// still counts a round; callers normally consult
    /// [`Runner::is_complete`] first.
    pub fn step(&mut self) -> &RunStats {
        let mut stats = self.stats;
        self.run_round(&mut stats);
        self.stats = stats;
        &self.stats
    }

    /// Folds the movement counters and the final-connectivity check into the
    /// persistent statistics and returns them — the last step of a completed
    /// run.
    pub fn finalize(&mut self) -> RunStats {
        let (e, c, h) = self.system.move_counts();
        self.stats.expansions = e;
        self.stats.contractions = c;
        self.stats.handovers = h;
        self.stats.final_connected = Some(self.system.is_connected());
        self.stats
    }

    /// Runs the algorithm until it reports completion, or fails after
    /// `max_rounds` *total* rounds (the budget spans resumed runs: stepping
    /// is persistent, so a runner that already stepped `k` rounds has
    /// `max_rounds - k` left).
    ///
    /// # Errors
    ///
    /// [`RunError::EmptySystem`] if the system has no particles, and
    /// [`RunError::RoundLimitExceeded`] if the round budget is exhausted
    /// before the algorithm completes.
    pub fn run(&mut self, max_rounds: u64) -> Result<RunStats, RunError> {
        if self.system.is_empty() {
            return Err(RunError::EmptySystem);
        }
        while !self.is_complete() {
            if self.stats.rounds >= max_rounds {
                return Err(RunError::RoundLimitExceeded { limit: max_rounds });
            }
            self.step();
        }
        Ok(self.finalize())
    }

    /// Rewrites the live list from the system's ready set, in ascending id
    /// order.
    fn refresh_live(&mut self) {
        self.system.ready_ids(&mut self.live);
        debug_assert!(
            self.live.iter().copied().eq(self.system.ids().filter(|id| {
                !self.system.particle(*id).is_terminated() && !self.system.is_parked(*id)
            })),
            "the ready set must list exactly the alive, unterminated, unparked particles"
        );
    }

    /// Executes a single asynchronous round and updates `stats`.
    pub fn run_round(&mut self, stats: &mut RunStats) {
        self.refresh_live();
        if self.live.is_empty() {
            // Everything left is parked. The parking invariant says those
            // activations are all no-ops, but fairness demands every
            // particle be activated infinitely often: unpark everyone and
            // retry (liveness fallback — with complete wake hooks this only
            // triggers for genuinely stalled algorithms, e.g. erosion on
            // shapes with holes, which then burn their round budget exactly
            // as without parking).
            if !self.system.all_terminated() && self.system.unpark_all() > 0 {
                self.refresh_live();
            }
            if self.live.is_empty() {
                return;
            }
        }
        self.order.clear();
        self.scheduler
            .fill_round_order(&self.live, stats.rounds, &mut self.order);
        debug_assert!(
            self.live.iter().all(|id| self.order.contains(id)),
            "scheduler must activate every live particle at least once per round"
        );
        for i in 0..self.order.len() {
            let id = self.order[i];
            // A particle in a final state — or parked earlier this round
            // with an unchanged view since — does nothing when activated.
            if !self.system.is_ready(id) {
                continue;
            }
            let mut ctx = ActivationContext::new(&mut self.system, id);
            self.algorithm.activate(&mut ctx);
            let quiet = !ctx.has_mutated();
            stats.activations += 1;
            if quiet && self.system.parking_enabled() {
                self.system.park(id);
            }
        }
        stats.rounds += 1;
        if self.track_connectivity && !self.system.is_connected() {
            stats.ever_disconnected = true;
            stats.disconnected_rounds += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::InitContext;
    use pm_grid::builder::{hexagon, line};

    /// Each particle counts its activations in memory and terminates after
    /// three of them.
    struct CountToThree;
    impl Algorithm for CountToThree {
        type Memory = u8;
        fn init(&self, _ctx: &InitContext) -> u8 {
            0
        }
        fn activate(&self, ctx: &mut ActivationContext<'_, u8>) {
            *ctx.memory_mut() += 1;
            if *ctx.memory() >= 3 {
                ctx.terminate();
            }
        }
    }

    #[test]
    fn round_robin_counts_three_rounds() {
        let sys = ParticleSystem::from_shape(&line(5), &CountToThree);
        let mut runner = Runner::new(sys, CountToThree, RoundRobin);
        let stats = runner.run(10).unwrap();
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.activations, 15);
        assert_eq!(stats.final_connected, Some(true));
        assert!(!stats.ever_disconnected);
    }

    #[test]
    fn double_activation_halves_round_count() {
        let sys = ParticleSystem::from_shape(&line(5), &CountToThree);
        let mut runner = Runner::new(sys, CountToThree, DoubleActivation);
        let stats = runner.run(10).unwrap();
        assert_eq!(stats.rounds, 2);
    }

    #[test]
    fn random_scheduler_is_deterministic_given_seed() {
        let run = |seed| {
            let sys = ParticleSystem::from_shape(&hexagon(2), &CountToThree);
            let mut runner = Runner::new(sys, CountToThree, SeededRandom::new(seed));
            runner.run(10).unwrap()
        };
        assert_eq!(run(1).activations, run(1).activations);
        assert_eq!(run(1).rounds, 3);
    }

    #[test]
    fn round_limit_is_enforced() {
        /// Never terminates.
        struct Forever;
        impl Algorithm for Forever {
            type Memory = ();
            fn init(&self, _ctx: &InitContext) {}
            fn activate(&self, _ctx: &mut ActivationContext<'_, ()>) {}
        }
        let sys = ParticleSystem::from_shape(&line(3), &Forever);
        let mut runner = Runner::new(sys, Forever, RoundRobin);
        assert_eq!(
            runner.run(5),
            Err(RunError::RoundLimitExceeded { limit: 5 })
        );
    }

    #[test]
    fn empty_system_is_an_error() {
        let sys = ParticleSystem::from_shape(&pm_grid::Shape::new(), &CountToThree);
        let mut runner = Runner::new(sys, CountToThree, RoundRobin);
        assert_eq!(runner.run(5), Err(RunError::EmptySystem));
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(RoundRobin.name(), "round-robin");
        assert_eq!(ReverseRoundRobin.name(), "reverse-round-robin");
        assert_eq!(SeededRandom::default().name(), "seeded-random");
        assert_eq!(DoubleActivation.name(), "double-activation");
    }

    #[test]
    fn scheduler_specs_build_what_they_name() {
        for spec in [
            SchedulerSpec::RoundRobin,
            SchedulerSpec::ReverseRoundRobin,
            SchedulerSpec::SeededRandom(7),
            SchedulerSpec::DoubleActivation,
        ] {
            assert_eq!(spec.build().name(), spec.name());
        }
    }

    #[test]
    fn reverse_round_robin_reverses() {
        let ids: Vec<ParticleId> = (0..4).map(ParticleId).collect();
        let order = ReverseRoundRobin.round_order(&ids, 0);
        assert_eq!(order.first(), Some(&ParticleId(3)));
        assert_eq!(order.last(), Some(&ParticleId(0)));
    }

    #[test]
    fn identity_schedulers_do_no_reordering_work() {
        // Regression test for the per-round allocation fix: RoundRobin is the
        // identity permutation (the order *is* the live list) and
        // ReverseRoundRobin its mirror — neither may allocate beyond the
        // caller's buffer nor reorder anything else.
        let ids: Vec<ParticleId> = (0..64).map(ParticleId).collect();
        let mut out = Vec::with_capacity(128);
        RoundRobin.fill_round_order(&ids, 0, &mut out);
        assert_eq!(out, ids, "round robin must be the identity permutation");
        let ptr = out.as_ptr();
        let cap = out.capacity();
        for round in 1..50 {
            out.clear();
            RoundRobin.fill_round_order(&ids, round, &mut out);
            assert_eq!(out, ids);
            out.clear();
            ReverseRoundRobin.fill_round_order(&ids, round, &mut out);
            assert!(out.iter().rev().eq(ids.iter()));
        }
        assert_eq!(out.capacity(), cap, "buffer must not grow");
        assert_eq!(out.as_ptr(), ptr, "buffer must not be reallocated");
    }

    #[test]
    fn runner_reuses_its_round_buffers() {
        // The runner's per-round buffers must stop allocating once warm: the
        // order buffer's capacity is bounded by the largest round emitted so
        // far, independent of how many rounds run.
        let sys = ParticleSystem::from_shape(&hexagon(3), &CountToThree);
        let mut runner = Runner::new(sys, CountToThree, RoundRobin);
        let mut stats = RunStats::default();
        runner.run_round(&mut stats);
        let live_cap = runner.live.capacity();
        let order_cap = runner.order.capacity();
        for _ in 0..20 {
            runner.run_round(&mut stats);
        }
        assert_eq!(runner.live.capacity(), live_cap);
        assert_eq!(runner.order.capacity(), order_cap);
    }

    /// A left-to-right wave: a particle acts only once its west neighbour
    /// has (or it has no west neighbour); everyone else is quiescent. Under
    /// `ReverseRoundRobin` exactly one particle progresses per round, so
    /// without parking a line of `n` burns `Θ(n²)` activations and with
    /// parking only `Θ(n)`.
    #[derive(Clone, Copy)]
    struct Wave {
        quiescence: bool,
    }
    impl Algorithm for Wave {
        type Memory = bool;
        fn init(&self, _ctx: &InitContext) -> bool {
            false
        }
        fn supports_quiescence(&self) -> bool {
            self.quiescence
        }
        fn activate(&self, ctx: &mut ActivationContext<'_, bool>) {
            let west = ctx.neighbor_at_head(pm_grid::Direction::W);
            let ready = match west {
                None => true,
                Some(w) => *ctx.neighbor_memory(w),
            };
            if ready && !*ctx.memory() {
                *ctx.memory_mut() = true;
                ctx.terminate();
            }
        }
    }

    #[test]
    fn quiescence_parking_skips_waiting_particles_without_changing_rounds() {
        let n = 24;
        let run = |quiescence| {
            let algorithm = Wave { quiescence };
            let sys = ParticleSystem::from_shape(&line(n), &algorithm);
            let mut runner = Runner::new(sys, algorithm, ReverseRoundRobin);
            let stats = runner.run(10 * n as u64).unwrap();
            assert!(runner.system().all_terminated());
            stats
        };
        let parked = run(true);
        let unparked = run(false);
        // Parking skips provably-no-op activations; it cannot change what
        // the activations that do run observe, so the wave finishes in the
        // same number of rounds.
        assert_eq!(parked.rounds, unparked.rounds);
        assert_eq!(parked.rounds, n as u64);
        // Without parking every live particle is activated every round
        // (quadratic); with parking only the wavefront is.
        assert_eq!(unparked.activations, (n as u64 * (n as u64 + 1)) / 2);
        assert!(
            parked.activations <= 3 * n as u64,
            "expected Θ(n) activations with parking, got {}",
            parked.activations
        );
    }

    #[test]
    fn stalled_quiescent_algorithms_still_hit_the_round_budget() {
        /// Quiescent and never progresses: every activation is a no-op.
        struct Stuck;
        impl Algorithm for Stuck {
            type Memory = ();
            fn init(&self, _ctx: &InitContext) {}
            fn supports_quiescence(&self) -> bool {
                true
            }
            fn activate(&self, _ctx: &mut ActivationContext<'_, ()>) {}
        }
        let sys = ParticleSystem::from_shape(&line(4), &Stuck);
        let mut runner = Runner::new(sys, Stuck, RoundRobin);
        // The unpark fallback keeps rounds counting, so the budget (not an
        // infinite loop) surfaces the stall.
        assert_eq!(
            runner.run(7),
            Err(RunError::RoundLimitExceeded { limit: 7 })
        );
    }

    #[test]
    fn stepping_is_resumable_and_equals_one_shot_runs() {
        // Driving the runner round by round must produce exactly the
        // statistics of a one-shot `run`, and `run` must resume seamlessly
        // from a partially stepped runner.
        let one_shot = {
            let sys = ParticleSystem::from_shape(&hexagon(2), &CountToThree);
            let mut runner = Runner::new(sys, CountToThree, RoundRobin);
            runner.run(10).unwrap()
        };
        let sys = ParticleSystem::from_shape(&hexagon(2), &CountToThree);
        let mut runner = Runner::new(sys, CountToThree, RoundRobin);
        runner.step();
        assert_eq!(runner.stats().rounds, 1);
        assert!(!runner.is_complete());
        let resumed = runner.run(10).unwrap();
        assert_eq!(resumed, one_shot);
        assert!(runner.is_complete());
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        // Snapshot mid-run, finish the original, then restore the snapshot
        // into a fresh runner and finish that: system state, RNG stream and
        // the rebuilt live list must all survive, so the final statistics
        // agree exactly.
        let sys = ParticleSystem::from_shape(&hexagon(2), &CountToThree);
        let mut original = Runner::new(sys, CountToThree, SeededRandom::new(9));
        original.step();
        original.step();
        let snapshot = original.snapshot();
        let final_stats = original.run(50).unwrap();

        let sys = ParticleSystem::from_shape(&hexagon(2), &CountToThree);
        let mut restored = Runner::new(sys, CountToThree, SeededRandom::new(9));
        restored.restore_snapshot(&snapshot).unwrap();
        assert_eq!(restored.stats().rounds, 2);
        assert_eq!(restored.run(50).unwrap(), final_stats);
    }

    #[test]
    fn snapshot_restore_rejects_mismatches() {
        let sys = ParticleSystem::from_shape(&line(5), &CountToThree);
        let mut source = Runner::new(sys, CountToThree, SeededRandom::new(3));
        source.step();
        let snapshot = source.snapshot();
        // Different particle count: the system restore refuses.
        let sys = ParticleSystem::from_shape(&line(7), &CountToThree);
        let mut other_shape = Runner::new(sys, CountToThree, SeededRandom::new(3));
        assert!(other_shape.restore_snapshot(&snapshot).is_err());
        // Stateless scheduler handed RNG state: the scheduler restore refuses.
        let sys = ParticleSystem::from_shape(&line(5), &CountToThree);
        let mut other_scheduler = Runner::new(sys, CountToThree, RoundRobin);
        assert!(other_scheduler.restore_snapshot(&snapshot).is_err());
    }

    #[test]
    fn control_mutations_rebuild_the_live_list() {
        // Remove a particle and reset between rounds: the run must continue
        // on the perturbed configuration and still complete.
        let sys = ParticleSystem::from_shape(&line(6), &CountToThree);
        let mut runner = Runner::new(sys, CountToThree, RoundRobin);
        runner.step();
        {
            let mut control = runner.control();
            assert_eq!(control.particle_count(), 6);
            assert!(control.remove_at(pm_grid::Point::new(5, 0)));
            assert!(
                !control.remove_at(pm_grid::Point::new(5, 0)),
                "already gone"
            );
            control.reinitialize();
            assert_eq!(control.particle_count(), 5);
            assert!(control.is_connected());
            assert_eq!(control.occupied_shape().len(), 5);
        }
        let stats = runner.run(20).unwrap();
        assert!(runner.system().all_terminated());
        // One round before the reset, three after it (memories restarted).
        assert_eq!(stats.rounds, 4);
    }

    #[test]
    fn live_list_shrinks_as_particles_terminate() {
        // One particle terminates per activation round; the live list must
        // follow the system state exactly.
        struct TerminateAscending;
        impl Algorithm for TerminateAscending {
            type Memory = u8;
            fn init(&self, _ctx: &InitContext) -> u8 {
                0
            }
            fn activate(&self, ctx: &mut ActivationContext<'_, u8>) {
                *ctx.memory_mut() += 1;
                if *ctx.memory() >= 2 {
                    ctx.terminate();
                }
            }
        }
        let sys = ParticleSystem::from_shape(&line(6), &TerminateAscending);
        let mut runner = Runner::new(sys, TerminateAscending, RoundRobin);
        let stats = runner.run(10).unwrap();
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.activations, 12);
        assert!(runner.system().all_terminated());
    }
}
