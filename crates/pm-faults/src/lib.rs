//! Deterministic fault injection and recovery measurement.
//!
//! This crate is the workspace's one fault model. A [`FaultPlan`] is a
//! seeded, serializable schedule of fault *processes* — removals, column
//! cuts, regrow (particle additions), state corruption, and move-based
//! relocation — each fired deterministically between rounds through the
//! [`Execution::system`] mutation surface by a [`FaultScript`], which runs
//! alone under [`FaultScript::drive`] or as a scheduler session's payload
//! under the [`apply_faults`] hook. Whether the adversary also resets the
//! survivors after each firing is the plan's [`ResetPolicy`]:
//! `Reinitialize` is the reset-and-recover baseline (the adversary resets
//! the system into a fresh permitted initial configuration and the
//! election restarts there), while `None` leaves the algorithm to *recover
//! on its own* — the regime self-stabilising leader election
//! (Chalopin–Das–Kokkou, arXiv 2408.08775) is built for, and the regime
//! this crate exists to measure.
//!
//! Recovery is quantified by a [`RecoveryReport`], computed caller-side by
//! [`RecoveryDriver`]: it drives a steppable execution round by round,
//! fires the plan's due faults before each step, and records the rounds
//! between the last fault and stabilisation. [`measure_recovery`] wraps the
//! driver with the fallback policy the benchmarks compare against: try the
//! plan as given (no reset), and if the election errors out or fails to
//! produce a unique leader, rerun with [`ResetPolicy::Reinitialize`] and
//! flag [`RecoveryReport::reset_needed`].
//!
//! **Determinism.** Every firing derives a fresh RNG from
//! `(plan.seed, process index, round)` — no streaming RNG state survives
//! between firings — so replaying a checkpoint that fast-forwards past
//! earlier firings still produces bit-identical faults at later rounds.

use pm_amoebot::scheduler::{Scheduler, SchedulerSpec};
use pm_amoebot::system::SystemControl;
use pm_core::api::{
    phase, ElectionError, Execution, LeaderElection, RunOptions, RunReport, StepOutcome,
};
use pm_grid::{Point, Shape};
use pm_telemetry::trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What one fault process does each time it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Remove `count` particles chosen uniformly at random, then prune to
    /// the largest connected component (a fault never empties the system:
    /// at least one particle always survives).
    Removals,
    /// Remove every particle whose head lies on the axial column
    /// `q == column`, keeping **all** resulting components (no pruning;
    /// `count` is unused). On a shape the column actually cuts, this splits
    /// the system — the split/reconnect dynamic of the paper — and each
    /// component elects its own leader. A column holding every particle
    /// removes nothing, so the system is never emptied.
    SplitColumn {
        /// The axial `q` coordinate of the cut.
        column: i32,
    },
    /// Add up to `count` fresh particles on empty points adjacent to the
    /// occupied shape (regrow), memories initialized on the post-addition
    /// configuration.
    Regrow,
    /// Scramble the memories of `count` random particles through the
    /// algorithm's corruption hook
    /// ([`pm_amoebot::algorithm::Algorithm::corrupt`]); algorithms without
    /// a corruption model ignore it (counted as not applied).
    Corruption,
    /// A move-based adversary: pick `count` random particles and teleport
    /// each to a random empty point adjacent to the remaining shape —
    /// skipping any particle whose removal would disconnect the system, so
    /// the shape stays connected throughout.
    Relocate,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Removals => f.write_str("removals"),
            FaultKind::SplitColumn { column } => write!(f, "split-column[q={column}]"),
            FaultKind::Regrow => f.write_str("regrow"),
            FaultKind::Corruption => f.write_str("corruption"),
            FaultKind::Relocate => f.write_str("relocate"),
        }
    }
}

/// One deterministic fault process: fires at round `start`, then every
/// `period` rounds until `until` (inclusive). `period == 0` means one-shot
/// (fires at `start` only). Rounds are 0-based within the election's
/// round-driven phase (`dle` for the paper pipeline, `election` for the
/// baselines that run one); a process scheduled after the election
/// terminated simply never fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultProcess {
    /// What the process does when it fires.
    pub kind: FaultKind,
    /// First round the process fires at.
    pub start: u64,
    /// Firing period in rounds; 0 = one-shot.
    pub period: u64,
    /// Last round (inclusive) the process may fire at; ignored for
    /// one-shot processes.
    pub until: u64,
    /// How many particles each firing targets (unused by `SplitColumn`).
    pub count: u32,
}

impl FaultProcess {
    /// A one-shot process firing at `round` only.
    pub fn once(kind: FaultKind, round: u64, count: u32) -> FaultProcess {
        FaultProcess {
            kind,
            start: round,
            period: 0,
            until: round,
            count,
        }
    }

    /// A periodic process firing at `start`, `start + period`, … up to
    /// `until` (inclusive).
    pub fn periodic(
        kind: FaultKind,
        start: u64,
        period: u64,
        until: u64,
        count: u32,
    ) -> FaultProcess {
        FaultProcess {
            kind,
            start,
            period,
            until,
            count,
        }
    }

    /// Whether the process fires at the given phase round.
    pub fn fires_at(&self, round: u64) -> bool {
        if round < self.start {
            return false;
        }
        if self.period == 0 {
            return round == self.start;
        }
        round <= self.until && (round - self.start).is_multiple_of(self.period)
    }

    /// The last round this process can fire at.
    pub fn horizon(&self) -> u64 {
        if self.period == 0 {
            self.start
        } else {
            self.until.max(self.start)
        }
    }
}

impl fmt::Display for FaultProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.period == 0 {
            write!(f, "{}(r{},{})", self.kind, self.start, self.count)
        } else {
            write!(
                f,
                "{}(r{}..={}/{},{})",
                self.kind, self.start, self.until, self.period, self.count
            )
        }
    }
}

/// Whether the adversary resets the survivors after each firing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResetPolicy {
    /// No reset: the algorithm must absorb the fault on its own (the
    /// self-stabilisation regime). The default.
    #[default]
    None,
    /// Re-initialize every surviving particle after each firing — the
    /// reset-and-recover baseline: rounds, activations and moves keep
    /// accumulating, so the report shows the cost of re-election.
    Reinitialize,
}

/// A deterministic seeded fault schedule. Serializable, so scenario specs
/// and server sessions carry plans verbatim and checkpoints replay them
/// bit-identically.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master seed; each firing reseeds from `(seed, process index, round)`.
    pub seed: u64,
    /// Whether each firing is followed by a global reset.
    pub reset: ResetPolicy,
    /// The fault processes, fired in order on rounds where several are due.
    pub processes: Vec<FaultProcess>,
}

impl FaultPlan {
    /// A plan with the given seed and no processes (add with
    /// [`FaultPlan::process`]).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            reset: ResetPolicy::None,
            processes: Vec::new(),
        }
    }

    /// Builder: appends one process.
    #[must_use]
    pub fn process(mut self, process: FaultProcess) -> FaultPlan {
        self.processes.push(process);
        self
    }

    /// Builder: sets the reset policy.
    #[must_use]
    pub fn reset(mut self, reset: ResetPolicy) -> FaultPlan {
        self.reset = reset;
        self
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// The last round any process can fire at (`None` for an empty plan).
    pub fn horizon(&self) -> Option<u64> {
        self.processes.iter().map(FaultProcess::horizon).max()
    }
}

/// Mixes the plan seed, process index and round into one firing seed
/// (SplitMix64 chain): every firing gets an independent deterministic RNG,
/// and no RNG state survives between firings.
fn firing_seed(seed: u64, process: u64, round: u64) -> u64 {
    fn splitmix(state: u64) -> u64 {
        let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    splitmix(seed ^ splitmix(process ^ splitmix(round)))
}

/// Removes every particle outside the largest connected component of the
/// occupied shape (largest by size; ties broken by the lexicographically
/// smallest point, so the choice is deterministic). Returns how many
/// particles were removed.
pub fn prune_to_largest_component(system: &mut dyn SystemControl) -> usize {
    let shape = system.occupied_shape();
    if shape.is_empty() || shape.is_connected() {
        return 0;
    }
    let components = shape.connected_components();
    let keep: &Shape = components
        .iter()
        .max_by_key(|c| (c.len(), std::cmp::Reverse(c.first_point())))
        .expect("a non-empty shape has at least one component");
    let mut removed = 0;
    for p in shape.iter() {
        if !keep.contains(p) && system.remove_at(p) {
            removed += 1;
        }
    }
    removed
}

/// The empty points adjacent to the occupied shape, sorted (deterministic
/// regrow/relocation candidates).
fn frontier(shape: &Shape) -> Vec<Point> {
    let mut out: Vec<Point> = shape
        .iter()
        .flat_map(|p| p.neighbors())
        .filter(|n| !shape.contains(*n))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// A fault plan bound to one run: fires each due process before the
/// matching round of the election's round-driven phase, through
/// [`Execution::system`], reseeding every firing from the plan seed.
#[derive(Clone, Debug)]
pub struct FaultScript {
    plan: FaultPlan,
    /// Round each process last fired at (guards against double firing when
    /// the driver polls the same upcoming round more than once).
    last_fired: Vec<Option<u64>>,
    fired: usize,
    removed: usize,
    added: usize,
    corrupted: usize,
    relocated: usize,
    last_fault_round: Option<u64>,
    rounds_at_last_fault: u64,
}

impl FaultScript {
    /// A script firing the given plan.
    pub fn new(plan: FaultPlan) -> FaultScript {
        let last_fired = vec![None; plan.processes.len()];
        FaultScript {
            plan,
            last_fired,
            fired: 0,
            removed: 0,
            added: 0,
            corrupted: 0,
            relocated: 0,
            last_fault_round: None,
            rounds_at_last_fault: 0,
        }
    }

    /// The script's plan (appended processes included).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Appends a process to a live script — the server's `fault` verb
    /// injects processes into running sessions through this.
    pub fn push(&mut self, process: FaultProcess) {
        self.plan.processes.push(process);
        self.last_fired.push(None);
    }

    /// Number of firings so far.
    pub fn fired(&self) -> usize {
        self.fired
    }

    /// Particles removed by firings so far (pruning included).
    pub fn removed(&self) -> usize {
        self.removed
    }

    /// Particles added by firings so far.
    pub fn added(&self) -> usize {
        self.added
    }

    /// Memories scrambled by firings so far.
    pub fn corrupted(&self) -> usize {
        self.corrupted
    }

    /// Particles relocated by firings so far.
    pub fn relocated(&self) -> usize {
        self.relocated
    }

    /// The phase round of the most recent firing.
    pub fn last_fault_round(&self) -> Option<u64> {
        self.last_fault_round
    }

    /// The execution's *total* round count at the most recent firing (zero
    /// if nothing fired) — the cursor recovery measurements subtract from
    /// the final round count.
    pub fn rounds_at_last_fault(&self) -> u64 {
        self.rounds_at_last_fault
    }

    /// Fires every process due at the round the execution is about to run
    /// ([`Execution::next_round`]); a no-op at phase boundaries, during
    /// closed-form phases and after completion. Returns how many processes
    /// fired.
    pub fn apply_due(&mut self, execution: &mut Execution<'_>) -> usize {
        let Some((phase_name, round)) = execution.next_round() else {
            return 0;
        };
        // Faults target the election's round-driven phase; OBD and Collect
        // are simulated in closed form and never expose a system.
        if phase_name != phase::DLE && phase_name != phase::ELECTION {
            return 0;
        }
        let due: Vec<usize> = (0..self.plan.processes.len())
            .filter(|i| {
                self.plan.processes[*i].fires_at(round) && self.last_fired[*i] != Some(round)
            })
            .collect();
        if due.is_empty() {
            return 0;
        }
        {
            let mut system = execution
                .system()
                .expect("an upcoming round implies a live system");
            for i in due.iter().copied() {
                self.last_fired[i] = Some(round);
                let process = self.plan.processes[i];
                let mut rng = StdRng::seed_from_u64(firing_seed(self.plan.seed, i as u64, round));
                self.apply_process(&process, &mut *system, &mut rng);
                self.fired += 1;
                self.last_fault_round = Some(round);
                // Firings land on the trace timeline so a drained trace
                // shows recovery rounds in causal order after their cause;
                // out-of-band, like all telemetry.
                if trace::enabled() {
                    trace::instant("fault", format!("fault:{}@r{round}", process.kind));
                }
            }
            if self.plan.reset == ResetPolicy::Reinitialize {
                system.reinitialize();
            }
        }
        // The full status snapshot is only taken on firing rounds, so the
        // per-round polling cost stays one `next_round` call.
        self.rounds_at_last_fault = execution.status().total_rounds;
        due.len()
    }

    /// Drives the execution to completion, firing due processes before
    /// every round, and returns the final report.
    ///
    /// # Errors
    ///
    /// Whatever the underlying election surfaces
    /// (see [`LeaderElection::elect`]).
    pub fn drive(&mut self, mut execution: Execution<'_>) -> Result<RunReport, ElectionError> {
        loop {
            self.apply_due(&mut execution);
            if let StepOutcome::Finished(report) = execution.step_round()? {
                return Ok(report);
            }
        }
    }

    /// Applies one firing of one process to the system.
    fn apply_process(
        &mut self,
        process: &FaultProcess,
        system: &mut dyn SystemControl,
        rng: &mut StdRng,
    ) {
        match process.kind {
            FaultKind::Removals => {
                let before = system.particle_count();
                if before <= 1 {
                    return;
                }
                let mut positions = system.particle_positions();
                positions.shuffle(rng);
                // Clamp: a fault shrinks the system, it never empties it.
                let take = (process.count as usize).min(before - 1);
                for p in positions.into_iter().take(take) {
                    system.remove_at(p);
                }
                prune_to_largest_component(system);
                self.removed += before - system.particle_count();
            }
            FaultKind::SplitColumn { column } => {
                let on_column: Vec<Point> = system
                    .particle_positions()
                    .into_iter()
                    .filter(|p| p.q == column)
                    .collect();
                if on_column.len() < system.particle_count() {
                    for p in on_column {
                        if system.remove_at(p) {
                            self.removed += 1;
                        }
                    }
                }
            }
            FaultKind::Regrow => {
                let mut candidates = frontier(&system.occupied_shape());
                candidates.shuffle(rng);
                let mut added = 0;
                for p in candidates {
                    if added == process.count as usize {
                        break;
                    }
                    if system.add_at(p) {
                        added += 1;
                    }
                }
                self.added += added;
            }
            FaultKind::Corruption => {
                let mut positions = system.particle_positions();
                positions.shuffle(rng);
                for p in positions.into_iter().take(process.count as usize) {
                    if system.corrupt_at(p, rng.next_u64()) {
                        self.corrupted += 1;
                    }
                }
            }
            FaultKind::Relocate => {
                for _ in 0..process.count {
                    let positions = system.particle_positions();
                    if positions.len() <= 1 {
                        break;
                    }
                    let victim = positions[rng.gen_range(0..positions.len())];
                    if !system.remove_at(victim) {
                        continue;
                    }
                    if !system.is_connected() {
                        // Removing this particle splits the shape: undo
                        // (the re-added particle gets a fresh memory, which
                        // is itself within the adversary's power).
                        system.add_at(victim);
                        continue;
                    }
                    let targets: Vec<Point> = frontier(&system.occupied_shape())
                        .into_iter()
                        .filter(|p| *p != victim)
                        .collect();
                    if targets.is_empty() {
                        system.add_at(victim);
                        continue;
                    }
                    let target = targets[rng.gen_range(0..targets.len())];
                    if system.add_at(target) {
                        self.relocated += 1;
                    } else {
                        system.add_at(victim);
                    }
                }
            }
        }
    }
}

/// The per-step hook of every [`SessionScheduler`] session that carries a
/// [`FaultScript`] payload: fire the session's due fault processes against
/// the live system before the next round. The server and the scenario
/// runner both sweep under it, and checkpoint replay runs it too, which is
/// what makes restored sessions reproduce faulted runs exactly.
///
/// [`SessionScheduler`]: pm_core::session::SessionScheduler
pub fn apply_faults(script: &mut FaultScript, execution: &mut Execution<'static>) {
    script.apply_due(execution);
}

/// The outcome of one fault-injected run: what the faults did and how long
/// the algorithm took to come back from the last one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// The algorithm that ran.
    pub algorithm: String,
    /// Fault firings over the run.
    pub faults_fired: usize,
    /// Particles removed by faults (pruning included).
    pub removed: usize,
    /// Particles added by regrow faults.
    pub added: usize,
    /// Memories scrambled by corruption faults.
    pub corrupted: usize,
    /// Particles relocated by move faults.
    pub relocated: usize,
    /// Phase round of the last firing (`None` if nothing fired).
    pub last_fault_round: Option<u64>,
    /// Rounds from the last firing to completion — the recovery cost. Zero
    /// if no fault fired.
    pub recovery_rounds: u64,
    /// Total rounds of the whole run.
    pub total_rounds: u64,
    /// Whether recovery required falling back to reset-and-recover
    /// ([`measure_recovery`] sets this; a plain [`RecoveryDriver`] run
    /// reports the plan's own policy outcome with `false`).
    pub reset_needed: bool,
    /// Whether the run ended with a unique leader and no undecided
    /// particles.
    pub recovered: bool,
    /// Leaders in the final configuration.
    pub leaders: usize,
    /// Undecided particles in the final configuration.
    pub undecided: usize,
}

/// Drives one election under a [`FaultPlan`] from the caller's side — a
/// loop over [`Execution::step_round`] and [`Execution::status`], firing
/// due faults before each step — and measures recovery.
#[derive(Clone, Debug)]
pub struct RecoveryDriver {
    plan: FaultPlan,
}

impl RecoveryDriver {
    /// A driver for the given plan.
    pub fn new(plan: FaultPlan) -> RecoveryDriver {
        RecoveryDriver { plan }
    }

    /// Runs the election to completion under the plan and reports recovery.
    /// Returns the [`RecoveryReport`] together with the election's own
    /// [`RunReport`].
    ///
    /// # Errors
    ///
    /// Whatever the underlying election surfaces — notably `Stuck` when an
    /// algorithm without self-stabilisation is asked to absorb faults
    /// without a reset ([`measure_recovery`] turns that into a
    /// reset-and-recover fallback).
    pub fn run(
        &self,
        algorithm: &dyn LeaderElection,
        shape: &Shape,
        scheduler: &mut (dyn Scheduler + Send),
        opts: &RunOptions,
    ) -> Result<(RecoveryReport, RunReport), ElectionError> {
        let mut script = FaultScript::new(self.plan.clone());
        let report = script.drive(algorithm.start(shape, scheduler, opts)?)?;
        let recovery_rounds = if script.fired() > 0 {
            report
                .total_rounds
                .saturating_sub(script.rounds_at_last_fault())
        } else {
            0
        };
        let recovery = RecoveryReport {
            algorithm: report.algorithm.clone(),
            faults_fired: script.fired(),
            removed: script.removed(),
            added: script.added(),
            corrupted: script.corrupted(),
            relocated: script.relocated(),
            last_fault_round: script.last_fault_round(),
            recovery_rounds,
            total_rounds: report.total_rounds,
            reset_needed: false,
            recovered: report.leaders == 1 && report.undecided == 0,
            leaders: report.leaders,
            undecided: report.undecided,
        };
        Ok((recovery, report))
    }
}

/// Measures recovery with the reset fallback the benchmarks compare: run
/// the plan as given; if the election errors out or does not end with a
/// unique leader, rerun the identical schedule under
/// [`ResetPolicy::Reinitialize`] (a fresh scheduler from `scheduler`, so
/// both attempts see the same activation stream) and flag
/// [`RecoveryReport::reset_needed`]. The errors that take the fallback
/// include [`ElectionError::Stuck`] (erosion cannot absorb a fault without
/// a reset) and [`ElectionError::NoLeader`] (a removal took the particle
/// that was, or would have become, the leader).
///
/// # Errors
///
/// Only if even the reset-and-recover rerun fails.
pub fn measure_recovery(
    algorithm: &dyn LeaderElection,
    shape: &Shape,
    scheduler: &SchedulerSpec,
    opts: &RunOptions,
    plan: &FaultPlan,
) -> Result<RecoveryReport, ElectionError> {
    let driver = RecoveryDriver::new(plan.clone());
    match driver.run(algorithm, shape, &mut *scheduler.build(), opts) {
        Ok((recovery, _)) if recovery.recovered => Ok(recovery),
        first => {
            if plan.reset == ResetPolicy::Reinitialize {
                // The fallback *is* the plan; nothing else to try.
                return first.map(|(recovery, _)| recovery);
            }
            let retry = plan.clone().reset(ResetPolicy::Reinitialize);
            let (mut recovery, _) =
                RecoveryDriver::new(retry).run(algorithm, shape, &mut *scheduler.build(), opts)?;
            recovery.reset_needed = true;
            Ok(recovery)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_baselines::{ErosionLeaderElection, SelfStabMaxElection};
    use pm_core::api::PaperPipeline;
    use pm_grid::builder::{dumbbell, hexagon, line};

    fn corruption_plan() -> FaultPlan {
        FaultPlan::new(7).process(FaultProcess::once(FaultKind::Corruption, 3, 8))
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let p = FaultProcess::once(FaultKind::Removals, 5, 2);
        assert!(!p.fires_at(4));
        assert!(p.fires_at(5));
        assert!(!p.fires_at(6));
        assert_eq!(p.horizon(), 5);
    }

    #[test]
    fn periodic_fires_on_the_grid_up_to_until() {
        let p = FaultProcess::periodic(FaultKind::Regrow, 2, 3, 9, 1);
        let rounds: Vec<u64> = (0..15).filter(|r| p.fires_at(*r)).collect();
        assert_eq!(rounds, [2, 5, 8]);
        assert_eq!(p.horizon(), 9);

        // Period 1 fires every round of the window.
        let every = FaultProcess::periodic(FaultKind::Corruption, 1, 1, 3, 1);
        let rounds: Vec<u64> = (0..6).filter(|r| every.fires_at(*r)).collect();
        assert_eq!(rounds, [1, 2, 3]);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::new(42)
            .reset(ResetPolicy::Reinitialize)
            .process(FaultProcess::once(FaultKind::Removals, 4, 3))
            .process(FaultProcess::periodic(FaultKind::Relocate, 0, 2, 10, 1));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.horizon(), Some(10));
        assert!(!back.is_empty());
        assert!(FaultPlan::new(0).is_empty());
        assert_eq!(FaultPlan::new(0).horizon(), None);
    }

    #[test]
    fn firing_seeds_are_independent_per_process_and_round() {
        let a = firing_seed(1, 0, 5);
        assert_eq!(a, firing_seed(1, 0, 5));
        assert_ne!(a, firing_seed(1, 1, 5));
        assert_ne!(a, firing_seed(1, 0, 6));
        assert_ne!(a, firing_seed(2, 0, 5));
    }

    #[test]
    fn removals_never_empty_a_tiny_system() {
        // Satellite (a) on the fault path: count far beyond n leaves at
        // least one survivor. (Round 0: a two-particle line stabilises
        // after a single round, so later faults would never fire.)
        let plan = FaultPlan::new(3).process(FaultProcess::once(FaultKind::Removals, 0, 1000));
        let (recovery, report) = RecoveryDriver::new(plan)
            .run(
                &SelfStabMaxElection,
                &line(2),
                &mut *SchedulerSpec::RoundRobin.build(),
                &RunOptions::default(),
            )
            .unwrap();
        assert_eq!(recovery.removed, 1);
        assert_eq!(report.n, 2);
        assert!(recovery.recovered);
        assert_eq!(recovery.leaders, 1);
    }

    #[test]
    fn regrow_adds_particles_and_the_election_still_stabilises() {
        let plan =
            FaultPlan::new(11).process(FaultProcess::periodic(FaultKind::Regrow, 2, 2, 6, 2));
        let (recovery, _) = RecoveryDriver::new(plan)
            .run(
                &SelfStabMaxElection,
                &hexagon(2),
                &mut *SchedulerSpec::SeededRandom(5).build(),
                &RunOptions::default(),
            )
            .unwrap();
        assert!(recovery.added > 0);
        assert!(recovery.recovered, "{recovery:?}");
        assert!(recovery.recovery_rounds > 0);
    }

    #[test]
    fn relocation_keeps_the_system_connected_and_recoverable() {
        let plan =
            FaultPlan::new(23).process(FaultProcess::periodic(FaultKind::Relocate, 1, 2, 9, 2));
        let (recovery, report) = RecoveryDriver::new(plan)
            .run(
                &SelfStabMaxElection,
                &hexagon(2),
                &mut *SchedulerSpec::SeededRandom(9).build(),
                &RunOptions::default(),
            )
            .unwrap();
        assert!(recovery.relocated > 0);
        assert!(recovery.recovered, "{recovery:?}");
        // Relocation preserves the particle count.
        assert_eq!(report.n, hexagon(2).len());
    }

    #[test]
    fn scripts_are_deterministic_across_runs() {
        let plan = FaultPlan::new(99)
            .process(FaultProcess::periodic(FaultKind::Removals, 2, 3, 11, 1))
            .process(FaultProcess::periodic(FaultKind::Corruption, 3, 3, 12, 4));
        let run = || {
            RecoveryDriver::new(plan.clone())
                .run(
                    &SelfStabMaxElection,
                    &hexagon(3),
                    &mut *SchedulerSpec::SeededRandom(17).build(),
                    &RunOptions::default(),
                )
                .unwrap()
        };
        let (first, first_report) = run();
        let (second, second_report) = run();
        assert_eq!(first, second);
        assert_eq!(first_report, second_report);
        assert!(first.faults_fired > 0);
    }

    #[test]
    fn self_stabilising_election_recovers_from_corruption_without_reset() {
        // The acceptance-criteria demonstration: a corruption fault under
        // ResetPolicy::None, absorbed without reinitialize.
        let recovery = measure_recovery(
            &SelfStabMaxElection,
            &hexagon(3),
            &SchedulerSpec::SeededRandom(13),
            &RunOptions::default(),
            &corruption_plan(),
        )
        .unwrap();
        assert!(recovery.recovered, "{recovery:?}");
        assert!(!recovery.reset_needed, "{recovery:?}");
        assert!(recovery.corrupted > 0);
        assert_eq!(recovery.leaders, 1);
        assert_eq!(recovery.undecided, 0);
    }

    #[test]
    fn reset_fallback_is_flagged_for_non_stabilising_algorithms() {
        // Corrupting DLE memories mid-run breaks the election (it has no
        // certificate to detect the damage); the measurement falls back to
        // reset-and-recover and says so.
        let recovery = measure_recovery(
            &PaperPipeline,
            &hexagon(3),
            &SchedulerSpec::SeededRandom(3),
            &RunOptions::default(),
            &corruption_plan(),
        )
        .unwrap();
        assert!(recovery.recovered, "{recovery:?}");
        assert!(recovery.reset_needed, "{recovery:?}");
        assert!(recovery.corrupted > 0);
    }

    /// Two plans that remove the elected leader on hexagon(2) under
    /// `SeededRandom(7)`: before round 1, the pipeline's plan (seed 2)
    /// removes 3 particles and the erosion plan (seed 0) removes 10.
    fn leader_removals() -> [(&'static dyn LeaderElection, FaultPlan); 2] {
        let removals = |seed, count| {
            FaultPlan::new(seed).process(FaultProcess::once(FaultKind::Removals, 1, count))
        };
        [
            (&PaperPipeline, removals(2, 3)),
            (&ErosionLeaderElection, removals(0, 10)),
        ]
    }

    #[test]
    fn removing_the_leader_fails_the_run_with_no_leader() {
        let opts = RunOptions::default();
        for (algorithm, plan) in leader_removals() {
            let shape = hexagon(2);
            let name = algorithm.name();
            let mut scheduler = SchedulerSpec::SeededRandom(7).build();
            let execution = algorithm.start(&shape, &mut *scheduler, &opts).unwrap();
            let error = FaultScript::new(plan.clone()).drive(execution).unwrap_err();
            assert!(
                matches!(error, ElectionError::NoLeader { .. }),
                "{name}: {error}"
            );

            // The failed execution stays consistent: the same error again,
            // and the status (and the pipeline's snapshot) still answer.
            let mut scheduler = SchedulerSpec::SeededRandom(7).build();
            let mut execution = algorithm.start(&shape, &mut *scheduler, &opts).unwrap();
            let mut script = FaultScript::new(plan);
            let again = loop {
                script.apply_due(&mut execution);
                if let Err(error) = execution.step_round() {
                    break error;
                }
            };
            assert_eq!(again, error, "{name}");
            assert_eq!(execution.step_round(), Err(error), "{name}");
            let status = execution.status();
            assert!(!status.finished && status.next_round.is_none(), "{name}");
            assert_eq!(
                status.decided + status.undecided,
                shape.len() - script.removed()
            );
            assert_eq!(execution.snapshot().is_some(), name == "dle+collect");
        }
    }

    #[test]
    fn measure_recovery_resets_when_a_fault_removes_the_leader() {
        for (algorithm, plan) in leader_removals() {
            let recovery = measure_recovery(
                algorithm,
                &hexagon(2),
                &SchedulerSpec::SeededRandom(7),
                &RunOptions::default(),
                &plan,
            )
            .unwrap();
            assert!(recovery.reset_needed, "{recovery:?}");
            assert!(recovery.recovered, "{recovery:?}");
        }
    }

    #[test]
    fn reinitialize_plans_report_their_own_policy_outcome() {
        let plan = FaultPlan::new(5)
            .reset(ResetPolicy::Reinitialize)
            .process(FaultProcess::once(FaultKind::Removals, 3, 6));
        let recovery = measure_recovery(
            &PaperPipeline,
            &hexagon(3),
            &SchedulerSpec::SeededRandom(3),
            &RunOptions::default(),
            &plan,
        )
        .unwrap();
        assert!(recovery.recovered);
        // The plan itself asked for resets, so no fallback was needed.
        assert!(!recovery.reset_needed);
    }

    #[test]
    fn faults_scheduled_after_completion_never_fire() {
        let plan = FaultPlan::new(1).process(FaultProcess::once(FaultKind::Removals, 1_000_000, 3));
        let (recovery, _) = RecoveryDriver::new(plan)
            .run(
                &SelfStabMaxElection,
                &hexagon(2),
                &mut *SchedulerSpec::RoundRobin.build(),
                &RunOptions::default(),
            )
            .unwrap();
        assert_eq!(recovery.faults_fired, 0);
        assert_eq!(recovery.recovery_rounds, 0);
        assert_eq!(recovery.last_fault_round, None);
        assert!(recovery.recovered);
    }

    /// One run of `algorithm` under a reset-and-recover plan holding the
    /// given one-shot processes.
    fn reinitialized_run(
        algorithm: &dyn LeaderElection,
        shape: &Shape,
        processes: &[FaultProcess],
        opts: &RunOptions,
    ) -> (RecoveryReport, RunReport) {
        let mut plan = FaultPlan::new(11).reset(ResetPolicy::Reinitialize);
        plan.processes.extend_from_slice(processes);
        RecoveryDriver::new(plan)
            .run(
                algorithm,
                shape,
                &mut *SchedulerSpec::SeededRandom(7).build(),
                opts,
            )
            .unwrap()
    }

    #[test]
    fn split_column_yields_one_leader_per_component() {
        let split = FaultProcess::once(FaultKind::SplitColumn { column: 8 }, 3, 0);
        let (recovery, report) = reinitialized_run(
            &PaperPipeline,
            &dumbbell(3, 10),
            &[split],
            &RunOptions {
                reconnect: false,
                ..RunOptions::default()
            },
        );
        // The cut splits the dumbbell into its two balls; each elects a
        // leader independently.
        assert_eq!(recovery.faults_fired, 1);
        assert!(recovery.removed > 0);
        assert_eq!(report.leaders, 2);
        assert_eq!(report.undecided, 0);
        assert!(!report.final_connected);
    }

    #[test]
    fn split_column_never_removes_every_particle() {
        // A vertical line: every particle sits on column q = 3.
        let column = Shape::from_points((0..5).map(|r| Point::new(3, r)));
        let split = FaultProcess::once(FaultKind::SplitColumn { column: 3 }, 0, 0);
        let (recovery, report) =
            reinitialized_run(&PaperPipeline, &column, &[split], &RunOptions::default());
        assert_eq!(recovery.faults_fired, 1);
        assert_eq!(recovery.removed, 0);
        assert_eq!(report.final_positions.len(), report.n);
        assert!(report.unique_leader());
    }

    #[test]
    fn reinitialized_removals_still_elect_a_unique_leader() {
        let removal = FaultProcess::once(FaultKind::Removals, 4, 10);
        let (recovery, report) = reinitialized_run(
            &PaperPipeline,
            &hexagon(5),
            &[removal],
            &RunOptions::default(),
        );
        assert!(recovery.removed > 0);
        assert!(report.unique_leader());
        assert_eq!(report.undecided, 0);
        assert!(report.final_connected);
        // The removed particles are gone from the final configuration.
        assert!(report.final_positions.len() < report.n);
        assert!(report.final_positions.len() >= report.n - 10);
    }

    #[test]
    fn reinitialized_removals_never_empty_the_system() {
        let removal = FaultProcess::once(FaultKind::Removals, 1, 1_000);
        let (_, report) =
            reinitialized_run(&PaperPipeline, &line(5), &[removal], &RunOptions::default());
        assert!(report.unique_leader());
        assert_eq!(report.final_positions.len(), 1);
    }

    #[test]
    fn removal_plans_run_on_erosion() {
        // A line stays hole-free after removal + largest-component pruning,
        // so the erosion family's hole-free assumption still holds.
        let removal = FaultProcess::once(FaultKind::Removals, 0, 5);
        let (recovery, report) = reinitialized_run(
            &ErosionLeaderElection,
            &line(20),
            &[removal],
            &RunOptions::default(),
        );
        assert_eq!(recovery.faults_fired, 1);
        assert!(report.final_positions.len() < report.n);
        assert_eq!(
            report.final_positions.len(),
            report.leaders + report.followers
        );
    }
}
