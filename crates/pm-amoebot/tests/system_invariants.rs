//! Property-based tests of the particle system: occupancy invariants under
//! random legal move sequences, scheduler fairness, and run accounting.

use pm_amoebot::algorithm::{ActivationContext, Algorithm, InitContext};
use pm_amoebot::scheduler::{
    DoubleActivation, ReverseRoundRobin, RoundRobin, Runner, Scheduler, SeededRandom,
};
use pm_amoebot::system::ParticleSystem;
use pm_amoebot::ParticleId;
use pm_grid::builder::{hexagon, line};
use pm_grid::{Direction, Shape};
use proptest::prelude::*;

/// A do-nothing algorithm used to build systems for direct manipulation.
struct Inert;
impl Algorithm for Inert {
    type Memory = ();
    fn init(&self, _ctx: &InitContext) {}
    fn activate(&self, ctx: &mut ActivationContext<'_, ()>) {
        ctx.terminate();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Applying arbitrary sequences of (possibly illegal) movement commands
    /// never corrupts the occupancy map: illegal commands are rejected with an
    /// error and legal ones preserve the invariants.
    #[test]
    fn random_move_sequences_preserve_invariants(ops in proptest::collection::vec((0usize..64, 0u8..3, 0i32..6), 1..120)) {
        let mut system = ParticleSystem::from_shape(&hexagon(2), &Inert);
        let n = system.len();
        for (raw_id, op, dir) in ops {
            let id = ParticleId::from_index(raw_id % n);
            let dir = Direction::from_index(dir);
            // Ignore the result: both Ok and Err are fine, the invariant is
            // what matters.
            let _ = match op {
                0 => system.expand(id, dir),
                1 => system.contract_to_head(id),
                _ => system.contract_to_tail(id),
            };
            system.check_invariants().expect("occupancy invariants violated");
            prop_assert_eq!(system.len(), n, "particles must never be created or destroyed");
            let occupied: usize = system
                .iter()
                .map(|(_, p)| if p.is_expanded() { 2 } else { 1 })
                .sum();
            prop_assert_eq!(occupied, system.shape().len());
        }
    }

    /// Every scheduler activates every live particle at least once per round,
    /// for arbitrary particle counts.
    #[test]
    fn schedulers_are_fair(n in 1usize..40, seed in any::<u64>()) {
        let ids: Vec<ParticleId> = (0..n).map(ParticleId::from_index).collect();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(RoundRobin),
            Box::new(ReverseRoundRobin),
            Box::new(SeededRandom::new(seed)),
            Box::new(DoubleActivation),
        ];
        for scheduler in schedulers.iter_mut() {
            for round in 0..3u64 {
                let order = scheduler.round_order(&ids, round);
                for id in &ids {
                    prop_assert!(order.contains(id), "{} missing from {}", id, scheduler.name());
                }
            }
        }
    }
}

/// An algorithm whose particles walk east for a fixed number of expansions
/// and then terminate: exercises expansion/contraction accounting end to end.
struct MarchEast {
    steps: u8,
}

#[derive(Clone, Debug, Default)]
struct MarchMemory {
    done: u8,
}

impl Algorithm for MarchEast {
    type Memory = MarchMemory;
    fn init(&self, _ctx: &InitContext) -> MarchMemory {
        MarchMemory::default()
    }
    fn activate(&self, ctx: &mut ActivationContext<'_, MarchMemory>) {
        if ctx.is_expanded() {
            ctx.contract_to_head().unwrap();
            return;
        }
        if ctx.memory().done >= self.steps {
            ctx.terminate();
            return;
        }
        // March east: into an empty point directly, or by handover when the
        // point ahead is the tail of an expanded particle.
        let can_move = match ctx.neighbor_at_head(Direction::E) {
            None => true,
            Some(q) => ctx.neighbor_is_expanded(q),
        };
        if can_move {
            ctx.memory_mut().done += 1;
            ctx.expand(Direction::E).unwrap();
        }
    }
}

#[test]
fn marching_particles_account_their_moves() {
    // A single particle marching 5 steps east: 5 expansions + 5 contractions.
    let shape = Shape::from_points([pm_grid::Point::ORIGIN]);
    let system = ParticleSystem::from_shape(&shape, &MarchEast { steps: 5 });
    let mut runner = Runner::new(system, MarchEast { steps: 5 }, RoundRobin);
    let stats = runner.run(64).unwrap();
    assert_eq!(stats.expansions, 5);
    assert_eq!(stats.contractions, 5);
    assert_eq!(stats.handovers, 0);
    assert_eq!(
        runner.system().particle_at(pm_grid::Point::new(5, 0)),
        Some(ParticleId::from_index(0))
    );
}

#[test]
fn marching_line_uses_handovers_when_blocked() {
    // A line of particles all marching east: the leftmost ones push into
    // their neighbours via handovers.
    let system = ParticleSystem::from_shape(&line(4), &MarchEast { steps: 3 });
    let mut runner = Runner::new(system, MarchEast { steps: 3 }, RoundRobin);
    runner.track_connectivity = true;
    let stats = runner.run(200).unwrap();
    assert!(stats.handovers > 0, "expected at least one handover");
    assert_eq!(stats.final_connected, Some(true));
    runner.system().check_invariants().unwrap();
}
