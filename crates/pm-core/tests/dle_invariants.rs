//! Round-by-round invariant checks of Algorithm DLE, corresponding to the
//! observable parts of Lemma 11 and Observation 8:
//!
//! * all particles adjacent to the same point agree on its eligibility
//!   (consistency of the distributed representation of `S_e`);
//! * a point that has become ineligible never becomes eligible again
//!   (Observation 8);
//! * decided particles never revert to undecided, and at most one particle is
//!   ever a leader;
//! * upon termination exactly one leader exists and all particles are
//!   contracted.

use pm_amoebot::scheduler::{Runner, SeededRandom};
use pm_amoebot::stats::RunStats;
use pm_amoebot::system::ParticleSystem;
use pm_core::dle::{DleAlgorithm, DleMemory, Status};
use pm_grid::builder::{annulus, hexagon, swiss_cheese};
use pm_grid::{Point, Shape, DIRECTIONS};
use std::collections::{HashMap, HashSet};

/// Collects, for every grid point adjacent to some particle head, the
/// eligibility opinions of all adjacent particles.
fn eligibility_opinions(system: &ParticleSystem<DleMemory>) -> HashMap<Point, Vec<bool>> {
    let mut opinions: HashMap<Point, Vec<bool>> = HashMap::new();
    for (_, particle) in system.iter() {
        let head = particle.head();
        for (i, d) in DIRECTIONS.iter().enumerate() {
            let target = head.neighbor(*d);
            opinions
                .entry(target)
                .or_default()
                .push(particle.memory().eligible[i]);
        }
    }
    opinions
}

fn check_dle_invariants_on(shape: Shape, seed: u64) {
    let system = ParticleSystem::from_shape(&shape, &DleAlgorithm);
    let mut runner = Runner::new(system, DleAlgorithm, SeededRandom::new(seed));
    let mut stats = RunStats::default();
    let mut ever_ineligible: HashSet<Point> = HashSet::new();
    let mut decided: HashSet<usize> = HashSet::new();
    let budget = 64 * (shape.len() as u64 + 16);

    while !runner.system().all_terminated() {
        assert!(
            stats.rounds < budget,
            "DLE did not terminate within the budget"
        );
        runner.run_round(&mut stats);
        let system = runner.system();

        // (1) Eligibility consistency: all adjacent particles agree.
        let opinions = eligibility_opinions(system);
        for (point, votes) in &opinions {
            assert!(
                votes.iter().all(|v| *v == votes[0]),
                "round {}: particles disagree on the eligibility of {point}",
                stats.rounds
            );
        }

        // (2) Observation 8: ineligibility is monotone.
        for (point, votes) in &opinions {
            if !votes[0] {
                ever_ineligible.insert(*point);
            } else {
                assert!(
                    !ever_ineligible.contains(point),
                    "round {}: point {point} became eligible again",
                    stats.rounds
                );
            }
        }

        // (3) Status monotonicity and at most one leader.
        let mut leaders = 0;
        for (id, particle) in system.iter() {
            match particle.memory().status {
                Status::Leader => {
                    leaders += 1;
                    decided.insert(id.index());
                }
                Status::Follower => {
                    decided.insert(id.index());
                }
                Status::Undecided => {
                    assert!(
                        !decided.contains(&id.index()),
                        "round {}: particle {id} reverted to undecided",
                        stats.rounds
                    );
                }
            }
        }
        assert!(leaders <= 1, "round {}: {} leaders", stats.rounds, leaders);
    }

    // Final configuration: exactly one leader, everyone contracted.
    let system = runner.system();
    let leaders = system
        .iter()
        .filter(|(_, p)| p.memory().status == Status::Leader)
        .count();
    let undecided = system
        .iter()
        .filter(|(_, p)| p.memory().status == Status::Undecided)
        .count();
    assert_eq!(leaders, 1);
    assert_eq!(undecided, 0);
    assert!(system.all_contracted());
}

#[test]
fn invariants_hold_on_a_hexagon() {
    check_dle_invariants_on(hexagon(4), 1);
}

#[test]
fn invariants_hold_on_an_annulus() {
    check_dle_invariants_on(annulus(6, 3), 2);
}

#[test]
fn invariants_hold_on_a_thin_annulus_that_disconnects() {
    check_dle_invariants_on(annulus(8, 7), 0);
}

#[test]
fn invariants_hold_on_swiss_cheese() {
    check_dle_invariants_on(swiss_cheese(6, 3), 3);
}

#[test]
fn invariants_hold_across_random_seeds_on_a_small_blob() {
    for seed in 0..5 {
        check_dle_invariants_on(pm_grid::random::random_blob(60, seed), seed);
    }
}
