//! Oracle tests of the particle system's occupancy map and connectivity
//! check on executions that move particles. DLE, which disconnects the
//! system around holes, and the erosion baseline are stepped round by round
//! through `Runner` under the four fair schedulers. Before the first round
//! and after every round:
//!
//! * `ParticleSystem::check_invariants` rebuilds the point → particle map
//!   from the particles' positions as a `HashMap` (the store the dense
//!   cells replaced) and compares it with the occupancy map, point by point
//!   and in size;
//! * `ParticleSystem::is_connected` is compared with a breadth-first search
//!   over a `HashSet` of those positions, written here.
//!
//! One case adds particles outside the dense rectangle between rounds, so
//! the overflow map holds particles that take part in the election.
//!
//! The `#[ignore]`d rows repeat the checks on annulus(66, 33), whose DLE run
//! under `SeededRandom(7)` moves thousands of times and is disconnected for
//! dozens of rounds, and on hexagon(57). Run them in release mode:
//!
//! ```text
//! cargo test --release -p programmable-matter --test occupancy_oracle -- --ignored
//! ```

use programmable_matter::amoebot::algorithm::Algorithm;
use programmable_matter::amoebot::scheduler::{Runner, SchedulerSpec};
use programmable_matter::amoebot::system::{ParticleSystem, SystemControl};
use programmable_matter::baselines::ErosionLeaderElection;
use programmable_matter::grid::builder::{annulus, hexagon, line, spiral, swiss_cheese};
use programmable_matter::grid::random::{random_blob, random_holey_hexagon};
use programmable_matter::grid::{GridRect, Point, Shape};
use programmable_matter::leader_election::dle::DleAlgorithm;
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

fn scheduler_specs(seed: u64) -> [SchedulerSpec; 4] {
    [
        SchedulerSpec::RoundRobin,
        SchedulerSpec::ReverseRoundRobin,
        SchedulerSpec::SeededRandom(seed),
        SchedulerSpec::DoubleActivation,
    ]
}

/// The points the particles occupy, read off their heads and tails.
fn occupied<M>(system: &ParticleSystem<M>) -> HashSet<Point> {
    system
        .iter()
        .flat_map(|(_, particle)| [particle.head(), particle.tail()])
        .collect()
}

/// Whether `points` induce a connected subgraph of the grid: a
/// breadth-first search from one of them reaches them all. No points are
/// connected.
fn bfs_connected(points: &HashSet<Point>) -> bool {
    let Some(&start) = points.iter().next() else {
        return true;
    };
    let mut seen = HashSet::from([start]);
    let mut queue = VecDeque::from([start]);
    while let Some(p) = queue.pop_front() {
        for n in p.neighbors() {
            if points.contains(&n) && seen.insert(n) {
                queue.push_back(n);
            }
        }
    }
    seen.len() == points.len()
}

/// Checks the system against both oracles and returns whether it is
/// connected.
fn check<M>(system: &ParticleSystem<M>, context: &dyn Fn() -> String) -> bool {
    if let Err(error) = system.check_invariants() {
        panic!("{}: {error}", context());
    }
    let connected = bfs_connected(&occupied(system));
    assert_eq!(
        system.is_connected(),
        connected,
        "{}: is_connected disagrees with the search",
        context()
    );
    connected
}

/// Steps `algorithm` on `shape` under `spec` until it completes or `budget`
/// rounds have passed, checking the oracles before the first round and
/// after every round. Returns whether it completed and how many checked
/// states were disconnected.
fn run_checked<A: Algorithm>(
    algorithm: A,
    shape: &Shape,
    spec: SchedulerSpec,
    budget: u64,
    label: &str,
) -> (bool, u64) {
    let system = ParticleSystem::from_shape(shape, &algorithm);
    let mut runner = Runner::new(system, algorithm, spec.build());
    let context = |round: u64| move || format!("{label} under {spec:?}, round {round}");
    let mut disconnected = u64::from(!check(runner.system(), &context(0)));
    while !runner.is_complete() && runner.stats().rounds < budget {
        let round = runner.step().rounds;
        disconnected += u64::from(!check(runner.system(), &context(round)));
    }
    (runner.is_complete(), disconnected)
}

/// DLE on `shape` under `spec`, checked every round, within the library's
/// round budget (far above DLE's `O(D_A)` bound); it must elect. Returns
/// how many checked states were disconnected.
fn dle_checked(shape: &Shape, spec: SchedulerSpec, label: &str) -> u64 {
    let budget = 64 * (shape.len() as u64 + 16);
    let (complete, disconnected) = run_checked(DleAlgorithm, shape, spec, budget, label);
    assert!(complete, "{label}: DLE under {spec:?} elects");
    disconnected
}

/// DLE and erosion (which stalls on shapes with holes, so it runs for at
/// most `n + 32` rounds) under the four schedulers. Returns how many
/// checked states were disconnected.
fn check_shape(shape: &Shape, seed: u64, label: &str) -> u64 {
    let mut disconnected = 0;
    for spec in scheduler_specs(seed) {
        disconnected += dle_checked(shape, spec, label);
        let budget = shape.len() as u64 + 32;
        disconnected += run_checked(ErosionLeaderElection, shape, spec, budget, label).1;
    }
    disconnected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random Eden-growth blobs (some with holes, around which DLE moves).
    #[test]
    fn random_blobs_match_the_oracles(n in 8usize..48, seed in 0u64..1_000) {
        check_shape(&random_blob(n, seed), seed, &format!("blob({n}, {seed})"));
    }

    /// Randomly perforated hexagons: every run moves particles.
    #[test]
    fn holey_hexagons_match_the_oracles(radius in 3u32..6, seed in 0u64..1_000) {
        let shape = random_holey_hexagon(radius, 0.1, seed);
        check_shape(&shape, seed, &format!("holey({radius}, {seed})"));
    }
}

/// The fixed workloads of the conformance suite, named on failure.
#[test]
fn fixed_workloads_match_the_oracles() {
    let mut disconnected = 0;
    for (label, shape) in [
        ("line(1)", line(1)),
        ("line(9)", line(9)),
        ("hexagon(3)", hexagon(3)),
        ("annulus(5, 2)", annulus(5, 2)),
        ("annulus(6, 5)", annulus(6, 5)),
        ("swiss_cheese(5, 3)", swiss_cheese(5, 3)),
        ("spiral(40)", spiral(40)),
    ] {
        disconnected += check_shape(&shape, 7, label);
    }
    assert!(disconnected > 0, "no run was ever disconnected");
}

/// Spurs of four particles grown east of the easternmost particle between
/// rounds, each followed by `reinitialize`, reach past the dense
/// rectangle's margin, so the overflow map holds particles that DLE
/// activates and that every check reads.
#[test]
fn additions_outside_the_dense_rectangle_match_the_oracles() {
    const SPURS: usize = 3;
    let shape = annulus(4, 1);
    let rect = GridRect::of_shape(&shape, 2).expect("non-empty shape");
    for spec in scheduler_specs(23) {
        let context = |round: u64| move || format!("annulus(4, 1) under {spec:?}, round {round}");
        let system = ParticleSystem::from_shape(&shape, &DleAlgorithm);
        let mut runner = Runner::new(system, DleAlgorithm, spec.build());
        let mut connected = check(runner.system(), &context(0));
        let mut spurs = 0;
        loop {
            let round = runner.stats().rounds;
            // A spur on a disconnected system would restart DLE on a
            // configuration the paper does not permit.
            if spurs < SPURS && connected && round > 0 {
                let tip = runner
                    .system()
                    .particle_positions()
                    .into_iter()
                    .max_by_key(|p| (p.q, p.r))
                    .expect("particles");
                let mut control = runner.control();
                for k in 1..=4 {
                    assert!(control.add_at(Point::new(tip.q + k, tip.r)));
                }
                control.reinitialize();
                spurs += 1;
                check(runner.system(), &context(round));
            }
            if runner.is_complete() {
                break;
            }
            assert!(round < 4_000, "{}: DLE elects", context(round)());
            runner.step();
            connected = check(runner.system(), &context(round + 1));
        }
        assert_eq!(spurs, SPURS, "{spec:?}: DLE finished before every spur");
        let outside = occupied(runner.system())
            .into_iter()
            .filter(|p| !rect.in_bounds(*p))
            .count();
        assert!(outside >= 4, "{spec:?}: only {outside} points overflow");
    }
}

#[test]
#[ignore = "n ≈ 10^4 with checks every round; run in release"]
fn annulus_66_33_matches_the_oracles() {
    let disconnected = dle_checked(
        &annulus(66, 33),
        SchedulerSpec::SeededRandom(7),
        "annulus(66, 33)",
    );
    assert!(disconnected > 0, "the run never disconnected");
}

#[test]
#[ignore = "n ≈ 10^4 with checks every round; run in release"]
fn hexagon_57_matches_the_oracles() {
    dle_checked(&hexagon(57), SchedulerSpec::SeededRandom(7), "hexagon(57)");
}
