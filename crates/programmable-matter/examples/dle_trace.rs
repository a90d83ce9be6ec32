//! Traces Algorithm DLE round by round on a perforated shape, rendering the
//! configuration after each round: `#` undecided, `f` follower, `L` leader,
//! `H`/`T` the head/tail of a particle that is currently expanded (mid-march
//! into a hole).
//!
//! Drives the `Runner` one asynchronous round at a time with
//! `Runner::step` — the same stepping surface the steppable `Execution`
//! handle is built on — and renders between rounds.
//!
//! Run with `cargo run --example dle_trace`.

use programmable_matter::amoebot::ascii::render_with;
use programmable_matter::amoebot::scheduler::{Runner, SeededRandom};
use programmable_matter::amoebot::system::ParticleSystem;
use programmable_matter::grid::builder::swiss_cheese;
use programmable_matter::leader_election::dle::{DleAlgorithm, Status};

fn main() {
    let shape = swiss_cheese(4, 2);
    let system = ParticleSystem::from_shape(&shape, &DleAlgorithm);
    let mut runner = Runner::new(system, DleAlgorithm, SeededRandom::new(2));

    println!(
        "Tracing DLE on a perforated hexagon ({} particles):\n",
        shape.len()
    );
    while !runner.is_complete() {
        assert!(
            runner.stats().rounds < 200,
            "DLE terminates well within the round budget"
        );
        let rounds = runner.step().rounds;
        let frame = render_with(runner.system(), |particle, point| {
            if particle.is_expanded() {
                if particle.head() == point {
                    'H'
                } else {
                    'T'
                }
            } else {
                match particle.memory().status {
                    Status::Leader => 'L',
                    Status::Follower => 'f',
                    Status::Undecided => '#',
                }
            }
        });
        println!("after round {rounds}:\n{frame}");
    }
    println!("DLE terminated in {} rounds.", runner.finalize().rounds);
}
