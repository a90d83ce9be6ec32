//! The randomized boundary-election baseline (the Derakhshandeh et al. \[19\] /
//! Daymude et al. \[10, 11\] family).
//!
//! Candidates sit on the outer boundary and play a coin-flip tournament: in
//! every phase each surviving candidate flips a fair coin; if at least one
//! candidate flips heads, the tails candidates retire. A phase costs as many
//! rounds as the largest gap (in boundary hops) between surviving candidates,
//! because that is how far the "you lost / you survived" tokens must travel
//! along the boundary. Once a single candidate remains, the result is flooded
//! through the shape (one additional `O(D)` term). The expected total is
//! `O(L_out + D)` rounds, matching the bounds reported in Table 1 for the
//! randomized algorithms.

use pm_core::api::{
    phase, BoxedScheduler, Contender, LeaderElection, Phase, Plan, RunOptions, RunReport,
};
use pm_core::dle::DleOutcome;
use pm_grid::{outer_boundary_ring, DistanceMap, Point, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nominal per-particle memory of the randomized boundary election, in bits:
/// a coin, a candidate flag and a constant number of token counters (the
/// tournament is simulated in closed form; model-level `O(1)` bound).
pub const RANDOMIZED_BOUNDARY_MEMORY_BITS: u64 = 32;

/// The randomized boundary-election baseline behind the unified API. The
/// coin flips are driven by [`RunOptions::seed`], so runs are deterministic
/// given the options; the scheduler argument only names the activation model
/// in the report (the tournament is simulated in closed form).
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomizedBoundary;

/// Outcome of the closed-form tournament: rounds spent and the winner.
fn tournament(shape: &Shape, seed: u64) -> (u64, Point) {
    let ring = outer_boundary_ring(shape);
    let ring_len = ring.len();
    let mut rng = StdRng::seed_from_u64(seed);

    // Candidate v-node indices along the outer boundary ring.
    let mut candidates: Vec<usize> = (0..ring_len).collect();
    let mut rounds: u64 = 0;

    while candidates.len() > 1 {
        // Each surviving candidate flips a fair coin.
        let flips: Vec<bool> = candidates.iter().map(|_| rng.gen_bool(0.5)).collect();
        let any_heads = flips.iter().any(|h| *h);
        // The phase costs the largest gap between surviving candidates: the
        // retirement tokens travel along the boundary between consecutive
        // candidates, in parallel.
        let survivors: Vec<usize> = if any_heads {
            candidates
                .iter()
                .zip(&flips)
                .filter(|(_, heads)| **heads)
                .map(|(c, _)| *c)
                .collect()
        } else {
            candidates.clone()
        };
        let max_gap = if survivors.len() <= 1 {
            ring_len as u64
        } else {
            let mut gap = 0u64;
            for (i, &c) in survivors.iter().enumerate() {
                let next = survivors[(i + 1) % survivors.len()];
                let hops = (next + ring_len - c) % ring_len;
                gap = gap.max(hops as u64);
            }
            gap.max(1)
        };
        rounds += max_gap;
        candidates = survivors;
    }

    (rounds, ring.vnodes()[candidates[0]].point)
}

/// The randomized run's state: the coin seed, and the tournament's winner,
/// which the flood starts from.
struct Tournament {
    seed: u64,
    winner: Option<Point>,
}

impl Contender for Tournament {
    fn closed_form(&mut self, phase: &'static str, shape: &Shape, _: Option<&DleOutcome>) -> u64 {
        if phase == phase::ELECTION {
            let (rounds, winner) = tournament(shape, self.seed);
            self.winner = Some(winner);
            return rounds;
        }
        // Termination announcement: flood from the winner through the
        // shape.
        let winner = self.winner.expect("the tournament ran");
        DistanceMap::within_shape(shape, winner)
            .eccentricity_over(shape.iter())
            .unwrap_or(0) as u64
    }

    fn finish(&self, report: &mut RunReport, shape: &Shape) {
        report.leader = self.winner.expect("the tournament ran");
        report.leaders = 1;
        // The flood announces the winner to every other particle.
        report.followers = shape.len() - 1;
    }
}

impl LeaderElection for RandomizedBoundary {
    fn name(&self) -> &'static str {
        "randomized-boundary"
    }

    /// Two closed-form phases, each one coarse step: the tournament, then
    /// the announcement flood.
    fn plan<'a>(&self, _: &Shape, _: BoxedScheduler<'a>, opts: &RunOptions) -> Plan<'a> {
        let closed_form = |name| Phase::ClosedForm {
            name,
            memory_bits: RANDOMIZED_BOUNDARY_MEMORY_BITS,
        };
        let tournament = Tournament {
            seed: opts.seed,
            winner: None,
        };
        Plan::new(
            vec![closed_form(phase::ELECTION), closed_form(phase::FLOOD)],
            tournament,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_amoebot::scheduler::RoundRobin;
    use pm_core::api::ElectionError;
    use pm_grid::builder::{annulus, hexagon, line};
    use pm_grid::Metric;

    fn elect(shape: &Shape, seed: u64) -> Result<RunReport, ElectionError> {
        let opts = RunOptions {
            seed,
            ..RunOptions::default()
        };
        RandomizedBoundary.elect(shape, &mut RoundRobin, &opts)
    }

    #[test]
    fn always_elects_exactly_one_leader() {
        for seed in 0..5 {
            for shape in [hexagon(3), annulus(4, 1), line(9)] {
                let report = elect(&shape, seed).unwrap();
                assert_eq!(report.leaders, 1);
                assert!(shape.contains(report.leader));
                assert!(report.rounds_consistent());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = elect(&hexagon(4), 11).unwrap();
        let b = elect(&hexagon(4), 11).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.phases.len(), 2, "tournament + flood");
    }

    #[test]
    fn handles_holes() {
        let report = elect(&annulus(5, 2), 3).unwrap();
        assert_eq!(report.leaders, 1);
    }

    #[test]
    fn rounds_are_of_order_lout_plus_d() {
        // Average over seeds to smooth the randomness, then compare against
        // the O(L_out + D) budget with a generous constant.
        for radius in [4u32, 8] {
            let shape = hexagon(radius);
            let metric = Metric::new(&shape);
            let budget = (shape.outer_boundary_len() + metric.grid_diameter() as usize) as f64;
            let avg: f64 = (0..10)
                .map(|s| elect(&shape, s).unwrap().total_rounds as f64)
                .sum::<f64>()
                / 10.0;
            assert!(avg < 12.0 * budget, "avg {avg} vs budget {budget}");
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(elect(&Shape::new(), 0).is_err());
    }

    #[test]
    fn single_particle() {
        let report = elect(&line(1), 0).unwrap();
        assert_eq!(report.leaders, 1);
        assert_eq!(report.total_rounds, 0);
    }
}
