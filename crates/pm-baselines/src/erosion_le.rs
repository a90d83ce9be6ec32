//! The no-movement erosion baseline (the Di Luna et al. \[22\] / Gastineau et
//! al. \[27\] family).
//!
//! Candidates erode themselves from the *particle shape* (not the area):
//! a contracted, undecided particle whose undecided neighbourhood makes it a
//! strictly convex erodable point of the remaining candidate set becomes a
//! follower; the last candidate becomes the leader. No particle ever moves.
//!
//! On simply-connected shapes this elects a unique leader in `O(n)` rounds
//! (each round erodes at least the convex corners of the candidate set, but a
//! snake-like shape erodes only a constant number of particles per round).
//! On shapes with holes the candidate set can never pierce the hole and the
//! erosion stalls — which is exactly why this family of algorithms assumes
//! hole-free initial shapes. Through the unified API the stall surfaces as
//! [`ElectionError::Stuck`](pm_core::api::ElectionError::Stuck).

use pm_amoebot::algorithm::{ActivationContext, Algorithm, InitContext};
use pm_core::api::{
    phase, BoxedScheduler, LeaderElection, Phase, Plan, RoundDriven, Rounds, RunOptions,
};
use pm_core::dle::Status;
use pm_grid::{local_sce, Shape, DIRECTIONS};
use serde::{Deserialize, Serialize};

/// Per-particle memory of the erosion baseline, in bits (measured from
/// [`ErosionMemory`]).
pub const EROSION_MEMORY_BITS: u64 = (std::mem::size_of::<ErosionMemory>() * 8) as u64;

/// Memory of a particle running the erosion baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErosionMemory {
    /// The election output.
    pub status: Status,
}

/// The erosion-only leader-election algorithm: implements the per-activation
/// [`Algorithm`] and, on top of it, the unified [`LeaderElection`] API.
#[derive(Clone, Copy, Debug, Default)]
pub struct ErosionLeaderElection;

impl Algorithm for ErosionLeaderElection {
    type Memory = ErosionMemory;

    /// Erosion activations only read neighbour statuses and adjacent
    /// occupancy, so quiescent particles (interior candidates, decided
    /// particles waiting on their neighbourhood) may be parked. On stalled
    /// workloads (shapes with holes) the runner's unpark fallback re-scans
    /// everyone each round, exactly as without parking, until the budget
    /// surfaces the stall as `ElectionError::Stuck`.
    fn supports_quiescence(&self) -> bool {
        true
    }

    fn init(&self, _ctx: &InitContext) -> ErosionMemory {
        ErosionMemory {
            status: Status::Undecided,
        }
    }

    fn activate(&self, ctx: &mut ActivationContext<'_, ErosionMemory>) {
        let status = ctx.memory().status;
        if status != Status::Undecided {
            // Terminate once the whole neighbourhood has decided.
            let all_decided = ctx
                .neighbors()
                .into_iter()
                .all(|q| ctx.neighbor_memory(q).status != Status::Undecided);
            if all_decided {
                ctx.terminate();
            }
            return;
        }

        // Build the candidate mask: neighbours that are still undecided.
        let mut candidate = [false; 6];
        for (i, d) in DIRECTIONS.iter().enumerate() {
            if let Some(q) = ctx.neighbor_at_head(*d) {
                candidate[i] = ctx.neighbor_memory(q).status == Status::Undecided;
            }
        }

        if candidate.iter().all(|c| !c) {
            // Last remaining candidate in its neighbourhood: on a
            // simply-connected candidate set this means it is the last
            // candidate overall.
            ctx.memory_mut().status = Status::Leader;
        } else if local_sce(&candidate) {
            ctx.memory_mut().status = Status::Follower;
        }
    }
}

impl RoundDriven for ErosionLeaderElection {
    fn status(memory: &ErosionMemory) -> Status {
        memory.status
    }
}

impl LeaderElection for ErosionLeaderElection {
    fn name(&self) -> &'static str {
        "erosion-le"
    }

    /// One round-driven `election` phase. Running out of budget (reliably:
    /// on shapes with holes) is the documented limitation of the family,
    /// not an execution bug, so it surfaces as
    /// [`ElectionError::Stuck`](pm_core::api::ElectionError::Stuck).
    fn plan<'a>(
        &self,
        shape: &Shape,
        scheduler: BoxedScheduler<'a>,
        opts: &RunOptions,
    ) -> Plan<'a> {
        let budget = 8 * (shape.len() as u64 + 8);
        let rounds = Rounds::new(phase::ELECTION, *self, shape, scheduler, opts, budget);
        Plan::new(vec![Phase::Rounds(rounds.stalls())], ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_amoebot::scheduler::{RoundRobin, SeededRandom};
    use pm_core::api::ElectionError;
    use pm_grid::builder::{annulus, comb, hexagon, line, spiral};

    #[test]
    fn elects_unique_leader_on_simply_connected_shapes() {
        for shape in [hexagon(3), line(12), comb(4, 3), spiral(40)] {
            let report = ErosionLeaderElection
                .elect(&shape, &mut RoundRobin, &RunOptions::default())
                .unwrap();
            assert_eq!(report.leaders, 1, "shape {shape:?}");
            assert!(shape.contains(report.leader));
            assert_eq!(report.algorithm, "erosion-le");
            assert!(report.rounds_consistent());
            assert_eq!(report.final_positions.len(), shape.len());
            assert_eq!(report.moves, 0, "erosion never moves");
        }
    }

    #[test]
    fn stalls_on_shapes_with_holes() {
        let result =
            ErosionLeaderElection.elect(&annulus(4, 1), &mut RoundRobin, &RunOptions::default());
        assert!(matches!(result, Err(ElectionError::Stuck { .. })));
    }

    #[test]
    fn random_scheduler_also_elects_one_leader() {
        for seed in 0..3 {
            let report = ErosionLeaderElection
                .elect(
                    &hexagon(4),
                    &mut SeededRandom::new(seed),
                    &RunOptions::default(),
                )
                .unwrap();
            assert_eq!(report.leaders, 1);
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let mut rr = RoundRobin;
        assert!(matches!(
            ErosionLeaderElection.elect(&Shape::new(), &mut rr, &RunOptions::default()),
            Err(ElectionError::InvalidInitialConfiguration(_))
        ));
        let mut disconnected = hexagon(1);
        disconnected.insert(pm_grid::Point::new(40, 0));
        assert!(matches!(
            ErosionLeaderElection.elect(&disconnected, &mut rr, &RunOptions::default()),
            Err(ElectionError::InvalidInitialConfiguration(_))
        ));
    }

    #[test]
    fn line_takes_linearly_many_rounds_under_random_schedules() {
        // A line of n particles erodes from its two candidate endpoints only.
        // Under a scheduler aligned with the line (plain round robin) a whole
        // prefix can cascade within one asynchronous round, but under random
        // activation orders the expected progress per round is constant, so
        // the round count grows linearly in n.
        let avg = |n: u32| -> f64 {
            (0..5u64)
                .map(|s| {
                    ErosionLeaderElection
                        .elect(&line(n), &mut SeededRandom::new(s), &RunOptions::default())
                        .unwrap()
                        .total_rounds as f64
                })
                .sum::<f64>()
                / 5.0
        };
        let r16 = avg(16);
        let r64 = avg(64);
        assert!(
            r64 >= 2.0 * r16,
            "expected roughly linear growth: {r16} vs {r64}"
        );
    }
}
