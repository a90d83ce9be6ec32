//! The quadratic deterministic boundary-election baseline (Bazzi–Briones \[3\]
//! style).
//!
//! This is the same segment competition over boundary v-node rings that the
//! paper's OBD primitive uses, but with *unpipelined* comparisons: two
//! segments are compared element by element while frozen, so a comparison
//! between segments of sizes `|s|` and `|s1|` costs `Θ(|s|·|s1|)` rounds.
//! That is precisely the bottleneck the paper removes with pipelining
//! (Section 5.2), and it is what makes this family `O(n²)` overall. The
//! baseline elects the heads of the surviving outer-boundary segments — up to
//! six leaders, exactly as in \[3\].

use pm_core::api::{
    phase, BoxedScheduler, Contender, LeaderElection, Phase, Plan, RunOptions, RunReport,
};
use pm_core::dle::DleOutcome;
use pm_core::obd::{CompetitionCostModel, ObdSimulator};
use pm_grid::{outer_boundary_ring, Shape};

/// Nominal per-particle memory of the quadratic boundary election, in bits:
/// like OBD's segment competition, a constant number of machine words
/// (the comparisons are slow, not memory-hungry; closed-form simulation,
/// model-level `O(1)` bound).
pub const QUADRATIC_BOUNDARY_MEMORY_BITS: u64 = 96;

/// The quadratic deterministic boundary-election baseline behind the unified
/// API. Deterministic and hole-tolerant, but elects up to six leaders and
/// pays unpipelined `Θ(|s|·|s1|)` segment comparisons; the scheduler
/// argument only names the activation model in the report (the competition
/// is simulated in closed form).
#[derive(Clone, Copy, Debug, Default)]
pub struct QuadraticBoundary;

/// The quadratic run's state: how many segment heads survived.
struct Competition {
    leaders: usize,
}

impl Contender for Competition {
    fn closed_form(&mut self, _: &'static str, shape: &Shape, _: Option<&DleOutcome>) -> u64 {
        let outcome =
            ObdSimulator::new(shape).run_with_cost_model(CompetitionCostModel::Sequential);
        let outer = outcome
            .decisions
            .iter()
            .find(|d| d.declared_outer)
            .expect("a connected shape has an outer boundary");
        // Up to six surviving segment heads, but never more than there are
        // particles (degenerate rings of tiny shapes).
        self.leaders = outer.stable_segments.clamp(1, 6).min(shape.len());
        outcome.rounds
    }

    fn finish(&self, report: &mut RunReport, shape: &Shape) {
        report.leader = outer_boundary_ring(shape)
            .vnodes()
            .first()
            .map(|v| v.point)
            .expect("a non-empty shape has outer-boundary v-nodes");
        report.leaders = self.leaders;
        // Every non-head particle learns the outcome when the surviving
        // segments are announced.
        report.followers = shape.len() - self.leaders;
    }
}

impl LeaderElection for QuadraticBoundary {
    fn name(&self) -> &'static str {
        "quadratic-boundary"
    }

    /// One closed-form phase as one coarse step.
    fn plan<'a>(&self, _: &Shape, _: BoxedScheduler<'a>, _: &RunOptions) -> Plan<'a> {
        let election = Phase::ClosedForm {
            name: phase::ELECTION,
            memory_bits: QUADRATIC_BOUNDARY_MEMORY_BITS,
        };
        Plan::new(vec![election], Competition { leaders: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_amoebot::scheduler::RoundRobin;
    use pm_core::api::ElectionError;
    use pm_core::obd::run_obd;
    use pm_grid::builder::{annulus, hexagon, parallelogram};

    fn elect(shape: &Shape) -> Result<RunReport, ElectionError> {
        QuadraticBoundary.elect(shape, &mut RoundRobin, &RunOptions::default())
    }

    #[test]
    fn elects_at_most_six_leaders_and_handles_holes() {
        for shape in [hexagon(3), annulus(5, 2), parallelogram(6, 4)] {
            let report = elect(&shape).unwrap();
            assert!(report.leaders >= 1 && report.leaders <= 6);
            assert!(report.total_rounds > 0);
            assert!(report.rounds_consistent());
            assert!(shape.contains(report.leader));
        }
    }

    #[test]
    fn slower_than_pipelined_obd() {
        // The whole point of the paper's pipelining: on the same shape the
        // sequential comparison model pays substantially more rounds, and the
        // gap widens with the boundary length.
        let small = hexagon(4);
        let large = hexagon(10);
        let ratio = |shape: &Shape| {
            let quad = elect(shape).unwrap().total_rounds as f64;
            let pipe = run_obd(shape).rounds as f64;
            quad / pipe
        };
        let small_ratio = ratio(&small);
        let large_ratio = ratio(&large);
        assert!(
            small_ratio > 1.0,
            "sequential must be slower ({small_ratio})"
        );
        assert!(
            large_ratio > small_ratio,
            "the gap must widen with size ({small_ratio} -> {large_ratio})"
        );
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(elect(&Shape::new()).is_err());
    }
}
