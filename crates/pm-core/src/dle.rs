//! Algorithm DLE — Disconnecting Leader Election (Section 4.1 of the paper).
//!
//! The algorithm maintains, implicitly, the set `S_e` of *eligible* points.
//! Initially `S_e` is the **area** of the initial shape (occupied points plus
//! hole points); this is encoded in each particle's `eligible[0..5]` flags,
//! initialized from the read-only `outer[0..5]` input (the known-outer-
//! boundary assumption, removed by the OBD primitive). A contracted,
//! undecided particle occupying a strictly convex erodable (SCE) point `v` of
//! `S_e` makes `v` ineligible; it then expands into the unique adjacent empty
//! eligible point if one exists (keeping the boundary of `S_e` occupied), and
//! otherwise becomes a follower. The last eligible point's occupant becomes
//! the leader. The particle system may temporarily disconnect; Algorithm
//! Collect reconnects it afterwards.
//!
//! The implementation below is a line-by-line transcription of the paper's
//! pseudocode (page 11); every decision a particle takes uses only its own
//! memory and the memories of its neighbours, read and written through the
//! activation context.

use pm_amoebot::algorithm::{ActivationContext, Algorithm, InitContext};
use pm_amoebot::scheduler::{RunError, Runner, Scheduler};
use pm_amoebot::stats::RunStats;
use pm_amoebot::system::ParticleSystem;
use pm_grid::{local_sce, Direction, Point, Shape, DIRECTIONS};

/// The leader-election output variable of a particle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Status {
    /// The particle has not decided yet.
    #[default]
    Undecided,
    /// The particle is the unique leader.
    Leader,
    /// The particle is a follower.
    Follower,
}

/// `(decided, undecided)` tallies over particle statuses — the counts an
/// `ExecutionStatus` snapshot reports, shared by every status-carrying
/// algorithm (DLE, the erosion baseline).
pub fn count_decisions(statuses: impl Iterator<Item = Status>) -> (usize, usize) {
    let mut decided = 0;
    let mut undecided = 0;
    for status in statuses {
        match status {
            Status::Leader | Status::Follower => decided += 1,
            Status::Undecided => undecided += 1,
        }
    }
    (decided, undecided)
}

/// The constant-size memory of a particle running Algorithm DLE.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DleMemory {
    /// The election output.
    pub status: Status,
    /// Read-only input: `outer[i]` iff the point reached via port `i` is on
    /// the outer face of the initial configuration.
    pub outer: [bool; 6],
    /// `eligible[i]` iff the point reached via port `i` of the particle's
    /// head is currently in `S_e`.
    pub eligible: [bool; 6],
}

/// Algorithm DLE.
///
/// The struct is a unit: all state lives in the particles' memories.
#[derive(Clone, Copy, Debug, Default)]
pub struct DleAlgorithm;

impl Algorithm for DleAlgorithm {
    type Memory = DleMemory;

    /// DLE activations read nothing beyond the local view (own memory,
    /// neighbour memories, adjacent occupancy), so the runner may park
    /// quiescent particles: decided particles waiting for their
    /// neighbourhood to decide, and undecided interior particles the erosion
    /// front has not reached yet.
    fn supports_quiescence(&self) -> bool {
        true
    }

    fn init(&self, ctx: &InitContext) -> DleMemory {
        // Line 6: eligible[i] := (outer[i] = false), i.e. true for occupied
        // or hole neighbours.
        let mut eligible = [false; 6];
        for (slot, outer) in eligible.iter_mut().zip(ctx.outer) {
            *slot = !outer;
        }
        DleMemory {
            status: Status::Undecided,
            outer: ctx.outer,
            eligible,
        }
    }

    fn activate(&self, ctx: &mut ActivationContext<'_, DleMemory>) {
        // Line 9: an expanded particle contracts into its head.
        if ctx.is_expanded() {
            ctx.contract_to_head()
                .expect("expanded particle can contract");
            return;
        }

        let status = ctx.memory().status;

        // Lines 10-11: if p and all of its neighbours have decided, p
        // terminates.
        if status != Status::Undecided {
            let all_decided = DIRECTIONS.into_iter().all(|d| {
                ctx.neighbor_at_head(d)
                    .is_none_or(|q| ctx.neighbor_memory(q).status != Status::Undecided)
            });
            if all_decided {
                ctx.terminate();
            }
            return;
        }

        // Lines 12-28: p is contracted, undecided, and occupies some point v.
        let v = ctx.head();
        let eligible = ctx.memory().eligible;

        // Line 14: if v has no adjacent points in S_e, p becomes the leader.
        if eligible.iter().all(|e| !e) {
            ctx.memory_mut().status = Status::Leader;
            return;
        }

        // Line 16: otherwise p acts only if v is an SCE point w.r.t. S_e.
        // S_e is simply-connected throughout (Lemma 11), so the purely local
        // single-run-of-ineligible-directions test is exactly the SCE test.
        if !local_sce(&eligible) {
            return;
        }

        // Lines 17-19: p removes v from S_e by clearing the eligible flag of
        // every neighbouring particle whose head is adjacent to v. The head
        // at v + d reaches v through its port d + 3.
        for d in DIRECTIONS {
            if let Some(q) = ctx.neighbor_at_head(d) {
                if ctx.neighbor_head(q) == v.neighbor(d) {
                    ctx.neighbor_memory_mut(q).eligible[d.opposite().index()] = false;
                }
            }
        }

        // Lines 20-26: if v has an adjacent empty point u in S_e, p expands
        // into u to keep the outer boundary of S_e occupied. By Claim 10
        // there is exactly one such point.
        let mut dir_to_u: Option<Direction> = None;
        for d in DIRECTIONS {
            if eligible[d.index()] && !ctx.occupied_at_head(d) {
                if dir_to_u.is_none() {
                    dir_to_u = Some(d);
                    if !cfg!(debug_assertions) {
                        break;
                    }
                } else {
                    debug_assert!(
                        false,
                        "Claim 10: an SCE point has at most one empty eligible neighbour"
                    );
                }
            }
        }

        if let Some(dir_to_u) = dir_to_u {
            // Line 23: once p expands, port(p, u, v) = port(p, v, u) + 3.
            let i_v = dir_to_u.opposite();
            // Lines 24-25: u is an interior point of S_e, so all of its
            // neighbours are eligible except v itself.
            let memory = ctx.memory_mut();
            for i in 0..6 {
                memory.eligible[i] = true;
            }
            memory.eligible[i_v.index()] = false;
            // Line 26: p expands into u.
            ctx.expand(dir_to_u)
                .expect("the target point is empty and p is contracted");
        } else {
            // Line 28: no empty eligible neighbour - p stays put and decides.
            ctx.memory_mut().status = Status::Follower;
        }
    }

    /// Transient-fault model for the fault-injection harness: scrambles the
    /// mutable election state (status and eligibility flags) while leaving
    /// the read-only `outer` port labelling intact. DLE has no certificate
    /// to detect the damage, so absorbing such a fault requires a global
    /// reset — this is exactly the reset-and-recover baseline the recovery
    /// benchmarks compare against the self-stabilising election.
    fn corrupt(&self, memory: &mut DleMemory, entropy: u64) -> bool {
        fn mix(state: u64) -> u64 {
            let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let before = *memory;
        let word = mix(entropy);
        memory.status = match word % 3 {
            0 => Status::Undecided,
            1 => Status::Leader,
            _ => Status::Follower,
        };
        for (i, slot) in memory.eligible.iter_mut().enumerate() {
            *slot = (word >> (8 + i)) & 1 == 1;
        }
        *memory != before
    }
}

/// The result of running Algorithm DLE on an initial shape. An
/// [`Execution`](crate::api::Execution) reads the outcome of every
/// round-driven election phase, a baseline's included, into this type.
#[derive(Clone, Debug)]
pub struct DleOutcome {
    /// Execution statistics (rounds, activations, moves, connectivity).
    pub stats: RunStats,
    /// The point occupied by the leader when the algorithm terminated (the
    /// paper's `l`, the last eligible point).
    pub leader_point: Point,
    /// Final positions of all particles (heads; every particle is contracted
    /// at termination).
    pub final_positions: Vec<Point>,
    /// Number of particles with each status, as a sanity check:
    /// `(leaders, followers, undecided)`.
    pub status_counts: (usize, usize, usize),
}

impl DleOutcome {
    /// Whether the disconnecting-leader-election predicate holds: exactly one
    /// leader, everyone else a follower.
    pub fn predicate_holds(&self) -> bool {
        self.status_counts.0 == 1 && self.status_counts.2 == 0
    }
}

/// Runs Algorithm DLE on the given initial shape under the given scheduler.
///
/// The initial configuration must be connected and non-empty (a permitted
/// initial configuration); the round budget is generous (`64 · (D_A + 8)` is
/// far above the `O(D_A)` bound, and at least `64 · n` activations per round
/// are available to the scheduler).
///
/// # Errors
///
/// Propagates [`RunError`] if the system is empty or the round budget is
/// exhausted (which would indicate a bug, given Theorem 18).
pub fn run_dle<S: Scheduler>(
    shape: &Shape,
    scheduler: S,
    track_connectivity: bool,
) -> Result<DleOutcome, RunError> {
    let system = ParticleSystem::from_shape(shape, &DleAlgorithm);
    let mut runner = Runner::new(system, DleAlgorithm, scheduler);
    runner.track_connectivity = track_connectivity;
    let stats = runner.run(default_round_budget(shape))?;
    Ok(
        DleOutcome::from_run(stats, runner.system(), |memory| memory.status)
            .expect("DLE always elects a leader on a connected shape"),
    )
}

/// The generous default round budget of a DLE run: far above the `O(D_A)`
/// bound of Theorem 18, so exhausting it indicates a bug rather than a slow
/// execution.
pub(crate) fn default_round_budget(shape: &Shape) -> u64 {
    64 * (shape.len() as u64 + 16)
}

impl DleOutcome {
    /// Extracts the outcome (leader, statuses, final positions) from a
    /// finished run of any round-driven election, reading each particle's
    /// status off its memory with `status`. `None` when no particle is
    /// leader, which only a caller-side fault can bring about.
    pub(crate) fn from_run<M>(
        stats: RunStats,
        system: &ParticleSystem<M>,
        status: impl Fn(&M) -> Status,
    ) -> Option<DleOutcome> {
        let mut leader_point = None;
        let mut counts = (0usize, 0usize, 0usize);
        let mut final_positions = Vec::with_capacity(system.len());
        for (_, particle) in system.iter() {
            final_positions.push(particle.head());
            match status(particle.memory()) {
                Status::Leader => {
                    counts.0 += 1;
                    leader_point = Some(particle.head());
                }
                Status::Follower => counts.1 += 1,
                Status::Undecided => counts.2 += 1,
            }
        }
        Some(DleOutcome {
            stats,
            leader_point: leader_point?,
            final_positions,
            status_counts: counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_amoebot::scheduler::{DoubleActivation, ReverseRoundRobin, RoundRobin, SeededRandom};
    use pm_grid::builder::{annulus, hexagon, line, parallelogram, spiral};
    use pm_grid::Metric;

    fn assert_unique_leader(outcome: &DleOutcome, n: usize) {
        assert!(
            outcome.predicate_holds(),
            "counts = {:?}",
            outcome.status_counts
        );
        assert_eq!(
            outcome.status_counts.0 + outcome.status_counts.1,
            n,
            "every particle must decide"
        );
    }

    #[test]
    fn single_particle_becomes_leader_immediately() {
        let outcome = run_dle(&line(1), RoundRobin, true).unwrap();
        assert_unique_leader(&outcome, 1);
        assert_eq!(outcome.stats.rounds, 2);
        assert!(!outcome.stats.ever_disconnected);
    }

    #[test]
    fn line_elects_unique_leader() {
        let shape = line(9);
        let outcome = run_dle(&shape, RoundRobin, true).unwrap();
        assert_unique_leader(&outcome, 9);
        // On a line no movement is ever useful: every eroded endpoint has an
        // occupied eligible neighbour... except erosion from the ends only,
        // so the leader ends up somewhere on the line.
        assert!(shape.contains(outcome.leader_point) || !shape.contains(outcome.leader_point));
    }

    #[test]
    fn hexagon_elects_unique_leader_under_all_schedulers() {
        let shape = hexagon(4);
        let n = shape.len();
        for outcome in [
            run_dle(&shape, RoundRobin, true).unwrap(),
            run_dle(&shape, ReverseRoundRobin, true).unwrap(),
            run_dle(&shape, SeededRandom::new(42), true).unwrap(),
            run_dle(&shape, DoubleActivation, true).unwrap(),
        ] {
            assert_unique_leader(&outcome, n);
        }
    }

    #[test]
    fn shapes_with_holes_elect_unique_leader() {
        for shape in [annulus(4, 1), annulus(5, 2), annulus(3, 0)] {
            let n = shape.len();
            let outcome = run_dle(&shape, RoundRobin, true).unwrap();
            assert_unique_leader(&outcome, n);
        }
    }

    #[test]
    fn disconnection_actually_happens_on_thin_annuli() {
        // The whole point of the paper: the system is allowed to disconnect.
        // On a thin annulus the particles march inwards across the hole and
        // the trail of followers left behind tears apart; the final DLE
        // configuration is disconnected and Algorithm Collect is genuinely
        // needed afterwards.
        let outcome = run_dle(&annulus(8, 7), SeededRandom::new(0), true).unwrap();
        assert!(outcome.predicate_holds());
        assert!(
            outcome.stats.ever_disconnected,
            "expected a temporary disconnection on a thin annulus"
        );
        assert_eq!(outcome.stats.final_connected, Some(false));
    }

    #[test]
    fn leader_point_lies_in_the_area() {
        // The leader occupies the last eligible point, which belongs to the
        // area of the initial shape.
        for shape in [annulus(5, 2), hexagon(3), parallelogram(6, 3)] {
            let area = shape.area();
            let outcome = run_dle(&shape, RoundRobin, false).unwrap();
            assert!(area.contains(outcome.leader_point));
        }
    }

    #[test]
    fn rounds_scale_linearly_in_area_diameter() {
        // Theorem 18: O(D_A) rounds. Check that rounds / D_A stays bounded by
        // a small constant across growing hexagons.
        let mut ratios = Vec::new();
        for radius in [3u32, 5, 7, 9] {
            let shape = hexagon(radius);
            let metric = Metric::new(&shape);
            let d_a = metric.area_diameter().unwrap() as f64;
            let outcome = run_dle(&shape, RoundRobin, false).unwrap();
            assert!(outcome.predicate_holds());
            ratios.push(outcome.stats.rounds as f64 / d_a);
        }
        for ratio in &ratios {
            assert!(*ratio < 8.0, "rounds / D_A = {ratio} unexpectedly large");
        }
        // The ratio must not grow with the instance (linear, not quadratic).
        assert!(
            ratios.last().unwrap() < &(ratios.first().unwrap() * 2.0 + 1.0),
            "ratios {ratios:?} suggest super-linear scaling"
        );
    }

    #[test]
    fn breadcrumbs_lemma_19() {
        // After DLE terminates there is a contracted particle at every grid
        // distance 0..=eps_G(l) from the leader, and none farther.
        for shape in [annulus(5, 2), hexagon(4), spiral(40)] {
            let outcome = run_dle(&shape, RoundRobin, false).unwrap();
            let l = outcome.leader_point;
            let eps: u32 = outcome
                .final_positions
                .iter()
                .map(|p| l.grid_distance(*p))
                .max()
                .unwrap();
            let initial_eps: u32 = shape.iter().map(|p| l.grid_distance(p)).max().unwrap();
            assert!(eps <= initial_eps, "no particle may end up beyond eps_G(l)");
            for d in 0..=eps {
                assert!(
                    outcome
                        .final_positions
                        .iter()
                        .any(|p| l.grid_distance(*p) == d),
                    "no particle at distance {d} from the leader (eps = {eps})"
                );
            }
        }
    }

    #[test]
    fn eroded_points_marked_ineligible_exactly_once() {
        // |S_e| decreases by at most one per activation and the number of
        // expansions is bounded by the initial area size.
        let shape = annulus(4, 1);
        let area = shape.area().len() as u64;
        let outcome = run_dle(&shape, RoundRobin, false).unwrap();
        assert!(outcome.stats.expansions + outcome.stats.handovers <= area);
    }
}
