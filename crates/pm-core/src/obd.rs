//! The Outer-Boundary Detection primitive (OBD, Section 5 of the paper).
//!
//! OBD removes the known-outer-boundary assumption of Algorithm DLE: starting
//! from a connected, contracted configuration, every particle learns which of
//! its incident empty points lie on the outer face, in `O(L_out + D)` rounds
//! (Theorem 41), without any particle movement.
//!
//! The primitive works on the virtual-node rings of the global boundaries
//! (Section 5.1): every boundary point simulates one v-node per local
//! boundary, and the v-nodes of one global boundary form a ring. On each
//! ring, *segments* of consecutive v-nodes compete: a segment whose
//! `(length, label)` is lexicographically smaller than its clockwise
//! successor's wins, forces the successor to disband, and absorbs its
//! v-nodes (Sections 5.2–5.3). Comparisons are pipelined, so a comparison
//! initiated by a segment `s` costs `O(|s|)` rounds (Lemma 31) and a boundary
//! of length `L` stabilizes in `O(L)` rounds (Lemma 35). A stable boundary is
//! covered by 1, 2, 3 or 6 segments with equal labels (Observation 33 /
//! Theorem 36); summing the boundary counts then tells whether the boundary
//! is the outer one (sum `+6`) or an inner one (sum `−6`, Observation 4).
//! Finally, an *outer token* walks the outer boundary and the result is
//! flooded to all particles (Section 5.4).
//!
//! ## Fidelity note
//!
//! Segments are simulated explicitly; the token trains inside one comparison
//! are charged their pipelined round cost (`C_CMP · |initiator|`, the
//! `(2 k_c + 5) l` bound of Lemma 35) through a discrete-event timeline
//! instead of being forwarded hop by hop. The timeline pops merges from a
//! min-heap keyed by completion round, ties to the lowest tail, so it
//! runs in `O(L log L)` time on a ring of `L` v-nodes; what it charges is
//! the earliest-completing merge first, exactly as a scan of every segment
//! before each merge would pick. The winner rule (smaller segment
//! wins), the stable configurations, the ±6 decision rule, the outer-token
//! walk and the flooding are all implemented as in the paper and validated
//! against the geometric ground truth in the tests.

use pm_grid::{
    boundary_rings_with_analysis, BoundaryCount, BoundaryKind, BoundaryRing, LocalBoundary, Point,
    Shape, ShapeAnalysis,
};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Round-cost constant per unit of comparison work (the paper's `k_c`
/// appears as `2 k_c + 5` in Lemma 35; we fold it into one constant).
pub const CMP_COST: u64 = 10;
/// Round-cost constant per v-node absorbed by the winning segment.
pub const ABSORB_COST: u64 = 1;
/// Round-cost constant per v-node for the stable-boundary check and segment
/// sum verification (Section 5.4).
pub const STABLE_CHECK_COST: u64 = 4;

/// How the round cost of one segment comparison is charged.
///
/// The paper's contribution in Section 5 is the *pipelined* comparison
/// (Lemma 31): a comparison initiated by a segment `s` costs `O(|s|)` rounds
/// even while the compared segments keep changing. Previous boundary-election
/// algorithms (\[3\], \[24\]) compared two segments element by element with the
/// segments frozen, paying `O(|s| · |s1|)` rounds per comparison — the
/// `Sequential` model below — which is what makes them quadratic overall.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompetitionCostModel {
    /// The paper's pipelined comparisons: `CMP_COST · |initiator|` rounds.
    Pipelined,
    /// Unpipelined, frozen-segment comparisons: `CMP_COST · |s| · |s1|`
    /// rounds (the Bazzi–Briones-style baseline).
    Sequential,
}

impl CompetitionCostModel {
    fn comparison_rounds(self, initiator_len: usize, successor_len: usize) -> u64 {
        match self {
            CompetitionCostModel::Pipelined => CMP_COST * initiator_len as u64,
            CompetitionCostModel::Sequential => {
                CMP_COST * initiator_len as u64 * successor_len.max(1) as u64
            }
        }
    }
}

/// The decision OBD reached for one global boundary.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryDecision {
    /// Which boundary this is, per the geometric analysis (used only for
    /// reporting; the algorithm does not know it).
    pub kind: BoundaryKind,
    /// Number of v-nodes on the boundary's ring.
    pub ring_len: usize,
    /// The boundary-count sum computed by the winning segments.
    pub count_sum: i64,
    /// Whether the algorithm declared this the outer boundary.
    pub declared_outer: bool,
    /// Number of equal segments covering the ring when it stabilized
    /// (1, 2, 3 or 6 — Observation 33).
    pub stable_segments: usize,
    /// Discrete-event round at which the ring stabilized.
    pub stable_round: u64,
}

/// The result of running the OBD primitive.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObdOutcome {
    /// Total rounds: competition on the outer boundary, stability check,
    /// outer-token walk, and flooding.
    pub rounds: u64,
    /// The per-boundary decisions.
    pub decisions: Vec<BoundaryDecision>,
    /// For every particle point, in [`Shape::iter`] order, the computed
    /// `outer[0..5]` flags: entry `i` is `true` iff the neighbour in
    /// clockwise direction `i` is an empty point of the outer face.
    pub outer_flags: Vec<[bool; 6]>,
    /// Rounds spent in each part, for reporting: `(competition,
    /// stability check, outer walk, flooding)`.
    pub round_breakdown: (u64, u64, u64, u64),
}

impl ObdOutcome {
    /// Whether exactly one boundary was declared outer.
    pub fn unique_outer(&self) -> bool {
        self.decisions.iter().filter(|d| d.declared_outer).count() == 1
    }
}

/// Simulator of the OBD primitive on an initial (connected, contracted)
/// configuration given by a shape.
#[derive(Clone, Debug)]
pub struct ObdSimulator {
    shape: Shape,
}

impl ObdSimulator {
    /// Creates the simulator for the given initial shape.
    pub fn new(shape: &Shape) -> ObdSimulator {
        ObdSimulator {
            shape: shape.clone(),
        }
    }

    /// Runs the primitive and returns the decisions, the per-particle outer
    /// flags and the round counts.
    pub fn run(&self) -> ObdOutcome {
        self.run_with_cost_model(CompetitionCostModel::Pipelined)
    }

    /// Runs the primitive with an explicit comparison cost model. The
    /// [`CompetitionCostModel::Sequential`] variant reproduces the behaviour
    /// of the unpipelined boundary-election baselines.
    pub fn run_with_cost_model(&self, cost_model: CompetitionCostModel) -> ObdOutcome {
        Self::run_on(&self.shape, cost_model)
    }

    /// Runs the primitive on `shape`: the body of
    /// [`ObdSimulator::run_with_cost_model`], which [`run_obd`] calls without
    /// cloning the shape into a simulator.
    fn run_on(shape: &Shape, cost_model: CompetitionCostModel) -> ObdOutcome {
        let analysis = shape.analyze();
        let rings = boundary_rings_with_analysis(shape, &analysis);

        let mut decisions = Vec::with_capacity(rings.len());
        // The local boundaries of every v-node on a ring declared outer.
        let mut outer: Vec<LocalBoundary> = Vec::new();

        let mut outer_walk_rounds = 0u64;
        let mut competition_rounds = 0u64;
        let mut stability_rounds = 0u64;

        for ring in &rings {
            let decision = Self::compete_on_ring(ring, cost_model);
            competition_rounds = competition_rounds.max(decision.stable_round);
            // Stability check: each surviving segment compares itself with
            // the previous 6/|sum| segments (all of the same length), at the
            // pipelined cost per v-node.
            let seg_len = ring
                .len()
                .checked_div(decision.stable_segments)
                .unwrap_or(ring.len());
            stability_rounds = stability_rounds
                .max(STABLE_CHECK_COST * (seg_len as u64) * (decision.stable_segments as u64 + 1));
            if decision.declared_outer {
                // The outer token walks the whole boundary before the
                // termination announcement starts.
                outer_walk_rounds = outer_walk_rounds.max(ring.len() as u64);
                outer.extend(ring.vnodes().iter().map(|v| v.local_boundary));
            }
            decisions.push(decision);
        }

        // Every particle marks the edges of its local boundaries on an outer
        // ring: one merge of the sorted v-nodes with the shape's points.
        outer.sort_unstable_by_key(LocalBoundary::point);
        let mut outer = outer.into_iter().peekable();
        let outer_flags = shape
            .iter()
            .map(|p| {
                let mut flags = [false; 6];
                while let Some(lb) = outer.next_if(|lb| lb.point() == p) {
                    for dir in lb.edges() {
                        flags[dir.index()] = true;
                    }
                }
                flags
            })
            .collect();

        // Flooding: the announcement starts from the outer-boundary particles
        // and reaches every particle along shape edges.
        let flooding_rounds = Self::flooding_rounds(&analysis);

        let rounds = competition_rounds + stability_rounds + outer_walk_rounds + flooding_rounds;
        ObdOutcome {
            rounds,
            decisions,
            outer_flags,
            round_breakdown: (
                competition_rounds,
                stability_rounds,
                outer_walk_rounds,
                flooding_rounds,
            ),
        }
    }

    /// Runs the segment competition of Section 5.3 on one ring and returns
    /// the decision for that boundary.
    fn compete_on_ring(ring: &BoundaryRing, cost_model: CompetitionCostModel) -> BoundaryDecision {
        let counts = ring.counts();
        let (stable_segments, stable_round) = compete(&counts, cost_model);
        let count_sum: i64 = counts.iter().map(|c| *c as i64).sum();
        // The algorithm's decision: a boundary is the outer one iff the total
        // count sum is positive (+6 on stable multi-point boundaries, +4 for
        // the degenerate single-particle system).
        let declared_outer = count_sum > 0;
        BoundaryDecision {
            kind: ring.kind(),
            ring_len: ring.len(),
            count_sum,
            declared_outer,
            stable_segments,
            stable_round,
        }
    }

    /// Rounds needed to flood the termination announcement from the outer
    /// boundary to every particle (at most the shape's diameter).
    fn flooding_rounds(analysis: &ShapeAnalysis) -> u64 {
        if analysis.outer_boundary().is_empty() {
            return 0;
        }
        // Multi-source BFS over the dense index: the flood depth is the
        // largest distance from the nearest outer-boundary point.
        let index = analysis.index().expect("non-empty shape has an index");
        let rect = *index.rect();
        let mut visited = vec![false; rect.cells()];
        let mut frontier: Vec<Point> = Vec::with_capacity(analysis.outer_boundary().len());
        for s in analysis.outer_boundary() {
            visited[rect.cell(*s).expect("shape point is in bounds")] = true;
            frontier.push(*s);
        }
        let mut next: Vec<Point> = Vec::new();
        let mut depth = 0u64;
        loop {
            for p in frontier.drain(..) {
                for n in p.neighbors() {
                    if let Some(cell) = rect.cell(n) {
                        if !visited[cell] && index.contains_cell(cell) {
                            visited[cell] = true;
                            next.push(n);
                        }
                    }
                }
            }
            if next.is_empty() {
                return depth;
            }
            depth += 1;
            std::mem::swap(&mut frontier, &mut next);
        }
    }

    /// The ground-truth outer flags from the geometric analysis, in
    /// [`Shape::iter`] order, for verification in tests and experiments.
    pub fn ground_truth_flags(&self) -> Vec<[bool; 6]> {
        let analysis = self.shape.analyze();
        self.shape
            .iter()
            .map(|p| {
                let mut f = [false; 6];
                for (i, d) in pm_grid::DIRECTIONS.iter().enumerate() {
                    let n = p.neighbor(*d);
                    f[i] = !self.shape.contains(n) && analysis.is_outer_face_point(n);
                }
                f
            })
            .collect()
    }
}

/// The segment competition of Section 5.3 on a ring of boundary counts
/// (in clockwise-successor order). Returns `(stable_segments,
/// stable_round)`: how many equal segments cover the ring once no segment
/// beats its successor, and the discrete-event round of the last merge.
///
/// Every v-node starts as a segment of its own, ready at round zero. A
/// segment whose `(length, label)` is strictly smaller than its clockwise
/// successor's beats it and absorbs its v-nodes. The timeline charges the
/// merge `CMP_COST · |winner|` (pipelined comparison, Lemma 31, or the
/// cost model's sequential price) plus `ABSORB_COST · |loser|` for the
/// loser's v-nodes to defect and be re-absorbed, from the later of the two
/// segments' ready rounds; merges on disjoint parts of the ring overlap in
/// time. The merge that completes first happens first, ties going to the
/// lowest tail.
///
/// A segment is its tail's ring index plus a length, and its label is the
/// counts from the tail on. Segments stay in tail order, and a merge
/// changes only its winner's and its winner's predecessor's next merge, so
/// a min-heap of `(done, tail)` with stale entries skipped on pop picks
/// each merge in `O(log L)`.
pub fn compete(counts: &[BoundaryCount], cost_model: CompetitionCostModel) -> (usize, u64) {
    let n = counts.len();
    if n <= 1 {
        return (n, 0);
    }
    // Labels may wrap past the ring's end; on the doubled counts every
    // label is one slice.
    let doubled: Vec<BoundaryCount> = counts.iter().chain(counts).copied().collect();
    // Per tail: the segment's length (0 once absorbed), its ready round,
    // and the tails of its neighbouring segments.
    let mut len = vec![1usize; n];
    let mut ready = vec![0u64; n];
    let mut next: Vec<usize> = (1..=n).map(|i| i % n).collect();
    let mut prev: Vec<usize> = (0..n).map(|i| (i + n - 1) % n).collect();
    // The completion round of the merge in which `tail` beats its
    // successor, if it does.
    let merge = |tail: usize, len: &[usize], ready: &[u64], next: &[usize]| -> Option<u64> {
        let succ = next[tail];
        let (a, b) = (len[tail], len[succ]);
        let key = |t: usize, l: usize| (l, &doubled[t..t + l]);
        (key(tail, a) < key(succ, b)).then(|| {
            ready[tail].max(ready[succ])
                + cost_model.comparison_rounds(a, b)
                + ABSORB_COST * b as u64
        })
    };
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..n)
        .filter_map(|tail| merge(tail, &len, &ready, &next).map(|done| Reverse((done, tail))))
        .collect();

    let (mut segments, mut stable_round) = (n, 0u64);
    while segments > 1 {
        // An empty heap: no segment is strictly smaller than its
        // successor, so on a ring all segments are equal — the boundary is
        // stable.
        let Some(Reverse((done, tail))) = heap.pop() else {
            break;
        };
        // Stale: the segment was absorbed, or it or its successor changed.
        if len[tail] == 0 || merge(tail, &len, &ready, &next) != Some(done) {
            continue;
        }
        let loser = next[tail];
        len[tail] += len[loser];
        len[loser] = 0;
        ready[tail] = done;
        next[tail] = next[loser];
        prev[next[tail]] = tail;
        segments -= 1;
        stable_round = stable_round.max(done);
        for t in [tail, prev[tail]] {
            if let Some(done) = merge(t, &len, &ready, &next) {
                heap.push(Reverse((done, t)));
            }
        }
    }
    (segments, stable_round)
}

/// Convenience helper: runs OBD on a shape and returns the outcome.
pub fn run_obd(shape: &Shape) -> ObdOutcome {
    ObdSimulator::run_on(shape, CompetitionCostModel::Pipelined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_grid::builder::{annulus, hexagon, line, parallelogram, swiss_cheese};
    use pm_grid::random::{random_blob, random_holey_hexagon};
    use pm_grid::Metric;

    fn check_flags_match_ground_truth(shape: &Shape) -> ObdOutcome {
        let sim = ObdSimulator::new(shape);
        let outcome = sim.run();
        let truth = sim.ground_truth_flags();
        assert!(
            outcome.unique_outer(),
            "exactly one boundary must be declared outer"
        );
        assert_eq!(outcome.outer_flags.len(), truth.len());
        for ((p, got), expected) in shape.iter().zip(&outcome.outer_flags).zip(&truth) {
            assert_eq!(got, expected, "outer flags differ at {p}");
        }
        outcome
    }

    #[test]
    fn simple_shapes_identify_outer_boundary() {
        for shape in [hexagon(3), line(10), parallelogram(5, 4)] {
            let outcome = check_flags_match_ground_truth(&shape);
            assert_eq!(outcome.decisions.len(), 1);
            assert!(outcome.decisions[0].declared_outer);
            assert_eq!(outcome.decisions[0].count_sum, 6);
        }
    }

    #[test]
    fn holey_shapes_distinguish_inner_boundaries() {
        for shape in [annulus(4, 1), annulus(5, 2), swiss_cheese(6, 3)] {
            let outcome = check_flags_match_ground_truth(&shape);
            assert!(outcome.decisions.len() >= 2);
            for d in &outcome.decisions {
                match d.kind {
                    BoundaryKind::Outer => {
                        assert!(d.declared_outer);
                        assert_eq!(d.count_sum, 6);
                    }
                    BoundaryKind::Inner(_) => {
                        assert!(!d.declared_outer);
                        assert_eq!(d.count_sum, -6);
                    }
                }
            }
        }
    }

    #[test]
    fn stable_segment_counts_follow_observation_33() {
        for shape in [hexagon(4), annulus(6, 2), parallelogram(7, 3), line(9)] {
            let outcome = run_obd(&shape);
            for d in &outcome.decisions {
                assert!(
                    matches!(d.stable_segments, 1 | 2 | 3 | 6),
                    "stable boundary must have 1, 2, 3 or 6 segments, got {}",
                    d.stable_segments
                );
            }
        }
    }

    #[test]
    fn symmetric_hexagon_reaches_a_legal_stable_state() {
        // A perfectly symmetric hexagon boundary: depending on the merge
        // order the competition ends with 1, 2, 3 or 6 equal segments (the
        // paper tolerates up to 6 boundary leaders); the outer decision is
        // correct either way.
        let outcome = run_obd(&hexagon(3));
        let d = &outcome.decisions[0];
        assert!(matches!(d.stable_segments, 1 | 2 | 3 | 6));
        assert!(d.declared_outer);
        assert_eq!(d.count_sum, 6);
    }

    #[test]
    fn random_blobs_identify_outer_boundary() {
        for seed in 0..4 {
            let shape = random_blob(150, seed);
            check_flags_match_ground_truth(&shape);
        }
        for seed in 0..3 {
            let shape = random_holey_hexagon(7, 0.08, seed);
            check_flags_match_ground_truth(&shape);
        }
    }

    #[test]
    fn single_particle_is_outer() {
        let outcome = run_obd(&line(1));
        assert_eq!(outcome.decisions.len(), 1);
        assert!(outcome.decisions[0].declared_outer);
        assert_eq!(outcome.decisions[0].count_sum, 4);
    }

    #[test]
    fn rounds_scale_linearly_in_lout_plus_d() {
        // Theorem 41: O(L_out + D) rounds.
        let mut ratios = Vec::new();
        for radius in [3u32, 6, 9, 12] {
            let shape = hexagon(radius);
            let metric = Metric::new(&shape);
            let budget = shape.outer_boundary_len() as f64 + metric.grid_diameter() as f64;
            let outcome = run_obd(&shape);
            ratios.push(outcome.rounds as f64 / budget);
        }
        for r in &ratios {
            assert!(*r < 60.0, "rounds / (L_out + D) = {r} too large");
        }
        assert!(
            ratios.last().unwrap() < &(ratios.first().unwrap() * 2.0 + 1.0),
            "ratios {ratios:?} suggest super-linear scaling"
        );
    }

    #[test]
    fn round_breakdown_sums_to_total() {
        let outcome = run_obd(&annulus(5, 2));
        let (a, b, c, d) = outcome.round_breakdown;
        assert_eq!(outcome.rounds, a + b + c + d);
        assert!(c > 0, "outer walk must take at least one round");
    }
}
