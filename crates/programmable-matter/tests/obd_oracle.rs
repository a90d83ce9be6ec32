//! Differential tests of OBD's closed-form internals against oracles: the
//! earlier ring construction, which hashed every v-node and asked
//! `LocalBoundary::of_point` for every point and successor, and the earlier
//! segment competition, which scanned every segment before each merge.
//! The library's linear-time versions must give the same rings (order,
//! v-nodes, kinds) and the same `(stable_segments, stable_round)` under
//! both cost models, on every corpus shape, on random shapes and on random
//! count rings. The pipeline's reused final-connectivity check is pinned
//! against a fresh search of the final configuration over the corpus.
//!
//! The `#[ignore]`d cases repeat the shape checks at n ≈ 10⁵. Run them in
//! release mode:
//!
//! ```text
//! cargo test --release -p programmable-matter --test obd_oracle -- --ignored
//! ```

use programmable_matter::grid::builder::{hexagon, line};
use programmable_matter::grid::random::{
    random_blob, random_holey_hexagon, random_simply_connected_blob,
};
use programmable_matter::grid::{
    boundary_rings, BoundaryKind, Direction, LocalBoundary, Point, Shape, VNode,
};
use programmable_matter::leader_election::obd::{
    compete, CompetitionCostModel, ObdSimulator, ABSORB_COST, CMP_COST,
};
use programmable_matter::scenarios::{builtin_corpus, run_suite};
use proptest::prelude::*;
use std::collections::HashMap;

const MODELS: [CompetitionCostModel; 2] = [
    CompetitionCostModel::Pipelined,
    CompetitionCostModel::Sequential,
];

/// The ring construction with a `HashMap` from `(point, local boundary)` to
/// v-node id and a `LocalBoundary::of_point` call per point and per
/// successor lookup.
fn oracle_rings(shape: &Shape) -> Vec<(BoundaryKind, Vec<VNode>)> {
    let analysis = shape.analyze();
    let mut vnodes: Vec<VNode> = Vec::new();
    let mut index: HashMap<(Point, LocalBoundary), usize> = HashMap::new();
    for p in shape.iter() {
        for lb in LocalBoundary::of_point(shape, p) {
            index.insert((p, lb), vnodes.len());
            vnodes.push(VNode {
                point: p,
                local_boundary: lb,
            });
        }
    }
    let successor_of = |v: &VNode| -> usize {
        if shape.len() == 1 {
            return index[&(v.point, v.local_boundary)];
        }
        let succ_point = v.local_boundary.cw_successor_point();
        let common = v.local_boundary.common_point_with_successor();
        let dir = Direction::between(succ_point, common)
            .expect("common point is adjacent to the successor point");
        let lb = LocalBoundary::of_point(shape, succ_point)
            .into_iter()
            .find(|b| b.contains_edge(dir))
            .expect("successor point has a local boundary containing the common edge");
        index[&(succ_point, lb)]
    };
    let mut ring_of: Vec<Option<usize>> = vec![None; vnodes.len()];
    let mut rings: Vec<Vec<usize>> = Vec::new();
    for start in 0..vnodes.len() {
        if ring_of[start].is_some() {
            continue;
        }
        let ring_id = rings.len();
        let mut ring = Vec::new();
        let mut cur = start;
        loop {
            ring_of[cur] = Some(ring_id);
            ring.push(cur);
            let next = successor_of(&vnodes[cur]);
            if next == start {
                break;
            }
            assert!(ring_of[next].is_none(), "walk entered a closed ring");
            cur = next;
        }
        rings.push(ring);
    }
    rings
        .into_iter()
        .map(|ids| {
            let members: Vec<VNode> = ids.iter().map(|i| vnodes[*i]).collect();
            let kind = members
                .iter()
                .flat_map(|v| v.local_boundary.outside_points())
                .find_map(|p| analysis.face_of_empty_point(p))
                .unwrap_or(BoundaryKind::Outer);
            (kind, members)
        })
        .collect()
}

/// A segment of the scanning competition.
struct Segment {
    /// Boundary counts of the segment's v-nodes, tail to head.
    label: Vec<i32>,
    /// Ring indices of the segment's v-nodes, tail to head.
    members: Vec<usize>,
    /// Round at which the segment is ready for its next merge.
    ready_at: u64,
}

/// The segment competition that scans every segment before each merge
/// and picks the earliest-completing win, ties to the lowest index.
fn oracle_compete(counts: &[i32], cost_model: CompetitionCostModel) -> (usize, u64) {
    let comparison_rounds = |initiator: usize, successor: usize| match cost_model {
        CompetitionCostModel::Pipelined => CMP_COST * initiator as u64,
        CompetitionCostModel::Sequential => CMP_COST * initiator as u64 * successor.max(1) as u64,
    };
    let mut segments: Vec<Segment> = (0..counts.len())
        .map(|i| Segment {
            label: vec![counts[i]],
            members: vec![i],
            ready_at: 0,
        })
        .collect();
    let mut stable_round = 0u64;
    while segments.len() > 1 {
        let mut best: Option<(usize, u64)> = None;
        for i in 0..segments.len() {
            let j = (i + 1) % segments.len();
            let (s, s1) = (&segments[i], &segments[j]);
            if (s.label.len(), &s.label) < (s1.label.len(), &s1.label) {
                let done = s.ready_at.max(s1.ready_at)
                    + comparison_rounds(s.label.len(), s1.label.len())
                    + ABSORB_COST * s1.label.len() as u64;
                if best.is_none_or(|(_, t)| done < t) {
                    best = Some((i, done));
                }
            }
        }
        let Some((i, done)) = best else {
            break;
        };
        let j = (i + 1) % segments.len();
        let loser = segments.remove(j);
        let winner = &mut segments[if j < i { i - 1 } else { i }];
        winner.label.extend(loser.label);
        winner.members.extend(loser.members);
        winner.ready_at = done;
        stable_round = stable_round.max(done);
    }
    (segments.len(), stable_round)
}

/// Rings and competitions of `shape` equal the oracles'.
fn check_shape(shape: &Shape, what: &str) {
    let expected = oracle_rings(shape);
    let rings: Vec<(BoundaryKind, Vec<VNode>)> = boundary_rings(shape)
        .into_iter()
        .map(|ring| (ring.kind(), ring.vnodes().to_vec()))
        .collect();
    assert!(rings == expected, "{what}: rings differ from the oracle's");
    for model in MODELS {
        let decisions = ObdSimulator::new(shape)
            .run_with_cost_model(model)
            .decisions;
        assert_eq!(decisions.len(), expected.len(), "{what}");
        for (i, (decision, (_, vnodes))) in decisions.iter().zip(&expected).enumerate() {
            let counts: Vec<i32> = vnodes.iter().map(VNode::count).collect();
            assert_eq!(
                (decision.stable_segments, decision.stable_round),
                oracle_compete(&counts, model),
                "{what}: ring {i} under {model:?}"
            );
        }
    }
}

/// Two blobs of `n ≥ 2` points, far enough apart to be two components.
/// (Neither version walks a lone point of a larger shape: its successor
/// point is empty.)
fn two_blobs(n: usize, seed: u64) -> Shape {
    let a = random_blob(n, seed);
    let shift = 2 * n as i32 + 3;
    a.iter()
        .chain(
            random_blob(n, seed.wrapping_add(1))
                .iter()
                .map(|p| Point::new(p.q + shift, p.r)),
        )
        .collect()
}

#[test]
fn rings_and_competitions_match_the_oracles_on_the_corpus() {
    let specs = builtin_corpus();
    for spec in &specs {
        check_shape(&spec.build_shape(), &spec.name);
    }
}

#[test]
fn degenerate_shapes_match_the_oracles() {
    check_shape(&Shape::new(), "empty");
    check_shape(&line(1), "one point");
    check_shape(&line(2), "two points");
    check_shape(&two_blobs(20, 3), "two blobs");
}

#[test]
fn the_reused_final_connectivity_equals_a_fresh_search() {
    let specs = builtin_corpus();
    let specs: Vec<_> = specs.iter().collect();
    for outcome in run_suite(&specs, 1) {
        if let Some(report) = outcome.report {
            let fresh = Shape::from_points(report.final_positions.iter().copied()).is_connected();
            assert_eq!(report.final_connected, fresh, "{}", outcome.scenario);
        }
    }
}

/// A random shape from one of the families OBD meets: holey hexagons,
/// blobs, lines, one point, and two components.
fn any_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (1u32..9, 0u32..20, any::<u64>()).prop_map(|(r, pct, seed)| random_holey_hexagon(
            r,
            f64::from(pct) / 100.0,
            seed
        )),
        (1usize..200, any::<u64>()).prop_map(|(n, seed)| random_blob(n, seed)),
        (1usize..200, any::<u64>()).prop_map(|(n, seed)| random_simply_connected_blob(n, seed)),
        (1u32..40).prop_map(line),
        Just(line(1)),
        (2usize..60, any::<u64>()).prop_map(|(n, seed)| two_blobs(n, seed)),
    ]
}

/// A ring of `1..=400` counts in `-1..=4`.
fn any_counts() -> impl Strategy<Value = Vec<i32>> {
    (1usize..401).prop_flat_map(|len| proptest::collection::vec(-1i32..5, len..len + 1))
}

/// A ring of 2, 3 or 6 equal blocks of `1..=60` counts.
fn periodic_counts() -> impl Strategy<Value = Vec<i32>> {
    let repeats = prop_oneof![Just(2usize), Just(3usize), Just(6usize)];
    (repeats, proptest::collection::vec(-1i32..5, 1..61))
        .prop_map(|(repeats, block)| block.repeat(repeats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_shapes_match_the_oracles(shape in any_shape()) {
        check_shape(&shape, "random shape");
    }

    #[test]
    fn random_count_rings_compete_as_the_oracle(counts in any_counts()) {
        for model in MODELS {
            prop_assert_eq!(compete(&counts, model), oracle_compete(&counts, model));
        }
    }

    #[test]
    fn periodic_count_rings_compete_as_the_oracle(counts in periodic_counts()) {
        for model in MODELS {
            prop_assert_eq!(compete(&counts, model), oracle_compete(&counts, model));
        }
    }
}

#[test]
#[ignore = "n = 10^5; run in release"]
fn hexagon_182_matches_the_oracles() {
    check_shape(&hexagon(182), "hexagon(182)");
}

#[test]
#[ignore = "n = 10^5; run in release"]
fn blob_100k_matches_the_oracles() {
    check_shape(&random_simply_connected_blob(100_000, 1), "blob(100000)");
}

#[test]
#[ignore = "n = 10^5; run in release"]
fn holey_hexagon_182_matches_the_oracles() {
    check_shape(&random_holey_hexagon(182, 0.12, 1), "holey(182)");
}
