//! Local boundaries and boundary counts (Section 2.1 of the paper).
//!
//! A *local boundary* of a boundary point `v` (with respect to a shape `S`)
//! is a maximal clockwise cyclic interval of `v`'s incident edges leading to
//! points not in `S`. A boundary point has between one and three local
//! boundaries. The *boundary count* of `v` with respect to a local boundary
//! `B` is `c(v, B) = |B| - 2 ∈ {-1, …, 3}` (a lone point, excluded by the
//! paper, has count 4). A point with positive count is *(strictly) convex*
//! with respect to `B`.

use crate::coords::{Direction, Point, DIRECTIONS};
use crate::shape::Shape;
use serde::{Deserialize, Serialize};

/// The boundary count `c(v, B) = |B| − 2` of a point w.r.t. one of its local
/// boundaries; ranges over `{-1, …, 3}` (and `4` for an isolated point).
pub type BoundaryCount = i32;

/// A local boundary of a boundary point: a maximal clockwise cyclic interval
/// of incident edges leading out of the shape.
///
/// ```
/// use pm_grid::{LocalBoundary, Point, Shape};
/// // A straight line: each interior point of the line has two local
/// // boundaries (one on each side), each of two edges, i.e. count 0.
/// let line = Shape::from_points((0..5).map(|i| Point::new(i, 0)));
/// let lbs = LocalBoundary::of_point(&line, Point::new(2, 0));
/// assert_eq!(lbs.len(), 2);
/// assert!(lbs.iter().all(|b| b.count() == 0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LocalBoundary {
    /// The boundary point this local boundary belongs to.
    point: Point,
    /// The first edge (direction) of the clockwise interval.
    start: Direction,
    /// The number of edges in the interval (`1..=6`).
    len: u8,
}

/// Per six-bit mask of empty neighbours (bit `i`: the neighbour in
/// clockwise direction `i`), the maximal clockwise cyclic runs of empty
/// directions as `(start, len)`, by start direction; unused slots have
/// `len == 0`. A run starts at an empty direction whose counter-clockwise
/// predecessor is occupied, so a point has at most three. The all-empty
/// mask (an isolated point) is one run of all six edges from `E`.
const RUNS: [[(u8, u8); 3]; 64] = {
    let mut table = [[(0u8, 0u8); 3]; 64];
    table[63][0] = (0, 6);
    let mut mask = 1;
    while mask < 63 {
        let (mut slot, mut i) = (0, 0);
        while i < 6 {
            if (mask >> i) & 1 == 1 && (mask >> ((i + 5) % 6)) & 1 == 0 {
                let mut len = 1;
                while (mask >> ((i + len) % 6)) & 1 == 1 {
                    len += 1;
                }
                table[mask][slot] = (i as u8, len as u8);
                slot += 1;
            }
            i += 1;
        }
        mask += 1;
    }
    table
};

impl LocalBoundary {
    /// Computes all local boundaries of `point` with respect to `shape`, in
    /// clockwise order of their starting edge.
    ///
    /// Returns an empty vector if `point` is not in the shape or is an
    /// interior point.
    pub fn of_point(shape: &Shape, point: Point) -> Vec<LocalBoundary> {
        if !shape.contains(point) {
            return Vec::new();
        }
        let empty = DIRECTIONS
            .iter()
            .enumerate()
            .filter(|(_, d)| !shape.contains(point.neighbor(**d)))
            .fold(0u8, |mask, (i, _)| mask | 1 << i);
        LocalBoundary::of_empty_mask(point, empty).collect()
    }

    /// The local boundaries of `point` given which of its neighbours are
    /// empty (bit `i` of `empty` is set iff the neighbour in clockwise
    /// direction `i` is not in the shape), in clockwise order of their
    /// starting edge. Reads the runs from a table, so it allocates nothing;
    /// an interior point (`empty == 0`) has none.
    pub(crate) fn of_empty_mask(point: Point, empty: u8) -> impl Iterator<Item = LocalBoundary> {
        RUNS[usize::from(empty & 0x3f)]
            .into_iter()
            .take_while(|&(_, len)| len > 0)
            .map(move |(start, len)| LocalBoundary {
                point,
                start: DIRECTIONS[usize::from(start)],
                len,
            })
    }

    /// The boundary point this local boundary belongs to.
    pub fn point(&self) -> Point {
        self.point
    }

    /// Number of edges in the interval.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// A local boundary always has at least one edge.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The first (counter-clockwise-most) edge of the interval.
    pub fn first_edge(&self) -> Direction {
        self.start
    }

    /// The last (clockwise-most) edge of the interval.
    pub fn last_edge(&self) -> Direction {
        self.start.rotate_cw(self.len as i32 - 1)
    }

    /// The edges of the interval in clockwise order.
    pub fn edges(&self) -> impl Iterator<Item = Direction> + '_ {
        (0..self.len as i32).map(|i| self.start.rotate_cw(i))
    }

    /// The empty points this local boundary's edges lead to, in clockwise
    /// order.
    pub fn outside_points(&self) -> impl Iterator<Item = Point> + '_ {
        let p = self.point;
        self.edges().map(move |d| p.neighbor(d))
    }

    /// Whether this local boundary contains the given incident edge.
    pub fn contains_edge(&self, dir: Direction) -> bool {
        let rel = (dir.index() as i32 - self.start.index() as i32).rem_euclid(6);
        (rel as u8) < self.len
    }

    /// The boundary count `c(v, B) = |B| − 2`.
    pub fn count(&self) -> BoundaryCount {
        self.len as BoundaryCount - 2
    }

    /// Whether the point is strictly convex with respect to this local
    /// boundary (`c(v, B) > 0`).
    pub fn is_strictly_convex(&self) -> bool {
        self.count() > 0
    }

    /// The clockwise successor point of the boundary point with respect to
    /// this local boundary: the point reached by the clockwise successor of
    /// the interval's last edge. By maximality of the interval this point is
    /// in the shape (except for an isolated point).
    pub fn cw_successor_point(&self) -> Point {
        self.point.neighbor(self.last_edge().cw())
    }

    /// The clockwise predecessor point: the point reached by the clockwise
    /// predecessor of the interval's first edge.
    pub fn cw_predecessor_point(&self) -> Point {
        self.point.neighbor(self.first_edge().ccw())
    }

    /// The *common point* shared with the clockwise successor v-node
    /// (Observation 3): the other endpoint of the interval's last edge, which
    /// is not in the shape.
    pub fn common_point_with_successor(&self) -> Point {
        self.point.neighbor(self.last_edge())
    }

    /// The common point shared with the clockwise predecessor v-node: the
    /// other endpoint of the interval's first edge.
    pub fn common_point_with_predecessor(&self) -> Point {
        self.point.neighbor(self.first_edge())
    }
}

/// Computes all local boundaries of every boundary point of the shape, in a
/// deterministic order (by point, then by starting edge).
pub fn all_local_boundaries(shape: &Shape) -> Vec<LocalBoundary> {
    shape
        .iter()
        .flat_map(|p| LocalBoundary::of_point(shape, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_point_has_no_local_boundary() {
        let s = Shape::from_points(Point::ORIGIN.ball(1));
        assert!(LocalBoundary::of_point(&s, Point::ORIGIN).is_empty());
    }

    #[test]
    fn outside_point_has_no_local_boundary() {
        let s = Shape::from_points(Point::ORIGIN.ball(1));
        assert!(LocalBoundary::of_point(&s, Point::new(5, 5)).is_empty());
    }

    #[test]
    fn isolated_point_count_is_four() {
        let s = Shape::from_points([Point::ORIGIN]);
        let lbs = LocalBoundary::of_point(&s, Point::ORIGIN);
        assert_eq!(lbs.len(), 1);
        assert_eq!(lbs[0].count(), 4);
        assert_eq!(lbs[0].len(), 6);
    }

    #[test]
    fn line_endpoint_count_is_three() {
        // The endpoint of a straight line has five empty incident edges in a
        // single run: count 3.
        let line = Shape::from_points((0..4).map(|i| Point::new(i, 0)));
        let lbs = LocalBoundary::of_point(&line, Point::new(0, 0));
        assert_eq!(lbs.len(), 1);
        assert_eq!(lbs[0].count(), 3);
        assert!(lbs[0].is_strictly_convex());
    }

    #[test]
    fn line_midpoint_has_two_local_boundaries() {
        let line = Shape::from_points((0..5).map(|i| Point::new(i, 0)));
        let lbs = LocalBoundary::of_point(&line, Point::new(2, 0));
        assert_eq!(lbs.len(), 2);
        for b in &lbs {
            assert_eq!(b.count(), 0);
            assert_eq!(b.len(), 2);
            assert!(!b.is_strictly_convex());
        }
    }

    #[test]
    fn ball_boundary_counts() {
        // On the boundary of a hexagonal ball, corner points have count 1 and
        // side points have count 0; the sum over the boundary is 6.
        let s = Shape::from_points(Point::ORIGIN.ball(3));
        let mut total = 0;
        let mut corners = 0;
        for p in Point::ORIGIN.ring(3) {
            let lbs = LocalBoundary::of_point(&s, p);
            assert_eq!(lbs.len(), 1, "ball boundary point has one local boundary");
            total += lbs[0].count();
            if lbs[0].count() == 1 {
                corners += 1;
            } else {
                assert_eq!(lbs[0].count(), 0);
            }
        }
        assert_eq!(corners, 6);
        assert_eq!(total, 6);
    }

    #[test]
    fn successor_and_common_points_are_consistent() {
        let s = Shape::from_points(Point::ORIGIN.ball(2));
        for p in Point::ORIGIN.ring(2) {
            for b in LocalBoundary::of_point(&s, p) {
                let succ = b.cw_successor_point();
                assert!(s.contains(succ), "successor point must be in the shape");
                assert!(p.is_adjacent(succ));
                let common = b.common_point_with_successor();
                assert!(!s.contains(common), "common point must be unoccupied");
                assert!(common.is_adjacent(p) && common.is_adjacent(succ));
                let pred = b.cw_predecessor_point();
                assert!(s.contains(pred));
            }
        }
    }

    #[test]
    fn contains_edge_wraps_around() {
        let s = Shape::from_points([Point::ORIGIN, Point::new(0, 1)]);
        // ORIGIN has one occupied neighbour (SE), so its single local
        // boundary has 5 edges starting at SW and wrapping around to E.
        let lbs = LocalBoundary::of_point(&s, Point::ORIGIN);
        assert_eq!(lbs.len(), 1);
        let b = lbs[0];
        assert_eq!(b.len(), 5);
        assert_eq!(b.count(), 3);
        assert!(b.contains_edge(Direction::E));
        assert!(b.contains_edge(Direction::SW));
        assert!(!b.contains_edge(Direction::SE));
        assert_eq!(b.edges().count(), 5);
    }

    #[test]
    fn all_local_boundaries_covers_every_boundary_point() {
        let mut s = Shape::from_points(Point::ORIGIN.ball(3));
        s.remove(Point::ORIGIN); // a hole
        let all = all_local_boundaries(&s);
        for p in s.iter() {
            let expected = LocalBoundary::of_point(&s, p).len();
            let got = all.iter().filter(|b| b.point() == p).count();
            assert_eq!(expected, got);
        }
        // Ring-1 points around the removed origin have one extra local
        // boundary towards the hole.
        let inner = Point::ORIGIN.ring(1);
        for p in inner {
            assert!(all.iter().filter(|b| b.point() == p).count() >= 1);
        }
    }
}
