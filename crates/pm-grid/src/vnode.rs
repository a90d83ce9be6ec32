//! Virtual nodes (v-nodes) and oriented rings on global boundaries
//! (Section 2.1 of the paper).
//!
//! Every boundary point is subdivided into one v-node per local boundary.
//! Following clockwise successors, the v-nodes of one global boundary form a
//! ring; by Observation 4 the boundary counts on that ring sum to `+6` for
//! the outer boundary and `−6` for every inner (hole) boundary. This fact is
//! the decision rule of the Outer-Boundary Detection primitive.

use crate::boundary::{BoundaryCount, LocalBoundary};
use crate::coords::{Direction, Point};
use crate::shape::{BoundaryKind, Shape, ShapeAnalysis};
use serde::{Deserialize, Serialize};

/// Identifier of a v-node within a [`BoundaryRing`]: its position along the
/// ring in clockwise-successor order.
pub type VNodeId = usize;

/// A virtual node: a boundary point together with one of its local
/// boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VNode {
    /// The occupied boundary point.
    pub point: Point,
    /// The local boundary this v-node corresponds to.
    pub local_boundary: LocalBoundary,
}

impl VNode {
    /// The boundary count of this v-node, `c(v(B)) = c(v, B)`.
    pub fn count(&self) -> BoundaryCount {
        self.local_boundary.count()
    }
}

/// Orientation of a boundary ring as seen from the global embedding.
///
/// The successor-directed ring of the outer boundary is clockwise; the
/// successor-directed ring of an inner boundary is counter-clockwise. The
/// particles cannot observe this (it has no algorithmic impact, exactly as
/// noted in Section 5.1), but it is useful for tests and rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RingOrientation {
    /// The ring is traversed clockwise in the global embedding.
    Clockwise,
    /// The ring is traversed counter-clockwise in the global embedding.
    CounterClockwise,
}

/// The ring of v-nodes of one global boundary, in clockwise-successor order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryRing {
    kind: BoundaryKind,
    vnodes: Vec<VNode>,
}

impl BoundaryRing {
    /// Which global boundary this ring corresponds to.
    pub fn kind(&self) -> BoundaryKind {
        self.kind
    }

    /// Whether this is the outer boundary's ring.
    pub fn is_outer(&self) -> bool {
        self.kind == BoundaryKind::Outer
    }

    /// The v-nodes in clockwise-successor order.
    pub fn vnodes(&self) -> &[VNode] {
        &self.vnodes
    }

    /// Number of v-nodes on the ring.
    pub fn len(&self) -> usize {
        self.vnodes.len()
    }

    /// Rings are never empty.
    pub fn is_empty(&self) -> bool {
        self.vnodes.is_empty()
    }

    /// The boundary counts along the ring, in order.
    pub fn counts(&self) -> Vec<BoundaryCount> {
        self.vnodes.iter().map(|v| v.count()).collect()
    }

    /// The sum of the boundary counts along the ring.
    ///
    /// By Observation 4 this is `+6` for the outer boundary and `−6` for an
    /// inner boundary of the connected, multi-point shapes the paper
    /// considers. The ring of a lone point (a one-point shape or component)
    /// is its one v-node, of count `4`.
    pub fn count_sum(&self) -> i64 {
        self.vnodes.iter().map(|v| v.count() as i64).sum()
    }

    /// The successor v-node id of `i` on the ring.
    pub fn successor(&self, i: VNodeId) -> VNodeId {
        (i + 1) % self.vnodes.len()
    }

    /// The predecessor v-node id of `i` on the ring.
    pub fn predecessor(&self, i: VNodeId) -> VNodeId {
        (i + self.vnodes.len() - 1) % self.vnodes.len()
    }

    /// The number of *distinct points* on this boundary (the paper's notion
    /// of boundary length; a point occurs once even if it contributes several
    /// v-nodes to the ring).
    pub fn point_len(&self) -> usize {
        let mut pts: Vec<Point> = self.vnodes.iter().map(|v| v.point).collect();
        pts.sort();
        pts.dedup();
        pts.len()
    }

    /// Orientation of the successor-directed traversal in the global
    /// embedding (outer boundaries are clockwise, inner ones
    /// counter-clockwise).
    pub fn orientation(&self) -> RingOrientation {
        if self.is_outer() {
            RingOrientation::Clockwise
        } else {
            RingOrientation::CounterClockwise
        }
    }
}

/// Builds all boundary rings of a shape: the outer ring plus one ring per
/// hole, each as the clockwise-successor traversal of its v-nodes.
///
/// The shape must be non-empty. For a connected shape this returns exactly
/// `1 + #holes` rings. For a disconnected shape each component contributes
/// its own rings (the outer rings of the non-first components are reported
/// with [`BoundaryKind::Outer`] as well; the leader-election algorithms only
/// ever call this on connected shapes).
///
/// ```
/// use pm_grid::{boundary_rings, Point, Shape};
/// let mut shape = Shape::from_points(Point::ORIGIN.ball(3));
/// shape.remove(Point::ORIGIN);
/// let rings = boundary_rings(&shape);
/// assert_eq!(rings.len(), 2);
/// let outer = rings.iter().find(|r| r.is_outer()).unwrap();
/// let inner = rings.iter().find(|r| !r.is_outer()).unwrap();
/// assert_eq!(outer.count_sum(), 6);
/// assert_eq!(inner.count_sum(), -6);
/// ```
pub fn boundary_rings(shape: &Shape) -> Vec<BoundaryRing> {
    boundary_rings_with_analysis(shape, &shape.analyze())
}

/// As [`boundary_rings`], but reusing an existing [`ShapeAnalysis`].
///
/// Linear in the shape: each point's empty-neighbour mask is read from the
/// analysis index, its local boundaries from a table, and a successor
/// v-node is found through a per-cell table of each point's first v-node
/// (a point's v-nodes are consecutive, ordered by starting edge).
pub fn boundary_rings_with_analysis(shape: &Shape, analysis: &ShapeAnalysis) -> Vec<BoundaryRing> {
    let Some(index) = analysis.index() else {
        return Vec::new();
    };
    // The analysis indexes the bounding box plus a margin of one cell, so
    // every neighbour of a shape point has a cell.
    let rect = *index.rect();
    let offsets = rect.direction_offsets();
    let cell_of = |p: Point| rect.cell(p).expect("shape points are in bounds");

    // Every v-node, point by point in `Shape::iter` order.
    let mut vnodes: Vec<VNode> = Vec::new();
    let mut first = vec![u32::MAX; rect.cells()];
    for p in shape.iter() {
        let cell = cell_of(p);
        let empty = offsets.iter().enumerate().fold(0u8, |mask, (i, offset)| {
            let occupied = index.contains_cell(cell.wrapping_add_signed(*offset));
            mask | u8::from(!occupied) << i
        });
        if empty != 0 {
            first[cell] = vnodes.len() as u32;
            vnodes.extend(
                LocalBoundary::of_empty_mask(p, empty).map(|local_boundary| VNode {
                    point: p,
                    local_boundary,
                }),
            );
        }
    }

    // Successor of a v-node v(B): the v-node v'(B') where v' is the clockwise
    // successor point of v w.r.t. B and B' is v's local boundary containing
    // the edge towards the common (unoccupied) point. That edge leaves v'
    // one turn counter-clockwise of B's last edge.
    let successor_of = |id: usize| -> usize {
        let lb = vnodes[id].local_boundary;
        if lb.len() == 6 {
            // A lone point (the whole shape, or a one-point component) has
            // one local boundary of all six edges: its ring is that v-node.
            return id;
        }
        let succ_point = lb.cw_successor_point();
        let dir = lb.last_edge().ccw();
        debug_assert_eq!(
            Direction::between(succ_point, lb.common_point_with_successor()),
            Some(dir)
        );
        let succ_first = first[cell_of(succ_point)];
        assert!(
            succ_first != u32::MAX,
            "successor point {succ_point} of a v-node of {} is not a boundary point",
            lb.point()
        );
        let mut succ = succ_first as usize;
        while !vnodes[succ].local_boundary.contains_edge(dir) {
            succ += 1;
            debug_assert_eq!(
                vnodes[succ].point, succ_point,
                "successor point has a local boundary containing the common edge"
            );
        }
        succ
    };

    // Walk successors to decompose the v-nodes into rings, and classify
    // each ring by the face its common points belong to.
    let mut on_ring = vec![false; vnodes.len()];
    let mut rings = Vec::new();
    for start in 0..vnodes.len() {
        if on_ring[start] {
            continue;
        }
        let mut members = Vec::new();
        let mut cur = start;
        loop {
            on_ring[cur] = true;
            members.push(vnodes[cur]);
            let next = successor_of(cur);
            if next == start {
                break;
            }
            debug_assert!(
                !on_ring[next],
                "successor walk must not enter a previously closed ring"
            );
            cur = next;
        }
        let kind = members
            .iter()
            .flat_map(|v| v.local_boundary.outside_points())
            .find_map(|p| analysis.face_of_empty_point(p))
            .unwrap_or(BoundaryKind::Outer);
        rings.push(BoundaryRing {
            kind,
            vnodes: members,
        });
    }
    rings
}

/// Returns the outer boundary ring of a shape (panics if the shape is empty).
///
/// # Panics
///
/// Panics if the shape is empty.
pub fn outer_boundary_ring(shape: &Shape) -> BoundaryRing {
    boundary_rings(shape)
        .into_iter()
        .find(|r| r.is_outer())
        .expect("a non-empty shape has an outer boundary")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ball_has_single_outer_ring_with_sum_six() {
        let s = Shape::from_points(Point::ORIGIN.ball(4));
        let rings = boundary_rings(&s);
        assert_eq!(rings.len(), 1);
        assert!(rings[0].is_outer());
        assert_eq!(rings[0].count_sum(), 6);
        assert_eq!(rings[0].point_len(), 24);
        assert_eq!(rings[0].orientation(), RingOrientation::Clockwise);
    }

    #[test]
    fn annulus_rings_sum_plus_and_minus_six() {
        let mut s = Shape::from_points(Point::ORIGIN.ball(4));
        for p in Point::ORIGIN.ball(1) {
            s.remove(p);
        }
        let rings = boundary_rings(&s);
        assert_eq!(rings.len(), 2);
        let outer = rings.iter().find(|r| r.is_outer()).unwrap();
        let inner = rings.iter().find(|r| !r.is_outer()).unwrap();
        assert_eq!(outer.count_sum(), 6);
        assert_eq!(inner.count_sum(), -6);
        assert_eq!(inner.orientation(), RingOrientation::CounterClockwise);
        assert_eq!(inner.kind(), BoundaryKind::Inner(0));
    }

    #[test]
    fn line_ring_visits_midpoints_twice() {
        // A straight line of k >= 3 points: the single (outer) global
        // boundary visits every interior line point twice (two v-nodes each)
        // and the endpoints once.
        let k = 6;
        let line = Shape::from_points((0..k).map(|i| Point::new(i, 0)));
        let rings = boundary_rings(&line);
        assert_eq!(rings.len(), 1);
        let ring = &rings[0];
        assert_eq!(ring.len() as i32, 2 * k - 2);
        assert_eq!(ring.point_len() as i32, k);
        assert_eq!(ring.count_sum(), 6);
    }

    #[test]
    fn single_point_ring() {
        let s = Shape::from_points([Point::ORIGIN]);
        let rings = boundary_rings(&s);
        assert_eq!(rings.len(), 1);
        assert_eq!(rings[0].len(), 1);
        assert_eq!(rings[0].count_sum(), 4);
    }

    #[test]
    fn lone_points_of_larger_shapes_have_their_own_rings() {
        let pair = [Point::ORIGIN, Point::new(1, 0)];
        let lone = Point::new(5, 0);
        for points in [vec![Point::ORIGIN, lone], [&pair[..], &[lone]].concat()] {
            let s = Shape::from_points(points.iter().copied());
            let rings = boundary_rings(&s);
            assert_eq!(rings.len(), 2, "one ring per component of {points:?}");
            let lone_ring = rings
                .iter()
                .find(|r| r.vnodes().iter().any(|v| v.point == lone))
                .expect("the lone point is on a ring");
            assert_eq!(lone_ring.len(), 1);
            assert_eq!(lone_ring.count_sum(), 4);
            assert!(lone_ring.is_outer());
        }
    }

    #[test]
    fn two_point_shape_ring() {
        let s = Shape::from_points([Point::ORIGIN, Point::new(1, 0)]);
        let rings = boundary_rings(&s);
        assert_eq!(rings.len(), 1);
        assert_eq!(rings[0].len(), 2);
        assert_eq!(rings[0].count_sum(), 6);
    }

    #[test]
    fn successor_predecessor_roundtrip() {
        let s = Shape::from_points(Point::ORIGIN.ball(2));
        let ring = outer_boundary_ring(&s);
        for i in 0..ring.len() {
            assert_eq!(ring.predecessor(ring.successor(i)), i);
        }
    }

    #[test]
    fn multi_hole_shape_has_one_ring_per_hole() {
        let mut s = Shape::from_points(Point::ORIGIN.ball(4));
        s.remove(Point::new(2, 0));
        s.remove(Point::new(-2, 0));
        s.remove(Point::new(0, 2));
        let rings = boundary_rings(&s);
        assert_eq!(rings.len(), 4);
        assert_eq!(rings.iter().filter(|r| r.is_outer()).count(), 1);
        for ring in rings.iter().filter(|r| !r.is_outer()) {
            assert_eq!(ring.count_sum(), -6);
            assert_eq!(ring.len(), 6);
        }
    }
}
