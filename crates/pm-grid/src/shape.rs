//! Shapes: finite sets of triangular-grid points, their boundaries, holes and
//! areas (Section 2.1 of the paper).

use crate::coords::Point;
use crate::index::GridIndex;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};

/// Classification of a grid point relative to a [`Shape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PointClass {
    /// In the shape and on some (outer or inner) boundary.
    Boundary,
    /// In the shape with all six neighbours also in the shape.
    Interior,
    /// Not in the shape, inside one of the shape's holes.
    Hole,
    /// Not in the shape, on the outer (unbounded) face.
    Outer,
}

/// Which global boundary a boundary point (or local boundary) belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BoundaryKind {
    /// The unique outer boundary (bounding the unbounded face).
    Outer,
    /// The inner boundary of the hole with the given index (indices follow
    /// the deterministic order of [`ShapeAnalysis::holes`]).
    Inner(usize),
}

/// A finite set of points of the triangular grid.
///
/// By abuse of notation (exactly as in the paper) the shape is identified
/// with the subgraph of the grid it induces: two shape points are connected
/// by an edge iff they are grid-adjacent.
///
/// The point set is kept in a [`BTreeSet`] so that all iteration orders are
/// deterministic, which keeps the simulator and the experiments reproducible.
/// The first call to [`Shape::analyze`] additionally builds a dense
/// [`GridIndex`] over the bounding box and caches the full [`ShapeAnalysis`]
/// behind an [`Arc`]; until the shape is mutated again, membership queries
/// run in `O(1)` against the index and repeated `analyze()` calls are free.
///
/// ```
/// use pm_grid::{Point, Shape};
/// let shape = Shape::from_points(Point::ORIGIN.ball(2));
/// assert_eq!(shape.len(), 19);
/// assert!(shape.is_connected());
/// assert!(shape.is_simply_connected());
/// ```
#[derive(Clone, Default)]
pub struct Shape {
    points: BTreeSet<Point>,
    /// Lazily computed analysis (and dense index), shared by every caller
    /// until the next mutation. Cloning a shape clones the handle (cheap);
    /// mutating resets it.
    cache: OnceLock<Arc<ShapeAnalysis>>,
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shape")
            .field("points", &self.points)
            .finish()
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Shape) -> bool {
        self.points == other.points
    }
}

impl Eq for Shape {}

impl Serialize for Shape {
    fn to_value(&self) -> Value {
        self.points.to_value()
    }
}

impl Deserialize for Shape {
    fn from_value(v: &Value) -> Result<Shape, DeError> {
        Ok(Shape {
            points: BTreeSet::from_value(v)?,
            cache: OnceLock::new(),
        })
    }
}

impl Shape {
    /// Creates an empty shape.
    pub fn new() -> Shape {
        Shape::default()
    }

    /// Creates a shape from any collection of points.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Shape {
        Shape {
            points: points.into_iter().collect(),
            cache: OnceLock::new(),
        }
    }

    /// Drops the cached analysis; called by every mutation.
    fn invalidate(&mut self) {
        if self.cache.get().is_some() {
            self.cache = OnceLock::new();
        }
    }

    /// Number of points in the shape (the paper's `n` when the shape is the
    /// particle system's shape).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the shape contains no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether the given point belongs to the shape.
    ///
    /// `O(1)` once the shape has been analysed (the cached [`GridIndex`]
    /// answers the query); `O(log n)` before that.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        match self.cache.get() {
            Some(analysis) => analysis.contains(p),
            None => self.points.contains(&p),
        }
    }

    /// Inserts a point; returns whether it was newly inserted.
    pub fn insert(&mut self, p: Point) -> bool {
        let newly = self.points.insert(p);
        if newly {
            self.invalidate();
        }
        newly
    }

    /// Removes a point; returns whether it was present.
    pub fn remove(&mut self, p: Point) -> bool {
        let removed = self.points.remove(&p);
        if removed {
            self.invalidate();
        }
        removed
    }

    /// Iterates over the points in deterministic (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        self.points.iter().copied()
    }

    /// The underlying point set.
    pub fn points(&self) -> &BTreeSet<Point> {
        &self.points
    }

    /// The neighbours of `p` that belong to the shape, in clockwise port
    /// order.
    pub fn neighbors_in(&self, p: Point) -> impl Iterator<Item = Point> + '_ {
        p.neighbors().filter(move |n| self.contains(*n))
    }

    /// The number of shape neighbours of `p`.
    pub fn degree(&self, p: Point) -> usize {
        self.neighbors_in(p).count()
    }

    /// An arbitrary but deterministic element (the lexicographically smallest
    /// point), if any.
    pub fn first_point(&self) -> Option<Point> {
        self.points.iter().next().copied()
    }

    /// Axis-aligned bounding box `((min_q, min_r), (max_q, max_r))`, if the
    /// shape is non-empty.
    pub fn bounding_box(&self) -> Option<(Point, Point)> {
        // Points are ordered by `q` first, so the set's two ends carry the
        // extreme `q`s; one pass finds the extreme `r`s.
        let (first, last) = (self.points.first()?, self.points.last()?);
        let (min_r, max_r) = self.iter().fold((i32::MAX, i32::MIN), |(lo, hi), p| {
            (lo.min(p.r), hi.max(p.r))
        });
        Some((Point::new(first.q, min_r), Point::new(last.q, max_r)))
    }

    /// Whether the induced subgraph is connected. The empty shape is
    /// considered connected (vacuously); the paper only ever considers
    /// non-empty shapes.
    ///
    /// Runs a BFS over a dense [`GridIndex`] (the cached one when the shape
    /// has been analysed, a transient one otherwise) instead of hashing
    /// every visited point.
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.first_point() else {
            return true;
        };
        let transient;
        let index = match self.cache.get() {
            Some(analysis) => analysis.index().expect("non-empty shape has an index"),
            None => {
                transient = GridIndex::of_shape(self, 0).expect("non-empty shape has an index");
                &transient
            }
        };
        let rect = *index.rect();
        let mut visited = vec![false; rect.cells()];
        visited[rect.cell(start).expect("shape point is in bounds")] = true;
        let mut stack = vec![start];
        let mut seen = 1usize;
        while let Some(p) = stack.pop() {
            for n in p.neighbors() {
                if let Some(cell) = rect.cell(n) {
                    if !visited[cell] && index.contains_cell(cell) {
                        visited[cell] = true;
                        seen += 1;
                        stack.push(n);
                    }
                }
            }
        }
        seen == self.len()
    }

    /// The connected components of the shape, each as its own [`Shape`], in
    /// deterministic order of their smallest point.
    pub fn connected_components(&self) -> Vec<Shape> {
        let mut unvisited: BTreeSet<Point> = self.points.clone();
        let mut components = Vec::new();
        while let Some(start) = unvisited.iter().next().copied() {
            let mut comp = BTreeSet::new();
            let mut queue = VecDeque::from([start]);
            unvisited.remove(&start);
            comp.insert(start);
            while let Some(p) = queue.pop_front() {
                for n in self.neighbors_in(p) {
                    if unvisited.remove(&n) {
                        comp.insert(n);
                        queue.push_back(n);
                    }
                }
            }
            components.push(Shape::from_points(comp));
        }
        components
    }

    /// Whether `p` is a boundary point of the shape (in the shape and
    /// adjacent to at least one point not in the shape).
    pub fn is_boundary_point(&self, p: Point) -> bool {
        self.contains(p) && p.neighbors().any(|n| !self.contains(n))
    }

    /// Whether `p` is an interior point of the shape (in the shape with all
    /// six neighbours in the shape).
    pub fn is_interior_point(&self, p: Point) -> bool {
        self.contains(p) && p.neighbors().all(|n| self.contains(n))
    }

    /// Computes (or returns the cached) full face analysis: outer face,
    /// holes, boundaries, dense index.
    ///
    /// The analysis is computed once per shape state and shared behind an
    /// [`Arc`]; callers anywhere in the stack (the particle system, OBD, the
    /// erosion predicates, renderers) reuse the same computation instead of
    /// re-deriving it. The returned handle stays valid even if the shape is
    /// mutated afterwards — it describes the shape at the time of the call.
    pub fn analyze(&self) -> Arc<ShapeAnalysis> {
        self.cache
            .get_or_init(|| Arc::new(ShapeAnalysis::compute(self)))
            .clone()
    }

    /// All hole points of the shape (empty points in bounded faces), in
    /// deterministic order. Convenience wrapper over [`Shape::analyze`].
    pub fn hole_points(&self) -> impl Iterator<Item = Point> {
        self.analyze().hole_points().into_iter()
    }

    /// Whether the shape has no holes. A disconnected or empty shape is
    /// simply-connected iff it has no holes, matching the paper's usage for
    /// connected shapes.
    pub fn is_simply_connected(&self) -> bool {
        self.analyze().holes().is_empty()
    }

    /// The area of the shape: the shape together with all of its hole points
    /// (Section 2.1).
    pub fn area(&self) -> Shape {
        let mut points = self.points.clone();
        points.extend(self.analyze().hole_points());
        Shape::from_points(points)
    }

    /// The number of points on the outer boundary, `L_out(S)`.
    pub fn outer_boundary_len(&self) -> usize {
        self.analyze().outer_boundary().len()
    }

    /// The maximum boundary length `L_max(S)` over the outer boundary and all
    /// inner boundaries.
    pub fn max_boundary_len(&self) -> usize {
        self.analyze().max_boundary_len()
    }

    /// Classifies an arbitrary grid point with respect to the shape.
    pub fn classify(&self, p: Point) -> PointClass {
        self.analyze().classify(p)
    }
}

impl FromIterator<Point> for Shape {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Shape {
        Shape::from_points(iter)
    }
}

impl Extend<Point> for Shape {
    fn extend<I: IntoIterator<Item = Point>>(&mut self, iter: I) {
        self.points.extend(iter);
        self.invalidate();
    }
}

impl<'a> IntoIterator for &'a Shape {
    type Item = Point;
    type IntoIter = std::iter::Copied<std::collections::btree_set::Iter<'a, Point>>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter().copied()
    }
}

/// Per-cell hole id sentinel: the cell is not a hole point.
const NO_HOLE: u32 = u32::MAX;

/// The face decomposition of a shape: which empty points lie on the outer
/// face, which lie in holes, and the induced global boundaries.
///
/// All results refer to the shape at the time [`Shape::analyze`] was called.
///
/// Internally the analysis is computed over a dense [`GridIndex`] covering
/// the shape's bounding box expanded by one cell: the flood fills run over
/// flat arrays instead of hash sets, and the per-cell [`PointClass`] and
/// hole-id grids make [`ShapeAnalysis::classify`],
/// [`ShapeAnalysis::is_outer_face_point`] and
/// [`ShapeAnalysis::face_of_empty_point`] `O(1)`.
#[derive(Clone, Debug)]
pub struct ShapeAnalysis {
    /// Dense membership index over the expanded bounding box (`None` only
    /// for the empty shape).
    index: Option<GridIndex>,
    /// Per-cell classification, indexed by the cells of `index`.
    class: Vec<PointClass>,
    /// Per-cell hole component id ([`NO_HOLE`] for non-hole cells).
    hole_id: Vec<u32>,
    /// Hole components, each a set of empty points, ordered by smallest point.
    holes: Vec<BTreeSet<Point>>,
    /// Shape points on the outer boundary.
    outer_boundary: BTreeSet<Point>,
    /// Shape points on each hole's inner boundary (same order as `holes`).
    inner_boundaries: Vec<BTreeSet<Point>>,
}

impl ShapeAnalysis {
    fn compute(shape: &Shape) -> ShapeAnalysis {
        let Some(index) = GridIndex::of_shape(shape, 1) else {
            return ShapeAnalysis {
                index: None,
                class: Vec::new(),
                hole_id: Vec::new(),
                holes: Vec::new(),
                outer_boundary: BTreeSet::new(),
                inner_boundaries: Vec::new(),
            };
        };
        let rect = *index.rect();
        let cells = rect.cells();

        // Pass 1 — the outer flood fill over the index. The other empty
        // cells are holes: `Interior` marks them "unvisited" until pass 2,
        // and shape cells are `Boundary` until pass 3 refines them.
        let outer = index.outer_face();
        let mut class: Vec<PointClass> = (0..cells)
            .map(|c| {
                if index.contains_cell(c) {
                    PointClass::Boundary
                } else if outer[c] {
                    PointClass::Outer
                } else {
                    PointClass::Interior
                }
            })
            .collect();
        let (w, h) = (rect.width(), rect.height());

        // Pass 2 — hole components: empty cells not reached from the border.
        // Seeds are scanned in lexicographic (q, r) point order so hole
        // indices (and thus `BoundaryKind::Inner` numbering) are ordered by
        // each component's smallest point.
        let mut hole_id = vec![NO_HOLE; cells];
        let mut holes: Vec<BTreeSet<Point>> = Vec::new();
        let min = rect.min();
        for q in 0..w {
            for r in 0..h {
                let seed = rect
                    .cell(Point::new(min.q + q, min.r + r))
                    .expect("scan stays in bounds");
                if class[seed] != PointClass::Interior {
                    continue;
                }
                let id = holes.len() as u32;
                let mut comp = BTreeSet::new();
                class[seed] = PointClass::Hole;
                hole_id[seed] = id;
                comp.insert(rect.point(seed));
                let mut stack = vec![seed];
                while let Some(cell) = stack.pop() {
                    let p = rect.point(cell);
                    for n in p.neighbors() {
                        if let Some(nc) = rect.cell(n) {
                            if class[nc] == PointClass::Interior {
                                class[nc] = PointClass::Hole;
                                hole_id[nc] = id;
                                comp.insert(rect.point(nc));
                                stack.push(nc);
                            }
                        }
                    }
                }
                holes.push(comp);
            }
        }

        // Pass 3 — boundary membership and the final shape-point classes: a
        // shape point is on the outer boundary iff it is adjacent to an
        // outer-face point, on hole i's inner boundary iff adjacent to a
        // point of hole i, and interior iff all six neighbours are occupied.
        // (A point can be on several boundaries at once.)
        let mut outer_boundary = BTreeSet::new();
        let mut inner_boundaries = vec![BTreeSet::new(); holes.len()];
        for p in shape.iter() {
            let cell = rect.cell(p).expect("shape points are in bounds");
            let mut interior = true;
            for n in p.neighbors() {
                // The margin keeps every neighbour of a shape point in
                // bounds.
                let nc = rect
                    .cell(n)
                    .expect("neighbour of a shape point is in bounds");
                if index.contains_cell(nc) {
                    continue;
                }
                interior = false;
                let id = hole_id[nc];
                if id == NO_HOLE {
                    outer_boundary.insert(p);
                } else {
                    inner_boundaries[id as usize].insert(p);
                }
            }
            class[cell] = if interior {
                PointClass::Interior
            } else {
                PointClass::Boundary
            };
        }

        ShapeAnalysis {
            index: Some(index),
            class,
            hole_id,
            holes,
            outer_boundary,
            inner_boundaries,
        }
    }

    /// The dense membership index over the expanded bounding box (`None` for
    /// the empty shape). Hot paths use it for `O(1)` occupancy-style
    /// membership queries.
    pub fn index(&self) -> Option<&GridIndex> {
        self.index.as_ref()
    }

    /// Whether `p` belongs to the analysed shape, in `O(1)`.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.index.as_ref().is_some_and(|index| index.contains(p))
    }

    /// The hole components (possibly empty), each a set of empty points.
    pub fn holes(&self) -> &[BTreeSet<Point>] {
        &self.holes
    }

    /// All hole points in deterministic order.
    pub fn hole_points(&self) -> Vec<Point> {
        self.holes.iter().flat_map(|h| h.iter().copied()).collect()
    }

    /// The shape points on the outer boundary.
    pub fn outer_boundary(&self) -> &BTreeSet<Point> {
        &self.outer_boundary
    }

    /// The shape points on the inner boundary of hole `i`.
    pub fn inner_boundary(&self, i: usize) -> &BTreeSet<Point> {
        &self.inner_boundaries[i]
    }

    /// Number of holes.
    pub fn hole_count(&self) -> usize {
        self.holes.len()
    }

    /// `L_out`: number of points on the outer boundary.
    pub fn outer_boundary_len(&self) -> usize {
        self.outer_boundary.len()
    }

    /// `L_max`: maximum number of points over all global boundaries.
    pub fn max_boundary_len(&self) -> usize {
        self.inner_boundaries
            .iter()
            .map(|b| b.len())
            .chain([self.outer_boundary.len()])
            .max()
            .unwrap_or(0)
    }

    /// Classifies an arbitrary grid point, in `O(1)`.
    #[inline]
    pub fn classify(&self, p: Point) -> PointClass {
        match &self.index {
            None => PointClass::Outer,
            Some(index) => match index.rect().cell(p) {
                // Outside the expanded bounding box: empty, on the
                // unbounded face.
                None => PointClass::Outer,
                Some(cell) => self.class[cell],
            },
        }
    }

    /// Which kind of empty face the empty point `p` belongs to, or `None` if
    /// `p` is in the shape. `O(1)`.
    ///
    /// Points far outside the analysed bounding box are reported as
    /// [`BoundaryKind::Outer`]-adjacent, i.e. on the outer face.
    pub fn face_of_empty_point(&self, p: Point) -> Option<BoundaryKind> {
        match self.classify(p) {
            PointClass::Boundary | PointClass::Interior => None,
            PointClass::Hole => {
                let cell = self
                    .index
                    .as_ref()
                    .and_then(|index| index.rect().cell(p))
                    .expect("hole points are in bounds");
                Some(BoundaryKind::Inner(self.hole_id[cell] as usize))
            }
            PointClass::Outer => Some(BoundaryKind::Outer),
        }
    }

    /// Whether the empty point `p` lies on the outer (unbounded) face.
    /// `O(1)`.
    #[inline]
    pub fn is_outer_face_point(&self, p: Point) -> bool {
        self.classify(p) == PointClass::Outer
    }

    /// Whether the empty point `p` lies inside some hole. `O(1)`.
    #[inline]
    pub fn is_hole_point(&self, p: Point) -> bool {
        self.classify(p) == PointClass::Hole
    }

    /// The outer-face points within the analysed (expanded) bounding box
    /// (useful for rendering). Computed on demand from the dense
    /// classification grid.
    pub fn outer_face_sample(&self) -> HashSet<Point> {
        let Some(index) = &self.index else {
            return HashSet::new();
        };
        let rect = index.rect();
        (0..rect.cells())
            .filter(|cell| self.class[*cell] == PointClass::Outer)
            .map(|cell| rect.point(cell))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Direction;

    /// A hexagonal ball of the given radius around the origin.
    fn ball(radius: u32) -> Shape {
        Shape::from_points(Point::ORIGIN.ball(radius))
    }

    /// A ring (annulus of width 1) of the given radius: a shape with one hole
    /// when radius >= 2 (radius 1 ring encloses only the origin).
    fn ring(radius: u32) -> Shape {
        Shape::from_points(Point::ORIGIN.ring(radius))
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Shape::new();
        assert!(empty.is_empty());
        assert!(empty.is_connected());
        assert!(empty.is_simply_connected());
        assert_eq!(empty.outer_boundary_len(), 0);
        assert_eq!(empty.classify(Point::ORIGIN), PointClass::Outer);

        let single = Shape::from_points([Point::ORIGIN]);
        assert_eq!(single.len(), 1);
        assert!(single.is_connected());
        assert!(single.is_simply_connected());
        assert!(single.is_boundary_point(Point::ORIGIN));
        assert!(!single.is_interior_point(Point::ORIGIN));
        assert_eq!(single.outer_boundary_len(), 1);
    }

    #[test]
    fn ball_classification() {
        let s = ball(3);
        let a = s.analyze();
        assert_eq!(a.hole_count(), 0);
        assert!(s.is_simply_connected());
        // Boundary of the ball of radius 3 is exactly the ring of radius 3.
        assert_eq!(a.outer_boundary_len(), 18);
        assert!(s.is_interior_point(Point::ORIGIN));
        assert_eq!(s.classify(Point::ORIGIN), PointClass::Interior);
        assert_eq!(s.classify(Point::new(3, 0)), PointClass::Boundary);
        assert_eq!(s.classify(Point::new(10, 10)), PointClass::Outer);
        // Area of a hole-free shape is the shape itself.
        assert_eq!(s.area(), s);
    }

    #[test]
    fn annulus_has_one_hole() {
        // Ball of radius 3 minus ball of radius 1 -> hole of 7 points.
        let mut s = ball(3);
        for p in Point::ORIGIN.ball(1) {
            s.remove(p);
        }
        let a = s.analyze();
        assert_eq!(a.hole_count(), 1);
        assert_eq!(a.holes()[0].len(), 7);
        assert!(!s.is_simply_connected());
        assert_eq!(s.classify(Point::ORIGIN), PointClass::Hole);
        assert_eq!(s.area().len(), s.len() + 7);
        // Inner boundary of the hole is the ring of radius 2 (12 points).
        assert_eq!(a.inner_boundary(0).len(), 12);
        assert_eq!(a.outer_boundary_len(), 18);
        assert_eq!(a.max_boundary_len(), 18);
    }

    #[test]
    fn thin_ring_radius_one_is_a_hole() {
        // The 6 points at distance 1 from the origin enclose the origin.
        let s = ring(1);
        let a = s.analyze();
        assert_eq!(a.hole_count(), 1);
        assert_eq!(a.holes()[0].len(), 1);
        assert!(a.is_hole_point(Point::ORIGIN));
        assert_eq!(s.area().len(), 7);
    }

    #[test]
    fn two_holes_are_separated() {
        // Two disjoint single-point holes inside a larger ball.
        let mut s = ball(4);
        let h1 = Point::new(2, 0);
        let h2 = Point::new(-2, 0);
        s.remove(h1);
        s.remove(h2);
        let a = s.analyze();
        assert_eq!(a.hole_count(), 2);
        assert!(a.is_hole_point(h1));
        assert!(a.is_hole_point(h2));
        assert_ne!(a.face_of_empty_point(h1), a.face_of_empty_point(h2));
        assert_eq!(s.area(), ball(4));
    }

    #[test]
    fn hole_numbering_follows_smallest_point_order() {
        // Hole component indices are ordered by each hole's lexicographically
        // smallest point, matching `BoundaryKind::Inner` numbering.
        let mut s = ball(4);
        let h1 = Point::new(-2, 0);
        let h2 = Point::new(2, 0);
        s.remove(h1);
        s.remove(h2);
        let a = s.analyze();
        assert_eq!(a.face_of_empty_point(h1), Some(BoundaryKind::Inner(0)));
        assert_eq!(a.face_of_empty_point(h2), Some(BoundaryKind::Inner(1)));
        assert!(a.holes()[0].contains(&h1));
        assert!(a.holes()[1].contains(&h2));
    }

    #[test]
    fn notch_is_not_a_hole() {
        // Removing a boundary point creates a notch, not a hole.
        let mut s = ball(2);
        s.remove(Point::new(2, 0));
        let a = s.analyze();
        assert_eq!(a.hole_count(), 0);
        assert!(s.is_simply_connected());
        assert!(a.is_outer_face_point(Point::new(2, 0)));
    }

    #[test]
    fn connectivity_and_components() {
        let mut s = ball(1);
        // Add a far-away island.
        let island = Point::new(10, 10);
        s.insert(island);
        assert!(!s.is_connected());
        let comps = s.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps.iter().map(|c| c.len()).sum::<usize>(), s.len());
        assert!(comps.iter().any(|c| c.len() == 1 && c.contains(island)));
    }

    #[test]
    fn line_shape_boundaries() {
        let line = Shape::from_points((0..10).map(|i| Point::new(i, 0)));
        assert!(line.is_connected());
        assert!(line.is_simply_connected());
        // Every point of a line is a boundary point.
        assert_eq!(line.outer_boundary_len(), 10);
        for p in line.iter() {
            assert!(line.is_boundary_point(p));
        }
    }

    #[test]
    fn neighbors_and_degree() {
        let s = ball(1);
        assert_eq!(s.degree(Point::ORIGIN), 6);
        assert_eq!(s.degree(Point::new(1, 0)), 3);
        let east = Point::ORIGIN.neighbor(Direction::E);
        assert!(s.neighbors_in(east).any(|p| p == Point::ORIGIN));
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut s: Shape = Point::ORIGIN.ring(1).into_iter().collect();
        assert_eq!(s.len(), 6);
        s.extend([Point::ORIGIN]);
        assert_eq!(s.len(), 7);
        assert_eq!((&s).into_iter().count(), 7);
    }

    #[test]
    fn analysis_is_cached_until_mutation() {
        let mut s = ball(2);
        let a = s.analyze();
        let b = s.analyze();
        assert!(
            Arc::ptr_eq(&a, &b),
            "repeated analyze() must share the cache"
        );
        // Mutation invalidates; the new analysis reflects the new shape.
        s.remove(Point::new(2, 0));
        let c = s.analyze();
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!c.contains(Point::new(2, 0)));
        // The old handle still describes the old state.
        assert!(a.contains(Point::new(2, 0)));
        // Non-mutating "mutations" (inserting an existing point, removing an
        // absent one) keep the cache.
        let before = s.analyze();
        assert!(!s.insert(Point::ORIGIN));
        assert!(!s.remove(Point::new(50, 50)));
        assert!(Arc::ptr_eq(&before, &s.analyze()));
    }

    #[test]
    fn contains_agrees_before_and_after_analysis() {
        let s = ball(3);
        let probes: Vec<Point> = (-5..=5)
            .flat_map(|q| (-5..=5).map(move |r| Point::new(q, r)))
            .collect();
        let before: Vec<bool> = probes.iter().map(|p| s.contains(*p)).collect();
        let _ = s.analyze();
        let after: Vec<bool> = probes.iter().map(|p| s.contains(*p)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn shape_serde_round_trip_ignores_cache() {
        let s = ball(2);
        let _ = s.analyze();
        let value = s.to_value();
        let back = Shape::from_value(&value).expect("round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn outer_face_sample_surrounds_the_shape() {
        let s = ball(1);
        let sample = s.analyze().outer_face_sample();
        // The expanded box is 5x5 = 25 cells minus the 7 shape points.
        assert_eq!(sample.len(), 25 - 7);
        assert!(sample.iter().all(|p| !s.contains(*p)));
    }
}
