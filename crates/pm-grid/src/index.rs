//! Dense indexed-grid fast path: flat-array addressing for bounded regions
//! of the triangular grid.
//!
//! The simulator's hot paths — neighbour probes during activations, occupancy
//! lookups, face classification — are all membership queries against a finite
//! region of the grid. A [`BTreeSet`](std::collections::BTreeSet) answers
//! them in `O(log n)` with pointer chasing; a [`GridIndex`] answers them in
//! `O(1)` from a flat bitset indexed by [`GridRect`] cell ids, with the six
//! neighbour cells of any cell reachable through precomputed constant
//! offsets (axial direction offsets are translation-invariant, so on a
//! row-major layout each direction is a fixed `dq + dr·width` jump).
//!
//! [`GridRect`] is the pure cell-id geometry (also used by the particle
//! system's dense occupancy vector); [`GridIndex`] adds the membership
//! bitset.

use crate::coords::{Point, DIRECTIONS};
use crate::shape::Shape;

/// A rectangle of the axial-coordinate plane with row-major cell addressing.
///
/// Cell ids are `(r - min_r) * width + (q - min_q)`, so translating a point
/// by direction `d` translates its cell id by the constant
/// [`GridRect::direction_offset`]`(d)` — no per-cell table is needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridRect {
    min_q: i32,
    min_r: i32,
    width: i32,
    height: i32,
}

impl GridRect {
    /// The rectangle spanning `min..=max` in both axial coordinates.
    pub fn new(min: Point, max: Point) -> GridRect {
        assert!(min.q <= max.q && min.r <= max.r, "empty grid rectangle");
        GridRect {
            min_q: min.q,
            min_r: min.r,
            width: max.q - min.q + 1,
            height: max.r - min.r + 1,
        }
    }

    /// The bounding rectangle of a non-empty shape, expanded by `margin`
    /// cells on every side. Returns `None` for the empty shape.
    pub fn of_shape(shape: &Shape, margin: u32) -> Option<GridRect> {
        let (min, max) = shape.bounding_box()?;
        let m = margin as i32;
        Some(GridRect::new(
            Point::new(min.q - m, min.r - m),
            Point::new(max.q + m, max.r + m),
        ))
    }

    /// Number of cells in the rectangle.
    pub fn cells(&self) -> usize {
        (self.width as usize) * (self.height as usize)
    }

    /// Width in cells (the `q` extent).
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Height in cells (the `r` extent).
    pub fn height(&self) -> i32 {
        self.height
    }

    /// The lexicographically smallest corner.
    pub fn min(&self) -> Point {
        Point::new(self.min_q, self.min_r)
    }

    /// The lexicographically largest corner.
    pub fn max(&self) -> Point {
        Point::new(self.min_q + self.width - 1, self.min_r + self.height - 1)
    }

    /// Whether the rectangle contains the point. Any point may be asked
    /// about, one restored from a client's snapshot included: the offsets
    /// wrap instead of overflowing, and a wrapped offset is never in range.
    #[inline]
    pub fn in_bounds(&self, p: Point) -> bool {
        let q = p.q.wrapping_sub(self.min_q);
        let r = p.r.wrapping_sub(self.min_r);
        (q as u32) < self.width as u32 && (r as u32) < self.height as u32
    }

    /// The cell id of `p`, or `None` if it lies outside the rectangle.
    #[inline]
    pub fn cell(&self, p: Point) -> Option<usize> {
        if self.in_bounds(p) {
            Some(
                ((p.r - self.min_r) as usize) * (self.width as usize) + (p.q - self.min_q) as usize,
            )
        } else {
            None
        }
    }

    /// The point of a cell id.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= self.cells()`.
    #[inline]
    pub fn point(&self, cell: usize) -> Point {
        assert!(cell < self.cells(), "cell id out of range");
        let w = self.width as usize;
        Point::new(
            self.min_q + (cell % w) as i32,
            self.min_r + (cell / w) as i32,
        )
    }

    /// The constant cell-id offset of moving one step in direction `i`
    /// (clockwise direction index). Valid for any cell whose neighbour stays
    /// in bounds; use [`GridRect::cell`] on the neighbouring point when the
    /// move may leave the rectangle.
    #[inline]
    pub fn direction_offset(&self, i: usize) -> isize {
        let (dq, dr) = DIRECTIONS[i].offset();
        dq as isize + dr as isize * self.width as isize
    }

    /// All six direction offsets, indexed by clockwise direction index.
    pub fn direction_offsets(&self) -> [isize; 6] {
        let mut out = [0isize; 6];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.direction_offset(i);
        }
        out
    }
}

/// A dense membership index over a [`GridRect`]: `O(1)` `contains`, insert
/// and remove for points of a bounded grid region, packed 64 cells per word.
#[derive(Clone, Debug)]
pub struct GridIndex {
    rect: GridRect,
    words: Vec<u64>,
    len: usize,
}

impl GridIndex {
    /// An empty index over the given rectangle.
    pub fn empty(rect: GridRect) -> GridIndex {
        GridIndex {
            rect,
            words: vec![0u64; rect.cells().div_ceil(64)],
            len: 0,
        }
    }

    /// Indexes a non-empty shape over its bounding box expanded by `margin`.
    /// Returns `None` for the empty shape.
    pub fn of_shape(shape: &Shape, margin: u32) -> Option<GridIndex> {
        let rect = GridRect::of_shape(shape, margin)?;
        let mut index = GridIndex::empty(rect);
        for p in shape.iter() {
            index.insert(p);
        }
        Some(index)
    }

    /// The underlying rectangle.
    pub fn rect(&self) -> &GridRect {
        &self.rect
    }

    /// Number of member points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index has no member points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `p` is a member. Points outside the rectangle are non-members.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        match self.rect.cell(p) {
            Some(cell) => self.contains_cell(cell),
            None => false,
        }
    }

    /// Whether the cell id is a member.
    #[inline]
    pub fn contains_cell(&self, cell: usize) -> bool {
        (self.words[cell >> 6] >> (cell & 63)) & 1 == 1
    }

    /// Inserts a point; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside the rectangle.
    pub fn insert(&mut self, p: Point) -> bool {
        let cell = self
            .rect
            .cell(p)
            .expect("point outside the indexed rectangle");
        let (word, bit) = (cell >> 6, cell & 63);
        let newly = (self.words[word] >> bit) & 1 == 0;
        self.words[word] |= 1 << bit;
        self.len += usize::from(newly);
        newly
    }

    /// Inserts a point like [`GridIndex::insert`], first re-laying the
    /// index over a larger rectangle when `p` lies outside the current one.
    /// The rectangle at least doubles along each axis that `p` leaves, so
    /// a sequence of growing inserts costs amortised `O(1)` each.
    pub(crate) fn insert_growing(&mut self, p: Point) -> bool {
        if !self.rect.in_bounds(p) {
            let (min, max) = (self.rect.min(), self.rect.max());
            let (min_q, max_q) = widen(min.q, max.q, p.q);
            let (min_r, max_r) = widen(min.r, max.r, p.r);
            let mut grown = GridIndex::empty(GridRect::new(
                Point::new(min_q, min_r),
                Point::new(max_q, max_r),
            ));
            for member in self.iter() {
                grown.insert(member);
            }
            *self = grown;
        }
        self.insert(p)
    }

    /// Removes a point; returns whether it was present.
    pub fn remove(&mut self, p: Point) -> bool {
        let Some(cell) = self.rect.cell(p) else {
            return false;
        };
        let (word, bit) = (cell >> 6, cell & 63);
        let present = (self.words[word] >> bit) & 1 == 1;
        self.words[word] &= !(1 << bit);
        self.len -= usize::from(present);
        present
    }

    /// The membership mask of the six neighbours of `p`, indexed by clockwise
    /// direction.
    #[inline]
    pub fn neighbor_mask(&self, p: Point) -> [bool; 6] {
        let mut mask = [false; 6];
        for (i, d) in DIRECTIONS.iter().enumerate() {
            mask[i] = self.contains(p.neighbor(*d));
        }
        mask
    }

    /// Per cell, whether it is empty and on the unbounded face: joined
    /// through empty cells to the rectangle's border. Every point outside
    /// the rectangle is empty, so an empty border cell always touches the
    /// unbounded face, and the members need no margin.
    pub(crate) fn outer_face(&self) -> Vec<bool> {
        let rect = self.rect;
        let (w, h) = (rect.width as usize, rect.height as usize);
        let mut outer = vec![false; rect.cells()];
        let border: Vec<usize> = (0..w)
            .flat_map(|q| [q, (h - 1) * w + q])
            .chain((0..h).flat_map(|r| [r * w, r * w + w - 1]))
            .filter(|cell| !self.contains_cell(*cell))
            .collect();
        for &cell in &border {
            outer[cell] = true;
        }
        // Every empty border cell is marked, so the flood only ever pushes
        // inner cells, whose six neighbours are all in bounds.
        let mut stack = Vec::new();
        for &cell in &border {
            for n in rect.point(cell).neighbors() {
                if let Some(nc) = rect.cell(n) {
                    if !outer[nc] && !self.contains_cell(nc) {
                        outer[nc] = true;
                        stack.push(nc);
                    }
                }
            }
        }
        let offsets = rect.direction_offsets();
        while let Some(cell) = stack.pop() {
            for offset in offsets {
                let nc = cell.wrapping_add_signed(offset);
                if !outer[nc] && !self.contains_cell(nc) {
                    outer[nc] = true;
                    stack.push(nc);
                }
            }
        }
        outer
    }

    /// Iterates over the member points in the lexicographic `(q, r)` order
    /// of [`Shape::iter`].
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        let (w, h) = (self.rect.width, self.rect.height);
        let min = self.rect.min();
        (0..w).flat_map(move |q| {
            (0..h).filter_map(move |r| {
                let cell = r as usize * w as usize + q as usize;
                self.contains_cell(cell)
                    .then(|| Point::new(min.q + q, min.r + r))
            })
        })
    }
}

/// The range `lo..=hi` extended to reach `x`, by at least its own length on
/// the side where `x` lies.
fn widen(lo: i32, hi: i32, x: i32) -> (i32, i32) {
    let len = hi - lo + 1;
    if x < lo {
        (x.min(lo - len), hi)
    } else if x > hi {
        (lo, x.max(hi + len))
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Direction;

    #[test]
    fn rect_cell_roundtrip_and_bounds() {
        let rect = GridRect::new(Point::new(-3, 2), Point::new(4, 6));
        assert_eq!(rect.width(), 8);
        assert_eq!(rect.height(), 5);
        assert_eq!(rect.cells(), 40);
        assert_eq!(rect.min(), Point::new(-3, 2));
        assert_eq!(rect.max(), Point::new(4, 6));
        for cell in 0..rect.cells() {
            let p = rect.point(cell);
            assert!(rect.in_bounds(p));
            assert_eq!(rect.cell(p), Some(cell));
        }
        assert_eq!(rect.cell(Point::new(-4, 2)), None);
        assert_eq!(rect.cell(Point::new(5, 2)), None);
        assert_eq!(rect.cell(Point::new(0, 1)), None);
        assert_eq!(rect.cell(Point::new(0, 7)), None);
    }

    #[test]
    fn direction_offsets_match_point_arithmetic() {
        let rect = GridRect::new(Point::new(-2, -2), Point::new(5, 5));
        let offsets = rect.direction_offsets();
        // For an interior cell, every neighbour's cell id is the cell id plus
        // the direction's constant offset.
        let p = Point::new(1, 1);
        let cell = rect.cell(p).unwrap() as isize;
        for (i, d) in crate::DIRECTIONS.iter().enumerate() {
            let n = p.neighbor(*d);
            assert_eq!(rect.cell(n).unwrap() as isize, cell + offsets[i], "{d:?}");
        }
    }

    #[test]
    fn index_contains_matches_shape() {
        let shape = Shape::from_points(Point::ORIGIN.ball(4));
        let index = GridIndex::of_shape(&shape, 1).unwrap();
        assert_eq!(index.len(), shape.len());
        for q in -7..=7 {
            for r in -7..=7 {
                let p = Point::new(q, r);
                assert_eq!(index.contains(p), shape.contains(p), "at {p}");
            }
        }
        // Far outside the rectangle: not a member, no panic.
        assert!(!index.contains(Point::new(1000, -1000)));
    }

    #[test]
    fn insert_remove_update_len() {
        let rect = GridRect::new(Point::new(0, 0), Point::new(3, 3));
        let mut index = GridIndex::empty(rect);
        assert!(index.is_empty());
        assert!(index.insert(Point::new(1, 1)));
        assert!(!index.insert(Point::new(1, 1)));
        assert_eq!(index.len(), 1);
        assert!(index.remove(Point::new(1, 1)));
        assert!(!index.remove(Point::new(1, 1)));
        assert!(!index.remove(Point::new(100, 100)));
        assert!(index.is_empty());
    }

    #[test]
    fn neighbor_mask_matches_membership() {
        let shape = Shape::from_points([Point::new(0, 0), Point::new(1, 0), Point::new(0, 1)]);
        let index = GridIndex::of_shape(&shape, 1).unwrap();
        let mask = index.neighbor_mask(Point::new(0, 0));
        assert!(mask[Direction::E.index()]);
        assert!(mask[Direction::SE.index()]);
        assert_eq!(mask.iter().filter(|m| **m).count(), 2);
    }

    #[test]
    fn iter_visits_every_member_once() {
        let shape = Shape::from_points(Point::ORIGIN.ball(3));
        let index = GridIndex::of_shape(&shape, 2).unwrap();
        let seen: Vec<Point> = index.iter().collect();
        let expected: Vec<Point> = shape.iter().collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn insert_growing_relays_the_index_and_keeps_members() {
        let mut index = GridIndex::empty(GridRect::new(Point::ORIGIN, Point::new(1, 1)));
        assert!(index.insert_growing(Point::ORIGIN));
        let far = [Point::new(5, 0), Point::new(-40, 3), Point::new(2, 90)];
        for p in far {
            assert!(index.insert_growing(p));
            assert!(!index.insert_growing(p));
        }
        assert_eq!(index.len(), 4);
        assert!(index.contains(Point::ORIGIN));
        assert!(far.iter().all(|p| index.contains(*p)));
        // Each growth at least doubles the axis it extends.
        assert!(index.rect().width() >= 46 && index.rect().height() >= 91);
    }

    #[test]
    fn outer_face_finds_the_unbounded_face_without_a_margin() {
        // A ring of radius 2 around the origin encloses the 7-point ball of
        // radius 1; the index is the ring's tight bounding box.
        let ring = Shape::from_points(Point::ORIGIN.ring(2));
        let index = GridIndex::of_shape(&ring, 0).unwrap();
        let outer = index.outer_face();
        let rect = index.rect();
        for (cell, is_outer) in outer.into_iter().enumerate() {
            let p = rect.point(cell);
            let enclosed = Point::ORIGIN.grid_distance(p) <= 2;
            assert_eq!(is_outer, !enclosed, "at {p}");
        }
    }

    #[test]
    fn empty_shape_has_no_index() {
        assert!(GridIndex::of_shape(&Shape::new(), 1).is_none());
        assert!(GridRect::of_shape(&Shape::new(), 1).is_none());
    }
}
