//! Axial coordinates and directions on the triangular grid.
//!
//! The triangular grid (equivalently, the hexagonal lattice: every vertex has
//! six neighbours) is addressed with axial coordinates `(q, r)`. The six unit
//! directions are indexed **clockwise** by `0..=5`, which is exactly the port
//! numbering used by the amoebot model under the common-chirality assumption
//! of the paper (Section 2.2).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A point of the infinite triangular grid, in axial coordinates.
///
/// Two points are adjacent iff their difference is one of the six unit
/// vectors of [`DIRECTIONS`].
///
/// ```
/// use pm_grid::{Point, Direction};
/// let p = Point::new(2, -1);
/// assert_eq!(p.neighbor(Direction::E), Point::new(3, -1));
/// assert_eq!(p.neighbors().count(), 6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Point {
    /// Axial `q` coordinate (grows towards the east).
    pub q: i32,
    /// Axial `r` coordinate (grows towards the south-east).
    pub r: i32,
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.q, self.r)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.q, self.r)
    }
}

/// The six directions of the triangular grid, indexed clockwise.
///
/// The concrete compass names are only mnemonic: particles in the amoebot
/// model do not know the global embedding, but all directions here share the
/// same (clockwise) cyclic order, which encodes the common chirality
/// assumption.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum Direction {
    /// East, axial offset `(1, 0)`.
    E = 0,
    /// South-east, axial offset `(0, 1)`.
    SE = 1,
    /// South-west, axial offset `(-1, 1)`.
    SW = 2,
    /// West, axial offset `(-1, 0)`.
    W = 3,
    /// North-west, axial offset `(0, -1)`.
    NW = 4,
    /// North-east, axial offset `(1, -1)`.
    NE = 5,
}

/// All six directions in clockwise order, starting from [`Direction::E`].
pub const DIRECTIONS: [Direction; 6] = [
    Direction::E,
    Direction::SE,
    Direction::SW,
    Direction::W,
    Direction::NW,
    Direction::NE,
];

impl Direction {
    /// Returns the direction with the given clockwise index.
    ///
    /// The index is taken modulo 6, so any `i32` is accepted; this makes
    /// "port arithmetic" (`port + 3 mod 6` and friends from the paper's
    /// pseudocode) convenient.
    ///
    /// ```
    /// use pm_grid::Direction;
    /// assert_eq!(Direction::from_index(7), Direction::SE);
    /// assert_eq!(Direction::from_index(-1), Direction::NE);
    /// ```
    pub fn from_index(i: i32) -> Direction {
        DIRECTIONS[i.rem_euclid(6) as usize]
    }

    /// The clockwise index of this direction in `0..=5`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The axial coordinate offset of this direction.
    pub fn offset(self) -> (i32, i32) {
        match self {
            Direction::E => (1, 0),
            Direction::SE => (0, 1),
            Direction::SW => (-1, 1),
            Direction::W => (-1, 0),
            Direction::NW => (0, -1),
            Direction::NE => (1, -1),
        }
    }

    /// The opposite direction (`self + 3 mod 6`).
    ///
    /// ```
    /// use pm_grid::Direction;
    /// assert_eq!(Direction::E.opposite(), Direction::W);
    /// assert_eq!(Direction::NW.opposite(), Direction::SE);
    /// ```
    pub fn opposite(self) -> Direction {
        self.rotate_cw(3)
    }

    /// The clockwise successor direction (`self + 1 mod 6`).
    pub fn cw(self) -> Direction {
        self.rotate_cw(1)
    }

    /// The counter-clockwise successor direction (`self - 1 mod 6`).
    pub fn ccw(self) -> Direction {
        self.rotate_cw(-1)
    }

    /// Rotates this direction by `steps` sixths of a full turn clockwise.
    pub fn rotate_cw(self, steps: i32) -> Direction {
        Direction::from_index(self.index() as i32 + steps)
    }

    /// The direction from `from` to `to`, if they are adjacent.
    ///
    /// ```
    /// use pm_grid::{Direction, Point};
    /// let a = Point::new(0, 0);
    /// let b = Point::new(0, 1);
    /// assert_eq!(Direction::between(a, b), Some(Direction::SE));
    /// assert_eq!(Direction::between(b, a), Some(Direction::NW));
    /// assert_eq!(Direction::between(a, Point::new(5, 5)), None);
    /// ```
    pub fn between(from: Point, to: Point) -> Option<Direction> {
        let d = (to.q - from.q, to.r - from.r);
        DIRECTIONS.iter().copied().find(|dir| dir.offset() == d)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { q: 0, r: 0 };

    /// Creates a point from axial coordinates.
    pub fn new(q: i32, r: i32) -> Point {
        Point { q, r }
    }

    /// The third (redundant) cube coordinate `s = -q - r`.
    ///
    /// Cube coordinates satisfy `q + r + s = 0` and make distance and
    /// rotation formulas symmetric.
    pub fn s(self) -> i32 {
        -self.q - self.r
    }

    /// The neighbouring point in the given direction.
    pub fn neighbor(self, dir: Direction) -> Point {
        let (dq, dr) = dir.offset();
        Point::new(self.q + dq, self.r + dr)
    }

    /// Iterator over the six neighbouring points, in clockwise order starting
    /// from [`Direction::E`].
    pub fn neighbors(self) -> impl Iterator<Item = Point> {
        DIRECTIONS.into_iter().map(move |d| self.neighbor(d))
    }

    /// Whether `self` and `other` are adjacent on the grid.
    pub fn is_adjacent(self, other: Point) -> bool {
        self != other && self.grid_distance(other) == 1
    }

    /// The grid distance (shortest-path length on the full triangular grid).
    ///
    /// ```
    /// use pm_grid::Point;
    /// assert_eq!(Point::new(0, 0).grid_distance(Point::new(3, -1)), 3);
    /// assert_eq!(Point::new(2, 2).grid_distance(Point::new(2, 2)), 0);
    /// ```
    pub fn grid_distance(self, other: Point) -> u32 {
        let dq = self.q - other.q;
        let dr = self.r - other.r;
        let ds = self.s() - other.s();
        ((dq.abs() + dr.abs() + ds.abs()) / 2) as u32
    }

    /// Rotates this point by `steps` sixths of a full turn clockwise around
    /// the origin.
    ///
    /// Rotation by one step clockwise maps cube `(x, y, z)` to `(-z, -x, -y)`
    /// in our orientation convention; six steps are the identity.
    ///
    /// ```
    /// use pm_grid::{Direction, Point};
    /// let p = Point::ORIGIN.neighbor(Direction::E);
    /// assert_eq!(p.rotate_cw_about_origin(1), Point::ORIGIN.neighbor(Direction::SE));
    /// assert_eq!(p.rotate_cw_about_origin(6), p);
    /// ```
    pub fn rotate_cw_about_origin(self, steps: i32) -> Point {
        let steps = steps.rem_euclid(6);
        let (mut x, mut y, mut z) = (self.q, self.s(), self.r);
        for _ in 0..steps {
            // One clockwise rotation in cube coordinates (x, y, z) -> (-z, -x, -y)
            // with our axis naming; verified against Direction indices in tests.
            let (nx, ny, nz) = (-z, -x, -y);
            x = nx;
            y = ny;
            z = nz;
        }
        Point::new(x, z)
    }

    /// Rotates this point by `steps` sixths of a full turn clockwise around
    /// `center`.
    pub fn rotate_cw_about(self, center: Point, steps: i32) -> Point {
        (self - center).rotate_cw_about_origin(steps) + center
    }

    /// All points at exactly grid distance `radius` from `self`, in clockwise
    /// order starting from the point `radius` steps east of `self`.
    ///
    /// The ring of radius `r ≥ 1` has exactly `6 r` points; the ring of
    /// radius 0 is the single point itself.
    ///
    /// ```
    /// use pm_grid::Point;
    /// let c = Point::new(1, 1);
    /// assert_eq!(c.ring(0), vec![c]);
    /// assert_eq!(c.ring(2).len(), 12);
    /// assert!(c.ring(3).iter().all(|p| c.grid_distance(*p) == 3));
    /// ```
    pub fn ring(self, radius: u32) -> Vec<Point> {
        self.ring_points(radius).collect()
    }

    /// The points of [`Point::ring`], in the same order, without collecting
    /// them. The ring's `j`-th point lies `j mod radius` steps along side
    /// `s = j / radius`, which starts `radius` steps from `self` in
    /// direction `s` and heads two turns clockwise of it.
    pub fn ring_points(self, radius: u32) -> impl Iterator<Item = Point> {
        let len = if radius == 0 { 1 } else { 6 * radius as usize };
        let side_len = radius.max(1) as usize;
        let r = radius as i32;
        (0..len).map(move |j| {
            let (side, step) = (j / side_len, (j % side_len) as i32);
            let (cq, cr) = DIRECTIONS[side].offset();
            let (hq, hr) = DIRECTIONS[(side + 2) % 6].offset();
            Point::new(self.q + r * cq + step * hq, self.r + r * cr + step * hr)
        })
    }

    /// All points at grid distance at most `radius` from `self` (a "filled
    /// hexagon"), in deterministic order.
    ///
    /// The ball of radius `r` has `3 r (r + 1) + 1` points.
    pub fn ball(self, radius: u32) -> Vec<Point> {
        let mut out = Vec::new();
        for d in 0..=radius {
            out.extend(self.ring_points(d));
        }
        out
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.q + rhs.q, self.r + rhs.r)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.q - rhs.q, self.r - rhs.r)
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.q, -self.r)
    }
}

impl From<(i32, i32)> for Point {
    fn from((q, r): (i32, i32)) -> Point {
        Point::new(q, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn directions_are_clockwise_consistent() {
        // Neighbouring directions in the clockwise order must themselves be
        // adjacent points (the triangular grid's defining property: the two
        // endpoints of consecutive incident edges are adjacent).
        for d in DIRECTIONS {
            let a = Point::ORIGIN.neighbor(d);
            let b = Point::ORIGIN.neighbor(d.cw());
            assert!(a.is_adjacent(b), "{d:?} and {:?} not adjacent", d.cw());
        }
    }

    #[test]
    fn direction_round_trips() {
        for d in DIRECTIONS {
            assert_eq!(Direction::from_index(d.index() as i32), d);
            assert_eq!(d.opposite().opposite(), d);
            assert_eq!(d.cw().ccw(), d);
            assert_eq!(d.rotate_cw(6), d);
            let n = Point::ORIGIN.neighbor(d);
            assert_eq!(Direction::between(Point::ORIGIN, n), Some(d));
            assert_eq!(Direction::between(n, Point::ORIGIN), Some(d.opposite()));
        }
    }

    #[test]
    fn opposite_offsets_cancel() {
        for d in DIRECTIONS {
            let (dq, dr) = d.offset();
            let (oq, or) = d.opposite().offset();
            assert_eq!((dq + oq, dr + or), (0, 0));
        }
    }

    #[test]
    fn grid_distance_matches_bfs_on_small_ball() {
        // Compare the closed-form distance against BFS distances on a ball.
        use std::collections::VecDeque;
        let origin = Point::ORIGIN;
        let mut dist = std::collections::HashMap::new();
        dist.insert(origin, 0u32);
        let mut queue = VecDeque::from([origin]);
        while let Some(p) = queue.pop_front() {
            let d = dist[&p];
            if d >= 5 {
                continue;
            }
            for n in p.neighbors() {
                dist.entry(n).or_insert_with(|| {
                    queue.push_back(n);
                    d + 1
                });
            }
        }
        for (p, d) in dist {
            assert_eq!(origin.grid_distance(p), d, "distance mismatch at {p:?}");
        }
    }

    #[test]
    fn rotation_about_origin_permutes_directions() {
        for d in DIRECTIONS {
            let p = Point::ORIGIN.neighbor(d);
            let rotated = p.rotate_cw_about_origin(1);
            assert_eq!(rotated, Point::ORIGIN.neighbor(d.cw()), "rotating {d:?}");
        }
    }

    #[test]
    fn rotation_about_center_preserves_distance() {
        let center = Point::new(3, -2);
        let p = Point::new(7, 1);
        for steps in 0..6 {
            let r = p.rotate_cw_about(center, steps);
            assert_eq!(center.grid_distance(r), center.grid_distance(p));
        }
        assert_eq!(p.rotate_cw_about(center, 6), p);
    }

    #[test]
    fn ring_has_expected_size_and_distance() {
        let c = Point::new(-2, 5);
        for radius in 0u32..6 {
            let ring = c.ring(radius);
            let expected = if radius == 0 { 1 } else { 6 * radius as usize };
            assert_eq!(ring.len(), expected);
            // It starts `radius` steps east and turns clockwise.
            assert_eq!(ring[0], Point::new(c.q + radius as i32, c.r));
            if radius >= 1 {
                assert_eq!(ring[1], ring[0].neighbor(Direction::SW));
            }
            let unique: HashSet<_> = ring.iter().copied().collect();
            assert_eq!(unique.len(), ring.len(), "ring points must be distinct");
            for p in &ring {
                assert_eq!(c.grid_distance(*p), radius);
            }
            // Consecutive ring points (radius >= 1) are adjacent, and the ring
            // is closed.
            if radius >= 1 {
                for i in 0..ring.len() {
                    let a = ring[i];
                    let b = ring[(i + 1) % ring.len()];
                    assert!(a.is_adjacent(b), "ring not contiguous at index {i}");
                }
            }
        }
    }

    #[test]
    fn ball_size_formula() {
        for radius in 0u32..6 {
            let ball = Point::ORIGIN.ball(radius);
            let r = radius as usize;
            assert_eq!(ball.len(), 3 * r * (r + 1) + 1);
            let unique: HashSet<_> = ball.iter().copied().collect();
            assert_eq!(unique.len(), ball.len());
        }
    }

    #[test]
    fn point_arithmetic() {
        let a = Point::new(2, -3);
        let b = Point::new(-1, 4);
        assert_eq!(a + b, Point::new(1, 1));
        assert_eq!(a - b, Point::new(3, -7));
        assert_eq!(-a, Point::new(-2, 3));
        assert_eq!(Point::from((5, 6)), Point::new(5, 6));
        assert_eq!(format!("{}", a), "(2, -3)");
    }
}
