//! Convenience constructors for shapes: ASCII art parsing/rendering and
//! simple parametric families.
//!
//! The seeded random families live in [`crate::random`]; this module only
//! contains the deterministic, dependency-free constructors that the
//! geometry tests and the documentation use.

use crate::coords::Point;
use crate::index::{GridIndex, GridRect};
use crate::shape::Shape;

/// Parses a shape from ASCII art.
///
/// Every line is a row of the triangular grid (row index is the axial `r`
/// coordinate); the `i`-th non-space character of a row sits at axial
/// `q = i - r_offset` where column positions are taken verbatim (column index
/// is the axial `q` coordinate). Occupied cells are marked `#`, `X`, `x`, or
/// `*`; every other character is empty. Because axial rows are sheared, a
/// row's indentation simply selects different `q` values; this keeps parsing
/// deterministic and round-trippable with [`to_ascii`].
///
/// ```
/// use pm_grid::builder::parse_ascii;
/// let shape = parse_ascii("###\n##\n#");
/// assert_eq!(shape.len(), 6);
/// assert!(shape.is_connected());
/// ```
pub fn parse_ascii(art: &str) -> Shape {
    let mut points = Vec::new();
    for (r, line) in art.lines().enumerate() {
        for (q, ch) in line.chars().enumerate() {
            if matches!(ch, '#' | 'X' | 'x' | '*') {
                points.push(Point::new(q as i32, r as i32));
            }
        }
    }
    Shape::from_points(points)
}

/// Renders a shape as ASCII art (inverse of [`parse_ascii`] up to
/// translation): occupied cells are `#`, hole cells are `o`, other cells are
/// `.`. Rows are axial `r`, columns axial `q`.
pub fn to_ascii(shape: &Shape) -> String {
    let Some((min, max)) = shape.bounding_box() else {
        return String::new();
    };
    let analysis = shape.analyze();
    let mut out = String::new();
    for r in min.r..=max.r {
        for q in min.q..=max.q {
            let p = Point::new(q, r);
            let ch = if shape.contains(p) {
                '#'
            } else if analysis.is_hole_point(p) {
                'o'
            } else {
                '.'
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// A straight line of `n` points heading east from the origin.
pub fn line(n: u32) -> Shape {
    Shape::from_points((0..n as i32).map(|i| Point::new(i, 0)))
}

/// A filled hexagonal ball of the given radius around the origin
/// (`3r(r+1)+1` points, diameter `2r`).
pub fn hexagon(radius: u32) -> Shape {
    Shape::from_points(Point::ORIGIN.ball(radius))
}

/// A filled parallelogram (rhombus) with the given side lengths.
pub fn parallelogram(width: u32, height: u32) -> Shape {
    let mut pts = Vec::new();
    for q in 0..width as i32 {
        for r in 0..height as i32 {
            pts.push(Point::new(q, r));
        }
    }
    Shape::from_points(pts)
}

/// An annulus: the ball of radius `outer` minus the ball of radius `inner`
/// (requires `inner < outer`); it has exactly one hole when `inner >= 0`.
///
/// # Panics
///
/// Panics if `inner >= outer`.
pub fn annulus(outer: u32, inner: u32) -> Shape {
    assert!(inner < outer, "annulus requires inner < outer");
    Shape::from_points(
        Point::ORIGIN
            .ball(outer)
            .into_iter()
            .filter(|p| Point::ORIGIN.grid_distance(*p) > inner),
    )
}

/// A "Swiss cheese" hexagon: the ball of radius `radius` with a regular
/// pattern of single-point holes punched every `spacing` cells (holes are
/// kept off the outer boundary so the shape stays connected).
pub fn swiss_cheese(radius: u32, spacing: u32) -> Shape {
    let spacing = spacing.max(2) as i32;
    if radius < 2 {
        return hexagon(radius);
    }
    let mut ball = ball_index(radius);
    for p in Point::ORIGIN.ball(radius - 1) {
        if p.q.rem_euclid(spacing) == 0 && p.r.rem_euclid(spacing) == 0 && p != Point::ORIGIN {
            punch_hole(&mut ball, p);
        }
    }
    Shape::from_points(ball.iter())
}

/// The hexagonal ball of the given radius around the origin as a dense
/// index over its bounding box.
pub(crate) fn ball_index(radius: u32) -> GridIndex {
    let r = radius as i32;
    let mut ball = GridIndex::empty(GridRect::new(Point::new(-r, -r), Point::new(r, r)));
    for p in Point::ORIGIN.ball(radius) {
        ball.insert(p);
    }
    ball
}

/// Removes `p` if every point within grid distance 2 of it is a member, so
/// the new single-point hole merges neither with another hole nor with the
/// outer face, and the shape stays connected. Returns whether `p` was
/// removed.
pub(crate) fn punch_hole(index: &mut GridIndex, p: Point) -> bool {
    let surrounded = (-2..=2).all(|q| {
        (-2..=2).all(|r| {
            let d = Point::new(q, r);
            Point::ORIGIN.grid_distance(d) > 2 || index.contains(p + d)
        })
    });
    surrounded && index.remove(p)
}

/// A comb: a spine of `teeth` points with a tooth of length `tooth_len`
/// hanging from every other spine point. Combs have large diameter relative
/// to their point count and exercise the erosion worst cases.
pub fn comb(teeth: u32, tooth_len: u32) -> Shape {
    let mut pts = Vec::new();
    for i in 0..(2 * teeth.max(1)) as i32 {
        pts.push(Point::new(i, 0));
        if i % 2 == 0 {
            for j in 1..=tooth_len as i32 {
                pts.push(Point::new(i, j));
            }
        }
    }
    Shape::from_points(pts)
}

/// A connected "dumbbell": two hexagonal balls of the given radius joined by
/// a thin corridor of the given length. Its diameter is much larger than the
/// diameter suggested by its point count, stressing diameter-sensitive
/// algorithms.
pub fn dumbbell(radius: u32, corridor: u32) -> Shape {
    let offset = Point::new((2 * radius + corridor + 1) as i32, 0);
    let ball = Point::ORIGIN.ball(radius);
    let right = ball.iter().map(|p| *p + offset);
    let bar = (0..=(2 * radius + corridor) as i32).map(|i| Point::new(i, 0));
    Shape::from_points(ball.iter().copied().chain(right).chain(bar))
}

/// A hexagonal spiral of `n` points: the ball-filling order `origin, ring 1,
/// ring 2, …` truncated to `n` points. Always connected and simply-connected.
pub fn spiral(n: u32) -> Shape {
    let mut pts = Vec::new();
    let mut radius = 0;
    while pts.len() < n as usize {
        pts.extend(Point::ORIGIN.ring(radius));
        radius += 1;
    }
    pts.truncate(n as usize);
    Shape::from_points(pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_round_trip() {
        let s = annulus(2, 0);
        let art = to_ascii(&s);
        assert!(art.contains('#'));
        assert!(art.contains('o'), "hole should render as 'o':\n{art}");
        let reparsed = parse_ascii(&art);
        // Parsing loses the translation but must preserve size and hole count.
        assert_eq!(reparsed.len(), s.len());
        assert_eq!(reparsed.analyze().hole_count(), s.analyze().hole_count());
    }

    #[test]
    fn parse_ascii_shapes() {
        let s = parse_ascii("###\n###\n###");
        assert_eq!(s.len(), 9);
        assert!(s.is_connected());
        let with_hole = parse_ascii("####\n#.##\n####\n####");
        assert_eq!(with_hole.analyze().hole_count(), 1);
    }

    #[test]
    fn parametric_families_basic_properties() {
        assert_eq!(line(5).len(), 5);
        assert!(line(5).is_connected());

        let hexa = hexagon(3);
        assert_eq!(hexa.len(), 37);
        assert!(hexa.is_simply_connected());

        let para = parallelogram(4, 3);
        assert_eq!(para.len(), 12);
        assert!(para.is_connected());
        assert!(para.is_simply_connected());

        let ann = annulus(4, 1);
        assert!(ann.is_connected());
        assert_eq!(ann.analyze().hole_count(), 1);

        let comb_shape = comb(4, 3);
        assert!(comb_shape.is_connected());
        assert!(comb_shape.is_simply_connected());

        let spi = spiral(23);
        assert_eq!(spi.len(), 23);
        assert!(spi.is_connected());
        assert!(spi.is_simply_connected());
    }

    #[test]
    fn swiss_cheese_has_holes_and_stays_connected() {
        let s = swiss_cheese(6, 3);
        assert!(s.is_connected());
        assert!(s.analyze().hole_count() >= 1, "expected at least one hole");
        // Holes must be single points by construction.
        for hole in s.analyze().holes() {
            assert_eq!(hole.len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "annulus requires inner < outer")]
    fn annulus_validates_arguments() {
        let _ = annulus(2, 3);
    }

    #[test]
    fn dumbbell_is_connected_with_large_diameter() {
        let s = dumbbell(3, 10);
        assert!(s.is_connected());
        assert!(s.is_simply_connected());
        let metric = crate::Metric::new(&s);
        let d = metric.grid_diameter();
        assert!(d as usize >= 20, "diameter {d} should exceed the corridor");
    }
}
