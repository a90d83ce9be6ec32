//! Seeded random shape families.
//!
//! Every generator is deterministic given its parameters and seed, so random
//! workloads are exactly reproducible across runs, machines and thread
//! counts. The deterministic parametric families live in [`crate::builder`];
//! `pm-scenarios` re-exports both behind its generator registry, which is the
//! single import surface for workload shapes.
//!
//! The generators that grow or carve a shape point by point do so on a
//! dense [`GridIndex`] and build the [`Shape`] once, from the finished
//! points.

use crate::builder::{ball_index, hexagon, punch_hole};
use crate::coords::Point;
use crate::index::{GridIndex, GridRect};
use crate::shape::Shape;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A random connected "blob" of exactly `n` points, grown by repeatedly
/// attaching a uniformly random empty neighbour of the current shape
/// (Eden-model growth). May contain holes.
///
/// Deterministic given `(n, seed)`.
pub fn random_blob(n: usize, seed: u64) -> Shape {
    Shape::from_points(grow_blob(n, seed).iter())
}

/// A random connected, **simply-connected** blob of at least `n` points: a
/// [`random_blob`] whose holes are filled in afterwards (so the point count
/// may slightly exceed `n`).
pub fn random_simply_connected_blob(n: usize, seed: u64) -> Shape {
    let mut blob = grow_blob(n, seed);
    // Every cell off the outer face is a blob point or a hole point.
    let outer = blob.outer_face();
    let rect = *blob.rect();
    for cell in (0..rect.cells()).filter(|c| !outer[*c]) {
        blob.insert(rect.point(cell));
    }
    let filled = Shape::from_points(blob.iter());
    debug_assert!(filled.is_simply_connected());
    filled
}

/// The Eden growth behind [`random_blob`], on an index that starts around
/// the origin and grows with the blob.
fn grow_blob(n: usize, seed: u64) -> GridIndex {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut blob = GridIndex::empty(GridRect::new(Point::new(-8, -8), Point::new(8, 8)));
    blob.insert(Point::ORIGIN);
    let mut frontier: Vec<Point> = Point::ORIGIN.neighbors().collect();
    while blob.len() < n {
        let idx = rng.gen_range(0..frontier.len());
        let p = frontier.swap_remove(idx);
        if blob.insert_growing(p) {
            frontier.extend(p.neighbors().filter(|q| !blob.contains(*q)));
        }
    }
    blob
}

/// A hexagonal ball of the given radius with approximately
/// `hole_fraction · n` interior points removed as single-point holes.
///
/// Holes are only punched at points whose entire 2-hop neighbourhood is
/// occupied and hole-free, so every hole is a single point, holes never merge
/// with each other or with the outer face, and the shape stays connected.
/// Deterministic given `(radius, hole_fraction, seed)`.
pub fn random_holey_hexagon(radius: u32, hole_fraction: f64, seed: u64) -> Shape {
    let r = radius as usize;
    let ball_len = 3 * r * (r + 1) + 1;
    let budget = ((ball_len as f64) * hole_fraction.clamp(0.0, 0.4)) as usize;
    punch_holes(radius, budget, seed)
}

/// A hexagonal ball of the given radius with **exactly** `holes` single-point
/// holes punched at seeded random interior positions (fewer if the radius
/// cannot accommodate that many mutually separated holes).
///
/// Deterministic given `(radius, holes, seed)`.
pub fn k_hole_hexagon(radius: u32, holes: u32, seed: u64) -> Shape {
    punch_holes(radius, holes as usize, seed)
}

/// The hexagonal ball of the given radius with up to `budget` single-point
/// holes punched at seeded random candidates, keeping every hole's full
/// 2-hop neighbourhood occupied (holes never merge with each other or with
/// the outer face, and the shape stays connected). Balls of radius below 2
/// have no room for a hole.
fn punch_holes(radius: u32, budget: usize, seed: u64) -> Shape {
    if radius < 2 {
        return hexagon(radius);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<Point> = Point::ORIGIN.ball(radius - 2);
    candidates.shuffle(&mut rng);
    let mut ball = ball_index(radius);
    let mut punched = 0;
    for p in candidates {
        if punched >= budget {
            break;
        }
        if punch_hole(&mut ball, p) {
            punched += 1;
        }
    }
    Shape::from_points(ball.iter())
}

/// A "caterpillar": a straight spine of `spine` points heading east with a
/// tooth of seeded random length `0..=max_tooth` hanging south of every spine
/// point. Always connected and simply-connected; its diameter is large
/// relative to its point count, like a comb, but irregular.
///
/// Deterministic given `(spine, max_tooth, seed)`.
pub fn caterpillar(spine: u32, max_tooth: u32, seed: u64) -> Shape {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::new();
    for i in 0..spine.max(1) as i32 {
        pts.push(Point::new(i, 0));
        let tooth = rng.gen_range(0..max_tooth + 1);
        for j in 1..=tooth as i32 {
            pts.push(Point::new(i, j));
        }
    }
    Shape::from_points(pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_blob_is_connected_and_deterministic() {
        let a = random_blob(100, 7);
        let b = random_blob(100, 7);
        let c = random_blob(100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        assert!(a.is_connected());
    }

    #[test]
    fn simply_connected_blob_has_no_holes() {
        for seed in 0..5 {
            let s = random_simply_connected_blob(200, seed);
            assert!(s.len() >= 200);
            assert!(s.is_connected());
            assert!(s.is_simply_connected());
        }
    }

    #[test]
    fn holey_hexagon_properties() {
        let s = random_holey_hexagon(8, 0.1, 3);
        assert!(s.is_connected());
        let analysis = s.analyze();
        assert!(analysis.hole_count() >= 1);
        for hole in analysis.holes() {
            assert_eq!(hole.len(), 1, "holes must be single points");
        }
    }

    #[test]
    fn holey_hexagon_small_radius_is_plain() {
        assert_eq!(random_holey_hexagon(1, 0.3, 1), hexagon(1));
    }

    #[test]
    fn k_hole_hexagon_punches_exactly_k() {
        for (radius, holes) in [(5u32, 1u32), (6, 3), (8, 5)] {
            let s = k_hole_hexagon(radius, holes, 13);
            assert!(s.is_connected());
            assert_eq!(s.analyze().hole_count(), holes as usize);
        }
        // A radius too small for the request punches what fits.
        let tiny = k_hole_hexagon(2, 50, 1);
        assert!(tiny.is_connected());
        assert!(tiny.analyze().hole_count() <= 1);
    }

    #[test]
    fn caterpillar_is_connected_and_deterministic() {
        let a = caterpillar(12, 4, 5);
        assert_eq!(a, caterpillar(12, 4, 5));
        assert!(a.is_connected());
        assert!(a.is_simply_connected());
        assert!(a.len() >= 12);
        // With max_tooth = 0 the caterpillar degenerates to a line.
        assert_eq!(caterpillar(9, 0, 1), crate::builder::line(9));
    }
}
