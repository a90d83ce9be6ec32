//! Differential tests of the dense-grid shape generators against oracles:
//! the earlier versions that grew or carved a [`Shape`] one `BTreeSet`
//! insert or remove at a time. Both make the same RNG draws in the same
//! order, so they must build equal shapes for every size and seed.
//!
//! The `#[ignore]`d cases repeat the check at scale (a 100 000-point blob,
//! a radius-182 holey hexagon, a 66/33 annulus). Run them in release mode:
//!
//! ```text
//! cargo test --release -p pm-grid --test generator_oracle -- --ignored
//! ```

use pm_grid::builder::{annulus, dumbbell, hexagon, swiss_cheese};
use pm_grid::random::{
    k_hole_hexagon, random_blob, random_holey_hexagon, random_simply_connected_blob,
};
use pm_grid::{Point, Shape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Eden growth with one `BTreeSet` lookup per step.
fn oracle_blob(n: usize, seed: u64) -> Shape {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shape = Shape::from_points([Point::ORIGIN]);
    let mut frontier: Vec<Point> = Point::ORIGIN.neighbors().collect();
    while shape.len() < n {
        let idx = rng.gen_range(0..frontier.len());
        let p = frontier.swap_remove(idx);
        if shape.contains(p) {
            continue;
        }
        shape.insert(p);
        frontier.extend(p.neighbors().filter(|q| !shape.contains(*q)));
    }
    shape
}

/// The blob with its holes filled through a full analysis of the unfilled
/// blob.
fn oracle_simply_connected_blob(n: usize, seed: u64) -> Shape {
    oracle_blob(n, seed).area()
}

/// Hole punching with up to 42 `BTreeSet` lookups per candidate.
fn oracle_punch_holes(shape: &mut Shape, radius: u32, budget: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<Point> = Point::ORIGIN.ball(radius.saturating_sub(2));
    candidates.shuffle(&mut rng);
    let mut punched = 0;
    for p in candidates {
        if punched >= budget {
            break;
        }
        let safe = p
            .neighbors()
            .all(|q| shape.contains(q) && q.neighbors().all(|r| r == p || shape.contains(r)));
        if safe {
            shape.remove(p);
            punched += 1;
        }
    }
}

fn oracle_holey_hexagon(radius: u32, hole_fraction: f64, seed: u64) -> Shape {
    let mut shape = hexagon(radius);
    if radius < 2 {
        return shape;
    }
    let budget = ((shape.len() as f64) * hole_fraction.clamp(0.0, 0.4)) as usize;
    oracle_punch_holes(&mut shape, radius, budget, seed);
    shape
}

fn oracle_k_hole_hexagon(radius: u32, holes: u32, seed: u64) -> Shape {
    let mut shape = hexagon(radius);
    if radius < 2 {
        return shape;
    }
    oracle_punch_holes(&mut shape, radius, holes as usize, seed);
    shape
}

fn oracle_annulus(outer: u32, inner: u32) -> Shape {
    let mut s = hexagon(outer);
    for p in Point::ORIGIN.ball(inner) {
        s.remove(p);
    }
    s
}

fn oracle_swiss_cheese(radius: u32, spacing: u32) -> Shape {
    let spacing = spacing.max(2) as i32;
    let mut s = hexagon(radius);
    if radius < 2 {
        return s;
    }
    for p in Point::ORIGIN.ball(radius - 1) {
        if Point::ORIGIN.grid_distance(p) >= radius {
            continue;
        }
        let on_pattern =
            p.q.rem_euclid(spacing) == 0 && p.r.rem_euclid(spacing) == 0 && p != Point::ORIGIN;
        if on_pattern
            && p.neighbors()
                .all(|n| s.contains(n) && n.neighbors().filter(|m| !s.contains(*m)).count() == 0)
        {
            s.remove(p);
        }
    }
    s
}

fn oracle_dumbbell(radius: u32, corridor: u32) -> Shape {
    let mut shape = hexagon(radius);
    let offset = Point::new((2 * radius + corridor + 1) as i32, 0);
    for p in Point::ORIGIN.ball(radius) {
        shape.insert(p + offset);
    }
    for i in 0..=(2 * radius + corridor) as i32 {
        shape.insert(Point::new(i, 0));
    }
    shape
}

fn assert_blobs_match(n: usize, seed: u64) {
    assert_eq!(
        random_blob(n, seed),
        oracle_blob(n, seed),
        "blob n={n} seed={seed}"
    );
    assert_eq!(
        random_simply_connected_blob(n, seed),
        oracle_simply_connected_blob(n, seed),
        "filled blob n={n} seed={seed}"
    );
}

fn assert_holey_match(radius: u32, hole_fraction: f64, seed: u64) {
    assert_eq!(
        random_holey_hexagon(radius, hole_fraction, seed),
        oracle_holey_hexagon(radius, hole_fraction, seed),
        "holey radius={radius} fraction={hole_fraction} seed={seed}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blobs_match_the_oracle(n in 0usize..600, seed in any::<u64>()) {
        prop_assert_eq!(random_blob(n, seed), oracle_blob(n, seed));
        prop_assert_eq!(
            random_simply_connected_blob(n, seed),
            oracle_simply_connected_blob(n, seed)
        );
    }

    #[test]
    fn holey_hexagons_match_the_oracle(
        radius in 0u32..14,
        percent in 0u32..50,
        holes in 0u32..40,
        seed in any::<u64>(),
    ) {
        let fraction = f64::from(percent) / 100.0;
        prop_assert_eq!(
            random_holey_hexagon(radius, fraction, seed),
            oracle_holey_hexagon(radius, fraction, seed)
        );
        prop_assert_eq!(
            k_hole_hexagon(radius, holes, seed),
            oracle_k_hole_hexagon(radius, holes, seed)
        );
    }

    #[test]
    fn parametric_builders_match_the_oracle(
        outer in 1u32..16,
        inner in 0u32..15,
        spacing in 0u32..6,
        corridor in 0u32..12,
    ) {
        let inner = inner % outer;
        prop_assert_eq!(annulus(outer, inner), oracle_annulus(outer, inner));
        prop_assert_eq!(swiss_cheese(outer, spacing), oracle_swiss_cheese(outer, spacing));
        prop_assert_eq!(dumbbell(outer, corridor), oracle_dumbbell(outer, corridor));
    }
}

#[test]
fn perfbench_blob_size_matches_the_oracle() {
    for seed in 0..20 {
        assert_blobs_match(2000, seed);
    }
}

#[test]
fn perfbench_holey_size_matches_the_oracle() {
    for seed in 0..20 {
        assert_holey_match(25, 0.12, seed);
    }
}

#[test]
fn a_blob_that_outgrows_the_starting_rectangle_matches_the_oracle() {
    // A 20 000-point blob spans about 180 cells in each axial direction,
    // several doublings of the index's starting rectangle.
    let blob = random_blob(20_000, 5);
    let (min, max) = blob.bounding_box().unwrap();
    assert!(max.q - min.q > 100 && max.r - min.r > 100, "{min} {max}");
    assert_blobs_match(20_000, 5);
}

#[test]
fn small_and_degenerate_sizes_match_the_oracle() {
    for n in 0..8 {
        assert_blobs_match(n, 3);
    }
    for radius in 0..4 {
        assert_holey_match(radius, 0.4, 9);
        assert_eq!(
            k_hole_hexagon(radius, 50, 9),
            oracle_k_hole_hexagon(radius, 50, 9)
        );
        assert_eq!(swiss_cheese(radius, 2), oracle_swiss_cheese(radius, 2));
        assert_eq!(dumbbell(radius, 0), oracle_dumbbell(radius, 0));
    }
    assert_eq!(annulus(1, 0), oracle_annulus(1, 0));
}

#[test]
#[ignore = "at scale: run in release with --ignored"]
fn blob_of_100_000_matches_the_oracle() {
    assert_blobs_match(100_000, 1);
}

#[test]
#[ignore = "at scale: run in release with --ignored"]
fn holey_radius_182_matches_the_oracle() {
    assert_holey_match(182, 0.12, 1);
}

#[test]
#[ignore = "at scale: run in release with --ignored"]
fn annulus_66_33_matches_the_oracle() {
    assert_eq!(annulus(66, 33), oracle_annulus(66, 33));
}
