//! The position-range ring visitor against a cell-by-cell reference
//! visit, the outside-the-block visitor against the later rings, and the
//! item-ordered queries against brute force, on random networks.
//!
//! Networks mix a uniform scatter with tight clusters, so grids have
//! empty and crowded cells; query points are drawn beyond the endpoint
//! bounding box too, so their cells are clamped to the grid edges.

use proptest::prelude::*;
use rayfade_geometry::{Link, Network, Point};
use rayfade_spatial::SpatialGrid;

/// A network of `pts.len()` unit links whose senders are `pts`, with
/// `clustered` of them squeezed into a corner of the square.
fn network(pts: &[(f64, f64)], clustered: usize) -> Network {
    let mut net = Network::default();
    for (k, &(x, y)) in pts.iter().enumerate() {
        let s = if k < clustered {
            Point::new(x * 0.05, y * 0.05)
        } else {
            Point::new(x, y)
        };
        net.push(Link::new(s, Point::new(s.x + 1.0, s.y)));
    }
    net
}

/// The reference visit: the links of ring `m` around `(cx, cy)` cell by
/// cell — top row, then the left and right cell of each middle row,
/// then the bottom row, cells left to right, each cell's links
/// ascending; cells outside the grid skipped.
fn ring_links(grid: &SpatialGrid, cx: usize, cy: usize, m: usize) -> Vec<u32> {
    let (nx, ny) = grid.dims();
    let (cx, cy, m) = (cx as i64, cy as i64, m as i64);
    let mut cells = Vec::new();
    if m == 0 {
        cells.push((cx, cy));
    } else {
        cells.extend((cx - m..=cx + m).map(|x| (x, cy - m)));
        for y in cy - m + 1..cy + m {
            cells.extend([(cx - m, y), (cx + m, y)]);
        }
        cells.extend((cx - m..=cx + m).map(|x| (x, cy + m)));
    }
    let inside = |&(x, y): &(i64, i64)| (0..nx as i64).contains(&x) && (0..ny as i64).contains(&y);
    cells
        .into_iter()
        .filter(inside)
        .flat_map(|(x, y)| grid.in_cell(x as usize, y as usize).to_vec())
        .collect()
}

/// The links of the range visitor's positions, checking on the way
/// that each position's stored sender is its link's sender.
fn range_links(grid: &SpatialGrid, net: &Network, cx: usize, cy: usize, m: usize) -> Vec<u32> {
    let mut out = Vec::new();
    grid.for_each_range_in_ring(cx, cy, m, |range| {
        for k in range {
            let j = grid.items()[k];
            assert_eq!(grid.senders()[k], net.link(j as usize).sender);
            out.push(j);
        }
    });
    out
}

/// A cell size: tiny (many empty cells), moderate, or one cell for all.
fn cell_size(pick: usize, moderate: f64) -> f64 {
    [7.0, moderate, 5000.0][pick]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn range_visitor_yields_the_ring_sequence(
        pts in prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 0..120),
        clustered in 0usize..60,
        pick in 0usize..3,
        moderate in 20.0..400.0f64,
        queries in prop::collection::vec((-300.0..1300.0f64, -300.0..1300.0f64), 1..6),
    ) {
        let net = network(&pts, clustered);
        let grid = SpatialGrid::build(&net, cell_size(pick, moderate));
        for &(x, y) in &queries {
            let p = Point::new(x, y);
            let (cx, cy) = grid.cell_of(&p);
            let mut rings = Vec::new();
            loop {
                let m = rings.len();
                let ring = range_links(&grid, &net, cx, cy, m);
                prop_assert_eq!(
                    &ring,
                    &ring_links(&grid, cx, cy, m),
                    "ring {} around cell ({}, {})", m, cx, cy
                );
                rings.push(ring);
                if grid.exterior_distance(&p, cx, cy, m).is_none() {
                    break;
                }
            }
            // Outside the block of rings 0..=m: exactly the later rings.
            for m in 0..rings.len() {
                let mut outside = Vec::new();
                grid.for_each_range_outside(cx, cy, m, |range| {
                    outside.extend_from_slice(&grid.items()[range]);
                });
                outside.sort_unstable();
                let mut later = rings[m + 1..].concat();
                later.sort_unstable();
                prop_assert_eq!(outside, later, "outside ring {} around cell ({}, {})", m, cx, cy);
            }
        }
    }

    #[test]
    fn radius_and_k_nearest_match_brute_force(
        pts in prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 0..120),
        clustered in 0usize..60,
        pick in 0usize..3,
        moderate in 20.0..400.0f64,
        queries in prop::collection::vec((-300.0..1300.0f64, -300.0..1300.0f64), 1..6),
    ) {
        let net = network(&pts, clustered);
        let grid = SpatialGrid::build(&net, cell_size(pick, moderate));
        for &(x, y) in &queries {
            let p = Point::new(x, y);
            let dist = |j: usize| net.link(j).sender.distance(&p);
            for r in [0.0, 30.0, 250.0] {
                let want: Vec<usize> = (0..net.len()).filter(|&j| dist(j) <= r).collect();
                prop_assert_eq!(grid.radius_indices(&p, r), want);
            }
            let mut all: Vec<usize> = (0..net.len()).collect();
            all.sort_by(|&a, &b| dist(a).total_cmp(&dist(b)).then(a.cmp(&b)));
            for k in [1, 5, 40] {
                let want: Vec<usize> = all.iter().copied().take(k).collect();
                prop_assert_eq!(grid.k_nearest(&p, k), want);
            }
        }
    }
}
