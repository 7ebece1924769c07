//! Uniform-grid spatial index over network senders.
//!
//! Buckets the sender of every link into square cells of a fixed size,
//! with deterministic iteration order (cells row-major, link indices
//! ascending within a cell). Sender positions are stored in that same
//! *item order*, so the cells of one grid row segment are one contiguous
//! run of positions. The index answers three kinds of questions:
//!
//! * membership — which senders fall in a given cell
//!   ([`SpatialGrid::in_cell`]), in a Chebyshev ring of cells or outside
//!   a block of them, as contiguous position ranges
//!   ([`SpatialGrid::for_each_range_in_ring`],
//!   [`SpatialGrid::for_each_range_outside`]),
//! * proximity — all senders within a radius
//!   ([`SpatialGrid::radius_indices`]) or the k nearest senders
//!   ([`SpatialGrid::k_nearest`]), and
//! * certified exclusion — a lower bound on the distance from a point to
//!   every sender *outside* an examined block of cells
//!   ([`SpatialGrid::exterior_distance`]), which is what the sparse-ratio
//!   builder's ring expansion uses to stop early with a certificate.
//!
//! The grid covers the bounding box of **all** link endpoints (senders
//! and receivers), so a receiver always lies inside its own cell and the
//! exterior-distance bound is valid for ring expansion around any
//! receiver.

use rayfade_geometry::{BoundingBox, Network, Point};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Hard cap on the number of grid cells — catches pathologically small
/// cell sizes before they allocate gigabytes of offsets.
const MAX_CELLS: u64 = 1 << 24;

/// Uniform grid over the senders of a [`Network`] (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialGrid {
    cell: f64,
    origin: Point,
    nx: usize,
    ny: usize,
    /// CSR over cells in row-major `(cy, cx)` order:
    /// cell `(cx, cy)` holds `items[cell_start[cy*nx+cx]..cell_start[cy*nx+cx+1]]`.
    cell_start: Vec<usize>,
    /// Link index per position: cells in row-major order, link indices
    /// ascending within each cell.
    items: Vec<u32>,
    /// Sender of `items[k]` at position `k` (item order).
    senders: Vec<Point>,
}

impl SpatialGrid {
    /// Builds the grid with the given cell size over the bounding box of
    /// all link endpoints.
    ///
    /// # Panics
    /// If `cell` is not finite and positive, the box would need more than
    /// 2²⁴ cells, or the network holds more than `u32::MAX` links.
    pub fn build(network: &Network, cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell size must be finite and > 0"
        );
        let n = network.len();
        assert!(n <= u32::MAX as usize, "link index must fit in u32");
        let bbox = network
            .bounding_box()
            .unwrap_or_else(|| BoundingBox::square(0.0));
        let nx = Self::axis_cells(bbox.width(), cell);
        let ny = Self::axis_cells(bbox.height(), cell);
        assert!(
            (nx as u64) * (ny as u64) <= MAX_CELLS,
            "cell size {cell} is too small for the indexed area ({nx}x{ny} cells)"
        );
        let origin = bbox.lo;
        let index_of = |p: &Point| -> usize {
            let (cx, cy) = Self::clamped_cell(p, &origin, cell, nx, ny);
            cy * nx + cx
        };
        // Counting sort: deterministic, items ascending per cell because
        // links are visited in index order.
        let mut cell_start = vec![0usize; nx * ny + 1];
        for (_, link) in network.iter() {
            cell_start[index_of(&link.sender) + 1] += 1;
        }
        for c in 0..nx * ny {
            cell_start[c + 1] += cell_start[c];
        }
        let mut cursor = cell_start.clone();
        let mut items = vec![0u32; n];
        let mut senders = vec![Point::ORIGIN; n];
        for (j, link) in network.iter() {
            let c = index_of(&link.sender);
            items[cursor[c]] = j as u32;
            senders[cursor[c]] = link.sender;
            cursor[c] += 1;
        }
        SpatialGrid {
            cell,
            origin,
            nx,
            ny,
            cell_start,
            items,
            senders,
        }
    }

    fn axis_cells(extent: f64, cell: f64) -> usize {
        if extent <= 0.0 {
            1
        } else {
            (extent / cell).floor() as usize + 1
        }
    }

    fn clamped_cell(p: &Point, origin: &Point, cell: f64, nx: usize, ny: usize) -> (usize, usize) {
        let ix = ((p.x - origin.x) / cell).floor();
        let iy = ((p.y - origin.y) / cell).floor();
        let cx = (ix.max(0.0) as usize).min(nx - 1);
        let cy = (iy.max(0.0) as usize).min(ny - 1);
        (cx, cy)
    }

    /// Number of indexed links.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the grid indexes no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The cell side length.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Grid dimensions `(nx, ny)` in cells.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// The cell containing `p`, clamped into the grid.
    #[inline]
    pub fn cell_of(&self, p: &Point) -> (usize, usize) {
        Self::clamped_cell(p, &self.origin, self.cell, self.nx, self.ny)
    }

    /// Link indices whose sender falls in cell `(cx, cy)`, ascending.
    #[inline]
    pub fn in_cell(&self, cx: usize, cy: usize) -> &[u32] {
        &self.items[self.row_segment(cy, cx, cx)]
    }

    /// Link index at every position (item order: cells row-major, link
    /// indices ascending within a cell).
    #[inline]
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Sender at every position, in the item order of
    /// [`items`](Self::items).
    #[inline]
    pub fn senders(&self) -> &[Point] {
        &self.senders
    }

    /// Positions of the cells `x_lo..=x_hi` of grid row `y`: cells are
    /// laid out row-major, so the segment is one contiguous range.
    #[inline]
    fn row_segment(&self, y: usize, x_lo: usize, x_hi: usize) -> Range<usize> {
        let base = y * self.nx;
        self.cell_start[base + x_lo]..self.cell_start[base + x_hi + 1]
    }

    /// Calls `f` with position ranges (into [`items`](Self::items) and
    /// [`senders`](Self::senders)) that together hold exactly the senders
    /// in the Chebyshev ring of cell-distance `m` around `(cx, cy)` (ring
    /// 0 is the cell itself). Cells outside the grid are skipped. The
    /// order is deterministic, one range per clipped grid row segment:
    /// the top row, then the left and right cell of each middle row, then
    /// the bottom row — the cells left to right, each cell's links
    /// ascending. Ranges may be empty.
    pub fn for_each_range_in_ring<F: FnMut(Range<usize>)>(
        &self,
        cx: usize,
        cy: usize,
        m: usize,
        mut f: F,
    ) {
        let (nx, ny) = (self.nx as i64, self.ny as i64);
        let (cx, cy, m) = (cx as i64, cy as i64, m as i64);
        let mut segment = |y: i64, x_lo: i64, x_hi: i64| {
            let (x_lo, x_hi) = (x_lo.max(0), x_hi.min(nx - 1));
            if (0..ny).contains(&y) && x_lo <= x_hi {
                f(self.row_segment(y as usize, x_lo as usize, x_hi as usize));
            }
        };
        if m == 0 {
            segment(cy, cx, cx);
            return;
        }
        segment(cy - m, cx - m, cx + m);
        for y in (cy - m + 1).max(0)..=(cy + m - 1).min(ny - 1) {
            segment(y, cx - m, cx - m);
            segment(y, cx + m, cx + m);
        }
        segment(cy + m, cx - m, cx + m);
    }

    /// Calls `f` with position ranges that together hold exactly the
    /// senders *outside* the block of cells `[cx−m, cx+m] × [cy−m, cy+m]`
    /// — everything the rings `0..=m` around `(cx, cy)` did not visit:
    /// grid rows bottom to top, each as the part left of the block and
    /// the part right of it (the whole row when the block misses it).
    /// Ranges may be empty.
    pub fn for_each_range_outside<F: FnMut(Range<usize>)>(
        &self,
        cx: usize,
        cy: usize,
        m: usize,
        mut f: F,
    ) {
        let last = self.nx - 1;
        for y in 0..self.ny {
            if y + m < cy || y > cy + m {
                f(self.row_segment(y, 0, last));
                continue;
            }
            if cx > m {
                f(self.row_segment(y, 0, cx - m - 1));
            }
            if cx + m < last {
                f(self.row_segment(y, cx + m + 1, last));
            }
        }
    }

    /// Lower bound on the distance from `p` to any indexed sender
    /// *outside* the block of cells `[cx−m, cx+m] × [cy−m, cy+m]`, or
    /// `None` when the block already covers the whole grid (nothing is
    /// outside).
    ///
    /// Valid for any `p` inside cell `(cx, cy)` — in particular for any
    /// link endpoint and its own cell, since the grid covers the full
    /// endpoint bounding box. This is the certificate behind the sparse
    /// builder's early ring-expansion stop.
    pub fn exterior_distance(&self, p: &Point, cx: usize, cy: usize, m: usize) -> Option<f64> {
        let lo_x = cx.saturating_sub(m);
        let hi_x = (cx + m).min(self.nx - 1);
        let lo_y = cy.saturating_sub(m);
        let hi_y = (cy + m).min(self.ny - 1);
        if lo_x == 0 && hi_x == self.nx - 1 && lo_y == 0 && hi_y == self.ny - 1 {
            return None;
        }
        let mut d = f64::INFINITY;
        if lo_x > 0 {
            d = d.min(p.x - (self.origin.x + lo_x as f64 * self.cell));
        }
        if hi_x < self.nx - 1 {
            d = d.min(self.origin.x + (hi_x + 1) as f64 * self.cell - p.x);
        }
        if lo_y > 0 {
            d = d.min(p.y - (self.origin.y + lo_y as f64 * self.cell));
        }
        if hi_y < self.ny - 1 {
            d = d.min(self.origin.y + (hi_y + 1) as f64 * self.cell - p.y);
        }
        Some(d.max(0.0))
    }

    /// All link indices whose sender lies within distance `r` of `p`,
    /// ascending.
    pub fn radius_indices(&self, p: &Point, r: f64) -> Vec<usize> {
        assert!(r.is_finite() && r >= 0.0, "radius must be finite and >= 0");
        let (lo_cx, lo_cy) = self.cell_of(&Point::new(p.x - r, p.y - r));
        let (hi_cx, hi_cy) = self.cell_of(&Point::new(p.x + r, p.y + r));
        let mut out = Vec::new();
        for cy in lo_cy..=hi_cy {
            for k in self.row_segment(cy, lo_cx, hi_cx) {
                if self.senders[k].distance(p) <= r {
                    out.push(self.items[k] as usize);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The `k` indexed senders nearest to `p`, ordered by distance
    /// (ties by link index). Returns fewer than `k` only when the grid
    /// indexes fewer links.
    pub fn k_nearest(&self, p: &Point, k: usize) -> Vec<usize> {
        let k = k.min(self.len());
        if k == 0 {
            return Vec::new();
        }
        let (cx, cy) = self.cell_of(p);
        let mut cand: Vec<(f64, u32)> = Vec::new();
        let mut m = 0usize;
        loop {
            self.for_each_range_in_ring(cx, cy, m, |range| {
                for k in range {
                    cand.push((self.senders[k].distance(p), self.items[k]));
                }
            });
            match self.exterior_distance(p, cx, cy, m) {
                None => break, // everything examined
                Some(bound) => {
                    if cand.len() >= k {
                        cand.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                        if cand[k - 1].0 <= bound {
                            break;
                        }
                    }
                }
            }
            m += 1;
        }
        cand.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        cand.truncate(k);
        cand.into_iter().map(|(_, j)| j as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::Link;

    /// The links of ring `m` around `(cx, cy)`, in visit order.
    fn ring(g: &SpatialGrid, cx: usize, cy: usize, m: usize) -> Vec<u32> {
        let mut out = Vec::new();
        g.for_each_range_in_ring(cx, cy, m, |r| out.extend_from_slice(&g.items()[r]));
        out
    }

    /// A 3×3 lattice of unit links: sender of link (i, j) at (10i, 10j).
    fn lattice() -> Network {
        let mut net = Network::default();
        for gy in 0..3 {
            for gx in 0..3 {
                let s = Point::new(10.0 * gx as f64, 10.0 * gy as f64);
                let r = Point::new(s.x + 1.0, s.y);
                net.push(Link::new(s, r));
            }
        }
        net
    }

    #[test]
    fn build_is_deterministic_and_buckets_every_sender() {
        let net = lattice();
        let g1 = SpatialGrid::build(&net, 5.0);
        let g2 = SpatialGrid::build(&net, 5.0);
        assert_eq!(g1, g2);
        assert_eq!(g1.len(), 9);
        let mut seen: Vec<u32> = Vec::new();
        let (nx, ny) = g1.dims();
        for cy in 0..ny {
            for cx in 0..nx {
                seen.extend_from_slice(g1.in_cell(cx, cy));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn rings_partition_the_grid() {
        let net = lattice();
        let g = SpatialGrid::build(&net, 4.0);
        let (cx, cy) = g.cell_of(&Point::new(10.0, 10.0));
        let mut seen = Vec::new();
        for m in 0..16 {
            seen.extend(ring(&g, cx, cy, m));
            if g.exterior_distance(&Point::new(10.0, 10.0), cx, cy, m)
                .is_none()
            {
                break;
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>(), "each sender exactly once");
    }

    #[test]
    fn exterior_distance_is_a_true_lower_bound() {
        let net = lattice();
        let g = SpatialGrid::build(&net, 4.0);
        let p = Point::new(11.0, 9.0);
        let (cx, cy) = g.cell_of(&p);
        for m in 0..4 {
            let Some(bound) = g.exterior_distance(&p, cx, cy, m) else {
                break;
            };
            // Every sender outside the examined block must be at least
            // `bound` away.
            let mut inside = Vec::new();
            for mm in 0..=m {
                inside.extend(ring(&g, cx, cy, mm));
            }
            for j in 0..net.len() as u32 {
                if !inside.contains(&j) {
                    let d = net.link(j as usize).sender.distance(&p);
                    assert!(d >= bound, "ring {m}: sender {j} at {d} < bound {bound}");
                }
            }
        }
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let net = lattice();
        let g = SpatialGrid::build(&net, 3.0);
        let p = Point::new(12.0, 7.0);
        for r in [0.0, 5.0, 11.0, 40.0] {
            let want: Vec<usize> = (0..net.len())
                .filter(|&j| net.link(j).sender.distance(&p) <= r)
                .collect();
            assert_eq!(g.radius_indices(&p, r), want, "r = {r}");
        }
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let net = lattice();
        let g = SpatialGrid::build(&net, 3.0);
        let p = Point::new(1.0, 2.0);
        let mut all: Vec<(f64, usize)> = (0..net.len())
            .map(|j| (net.link(j).sender.distance(&p), j))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for k in [0, 1, 4, 9, 20] {
            let want: Vec<usize> = all.iter().take(k).map(|&(_, j)| j).collect();
            assert_eq!(g.k_nearest(&p, k), want, "k = {k}");
        }
    }

    #[test]
    fn empty_network_builds_an_empty_grid() {
        let g = SpatialGrid::build(&Network::default(), 1.0);
        assert!(g.is_empty());
        assert_eq!(g.k_nearest(&Point::ORIGIN, 3), Vec::<usize>::new());
        assert_eq!(g.radius_indices(&Point::ORIGIN, 10.0), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "cell size must be finite and > 0")]
    fn zero_cell_size_rejected() {
        let _ = SpatialGrid::build(&lattice(), 0.0);
    }
}
