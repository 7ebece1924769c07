//! Geometric construction of certified ε-truncated sparse ratios.
//!
//! [`build_sparse_ratios`] constructs a [`SparseInterferenceRatios`]
//! directly from a [`Network`] and a [`PowerAssignment`] without ever
//! materializing a dense row, in two passes per receiver `i`:
//!
//! 1. **Ring expansion with a lumped exterior bound.** Grid rings around
//!    the receiver's cell are examined outward. After ring `m`, every
//!    unexamined sender is at least `d_min` away
//!    ([`SpatialGrid::exterior_distance`]), so its normalized gain is at
//!    most `ḡ = p_max/(S̄_{i,i}·d_min^α)` and its ratio at most
//!    `ρ̄ = β·ḡ/(β·ḡ + 1) < 1`. Since `−ln(1−ρ) ≤ k(ρ̄)·ρ` for
//!    `ρ ≤ ρ̄` with `k(x) = −ln(1−x)/x`, and
//!    `Σρ ≤ β·P_rem/(S̄_{i,i}·d_min^α)` over the unexamined total power
//!    `P_rem`, the whole unexamined exterior contributes log-mass at most
//!    `B = k(ρ̄)·β·P_rem/(S̄_{i,i}·d_min^α)`. Expansion stops once
//!    `B ≤ τ/2` (or everything is examined, making `B = 0`).
//! 2. **Greedy interior truncation.** The examined ratios — computed with
//!    arithmetic bit-equal to `GainMatrix::from_geometry` +
//!    `InterferenceRatios::new` — go to the shared row-parallel driver
//!    (`SparseInterferenceRatios::from_row_kernel`), which drops the
//!    smallest while their *exact* summed log-mass stays within the
//!    remaining budget `τ − B` and column-sorts only the survivors.
//!
//! The sweep reads memory in order: the grid stores sender positions in
//! its cell (item) order and the builder permutes the powers to match,
//! so each ring is a handful of contiguous position ranges, one per grid
//! row segment. The visit order within a ring stays cell by cell (top
//! row, side columns, bottom row; link indices ascending within a cell):
//! the examined power, and with it the exterior bound and every `τᵢ`,
//! depends on that order bit for bit.
//!
//! The per-receiver certificate is `τᵢ = (exact dropped mass) + B ≤ τ`,
//! so every sparse evaluation `p` brackets the dense value in
//! `[p·e^{−τᵢ}, p]` (see `rayfade_sinr::sparse`). `δ = 0` forces a full
//! scan and reproduces the dense cache exactly.
//!
//! # Two stop rules
//!
//! * **Certified** ([`build_sparse_ratios`] and its variants): stop at the
//!   first ring with `B ≤ τ/2`. The kept set may differ from the dense
//!   row's, which would spend the whole budget on the examined senders.
//! * **Dense-equivalent** ([`build_dense_equivalent_ratios`], the dynamic
//!   engine's builder): from the first ring with `B ≤ τ/2` on, whenever
//!   `B` has at least halved since the last check, ask
//!   `rayfade_sinr::sparse::truncation_decided` whether the examined
//!   entries settle the *whole* row's truncation — the same kept set
//!   whether the unexamined log-mass is 0 or `B`, up to a float margin
//!   (so the first kept mass exceeds `B` and every unexamined entry sorts
//!   before it) — with `B` widened to cover rounding. A decided row stops with
//!   `B` (plus the margin) reserved. A row that has examined half the
//!   senders without deciding examines the rest at once, grid row by grid
//!   row ([`SpatialGrid::for_each_range_outside`], far fewer ranges than
//!   the remaining rings), and is then the dense row itself; so is a row
//!   that never decides. Either way the retained
//!   pairs, every `ρ`, noise and signal equal
//!   `SparseInterferenceRatios::from_gain` of the dense gains bit for
//!   bit; only `τᵢ` differs, between the exact dropped mass and `τ`
//!   (DESIGN.md §4b has the proof).
//!
//! How far the rings must expand depends strongly on `α`: the tail
//! log-mass beyond radius `R` of a constant-density deployment scales
//! like `R^{2−α}`, so truncation only pays off for `α > 2` and the
//! crossover radius shrinks rapidly as `α` grows (see EXPERIMENTS.md §S1
//! for the derivation and measured crossovers).

use crate::grid::SpatialGrid;
use rayfade_geometry::{LinkGeometry, Network, Point};
use rayfade_sinr::sparse::{truncation_decided, RowHead};
use rayfade_sinr::{
    kahan_sum, truncation_budget, PowerAssignment, SinrParams, SparseInterferenceRatios,
};
use rayfade_telemetry::{trace, Telemetry};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Build statistics of one [`build_sparse_ratios`] run, also exported as
/// telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparseBuildStats {
    /// Sender→receiver pairs whose ratio was computed during ring
    /// expansion.
    pub examined: u64,
    /// Nonzero pairs retained in the sparse cache.
    pub retained: u64,
    /// Nonzero examined pairs dropped by the interior truncation.
    pub truncated: u64,
    /// Largest per-receiver certificate `max_i τᵢ`.
    pub tau_max: f64,
    /// Receivers whose sweep examined every sender.
    pub full_scans: u64,
}

/// Builds certified ε-truncated sparse ratios from geometry with an
/// automatically chosen cell size (bounding-box side divided by `√n`,
/// i.e. about one sender per cell at uniform density).
///
/// See the [module docs](self) for the algorithm and
/// [`build_sparse_ratios_stats`] for the returned-statistics variant.
///
/// # Panics
/// If `delta` is outside `[0, 1)`, or any examined sender–receiver pair
/// has zero distance or a non-finite gain (mirroring
/// `GainMatrix::from_geometry`; generate networks with the documented
/// minimum separation).
pub fn build_sparse_ratios(
    network: &Network,
    power: &PowerAssignment,
    params: &SinrParams,
    delta: f64,
    tele: Option<&Telemetry>,
) -> SparseInterferenceRatios {
    build_sparse_ratios_with_cell(network, power, params, delta, default_cell(network), tele)
}

/// [`build_sparse_ratios`] with an explicit grid cell size.
pub fn build_sparse_ratios_with_cell(
    network: &Network,
    power: &PowerAssignment,
    params: &SinrParams,
    delta: f64,
    cell: f64,
    tele: Option<&Telemetry>,
) -> SparseInterferenceRatios {
    build_inner(network, power, params, delta, cell, false, tele).0
}

/// [`build_sparse_ratios`] returning the build statistics alongside the
/// cache (the same numbers the telemetry counters receive).
pub fn build_sparse_ratios_stats(
    network: &Network,
    power: &PowerAssignment,
    params: &SinrParams,
    delta: f64,
    tele: Option<&Telemetry>,
) -> (SparseInterferenceRatios, SparseBuildStats) {
    build_inner(
        network,
        power,
        params,
        delta,
        default_cell(network),
        false,
        tele,
    )
}

/// Builds the ε-truncated cache that
/// `SparseInterferenceRatios::from_gain(&GainMatrix::from_geometry(..), params, delta)`
/// builds, in near-linear time for `α > 2`, with its build statistics.
///
/// The sweep runs the *dense-equivalent* stop rule (see the
/// [module docs](self)): retained pairs, every `ρ`, noise factor and own
/// signal equal the dense-built cache's bit for bit, and each
/// certificate `τᵢ` lies between the dense cache's exact dropped mass and
/// `τ = −ln(1−δ)`.
///
/// # Panics
/// As [`build_sparse_ratios`].
pub fn build_dense_equivalent_ratios(
    network: &Network,
    power: &PowerAssignment,
    params: &SinrParams,
    delta: f64,
) -> (SparseInterferenceRatios, SparseBuildStats) {
    build_inner(
        network,
        power,
        params,
        delta,
        default_cell(network),
        true,
        None,
    )
}

/// Default cell size: bounding-box side over `√n` (≈ one sender per cell
/// at uniform density), or 1 for degenerate boxes.
fn default_cell(network: &Network) -> f64 {
    let n = network.len();
    let side = network
        .bounding_box()
        .map_or(0.0, |b| b.width().max(b.height()));
    if n == 0 || side <= 0.0 {
        1.0
    } else {
        side / (n as f64).sqrt()
    }
}

/// The sweep with the certified (`dense_equivalent = false`) or the
/// dense-equivalent stop rule.
fn build_inner(
    network: &Network,
    power: &PowerAssignment,
    params: &SinrParams,
    delta: f64,
    cell: f64,
    dense_equivalent: bool,
    tele: Option<&Telemetry>,
) -> (SparseInterferenceRatios, SparseBuildStats) {
    let tau_budget = truncation_budget(delta);
    let n = network.len();
    let tracer = tele.and_then(|t| t.tracer());

    let grid = {
        let _g = trace::guard(tracer, tracer.map(|tr| tr.span_id("spatial/grid_build")));
        SpatialGrid::build(network, cell)
    };

    let _ratios_span = trace::guard(tracer, tracer.map(|tr| tr.span_id("spatial/sparse_ratios")));
    let powers = power.powers(network, params.alpha);
    let sweep = Sweep {
        network,
        grid: &grid,
        item_powers: grid.items().iter().map(|&j| powers[j as usize]).collect(),
        total_power: kahan_sum(powers.iter().copied()),
        p_max: powers.iter().copied().fold(0.0f64, f64::max),
        powers,
        params,
        tau_budget,
        dense_equivalent,
        coord_slack: SLACK * (coordinate_scale(network) + cell),
        full_scans: AtomicU64::new(0),
    };
    let (ratios, counts) = SparseInterferenceRatios::from_row_kernel(
        n,
        params.beta,
        delta,
        Vec::new,
        |i, bits, entries| sweep.row(i, entries, bits),
    );
    let stats = SparseBuildStats {
        examined: counts.examined,
        retained: ratios.nnz() as u64,
        truncated: counts.truncated,
        tau_max: ratios.tau_max(),
        full_scans: sweep.full_scans.into_inner(),
    };
    if let Some(t) = tele {
        let reg = t.registry();
        let logmass = reg.histogram("rayfade_spatial_truncated_logmass");
        for i in 0..n {
            logmass.observe(ratios.tau(i));
        }
        reg.counter("rayfade_spatial_pairs_examined_total")
            .add(stats.examined);
        reg.counter("rayfade_spatial_pairs_retained_total")
            .add(stats.retained);
        reg.counter("rayfade_spatial_pairs_truncated_total")
            .add(stats.truncated);
        let (nx, ny) = grid.dims();
        if let Some(ev) = t.event("sparse_ratios") {
            ev.int("links", n as i64)
                .int("nnz", ratios.nnz() as i64)
                .int("examined", stats.examined as i64)
                .int("resident_bytes", ratios.resident_bytes() as i64)
                .num("delta", delta)
                .num("tau_budget", tau_budget)
                .num("tau_max", stats.tau_max)
                .num("cell", cell)
                .int("cells_x", nx as i64)
                .int("cells_y", ny as i64)
                .write();
        }
    }
    (ratios, stats)
}

/// Relative slack, 2⁻⁴⁰, by which the dense-equivalent stop rule widens
/// its exterior bounds: far above the few dozen roundings (times `α`)
/// between the coordinates and a stored ratio.
const SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// Largest coordinate magnitude of any link endpoint (0 for an empty
/// network).
fn coordinate_scale(network: &Network) -> f64 {
    network.bounding_box().map_or(0.0, |b| {
        [b.lo.x, b.lo.y, b.hi.x, b.hi.y]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
    })
}

/// What every receiver's ring sweep shares.
struct Sweep<'a> {
    network: &'a Network,
    grid: &'a SpatialGrid,
    /// Transmit powers by link index.
    powers: Vec<f64>,
    /// The same powers in the grid's item order.
    item_powers: Vec<f64>,
    total_power: f64,
    p_max: f64,
    params: &'a SinrParams,
    tau_budget: f64,
    /// Whether rows stop by the dense-equivalent rule.
    dense_equivalent: bool,
    /// Absolute slack on a computed exterior distance: covers the
    /// rounding of cell assignment and cell bounds at the grid's
    /// coordinate scale.
    coord_slack: f64,
    /// Rows that examined every sender.
    full_scans: AtomicU64,
}

impl Sweep<'_> {
    /// Sweeps receiver `i`'s rings until the lumped exterior bound drops
    /// below `τ/2` — and, by the dense-equivalent rule, on until the
    /// examined entries decide the whole row's truncation, or past half
    /// the senders straight to a full scan — pushing every examined
    /// nonzero ratio; the bound becomes the row's reserved log-mass.
    fn row(&self, i: usize, entries: &mut Vec<(u32, f64)>, bits: &mut Vec<u64>) -> RowHead {
        let (beta, alpha) = (self.params.beta, self.params.alpha);
        let (grid, n) = (self.grid, self.network.len());
        // Own signal with arithmetic bit-equal to `GainMatrix::from_geometry`.
        let d_own = self.network.cross_dist(i, i);
        assert!(
            d_own > 0.0,
            "cross distance d(s_{i}, r_{i}) must be positive"
        );
        let s_ii = self.powers[i] / d_own.powf(alpha);
        assert!(s_ii.is_finite(), "gain S({i},{i}) must be finite");
        if s_ii == 0.0 {
            // Dead receiver: empty row, zero noise factor, exact (τᵢ = 0) —
            // its success probability is 0 regardless of interference.
            return RowHead {
                noise: 0.0,
                signal: 0.0,
                reserved: 0.0,
                examined: 0,
            };
        }
        let receiver = self.network.link(i).receiver;
        let (cx, cy) = grid.cell_of(&receiver);
        let mut examined_power = 0.0f64;
        let mut examined_count = 0usize;
        // The bound at the last decision check: rechecking only once it
        // has halved keeps the checks of a row that ends in a full scan
        // few.
        let mut checked = f64::INFINITY;
        let exterior; // certified bound on unexamined log-mass, set at loop exit
        let mut m = 0usize;
        loop {
            grid.for_each_range_in_ring(cx, cy, m, |range| {
                examined_count += range.len();
                self.examine(i, s_ii, &receiver, range, &mut examined_power, entries);
            });
            if examined_count == n {
                self.full_scans.fetch_add(1, Ordering::Relaxed);
                exterior = 0.0;
                break;
            }
            match grid.exterior_distance(&receiver, cx, cy, m) {
                None => {
                    // Block covers the grid, so every sender was examined —
                    // unreachable given the count check above, but harmless.
                    exterior = 0.0;
                    break;
                }
                Some(d_min) => {
                    if d_min > 0.0 && self.tau_budget > 0.0 {
                        let p_rem = (self.total_power - examined_power).max(0.0);
                        let denom = s_ii * d_min.powf(alpha);
                        let x = beta * self.p_max / denom; // ≥ β·ḡ of any unexamined sender
                        if x.is_finite() {
                            // ρ ≤ ρ̄ = x/(x+1) < 1 and −ln(1−ρ) ≤ k(ρ̄)·ρ.
                            let rho_bar = x / (x + 1.0);
                            let kfac = if rho_bar > 0.0 {
                                -(-rho_bar).ln_1p() / rho_bar
                            } else {
                                1.0
                            };
                            let bound = kfac * beta * p_rem / denom;
                            if bound <= 0.5 * self.tau_budget {
                                if !self.dense_equivalent {
                                    exterior = bound;
                                    break;
                                }
                                if bound <= 0.5 * checked {
                                    checked = bound;
                                    let decided =
                                        self.decide(s_ii, d_min, examined_power, entries, bits);
                                    if let Some(reserved) = decided {
                                        exterior = reserved;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Undecided past half the senders: the row is all but a full
            // scan, and the remaining rings cost many short ranges.
            if self.dense_equivalent && 2 * examined_count >= n {
                grid.for_each_range_outside(cx, cy, m, |range| {
                    examined_count += range.len();
                    self.examine(i, s_ii, &receiver, range, &mut examined_power, entries);
                });
                debug_assert_eq!(examined_count, n);
                self.full_scans.fetch_add(1, Ordering::Relaxed);
                exterior = 0.0;
                break;
            }
            m += 1;
        }
        RowHead {
            noise: (-beta * self.params.noise / s_ii).exp(),
            signal: s_ii,
            reserved: exterior,
            examined: examined_count.saturating_sub(1) as u64, // own sender is not a pair
        }
    }

    /// Examines the senders at grid positions `range` for receiver `i`:
    /// adds their powers to `power` one at a time (the visit order fixes
    /// the bits of the exterior bound) and pushes every nonzero ratio,
    /// with the dense cache's arithmetic.
    #[inline]
    fn examine(
        &self,
        i: usize,
        s_ii: f64,
        receiver: &Point,
        range: Range<usize>,
        power: &mut f64,
        entries: &mut Vec<(u32, f64)>,
    ) {
        let (beta, alpha) = (self.params.beta, self.params.alpha);
        let items = &self.grid.items()[range.clone()];
        let senders = &self.grid.senders()[range.clone()];
        for ((&j, sender), &p_j) in items.iter().zip(senders).zip(&self.item_powers[range]) {
            *power += p_j;
            if j as usize == i {
                continue;
            }
            let d = sender.distance(receiver);
            assert!(d > 0.0, "cross distance d(s_{j}, r_{i}) must be positive");
            let s_ji = p_j / d.powf(alpha);
            assert!(s_ji.is_finite(), "gain S({j},{i}) must be finite");
            if s_ji == 0.0 {
                continue;
            }
            // Same guarded form as the dense cache.
            let r = beta / (beta + s_ii / s_ji);
            if r > 0.0 {
                entries.push((j, r));
            }
        }
    }

    /// The dense-equivalent rule's check after a ring: widens the
    /// exterior bound to cover every rounding between the coordinates
    /// and the stored masses (the distance by `coord_slack`, the
    /// unexamined power by its summation error, ratio bound and log-mass
    /// by [`SLACK`]) and asks [`truncation_decided`] whether the examined
    /// entries settle the whole row. Returns the row's reserved log-mass.
    fn decide(
        &self,
        s_ii: f64,
        d_min: f64,
        examined_power: f64,
        entries: &[(u32, f64)],
        bits: &mut Vec<u64>,
    ) -> Option<f64> {
        let (beta, alpha) = (self.params.beta, self.params.alpha);
        let n = self.network.len();
        let d_lo = d_min - self.coord_slack;
        if d_lo <= 0.0 {
            return None;
        }
        let denom = s_ii * d_lo.powf(alpha);
        let x = beta * self.p_max / denom;
        let rho_bar = x / (x + 1.0) * (1.0 + SLACK);
        if rho_bar.is_nan() || rho_bar <= 0.0 || rho_bar >= 1.0 {
            return None;
        }
        let kfac = -(-rho_bar).ln_1p() / rho_bar;
        // Both power sums carry at most (n + 2)·2⁻⁵³ of the total in error.
        let p_rem = (self.total_power - examined_power).max(0.0)
            + (n + 4) as f64 * f64::EPSILON * self.total_power;
        let exterior = kfac * beta * p_rem / denom * (1.0 + SLACK);
        truncation_decided(entries, self.tau_budget, exterior, rho_bar, n, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::generator::PaperTopology;
    use rayfade_sinr::{GainMatrix, InterferenceRatios, SparseSuccessAccumulator};

    fn small_net(links: usize, seed: u64) -> Network {
        PaperTopology {
            links,
            side: 400.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(seed)
    }

    #[test]
    fn delta_zero_reproduces_the_dense_cache_bitwise() {
        let net = small_net(24, 7);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::figure1();
        let sparse = build_sparse_ratios(&net, &power, &params, 0.0, None);
        let gain = GainMatrix::from_geometry(&net, &power, params.alpha);
        let dense = InterferenceRatios::new(&gain, &params);
        assert_eq!(sparse.tau_max(), 0.0);
        for i in 0..net.len() {
            assert_eq!(sparse.noise_factor(i), dense.noise_factor(i), "noise {i}");
            for j in 0..net.len() {
                assert_eq!(sparse.rho(j, i), dense.rho(j, i), "rho({j},{i})");
            }
        }
    }

    #[test]
    fn geometric_build_matches_from_gain_certificates() {
        // α = 4 concentrates the interference so the truncation bites.
        let net = small_net(40, 11);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::new(4.0, 2.5, 4e-7);
        let delta = 0.05;
        let (sparse, stats) = build_sparse_ratios_stats(&net, &power, &params, delta, None);
        let budget = truncation_budget(delta);
        assert!(stats.tau_max <= budget + 1e-15);
        assert!(stats.retained > 0);
        assert_eq!(stats.retained as usize, sparse.nnz());
        // Retained ratios are bit-equal to the dense cache and the
        // certificate covers the dense evaluation.
        let gain = GainMatrix::from_geometry(&net, &power, params.alpha);
        let dense_r = InterferenceRatios::new(&gain, &params);
        for i in 0..net.len() {
            let (cols, rhos) = sparse.row(i);
            for (&j, &r) in cols.iter().zip(rhos) {
                assert_eq!(r, dense_r.rho(j as usize, i), "rho({j},{i})");
            }
            assert!(sparse.tau(i) <= budget + 1e-15, "tau({i})");
        }
        let mut acc = SparseSuccessAccumulator::new(net.len());
        acc.set_uniform(&sparse, 0.7);
        let mut dense_acc =
            rayfade_sinr::SuccessAccumulator::new(net.len(), rayfade_sinr::AccumMode::LogDomain);
        dense_acc.set_uniform(&dense_r, 0.7);
        for i in 0..net.len() {
            let d = dense_acc.success_probability(&dense_r, i);
            let (lo, hi) = acc.success_interval(&sparse, i);
            assert!(
                lo - 1e-12 <= d && d <= hi + 1e-12,
                "link {i}: {d} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn truncation_reduces_stored_pairs_at_steep_alpha() {
        let net = small_net(60, 3);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::new(4.0, 2.5, 4e-7);
        let exact = build_sparse_ratios(&net, &power, &params, 0.0, None);
        let truncated = build_sparse_ratios(&net, &power, &params, 0.2, None);
        assert!(
            truncated.nnz() < exact.nnz(),
            "δ = 0.2 must drop pairs ({} vs {})",
            truncated.nnz(),
            exact.nnz()
        );
    }

    #[test]
    fn build_is_deterministic() {
        let net = small_net(30, 5);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::new(3.0, 2.5, 4e-7);
        let a = build_sparse_ratios(&net, &power, &params, 0.01, None);
        let b = build_sparse_ratios(&net, &power, &params, 0.01, None);
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_counters_and_journal_record_the_build() {
        let dir = std::env::temp_dir().join("rayfade_spatial_builder_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("build.jsonl");
        let tele = Telemetry::with_journal(&path).unwrap().with_tracing();
        let net = small_net(20, 9);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::new(4.0, 2.5, 4e-7);
        let (_, stats) = {
            let (r, s) = build_inner(
                &net,
                &power,
                &params,
                0.1,
                default_cell(&net),
                false,
                Some(&tele),
            );
            (r, s)
        };
        tele.flush();
        let prom = tele.registry().prometheus_text();
        assert!(prom.contains("rayfade_spatial_pairs_examined_total"));
        assert!(prom.contains("rayfade_spatial_pairs_retained_total"));
        assert!(prom.contains("rayfade_spatial_pairs_truncated_total"));
        assert!(prom.contains("rayfade_spatial_truncated_logmass"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"sparse_ratios\""), "journal event written");
        assert!(text.contains("\"delta\""));
        assert!(text.contains("\"examined\""));
        assert!(text.contains("\"resident_bytes\""));
        let spans = tele.tracer().unwrap().snapshot();
        let names: Vec<_> = spans.records.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"spatial/grid_build"), "{names:?}");
        assert!(names.contains(&"spatial/sparse_ratios"), "{names:?}");
        assert!(stats.examined >= stats.retained + stats.truncated);
    }

    #[test]
    fn empty_network_yields_an_empty_cache() {
        let net = Network::default();
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::figure1();
        let sparse = build_sparse_ratios(&net, &power, &params, 0.5, None);
        assert!(sparse.is_empty());
        assert_eq!(sparse.nnz(), 0);
    }
}
