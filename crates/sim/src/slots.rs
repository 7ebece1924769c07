//! Slot-level Monte Carlo primitives.
//!
//! The Figure 1 experiment asks: with every link transmitting
//! independently with probability `q`, how many transmissions succeed on
//! average? In the Rayleigh model this has a closed form (Theorem 1,
//! `rayfade-core`), but the paper *measures* it with seeded draws (25
//! transmit seeds × 10 fading seeds); we provide both so they can be
//! cross-checked.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_core::{active_senders, fading_verdicts, mix_seed, mix_seed2, NetworkEvaluator};
use rayfade_sinr::{count_successes, GainMatrix, SinrParams};

/// Draws one Bernoulli(q) activation mask.
pub fn draw_activation(n: usize, q: f64, rng: &mut StdRng) -> Vec<bool> {
    assert!((0.0..=1.0).contains(&q), "q must lie in [0, 1]");
    (0..n).map(|_| rng.gen_bool(q)).collect()
}

/// Mean non-fading successes over `tx_seeds` activation draws with
/// per-link transmission probability `q`.
pub fn nonfading_success_curve_point(
    gain: &GainMatrix,
    params: &SinrParams,
    q: f64,
    tx_seeds: u64,
    seed_base: u64,
) -> f64 {
    assert!(tx_seeds > 0, "need at least one transmit seed");
    let n = gain.len();
    let mut total = 0usize;
    for s in 0..tx_seeds {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed_base, s));
        let active = draw_activation(n, q, &mut rng);
        total += count_successes(gain, params, &active);
    }
    total as f64 / tx_seeds as f64
}

/// Mean Rayleigh successes over `tx_seeds` activation draws ×
/// `fading_seeds` fading realizations each (the paper's 25 × 10 scheme).
pub fn rayleigh_success_curve_point(
    gain: &GainMatrix,
    params: &SinrParams,
    q: f64,
    tx_seeds: u64,
    fading_seeds: u64,
    seed_base: u64,
) -> f64 {
    assert!(tx_seeds > 0 && fading_seeds > 0, "need at least one seed");
    let n = gain.len();
    let mut total = 0usize;
    let mut verdicts = vec![false; n];
    for s in 0..tx_seeds {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed_base, s));
        let senders = active_senders(&draw_activation(n, q, &mut rng));
        for f in 0..fading_seeds {
            // One fresh fading stream per (s, f), seeded as a
            // `RayleighModel` would be; `mix_seed2` keeps the grid
            // collision-free. Idle links' verdicts are never counted, so
            // the kernel skips their logarithms.
            let mut fading = StdRng::seed_from_u64(mix_seed2(seed_base, s, f));
            fading_verdicts(gain, params, &mut fading, &senders, &mut verdicts);
            total += verdicts.iter().filter(|&&ok| ok).count();
        }
    }
    total as f64 / (tx_seeds * fading_seeds) as f64
}

/// Exact expected Rayleigh successes at transmission probability `q`
/// (Theorem 1 closed form) — the analytic counterpart of
/// [`rayleigh_success_curve_point`].
pub fn rayleigh_expected_successes(gain: &GainMatrix, params: &SinrParams, q: f64) -> f64 {
    rayleigh_expected_successes_grid(gain, params, &[q])[0]
}

/// Exact expected Rayleigh successes for a whole grid of uniform
/// transmission probabilities, sharing one interference-ratio cache
/// across all grid points (the Figure 1 analytic sweep evaluates 50
/// points per network; rebuilding the ratios per point is pure waste).
///
/// Routes through [`NetworkEvaluator`]: instances at or above
/// [`rayfade_core::SPARSE_CROSSOVER`] links evaluate on the ε-truncated
/// sparse cache (certified to `rayfade_core::DEFAULT_SPARSE_DELTA`
/// relative error) instead of the dense O(n²) one; paper-scale
/// instances stay on the exact dense path.
pub fn rayleigh_expected_successes_grid(
    gain: &GainMatrix,
    params: &SinrParams,
    qs: &[f64],
) -> Vec<f64> {
    let mut ev = NetworkEvaluator::from_gain(gain, params);
    qs.iter()
        .map(|&q| {
            ev.set_uniform(q);
            ev.expected_successes()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::PaperTopology;
    use rayfade_sinr::PowerAssignment;

    fn paper_gain(seed: u64, n: usize) -> (GainMatrix, SinrParams) {
        let net = PaperTopology {
            links: n,
            side: 500.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(seed);
        let params = SinrParams::figure1();
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
        (gm, params)
    }

    #[test]
    fn activation_draw_respects_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let mask = draw_activation(20_000, 0.3, &mut rng);
        let frac = mask.iter().filter(|&&b| b).count() as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "{frac}");
        // Extremes.
        assert!(draw_activation(100, 0.0, &mut rng).iter().all(|&b| !b));
        assert!(draw_activation(100, 1.0, &mut rng).iter().all(|&b| b));
    }

    #[test]
    fn nonfading_point_zero_probability_is_zero() {
        let (gm, params) = paper_gain(0, 20);
        assert_eq!(nonfading_success_curve_point(&gm, &params, 0.0, 5, 0), 0.0);
    }

    #[test]
    fn points_are_deterministic_per_seed_base() {
        let (gm, params) = paper_gain(1, 15);
        let a = nonfading_success_curve_point(&gm, &params, 0.5, 10, 7);
        let b = nonfading_success_curve_point(&gm, &params, 0.5, 10, 7);
        assert_eq!(a, b);
        let r1 = rayleigh_success_curve_point(&gm, &params, 0.5, 5, 3, 7);
        let r2 = rayleigh_success_curve_point(&gm, &params, 0.5, 5, 3, 7);
        assert_eq!(r1, r2);
    }

    #[test]
    fn rayleigh_monte_carlo_matches_closed_form() {
        let (gm, params) = paper_gain(2, 12);
        let q = 0.6;
        let analytic = rayleigh_expected_successes(&gm, &params, q);
        let mc = rayleigh_success_curve_point(&gm, &params, q, 60, 40, 11);
        assert!(
            (mc - analytic).abs() < 0.35,
            "MC {mc} vs closed form {analytic}"
        );
    }

    #[test]
    fn grid_matches_per_point_evaluation() {
        let (gm, params) = paper_gain(4, 18);
        let qs = [0.0, 0.1, 0.35, 0.7, 1.0];
        let grid = rayleigh_expected_successes_grid(&gm, &params, &qs);
        for (k, &q) in qs.iter().enumerate() {
            let probs = vec![q; gm.len()];
            let want = rayfade_core::expected_successes(&gm, &params, &probs);
            assert!(
                (grid[k] - want).abs() < 1e-12,
                "q = {q}: {} vs {want}",
                grid[k]
            );
        }
    }

    #[test]
    fn sparse_network_all_succeed_at_full_probability() {
        // Far-apart links: q = 1 should give ~n successes non-fading.
        let net = PaperTopology {
            links: 5,
            side: 100_000.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(3);
        let params = SinrParams::figure1();
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
        let mean = nonfading_success_curve_point(&gm, &params, 1.0, 3, 0);
        assert!((mean - 5.0).abs() < 1e-12, "{mean}");
        // And Rayleigh should sit below but within a constant factor.
        let ray = rayleigh_expected_successes(&gm, &params, 1.0);
        assert!(ray > 5.0 / std::f64::consts::E && ray <= 5.0);
    }
}
