//! The Rayleigh-fading channel.
//!
//! Under Rayleigh fading the signal transmitted by `s_j` arrives at `r_i`
//! with strength `S_{j,i}`, an **exponentially distributed** random
//! variable with mean `S̄_{j,i}`, independent across pairs `(j, i)` and
//! across time slots (paper Sec. 2). This module samples realizations and
//! implements [`SuccessModel`] so every model-agnostic protocol (ALOHA,
//! regret learning, Monte Carlo slot execution) runs under fading
//! unchanged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_sinr::{GainMatrix, SinrParams, SuccessModel};
use std::sync::OnceLock;

/// Samples one exponential variate with the given mean using inverse-CDF:
/// `-mean · ln(1 − U)`, `U ∈ [0, 1)`. A zero mean yields exactly zero.
#[inline]
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean >= 0.0, "exponential mean must be non-negative");
    if mean == 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen(); // [0, 1)
    -mean * (1.0 - u).ln()
}

/// The ascending indices of the links `active` marks as transmitting —
/// the per-slot sender list the draw helpers walk.
pub fn active_senders(active: &[bool]) -> Vec<usize> {
    active
        .iter()
        .enumerate()
        .filter_map(|(j, &on)| on.then_some(j))
        .collect()
}

/// Draws receiver `i`'s realized SINR against `senders`: one exponential
/// per listed sender `j ≠ i` in ascending order, then the own signal
/// last. A zero mean takes no draw (see [`sample_exponential`]) and adds
/// exactly nothing, so skipping it cannot change a bit of the sum.
///
/// This and [`skip_receiver`] are the only places that define the
/// fading-stream order.
#[inline]
fn draw_receiver<R: Rng + ?Sized>(
    rng: &mut R,
    row: &[f64],
    i: usize,
    senders: &[usize],
    noise: f64,
) -> f64 {
    let mut interference = 0.0;
    for &j in senders {
        if j != i {
            interference += sample_exponential(rng, row[j]);
        }
    }
    let signal = sample_exponential(rng, row[i]);
    let denom = interference + noise;
    if denom == 0.0 {
        if signal > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        signal / denom
    }
}

/// Advances `rng` past exactly the draws [`draw_receiver`] would take
/// for receiver `i`, without computing a single logarithm.
#[inline]
fn skip_receiver<R: Rng + ?Sized>(rng: &mut R, row: &[f64], i: usize, senders: &[usize]) {
    for &j in senders {
        if j != i && row[j] != 0.0 {
            let _: f64 = rng.gen();
        }
    }
    if row[i] != 0.0 {
        let _: f64 = rng.gen();
    }
}

/// Equal cells the bound table splits the uniform draw's range `[0, 1)`
/// into.
const CELLS: usize = 2048;

/// Below this many senders (at most one interferer per receiver) a
/// slot's active receivers skip the bound and take their exact draws
/// directly: with at most one logarithm to save, the bound pass and the
/// generator copy cost as much as they spare. Set by measurement on
/// Figure 1 instances (DESIGN §4d).
const BOUND_MIN_SENDERS: usize = 3;

/// The smallest denominator bound the certified decision trusts: far
/// above the subnormal range, so the absolute rounding error of
/// underflowing products (≤ 2⁻¹⁰⁷⁵ per operation) is negligible against
/// the relative padding (DESIGN §4d).
const DENOM_FLOOR: f64 = 1e-270;

/// Cell `c` holds `[lo, hi]` with `lo ≤ −ln(1 − u) ≤ hi` for every
/// `u ∈ [c/CELLS, (c+1)/CELLS)`: the libm values at the cell edges,
/// moved two ulps outward (libm's `ln` is within one ulp), and `+∞` as
/// the last cell's upper bound.
fn exp_bounds() -> &'static [[f64; 2]; CELLS] {
    static TABLE: OnceLock<Box<[[f64; 2]; CELLS]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let edge = |c: usize| -(1.0 - c as f64 / CELLS as f64).ln();
        let mut table = Box::new([[0.0; 2]; CELLS]);
        for (c, cell) in table.iter_mut().enumerate() {
            let lo = if c == 0 {
                0.0
            } else {
                edge(c).next_down().next_down()
            };
            let hi = if c + 1 == CELLS {
                f64::INFINITY
            } else {
                edge(c + 1).next_up().next_up()
            };
            *cell = [lo, hi];
        }
        table
    })
}

/// Tries to decide active receiver `i`'s verdict `SINR_i ≥ beta` from
/// bounds, consuming exactly the draws [`draw_receiver`] would: each
/// interference draw is bracketed by its table cell instead of taking a
/// logarithm, and the own signal is drawn exactly. `pad` is the relative
/// padding `(k + 4)·2⁻⁵²` for `k` senders that makes the bracketed
/// denominators enclose the one [`draw_receiver`] computes (DESIGN §4d).
///
/// `None` when the bounds straddle `beta` or a bound is zero, tiny or
/// not finite; the caller then replays the receiver exactly.
#[inline]
fn bound_verdict<R: Rng + ?Sized>(
    rng: &mut R,
    row: &[f64],
    i: usize,
    senders: &[usize],
    params: &SinrParams,
    pad: f64,
) -> Option<bool> {
    let table = exp_bounds();
    let (mut lo, mut hi) = (0.0, 0.0);
    for &j in senders {
        let mean = row[j];
        if j != i && mean != 0.0 {
            let u: f64 = rng.gen();
            let [cell_lo, cell_hi] = table[(u * CELLS as f64) as usize];
            lo += mean * cell_lo;
            hi += mean * cell_hi;
        }
    }
    let signal = sample_exponential(rng, row[i]);
    let denom_lo = (lo + params.noise) * (1.0 - pad);
    let denom_hi = (hi + params.noise) * (1.0 + pad);
    // Correctly rounded division is monotone in the denominator, so
    // `denom_lo ≤ D ≤ denom_hi` brackets the exact path's `signal / D`.
    if (DENOM_FLOOR..f64::INFINITY).contains(&denom_hi) && signal / denom_hi >= params.beta {
        Some(true)
    } else if (DENOM_FLOOR..f64::INFINITY).contains(&denom_lo) && signal / denom_lo < params.beta {
        Some(false)
    } else {
        None
    }
}

/// The Rayleigh success-verdict kernel: draws one slot's fading
/// realization over the expected gains `gain` and writes each link's
/// verdict `SINR_i ≥ params.beta` into `verdicts`.
///
/// `senders` lists the slot's transmitting links, ascending (see
/// [`active_senders`]). The stream is consumed receiver-major; within a
/// receiver, active senders ascending with zero means skipped, then the
/// receiver's own signal last — the order [`RayleighModel::sample_sinrs`]
/// uses, so both leave `rng` in the same state.
///
/// Idle receivers' verdicts are `false`: `rng` is advanced past their
/// draws without taking a logarithm. An active receiver's verdict is
/// decided from table bounds on its interference where they settle it,
/// and otherwise from the exact draws replayed from a saved copy of
/// `rng` — the same bits either way (DESIGN §4d).
pub fn fading_verdicts<R: Rng + Clone>(
    gain: &GainMatrix,
    params: &SinrParams,
    rng: &mut R,
    senders: &[usize],
    verdicts: &mut [bool],
) {
    counted_fading_verdicts(gain, params, rng, senders, verdicts);
}

/// [`fading_verdicts`], returning how many active receivers the bound
/// decided without replaying their exact draws.
pub(crate) fn counted_fading_verdicts<R: Rng + Clone>(
    gain: &GainMatrix,
    params: &SinrParams,
    rng: &mut R,
    senders: &[usize],
    verdicts: &mut [bool],
) -> usize {
    debug_assert_eq!(verdicts.len(), gain.len());
    debug_assert!(senders.windows(2).all(|w| w[0] < w[1]), "senders ascending");
    let use_bound = senders.len() >= BOUND_MIN_SENDERS;
    let pad = (senders.len() + 4) as f64 * f64::EPSILON;
    let mut decided = 0;
    let mut next_sender = senders.iter().peekable();
    for (i, verdict) in verdicts.iter_mut().enumerate() {
        let active = next_sender.next_if_eq(&&i).is_some();
        let row = gain.at_receiver(i);
        if !active {
            skip_receiver(rng, row, i, senders);
            *verdict = false;
            continue;
        }
        if use_bound {
            let saved = rng.clone();
            if let Some(ok) = bound_verdict(rng, row, i, senders, params, pad) {
                *verdict = ok;
                decided += 1;
                continue;
            }
            *rng = saved;
        }
        *verdict = draw_receiver(rng, row, i, senders, params.noise) >= params.beta;
    }
    decided
}

/// The stochastic Rayleigh-fading SINR model.
///
/// Each call to [`SuccessModel::resolve_slot`] draws a fresh, independent
/// fading realization — exactly the paper's assumption of independence
/// across time slots. The model is deterministic given its seed.
#[derive(Debug, Clone)]
pub struct RayleighModel {
    gain: GainMatrix,
    params: SinrParams,
    rng: StdRng,
}

impl RayleighModel {
    /// Creates a Rayleigh model over expected gains with a fixed RNG seed.
    pub fn new(gain: GainMatrix, params: SinrParams, seed: u64) -> Self {
        RayleighModel {
            gain,
            params,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The expected-gain matrix.
    pub fn gain(&self) -> &GainMatrix {
        &self.gain
    }

    /// The model parameters.
    pub fn params(&self) -> &SinrParams {
        &self.params
    }

    /// Draws the realized SINR of every link against the active set.
    ///
    /// Only coefficients that matter are sampled: the own-signal of every
    /// link and the interference coefficients of *active* senders. Inactive
    /// senders contribute nothing (their realization is irrelevant), which
    /// keeps a slot at `O(n · |active|)` draws. An idle link's SINR is
    /// counterfactual: what it would have achieved transmitting against
    /// this slot's active set.
    pub fn sample_sinrs(&mut self, active: &[bool]) -> Vec<f64> {
        debug_assert_eq!(active.len(), self.gain.len());
        let senders = active_senders(active);
        (0..self.gain.len())
            .map(|i| {
                draw_receiver(
                    &mut self.rng,
                    self.gain.at_receiver(i),
                    i,
                    &senders,
                    self.params.noise,
                )
            })
            .collect()
    }
}

impl SuccessModel for RayleighModel {
    fn len(&self) -> usize {
        self.gain.len()
    }

    fn resolve_slot(&mut self, active: &[bool]) -> Vec<usize> {
        debug_assert_eq!(active.len(), self.gain.len());
        let senders = active_senders(active);
        let mut verdicts = vec![false; self.gain.len()];
        fading_verdicts(
            &self.gain,
            &self.params,
            &mut self.rng,
            &senders,
            &mut verdicts,
        );
        // Idle links' verdicts are `false`: the true ones are the successes.
        active_senders(&verdicts)
    }

    fn resolve_sinrs(&mut self, active: &[bool]) -> Vec<f64> {
        self.sample_sinrs(active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The path every Rayleigh slot took before the verdict kernel, kept
    /// as the reference: walk the whole mask per receiver, drawing for
    /// each active sender `j ≠ i`, then the own signal.
    fn reference_sinrs(
        rng: &mut StdRng,
        gain: &GainMatrix,
        noise: f64,
        active: &[bool],
    ) -> Vec<f64> {
        let n = gain.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let row = gain.at_receiver(i);
            let mut interference = 0.0;
            for (j, (&mean, &on)) in row.iter().zip(active).enumerate() {
                if on && j != i {
                    interference += sample_exponential(rng, mean);
                }
            }
            let signal = sample_exponential(rng, row[i]);
            let denom = interference + noise;
            out.push(if denom == 0.0 {
                if signal > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            } else {
                signal / denom
            });
        }
        out
    }

    /// The next raw draw of `rng`, without advancing it.
    fn peek(rng: &StdRng) -> u64 {
        rand::RngCore::next_u64(&mut rng.clone())
    }

    /// A random instance for the equivalence property. `shape` picks the
    /// regime: 0 mixed gains with some zero off-diagonals and dead
    /// receivers, 1 all off-diagonals zero (only own signals are drawn),
    /// 2 the same as 0 at ν = 0, 3 half the receivers dead at ν = 0.
    fn instance(n: usize, seed: u64, shape: u8) -> (GainMatrix, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dead = if shape == 3 { 0.5 } else { 0.1 };
        let g = (0..n * n)
            .map(|k| {
                let diagonal = k / n.max(1) == k % n.max(1);
                let zero = if diagonal {
                    rng.gen_bool(dead)
                } else {
                    shape == 1 || rng.gen_bool(0.2)
                };
                if zero {
                    0.0
                } else {
                    10f64.powf(rng.gen_range(-3.0..3.0))
                }
            })
            .collect();
        let noise = if shape >= 2 { 0.0 } else { 0.01 };
        (GainMatrix::from_raw(n, g), noise)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over consecutive slots at q = 0, random q, q = 1 and random q
        /// again, the kernel, `resolve_slot` and `sample_sinrs` all equal
        /// the reference, and every consumer's stream is left exactly
        /// where the reference's is.
        #[test]
        fn kernel_matches_reference_path(
            n in 0usize..48,
            seed in any::<u64>(),
            shape in 0u8..4,
            q in 0.0f64..1.0,
            beta in 0.1f64..5.0,
            pick in any::<usize>(),
        ) {
            let (gain, noise) = instance(n, seed, shape);
            let params = SinrParams { beta, noise, alpha: 2.0 };
            let fading_seed = seed ^ 0xfade;
            let mut reference = StdRng::seed_from_u64(fading_seed);
            let mut slot_model = RayleighModel::new(gain.clone(), params, fading_seed);
            let mut sinr_model = RayleighModel::new(gain.clone(), params, fading_seed);
            let mut kernel = StdRng::seed_from_u64(fading_seed);
            let mut masks = StdRng::seed_from_u64(seed.rotate_left(17));
            let mut verdicts = vec![false; n];
            for slot_q in [0.0, q, 1.0, q] {
                let active: Vec<bool> = (0..n).map(|_| masks.gen_bool(slot_q)).collect();
                let senders = active_senders(&active);
                let before = reference.clone();
                let sinrs = reference_sinrs(&mut reference, &gain, noise, &active);

                // β at one active receiver's realized SINR and one ulp to
                // either side: the bound straddles it, so the verdict comes
                // from the replayed exact draws, exactly at the boundary.
                if !senders.is_empty() {
                    let at = sinrs[senders[pick % senders.len()]];
                    for edge in [at, at.next_up(), at.next_down()] {
                        let edge_params = SinrParams { beta: edge, ..params };
                        let mut rng = before.clone();
                        let decided = counted_fading_verdicts(
                            &gain, &edge_params, &mut rng, &senders, &mut verdicts,
                        );
                        let expected: Vec<usize> =
                            senders.iter().copied().filter(|&i| sinrs[i] >= edge).collect();
                        prop_assert_eq!(active_senders(&verdicts), expected);
                        prop_assert_eq!(peek(&rng), peek(&reference));
                        if edge == at && at.is_finite() && at > 0.0 {
                            prop_assert!(decided < senders.len(), "the boundary receiver replays");
                        }
                    }
                }
                let expected: Vec<usize> =
                    (0..n).filter(|&i| active[i] && sinrs[i] >= beta).collect();

                fading_verdicts(&gain, &params, &mut kernel, &senders, &mut verdicts);
                prop_assert_eq!(active_senders(&verdicts), expected.clone());
                prop_assert_eq!(slot_model.resolve_slot(&active), expected);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&sinr_model.sample_sinrs(&active)), bits(&sinrs));

                let next = peek(&reference);
                for rng in [&kernel, &slot_model.rng, &sinr_model.rng] {
                    prop_assert_eq!(peek(rng), next);
                }
            }
        }
    }

    #[test]
    fn bound_table_cells_enclose_the_exponential_quantile() {
        let table = exp_bounds();
        let quantile = |u: f64| -(1.0 - u).ln();
        let mut rng = StdRng::seed_from_u64(5);
        let width = 1.0 / CELLS as f64;
        for (c, &[lo, hi]) in table.iter().enumerate() {
            let start = c as f64 * width;
            let end = start + width;
            let interior = (0..16).map(|_| start + rng.gen::<f64>() * width);
            for u in [start, end, end.next_down()].into_iter().chain(interior) {
                let x = quantile(u);
                assert!(
                    lo <= x && x <= hi,
                    "cell {c}: {x} at u = {u} outside [{lo}, {hi}]"
                );
            }
            // Every draw `u` lands in the cell the kernel looks up.
            assert_eq!((end.next_down() * CELLS as f64) as usize, c);
        }
        assert_eq!(table[CELLS - 1][1], f64::INFINITY);
    }

    #[test]
    fn bound_decides_most_figure1_receivers() {
        // The paper's Figure 1 instances under both powers: the bound
        // must settle at least 90 % of active receivers at every density,
        // or the replayed exact draws eat the saving.
        use rayfade_geometry::PaperTopology;
        use rayfade_sinr::PowerAssignment;
        let params = SinrParams::figure1();
        let powers = [
            PowerAssignment::figure1_uniform(),
            PowerAssignment::figure1_square_root(),
        ];
        for q in [0.1, 0.5, 1.0] {
            let (mut active, mut decided) = (0, 0);
            for seed in 0..4 {
                let net = PaperTopology::figure1().generate(seed);
                for power in &powers {
                    let gain = GainMatrix::from_geometry(&net, power, params.alpha);
                    let mut masks = StdRng::seed_from_u64(seed ^ 0x51);
                    let mut fading = StdRng::seed_from_u64(seed ^ 0xfade);
                    let mut verdicts = vec![false; gain.len()];
                    for _ in 0..10 {
                        let mask: Vec<bool> = (0..gain.len()).map(|_| masks.gen_bool(q)).collect();
                        let senders = active_senders(&mask);
                        active += senders.len();
                        decided += counted_fading_verdicts(
                            &gain,
                            &params,
                            &mut fading,
                            &senders,
                            &mut verdicts,
                        );
                    }
                }
            }
            let frac = decided as f64 / active as f64;
            assert!(frac >= 0.9, "q = {q}: bound decided {decided} of {active}");
        }
    }

    #[test]
    fn zero_means_take_no_draw() {
        // Off-diagonals all zero: a full slot takes exactly one draw per
        // live receiver, whatever the mask, and the dead one takes none.
        let gm = GainMatrix::from_raw(3, vec![2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0]);
        let params = SinrParams::new(2.0, 1.0, 0.0);
        let mut m = RayleighModel::new(gm.clone(), params, 3);
        let mut twin = StdRng::seed_from_u64(3);
        let mut verdicts = vec![false; 3];
        fading_verdicts(&gm, &params, &mut m.rng, &[0, 1, 2], &mut verdicts);
        // ν = 0 and no interference: live links succeed, the dead one not.
        assert_eq!(verdicts, [true, false, true]);
        let _: (f64, f64) = (twin.gen(), twin.gen());
        assert_eq!(m.rng, twin);
        // An all-idle slot at ν = 0 hits the zero-denominator branch:
        // nobody transmits, but counterfactually the live links would
        // succeed (SINR = ∞).
        assert_eq!(m.resolve_slot(&[false; 3]), Vec::<usize>::new());
        assert_eq!(
            m.sample_sinrs(&[false; 3]),
            [f64::INFINITY, 0.0, f64::INFINITY]
        );
    }

    #[test]
    fn exponential_sampling_mean_and_positivity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mean = 3.0;
        let k = 200_000;
        let mut sum = 0.0;
        for _ in 0..k {
            let x = sample_exponential(&mut rng, mean);
            assert!(x >= 0.0);
            sum += x;
        }
        let emp = sum / k as f64;
        assert!(
            (emp - mean).abs() < 0.05,
            "empirical mean {emp} vs expected {mean}"
        );
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sample_exponential(&mut rng, 0.0), 0.0);
    }

    #[test]
    fn exponential_memorylessness_quantile() {
        // P[X > mean] should be e^-1 ~ 0.3679.
        let mut rng = StdRng::seed_from_u64(3);
        let k = 200_000;
        let hits = (0..k)
            .filter(|_| sample_exponential(&mut rng, 2.0) > 2.0)
            .count();
        let frac = hits as f64 / k as f64;
        assert!((frac - (-1.0f64).exp()).abs() < 0.01, "{frac}");
    }

    #[test]
    fn model_is_deterministic_per_seed_and_fresh_per_slot() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 1.0, 1.0, 10.0]);
        let params = SinrParams::new(2.0, 1.0, 0.1);
        let mut a = RayleighModel::new(gm.clone(), params, 42);
        let mut b = RayleighModel::new(gm, params, 42);
        let active = vec![true, true];
        let s1a = a.resolve_slot(&active);
        let s1b = b.resolve_slot(&active);
        assert_eq!(s1a, s1b);
        // Different slots draw different coefficients (overwhelmingly).
        let x = a.sample_sinrs(&active);
        let y = a.sample_sinrs(&active);
        assert_ne!(x, y);
    }

    #[test]
    fn inactive_links_never_succeed() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 0.0, 0.0, 10.0]);
        let params = SinrParams::new(2.0, 0.1, 0.1);
        let mut m = RayleighModel::new(gm, params, 7);
        for _ in 0..50 {
            let succ = m.resolve_slot(&[true, false]);
            assert!(!succ.contains(&1));
        }
    }

    #[test]
    fn lone_link_success_rate_matches_exp_formula() {
        // Pr[S >= beta*nu] = exp(-beta*nu/mean): with mean=10, beta=2,
        // nu=1 -> exp(-0.2) ~ 0.8187.
        let gm = GainMatrix::from_raw(1, vec![10.0]);
        let params = SinrParams::new(2.0, 2.0, 1.0);
        let mut m = RayleighModel::new(gm, params, 11);
        let k = 100_000;
        let mut hits = 0;
        for _ in 0..k {
            if !m.resolve_slot(&[true]).is_empty() {
                hits += 1;
            }
        }
        let frac = hits as f64 / k as f64;
        let expected = (-0.2f64).exp();
        assert!((frac - expected).abs() < 0.01, "{frac} vs {expected}");
    }

    #[test]
    fn zero_noise_lone_transmitter_always_succeeds() {
        let gm = GainMatrix::from_raw(1, vec![5.0]);
        let params = SinrParams::new(2.0, 100.0, 0.0);
        let mut m = RayleighModel::new(gm, params, 5);
        for _ in 0..100 {
            assert_eq!(m.resolve_slot(&[true]), vec![0]);
        }
    }

    #[test]
    fn fading_lets_hopeless_links_succeed_sometimes() {
        // Non-fading: signal 0.5 < beta*nu = 1 -> never succeeds.
        // Rayleigh: succeeds with prob exp(-1/0.5) = exp(-2) ~ 0.135.
        let gm = GainMatrix::from_raw(1, vec![0.5]);
        let params = SinrParams::new(2.0, 1.0, 1.0);
        let mut m = RayleighModel::new(gm, params, 13);
        let k = 50_000;
        let hits = (0..k)
            .filter(|_| !m.resolve_slot(&[true]).is_empty())
            .count();
        let frac = hits as f64 / k as f64;
        assert!((frac - (-2.0f64).exp()).abs() < 0.01, "{frac}");
    }
}
