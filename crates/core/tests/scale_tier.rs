//! Dense equivalence of the grid-built sparse cache at the sizes where
//! the dynamic engine uses it: from the sparse crossover up, and at the
//! default truncation bound as well as `δ = 0`.
//!
//! `rayfade_spatial::build_dense_equivalent_ratios` must keep every
//! retained pair, `ρ`, noise factor and signal of
//! `from_gain(&GainMatrix::from_geometry(..))` bit for bit, with each
//! certificate `τᵢ` between the dense cache's exact dropped mass and `τ`
//! (the whole struct at `δ = 0`), at any pool size. The engine builds its
//! cache the first way; the gain-based constructors every replay and
//! reference uses build it the second.

use rayfade_core::{DEFAULT_SPARSE_DELTA, SPARSE_CROSSOVER};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::{GainMatrix, PowerAssignment, SinrParams, SparseInterferenceRatios};
use rayfade_spatial::build_dense_equivalent_ratios;

fn at_pool_size<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(op)
}

#[test]
fn grid_build_is_dense_equivalent_at_and_above_the_crossover() {
    let power = PowerAssignment::figure1_uniform();
    for n in [SPARSE_CROSSOVER, SPARSE_CROSSOVER + 1] {
        // The dynamic engine's scale density: one link per 10⁶ square
        // units.
        let net = PaperTopology {
            links: n,
            side: (n as f64).sqrt() * 1000.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(n as u64);
        for alpha in [2.2, 4.0] {
            let params = SinrParams::new(alpha, 2.5, 4e-7);
            let dense = GainMatrix::from_geometry(&net, &power, alpha);
            for delta in [0.0, DEFAULT_SPARSE_DELTA] {
                let want = SparseInterferenceRatios::from_gain(&dense, &params, delta);
                if delta > 0.0 && alpha == 4.0 {
                    assert!(want.nnz() < n * (n - 1) / 100, "the cache must be sparse");
                }
                for threads in [1, 4] {
                    let (got, stats) = at_pool_size(threads, || {
                        build_dense_equivalent_ratios(&net, &power, &params, delta)
                    });
                    let context = format!("n {n}, alpha {alpha}, delta {delta}, {threads} threads");
                    if let Err(e) = got.check_dense_equivalent(&want) {
                        panic!("{context}: {e}");
                    }
                    if delta == 0.0 {
                        assert!(got == want, "{context}: caches differ as structs");
                    } else if alpha == 4.0 {
                        assert_eq!(stats.full_scans, 0, "{context}: rows must stop early");
                    }
                }
            }
        }
    }
}
