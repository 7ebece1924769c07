//! The dense-equivalent ring sweep against the dense-built cache.
//!
//! `build_dense_equivalent_ratios` must keep exactly the pairs, ratios,
//! noise factors and signals of
//! `SparseInterferenceRatios::from_gain(&GainMatrix::from_geometry(..))`,
//! bit for bit, with every certificate `τᵢ` between the dense cache's
//! exact dropped mass and `τ` — on random deployments across `α`, `δ`
//! and density, and on lattices whose symmetric senders tie their
//! ratios at the truncation cut.

use proptest::prelude::*;
use rayfade_geometry::{Link, Network, PaperTopology, Point};
use rayfade_sinr::{
    GainMatrix, InterferenceRatios, PowerAssignment, SinrParams, SparseInterferenceRatios,
};
use rayfade_spatial::{build_dense_equivalent_ratios, SparseBuildStats};

const ALPHAS: [f64; 4] = [2.2, 3.0, 4.0, 5.0];
const DELTAS: [f64; 4] = [0.0, 1e-6, 1e-3, 0.5];

/// Builds both caches, requires dense equivalence (whole-struct equality
/// at `δ = 0`) and returns the sweep's statistics.
fn compare(
    net: &Network,
    power: &PowerAssignment,
    params: &SinrParams,
    delta: f64,
) -> Result<SparseBuildStats, String> {
    let dense = SparseInterferenceRatios::from_gain(
        &GainMatrix::from_geometry(net, power, params.alpha),
        params,
        delta,
    );
    let (built, stats) = build_dense_equivalent_ratios(net, power, params, delta);
    built.check_dense_equivalent(&dense)?;
    if delta == 0.0 && built != dense {
        return Err("delta 0: caches differ as structs".to_string());
    }
    Ok(stats)
}

/// `side × side` links on a square lattice of spacing `spacing`, each
/// sender `length` to the left of its receiver: senders mirrored about a
/// receiver's row sit at bit-equal distances, so their ratios tie.
fn lattice(side: usize, spacing: f64, length: f64) -> Network {
    let mut links = Vec::with_capacity(side * side);
    for y in 0..side {
        for x in 0..side {
            let s = Point::new(x as f64 * spacing, y as f64 * spacing);
            links.push(Link::new(s, Point::new(s.x + length, s.y)));
        }
    }
    Network::new(links)
}

/// Whether some receiver of the dense-built cache keeps one of several
/// senders tied at its smallest kept ratio and drops another, so the
/// sender tie-break decides the row.
fn tie_at_the_cut(net: &Network, params: &SinrParams, delta: f64) -> bool {
    let power = PowerAssignment::figure1_uniform();
    let gain = GainMatrix::from_geometry(net, &power, params.alpha);
    let full = InterferenceRatios::new(&gain, params);
    let sparse = SparseInterferenceRatios::from_gain(&gain, params, delta);
    (0..net.len()).any(|i| {
        let (cols, rhos) = sparse.row(i);
        let Some(cut) = rhos.iter().copied().reduce(f64::min) else {
            return false;
        };
        (0..net.len()).any(|j| j != i && full.rho(j, i) == cut && !cols.contains(&(j as u32)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random paper deployments of up to 300 links, sparse to crowded,
    /// under both Figure 1 power assignments.
    #[test]
    fn dense_equivalent_sweep_matches_from_gain(
        links in 1usize..=300,
        seed in any::<u64>(),
        spacing in 30.0f64..400.0,
        alpha_k in 0usize..4,
        delta_k in 0usize..4,
        square_root in any::<bool>(),
    ) {
        let net = PaperTopology {
            links,
            side: (links as f64).sqrt() * spacing,
            min_length: 10.0,
            max_length: 30.0,
        }
        .generate(seed);
        let power = if square_root {
            PowerAssignment::figure1_square_root()
        } else {
            PowerAssignment::figure1_uniform()
        };
        let params = SinrParams::new(ALPHAS[alpha_k], 2.5, 4e-7);
        let stats = compare(&net, &power, &params, DELTAS[delta_k]);
        prop_assert!(stats.is_ok(), "{}", stats.unwrap_err());
    }
}

#[test]
fn every_alpha_and_delta_on_one_deployment_with_decided_rows() {
    let net = PaperTopology {
        links: 300,
        side: 300f64.sqrt() * 200.0,
        min_length: 10.0,
        max_length: 30.0,
    }
    .generate(17);
    let power = PowerAssignment::figure1_uniform();
    for alpha in ALPHAS {
        let params = SinrParams::new(alpha, 2.5, 4e-7);
        for delta in DELTAS {
            let stats = compare(&net, &power, &params, delta)
                .unwrap_or_else(|e| panic!("alpha {alpha}, delta {delta}: {e}"));
            if delta == 0.0 {
                assert_eq!(stats.full_scans, 300, "delta 0 scans every row");
            } else if alpha >= 4.0 && delta >= 1e-3 {
                assert!(
                    stats.full_scans < 300,
                    "alpha {alpha}, delta {delta}: some row must stop early ({stats:?})"
                );
            }
        }
    }
}

#[test]
fn lattice_ties_at_the_cut_keep_the_dense_tie_break() {
    let net = lattice(12, 50.0, 17.0);
    let mut ties = 0;
    for alpha in ALPHAS {
        let params = SinrParams::new(alpha, 2.5, 4e-7);
        for delta in [1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.5] {
            compare(&net, &PowerAssignment::figure1_uniform(), &params, delta)
                .unwrap_or_else(|e| panic!("alpha {alpha}, delta {delta}: {e}"));
            ties += usize::from(tie_at_the_cut(&net, &params, delta));
        }
    }
    assert!(ties > 0, "no lattice case split a tie at the cut");
}
