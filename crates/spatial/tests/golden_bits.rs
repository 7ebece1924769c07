//! Golden bits of the spatial ring-sweep builder.
//!
//! Each case builds a certified ε-truncated cache with
//! [`build_sparse_ratios_stats`] and folds everything a consumer can read
//! — the CSR layout, the bit patterns of every ρ, τᵢ, noise factor and
//! own signal, and the [`SparseBuildStats`] — into one FNV-1a digest.
//! The pinned digests were recorded from the cell-by-cell sweep that
//! predates the cell-ordered one; any change to the visit order, the
//! distance or gain arithmetic, the exterior bound or the truncation
//! shows up here as a different digest.

use rayfade_geometry::{ClusteredTopology, Network, PaperTopology};
use rayfade_sinr::{PowerAssignment, SinrParams, SparseInterferenceRatios};
use rayfade_spatial::{build_sparse_ratios_stats, SparseBuildStats};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest(ratios: &SparseInterferenceRatios, stats: &SparseBuildStats) -> u64 {
    let n = ratios.len();
    let mut h = Fnv::new();
    h.word(n as u64);
    let mut end = 0u64;
    for i in 0..n {
        let (cols, rhos) = ratios.row(i);
        end += cols.len() as u64;
        h.word(end);
        for (&j, &r) in cols.iter().zip(rhos) {
            h.word(j as u64);
            h.word(r.to_bits());
        }
    }
    for i in 0..n {
        h.word(ratios.tau(i).to_bits());
        h.word(ratios.noise_factor(i).to_bits());
        h.word(ratios.signal(i).to_bits());
    }
    h.word(stats.examined);
    h.word(stats.retained);
    h.word(stats.truncated);
    h.word(stats.tau_max.to_bits());
    h.0
}

fn run(
    net: &Network,
    power: &PowerAssignment,
    params: &SinrParams,
    delta: f64,
) -> (u64, SparseBuildStats) {
    let (ratios, stats) = build_sparse_ratios_stats(net, power, params, delta, None);
    assert_eq!(stats.retained as usize, ratios.nnz());
    (digest(&ratios, &stats), stats)
}

#[test]
fn paper_topology_4096_links_alpha_4() {
    // One link per 10⁶ square units, the density of the 10⁵-link
    // benchmark instance.
    let net = PaperTopology {
        links: 4096,
        side: 64_000.0,
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(0x901d);
    let power = PowerAssignment::figure1_uniform();
    let (d, stats) = run(&net, &power, &SinrParams::new(4.0, 2.5, 4e-7), 1e-3);
    assert!(stats.truncated > 0, "{stats:?}");
    assert_eq!(d, 0xd0a7_77ac_790c_9396, "digest {d:#018x}, {stats:?}");
}

#[test]
fn shallow_alpha_2500_links_many_rings() {
    // At α = 2.2 the exterior bound decays slowly, so each receiver
    // sweeps many rings before it may stop. Unequal powers make the
    // examined-power sum, and so the stop ring, depend on the visit
    // order.
    let net = PaperTopology {
        links: 2500,
        side: 50_000.0,
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(0x2b1d);
    let power = PowerAssignment::figure1_square_root();
    let (d, stats) = run(&net, &power, &SinrParams::new(2.2, 2.5, 4e-7), 5e-2);
    assert!(stats.examined > 100 * 2500, "{stats:?}");
    assert_eq!(d, 0x7472_85af_9142_b11f, "digest {d:#018x}, {stats:?}");
}

#[test]
fn clustered_topology_with_empty_and_crowded_cells() {
    // Eight tight clusters on a wide square: most grid cells are empty
    // and a few hold dozens of senders.
    let net = ClusteredTopology {
        links: 1500,
        clusters: 8,
        side: 20_000.0,
        spread: 150.0,
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(0xc105);
    let power = PowerAssignment::figure1_square_root();
    let (d, stats) = run(&net, &power, &SinrParams::new(4.0, 2.5, 4e-7), 1e-2);
    assert!(stats.truncated > 0, "{stats:?}");
    assert_eq!(d, 0xea41_8cf0_0c17_7547, "digest {d:#018x}, {stats:?}");
}
