//! Golden bits of the Figure 1 Monte Carlo.
//!
//! Each case folds the f64 bit patterns of a set of Monte Carlo results
//! into one FNV-1a digest, so any change to the activation draws, the
//! fading-stream order (which coefficient consumes which draw) or the
//! SINR arithmetic shows up as a different digest — not only a drift
//! beyond `tests/reproducibility.rs`'s 1e-9 tolerance. The pinned digests
//! were recorded from the per-slot `sample_sinrs`-then-filter path that
//! predates the verdict kernel.

use rayfade_geometry::PaperTopology;
use rayfade_sim::{rayleigh_success_curve_point, run_figure1, Figure1Config, PowerFamily};
use rayfade_sinr::{GainMatrix, SinrParams};

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

#[test]
fn figure1_smoke_curves_bit_exact() {
    let res = run_figure1(&Figure1Config::smoke());
    let mut h = Fnv::new();
    for curve in &res.curves {
        h.word(u64::from(curve.rayleigh));
        for p in &curve.points {
            h.word(p.q.to_bits());
            h.word(p.mean.to_bits());
            h.word(p.std_err.to_bits());
        }
    }
    assert_eq!(h.0, 0x1e60_a78d_3d3a_caf0, "figure 1 smoke digest");
}

#[test]
fn rayleigh_points_on_a_figure1_network_bit_exact() {
    let params = SinrParams::figure1();
    let net = PaperTopology::figure1().generate(0xf161);
    assert_eq!(net.len(), 100);
    let mut h = Fnv::new();
    for family in [PowerFamily::Uniform, PowerFamily::SquareRoot] {
        let gain = GainMatrix::from_geometry(&net, &family.assignment(), params.alpha);
        for (k, q) in [0.05, 0.5, 1.0].into_iter().enumerate() {
            let point = rayleigh_success_curve_point(&gain, &params, q, 25, 10, 0x5eed + k as u64);
            h.word(point.to_bits());
        }
    }
    assert_eq!(
        h.0, 0x08d7_64a2_ce3d_a250,
        "figure 1 network Rayleigh points digest"
    );
}
