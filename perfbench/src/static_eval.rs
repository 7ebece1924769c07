//! `static_100k`: the certified sparse Theorem-1 evaluation of 10⁵ links
//! over a 20-point q grid, its soundness check against the exact
//! product computed from geometry, and the traced replay through the
//! spatial builder and the evaluator.

use crate::sys::{self, timed, Fnv, Line};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_core::{mix_seed, NetworkEvaluator, SparseSuccessEvaluator, DEFAULT_SPARSE_DELTA};
use rayfade_geometry::{LinkGeometry, Network, PaperTopology};
use rayfade_sinr::{PowerAssignment, SinrParams};
use std::time::Instant;

/// Links of the instance.
pub const LINKS: usize = 100_000;
/// Links whose exact Theorem-1 probability is checked per run.
const SAMPLE: usize = 8;
/// Relative slack on the certified interval for the rounding of the
/// exact product (10⁵ factors).
const ROUNDING: f64 = 1e-9;
/// Grid passes per repetition that time the steady state.
const GRID_PASSES: usize = 5;

/// One link per 10⁶ square units, the `maxweight_10k` density.
fn topology() -> PaperTopology {
    PaperTopology {
        links: LINKS,
        side: (LINKS as f64 * 1e6).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    }
}

fn params() -> SinrParams {
    SinrParams::new(4.0, 2.5, 4e-7)
}

fn q_grid() -> Vec<f64> {
    (1..=20).map(|k| k as f64 / 20.0).collect()
}

fn network(seed: u64) -> Network {
    topology().generate(mix_seed(0x51e5, seed))
}

/// Exact Theorem-1 success probability of link `i` at uniform `q`: the
/// product over all n senders, gains computed from geometry.
fn exact_probability(net: &Network, params: &SinrParams, powers: &[f64], i: usize, q: f64) -> f64 {
    let gain = |j: usize| powers[j] / net.cross_dist(j, i).powf(params.alpha);
    let s_ii = gain(i);
    let mut p = q * (-params.beta * params.noise / s_ii).exp();
    for j in (0..net.len()).filter(|&j| j != i) {
        p *= 1.0 - params.beta * q / (params.beta + s_ii / gain(j));
    }
    p
}

/// Checks each q point (one operation each): the interval is well
/// formed and inside [0, n], and every sampled link's exact probability
/// lies inside its certified per-link interval.
fn check(
    net: &Network,
    ev: &mut NetworkEvaluator,
    intervals: &[(f64, f64)],
    sample_seed: u64,
) -> (u64, u64) {
    let params = params();
    let powers = PowerAssignment::figure1_uniform().powers(net, params.alpha);
    let mut rng = StdRng::seed_from_u64(sample_seed);
    let sample: Vec<usize> = (0..SAMPLE).map(|_| rng.gen_range(0..LINKS)).collect();
    let NetworkEvaluator::Sparse(sparse) = ev else {
        return (intervals.len() as u64, intervals.len() as u64);
    };
    let mut failed = 0;
    for (&q, &(lo, hi)) in q_grid().iter().zip(intervals) {
        sparse.set_uniform(q);
        let interval_ok = lo.is_finite() && 0.0 <= lo && lo <= hi && hi <= LINKS as f64;
        let links_ok = sample.iter().all(|&i| {
            let (a, b) = sparse.success_interval(i);
            let p = exact_probability(net, &params, &powers, i, q);
            a * (1.0 - ROUNDING) <= p && p <= b * (1.0 + ROUNDING)
        });
        failed += u64::from(!(interval_ok && links_ok));
    }
    (intervals.len() as u64, failed)
}

/// FNV-1a over the bits of the certified intervals.
fn digest(intervals: &[(f64, f64)]) -> u64 {
    let mut h = Fnv::default();
    for &(lo, hi) in intervals {
        h.f64(lo);
        h.f64(hi);
    }
    h.finish()
}

/// The certified E[successes] interval at every q of the grid.
fn evaluate(ev: &mut NetworkEvaluator, grid: &[f64]) -> Vec<(f64, f64)> {
    grid.iter()
        .map(|&q| {
            ev.set_uniform(q);
            ev.expected_successes_interval()
        })
        .collect()
}

/// Mean relative certified width (hi − lo)/hi over the q grid.
fn width(intervals: &[(f64, f64)]) -> f64 {
    intervals
        .iter()
        .map(|&(lo, hi)| (hi - lo) / hi)
        .sum::<f64>()
        / intervals.len() as f64
}

/// The untraced run: generate, build the evaluator through the public
/// size-routing entry point, evaluate the grid; repeated until `seconds`
/// have passed (at least three times), checks outside the timed spans.
pub fn run(seed: u64, seconds: f64, out: &mut Line) {
    let begin = Instant::now();
    let (mut setups, mut walls, mut steadies, mut cpus) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0, 0);
    let mut digest_first = None;
    let grid = q_grid();
    while walls.len() < 3 || sys::since(begin) < seconds {
        let cpu0 = sys::cpu_s();
        let start = Instant::now();
        let net = network(seed);
        let mut ev = NetworkEvaluator::for_network(
            &net,
            &PowerAssignment::figure1_uniform(),
            &params(),
            None,
        );
        let setup = sys::since(start);
        let intervals = evaluate(&mut ev, &grid);
        let wall = sys::since(start);
        cpus.push(sys::cpu_s() - cpu0);
        // Steady state over more than one 90 ms pass: the same grid again,
        // which must give the same bits.
        let mut passes = vec![wall - setup];
        let d = digest(&intervals);
        let mut repeat_ok = true;
        for _ in 1..GRID_PASSES {
            let start = Instant::now();
            let again = evaluate(&mut ev, &grid);
            passes.push(sys::since(start));
            repeat_ok &= digest(&again) == d;
        }

        let (a, f) = check(&net, &mut ev, &intervals, seed);
        attempted += a;
        failed += f;
        if !repeat_ok || *digest_first.get_or_insert(d) != d {
            failed += a;
        }
        setups.push(setup);
        walls.push(wall);
        steadies.push(sys::median(&passes));
    }
    out.num("wall_s", sys::median(&walls));
    out.num("setup_s", sys::median(&setups));
    out.num("cpu_s", sys::median(&cpus));
    out.num(
        "slots_per_s",
        grid.len() as f64 / sys::median(&steadies).max(1e-9),
    );
    out.num("reps", walls.len() as f64);
    out.num("attempted", attempted as f64);
    out.num("failed", failed as f64);
    out.str("digest", format!("{:016x}", digest_first.expect("one run")));
}

/// The traced run: the untraced entry once (reference intervals and pool
/// figures), then the same inputs through `PaperTopology::generate`,
/// `build_sparse_ratios_stats` and the sparse evaluator, timing each.
pub fn trace(seed: u64, out: &mut Line) {
    let grid = q_grid();
    let power = PowerAssignment::figure1_uniform();
    let threads = rayon::current_num_threads() as f64;
    let cpu0 = sys::cpu_s();
    let start = Instant::now();
    let net = network(seed);
    let mut ev = NetworkEvaluator::for_network(&net, &power, &params(), None);
    let reference = evaluate(&mut ev, &grid);
    let untraced = sys::since(start);
    out.num(
        "rayon.busy_frac",
        (sys::cpu_s() - cpu0) / (untraced * threads),
    );
    let (attempted, failed) = check(&net, &mut ev, &reference, seed);
    out.num("attempted", attempted as f64);
    out.num("failed", failed as f64);
    out.str("digest", format!("{:016x}", digest(&reference)));
    out.num("cert_width_rel", width(&reference));
    drop((net, ev));

    let (mut generate_s, mut build_s, mut eval_s) = (0.0, 0.0, 0.0);
    let start = Instant::now();
    let net = timed(&mut generate_s, || network(seed));
    let (ratios, stats) = timed(&mut build_s, || {
        rayfade_spatial::build_sparse_ratios_stats(
            &net,
            &power,
            &params(),
            DEFAULT_SPARSE_DELTA,
            None,
        )
    });
    let nnz = ratios.nnz();
    let mut ev = timed(&mut eval_s, || SparseSuccessEvaluator::from_ratios(ratios));
    let replay: Vec<(f64, f64)> = grid
        .iter()
        .map(|&q| {
            timed(&mut eval_s, || {
                ev.set_uniform(q);
                ev.expected_successes_interval()
            })
        })
        .collect();
    let traced = sys::since(start);
    let bits = |v: &[(f64, f64)]| -> Vec<u64> {
        v.iter()
            .flat_map(|&(a, b)| [a.to_bits(), b.to_bits()])
            .collect()
    };
    assert!(
        bits(&replay) == bits(&reference),
        "traced replay differs from NetworkEvaluator::for_network; refusing to attribute time"
    );

    out.num("geometry.generate_s", generate_s);
    out.num("spatial.build_s", build_s);
    out.num("spatial.pairs_examined", stats.examined as f64);
    out.num("spatial.nnz", nnz as f64);
    out.num(
        "spatial.retained_frac",
        nnz as f64 / stats.examined.max(1) as f64,
    );
    out.num("spatial.tau_max", stats.tau_max);
    // Row and transpose CSR (u32 index + f64 ratio per entry, usize row
    // pointers) plus the per-link noise, signal and τ vectors.
    out.num("spatial.csr_mb", (24 * nnz + 40 * LINKS + 16) as f64 / 1e6);
    out.num("core.eval_s", eval_s);
    out.num("core.evals", grid.len() as f64);
    let attributed = generate_s + build_s + eval_s;
    out.num("unattributed_s", traced - attributed);
    out.num("coverage", attributed / traced);
    out.num("trace_overhead_s", traced - untraced);
}
