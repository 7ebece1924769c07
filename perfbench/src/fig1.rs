//! `fig1_paper`: the paper's Figure 1 — 100-link networks under uniform
//! and square-root power, realized-fading Monte Carlo in both models,
//! plus the analytic Theorem-1 curve — its statistical check, and the
//! per-network traced replay through `sim::slots`.

use crate::sys::{self, timed, Fnv, Line};
use rayfade_core::{mix_seed, mix_seed2};
use rayfade_sim::{
    nonfading_success_curve_point, rayleigh_expected_successes_grid, rayleigh_success_curve_point,
    run_figure1, run_figure1_analytic, Curve, CurvePoint, Figure1Config, PowerFamily, RunningStats,
};
use rayfade_sinr::GainMatrix;
use std::time::Instant;

/// Networks per run (the paper averages 40).
pub const NETWORKS: u64 = 8;
/// Standard errors the Monte Carlo mean may sit from the analytic curve.
const Z: f64 = 5.0;
const FAMILIES: [PowerFamily; 2] = [PowerFamily::Uniform, PowerFamily::SquareRoot];

fn config(seed: u64) -> Figure1Config {
    Figure1Config {
        networks: NETWORKS,
        seed: mix_seed(0xf161, seed),
        ..Figure1Config::default()
    }
}

/// The same entry points cut to one q point and one slot per model.
fn cut_config(seed: u64) -> Figure1Config {
    let full = config(seed);
    Figure1Config {
        q_grid: vec![full.q_grid[0]],
        tx_seeds: 1,
        fading_seeds: 1,
        ..full
    }
}

/// Simulated slots of a run: per network, family and q point, the
/// non-fading curve draws `tx` slots and the Rayleigh curve `tx × fading`.
fn slots(cfg: &Figure1Config) -> u64 {
    cfg.networks
        * FAMILIES.len() as u64
        * cfg.q_grid.len() as u64
        * (cfg.tx_seeds + cfg.tx_seeds * cfg.fading_seeds)
}

/// The four Monte Carlo curves and the two analytic ones.
type Output = (Vec<Curve>, Vec<Curve>);

fn entry(cfg: &Figure1Config) -> Output {
    let mc = run_figure1(cfg).curves;
    let analytic = FAMILIES
        .iter()
        .map(|&f| run_figure1_analytic(cfg, f))
        .collect();
    (mc, analytic)
}

/// Every Monte Carlo Rayleigh point (one operation each) must lie within
/// `Z` standard errors of the analytic curve at the same q. The standard
/// error spans networks as well as fading draws, so the bound is loose
/// but never wrong in the safe direction; a small absolute floor covers
/// points whose spread is zero.
fn check(out: &Output) -> (u64, u64, u64) {
    let (mc, analytic) = out;
    let mut h = Fnv::default();
    for p in mc.iter().chain(analytic).flat_map(|c| &c.points) {
        h.f64(p.mean);
        h.f64(p.std_err);
    }
    let (mut attempted, mut failed) = (0, 0);
    for curve in mc.iter().filter(|c| c.rayleigh) {
        let exact = analytic
            .iter()
            .find(|c| c.power == curve.power)
            .expect("analytic curve per family");
        for (p, a) in curve.points.iter().zip(&exact.points) {
            attempted += 1;
            let ok = p.q == a.q
                && p.mean.is_finite()
                && (p.mean - a.mean).abs() <= Z * p.std_err + 1e-6 * (1.0 + a.mean);
            failed += u64::from(!ok);
        }
    }
    (attempted, failed, h.finish())
}

/// The untraced run: set-up probe and full run, repeated until `seconds`
/// have passed (at least twice), checks outside the timed spans.
pub fn run(seed: u64, seconds: f64, out: &mut Line) {
    let cfg = config(seed);
    let cut = cut_config(seed);
    let begin = Instant::now();
    let (mut setups, mut walls, mut steadies, mut cpus) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0, 0);
    let mut digest = None;
    while walls.len() < 2 || sys::since(begin) < seconds {
        let probes = sys::setup_probes(|| {
            std::hint::black_box(entry(&cut));
        });
        let setup = sys::median(&probes);

        let cpu0 = sys::cpu_s();
        let start = Instant::now();
        let output = entry(&cfg);
        let wall = sys::since(start);
        cpus.push(sys::cpu_s() - cpu0);

        let (a, f, d) = check(&output);
        attempted += a;
        failed += f;
        if *digest.get_or_insert(d) != d {
            failed += a;
        }
        setups.extend(probes);
        walls.push(wall);
        steadies.push(wall - setup);
    }
    out.num("wall_s", sys::median(&walls));
    out.num("setup_s", sys::median(&setups));
    out.num("cpu_s", sys::median(&cpus));
    out.num(
        "slots_per_s",
        slots(&cfg) as f64 / sys::median(&steadies).max(1e-9),
    );
    out.num("reps", walls.len() as f64);
    out.num("attempted", attempted as f64);
    out.num("failed", failed as f64);
    out.str("digest", format!("{:016x}", digest.expect("one run")));
}

#[derive(Debug, Default)]
struct Tally {
    generate_s: f64,
    gain_s: f64,
    rayleigh_s: f64,
    nonfading_s: f64,
    analytic_s: f64,
    points: u64,
}

/// Aggregates per-network rows into curve points exactly as the sim
/// engine does: one `RunningStats` per column, networks in order.
fn aggregate(rows: &[Vec<f64>], column: usize, q_grid: &[f64]) -> Vec<CurvePoint> {
    q_grid
        .iter()
        .enumerate()
        .map(|(qi, &q)| {
            let stats: RunningStats = rows.iter().map(|row| row[column + qi]).collect();
            CurvePoint {
                q,
                mean: stats.mean(),
                std_err: stats.std_err(),
            }
        })
        .collect()
}

/// Replays every network of `cfg` through `PaperTopology::generate`,
/// `GainMatrix::from_geometry` and the `sim::slots` point functions, in
/// the order and with the seeds of `run_figure1` / `run_figure1_analytic`.
fn replay(cfg: &Figure1Config, t: &mut Tally) -> Output {
    let alpha = cfg.params.alpha;
    let mut rows = Vec::new();
    for net_idx in 0..cfg.networks {
        let net = timed(&mut t.generate_s, || {
            cfg.topology.generate(cfg.seed.wrapping_add(net_idx))
        });
        let mut row = Vec::new();
        for family in FAMILIES {
            let gain = timed(&mut t.gain_s, || {
                GainMatrix::from_geometry(&net, &family.assignment(), alpha)
            });
            for rayleigh in [false, true] {
                for (qi, &q) in cfg.q_grid.iter().enumerate() {
                    let seed_base = mix_seed2(cfg.seed, net_idx, qi as u64);
                    t.points += 1;
                    row.push(if rayleigh {
                        timed(&mut t.rayleigh_s, || {
                            rayleigh_success_curve_point(
                                &gain,
                                &cfg.params,
                                q,
                                cfg.tx_seeds,
                                cfg.fading_seeds,
                                seed_base,
                            )
                        })
                    } else {
                        timed(&mut t.nonfading_s, || {
                            nonfading_success_curve_point(
                                &gain,
                                &cfg.params,
                                q,
                                cfg.tx_seeds,
                                seed_base,
                            )
                        })
                    });
                }
            }
        }
        rows.push(row);
    }
    let mut mc = Vec::new();
    let mut column = 0;
    for power in FAMILIES {
        for rayleigh in [false, true] {
            mc.push(Curve {
                power,
                rayleigh,
                points: aggregate(&rows, column, &cfg.q_grid),
            });
            column += cfg.q_grid.len();
        }
    }
    let mut analytic = Vec::new();
    for power in FAMILIES {
        let mut rows = Vec::new();
        for net_idx in 0..cfg.networks {
            let net = timed(&mut t.generate_s, || {
                cfg.topology.generate(cfg.seed.wrapping_add(net_idx))
            });
            let gain = timed(&mut t.gain_s, || {
                GainMatrix::from_geometry(&net, &power.assignment(), alpha)
            });
            rows.push(timed(&mut t.analytic_s, || {
                rayleigh_expected_successes_grid(&gain, &cfg.params, &cfg.q_grid)
            }));
        }
        analytic.push(Curve {
            power,
            rayleigh: true,
            points: aggregate(&rows, 0, &cfg.q_grid),
        });
    }
    (mc, analytic)
}

/// The traced run: the untraced entry on the pool (reference curves and
/// pool figures), then the same entry and the replay, both on a
/// one-thread pool so the untraced and traced walls compare like with
/// like. Refuses (panics) when a replayed curve differs from the
/// engine's in a single bit.
pub fn trace(seed: u64, out: &mut Line) {
    let cfg = config(seed);
    let threads = rayon::current_num_threads() as f64;
    let cpu0 = sys::cpu_s();
    let start = Instant::now();
    let reference = entry(&cfg);
    let wall = sys::since(start);
    out.num("rayon.busy_frac", (sys::cpu_s() - cpu0) / (wall * threads));
    let (attempted, failed, digest) = check(&reference);
    out.num("attempted", attempted as f64);
    out.num("failed", failed as f64);
    out.str("digest", format!("{digest:016x}"));

    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let start = Instant::now();
    std::hint::black_box(single.install(|| entry(&cfg)));
    let untraced = sys::since(start);

    let mut t = Tally::default();
    let start = Instant::now();
    let replayed = single.install(|| replay(&cfg, &mut t));
    let traced = sys::since(start);
    let bits = |o: &Output| -> Vec<u64> {
        o.0.iter()
            .chain(&o.1)
            .flat_map(|c| &c.points)
            .flat_map(|p| [p.q.to_bits(), p.mean.to_bits(), p.std_err.to_bits()])
            .collect()
    };
    assert!(
        bits(&replayed) == bits(&reference),
        "traced replay differs from run_figure1; refusing to attribute time"
    );

    out.num("geometry.generate_s", t.generate_s);
    out.num("sinr.gain_s", t.gain_s);
    out.num(
        "sinr.gain_mb",
        (cfg.topology.links * cfg.topology.links * 8) as f64 / 1e6,
    );
    out.num("sim.rayleigh_point_s", t.rayleigh_s);
    out.num("sim.nonfading_point_s", t.nonfading_s);
    out.num("sim.analytic_s", t.analytic_s);
    out.num("sim.points", t.points as f64);
    let attributed = t.generate_s + t.gain_s + t.rayleigh_s + t.nonfading_s + t.analytic_s;
    out.num("unattributed_s", traced - attributed);
    out.num("coverage", attributed / traced);
    out.num("trace_overhead_s", traced - untraced);
}
