//! The two dynamic-engine workloads: `maxweight_10k` (one large loaded
//! replication) and `stability_sweep` (the paper-scale λ sweep), their
//! output checks, and the traced replay through the engine's layers.

use crate::sys::{self, timed, Fnv, Line};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayfade_core::{mix_seed, mix_seed2, RayleighModel};
use rayfade_dynamic::{
    judge_cell, AnalyticResolver, ArrivalProcess, ArrivalSample, DynamicConfig, DynamicEngine,
    DynamicOutcome, LambdaSweep, MonteCarloResolver, ObservedSlot, OnlinePolicy, PolicyKind,
    QueueAloha, QueueBank, QueueMaxWeight, RayleighMaxWeight, RegretPolicy, SlotModelKind,
    SlotResolver, SlotTrace, StabilityCell, StabilityReport, SuccessModelKind, DRIFT_TOLERANCE,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::{GainMatrix, NonFadingModel, PowerAssignment, SinrParams, SuccessModel};
use rayfade_telemetry::Telemetry;
use rayon::prelude::*;
use std::time::Instant;

/// Slots of the `maxweight_10k` replication.
pub const MAXWEIGHT_SLOTS: u64 = 400;
/// Slots per replication of the `stability_sweep` cells.
pub const SWEEP_SLOTS: u64 = 5_000;

/// `maxweight_10k`: 10⁴ links at one link per 10⁶ square units (the
/// `slot_throughput` geometry), Bernoulli λ = 0.05, Rayleigh max-weight,
/// analytic slot resolution.
pub fn maxweight_config(seed: u64, slots: u64) -> DynamicConfig {
    DynamicConfig {
        links: 10_000,
        networks: 1,
        slots,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy: PolicyKind::RayleighMaxWeight,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::Analytic,
        topology: PaperTopology {
            links: 10_000,
            side: 100_000.0,
            min_length: 20.0,
            max_length: 40.0,
        },
        params: SinrParams::new(4.0, 2.5, 4e-7),
        sample_every: (slots / 20).max(1),
        seed: mix_seed(0x5107, seed),
    }
}

/// `stability_sweep`: the `stability_exp` λ sweep — 20-link dense
/// deployments, 4 networks per cell, 10 rates up to 0.2, every policy of
/// `PolicyKind::all()` under both success models, Monte Carlo slots.
pub fn sweep(seed: u64, slots: u64) -> LambdaSweep {
    let links = 20;
    let base = DynamicConfig {
        links,
        networks: 4,
        slots,
        arrival: ArrivalProcess::Bernoulli { rate: 0.0 },
        policy: PolicyKind::MaxWeight,
        model: SuccessModelKind::NonFading,
        slot_model: SlotModelKind::MonteCarlo,
        topology: PaperTopology {
            links,
            side: 150.0,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: (slots / 100).max(1),
        seed: mix_seed(0xd1_4a, seed),
    };
    LambdaSweep::linear(base, 0.20, 10)
}

/// The sweep's cells in `LambdaSweep::run` order: policies × models × λ.
pub fn sweep_cells(sweep: &LambdaSweep) -> Vec<DynamicConfig> {
    let mut cells = Vec::new();
    for policy in PolicyKind::all() {
        for model in SuccessModelKind::all() {
            for &lambda in &sweep.lambdas {
                cells.push(DynamicConfig {
                    policy,
                    model,
                    arrival: sweep.base.arrival.with_rate(lambda),
                    slot_model: match model {
                        SuccessModelKind::NonFading => SlotModelKind::MonteCarlo,
                        SuccessModelKind::Rayleigh => sweep.base.slot_model,
                    },
                    ..sweep.base.clone()
                });
            }
        }
    }
    cells
}

/// Which dynamic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MaxWeight,
    Sweep,
}

impl Workload {
    /// The workload's cells (one engine configuration each) at the given
    /// slot count.
    fn cells(self, seed: u64, slots: u64) -> Vec<DynamicConfig> {
        match self {
            Workload::MaxWeight => vec![maxweight_config(seed, slots)],
            Workload::Sweep => sweep_cells(&sweep(seed, slots)),
        }
    }

    fn slots(self) -> u64 {
        match self {
            Workload::MaxWeight => MAXWEIGHT_SLOTS,
            Workload::Sweep => SWEEP_SLOTS,
        }
    }
}

/// Runs every cell through the public engine entry point, cells in
/// parallel on the pool exactly as `LambdaSweep::run` schedules them
/// (a single cell runs its replications on the pool instead), and judges
/// each cell.
fn run_cells(
    cells: &[DynamicConfig],
    tele: Option<&Telemetry>,
) -> (Vec<Vec<DynamicOutcome>>, StabilityReport) {
    let outcomes: Vec<Vec<DynamicOutcome>> = cells
        .to_vec()
        .into_par_iter()
        .map(|cfg| DynamicEngine::new(cfg).run_with_telemetry(tele))
        .collect();
    let report = StabilityReport {
        cells: cells
            .iter()
            .zip(&outcomes)
            .map(|(cfg, outs)| {
                judge_cell(cfg.policy, cfg.model, cfg.arrival.rate(), cfg.links, outs)
            })
            .collect(),
    };
    (outcomes, report)
}

/// Seconds inside the engine's `dynamic/replication` spans: the slot
/// loops, without the set-up before them.
fn replication_seconds(tele: &Telemetry) -> f64 {
    let trace = tele.tracer().expect("tracing enabled").snapshot();
    assert_eq!(trace.dropped, 0, "the engine tracer dropped spans");
    let ns: u64 = trace
        .records
        .iter()
        .filter(|r| r.name == "dynamic/replication")
        .map(|r| r.duration_ns())
        .sum();
    assert!(ns > 0, "no dynamic/replication span recorded");
    ns as f64 / 1e9
}

/// Whether one replication's outputs are self-consistent: packets are
/// conserved (arrivals = departures + final backlog), the sampled
/// cumulative series are monotone and agree with the sampled backlog,
/// and throughput never exceeds the offered load.
pub fn replication_ok(cfg: &DynamicConfig, o: &DynamicOutcome) -> bool {
    let n = cfg.links as f64;
    let slots = cfg.slots as f64;
    let arrivals = (o.offered_per_link * slots * n).round();
    let departures = (o.throughput_per_link * slots * n).round();
    let backlog = (o.final_backlog_per_link * n).round();
    let t = &o.trace;
    let series_ok = t.slots.len() == t.total_backlog.len()
        && t.slots.len() == t.cum_arrivals.len()
        && t.slots.len() == t.cum_departures.len()
        && t.slots.windows(2).all(|w| w[0] < w[1])
        && t.cum_arrivals.windows(2).all(|w| w[0] <= w[1])
        && t.cum_departures.windows(2).all(|w| w[0] <= w[1])
        && (0..t.slots.len())
            .all(|k| t.cum_arrivals[k] == t.cum_departures[k] + t.total_backlog[k])
        && t.cum_arrivals.last().is_none_or(|&a| a as f64 <= arrivals)
        && t.cum_departures
            .last()
            .is_none_or(|&d| d as f64 <= departures);
    o.offered_per_link.is_finite()
        && o.throughput_per_link.is_finite()
        && arrivals == departures + backlog
        && o.throughput_per_link <= o.offered_per_link
        && series_ok
}

/// A judged cell is well formed: finite figures, throughput within the
/// offered load, and the verdict the drift rule gives.
fn cell_ok(cfg: &DynamicConfig, cell: &StabilityCell) -> bool {
    let threshold = DRIFT_TOLERANCE * cell.lambda * cfg.links as f64;
    cell.throughput.is_finite()
        && cell.drift.is_finite()
        && cell.throughput <= cell.offered
        && cell.verdict.is_stable() == (cell.drift <= threshold)
}

fn digest_outcome(h: &mut Fnv, o: &DynamicOutcome) {
    h.f64(o.throughput_per_link);
    h.f64(o.offered_per_link);
    h.f64(o.mean_delay.unwrap_or(-1.0));
    h.u64(o.p95_delay.unwrap_or(u64::MAX));
    h.f64(o.final_backlog_per_link);
    for k in 0..o.trace.slots.len() {
        h.u64(o.trace.slots[k]);
        h.u64(o.trace.total_backlog[k]);
        h.u64(o.trace.cum_arrivals[k]);
        h.u64(o.trace.cum_departures[k]);
    }
}

/// Checks every replication (one operation each) and every judged cell
/// (a failed cell fails its replications); returns (attempted, failed,
/// digest).
fn check(
    cells: &[DynamicConfig],
    outcomes: &[Vec<DynamicOutcome>],
    report: &StabilityReport,
) -> (u64, u64, u64) {
    let mut h = Fnv::default();
    let (mut attempted, mut failed) = (0, 0);
    for ((cfg, outs), cell) in cells.iter().zip(outcomes).zip(&report.cells) {
        let cell_good = cell_ok(cfg, cell);
        for o in outs {
            attempted += 1;
            failed += u64::from(!(cell_good && replication_ok(cfg, o)));
            digest_outcome(&mut h, o);
        }
        h.u64(u64::from(cell.verdict.is_stable()));
    }
    (attempted, failed, h.finish())
}

/// The untraced run: interleaves set-up probes (the same entry point cut
/// to one slot) with full runs until `seconds` have passed (at least one
/// pair), checking every full run's outputs outside the timed span.
///
/// The sweep's set-up is milliseconds, so its steady state is the full
/// run less the set-up. `maxweight_10k`'s set-up is ~16 s and varies by
/// seconds between calls, far more than a difference can bear, so its
/// full run carries the engine's own tracer and the steady state is the
/// engine's `dynamic/replication` span, which opens after the set-up.
/// That tracer records one span per replication and samples the slot
/// phases on 20 of the slots.
pub fn run(workload: Workload, seed: u64, seconds: f64, out: &mut Line) {
    let cut = workload.cells(seed, 1);
    let cells = workload.cells(seed, workload.slots());
    let work_slots: u64 = cells.iter().map(|c| c.slots * c.networks as u64).sum();
    let begin = Instant::now();
    let (mut setups, mut walls, mut steadies, mut cpus) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0, 0);
    let mut digest = None;
    while walls.is_empty() || sys::since(begin) < seconds {
        let probes = sys::setup_probes(|| {
            std::hint::black_box(run_cells(&cut, None));
        });
        let setup = sys::median(&probes);

        let tele = (workload == Workload::MaxWeight).then(|| Telemetry::new().with_tracing());
        let cpu0 = sys::cpu_s();
        let start = Instant::now();
        let (outcomes, report) = run_cells(&cells, tele.as_ref());
        let wall = sys::since(start);
        cpus.push(sys::cpu_s() - cpu0);
        let steady = match &tele {
            Some(t) => replication_seconds(t),
            None => wall - setup,
        };

        let (a, f, d) = check(&cells, &outcomes, &report);
        attempted += a;
        failed += f;
        // Runs are deterministic: a digest that moves between repeats in
        // one process is a failure of every operation of that repeat.
        if *digest.get_or_insert(d) != d {
            failed += a;
        }
        setups.extend(probes);
        walls.push(wall);
        steadies.push(steady);
    }
    let steady = sys::median(&steadies);
    out.num("wall_s", sys::median(&walls));
    out.num("setup_s", sys::median(&setups));
    out.num("cpu_s", sys::median(&cpus));
    out.num("slots_per_s", work_slots as f64 / steady.max(1e-9));
    out.num("reps", walls.len() as f64);
    out.num("attempted", attempted as f64);
    out.num("failed", failed as f64);
    out.str("digest", format!("{:016x}", digest.expect("one run")));
}

/// Per-layer seconds and counts accumulated over replayed replications.
#[derive(Debug, Default)]
struct Tally {
    generate_s: f64,
    gain_s: f64,
    gain_mb: f64,
    resolver_setup_s: f64,
    policy_setup_s: f64,
    policy_setup_mb: f64,
    arrivals_s: f64,
    queue_s: f64,
    resolve_s: f64,
    /// `(policy label, seconds in choose + observe)`.
    policy_s: Vec<(&'static str, f64)>,
    flips: u64,
    transmissions: u64,
    successes: u64,
    candidates_scored: u64,
    accepted: u64,
}

impl Tally {
    fn attributed(&self) -> f64 {
        self.generate_s
            + self.gain_s
            + self.resolver_setup_s
            + self.policy_setup_s
            + self.arrivals_s
            + self.queue_s
            + self.resolve_s
            + self.policy_s.iter().map(|p| p.1).sum::<f64>()
    }
}

/// The engine's policy-label stream tag: FNV-1a's offset basis with the
/// multiplier `0x1_0000_01b3`, exactly as `DynamicEngine` mixes it.
fn label_tag(label: &str) -> u64 {
    label.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

/// Replays replication `net` of `cfg` through the public layer
/// functions, timing each call — the same seeding and call order as
/// `DynamicEngine::run_network`, so the outcome must match it bit for
/// bit.
fn replay(cfg: &DynamicConfig, net: u64, t: &mut Tally) -> DynamicOutcome {
    const TOPOLOGY: u64 = 1;
    const ARRIVALS: u64 = 2;
    const POLICY: u64 = 3;
    const FADING: u64 = 4;
    let n = cfg.links;
    let topology = PaperTopology {
        links: n,
        ..cfg.topology
    };
    let network = timed(&mut t.generate_s, || {
        topology.generate(mix_seed2(cfg.seed, TOPOLOGY, net))
    });
    let gain = timed(&mut t.gain_s, || {
        GainMatrix::from_geometry(
            &network,
            &PowerAssignment::figure1_uniform(),
            cfg.params.alpha,
        )
    });
    t.gain_mb = t.gain_mb.max((n * n * 8) as f64 / 1e6);

    let (mut rngs, mut samplers): (Vec<StdRng>, Vec<ArrivalSample>) =
        timed(&mut t.arrivals_s, || {
            let root = mix_seed2(
                mix_seed(cfg.seed, ARRIVALS),
                net,
                cfg.arrival.rate().to_bits(),
            );
            (
                (0..n as u64)
                    .map(|link| StdRng::seed_from_u64(mix_seed(root, link)))
                    .collect(),
                (0..n).map(|_| cfg.arrival.sampler()).collect(),
            )
        });
    let label = cfg.policy.label();
    let mut policy_rng =
        StdRng::seed_from_u64(mix_seed2(mix_seed(cfg.seed, POLICY), net, label_tag(label)));
    let rss0 = sys::rss_mb();
    let mut policy: Box<dyn OnlinePolicy> = timed(&mut t.policy_setup_s, || match cfg.policy {
        PolicyKind::MaxWeight => {
            Box::new(QueueMaxWeight::new(gain.clone(), cfg.params)) as Box<dyn OnlinePolicy>
        }
        PolicyKind::Aloha => Box::new(QueueAloha::default_inverse(n)),
        PolicyKind::Regret => Box::new(RegretPolicy::new(n)),
        PolicyKind::RayleighMaxWeight => Box::new(RayleighMaxWeight::new(gain.clone(), cfg.params)),
    });
    t.policy_setup_mb = t.policy_setup_mb.max(sys::rss_mb() - rss0);
    let fading_seed = mix_seed2(cfg.seed, FADING, net);
    let mut resolver: Box<dyn SlotResolver> =
        timed(&mut t.resolver_setup_s, || match cfg.slot_model {
            SlotModelKind::MonteCarlo => {
                let model: Box<dyn SuccessModel> = match cfg.model {
                    SuccessModelKind::NonFading => {
                        Box::new(NonFadingModel::new(gain.clone(), cfg.params))
                    }
                    SuccessModelKind::Rayleigh => {
                        Box::new(RayleighModel::new(gain.clone(), cfg.params, fading_seed))
                    }
                };
                Box::new(MonteCarloResolver::new(model, cfg.params.beta)) as Box<dyn SlotResolver>
            }
            SlotModelKind::Analytic => {
                Box::new(AnalyticResolver::new(&gain, &cfg.params, fading_seed))
            }
        });
    drop(gain);
    let counterfactuals = policy.observes_counterfactuals();

    let mut bank = QueueBank::new(n);
    let mut trace = SlotTrace {
        slots: Vec::new(),
        total_backlog: Vec::new(),
        cum_arrivals: Vec::new(),
        cum_departures: Vec::new(),
    };
    let mut active = vec![false; n];
    let mut previous = vec![false; n];
    let mut would_succeed = vec![false; n];
    let mut successes = vec![false; n];
    let mut policy_s = 0.0;
    for slot in 0..cfg.slots {
        timed(&mut t.arrivals_s, || {
            for i in 0..n {
                let count = samplers[i].draw(&mut rngs[i]);
                if count > 0 {
                    bank.queue_mut(i).enqueue(count, slot);
                }
            }
        });
        let backlogs = timed(&mut t.queue_s, || bank.backlogs());
        let mask = timed(&mut policy_s, || policy.choose(&backlogs, &mut policy_rng));
        timed(&mut t.queue_s, || {
            for i in 0..n {
                active[i] = mask[i] && backlogs[i] > 0;
            }
        });
        for i in 0..n {
            t.transmissions += u64::from(active[i]);
            t.flips += u64::from(active[i] != previous[i]);
        }
        previous.copy_from_slice(&active);
        timed(&mut t.resolve_s, || {
            if counterfactuals {
                resolver.resolve(&active, &mut would_succeed);
            } else {
                resolver.resolve_active_only(&active, &mut would_succeed);
            }
        });
        timed(&mut t.queue_s, || {
            for i in 0..n {
                successes[i] = active[i] && would_succeed[i];
                if successes[i] {
                    bank.queue_mut(i).dequeue(slot);
                }
            }
        });
        timed(&mut policy_s, || {
            policy.observe(&ObservedSlot {
                active: &active,
                would_succeed: &would_succeed,
                successes: &successes,
            })
        });
        if slot % cfg.sample_every == 0 {
            timed(&mut t.queue_s, || {
                trace.slots.push(slot);
                trace.total_backlog.push(bank.total_backlog());
                trace.cum_arrivals.push(bank.total_arrivals());
                trace.cum_departures.push(bank.total_departures());
            });
        }
    }
    t.successes += bank.total_departures();
    if let Some(stats) = policy.selection_stats() {
        t.candidates_scored += stats.candidates_scored;
        t.accepted += stats.accepted;
    }
    match t.policy_s.iter_mut().find(|p| p.0 == label) {
        Some(p) => p.1 += policy_s,
        None => t.policy_s.push((label, policy_s)),
    }
    let slots = cfg.slots as f64;
    DynamicOutcome {
        throughput_per_link: bank.total_departures() as f64 / slots / n as f64,
        offered_per_link: bank.total_arrivals() as f64 / slots / n as f64,
        mean_delay: bank.mean_delay(),
        p95_delay: bank.delay_percentile(95.0),
        final_backlog_per_link: bank.total_backlog() as f64 / n as f64,
        trace,
    }
}

/// The traced run: one untraced run of the whole workload (for the pool
/// figures and the reference outputs), then replication 0 of every cell
/// untraced and replayed through the layers. Refuses (panics) when a
/// replay differs from the engine in a single bit.
pub fn trace(workload: Workload, seed: u64, out: &mut Line) {
    let cells = workload.cells(seed, workload.slots());
    let threads = rayon::current_num_threads() as f64;
    let cpu0 = sys::cpu_s();
    let start = Instant::now();
    let (outcomes, report) = run_cells(&cells, None);
    let wall = sys::since(start);
    out.num("rayon.busy_frac", (sys::cpu_s() - cpu0) / (wall * threads));
    let (attempted, failed, digest) = check(&cells, &outcomes, &report);
    out.num("attempted", attempted as f64);
    out.num("failed", failed as f64);
    out.str("digest", format!("{digest:016x}"));
    if workload == Workload::Sweep {
        let public = sweep(seed, workload.slots()).run();
        assert!(
            public == report,
            "the benchmark's cell decomposition disagrees with LambdaSweep::run"
        );
    }

    // Untraced reference for the replayed work: replication 0 of each
    // cell, sequential like the replay. A single cell is the whole
    // workload, already timed above.
    let untraced = if cells.len() == 1 {
        wall
    } else {
        let start = Instant::now();
        for cfg in &cells {
            std::hint::black_box(DynamicEngine::new(cfg.clone()).run_network(0));
        }
        sys::since(start)
    };

    let mut t = Tally::default();
    let start = Instant::now();
    let replays: Vec<DynamicOutcome> = cells.iter().map(|cfg| replay(cfg, 0, &mut t)).collect();
    let traced = sys::since(start);
    for (k, (r, outs)) in replays.iter().zip(&outcomes).enumerate() {
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        digest_outcome(&mut a, r);
        digest_outcome(&mut b, &outs[0]);
        assert!(
            r == &outs[0] && a.finish() == b.finish(),
            "traced replay of cell {k} differs from DynamicEngine::run_network; \
             refusing to attribute time"
        );
    }

    out.num("geometry.generate_s", t.generate_s);
    out.num("sinr.gain_s", t.gain_s);
    out.num("sinr.gain_mb", t.gain_mb);
    out.num("dynamic.resolver_setup_s", t.resolver_setup_s);
    out.num("dynamic.policy_setup_s", t.policy_setup_s);
    out.num("dynamic.policy_setup_mb", t.policy_setup_mb);
    out.num("scheduling.candidates_scored", t.candidates_scored as f64);
    out.num("scheduling.accepted", t.accepted as f64);
    out.num(
        "scheduling.accept_frac",
        t.accepted as f64 / (t.candidates_scored.max(1)) as f64,
    );
    for (label, s) in &t.policy_s {
        out.num(&format!("dynamic.policy_s.{label}"), *s);
    }
    out.num("dynamic.resolve_s", t.resolve_s);
    out.num("dynamic.flips", t.flips as f64);
    out.num(
        "dynamic.resolve_ns_per_flip",
        t.resolve_s * 1e9 / t.flips.max(1) as f64,
    );
    out.num("dynamic.transmissions", t.transmissions as f64);
    out.num("dynamic.successes", t.successes as f64);
    out.num(
        "dynamic.success_frac",
        t.successes as f64 / t.transmissions.max(1) as f64,
    );
    out.num("dynamic.arrivals_s", t.arrivals_s);
    out.num("dynamic.queue_s", t.queue_s);
    let attributed = t.attributed();
    out.num("unattributed_s", traced - attributed);
    out.num("coverage", attributed / traced);
    out.num("trace_overhead_s", traced - untraced);
}
