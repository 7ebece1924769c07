//! The engine's scale set-up against the gain-based public constructors.
//!
//! At and above `SPARSE_CROSSOVER` the engine builds no dense gain
//! matrix for `RayleighMaxWeight` + `SlotModelKind::Analytic`: one sparse
//! cache, built on the spatial grid by the dense-equivalent ring sweep,
//! is shared by the policy and the resolver. This test replays
//! replications at and just above the crossover, on two seeds, the way
//! an external caller would — `GainMatrix::from_geometry`, `RayleighMaxWeight::new`,
//! `AnalyticResolver::new`, the engine's documented seeding and slot
//! order — and requires the outcome to equal `DynamicEngine::run_network`
//! bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayfade_core::{mix_seed, mix_seed2, SPARSE_CROSSOVER};
use rayfade_dynamic::{
    AnalyticResolver, ArrivalProcess, DynamicConfig, DynamicEngine, DynamicOutcome, ObservedSlot,
    OnlinePolicy, PolicyKind, QueueBank, RayleighMaxWeight, SlotModelKind, SlotResolver, SlotTrace,
    SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::{GainMatrix, PowerAssignment, SinrParams};

/// A loaded Rayleigh max-weight replication of `links` links at the
/// engine's scale density (one link per 10⁶ square units).
fn crossover_config(links: usize, seed: u64) -> DynamicConfig {
    DynamicConfig {
        links,
        networks: 1,
        slots: 40,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy: PolicyKind::RayleighMaxWeight,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::Analytic,
        topology: PaperTopology {
            links,
            side: (links as f64).sqrt() * 1000.0,
            min_length: 20.0,
            max_length: 40.0,
        },
        params: SinrParams::new(4.0, 2.5, 4e-7),
        sample_every: 4,
        seed,
    }
}

/// The engine's policy-label stream tag (FNV-1a).
fn label_tag(label: &str) -> u64 {
    label.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

/// Replication `net` of `cfg` from the gain-based constructors, with the
/// engine's stream derivations (topology 1, arrivals 2, policy 3,
/// fading 4) and slot order.
fn replay(cfg: &DynamicConfig, net: u64) -> DynamicOutcome {
    let n = cfg.links;
    let network = PaperTopology {
        links: n,
        ..cfg.topology
    }
    .generate(mix_seed2(cfg.seed, 1, net));
    let gain = GainMatrix::from_geometry(
        &network,
        &PowerAssignment::figure1_uniform(),
        cfg.params.alpha,
    );
    let root = mix_seed2(mix_seed(cfg.seed, 2), net, cfg.arrival.rate().to_bits());
    let mut rngs: Vec<StdRng> = (0..n as u64)
        .map(|link| StdRng::seed_from_u64(mix_seed(root, link)))
        .collect();
    let mut samplers: Vec<_> = (0..n).map(|_| cfg.arrival.sampler()).collect();
    let mut policy_rng = StdRng::seed_from_u64(mix_seed2(
        mix_seed(cfg.seed, 3),
        net,
        label_tag(cfg.policy.label()),
    ));
    let mut policy = RayleighMaxWeight::new(gain.clone(), cfg.params);
    assert!(
        policy.is_sparse(),
        "crossover size must take the sparse path"
    );
    let mut resolver = AnalyticResolver::new(&gain, &cfg.params, mix_seed2(cfg.seed, 4, net));
    drop(gain);
    assert!(!policy.observes_counterfactuals());

    let mut bank = QueueBank::new(n);
    let mut trace = SlotTrace {
        slots: Vec::new(),
        total_backlog: Vec::new(),
        cum_arrivals: Vec::new(),
        cum_departures: Vec::new(),
    };
    let mut active = vec![false; n];
    let mut would_succeed = vec![false; n];
    let mut successes = vec![false; n];
    for slot in 0..cfg.slots {
        for i in 0..n {
            let count = samplers[i].draw(&mut rngs[i]);
            if count > 0 {
                bank.queue_mut(i).enqueue(count, slot);
            }
        }
        let backlogs = bank.backlogs();
        let mask = policy.choose(&backlogs, &mut policy_rng);
        for i in 0..n {
            active[i] = mask[i] && backlogs[i] > 0;
        }
        resolver.resolve_active_only(&active, &mut would_succeed);
        for i in 0..n {
            successes[i] = active[i] && would_succeed[i];
            if successes[i] {
                bank.queue_mut(i).dequeue(slot);
            }
        }
        policy.observe(&ObservedSlot {
            active: &active,
            would_succeed: &would_succeed,
            successes: &successes,
        });
        if slot % cfg.sample_every == 0 {
            trace.slots.push(slot);
            trace.total_backlog.push(bank.total_backlog());
            trace.cum_arrivals.push(bank.total_arrivals());
            trace.cum_departures.push(bank.total_departures());
        }
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

#[test]
fn crossover_replication_matches_the_gain_based_constructors() {
    for links in [SPARSE_CROSSOVER, SPARSE_CROSSOVER + 1] {
        for seed in [0x5ca1e, 0xd15ea5e] {
            let cfg = crossover_config(links, seed);
            let engine = DynamicEngine::new(cfg.clone()).run_network(0);
            assert!(
                engine.throughput_per_link > 0.0,
                "{links} links, seed {seed:#x}: the replication must deliver"
            );
            assert!(
                engine == replay(&cfg, 0),
                "{links} links, seed {seed:#x}: the engine differs from the replay"
            );
        }
    }
}
