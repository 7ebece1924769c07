//! Property tests for the dynamic subsystem: structural invariants that
//! must hold for *any* seed, not just the pinned ones.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_core::{sample_exponential, NakagamiModel, RayleighModel};
use rayfade_dynamic::{
    judge_cell, ArrivalProcess, DynamicConfig, DynamicEngine, MonteCarloResolver, PolicyKind,
    SlotModelKind, SlotResolver, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::{GainMatrix, NonFadingModel, SinrParams, SuccessModel};

fn config(links: usize, slots: u64, rate: f64, side: f64, seed: u64) -> DynamicConfig {
    DynamicConfig {
        links,
        networks: 1,
        slots,
        arrival: ArrivalProcess::Bernoulli { rate },
        policy: PolicyKind::MaxWeight,
        model: SuccessModelKind::NonFading,
        slot_model: SlotModelKind::MonteCarlo,
        topology: PaperTopology {
            links,
            side,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: 25,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With a zero arrival rate nothing ever queues: no offered load, no
    /// throughput, an all-zero backlog trace — for every policy, model,
    /// and seed.
    #[test]
    fn zero_arrivals_mean_empty_queues(seed in any::<u64>(), links in 2usize..10) {
        for policy in PolicyKind::all() {
            for model in SuccessModelKind::all() {
                let cfg = DynamicConfig {
                    policy,
                    model,
                    ..config(links, 500, 0.0, 400.0, seed)
                };
                let outcomes = DynamicEngine::new(cfg).run();
                for o in &outcomes {
                    prop_assert_eq!(o.offered_per_link, 0.0);
                    prop_assert_eq!(o.throughput_per_link, 0.0);
                    prop_assert_eq!(o.final_backlog_per_link, 0.0);
                    prop_assert!(o.trace.total_backlog.iter().all(|&b| b == 0));
                    prop_assert_eq!(o.mean_delay, None);
                }
            }
        }
    }

    /// Throughput can never exceed the offered load.
    #[test]
    fn throughput_bounded_by_offered(seed in any::<u64>(), rate in 0.05f64..0.5) {
        let cfg = config(6, 600, rate, 300.0, seed);
        for o in DynamicEngine::new(cfg).run() {
            prop_assert!(o.throughput_per_link <= o.offered_per_link + 1e-12);
        }
    }

    /// A two-link toy offered λ = 1.5 packets/slot/link (batches of 3,
    /// half the slots) can never be served — a link delivers at most one
    /// packet per slot — so the drift detector must flag instability for
    /// every seed and geometry.
    #[test]
    fn overloaded_two_link_toy_is_unstable(seed in any::<u64>()) {
        let cfg = DynamicConfig {
            arrival: ArrivalProcess::Batch { rate: 1.5, batch: 3 },
            ..config(2, 2_000, 0.0, 100.0, seed)
        };
        let outcomes = DynamicEngine::new(cfg.clone()).run();
        let cell = judge_cell(cfg.policy, cfg.model, 1.5, cfg.links, &outcomes);
        prop_assert!(
            !cell.verdict.is_stable(),
            "drift {} unexpectedly under threshold",
            cell.drift
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Monte Carlo resolver's indicators over a Rayleigh model equal
    /// the path it took before the verdict kernel — per receiver, walk
    /// the whole mask drawing each active interferer, then the own
    /// signal, and threshold the SINR at β — on every one of several
    /// consecutive slots, idle links included, so both consume the
    /// fading stream identically. Covers zero gains (no draw), dead
    /// receivers, ν = 0 with an all-idle slot, and q = 0, 1 and random.
    #[test]
    fn monte_carlo_resolver_matches_mask_walk_reference(
        n in 0usize..48,
        seed in any::<u64>(),
        q in 0.0f64..1.0,
        zero_noise in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = (0..n * n)
            .map(|_| if rng.gen_bool(0.2) { 0.0 } else { 10f64.powf(rng.gen_range(-3.0..3.0)) })
            .collect();
        let gain = GainMatrix::from_raw(n, g);
        let params = SinrParams::new(2.0, 1.5, if zero_noise { 0.0 } else { 0.01 });
        let mut fading = StdRng::seed_from_u64(seed);
        let model = RayleighModel::new(gain.clone(), params, seed);
        let mut resolver = MonteCarloResolver::new(Box::new(model), params.beta);
        let mut would_succeed = vec![false; n];
        for slot_q in [0.0, q, 1.0, q, 0.0] {
            let active: Vec<bool> = (0..n).map(|_| rng.gen_bool(slot_q)).collect();
            let expected: Vec<bool> = (0..n)
                .map(|i| {
                    let row = gain.at_receiver(i);
                    let mut interference = 0.0;
                    for j in (0..n).filter(|&j| active[j] && j != i) {
                        interference += sample_exponential(&mut fading, row[j]);
                    }
                    let signal = sample_exponential(&mut fading, row[i]);
                    let denom = interference + params.noise;
                    let sinr = if denom == 0.0 {
                        if signal > 0.0 { f64::INFINITY } else { 0.0 }
                    } else {
                        signal / denom
                    };
                    sinr >= params.beta
                })
                .collect();
            resolver.resolve(&active, &mut would_succeed);
            prop_assert_eq!(&would_succeed, &expected);
        }
    }

    /// `MonteCarloResolver::resolve_active_only` under every success
    /// model agrees with `resolve` on active links, clears idle entries,
    /// and leaves the model's stream where `resolve` would: after each
    /// active-only slot, a full `resolve` of a probe slot gives the same
    /// verdicts, counterfactual ones included, on both resolvers.
    #[test]
    fn monte_carlo_active_only_matches_resolve(
        n in 0usize..40,
        seed in any::<u64>(),
        q in 0.0f64..1.0,
        kind in 0u8..3,
        shape in 0.5f64..4.0,
        zero_noise in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = (0..n * n)
            .map(|_| if rng.gen_bool(0.2) { 0.0 } else { 10f64.powf(rng.gen_range(-3.0..3.0)) })
            .collect();
        let gain = GainMatrix::from_raw(n, g);
        let params = SinrParams::new(2.0, 1.5, if zero_noise { 0.0 } else { 0.01 });
        let model = || -> Box<dyn SuccessModel> {
            match kind {
                0 => Box::new(NonFadingModel::new(gain.clone(), params)),
                1 => Box::new(RayleighModel::new(gain.clone(), params, seed)),
                _ => Box::new(NakagamiModel::new(gain.clone(), params, shape, seed)),
            }
        };
        let mut full = MonteCarloResolver::new(model(), params.beta);
        let mut active_only = MonteCarloResolver::new(model(), params.beta);
        let (mut expected, mut got) = (vec![false; n], vec![false; n]);
        for slot_q in [q, 1.0, 0.0, q] {
            let active: Vec<bool> = (0..n).map(|_| rng.gen_bool(slot_q)).collect();
            full.resolve(&active, &mut expected);
            got.fill(true);
            active_only.resolve_active_only(&active, &mut got);
            for i in 0..n {
                prop_assert_eq!(got[i], active[i] && expected[i], "link {}", i);
            }

            let probe: Vec<bool> = (0..n).map(|_| rng.gen_bool(q)).collect();
            full.resolve(&probe, &mut expected);
            active_only.resolve(&probe, &mut got);
            prop_assert_eq!(&got, &expected);
        }
    }
}
