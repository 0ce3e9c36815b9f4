//! Equivalence lattice for the pluggable workload engine.
//!
//! The refactor's acceptance bar, pinned property-style:
//!
//! * `WorkloadSpec::Named` is **bit-identical** to the legacy
//!   `SyntheticApp::by_name` path — traces (on one thread and on any
//!   pool, against the pool-free `SyntheticApp::generate`) and scenario
//!   rank-arrival sets alike, for any app, seed and campaign shape;
//! * a single-component `Mixture` is bit-identical to its underlying spec
//!   (samples and arrivals; only the trace label differs, by design);
//! * mixture blending does not depend on the pool size.

use ebird_cluster::{
    JobConfig, MixtureComponent, SyntheticApp, Workload, WorkloadSpec, BUILTIN_WORKLOAD_NAMES,
};
use ebird_runtime::Pool;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn named_spec_is_bit_identical_to_legacy_by_name(
        app_index in 0usize..3,
        trials in 1usize..3,
        ranks in 1usize..4,
        iterations in 1usize..12,
        threads in 1usize..9,
        seed in 0u64..1_000_000,
        workers in 1usize..5,
    ) {
        let cfg = JobConfig::new(trials, ranks, iterations, threads);
        let name = BUILTIN_WORKLOAD_NAMES[app_index];
        // Scramble the casing: resolution must not care.
        let scrambled: String = name
            .chars()
            .enumerate()
            .map(|(i, c)| if i % 2 == 0 { c.to_ascii_lowercase() } else { c.to_ascii_uppercase() })
            .collect();
        let spec = WorkloadSpec::Named { name: scrambled };
        let resolved = spec.resolve().unwrap();
        let legacy = SyntheticApp::by_name(name).unwrap();

        let via_legacy = legacy.generate(&cfg, seed);
        for workers in [1, workers] {
            let pool = Pool::new(workers);
            let via_spec = resolved.generate_trace_parallel(&cfg, seed, &pool).unwrap();
            prop_assert_eq!(&via_spec, &via_legacy);
        }

        // The scenario path's arrivals: raw f64 draws, rank by rank,
        // exactly the pre-engine `process_iteration_ms` loop.
        let iteration = cfg.iterations - 1;
        let arrivals = resolved
            .rank_arrivals_ms(seed, cfg.ranks, iteration, cfg.threads)
            .unwrap();
        for (rank, row) in arrivals.iter().enumerate() {
            let old = legacy.process_iteration_ms(seed, 0, rank, iteration, cfg.threads);
            prop_assert_eq!(row, &old);
        }
    }

    #[test]
    fn single_component_mixture_is_its_underlying_spec(
        app_index in 0usize..3,
        weight in 0.001f64..1000.0,
        trials in 1usize..3,
        ranks in 1usize..4,
        iterations in 1usize..12,
        threads in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let cfg = JobConfig::new(trials, ranks, iterations, threads);
        let name = BUILTIN_WORKLOAD_NAMES[app_index];
        let underlying = WorkloadSpec::Named { name: name.into() };
        let mixture = WorkloadSpec::Mixture {
            name: "solo".into(),
            components: vec![MixtureComponent {
                weight,
                spec: underlying.clone(),
            }],
        };
        let pool = Pool::new(1);
        let via_mixture = mixture.resolve().unwrap().generate_trace_parallel(&cfg, seed, &pool).unwrap();
        let via_underlying = SyntheticApp::by_name(name).unwrap().generate(&cfg, seed);
        // Labels differ by design (`mix(solo)` vs the app name); the
        // samples must be the same bytes.
        prop_assert_eq!(via_mixture.samples(), via_underlying.samples());
        prop_assert_eq!(via_mixture.shape(), via_underlying.shape());

        let iteration = cfg.iterations - 1;
        let a = mixture
            .resolve().unwrap()
            .rank_arrivals_ms(seed, cfg.ranks, iteration, cfg.threads)
            .unwrap();
        let b = underlying
            .resolve().unwrap()
            .rank_arrivals_ms(seed, cfg.ranks, iteration, cfg.threads)
            .unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn mixture_parallel_generation_is_bit_identical(
        weight_a in 0.1f64..10.0,
        weight_b in 0.1f64..10.0,
        trials in 1usize..3,
        ranks in 1usize..4,
        iterations in 1usize..12,
        threads in 1usize..9,
        seed in 0u64..1_000_000,
        workers in 1usize..5,
    ) {
        let cfg = JobConfig::new(trials, ranks, iterations, threads);
        let mixture = WorkloadSpec::Mixture {
            name: "pair".into(),
            components: vec![
                MixtureComponent {
                    weight: weight_a,
                    spec: WorkloadSpec::Named { name: "MiniFE".into() },
                },
                MixtureComponent {
                    weight: weight_b,
                    spec: WorkloadSpec::Named { name: "MiniQMC".into() },
                },
            ],
        };
        let resolved = mixture.resolve().unwrap();
        let one = resolved.generate_trace_parallel(&cfg, seed, &Pool::new(1)).unwrap();
        let pool = Pool::new(workers);
        let team = resolved.generate_trace_parallel(&cfg, seed, &pool).unwrap();
        prop_assert_eq!(one, team);
    }
}
