//! Property tests for the chaos/supervision invariant: for *arbitrary*
//! fault plans, the repaired transport and the supervised pool return the
//! fault-free sequential output (dedup + reorder + restart correctness).

use proptest::prelude::*;
use simcore::rng::RngFactory;
use streamproc::fault::{ChaosConfig, FaultPlan};
use streamproc::parallel_map_supervised;
use streamproc::supervise::{reliable_stream, SupervisorConfig};

fn arb_config() -> impl Strategy<Value = ChaosConfig> {
    (0.0f64..0.4, 0.0f64..0.4, 0.0f64..0.4, 1u32..16, 0.0f64..1.0, 0u32..4).prop_map(
        |(drop_prob, dup_prob, hold_prob, max_hold, crash_prob, max_crashes)| ChaosConfig {
            drop_prob,
            dup_prob,
            hold_prob,
            max_hold,
            crash_prob,
            max_crashes,
        },
    )
}

fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig { backoff_base_ms: 0, ..SupervisorConfig::default() }
}

proptest! {
    #[test]
    fn reliable_stream_always_restores_the_batch(
        plan_seed in 0u64..u64::MAX,
        cfg in arb_config(),
        len in 0usize..200,
    ) {
        let plan = FaultPlan::new(&RngFactory::new(plan_seed), "prop", cfg);
        let items: Vec<u64> = (0..len as u64).collect();
        let (got, _) = reliable_stream("prop", items.clone(), Some(&plan), &fast_supervisor());
        prop_assert_eq!(got, items);
    }

    #[test]
    fn supervised_parallel_map_is_jobs_and_fault_invariant(
        plan_seed in 0u64..u64::MAX,
        cfg in arb_config(),
        items in prop::collection::vec(0u64..1_000_000, 0..80),
        jobs in 1usize..9,
    ) {
        let plan = FaultPlan::new(&RngFactory::new(plan_seed), "prop-pool", cfg);
        let want: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x.wrapping_mul(3).wrapping_add(i as u64))
            .collect();
        let (got, _) = parallel_map_supervised(
            jobs,
            items,
            Some(&plan),
            &fast_supervisor(),
            |i, x| x.wrapping_mul(3).wrapping_add(i as u64),
        );
        prop_assert_eq!(got, want);
    }
}
