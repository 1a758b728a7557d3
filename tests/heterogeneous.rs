//! Heterogeneous-cluster integration tests (the Table 4 scenario family):
//! planning end to end on a mixed H800+H20 cluster, capacity-aware
//! placement against naive round-robin, and per-device memory budgets.

use dip_bench::vlm_batch;
use dip_core::{PlanRequest, PlanTier, PlannerConfig, PlanningSession};
use dip_models::{zoo, BatchWorkload, LmmSpec};
use dip_pipeline::{ExecutionOutcome, ParallelConfig, PlacementMode};
use dip_sim::ClusterTopology;
use std::time::Duration;

fn batches() -> Vec<BatchWorkload> {
    [24u64, 8, 40, 2, 32, 16]
        .iter()
        .map(|&i| vlm_batch(i))
        .collect()
}

fn deterministic_config() -> PlannerConfig {
    let mut config = PlannerConfig::fast();
    config.search.time_budget = Duration::from_secs(3600);
    config.search.max_evaluations = Some(128);
    config
}

/// Plans `batches()` through a fresh session on `topology` and simulates
/// the plan.
fn simulate_on(
    spec: &LmmSpec,
    topology: ClusterTopology,
    config: PlannerConfig,
) -> ExecutionOutcome {
    let session = PlanningSession::new(spec, ParallelConfig::new(4, 4, 1), &topology, config);
    let (_, execution) = session
        .plan_and_simulate(&PlanRequest::new(batches()))
        .unwrap();
    execution
}

#[test]
fn capacity_aware_placement_beats_round_robin_on_the_mixed_cluster() {
    let spec = zoo::vlm_s();
    let topology = ClusterTopology::mixed_h800_h20(1, 1);

    let aware_outcome = simulate_on(&spec, topology.clone(), deterministic_config());
    let mut round_robin_config = deterministic_config();
    round_robin_config.partitioner.placement = PlacementMode::RoundRobin;
    let rr_outcome = simulate_on(&spec, topology, round_robin_config);
    assert!(
        aware_outcome.metrics.iteration_time_s < rr_outcome.metrics.iteration_time_s,
        "capacity-aware {} must beat round-robin {} on H800+H20",
        aware_outcome.metrics.iteration_time_s,
        rr_outcome.metrics.iteration_time_s
    );
}

#[test]
fn heterogeneous_sessions_cache_and_respect_per_device_memory() {
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let topology = ClusterTopology::mixed_h800_h20(1, 1);
    let session = PlanningSession::new(&spec, parallel, &topology, PlannerConfig::fast());

    let request = PlanRequest::new(batches());
    let (first, execution) = session.plan_and_simulate(&request).unwrap();
    assert_ne!(first.tier, PlanTier::Exact);
    assert!(execution.metrics.iteration_time_s > 0.0);
    // Every rank must stay within its *own* device's usable memory — the
    // H800 ranks within the H800 budget, not the roomier H20 one (budgeting
    // every rank from the largest device is exactly the bug class the
    // per-device budgets exist to prevent).
    for timeline in &execution.report.ranks {
        let device = topology.rank_device(timeline.rank, parallel.tp);
        assert!(
            timeline.peak_memory <= device.usable_memory() as i64,
            "rank {} peaks at {} bytes, exceeding its own device's usable {}",
            timeline.rank,
            timeline.peak_memory,
            device.usable_memory()
        );
    }

    // Repeated shapes hit the (topology-keyed) cache as usual.
    let second = session.plan(&request).unwrap();
    assert_eq!(second.tier, PlanTier::Exact);
    assert_eq!(first.plan.orders, second.plan.orders);
}

#[test]
fn latency_balanced_sessions_respect_per_device_memory_end_to_end() {
    // Same property as the capacity-aware test above, under the
    // latency-balanced mode: the DP shifts far more layers onto the H800
    // ranks than the capacity heuristic does, so the simulated peak on
    // each rank must still stay within that rank's own device budget.
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let topology = ClusterTopology::mixed_h800_h20(1, 1);
    let mut config = PlannerConfig::fast();
    config.partitioner.placement = PlacementMode::LatencyBalanced;
    let session = PlanningSession::new(&spec, parallel, &topology, config);
    let (_, execution) = session
        .plan_and_simulate(&PlanRequest::new(batches()))
        .unwrap();
    for timeline in &execution.report.ranks {
        let device = topology.rank_device(timeline.rank, parallel.tp);
        assert!(
            timeline.peak_memory <= device.usable_memory() as i64,
            "rank {} peaks at {} bytes, exceeding its own device's usable {}",
            timeline.rank,
            timeline.peak_memory,
            device.usable_memory()
        );
    }
}

#[test]
fn mixed_cluster_lands_between_the_uniform_clusters() {
    // Iteration time should order uniform-H800 ≤ mixed ≤ uniform-H20: the
    // H20's 6.7× lower compute dominates, and the mixed cluster sits in
    // between because half its stages still run on H800 silicon.
    let spec = zoo::vlm_s();
    let run = |topology: ClusterTopology| {
        simulate_on(&spec, topology, deterministic_config())
            .metrics
            .iteration_time_s
    };
    let h800 = run(ClusterTopology::mixed_h800_h20(2, 0));
    let mixed = run(ClusterTopology::mixed_h800_h20(1, 1));
    let h20 = run(ClusterTopology::mixed_h800_h20(0, 2));
    assert!(
        h800 <= mixed && mixed <= h20,
        "expected H800 {h800} <= mixed {mixed} <= H20 {h20}"
    );
}
