//! Table 4 (heterogeneous extension): DIP across the paper's device mix —
//! a uniform H800 cluster, a uniform H20 cluster, and a mixed H800+H20
//! cluster, all with 16 GPUs at TP4 PP4.
//!
//! On the mixed cluster the planner runs three times: with the naive
//! round-robin layer split (equal layers per rank, as if the devices were
//! identical), with the capacity-aware placement mode (layer counts follow
//! spec-sheet peak FLOP/s or HBM capacity), and with the latency-balanced
//! mode (an nnScaler-style DP balancing *simulated* per-stage latency
//! priced on each hosting rank's own device, with segment counts priced on
//! the hosting ranks too). Capacity-aware must beat round-robin, and
//! latency-balanced must be at least as good as capacity-aware — the bin
//! asserts both, so the CI smoke run guards the properties.

use dip_bench::{
    fmt_ratio, fmt_s, print_table, vlm_batch, BenchReport, ExperimentScale, MetricKind,
};
use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
use dip_models::{zoo, BatchWorkload};
use dip_pipeline::{ParallelConfig, PlacementMode};
use dip_sim::ClusterTopology;

fn batches(n: usize) -> Vec<BatchWorkload> {
    let counts = [24u64, 8, 40, 2, 32, 16, 44, 10, 28, 4, 36, 20];
    (0..n)
        .map(|i| vlm_batch(counts[i % counts.len()]))
        .collect()
}

struct Row {
    cluster: &'static str,
    placement: &'static str,
    /// Stable dotted key for the bench-JSON report.
    key: &'static str,
    iteration_s: f64,
    mfu: f64,
    plan_s: f64,
}

fn run(
    topology: ClusterTopology,
    placement: PlacementMode,
    cluster: &'static str,
    label: &'static str,
    key: &'static str,
    scale: &ExperimentScale,
) -> Row {
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let mut config: PlannerConfig = scale.planner_config();
    config.partitioner.placement = placement;
    let session = PlanningSession::new(&spec, parallel, &topology, config);
    let request = PlanRequest::new(batches(scale.microbatches));
    let (outcome, execution) = session.plan_and_simulate(&request).unwrap();
    Row {
        cluster,
        placement: label,
        key,
        iteration_s: execution.metrics.iteration_time_s,
        mfu: execution.metrics.mfu,
        plan_s: outcome.plan.stats.planning_time.as_secs_f64(),
    }
}

fn main() {
    let scale = ExperimentScale::from_env();
    let mut report = BenchReport::from_env("fig_table4_heterogeneous");
    let rows = [
        run(
            ClusterTopology::mixed_h800_h20(2, 0),
            PlacementMode::CapacityAware,
            "2×8 H800",
            "capacity-aware",
            "h800.capacity_aware",
            &scale,
        ),
        run(
            ClusterTopology::mixed_h800_h20(0, 2),
            PlacementMode::CapacityAware,
            "2×8 H20",
            "capacity-aware",
            "h20.capacity_aware",
            &scale,
        ),
        run(
            ClusterTopology::mixed_h800_h20(1, 1),
            PlacementMode::RoundRobin,
            "1×8 H800 + 1×8 H20",
            "round-robin",
            "mixed.round_robin",
            &scale,
        ),
        run(
            ClusterTopology::mixed_h800_h20(1, 1),
            PlacementMode::CapacityAware,
            "1×8 H800 + 1×8 H20",
            "capacity-aware",
            "mixed.capacity_aware",
            &scale,
        ),
        run(
            ClusterTopology::mixed_h800_h20(1, 1),
            PlacementMode::LatencyBalanced,
            "1×8 H800 + 1×8 H20",
            "latency-balanced",
            "mixed.latency_balanced",
            &scale,
        ),
    ];
    for row in &rows {
        report.push(
            format!("{}.iteration_s", row.key),
            MetricKind::SimTime,
            "s",
            row.iteration_s,
        );
        report.push(
            format!("{}.mfu", row.key),
            MetricKind::Info,
            "ratio",
            row.mfu,
        );
        report.push(
            format!("{}.plan_wall_s", row.key),
            MetricKind::Info,
            "s",
            row.plan_s,
        );
    }

    print_table(
        "Table 4 (heterogeneous) — DIP across device mixes, VLM-S, TP4 PP4",
        &["Cluster", "Placement", "Iteration (s)", "MFU"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.cluster.to_string(),
                    r.placement.to_string(),
                    fmt_s(r.iteration_s),
                    fmt_ratio(r.mfu),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let naive = &rows[2];
    let aware = &rows[3];
    let balanced = &rows[4];
    println!(
        "Mixed-cluster speedup from capacity-aware placement: {}x",
        fmt_ratio(naive.iteration_s / aware.iteration_s)
    );
    println!(
        "Mixed-cluster speedup from latency-balanced over capacity-aware: {}x",
        fmt_ratio(aware.iteration_s / balanced.iteration_s)
    );
    assert!(
        aware.iteration_s < naive.iteration_s,
        "capacity-aware ({}) must beat round-robin ({}) on the mixed cluster",
        aware.iteration_s,
        naive.iteration_s
    );
    assert!(
        balanced.iteration_s <= aware.iteration_s,
        "latency-balanced ({}) must be at least as good as capacity-aware ({}) on the mixed cluster",
        balanced.iteration_s,
        aware.iteration_s
    );
    println!("Expected shape: uniform H800 fastest, uniform H20 slowest; the mixed cluster lands in between, capacity-aware beats round-robin there, and latency-balanced is at least as good as capacity-aware.");
    report.push(
        "mixed.capacity_aware_speedup",
        MetricKind::Info,
        "ratio",
        naive.iteration_s / aware.iteration_s,
    );
    report.push(
        "mixed.latency_balanced_speedup",
        MetricKind::Info,
        "ratio",
        aware.iteration_s / balanced.iteration_s,
    );
    // The in-bin placement-quality assertions above passed if we got here.
    report.push_flag("mixed.placement_ordering_holds", true);
    report.write_if_requested();
}
