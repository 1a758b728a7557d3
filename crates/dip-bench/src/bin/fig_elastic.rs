//! Elastic replanning under failures: a seeded [`FailureSchedule`] sweeps
//! node kills, restores and capacity additions over a recorded dynamic
//! workload trace, and every event is recovered twice — elastically (a
//! planning session that planned the iteration on the old topology is
//! retargeted onto the new one at migration weight 0 and plans it again,
//! reusing the running plan's partition, sub-microbatch table and memory
//! plan and moving only the optimizer/parameter state the topology change
//! forces) and cold (a fresh full-budget plan from a cache-less session,
//! plus a full state restore over the network).
//!
//! Reported per event and in aggregate: recovery time (virtual planning
//! time + state-transfer time), bytes of state moved, and the steady-state
//! simulated iteration time of the recovered plan against the cold plan's.
//! The CI gate pins the aggregate recovery times (SimTime), the exact bytes
//! moved and event count (Determinism), and a cross-worker bit-identity
//! witness: the whole recovery sequence replays identically at different
//! search-worker counts.

use dip_bench::{fmt_s, print_table, BenchReport, ExperimentScale, MetricKind};
use dip_core::{
    DipPlanner, ElasticCandidate, ElasticConfig, PlanRequest, PlanTier, PlanningSession,
    SessionConfig,
};
use dip_data::{
    BatchGenerator, DatasetMix, DynamicWorkloadController, FailureSchedule, ImageBoundSchedule,
};
use dip_models::{zoo, BatchWorkload};
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;

/// One recovered fault event.
struct EventOutcome {
    iteration: usize,
    old_gpus: usize,
    new_gpus: usize,
    candidate: ElasticCandidate,
    bytes_moved: u64,
    transfer_s: f64,
    planning_virtual_s: f64,
    recovery_cold_s: f64,
    steady_elastic_s: f64,
    steady_cold_s: f64,
    /// Bit-level witness of the served plan, for the cross-worker check.
    plan_bits: (u64, u64),
}

/// Replays the failure schedule at the given search-worker count: at every
/// topology change the running plan (planned for that iteration's workload
/// on the old topology) is recovered elastically and cold.
fn sweep(
    spec: &dip_models::LmmSpec,
    parallel: ParallelConfig,
    base: &ClusterTopology,
    schedule: &FailureSchedule,
    iterations: &[Vec<BatchWorkload>],
    workers: usize,
) -> Vec<EventOutcome> {
    let scale = ExperimentScale::from_env();
    let mut config = scale.planner_config();
    config.search.workers = workers;
    let elastic = ElasticConfig {
        migration_weight: 0.0,
        ..ElasticConfig::default()
    };

    let session_on = |topology: &ClusterTopology, cache: SessionConfig| {
        PlanningSession::from_planner(
            DipPlanner::on_topology(spec, parallel, topology.clone(), config.clone()),
            cache,
        )
    };

    let mut topology = base.clone();
    let mut events = Vec::new();
    for (iteration, new_topology) in schedule.topologies() {
        let request = PlanRequest::new(iterations[iteration % iterations.len()].clone());
        // The plan the training loop is running when the fault hits, then
        // its elastic replan once the session follows the cluster.
        let mut session = session_on(&topology, SessionConfig::default());
        session
            .plan(&request)
            .expect("pre-fault plan on the old topology");
        session.retarget(new_topology.clone(), elastic);
        let outcome = session
            .plan(&request)
            .expect("elastic replan onto the new topology");
        assert_eq!(outcome.tier, PlanTier::Elastic);
        let report = outcome.elastic.as_ref().expect("elastic report");

        let cold = session_on(&new_topology, SessionConfig::cold());
        let cold_plan = cold
            .plan(&request)
            .expect("cold plan on the new topology")
            .plan;

        let steady_elastic_s = session
            .simulate(&outcome.plan)
            .expect("elastic plan simulates")
            .metrics
            .iteration_time_s;
        let steady_cold_s = cold
            .simulate(&cold_plan)
            .expect("cold plan simulates")
            .metrics
            .iteration_time_s;
        events.push(EventOutcome {
            iteration,
            old_gpus: topology.num_gpus(),
            new_gpus: new_topology.num_gpus(),
            candidate: report.candidate,
            bytes_moved: report.migration.bytes_moved,
            transfer_s: report.migration.transfer_time_s,
            planning_virtual_s: report.planning_virtual_s,
            recovery_cold_s: cold.planner().cold_recovery_time_s(&cold_plan),
            steady_elastic_s,
            steady_cold_s,
            plan_bits: (
                outcome.plan.stats.planned_time_s.to_bits(),
                outcome.plan.graph.len() as u64,
            ),
        });
        topology = new_topology;
    }
    events
}

fn main() {
    let scale = ExperimentScale::from_env();
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let base = ClusterTopology::mixed_h800_h20(1, 1);

    // A recorded dynamic-workload trace (the fig8b rise-and-fall envelope)
    // and a seeded failure schedule over it.
    const TRACE_LEN: usize = 10;
    let generator = BatchGenerator::vlm(DatasetMix::vlm_default(), scale.microbatches, 8);
    let mut controller = DynamicWorkloadController::new(
        generator,
        ImageBoundSchedule::new(ImageBoundSchedule::fig8b().iter().take(TRACE_LEN).collect()),
    );
    let trace = controller.collect_trace();
    let iterations: Vec<Vec<BatchWorkload>> = trace
        .replay(1)
        .map(|iteration| iteration.batch.workloads())
        .collect();
    let schedule = FailureSchedule::seeded(&base, TRACE_LEN, 4, 0xE1A5);
    assert!(
        schedule.topologies().len() >= 2,
        "the seeded schedule must produce at least two topology changes"
    );

    let events = sweep(
        &spec,
        parallel,
        &base,
        &schedule,
        &iterations,
        scale.workers,
    );

    let mut rows = Vec::new();
    let mut recovery_elastic = 0.0f64;
    let mut recovery_cold = 0.0f64;
    let mut bytes_moved = 0u64;
    let mut regression = 0.0f64;
    for event in &events {
        let elastic_s = event.planning_virtual_s + event.transfer_s;
        recovery_elastic += elastic_s;
        recovery_cold += event.recovery_cold_s;
        bytes_moved += event.bytes_moved;
        regression += event.steady_elastic_s / event.steady_cold_s;
        rows.push(vec![
            event.iteration.to_string(),
            format!("{} → {}", event.old_gpus, event.new_gpus),
            event.candidate.to_string(),
            format!("{:.1}", event.bytes_moved as f64 / (1 << 20) as f64),
            fmt_s(event.transfer_s),
            fmt_s(event.planning_virtual_s),
            fmt_s(elastic_s),
            fmt_s(event.recovery_cold_s),
            fmt_s(event.steady_elastic_s),
            fmt_s(event.steady_cold_s),
        ]);
    }
    print_table(
        "Elastic recovery — weight-0 elastic replan vs cold replan per fault event",
        &[
            "Iter",
            "GPUs",
            "Candidate",
            "Moved (MiB)",
            "Transfer (s)",
            "Replan (s)",
            "Recovery (s)",
            "Cold recovery (s)",
            "Steady (s)",
            "Cold steady (s)",
        ],
        &rows,
    );
    let mean_regression = regression / events.len() as f64;
    println!(
        "elastic: {} events | recovery {:.3} s elastic vs {:.3} s cold ({:.1}× faster) | \
         {:.1} MiB moved | mean steady-state ratio {:.3}",
        events.len(),
        recovery_elastic,
        recovery_cold,
        recovery_cold / recovery_elastic,
        bytes_moved as f64 / (1 << 20) as f64,
        mean_regression,
    );
    println!(
        "Expected shape: elastic recovery undercuts cold on every event — the delta-budget \
         search replaces the full-budget one and only displaced state moves, while the \
         steady-state ratio stays near 1.0."
    );
    assert!(
        recovery_elastic < recovery_cold,
        "weight-0 elastic recovery ({recovery_elastic:.3} s) must beat cold recovery \
         ({recovery_cold:.3} s) on the swept schedule"
    );

    // Cross-worker bit-identity: the whole recovery sequence — candidates,
    // bytes moved and served plans — replays identically at another
    // search-worker count.
    let other_workers = if scale.workers == 1 { 4 } else { 1 };
    let replay = sweep(
        &spec,
        parallel,
        &base,
        &schedule,
        &iterations,
        other_workers,
    );
    let identical = events.len() == replay.len()
        && events.iter().zip(&replay).all(|(a, b)| {
            a.candidate == b.candidate
                && a.bytes_moved == b.bytes_moved
                && a.plan_bits == b.plan_bits
                && a.planning_virtual_s.to_bits() == b.planning_virtual_s.to_bits()
        });
    println!(
        "elastic: recovery sequence at {} vs {} search workers: {}",
        scale.workers,
        other_workers,
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    let mut report = BenchReport::from_env("fig_elastic");
    report.push(
        "elastic.recovery_time_s",
        MetricKind::SimTime,
        "s",
        recovery_elastic,
    );
    report.push(
        "elastic.cold_recovery_time_s",
        MetricKind::SimTime,
        "s",
        recovery_cold,
    );
    report.push(
        "elastic.bytes_moved",
        MetricKind::Determinism,
        "count",
        bytes_moved as f64,
    );
    report.push(
        "elastic.events",
        MetricKind::Determinism,
        "count",
        events.len() as f64,
    );
    report.push(
        "elastic.steady_iteration_s",
        MetricKind::SimTime,
        "s",
        events.last().expect("at least one event").steady_elastic_s,
    );
    report.push(
        "elastic.mean_steady_ratio",
        MetricKind::Info,
        "ratio",
        mean_regression,
    );
    report.push_flag("elastic.cross_worker_identical", identical);
    report.write_if_requested();
}
