//! Differential oracle: a plan's planned time is the dual-queue
//! interleaver's makespan, and replaying the plan's graph and orders on the
//! discrete-event engine without the optimizer step
//! (`ExecutorConfig::include_optimizer: false`) must give the same `f64`
//! bits. The interleaver and the engine share no scheduling code: the
//! interleaver decides the orders, the engine only replays them under the
//! graph's dependencies and lags. So a kernel rewrite that moves any stage
//! start, on any tier, fails here even when it moves every entry point of
//! the kernel alike.
//!
//! Every checked plan also respects a lower bound: a rank never runs two
//! stages at once, so no planned time is below the busiest rank's total
//! stage time (`StageGraph::critical_rank_time`), up to a relative 1e-12
//! for summation order.
//!
//! Covered: the cold, fuzzy and exact plans a session serves for a VLM-S
//! Zipf request stream, and T2V-S base plans and the elastic replans a
//! session serves on `ClusterTopology::mixed_h800_h20(2, 1)` under seeded
//! failure schedules.

use dip_bench::zipf_request_stream;
use dip_core::{
    BucketingConfig, DipPlan, DipPlanner, ElasticConfig, PlanRequest, PlanTier, PlannerConfig,
    PlanningSession, SessionConfig,
};
use dip_data::{BatchGenerator, DatasetMix, FailureSchedule};
use dip_models::zoo;
use dip_pipeline::{execute, ExecutorConfig, ParallelConfig};
use dip_sim::ClusterTopology;
use std::time::Duration;

/// One planning thread and a small virtual search budget, so the test's
/// plans are a function of their inputs and stay quick in debug builds.
fn config(budget_ms: u64) -> PlannerConfig {
    let mut config = PlannerConfig::default().with_num_threads(1);
    config.search.time_budget = Duration::from_millis(budget_ms);
    config
}

/// Asserts the oracle and the lower bound on `plan`, served by `planner`'s
/// topology.
fn assert_engine_replays_the_planned_time(planner: &DipPlanner<'_>, plan: &DipPlan, what: &str) {
    let bound = plan.graph.critical_rank_time();
    assert!(
        plan.stats.planned_time_s >= bound * (1.0 - 1e-12),
        "{what}: planned {} s, below the busiest rank's {bound} s of stage time",
        plan.stats.planned_time_s
    );
    let outcome = execute(
        &plan.graph,
        &plan.orders,
        planner.topology(),
        planner.timing(),
        &ExecutorConfig {
            parallel: plan.placement.parallel,
            include_optimizer: false,
        },
    )
    .unwrap_or_else(|err| panic!("{what}: the engine rejects the plan: {err}"));
    assert_eq!(
        plan.stats.planned_time_s.to_bits(),
        outcome.metrics.iteration_time_s.to_bits(),
        "{what}: planned {} s, engine {} s",
        plan.stats.planned_time_s,
        outcome.metrics.iteration_time_s
    );
}

#[test]
fn vlm_zipf_session_plans_replay_to_their_planned_time_on_every_tier() {
    let spec = zoo::vlm_s();
    let cluster = ClusterTopology::h800_cluster(2);
    let bucketing = BucketingConfig::default();
    let stream = zipf_request_stream(160, 8, 4, 4, 1.1, 0x0a11, &bucketing);
    let session = PlanningSession::with_config(
        &spec,
        ParallelConfig::new(4, 4, 1),
        &cluster,
        config(20),
        SessionConfig::fuzzy(),
    );
    let mut tiers = [0usize; 3];
    for (i, request) in stream.iter().enumerate() {
        let outcome = session.plan(request).unwrap();
        let tier = match outcome.tier {
            PlanTier::Cold => 0,
            PlanTier::Fuzzy => 1,
            PlanTier::Exact => 2,
            PlanTier::Elastic => unreachable!("no retarget, no elastic plan"),
        };
        tiers[tier] += 1;
        let what = format!("request {i} ({:?})", outcome.tier);
        assert_engine_replays_the_planned_time(session.planner(), &outcome.plan, &what);
    }
    assert!(
        tiers.iter().all(|&count| count > 0),
        "cold, fuzzy and exact plans must all occur: {tiers:?}"
    );
}

#[test]
fn t2v_base_and_elastic_plans_replay_to_their_planned_time() {
    let spec = zoo::t2v_s();
    let base = ClusterTopology::mixed_h800_h20(2, 1);
    let mut generator = BatchGenerator::t2v(DatasetMix::t2v_default(), 4, 0x7277);
    let requests: Vec<PlanRequest> = (0..2)
        .map(|_| PlanRequest::new(generator.next_batch().workloads()))
        .collect();
    let mut elastic_plans = 0usize;
    for (j, request) in requests.iter().enumerate() {
        for seed in [0x5eed_u64, 0xfa11, 0xb0a7, 0xd1ce] {
            let schedule = FailureSchedule::seeded(&base, 8, 3, seed + j as u64);
            let mut session =
                PlanningSession::new(&spec, ParallelConfig::new(4, 4, 1), &base, config(10));
            let plan = session.plan(request).unwrap().plan;
            let what = format!("request {j}, schedule {seed:#x}: base plan");
            assert_engine_replays_the_planned_time(session.planner(), &plan, &what);
            for (event, topology) in schedule.topologies() {
                session.retarget(topology, ElasticConfig::default());
                let outcome = session.plan(request).unwrap();
                assert_eq!(outcome.tier, PlanTier::Elastic);
                let what = format!("request {j}, schedule {seed:#x}, event {event:?}");
                assert_engine_replays_the_planned_time(session.planner(), &outcome.plan, &what);
                elastic_plans += 1;
            }
        }
    }
    assert!(
        elastic_plans > 0,
        "the seeded schedules changed no topology"
    );
}
