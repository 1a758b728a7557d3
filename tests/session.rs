//! Integration tests of the planning-session layer over dynamic workload
//! traces: repeated workload signatures are served from the plan cache,
//! total planning time over a repeated-shape trace drops by at least 2×
//! versus cold planning, and cached plans simulate to identical iteration
//! times.

use dip_core::{
    CanonicalSignature, PlanRequest, PlanTier, PlannerConfig, PlanningSession, SessionConfig,
};
use dip_data::{BatchGenerator, DatasetMix, DynamicWorkloadController, ImageBoundSchedule};
use dip_models::zoo;
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterSpec;
use std::time::Duration;

/// A short repeated-shape dynamic trace: one recorded pass over a
/// rise-and-fall envelope, replayed `passes` times (as in `fig8b_dynamic`).
fn replayed_requests(iterations_per_pass: usize, passes: usize) -> Vec<PlanRequest> {
    let generator = BatchGenerator::vlm(DatasetMix::vlm_default(), 4, 8);
    let mut controller = DynamicWorkloadController::new(
        generator,
        ImageBoundSchedule::new(
            ImageBoundSchedule::fig8b()
                .iter()
                .take(iterations_per_pass)
                .collect(),
        ),
    );
    let trace = controller.collect_trace();
    trace
        .replay(passes)
        .map(|iteration| PlanRequest::new(iteration.batch.workloads()))
        .collect()
}

fn planner_config() -> PlannerConfig {
    let mut config = PlannerConfig::fast();
    config.search.time_budget = Duration::from_millis(80);
    config.search.workers = 2;
    config
}

#[test]
fn second_pass_over_a_replayed_trace_is_served_from_the_cache() {
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let requests = replayed_requests(4, 2);

    let session = PlanningSession::new(&spec, parallel, &cluster, planner_config());
    let mut first_pass = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let (outcome, execution) = session.plan_and_simulate(request).unwrap();
        if i < 4 {
            assert_ne!(
                outcome.tier,
                PlanTier::Exact,
                "pass 1 iteration {i} must be a miss"
            );
            first_pass.push((outcome.signature, execution.metrics.iteration_time_s));
        } else {
            let (signature, time) = first_pass[i - 4];
            assert_eq!(
                outcome.tier,
                PlanTier::Exact,
                "pass 2 iteration {i} must hit the cache"
            );
            assert_eq!(outcome.signature, signature);
            // Identical plans simulate to identical iteration times.
            assert!(
                (execution.metrics.iteration_time_s - time).abs() < 1e-12,
                "iteration {i}: {} vs {}",
                execution.metrics.iteration_time_s,
                time
            );
        }
    }
    let stats = session.stats();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.exact_hits, 4);
    assert_eq!(stats.cache_misses, 4);
}

#[test]
fn plan_cache_cuts_total_planning_time_at_least_2x_on_a_repeated_trace() {
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    // 3 shapes × 3 passes: 3 misses, 6 hits with the cache enabled.
    let requests = replayed_requests(3, 3);

    let total_planning = |session_config: SessionConfig| {
        let session = PlanningSession::with_config(
            &spec,
            parallel,
            &cluster,
            planner_config(),
            session_config,
        );
        let mut total = Duration::ZERO;
        for request in &requests {
            total += session.plan(request).unwrap().plan.stats.planning_time;
        }
        total
    };

    let cold = total_planning(SessionConfig::cold());
    let cached = total_planning(SessionConfig::default());
    assert!(
        cached * 2 <= cold,
        "cached planning {cached:?} should be at least 2x faster than cold {cold:?}"
    );
}

#[test]
fn workload_signatures_of_a_replayed_trace_repeat_exactly() {
    let requests = replayed_requests(5, 2);
    let signatures: Vec<CanonicalSignature> = requests.iter().map(|r| r.signature()).collect();
    assert_eq!(&signatures[..5], &signatures[5..]);
    // Distinct envelope phases produce distinct signatures (the bounds
    // change every iteration of the rise phase).
    assert_ne!(signatures[0], signatures[1]);
}

/// Eight threads hammer one shared session with pre-warmed shapes: every
/// concurrent request must hit the cache, and the hit/miss/eviction totals
/// must come out exact — no lost updates, no double counting.
#[test]
fn shared_session_serves_eight_threads_with_exact_totals() {
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let session = PlanningSession::new(&spec, parallel, &cluster, planner_config());

    let shapes: Vec<PlanRequest> = replayed_requests(3, 1);
    for request in &shapes {
        assert_ne!(
            session.plan(request).unwrap().tier,
            PlanTier::Exact,
            "pre-warm miss"
        );
    }

    const THREADS: usize = 8;
    const ROUNDS: usize = 20;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = &session;
            let shapes = &shapes;
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    let request = &shapes[(t + i) % shapes.len()];
                    let outcome = session.plan(request).unwrap();
                    assert_eq!(outcome.tier, PlanTier::Exact, "thread {t} round {i} missed");
                    assert_eq!(outcome.signature, request.signature());
                }
            });
        }
    });

    let stats = session.stats();
    assert_eq!(stats.requests, (shapes.len() + THREADS * ROUNDS) as u64);
    assert_eq!(stats.exact_hits, (THREADS * ROUNDS) as u64);
    assert_eq!(stats.cache_misses, shapes.len() as u64);
    assert_eq!(stats.evictions, 0);
    assert_eq!(
        stats.requests,
        stats.exact_hits + stats.fuzzy_hits + stats.cache_misses
    );
    assert_eq!(session.cached_plans(), shapes.len());
}

/// Eight threads hammer a fuzzy-enabled session with *fresh* in-bucket
/// jitter variants of two pre-anchored base shapes: no request repeats an
/// exact signature, so every one must be served by the fuzzy tier, and the
/// tier totals must partition the request count exactly — a fuzzy hit is
/// neither an exact hit nor a miss.
#[test]
fn fuzzy_tier_totals_partition_requests_under_contention() {
    use dip_bench::vlm_batch_jittered;
    use dip_core::BucketingConfig;

    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let session = PlanningSession::with_config(
        &spec,
        parallel,
        &cluster,
        planner_config(),
        SessionConfig::fuzzy(),
    );
    let bucketing = BucketingConfig::default();
    let base = |images| {
        PlanRequest::new(vec![
            vlm_batch_jittered(images, 0, &bucketing),
            vlm_batch_jittered(images + 16, 0, &bucketing),
        ])
    };
    // Anchor both buckets with cold plans.
    for images in [8u64, 11] {
        assert_eq!(session.plan(&base(images)).unwrap().tier, PlanTier::Cold);
    }

    const THREADS: usize = 8;
    const ROUNDS: usize = 6;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = &session;
            let bucketing = &bucketing;
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    // A unique in-bucket jitter per (thread, round): fresh
                    // exact signature, same canonical bucket.
                    let dt = (t * ROUNDS + i + 1) as u64;
                    let images = if (t + i) % 2 == 0 { 8 } else { 11 };
                    let request = PlanRequest::new(vec![
                        vlm_batch_jittered(images, dt, bucketing),
                        vlm_batch_jittered(images + 16, dt, bucketing),
                    ]);
                    let outcome = session.plan(&request).unwrap();
                    assert_eq!(outcome.tier, PlanTier::Fuzzy, "thread {t} round {i}");
                }
            });
        }
    });

    let stats = session.stats();
    assert_eq!(stats.requests, (2 + THREADS * ROUNDS) as u64);
    assert_eq!(stats.fuzzy_hits, (THREADS * ROUNDS) as u64);
    assert_eq!(stats.exact_hits, 0);
    assert_eq!(stats.cache_misses, 2, "a fuzzy hit is not a miss");
    assert_eq!(
        stats.requests,
        stats.exact_hits + stats.fuzzy_hits + stats.cache_misses
    );
}

/// `plan_many` plans a whole trace through the worker pool and returns the
/// outcomes in request order, with the same signatures sequential planning
/// would produce.
#[test]
fn plan_many_plans_a_trace_concurrently_in_request_order() {
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let mut config = planner_config();
    config.num_threads = 4;
    let mut session = PlanningSession::new(&spec, parallel, &cluster, config);
    // Pin the placement first so concurrent first-iteration planning does
    // not race the offline phase.
    let requests = replayed_requests(4, 2);
    session
        .offline_partition(&requests[0].microbatches()[0])
        .unwrap();

    let outcomes = session.plan_many(&requests);
    assert_eq!(outcomes.len(), requests.len());
    for (request, outcome) in requests.iter().zip(&outcomes) {
        let outcome = outcome.as_ref().expect("plan_many outcome");
        assert_eq!(outcome.signature, request.signature());
        session.simulate(&outcome.plan).expect("plan is simulable");
    }
    let stats = session.stats();
    assert_eq!(stats.requests, requests.len() as u64);
    assert_eq!(
        stats.requests,
        stats.exact_hits + stats.fuzzy_hits + stats.cache_misses
    );
    // The trace repeats each of the 4 shapes twice; every shape is planned
    // at least once, and afterwards every shape is cached.
    assert!(stats.cache_misses >= 4);
    assert_eq!(session.cached_plans(), 4);
    for request in &requests {
        assert_eq!(session.plan(request).unwrap().tier, PlanTier::Exact);
    }
}

#[test]
fn warm_start_does_not_change_plan_validity_and_helps_the_incumbent() {
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let requests = replayed_requests(4, 1);

    let session = PlanningSession::new(&spec, parallel, &cluster, planner_config());
    for (i, request) in requests.iter().enumerate() {
        let outcome = session.plan(request).unwrap();
        assert_eq!(outcome.plan.stats.warm_started, i > 0);
        // Warm-started plans are still complete, valid schedules.
        assert_eq!(outcome.plan.orders.num_stages(), outcome.plan.graph.len());
        session.simulate(&outcome.plan).unwrap();
    }
    assert_eq!(session.stats().warm_started_plans, 3);
}

/// Exact hits hand out the cached plan's storage instead of a copy: two
/// hits of one request share one stage-graph slab with each other and with
/// the cold plan that filled the cache, and are equal to it in everything
/// but the per-request bookkeeping.
#[test]
fn exact_hits_share_the_cached_graph_and_equal_the_cold_plan() {
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let request = &replayed_requests(1, 1)[0];
    let session = PlanningSession::new(&spec, parallel, &cluster, planner_config());

    let cold = session.plan(request).unwrap();
    assert_eq!(cold.tier, PlanTier::Cold);
    let first = session.plan(request).unwrap();
    let second = session.plan(request).unwrap();
    for hit in [&first, &second] {
        assert_eq!(hit.tier, PlanTier::Exact);
        assert!(hit.plan.graph.shares_storage_with(&cold.plan.graph));
        let mut served = hit.plan.clone();
        served.stats = cold.plan.stats.clone();
        assert_eq!(served, cold.plan);
    }
    assert!(first.plan.graph.shares_storage_with(&second.plan.graph));
}

/// A fuzzy delta replan builds its own graph and never writes to its
/// anchor's: replaying the anchor's request afterwards is an exact hit on
/// the very plan the anchor table holds, with the stage durations and the
/// planned time bit for bit as first planned.
#[test]
fn fuzzy_delta_replan_leaves_its_anchor_untouched() {
    use dip_bench::vlm_batch_jittered;
    use dip_core::BucketingConfig;

    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let session = PlanningSession::with_config(
        &spec,
        parallel,
        &cluster,
        planner_config(),
        SessionConfig::fuzzy(),
    );
    let bucketing = BucketingConfig::default();
    let request = |jitter| {
        PlanRequest::new(vec![
            vlm_batch_jittered(8, jitter, &bucketing),
            vlm_batch_jittered(24, jitter, &bucketing),
        ])
    };
    let duration_bits = |plan: &dip_core::DipPlan| -> Vec<u64> {
        plan.graph
            .items()
            .iter()
            .map(|item| item.duration.to_bits())
            .collect()
    };

    let anchor = session.plan(&request(0)).unwrap();
    assert_eq!(anchor.tier, PlanTier::Cold);
    let anchor_bits = duration_bits(&anchor.plan);
    let anchor_time = anchor.plan.stats.planned_time_s.to_bits();

    let delta = session.plan(&request(3)).unwrap();
    assert_eq!(delta.tier, PlanTier::Fuzzy);
    assert_eq!(
        delta.plan.stats.search_evaluations, 1,
        "a fuzzy hit runs one interleave pass"
    );
    assert!(!delta.plan.graph.shares_storage_with(&anchor.plan.graph));

    let replay = session.plan(&request(0)).unwrap();
    assert_eq!(replay.tier, PlanTier::Exact);
    assert!(replay.plan.graph.shares_storage_with(&anchor.plan.graph));
    assert_eq!(duration_bits(&replay.plan), anchor_bits);
    assert_eq!(replay.plan.stats.planned_time_s.to_bits(), anchor_time);
}
