//! Properties of the fuzzy plan-reuse tier, which serves a request by
//! repricing an in-bucket anchor's plan and running one interleave pass
//! under the anchor's ordering (no search): its plans stay within a
//! bounded simulated regret of fresh full plans on in-bucket neighbour
//! shapes, they adopt the anchor verbatim, and a fixed-seed Zipfian shape
//! stream replays bit-identically at any search-worker count — the
//! guarantees the fig8b `zipf.*` CI gate metrics rely on.

mod common;

use common::assert_plans_bit_identical;
use dip_bench::{vlm_batch_jittered, zipf_request_stream};
use dip_core::{
    BucketingConfig, DipPlan, PlanRequest, PlanTier, PlannerConfig, PlanningSession, SessionConfig,
};
use dip_models::zoo;
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;
use proptest::prelude::*;
use std::time::Duration;

/// The regret bound the fuzzy tier is held to: a fuzzy-served plan's
/// simulated iteration time may exceed a fresh full plan's by at most 10%.
/// The fig8b Zipf section gates the same bound (`zipf.regret_ok`).
const REGRET_EPSILON: f64 = 0.10;

/// A planner configuration with a pure virtual-time budget, so plans are a
/// function of (seed, shape) only — never of wall clocks or worker counts.
fn time_budgeted_config(workers: usize, budget_ms: u64, seed: u64) -> PlannerConfig {
    let mut config = PlannerConfig::default().with_num_threads(1);
    config.search.workers = workers;
    config.search.time_budget = Duration::from_millis(budget_ms);
    config.search.max_evaluations = None;
    config.search.streams = 4;
    config.search.seed = seed;
    config
}

fn session<'a>(
    spec: &'a dip_models::LmmSpec,
    cluster: &ClusterTopology,
    planner: PlannerConfig,
    config: SessionConfig,
) -> PlanningSession<'a> {
    PlanningSession::with_config(spec, ParallelConfig::new(4, 4, 1), cluster, planner, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The simulated-regret bound of the fuzzy tier: for a random base
    /// shape and a random in-bucket jitter of it, the plan served by the
    /// fuzzy tier simulates to at most (1 + ε) of what a fresh full plan
    /// of the jittered shape achieves. This is the invariant that makes
    /// canonical bucketing safe: fuzzy reuse trades bounded plan quality
    /// for orders-of-magnitude lower planning latency.
    #[test]
    fn delta_replanned_plans_stay_within_bounded_simulated_regret(
        images_a in 2u64..=48,
        images_b in 2u64..=48,
        jitter_a in 0u64..=100,
        jitter_b in 0u64..=100,
        seed in 0u64..=1000,
    ) {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let bucketing = BucketingConfig::default();
        let base = PlanRequest::new(vec![
            vlm_batch_jittered(images_a, 0, &bucketing),
            vlm_batch_jittered(images_b, 0, &bucketing),
        ]);
        let neighbour = PlanRequest::new(vec![
            vlm_batch_jittered(images_a, jitter_a, &bucketing),
            vlm_batch_jittered(images_b, jitter_b, &bucketing),
        ]);

        let fuzzy = session(
            &spec,
            &cluster,
            time_budgeted_config(2, 40, seed),
            SessionConfig::fuzzy(),
        );
        let cold = fuzzy.plan(&base).unwrap();
        prop_assert_eq!(cold.tier, PlanTier::Cold);
        let served = fuzzy.plan(&neighbour).unwrap();
        let delta_time = fuzzy
            .simulate(&served.plan)
            .unwrap()
            .metrics
            .iteration_time_s;

        // A fresh, fully-budgeted plan of the *neighbour* shape from a
        // separate cold session is the regret reference.
        let reference = session(
            &spec,
            &cluster,
            time_budgeted_config(2, 40, seed),
            SessionConfig::cold(),
        );
        let fresh = reference.plan(&neighbour).unwrap();
        let fresh_time = reference
            .simulate(&fresh.plan)
            .unwrap()
            .metrics
            .iteration_time_s;

        if served.tier == PlanTier::Fuzzy {
            prop_assert!(
                delta_time <= fresh_time * (1.0 + REGRET_EPSILON),
                "regret {:.4} exceeds ε = {REGRET_EPSILON}: delta {delta_time} vs fresh {fresh_time}",
                delta_time / fresh_time - 1.0,
            );
        } else {
            // The jitter clamped to zero on every microbatch: the
            // neighbour degenerated to an exact revisit of the base.
            prop_assert_eq!(served.tier, PlanTier::Exact);
            prop_assert_eq!(neighbour.signature(), base.signature());
        }
    }
}

/// Fixed seed + fixed Zipf stream ⇒ every tier decision and every served
/// plan is bit-identical at 1, 2, 4 and 8 search workers. Cold plans get
/// this from the virtual-time determinism of the search (its budget is an
/// evaluation quota, never a wall clock); fuzzy hits run one deterministic
/// interleave pass.
#[test]
fn zipf_replay_is_bit_identical_across_worker_counts() {
    let spec = zoo::vlm_s();
    let cluster = ClusterTopology::h800_cluster(2);
    let bucketing = BucketingConfig::default();
    let stream = zipf_request_stream(24, 6, 3, 2, 1.1, 0x5eed, &bucketing);

    let replay = |workers: usize| -> Vec<(PlanTier, DipPlan)> {
        let session = session(
            &spec,
            &cluster,
            time_budgeted_config(workers, 40, 7),
            SessionConfig::fuzzy(),
        );
        stream
            .iter()
            .map(|request| {
                let outcome = session.plan(request).unwrap();
                (outcome.tier, outcome.plan)
            })
            .collect()
    };

    let baseline = replay(1);
    assert!(
        baseline.iter().any(|(tier, _)| *tier == PlanTier::Fuzzy),
        "the stream must exercise the fuzzy tier"
    );
    for workers in [2usize, 4, 8] {
        let run = replay(workers);
        assert_eq!(run.len(), baseline.len());
        for (i, ((tier_a, plan_a), (tier_b, plan_b))) in baseline.iter().zip(&run).enumerate() {
            assert_eq!(
                tier_a, tier_b,
                "request {i}: tier diverged at {workers} workers"
            );
            assert_plans_bit_identical(
                plan_a,
                plan_b,
                &format!("request {i} at {workers} workers"),
            );
        }
    }
}

/// Fuzzy hits adopt the anchor verbatim: the served plan reuses the
/// anchor's ordering, memory plan and splits unchanged (only the stage
/// graph is re-priced for the requested shape).
#[test]
fn fuzzy_hits_adopt_the_anchor_verbatim() {
    let spec = zoo::vlm_s();
    let cluster = ClusterTopology::h800_cluster(2);
    let bucketing = BucketingConfig::default();
    let planner_config = time_budgeted_config(2, 40, 11);
    let session = session(&spec, &cluster, planner_config, SessionConfig::fuzzy());

    let base = PlanRequest::new(vec![
        vlm_batch_jittered(8, 0, &bucketing),
        vlm_batch_jittered(24, 0, &bucketing),
    ]);
    let neighbour = PlanRequest::new(vec![
        vlm_batch_jittered(8, 13, &bucketing),
        vlm_batch_jittered(24, 27, &bucketing),
    ]);
    let cold = session.plan(&base).unwrap();
    let served = session.plan(&neighbour).unwrap();
    assert_eq!(served.tier, PlanTier::Fuzzy);
    assert_eq!(
        served.plan.segment_priorities, cold.plan.segment_priorities,
        "a fuzzy hit must adopt the anchor's ordering verbatim"
    );
    assert_eq!(served.plan.memory_plan, cold.plan.memory_plan);
    assert_eq!(served.plan.sub_microbatches, cold.plan.sub_microbatches);
    let stats = session.stats();
    assert_eq!(stats.fuzzy_hits, 1);
    assert_eq!(stats.delta_replans, 0, "no search may run on a fuzzy hit");
    // The verbatim plan is still valid and simulable for the new shape.
    session.simulate(&served.plan).unwrap();
}
