//! Virtual-time determinism properties: the budgets that bound every
//! planner search are counted (evaluation quotas, ILP node budgets), never
//! clocked, so a fixed-seed, *time-budgeted* `plan()` must be bit-identical
//! across physical worker counts, across repeated runs, and between the
//! serial and parallel memory-optimisation paths — the guarantee the
//! bench-JSON CI gate's determinism metrics rely on.

use dip_core::{
    optimize_memory_detailed, DipPlan, MemoryOptConfig, PlanRequest, PlannerConfig,
    PlanningSession, SessionConfig,
};
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::{
    dual_queue, separated_placement, DualQueueConfig, MemoryPlan, MemoryStrategy, ParallelConfig,
    StageGraphBuilder, SubMicrobatchPlan,
};
use dip_sim::ClusterSpec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

fn vlm_batch(images: u64) -> BatchWorkload {
    let images = images.min(48);
    BatchWorkload::new()
        .with(
            Modality::Text,
            ModalityWorkload::new(8192 - images * 169, 1),
        )
        .with(Modality::Image, ModalityWorkload::new(images * 169, images))
}

/// A planner configuration with a pure **time** budget (no evaluation cap):
/// determinism must come from the virtual-time schedule alone.
fn time_budgeted_config(workers: usize, budget_ms: u64, seed: u64) -> PlannerConfig {
    let mut config = PlannerConfig::default().with_num_threads(workers);
    config.search.time_budget = Duration::from_millis(budget_ms);
    config.search.max_evaluations = None;
    config.search.streams = 4;
    config.search.seed = seed;
    config
}

fn assert_plans_bit_identical(a: &DipPlan, b: &DipPlan, what: &str) {
    assert_eq!(a.graph, b.graph, "{what}: stage graphs differ");
    assert_eq!(a.orders, b.orders, "{what}: rank orders differ");
    assert_eq!(
        a.segment_priorities, b.segment_priorities,
        "{what}: priorities differ"
    );
    assert_eq!(a.memory_plan, b.memory_plan, "{what}: memory plans differ");
    assert_eq!(
        a.sub_microbatches, b.sub_microbatches,
        "{what}: sub-microbatch plans differ"
    );
    assert_eq!(
        a.stats.search_evaluations, b.stats.search_evaluations,
        "{what}: evaluation counts differ"
    );
    assert_eq!(
        a.stats.search_worker_evaluations, b.stats.search_worker_evaluations,
        "{what}: per-stream evaluation counts differ"
    );
    assert_eq!(
        a.stats.planned_time_s.to_bits(),
        b.stats.planned_time_s.to_bits(),
        "{what}: planned times differ bit-wise"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Fixed seed + time budget ⇒ the same plan at 1, 2, 4 and 8 workers
    /// and across repeated runs, for arbitrary workload shapes and
    /// budgets. This is the tentpole guarantee: wall clocks are out of the
    /// planning loop entirely. The `workers` knob drives every parallel
    /// phase (the search streams and the per-rank memory ILPs), so this
    /// covers both end to end.
    #[test]
    fn time_budgeted_plans_are_bit_identical_across_worker_counts(
        images_a in 0u64..49,
        images_b in 0u64..49,
        microbatches in 2usize..6,
        budget_ms in 5u64..40,
        seed in 0u64..1000,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let cluster = ClusterSpec::h800_cluster(2);
        let request = PlanRequest::new(
            (0..microbatches)
                .map(|i| vlm_batch(if i % 2 == 0 { images_a } else { images_b }))
                .collect(),
        );

        let plan_at = |workers: usize| {
            let session = PlanningSession::new(
                &spec,
                parallel,
                &cluster,
                time_budgeted_config(workers, budget_ms, seed),
            );
            session.plan(&request).expect("plans").plan
        };

        let reference = plan_at(1);
        for workers in [2usize, 4, 8] {
            let plan = plan_at(workers);
            assert_plans_bit_identical(&reference, &plan, &format!("{workers} workers"));
        }
        // Repeated run at the same worker count: bit-identical too.
        let again = plan_at(4);
        assert_plans_bit_identical(&reference, &again, "repeated run");
    }

    /// The session layer preserves the guarantee end to end (cache keys
    /// and all): two sessions over the same request stream
    /// produce bit-identical plans at different pool widths.
    #[test]
    fn sessions_replay_identically_at_any_width(
        images in 0u64..49,
        seed in 0u64..1000,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let cluster = ClusterSpec::h800_cluster(2);
        let requests = [
            PlanRequest::new(vec![vlm_batch(images), vlm_batch(images / 2)]),
            PlanRequest::new(vec![vlm_batch(48 - images), vlm_batch(images)]),
        ];
        let run = |workers: usize| -> Vec<DipPlan> {
            let session = PlanningSession::with_config(
                &spec,
                parallel,
                &cluster,
                time_budgeted_config(workers, 10, seed),
                SessionConfig::default(),
            );
            requests
                .iter()
                .map(|r| session.plan(r).expect("plans").plan)
                .collect()
        };
        let narrow = run(1);
        let wide = run(8);
        for (a, b) in narrow.iter().zip(&wide) {
            assert_plans_bit_identical(a, b, "session width");
        }
    }

    /// The parallel memory optimiser is byte-identical to the serial path
    /// on random workloads and budget tightness — at the `tests/` level,
    /// over the full planner-built graph and schedule.
    #[test]
    fn parallel_memopt_is_byte_identical_to_serial(
        images in 0u64..49,
        microbatches in 2usize..7,
        divisor in 1u64..6,
        threads in 2usize..9,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let cluster = ClusterSpec::h800_cluster(2);
        let session = PlanningSession::new(
            &spec,
            parallel,
            &cluster,
            time_budgeted_config(1, 5, 3),
        );
        let request =
            PlanRequest::new((0..microbatches).map(|i| vlm_batch(images + i as u64)).collect());
        let plan = session.plan(&request).expect("plans").plan;

        // Re-run the memory optimiser over the planned graph and schedule
        // with a random budget tightness, serial versus parallel.
        let budget: Vec<u64> = plan
            .graph
            .static_memory
            .iter()
            .map(|_| {
                let unconstrained: u64 = plan
                    .graph
                    .items()
                    .iter()
                    .map(|i| i.activation_bytes)
                    .sum::<u64>()
                    .max(1);
                unconstrained / divisor + 1
            })
            .collect();
        let config = MemoryOptConfig::default();
        let serial =
            optimize_memory_detailed(&plan.graph, &plan.orders, &budget, &config, 1).unwrap();
        let wide =
            optimize_memory_detailed(&plan.graph, &plan.orders, &budget, &config, threads)
                .unwrap();
        prop_assert_eq!(serial.plan, wide.plan);
    }

    /// `StageGraph::reprice` is bit-identical to rebuilding the graph with
    /// the memory plan baked in — items, dependencies, durations — and the
    /// repriced graph schedules to the bit-same makespan, over random
    /// workloads and random per-pair strategy assignments.
    #[test]
    fn reprice_equals_full_rebuild_to_the_bit(
        images in 0u64..49,
        microbatches in 1usize..6,
        ladder_len in 2usize..7,
        stride in 1usize..5,
        gap in 0usize..4,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let cluster = ClusterSpec::h800_cluster(2);
        let placement = separated_placement(&spec, parallel, &BTreeMap::new());
        let batches: Vec<BatchWorkload> =
            (0..microbatches).map(|i| vlm_batch(images + 2 * i as u64)).collect();
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let base = StageGraphBuilder::new(&spec, &placement, &cluster)
            .build(&batches, &plan)
            .expect("builds");

        // A deterministic pseudo-random memory plan: walk the strategy
        // ladder with the sampled stride, leaving every (gap+1)-th pair on
        // the default keep-everything strategy.
        let ladder = MemoryStrategy::ladder(ladder_len);
        let mut memory_plan = MemoryPlan::new();
        for pair in 0..base.num_stage_pairs {
            if gap == 0 || pair % (gap + 1) != 0 {
                memory_plan.set(pair, ladder[(pair * stride) % ladder.len()]);
            }
        }

        let rebuilt = StageGraphBuilder::new(&spec, &placement, &cluster)
            .with_memory_plan(memory_plan.clone())
            .build(&batches, &plan)
            .expect("builds");
        let mut repriced = base.clone();
        repriced.reprice(&memory_plan);
        prop_assert_eq!(&repriced, &rebuilt);

        // Scheduling the repriced and rebuilt graphs is bit-identical too.
        let queue = DualQueueConfig::default();
        let (orders_a, makespan_a) = dual_queue::schedule(&repriced, &queue);
        let (orders_b, makespan_b) = dual_queue::schedule(&rebuilt, &queue);
        prop_assert_eq!(orders_a, orders_b);
        prop_assert_eq!(makespan_a.to_bits(), makespan_b.to_bits());
    }
}

/// The determinism guarantee is documented as machine-independent; CI runs
/// this same binary under both debug and release profiles, so any
/// profile-dependent divergence (overflow checks, debug asserts, float
/// contraction) in the planning path would surface as a difference in the
/// session's own deterministic counters.
#[test]
fn deterministic_counters_are_profile_stable() {
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let cluster = ClusterSpec::h800_cluster(2);
    // Caching off, so the repeat is planned again rather than served.
    let session = PlanningSession::with_config(
        &spec,
        parallel,
        &cluster,
        time_budgeted_config(2, 15, 42),
        SessionConfig::cold(),
    );
    let request = PlanRequest::new(vec![vlm_batch(12), vlm_batch(30), vlm_batch(3)]);
    let a = session.plan(&request).expect("plans").plan;
    let b = session.plan(&request).expect("plans").plan;
    assert_plans_bit_identical(&a, &b, "repeated cold plan");
    // The quota is the only stopping rule: every stream either hit it
    // exactly or (DFS-like corner cases aside) stopped at it.
    assert!(a
        .stats
        .search_worker_evaluations
        .iter()
        .all(|&e| e > 0 || a.stats.search_evaluations >= 1));
}
