//! Properties of the elastic scenario layer: replanning onto an unchanged
//! topology is byte-identical with zero migration, an infinite migration
//! weight never moves state that could legally stay, a weight-0 elastic
//! replan stays within bounded simulated regret of a cold replan (while
//! beating its recovery bill), and a fixed seed + failure schedule replays
//! a bit-identical recovery sequence at any worker count — plus regression
//! tests pinning the named `InvalidRequest` arms of the anchor
//! compatibility check shared by `plan_iteration_delta` and
//! `replan_elastic`.

use dip_bench::vlm_batch;
use dip_core::{
    DipError, DipPlan, DipPlanner, ElasticCandidate, ElasticConfig, PlanTier, PlannerConfig,
};
use dip_data::FailureSchedule;
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;
use proptest::prelude::*;
use std::time::Duration;

/// The regret bound the elastic tier is held to at `migration_weight = 0`:
/// the elastic plan's simulated iteration time may exceed a fresh
/// full-budget cold replan's by at most 10%.
const REGRET_EPSILON: f64 = 0.10;

fn parallel() -> ParallelConfig {
    ParallelConfig::new(4, 4, 1)
}

/// A planner configuration with a pure virtual-time budget, so plans are a
/// function of (seed, shape, topology) only — never of wall clocks or
/// worker counts.
fn time_budgeted_config(workers: usize, budget_ms: u64, seed: u64) -> PlannerConfig {
    let mut config = PlannerConfig::default().with_num_threads(1);
    config.search.workers = workers;
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
    assert_eq!(a.placement, b.placement, "{what}: placements differ");
    assert_eq!(
        a.topology_fingerprint, b.topology_fingerprint,
        "{what}: topology fingerprints differ"
    );
    assert_eq!(
        a.stats.planned_time_s.to_bits(),
        b.stats.planned_time_s.to_bits(),
        "{what}: planned times differ bit-wise"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Invariant (i): replanning onto an *unchanged* topology returns the
    /// old plan byte-identical, with `bytes_moved == 0` and the `Unchanged`
    /// candidate — elasticity costs nothing when nothing happened.
    #[test]
    fn unchanged_topology_replans_byte_identically_with_zero_migration(
        images_a in 2u64..=48,
        images_b in 2u64..=48,
        seed in 0u64..=1000,
    ) {
        let spec = zoo::vlm_s();
        let topology = ClusterTopology::mixed_h800_h20(1, 1);
        let batches = vec![vlm_batch(images_a), vlm_batch(images_b)];
        let planner = DipPlanner::on_topology(
            &spec,
            parallel(),
            topology.clone(),
            time_budgeted_config(2, 40, seed),
        );
        let old_plan = planner.plan_iteration(&batches).unwrap();

        let replanner = DipPlanner::on_topology(
            &spec,
            parallel(),
            topology.clone(),
            time_budgeted_config(2, 40, seed),
        );
        let outcome = replanner
            .replan_elastic(&batches, &old_plan, &topology, &ElasticConfig::default())
            .unwrap();
        prop_assert_eq!(outcome.candidate, ElasticCandidate::Unchanged);
        prop_assert_eq!(outcome.migration.bytes_moved, 0);
        prop_assert_eq!(outcome.migration.transfer_time_s, 0.0);
        prop_assert!(outcome.delta.is_identity());
        assert_plans_bit_identical(&outcome.plan, &old_plan, "unchanged-topology replan");
    }

    /// Invariant (ii): as `migration_weight → ∞` the replanner never moves
    /// state that could legally stay. On a tail-node kill the surviving
    /// ranks keep their devices, so everything moved must be state whose
    /// host died (`bytes_moved == bytes_restored`), and the transfer bill
    /// is never above the weight-0 plan's.
    #[test]
    fn infinite_migration_weight_only_moves_state_that_must_move(
        images_a in 2u64..=48,
        images_b in 2u64..=48,
        seed in 0u64..=1000,
    ) {
        let spec = zoo::vlm_s();
        let old_topology = ClusterTopology::mixed_h800_h20(1, 1);
        let new_topology = ClusterTopology::mixed_h800_h20(1, 0);
        let batches = vec![vlm_batch(images_a), vlm_batch(images_b)];
        let planner = DipPlanner::on_topology(
            &spec,
            parallel(),
            old_topology.clone(),
            time_budgeted_config(2, 40, seed),
        );
        let old_plan = planner.plan_iteration(&batches).unwrap();

        let replanner = DipPlanner::on_topology(
            &spec,
            parallel(),
            new_topology,
            time_budgeted_config(2, 40, seed),
        );
        let frugal = replanner
            .replan_elastic(
                &batches,
                &old_plan,
                &old_topology,
                &ElasticConfig {
                    migration_weight: f64::INFINITY,
                    ..ElasticConfig::default()
                },
            )
            .unwrap();
        prop_assert_eq!(frugal.delta.removed.clone(), vec![2, 3]);
        prop_assert_eq!(
            frugal.migration.bytes_moved,
            frugal.migration.bytes_restored,
            "infinite weight moved surviving state voluntarily"
        );
        prop_assert_eq!(frugal.plan.stats.tier, PlanTier::Elastic);

        let eager = replanner
            .replan_elastic(
                &batches,
                &old_plan,
                &old_topology,
                &ElasticConfig {
                    migration_weight: 0.0,
                    ..ElasticConfig::default()
                },
            )
            .unwrap();
        prop_assert!(
            frugal.migration.transfer_time_s <= eager.migration.transfer_time_s,
            "∞-weight transfer {} exceeds 0-weight transfer {}",
            frugal.migration.transfer_time_s,
            eager.migration.transfer_time_s
        );
    }

    /// Invariant (iii): at weight 0 the elastic replan's simulated
    /// iteration time stays within bounded regret of a fresh full-budget
    /// cold plan on the new topology — while its recovery bill (virtual
    /// planning time + state transfer) undercuts the cold path's
    /// (full-budget planning + full state restore).
    #[test]
    fn weight_zero_elastic_replan_bounds_regret_and_beats_cold_recovery(
        images_a in 2u64..=48,
        images_b in 2u64..=48,
        seed in 0u64..=1000,
    ) {
        let spec = zoo::vlm_s();
        let old_topology = ClusterTopology::mixed_h800_h20(1, 1);
        let new_topology = ClusterTopology::mixed_h800_h20(1, 0);
        let batches = vec![vlm_batch(images_a), vlm_batch(images_b)];
        let planner = DipPlanner::on_topology(
            &spec,
            parallel(),
            old_topology.clone(),
            time_budgeted_config(2, 40, seed),
        );
        let old_plan = planner.plan_iteration(&batches).unwrap();

        let replanner = DipPlanner::on_topology(
            &spec,
            parallel(),
            new_topology.clone(),
            time_budgeted_config(2, 40, seed),
        );
        let outcome = replanner
            .replan_elastic(
                &batches,
                &old_plan,
                &old_topology,
                &ElasticConfig {
                    migration_weight: 0.0,
                    ..ElasticConfig::default()
                },
            )
            .unwrap();
        let elastic_time = replanner
            .simulate(&outcome.plan)
            .unwrap()
            .metrics
            .iteration_time_s;

        let cold_planner = DipPlanner::on_topology(
            &spec,
            parallel(),
            new_topology,
            time_budgeted_config(2, 40, seed),
        );
        let cold_plan = cold_planner.plan_iteration(&batches).unwrap();
        let cold_time = cold_planner
            .simulate(&cold_plan)
            .unwrap()
            .metrics
            .iteration_time_s;

        prop_assert!(
            elastic_time <= cold_time * (1.0 + REGRET_EPSILON),
            "regret {:.4} exceeds ε = {REGRET_EPSILON}: elastic {elastic_time} vs cold {cold_time}",
            elastic_time / cold_time - 1.0,
        );

        let elastic_recovery = outcome.planning_virtual_s + outcome.migration.transfer_time_s;
        let cold_recovery = cold_planner.cold_recovery_time_s(&cold_plan);
        prop_assert!(
            elastic_recovery < cold_recovery,
            "elastic recovery {elastic_recovery} not below cold recovery {cold_recovery}"
        );
    }
}

/// Invariant (iv): a fixed seed and a fixed failure schedule replay a
/// bit-identical recovery sequence — every elastic replan's candidate,
/// byte count and served plan — at 1, 2, 4 and 8 search workers. Elastic
/// replanning inherits the virtual-time determinism of the delta search.
#[test]
fn recovery_sequence_is_bit_identical_across_worker_counts() {
    let spec = zoo::vlm_s();
    let base = ClusterTopology::mixed_h800_h20(1, 1);
    let schedule = FailureSchedule::seeded(&base, 8, 3, 0xE1A5);
    assert!(
        !schedule.topologies().is_empty(),
        "the seeded schedule must produce at least one topology change"
    );
    let batches = vec![vlm_batch(12), vlm_batch(40)];

    let replay = |workers: usize| -> Vec<(ElasticCandidate, u64, DipPlan)> {
        let mut topology = base.clone();
        let planner = DipPlanner::on_topology(
            &spec,
            parallel(),
            topology.clone(),
            time_budgeted_config(workers, 40, 7),
        );
        let mut plan = planner.plan_iteration(&batches).unwrap();
        let mut sequence = Vec::new();
        for (_, new_topology) in schedule.topologies() {
            let replanner = DipPlanner::on_topology(
                &spec,
                parallel(),
                new_topology.clone(),
                time_budgeted_config(workers, 40, 7),
            );
            let outcome = replanner
                .replan_elastic(&batches, &plan, &topology, &ElasticConfig::default())
                .unwrap();
            sequence.push((
                outcome.candidate,
                outcome.migration.bytes_moved,
                outcome.plan.clone(),
            ));
            plan = outcome.plan;
            topology = new_topology;
        }
        sequence
    };

    let baseline = replay(1);
    for workers in [2usize, 4, 8] {
        let run = replay(workers);
        assert_eq!(run.len(), baseline.len());
        for (i, ((cand_a, bytes_a, plan_a), (cand_b, bytes_b, plan_b))) in
            baseline.iter().zip(&run).enumerate()
        {
            assert_eq!(
                cand_a, cand_b,
                "event {i}: candidate diverged at {workers} workers"
            );
            assert_eq!(
                bytes_a, bytes_b,
                "event {i}: bytes moved diverged at {workers} workers"
            );
            assert_plans_bit_identical(plan_a, plan_b, &format!("event {i} at {workers} workers"));
        }
    }
}

// ---------------------------------------------------------------------------
// Structural-guard regression tests: the `InvalidRequest` mismatch arms of
// `plan_iteration_delta` name the mismatched field, and every arm of the
// shared anchor compatibility check fires through both anchored entry
// points (`plan_iteration_delta` and `replan_elastic`).
// ---------------------------------------------------------------------------

fn text_batch(tokens: u64) -> BatchWorkload {
    BatchWorkload::new().with(Modality::Text, ModalityWorkload::new(tokens, 1))
}

#[test]
fn delta_guard_names_the_microbatch_count_mismatch() {
    let spec = zoo::vlm_s();
    let topology = ClusterTopology::mixed_h800_h20(1, 1);
    let planner =
        DipPlanner::on_topology(&spec, parallel(), topology, time_budgeted_config(2, 40, 3));
    let anchor = planner
        .plan_iteration(&[vlm_batch(8), vlm_batch(24)])
        .unwrap();
    let err = planner
        .plan_iteration_delta(&[vlm_batch(8), vlm_batch(24), vlm_batch(40)], &anchor)
        .unwrap_err();
    assert!(
        err.to_string().contains("microbatch count"),
        "error must name the microbatch count: {err}"
    );
}

#[test]
fn delta_guard_names_the_modality_set_mismatch() {
    let spec = zoo::vlm_s();
    let topology = ClusterTopology::mixed_h800_h20(1, 1);
    let planner =
        DipPlanner::on_topology(&spec, parallel(), topology, time_budgeted_config(2, 40, 3));
    let anchor = planner
        .plan_iteration(&[vlm_batch(8), vlm_batch(24)])
        .unwrap();
    let err = planner
        .plan_iteration_delta(&[text_batch(4096), text_batch(8192)], &anchor)
        .unwrap_err();
    assert!(
        err.to_string().contains("modality set"),
        "error must name the modality set: {err}"
    );
}

#[test]
fn delta_guard_names_the_topology_fingerprint_mismatch() {
    let spec = zoo::vlm_s();
    let batches = [vlm_batch(8), vlm_batch(24)];
    let old_planner = DipPlanner::on_topology(
        &spec,
        parallel(),
        ClusterTopology::mixed_h800_h20(1, 1),
        time_budgeted_config(2, 40, 3),
    );
    let anchor = old_planner.plan_iteration(&batches).unwrap();
    let other_planner = DipPlanner::on_topology(
        &spec,
        parallel(),
        ClusterTopology::mixed_h800_h20(2, 0),
        time_budgeted_config(2, 40, 3),
    );
    let err = other_planner
        .plan_iteration_delta(&batches, &anchor)
        .unwrap_err();
    assert!(
        err.to_string().contains("topology fingerprint"),
        "error must name the topology fingerprint: {err}"
    );
}

/// Breaks one field of an anchored request: the anchor plan, the request's
/// microbatches, or both.
type BreakRequest = fn(&mut DipPlan, &mut Vec<BatchWorkload>);

#[test]
fn anchor_guard_names_every_mismatched_field_on_both_entry_points() {
    let spec = zoo::vlm_s();
    let old_topology = ClusterTopology::mixed_h800_h20(1, 1);
    let config = time_budgeted_config(2, 40, 3);
    let planner = DipPlanner::on_topology(&spec, parallel(), old_topology.clone(), config.clone());
    let new_planner = DipPlanner::on_topology(
        &spec,
        parallel(),
        ClusterTopology::mixed_h800_h20(2, 0),
        config,
    );
    let batches = vec![vlm_batch(8), vlm_batch(24)];
    let anchor = planner.plan_iteration(&batches).unwrap();
    let elastic = ElasticConfig::default();

    // The intact request passes the check on both entry points.
    planner.plan_iteration_delta(&batches, &anchor).unwrap();
    new_planner
        .replan_elastic(&batches, &anchor, &old_topology, &elastic)
        .unwrap();

    let arms: [(&str, BreakRequest); 5] = [
        ("parallel configuration", |anchor, _| {
            anchor.placement.parallel = ParallelConfig::new(2, 8, 1);
        }),
        ("topology fingerprint", |anchor, _| {
            anchor.topology_fingerprint ^= 1;
        }),
        ("modality set", |_, batches| {
            *batches = vec![text_batch(4096), text_batch(8192)];
        }),
        ("microbatch count", |_, batches| batches.push(vlm_batch(40))),
        ("segment count", |anchor, _| {
            anchor.segment_priorities.pop();
        }),
    ];
    for (field, break_request) in arms {
        let mut bad_anchor = anchor.clone();
        let mut bad_batches = batches.clone();
        break_request(&mut bad_anchor, &mut bad_batches);
        let errors = [
            (
                "plan_iteration_delta",
                planner
                    .plan_iteration_delta(&bad_batches, &bad_anchor)
                    .unwrap_err(),
            ),
            (
                "replan_elastic",
                new_planner
                    .replan_elastic(&bad_batches, &bad_anchor, &old_topology, &elastic)
                    .unwrap_err(),
            ),
        ];
        for (entry, err) in errors {
            assert!(
                matches!(err, DipError::InvalidRequest(_)),
                "{entry}: a broken {field} must be an invalid request: {err}"
            );
            assert!(
                err.to_string().contains(field),
                "{entry}: the error must name the {field}: {err}"
            );
        }
    }
}

/// A zero-budget elastic replan runs no search: its one candidate (uniform
/// clusters rebalance to the old boundaries) adopts the old ordering in one
/// interleave pass, so the plan reports exactly one evaluation.
#[test]
fn zero_budget_elastic_replan_reports_no_search() {
    let spec = zoo::vlm_s();
    let old_topology = ClusterTopology::mixed_h800_h20(2, 0);
    let config = time_budgeted_config(2, 40, 3);
    let batches = vec![vlm_batch(8), vlm_batch(24)];
    let planner = DipPlanner::on_topology(&spec, parallel(), old_topology.clone(), config.clone());
    let old_plan = planner.plan_iteration(&batches).unwrap();
    let new_topology = ClusterTopology::mixed_h800_h20(1, 0);
    let zero_budget = ElasticConfig {
        delta_budget: Duration::ZERO,
        ..ElasticConfig::default()
    };
    let outcome = DipPlanner::on_topology(&spec, parallel(), new_topology, config)
        .replan_elastic(&batches, &old_plan, &old_topology, &zero_budget)
        .unwrap();
    assert_eq!(outcome.candidates.len(), 1);
    assert_eq!(outcome.plan.segment_priorities, old_plan.segment_priorities);
    assert_eq!(outcome.plan.stats.search_evaluations, 1);
}
