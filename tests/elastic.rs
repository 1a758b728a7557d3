//! Properties of the elastic scenario layer, driven through the planning
//! session (plan, [`PlanningSession::retarget`], plan again): replanning
//! onto an unchanged topology is byte-identical with zero migration, an
//! infinite migration weight never moves state that could legally stay, a
//! weight-0 elastic replan stays within bounded simulated regret of a cold
//! replan (while beating its recovery bill), and a fixed seed + failure
//! schedule replays a bit-identical recovery sequence at any worker count.

use dip_bench::vlm_batch;
use dip_core::{
    DipPlan, DipPlanner, ElasticCandidate, ElasticConfig, PlanOutcome, PlanRequest, PlanTier,
    PlannerConfig, PlanningSession, SessionConfig,
};
use dip_data::FailureSchedule;
use dip_models::{zoo, LmmSpec};
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

/// A session over a planner on `topology`.
fn session_on(
    spec: &LmmSpec,
    topology: ClusterTopology,
    config: PlannerConfig,
    session: SessionConfig,
) -> PlanningSession<'_> {
    PlanningSession::from_planner(
        DipPlanner::on_topology(spec, parallel(), topology, config),
        session,
    )
}

/// The running plan of `request` on `old`, and its elastic replan after
/// the session is retargeted onto `new` under `elastic`. The session is
/// returned on `new`.
fn replan_across<'a>(
    spec: &'a LmmSpec,
    old: &ClusterTopology,
    new: &ClusterTopology,
    config: PlannerConfig,
    elastic: ElasticConfig,
    request: &PlanRequest,
) -> (DipPlan, PlanOutcome, PlanningSession<'a>) {
    let mut session = session_on(spec, old.clone(), config, SessionConfig::default());
    let old_plan = session.plan(request).unwrap().plan;
    session.retarget(new.clone(), elastic);
    let outcome = session.plan(request).unwrap();
    assert_eq!(outcome.tier, PlanTier::Elastic);
    (old_plan, outcome, session)
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
        let request = PlanRequest::new(vec![vlm_batch(images_a), vlm_batch(images_b)]);
        let (old_plan, outcome, _) = replan_across(
            &spec,
            &topology,
            &topology,
            time_budgeted_config(2, 40, seed),
            ElasticConfig::default(),
            &request,
        );
        let report = outcome.elastic.as_ref().unwrap();
        prop_assert_eq!(report.candidate, ElasticCandidate::Unchanged);
        prop_assert_eq!(report.migration.bytes_moved, 0);
        prop_assert_eq!(report.migration.transfer_time_s, 0.0);
        prop_assert!(report.delta.is_identity());
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
        let request = PlanRequest::new(vec![vlm_batch(images_a), vlm_batch(images_b)]);
        let replan = |migration_weight: f64| {
            let elastic = ElasticConfig {
                migration_weight,
                ..ElasticConfig::default()
            };
            let config = time_budgeted_config(2, 40, seed);
            let (_, outcome, _) =
                replan_across(&spec, &old_topology, &new_topology, config, elastic, &request);
            outcome
        };
        let frugal_outcome = replan(f64::INFINITY);
        let frugal = frugal_outcome.elastic.as_ref().unwrap();
        prop_assert_eq!(frugal.delta.removed.clone(), vec![2, 3]);
        prop_assert_eq!(
            frugal.migration.bytes_moved,
            frugal.migration.bytes_restored,
            "infinite weight moved surviving state voluntarily"
        );
        prop_assert_eq!(frugal_outcome.plan.stats.tier, PlanTier::Elastic);

        let eager = replan(0.0).elastic.unwrap();
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
        let request = PlanRequest::new(vec![vlm_batch(images_a), vlm_batch(images_b)]);
        let (_, outcome, session) = replan_across(
            &spec,
            &old_topology,
            &new_topology,
            time_budgeted_config(2, 40, seed),
            ElasticConfig {
                migration_weight: 0.0,
                ..ElasticConfig::default()
            },
            &request,
        );
        let elastic_time = session
            .simulate(&outcome.plan)
            .unwrap()
            .metrics
            .iteration_time_s;

        let cold_session = session_on(
            &spec,
            new_topology,
            time_budgeted_config(2, 40, seed),
            SessionConfig::cold(),
        );
        let cold_plan = cold_session.plan(&request).unwrap().plan;
        let cold_time = cold_session
            .simulate(&cold_plan)
            .unwrap()
            .metrics
            .iteration_time_s;

        prop_assert!(
            elastic_time <= cold_time * (1.0 + REGRET_EPSILON),
            "regret {:.4} exceeds ε = {REGRET_EPSILON}: elastic {elastic_time} vs cold {cold_time}",
            elastic_time / cold_time - 1.0,
        );

        let report = outcome.elastic.unwrap();
        let elastic_recovery = report.planning_virtual_s + report.migration.transfer_time_s;
        let cold_recovery = cold_session.planner().cold_recovery_time_s(&cold_plan);
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
    let request = PlanRequest::new(vec![vlm_batch(12), vlm_batch(40)]);

    // One session follows the cluster: each change retargets it, and the
    // request's plan on the topology it leaves anchors the next replan.
    let replay = |workers: usize| -> Vec<(ElasticCandidate, u64, DipPlan)> {
        let mut session = session_on(
            &spec,
            base.clone(),
            time_budgeted_config(workers, 40, 7),
            SessionConfig::default(),
        );
        session.plan(&request).unwrap();
        let mut sequence = Vec::new();
        for (_, new_topology) in schedule.topologies() {
            session.retarget(new_topology, ElasticConfig::default());
            let outcome = session.plan(&request).unwrap();
            assert_eq!(outcome.tier, PlanTier::Elastic);
            let report = outcome.elastic.unwrap();
            sequence.push((report.candidate, report.migration.bytes_moved, outcome.plan));
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
