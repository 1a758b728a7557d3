//! Calibration-artifact identity properties: planning through a
//! constants-encoding [`CalibrationArtifact`] must be bit-identical to the
//! uncalibrated path on uniform topologies — through the exact-fingerprint
//! tier *and* the device-kind tier of the fallback chain — while an
//! artifact carrying genuinely different measurements must change the
//! simulated outcome (otherwise calibration would be dead weight).

mod common;

use common::assert_plans_bit_identical;
use dip_bench::vlm_batch;
use dip_core::{DipPlanner, PlanRequest, PlannerConfig, PlanningSession};
use dip_models::zoo;
use dip_pipeline::ParallelConfig;
use dip_sim::{
    CalibrationArtifact, CalibrationRegistry, CalibrationSource, ClusterTopology, GpuGeneration,
    GpuSpec,
};
use proptest::prelude::*;
use std::time::Duration;

/// An evaluation-bounded (hence deterministic at fixed worker count) planner
/// configuration.
fn deterministic_config() -> PlannerConfig {
    let mut config = PlannerConfig::fast();
    config.search.time_budget = Duration::from_secs(3600);
    config.search.max_evaluations = Some(96);
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A constants-encoding artifact — resolved through the **exact
    /// fingerprint** tier or the **device-kind** tier — rewrites every
    /// device field to its current value, so planning is bit-identical to
    /// the registry-free path on any uniform topology.
    #[test]
    fn constants_artifact_plans_bit_identically_on_uniform_topologies(
        nodes in 2usize..5,
        images_a in 0u64..49,
        images_b in 0u64..49,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let topology = ClusterTopology::h800_cluster(nodes);
        let request = PlanRequest::new(vec![vlm_batch(images_a), vlm_batch(images_b)]);

        let session_for = |config: PlannerConfig| {
            PlanningSession::new(&spec, parallel, &topology, config)
        };
        let plain = session_for(deterministic_config());

        // Tier 1: an artifact pinned to this very topology's fingerprint.
        let exact_registry = CalibrationRegistry::from_artifact(
            CalibrationArtifact::builtin_for(&topology),
        );
        let exact = session_for(deterministic_config().with_calibration(exact_registry.clone()));
        // Tier 2: a fleet-agnostic artifact matched by device kind.
        let kind_registry =
            CalibrationRegistry::from_artifact(CalibrationArtifact::builtin_defaults());
        let kind = session_for(deterministic_config().with_calibration(kind_registry));

        // The resolution tiers are what we think they are.
        prop_assert_eq!(
            DipPlanner::on_topology(
                &spec,
                parallel,
                topology.clone(),
                deterministic_config().with_calibration(exact_registry),
            )
            .calibration_source(),
            CalibrationSource::Exact
        );

        let a = plain.plan(&request).unwrap();
        let b = exact.plan(&request).unwrap();
        let c = kind.plan(&request).unwrap();
        prop_assert_eq!(a.signature, b.signature);
        prop_assert_eq!(a.signature, c.signature);
        assert_plans_bit_identical(&a.plan, &b.plan, "exact-fingerprint artifact");
        assert_plans_bit_identical(&a.plan, &c.plan, "device-kind artifact");

        let ta = plain.simulate(&a.plan).unwrap().metrics.iteration_time_s;
        let tb = exact.simulate(&b.plan).unwrap().metrics.iteration_time_s;
        let tc = kind.simulate(&c.plan).unwrap().metrics.iteration_time_s;
        prop_assert_eq!(ta.to_bits(), tb.to_bits());
        prop_assert_eq!(ta.to_bits(), tc.to_bits());
    }

    /// The artifact survives its JSON serialization without perturbing the
    /// identity: plan through `from_json(to_json(artifact))` and the bits
    /// still match (this is what actually happens in production, where the
    /// registry is loaded from the committed file).
    #[test]
    fn json_round_tripped_artifact_preserves_bit_identity(
        nodes in 2usize..4,
        images in 0u64..49,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let topology = ClusterTopology::h800_cluster(nodes);
        let request = PlanRequest::new(vec![vlm_batch(images)]);

        let artifact = CalibrationArtifact::builtin_for(&topology);
        let reloaded = CalibrationArtifact::from_json(&artifact.to_json()).unwrap();
        prop_assert_eq!(&reloaded, &artifact);

        let direct = PlanningSession::new(&spec, parallel, &topology, deterministic_config().with_calibration(CalibrationRegistry::from_artifact(artifact)));
        let via_json = PlanningSession::new(&spec, parallel, &topology, deterministic_config().with_calibration(CalibrationRegistry::from_artifact(reloaded)));
        let a = direct.plan(&request).unwrap();
        let b = via_json.plan(&request).unwrap();
        assert_plans_bit_identical(&a.plan, &b.plan, "JSON round trip");
    }
}

/// An artifact carrying *different* measurements must actually change the
/// simulation — the witness that the registry is wired through to pricing
/// and the identity above is not vacuous.
#[test]
fn measured_artifact_changes_the_simulated_outcome() {
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let topology = ClusterTopology::h800_cluster(2);
    let request = PlanRequest::new(vec![vlm_batch(10)]);

    let mut artifact = CalibrationArtifact::builtin_for(&topology);
    let h800_key = GpuSpec::preset(GpuGeneration::H800).device_key();
    let entry = artifact
        .devices
        .iter_mut()
        .find(|d| d.device_key == h800_key)
        .expect("H800 entry");
    // "Measured": this fleet only sustains half the spec-sheet FLOP/s.
    entry.peak_flops *= 0.5;

    let plain = PlanningSession::new(&spec, parallel, &topology, deterministic_config());
    let calibrated = PlanningSession::new(
        &spec,
        parallel,
        &topology,
        deterministic_config().with_calibration(CalibrationRegistry::from_artifact(artifact)),
    );
    assert_eq!(
        calibrated.planner().calibration_source(),
        CalibrationSource::Exact
    );

    let a = plain.plan(&request).unwrap();
    let b = calibrated.plan(&request).unwrap();
    let ta = plain.simulate(&a.plan).unwrap().metrics.iteration_time_s;
    let tb = calibrated
        .simulate(&b.plan)
        .unwrap()
        .metrics
        .iteration_time_s;
    assert!(
        tb > ta,
        "halving sustained compute must slow the simulated iteration ({ta} vs {tb})"
    );
    // The rewritten devices also re-key the plan cache: the two sessions
    // must never share cache entries.
    assert_ne!(a.plan.topology_fingerprint, b.plan.topology_fingerprint);
}
