//! Topology-refactor identity properties: a uniform [`ClusterTopology`]
//! built from any [`ClusterSpec`] must plan bit-identically to the
//! spec-based path (the pre-refactor entry point), every placement mode
//! must reduce to that same plan on uniform topologies, and topology
//! fingerprints must separate any two clusters that differ in any rank's
//! device.

use dip_core::{DipPlan, DipPlanner, PlanRequest, PlannerConfig, PlanningSession, SessionConfig};
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::{ParallelConfig, PlacementMode};
use dip_sim::{ClusterSpec, ClusterTopology, GpuGeneration, GpuSpec, NodeSpec};
use proptest::prelude::*;
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

/// An evaluation-bounded (hence deterministic at fixed worker count) planner
/// configuration.
fn deterministic_config() -> PlannerConfig {
    let mut config = PlannerConfig::fast();
    config.search.time_budget = Duration::from_secs(3600);
    config.search.max_evaluations = Some(96);
    config
}

fn assert_plans_bit_identical(a: &DipPlan, b: &DipPlan) {
    assert_eq!(a.graph, b.graph, "stage graphs differ");
    assert_eq!(a.orders, b.orders, "rank orders differ");
    assert_eq!(a.segment_priorities, b.segment_priorities);
    assert_eq!(a.memory_plan, b.memory_plan);
    assert_eq!(a.sub_microbatches, b.sub_microbatches);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The `ClusterSpec` constructor path and an explicit uniform
    /// `ClusterTopology` must produce bit-identical `PlanOutcome`s: same
    /// signature, same graph (durations, lags, memory), same schedule,
    /// same memory plan.
    #[test]
    fn uniform_topology_plans_bit_identically_to_the_cluster_spec_path(
        nodes in 2usize..5,
        images_a in 0u64..49,
        images_b in 0u64..49,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let cluster = ClusterSpec::h800_cluster(nodes);
        let request = PlanRequest::new(vec![vlm_batch(images_a), vlm_batch(images_b)]);

        let via_spec = PlanningSession::with_config(
            &spec,
            parallel,
            &cluster,
            deterministic_config(),
            SessionConfig::default(),
        );
        let via_topology = PlanningSession::from_planner(
            DipPlanner::on_topology(&spec, parallel, cluster.topology(), deterministic_config()),
            SessionConfig::default(),
        );

        let a = via_spec.plan(&request).unwrap();
        let b = via_topology.plan(&request).unwrap();
        prop_assert_eq!(a.signature, b.signature);
        prop_assert_eq!(a.tier, b.tier);
        assert_plans_bit_identical(&a.plan, &b.plan);
        // Both paths key their caches identically, too.
        prop_assert_eq!(via_spec.cache_key(&request), via_topology.cache_key(&request));

        // And both simulate to the exact same iteration time.
        let ta = via_spec.simulate(&a.plan).unwrap().metrics.iteration_time_s;
        let tb = via_topology.simulate(&b.plan).unwrap().metrics.iteration_time_s;
        prop_assert_eq!(ta.to_bits(), tb.to_bits());
    }

    /// On a uniform topology the latency-balanced placement mode must plan
    /// bit-identically to the capacity-aware default (which in turn equals
    /// the round-robin equal split): the heterogeneity machinery — the
    /// per-rank latency DP and the hosting-rank segment-count pricing —
    /// must vanish completely when every device is the same, so uniform
    /// clusters keep one canonical plan across all placement modes.
    #[test]
    fn latency_balanced_plans_bit_identically_on_uniform_topologies(
        nodes in 2usize..5,
        images_a in 0u64..49,
        images_b in 0u64..49,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let topology = ClusterSpec::h800_cluster(nodes).topology();
        let request = PlanRequest::new(vec![vlm_batch(images_a), vlm_batch(images_b)]);

        let session_for = |placement: PlacementMode| {
            let mut config = deterministic_config();
            config.partitioner.placement = placement;
            PlanningSession::from_planner(
                DipPlanner::on_topology(&spec, parallel, topology.clone(), config),
                SessionConfig::default(),
            )
        };
        let aware = session_for(PlacementMode::CapacityAware);
        let balanced = session_for(PlacementMode::LatencyBalanced);

        let a = aware.plan(&request).unwrap();
        let b = balanced.plan(&request).unwrap();
        prop_assert_eq!(a.signature, b.signature);
        assert_plans_bit_identical(&a.plan, &b.plan);

        let ta = aware.simulate(&a.plan).unwrap().metrics.iteration_time_s;
        let tb = balanced.simulate(&b.plan).unwrap().metrics.iteration_time_s;
        prop_assert_eq!(ta.to_bits(), tb.to_bits());
    }

    /// Changing any single rank's device spec must change the topology
    /// fingerprint (otherwise two different clusters could share plan-cache
    /// entries).
    #[test]
    fn fingerprints_differ_whenever_any_ranks_spec_differs(
        node in 0usize..4,
        extra_capacity_gib in 1u64..32,
        flops_scale_permille in 1u64..500,
    ) {
        let gpu = GpuSpec::preset(GpuGeneration::H800);
        let base_nodes: Vec<NodeSpec> = (0..4).map(|_| NodeSpec::new(gpu, 8)).collect();
        let base = ClusterTopology::new(base_nodes.clone());

        // Perturb one node's memory capacity.
        let mut more_memory = base_nodes.clone();
        more_memory[node].gpu.mem_capacity += extra_capacity_gib << 30;
        prop_assert_ne!(
            base.fingerprint(),
            ClusterTopology::new(more_memory).fingerprint()
        );

        // Perturb the same node's compute throughput.
        let mut less_compute = base_nodes.clone();
        less_compute[node].gpu.peak_flops *= 1.0 - flops_scale_permille as f64 / 1000.0;
        prop_assert_ne!(
            base.fingerprint(),
            ClusterTopology::new(less_compute).fingerprint()
        );

        // An unchanged copy fingerprints equal.
        prop_assert_eq!(
            base.fingerprint(),
            ClusterTopology::new(base_nodes).fingerprint()
        );
    }

    /// Node order is part of a topology's identity: rank *r* occupies the
    /// GPUs of the *r*-th slot in the node list, so two heterogeneous
    /// clusters with the same multiset of nodes in different orders host
    /// every rank differently and must fingerprint differently — while
    /// byte-identical node lists fingerprint equal. (This pins the
    /// "Ordering contract" documented on `ClusterTopology::fingerprint`.)
    #[test]
    fn fingerprints_are_order_sensitive_on_heterogeneous_node_lists(
        rotation in 1usize..4,
        h20_gpus in 3usize..9,
    ) {
        let h800 = GpuSpec::preset(GpuGeneration::H800);
        let h20 = GpuSpec::preset(GpuGeneration::H20);
        // Four pairwise-distinct nodes, so every nontrivial rotation
        // changes the spec at some position.
        let nodes = vec![
            NodeSpec::new(h800, 8),
            NodeSpec::new(h20, h20_gpus),
            NodeSpec::new(h800, 4),
            NodeSpec::new(h20, 2),
        ];
        let mut rotated = nodes.clone();
        rotated.rotate_left(rotation);

        prop_assert_ne!(
            ClusterTopology::new(nodes.clone()).fingerprint(),
            ClusterTopology::new(rotated).fingerprint(),
            "permuted heterogeneous node lists must fingerprint differently"
        );
        prop_assert_eq!(
            ClusterTopology::new(nodes.clone()).fingerprint(),
            ClusterTopology::new(nodes).fingerprint()
        );
    }
}
