//! Topology identity properties: a preset cluster plans bit-identically
//! to the same cluster spelled out node by node, every placement mode
//! must reduce to that same plan on uniform topologies, and topology
//! fingerprints must separate any two clusters that differ in any rank's
//! device.

mod common;

use common::assert_plans_bit_identical;
use dip_bench::vlm_batch;
use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
use dip_models::zoo;
use dip_pipeline::{ParallelConfig, PlacementMode};
use dip_sim::{ClusterTopology, GpuGeneration, GpuSpec, NodeSpec};
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

    /// A preset (`ClusterTopology::h800_cluster`) and the same cluster
    /// built from its node list must be one cluster: equal fingerprints,
    /// and bit-identical `PlanOutcome`s (same signature, graph, schedule
    /// and memory plan) that simulate to the same iteration time.
    #[test]
    fn preset_topology_plans_bit_identically_to_its_node_list(
        nodes in 2usize..5,
        images_a in 0u64..49,
        images_b in 0u64..49,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let preset = ClusterTopology::h800_cluster(nodes);
        let gpu = GpuSpec::preset(GpuGeneration::H800);
        let spelled_out = ClusterTopology::new(vec![NodeSpec::new(gpu, 8); nodes]);
        prop_assert_eq!(preset.fingerprint(), spelled_out.fingerprint());
        let request = PlanRequest::new(vec![vlm_batch(images_a), vlm_batch(images_b)]);

        let session_on = |topology: &ClusterTopology| {
            PlanningSession::new(&spec, parallel, topology, deterministic_config())
        };
        let via_preset = session_on(&preset);
        let via_nodes = session_on(&spelled_out);

        let a = via_preset.plan(&request).unwrap();
        let b = via_nodes.plan(&request).unwrap();
        prop_assert_eq!(a.signature, b.signature);
        prop_assert_eq!(a.tier, b.tier);
        assert_plans_bit_identical(&a.plan, &b.plan, "preset vs node list");

        // And both simulate to the exact same iteration time.
        let ta = via_preset.simulate(&a.plan).unwrap().metrics.iteration_time_s;
        let tb = via_nodes.simulate(&b.plan).unwrap().metrics.iteration_time_s;
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
        let topology = ClusterTopology::h800_cluster(nodes);
        let request = PlanRequest::new(vec![vlm_batch(images_a), vlm_batch(images_b)]);

        let session_for = |placement: PlacementMode| {
            let mut config = deterministic_config();
            config.partitioner.placement = placement;
            PlanningSession::new(&spec, parallel, &topology, config)
        };
        let aware = session_for(PlacementMode::CapacityAware);
        let balanced = session_for(PlacementMode::LatencyBalanced);

        let a = aware.plan(&request).unwrap();
        let b = balanced.plan(&request).unwrap();
        prop_assert_eq!(a.signature, b.signature);
        assert_plans_bit_identical(&a.plan, &b.plan, "capacity-aware vs latency-balanced");

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
