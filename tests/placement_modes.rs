//! Placement-mode semantics: the latency-balanced mode must stay within
//! every rank's memory budget on arbitrary mixed clusters, must reduce to
//! the capacity-aware equal split on uniform ones, and must be at least as
//! good as capacity-aware placement end to end on the mixed H800+H20
//! testbed.

use dip_core::{DipPlanner, PlanRequest, PlannerConfig, PlanningSession, SessionConfig};
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::{
    capacity_aware_separated_placement, latency_balanced_separated_placement, ModelChunk,
    ParallelConfig, PlacementMode,
};
use dip_sim::{ClusterTopology, EfficiencyModel, GpuGeneration, GpuSpec, NodeSpec};
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

fn generation(kind: usize) -> GpuGeneration {
    match kind % 3 {
        0 => GpuGeneration::H800,
        1 => GpuGeneration::H20,
        _ => GpuGeneration::H100,
    }
}

/// A topology of 8-GPU nodes whose device kinds follow `kinds`.
fn topology_of(kinds: &[usize]) -> ClusterTopology {
    ClusterTopology::new(
        kinds
            .iter()
            .map(|&k| NodeSpec::new(GpuSpec::preset(generation(k)), 8))
            .collect(),
    )
}

fn deterministic_config() -> PlannerConfig {
    let mut config = PlannerConfig::fast();
    config.search.time_budget = Duration::from_secs(3600);
    config.search.max_evaluations = Some(128);
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end regression on random mixed topologies: the latency-balanced
    /// split keeps every rank's static model state (parameters, gradients,
    /// optimizer state) within the usable memory of the device actually
    /// hosting that rank, for the paper's model/cluster family. (The DP's
    /// built-in guard is deliberately weaker — it only rejects a *single*
    /// chunk that alone overflows its host, leaving accumulated overflow to
    /// the downstream memory planner — so this test pins the end-to-end
    /// outcome, not the guard.)
    #[test]
    fn latency_balanced_respects_every_ranks_memory_budget(
        kinds in prop::collection::vec(0usize..3, 1..5),
        k_backbone in 1usize..5,
        images in 0u64..49,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let topology = topology_of(&kinds);
        let mut counts = BTreeMap::new();
        counts.insert(spec.backbone_id().unwrap(), k_backbone);
        let placement = latency_balanced_separated_placement(
            &spec,
            parallel,
            &counts,
            &topology,
            EfficiencyModel::default(),
            &vlm_batch(images),
        );
        placement.validate(&spec).unwrap();
        for (rank, bytes) in placement.static_memory_per_rank(&spec).iter().enumerate() {
            let device = topology.rank_device(rank, parallel.tp);
            prop_assert!(
                *bytes <= device.usable_memory(),
                "rank {rank} holds {bytes} static bytes, exceeding its device's usable {}",
                device.usable_memory()
            );
        }
    }

    /// Regression: on any uniform cluster the latency-balanced mode must
    /// produce the exact same placement as the capacity-aware mode (which
    /// itself reduces to the equal round-robin split there).
    #[test]
    fn latency_balanced_matches_capacity_aware_on_uniform_clusters(
        kind in 0usize..3,
        nodes in 1usize..4,
        k_backbone in 1usize..5,
        images in 0u64..49,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let topology = topology_of(&vec![kind; nodes]);
        let mut counts = BTreeMap::new();
        counts.insert(spec.backbone_id().unwrap(), k_backbone);
        let aware = capacity_aware_separated_placement(&spec, parallel, &counts, &topology);
        let balanced = latency_balanced_separated_placement(
            &spec,
            parallel,
            &counts,
            &topology,
            EfficiencyModel::default(),
            &vlm_batch(images),
        );
        prop_assert_eq!(aware, balanced);
    }
}

#[test]
fn latency_balanced_follows_simulated_speed_not_spec_sheet_capability() {
    // 1×8 H800 + 1×8 H20 at TP=4: ranks 0,1 on H800, ranks 2,3 on H20.
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let topology = ClusterTopology::mixed_h800_h20(1, 1);
    let mut counts = BTreeMap::new();
    let backbone = spec.backbone_id().unwrap();
    counts.insert(backbone, 2usize);

    let aware = capacity_aware_separated_placement(&spec, parallel, &counts, &topology);
    let balanced = latency_balanced_separated_placement(
        &spec,
        parallel,
        &counts,
        &topology,
        EfficiencyModel::default(),
        &vlm_batch(24),
    );
    balanced.validate(&spec).unwrap();

    let h800_layers = |p: &dip_pipeline::Placement, module| -> usize {
        p.segments_of_module(module)
            .iter()
            .map(|&s| p.segments[s].chunks[0].num_layers() + p.segments[s].chunks[1].num_layers())
            .sum()
    };
    // The FLOP-bound backbone leans towards the H800 ranks (simulated
    // H20/H800 latency ratio ~6.4 per transformer layer).
    let backbone_total = spec.module(backbone).num_layers();
    let lb_backbone_h800 = h800_layers(&balanced, backbone);
    assert!(
        lb_backbone_h800 * 2 > backbone_total,
        "latency-balanced puts {lb_backbone_h800}/{backbone_total} backbone layers on H800 ranks"
    );
    // The decisive difference: the capacity-aware mode classifies the ViT
    // encoder as memory-heavy and leans it towards the high-HBM H20 ranks,
    // but its layers are actually *compute-bound* in simulation (~5.6×
    // slower on an H20). The latency-balanced DP sees the simulated
    // latency, not the spec sheet, and must shift the encoder to the H800
    // ranks where the capacity heuristic does not.
    let (encoder, _) = spec.encoders().next().unwrap();
    let encoder_total = spec.module(encoder).num_layers();
    let lb_encoder_h800 = h800_layers(&balanced, encoder);
    let ca_encoder_h800 = h800_layers(&aware, encoder);
    assert!(
        lb_encoder_h800 * 2 > encoder_total,
        "latency-balanced puts {lb_encoder_h800}/{encoder_total} encoder layers on H800 ranks"
    );
    assert!(
        lb_encoder_h800 > ca_encoder_h800,
        "latency-balanced encoder H800 share {lb_encoder_h800} should exceed capacity-aware {ca_encoder_h800}"
    );
}

#[test]
fn latency_balanced_is_at_least_as_good_as_capacity_aware_on_the_mixed_cluster() {
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let topology = ClusterTopology::mixed_h800_h20(1, 1);
    let request = PlanRequest::new(
        [24u64, 8, 40, 2, 32, 16]
            .iter()
            .map(|&i| vlm_batch(i))
            .collect(),
    );

    let run = |placement: PlacementMode| {
        let mut config = deterministic_config();
        config.partitioner.placement = placement;
        let session = PlanningSession::from_planner(
            DipPlanner::on_topology(&spec, parallel, topology.clone(), config),
            SessionConfig::default(),
        );
        let (_, outcome) = session.plan_and_simulate(&request).unwrap();
        outcome.metrics.iteration_time_s
    };
    let aware = run(PlacementMode::CapacityAware);
    let balanced = run(PlacementMode::LatencyBalanced);
    assert!(
        balanced <= aware,
        "latency-balanced {balanced} must be at least as good as capacity-aware {aware}"
    );
}

#[test]
fn latency_balanced_chunks_are_time_balanced_on_the_mixed_cluster() {
    // The DP's objective, checked directly: within each backbone segment,
    // the slowest chunk priced on its hosting device must not dominate the
    // mean by more than the granularity of whole layers allows.
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let topology = ClusterTopology::mixed_h800_h20(1, 1);
    let efficiency = EfficiencyModel::default();
    let workload = vlm_batch(24);
    let mut counts = BTreeMap::new();
    let backbone = spec.backbone_id().unwrap();
    counts.insert(backbone, 1usize);
    let placement = latency_balanced_separated_placement(
        &spec, parallel, &counts, &topology, efficiency, &workload,
    );
    let workloads: BTreeMap<_, _> = spec.module_workloads(&workload).into_iter().collect();
    let chunk_time = |chunk: &ModelChunk, rank: usize| {
        let t = topology.rank_timing(rank, parallel.tp, efficiency);
        let cost = chunk.cost(&spec, &workloads, parallel.tp);
        t.forward_latency(&cost) + t.backward_latency(&cost)
    };
    for &s in &placement.segments_of_module(backbone) {
        let times: Vec<f64> = placement.segments[s]
            .chunks
            .iter()
            .enumerate()
            .map(|(r, c)| chunk_time(c, r))
            .collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        assert!(
            max <= mean * 1.5,
            "imbalanced latency-balanced segment {s}: {times:?}"
        );
    }
}
