//! The stage-graph builder's output, pinned. Every item field, every
//! forward and reverse dependency entry and the graph's per-rank sums of
//! three representative builds fold into one `u64` that must equal a
//! recorded literal. The other graph properties compare the builder with
//! itself (reprice ≡ rebuild), so a drift shared by both paths would pass
//! them; this test fails on any change to any bit of any graph below.
//!
//! The three builds cover each arm of the builder:
//! - VLM-S, modality-separated, with split encoder blocks (cross-module
//!   fan-in and fan-out edges) on a uniform two-node H800 cluster;
//! - T2V-S on a mixed H800 + H20 cluster, whose pipeline spans both device
//!   kinds (per-device pricing and heterogeneous links);
//! - a parameter-balanced placement, whose mixed chunks cut layer runs at
//!   module boundaries, under a memory plan.

use dip_models::{zoo, BatchWorkload, LmmSpec, Modality, ModalityWorkload};
use dip_pipeline::{
    balanced_param_placement, separated_placement, Direction, MemoryPlan, MemoryStrategy,
    ParallelConfig, Placement, StageGraph, StageGraphBuilder, StageId, SubMicrobatchPlan,
};
use dip_sim::ClusterTopology;
use std::collections::BTreeMap;

fn fold(hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(hash, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Folds every bit of `graph` that a build produces.
fn graph_digest(graph: &StageGraph, mut digest: u64) -> u64 {
    digest = fold(
        digest,
        [graph.num_ranks as u64, graph.num_stage_pairs as u64],
    );
    for item in graph.items() {
        digest = fold(
            digest,
            [
                item.id.0 as u64,
                item.segment as u64,
                item.microbatch as u64,
                item.sub_microbatch as u64,
                item.rank as u64,
                u64::from(item.direction == Direction::Backward),
                item.duration.to_bits(),
                item.activation_bytes,
                item.p2p_bytes,
                item.stage_pair as u64,
            ],
        );
    }
    for i in 0..graph.len() {
        for edges in [graph.deps_of(StageId(i)), graph.dependents_of(StageId(i))] {
            digest = fold(digest, [edges.len() as u64]);
            for &(id, lag) in edges {
                digest = fold(digest, [id.0 as u64, lag.to_bits()]);
            }
        }
    }
    digest = fold(digest, graph.static_memory.iter().copied());
    digest = fold(digest, graph.param_bytes_per_rank.iter().copied());
    fold(digest, [graph.model_flops.to_bits()])
}

fn vlm_batch(text: u64, images: u64) -> BatchWorkload {
    BatchWorkload::new()
        .with(Modality::Text, ModalityWorkload::new(text, 1))
        .with(Modality::Image, ModalityWorkload::new(images * 169, images))
}

fn t2v_batch(captions: u64, clips: u64) -> BatchWorkload {
    BatchWorkload::new()
        .with(
            Modality::Text,
            ModalityWorkload::new(captions * 150, captions),
        )
        .with(
            Modality::Video,
            ModalityWorkload::new(clips * 16 * 1560, clips),
        )
}

fn separated(spec: &LmmSpec, parallel: ParallelConfig, backbone_segments: usize) -> Placement {
    let mut k = BTreeMap::new();
    if let Some(backbone) = spec.backbone_id() {
        k.insert(backbone, backbone_segments);
    }
    separated_placement(spec, parallel, &k)
}

/// Builds one graph per case and folds them all.
fn all_builds_digest() -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;

    // VLM-S, separated, encoder blocks split 3 / 1 / 2 ways.
    let vlm = zoo::vlm_s();
    let placement = separated(&vlm, ParallelConfig::new(4, 4, 1), 2);
    let batches = [vlm_batch(6502, 10), vlm_batch(8000, 1), vlm_batch(1200, 40)];
    let mut plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
    plan.set(0, 0, 3);
    plan.set(0, 2, 2);
    let graph = StageGraphBuilder::new_on(&vlm, &placement, &ClusterTopology::h800_cluster(2))
        .build(&batches, &plan)
        .expect("VLM-S builds");
    digest = graph_digest(&graph, digest);

    // T2V-S across two H800 nodes and one H20 node (one rank per node).
    let t2v = zoo::t2v_s();
    let placement = separated(&t2v, ParallelConfig::new(8, 3, 1), 1);
    let batches = [t2v_batch(6, 4), t2v_batch(2, 1)];
    let mut plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
    plan.set(0, 0, 2);
    let graph = StageGraphBuilder::new_on(&t2v, &placement, &ClusterTopology::mixed_h800_h20(2, 1))
        .build(&batches, &plan)
        .expect("T2V-S builds");
    digest = graph_digest(&graph, digest);

    // Parameter-balanced chunks mix modules inside one chunk; a memory plan
    // retimes every other stage pair.
    let placement = balanced_param_placement(&vlm, ParallelConfig::new(4, 4, 1), 2);
    let batches = [vlm_batch(6000, 12), vlm_batch(3000, 30), vlm_batch(8192, 0)];
    let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
    let ladder = MemoryStrategy::ladder(6);
    let mut memory_plan = MemoryPlan::new();
    for pair in (0..placement.segments.len() * batches.len() * 4).step_by(2) {
        memory_plan.set(pair, ladder[pair % ladder.len()]);
    }
    let graph = StageGraphBuilder::new_on(&vlm, &placement, &ClusterTopology::h800_cluster(2))
        .with_memory_plan(memory_plan)
        .build(&batches, &plan)
        .expect("balanced builds");
    graph_digest(&graph, digest)
}

#[test]
fn graph_builds_match_the_pinned_digest() {
    let digest = all_builds_digest();
    assert_eq!(digest, 0x26e6_c3c5_77f0_ff83, "graph digest {digest:#018x}");
}
