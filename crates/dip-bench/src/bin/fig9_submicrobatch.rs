//! Fig. 9: impact of the image-encoder sub-microbatch size on iteration time
//! (best and worst schedules per size), VLM-S.

use dip_bench::{fmt_s, print_table, vlm_batches_from_datasets, ExperimentScale};
use dip_core::{ModalityAwarePartitioner, PartitionerConfig};
use dip_models::zoo;
use dip_pipeline::{
    dual_queue, execute, DualQueueConfig, ExecutorConfig, ParallelConfig, StageGraphBuilder,
};
use dip_sim::{ClusterTopology, EfficiencyModel, TimingModel};

fn main() {
    let scale = ExperimentScale::from_env();
    let spec = zoo::vlm_s();
    let cluster = ClusterTopology::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let timing = TimingModel::new(cluster.reference_device(), EfficiencyModel::default());
    let batches = vlm_batches_from_datasets(scale.microbatches, 55);

    let partitioner =
        ModalityAwarePartitioner::new(&spec, parallel, timing, PartitionerConfig::default());
    let representative = dip_bench::vlm_batch(24);
    let output = partitioner
        .partition(&representative)
        .expect("offline partitioning");
    let (encoder_id, _) = spec.encoders().next().unwrap();
    let encoder_segments = output.placement.segments_of_module(encoder_id);

    let mut rows = Vec::new();
    for sub_size in [4u64, 8, 12, 16, 20, 24, 28, 32] {
        // Override the encoder's sub-microbatch size and rebuild the plan.
        let mut out = output.clone();
        out.sub_microbatch_sizes.insert(encoder_id, sub_size);
        let plan = partitioner.sub_microbatch_plan(&out, &batches);
        let builder = StageGraphBuilder::new_on(&spec, &out.placement, &cluster);
        let graph = builder.build(&batches, &plan).unwrap();
        let budget = cluster.activation_budget(&graph.static_memory, parallel.tp);

        // Best and worst schedules over a set of segment orderings: evaluate
        // several priority assignments for the encoder segments.
        let mut best = f64::INFINITY;
        let mut worst: f64 = 0.0;
        for encoder_priority in [-100i64, -10, 0, 10, 100] {
            let mut priorities = vec![0i64; out.placement.segments.len()];
            for &s in &encoder_segments {
                priorities[s] = encoder_priority;
            }
            let config = DualQueueConfig {
                segment_priorities: priorities,
                memory_limit: Some(budget.clone()),
                ..DualQueueConfig::default()
            };
            let (orders, _) = dual_queue::schedule(&graph, &config);
            let outcome = execute(
                &graph,
                &orders,
                &cluster,
                &timing,
                &ExecutorConfig::new(parallel),
            )
            .unwrap();
            best = best.min(outcome.metrics.iteration_time_s);
            worst = worst.max(outcome.metrics.iteration_time_s);
        }
        rows.push(vec![
            sub_size.to_string(),
            fmt_s(best),
            fmt_s(worst),
            format!("{:.1}%", (worst / best - 1.0) * 100.0),
        ]);
    }
    print_table(
        "Fig. 9 — impact of the image-encoder sub-microbatch size (VLM-S)",
        &[
            "Sub-microbatch size (images)",
            "Best iter. time (s)",
            "Worst iter. time (s)",
            "Best-worst gap",
        ],
        &rows,
    );
    println!("Expected shape (paper): small sizes shrink the best/worst gap; very small sizes lose GPU efficiency; optimum near 12.");
}
