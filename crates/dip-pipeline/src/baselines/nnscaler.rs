//! The nnScaler* baseline: a static parallelization plan generated before
//! training from a representative workload, restricted to 1F1B scheduling.
//!
//! Following the paper's methodology (§7.1), nnScaler's model-chunk
//! partitioning (balanced on simulated stage latency rather than parameter
//! counts) is re-implemented inside this framework and driven by the same
//! 1F1B scheduler; the plan is computed *once* for a representative batch
//! and reused unchanged for every iteration, which is what makes it brittle
//! under dynamic multimodal workloads (Fig. 8b, iterations 15–20).

use super::BaselineContext;
use crate::dual_queue::{schedule, DualQueueConfig};
use crate::executor::{execute, ExecutionOutcome, ExecutorConfig};
use crate::graph::{StageGraphBuilder, SubMicrobatchPlan};
use crate::partition::balanced_latency_placement;
use crate::placement::{PipelineError, Placement};
use dip_models::BatchWorkload;

/// Pre-generates nnScaler*'s static placement from a representative workload.
pub fn nnscaler_static_plan(
    ctx: &BaselineContext<'_>,
    representative: &BatchWorkload,
    virtual_chunks: usize,
) -> Placement {
    balanced_latency_placement(
        ctx.spec,
        ctx.parallel,
        virtual_chunks.max(1),
        representative,
        &ctx.timing,
    )
}

/// Simulates one nnScaler* training iteration using a pre-generated static
/// placement (see [`nnscaler_static_plan`]).
///
/// # Errors
///
/// Propagates [`PipelineError`] from graph construction or plan execution.
pub fn simulate_nnscaler(
    ctx: &BaselineContext<'_>,
    placement: &Placement,
    microbatches: &[BatchWorkload],
) -> Result<ExecutionOutcome, PipelineError> {
    placement.validate(ctx.spec)?;
    let builder = StageGraphBuilder::new_on(ctx.spec, placement, &ctx.topology)
        .with_efficiency(ctx.timing.efficiency);
    let plan = SubMicrobatchPlan::uniform(placement.segments.len(), microbatches.len());
    let graph = builder.build(microbatches, &plan)?;

    let config = DualQueueConfig {
        segment_priorities: vec![0; placement.segments.len()],
        max_inflight: Some(ctx.parallel.pp),
        memory_limit: Some(ctx.activation_budget(&graph.static_memory)),
    };
    let (orders, _) = schedule(&graph, &config);
    execute(
        &graph,
        &orders,
        &ctx.topology,
        &ctx.timing,
        &ExecutorConfig::new(ctx.parallel),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::simulate_megatron;
    use crate::placement::ParallelConfig;
    use dip_models::{zoo, Modality, ModalityWorkload};
    use dip_sim::ClusterSpec;

    fn vlm_batch(images: u64) -> BatchWorkload {
        BatchWorkload::new()
            .with(
                Modality::Text,
                ModalityWorkload::new(8192 - images * 169, 1),
            )
            .with(Modality::Image, ModalityWorkload::new(images * 169, images))
    }

    #[test]
    fn static_plan_matches_representative_workload_better_than_megatron() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let representative = vlm_batch(10);
        let placement = nnscaler_static_plan(&ctx, &representative, 1);
        let batches = vec![representative.clone(); 8];
        let nnscaler = simulate_nnscaler(&ctx, &placement, &batches).unwrap();
        let megatron = simulate_megatron(&ctx, &batches, 1).unwrap();
        assert!(
            nnscaler.metrics.iteration_time_s <= megatron.metrics.iteration_time_s * 1.02,
            "nnScaler* {} vs Megatron {}",
            nnscaler.metrics.iteration_time_s,
            megatron.metrics.iteration_time_s
        );
    }

    #[test]
    fn static_plan_degrades_when_the_workload_shifts() {
        // Plan generated for image-heavy batches, evaluated on text-only
        // batches: the image-encoder-heavy ranks idle (the 50.5% degradation
        // the paper reports in Fig. 8b for iterations 15–20).
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let placement = nnscaler_static_plan(&ctx, &vlm_batch(30), 1);
        let text_only = vec![vlm_batch(0); 6];
        let shifted = simulate_nnscaler(&ctx, &placement, &text_only).unwrap();
        let matched_placement = nnscaler_static_plan(&ctx, &vlm_batch(0), 1);
        let matched = simulate_nnscaler(&ctx, &matched_placement, &text_only).unwrap();
        assert!(shifted.metrics.iteration_time_s >= matched.metrics.iteration_time_s);
    }
}
