//! The Megatron-LM baseline: balanced-parameter partitioning (optionally
//! interleaved into virtual pipeline chunks) with the 1F1B schedule.

use super::{simulate_pipeline, BaselineContext};
use crate::executor::ExecutionOutcome;
use crate::partition::balanced_param_placement;
use crate::placement::PipelineError;
use dip_models::BatchWorkload;

/// Simulates one Megatron-LM training iteration.
///
/// `virtual_chunks` selects plain 1F1B (`1`) or interleaved VPP (`>1`).
/// The placement balances *parameter counts* and may co-locate layers of
/// different modality modules inside the same chunk — the source of the
/// intra-segment imbalance the paper identifies (Fig. 5a).
///
/// # Errors
///
/// Propagates [`PipelineError`] from graph construction or plan execution.
pub fn simulate_megatron(
    ctx: &BaselineContext<'_>,
    microbatches: &[BatchWorkload],
    virtual_chunks: usize,
) -> Result<ExecutionOutcome, PipelineError> {
    let placement = balanced_param_placement(ctx.spec, ctx.parallel, virtual_chunks.max(1));
    // Equal segment priorities: 1F1B orders stages by microbatch index,
    // interleaving virtual chunks round-robin, with the 1F1B warm-up bound
    // of at most `pp` in-flight microbatches per rank.
    let priorities = vec![0; placement.segments.len()];
    simulate_pipeline(
        ctx,
        &placement,
        microbatches,
        priorities,
        Some(ctx.parallel.pp),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ParallelConfig;
    use dip_models::{zoo, Modality, ModalityWorkload};
    use dip_sim::ClusterTopology;

    fn vlm_batches(n: usize, images: u64) -> Vec<BatchWorkload> {
        (0..n)
            .map(|_| {
                BatchWorkload::new()
                    .with(
                        Modality::Text,
                        ModalityWorkload::new(8192 - images * 169, 1),
                    )
                    .with(Modality::Image, ModalityWorkload::new(images * 169, images))
            })
            .collect()
    }

    #[test]
    fn simulates_vlm_s_iteration() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let outcome = simulate_megatron(&ctx, &vlm_batches(8, 10), 1).unwrap();
        assert!(outcome.metrics.iteration_time_s > 0.0);
        assert!(outcome.metrics.mfu > 0.01 && outcome.metrics.mfu < 0.9);
    }

    #[test]
    fn interleaved_vpp_balances_per_rank_work() {
        // Interleaving virtual chunks spreads the heterogeneous modality
        // layers more evenly across ranks (even though the greedy scheduler
        // does not reproduce Megatron's hand-crafted VPP order exactly).
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let batches = vlm_batches(8, 8);
        let plain = simulate_megatron(&ctx, &batches, 1).unwrap();
        let vpp = simulate_megatron(&ctx, &batches, 2).unwrap();
        let spread = |o: &crate::executor::ExecutionOutcome| {
            let busy: Vec<f64> = o.report.ranks.iter().map(|r| r.busy_s).collect();
            let max = busy.iter().cloned().fold(0.0, f64::max);
            let min = busy.iter().cloned().fold(f64::INFINITY, f64::min);
            max / min.max(1e-9)
        };
        assert!(spread(&vpp) <= spread(&plain) + 1e-6);
        assert!(vpp.metrics.iteration_time_s > 0.0);
    }

    #[test]
    fn image_heavy_batches_increase_iteration_time() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let light = simulate_megatron(&ctx, &vlm_batches(4, 1), 1).unwrap();
        let heavy = simulate_megatron(&ctx, &vlm_batches(4, 40), 1).unwrap();
        assert!(heavy.metrics.iteration_time_s > light.metrics.iteration_time_s);
    }
}
