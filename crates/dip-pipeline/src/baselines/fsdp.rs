//! The FSDP (ZeRO-3) baseline: fully sharded data parallelism without any
//! pipeline, modelled analytically (Table 4).
//!
//! Every GPU holds a shard of parameters, gradients and optimizer state.
//! During the computation of each transformer block the full parameters are
//! all-gathered, and gradients are reduce-scattered in the backward pass.
//! Communication overlaps with computation; only the exposed remainder adds
//! to the iteration time.

use super::BaselineContext;
use dip_models::{BatchWorkload, BF16_BYTES};
use dip_sim::IterationMetrics;

/// Fraction of FSDP's collective traffic that compute cannot hide.
const EXPOSED_COMM_FRACTION: f64 = 0.25;

/// Simulates one FSDP/ZeRO-3 training iteration.
///
/// `microbatches` are the microbatches processed *per pipeline-parallel
/// replica* in the systems being compared against; FSDP spreads the same
/// total work (`microbatches.len() × dp` microbatches) across all
/// `tp × pp × dp` GPUs as pure data parallelism.
pub fn simulate_fsdp(
    ctx: &BaselineContext<'_>,
    microbatches: &[BatchWorkload],
) -> IterationMetrics {
    let num_gpus = ctx.parallel.num_gpus().max(1);
    let total_microbatches = microbatches.len() * ctx.parallel.dp.max(1);
    let local_microbatches = total_microbatches as f64 / num_gpus as f64;

    // Average per-microbatch compute time on a single GPU (full model, TP=1).
    let mut per_microbatch_compute = 0.0;
    let mut total_model_flops = 0.0;
    for batch in microbatches {
        let cost = ctx.spec.cost(batch, 1);
        per_microbatch_compute +=
            ctx.timing.forward_latency(&cost) + ctx.timing.backward_latency(&cost);
        total_model_flops += ctx.spec.model_flops(batch);
    }
    if !microbatches.is_empty() {
        per_microbatch_compute /= microbatches.len() as f64;
    }
    total_model_flops *= ctx.parallel.dp.max(1) as f64;

    // Per-microbatch collective traffic: all-gather the bf16 parameters for
    // the forward and again for the backward, plus a gradient reduce-scatter.
    let param_bytes = ctx.spec.param_count() * BF16_BYTES;
    let collective_bytes = 3 * param_bytes;
    let comm_time =
        ctx.timing
            .allreduce_latency(collective_bytes, num_gpus, ctx.topology.min_net_bandwidth());
    let exposed_comm = comm_time * EXPOSED_COMM_FRACTION;

    // Optimizer step over the local parameter shard.
    let optimizer = ctx
        .timing
        .optimizer_step_latency(param_bytes / num_gpus as u64);

    let iteration_time = local_microbatches * (per_microbatch_compute + exposed_comm) + optimizer;

    // Peak memory: sharded static state + one microbatch of activations with
    // full recomputation disabled (FSDP2 re-shards after forward, so only the
    // working set of a block plus the full activation stack is resident).
    let static_bytes = ctx.spec.param_count() * 16 / num_gpus as u64;
    let activation_bytes: u64 = microbatches
        .first()
        .map(|b| ctx.spec.cost(b, 1).activation_bytes)
        .unwrap_or(0);
    let peak_memory = static_bytes + activation_bytes;

    IterationMetrics::new(
        iteration_time,
        total_model_flops,
        ctx.topology.peak_flops_of(num_gpus),
        0.0,
        peak_memory as i64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ParallelConfig;
    use dip_models::{zoo, Modality, ModalityWorkload};
    use dip_sim::ClusterTopology;

    fn batches(n: usize) -> Vec<BatchWorkload> {
        (0..n)
            .map(|_| {
                BatchWorkload::new()
                    .with(Modality::Text, ModalityWorkload::new(6502, 1))
                    .with(Modality::Image, ModalityWorkload::new(1690, 10))
            })
            .collect()
    }

    #[test]
    fn fsdp_iteration_time_is_positive_and_mfu_reasonable() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h20_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let metrics = simulate_fsdp(&ctx, &batches(16));
        assert!(metrics.iteration_time_s > 0.0);
        assert!(
            metrics.mfu > 0.05 && metrics.mfu < 0.9,
            "MFU {}",
            metrics.mfu
        );
    }

    #[test]
    fn iteration_time_scales_with_microbatch_count() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h20_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let few = simulate_fsdp(&ctx, &batches(4)).iteration_time_s;
        let many = simulate_fsdp(&ctx, &batches(16)).iteration_time_s;
        assert!(many > few * 3.0, "few={few}, many={many}");
    }

    #[test]
    fn empty_batch_list_yields_optimizer_only_time() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h20_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let metrics = simulate_fsdp(&ctx, &[]);
        assert!(metrics.iteration_time_s > 0.0);
        assert_eq!(metrics.mfu, 0.0);
    }
}
