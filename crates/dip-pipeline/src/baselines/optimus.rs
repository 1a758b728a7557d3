//! The Optimus baseline: coarse-grained bubble scheduling for multimodal LLMs
//! with encoders (Feng et al., ATC'25).
//!
//! Optimus separates the modality encoders from the backbone (one dedicated
//! pipeline segment per module) and sequences *all* encoder computations
//! before the backbone's execution at the pipeline level. Encoder activations
//! for every microbatch therefore stay resident until the backbone's backward
//! reaches them, which is the memory-growth behaviour Fig. 10 shows. Optimus
//! does not support diffusion decoders, so the paper (and this reproduction)
//! only evaluates it on VLM setups.

use super::{simulate_pipeline, BaselineContext};
use crate::executor::ExecutionOutcome;
use crate::partition::separated_placement;
use crate::placement::PipelineError;
use dip_models::{BatchWorkload, ModuleRole};
use std::collections::BTreeMap;

/// Simulates one Optimus training iteration (coarse-grained encoder-first
/// scheduling over a modality-separated placement).
///
/// # Errors
///
/// Returns [`PipelineError::InvalidConfig`] when the model has a video
/// decoder (Optimus does not support diffusion decoders) and propagates
/// graph-construction or execution errors otherwise.
pub fn simulate_optimus(
    ctx: &BaselineContext<'_>,
    microbatches: &[BatchWorkload],
) -> Result<ExecutionOutcome, PipelineError> {
    if ctx.spec.decoders().count() > 0 {
        return Err(PipelineError::InvalidConfig(
            "Optimus does not support diffusion decoders (T2V models)".into(),
        ));
    }
    // One dedicated segment per module (K_i = 1 everywhere).
    let placement = separated_placement(ctx.spec, ctx.parallel, &BTreeMap::new());
    // Coarse-grained ordering: encoder (and adapter) segments get strictly
    // higher priority than the backbone so that every encoder stage of every
    // microbatch is scheduled before backbone work when both are ready.
    let segment_priorities: Vec<i64> = placement
        .segments
        .iter()
        .map(|seg| {
            let is_backbone = seg
                .module
                .map(|m| ctx.spec.module(m).role() == ModuleRole::Backbone)
                .unwrap_or(false);
            if is_backbone {
                0
            } else {
                1_000
            }
        })
        .collect();
    simulate_pipeline(ctx, &placement, microbatches, segment_priorities, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::simulate_megatron;
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
    fn optimus_is_competitive_with_megatron_on_dynamic_vlm_batches() {
        // Under heterogeneous image counts the separated placement should be
        // at least competitive with Megatron's mixed parameter-balanced one
        // (the paper reports a clear win once DIP-style load balancing is
        // added on top; Optimus alone mainly fixes the partitioning).
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let counts = [2u64, 40, 10, 30, 0, 44, 16, 24, 4, 36, 20, 12, 8, 28, 48, 1];
        let batches: Vec<BatchWorkload> = counts
            .iter()
            .map(|&i| vlm_batches(1, i)[0].clone())
            .collect();
        let optimus = simulate_optimus(&ctx, &batches).unwrap();
        let megatron = simulate_megatron(&ctx, &batches, 1).unwrap();
        assert!(
            optimus.metrics.iteration_time_s < megatron.metrics.iteration_time_s * 1.10,
            "Optimus {} vs Megatron {}",
            optimus.metrics.iteration_time_s,
            megatron.metrics.iteration_time_s
        );
    }

    #[test]
    fn optimus_rejects_t2v_models() {
        let spec = zoo::t2v_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let err = simulate_optimus(&ctx, &vlm_batches(2, 0)).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfig(_)));
    }

    #[test]
    fn optimus_accumulates_more_peak_memory_than_megatron() {
        // Executing every encoder stage up front stores the encoder
        // activations of all microbatches simultaneously (Fig. 10).
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let ctx = BaselineContext::new(&spec, ParallelConfig::new(4, 4, 1), &cluster);
        let batches = vlm_batches(12, 24);
        let optimus = simulate_optimus(&ctx, &batches).unwrap();
        let megatron = simulate_megatron(&ctx, &batches, 1).unwrap();
        assert!(
            optimus.metrics.peak_memory_bytes as f64
                > megatron.metrics.peak_memory_bytes as f64 * 0.9
        );
    }
}
