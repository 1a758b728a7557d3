//! Quickstart: plan and simulate VLM-S training iterations with DIP's
//! planning session and compare them against Megatron-LM's 1F1B schedule.
//!
//! Run with: `cargo run --release --example quickstart`

use dip_core::{PlanRequest, PlanTier, PlannerConfig, PlanningSession};
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::baselines::{simulate_megatron, BaselineContext};
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;

fn vlm_batch(images: u64) -> BatchWorkload {
    BatchWorkload::new()
        .with(
            Modality::Text,
            ModalityWorkload::new(8192 - images * 169, 1),
        )
        .with(Modality::Image, ModalityWorkload::new(images * 169, images))
}

fn main() {
    // VLM-S (ViT 5B + Llama3 8B) on 16 simulated H800 GPUs, TP4 / PP4.
    let spec = zoo::vlm_s();
    let cluster = ClusterTopology::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);

    // One iteration of eight microbatches with fluctuating image counts —
    // the "dynamic imbalance" the paper targets.
    let batches: Vec<BatchWorkload> = [2u64, 40, 10, 30, 0, 44, 16, 24]
        .iter()
        .map(|&i| vlm_batch(i))
        .collect();

    // Baseline: Megatron-LM 1F1B over a parameter-balanced partition.
    let ctx = BaselineContext::new(&spec, parallel, &cluster);
    let megatron = simulate_megatron(&ctx, &batches, 1).expect("baseline simulation");

    // DIP: a planning session over the modality-aware partitioner, schedule
    // search and memory optimisation. Sessions cache plans by workload
    // signature, so re-planning a repeated shape is (nearly) free.
    let session = PlanningSession::new(&spec, parallel, &cluster, PlannerConfig::fast());
    let request = PlanRequest::new(batches.clone());
    let (outcome, dip) = session.plan_and_simulate(&request).expect("DIP planning");
    let plan = &outcome.plan;

    println!(
        "model: {} ({:.1}B parameters)",
        spec.name(),
        spec.param_billions()
    );
    println!(
        "microbatches: {} | pipeline segments: {} | workload signature: {}",
        batches.len(),
        plan.segment_priorities.len(),
        outcome.signature
    );
    println!();
    println!(
        "Megatron-LM : {:.3} s/iter | MFU {:.3} | bubble {:.1}%",
        megatron.metrics.iteration_time_s,
        megatron.metrics.mfu,
        megatron.metrics.bubble_fraction * 100.0
    );
    println!(
        "DIP         : {:.3} s/iter | MFU {:.3} | bubble {:.1}%",
        dip.metrics.iteration_time_s,
        dip.metrics.mfu,
        dip.metrics.bubble_fraction * 100.0
    );
    println!();
    println!(
        "DIP throughput gain: {:.1}%  (planning took {:.0} ms, {} schedules evaluated)",
        dip.metrics.speedup_percent_over(&megatron.metrics),
        plan.stats.planning_time.as_secs_f64() * 1e3,
        plan.stats.search_evaluations
    );

    // The next iteration repeats the shape: served from the plan cache.
    let (repeat, _) = session
        .plan_and_simulate(&request)
        .expect("cached planning");
    let cached = repeat.tier == PlanTier::Exact;
    println!(
        "repeated shape: cache {} in {:.3} ms (session hit rate {:.0}%)",
        if cached { "hit" } else { "miss" },
        repeat.plan.stats.planning_time.as_secs_f64() * 1e3,
        session.stats().hit_rate() * 100.0
    );
}
