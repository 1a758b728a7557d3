//! Cross-crate integration tests: data generation → partitioning → planning
//! → simulation, and the headline end-to-end property of the paper (DIP
//! outperforms the baselines on dynamic multimodal workloads).

use dip_bench::{run_all_systems, vlm_batches_from_datasets, ExperimentScale};
use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
use dip_data::{BatchGenerator, DatasetMix, DynamicWorkloadController, ImageBoundSchedule};
use dip_models::zoo;
use dip_pipeline::baselines::{simulate_megatron, BaselineContext};
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterSpec;

fn quick_scale() -> ExperimentScale {
    ExperimentScale {
        microbatches: 8,
        iterations: 1,
        search_ms: 200,
        workers: 2,
    }
}

#[test]
fn dip_beats_every_baseline_on_vlm_s_dataset_batches() {
    let scale = quick_scale();
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let batches = vlm_batches_from_datasets(scale.microbatches, 2024);
    let results = run_all_systems(
        &spec,
        ParallelConfig::new(4, 4, 1),
        &cluster,
        &batches,
        &scale,
    );
    assert_eq!(results.len(), 4, "expected all four systems to run");
    let time_of = |name: &str| {
        results
            .iter()
            .find(|r| r.system == name)
            .map(|r| r.metrics.iteration_time_s)
            .unwrap()
    };
    let dip = time_of("DIP");
    assert!(dip < time_of("Megatron-LM"), "DIP must beat Megatron-LM");
    assert!(dip < time_of("nnScaler*") * 1.02);
    assert!(dip < time_of("Optimus") * 1.02);
}

#[test]
fn dip_advantage_grows_with_image_count_under_the_fig8b_envelope() {
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let ctx = BaselineContext::new(&spec, parallel, &cluster);
    let session = PlanningSession::new(&spec, parallel, &cluster, PlannerConfig::fast());

    let generator = BatchGenerator::vlm(DatasetMix::vlm_default(), 6, 99);
    let mut controller = DynamicWorkloadController::new(generator, ImageBoundSchedule::fig8b());

    let mut peak_gain: f64 = 0.0;
    let mut quiet_gain: f64 = 0.0;
    for _ in 0..8 {
        let Some(iteration) = controller.next_iteration() else {
            break;
        };
        let batches = iteration.batch.workloads();
        let megatron = simulate_megatron(&ctx, &batches, 1).unwrap().metrics;
        let (_, dip) = session
            .plan_and_simulate(&PlanRequest::new(batches))
            .unwrap();
        let gain = megatron.iteration_time_s / dip.metrics.iteration_time_s;
        if iteration.batch.avg_images_per_microbatch() > 15.0 {
            peak_gain = peak_gain.max(gain);
        } else if iteration.batch.avg_images_per_microbatch() < 5.0 {
            quiet_gain = quiet_gain.max(gain);
        }
    }
    assert!(peak_gain > 1.0, "DIP should win during image-heavy phases");
    // During image-heavy phases the modality imbalance is largest, so DIP's
    // advantage should be at least as large as in near-text-only phases.
    if quiet_gain > 0.0 {
        assert!(peak_gain + 0.10 >= quiet_gain);
    }
}

#[test]
fn t2v_pipeline_runs_end_to_end_from_dataset_to_metrics() {
    let spec = zoo::t2v_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let mut generator = BatchGenerator::t2v(DatasetMix::t2v_default(), 6, 5);
    let batches = generator.next_batch().workloads();

    let session = PlanningSession::new(&spec, parallel, &cluster, PlannerConfig::fast());
    let (planned, outcome) = session
        .plan_and_simulate(&PlanRequest::new(batches.clone()))
        .unwrap();
    assert!(outcome.metrics.iteration_time_s > 0.0);
    assert!(outcome.metrics.mfu > 0.0 && outcome.metrics.mfu < 1.0);
    assert_eq!(planned.plan.orders.num_stages(), planned.plan.graph.len());

    let ctx = BaselineContext::new(&spec, parallel, &cluster);
    let megatron = simulate_megatron(&ctx, &batches, 1).unwrap().metrics;
    assert!(outcome.metrics.iteration_time_s <= megatron.iteration_time_s * 1.05);
}

#[test]
fn every_table3_setup_plans_and_simulates() {
    for setup in zoo::table3_setups() {
        let parallel = ParallelConfig::new(setup.tp, setup.pp, setup.dp);
        let cluster = ClusterSpec::h800_cluster((setup.num_gpus() / 8).max(1));
        let is_t2v = setup.name.starts_with("T2V");
        let batches = if is_t2v {
            dip_bench::t2v_batches_from_datasets(4, 31)
        } else {
            vlm_batches_from_datasets(4, 31)
        };
        let session = PlanningSession::new(&setup.model, parallel, &cluster, PlannerConfig::fast());
        let (_, outcome) = session
            .plan_and_simulate(&PlanRequest::new(batches))
            .unwrap_or_else(|e| panic!("{} failed: {e}", setup.name));
        assert!(
            outcome.metrics.iteration_time_s > 0.0,
            "{} produced a zero-time iteration",
            setup.name
        );
        assert!(
            outcome.metrics.peak_memory_bytes <= cluster.gpu.mem_capacity as i64,
            "{} exceeds GPU memory",
            setup.name
        );
    }
}
