//! Fig. 13: simulation accuracy before and after calibration, across the
//! DP/TP/PP grid of VLM-M on 64 GPUs — plus the ECM roofline study: the
//! calibrated timing model separating a memory-bound from a compute-bound
//! layer on the mixed H800+H20 topology, and the bit-identity of planning
//! through a constants-encoding calibration artifact. All quantities are
//! simulated (no wall clock), so every metric is gated as a determinism
//! witness in `bench_check`.

use dip_bench::{print_table, vlm_batches_from_datasets, BenchReport, ExperimentScale, MetricKind};
use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
use dip_models::{zoo, ModalityWorkload, ModuleRole};
use dip_pipeline::baselines::{simulate_megatron, BaselineContext};
use dip_pipeline::ParallelConfig;
use dip_sim::calibration::{calibrate, mean_accuracy, CalibrationSample};
use dip_sim::{
    CalibrationArtifact, CalibrationRegistry, CalibrationSource, ClusterTopology, EfficiencyModel,
    GpuGeneration, GpuSpec, RooflineBound, TimingModel,
};

/// The roofline study: price a compute-bound transformer layer and a
/// memory-bound embedding layer on both device kinds of the paper's mixed
/// H800+H20 testbed and show the model *predicts* the separation that
/// placement search previously had to discover.
fn roofline_study(report: &mut BenchReport) {
    let eff = EfficiencyModel::default();
    let topo = ClusterTopology::mixed_h800_h20(1, 1);
    // TP=4 on the 16-GPU mixed testbed: rank 0 is on the H800 node, the
    // last rank on the H20 node.
    let h800 = topo.rank_timing(0, 4, eff);
    let h20 = topo.rank_timing(3, 4, eff);
    assert_eq!(h800.gpu, GpuSpec::preset(GpuGeneration::H800));
    assert_eq!(h20.gpu, GpuSpec::preset(GpuGeneration::H20));

    let lm = zoo::qwen2_32b(ModuleRole::Backbone);
    let wl = ModalityWorkload::from_tokens(8192);
    // Layer 0 is the token embedding (a lookup: ~no FLOPs, lots of bytes);
    // layer 1 is a dense transformer block.
    let embed = lm.cost_of_layers(0..1, &wl, 1);
    let block = lm.cost_of_layers(1..2, &wl, 1);

    let mut rows = Vec::new();
    for (name, cost) in [("transformer block", &block), ("embedding", &embed)] {
        for (device, timing) in [("H800", &h800), ("H20", &h20)] {
            let roofline = timing.forward_roofline(cost);
            rows.push(vec![
                name.to_string(),
                device.to_string(),
                format!("{:.1}", cost.fwd_arithmetic_intensity()),
                format!("{:.1}", timing.machine_balance()),
                format!("{:.3}", roofline.compute_s * 1e3),
                format!("{:.3}", roofline.memory_s * 1e3),
                roofline.bound().to_string(),
            ]);
        }
    }
    print_table(
        "Fig. 13b — roofline classification on the mixed H800+H20 testbed (forward pass)",
        &[
            "Layer",
            "Device",
            "Intensity (FLOP/B)",
            "Ridge (FLOP/B)",
            "T_comp (ms)",
            "T_mem (ms)",
            "Bound",
        ],
        &rows,
    );

    // The separation the roofline predicts: the compute-bound block pays
    // the H20's ~6.7× compute deficit, while the memory-bound embedding
    // *gains* from the H20's faster HBM.
    let block_ratio = h20.forward_latency(&block) / h800.forward_latency(&block);
    let embed_ratio = h20.forward_latency(&embed) / h800.forward_latency(&embed);
    println!(
        "H20/H800 forward-latency ratio: {block_ratio:.3} for the transformer block, \
         {embed_ratio:.3} for the embedding — opposite sides of 1.0."
    );
    assert_eq!(
        h800.forward_roofline(&block).bound(),
        RooflineBound::Compute
    );
    assert_eq!(h800.forward_roofline(&embed).bound(), RooflineBound::Memory);
    assert_eq!(h20.forward_roofline(&embed).bound(), RooflineBound::Memory);
    assert!(
        block_ratio > 1.0,
        "compute-bound layer must prefer the H800"
    );
    assert!(embed_ratio < 1.0, "memory-bound layer must prefer the H20");

    report.push_flag("roofline.block_compute_bound_h800", true);
    report.push_flag("roofline.embedding_memory_bound_both", true);
    report.push(
        "roofline.block_h20_over_h800",
        MetricKind::Determinism,
        "ratio",
        block_ratio,
    );
    report.push(
        "roofline.embedding_h20_over_h800",
        MetricKind::Determinism,
        "ratio",
        embed_ratio,
    );
    report.push(
        "roofline.h800_machine_balance",
        MetricKind::Determinism,
        "flop_per_byte",
        h800.machine_balance(),
    );
    report.push(
        "roofline.h20_machine_balance",
        MetricKind::Determinism,
        "flop_per_byte",
        h20.machine_balance(),
    );
}

/// Bit-identity of the calibrated path: planning through an artifact that
/// encodes today's constants must equal planning without any registry.
fn artifact_identity_study(report: &mut BenchReport) {
    let spec = zoo::vlm_s();
    let topo = ClusterTopology::mixed_h800_h20(1, 1);
    let parallel = ParallelConfig::new(4, 4, 1);
    let request = PlanRequest::new(vlm_batches_from_datasets(2, 64));
    let session_on = |config: PlannerConfig| PlanningSession::new(&spec, parallel, &topo, config);

    let plain = session_on(PlannerConfig::fast());
    let registry = CalibrationRegistry::from_artifact(CalibrationArtifact::builtin_for(&topo));
    let calibrated = session_on(PlannerConfig::fast().with_calibration(registry));
    assert_eq!(
        calibrated.planner().calibration_source(),
        CalibrationSource::Exact
    );

    let (plan_a, out_a) = plain.plan_and_simulate(&request).expect("plain plan");
    let (plan_b, out_b) = calibrated
        .plan_and_simulate(&request)
        .expect("calibrated plan");
    let (plan_a, plan_b) = (plan_a.plan, plan_b.plan);
    let identical = out_a.metrics.iteration_time_s.to_bits()
        == out_b.metrics.iteration_time_s.to_bits()
        && plan_a.segment_priorities == plan_b.segment_priorities
        && plan_a.topology_fingerprint == plan_b.topology_fingerprint;
    println!(
        "Constants-encoding artifact vs built-in path: iteration {:.6} s vs {:.6} s ({}).",
        out_a.metrics.iteration_time_s,
        out_b.metrics.iteration_time_s,
        if identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    assert!(identical, "constants artifact must be bit-identical");
    report.push_flag("roofline.builtin_artifact_bit_identical", identical);
    report.push(
        "roofline.calibrated_iteration_s",
        MetricKind::Determinism,
        "s",
        out_b.metrics.iteration_time_s,
    );
}

fn main() {
    let scale = ExperimentScale::from_env();
    let spec = zoo::vlm_m();
    let cluster = ClusterTopology::h800_cluster(8);
    let batches = vlm_batches_from_datasets(scale.microbatches, 64);

    // "Real" executions: the reference (calibrated, default) efficiency model.
    // "Simulation": the optimistic uncalibrated factors.
    let reference = EfficiencyModel::default();
    let uncalibrated = EfficiencyModel::uncalibrated();

    let mut grid = Vec::new();
    for tp in [2usize, 4, 8] {
        for dp in [1usize, 2, 4, 8] {
            let pp = 64 / (tp * dp);
            if pp == 0 || tp * pp * dp != 64 || pp > 16 {
                continue;
            }
            grid.push(ParallelConfig::new(tp, pp, dp));
        }
    }

    let run = |parallel: ParallelConfig, eff: EfficiencyModel| -> Option<f64> {
        let ctx = BaselineContext::new(&spec, parallel, &cluster)
            .with_timing(TimingModel::new(cluster.reference_device(), eff));
        simulate_megatron(&ctx, &batches, 1)
            .ok()
            .map(|o| o.metrics.iteration_time_s)
    };

    let total_model_flops: f64 = batches.iter().map(|b| spec.model_flops(b)).sum();
    let mut samples = Vec::new();
    let mut rows = Vec::new();
    let mut best: Option<(ParallelConfig, f64)> = None;
    for parallel in &grid {
        let (Some(real), Some(sim)) = (run(*parallel, reference), run(*parallel, uncalibrated))
        else {
            continue;
        };
        samples.push(CalibrationSample {
            predicted_s: sim,
            measured_s: real,
        });
        let mfu_real = total_model_flops * parallel.dp as f64
            / (real * cluster.reference_device().peak_flops * 64.0);
        if best.is_none() || mfu_real > best.unwrap().1 {
            best = Some((*parallel, mfu_real));
        }
        rows.push(vec![
            parallel.to_string(),
            format!("{real:.3}"),
            format!("{sim:.3}"),
            format!("{:.1}%", (sim / real - 1.0).abs() * 100.0),
            format!("{mfu_real:.3}"),
        ]);
    }

    let calibrated_model = calibrate(&uncalibrated, &samples);
    let calibrated_samples: Vec<CalibrationSample> = grid
        .iter()
        .filter_map(|p| {
            Some(CalibrationSample {
                predicted_s: run(*p, calibrated_model)?,
                measured_s: run(*p, reference)?,
            })
        })
        .collect();

    print_table(
        "Fig. 13 — per-configuration iteration time, simulated vs. reference (VLM-M, 64 GPUs)",
        &[
            "Parallelism",
            "Reference (s)",
            "Uncalibrated sim (s)",
            "Relative error",
            "Reference MFU",
        ],
        &rows,
    );
    let before = mean_accuracy(&samples);
    let after = mean_accuracy(&calibrated_samples);
    println!(
        "Mean simulation accuracy: {:.1}% before calibration, {:.1}% after calibration (paper: ~90% -> 97.6%).",
        before * 100.0,
        after * 100.0
    );
    if let Some((p, mfu)) = best {
        println!("Best parallelism configuration by reference MFU: {p} (MFU {mfu:.3}).");
    }

    let mut report = BenchReport::from_env("fig13_calibration");
    // Both accuracies are ratios of simulated times — deterministic, gated
    // bit for bit.
    report.push(
        "accuracy.before_calibration",
        MetricKind::Determinism,
        "ratio",
        before,
    );
    report.push(
        "accuracy.after_calibration",
        MetricKind::Determinism,
        "ratio",
        after,
    );

    roofline_study(&mut report);
    artifact_identity_study(&mut report);
    report.write_if_requested();
}
