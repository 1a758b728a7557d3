//! `dip-calibrate`: runs the calibration microbenchmarks, fits the ECM and
//! cost-model parameters, and emits a versioned [`CalibrationArtifact`].
//!
//! Two modes:
//!
//! * `dip-calibrate --builtin --out CALIBRATION_default.json` writes the
//!   built-in constants as an artifact — byte-stable, suitable for
//!   committing. `bench_check --calibration` asserts the committed file
//!   stays in sync with the constants compiled into `dip-sim`.
//! * `dip-calibrate --out fleet.json` runs the measurement pass: simulated
//!   device microbenchmarks recover each preset's ECM ceilings (a
//!   self-check that the fit procedure inverts the roofline exactly), and
//!   a wall-clock timing pass over a representative stage graph fits the
//!   planner's per-evaluation [`dip_sim::CostModel`] — the virtual clock
//!   rate. The emitted artifact carries the fitted cost model, so it is
//!   machine-dependent by design; commit only `--builtin` artifacts.
//!
//! Either mode emits a machine-readable report under `DIP_BENCH_JSON`. The
//! `calibrate.quota_wall_mismatch` Info metric is the **staleness alarm**:
//! the ratio of measured wall-clock cost per evaluation to the reference
//! virtual-clock cost. Far from 1.0 means the reference cost model no
//! longer describes this machine and time budgets buy the wrong amount of
//! search — time to re-run `dip-calibrate` and ship a fresh artifact
//! (`bench_check` prints a warning when the ratio leaves a sane band).

use dip_bench::{calibrate_eval_cost, print_table, BenchReport, MetricKind};
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::{
    separated_placement, DualQueueConfig, ParallelConfig, StageGraphBuilder, SubMicrobatchPlan,
};
use dip_sim::{
    CalibrationArtifact, ClusterTopology, CostModel, EcmDeviceParams, EfficiencyModel,
    GpuGeneration, GpuSpec,
};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Relative tolerance for the simulated microbenchmark inversion: the
/// recovered ceilings must reproduce the spec values to fp rounding.
const RECOVERY_TOLERANCE: f64 = 1e-9;

/// Simulated device microbenchmarks: price one saturating kernel per
/// resource through the roofline and invert the model to recover the
/// ceiling. On real hardware these would be a GEMM sweep, a STREAM run and
/// a p2p ping; in the simulator the inversion must return the spec sheet
/// exactly, which is the self-check that `dip-calibrate`'s fit procedure
/// and `dip-sim`'s pricing agree on the model.
fn recover_device(label: &str, spec: &GpuSpec, eff: &EfficiencyModel) -> EcmDeviceParams {
    // STREAM-style: a pure memory op of 1 TB. T = N / (B_mem · α_mem).
    let bytes = 1e12;
    let mem_s = eff
        .op_breakdown(
            spec.peak_flops,
            spec.mem_bandwidth,
            spec.nvlink_bandwidth,
            0.0,
            bytes,
            0.0,
        )
        .memory_s;
    let mem_bandwidth = bytes / (mem_s * eff.memory_efficiency);

    // GEMM-style: a pure compute op of 1 EFLOP (far above the utilisation
    // knee). T = N / (F · α_fop · u(N)).
    let flops = 1e18;
    let comp_s = eff
        .op_breakdown(
            spec.peak_flops,
            spec.mem_bandwidth,
            spec.nvlink_bandwidth,
            flops,
            0.0,
            0.0,
        )
        .compute_s;
    let peak_flops = flops / (comp_s * eff.compute_efficiency * eff.utilisation(flops));

    // Injection-bandwidth pings: a pure network op per link class.
    let net_bytes = 1e11;
    let nvlink_s = eff
        .op_breakdown(
            spec.peak_flops,
            spec.mem_bandwidth,
            spec.nvlink_bandwidth,
            0.0,
            0.0,
            net_bytes,
        )
        .network_s;
    let nvlink_bandwidth = net_bytes / (nvlink_s * eff.network_efficiency);
    let net_s = eff
        .op_breakdown(
            spec.peak_flops,
            spec.mem_bandwidth,
            spec.net_bandwidth,
            0.0,
            0.0,
            net_bytes,
        )
        .network_s;
    let net_bandwidth = net_bytes / (net_s * eff.network_efficiency);

    EcmDeviceParams {
        label: label.to_string(),
        device_key: spec.device_key(),
        peak_flops,
        mem_bandwidth,
        nvlink_bandwidth,
        net_bandwidth,
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        return if a == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (a - b).abs() / b.abs()
}

/// Wall-clock fit of the per-evaluation cost model over a representative
/// VLM stage graph (the same kernel the ordering-search workers run).
fn fit_eval_cost() -> (Option<CostModel>, u64) {
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let mut k = BTreeMap::new();
    k.insert(spec.backbone_id().expect("VLM-S has a backbone"), 2usize);
    let placement = separated_placement(&spec, parallel, &k);
    let cluster = ClusterTopology::h800_cluster(2);
    let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
    let batch = BatchWorkload::new()
        .with(Modality::Text, ModalityWorkload::new(6502, 1))
        .with(Modality::Image, ModalityWorkload::new(1690, 10));
    let batches = vec![batch; 8];
    let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
    let graph = builder.build(&batches, &plan).expect("graph builds");
    let units = graph.len() as u64;
    let fitted = calibrate_eval_cost(
        &graph,
        placement.segments.len(),
        &DualQueueConfig::default(),
        32,
    );
    (fitted, units)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut builtin_mode = false;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--builtin" => builtin_mode = true,
            "--out" if i + 1 < args.len() => {
                out = Some(args[i + 1].clone());
                i += 1;
            }
            other => {
                eprintln!("dip-calibrate: unknown argument `{other}`");
                eprintln!("usage: dip-calibrate [--builtin] [--out <artifact.json>]");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let mut report = BenchReport::from_env("dip_calibrate");
    let eff = EfficiencyModel::default();
    let builtin = CalibrationArtifact::builtin_defaults();

    // --- Device microbenchmarks -------------------------------------------
    let presets = [
        ("H800", GpuGeneration::H800),
        ("H20", GpuGeneration::H20),
        ("H100", GpuGeneration::H100),
    ];
    let mut rows = Vec::new();
    let mut recovered_devices = Vec::new();
    let mut recovery_exact = true;
    for (label, generation) in presets {
        let spec = GpuSpec::preset(generation);
        let recovered = recover_device(label, &spec, &eff);
        let worst = [
            rel_diff(recovered.peak_flops, spec.peak_flops),
            rel_diff(recovered.mem_bandwidth, spec.mem_bandwidth),
            rel_diff(recovered.nvlink_bandwidth, spec.nvlink_bandwidth),
            rel_diff(recovered.net_bandwidth, spec.net_bandwidth),
        ]
        .into_iter()
        .fold(0.0f64, f64::max);
        recovery_exact &= worst < RECOVERY_TOLERANCE;
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", recovered.peak_flops / 1e12),
            format!("{:.2}", recovered.mem_bandwidth / 1e12),
            format!("{:.0}", recovered.nvlink_bandwidth / 1e9),
            format!("{:.0}", recovered.net_bandwidth / 1e9),
            format!("{worst:.2e}"),
        ]);
        recovered_devices.push(recovered);
    }
    print_table(
        "dip-calibrate — recovered ECM ceilings (simulated microbenchmarks)",
        &[
            "Device",
            "Peak (TFLOP/s)",
            "Mem BW (TB/s)",
            "NVLink (GB/s)",
            "Net (GB/s)",
            "Max rel. err",
        ],
        &rows,
    );
    report.push_flag("calibrate.device_recovery_exact", recovery_exact);
    if !recovery_exact {
        eprintln!("dip-calibrate: microbenchmark inversion drifted from the spec ceilings");
        return ExitCode::FAILURE;
    }

    // --- Planner cost-model fit (wall clock) ------------------------------
    let (fitted, units) = fit_eval_cost();
    let reference = CostModel::REFERENCE_EVALUATION;
    let (eval_cost, mismatch) = match fitted {
        Some(model) => {
            let mismatch = model.seconds(units) / reference.seconds(units);
            (model, mismatch)
        }
        None => {
            eprintln!("dip-calibrate: cost-model fit degenerate, keeping the reference model");
            (reference, 1.0)
        }
    };
    println!(
        "Per-evaluation cost over a {units}-item graph: fitted {:.2} µs vs reference {:.2} µs \
         (quota-vs-wall mismatch {mismatch:.3})",
        eval_cost.seconds(units) * 1e6,
        reference.seconds(units) * 1e6,
    );
    report.push(
        "calibrate.eval_cost_per_unit_s",
        MetricKind::Info,
        "s",
        eval_cost.per_unit_s,
    );
    report.push(
        "calibrate.quota_wall_mismatch",
        MetricKind::Info,
        "ratio",
        mismatch,
    );

    // --- Assemble, self-check and write the artifact ----------------------
    let artifact = if builtin_mode {
        builtin.clone()
    } else {
        CalibrationArtifact {
            devices: recovered_devices,
            eval_cost,
            ..builtin.clone()
        }
    };
    let text = artifact.to_json();
    let roundtrip = CalibrationArtifact::from_json(&text);
    report.push_flag(
        "calibrate.artifact_roundtrip_identical",
        roundtrip.as_ref() == Ok(&artifact),
    );
    report.push_flag(
        "calibrate.schema_version_current",
        artifact.schema_version == dip_sim::CALIBRATION_SCHEMA_VERSION,
    );
    if roundtrip.as_ref() != Ok(&artifact) {
        eprintln!("dip-calibrate: artifact JSON round trip is not bit-exact");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("dip-calibrate: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} artifact to {path} ({} device kind(s), schema v{})",
            if builtin_mode { "built-in" } else { "measured" },
            artifact.devices.len(),
            artifact.schema_version
        );
    }

    report.write_if_requested();
    ExitCode::SUCCESS
}
