//! Planning on a heterogeneous cluster: one node of H800s plus one node of
//! H20s (the two device kinds of the paper's Table 4 testbeds, mixed).
//!
//! The placement mode can be chosen with the first CLI argument or the
//! `DIP_PLACEMENT` environment variable (`round-robin`, `capacity-aware`,
//! `latency-balanced`, or `all` to compare — the default):
//!
//! ```console
//! $ cargo run --release --example heterogeneous_cluster
//! $ cargo run --release --example heterogeneous_cluster -- latency-balanced
//! $ DIP_PLACEMENT=capacity-aware cargo run --release --example heterogeneous_cluster
//! ```
//!
//! The capacity-aware mode distributes layers by spec-sheet capability
//! (peak FLOP/s for the backbone, HBM capacity for modality modules); the
//! latency-balanced mode runs an nnScaler-style DP on *simulated* per-layer
//! latency priced on each hosting rank's own device, which also captures
//! memory-bound layers and small-kernel efficiency roll-off.

use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::{ParallelConfig, PlacementMode};
use dip_sim::ClusterTopology;

fn vlm_batch(images: u64) -> BatchWorkload {
    BatchWorkload::new()
        .with(
            Modality::Text,
            ModalityWorkload::new(8192 - images * 169, 1),
        )
        .with(Modality::Image, ModalityWorkload::new(images * 169, images))
}

/// The canonical CLI/env name of a placement mode.
fn mode_name(mode: PlacementMode) -> &'static str {
    match mode {
        PlacementMode::RoundRobin => "round-robin",
        PlacementMode::CapacityAware => "capacity-aware",
        PlacementMode::LatencyBalanced => "latency-balanced",
    }
}

const ALL_MODES: [PlacementMode; 3] = [
    PlacementMode::RoundRobin,
    PlacementMode::CapacityAware,
    PlacementMode::LatencyBalanced,
];

/// Parses the requested placement mode(s) from argv[1] or `DIP_PLACEMENT`;
/// `all` (or nothing) selects every mode for comparison.
fn requested_modes() -> Vec<PlacementMode> {
    let choice = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("DIP_PLACEMENT").ok())
        .unwrap_or_else(|| "all".into());
    match choice.as_str() {
        "all" => ALL_MODES.to_vec(),
        other => match ALL_MODES.iter().find(|&&m| mode_name(m) == other) {
            Some(&m) => vec![m],
            None => {
                eprintln!(
                    "unknown placement mode {other:?}; expected one of \
                     round-robin, capacity-aware, latency-balanced, all"
                );
                std::process::exit(2);
            }
        },
    }
}

fn main() {
    let modes = requested_modes();
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    // 1 node × 8 H800 + 1 node × 8 H20: at TP=4, pipeline ranks 0–1 run on
    // H800 devices and ranks 2–3 on H20 devices.
    let topology = ClusterTopology::mixed_h800_h20(1, 1);
    println!(
        "cluster: {} GPUs across {} nodes (fingerprint {:016x})",
        topology.num_gpus(),
        topology.num_nodes(),
        topology.fingerprint()
    );
    for rank in 0..parallel.pp {
        let device = topology.rank_device(rank, parallel.tp);
        println!(
            "  rank {rank}: {:.0} TFLOP/s, {} GiB HBM",
            device.peak_flops / 1e12,
            device.mem_capacity >> 30
        );
    }

    let batches: Vec<BatchWorkload> = [24u64, 8, 40, 2].iter().map(|&i| vlm_batch(i)).collect();
    let request = PlanRequest::new(batches);

    for placement in modes {
        let mut config = PlannerConfig::fast();
        config.partitioner.placement = placement;
        let session = PlanningSession::new(&spec, parallel, &topology, config);
        let (_, execution) = session.plan_and_simulate(&request).unwrap();
        println!(
            "placement {:<16}: iteration {:.3} s, MFU {:.3}",
            mode_name(placement),
            execution.metrics.iteration_time_s,
            execution.metrics.mfu
        );
    }
}
