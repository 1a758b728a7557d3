//! §2.3 motivation: pipeline bubbles of the 37B VLM under the *optimal*
//! static latency-balanced partition, and the extra overhead dynamic data
//! adds on top (Fig. 3 / the 22.8% and 40.3% numbers).

use dip_bench::{fmt_ratio, print_table, vlm_batch, ExperimentScale};
use dip_models::zoo;
use dip_pipeline::baselines::{nnscaler_static_plan, simulate_nnscaler, BaselineContext};
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;

fn main() {
    let scale = ExperimentScale::from_env();
    let spec = zoo::vlm_37b();
    let cluster = ClusterTopology::h800_cluster(4);
    // 16 pipeline stages as in §2.3 (TP2 to fit in 32 GPUs of the simulation).
    let parallel = ParallelConfig::new(2, 16, 1);
    let ctx = BaselineContext::new(&spec, parallel, &cluster);
    let n = scale.microbatches.max(16);

    // The §2.3 workload: 8 images + 8192 text tokens per microbatch.
    let representative = vlm_batch(8);
    let placement = nnscaler_static_plan(&ctx, &representative, 1);

    let static_batches = vec![representative.clone(); n];
    let static_run = simulate_nnscaler(&ctx, &placement, &static_batches).unwrap();

    let counts = [1u64, 40, 8, 30, 2, 48, 16, 24];
    let dynamic_batches: Vec<_> = (0..n)
        .map(|i| vlm_batch(counts[i % counts.len()]))
        .collect();
    let dynamic_run = simulate_nnscaler(&ctx, &placement, &dynamic_batches).unwrap();

    print_table(
        "§2.3 — 37B VLM, optimal static layer split, 16 pipeline stages",
        &["Workload", "Iteration time (s)", "Bubble fraction"],
        &[
            vec![
                "Static (8 images / 8192 tokens)".into(),
                format!("{:.3}", static_run.metrics.iteration_time_s),
                fmt_ratio(static_run.metrics.bubble_fraction),
            ],
            vec![
                "Dynamic (real-like image counts)".into(),
                format!("{:.3}", dynamic_run.metrics.iteration_time_s),
                fmt_ratio(dynamic_run.metrics.bubble_fraction),
            ],
        ],
    );
    let overhead =
        (dynamic_run.metrics.iteration_time_s / static_run.metrics.iteration_time_s - 1.0) * 100.0;
    println!("Dynamic-data overhead over the static optimum: {overhead:.1}% (paper: up to 40.3%).");
    println!("Static bubble fraction (paper: 22.8% extra bubbles even at the optimal split).");
}
