//! Table 4: VLM-S end-to-end performance of FSDP, Megatron-LM and DIP on the
//! 16× H20 cluster.

use dip_bench::{fmt_ratio, fmt_s, print_table, vlm_batches_from_datasets, ExperimentScale};
use dip_core::{PlanRequest, PlanningSession};
use dip_models::zoo;
use dip_pipeline::baselines::{simulate_fsdp, simulate_megatron, BaselineContext};
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterSpec;

fn main() {
    let scale = ExperimentScale::from_env();
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h20_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let batches = vlm_batches_from_datasets(scale.microbatches, 21);

    let ctx = BaselineContext::new(&spec, parallel, &cluster);
    let fsdp = simulate_fsdp(&ctx, &batches);
    let megatron = simulate_megatron(&ctx, &batches, 1).unwrap().metrics;
    let session = PlanningSession::new(&spec, parallel, &cluster, scale.planner_config());
    let request = PlanRequest::new(batches.clone());
    let dip = session.plan_and_simulate(&request).unwrap().1.metrics;

    let rows = vec![
        vec![
            "FSDP".into(),
            fmt_s(fsdp.iteration_time_s),
            fmt_ratio(fsdp.iteration_time_s / megatron.iteration_time_s),
        ],
        vec![
            "Megatron-LM".into(),
            fmt_s(megatron.iteration_time_s),
            "1.000".into(),
        ],
        vec![
            "DIP".into(),
            fmt_s(dip.iteration_time_s),
            fmt_ratio(dip.iteration_time_s / megatron.iteration_time_s),
        ],
    ];
    print_table(
        "Table 4 — VLM-S on 16 H20 GPUs",
        &["System", "Iteration time (s)", "Relative time"],
        &rows,
    );
    println!("Expected shape (paper): FSDP ~1.03, Megatron-LM 1.00, DIP ~0.73.");
}
