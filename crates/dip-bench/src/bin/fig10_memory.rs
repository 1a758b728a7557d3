//! Fig. 10: GPU memory timeline of the first pipeline rank during VLM-M
//! training for Megatron-LM, Optimus, DIP (non-adaptive) and DIP.

use dip_bench::{print_table, vlm_batches_from_datasets, ExperimentScale};
use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
use dip_models::zoo;
use dip_pipeline::baselines::{simulate_megatron, simulate_optimus, BaselineContext};
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;

fn summarize(name: &str, report: &dip_sim::EngineReport) -> Vec<String> {
    let rank0 = &report.ranks[0];
    let peak = rank0.peak_memory as f64 / 1e9;
    let min = rank0
        .memory_timeline
        .iter()
        .map(|(_, m)| *m)
        .min()
        .unwrap_or(0) as f64
        / 1e9;
    let samples = rank0.memory_timeline.len();
    vec![
        name.to_string(),
        format!("{peak:.1}"),
        format!("{min:.1}"),
        format!("{:.1}", peak - min),
        samples.to_string(),
    ]
}

fn main() {
    let scale = ExperimentScale::from_env();
    let spec = zoo::vlm_m();
    let cluster = ClusterTopology::h800_cluster(4);
    let parallel = ParallelConfig::new(8, 4, 1);
    let ctx = BaselineContext::new(&spec, parallel, &cluster);
    let batches = vlm_batches_from_datasets(scale.microbatches, 77);

    let mut rows = Vec::new();
    let megatron = simulate_megatron(&ctx, &batches, 1).unwrap();
    rows.push(summarize("Megatron-LM", &megatron.report));
    let optimus = simulate_optimus(&ctx, &batches).unwrap();
    rows.push(summarize("Optimus", &optimus.report));
    let request = PlanRequest::new(batches);
    let no_opt = PlanningSession::new(&spec, parallel, &cluster, PlannerConfig::no_opt());
    let (_, out) = no_opt.plan_and_simulate(&request).unwrap();
    rows.push(summarize("DIP (non-adaptive)", &out.report));
    let dip = PlanningSession::new(&spec, parallel, &cluster, scale.planner_config());
    let (_, out) = dip.plan_and_simulate(&request).unwrap();
    rows.push(summarize("DIP", &out.report));

    print_table(
        "Fig. 10 — memory behaviour of the first pipeline rank (VLM-M)",
        &[
            "System",
            "Peak GB",
            "Static GB",
            "Activation swing GB",
            "Timeline samples",
        ],
        &rows,
    );
    println!("Expected shape (paper): Optimus accumulates the most (encoder activations of all microbatches); DIP keeps usage low and steady.");
}
