//! Fig. 8a: average end-to-end performance of Megatron-LM, nnScaler*,
//! Optimus and DIP across the five model setups of Table 3, on batches drawn
//! from the synthetic dataset mixtures.

use dip_bench::{
    fmt_ratio, print_table, run_all_systems, t2v_batches_from_datasets, vlm_batches_from_datasets,
    ExperimentScale,
};
use dip_models::zoo;
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;

fn main() {
    let scale = ExperimentScale::from_env();
    let mut rows = Vec::new();
    for setup in zoo::table3_setups() {
        let parallel = ParallelConfig::new(setup.tp, setup.pp, setup.dp);
        let cluster = ClusterTopology::h800_cluster((setup.num_gpus() / 8).max(1));
        let is_t2v = setup.name.starts_with("T2V");
        // Average over several iterations of freshly drawn data.
        let mut sums: Vec<(String, f64)> = Vec::new();
        for iter in 0..scale.iterations {
            let batches = if is_t2v {
                t2v_batches_from_datasets(scale.microbatches, 100 + iter as u64)
            } else {
                vlm_batches_from_datasets(scale.microbatches, 100 + iter as u64)
            };
            let results = run_all_systems(&setup.model, parallel, &cluster, &batches, &scale);
            if sums.is_empty() {
                sums = results.iter().map(|r| (r.system.clone(), 0.0)).collect();
            }
            for (i, r) in results.iter().enumerate() {
                sums[i].1 += r.metrics.iteration_time_s;
            }
        }
        let baseline = sums
            .iter()
            .find(|(s, _)| s == "Megatron-LM")
            .map(|(_, t)| *t)
            .unwrap_or(1.0);
        let mut row = vec![setup.name.clone()];
        for system in ["Megatron-LM", "nnScaler*", "Optimus", "DIP"] {
            match sums.iter().find(|(s, _)| s == system) {
                Some((_, t)) => row.push(fmt_ratio(t / baseline)),
                None => row.push("n/a".into()),
            }
        }
        rows.push(row);
    }
    print_table(
        "Fig. 8a — normalized iteration time (Megatron-LM = 1.0; lower is better)",
        &["Setup", "Megatron-LM", "nnScaler*", "Optimus", "DIP"],
        &rows,
    );
    println!("Expected shape (paper): DIP lowest everywhere (0.51–0.64), Optimus/nnScaler* in between, Optimus n/a for T2V.");
}
