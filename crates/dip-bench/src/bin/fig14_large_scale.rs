//! Fig. 14 / Table 6: large-scale simulation of VLM-XL and T2V-XL on H100
//! clusters (3k–16k GPUs), comparing MFU across systems.

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
    for setup in zoo::table6_setups() {
        let parallel = ParallelConfig::new(setup.tp, setup.pp, setup.dp);
        let cluster = ClusterTopology::h100_cluster(setup.num_gpus() / 8);
        let is_t2v = setup.name.starts_with("T2V");
        let batches = if is_t2v {
            t2v_batches_from_datasets(scale.microbatches, 14)
        } else {
            vlm_batches_from_datasets(scale.microbatches, 14)
        };
        let results = run_all_systems(&setup.model, parallel, &cluster, &batches, &scale);
        let mut row = vec![setup.name.clone()];
        for system in ["Megatron-LM", "nnScaler*", "Optimus", "DIP"] {
            match results.iter().find(|r| r.system == system) {
                Some(r) => row.push(fmt_ratio(r.metrics.mfu)),
                None => row.push("n/a".into()),
            }
        }
        rows.push(row);
    }
    print_table(
        "Fig. 14 — large-scale simulation on H100 clusters (MFU; higher is better)",
        &["Setup", "Megatron-LM", "nnScaler*", "Optimus", "DIP"],
        &rows,
    );
    println!("Expected shape (paper): DIP reaches the highest MFU (~0.36 VLM-XL, ~0.39 T2V-XL), with the gap widening at larger PP.");
}
