//! Grid-search over DP/TP/PP configurations for VLM-M on 64 simulated GPUs,
//! the use-case behind the paper's Fig. 13: the training simulator is fast
//! enough to sweep every valid parallelism layout and pick the best.
//!
//! Run with: `cargo run --release --example parallelism_search`

use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
use dip_data::{BatchGenerator, DatasetMix};
use dip_models::zoo;
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;

fn main() {
    let spec = zoo::vlm_m();
    let cluster = ClusterTopology::h800_cluster(8);
    let mut generator = BatchGenerator::vlm(DatasetMix::vlm_default(), 8, 3);
    let request = PlanRequest::new(generator.next_batch().workloads());

    let mut results = Vec::new();
    for tp in [2usize, 4, 8] {
        for pp in [2usize, 4, 8] {
            let dp = 64 / (tp * pp);
            if dp == 0 || tp * pp * dp != 64 {
                continue;
            }
            let parallel = ParallelConfig::new(tp, pp, dp);
            // One session per layout: the plan cache is keyed by workload
            // signature, which is layout-independent.
            let session = PlanningSession::new(&spec, parallel, &cluster, PlannerConfig::fast());
            match session.plan_and_simulate(&request) {
                Ok((_, outcome)) => {
                    println!(
                        "{parallel}: {:.3} s/iter, MFU {:.3}, peak mem {:.1} GB",
                        outcome.metrics.iteration_time_s,
                        outcome.metrics.mfu,
                        outcome.metrics.peak_memory_bytes as f64 / 1e9
                    );
                    results.push((parallel, outcome.metrics));
                }
                Err(e) => println!("{parallel}: skipped ({e})"),
            }
        }
    }
    if let Some((best, metrics)) = results
        .iter()
        .max_by(|a, b| a.1.mfu.partial_cmp(&b.1.mfu).unwrap())
    {
        println!();
        println!("best configuration: {best} with MFU {:.3}", metrics.mfu);
    }
}
