//! Text-to-video training (T2V-S: Llama3 8B encoder + DiT 5B decoder) with
//! DIP, compared against Megatron-LM over the same clip-grouped microbatches.
//!
//! Run with: `cargo run --release --example t2v_training`

use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
use dip_data::{BatchGenerator, DatasetMix};
use dip_models::zoo;
use dip_pipeline::baselines::{simulate_megatron, BaselineContext};
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;

fn main() {
    let spec = zoo::t2v_s();
    let cluster = ClusterTopology::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);

    let mut generator = BatchGenerator::t2v(DatasetMix::t2v_default(), 8, 7);
    let session = PlanningSession::new(&spec, parallel, &cluster, PlannerConfig::fast());
    let ctx = BaselineContext::new(&spec, parallel, &cluster);

    println!(
        "model: {} ({:.1}B parameters)",
        spec.name(),
        spec.param_billions()
    );
    let mut dip_total = 0.0;
    let mut megatron_total = 0.0;
    for iter in 0..4 {
        let batches = generator.next_batch().workloads();
        let megatron = simulate_megatron(&ctx, &batches, 1).unwrap().metrics;
        let (_, dip) = session
            .plan_and_simulate(&PlanRequest::new(batches))
            .unwrap();
        println!(
            "iter {iter}: Megatron-LM {:.3} s | DIP {:.3} s | DIP gain {:+.1}%",
            megatron.iteration_time_s,
            dip.metrics.iteration_time_s,
            dip.metrics.speedup_percent_over(&megatron)
        );
        dip_total += dip.metrics.iteration_time_s;
        megatron_total += megatron.iteration_time_s;
    }
    println!();
    println!(
        "overall: DIP {:.3} s/iter vs Megatron-LM {:.3} s/iter ({:+.1}% throughput)",
        dip_total / 4.0,
        megatron_total / 4.0,
        (megatron_total / dip_total - 1.0) * 100.0
    );
    let stats = session.stats();
    println!(
        "planner: {} plans, search {:.0} ms, memory opt {:.0} ms",
        stats.requests,
        stats.phases.search.as_secs_f64() * 1e3,
        stats.phases.memopt.as_secs_f64() * 1e3,
    );
}
