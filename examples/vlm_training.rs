//! A multi-iteration VLM-M training loop under dynamic multimodal data,
//! demonstrating the asynchronous planner: while the cluster "executes" the
//! current iteration, the next iteration's schedule is generated on a CPU
//! worker thread from prefetched metadata (§3.2).
//!
//! Run with: `cargo run --release --example vlm_training`

use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
use dip_data::{BatchGenerator, DatasetMix};
use dip_models::zoo;
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;
use std::time::Duration;

fn main() {
    let spec = zoo::vlm_m();
    let cluster = ClusterTopology::h800_cluster(4);
    let parallel = ParallelConfig::new(8, 4, 1);
    let mut config = PlannerConfig::fast();
    config.search.time_budget = Duration::from_millis(200);
    let mut session = PlanningSession::new(&spec, parallel, &cluster, config);

    let mut generator = BatchGenerator::vlm(DatasetMix::vlm_default(), 8, 1234);
    let iterations = 6;

    // Prefetch metadata for the first iteration.
    let mut next_request = PlanRequest::new(generator.next_batch().workloads());
    session
        .offline_partition(&next_request.microbatches()[0])
        .expect("offline partitioning");

    let mut total_time = 0.0;
    let mut total_flops = 0.0;
    for iter in 0..iterations {
        let current = next_request;
        // Prefetch the following iteration's metadata (step ① of §3.2).
        let upcoming = PlanRequest::new(generator.next_batch().workloads());

        // Plan the *next* iteration asynchronously while the current plan is
        // being executed on the (simulated) GPUs. The current iteration was
        // planned the same way one iteration earlier, so from the second
        // iteration on its plan is served from the session's cache.
        let (current_outcome, next_plan) = std::thread::scope(|scope| {
            let session = &session;
            let upcoming = &upcoming;
            let handle =
                scope.spawn(move || session.plan(upcoming).expect("plans the next iteration"));
            let plan = session.plan(&current).expect("plans this iteration").plan;
            let outcome = session.simulate(&plan).expect("simulates this iteration");
            (outcome, handle.join().expect("the planner thread finishes"))
        });

        total_time += current_outcome.metrics.iteration_time_s;
        total_flops += current_outcome.metrics.model_flops;
        println!(
            "iter {iter:>2}: {:>6.3} s | MFU {:.3} | peak mem {:>5.1} GB | next schedule searched in {:>4.0} ms",
            current_outcome.metrics.iteration_time_s,
            current_outcome.metrics.mfu,
            current_outcome.metrics.peak_memory_bytes as f64 / 1e9,
            next_plan.plan.stats.planning_time.as_secs_f64() * 1e3,
        );
        next_request = upcoming;
    }
    println!();
    println!(
        "trained {iterations} iterations: avg {:.3} s/iter, aggregate MFU {:.3}",
        total_time / iterations as f64,
        total_flops
            / (total_time * cluster.reference_device().peak_flops * parallel.num_gpus() as f64)
    );
    let stats = session.stats();
    println!(
        "session: {} requests, {} cold plans, {} served from the cache",
        stats.requests, stats.cache_misses, stats.exact_hits
    );
}
