//! Fig. 8b: per-iteration latency timeline under the rise-and-fall
//! image-count envelope, for Megatron-LM, nnScaler*, Optimus, DIP (no-opt)
//! and DIP.
//!
//! The 40-iteration envelope is two passes over the same 20-iteration
//! pattern. We record the first pass and replay it, so the second pass
//! repeats the workload signatures of the first — exactly the repetition
//! DIP's planning-session cache exploits: pass 2 is served from the plan
//! cache with identical simulated iteration times and (near-)zero planning
//! cost. The session statistics printed at the end make the saving
//! observable.
//!
//! The `zipf.*` section stresses the *fuzzy* tier instead: a seeded
//! Zipfian stream over a skewed shape population keeps producing fresh
//! exact signatures inside hot canonical buckets, so the fuzzy tier's
//! reprice plus one interleave pass — not the exact cache — has to absorb
//! the traffic. It reports per-tier
//! planning-latency percentiles, the simulated-regret envelope of
//! fuzzy-served plans and a cross-worker bit-identity witness.

use dip_bench::{fmt_s, print_table, BenchReport, ExperimentScale, MetricKind};
use dip_core::{PlanRequest, PlanTier, PlannerConfig, PlanningSession, SessionStats};
use dip_data::{BatchGenerator, DatasetMix, DynamicWorkloadController, ImageBoundSchedule};
use dip_models::zoo;
use dip_pipeline::baselines::{
    nnscaler_static_plan, simulate_megatron, simulate_nnscaler, simulate_optimus, BaselineContext,
};
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterSpec;

fn print_session_stats(name: &str, stats: &SessionStats) {
    println!(
        "{name:<12} planning: {} plans | cache {} hits / {} misses (hit rate {:.0}%) | \
         total {:.0} ms = partition {:.0} ms + graph build {:.0} ms + search {:.0} ms + memopt {:.0} ms",
        stats.requests,
        stats.exact_hits,
        stats.cache_misses,
        stats.hit_rate() * 100.0,
        stats.planning_time().as_secs_f64() * 1e3,
        stats.phases.partition.as_secs_f64() * 1e3,
        stats.phases.graph_build.as_secs_f64() * 1e3,
        stats.phases.search.as_secs_f64() * 1e3,
        stats.phases.memopt.as_secs_f64() * 1e3,
    );
}

fn main() {
    let scale = ExperimentScale::from_env();
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let ctx = BaselineContext::new(&spec, parallel, &cluster);

    // Record one 20-iteration rise-and-fall pattern, then replay it twice:
    // the second pass revisits the exact workload shapes of the first.
    let generator = BatchGenerator::vlm(DatasetMix::vlm_default(), scale.microbatches, 8);
    let mut controller = DynamicWorkloadController::new(
        generator,
        ImageBoundSchedule::new(ImageBoundSchedule::fig8b().iter().take(20).collect()),
    );
    let trace = controller.collect_trace();

    let representative = dip_bench::vlm_batch(12);
    let static_plan = nnscaler_static_plan(&ctx, &representative, 1);
    let mut dip = PlanningSession::new(&spec, parallel, &cluster, scale.planner_config());
    dip.offline_partition(&representative)
        .expect("offline partitioning");
    let mut dip_no_opt = PlanningSession::new(&spec, parallel, &cluster, PlannerConfig::no_opt());
    dip_no_opt
        .offline_partition(&representative)
        .expect("offline partitioning");

    let mut report = BenchReport::from_env("fig8b_dynamic");
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 5];
    let mut dip_times = Vec::new();
    for iteration in trace.replay(2) {
        let request = PlanRequest::new(iteration.batch.workloads());
        let avg_images = iteration.batch.avg_images_per_microbatch();
        let batches = request.microbatches();
        let megatron = simulate_megatron(&ctx, batches, 1).unwrap().metrics;
        let nnscaler = simulate_nnscaler(&ctx, &static_plan, batches)
            .unwrap()
            .metrics;
        let optimus = simulate_optimus(&ctx, batches).unwrap().metrics;
        let (no_opt_plan, no_opt) = dip_no_opt.plan_and_simulate(&request).unwrap();
        let (full_plan, full) = dip.plan_and_simulate(&request).unwrap();
        for (sum, value) in sums.iter_mut().zip([
            megatron.iteration_time_s,
            nnscaler.iteration_time_s,
            optimus.iteration_time_s,
            no_opt.metrics.iteration_time_s,
            full.metrics.iteration_time_s,
        ]) {
            *sum += value;
        }
        dip_times.push(full.metrics.iteration_time_s);
        let full_cached = full_plan.tier == PlanTier::Exact;
        let no_opt_cached = no_opt_plan.tier == PlanTier::Exact;
        rows.push(vec![
            iteration.iteration.to_string(),
            format!("{avg_images:.1}"),
            fmt_s(megatron.iteration_time_s),
            fmt_s(nnscaler.iteration_time_s),
            fmt_s(optimus.iteration_time_s),
            fmt_s(no_opt.metrics.iteration_time_s),
            fmt_s(full.metrics.iteration_time_s),
            format!(
                "{:.1}{}",
                full_plan.plan.stats.planning_time.as_secs_f64() * 1e3,
                if full_cached { " (cached)" } else { "" }
            ),
            if no_opt_cached { "hit" } else { "miss" }.to_string(),
        ]);
    }
    print_table(
        "Fig. 8b — iteration-time timeline under the rise-and-fall image envelope",
        &[
            "Iter",
            "Avg #images",
            "Megatron-LM",
            "nnScaler*",
            "Optimus",
            "DIP (no-opt)",
            "DIP",
            "DIP plan (ms)",
            "no-opt cache",
        ],
        &rows,
    );
    print_session_stats("DIP", &dip.stats());
    print_session_stats("DIP (no-opt)", &dip_no_opt.stats());
    println!();
    println!("Expected shape (paper): DIP lowest throughout; Megatron-LM degrades most when image counts peak; nnScaler* degrades when they vanish.");
    println!("Expected shape (session layer): pass 2 (iterations 20+) hits the plan cache — identical iteration times at (near-)zero planning cost.");

    let iterations = rows.len() as f64;
    for (name, sum) in ["megatron", "nnscaler", "optimus", "dip_no_opt", "dip"]
        .iter()
        .zip(sums)
    {
        report.push(
            format!("envelope.{name}.mean_iteration_s"),
            MetricKind::SimTime,
            "s",
            sum / iterations,
        );
    }
    // Pass 2 replays pass 1's workload signatures: with the deterministic
    // planner the cache must serve bit-identical iteration times.
    let (pass1, pass2) = dip_times.split_at(dip_times.len() / 2);
    let replay_identical = pass1
        .iter()
        .zip(pass2)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    report.push_flag("envelope.cache_replay_identical", replay_identical);
    let stats = dip.stats();
    report.push(
        "envelope.dip.exact_hits",
        MetricKind::Determinism,
        "count",
        stats.exact_hits as f64,
    );
    report.push(
        "envelope.dip.cache_misses",
        MetricKind::Determinism,
        "count",
        stats.cache_misses as f64,
    );
    report.push(
        "envelope.dip.planning_wall_s",
        MetricKind::Info,
        "s",
        stats.planning_time().as_secs_f64(),
    );
    report.push(
        "envelope.dip.graph_build_wall_s",
        MetricKind::Info,
        "s",
        stats.phases.graph_build.as_secs_f64(),
    );

    batch_planning_scaling(
        &spec,
        parallel,
        &cluster,
        &trace,
        &representative,
        &mut report,
    );
    zipf_dynamic_traffic(&spec, parallel, &cluster, &representative, &mut report);
    report.write_if_requested();
}

/// The `q`-th percentile of `values` (nearest-rank on the sorted copy).
fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Zipfian dynamic traffic over a skewed shape population: hot base shapes
/// keep arriving as fresh in-bucket jitter variants, so the exact tier
/// alone cannot absorb them — the fuzzy tier must. The
/// section reports per-tier planning-latency percentiles, the
/// simulated-regret envelope of the fuzzy-served plans against fresh cold
/// plans, and a cross-worker bit-identity witness; CI gates the tier
/// counts, the regret bound and `delta p99 < cold p50`.
fn zipf_dynamic_traffic(
    spec: &dip_models::LmmSpec,
    parallel: ParallelConfig,
    cluster: &ClusterSpec,
    representative: &dip_models::BatchWorkload,
    report: &mut BenchReport,
) {
    use dip_bench::zipf_request_stream;
    use dip_core::{BucketingConfig, PlanTier, SessionConfig};
    use std::time::Instant;

    let scale = ExperimentScale::from_env();
    let bucketing = BucketingConfig::default();
    let (length, hot, variants) = if ExperimentScale::name_from_env() == "full" {
        (200, 12, 6)
    } else {
        (60, 8, 4)
    };
    let stream = zipf_request_stream(
        length,
        hot,
        variants,
        scale.microbatches,
        1.1,
        0xd1b0_5eed,
        &bucketing,
    );

    let mut config = scale.planner_config();
    config.search.workers = 1;
    let session = PlanningSession::with_config(
        spec,
        parallel,
        cluster,
        config.clone(),
        SessionConfig::fuzzy(),
    );
    session
        .planner()
        .offline_partition_if_absent(representative)
        .expect("offline partitioning");

    // A cold reference session (no caches at all) prices the regret of
    // every fuzzy-served plan against a fresh full plan of the same shape.
    let cold_reference = PlanningSession::with_config(
        spec,
        parallel,
        cluster,
        config.clone(),
        SessionConfig::cold(),
    );
    cold_reference
        .planner()
        .offline_partition_if_absent(representative)
        .expect("offline partitioning");

    const MAX_REGRET_PROBES: usize = 12;
    const REGRET_EPSILON: f64 = 0.10;
    let mut latencies: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut max_regret = 0.0f64;
    let mut regret_probes = 0usize;
    // The graph each signature was last planned with: an exact hit must
    // hand out that cached storage, not a copy of it.
    let mut planned_graphs = std::collections::HashMap::<_, dip_pipeline::StageGraph>::new();
    let mut exact_hits_share_graph = true;
    for request in &stream {
        let start = Instant::now();
        let outcome = session.plan(request).expect("zipf stream plans");
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let tier_idx = match outcome.tier {
            // The stream never retargets the session, so no request is
            // served by the elastic tier; it is binned with cold plans.
            PlanTier::Cold | PlanTier::Elastic => 0,
            PlanTier::Fuzzy => 1,
            PlanTier::Exact => 2,
        };
        latencies[tier_idx].push(latency_ms);
        if outcome.tier == PlanTier::Exact {
            exact_hits_share_graph &= planned_graphs
                .get(&outcome.signature)
                .is_some_and(|graph| graph.shares_storage_with(&outcome.plan.graph));
        } else {
            planned_graphs.insert(outcome.signature, outcome.plan.graph.clone());
        }
        if outcome.tier == PlanTier::Fuzzy && regret_probes < MAX_REGRET_PROBES {
            regret_probes += 1;
            let fuzzy_time = session
                .simulate(&outcome.plan)
                .expect("fuzzy plan simulates")
                .metrics
                .iteration_time_s;
            let fresh = cold_reference.plan(request).expect("fresh reference plan");
            let fresh_time = cold_reference
                .simulate(&fresh.plan)
                .expect("fresh plan simulates")
                .metrics
                .iteration_time_s;
            max_regret = max_regret.max(fuzzy_time / fresh_time - 1.0);
        }
    }
    if regret_probes == MAX_REGRET_PROBES {
        println!(
            "zipf: regret priced on the first {MAX_REGRET_PROBES} fuzzy hits \
             (later fuzzy hits unpriced)"
        );
    }

    let stats = session.stats();
    assert_eq!(
        stats.requests,
        stats.exact_hits + stats.fuzzy_hits + stats.cache_misses,
        "tier totals must partition the request count"
    );
    let mut rows = Vec::new();
    for (name, tier) in ["cold", "fuzzy", "exact"].iter().zip(&latencies) {
        let (p50, p99) = if tier.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (percentile(tier, 0.50), percentile(tier, 0.99))
        };
        rows.push(vec![
            name.to_string(),
            tier.len().to_string(),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
        ]);
        report.push(
            format!("zipf.{name}.requests"),
            MetricKind::Determinism,
            "count",
            tier.len() as f64,
        );
        if !tier.is_empty() {
            report.push(format!("zipf.{name}.p50_ms"), MetricKind::Info, "ms", p50);
            report.push(format!("zipf.{name}.p99_ms"), MetricKind::Info, "ms", p99);
        }
    }
    print_table(
        "Fig. 8b (zipf) — planning-latency percentiles per lookup tier under Zipfian traffic",
        &["Tier", "Requests", "p50 (ms)", "p99 (ms)"],
        &rows,
    );
    println!(
        "zipf: {} fuzzy hits, one interleave pass each | max simulated regret of fuzzy-served \
         plans {:.3}% (bound {:.0}%)",
        stats.fuzzy_hits,
        max_regret * 100.0,
        REGRET_EPSILON * 100.0
    );
    println!(
        "Expected shape: fuzzy-tier p99 sits well below cold p50 — a fuzzy hit skips the \
         partitioner, the ordering search and the memory ILP: one reprice, one interleave pass."
    );

    report.push(
        "zipf.delta_replans",
        MetricKind::Determinism,
        "count",
        stats.delta_replans as f64,
    );
    report.push("zipf.max_regret", MetricKind::Info, "ratio", max_regret);
    report.push_flag("zipf.regret_ok", max_regret <= REGRET_EPSILON);
    report.push_flag(
        "zipf.exact_hits_share_graph",
        !latencies[2].is_empty() && exact_hits_share_graph,
    );
    let delta_fast = !latencies[1].is_empty()
        && !latencies[0].is_empty()
        && percentile(&latencies[1], 0.99) < percentile(&latencies[0], 0.50);
    report.push_flag("zipf.delta_p99_below_cold_p50", delta_fast);
    if !latencies[0].is_empty() && !latencies[1].is_empty() {
        report.push(
            "zipf.fuzzy_p99_over_cold_p50",
            MetricKind::LatencyRatio,
            "ratio",
            percentile(&latencies[1], 0.99) / percentile(&latencies[0], 0.50),
        );
    }

    // Cross-worker bit-identity: replay a prefix of the stream at two
    // search-worker counts; every tier decision and simulated time must
    // reproduce bit for bit.
    let prefix = &stream[..stream.len().min(16)];
    let replay = |workers: usize| -> Vec<(PlanTier, u64)> {
        let mut config = scale.planner_config();
        config.search.workers = workers;
        let session =
            PlanningSession::with_config(spec, parallel, cluster, config, SessionConfig::fuzzy());
        session
            .planner()
            .offline_partition_if_absent(representative)
            .expect("offline partitioning");
        prefix
            .iter()
            .map(|request| {
                let outcome = session.plan(request).expect("replay plans");
                let time = session
                    .simulate(&outcome.plan)
                    .expect("replay plan simulates")
                    .metrics
                    .iteration_time_s;
                (outcome.tier, time.to_bits())
            })
            .collect()
    };
    let identical = replay(1) == replay(4);
    report.push_flag("zipf.cross_worker_identical", identical);
    println!(
        "zipf: tier decisions and simulated times at 1 vs 4 search workers: {}",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
}

/// Parallel-engine scaling on the recorded pass: `plan_many` plans all 20
/// distinct iterations of the envelope through worker pools of 1/2/4/8
/// threads (search parallelism pinned to one worker so only the pool width
/// varies) and reports the batch-planning wall clock.
fn batch_planning_scaling(
    spec: &dip_models::LmmSpec,
    parallel: ParallelConfig,
    cluster: &ClusterSpec,
    trace: &dip_data::WorkloadTrace,
    representative: &dip_models::BatchWorkload,
    report: &mut BenchReport,
) {
    use dip_bench::fmt_ratio;
    use std::time::{Duration, Instant};

    let requests: Vec<PlanRequest> = trace
        .replay(1)
        .map(|iteration| PlanRequest::new(iteration.batch.workloads()))
        .collect();

    let mut rows = Vec::new();
    let mut single_thread = None;
    for threads in [1usize, 2, 4, 8] {
        let mut config = PlannerConfig {
            num_threads: threads,
            ..PlannerConfig::default()
        };
        config.search.workers = 1;
        // Evaluation-bounded so every pool width does the same search work.
        config.search.time_budget = Duration::from_secs(3600);
        config.search.max_evaluations = Some(64);
        let mut session = PlanningSession::new(spec, parallel, cluster, config);
        session
            .offline_partition(representative)
            .expect("offline partitioning");
        let start = Instant::now();
        let outcomes = session.plan_many(&requests);
        let wall = start.elapsed().as_secs_f64();
        let planned = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(planned, requests.len(), "every iteration plans");
        let single = *single_thread.get_or_insert(wall);
        rows.push(vec![
            threads.to_string(),
            format!("{wall:.3}"),
            fmt_ratio(single / wall),
            planned.to_string(),
        ]);
        report.push(
            format!("pool.t{threads}.wall_s"),
            MetricKind::Info,
            "s",
            wall,
        );
        report.push(
            format!("pool.t{threads}.plans"),
            MetricKind::Determinism,
            "count",
            planned as f64,
        );
    }
    print_table(
        "Fig. 8b (engine) — batch-planning wall clock vs. plan_many pool width (one recorded pass)",
        &["Threads", "Wall (s)", "Speedup", "Plans"],
        &rows,
    );
    println!("Expected shape: speedup approaches the pool width on dedicated cores; ≈1.0 on a single-core machine.");
}
