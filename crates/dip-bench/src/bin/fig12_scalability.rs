//! Fig. 12: planner search time versus microbatch count — DIP's decomposed
//! search against the monolithic exact-ILP baseline (the Gurobi/Z3 stand-in).
//! Planning goes through the session layer; the repeated-plan column shows
//! the cost of re-planning an already-seen shape from the plan cache. The
//! baseline runs on a fixed branch-and-bound node budget, so whether it
//! finishes — and how many nodes it explores — is the same on any machine.
//!
//! A second table reports the parallel planning engine's worker scaling:
//! the search space is pinned (8 streams × a fixed per-stream evaluation
//! quota) and only the physical worker count varies across 1/2/4/8, so
//! the produced plan is **bit-identical in every row** (asserted, and
//! exported as a determinism witness for the CI gate) while the wall
//! clock shows how much of the hardware the engine converts into planning
//! throughput (≈1.0 speedup on a single-core machine, approaching the
//! worker count on dedicated cores). The memopt columns expose the memory
//! ILP phase: its per-rank solves run on the same worker pool, so its
//! share of the plan wall clock drops as workers are added on multi-core
//! machines. Every wall column is read at a phase boundary on the planning
//! thread; no search stream or per-rank solve reads a clock, so the
//! "Speedup" column is the one measure of how the phases scale.
//!
//! With `DIP_BENCH_JSON=path` the run additionally emits a machine-readable
//! [`BenchReport`] for the `bench_check` CI gate.

use dip_bench::{fmt_ratio, print_table, vlm_batch, BenchReport, ExperimentScale, MetricKind};
use dip_core::{monolithic_ilp_search, PlanRequest, PlanTier, PlannerConfig, PlanningSession};
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::{separated_placement, ParallelConfig, StageGraphBuilder, SubMicrobatchPlan};
use dip_sim::ClusterTopology;
use std::collections::BTreeMap;
use std::time::Duration;

fn t2v_batch() -> BatchWorkload {
    BatchWorkload::new()
        .with(Modality::Text, ModalityWorkload::new(900, 6))
        .with(Modality::Video, ModalityWorkload::new(16 * 1560, 4))
}

/// Worker scaling on the largest workload: a pinned search space (8
/// streams × a fixed per-stream quota) executed by 1/2/4/8 physical
/// workers — bit-identical plans at every width, wall clock dropping with
/// workers on multi-core machines, and the memopt phase's share of the
/// plan wall clock dropping with them (its per-rank ILPs share the pool).
fn worker_scaling(scale: &ExperimentScale, report: &mut BenchReport) {
    const STREAMS: usize = 8;
    let spec = zoo::vlm_s();
    let cluster = ClusterTopology::h800_cluster(2);
    let parallel = ParallelConfig::new(4, 4, 1);
    let microbatches = scale.microbatches.max(8);
    let request = PlanRequest::new(vec![vlm_batch(24); microbatches]);
    // Large enough that the (parallelised) search dominates the plan wall
    // clock; split across the fixed stream count, never across workers.
    let total_evaluations: u64 = if scale.microbatches > 16 { 8192 } else { 2048 };

    let mut rows = Vec::new();
    let mut single_thread = None;
    let mut iteration_bits = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut config = PlannerConfig::default().with_num_threads(workers);
        // The search space is a pure function of (seed, streams, quota):
        // every worker count executes exactly the same 8 × quota
        // evaluations, so wall clock measures parallel efficiency and the
        // plan must come out bit-identical.
        config.search.time_budget = Duration::from_secs(3600);
        config.search.streams = STREAMS;
        config.search.max_evaluations = Some(total_evaluations.div_ceil(STREAMS as u64));
        let new_session = || {
            let mut session = PlanningSession::new(&spec, parallel, &cluster, config.clone());
            session
                .offline_partition(&vlm_batch(24))
                .expect("offline partitioning");
            session
        };
        // An untimed plan in a throwaway session first, so every width is
        // timed on warm caches and allocator, not only the widths after the
        // first.
        new_session().plan(&request).unwrap();
        let (outcome, execution) = new_session().plan_and_simulate(&request).unwrap();
        let stats = &outcome.plan.stats;
        let wall = stats.planning_time.as_secs_f64();
        let build_wall = stats.phases.graph_build.as_secs_f64();
        let memopt_wall = stats.phases.memopt.as_secs_f64();
        let memopt_share = memopt_wall / wall.max(f64::MIN_POSITIVE);
        let single = *single_thread.get_or_insert(wall);
        iteration_bits.push(execution.metrics.iteration_time_s.to_bits());
        rows.push(vec![
            workers.to_string(),
            format!("{wall:.3}"),
            fmt_ratio(single / wall),
            format!("{build_wall:.5}"),
            format!("{memopt_wall:.4}"),
            format!("{:.1}%", memopt_share * 100.0),
            stats.search_evaluations.to_string(),
            format!("{:.3}", execution.metrics.iteration_time_s),
        ]);
        let prefix = format!("scaling.w{workers}");
        report.push(format!("{prefix}.plan_wall_s"), MetricKind::Info, "s", wall);
        report.push(
            format!("{prefix}.graph_build_wall_s"),
            MetricKind::Info,
            "s",
            build_wall,
        );
        report.push(
            format!("{prefix}.memopt_wall_s"),
            MetricKind::Info,
            "s",
            memopt_wall,
        );
        report.push(
            format!("{prefix}.memopt_share"),
            MetricKind::Info,
            "ratio",
            memopt_share,
        );
        report.push(
            format!("{prefix}.evaluations"),
            MetricKind::Determinism,
            "count",
            stats.search_evaluations as f64,
        );
        report.push(
            format!("{prefix}.iteration_s"),
            MetricKind::SimTime,
            "s",
            execution.metrics.iteration_time_s,
        );
    }
    let identical = iteration_bits.windows(2).all(|w| w[0] == w[1]);
    assert!(
        identical,
        "worker count changed the plan: iteration times {iteration_bits:?} differ bit-wise"
    );
    report.push_flag("scaling.cross_worker_identical", identical);

    print_table(
        &format!("Fig. 12 (engine) — planner wall clock vs. workers, VLM-S ×{microbatches} microbatches, {STREAMS} streams × {} evaluations", total_evaluations.div_ceil(STREAMS as u64)),
        &[
            "Workers",
            "Plan wall (s)",
            "Speedup",
            "Build wall (s)",
            "Memopt wall (s)",
            "Memopt share",
            "Evaluations",
            "Iteration (s)",
        ],
        &rows,
    );
    println!("Expected shape: speedup approaches the worker count on dedicated cores (≥1.5x at 4 workers on ≥4-core machines); the memopt share of plan wall time drops as its per-rank ILPs spread over the pool; the build-wall column is the one serial graph expansion per plan (the memory plan is applied by an in-place reprice, never a rebuild), so it does not drop with workers; the plan itself is bit-identical in every row (asserted).");
}

fn main() {
    let scale = ExperimentScale::from_env();
    let mut report = BenchReport::from_env("fig12_scalability");
    // Branch-and-bound nodes the monolithic baseline may explore per case.
    let ilp_budget: u64 = (if scale.microbatches > 16 { 6 } else { 1 }) << 22;
    let mut rows = Vec::new();
    for (name, spec, batch) in [
        ("VLM-S", zoo::vlm_s(), vlm_batch(24)),
        ("T2V-S", zoo::t2v_s(), t2v_batch()),
    ] {
        let cluster = ClusterTopology::h800_cluster(2);
        let parallel = ParallelConfig::new(4, 4, 1);
        // One session per model; every microbatch count is a fresh
        // signature, planned cold.
        let session = PlanningSession::new(&spec, parallel, &cluster, {
            let mut c = PlannerConfig::default().with_num_threads(scale.workers);
            c.search.time_budget = Duration::from_millis(scale.search_ms);
            c
        });
        for microbatches in [2usize, 4, 6, 8] {
            let request = PlanRequest::new(vec![batch.clone(); microbatches]);

            // DIP's decomposed planner (cold for this signature).
            let outcome = session.plan(&request).unwrap();
            let dip_time = outcome.plan.stats.planning_time;
            // Re-planning the same shape is served from the plan cache.
            let repeat = session.plan(&request).unwrap();
            assert_eq!(repeat.tier, PlanTier::Exact);

            // Monolithic exact ILP over the same stage graph.
            let placement = separated_placement(&spec, parallel, &BTreeMap::new());
            let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
            let uniform = SubMicrobatchPlan::uniform(placement.segments.len(), microbatches);
            let graph = builder.build(request.microbatches(), &uniform).unwrap();
            // Give the monolithic formulation the same *binding* memory
            // budget the real problem has (about a quarter of the
            // unconstrained activation peak), so the exact solver actually
            // has to search the joint strategy space.
            let unconstrained: u64 = graph.items_on_rank(0).map(|i| i.activation_bytes / 2).sum();
            let budget = vec![(unconstrained / 4).max(1); graph.num_ranks];
            let mono =
                monolithic_ilp_search(&graph, placement.segments.len(), &budget, 8, ilp_budget);

            rows.push(vec![
                name.to_string(),
                microbatches.to_string(),
                format!("{:.3}", dip_time.as_secs_f64()),
                format!("{:.6}", repeat.plan.stats.planning_time.as_secs_f64()),
                if mono.budget_exhausted {
                    format!("> {ilp_budget} nodes (budget)")
                } else {
                    format!("{:.3}", mono.search_time.as_secs_f64())
                },
                outcome.plan.stats.search_evaluations.to_string(),
                mono.ilp_nodes.to_string(),
                outcome.plan.stats.memopt_constraint_entries.to_string(),
                mono.constraint_entries.to_string(),
            ]);
            let prefix = format!("search.{name}.mb{microbatches}");
            report.push(
                format!("{prefix}.dip_plan_wall_s"),
                MetricKind::Info,
                "s",
                dip_time.as_secs_f64(),
            );
            report.push(
                format!("{prefix}.cached_plan_wall_s"),
                MetricKind::Info,
                "s",
                repeat.plan.stats.planning_time.as_secs_f64(),
            );
            report.push(
                format!("{prefix}.dip_evaluations"),
                MetricKind::Determinism,
                "count",
                outcome.plan.stats.search_evaluations as f64,
            );
            report.push(
                format!("{prefix}.planned_time_s"),
                MetricKind::SimTime,
                "s",
                outcome.plan.stats.planned_time_s,
            );
            // The node budget bounds the baseline, so its node count
            // reproduces bit for bit on any machine.
            report.push(
                format!("{prefix}.monolithic_ilp_nodes"),
                MetricKind::Determinism,
                "count",
                mono.ilp_nodes as f64,
            );
            // Constraint entries each ILP formulation stored: every stage
            // pair's support once (memopt: summed over ranks; the
            // baseline: summed over every ordering's ILP).
            report.push(
                format!("{prefix}.memopt_constraint_entries"),
                MetricKind::Determinism,
                "count",
                outcome.plan.stats.memopt_constraint_entries as f64,
            );
            report.push(
                format!("{prefix}.monolithic_constraint_entries"),
                MetricKind::Determinism,
                "count",
                mono.constraint_entries as f64,
            );
        }
    }
    print_table(
        "Fig. 12 — planner search time vs. microbatch count",
        &[
            "Model",
            "#microbatch",
            "DIP search (s)",
            "DIP cached (s)",
            "Monolithic ILP (s)",
            "DIP evaluations",
            "ILP nodes",
            "Memopt ILP entries",
            "Monolithic ILP entries",
        ],
        &rows,
    );
    println!("Expected shape (paper): DIP stays below ~10 s regardless of microbatch count; the monolithic ILP blows up and exhausts its node budget.");
    println!("Expected shape (session layer): cached re-plans cost microseconds regardless of microbatch count.");

    worker_scaling(&scale, &mut report);
    report.write_if_requested();
}
