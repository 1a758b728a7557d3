//! `cold_vlm`: VLM-S on 2×8 H800, dataset-drawn requests, no plan reuse.
//!
//! Every request runs the full cold path, so the ordering search and the
//! dual-queue kernel do almost all the work and the session cache none.
//! Untraced rounds call `PlanningSession::plan`; traced rounds call the
//! layers of the cold path directly (partitioner, graph, ordering, memopt,
//! reprice, interleave) and must reproduce `plan()`'s plans bit for bit.

use crate::common::{planner_config, tokens, Round};
use crate::trace::Tracer;
use dip_core::{
    optimize_memory_detailed, search_ordering, DipPlan, ModalityAwarePartitioner,
    OrderingSearchConfig, PartitionerOutput, PlanRequest, PlanTier, PlannerConfig, PlannerStats,
    PlanningSession, SessionConfig,
};
use dip_data::{BatchGenerator, DatasetMix};
use dip_models::{zoo, BatchWorkload, LmmSpec};
use dip_pipeline::dual_queue::{self, ScheduleWorkspace};
use dip_pipeline::{DualQueueConfig, ParallelConfig, StageGraphBuilder};
use dip_sim::ClusterSpec;
use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

/// Microbatches per request.
pub const MICROBATCHES: usize = 12;
/// Set-ups per round.
const SETUP_REPEATS: usize = 16;

/// The generated inputs of one `cold_vlm` run.
pub struct ColdVlm {
    spec: LmmSpec,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    config: PlannerConfig,
    representative: BatchWorkload,
    requests: Vec<PlanRequest>,
}

impl ColdVlm {
    /// `count` distinct dataset-drawn requests from `seed`.
    pub fn new(seed: u64, count: usize) -> Self {
        let mut generator = BatchGenerator::vlm(DatasetMix::vlm_default(), MICROBATCHES, seed);
        let mut seen = HashSet::new();
        let mut requests = Vec::with_capacity(count);
        while requests.len() < count {
            let request = PlanRequest::new(generator.next_batch().workloads());
            if seen.insert(request.signature()) {
                requests.push(request);
            }
        }
        Self {
            spec: zoo::vlm_s(),
            cluster: ClusterSpec::h800_cluster(2),
            parallel: ParallelConfig::new(4, 4, 1),
            config: planner_config(),
            // The offline partition's representative microbatch: a packed
            // 8192-token sequence with 12 images, as in fig8b.
            representative: dip_bench::vlm_batch(12),
            requests,
        }
    }

    /// Runs one round: set-up, then every request in order.
    pub fn round(&self, tracer: &mut Tracer, next_id: &mut u64) -> Round {
        let mut round = Round {
            traced: tracer.enabled(),
            ..Round::default()
        };
        // Set-up is microseconds here, so it runs several times per round
        // and the median is reported; the last set-up serves the requests.
        let mut setup = None;
        for _ in 0..SETUP_REPEATS {
            let setup_start = Instant::now();
            let session = PlanningSession::with_config(
                &self.spec,
                self.parallel,
                &self.cluster,
                self.config.clone(),
                SessionConfig::cold(),
            );
            let offline_start = Instant::now();
            let partition = session
                .planner()
                .offline_partition_if_absent(&self.representative)
                .expect("offline partition of the representative microbatch");
            round
                .offline_ms
                .push(offline_start.elapsed().as_secs_f64() * 1e3);
            let partitioner = ModalityAwarePartitioner::new(
                &self.spec,
                self.parallel,
                *session.planner().timing(),
                self.config.partitioner,
            )
            .on_topology(session.planner().topology());
            round.setup_s.push(setup_start.elapsed().as_secs_f64());
            setup = Some((session, partition, partitioner));
        }
        let (session, partition, partitioner) = setup.expect("at least one set-up");
        let mut ws = ScheduleWorkspace::new();

        let before = session.stats();
        for request in &self.requests {
            let id = *next_id;
            *next_id += 1;
            let tokens = tokens(request.microbatches());
            let root = tracer.spans().len();
            let (planned, timing) = tracer.timed("session.plan", id, |t| {
                if t.enabled() {
                    self.cold_path_by_layer(&session, &partition, &partitioner, request, t, id)
                } else {
                    session.plan(request).map(|outcome| outcome.plan)
                }
            });
            if tracer.enabled() {
                let spans = tracer.spans();
                let covered: u64 = spans[root + 1..]
                    .iter()
                    .filter(|s| s.parent == Some(root))
                    .map(|s| s.duration_ns())
                    .sum();
                let coverage = covered as f64 / spans[root].duration_ns().max(1) as f64;
                round.check(coverage >= 0.9, || {
                    format!("request {id}: child spans cover only {coverage:.3} of session.plan")
                });
            }
            match planned {
                Ok(plan) => round.served_plan(
                    id,
                    plan.stats.tier,
                    timing,
                    tokens,
                    &plan,
                    session.planner(),
                    tracer,
                    &mut ws,
                ),
                Err(_) => round.failed_request(id, PlanTier::Cold, timing, tokens),
            }
        }
        if !tracer.enabled() {
            let after = session.stats();
            round.count("session.requests", after.requests - before.requests);
            round.count("session.exact_hits", after.exact_hits - before.exact_hits);
            round.count("session.fuzzy_hits", after.fuzzy_hits - before.fuzzy_hits);
            round.count(
                "session.cold_plans",
                after.cache_misses - before.cache_misses,
            );
        } else {
            // The traced path bypasses the session: every request is cold.
            round.count("session.requests", self.requests.len() as u64);
            round.count("session.exact_hits", 0);
            round.count("session.fuzzy_hits", 0);
            round.count("session.cold_plans", self.requests.len() as u64);
        }
        round
    }

    /// The cold path of `DipPlanner::plan_iteration` (no warm start, as
    /// under `SessionConfig::cold()`), one span per layer call.
    fn cold_path_by_layer(
        &self,
        session: &PlanningSession<'_>,
        partition: &PartitionerOutput,
        partitioner: &ModalityAwarePartitioner<'_>,
        request: &PlanRequest,
        tracer: &mut Tracer,
        id: u64,
    ) -> Result<DipPlan, dip_core::DipError> {
        let config = &self.config;
        let topology = session.planner().topology();
        let workers = config.search.workers.max(1);
        let microbatches = request.microbatches();
        let sub_plan = tracer.span("partitioner.sub_microbatch_plan", id, |_| {
            partitioner.sub_microbatch_plan(partition, microbatches)
        });
        let builder = StageGraphBuilder::new_on(&self.spec, &partition.placement, topology)
            .with_efficiency(config.efficiency)
            .with_workers(workers);
        let prepared = tracer.span("graph.prepare", id, |_| {
            builder.prepare(microbatches, &sub_plan)
        })?;
        let (mut graph, _) = tracer.span("graph.build_prepared", id, |_| {
            builder.build_prepared(&prepared)
        });
        let budget = topology.activation_budget(&graph.static_memory, self.parallel.tp);
        let base_queue = DualQueueConfig {
            memory_limit: Some(budget.clone()),
            ..DualQueueConfig::default()
        };
        let search_config = OrderingSearchConfig {
            dual_queue: base_queue.clone(),
            seed_ordering: None,
            ..config.search.clone()
        };
        let segments = partition.placement.segments.len();
        let searched = tracer.span("ordering.search_ordering", id, |_| {
            search_ordering(&graph, segments, &search_config)
        });
        let memopt = tracer.span("memopt.optimize_memory_detailed", id, |_| {
            optimize_memory_detailed(&graph, &searched.orders, &budget, &config.memory, workers)
        })?;
        tracer.span("graph.reprice", id, |_| graph.reprice(&memopt.plan));
        let queue = DualQueueConfig {
            segment_priorities: searched.segment_priorities.clone(),
            ..base_queue
        };
        let (orders, planned_time_s) = tracer.span("dual_queue.schedule", id, |_| {
            dual_queue::schedule(&graph, &queue)
        });
        Ok(DipPlan {
            graph,
            orders,
            segment_priorities: searched.segment_priorities,
            memory_plan: memopt.plan,
            sub_microbatches: sub_plan,
            placement: partition.placement.clone(),
            modalities: microbatches
                .iter()
                .flat_map(BatchWorkload::modalities)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect(),
            topology_fingerprint: topology.fingerprint(),
            stats: PlannerStats {
                search_evaluations: searched.evaluations,
                planned_time_s,
                tier: PlanTier::Cold,
                ..PlannerStats::default()
            },
        })
    }
}
