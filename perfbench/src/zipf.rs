//! `zipf_tiered`: VLM-S with the fuzzy tier over a Zipfian request stream.
//!
//! The set-up plans one anchor per canonical bucket of the stream cold, so
//! the timed phase is exact hits (lookup and clone) and fuzzy delta replans
//! (graph build, reprice and the tiny delta search); the full search and
//! the memory ILP stay idle. Traced rounds time `PlanningSession::plan`
//! itself, and replay each fuzzy request next to it: once through
//! `DipPlanner::plan_iteration_delta` and once layer by layer, both of
//! which must reproduce the served plan bit for bit.

use crate::common::{planner_config, tokens, Round};
use crate::trace::Tracer;
use dip_core::{
    ordering_from_priorities, search_ordering, BucketingConfig, DipPlan, DipPlanner,
    OrderingSearchConfig, PlanRequest, PlanTier, PlannerConfig, PlanningSession, SessionConfig,
};
use dip_models::{zoo, LmmSpec};
use dip_pipeline::dual_queue::ScheduleWorkspace;
use dip_pipeline::{DualQueueConfig, ParallelConfig, StageGraphBuilder};
use dip_sim::ClusterSpec;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Microbatches per request.
pub const MICROBATCHES: usize = 12;
/// Hot ranks (= canonical buckets) of the Zipf population.
pub const HOT: usize = 16;
/// In-bucket jitter variants per hot rank.
pub const VARIANTS: usize = 6;
/// Zipf exponent.
pub const EXPONENT: f64 = 1.1;

/// The generated inputs of one `zipf_tiered` run.
pub struct ZipfTiered {
    spec: LmmSpec,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    config: PlannerConfig,
    /// The first request of every canonical bucket, in stream order: the
    /// bucket anchors planned cold during set-up.
    anchors: Vec<PlanRequest>,
    requests: Vec<PlanRequest>,
}

impl ZipfTiered {
    /// A seeded stream of `length` requests.
    pub fn new(seed: u64, length: usize) -> Self {
        let bucketing = BucketingConfig::default();
        let requests = dip_bench::zipf_request_stream(
            length,
            HOT,
            VARIANTS,
            MICROBATCHES,
            EXPONENT,
            seed,
            &bucketing,
        );
        let mut buckets = BTreeSet::new();
        let anchors = requests
            .iter()
            .filter(|r| {
                buckets
                    .insert(dip_core::CanonicalSignature::of(r.microbatches(), &bucketing).as_u64())
            })
            .cloned()
            .collect();
        Self {
            spec: zoo::vlm_s(),
            cluster: ClusterSpec::h800_cluster(2),
            parallel: ParallelConfig::new(4, 4, 1),
            config: planner_config(),
            anchors,
            requests,
        }
    }

    /// Runs one round: set-up (session, offline partition, one cold anchor
    /// per bucket), then the whole stream.
    pub fn round(&self, tracer: &mut Tracer, next_id: &mut u64) -> Round {
        let mut round = Round {
            traced: tracer.enabled(),
            ..Round::default()
        };
        let setup_start = Instant::now();
        let session = PlanningSession::with_config(
            &self.spec,
            self.parallel,
            &self.cluster,
            self.config.clone(),
            SessionConfig::fuzzy(),
        );
        let offline_start = Instant::now();
        session
            .planner()
            .offline_partition_if_absent(&dip_bench::vlm_batch(12))
            .expect("offline partition of the representative microbatch");
        round
            .offline_ms
            .push(offline_start.elapsed().as_secs_f64() * 1e3);
        let mut anchors: HashMap<u64, DipPlan> = HashMap::new();
        for request in &self.anchors {
            let outcome = session.plan(request).expect("bucket anchor plans cold");
            round.check(outcome.tier == PlanTier::Cold, || {
                format!("anchor served from tier {:?}, not cold", outcome.tier)
            });
            let key = session.fuzzy_key(request).expect("fuzzy tier enabled");
            anchors.insert(key, outcome.plan);
        }
        let mut ws = ScheduleWorkspace::new();
        round.setup_s.push(setup_start.elapsed().as_secs_f64());
        round.count("session.anchors", self.anchors.len() as u64);

        let before = session.stats();
        for request in &self.requests {
            let id = *next_id;
            *next_id += 1;
            let tokens = tokens(request.microbatches());
            let (outcome, timing) = tracer.timed("session.plan", id, |_| session.plan(request));
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(_) => {
                    round.failed_request(id, PlanTier::Cold, timing, tokens);
                    continue;
                }
            };
            if tracer.enabled() && outcome.tier == PlanTier::Fuzzy {
                let key = session.fuzzy_key(request).expect("fuzzy tier enabled");
                let anchor = &anchors[&key];
                self.replay_fuzzy(
                    session.planner(),
                    request,
                    anchor,
                    &outcome.plan,
                    tracer,
                    id,
                )
                .into_iter()
                .for_each(|failure| round.failures.push(failure));
            }
            round.served_plan(
                id,
                outcome.tier,
                timing,
                tokens,
                &outcome.plan,
                session.planner(),
                tracer,
                &mut ws,
            );
        }
        let after = session.stats();
        round.count("session.requests", after.requests - before.requests);
        round.count("session.exact_hits", after.exact_hits - before.exact_hits);
        round.count("session.fuzzy_hits", after.fuzzy_hits - before.fuzzy_hits);
        round.count(
            "session.cold_plans",
            after.cache_misses - before.cache_misses,
        );
        round.count(
            "session.delta_replans",
            after.delta_replans - before.delta_replans,
        );
        round
    }

    /// Replays a fuzzy-served request under a `replay.fuzzy` span: through
    /// `plan_iteration_delta`, then layer by layer (graph prepare/build,
    /// reprice under the anchor's memory plan, the seeded delta search).
    /// Returns the failed checks.
    fn replay_fuzzy(
        &self,
        planner: &DipPlanner<'_>,
        request: &PlanRequest,
        anchor: &DipPlan,
        served: &DipPlan,
        tracer: &mut Tracer,
        id: u64,
    ) -> Vec<String> {
        let config = &self.config;
        let topology = planner.topology();
        let microbatches = request.microbatches();
        let served_bits = served.stats.planned_time_s.to_bits();
        tracer.span("replay.fuzzy", id, |t| {
            let mut failures = Vec::new();
            let via_planner = t.span("planner.plan_iteration_delta", id, |_| {
                planner.plan_iteration_delta(microbatches, anchor)
            });
            if via_planner
                .as_ref()
                .map_or(true, |p| p.stats.planned_time_s.to_bits() != served_bits)
            {
                failures.push(format!(
                    "request {id}: plan_iteration_delta does not reproduce the served plan"
                ));
            }
            let builder = StageGraphBuilder::new_on(&self.spec, &anchor.placement, topology)
                .with_efficiency(config.efficiency)
                .with_workers(config.search.workers.max(1));
            let Ok(prepared) = t.span("graph.prepare", id, |_| {
                builder.prepare(microbatches, &anchor.sub_microbatches)
            }) else {
                failures.push(format!("request {id}: graph prepare failed in the replay"));
                return failures;
            };
            let (mut graph, _) = t.span("graph.build_prepared", id, |_| {
                builder.build_prepared(&prepared)
            });
            t.span("graph.reprice", id, |_| graph.reprice(&anchor.memory_plan));
            let budget = topology.activation_budget(&graph.static_memory, self.parallel.tp);
            let delta_config = OrderingSearchConfig {
                time_budget: config.search.delta_budget,
                dual_queue: DualQueueConfig {
                    memory_limit: Some(budget),
                    ..DualQueueConfig::default()
                },
                seed_ordering: Some(ordering_from_priorities(&anchor.segment_priorities)),
                ..config.search.clone()
            };
            let segments = anchor.placement.segments.len();
            let replayed = t.span("ordering.search_ordering", id, |_| {
                search_ordering(&graph, segments, &delta_config)
            });
            if replayed.best_time_s.to_bits() != served_bits {
                failures.push(format!(
                    "request {id}: the layer-by-layer replay does not reproduce the served plan"
                ));
            }
            failures
        })
    }
}
