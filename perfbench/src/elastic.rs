//! `elastic_t2v`: T2V-S (diffusion) on 2 H800 + 1 H20 nodes under seeded
//! faults.
//!
//! The run replays back-to-back short seeded `FailureSchedule`s, each
//! starting from the base topology so the cluster stays small. Every
//! topology change is one request: a planner on the new topology
//! (`DipPlanner::on_topology`) and an elastic replan of the running plan
//! (`DipPlanner::replan_elastic`). The replanned plan becomes the running
//! plan for the schedule's next change. The set-up plans one cold base plan
//! per batch of the pool the schedules draw from.

use crate::common::{planner_config, tokens, Round};
use crate::trace::Tracer;
use dip_core::{DipPlan, DipPlanner, ElasticConfig, PlanTier, PlannerConfig};
use dip_data::{BatchGenerator, DatasetMix, FailureSchedule};
use dip_models::{zoo, BatchWorkload, LmmSpec, Modality, ModalityWorkload};
use dip_pipeline::dual_queue::ScheduleWorkspace;
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;
use std::time::Instant;

/// Microbatches per request.
pub const MICROBATCHES: usize = 8;
/// Distinct batches the schedules cycle through (one cold base plan each).
pub const POOL: usize = 4;
/// Seed of the batch pool. The pool is the same for every run seed, which
/// draws only the failure schedules, so that plan sizes and simulated
/// iteration times do not move with the seed.
pub const POOL_SEED: u64 = 0x7277;
/// Iterations one failure schedule spans.
pub const SCHEDULE_ITERATIONS: usize = 8;
/// Fault events drawn per schedule.
pub const SCHEDULE_EVENTS: usize = 3;

/// The generated inputs of one `elastic_t2v` run.
pub struct ElasticT2v {
    spec: LmmSpec,
    base: ClusterTopology,
    parallel: ParallelConfig,
    config: PlannerConfig,
    representative: BatchWorkload,
    pool: Vec<Vec<BatchWorkload>>,
    schedules: Vec<FailureSchedule>,
}

impl ElasticT2v {
    /// `schedules` failure schedules drawn from `seed`, over the fixed pool
    /// of dataset-drawn T2V batches.
    pub fn new(seed: u64, schedules: usize) -> Self {
        let base = ClusterTopology::mixed_h800_h20(2, 1);
        let mut generator = BatchGenerator::t2v(DatasetMix::t2v_default(), MICROBATCHES, POOL_SEED);
        let pool = (0..POOL)
            .map(|_| generator.next_batch().workloads())
            .collect();
        let schedules = (0..schedules as u64)
            .map(|j| {
                let schedule_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(j.wrapping_mul(0xD1B5_4A32_D192_ED03));
                FailureSchedule::seeded(&base, SCHEDULE_ITERATIONS, SCHEDULE_EVENTS, schedule_seed)
            })
            .collect();
        Self {
            spec: zoo::t2v_s(),
            base,
            parallel: ParallelConfig::new(4, 4, 1),
            config: planner_config(),
            // The offline partition's representative microbatch: six
            // captions and four 16-frame clips.
            representative: BatchWorkload::new()
                .with(Modality::Text, ModalityWorkload::new(900, 6))
                .with(Modality::Video, ModalityWorkload::new(16 * 1560, 4)),
            pool,
            schedules,
        }
    }

    /// Runs one round: set-up (base planner, offline partition, one cold
    /// base plan per pool batch), then every schedule's topology changes.
    pub fn round(&self, tracer: &mut Tracer, next_id: &mut u64) -> Round {
        let mut round = Round {
            traced: tracer.enabled(),
            ..Round::default()
        };
        let elastic = ElasticConfig::default();
        let setup_start = Instant::now();
        let base_planner = DipPlanner::on_topology(
            &self.spec,
            self.parallel,
            self.base.clone(),
            self.config.clone(),
        );
        let offline_start = Instant::now();
        base_planner
            .offline_partition(&self.representative)
            .expect("offline partition of the representative microbatch");
        round
            .offline_ms
            .push(offline_start.elapsed().as_secs_f64() * 1e3);
        let base_plans: Vec<DipPlan> = self
            .pool
            .iter()
            .map(|batch| {
                base_planner
                    .plan_iteration(batch)
                    .expect("cold base plan on the base topology")
            })
            .collect();
        let mut ws = ScheduleWorkspace::new();
        round.setup_s.push(setup_start.elapsed().as_secs_f64());

        for (j, schedule) in self.schedules.iter().enumerate() {
            let batch = &self.pool[j % POOL];
            let tokens = tokens(batch);
            let mut running = base_plans[j % POOL].clone();
            let mut old_topology = self.base.clone();
            for (_, topology) in schedule.topologies() {
                let id = *next_id;
                *next_id += 1;
                let ((planner, replanned), timing) = tracer.timed("elastic.request", id, |t| {
                    let planner = t.span("elastic.on_topology", id, |_| {
                        DipPlanner::on_topology(
                            &self.spec,
                            self.parallel,
                            topology.clone(),
                            self.config.clone(),
                        )
                    });
                    let replanned = t.span("elastic.replan_elastic", id, |_| {
                        planner.replan_elastic(batch, &running, &old_topology, &elastic)
                    });
                    (planner, replanned)
                });
                let Ok(outcome) = replanned else {
                    round.failed_request(id, PlanTier::Elastic, timing, tokens);
                    break;
                };
                round.count("elastic.candidates", outcome.candidates.len() as u64);
                round.count("elastic.migration_bytes", outcome.migration.bytes_moved);
                round.served_plan(
                    id,
                    outcome.plan.stats.tier,
                    timing,
                    tokens,
                    &outcome.plan,
                    &planner,
                    tracer,
                    &mut ws,
                );
                running = outcome.plan;
                old_topology = topology;
            }
        }
        round
    }
}
