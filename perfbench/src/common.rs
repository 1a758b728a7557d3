//! What every workload shares: the per-request record, the per-round
//! record, and the checks run on each served plan.

use crate::speed::{self, Timing};
use crate::stats::{request_digest, FAILED_DIGEST};
use crate::trace::Tracer;
use dip_core::{DipPlan, DipPlanner, PlanTier, PlannerConfig};
use dip_models::BatchWorkload;
use dip_pipeline::dual_queue::{schedule_into, ScheduleWorkspace};
use dip_pipeline::{DualQueueConfig, StageGraph, StageId};
use std::collections::BTreeMap;
use std::time::Duration;

/// The planner configuration every workload uses: the default four search
/// streams and a 300 ms virtual search budget, on one planning thread.
/// Plans are bit-identical at any thread count, because the stream count
/// and the virtual budget alone fix the search.
pub fn planner_config() -> PlannerConfig {
    let mut config = PlannerConfig::default().with_num_threads(1);
    config.search.time_budget = Duration::from_millis(300);
    config
}

/// One timed request as served.
#[derive(Debug, Clone)]
pub struct Served {
    /// Run-wide request id (also the span request id).
    pub id: u64,
    /// The tier that served it.
    pub tier: PlanTier,
    /// Wall time of the request (measured around the call, traced or not)
    /// and the kernel time nearest to it.
    pub timing: Timing,
    /// Tokens the request plans.
    pub tokens: u64,
    /// Items of the served plan's stage graph (0 when the request failed).
    pub items: u64,
    /// Simulated iteration time of the served plan; `None` when the request
    /// failed.
    pub sim_s: Option<f64>,
    /// [`request_digest`] of the served plan, or [`FAILED_DIGEST`].
    pub digest: u64,
}

/// Everything one round of a workload produced. A round is one set-up
/// followed by the workload's full request list; rounds of one run repeat
/// the same inputs, so their digests and counters must agree.
#[derive(Debug, Default)]
pub struct Round {
    /// Whether the round ran in traced mode.
    pub traced: bool,
    /// Set-up wall times: from session/planner construction to the first
    /// timed request (one per set-up the round ran).
    pub setup_s: Vec<f64>,
    /// Wall time of the offline partition inside each set-up.
    pub offline_ms: Vec<f64>,
    /// The kernel time taken just before the round's set-up.
    pub setup_kernel_ms: f64,
    /// The timed requests, in order.
    pub served: Vec<Served>,
    /// Exact work counters of the round.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named correctness checks that failed, with a reason.
    pub failures: Vec<String>,
}

impl Round {
    /// The set-up times at the reference speed.
    pub fn scaled_setups(&self) -> impl Iterator<Item = f64> + '_ {
        self.setup_s
            .iter()
            .map(|&s| speed::scale(s, self.setup_kernel_ms))
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_default() += by;
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Books a request that failed to plan.
    pub fn failed_request(&mut self, id: u64, tier: PlanTier, timing: Timing, tokens: u64) {
        self.served.push(Served {
            id,
            tier,
            timing,
            tokens,
            items: 0,
            sim_s: None,
            digest: FAILED_DIGEST,
        });
    }

    /// Books a served plan: simulates it on `planner` (the plan must
    /// simulate), counts its work, and in traced mode re-runs the
    /// dual-queue interleaver on the plan's graph and priorities under a
    /// `dual_queue.schedule_into` span, which must reproduce the plan's own
    /// makespan bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub fn served_plan(
        &mut self,
        id: u64,
        tier: PlanTier,
        timing: Timing,
        tokens: u64,
        plan: &DipPlan,
        planner: &DipPlanner<'_>,
        tracer: &mut Tracer,
        ws: &mut ScheduleWorkspace,
    ) {
        if tier != PlanTier::Exact {
            // An exact hit reuses a plan built earlier: its work was done
            // (and counted) by the request that built it.
            self.count("ordering.evaluations", plan.stats.search_evaluations);
            self.count("graph.items", plan.graph.len() as u64);
            self.count("graph.edges", edges(&plan.graph));
            self.count("partitioner.sub_microbatches", sub_microbatches(plan));
        }
        if tracer.enabled() {
            let tp = plan.placement.parallel.tp;
            let config = DualQueueConfig {
                segment_priorities: plan.segment_priorities.clone(),
                memory_limit: Some(
                    planner
                        .topology()
                        .activation_budget(&plan.graph.static_memory, tp),
                ),
                ..DualQueueConfig::default()
            };
            let makespan = tracer.span("dual_queue.schedule_into", id, |_| {
                schedule_into(&plan.graph, &config, ws)
            });
            self.check(
                makespan.to_bits() == plan.stats.planned_time_s.to_bits(),
                || {
                    format!(
                        "request {id}: interleaver makespan {makespan} differs from the \
                         plan's planned time {}",
                        plan.stats.planned_time_s
                    )
                },
            );
        }
        match planner.simulate(plan) {
            Ok(outcome)
                if outcome.metrics.iteration_time_s.is_finite()
                    && outcome.metrics.iteration_time_s > 0.0 =>
            {
                let sim = outcome.metrics.iteration_time_s;
                self.served.push(Served {
                    id,
                    tier,
                    timing,
                    tokens,
                    items: plan.graph.len() as u64,
                    sim_s: Some(sim),
                    digest: request_digest(tier, plan.stats.planned_time_s, sim),
                });
            }
            other => {
                self.failures.push(format!(
                    "request {id}: served plan does not simulate: {:?}",
                    other.map(|o| o.metrics.iteration_time_s)
                ));
                self.failed_request(id, tier, timing, tokens);
            }
        }
    }
}

/// Number of dependency edges of a stage graph.
pub fn edges(graph: &StageGraph) -> u64 {
    (0..graph.len())
        .map(|i| graph.deps_of(StageId(i)).len() as u64)
        .sum()
}

/// Number of sub-microbatches a plan splits its microbatches into, summed
/// over segments.
pub fn sub_microbatches(plan: &DipPlan) -> u64 {
    let table = &plan.sub_microbatches;
    (0..table.num_segments())
        .flat_map(|s| (0..table.num_microbatches()).map(move |m| (s, m)))
        .map(|(s, m)| table.splits(s, m) as u64)
        .sum()
}

/// Tokens one request plans.
pub fn tokens(microbatches: &[BatchWorkload]) -> u64 {
    microbatches.iter().map(BatchWorkload::total_tokens).sum()
}
