//! Elastic replanning across cluster-topology changes (the scenario layer).
//!
//! A topology change — a rank failure, a spot preemption, a grow or shrink
//! event — is treated like a JIT deoptimization event: instead of planning
//! from scratch and implicitly re-materialising *all* optimizer/parameter
//! state, the planner recompiles incrementally from the old plan. Callers
//! reach this tier through the session:
//! [`crate::PlanningSession::retarget`] moves it onto the new topology, and
//! its next [`crate::PlanningSession::plan`] of a request planned before
//! the change is an elastic replan. The old plan's sub-microbatch table
//! and per-stage-pair memory strategies are carried over verbatim; a
//! small, deterministic candidate set of placements is priced against a
//! two-term objective
//!
//! ```text
//! objective = simulated_iteration_time + migration_weight · transfer_time
//! ```
//!
//! where the transfer time is the honest per-edge cost of moving the bytes
//! of optimizer + parameter state between surviving ranks
//! ([`dip_pipeline::migration`]). The candidates:
//!
//! * **Stay** — keep the old chunk boundaries. Movement-minimal: only state
//!   whose hosting device vanished (or whose logical rank landed on a
//!   different surviving device) moves.
//! * **Rebalance one module** — re-run the configured placement mode for a
//!   single module's layers on the new topology, keeping every other
//!   module's boundaries (re-places the displaced chunks of that module).
//! * **Rebalance** — re-run placement for all modules: the best steady-state
//!   plan, and the most state moved.
//!
//! Every candidate, a lone one included, is priced with one interleave
//! pass under the old plan's priorities, and ranked by its objective after
//! that pass. Only the leader runs an ordering search — and the runner-up
//! too when its one-pass objective is within 0.5% of the leader's
//! (`RUNNER_UP_MARGIN`) — seeded from the old plan's ordering and budgeted
//! in *virtual time* by [`ElasticConfig::delta_budget`] on the calibrated
//! evaluation cost model, so a fixed seed yields a bit-identical recovery
//! sequence at any worker count on any machine. The search's pass memo
//! adopts the ranking pass, which is the seed's evaluation unless the old
//! priorities are tied, so no ordering is evaluated twice for one
//! candidate.
//!
//! The one-pass ranking is an empirical rule, not a bound: search gains
//! mostly move together across the candidates of one replan, but a
//! candidate priced just behind the leader can overtake it once both are
//! searched. The guard test below measures how often that happens
//! against searching every candidate. The search counts its seed as an
//! incumbent, so the served plan is never worse than the leader's
//! one-pass plan.

use crate::error::DipError;
use crate::ordering::{OrderingResult, SearchWork};
use crate::planner::{heaviest, DipPlan, DipPlanner, PhaseTimes, Priced, Reuse};
use dip_models::{BatchWorkload, ModuleId};
use dip_pipeline::{
    full_restore_cost, migration_cost, MigrationCost, Placement, ScheduleWorkspace,
};
use dip_sim::{ClusterTopology, TopologyDelta};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::time::{Duration, Instant};

/// Knobs of the elastic replanner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElasticConfig {
    /// Weight of the migration term in the objective, in seconds of
    /// simulated iteration time per second of state-transfer time. `0.0`
    /// optimises pure iteration time (migration is free); `f64::INFINITY`
    /// never moves a byte that could legally stay (candidates are compared
    /// by transfer time first, iteration time second).
    pub migration_weight: f64,
    /// Virtual-time budget of each searched candidate, converted into an
    /// evaluation quota by the same calibrated cost model as
    /// [`crate::OrderingSearchConfig::time_budget`]: results are
    /// bit-identical at any worker count. Zero adopts the old ordering
    /// verbatim: one interleave pass per candidate, no search.
    pub delta_budget: Duration,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        Self {
            migration_weight: 1.0,
            delta_budget: Duration::from_millis(5),
        }
    }
}

/// Which placement candidate the elastic replanner selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElasticCandidate {
    /// The topology did not change: the old plan is returned byte-identical
    /// and no state moves.
    Unchanged,
    /// The old chunk boundaries, kept as-is (movement-minimal).
    Stay,
    /// The old boundaries for every module except one, whose layers were
    /// re-placed on the new topology.
    RebalanceModule(ModuleId),
    /// Freshly re-placed boundaries for every module.
    Rebalance,
}

impl fmt::Display for ElasticCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unchanged => write!(f, "unchanged"),
            Self::Stay => write!(f, "stay"),
            Self::RebalanceModule(m) => write!(f, "rebalance:{m}"),
            Self::Rebalance => write!(f, "rebalance"),
        }
    }
}

/// One evaluated candidate of an elastic replan, in evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateReport {
    /// The candidate.
    pub candidate: ElasticCandidate,
    /// State movement this candidate pays.
    pub migration: MigrationCost,
    /// The candidate's iteration time (seconds) after one interleave pass
    /// under the old plan's priorities: the price it was ranked by.
    pub planned_time_s: f64,
    /// The one-pass objective, `planned_time_s + migration_weight ·
    /// transfer_time_s` (infinite weight: infinite unless nothing moves).
    pub objective: f64,
    /// The objective of the searched plan, on the searched candidates
    /// only (the leader, and a runner-up priced within 0.5% of it):
    /// `None` for every candidate the one-pass ranking beat. It is never
    /// above `objective`. A beaten candidate whose one-pass objective is
    /// below the served searched one is where leader-only search may have
    /// lost.
    pub searched_objective: Option<f64>,
    /// Interleave evaluations this candidate cost: its ranking pass, and
    /// on a searched candidate the search's identity incumbent and every
    /// stream's quota too (the ranking pass is the seed's evaluation, or
    /// the search evaluates the seed once more when the old priorities are
    /// tied). On a replan they sum to the served plan's
    /// [`crate::PlannerStats::search_evaluations`]; the unchanged fast path
    /// evaluates nothing and reports zero.
    pub evaluations: u64,
}

impl CandidateReport {
    /// A candidate priced at `planned_time_s` under `weight`, before any
    /// search.
    fn priced(
        candidate: ElasticCandidate,
        migration: MigrationCost,
        planned_time_s: f64,
        evaluations: u64,
        weight: f64,
    ) -> Self {
        Self {
            candidate,
            objective: objective(planned_time_s, &migration, weight),
            migration,
            planned_time_s,
            searched_objective: None,
            evaluations,
        }
    }

    /// True when this candidate beats `other`: a lower objective or, at
    /// infinite weight, a lower `(transfer_time, planned_time)`. Ties keep
    /// `other`, the earlier candidate.
    fn beats(&self, other: &Self, weight: f64) -> bool {
        if weight.is_infinite() {
            (self.migration.transfer_time_s, self.planned_time_s)
                < (other.migration.transfer_time_s, other.planned_time_s)
        } else {
            self.objective < other.objective
        }
    }

    /// True when this candidate, ranked below `leader`, is priced within
    /// [`RUNNER_UP_MARGIN`] of it: of its objective or, at infinite
    /// weight, of its planned time at an equal transfer time.
    fn within_margin(&self, leader: &Self, weight: f64) -> bool {
        if weight.is_infinite() {
            self.migration.transfer_time_s == leader.migration.transfer_time_s
                && self.planned_time_s <= leader.planned_time_s * (1.0 + RUNNER_UP_MARGIN)
        } else {
            self.objective <= leader.objective * (1.0 + RUNNER_UP_MARGIN)
        }
    }
}

/// `planned_time_s + weight · transfer_time_s`; at infinite weight,
/// `planned_time_s` when nothing moves and infinite otherwise.
fn objective(planned_time_s: f64, migration: &MigrationCost, weight: f64) -> f64 {
    if !weight.is_infinite() {
        planned_time_s + weight * migration.transfer_time_s
    } else if migration.transfer_time_s > 0.0 {
        f64::INFINITY
    } else {
        planned_time_s
    }
}

/// What an elastic replan decided besides its plan. An elastic-tier
/// [`crate::PlanOutcome`] carries it next to the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticReport {
    /// State movement the winning plan pays.
    pub migration: MigrationCost,
    /// The diff between the old and new topologies.
    pub delta: TopologyDelta,
    /// Which candidate won.
    pub candidate: ElasticCandidate,
    /// The winning candidate's objective value, after its search.
    pub objective: f64,
    /// Deterministic virtual planning time of the whole replan: every
    /// candidate's [`CandidateReport::evaluations`] (one ranking pass each,
    /// plus the searched candidates' searches), priced on the calibrated
    /// evaluation cost model. Together with `migration.transfer_time_s`
    /// this is the recovery bill.
    pub planning_virtual_s: f64,
    /// Every evaluated candidate, in evaluation order.
    pub candidates: Vec<CandidateReport>,
}

/// The result of [`DipPlanner::replan_elastic`]: the winning plan and its
/// report. It dereferences to the report, so `outcome.migration` reads the
/// report's field.
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// The winning plan, ready to deploy on the new topology
    /// (`stats.tier == `[`crate::PlanTier::Elastic`], except on the unchanged
    /// fast path, which returns the old plan byte-identical).
    pub plan: DipPlan,
    /// The replan's decision: candidate, migration and objective.
    pub report: ElasticReport,
}

impl Deref for ElasticOutcome {
    type Target = ElasticReport;

    fn deref(&self) -> &ElasticReport {
        &self.report
    }
}

/// How close, relative to the leader's one-pass objective, the
/// runner-up's must be for the runner-up to be searched too. The one-pass
/// ranking is empirical: search gains move together across one replan's
/// candidates, but not exactly, and the guard test below saw the runner-up
/// overtake the leader at one-pass margins of 0.17% and 0.19%.
const RUNNER_UP_MARGIN: f64 = 0.005;

/// A candidate still in contention after the one-pass ranking: its index
/// in the report table, its priced graph, and its ranking pass with the
/// workspace holding the pass's record.
struct Contender<'p> {
    index: usize,
    priced: Priced<'p>,
    pass: (OrderingResult, ScheduleWorkspace),
}

/// What a replan's candidates cost together, all billed to the served
/// plan: their wall time, evaluations, kernel work and virtual planning
/// time.
#[derive(Default)]
struct Bill {
    phases: PhaseTimes,
    evaluations: u64,
    work: SearchWork,
    virtual_s: f64,
}

impl Bill {
    /// Adds one candidate: the `phases` it ran through, and `evaluations`
    /// of its graph of `items` items with the kernel `work` they took.
    fn add(
        &mut self,
        planner: &DipPlanner<'_>,
        phases: PhaseTimes,
        items: usize,
        evaluations: u64,
        work: SearchWork,
    ) {
        self.phases += phases;
        self.evaluations += evaluations;
        self.work += work;
        self.virtual_s += planner.virtual_search_s(items, evaluations);
    }

    /// Adds a candidate the ranking beat, and drops its graph.
    fn add_beaten(&mut self, planner: &DipPlanner<'_>, beaten: Contender<'_>) {
        let (priced, (pass, _)) = (&beaten.priced, &beaten.pass);
        self.add(
            planner,
            priced.phases,
            priced.graph.len(),
            pass.evaluations,
            pass.work,
        );
    }
}

impl DipPlanner<'_> {
    /// Elastically replans one iteration across a topology change. Only
    /// the planner benchmark calls it directly; everything else plans
    /// through [`crate::PlanningSession::retarget`] and
    /// [`crate::PlanningSession::plan`], and it becomes crate-private once
    /// the benchmark does too.
    ///
    /// `old_plan` is the plan running when the change hit (produced by this
    /// crate on `old_topology`); `self` is a planner constructed on the
    /// *new* topology. The old plan's sub-microbatch table and memory plan
    /// are reused. Every candidate placement (see the [module docs](self)),
    /// a lone one included, is priced with one stage-graph expansion, a
    /// reprice under the old memory plan and one interleave pass under the
    /// old priorities, and ranked by `planned_time + migration_weight ·
    /// transfer_time` after that pass. Ties keep the earlier candidate, so
    /// at infinite weight the movement-minimal **Stay** candidate leads
    /// unless strictly beaten on transfer time. A beaten candidate's graph
    /// is dropped at once. The leader runs the seeded ordering search under
    /// [`ElasticConfig::delta_budget`] on the graph its ranking pass
    /// already built, taking that pass as its seed's evaluation, and so
    /// does the runner-up when it is priced within 0.5% of the leader; the
    /// better searched plan is served, ties keeping the leader.
    ///
    /// If the topology did not change at all, the old plan is returned
    /// byte-identical with a zero [`MigrationCost`]
    /// ([`ElasticCandidate::Unchanged`]).
    ///
    /// # Errors
    ///
    /// Returns [`DipError::InvalidRequest`] when the old plan is
    /// structurally incompatible with the request, with the message naming
    /// the mismatched field — parallel configuration, topology fingerprint
    /// (against the stated old topology), modality set, microbatch count or
    /// segment count — and otherwise propagates stage-graph construction
    /// failures.
    pub fn replan_elastic(
        &self,
        microbatches: &[BatchWorkload],
        old_plan: &DipPlan,
        old_topology: &ClusterTopology,
        config: &ElasticConfig,
    ) -> Result<ElasticOutcome, DipError> {
        let old_fingerprint = old_topology.fingerprint();
        self.check_anchor(microbatches, old_plan, old_fingerprint)?;

        let tp = self.parallel.tp;
        let new_fingerprint = self.topology.fingerprint();
        if old_fingerprint == new_fingerprint {
            // Unchanged topology: byte-identical old plan, zero movement.
            let delta = old_topology.delta_to(&self.topology, tp);
            let report = CandidateReport {
                candidate: ElasticCandidate::Unchanged,
                migration: MigrationCost::ZERO,
                planned_time_s: old_plan.stats.planned_time_s,
                objective: old_plan.stats.planned_time_s,
                searched_objective: None,
                evaluations: 0,
            };
            return Ok(ElasticOutcome {
                plan: old_plan.clone(),
                report: ElasticReport {
                    migration: MigrationCost::ZERO,
                    delta,
                    candidate: ElasticCandidate::Unchanged,
                    objective: report.objective,
                    planning_virtual_s: 0.0,
                    candidates: vec![report],
                },
            });
        }

        let start = Instant::now();
        let delta = old_topology.delta_to(&self.topology, tp);
        let weight = config.migration_weight;
        let candidates = self.candidate_placements(microbatches, old_plan);
        let mut reports: Vec<CandidateReport> = Vec::with_capacity(candidates.len());
        // The leader and the runner-up so far, best first. Every other
        // candidate is billed and its graph dropped at once.
        let mut top: Vec<Contender<'_>> = Vec::with_capacity(3);
        let mut bill = Bill::default();
        for (candidate, placement) in candidates {
            let migration = migration_cost(
                self.spec,
                &old_plan.placement,
                &placement,
                &self.topology,
                &delta,
            );
            let mut priced = self.price(
                microbatches,
                Reuse::Elastic {
                    anchor: old_plan,
                    placement,
                },
            )?;
            let index = reports.len();
            let pass_start = Instant::now();
            let pass = priced.one_pass();
            priced.phases.search += pass_start.elapsed();
            let report =
                CandidateReport::priced(candidate, migration, pass.0.best_time_s, 1, weight);
            let rank = top
                .iter()
                .position(|c| report.beats(&reports[c.index], weight))
                .unwrap_or(top.len());
            reports.push(report);
            let contender = Contender {
                index,
                priced,
                pass,
            };
            top.insert(rank, contender);
            if top.len() > 2 {
                bill.add_beaten(self, top.pop().expect("three contenders"));
            }
        }
        let leader = top.first().expect("Stay is always a candidate").index;
        if top.len() == 2 && !reports[top[1].index].within_margin(&reports[leader], weight) {
            bill.add_beaten(self, top.pop().expect("two contenders"));
        }

        // Each contender's search, on the graph its ranking pass priced;
        // the better searched plan is served, ties keeping the leader.
        let mut served: Option<(CandidateReport, DipPlan)> = None;
        for Contender {
            index,
            mut priced,
            pass,
        } in top
        {
            let search_start = Instant::now();
            let ordering = self.search_seeded(&priced, pass, config.delta_budget);
            priced.phases.search += search_start.elapsed();
            let plan = self.finish(microbatches, priced, ordering)?;
            let stats = &plan.stats;
            let (evaluations, work) = (stats.search_evaluations, stats.search_work);
            bill.add(self, stats.phases, plan.graph.len(), evaluations, work);

            let report = &mut reports[index];
            let price = CandidateReport::priced(
                report.candidate,
                report.migration,
                plan.stats.planned_time_s,
                plan.stats.search_evaluations,
                weight,
            );
            debug_assert!(
                price.planned_time_s <= report.planned_time_s,
                "{}: the search planned {} s, above its one-pass {} s",
                report.candidate,
                price.planned_time_s,
                report.planned_time_s
            );
            report.searched_objective = Some(price.objective);
            report.evaluations = price.evaluations;
            if served
                .as_ref()
                .is_none_or(|(best, _)| price.beats(best, weight))
            {
                served = Some((price, plan));
            }
        }
        let (price, mut plan) = served.expect("the leader is searched");
        debug_assert!(
            !reports[leader].beats(&price, weight),
            "the served objective {} is above the leader's one-pass {}",
            price.objective,
            reports[leader].objective
        );

        // The replan's bill covers every candidate; the planned time stays
        // the served plan's own.
        let stats = &mut plan.stats;
        stats.planning_time = start.elapsed();
        stats.phases = bill.phases;
        stats.search_evaluations = bill.evaluations;
        stats.search_work = bill.work;
        Ok(ElasticOutcome {
            plan,
            report: ElasticReport {
                migration: price.migration,
                candidate: price.candidate,
                objective: price.objective,
                delta,
                planning_virtual_s: bill.virtual_s,
                candidates: reports,
            },
        })
    }

    /// The recovery bill of a *cold* restart on this planner's topology:
    /// the full-budget planning cost of `cold_plan` in virtual time, plus
    /// re-materialising every byte of optimizer/parameter state from a
    /// replica or checkpoint store ([`full_restore_cost`]). The elastic
    /// path's equivalent is
    /// [`ElasticReport::planning_virtual_s`]` + migration.transfer_time_s`.
    pub fn cold_recovery_time_s(&self, cold_plan: &DipPlan) -> f64 {
        let restore = full_restore_cost(self.spec, &cold_plan.placement, &self.topology);
        let planning_s =
            self.virtual_search_s(cold_plan.graph.len(), cold_plan.stats.search_evaluations);
        planning_s + restore.transfer_time_s
    }

    /// `evaluations` interleave evaluations of a graph of `items` items,
    /// priced on the calibrated evaluation cost model.
    fn virtual_search_s(&self, items: usize, evaluations: u64) -> f64 {
        let per_evaluation = self.config.search.eval_cost.seconds(items as u64);
        per_evaluation.max(0.0) * evaluations as f64
    }

    /// Builds the deterministic candidate list: Stay, one single-module
    /// rebalance per module whose re-placed boundaries differ, then the
    /// full rebalance — deduplicated, in that order.
    fn candidate_placements(
        &self,
        microbatches: &[BatchWorkload],
        old_plan: &DipPlan,
    ) -> Vec<(ElasticCandidate, Placement)> {
        let stay = old_plan.placement.clone();
        let mut candidates = vec![(ElasticCandidate::Stay, stay.clone())];
        let Some(rebalanced) = self.rebalanced_placement(microbatches, old_plan) else {
            return candidates;
        };
        let mut push = |candidate: ElasticCandidate, placement: Placement| {
            if candidates.iter().all(|(_, p)| *p != placement) {
                candidates.push((candidate, placement));
            }
        };
        for (module, _) in self.spec.iter() {
            let indices = stay.segments_of_module(module);
            if indices
                .iter()
                .all(|&i| stay.segments[i] == rebalanced.segments[i])
            {
                continue;
            }
            let mut segments = stay.segments.to_vec();
            for &i in &indices {
                segments[i] = rebalanced.segments[i].clone();
            }
            push(
                ElasticCandidate::RebalanceModule(module),
                Placement {
                    parallel: self.parallel,
                    segments: segments.into(),
                },
            );
        }
        push(ElasticCandidate::Rebalance, rebalanced);
        candidates
    }

    /// Re-runs the configured placement mode on the new topology with the
    /// old plan's per-module segment counts. Returns `None` when the old
    /// placement is not separated (a segment spans modules) or the rebuild
    /// does not line up segment-for-segment with the old structure.
    fn rebalanced_placement(
        &self,
        microbatches: &[BatchWorkload],
        old_plan: &DipPlan,
    ) -> Option<Placement> {
        let old = &old_plan.placement;
        let mut counts: BTreeMap<ModuleId, usize> = BTreeMap::new();
        for segment in old.segments.iter() {
            *counts.entry(segment.module?).or_default() += 1;
        }
        let empty = BatchWorkload::default();
        let rebalanced = self.config.partitioner.placement.place(
            self.spec,
            self.parallel,
            &counts,
            Some(&self.topology),
            self.config.efficiency,
            heaviest(microbatches).unwrap_or(&empty),
        );
        if rebalanced.validate(self.spec).is_err()
            || rebalanced.segments.len() != old.segments.len()
            || rebalanced
                .segments
                .iter()
                .zip(old.segments.iter())
                .any(|(a, b)| a.module != b.module)
        {
            return None;
        }
        Some(rebalanced)
    }
}

#[cfg(test)]
mod tests {
    //! The named `InvalidRequest` arms of the anchor compatibility check,
    //! exercised on the planner's two anchored entry points themselves
    //! (`plan_iteration_delta` and `replan_elastic`): a session serves
    //! neither with a mismatched anchor, so only the planner can show them.
    //! Then the one-pass ranking: its per-candidate report, and a guard
    //! that compares it with searching every candidate.

    use super::*;
    use crate::PlannerConfig;
    use dip_data::{BatchGenerator, DatasetMix, FailureSchedule};
    use dip_models::{zoo, LmmSpec, Modality, ModalityWorkload};
    use dip_pipeline::{DualQueueConfig, ParallelConfig};
    use proptest::{Strategy, TestRng};

    fn parallel() -> ParallelConfig {
        ParallelConfig::new(4, 4, 1)
    }

    fn vlm_batch(images: u64) -> BatchWorkload {
        BatchWorkload::new()
            .with(
                Modality::Text,
                ModalityWorkload::new(8192 - images * 169, 1),
            )
            .with(Modality::Image, ModalityWorkload::new(images * 169, images))
    }

    fn text_batch(tokens: u64) -> BatchWorkload {
        BatchWorkload::new().with(Modality::Text, ModalityWorkload::new(tokens, 1))
    }

    /// A planner configuration with a pure virtual-time budget.
    fn time_budgeted_config(workers: usize, budget_ms: u64, seed: u64) -> PlannerConfig {
        let mut config = PlannerConfig::default().with_num_threads(1);
        config.search.workers = workers;
        config.search.time_budget = Duration::from_millis(budget_ms);
        config.search.max_evaluations = None;
        config.search.streams = 4;
        config.search.seed = seed;
        config
    }

    #[test]
    fn delta_guard_names_the_microbatch_count_mismatch() {
        let spec = zoo::vlm_s();
        let topology = ClusterTopology::mixed_h800_h20(1, 1);
        let planner =
            DipPlanner::on_topology(&spec, parallel(), topology, time_budgeted_config(2, 40, 3));
        let anchor = planner
            .plan_iteration(&[vlm_batch(8), vlm_batch(24)])
            .unwrap();
        let err = planner
            .plan_iteration_delta(&[vlm_batch(8), vlm_batch(24), vlm_batch(40)], &anchor)
            .unwrap_err();
        assert!(
            err.to_string().contains("microbatch count"),
            "error must name the microbatch count: {err}"
        );
    }

    #[test]
    fn delta_guard_names_the_modality_set_mismatch() {
        let spec = zoo::vlm_s();
        let topology = ClusterTopology::mixed_h800_h20(1, 1);
        let planner =
            DipPlanner::on_topology(&spec, parallel(), topology, time_budgeted_config(2, 40, 3));
        let anchor = planner
            .plan_iteration(&[vlm_batch(8), vlm_batch(24)])
            .unwrap();
        let err = planner
            .plan_iteration_delta(&[text_batch(4096), text_batch(8192)], &anchor)
            .unwrap_err();
        assert!(
            err.to_string().contains("modality set"),
            "error must name the modality set: {err}"
        );
    }

    #[test]
    fn delta_guard_names_the_topology_fingerprint_mismatch() {
        let spec = zoo::vlm_s();
        let batches = [vlm_batch(8), vlm_batch(24)];
        let old_planner = DipPlanner::on_topology(
            &spec,
            parallel(),
            ClusterTopology::mixed_h800_h20(1, 1),
            time_budgeted_config(2, 40, 3),
        );
        let anchor = old_planner.plan_iteration(&batches).unwrap();
        let other_planner = DipPlanner::on_topology(
            &spec,
            parallel(),
            ClusterTopology::mixed_h800_h20(2, 0),
            time_budgeted_config(2, 40, 3),
        );
        let err = other_planner
            .plan_iteration_delta(&batches, &anchor)
            .unwrap_err();
        assert!(
            err.to_string().contains("topology fingerprint"),
            "error must name the topology fingerprint: {err}"
        );
    }

    /// Breaks one field of an anchored request: the anchor plan, the
    /// request's microbatches, or both.
    type BreakRequest = fn(&mut DipPlan, &mut Vec<BatchWorkload>);

    #[test]
    fn anchor_guard_names_every_mismatched_field_on_both_entry_points() {
        let spec = zoo::vlm_s();
        let old_topology = ClusterTopology::mixed_h800_h20(1, 1);
        let config = time_budgeted_config(2, 40, 3);
        let planner =
            DipPlanner::on_topology(&spec, parallel(), old_topology.clone(), config.clone());
        let new_planner = DipPlanner::on_topology(
            &spec,
            parallel(),
            ClusterTopology::mixed_h800_h20(2, 0),
            config,
        );
        let batches = vec![vlm_batch(8), vlm_batch(24)];
        let anchor = planner.plan_iteration(&batches).unwrap();
        let elastic = ElasticConfig::default();

        // The intact request passes the check on both entry points.
        planner.plan_iteration_delta(&batches, &anchor).unwrap();
        new_planner
            .replan_elastic(&batches, &anchor, &old_topology, &elastic)
            .unwrap();

        let arms: [(&str, BreakRequest); 5] = [
            ("parallel configuration", |anchor, _| {
                anchor.placement.parallel = ParallelConfig::new(2, 8, 1);
            }),
            ("topology fingerprint", |anchor, _| {
                anchor.topology_fingerprint ^= 1;
            }),
            ("modality set", |_, batches| {
                *batches = vec![text_batch(4096), text_batch(8192)];
            }),
            ("microbatch count", |_, batches| batches.push(vlm_batch(40))),
            ("segment count", |anchor, _| {
                anchor.segment_priorities.pop();
            }),
        ];
        for (field, break_request) in arms {
            let mut bad_anchor = anchor.clone();
            let mut bad_batches = batches.clone();
            break_request(&mut bad_anchor, &mut bad_batches);
            let errors = [
                (
                    "plan_iteration_delta",
                    planner
                        .plan_iteration_delta(&bad_batches, &bad_anchor)
                        .unwrap_err(),
                ),
                (
                    "replan_elastic",
                    new_planner
                        .replan_elastic(&bad_batches, &bad_anchor, &old_topology, &elastic)
                        .unwrap_err(),
                ),
            ];
            for (entry, err) in errors {
                assert!(
                    matches!(err, DipError::InvalidRequest(_)),
                    "{entry}: a broken {field} must be an invalid request: {err}"
                );
                assert!(
                    err.to_string().contains(field),
                    "{entry}: the error must name the {field}: {err}"
                );
            }
        }
    }

    /// A zero-budget elastic replan runs no search: its one candidate
    /// (uniform clusters rebalance to the old boundaries) adopts the old
    /// ordering in one interleave pass, so the plan reports exactly one
    /// evaluation.
    #[test]
    fn zero_budget_elastic_replan_reports_no_search() {
        let spec = zoo::vlm_s();
        let old_topology = ClusterTopology::mixed_h800_h20(2, 0);
        let config = time_budgeted_config(2, 40, 3);
        let batches = vec![vlm_batch(8), vlm_batch(24)];
        let planner =
            DipPlanner::on_topology(&spec, parallel(), old_topology.clone(), config.clone());
        let old_plan = planner.plan_iteration(&batches).unwrap();
        let new_topology = ClusterTopology::mixed_h800_h20(1, 0);
        let zero_budget = ElasticConfig {
            delta_budget: Duration::ZERO,
            ..ElasticConfig::default()
        };
        let outcome = DipPlanner::on_topology(&spec, parallel(), new_topology, config)
            .replan_elastic(&batches, &old_plan, &old_topology, &zero_budget)
            .unwrap();
        assert_eq!(outcome.candidates.len(), 1);
        assert_eq!(outcome.plan.segment_priorities, old_plan.segment_priorities);
        assert_eq!(outcome.plan.stats.search_evaluations, 1);
    }

    /// A T2V-S request of eight dataset-drawn microbatches.
    fn t2v_batches(seed: u64) -> Vec<BatchWorkload> {
        BatchGenerator::t2v(DatasetMix::t2v_default(), 8, seed)
            .next_batch()
            .workloads()
    }

    /// A VLM-S request of eight dataset-drawn microbatches.
    fn vlm_batches(seed: u64) -> Vec<BatchWorkload> {
        BatchGenerator::vlm(DatasetMix::vlm_default(), 8, seed)
            .next_batch()
            .workloads()
    }

    /// The evaluations a searched elastic candidate reports: its ranking
    /// pass, the search's identity incumbent and every stream's quota (the
    /// ranking pass stands in for the seed), plus `seed` when the search
    /// evaluates its seed itself.
    fn searched_evaluations(planner: &DipPlanner<'_>, items: usize, seed: u64) -> u64 {
        let search = crate::OrderingSearchConfig {
            time_budget: ElasticConfig::default().delta_budget,
            ..planner.config.search.clone()
        };
        let quota = search.evaluation_quota(items);
        assert!(quota > 0, "the delta budget buys evaluations");
        1 + 1 + seed + search.streams as u64 * quota
    }

    /// A four-candidate replan searches only its leader, and its
    /// runner-up too when that is priced within [`RUNNER_UP_MARGIN`]: every
    /// other candidate reports one evaluation and no searched objective,
    /// and the per-candidate evaluations sum to the plan's. Batch seed 1
    /// has a clear leader; seed 0's runner-up is within the margin. A
    /// searched candidate reports its ranking pass, the identity and the
    /// streams' quotas, and so does a lone one (a uniform cluster
    /// rebalances to the old boundaries): every candidate is ranked by one
    /// pass, and the search takes that pass as its seed.
    #[test]
    fn a_four_candidate_replan_searches_only_its_leader() {
        let spec = zoo::t2v_s();
        let old_topology = ClusterTopology::mixed_h800_h20(2, 1);
        let new_topology = ClusterTopology::mixed_h800_h20(1, 1);
        let config = time_budgeted_config(1, 40, 3);
        let weight = ElasticConfig::default().migration_weight;
        for (batch_seed, contenders) in [(1, 1), (0, 2)] {
            let batches = t2v_batches(batch_seed);
            let old_plan =
                DipPlanner::on_topology(&spec, parallel(), old_topology.clone(), config.clone())
                    .plan_iteration(&batches)
                    .unwrap();
            let planner =
                DipPlanner::on_topology(&spec, parallel(), new_topology.clone(), config.clone());
            let outcome = planner
                .replan_elastic(
                    &batches,
                    &old_plan,
                    &old_topology,
                    &ElasticConfig::default(),
                )
                .unwrap();

            let candidates = &outcome.candidates;
            assert_eq!(candidates.len(), 4);
            let items = outcome.plan.graph.len();
            let mut ranked: Vec<&CandidateReport> = candidates.iter().collect();
            ranked.sort_by(|a, b| a.objective.total_cmp(&b.objective));
            let searched: Vec<&CandidateReport> = candidates
                .iter()
                .filter(|c| c.searched_objective.is_some())
                .collect();
            assert_eq!(searched.len(), contenders, "batch seed {batch_seed}");
            assert_eq!(
                ranked[1].within_margin(ranked[0], weight),
                contenders == 2,
                "the runner-up is searched when it is within the margin"
            );
            for (contender, searched) in ranked.iter().zip(&searched) {
                assert_eq!(contender.candidate, searched.candidate);
                assert_eq!(
                    searched.evaluations,
                    searched_evaluations(&planner, items, 0),
                    "{}: one ranking pass, the identity and the quotas",
                    searched.candidate
                );
                assert!(searched.searched_objective.unwrap() <= searched.objective);
            }
            for other in &ranked[contenders..] {
                assert_eq!(other.evaluations, 1, "{} ran one pass", other.candidate);
                assert_eq!(other.searched_objective, None);
            }
            let served = candidates
                .iter()
                .find(|c| c.candidate == outcome.candidate)
                .unwrap();
            assert_eq!(served.searched_objective, Some(outcome.objective));
            assert!(outcome.objective <= ranked[0].objective);
            let evaluations: u64 = candidates.iter().map(|c| c.evaluations).sum();
            let stats = &outcome.plan.stats;
            assert_eq!(evaluations, stats.search_evaluations);
            // The adopted ranking pass is one evaluation and one ordering.
            let work = stats.search_work;
            assert!(work.distinct_orderings <= evaluations - work.pruned_evaluations);
            let virtual_s: f64 = candidates
                .iter()
                .map(|c| planner.virtual_search_s(items, c.evaluations))
                .sum();
            assert!((outcome.planning_virtual_s - virtual_s).abs() <= 1e-12 * virtual_s);
        }

        let spec = zoo::vlm_s();
        let old_topology = ClusterTopology::mixed_h800_h20(2, 0);
        let batches = vec![vlm_batch(8), vlm_batch(24)];
        let old_plan =
            DipPlanner::on_topology(&spec, parallel(), old_topology.clone(), config.clone())
                .plan_iteration(&batches)
                .unwrap();
        let planner = DipPlanner::on_topology(
            &spec,
            parallel(),
            ClusterTopology::mixed_h800_h20(1, 0),
            config,
        );
        let outcome = planner
            .replan_elastic(
                &batches,
                &old_plan,
                &old_topology,
                &ElasticConfig::default(),
            )
            .unwrap();
        let [lone] = outcome.candidates.as_slice() else {
            panic!("{} candidates, not one", outcome.candidates.len());
        };
        let items = outcome.plan.graph.len();
        assert_eq!(lone.evaluations, searched_evaluations(&planner, items, 0));
        assert_eq!(lone.evaluations, outcome.plan.stats.search_evaluations);
        assert_eq!(lone.searched_objective, Some(outcome.objective));
        assert!(outcome.plan.stats.planned_time_s <= lone.planned_time_s);
    }

    /// The ranking pass stands in for the search's seed only when the
    /// anchor's priorities are the search's assignment of the seed
    /// ordering. An anchor planned without search holds tied priorities (a
    /// zero for every segment), whose ordering the search assigns distinct
    /// ones: the search evaluates that seed itself, and the served plan
    /// replays to its planned time.
    #[test]
    fn a_tied_anchor_is_searched_from_its_own_seed_evaluation() {
        let spec = zoo::vlm_s();
        let old_topology = ClusterTopology::mixed_h800_h20(2, 0);
        let config = time_budgeted_config(1, 40, 3);
        let batches = vec![vlm_batch(8), vlm_batch(24)];
        let unsearched = PlannerConfig {
            enable_search: false,
            ..config.clone()
        };
        let old_plan = DipPlanner::on_topology(&spec, parallel(), old_topology.clone(), unsearched)
            .plan_iteration(&batches)
            .unwrap();
        let priorities = &old_plan.segment_priorities;
        assert!(
            priorities.len() > 1 && priorities.iter().all(|&p| p == priorities[0]),
            "an unsearched plan ties every segment: {priorities:?}"
        );
        let planner = DipPlanner::on_topology(
            &spec,
            parallel(),
            ClusterTopology::mixed_h800_h20(1, 0),
            config,
        );
        let outcome = planner
            .replan_elastic(
                &batches,
                &old_plan,
                &old_topology,
                &ElasticConfig::default(),
            )
            .unwrap();
        let plan = &outcome.plan;
        let [lone] = outcome.candidates.as_slice() else {
            panic!("{} candidates, not one", outcome.candidates.len());
        };
        assert_eq!(
            lone.evaluations,
            searched_evaluations(&planner, plan.graph.len(), 1),
            "the search evaluates the seed the tied ranking pass did not run"
        );
        let queue = DualQueueConfig {
            segment_priorities: plan.segment_priorities.clone(),
            memory_limit: Some(planner.activation_budget(&plan.graph.static_memory)),
            ..DualQueueConfig::default()
        };
        let (orders, makespan) = dip_pipeline::dual_queue::schedule(&plan.graph, &queue);
        assert_eq!(plan.stats.planned_time_s.to_bits(), makespan.to_bits());
        assert_eq!(plan.orders, orders);
    }

    /// The replan this module made before the one-pass ranking: every
    /// candidate searched, the best searched price served under the same
    /// ranking rule.
    fn search_everything(
        planner: &DipPlanner<'_>,
        batches: &[BatchWorkload],
        old_plan: &DipPlan,
        old_topology: &ClusterTopology,
        config: &ElasticConfig,
    ) -> CandidateReport {
        let delta = old_topology.delta_to(&planner.topology, planner.parallel.tp);
        let mut best: Option<CandidateReport> = None;
        for (candidate, placement) in planner.candidate_placements(batches, old_plan) {
            let migration = migration_cost(
                planner.spec,
                &old_plan.placement,
                &placement,
                &planner.topology,
                &delta,
            );
            let priced = planner
                .price(
                    batches,
                    Reuse::Elastic {
                        anchor: old_plan,
                        placement,
                    },
                )
                .unwrap();
            let pass = priced.one_pass();
            let ordering = planner.search_seeded(&priced, pass, config.delta_budget);
            let report = CandidateReport::priced(
                candidate,
                migration,
                ordering.best_time_s,
                ordering.evaluations,
                config.migration_weight,
            );
            if best
                .as_ref()
                .is_none_or(|b| report.beats(b, config.migration_weight))
            {
                best = Some(report);
            }
        }
        best.expect("Stay is always a candidate")
    }

    /// The guard of the one-pass ranking. Random failure schedules, zoo
    /// models (T2V-S, VLM-S) and migration weights (0, 1, ∞) are replanned
    /// leader-only and with [`search_everything`]. The served objective
    /// never exceeds the leader's one-pass objective; the agreement rate
    /// and the worst objective loss against searching every candidate are
    /// printed (`--nocapture`). The ranking key is the objective at finite
    /// weights and `(transfer, planned)` at infinite weight, so the loss is
    /// measured on the objective, or on the planned time when nothing
    /// moved differently.
    #[test]
    fn one_pass_ranking_against_searching_every_candidate() {
        const CASES: u64 = 48;
        let (mut ranked, mut runner_ups, mut leader_agreed, mut agreed) = (0u32, 0, 0, 0);
        let mut worst_loss = 0.0f64;
        let mut rng = TestRng::new(0xE1A5_71C0);
        for case in 0..CASES {
            let t2v = (0u8..2).generate(&mut rng) == 0;
            let (spec, batches): (LmmSpec, _) = if t2v {
                (
                    zoo::t2v_s(),
                    t2v_batches((0u64..1 << 20).generate(&mut rng)),
                )
            } else {
                (
                    zoo::vlm_s(),
                    vlm_batches((0u64..1 << 20).generate(&mut rng)),
                )
            };
            let weight = [0.0, 1.0, f64::INFINITY][(0usize..3).generate(&mut rng)];
            let elastic = ElasticConfig {
                migration_weight: weight,
                ..ElasticConfig::default()
            };
            let base = ClusterTopology::mixed_h800_h20(2, 1);
            let schedule = FailureSchedule::seeded(&base, 8, 3, (0u64..1 << 32).generate(&mut rng));
            let config = time_budgeted_config(1, 40, case);
            let mut running =
                DipPlanner::on_topology(&spec, parallel(), base.clone(), config.clone())
                    .plan_iteration(&batches)
                    .unwrap();
            let mut old_topology = base;
            for (_, topology) in schedule.topologies() {
                let planner =
                    DipPlanner::on_topology(&spec, parallel(), topology.clone(), config.clone());
                let outcome = planner
                    .replan_elastic(&batches, &running, &old_topology, &elastic)
                    .unwrap();
                if outcome.candidates.len() > 1 {
                    ranked += 1;
                    // The one-pass leader, under the ranking rule.
                    let leader = outcome
                        .candidates
                        .iter()
                        .reduce(|best, c| if c.beats(best, weight) { c } else { best })
                        .unwrap();
                    let searched = outcome
                        .candidates
                        .iter()
                        .filter(|c| c.searched_objective.is_some())
                        .count();
                    runner_ups += (searched == 2) as u32;
                    let served = CandidateReport {
                        planned_time_s: outcome.plan.stats.planned_time_s,
                        objective: outcome.objective,
                        ..outcome
                            .candidates
                            .iter()
                            .find(|c| c.candidate == outcome.candidate)
                            .unwrap()
                            .clone()
                    };
                    assert!(
                        !leader.beats(&served, weight),
                        "case {case}: served {} above the leader's one-pass {}",
                        served.objective,
                        leader.objective
                    );
                    let reference =
                        search_everything(&planner, &batches, &running, &old_topology, &elastic);
                    leader_agreed += (reference.candidate == leader.candidate) as u32;
                    if reference.candidate == served.candidate {
                        agreed += 1;
                        assert_eq!(
                            reference.planned_time_s.to_bits(),
                            served.planned_time_s.to_bits(),
                            "case {case}: one candidate searched twice must plan alike"
                        );
                    }
                    let loss = if reference.objective.is_finite() {
                        served.objective / reference.objective - 1.0
                    } else {
                        served.planned_time_s / reference.planned_time_s - 1.0
                    };
                    worst_loss = worst_loss.max(loss);
                }
                running = outcome.plan;
                old_topology = topology;
            }
        }
        println!(
            "leader-only search: {ranked} multi-candidate replans; the one-pass leader is \
             the best searched candidate in {leader_agreed}; {runner_ups} also searched the \
             runner-up, and the served candidate is the best searched one in {agreed}; \
             worst objective loss {:.4}%",
            worst_loss * 100.0
        );
        assert!(
            ranked > 0,
            "the schedules must produce multi-candidate replans"
        );
    }
}
