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
//! Each candidate runs a small ordering search seeded from the old plan's
//! ordering, budgeted in *virtual time* by [`ElasticConfig::delta_budget`]
//! on the calibrated evaluation cost model, so a fixed seed yields a
//! bit-identical recovery sequence at any worker count on any machine.

use crate::error::DipError;
use crate::planner::{heaviest, DipPlan, DipPlanner, Reuse};
use dip_models::{BatchWorkload, ModuleId};
use dip_pipeline::{full_restore_cost, migration_cost, MigrationCost, Placement};
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
    /// Virtual-time search budget per candidate, converted into an
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
    /// The searcher's estimate of the candidate's iteration time (seconds).
    pub planned_time_s: f64,
    /// `planned_time_s + migration_weight · transfer_time_s` (infinite
    /// weight: infinite unless nothing moves).
    pub objective: f64,
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
    /// The winning candidate's objective value.
    pub objective: f64,
    /// Deterministic virtual planning time of the whole replan: candidate
    /// search evaluations priced on the calibrated evaluation cost model.
    /// Together with `migration.transfer_time_s` this is the recovery bill.
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

/// One candidate evaluated: its plan plus its report.
struct Evaluated {
    report: CandidateReport,
    plan: DipPlan,
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
    /// are reused; candidate placements (see the [module docs](self)) are
    /// priced with one stage-graph expansion plus a seeded ordering search
    /// each, and the winner minimises
    /// `planned_time + migration_weight · transfer_time`. Ties keep the
    /// earlier candidate, so at infinite weight the movement-minimal
    /// **Stay** candidate wins unless strictly beaten on transfer time.
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
        let candidates = self.candidate_placements(microbatches, old_plan);
        let mut evaluated: Vec<Evaluated> = Vec::with_capacity(candidates.len());
        for (candidate, placement) in candidates {
            evaluated.push(self.evaluate_candidate(
                microbatches,
                old_plan,
                candidate,
                placement,
                &delta,
                config,
            )?);
        }
        let planning_virtual_s: f64 = evaluated
            .iter()
            .map(|e| self.virtual_planning_s(&e.plan))
            .sum();

        // First strictly-better candidate wins; ties keep the earlier one
        // (Stay precedes every rebalance variant).
        let mut best = 0;
        for i in 1..evaluated.len() {
            let better = if config.migration_weight.is_infinite() {
                let a = &evaluated[i].report;
                let b = &evaluated[best].report;
                (a.migration.transfer_time_s, a.planned_time_s)
                    < (b.migration.transfer_time_s, b.planned_time_s)
            } else {
                evaluated[i].report.objective < evaluated[best].report.objective
            };
            if better {
                best = i;
            }
        }
        let reports: Vec<CandidateReport> = evaluated.iter().map(|e| e.report.clone()).collect();
        let Evaluated { report, mut plan } = evaluated.swap_remove(best);
        // The replan's bill covers every candidate; the worker split and the
        // planned time stay the winner's own.
        let stats = &mut plan.stats;
        stats.planning_time = start.elapsed();
        for other in evaluated.iter().map(|e| &e.plan.stats) {
            stats.phases += other.phases;
            stats.search_evaluations += other.search_evaluations;
            stats.search_work += other.search_work;
        }
        Ok(ElasticOutcome {
            plan,
            report: ElasticReport {
                migration: report.migration,
                candidate: report.candidate,
                objective: report.objective,
                delta,
                planning_virtual_s,
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
        self.virtual_planning_s(cold_plan) + restore.transfer_time_s
    }

    /// The virtual planning time of `plan`'s search: its evaluations priced
    /// on the calibrated evaluation cost model at the plan's graph size.
    fn virtual_planning_s(&self, plan: &DipPlan) -> f64 {
        let per_evaluation = self
            .config
            .search
            .eval_cost
            .seconds(plan.graph.len() as u64);
        per_evaluation.max(0.0) * plan.stats.search_evaluations as f64
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

    /// Prices one candidate: migration cost, then the elastic reuse policy
    /// of the planning pipeline — one stage-graph expansion repriced under
    /// the old memory plan and a seeded ordering search under the elastic
    /// delta budget.
    fn evaluate_candidate(
        &self,
        microbatches: &[BatchWorkload],
        old_plan: &DipPlan,
        candidate: ElasticCandidate,
        placement: Placement,
        delta: &TopologyDelta,
        config: &ElasticConfig,
    ) -> Result<Evaluated, DipError> {
        let migration = migration_cost(
            self.spec,
            &old_plan.placement,
            &placement,
            &self.topology,
            delta,
        );
        let plan = self.plan_with(
            microbatches,
            Reuse::Elastic {
                anchor: old_plan,
                placement,
                budget: config.delta_budget,
            },
        )?;
        let planned = plan.stats.planned_time_s;
        let objective = if config.migration_weight.is_infinite() {
            if migration.transfer_time_s > 0.0 {
                f64::INFINITY
            } else {
                planned
            }
        } else {
            planned + config.migration_weight * migration.transfer_time_s
        };
        Ok(Evaluated {
            report: CandidateReport {
                candidate,
                migration,
                planned_time_s: planned,
                objective,
            },
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    //! The named `InvalidRequest` arms of the anchor compatibility check,
    //! exercised on the planner's two anchored entry points themselves
    //! (`plan_iteration_delta` and `replan_elastic`): a session serves
    //! neither with a mismatched anchor, so only the planner can show them.

    use super::*;
    use crate::PlannerConfig;
    use dip_models::{zoo, Modality, ModalityWorkload};
    use dip_pipeline::ParallelConfig;

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
}
