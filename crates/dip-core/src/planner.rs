//! The DIP online planner (§3.2): for every training iteration, prefetched
//! microbatch metadata is turned into sub-microbatches, a pipeline schedule
//! is searched on idle CPU workers, per-layer memory strategies are chosen,
//! and the resulting execution plan is deployed (here: simulated).

use crate::error::{DipError, ResultExt};
use crate::memopt::{optimize_memory_detailed, MemoryOptConfig};
use crate::ordering::{
    ordering_from_priorities, search_from, search_ordering, OrderingResult, OrderingSearchConfig,
    SearchWork,
};
use crate::partitioner::{ModalityAwarePartitioner, PartitionerConfig, PartitionerOutput};
use dip_models::{BatchWorkload, LmmSpec, Modality};
use dip_pipeline::{
    dual_queue, execute, DualQueueConfig, ExecutionOutcome, ExecutorConfig, MemoryPlan,
    ParallelConfig, PassMemo, Placement, RankOrders, ScheduleWorkspace, StageGraph,
    StageGraphBuilder, SubMicrobatchPlan,
};
use dip_sim::{
    CalibrationRegistry, CalibrationSource, ClusterTopology, EfficiencyModel, TimingModel,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// Configuration of the DIP planner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Modality-aware partitioner settings (§4).
    pub partitioner: PartitionerConfig,
    /// Segment-ordering search settings (§5.1). The planner rejects a set
    /// `seed_ordering` with [`DipError::InvalidRequest`]: a cold plan
    /// searches unseeded and an elastic replan seeds from its anchor, so no
    /// tier could honour it. It ignores `dual_queue` (each plan's own
    /// memory limits) and, on elastic replans, `time_budget` (replaced by
    /// [`crate::ElasticConfig::delta_budget`]). `delta_budget` is inert.
    pub search: OrderingSearchConfig,
    /// Per-layer memory optimisation settings (§5.3).
    pub memory: MemoryOptConfig,
    /// Efficiency factors of the underlying timing model.
    pub efficiency: EfficiencyModel,
    /// Enables the pipeline schedule searcher. Disabling it yields the
    /// "DIP (no-opt)" variant of Fig. 8b (modality-aware partitioner only).
    pub enable_search: bool,
    /// Enables per-layer memory optimisation.
    pub enable_memory_opt: bool,
    /// The planner's total CPU-thread budget.
    /// [`crate::PlanningSession::plan_many`] sizes its worker pool as
    /// `num_threads / search.workers` (at least one), so batch planning
    /// never runs more than `num_threads` concurrent threads in total.
    /// Set together with `search.workers` via
    /// [`PlannerConfig::with_num_threads`].
    pub num_threads: usize,
    /// Fleet calibration artifacts, consulted when the planner is bound to
    /// a topology: the registry resolves through its fallback chain (exact
    /// fingerprint → device-kind defaults → built-in constants), rewrites
    /// the topology's device timing parameters and installs the calibrated
    /// link latencies and virtual-clock [`dip_sim::CostModel`]s into this
    /// config. `None` skips resolution entirely and is bit-identical to a
    /// registry that resolves to the built-in tier.
    pub calibration: Option<CalibrationRegistry>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            partitioner: PartitionerConfig::default(),
            search: OrderingSearchConfig::default(),
            memory: MemoryOptConfig::default(),
            efficiency: EfficiencyModel::default(),
            enable_search: true,
            enable_memory_opt: true,
            num_threads: 4,
            calibration: None,
        }
    }
}

impl PlannerConfig {
    /// A configuration with a short search budget, handy for tests and
    /// examples. The budget is virtual time: ~40 ms worth of evaluations
    /// per stream under the calibrated cost model, identical on any
    /// machine.
    pub fn fast() -> Self {
        Self {
            search: OrderingSearchConfig {
                time_budget: Duration::from_millis(40),
                streams: 2,
                workers: 2,
                ..OrderingSearchConfig::default()
            },
            ..Self::default()
        }
    }

    /// The "DIP (no-opt)" variant: modality-aware partitioning only, no
    /// schedule search and no memory optimisation (Fig. 8b / Table 5 row 1).
    pub fn no_opt() -> Self {
        Self {
            enable_search: false,
            enable_memory_opt: false,
            ..Self::fast()
        }
    }

    /// Gives the planner an `n`-thread CPU budget: `n` ordering-search
    /// workers per plan (also the memory optimiser's per-plan thread
    /// budget), with [`crate::PlanningSession::plan_many`] sizing its pool
    /// within the same budget (so with all `n` threads devoted to the
    /// search, batch planning proceeds one plan at a time). To fan out
    /// across plans instead, set `search.workers` to 1 and keep
    /// `num_threads` at the core count.
    ///
    /// Purely a throughput knob: `search.streams` (the search-space shape)
    /// is deliberately left untouched, so two machines configured with
    /// different thread budgets still plan **bit-identically** for a fixed
    /// seed.
    pub fn with_num_threads(mut self, n: usize) -> Self {
        let n = n.max(1);
        self.search.workers = n;
        self.num_threads = n;
        self
    }

    /// Installs a fleet calibration registry; see
    /// [`PlannerConfig::calibration`].
    pub fn with_calibration(mut self, registry: CalibrationRegistry) -> Self {
        self.calibration = Some(registry);
        self
    }
}

/// Which tier of the planning session's four-tier lookup produced a plan:
/// exact cache hit, elastic replan (the request's own plan from before a
/// [`crate::PlanningSession::retarget`], carried onto the new topology),
/// fuzzy hit (replanned from an in-bucket neighbour) or cold (planned from
/// scratch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PlanTier {
    /// Planned from scratch: full ordering search plus memory ILP.
    #[default]
    Cold,
    /// Served from the exact-signature plan cache without re-planning.
    Exact,
    /// Replanned from an in-bucket neighbour's cached plan: the
    /// neighbour's placement, splits, memory plan and ordering are reused,
    /// and one interleave pass schedules the repriced graph. No search runs.
    Fuzzy,
    /// Elastically replanned across a cluster-topology change (the first
    /// plan of a request after [`crate::PlanningSession::retarget`]): the
    /// old plan's sub-microbatch table and memory plan are reused,
    /// candidate placements are priced with one interleave pass each
    /// against a migration-cost objective, and only the leader (with a
    /// runner-up priced close to it) runs a small seeded ordering search.
    Elastic,
}

/// Wall time per planning phase (§3.2), read at the phase boundaries on
/// the planning thread; no search stream or per-rank ILP reads a clock. A
/// plan's phases are its own; a session or an elastic replan sums them
/// over plans with `+=`. The work a phase did is counted apart and
/// deterministically ([`PlannerStats::search_evaluations`],
/// [`PlannerStats::search_work`],
/// [`PlannerStats::memopt_constraint_entries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// The partitioning phase: sub-microbatch planning, plus the offline
    /// partition on the first iteration.
    pub partition: Duration,
    /// The stage-graph construction phase: the one full serial expansion
    /// per plan (workload splitting, stage pricing and dependency wiring).
    /// Applying a memory plan is an in-place [`StageGraph::reprice`],
    /// counted under `memopt`.
    pub graph_build: Duration,
    /// The schedule-search phase (§5.1–5.2).
    pub search: Duration,
    /// The memory-optimisation phase (§5.3): the reprice under the chosen
    /// (or adopted) strategies, the per-rank ILPs and the re-interleave.
    pub memopt: Duration,
}

impl AddAssign for PhaseTimes {
    fn add_assign(&mut self, other: Self) {
        self.partition += other.partition;
        self.graph_build += other.graph_build;
        self.search += other.search;
        self.memopt += other.memopt;
    }
}

/// Statistics of one planning invocation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PlannerStats {
    /// Wall-clock time spent planning (all phases).
    pub planning_time: Duration,
    /// Wall time per phase. All zero on an exact cache hit, which ran none.
    pub phases: PhaseTimes,
    /// Number of schedule candidates evaluated by the searcher (see
    /// [`crate::OrderingResult::evaluations`]); 0 on an exact cache hit.
    pub search_evaluations: u64,
    /// The kernel work behind `search_evaluations` (see
    /// [`crate::OrderingResult::work`]); zero on an exact cache hit.
    pub search_work: SearchWork,
    /// Constraint entries the memory ILPs stored (see
    /// [`crate::MemoryOptOutcome::constraint_entries`]); zero when no
    /// memory ILP ran.
    pub memopt_constraint_entries: u64,
    /// The searcher's own estimate of the planned iteration time (seconds).
    pub planned_time_s: f64,
    /// The lookup tier that produced this plan — the per-tier latency
    /// split: `planning_time` under [`PlanTier::Exact`] is pure cache
    /// lookup, under [`PlanTier::Fuzzy`] one graph expansion + reprice +
    /// one interleave pass, under [`PlanTier::Cold`] the full pipeline.
    pub tier: PlanTier,
}

/// A deployed execution plan for one training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct DipPlan {
    /// The stage graph (with memory strategies applied).
    pub graph: StageGraph,
    /// Per-rank execution orders.
    pub orders: RankOrders,
    /// The segment priorities chosen by the searcher.
    pub segment_priorities: Vec<i64>,
    /// The per-stage-pair memory strategies.
    pub memory_plan: MemoryPlan,
    /// The sub-microbatch plan used for this iteration.
    pub sub_microbatches: SubMicrobatchPlan,
    /// The model-chunk placement the plan executes — provenance for elastic
    /// replanning, where the old placement seeds the candidate set and
    /// migration pricing compares old and new layer hosts.
    pub placement: Placement,
    /// The sorted union of modalities across the planned request's
    /// microbatches. Delta replans guard on it: a plan for a different
    /// modality set is structurally incompatible as an anchor.
    pub modalities: Vec<Modality>,
    /// Fingerprint of the cluster topology the plan was priced on
    /// ([`ClusterTopology::fingerprint`]). Delta replans guard on it, and
    /// elastic replans use it to detect the no-change fast path.
    pub topology_fingerprint: u64,
    /// Planner statistics.
    pub stats: PlannerStats,
}

/// Rejects a request with no microbatches, or with a microbatch of zero
/// tokens (naming its index): there is nothing to plan, and a planned
/// iteration made only of fixed overheads would be a wrong answer.
pub(crate) fn require_microbatches(microbatches: &[BatchWorkload]) -> Result<(), DipError> {
    if microbatches.is_empty() {
        return Err(DipError::invalid_request(
            "cannot plan an iteration with zero microbatches",
        ));
    }
    if let Some(index) = microbatches.iter().position(|mb| mb.total_tokens() == 0) {
        return Err(DipError::invalid_request(format!(
            "microbatch {index} has zero tokens; every microbatch needs work to plan"
        )));
    }
    Ok(())
}

/// Rejects a parallel configuration with a zero degree, naming the field:
/// the pricing, placement and graph code clamp degrees to at least 1, so a
/// zero would otherwise plan silently as if it were 1.
pub(crate) fn require_parallel_degrees(parallel: ParallelConfig) -> Result<(), DipError> {
    let degrees = [
        ("tp", parallel.tp),
        ("pp", parallel.pp),
        ("dp", parallel.dp),
    ];
    match degrees.iter().find(|(_, degree)| *degree == 0) {
        Some((field, _)) => Err(DipError::invalid_request(format!(
            "parallel configuration {parallel} has {field} = 0; every parallel \
             degree must be at least 1"
        ))),
        None => Ok(()),
    }
}

/// The heaviest microbatch (most tokens; the last of equals), the
/// representative workload of offline placement decisions.
pub(crate) fn heaviest<'b>(
    microbatches: impl IntoIterator<Item = &'b BatchWorkload>,
) -> Option<&'b BatchWorkload> {
    microbatches.into_iter().max_by_key(|b| b.total_tokens())
}

/// What a plan takes from an earlier plan — the one axis along which the
/// cold, fuzzy and elastic tiers differ. Everything else is the single
/// pipeline of [`DipPlanner::price`] and [`DipPlanner::finish`].
pub(crate) enum Reuse<'p> {
    /// Adopts nothing: the full-budget unseeded search, then the memory
    /// ILP, reprice and re-interleave.
    Cold,
    /// Adopts the anchor's placement, splits, memory plan and segment
    /// priorities, reprices, and runs one interleave pass: no search.
    Fuzzy(&'p DipPlan),
    /// Adopts the anchor's splits and memory plan over a candidate
    /// placement and reprices. The elastic replanner orders it: one pass
    /// under the anchor's priorities ranks it, and the leader's search
    /// starts from that pass ([`DipPlanner::search_seeded`]).
    Elastic {
        /// The plan running before the topology change.
        anchor: &'p DipPlan,
        /// The candidate placement on the new topology.
        placement: Placement,
    },
}

impl Reuse<'_> {
    /// The tier a plan under this policy is reported as.
    fn tier(&self) -> PlanTier {
        match self {
            Self::Cold => PlanTier::Cold,
            Self::Fuzzy(_) => PlanTier::Fuzzy,
            Self::Elastic { .. } => PlanTier::Elastic,
        }
    }
}

/// A request's stage graph built and repriced under a reuse policy: a plan
/// before its ordering step. [`DipPlanner::price`] makes one, and
/// [`DipPlanner::finish`] turns it and an ordering into a plan.
pub(crate) struct Priced<'p> {
    anchor: Option<&'p DipPlan>,
    placement: Placement,
    sub_plan: SubMicrobatchPlan,
    pub(crate) graph: StageGraph,
    /// The per-rank activation budget.
    budget: Vec<u64>,
    /// What every ordering of `graph` runs under: `budget` as the
    /// interleaver's memory limits.
    queue: DualQueueConfig,
    tier: PlanTier,
    start: Instant,
    /// Wall time so far: partition, graph build, and the reprice under
    /// `memopt`. The ordering step adds its own under `search`.
    pub(crate) phases: PhaseTimes,
}

impl Priced<'_> {
    /// Schedules the graph in one deterministic interleave pass under a
    /// verbatim ordering: the anchor's priorities on an anchored plan,
    /// priority zero for every segment on a cold one. The workspace the
    /// pass ran in holds its record, which an elastic candidate's search
    /// adopts ([`DipPlanner::search_seeded`]).
    pub(crate) fn one_pass(&self) -> (OrderingResult, ScheduleWorkspace) {
        let num_segments = self.placement.segments.len();
        let segment_priorities = self
            .anchor
            .map_or_else(|| vec![0; num_segments], |a| a.segment_priorities.clone());
        let queue = DualQueueConfig {
            segment_priorities,
            ..self.queue.clone()
        };
        let mut ws = ScheduleWorkspace::new();
        let best_time_s = dual_queue::schedule_into(&self.graph, &queue, &mut ws);
        let pass = OrderingResult {
            segment_priorities: queue.segment_priorities,
            best_time_s,
            evaluations: 1,
            work: SearchWork {
                distinct_orderings: 1,
                interleave_passes: 1,
                live_steps: self.graph.len() as u64,
                ..SearchWork::default()
            },
            evaluation_quota: 0,
            progress: Vec::new(),
            orders: ws.orders(&self.graph),
        };
        (pass, ws)
    }
}

/// The sorted union of modalities across a request's microbatches.
pub(crate) fn request_modalities(microbatches: &[BatchWorkload]) -> Vec<Modality> {
    let mut set = std::collections::BTreeSet::new();
    for microbatch in microbatches {
        set.extend(microbatch.modalities());
    }
    set.into_iter().collect()
}

/// The DIP training planner: one model, parallel layout and cluster
/// topology, and the pipeline that plans an iteration on them.
///
/// Plans reach callers through a [`crate::PlanningSession`], which owns a
/// planner and serves every tier (exact, elastic, fuzzy and cold), and
/// builds it with [`DipPlanner::on_topology`].
#[derive(Debug)]
pub struct DipPlanner<'a> {
    pub(crate) spec: &'a LmmSpec,
    pub(crate) parallel: ParallelConfig,
    pub(crate) topology: ClusterTopology,
    pub(crate) config: PlannerConfig,
    timing: TimingModel,
    calibration_source: CalibrationSource,
    partition: Mutex<Option<PartitionerOutput>>,
}

impl<'a> DipPlanner<'a> {
    /// Creates a planner over a (possibly heterogeneous) cluster topology.
    /// The offline model-chunk partitioning happens on the first planned
    /// iteration (or via [`DipPlanner::offline_partition`]). Stage
    /// timings are priced on each rank's own device, per-rank memory
    /// budgets follow the hosting device's capacity, and the
    /// capacity-aware placement mode distributes layers by device
    /// capability.
    pub fn on_topology(
        spec: &'a LmmSpec,
        parallel: ParallelConfig,
        mut topology: ClusterTopology,
        mut config: PlannerConfig,
    ) -> Self {
        // Resolve the fleet calibration once, up front: the resolved
        // artifact rewrites the topology's device timing parameters, so
        // every downstream pricing site (stage graph, placement DP,
        // executor, cache fingerprints) sees calibrated devices without
        // any per-site plumbing. A constants-encoding artifact rewrites
        // every field to its current value and is bit-identical to `None`.
        let calibration_source = match &config.calibration {
            Some(registry) => {
                let resolved = registry.resolve(&topology);
                topology = resolved.apply(&topology);
                resolved.apply_latencies(&mut config.efficiency);
                config.search.eval_cost = resolved.eval_cost;
                config.memory.node_cost = resolved.ilp_node_cost;
                resolved.source
            }
            None => CalibrationSource::BuiltIn,
        };
        // Offline decisions that predate placement (segment counts,
        // sub-microbatch sizes) are priced on the reference device.
        let timing = TimingModel::new(topology.reference_device(), config.efficiency);
        Self {
            spec,
            parallel,
            topology,
            config,
            timing,
            calibration_source,
            partition: Mutex::new(None),
        }
    }

    /// Which tier of the calibration fallback chain supplied this planner's
    /// timing parameters ([`dip_sim::CalibrationSource::BuiltIn`] when no
    /// registry is configured).
    pub fn calibration_source(&self) -> CalibrationSource {
        self.calibration_source
    }

    /// The reference timing model used by the planner for offline decisions.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// The cluster topology the planner plans for.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The planner configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Activation-memory budget per pipeline rank: the usable memory of the
    /// device hosting each rank minus that rank's static footprint.
    pub(crate) fn activation_budget(&self, static_memory: &[u64]) -> Vec<u64> {
        self.topology
            .activation_budget(static_memory, self.parallel.tp)
    }

    /// A partitioner bound to this planner's topology and configuration.
    fn partitioner(&self) -> ModalityAwarePartitioner<'a> {
        ModalityAwarePartitioner::new(
            self.spec,
            self.parallel,
            self.timing,
            self.config.partitioner,
        )
        .on_topology(&self.topology)
    }

    /// Runs (or re-runs) the offline phase against a representative
    /// microbatch, fixing the model-chunk placement for subsequent
    /// iterations.
    ///
    /// # Errors
    ///
    /// Returns [`DipError::Pipeline`] if the resulting placement is invalid
    /// for the model specification.
    pub fn offline_partition(
        &self,
        representative: &BatchWorkload,
    ) -> Result<PartitionerOutput, DipError> {
        let output = self.partitioner().partition(representative)?;
        *self.partition.lock() = Some(output.clone());
        Ok(output)
    }

    /// The fixed partitioner output, if the offline phase has run.
    pub fn partition_output(&self) -> Option<PartitionerOutput> {
        self.partition.lock().clone()
    }

    /// Runs the offline phase against `representative` only if no placement
    /// is pinned yet, holding the partition lock across the whole
    /// check-and-pin — so concurrent planners on a fresh shared planner
    /// agree on one placement (the second caller blocks, then reads the
    /// first's output) instead of racing last-write-wins.
    ///
    /// # Errors
    ///
    /// Propagates [`DipError`] from the partitioner.
    pub fn offline_partition_if_absent(
        &self,
        representative: &BatchWorkload,
    ) -> Result<PartitionerOutput, DipError> {
        let mut guard = self.partition.lock();
        if let Some(p) = guard.clone() {
            return Ok(p);
        }
        let output = self.partitioner().partition(representative)?;
        *guard = Some(output.clone());
        Ok(output)
    }

    fn ensure_partition(
        &self,
        microbatches: &[BatchWorkload],
    ) -> Result<PartitionerOutput, DipError> {
        // The heaviest microbatch of the first iteration is the
        // representative workload.
        let representative = heaviest(microbatches).cloned().unwrap_or_default();
        self.offline_partition_if_absent(&representative)
    }

    /// Plans one training iteration from prefetched microbatch metadata
    /// (workflow steps ①–③ of §3.2). Only the planner benchmark calls it
    /// directly; everything else plans through
    /// [`crate::PlanningSession::plan`], and it becomes crate-private once
    /// the benchmark does too.
    ///
    /// # Errors
    ///
    /// Returns [`DipError::InvalidRequest`] for an empty request or a
    /// microbatch of zero tokens, a parallel configuration with a zero
    /// degree or a set `search.seed_ordering` (the message names the
    /// field), otherwise [`DipError`] wrapping failures from partitioning,
    /// stage-graph construction or memory optimisation.
    pub fn plan_iteration(&self, microbatches: &[BatchWorkload]) -> Result<DipPlan, DipError> {
        self.plan_with(microbatches, Reuse::Cold)
    }

    /// Replans one iteration from a cached neighbour's plan — the fuzzy
    /// tier of the [`crate::PlanningSession`] three-tier lookup. The
    /// anchor's placement, sub-microbatch splits, per-stage-pair memory
    /// strategies and segment priorities are adopted as-is; the stage graph
    /// is expanded once for the *new* workloads (so every stage is priced
    /// against the real shape) and repriced in place under the adopted
    /// strategies; then one deterministic interleave pass schedules it under
    /// the anchor's priorities. No ordering search and no memory ILP run.
    /// Only the planner benchmark calls it directly; everything else plans
    /// through [`crate::PlanningSession::plan`], and it becomes
    /// crate-private once the benchmark does too.
    ///
    /// # Errors
    ///
    /// Returns [`DipError::InvalidRequest`] when the anchor is
    /// structurally incompatible with the request, with the message naming
    /// the mismatched field — parallel configuration, topology fingerprint,
    /// modality set, microbatch count or segment count (callers fall back
    /// to a cold plan) — and otherwise propagates stage-graph construction
    /// failures.
    pub fn plan_iteration_delta(
        &self,
        microbatches: &[BatchWorkload],
        anchor: &DipPlan,
    ) -> Result<DipPlan, DipError> {
        self.check_anchor(microbatches, anchor, self.topology.fingerprint())?;
        self.plan_with(microbatches, Reuse::Fuzzy(anchor))
    }

    /// The one compatibility check of every anchored replan: `anchor` can
    /// seed a plan of `microbatches` only if it was planned for this
    /// planner's parallel configuration, on the topology whose fingerprint
    /// is `planned_on`, for the request's modality set and microbatch
    /// count, and if its splits and priorities cover its own placement's
    /// segments. Each mismatch is its own arm, and the
    /// [`DipError::InvalidRequest`] message names the field.
    pub(crate) fn check_anchor(
        &self,
        microbatches: &[BatchWorkload],
        anchor: &DipPlan,
        planned_on: u64,
    ) -> Result<(), DipError> {
        require_microbatches(microbatches)?;
        require_parallel_degrees(self.parallel)?;
        let modalities = request_modalities(microbatches);
        let segments = anchor.placement.segments.len();
        let mismatch = if anchor.placement.parallel != self.parallel {
            format!(
                "anchor parallel configuration {} does not match the planner \
                 parallel configuration {}",
                anchor.placement.parallel, self.parallel
            )
        } else if anchor.topology_fingerprint != planned_on {
            format!(
                "anchor topology fingerprint {:#018x} does not match the \
                 expected topology fingerprint {planned_on:#018x}",
                anchor.topology_fingerprint
            )
        } else if anchor.modalities != modalities {
            format!(
                "anchor modality set {:?} does not match the request \
                 modality set {modalities:?}",
                anchor.modalities
            )
        } else if anchor.sub_microbatches.num_microbatches() != microbatches.len() {
            format!(
                "anchor microbatch count {} does not match the request \
                 microbatch count {}",
                anchor.sub_microbatches.num_microbatches(),
                microbatches.len()
            )
        } else if anchor.sub_microbatches.num_segments() != segments
            || anchor.segment_priorities.len() != segments
        {
            format!(
                "anchor segment count {} ({} priorities) does not match the \
                 placement segment count {segments}",
                anchor.sub_microbatches.num_segments(),
                anchor.segment_priorities.len()
            )
        } else {
            return Ok(());
        };
        Err(DipError::invalid_request(mismatch))
    }

    /// The one planning pipeline behind the cold and fuzzy tiers:
    /// [`DipPlanner::price`], the ordering step — the full-budget search on
    /// a cold plan, one pass under the anchor's priorities on an anchored
    /// one — and [`DipPlanner::finish`]. Callers with an anchor run
    /// [`DipPlanner::check_anchor`] first.
    ///
    /// # Errors
    ///
    /// As [`DipPlanner::price`] and [`DipPlanner::finish`].
    pub(crate) fn plan_with(
        &self,
        microbatches: &[BatchWorkload],
        reuse: Reuse<'_>,
    ) -> Result<DipPlan, DipError> {
        let mut priced = self.price(microbatches, reuse)?;
        // Phase ①+②: segment reordering + stage interleaving. No search
        // runs with search disabled.
        let search_start = Instant::now();
        let ordering = match priced.anchor {
            None if self.config.enable_search => {
                let search = OrderingSearchConfig {
                    dual_queue: priced.queue.clone(),
                    ..self.config.search.clone()
                };
                search_ordering(&priced.graph, priced.placement.segments.len(), &search)
            }
            _ => priced.one_pass().0,
        };
        priced.phases.search += search_start.elapsed();
        self.finish(microbatches, priced, ordering)
    }

    /// The front half of every tier's pipeline: placement and splits
    /// (planned, or adopted from the anchor), one stage-graph expansion,
    /// the reprice under an adopted memory plan and the activation budget.
    /// `reuse` decides what comes from an earlier plan.
    ///
    /// # Errors
    ///
    /// Returns [`DipError::InvalidRequest`] for an empty request or a
    /// microbatch of zero tokens, a parallel configuration with a zero
    /// degree or a set `search.seed_ordering`, otherwise [`DipError`]
    /// wrapping failures from partitioning or stage-graph construction.
    pub(crate) fn price<'p>(
        &self,
        microbatches: &[BatchWorkload],
        reuse: Reuse<'p>,
    ) -> Result<Priced<'p>, DipError> {
        require_microbatches(microbatches)?;
        require_parallel_degrees(self.parallel)?;
        if self.config.search.seed_ordering.is_some() {
            return Err(DipError::invalid_request(
                "planner config sets search.seed_ordering, which no planning tier reads: \
                 cold plans search unseeded and elastic replans seed from their anchor",
            ));
        }
        let start = Instant::now();
        let tier = reuse.tier();
        let (anchor, placement, sub_plan) = match reuse {
            Reuse::Cold => {
                let partition = self.ensure_partition(microbatches)?;
                let sub_plan = self
                    .partitioner()
                    .sub_microbatch_plan(&partition, microbatches);
                (None, partition.placement, sub_plan)
            }
            Reuse::Fuzzy(anchor) => (
                Some(anchor),
                anchor.placement.clone(),
                anchor.sub_microbatches.clone(),
            ),
            Reuse::Elastic { anchor, placement } => {
                (Some(anchor), placement, anchor.sub_microbatches.clone())
            }
        };
        let partition = start.elapsed();

        // The plan's one full stage-graph expansion: workloads are split
        // once (`prepare`), then every block is priced and wired. Memory
        // plans are applied by an in-place reprice, never a rebuild. An
        // adopted sub-microbatch table keeps the stage-pair indexing
        // aligned with the anchor's memory plan, so its strategies transfer
        // one-to-one.
        let build_start = Instant::now();
        let builder = StageGraphBuilder::new_on(self.spec, &placement, &self.topology)
            .with_efficiency(self.config.efficiency);
        let prepared = builder
            .prepare(microbatches, &sub_plan)
            .planning_context("building stage graph")?;
        let (mut graph, _) = builder.build_prepared(&prepared);
        let graph_build = build_start.elapsed();

        // An adopted memory plan is applied *before* scheduling, so the
        // ordering step sees final timings.
        let reprice_start = Instant::now();
        if let Some(anchor) = anchor {
            graph.reprice(&anchor.memory_plan);
        }
        let reprice_time = reprice_start.elapsed();

        let budget: Vec<u64> = self.activation_budget(&graph.static_memory);
        let queue = DualQueueConfig {
            memory_limit: Some(budget.clone()),
            ..DualQueueConfig::default()
        };
        Ok(Priced {
            anchor,
            placement,
            sub_plan,
            graph,
            budget,
            queue,
            tier,
            start,
            phases: PhaseTimes {
                partition,
                graph_build,
                search: Duration::ZERO,
                memopt: reprice_time,
            },
        })
    }

    /// The elastic tier's ordering step after a candidate's ranking pass
    /// under the anchor's priorities: the ordering search seeded from them,
    /// under `budget` (virtual time, [`crate::ElasticConfig::delta_budget`]),
    /// through a memo that adopts the pass from `ws`. The pass is the
    /// seed's evaluation unless the priorities are tied; the result counts
    /// it too. With search disabled, or when the budget buys no
    /// evaluation, the pass is the result.
    pub(crate) fn search_seeded(
        &self,
        priced: &Priced<'_>,
        (pass, ws): (OrderingResult, ScheduleWorkspace),
        budget: Duration,
    ) -> OrderingResult {
        let graph = &priced.graph;
        let search = OrderingSearchConfig {
            time_budget: budget,
            seed_ordering: Some(ordering_from_priorities(&pass.segment_priorities)),
            dual_queue: priced.queue.clone(),
            ..self.config.search.clone()
        };
        if !self.config.enable_search || search.evaluation_quota(graph.len()) == 0 {
            return pass;
        }
        let memo = PassMemo::adopting(graph, &pass.segment_priorities, &ws, pass.best_time_s);
        let mut searched = search_from(graph, priced.placement.segments.len(), &search, memo);
        searched.evaluations += pass.evaluations;
        // The memo's distinct orderings already count the adopted pass's.
        searched.work += SearchWork {
            distinct_orderings: 0,
            ..pass.work
        };
        searched
    }

    /// The back half of every tier's pipeline: phase ③ on a cold plan,
    /// then the plan itself. `ordering` is the ordering step's result on
    /// `priced`'s graph; an anchored plan adopts its anchor's memory plan.
    ///
    /// # Errors
    ///
    /// Returns [`DipError`] wrapping failures from memory optimisation.
    pub(crate) fn finish(
        &self,
        microbatches: &[BatchWorkload],
        priced: Priced<'_>,
        mut ordering: OrderingResult,
    ) -> Result<DipPlan, DipError> {
        let Priced {
            anchor,
            placement,
            sub_plan,
            mut graph,
            budget,
            queue,
            tier,
            start,
            mut phases,
        } = priced;
        // Phase ③ (cold plans): per-layer memory optimisation — the
        // per-rank ILPs run on this plan's CPU-thread share (`search.workers`,
        // the same budget the search phase just released) — then reprice
        // the graph in place with the chosen strategies and re-interleave
        // with the same priorities. The reprice is bit-identical to a full
        // rebuild (memory strategies only retime stages; dependencies and
        // lags are untouched) at a fraction of the cost.
        let memopt_start = Instant::now();
        let (memory_plan, memopt_constraint_entries) = match anchor {
            Some(anchor) => (anchor.memory_plan.clone(), 0),
            None if self.config.enable_memory_opt => {
                let memopt = optimize_memory_detailed(
                    &graph,
                    &ordering.orders,
                    &budget,
                    &self.config.memory,
                    self.config.search.workers.max(1),
                )?;
                graph.reprice(&memopt.plan);
                let queue = DualQueueConfig {
                    segment_priorities: ordering.segment_priorities.clone(),
                    ..queue
                };
                (ordering.orders, ordering.best_time_s) = dual_queue::schedule(&graph, &queue);
                (memopt.plan, memopt.constraint_entries)
            }
            None => (MemoryPlan::new(), 0),
        };
        phases.memopt += memopt_start.elapsed();

        Ok(DipPlan {
            graph,
            orders: ordering.orders,
            segment_priorities: ordering.segment_priorities,
            memory_plan,
            sub_microbatches: sub_plan,
            placement,
            modalities: request_modalities(microbatches),
            topology_fingerprint: self.topology.fingerprint(),
            stats: PlannerStats {
                planning_time: start.elapsed(),
                phases,
                search_evaluations: ordering.evaluations,
                search_work: ordering.work,
                memopt_constraint_entries,
                planned_time_s: ordering.best_time_s,
                tier,
            },
        })
    }

    /// Simulates the deployment of a plan (workflow step ④), returning the
    /// iteration's metrics.
    ///
    /// # Errors
    ///
    /// Returns [`DipError::Pipeline`] if the plan is inconsistent.
    pub fn simulate(&self, plan: &DipPlan) -> Result<ExecutionOutcome, DipError> {
        execute(
            &plan.graph,
            &plan.orders,
            &self.topology,
            &self.timing,
            &ExecutorConfig::new(self.parallel),
        )
        .planning_context("simulating plan deployment")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlanRequest, PlanningSession};
    use dip_models::{zoo, Modality, ModalityWorkload};
    use dip_pipeline::baselines::{simulate_megatron, BaselineContext};

    fn vlm_batch(images: u64) -> BatchWorkload {
        BatchWorkload::new()
            .with(
                Modality::Text,
                ModalityWorkload::new(8192 - images * 169, 1),
            )
            .with(Modality::Image, ModalityWorkload::new(images * 169, images))
    }

    /// Plans `batches` as one request through a fresh session on
    /// `cluster`, and simulates the plan.
    fn plan_and_simulate(
        spec: &LmmSpec,
        parallel: ParallelConfig,
        cluster: &ClusterTopology,
        config: PlannerConfig,
        batches: &[BatchWorkload],
    ) -> (DipPlan, ExecutionOutcome) {
        let session = PlanningSession::new(spec, parallel, cluster, config);
        let (outcome, execution) = session.plan_and_simulate(&batches.into()).unwrap();
        (outcome.plan, execution)
    }

    #[test]
    fn planner_produces_a_valid_plan_and_simulation() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = PlanningSession::new(
            &spec,
            ParallelConfig::new(4, 4, 1),
            &cluster,
            PlannerConfig::fast(),
        );
        let request = PlanRequest::new([10u64, 40, 2, 30].iter().map(|&i| vlm_batch(i)).collect());
        let (outcome, execution) = session.plan_and_simulate(&request).unwrap();
        let plan = outcome.plan;
        assert!(execution.metrics.iteration_time_s > 0.0);
        assert!(execution.metrics.mfu > 0.0);
        assert!(plan.stats.planning_time > Duration::ZERO);
        assert_eq!(plan.orders.num_stages(), plan.graph.len());
        assert!(plan.stats.phases.graph_build > Duration::ZERO);
        assert!(session.planner().partition_output().is_some());
    }

    #[test]
    fn a_set_seed_ordering_is_rejected_by_name() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let mut config = PlannerConfig::fast();
        config.search.seed_ordering = Some(vec![1, 0]);
        let session = PlanningSession::new(&spec, ParallelConfig::new(4, 4, 1), &cluster, config);
        let request = PlanRequest::new(vec![vlm_batch(10), vlm_batch(40)]);
        match session.plan(&request) {
            Err(DipError::InvalidRequest(message)) => {
                assert!(message.contains("search.seed_ordering"), "{message}")
            }
            other => panic!("expected an invalid request, got {other:?}"),
        }
        // The failed request is booked, and nothing was cached.
        let stats = session.stats();
        assert_eq!((stats.requests, stats.cache_misses), (1, 1));
        assert_eq!(session.cached_plans(), 0);
    }

    #[test]
    fn zero_parallel_degrees_are_rejected_by_name() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let batches: Vec<BatchWorkload> = [10u64, 40].iter().map(|&i| vlm_batch(i)).collect();
        for (parallel, field) in [
            (ParallelConfig::new(0, 4, 1), "tp = 0"),
            (ParallelConfig::new(4, 0, 1), "pp = 0"),
            (ParallelConfig::new(4, 4, 0), "dp = 0"),
        ] {
            let planner =
                DipPlanner::on_topology(&spec, parallel, cluster.clone(), PlannerConfig::fast());
            match planner.plan_iteration(&batches) {
                Err(DipError::InvalidRequest(message)) => {
                    assert!(message.contains(field), "{parallel}: {message}")
                }
                other => panic!("{parallel}: expected an invalid request, got {other:?}"),
            }
        }
    }

    #[test]
    fn num_threads_knob_reaches_search_and_leaves_the_plan_unchanged() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let parallel = ParallelConfig::new(4, 4, 1);
        let batches: Vec<BatchWorkload> = [10u64, 40].iter().map(|&i| vlm_batch(i)).collect();
        let plan_on = |threads: usize| {
            let config = PlannerConfig::fast().with_num_threads(threads);
            let planner = DipPlanner::on_topology(&spec, parallel, cluster.clone(), config);
            assert_eq!(planner.config().num_threads, threads);
            assert_eq!(planner.config().search.workers, threads);
            planner.plan_iteration(&batches).unwrap()
        };
        let (two, one) = (plan_on(2), plan_on(1));
        assert_eq!(two.graph, one.graph);
        assert_eq!(two.orders, one.orders);
        assert_eq!(two.segment_priorities, one.segment_priorities);
        assert_eq!(two.memory_plan, one.memory_plan);
        assert_eq!(two.stats.search_evaluations, one.stats.search_evaluations);
        assert_eq!(
            two.stats.planned_time_s.to_bits(),
            one.stats.planned_time_s.to_bits()
        );
    }

    #[test]
    fn dip_outperforms_megatron_on_dynamic_vlm_workloads() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let parallel = ParallelConfig::new(4, 4, 1);
        let counts = [2u64, 40, 10, 30, 0, 44, 16, 24, 4, 36, 20, 12];
        let batches: Vec<BatchWorkload> = counts.iter().map(|&i| vlm_batch(i)).collect();

        let (_, dip) =
            plan_and_simulate(&spec, parallel, &cluster, PlannerConfig::fast(), &batches);

        let ctx = BaselineContext::new(&spec, parallel, &cluster);
        let megatron = simulate_megatron(&ctx, &batches, 1).unwrap();

        assert!(
            dip.metrics.iteration_time_s < megatron.metrics.iteration_time_s,
            "DIP {} vs Megatron {}",
            dip.metrics.iteration_time_s,
            megatron.metrics.iteration_time_s
        );
    }

    #[test]
    fn full_dip_is_at_least_as_fast_as_no_opt() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let parallel = ParallelConfig::new(4, 4, 1);
        let batches: Vec<BatchWorkload> =
            [24u64, 8, 40, 16].iter().map(|&i| vlm_batch(i)).collect();

        let (_, full_outcome) =
            plan_and_simulate(&spec, parallel, &cluster, PlannerConfig::fast(), &batches);
        let (_, no_opt_outcome) =
            plan_and_simulate(&spec, parallel, &cluster, PlannerConfig::no_opt(), &batches);

        assert!(
            full_outcome.metrics.iteration_time_s <= no_opt_outcome.metrics.iteration_time_s * 1.05,
            "full {} vs no-opt {}",
            full_outcome.metrics.iteration_time_s,
            no_opt_outcome.metrics.iteration_time_s
        );
    }

    #[test]
    fn planner_works_for_t2v_models() {
        let spec = zoo::t2v_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(900, 6))
            .with(Modality::Video, ModalityWorkload::new(16 * 1560, 4));
        let (_, outcome) = plan_and_simulate(
            &spec,
            ParallelConfig::new(4, 4, 1),
            &cluster,
            PlannerConfig::fast(),
            &vec![batch; 4],
        );
        assert!(outcome.metrics.iteration_time_s > 0.0);
    }

    #[test]
    fn peak_memory_stays_within_gpu_capacity() {
        let spec = zoo::vlm_m();
        let cluster = ClusterTopology::h800_cluster(4);
        let batches: Vec<BatchWorkload> = [30u64, 45, 20, 40, 10, 48]
            .iter()
            .map(|&i| vlm_batch(i))
            .collect();
        let (_, outcome) = plan_and_simulate(
            &spec,
            ParallelConfig::new(8, 4, 1),
            &cluster,
            PlannerConfig::fast(),
            &batches,
        );
        assert!(
            outcome.metrics.peak_memory_bytes <= cluster.reference_device().mem_capacity as i64,
            "peak {} exceeds capacity {}",
            outcome.metrics.peak_memory_bytes,
            cluster.reference_device().mem_capacity
        );
    }
}
