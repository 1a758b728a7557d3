//! The stage graph: every forward and backward stage execution of one
//! training iteration, with data dependencies, latencies and memory effects.
//!
//! A stage graph is produced from a [`Placement`], the per-microbatch
//! workload metadata and a [`SubMicrobatchPlan`] describing how each
//! segment's microbatches are split into modality-specific sub-microbatches
//! (§4). Schedulers (the baselines' 1F1B and DIP's dual-queue interleaver)
//! then decide the *order* in which each rank executes its stages; the data
//! dependencies themselves never change.
//!
//! # Arena layout
//!
//! Graphs are backed by a flat arena (`StageArena`): one [`WorkItem`] slab, one
//! CSR-style dependency slab (a flat edge list plus an offset table,
//! [`StageGraph::deps_of`]), and the cached **pre-strategy** stage timings
//! per (forward, backward) pair. Item ids are pure arithmetic: the items of
//! one `(segment, microbatch)` block occupy a contiguous id range whose
//! start is known from the [`SubMicrobatchPlan`] alone, so
//! [`StageGraph::lookup`] is O(1) — no tree index — and the builder writes
//! the blocks' items and edges straight into the slabs in id order. The
//! cached base timings let
//! [`StageGraph::reprice`] apply a [`MemoryPlan`] in place, bit-identical
//! to a full rebuild, so the planner never expands the graph twice.

use crate::placement::{PipelineError, Placement, OPTIMIZER_STATE_BYTES_PER_PARAM};
use crate::strategy::MemoryPlan;
use dip_models::{BatchWorkload, LmmSpec, ModalityWorkload, ModuleId, BF16_BYTES};
use dip_sim::{ClusterTopology, EfficiencyModel, StageTiming, TimingModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a stage execution (a [`WorkItem`]) within a [`StageGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StageId(pub usize);

/// Forward or backward computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
}

/// One stage execution: a chunk of one pipeline segment processing one
/// sub-microbatch in one direction on one rank.
///
/// Data dependencies live in the graph's CSR slab, not on the item: see
/// [`StageGraph::deps_of`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkItem {
    /// The item's id.
    pub id: StageId,
    /// Index of the pipeline segment (into [`Placement::segments`]).
    pub segment: usize,
    /// Microbatch index.
    pub microbatch: usize,
    /// Sub-microbatch index within the segment's split of the microbatch.
    pub sub_microbatch: usize,
    /// Pipeline rank executing the stage.
    pub rank: usize,
    /// Forward or backward.
    pub direction: Direction,
    /// Execution latency in seconds (memory strategy already applied).
    pub duration: f64,
    /// Activation bytes held from this stage's forward until its backward.
    pub activation_bytes: u64,
    /// Bytes sent to the consumer stage (output activation).
    pub p2p_bytes: u64,
    /// Identifier of the (forward, backward) stage pair this item belongs to,
    /// used to key [`MemoryPlan`] choices.
    pub stage_pair: usize,
}

/// How many sub-microbatches each segment splits each microbatch into.
///
/// Baseline systems use a trivial plan (one sub-microbatch everywhere);
/// DIP's modality-aware partitioner produces per-segment counts
/// `M_i = ceil(N_i / B_i)` (§4). Consecutive segments of the same module must
/// use identical counts, because the same sub-microbatches flow through them.
///
/// The table is one flat, copy-on-write slab: cloning a plan — as every
/// served cached plan does — bumps a reference count, and
/// [`SubMicrobatchPlan::set`] copies the slab first only while another plan
/// still shares it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubMicrobatchPlan {
    /// `splits[segment * num_microbatches + microbatch]` = number of
    /// sub-microbatches.
    splits: Arc<[usize]>,
    num_segments: usize,
    num_microbatches: usize,
}

impl SubMicrobatchPlan {
    /// A plan with one sub-microbatch per (segment, microbatch).
    pub fn uniform(num_segments: usize, num_microbatches: usize) -> Self {
        Self {
            splits: vec![1; num_segments * num_microbatches].into(),
            num_segments,
            num_microbatches,
        }
    }

    /// Number of sub-microbatches for `(segment, microbatch)`; defaults to 1
    /// outside the table.
    pub fn splits(&self, segment: usize, microbatch: usize) -> usize {
        if segment >= self.num_segments || microbatch >= self.num_microbatches {
            return 1;
        }
        self.splits[segment * self.num_microbatches + microbatch].max(1)
    }

    /// Sets the number of sub-microbatches for `(segment, microbatch)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are outside the plan's table.
    pub fn set(&mut self, segment: usize, microbatch: usize, splits: usize) {
        assert!(
            segment < self.num_segments && microbatch < self.num_microbatches,
            "({segment}, {microbatch}) is outside the {} × {} table",
            self.num_segments,
            self.num_microbatches
        );
        Arc::make_mut(&mut self.splits)[segment * self.num_microbatches + microbatch] =
            splits.max(1);
    }

    /// Number of segments covered by the plan.
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Number of microbatches covered by the plan (the width of the split
    /// table). Plan-reuse paths check this against a
    /// new request's microbatch count before adopting a cached plan's
    /// splits.
    pub fn num_microbatches(&self) -> usize {
        self.num_microbatches
    }

    /// True when this plan and `other` share one table: one is a clone of
    /// the other and neither has been [`set`](SubMicrobatchPlan::set)
    /// since.
    pub fn shares_storage_with(&self, other: &SubMicrobatchPlan) -> bool {
        Arc::ptr_eq(&self.splits, &other.splits)
    }
}

/// Flat arena storage backing a [`StageGraph`]: the item slab, the CSR
/// dependency slab (`deps` + `dep_offsets`), its cached reverse transpose
/// (`rdeps` + `rdep_offsets`, behind [`StageGraph::dependents_of`]), and
/// the cached pre-strategy [`StageTiming`] of every (forward, backward)
/// stage pair — the state [`StageGraph::reprice`] rewrites durations from.
///
/// Each slab is a flat, copy-on-write `Arc<[T]>` (no pointers or trees
/// inside a slab): cloning a graph — as every cached-plan hit does — bumps
/// six reference counts instead of copying the slabs, and a write
/// ([`StageGraph::reprice`]) copies only the slab it touches, and only
/// while another graph still shares it. One `Arc` per slab rather than one
/// around the whole arena keeps the scheduler's `item(id)` /
/// `dependents_of(id)` reads a single indirection, exactly as with `Vec`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StageArena {
    /// Every stage execution, in id order (two per stage pair:
    /// `fwd = 2 * pair`, `bwd = 2 * pair + 1`).
    items: Arc<[WorkItem]>,
    /// Flat dependency slab: item `i`'s dependencies are
    /// `deps[dep_offsets[i] .. dep_offsets[i + 1]]`.
    deps: Arc<[(StageId, f64)]>,
    /// CSR offset table, length `items.len() + 1`.
    dep_offsets: Arc<[usize]>,
    /// Flat **reverse**-dependency slab, the transpose of `deps`: item
    /// `i`'s dependents are `rdeps[rdep_offsets[i] .. rdep_offsets[i + 1]]`
    /// as `(consumer, communication lag)` pairs, each dependent list in
    /// ascending consumer-id order. Built once at construction so
    /// schedulers ([`crate::dual_queue::schedule_into`]) never re-derive
    /// the adjacency per evaluation; [`StageGraph::reprice`] keeps it
    /// valid for free, because durations live on items and lags on edges —
    /// neither side of the transpose ever changes.
    rdeps: Arc<[(StageId, f64)]>,
    /// Reverse CSR offset table, length `items.len() + 1`.
    rdep_offsets: Arc<[usize]>,
    /// The **pre-strategy** timing of each stage pair (what the hosting
    /// rank's device charges with everything kept resident), in stage-pair
    /// order. [`StageGraph::reprice`] re-applies a [`MemoryPlan`] to these.
    base_timings: Arc<[StageTiming]>,
}

/// The stage graph of one training iteration.
///
/// Items and dependencies live in a flat arena (`StageArena`); coordinates
/// map to ids by pure arithmetic (see [`StageGraph::lookup`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageGraph {
    /// Number of pipeline ranks.
    pub num_ranks: usize,
    /// Number of (forward, backward) stage pairs.
    pub num_stage_pairs: usize,
    /// Static memory (parameters, gradients, optimizer state) per rank, bytes.
    pub static_memory: Vec<u64>,
    /// Useful model FLOPs of the iteration (per data-parallel replica).
    pub model_flops: f64,
    /// Parameter bytes per rank (bf16), used for gradient all-reduce sizing.
    pub param_bytes_per_rank: Vec<u64>,
    /// The flat item/dependency arena.
    arena: StageArena,
    /// Number of pipeline segments covered by the graph.
    num_segments: usize,
    /// Number of microbatches covered by the graph.
    num_microbatches: usize,
    /// Sub-microbatch count of each `(segment, microbatch)` block,
    /// row-major (`segment * num_microbatches + microbatch`). Shared, like
    /// the arena's slabs, with the [`PreparedWorkloads`] it was built from
    /// and with every clone.
    block_splits: Arc<[usize]>,
    /// Stage pairs preceding each block (same indexing; one extra trailing
    /// entry = `num_stage_pairs`). `pair(s, m, j, r) = pair_offsets[s * M +
    /// m] + j * pp + r` — the arithmetic index replacing the former
    /// coordinate tree. Shared like `block_splits`.
    pair_offsets: Arc<[usize]>,
}

impl StageGraph {
    /// The forward/backward item ids for a `(segment, microbatch,
    /// sub_microbatch, rank)` coordinate, if present. O(1): the id is
    /// arithmetic in the coordinate and the block offset table.
    pub fn lookup(
        &self,
        segment: usize,
        microbatch: usize,
        sub_microbatch: usize,
        rank: usize,
    ) -> Option<(StageId, StageId)> {
        if segment >= self.num_segments || microbatch >= self.num_microbatches {
            return None;
        }
        let block = segment * self.num_microbatches + microbatch;
        if sub_microbatch >= self.block_splits[block] || rank >= self.num_ranks {
            return None;
        }
        let pair = self.pair_offsets[block] + sub_microbatch * self.num_ranks + rank;
        Some((StageId(2 * pair), StageId(2 * pair + 1)))
    }

    /// Every stage execution, in id order.
    pub fn items(&self) -> &[WorkItem] {
        &self.arena.items
    }

    /// Number of stage executions (items) in the graph.
    pub fn len(&self) -> usize {
        self.arena.items.len()
    }

    /// True when the graph has no stage executions.
    pub fn is_empty(&self) -> bool {
        self.arena.items.is_empty()
    }

    /// Number of pipeline segments the graph covers; every item's
    /// `segment` is below it.
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// The item with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn item(&self, id: StageId) -> &WorkItem {
        &self.arena.items[id.0]
    }

    /// The data dependencies of the item with the given id:
    /// `(producer, communication lag in seconds)` pairs, read straight from
    /// the CSR slab.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn deps_of(&self, id: StageId) -> &[(StageId, f64)] {
        &self.arena.deps[self.arena.dep_offsets[id.0]..self.arena.dep_offsets[id.0 + 1]]
    }

    /// The data dependents of the item with the given id: `(consumer,
    /// communication lag in seconds)` pairs in ascending consumer-id
    /// order, read straight from the cached reverse CSR slab — the exact
    /// transpose of [`StageGraph::deps_of`]. This is the adjacency the
    /// dual-queue scheduler walks to release ready stages; caching it here
    /// (instead of rebuilding a `Vec<Vec<_>>` per call) is what lets
    /// [`crate::dual_queue::schedule_into`] run allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn dependents_of(&self, id: StageId) -> &[(StageId, f64)] {
        &self.arena.rdeps[self.arena.rdep_offsets[id.0]..self.arena.rdep_offsets[id.0 + 1]]
    }

    /// Iterator over items on a given rank.
    pub fn items_on_rank(&self, rank: usize) -> impl Iterator<Item = &WorkItem> {
        self.arena.items.iter().filter(move |i| i.rank == rank)
    }

    /// Total compute time (sum of all stage durations) per rank — a lower
    /// bound on that rank's busy time.
    pub fn compute_time_per_rank(&self) -> Vec<f64> {
        let mut t = vec![0.0; self.num_ranks];
        for item in self.arena.items.iter() {
            t[item.rank] += item.duration;
        }
        t
    }

    /// The theoretical minimum iteration time: the busiest rank's total work.
    pub fn critical_rank_time(&self) -> f64 {
        self.compute_time_per_rank().into_iter().fold(0.0, f64::max)
    }

    /// Re-applies a [`MemoryPlan`] in place: every stage pair's forward and
    /// backward durations and resident activation bytes are rewritten from
    /// the cached pre-strategy base timing. Dependencies and communication
    /// lags are untouched — a [`crate::MemoryStrategy`] never changes a
    /// stage's `p2p_bytes` — so the result is **bit-identical to a full
    /// rebuild** with [`StageGraphBuilder::with_memory_plan`] at a fraction
    /// of the cost (no re-pricing, no dependency wiring).
    ///
    /// Only the item slab is written; if another graph (a cached plan's
    /// clone) still shares it, it is copied first, so the other graph is
    /// never affected.
    pub fn reprice(&mut self, plan: &MemoryPlan) {
        let items = Arc::make_mut(&mut self.arena.items);
        for pair in 0..self.num_stage_pairs {
            let adjusted = plan.get(pair).apply(&self.arena.base_timings[pair]);
            let fwd = &mut items[2 * pair];
            fwd.duration = adjusted.fwd_s;
            fwd.activation_bytes = adjusted.activation_bytes;
            let bwd = &mut items[2 * pair + 1];
            bwd.duration = adjusted.bwd_s;
            bwd.activation_bytes = adjusted.activation_bytes;
        }
    }

    /// True when this graph and `other` share every slab — `other` is a
    /// clone of this graph (or this of `other`) and neither has been
    /// repriced since. Lets callers check that a cached-plan hit handed out
    /// the cached storage instead of a copy.
    pub fn shares_storage_with(&self, other: &StageGraph) -> bool {
        let (a, b) = (&self.arena, &other.arena);
        Arc::ptr_eq(&a.items, &b.items)
            && Arc::ptr_eq(&a.deps, &b.deps)
            && Arc::ptr_eq(&a.dep_offsets, &b.dep_offsets)
            && Arc::ptr_eq(&a.rdeps, &b.rdeps)
            && Arc::ptr_eq(&a.rdep_offsets, &b.rdep_offsets)
            && Arc::ptr_eq(&a.base_timings, &b.base_timings)
            && Arc::ptr_eq(&self.block_splits, &other.block_splits)
            && Arc::ptr_eq(&self.pair_offsets, &other.pair_offsets)
    }
}

#[cfg(test)]
impl StageGraph {
    /// Makes item `id` depend on itself — a cycle no schedule can satisfy,
    /// which the builder never produces. Both CSR slabs stay each other's
    /// transpose.
    pub(crate) fn add_self_dependency(&mut self, id: StageId) {
        fn insert_edge(slab: &mut Arc<[(StageId, f64)]>, offsets: &mut Arc<[usize]>, id: StageId) {
            let mut edges = slab.to_vec();
            edges.insert(offsets[id.0 + 1], (id, 0.0));
            *slab = edges.into();
            for offset in &mut Arc::make_mut(offsets)[id.0 + 1..] {
                *offset += 1;
            }
        }
        let arena = &mut self.arena;
        insert_edge(&mut arena.deps, &mut arena.dep_offsets, id);
        insert_edge(&mut arena.rdeps, &mut arena.rdep_offsets, id);
    }
}

/// Inert: the second half of [`StageGraphBuilder::build_prepared`]'s
/// return pair, with nothing in it. The build is serial, so its CPU time is
/// its wall time and there is nothing else to report. It stays only
/// because the planner benchmark (`perfbench`) destructures the pair; the
/// next change to that benchmark deletes it and makes `build_prepared`
/// return the [`StageGraph`] alone (ROADMAP item 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphBuildStats;

/// Everything [`StageGraphBuilder::build_prepared`] needs that depends only
/// on the workloads and the sub-microbatch plan: validated split counts,
/// the per-block stage-pair offsets of the arithmetic index, the split
/// per-module workloads of every `(segment, microbatch)` block, and the
/// per-(segment, rank) output-module lookup. Computing it once per `plan()`
/// (or per baseline iteration) and reusing it across builds removes the
/// duplicated per-build workload splitting the two-build planner path used
/// to pay.
#[derive(Debug, Clone)]
pub struct PreparedWorkloads {
    num_microbatches: usize,
    /// Sub-microbatch count per `(segment, microbatch)` block, row-major.
    block_splits: Arc<[usize]>,
    /// Stage pairs preceding each block (+ trailing total).
    pair_offsets: Arc<[usize]>,
    /// Per-module workloads of each sub-microbatch of each block.
    sub_workloads: Vec<Vec<BTreeMap<ModuleId, ModalityWorkload>>>,
    /// The module whose workload sizes each `(segment, rank)` chunk's
    /// output transfer: the last chunk piece's module (every piece module
    /// is a key of the block's sub-workload maps, so this equals the former
    /// reverse scan over the pieces).
    output_module: Vec<Vec<Option<ModuleId>>>,
    /// Whether each segment continues the previous segment's module.
    same_module_as_prev: Vec<bool>,
    /// Useful model FLOPs summed over the microbatches.
    model_flops: f64,
}

/// Builder for [`StageGraph`].
///
/// The builder is topology-aware: every stage is priced on the device that
/// hosts its pipeline rank ([`ClusterTopology::rank_timing`]) and every
/// communication edge is charged at the actual link between the two ranks
/// ([`ClusterTopology::link_bandwidth`] — NVLink inside a node, the
/// inter-node network across nodes, per edge rather than per cluster).
///
/// ```
/// use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
/// use dip_pipeline::{separated_placement, ParallelConfig, StageGraphBuilder,
///                    SubMicrobatchPlan};
/// use dip_sim::ClusterTopology;
/// use std::collections::BTreeMap;
///
/// let spec = zoo::vlm_s();
/// let parallel = ParallelConfig::new(4, 4, 1);
/// let placement = separated_placement(&spec, parallel, &BTreeMap::new());
/// // A mixed cluster: stages on ranks 2–3 are priced on H20 devices.
/// let topology = ClusterTopology::mixed_h800_h20(1, 1);
/// let builder = StageGraphBuilder::new_on(&spec, &placement, &topology);
/// let batch = BatchWorkload::new()
///     .with(Modality::Text, ModalityWorkload::new(6502, 1))
///     .with(Modality::Image, ModalityWorkload::new(1690, 10));
/// let plan = SubMicrobatchPlan::uniform(placement.segments.len(), 1);
/// let graph = builder.build(&[batch], &plan).unwrap();
/// assert_eq!(graph.num_ranks, 4);
/// ```
#[derive(Debug, Clone)]
pub struct StageGraphBuilder<'a> {
    spec: &'a LmmSpec,
    placement: &'a Placement,
    topology: ClusterTopology,
    efficiency: EfficiencyModel,
    memory_plan: MemoryPlan,
    loss_latency: f64,
}

impl<'a> StageGraphBuilder<'a> {
    /// Creates a builder over a (possibly heterogeneous) cluster topology
    /// with the default (keep-everything) memory plan.
    pub fn new_on(spec: &'a LmmSpec, placement: &'a Placement, topology: &ClusterTopology) -> Self {
        Self {
            spec,
            placement,
            topology: topology.clone(),
            efficiency: EfficiencyModel::default(),
            memory_plan: MemoryPlan::new(),
            loss_latency: 1e-3,
        }
    }

    /// Sets the efficiency factors applied on every rank's device.
    pub fn with_efficiency(mut self, efficiency: EfficiencyModel) -> Self {
        self.efficiency = efficiency;
        self
    }

    /// Applies a memory plan (per-stage-pair strategies).
    pub fn with_memory_plan(mut self, plan: MemoryPlan) -> Self {
        self.memory_plan = plan;
        self
    }

    /// Inert: returns the builder unchanged, whatever `workers` is. The
    /// build is serial, because a fork-join per phase cost more than the
    /// pricing and wiring it split (about 0.1 ms for a VLM-S graph on a
    /// 2-vCPU VM). The method stays only because the planner benchmark
    /// (`perfbench`) calls it; the next change to that benchmark deletes it
    /// (ROADMAP item 6).
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// The timing model pricing each pipeline rank's stages, and a
    /// `pp × pp` link table whose `from * pp + to` entry holds the timing
    /// model and link bandwidth that charge a transfer over the `from → to`
    /// rank edge. Resolved once per build: every stage of rank `r` reads
    /// `timings[r]`, and every edge prices its lag as
    /// `timing.p2p_latency_at(bytes, bandwidth)` from its table entry.
    ///
    /// Each rank is priced on its own device and each edge at
    /// [`ClusterTopology::link_bandwidth`], charged by the sending rank's
    /// model.
    fn rank_models(&self, pp: usize, tp: usize) -> (Vec<TimingModel>, Vec<(TimingModel, f64)>) {
        let timings: Vec<TimingModel> = (0..pp)
            .map(|rank| self.topology.rank_timing(rank, tp, self.efficiency))
            .collect();
        let links = (0..pp * pp)
            .map(|edge| {
                let (from, to) = (edge / pp, edge % pp);
                (timings[from], self.topology.link_bandwidth(from, to, tp))
            })
            .collect();
        (timings, links)
    }

    /// Validates the inputs and splits the per-microbatch workloads once:
    /// the reusable, build-independent half of [`StageGraphBuilder::build`].
    /// Callers constructing several graphs over the same workloads (or
    /// repricing one with [`StageGraph::reprice`]) pay this exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InconsistentSubMicrobatches`] if two
    /// consecutive segments of the same module disagree on their split
    /// counts, and [`PipelineError::InvalidConfig`] for empty inputs.
    pub fn prepare(
        &self,
        microbatches: &[BatchWorkload],
        plan: &SubMicrobatchPlan,
    ) -> Result<PreparedWorkloads, PipelineError> {
        if microbatches.is_empty() {
            return Err(PipelineError::InvalidConfig(
                "at least one microbatch is required".into(),
            ));
        }
        let segments = &self.placement.segments;
        if segments.is_empty() {
            return Err(PipelineError::InvalidConfig(
                "placement has no segments".into(),
            ));
        }
        // Validate split consistency between consecutive same-module segments.
        for s in 1..segments.len() {
            if segments[s].module.is_some() && segments[s].module == segments[s - 1].module {
                for (m, _) in microbatches.iter().enumerate() {
                    if plan.splits(s, m) != plan.splits(s - 1, m) {
                        return Err(PipelineError::InconsistentSubMicrobatches { segment: s });
                    }
                }
            }
        }

        let num_microbatches = microbatches.len();
        let pp = self.placement.parallel.pp;

        // Pre-compute per-microbatch module workloads.
        let module_workloads: Vec<BTreeMap<ModuleId, ModalityWorkload>> = microbatches
            .iter()
            .map(|b| self.spec.module_workloads(b).into_iter().collect())
            .collect();

        let mut block_splits = Vec::with_capacity(segments.len() * num_microbatches);
        let mut pair_offsets = Vec::with_capacity(segments.len() * num_microbatches + 1);
        let mut sub_workloads = Vec::with_capacity(segments.len() * num_microbatches);
        let mut pairs = 0usize;
        for (s, segment) in segments.iter().enumerate() {
            for (m, workloads) in module_workloads.iter().enumerate() {
                let splits = if segment.module.is_some() {
                    plan.splits(s, m)
                } else {
                    1
                };
                block_splits.push(splits);
                pair_offsets.push(pairs);
                pairs += splits * pp;
                sub_workloads.push(split_segment_workloads(
                    segment.modules(),
                    workloads,
                    splits,
                ));
            }
        }
        pair_offsets.push(pairs);

        // The module sizing each chunk's output transfer is the last piece's
        // module: every piece module is in `segment.modules()`, which is
        // exactly the key set `split_segment_workloads` populates, so the
        // old reverse find-first-known scan always stopped at the last
        // piece. Precomputed once instead of per (sub-microbatch × rank).
        let output_module: Vec<Vec<Option<ModuleId>>> = segments
            .iter()
            .map(|segment| {
                segment
                    .chunks
                    .iter()
                    .map(|chunk| chunk.pieces.last().map(|p| p.module))
                    .collect()
            })
            .collect();

        let same_module_as_prev: Vec<bool> = segments
            .iter()
            .enumerate()
            .map(|(s, segment)| {
                s > 0 && segment.module.is_some() && segment.module == segments[s - 1].module
            })
            .collect();

        let model_flops: f64 = microbatches.iter().map(|b| self.spec.model_flops(b)).sum();

        Ok(PreparedWorkloads {
            num_microbatches,
            block_splits: block_splits.into(),
            pair_offsets: pair_offsets.into(),
            sub_workloads,
            output_module,
            same_module_as_prev,
            model_flops,
        })
    }

    /// Builds the stage graph for the given microbatch workloads and
    /// sub-microbatch plan.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InconsistentSubMicrobatches`] if two
    /// consecutive segments of the same module disagree on their split
    /// counts, and [`PipelineError::InvalidConfig`] for empty inputs.
    pub fn build(
        &self,
        microbatches: &[BatchWorkload],
        plan: &SubMicrobatchPlan,
    ) -> Result<StageGraph, PipelineError> {
        let prepared = self.prepare(microbatches, plan)?;
        Ok(self.build_prepared(&prepared).0)
    }

    /// Expands a validated [`PreparedWorkloads`] into a stage graph: phase A
    /// prices every `(segment, microbatch)` block's items, phase B wires
    /// every item's dependencies, both straight into the flat arena in
    /// item-id order. The per-rank timing models and the rank-pair link
    /// table are resolved once per build, before either phase.
    ///
    /// The [`GraphBuildStats`] half of the pair is inert (see its docs).
    pub fn build_prepared(&self, prepared: &PreparedWorkloads) -> (StageGraph, GraphBuildStats) {
        let parallel = self.placement.parallel;
        let pp = parallel.pp;
        let tp = parallel.tp;
        let segments = &self.placement.segments;
        let m_count = prepared.num_microbatches;
        let num_stage_pairs = *prepared.pair_offsets.last().expect("offset table");
        let (timings, links) = self.rank_models(pp, tp);
        let lag = |bytes: u64, from: usize, to: usize| -> f64 {
            let (timing, bandwidth) = &links[from * pp + to];
            timing.p2p_latency_at(bytes, *bandwidth)
        };

        // Phase A: price every block's items. Blocks are visited in
        // `(segment, microbatch)` order and their stage pairs are contiguous
        // (`fwd = 2 * pair`, `bwd = 2 * pair + 1`), so pushing in visit
        // order lays the items out in id order.
        let mut items: Vec<WorkItem> = Vec::with_capacity(2 * num_stage_pairs);
        let mut base_timings: Vec<StageTiming> = Vec::with_capacity(num_stage_pairs);
        for (s, segment) in segments.iter().enumerate() {
            for m in 0..m_count {
                let block = s * m_count + m;
                let pair_base = prepared.pair_offsets[block];
                for (j, sub) in prepared.sub_workloads[block].iter().enumerate() {
                    for (r, chunk) in segment.chunks.iter().enumerate() {
                        let cost = chunk.cost(self.spec, sub, tp);
                        let out_tokens = prepared.output_module[s][r]
                            .and_then(|module| sub.get(&module))
                            .map(|w| w.tokens)
                            .unwrap_or(0);
                        let p2p_bytes =
                            out_tokens * chunk.output_dim(self.spec) as u64 * BF16_BYTES;
                        let base = timings[r].stage_timing(&cost, p2p_bytes);
                        let stage_pair = pair_base + j * pp + r;
                        let adjusted = self.memory_plan.get(stage_pair).apply(&base);
                        items.push(WorkItem {
                            id: StageId(2 * stage_pair),
                            segment: s,
                            microbatch: m,
                            sub_microbatch: j,
                            rank: r,
                            direction: Direction::Forward,
                            duration: adjusted.fwd_s,
                            activation_bytes: adjusted.activation_bytes,
                            p2p_bytes,
                            stage_pair,
                        });
                        items.push(WorkItem {
                            id: StageId(2 * stage_pair + 1),
                            segment: s,
                            microbatch: m,
                            sub_microbatch: j,
                            rank: r,
                            direction: Direction::Backward,
                            duration: adjusted.bwd_s,
                            activation_bytes: adjusted.activation_bytes,
                            p2p_bytes,
                            stage_pair,
                        });
                        base_timings.push(base);
                    }
                }
            }
        }

        // Phase B: wire every item's dependencies into the CSR slab. Each
        // forward is visited in id order, its backward right after it, so
        // item `i`'s edges are appended right after item `i - 1`'s and its
        // end offset is the slab length. Per-item dependency order: a
        // backward's own forward first, then the chain edges in
        // sub-microbatch order.
        let fwd_id = |s: usize, m: usize, j: usize, r: usize| -> usize {
            2 * (prepared.pair_offsets[s * m_count + m] + j * pp + r)
        };
        let last_segment = segments.len() - 1;
        let mut deps: Vec<(StageId, f64)> = Vec::with_capacity(3 * num_stage_pairs);
        let mut dep_offsets: Vec<usize> = Vec::with_capacity(items.len() + 1);
        dep_offsets.push(0);
        for item in items.iter().step_by(2) {
            let (s, m, j, r) = (
                item.segment,
                item.microbatch,
                item.sub_microbatch,
                item.rank,
            );
            let fwd = item.id.0;
            // Forward chain within the segment.
            if r > 0 {
                let prev = fwd_id(s, m, j, r - 1);
                deps.push((StageId(prev), lag(items[prev].p2p_bytes, r - 1, r)));
            } else if s > 0 {
                // First rank depends on the previous segment's last rank;
                // the edge wraps from rank pp-1 back to rank 0.
                if prepared.same_module_as_prev[s] {
                    let prev = fwd_id(s - 1, m, j, pp - 1);
                    deps.push((StageId(prev), lag(items[prev].p2p_bytes, pp - 1, 0)));
                } else {
                    // Cross-module boundary: wait for every sub-microbatch
                    // of the producer segment.
                    for jp in 0..prepared.block_splits[(s - 1) * m_count + m] {
                        let prev = fwd_id(s - 1, m, jp, pp - 1);
                        deps.push((StageId(prev), lag(items[prev].p2p_bytes, pp - 1, 0)));
                    }
                }
            }
            dep_offsets.push(deps.len());
            // Backward chain within the segment (reverse rank order).
            deps.push((StageId(fwd), 0.0));
            if r < pp - 1 {
                let next_bwd = fwd_id(s, m, j, r + 1) + 1;
                deps.push((StageId(next_bwd), lag(item.p2p_bytes, r + 1, r)));
            } else if s == last_segment {
                // Loss boundary: backward of the last stage follows its own
                // forward after the loss computation.
                deps.push((StageId(fwd), self.loss_latency));
            } else if prepared.same_module_as_prev[s + 1] {
                let next_bwd = fwd_id(s + 1, m, j, 0) + 1;
                deps.push((StageId(next_bwd), lag(item.p2p_bytes, 0, pp - 1)));
            } else {
                let bwd_lag = lag(item.p2p_bytes, 0, pp - 1);
                for jn in 0..prepared.block_splits[(s + 1) * m_count + m] {
                    deps.push((StageId(fwd_id(s + 1, m, jn, 0) + 1), bwd_lag));
                }
            }
            dep_offsets.push(deps.len());
        }

        // Transpose the forward CSR into the cached reverse CSR (producer →
        // dependents) with a counting sort over producer ids: one pass
        // counts each producer's out-degree, one pass scatters. Consumers
        // are visited in ascending id order, so every dependent list comes
        // out id-sorted.
        let mut rdep_offsets = vec![0usize; items.len() + 1];
        for &(producer, _) in &deps {
            rdep_offsets[producer.0 + 1] += 1;
        }
        for i in 1..rdep_offsets.len() {
            rdep_offsets[i] += rdep_offsets[i - 1];
        }
        let mut rdeps = vec![(StageId(0), 0.0f64); deps.len()];
        let mut cursor = rdep_offsets.clone();
        for consumer in 0..items.len() {
            for &(producer, lag) in &deps[dep_offsets[consumer]..dep_offsets[consumer + 1]] {
                rdeps[cursor[producer.0]] = (StageId(consumer), lag);
                cursor[producer.0] += 1;
            }
        }

        // Both per-rank byte vectors come from one walk over each chunk's
        // layers: the static footprint (as
        // `Placement::static_memory_per_rank` computes it) and the bf16
        // parameter bytes.
        let mut static_memory = vec![0u64; pp];
        let mut param_bytes_per_rank = vec![0u64; pp];
        let tp = tp.max(1) as u64;
        for seg in segments.iter() {
            for (rank, chunk) in seg.chunks.iter().enumerate() {
                let params = chunk.param_count(self.spec);
                static_memory[rank] += params * OPTIMIZER_STATE_BYTES_PER_PARAM / tp;
                param_bytes_per_rank[rank] += params * BF16_BYTES / tp;
            }
        }
        let arena = StageArena {
            items: items.into(),
            deps: deps.into(),
            dep_offsets: dep_offsets.into(),
            rdeps: rdeps.into(),
            rdep_offsets: rdep_offsets.into(),
            base_timings: base_timings.into(),
        };

        (
            StageGraph {
                num_ranks: pp,
                num_stage_pairs,
                static_memory,
                model_flops: prepared.model_flops,
                param_bytes_per_rank,
                arena,
                num_segments: segments.len(),
                num_microbatches: m_count,
                block_splits: Arc::clone(&prepared.block_splits),
                pair_offsets: Arc::clone(&prepared.pair_offsets),
            },
            GraphBuildStats,
        )
    }
}

/// Splits each module's workload of a segment into `splits` sub-microbatches.
fn split_segment_workloads(
    modules: Vec<ModuleId>,
    workloads: &BTreeMap<ModuleId, ModalityWorkload>,
    splits: usize,
) -> Vec<BTreeMap<ModuleId, ModalityWorkload>> {
    let splits = splits.max(1);
    let mut out: Vec<BTreeMap<ModuleId, ModalityWorkload>> = vec![BTreeMap::new(); splits];
    for module in modules {
        let wl = workloads.get(&module).copied().unwrap_or_default();
        let pieces = wl.split(splits);
        for (j, sub) in out.iter_mut().enumerate() {
            let piece = pieces.get(j).copied().unwrap_or_default();
            sub.insert(module, piece);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{balanced_param_placement, separated_placement};
    use crate::placement::ParallelConfig;
    use crate::strategy::MemoryStrategy;
    use dip_models::{zoo, Modality};

    fn vlm_batch() -> BatchWorkload {
        BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(6500, 1))
            .with(Modality::Image, ModalityWorkload::new(1690, 10))
    }

    fn cluster() -> ClusterTopology {
        ClusterTopology::h800_cluster(2)
    }

    #[test]
    fn builds_graph_for_megatron_placement() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = balanced_param_placement(&spec, parallel, 1);
        let cluster = cluster();
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batches = vec![vlm_batch(); 4];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let graph = builder.build(&batches, &plan).unwrap();
        // 1 segment × 4 microbatches × 4 ranks × 2 directions.
        assert_eq!(graph.len(), 32);
        assert_eq!(graph.num_stage_pairs, 16);
        assert_eq!(graph.num_ranks, 4);
        assert!(graph.model_flops > 0.0);
        assert!(graph.critical_rank_time() > 0.0);
        assert!(graph.lookup(0, 0, 0, 0).is_some());
        assert!(graph.lookup(0, 0, 1, 0).is_none());
    }

    #[test]
    fn builds_graph_for_separated_placement_with_sub_microbatches() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let mut k = BTreeMap::new();
        k.insert(spec.backbone_id().unwrap(), 2usize);
        let placement = separated_placement(&spec, parallel, &k);
        let cluster = cluster();
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batches = vec![vlm_batch(); 2];
        let mut plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        // Split the ViT encoder segment (index 0) into 3 sub-microbatches.
        plan.set(0, 0, 3);
        plan.set(0, 1, 3);
        let graph = builder.build(&batches, &plan).unwrap();
        // Segment 0: 3 sub-mb × 2 mb × 4 ranks × 2 = 48 items; segments 1–3:
        // 1 sub-mb × 2 mb × 4 ranks × 2 = 16 items each.
        assert_eq!(graph.len(), 48 + 3 * 16);
        // Sub-microbatches of the encoder feed the adapter's single one.
        let (adapter_fwd, _) = graph.lookup(1, 0, 0, 0).unwrap();
        assert_eq!(graph.deps_of(adapter_fwd).len(), 3);
    }

    #[test]
    fn rejects_inconsistent_sub_microbatch_counts() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let mut k = BTreeMap::new();
        k.insert(spec.backbone_id().unwrap(), 2usize);
        let placement = separated_placement(&spec, parallel, &k);
        let cluster = cluster();
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batches = vec![vlm_batch()];
        let mut plan = SubMicrobatchPlan::uniform(placement.segments.len(), 1);
        // Backbone segments are indices 2 and 3; give them different splits.
        plan.set(2, 0, 2);
        let err = builder.build(&batches, &plan).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::InconsistentSubMicrobatches { .. }
        ));
    }

    #[test]
    fn empty_microbatch_list_is_rejected() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = balanced_param_placement(&spec, parallel, 1);
        let cluster = cluster();
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let plan = SubMicrobatchPlan::uniform(1, 0);
        assert!(builder.build(&[], &plan).is_err());
    }

    #[test]
    fn backward_depends_on_forward() {
        let spec = zoo::lm_7b();
        let parallel = ParallelConfig::new(2, 2, 1);
        let placement = balanced_param_placement(&spec, parallel, 1);
        let cluster = cluster();
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batches =
            vec![BatchWorkload::new().with(Modality::Text, ModalityWorkload::from_tokens(4096))];
        let plan = SubMicrobatchPlan::uniform(1, 1);
        let graph = builder.build(&batches, &plan).unwrap();
        let (fwd, bwd) = graph.lookup(0, 0, 0, 1).unwrap();
        assert!(graph.deps_of(bwd).iter().any(|(d, _)| *d == fwd));
        assert_eq!(graph.item(fwd).direction, Direction::Forward);
        assert_eq!(graph.item(bwd).direction, Direction::Backward);
    }

    #[test]
    fn sub_microbatch_plan_defaults_and_bounds() {
        let plan = SubMicrobatchPlan::uniform(2, 3);
        assert_eq!(plan.splits(0, 0), 1);
        assert_eq!(plan.splits(5, 9), 1);
        assert_eq!(plan.num_segments(), 2);
    }

    #[test]
    fn arithmetic_lookup_matches_item_coordinates() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let mut k = BTreeMap::new();
        k.insert(spec.backbone_id().unwrap(), 2usize);
        let placement = separated_placement(&spec, parallel, &k);
        let cluster = cluster();
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batches = vec![vlm_batch(); 3];
        let mut plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        plan.set(0, 1, 2);
        let graph = builder.build(&batches, &plan).unwrap();
        // Every item is found at its own coordinate, with matching direction.
        for item in graph.items() {
            let (fwd, bwd) = graph
                .lookup(
                    item.segment,
                    item.microbatch,
                    item.sub_microbatch,
                    item.rank,
                )
                .expect("own coordinate resolves");
            match item.direction {
                Direction::Forward => assert_eq!(fwd, item.id),
                Direction::Backward => assert_eq!(bwd, item.id),
            }
            assert_eq!(item.id.0 / 2, item.stage_pair);
        }
        // Out-of-range coordinates miss.
        assert!(graph.lookup(99, 0, 0, 0).is_none());
        assert!(graph.lookup(0, 99, 0, 0).is_none());
        assert!(graph.lookup(0, 0, 99, 0).is_none());
        assert!(graph.lookup(0, 0, 0, 99).is_none());
    }

    #[test]
    fn reprice_matches_full_rebuild_bit_for_bit() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = separated_placement(&spec, parallel, &BTreeMap::new());
        let cluster = cluster();
        let batches = vec![vlm_batch(); 3];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let base = builder.build(&batches, &plan).unwrap();
        // A mixed memory plan across the ladder, including untouched pairs.
        let ladder = MemoryStrategy::ladder(6);
        let mut memory_plan = MemoryPlan::new();
        for pair in 0..base.num_stage_pairs {
            if pair % 3 != 2 {
                memory_plan.set(pair, ladder[pair % ladder.len()]);
            }
        }
        let rebuilt = StageGraphBuilder::new_on(&spec, &placement, &cluster)
            .with_memory_plan(memory_plan.clone())
            .build(&batches, &plan)
            .unwrap();
        let duration_bits = |g: &StageGraph| -> Vec<u64> {
            g.items().iter().map(|i| i.duration.to_bits()).collect()
        };
        let base_bits = duration_bits(&base);
        // A clone shares the slabs; repricing it copies the item slab and
        // leaves the original bit for bit as built.
        let mut repriced = base.clone();
        assert!(repriced.shares_storage_with(&base));
        repriced.reprice(&memory_plan);
        assert!(!repriced.shares_storage_with(&base));
        assert_eq!(repriced, rebuilt);
        assert_eq!(duration_bits(&repriced), duration_bits(&rebuilt));
        assert_eq!(base, builder.build(&batches, &plan).unwrap());
        assert_eq!(duration_bits(&base), base_bits);
        // Repricing back to the empty plan restores the original graph.
        repriced.reprice(&MemoryPlan::new());
        assert_eq!(repriced, base);
        assert_eq!(duration_bits(&repriced), base_bits);
    }

    #[test]
    fn prepared_workloads_are_reusable_across_builds() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = separated_placement(&spec, parallel, &BTreeMap::new());
        let cluster = cluster();
        let batches = vec![vlm_batch(); 2];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let prepared = builder.prepare(&batches, &plan).unwrap();
        let (once, _) = builder.build_prepared(&prepared);
        let (twice, _) = builder.build_prepared(&prepared);
        assert_eq!(once, twice);
        assert_eq!(once, builder.build(&batches, &plan).unwrap());
    }

    #[test]
    fn csr_dep_slab_is_consistent() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = separated_placement(&spec, parallel, &BTreeMap::new());
        let cluster = cluster();
        let batches = vec![vlm_batch(); 2];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let graph = StageGraphBuilder::new_on(&spec, &placement, &cluster)
            .build(&batches, &plan)
            .unwrap();
        let total: usize = (0..graph.len())
            .map(|i| graph.deps_of(StageId(i)).len())
            .sum();
        // Every backward depends at least on its own forward.
        assert!(total >= graph.len() / 2);
        for item in graph.items() {
            for (dep, lag) in graph.deps_of(item.id) {
                assert!(dep.0 < graph.len());
                assert!(lag.is_finite() && *lag >= 0.0);
            }
        }
    }

    #[test]
    fn reverse_csr_is_the_exact_transpose_of_the_forward_csr() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let mut k = BTreeMap::new();
        k.insert(spec.backbone_id().unwrap(), 2usize);
        let placement = separated_placement(&spec, parallel, &k);
        let cluster = cluster();
        let batches = vec![vlm_batch(); 3];
        let mut plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        plan.set(0, 0, 2);
        plan.set(0, 1, 2);
        plan.set(0, 2, 2);
        let mut graph = StageGraphBuilder::new_on(&spec, &placement, &cluster)
            .build(&batches, &plan)
            .unwrap();
        // Rebuild the reference transpose the way the scheduler used to.
        let mut reference: Vec<Vec<(StageId, f64)>> = vec![Vec::new(); graph.len()];
        for item in graph.items() {
            for &(dep, lag) in graph.deps_of(item.id) {
                reference[dep.0].push((item.id, lag));
            }
        }
        let total_rdeps: usize = (0..graph.len())
            .map(|i| graph.dependents_of(StageId(i)).len())
            .sum();
        let total_deps: usize = (0..graph.len())
            .map(|i| graph.deps_of(StageId(i)).len())
            .sum();
        assert_eq!(total_rdeps, total_deps);
        for (i, expected) in reference.iter().enumerate() {
            let got = graph.dependents_of(StageId(i));
            assert_eq!(got, expected.as_slice(), "dependents of item {i}");
            // Dependent lists are id-sorted by construction (non-strictly:
            // a loss-boundary backward depends on its forward twice, once
            // for the data edge and once for the loss lag).
            assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        }
        // Repricing never touches the adjacency: the transpose (ids and
        // lags) survives a memory-plan application bit for bit.
        let before: Vec<(StageId, f64)> = (0..graph.len())
            .flat_map(|i| graph.dependents_of(StageId(i)).to_vec())
            .collect();
        let ladder = MemoryStrategy::ladder(6);
        let mut memory_plan = MemoryPlan::new();
        for pair in 0..graph.num_stage_pairs {
            memory_plan.set(pair, ladder[pair % ladder.len()]);
        }
        graph.reprice(&memory_plan);
        let after: Vec<(StageId, f64)> = (0..graph.len())
            .flat_map(|i| graph.dependents_of(StageId(i)).to_vec())
            .collect();
        assert_eq!(before, after);
    }
}
