//! The greedy dual-queue stage interleaver (§5.2).
//!
//! Given a [`StageGraph`] and per-segment scheduling priorities, the
//! interleaver decides the order in which each pipeline rank executes its
//! forward and backward stages. It mimics Megatron-LM's memory-efficient
//! "one-forward-one-backward" alternation whenever both kinds of stages are
//! schedulable, and otherwise greedily fills bubbles with whatever stage can
//! start earliest. Per-rank memory is tracked throughout; a rank whose
//! projected memory exceeds the capacity has its forward queue temporarily
//! disabled (§5.2 "Memory Constraints").
//!
//! The baselines reuse this scheduler with their own priorities: with a
//! single mixed segment and microbatch-index priorities it reproduces plain
//! 1F1B; with "encoders before backbone" priorities it reproduces Optimus'
//! coarse-grained schedule; DIP feeds it MCTS-derived segment priorities.
//!
//! # Decision record and prefix resume
//!
//! This module owns the writing half of the pass memo's protocol: every
//! pass leaves a decision record in its workspace, and replays whatever
//! prefix of an earlier pass's record its workspace holds when it starts.
//! [`crate::memo`] owns the other half: storing, scanning and copying back.
//!
//! Segment priorities enter a pass in one place only: reading the top of a
//! (rank, direction) queue. A queue orders its entries by priority first and
//! then by microbatch, sub-microbatch, ready time and id, none of which
//! depends on the priorities, so that top is the best entry of the
//! highest-priority segment with entries in the queue. Nothing else a step
//! consults — ready times, memory, in-flight counts, queue emptiness —
//! depends on the priorities.
//!
//! A pass runs in *steps*, one pop each. The *push step* of a queue entry
//! is the number of pops completed when it entered its queue; the *pop
//! step* of a pop is the number completed before it. Every pass leaves a
//! **decision record** in its workspace:
//!
//! - its **pop log**: the stages in the global order it popped them;
//! - a **requirement step** `R[s][t]` per ordered segment pair: the smallest
//!   push step of any popped entry of `s` whose queue held an entry of `t`
//!   at that pop, or none;
//! - its **requirement events**: one `(pair, pop step, push step)` each
//!   time a pop lowered some `R[s][t]`, in pop order, so the table as it
//!   stood before any step can be rebuilt.
//!
//! The **resume point** of other priorities against a completed pass is
//! `j = min R[s][t]` over the pairs they do not rank strictly `s` over `t`;
//! with no such finite pair, `j = ∞` and the priorities reproduce the whole
//! pass.
//!
//! **Soundness.** Under the new priorities, every step below `j` makes the
//! same pops as the recorded pass. By induction, suppose the steps before
//! step `k < j` agreed, so both passes hold the same queue entries at step
//! `k`. Let a read at step `k` return the top `e`, of segment `s`, of some
//! queue in the recorded pass. An entry cannot be read as a queue top
//! before its push step, so `e`'s push step is at most `k`. Every entry
//! below `e` stays in the queue until `e` leaves (only a top is popped, and
//! keys never change in a queue), and in a completed pass `e` is popped;
//! so at that pop the queue holds every segment `t` it held at the read,
//! and `R[s][t] ≤ push step(e) ≤ k < j`. The new priorities therefore rank
//! `s` strictly over every such `t`, the read returns `e` under them too,
//! and since nothing else a step consults depends on priorities, the step
//! picks and pops the same stage at the same start time.
//!
//! The pass records a pop's requirement steps when the entry is popped,
//! not at every read: by the argument above, the segments present at the
//! pop include those present at any read of that top. Which segments a
//! queue holds is a bitset per queue, maintained branch-free: a segment's
//! bit is cleared when its popped entry leaves the queue empty or under a
//! lower-priority top. That is exact when no two segments share a priority
//! (always so in the ordering search); with ties it may keep a bit set,
//! which only lowers `R`, and a lower `R` only resumes earlier.
//!
//! A resumed pass turns the record into work saved. Its workspace's record
//! starts out holding the first `j` pops of a completed pass and that
//! pass's events below step `j`. The pass replays those pops with no queue
//! operation and no per-rank pick: a replayed stage starts at
//! `max(ready, rank free)`, exactly where the live loop starts a popped
//! entry, and the cutoff applies to every replayed end, so a bounded pass
//! aborts exactly where a fresh one would. It then rebuilds the queues
//! under the new priorities from the entries released but not yet popped
//! and runs the live loop from step `j`. The prefix's part of the table is
//! rebuilt from the recorded pass's events (the prefix's queues were that
//! pass's queues), so a resumed pass leaves exactly the record a fresh pass
//! would.
//!
//! # Live steps
//!
//! A live step picks, per rank, the stage the rank would run next and runs
//! the pick that starts earliest (the lowest rank on ties). Each queue is a
//! short vector in ascending entry order, best last: queues hold a handful
//! of entries, where shifting the few worse ones up on insert beats a
//! heap's sifts, and since ids are unique the order is total, so every top
//! is the one a heap would give. An entry's priority and position share
//! one 128-bit key, so most comparisons are one integer compare. A rank's
//! pick reads only its own queue tops and state, so it is cached and
//! recomputed only for a rank that ran the previous step or received a
//! released stage that became a queue's top. Each rank's state — its
//! cached pick (start and id), free time, live memory, in-flight count and
//! memory cap — is one record, and the forward caps are resolved into
//! those records once per pass. The per-rank orders are the pop log
//! grouped by rank ([`ScheduleWorkspace::orders`]); no pass writes them
//! separately.
//!
//! # Packed view
//!
//! A pass reads each item's duration, activation bytes, microbatch
//! position, rank, segment and direction, and each item's dependency
//! count. A [`PassGraph`] packs exactly that into one 32-byte record per
//! item (a [`crate::WorkItem`] is 88 bytes) plus a count array, built once
//! and shared by every pass of a search; [`schedule_bounded`] reads only
//! the view, and the graph itself only for its reverse CSR.
//!
//! The view *borrows* its graph, and nothing is cached by address.
//! [`StageGraph::reprice`] rewrites the item slab in place when no other
//! graph shares it, so a graph at the same address can carry other
//! durations a moment later, and a view looked up by that address would
//! silently price a pass with stale ones. A borrowed view cannot outlive a
//! reprice: the borrow checker refuses the `&mut` a reprice needs while a
//! view lives. Views are dropped with their search.
//! [`schedule_into`] packs a fresh view per call into buffers its
//! workspace keeps, so it stays allocation-free after warm-up.

use crate::graph::{Direction, StageGraph, StageId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of the dual-queue interleaver.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DualQueueConfig {
    /// Scheduling priority per pipeline segment (higher = scheduled earlier
    /// when several stages are ready). Missing entries default to zero, in
    /// which case stages are ordered by microbatch index (classic 1F1B).
    pub segment_priorities: Vec<i64>,
    /// Per-rank activation-memory budget in bytes (GPU capacity minus static
    /// memory). `None` disables the memory constraint.
    pub memory_limit: Option<Vec<u64>>,
    /// Cap on the number of in-flight (forward executed, backward not yet)
    /// stage pairs per rank. Megatron-style 1F1B uses the pipeline depth.
    pub max_inflight: Option<usize>,
}

/// The per-rank stage execution orders produced by a scheduler: one flat
/// slab of stage ids grouped by rank, each rank's stages in the order it
/// executes them, and the offset at which each rank's run starts.
///
/// Both slabs are shared `Arc<[T]>`s, so cloning a set of orders — as every
/// served cached plan does — bumps two reference counts instead of copying
/// a vector per rank. Orders are never edited after they are built; build
/// new ones with [`RankOrders::from_ranks`] instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankOrders {
    /// Every scheduled stage, rank 0's run first.
    stages: Arc<[StageId]>,
    /// Rank `r`'s run is `stages[offsets[r]..offsets[r + 1]]`; one entry
    /// per rank plus a trailing `stages.len()`.
    offsets: Arc<[usize]>,
}

impl RankOrders {
    /// Orders from one execution order per rank, in rank order.
    pub fn from_ranks<R: AsRef<[StageId]>>(ranks: impl IntoIterator<Item = R>) -> Self {
        let mut stages = Vec::new();
        let mut offsets = vec![0];
        for rank in ranks {
            stages.extend_from_slice(rank.as_ref());
            offsets.push(stages.len());
        }
        Self {
            stages: stages.into(),
            offsets: offsets.into(),
        }
    }

    /// Groups `pops`, a global stage order, by the rank each stage runs
    /// on, keeping their order within each rank: one counting pass, one
    /// placement pass, and one allocation per slab.
    fn group_by_rank(pops: &[u32], graph: &StageGraph) -> Self {
        let num_ranks = graph.num_ranks;
        let mut offsets: Arc<[usize]> = std::iter::repeat_n(0, num_ranks + 1).collect();
        let mut stages: Arc<[StageId]> = std::iter::repeat_n(StageId(0), pops.len()).collect();
        let starts = Arc::get_mut(&mut offsets).expect("a fresh slab is unshared");
        let slots = Arc::get_mut(&mut stages).expect("a fresh slab is unshared");
        // Count each rank's stages one slot up, so the running sum leaves
        // rank `r`'s start at `starts[r]`.
        for &id in pops {
            starts[graph.item(StageId(id as usize)).rank + 1] += 1;
        }
        for r in 1..=num_ranks {
            starts[r] += starts[r - 1];
        }
        // Place each stage at its rank's cursor; each cursor ends at its
        // rank's end, the next rank's start, so shifting the table up one
        // slot restores the starts.
        for &id in pops {
            let id = StageId(id as usize);
            let cursor = &mut starts[graph.item(id).rank];
            slots[*cursor] = id;
            *cursor += 1;
        }
        starts.copy_within(..num_ranks, 1);
        starts[0] = 0;
        Self { stages, offsets }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The stages rank `rank` executes, in execution order.
    ///
    /// # Panics
    ///
    /// When `rank` is not below [`RankOrders::num_ranks`].
    pub fn rank(&self, rank: usize) -> &[StageId] {
        &self.stages[self.offsets[rank]..self.offsets[rank + 1]]
    }

    /// Every rank's execution order, in rank order.
    pub fn ranks(&self) -> impl ExactSizeIterator<Item = &[StageId]> + '_ {
        (0..self.num_ranks()).map(|rank| self.rank(rank))
    }

    /// Every scheduled stage: rank 0's order, then rank 1's, and so on.
    pub fn stages(&self) -> &[StageId] {
        &self.stages
    }

    /// Total number of scheduled stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// True when these orders and `other` share their storage: one is a
    /// clone of the other. Lets callers check that a served plan handed
    /// out the cached orders instead of a copy.
    pub fn shares_storage_with(&self, other: &RankOrders) -> bool {
        Arc::ptr_eq(&self.stages, &other.stages) && Arc::ptr_eq(&self.offsets, &other.offsets)
    }
}

/// What a pass reads of one [`crate::WorkItem`], in 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PassItem {
    duration: f64,
    activation_bytes: u64,
    /// Microbatch in the high 32 bits, sub-microbatch in the low 32: the
    /// queue key after the priority.
    position: u64,
    segment: u32,
    rank: u16,
    direction: Direction,
}

const _: () = assert!(std::mem::size_of::<PassItem>() == 32);

/// A packed, read-only view of a [`StageGraph`] for the passes of one
/// search: a 32-byte record per item and every item's dependency count,
/// next to the borrowed graph, whose reverse CSR the passes walk. Build it
/// once per search and hand it to every [`schedule_bounded`] pass; it
/// borrows the graph so that no view outlives a [`StageGraph::reprice`]
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct PassGraph<'g> {
    graph: &'g StageGraph,
    items: Vec<PassItem>,
    /// Dependency count per item, from the forward CSR.
    deps: Vec<u32>,
}

impl<'g> PassGraph<'g> {
    /// Packs `graph`.
    ///
    /// # Panics
    ///
    /// When an item's segment does not fit 32 bits or its rank 16 bits.
    pub fn new(graph: &'g StageGraph) -> Self {
        Self::pack(graph, Vec::new(), Vec::new())
    }

    /// Packs `graph` into `items` and `deps`, whatever they held.
    fn pack(graph: &'g StageGraph, mut items: Vec<PassItem>, mut deps: Vec<u32>) -> Self {
        items.clear();
        items.extend(graph.items().iter().map(|item| {
            debug_assert!(
                u32::try_from(item.microbatch).is_ok()
                    && u32::try_from(item.sub_microbatch).is_ok(),
                "microbatch indices are packed as u32"
            );
            PassItem {
                duration: item.duration,
                activation_bytes: item.activation_bytes,
                position: (item.microbatch as u64) << 32 | item.sub_microbatch as u64,
                segment: u32::try_from(item.segment).expect("segments are packed as u32"),
                rank: u16::try_from(item.rank).expect("ranks are packed as u16"),
                direction: item.direction,
            }
        }));
        deps.clear();
        deps.extend((0..graph.len()).map(|id| graph.deps_of(StageId(id)).len() as u32));
        Self { graph, items, deps }
    }

    /// The graph this view packs.
    pub(crate) fn graph(&self) -> &'g StageGraph {
        self.graph
    }
}

/// One released stage in its (rank, direction) queue: 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    /// The priority, offset to unsigned, in the high 64 bits and the
    /// complement of the position in the low 64, so a higher key is better.
    key: u128,
    ready_time: f64,
    id: u32,
}

impl QueueEntry {
    fn new(priority: i64, position: u64, ready_time: f64, id: usize) -> Self {
        let priority = (priority as u64) ^ (1 << 63);
        Self {
            key: u128::from(priority) << 64 | u128::from(!position),
            ready_time,
            id: id as u32,
        }
    }

    /// The priority, in the key's order-preserving form.
    fn priority(&self) -> u64 {
        (self.key >> 64) as u64
    }
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Higher priority is better, then earlier microbatch/sub-microbatch
        // (both in the key), then earlier ready time, then the lower id.
        // Ready times are compared with `f64::total_cmp`, so the order is
        // total by construction — a NaN (impossible for well-formed graphs,
        // but queue invariants should never rest on that) sorts
        // deterministically instead of silently comparing equal to
        // everything — and ids are unique, so no two entries tie.
        self.key
            .cmp(&other.key)
            .then_with(|| other.ready_time.total_cmp(&self.ready_time))
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A (rank, direction) queue: its entries in ascending [`QueueEntry`]
/// order, so the best entry is the last. Queues hold a handful of entries
/// (about 3 on average at a pop in the planner's graphs), where shifting
/// the worse ones up a slot on insert is cheaper than a heap's sifts.
#[derive(Debug, Clone, Default)]
struct SortedQueue(Vec<QueueEntry>);

impl SortedQueue {
    /// Inserts `entry` in order; true when it is the new top.
    fn push(&mut self, entry: QueueEntry) -> bool {
        // Ids are unique, so the slot is the one a binary search finds.
        let top = self.0.len();
        let mut at = top;
        self.0.push(entry);
        while at > 0 && entry < self.0[at - 1] {
            self.0[at] = self.0[at - 1];
            at -= 1;
        }
        self.0[at] = entry;
        at == top
    }

    fn pop(&mut self) -> Option<QueueEntry> {
        self.0.pop()
    }

    fn top(&self) -> Option<&QueueEntry> {
        self.0.last()
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// One rank's state during a pass.
#[derive(Debug, Clone, Copy)]
struct RankState {
    /// Start of the cached pick of the live loop, infinite when there is
    /// none; valid while the rank is not dirty.
    pick_start: f64,
    /// Time the rank becomes free.
    t_last: f64,
    /// Live activation bytes.
    mem_used: u64,
    /// In-flight (forward done, backward pending) stage pairs.
    inflight: usize,
    /// Live activation bytes at which the forward queue stops, `u128::MAX`
    /// without a limit — above every `u64`, so a saturated `mem_used`
    /// still runs forwards there.
    mem_limit: u128,
    /// Stage of the cached pick, `NO_PICK` when there is none.
    pick_id: u32,
    /// The rank's queues or state changed since its pick was cached.
    dirty: bool,
    /// Direction of the last executed stage.
    last_dir: Option<Direction>,
}

impl Default for RankState {
    fn default() -> Self {
        Self {
            pick_start: f64::INFINITY,
            t_last: 0.0,
            mem_used: 0,
            inflight: 0,
            mem_limit: u128::MAX,
            pick_id: NO_PICK,
            dirty: true,
            last_dir: None,
        }
    }
}

/// The dependency count of an item that has run.
const EXECUTED: u32 = u32::MAX;

/// The pick id of a rank with nothing it may run.
const NO_PICK: u32 = u32::MAX;

/// The requirement step of a segment pair no pop constrained (`R = ∞`).
pub(crate) const NO_REQUIREMENT: u32 = u32::MAX;

/// One lowering of a requirement step in a decision record: the pop at
/// `pop_step` lowered the requirement step of `pair` to `push_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RequirementEvent {
    /// The ordered segment pair `(s, t)`, as `s * num_segments + t`.
    pub(crate) pair: u32,
    /// Pops completed before the pop that lowered it.
    pub(crate) pop_step: u32,
    /// The pair's new requirement step.
    pub(crate) push_step: u32,
}

/// Reusable scratch state for [`schedule_into`] / [`schedule_bounded`]:
/// every queue and vector one interleave pass needs, hoisted out of the
/// call so a search worker evaluating thousands of orderings performs
/// **zero heap allocations after warm-up**. The reset is clear-don't-drop —
/// vectors, queues included, are `clear()`ed and refilled in their buffers
/// — so capacities only ever grow to the graph's high-water mark and then
/// stay put (the capacity-stability test below asserts exactly that).
///
/// A workspace is not tied to one graph: it resizes itself to whatever
/// graph it is handed, and holds no view of one ([`schedule_into`] keeps
/// only the buffers of the view it packs per call). The ordering search
/// gives each of its worker threads one workspace, reused for every pass
/// of every stream the thread runs (see `dip-core`'s ordering search), and
/// shares one [`crate::PassMemo`], which packs one [`PassGraph`], between
/// them.
#[derive(Debug, Clone, Default)]
pub struct ScheduleWorkspace {
    /// Unsatisfied dependency count per item, `EXECUTED` once the item has
    /// run: 0 marks exactly the released items not yet popped.
    remaining_deps: Vec<u32>,
    /// Earliest data-ready time per item (updated as producers finish).
    ready_time: Vec<f64>,
    /// Push step per released item.
    push_step: Vec<u32>,
    /// Per-rank stage queues, at [`queue_index`]: forward, then backward.
    queues: Vec<SortedQueue>,
    /// Per-rank state of the pass.
    ranks: Vec<RankState>,
    /// The in-flight count at which every rank's forward queue stops.
    inflight_cap: usize,
    /// Decision record of the most recent pass; before a pass, the prefix
    /// it replays (see the module docs).
    pub(crate) record: RecordState,
    /// Steps the most recent pass replayed from its prefix, the aborting
    /// step included when the cutoff fell inside the prefix.
    pub(crate) replayed_steps: usize,
    /// Steps the most recent pass decided live, popping from its queues,
    /// the aborting step included. A completed pass over `n` stages has
    /// `replayed_steps + live_steps == n`.
    pub(crate) live_steps: usize,
    /// The buffers of the view [`schedule_into`] packs per call.
    view_items: Vec<PassItem>,
    view_deps: Vec<u32>,
}

impl ScheduleWorkspace {
    /// An empty workspace. Capacities grow on first use and then stabilise.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-rank execution orders of the most recent pass over `graph`,
    /// read off its pop log (empty before the first pass; partial after an
    /// aborted bounded pass or on a graph with an unsatisfiable
    /// dependency).
    pub fn orders(&self, graph: &StageGraph) -> RankOrders {
        RankOrders::group_by_rank(&self.record.pops, graph)
    }

    /// The stage ids the most recent pass popped, in pop order (empty
    /// before the first pass; partial after an aborted bounded pass).
    pub fn pop_log(&self) -> &[u32] {
        &self.record.pops
    }

    /// Clear-don't-drop reset for a pass under `config` over a graph of
    /// `n` items, `num_ranks` ranks and `num_segments` segments: every
    /// vector is cleared and refilled in place, every queue keeps its
    /// buffer, and the forward caps are resolved per rank. The record
    /// keeps the prefix it holds (see [`RecordState::reset`]).
    fn reset(&mut self, n: usize, num_ranks: usize, num_segments: usize, config: &DualQueueConfig) {
        debug_assert!(u32::try_from(n).is_ok(), "stage ids are logged as u32");
        self.remaining_deps.clear();
        self.ready_time.clear();
        self.ready_time.resize(n, 0.0);
        self.push_step.clear();
        self.push_step.resize(n, 0);
        self.queues.resize_with(2 * num_ranks, SortedQueue::default);
        for q in &mut self.queues {
            q.clear();
        }
        // No pass holds `usize::MAX` stages in flight on one rank.
        self.inflight_cap = config.max_inflight.unwrap_or(usize::MAX);
        let limits = config.memory_limit.as_deref().unwrap_or_default();
        self.ranks.clear();
        self.ranks.extend((0..num_ranks).map(|rank| RankState {
            mem_limit: limits.get(rank).map_or(u128::MAX, |&l| u128::from(l)),
            ..RankState::default()
        }));
        self.record.reset(n, num_segments, 2 * num_ranks);
        self.replayed_steps = 0;
        self.live_steps = 0;
    }

    /// The capacity of every owned buffer, in a fixed order — the witness
    /// the zero-allocation test compares across repeated passes.
    #[cfg(test)]
    fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![
            self.remaining_deps.capacity(),
            self.ready_time.capacity(),
            self.push_step.capacity(),
            self.queues.capacity(),
            self.ranks.capacity(),
            self.record.present.capacity(),
            self.record.requirements.capacity(),
            self.record.events.capacity(),
            self.record.pops.capacity(),
            self.view_items.capacity(),
            self.view_deps.capacity(),
        ];
        sig.extend(self.queues.iter().map(|q| q.0.capacity()));
        sig
    }
}
/// Decision-record bookkeeping of one pass: which segments have entries in
/// each queue, the requirement table, its events and the pop log. Sized
/// from the graph's segment and rank counts only, never from the
/// priorities. Queue `2 * rank` is the rank's forward queue, `2 * rank + 1`
/// its backward queue. It vouches for its pass only when the pass
/// completed: after an aborted bounded pass it is partial.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecordState {
    num_segments: usize,
    /// `u64` words per segment bitset.
    words: usize,
    /// A superset of the segments with entries in each queue, `words`
    /// words per queue; exact when no two segments share a priority.
    present: Vec<u64>,
    /// `R[s][t]` at `s * num_segments + t`.
    pub(crate) requirements: Vec<u32>,
    /// Every lowering of `requirements`, in pop order.
    pub(crate) events: Vec<RequirementEvent>,
    /// Per segment `s`, when sets fit one word: the segments `t` with a
    /// finite `R[s][t]`, and an upper bound on those steps. A pop of `s`
    /// whose other segments are all in its set, pushed at or above its
    /// bound, lowers nothing and is skipped.
    finite: Vec<u64>,
    ceiling: Vec<u32>,
    /// Popped stage ids, in pop order.
    pub(crate) pops: Vec<u32>,
}

impl RecordState {
    /// Resets the record for a pass over `n` items, keeping the prefix it
    /// holds: its pops are the steps the pass replays, and its events,
    /// those of the pass the pops come from below the prefix's end, are
    /// applied to the fresh requirement table. Empty both for a fresh
    /// pass.
    fn reset(&mut self, n: usize, num_segments: usize, num_queues: usize) {
        self.num_segments = num_segments;
        self.words = num_segments.div_ceil(64);
        self.present.clear();
        self.present.resize(num_queues * self.words, 0);
        self.requirements.clear();
        self.requirements
            .resize(num_segments * num_segments, NO_REQUIREMENT);
        self.pops.reserve(n.saturating_sub(self.pops.len()));
        self.finite.clear();
        self.ceiling.clear();
        if self.words == 1 {
            self.finite.resize(num_segments, 0);
            self.ceiling.resize(num_segments, 0);
        }
        for i in 0..self.events.len() {
            let event = self.events[i];
            debug_assert!(
                (event.pop_step as usize) < self.pops.len(),
                "a prefix's events lie below its end"
            );
            self.apply(event);
        }
    }

    /// Applies an event of the pass a resumed pass replays.
    fn apply(&mut self, event: RequirementEvent) {
        let pair = event.pair as usize;
        self.requirements[pair] = event.push_step;
        if self.words == 1 {
            let (segment, other) = (pair / self.num_segments, pair % self.num_segments);
            self.finite[segment] |= 1 << other;
            self.ceiling[segment] = self.ceiling[segment].max(event.push_step);
        }
    }

    /// The largest finite requirement step, 0 when there is none. Every
    /// finite resume point is at most this, so no resume ever replays the
    /// pop log, or needs an event, from this step on.
    pub(crate) fn horizon(&self) -> usize {
        self.requirements
            .iter()
            .filter(|&&r| r != NO_REQUIREMENT)
            .max()
            .map_or(0, |&r| r as usize)
    }

    /// The resume point of `priorities` against this completed pass: the
    /// smallest requirement step over the segment pairs they do not rank
    /// strictly. `None` means `j = ∞`: they reproduce the whole pass.
    #[cfg(test)]
    pub(crate) fn resume_point(&self, priorities: &[i64]) -> Option<usize> {
        let j = crate::memo::unranked_pairs(priorities, self.num_segments)
            .map(|pair| self.requirements[pair])
            .fold(NO_REQUIREMENT, u32::min);
        (j != NO_REQUIREMENT).then_some(j as usize)
    }

    /// Loads the first `steps` pops of `source`'s pass, and its events
    /// below them, as the prefix the next pass replays.
    #[cfg(test)]
    pub(crate) fn load_prefix(&mut self, source: &RecordState, steps: usize) {
        self.pops.clear();
        self.pops.extend_from_slice(&source.pops[..steps]);
        self.events.clear();
        let below = source
            .events
            .iter()
            .filter(|e| (e.pop_step as usize) < steps);
        self.events.extend(below);
    }

    /// Lowers `R` at `pair` to `push_step` if that is lower, noting the
    /// event.
    fn lower(&mut self, pair: usize, push_step: u32, pop_step: u32) {
        if push_step < self.requirements[pair] {
            self.requirements[pair] = push_step;
            self.events.push(RequirementEvent {
                pair: pair as u32,
                pop_step,
                push_step,
            });
        }
    }

    /// Notes an entry of `segment` pushed onto `queue`.
    fn push(&mut self, queue: usize, segment: usize) {
        self.present[queue * self.words + segment / 64] |= 1 << (segment % 64);
    }

    /// Records the pop, at `pop_step`, of an entry of `segment` pushed at
    /// `push_step`, the top of `queue`: it lowers `R[segment][t]` to
    /// `push_step` for every other segment `t` with entries in the queue.
    /// `exhausted` says no entry of `segment` can remain: the queue is
    /// empty or its new top has a lower priority. (Entries of one segment
    /// share a priority, so a remaining one would outrank that top. With a
    /// tie between segments the bit stays set, which only lowers `R`.) The
    /// segment's bit is cleared without a branch: whether a segment is
    /// exhausted is as good as random to a branch predictor.
    fn pop(
        &mut self,
        queue: usize,
        segment: usize,
        exhausted: bool,
        push_step: u32,
        pop_step: u32,
    ) {
        let (own_word, bit) = (segment / 64, 1 << (segment % 64));
        let cleared = bit & u64::from(exhausted).wrapping_neg();
        let row = segment * self.num_segments;
        let w = self.words;
        if w == 1 {
            // Up to 64 segments, the common case: one word per set, and
            // most pops lower nothing — every segment present already has
            // a requirement step at or below this push step.
            let present = self.present[queue];
            self.present[queue] = present & !cleared;
            let mut others = present & !bit;
            if others & !self.finite[segment] == 0 && push_step >= self.ceiling[segment] {
                return;
            }
            self.finite[segment] |= others;
            self.ceiling[segment] = self.ceiling[segment].max(push_step);
            while others != 0 {
                let pair = row + others.trailing_zeros() as usize;
                others &= others - 1;
                self.lower(pair, push_step, pop_step);
            }
            return;
        }
        for word in 0..w {
            let slot = queue * w + word;
            let mut others = self.present[slot];
            if word == own_word {
                others &= !bit;
                self.present[slot] &= !cleared;
            }
            while others != 0 {
                let pair = row + word * 64 + others.trailing_zeros() as usize;
                others &= others - 1;
                self.lower(pair, push_step, pop_step);
            }
        }
    }
}

/// The record index of `rank`'s queue for `direction`.
fn queue_index(rank: usize, direction: Direction) -> usize {
    2 * rank + usize::from(direction == Direction::Backward)
}

/// Enqueues item `idx` on its rank's direction queue under `priorities`,
/// marking the rank's pick stale when the item becomes its queue's top: a
/// pick reads only the tops of the rank's queues and the rank's own state,
/// so an entry below a top changes no pick. (Inlined into the kernel's
/// loops, like [`run_stage`]: a measured 5–8% of a pass.)
#[inline(always)]
fn push_entry(ws: &mut ScheduleWorkspace, graph: &PassGraph<'_>, priorities: &[i64], idx: usize) {
    let item = &graph.items[idx];
    let (segment, rank) = (item.segment as usize, usize::from(item.rank));
    let queue = queue_index(rank, item.direction);
    ws.record.push(queue, segment);
    let priority = priorities.get(segment).copied().unwrap_or(0);
    let top = ws.queues[queue].push(QueueEntry::new(
        priority,
        item.position,
        ws.ready_time[idx],
        idx,
    ));
    ws.ranks[rank].dirty |= top;
}

/// Runs the dual-queue interleaver over a stage graph, returning the per-rank
/// execution orders together with the scheduler's own makespan estimate.
///
/// This is the allocating convenience wrapper around [`schedule_into`]: it
/// builds a fresh [`ScheduleWorkspace`] per call. Hot paths that evaluate
/// many orderings (the planner's search workers) hold a workspace and
/// evaluate through a [`crate::PassMemo`].
pub fn schedule(graph: &StageGraph, config: &DualQueueConfig) -> (RankOrders, f64) {
    let mut ws = ScheduleWorkspace::new();
    let makespan = schedule_into(graph, config, &mut ws);
    (ws.orders(graph), makespan)
}

/// Runs the dual-queue interleaver using `ws` as scratch state, returning
/// the makespan; [`ScheduleWorkspace::orders`] reads the per-rank orders off
/// the pass's pop log.
/// Bit-identical to [`schedule`] (the wrapper delegates here), but performs
/// zero heap allocations once the workspace has warmed up on the graph's
/// shape: it packs the graph's [`PassGraph`] into buffers the workspace
/// keeps, and runs one [`schedule_bounded`] pass over it with no cutoff.
///
/// A graph with an unsatisfiable dependency (never built by
/// [`crate::StageGraphBuilder`]) cannot be fully scheduled: the pass trips
/// a debug assertion and, in release builds, reports an infinite makespan
/// over the partial orders, so no search ever selects it.
pub fn schedule_into(
    graph: &StageGraph,
    config: &DualQueueConfig,
    ws: &mut ScheduleWorkspace,
) -> f64 {
    let view = PassGraph::pack(
        graph,
        std::mem::take(&mut ws.view_items),
        std::mem::take(&mut ws.view_deps),
    );
    let makespan = schedule_bounded(&view, config, ws, f64::INFINITY);
    (ws.view_items, ws.view_deps) = (view.items, view.deps);
    makespan.expect("an infinite cutoff never aborts")
}

/// Like [`schedule_into`] over the graph `graph` packs, but aborts as soon
/// as any scheduled stage's end time exceeds `cutoff`, returning `None`.
///
/// The bound is **exact**, never heuristic: the makespan is the monotone
/// maximum of all stage end times, so the first end time past the cutoff
/// proves the final makespan would exceed it too — `None` means exactly
/// "this ordering's makespan is `> cutoff`", and `Some(m)` always satisfies
/// `m <= cutoff`. Callers that only care about better-than-incumbent
/// orderings (the random and DFS search workers) pass their incumbent as
/// the cutoff and skip the tail of every losing evaluation.
pub fn schedule_bounded(
    graph: &PassGraph<'_>,
    config: &DualQueueConfig,
    ws: &mut ScheduleWorkspace,
    cutoff: f64,
) -> Option<f64> {
    ws.record.pops.clear();
    ws.record.events.clear();
    resume(graph, config, ws, cutoff)
}

/// Like [`schedule_bounded`], but replays the prefix `ws`'s record holds
/// instead of deciding its steps, then decides the rest live (see the
/// module docs): the first pops of an earlier completed pass and that
/// pass's requirement events below them.
///
/// The result, the orders and the record left in `ws` are bit-identical
/// to a fresh bounded pass under `config` whenever the prefix is no longer
/// than the resume point of `config.segment_priorities` against the pass
/// it came from and that pass ran on the same graph under the same config
/// apart from the priorities. A prefix that breaks this contract yields an
/// arbitrary schedule, and trips a debug assertion when it replays a stage
/// that is not ready.
pub(crate) fn resume(
    graph: &PassGraph<'_>,
    config: &DualQueueConfig,
    ws: &mut ScheduleWorkspace,
    cutoff: f64,
) -> Option<f64> {
    let n = graph.items.len();
    let num_ranks = graph.graph.num_ranks;
    ws.reset(n, num_ranks, graph.graph.num_segments(), config);
    let priorities = config.segment_priorities.as_slice();
    // Dependency counts from the view; release edges from the graph's
    // cached reverse CSR (`StageGraph::dependents_of`) — nothing is
    // re-derived per evaluation.
    ws.remaining_deps.extend_from_slice(&graph.deps);

    let mut makespan = 0.0f64;

    // Replay the prefix: each step pops the logged stage, which starts
    // where the live loop would start it. No queue exists yet. The record
    // already holds the prefix's pops, and its table the prefix's part as
    // the source pass built it (see `RecordState::reset`).
    let resume = ws.record.pops.len();
    for step in 0..resume {
        let id = ws.record.pops[step] as usize;
        debug_assert_eq!(
            ws.remaining_deps[id], 0,
            "replayed stage {id} is not ready at step {step}"
        );
        let start = ws.ready_time[id].max(ws.ranks[usize::from(graph.items[id].rank)].t_last);
        ws.replayed_steps += 1;
        makespan = makespan.max(run_stage(graph, ws, id, start, step, cutoff, None)?);
    }
    // The queues at the resume step, under these priorities: every entry
    // released but not yet popped (at step 0, the stages without
    // dependencies).
    for idx in 0..n {
        if ws.remaining_deps[idx] == 0 {
            push_entry(ws, graph, priorities, idx);
        }
    }

    for step in resume..n {
        // Pick, for each rank, the stage it would run next under the policy,
        // then execute the one that can start earliest overall, the lowest
        // rank on ties. A pick reads only its own rank's queue tops and
        // state, so it is recomputed only for a dirty rank: one that ran
        // the last step or was handed a released stage that became a
        // queue's top (every rank, at the first live step).
        let mut chosen = usize::MAX;
        let mut best_start = f64::INFINITY;
        for rank in 0..num_ranks {
            if ws.ranks[rank].dirty {
                pick_for_rank(ws, rank);
            } else {
                debug_assert_eq!(
                    {
                        let state = &ws.ranks[rank];
                        (state.pick_start.to_bits(), state.pick_id)
                    },
                    {
                        let (start, id) = fresh_pick(ws, rank);
                        (start.to_bits(), id)
                    },
                    "rank {rank}'s cached pick is stale at step {step}"
                );
            }
            // A rank without a pick starts at infinity and never wins the
            // compare; the second test takes the first real pick whose
            // start does not compare below infinity, as the first pick
            // seen always was taken.
            let state = &ws.ranks[rank];
            let start = state.pick_start;
            if start < best_start || (chosen == usize::MAX && state.pick_id != NO_PICK) {
                chosen = rank;
                best_start = start;
            }
        }
        let (start, rank, id) = if chosen != usize::MAX {
            (best_start, chosen, ws.ranks[chosen].pick_id as usize)
        } else {
            // Deadlock avoidance: every rank is blocked by the
            // memory/inflight constraint, so relax it for the rank with the
            // earliest-ready forward.
            let mut best: Option<(f64, usize, usize)> = None; // (start, rank, id)
            for rank in 0..num_ranks {
                if let Some(entry) = ws.queues[queue_index(rank, Direction::Forward)].top() {
                    let start = entry.ready_time.max(ws.ranks[rank].t_last);
                    if best.is_none_or(|(s, ..)| start < s) {
                        best = Some((start, rank, entry.id as usize));
                    }
                }
            }
            let Some(best) = best else {
                // Nothing is ready anywhere although stages remain: the
                // graph has an unsatisfiable dependency (impossible for a
                // builder-made graph). A partial schedule has no makespan,
                // so the pass reports an infinite one — it loses to every
                // complete pass, and a bounded pass aborts as on any loss.
                debug_assert!(
                    step == n,
                    "unsatisfiable dependency: {} of {n} stages never became ready",
                    n - step
                );
                return (f64::INFINITY <= cutoff).then_some(f64::INFINITY);
            };
            best
        };

        // Dequeue the chosen entry. Both the policy pick and the relaxed
        // fallback select the *top* of one queue, so the chosen entry is by
        // construction that queue's best — pop it directly.
        let item = &graph.items[id];
        let queue_idx = queue_index(rank, item.direction);
        let queue = &mut ws.queues[queue_idx];
        let popped = queue.pop().expect("the chosen entry is this queue's top");
        debug_assert_eq!(
            popped.id as usize, id,
            "the chosen entry is its queue's top"
        );
        let exhausted = queue
            .top()
            .is_none_or(|top| top.priority() < popped.priority());
        ws.record.pop(
            queue_idx,
            item.segment as usize,
            exhausted,
            ws.push_step[id],
            step as u32,
        );
        ws.live_steps += 1;

        makespan = makespan.max(run_stage(
            graph,
            ws,
            id,
            start,
            step,
            cutoff,
            Some(priorities),
        )?);
    }

    Some(makespan)
}

/// Executes stage `id` from `start` as the pass's pop at `step`, unless it
/// would end past `cutoff`: updates the rank state, and releases every
/// dependent this makes ready, with push step `step + 1`. A live step
/// logs the pop and enqueues the released stages under `priorities`
/// (`Some`); a replayed step, whose pop the log already holds, leaves them
/// for the queue rebuild (`None`). Returns the stage's end, or `None` past
/// the cutoff.
#[inline(always)]
fn run_stage(
    graph: &PassGraph<'_>,
    ws: &mut ScheduleWorkspace,
    id: usize,
    start: f64,
    step: usize,
    cutoff: f64,
    priorities: Option<&[i64]>,
) -> Option<f64> {
    let item = &graph.items[id];
    let end = start + item.duration;
    if end > cutoff {
        // The makespan is a monotone max over stage end times: one end
        // past the cutoff proves the full schedule would be too. The
        // workspace holds a partial pass; the next reset wipes it.
        return None;
    }
    let rank = usize::from(item.rank);
    debug_assert_eq!(ws.remaining_deps[id], 0, "stage not ready or run twice");
    ws.remaining_deps[id] = EXECUTED;
    let state = &mut ws.ranks[rank];
    state.t_last = end;
    state.last_dir = Some(item.direction);
    state.dirty = true;
    if priorities.is_some() {
        ws.record.pops.push(id as u32);
    }
    match item.direction {
        Direction::Forward => {
            state.mem_used = state.mem_used.saturating_add(item.activation_bytes);
            state.inflight += 1;
        }
        Direction::Backward => {
            state.mem_used = state.mem_used.saturating_sub(item.activation_bytes);
            state.inflight = state.inflight.saturating_sub(1);
        }
    }
    // Release dependents via the cached reverse CSR. A ready time only
    // ever rises; neither side of the compare is NaN for a real graph.
    for &(dependent, lag) in graph.graph.dependents_of(StageId(id)) {
        let d = dependent.0;
        let ready = end + lag;
        if ready > ws.ready_time[d] {
            ws.ready_time[d] = ready;
        }
        ws.remaining_deps[d] -= 1;
        if ws.remaining_deps[d] == 0 {
            ws.push_step[d] = (step + 1) as u32;
            if let Some(priorities) = priorities {
                push_entry(ws, graph, priorities, d);
            }
        }
    }
    Some(end)
}

/// Caches the stage `rank` would run next under the policy and its start
/// time, or no pick when the rank has nothing it may run.
fn pick_for_rank(ws: &mut ScheduleWorkspace, rank: usize) {
    let (start, id) = fresh_pick(ws, rank);
    let state = &mut ws.ranks[rank];
    (state.pick_start, state.pick_id, state.dirty) = (start, id, false);
}

/// The start and id of the stage `rank` would run next under the policy,
/// `(∞, NO_PICK)` when it has nothing it may run. The rank's forward queue
/// may run while its in-flight count and live activation bytes are under
/// their caps.
#[inline(always)]
fn fresh_pick(ws: &ScheduleWorkspace, rank: usize) -> (f64, u32) {
    let state = &ws.ranks[rank];
    let forward_allowed =
        state.inflight < ws.inflight_cap && u128::from(state.mem_used) < state.mem_limit;
    let f = ws.queues[queue_index(rank, Direction::Forward)]
        .top()
        .filter(|_| forward_allowed);
    let b = ws.queues[queue_index(rank, Direction::Backward)].top();
    let t_last = state.t_last;
    let entry = match (f, b) {
        (None, None) => None,
        (Some(e), None) | (None, Some(e)) => Some(e),
        (Some(fe), Some(be)) => {
            // When both could already have started (the rank is the
            // bottleneck), alternate forward/backward to bound memory
            // (the 1F1B pattern). Otherwise pick the stage that can start
            // earliest to minimise the bubble.
            Some(if fe.ready_time <= t_last && be.ready_time <= t_last {
                match state.last_dir {
                    Some(Direction::Forward) => be,
                    Some(Direction::Backward) | None => fe,
                }
            } else if fe.ready_time <= be.ready_time {
                fe
            } else {
                be
            })
        }
    };
    entry.map_or((f64::INFINITY, NO_PICK), |e| {
        (e.ready_time.max(t_last), e.id)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::{StageGraphBuilder, SubMicrobatchPlan};
    use crate::partition::balanced_param_placement;
    use crate::placement::ParallelConfig;
    use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
    use dip_sim::ClusterTopology;

    /// A VLM-S graph (tp4 pp4 on two H800 nodes, separated placement, the
    /// backbone split in `backbone_segments`) over `microbatches` copies of
    /// one microbatch of 6502 text tokens and ten 169-token images, and
    /// its segment count.
    pub(crate) fn vlm_graph(microbatches: usize, backbone_segments: usize) -> (StageGraph, usize) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let mut k = std::collections::BTreeMap::new();
        k.insert(spec.backbone_id().unwrap(), backbone_segments);
        let placement = crate::separated_placement(&spec, parallel, &k);
        let cluster = ClusterTopology::h800_cluster(2);
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(6502, 1))
            .with(Modality::Image, ModalityWorkload::new(1690, 10));
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), microbatches);
        let graph = StageGraphBuilder::new_on(&spec, &placement, &cluster)
            .build(&vec![batch; microbatches], &plan)
            .unwrap();
        (graph, placement.segments.len())
    }

    fn lm_graph(num_microbatches: usize, pp: usize) -> StageGraph {
        vpp_graph(num_microbatches, pp, 1)
    }

    /// A text-only graph with `vpp` segments, each spanning all `pp` ranks,
    /// so segments compete for every queue.
    fn vpp_graph(num_microbatches: usize, pp: usize, vpp: usize) -> StageGraph {
        let spec = zoo::lm_7b();
        let parallel = ParallelConfig::new(2, pp, 1);
        let placement = balanced_param_placement(&spec, parallel, vpp);
        let cluster = ClusterTopology::h800_cluster(1);
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batch = BatchWorkload::new().with(Modality::Text, ModalityWorkload::from_tokens(8192));
        let batches = vec![batch; num_microbatches];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        builder.build(&batches, &plan).unwrap()
    }

    #[test]
    fn schedules_every_stage_exactly_once() {
        let graph = lm_graph(6, 4);
        let (orders, makespan) = schedule(&graph, &DualQueueConfig::default());
        assert_eq!(orders.num_stages(), graph.len());
        assert!(makespan > 0.0);
        let mut seen = vec![false; graph.len()];
        for rank_order in orders.ranks() {
            for id in rank_order {
                assert!(!seen[id.0], "stage {id:?} scheduled twice");
                seen[id.0] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn stages_land_on_their_own_rank() {
        let graph = lm_graph(4, 4);
        let (orders, _) = schedule(&graph, &DualQueueConfig::default());
        for (rank, order) in orders.ranks().enumerate() {
            for id in order {
                assert_eq!(graph.item(*id).rank, rank);
            }
        }
    }

    #[test]
    fn max_inflight_caps_activations_in_flight() {
        let graph = lm_graph(8, 4);
        let inflight_peak = |orders: &RankOrders| -> usize {
            let mut peak = 0usize;
            for order in orders.ranks() {
                let mut live = 0usize;
                let mut local_peak = 0usize;
                for id in order {
                    match graph.item(*id).direction {
                        Direction::Forward => live += 1,
                        Direction::Backward => live = live.saturating_sub(1),
                    }
                    local_peak = local_peak.max(live);
                }
                peak = peak.max(local_peak);
            }
            peak
        };
        let (orders, _) = schedule(
            &graph,
            &DualQueueConfig {
                max_inflight: Some(4),
                ..DualQueueConfig::default()
            },
        );
        assert!(inflight_peak(&orders) <= 4);
    }

    #[test]
    fn memory_limit_defers_forwards_without_deadlocking() {
        let graph = lm_graph(6, 2);
        // An absurdly small budget forces the deadlock-avoidance path.
        let config = DualQueueConfig {
            memory_limit: Some(vec![1, 1]),
            ..DualQueueConfig::default()
        };
        let (orders, makespan) = schedule(&graph, &config);
        assert_eq!(orders.num_stages(), graph.len());
        assert!(makespan.is_finite());
    }

    #[test]
    fn priorities_bias_segment_order() {
        // Two-segment placement (VPP): giving segment 1 higher priority makes
        // its stages appear earlier on rank 0 than with default priorities.
        let spec = zoo::lm_7b();
        let parallel = ParallelConfig::new(2, 2, 1);
        let placement = balanced_param_placement(&spec, parallel, 2);
        let cluster = ClusterTopology::h800_cluster(1);
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batch = BatchWorkload::new().with(Modality::Text, ModalityWorkload::from_tokens(8192));
        let batches = vec![batch; 4];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let graph = builder.build(&batches, &plan).unwrap();

        let first_pos_of_segment = |orders: &RankOrders, segment: usize| -> usize {
            orders
                .rank(0)
                .iter()
                .position(|id| graph.item(*id).segment == segment)
                .unwrap_or(usize::MAX)
        };
        let (default_orders, _) = schedule(&graph, &DualQueueConfig::default());
        let (boosted_orders, _) = schedule(
            &graph,
            &DualQueueConfig {
                segment_priorities: vec![0, 100],
                ..DualQueueConfig::default()
            },
        );
        // Data dependencies still force segment 0 of a microbatch before
        // segment 1, but boosting segment 1 should not *delay* it.
        assert!(
            first_pos_of_segment(&boosted_orders, 1) <= first_pos_of_segment(&default_orders, 1)
        );
    }

    #[test]
    fn reused_workspace_matches_fresh_schedule_bit_for_bit() {
        let graph = lm_graph(6, 4);
        let mut ws = ScheduleWorkspace::new();
        // Dirty the workspace on a different graph shape first.
        let other = lm_graph(3, 2);
        schedule_into(&other, &DualQueueConfig::default(), &mut ws);
        for priorities in [vec![], vec![5], vec![0, 100], vec![-3, 7, 1]] {
            let config = DualQueueConfig {
                segment_priorities: priorities,
                ..DualQueueConfig::default()
            };
            let (orders, makespan) = schedule(&graph, &config);
            let ws_makespan = schedule_into(&graph, &config, &mut ws);
            assert_eq!(makespan.to_bits(), ws_makespan.to_bits());
            assert_eq!(orders, ws.orders(&graph));
        }
    }

    #[test]
    fn workspace_capacities_are_stable_after_warmup() {
        for graph in [lm_graph(8, 4)] {
            let view = PassGraph::new(&graph);
            let mut ws = ScheduleWorkspace::new();
            // Warm-up pass: buffers grow to the graph's high-water mark,
            // the view buffers `schedule_into` packs into and the per-rank
            // forward caps included.
            let capped = DualQueueConfig {
                memory_limit: Some(vec![1 << 34; graph.num_ranks]),
                max_inflight: Some(3),
                ..DualQueueConfig::default()
            };
            schedule_into(&graph, &capped, &mut ws);
            let signature = ws.capacity_signature();
            // A separate pass whose record the resumed passes replay.
            let mut source = ScheduleWorkspace::new();
            schedule_into(&graph, &DualQueueConfig::default(), &mut source);
            let record = &source.record;
            // Steady state: repeated passes (including under varying
            // priorities and caps, an aborted bounded pass and resumed
            // passes, one of them aborted inside its replay) must not
            // allocate — every capacity stays exactly at the warm-up
            // signature.
            for round in 0..10 {
                let config = DualQueueConfig {
                    segment_priorities: vec![round as i64, -(round as i64)],
                    ..if round % 2 == 0 {
                        DualQueueConfig::default()
                    } else {
                        capped.clone()
                    }
                };
                schedule_into(&graph, &config, &mut ws);
                assert_eq!(
                    signature,
                    ws.capacity_signature(),
                    "round {round} allocated"
                );
                assert!(schedule_bounded(&view, &config, &mut ws, 1e-9).is_none());
                assert_eq!(
                    signature,
                    ws.capacity_signature(),
                    "bounded round {round} allocated"
                );
                let config = DualQueueConfig {
                    memory_limit: None,
                    max_inflight: None,
                    ..config
                };
                let steps = record
                    .resume_point(&config.segment_priorities)
                    .unwrap_or(graph.len() / 2);
                ws.record.load_prefix(record, steps);
                resume(&view, &config, &mut ws, f64::INFINITY);
                assert_eq!(
                    signature,
                    ws.capacity_signature(),
                    "resumed round {round} allocated"
                );
                ws.record.load_prefix(record, steps);
                assert!(resume(&view, &config, &mut ws, 1e-9).is_none());
                assert_eq!(
                    signature,
                    ws.capacity_signature(),
                    "aborted resumed round {round} allocated"
                );
            }
        }
    }

    /// Every packed record of a [`PassGraph`] carries exactly the fields
    /// of its `WorkItem`, and every count is the item's dependency
    /// count, on a VLM-S graph (encoder, adapter and split backbone) and
    /// a T2V-S graph with uneven sub-microbatch splits.
    #[test]
    fn pass_graph_packs_every_item_field() {
        let (vlm, _) = vlm_graph(3, 2);
        let t2v = {
            let spec = zoo::t2v_s();
            let parallel = ParallelConfig::new(4, 4, 1);
            let placement =
                crate::separated_placement(&spec, parallel, &std::collections::BTreeMap::new());
            let topology = dip_sim::ClusterTopology::mixed_h800_h20(2, 1);
            let batch = BatchWorkload::new()
                .with(Modality::Text, ModalityWorkload::new(900, 6))
                .with(Modality::Video, ModalityWorkload::new(16 * 1560, 4));
            let mut plan = SubMicrobatchPlan::uniform(placement.segments.len(), 2);
            plan.set(0, 1, 3);
            StageGraphBuilder::new_on(&spec, &placement, &topology)
                .build(&vec![batch; 2], &plan)
                .unwrap()
        };
        for graph in [&vlm, &t2v] {
            let view = PassGraph::new(graph);
            assert_eq!(view.items.len(), graph.len());
            for (packed, item) in view.items.iter().zip(graph.items()) {
                assert_eq!(packed.duration.to_bits(), item.duration.to_bits());
                assert_eq!(packed.activation_bytes, item.activation_bytes);
                assert_eq!(packed.position >> 32, item.microbatch as u64);
                assert_eq!(packed.position & 0xffff_ffff, item.sub_microbatch as u64);
                assert_eq!(packed.segment as usize, item.segment);
                assert_eq!(usize::from(packed.rank), item.rank);
                assert_eq!(packed.direction, item.direction);
                assert_eq!(view.deps[item.id.0] as usize, graph.deps_of(item.id).len());
            }
        }
        assert!(t2v.items().iter().any(|item| item.sub_microbatch > 0));
    }

    /// Forward caps resolve once per pass into per-rank limits without
    /// moving the edge a saturated activation count sits on: with no
    /// limit, or past the limit vector's end, a rank whose live bytes
    /// saturate at `u64::MAX` still runs forwards, exactly as with no
    /// memory charged at all; a limit of `u64::MAX` stops them.
    #[test]
    fn a_saturated_activation_count_stops_only_a_set_limit() {
        let graph = lm_graph(6, 2);
        let mut view = PassGraph::new(&graph);
        let free = |view: &PassGraph<'_>, config: &DualQueueConfig| {
            let mut ws = ScheduleWorkspace::new();
            let makespan = schedule_bounded(view, config, &mut ws, f64::INFINITY)
                .expect("an infinite cutoff never aborts");
            (makespan.to_bits(), ws.pop_log().to_vec())
        };
        for item in &mut view.items {
            item.activation_bytes = 0;
        }
        let uncharged = free(&view, &DualQueueConfig::default());
        for item in &mut view.items {
            item.activation_bytes = u64::MAX / 2 + 1;
        }
        for memory_limit in [None, Some(vec![]), Some(vec![u64::MAX])] {
            let config = DualQueueConfig {
                memory_limit: memory_limit.clone(),
                ..DualQueueConfig::default()
            };
            let saturated = free(&view, &config);
            if memory_limit.is_some_and(|l| !l.is_empty()) {
                // Rank 0 saturates after two forwards and then runs a
                // forward only through the relaxed deadlock path.
                assert_ne!(saturated, uncharged);
            } else {
                assert_eq!(saturated, uncharged);
            }
        }
    }

    #[test]
    fn record_bookkeeping_spans_several_words() {
        // 70 segments take two words per set, off the one-word layout.
        let mut state = RecordState::default();
        state.reset(0, 70, 2);
        for (queue, segment) in [(0, 3), (0, 3), (0, 65), (0, 69), (1, 65)] {
            state.push(queue, segment);
        }
        state.pop(0, 69, true, 4, 10); // outranked 3 and 65
        state.pop(0, 65, true, 2, 11); // outranked 3
        state.pop(1, 65, true, 1, 12); // alone in its queue
        state.pop(0, 3, false, 0, 13); // another entry of 3 remains
        assert_eq!(state.present, [1 << 3, 0, 0, 0]);
        state.pop(0, 3, true, 0, 14);
        assert!(state.present.iter().all(|&word| word == 0));
        let requirement = |s: usize, t: usize| {
            let r = state.requirements[s * 70 + t];
            (r != NO_REQUIREMENT).then_some(r)
        };
        assert_eq!(requirement(69, 3), Some(4));
        assert_eq!(requirement(69, 65), Some(4));
        assert_eq!(requirement(65, 3), Some(2));
        assert_eq!(requirement(3, 65), None);
        assert_eq!(state.horizon(), 4);
        let pairs: Vec<(u32, u32, u32)> = state
            .events
            .iter()
            .map(|e| (e.pair, e.pop_step, e.push_step))
            .collect();
        assert_eq!(
            pairs,
            [
                (69 * 70 + 3, 10, 4),
                (69 * 70 + 65, 10, 4),
                (65 * 70 + 3, 11, 2)
            ]
        );
        // Ranking 65 over 69 breaks the pass where 69's entry was pushed.
        let mut priorities = vec![0i64; 70];
        priorities[69] = 3;
        priorities[65] = 2;
        priorities[3] = 1;
        assert_eq!(state.resume_point(&priorities), None);
        priorities[65] = 4;
        assert_eq!(state.resume_point(&priorities), Some(4));
    }

    #[test]
    fn requirement_steps_keep_the_smallest_push_step() {
        // One word: segment 1 popped over segment 0 three times, pushed at
        // steps 5, 3 and 4 — only the first two pops lower `R[1][0]`.
        let mut state = RecordState::default();
        state.reset(0, 2, 1);
        for (push_step, pop_step) in [(5, 7), (3, 8), (4, 9)] {
            state.push(0, 0);
            state.push(0, 1);
            state.pop(0, 1, true, push_step, pop_step);
        }
        assert_eq!(
            state.requirements,
            [NO_REQUIREMENT, NO_REQUIREMENT, 3, NO_REQUIREMENT]
        );
        let lowered: Vec<(u32, u32)> = state
            .events
            .iter()
            .map(|e| (e.pop_step, e.push_step))
            .collect();
        assert_eq!(lowered, [(7, 5), (8, 3)]);
    }

    #[test]
    fn resumed_passes_match_fresh_passes() {
        // Three segments over every rank: every priority permutation,
        // resumed from every other permutation's pass at its resume point,
        // reproduces the fresh pass's makespan, orders and record.
        let graph = vpp_graph(6, 4, 3);
        let permutations = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let config = |p: &[i64; 3]| DualQueueConfig {
            segment_priorities: p.to_vec(),
            ..DualQueueConfig::default()
        };
        let (mut source, mut fresh, mut resumed) = (
            ScheduleWorkspace::new(),
            ScheduleWorkspace::new(),
            ScheduleWorkspace::new(),
        );
        let view = PassGraph::new(&graph);
        let mut replayed = 0;
        for from in &permutations {
            schedule_into(&graph, &config(from), &mut source);
            let record = &source.record;
            for to in &permutations {
                let config = config(to);
                let makespan = schedule_into(&graph, &config, &mut fresh);
                let j = record.resume_point(&config.segment_priorities);
                let steps = j.unwrap_or(graph.len());
                resumed.record.load_prefix(record, steps);
                let result = resume(&view, &config, &mut resumed, f64::INFINITY);
                assert_eq!(result.map(f64::to_bits), Some(makespan.to_bits()));
                assert_eq!(resumed.orders(&graph), fresh.orders(&graph));
                assert_eq!(resumed.record.requirements, fresh.record.requirements);
                assert_eq!(resumed.record.pops, fresh.record.pops);
                assert_eq!(resumed.record.events, fresh.record.events);
                assert_eq!(resumed.replayed_steps, steps);
                assert_eq!(resumed.live_steps, graph.len() - steps);
                replayed += steps;
            }
        }
        assert!(replayed > 0, "no pass resumed past step 0");
    }

    #[test]
    fn direct_pop_matches_on_the_relaxed_deadlock_path() {
        // A tiny per-rank memory limit forces every forward past the first to
        // go through the relaxed (deadlock-avoidance) branch. The direct-pop
        // dequeue must behave identically to the old stash loop there:
        // reused-workspace and fresh-wrapper runs agree bit for bit, and the
        // debug assertion (popped id == chosen id) holds throughout.
        let graph = lm_graph(6, 2);
        let config = DualQueueConfig {
            memory_limit: Some(vec![1, 1]),
            max_inflight: Some(1),
            ..DualQueueConfig::default()
        };
        let (orders, makespan) = schedule(&graph, &config);
        assert_eq!(orders.num_stages(), graph.len());
        let mut ws = ScheduleWorkspace::new();
        let ws_makespan = schedule_into(&graph, &config, &mut ws);
        assert_eq!(makespan.to_bits(), ws_makespan.to_bits());
        assert_eq!(orders, ws.orders(&graph));
    }

    #[test]
    fn bounded_with_infinite_cutoff_matches_schedule_into() {
        let graph = lm_graph(5, 4);
        let view = PassGraph::new(&graph);
        let config = DualQueueConfig::default();
        let mut ws = ScheduleWorkspace::new();
        let makespan = schedule_into(&graph, &config, &mut ws);
        let orders = ws.orders(&graph);
        let bounded = schedule_bounded(&view, &config, &mut ws, f64::INFINITY)
            .expect("infinite cutoff never aborts");
        assert_eq!(makespan.to_bits(), bounded.to_bits());
        assert_eq!(orders, ws.orders(&graph));
    }

    #[test]
    fn bound_is_exact_at_the_makespan_boundary() {
        let graph = lm_graph(5, 4);
        let view = PassGraph::new(&graph);
        let config = DualQueueConfig::default();
        let mut ws = ScheduleWorkspace::new();
        let makespan = schedule_into(&graph, &config, &mut ws);
        // Cutoff exactly at the makespan: the pass completes (end > cutoff
        // is strict) and returns the same bits.
        let at = schedule_bounded(&view, &config, &mut ws, makespan)
            .expect("cutoff == makespan must complete");
        assert_eq!(at.to_bits(), makespan.to_bits());
        // Cutoff just below: the pass must abort.
        let below = makespan * (1.0 - 1e-12);
        assert!(below < makespan);
        assert!(schedule_bounded(&view, &config, &mut ws, below).is_none());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "unsatisfiable dependency"))]
    fn unsatisfiable_dependency_reports_an_infinite_makespan() {
        let mut graph = lm_graph(3, 2);
        graph.add_self_dependency(StageId(0));
        let view = PassGraph::new(&graph);
        let config = DualQueueConfig::default();
        let mut ws = ScheduleWorkspace::new();
        // Release builds: the partial pass is reported, never a finite
        // makespan of the stages that did run.
        assert!(schedule_into(&graph, &config, &mut ws).is_infinite());
        assert!(ws.orders(&graph).num_stages() < graph.len());
        assert!(schedule_bounded(&view, &config, &mut ws, 1e9).is_none());
        let (orders, makespan) = schedule(&graph, &config);
        assert!(makespan.is_infinite());
        assert!(orders.num_stages() < graph.len());
    }

    /// The per-rank orders as they were read off a pass before the orders
    /// became one slab: the pop log filtered by rank, one vector per rank.
    fn filtered_pop_log(ws: &ScheduleWorkspace, graph: &StageGraph) -> Vec<Vec<StageId>> {
        let mut orders = vec![Vec::new(); graph.num_ranks];
        for &id in ws.pop_log() {
            let id = StageId(id as usize);
            orders[graph.item(id).rank].push(id);
        }
        orders
    }

    #[test]
    fn rank_orders_equal_the_pop_log_filtered_by_rank() {
        let configs = [
            DualQueueConfig::default(),
            DualQueueConfig {
                segment_priorities: vec![3, -1, 7],
                ..DualQueueConfig::default()
            },
            DualQueueConfig {
                memory_limit: Some(vec![1; 4]),
                max_inflight: Some(2),
                ..DualQueueConfig::default()
            },
        ];
        let mut ws = ScheduleWorkspace::new();
        for graph in [lm_graph(6, 4), vpp_graph(5, 4, 3), lm_graph(1, 1)] {
            let view = PassGraph::new(&graph);
            for config in &configs {
                let makespan = schedule_into(&graph, config, &mut ws);
                let orders = ws.orders(&graph);
                let expected = filtered_pop_log(&ws, &graph);
                assert_eq!(orders.num_ranks(), graph.num_ranks);
                assert_eq!(orders.ranks().collect::<Vec<_>>(), expected);
                assert_eq!(orders.stages(), expected.concat());
                assert_eq!(orders.num_stages(), graph.len());
                // An aborted pass leaves a partial log, grouped the same way.
                let cutoff = makespan / 2.0;
                assert!(schedule_bounded(&view, config, &mut ws, cutoff).is_none());
                let partial = ws.orders(&graph);
                assert_eq!(
                    partial.ranks().collect::<Vec<_>>(),
                    filtered_pop_log(&ws, &graph)
                );
                assert!(partial.num_stages() < graph.len());
            }
        }
        // Before any pass: every rank's order is empty.
        let graph = lm_graph(2, 3);
        let fresh = ScheduleWorkspace::new().orders(&graph);
        assert_eq!(fresh.num_ranks(), 3);
        assert!(fresh.ranks().all(<[StageId]>::is_empty));
    }

    #[test]
    fn from_ranks_round_trips() {
        let ranks = vec![
            vec![StageId(4), StageId(0), StageId(2)],
            vec![],
            vec![StageId(1)],
            vec![StageId(3), StageId(5)],
        ];
        let orders = RankOrders::from_ranks(&ranks);
        assert_eq!(orders.num_ranks(), 4);
        assert_eq!(orders.num_stages(), 6);
        assert_eq!(orders.ranks().collect::<Vec<_>>(), ranks);
        for (r, rank) in ranks.iter().enumerate() {
            assert_eq!(orders.rank(r), rank.as_slice());
        }
        assert_eq!(RankOrders::from_ranks(orders.ranks()), orders);
        assert_eq!(
            RankOrders::from_ranks(Vec::<Vec<StageId>>::new()).num_ranks(),
            0
        );

        let graph = lm_graph(4, 4);
        let (scheduled, _) = schedule(&graph, &DualQueueConfig::default());
        assert_eq!(RankOrders::from_ranks(scheduled.ranks()), scheduled);
        // A clone shares the slabs; a rebuilt copy is equal but separate.
        assert!(scheduled.clone().shares_storage_with(&scheduled));
        assert!(!RankOrders::from_ranks(scheduled.ranks()).shares_storage_with(&scheduled));
    }
}
