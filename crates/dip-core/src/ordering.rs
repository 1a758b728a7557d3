//! Pipeline segment reordering (§5.1): Monte Carlo tree search over segment
//! orderings, plus the DFS and random-exploration variants used as
//! comparison points in Fig. 11.
//!
//! An *ordering* is a permutation of the placement's pipeline segments; the
//! segment at position `i` receives priority `n − i`, which the dual-queue
//! interleaver (§5.2) uses whenever several stages compete for a rank.
//! Segments of the same module within a microbatch have identical pipeline
//! structure, so (following the paper's search-space reduction) they share a
//! priority and their relative order is fixed; microbatch order is handled by
//! the interleaver's tie-breaking.
//!
//! MCTS selects children by UCB with the paper's fixed weights (`α = 1`,
//! `β = 0.5`) and runs four random rollouts per expansion; these are
//! constants, not settings.
//!
//! # Parallel search and virtual-time budgets
//!
//! The MCTS and random strategies run **root-parallel** over
//! [`OrderingSearchConfig::streams`] independent search streams (§6.2):
//! every stream owns its own search tree, RNG stream and evaluation quota,
//! so streams never contend on shared state while exploring. The streams
//! are executed by [`OrderingSearchConfig::workers`] physical CPU threads
//! pulling from a shared queue; when all streams finish, their incumbents
//! are merged by best simulated iteration time with a stable tie-break
//! (the lowest stream index wins ties).
//!
//! A search packs its graph once into a [`PassGraph`] that every pass
//! reads, and each worker thread holds one evaluation context (a
//! [`ScheduleWorkspace`] and its scratch) for every stream it runs; the
//! search's own thread holds one more for the incumbents, DFS and the
//! winner. All of them are dropped with the search.
//!
//! Search budgets are **virtual time**, never wall clock: the
//! [`OrderingSearchConfig::time_budget`] is converted into a deterministic
//! per-stream evaluation quota through the calibrated per-evaluation cost
//! model ([`OrderingSearchConfig::eval_cost`], a [`dip_sim::CostModel`]) —
//! no worker ever consults a clock to decide whether to keep searching.
//! Because the stream count, the RNG streams and every quota are all
//! independent of the physical thread count and of the machine's speed, a
//! fixed [`OrderingSearchConfig::seed`] yields a **bit-identical plan at
//! any worker count, on any machine**: threads only change how fast the
//! fixed work gets done. (On a machine slower than the calibrated
//! reference the search simply takes longer than the nominal budget; on a
//! faster one it finishes early. Re-calibrate the cost model via
//! [`dip_sim::CostModel::fit`] to tighten the correspondence — the plan
//! only changes if the *quota* changes, never with the machine.)
//!
//! A quota counts **evaluations**, not interleave passes. Each
//! [`search_ordering`] call owns a pass memo, shared by all of its streams,
//! with two tables. The exact map sends a segment ordering to the makespan
//! of its completed evaluation. The record list keeps, for every completed
//! pass, its decision record (see [`dip_pipeline::dual_queue`]): its
//! requirement table, its pop log and requirement events (cut at the
//! largest finite requirement step, past which nothing is ever replayed)
//! and its makespan. An evaluation first looks the ordering up in the
//! exact map, then scans every record for the ordering's largest resume
//! point `j`. At `j = ∞` the ordering reproduces that pass bit for bit, and
//! the lookup returns exactly what the pass would have returned. Otherwise
//! the pass runs resumed at `j`: it replays the recorded pass's first `j`
//! pops and decides only the rest (`j = 0` is a fresh pass). A resumed pass
//! is still one pass, bit-identical to a fresh one.
//!
//! The scan reads the requirement tables in the layout its inner loop
//! streams: column-major, one column per ordered segment pair holding that
//! pair's step for every record (two bytes a step when the graph's steps
//! fit, four otherwise). It folds the columns of the ordering's unranked
//! pairs into a per-record minimum, branch-free and without a per-record
//! early stop, then takes the first record holding the largest minimum —
//! the origin the record-by-record scan it replaced picks, ties included
//! (a proptest keeps that scan as its reference).
//!
//! Every evaluation, a memo hit or not, counts in full against the
//! stream's quota (and as pruned when it loses to the stream's cutoff). So
//! the memo changes neither which orderings are explored nor which plan
//! wins, only how much kernel work runs:
//! [`SearchWork::interleave_passes`] counts the passes,
//! [`SearchWork::live_steps`] and [`SearchWork::replayed_steps`] the steps
//! they decided and replayed, and [`SearchWork::distinct_orderings`] the
//! orderings whose evaluation completed. The memo's scope is one search,
//! because the graph and the [`DualQueueConfig`] are fixed only within one
//! call.
//! [`OrderingSearchConfig::eval_cost`] prices *full* passes, and the
//! calibration that fits it (`dip_bench::calibrate_eval_cost`) times them:
//! it never goes through the memo and never resumes.
//!
//! No stream reads a clock. What a search did is counted
//! deterministically: [`OrderingResult::evaluations`] is `1 + warm +
//! streams × quota` for MCTS and random search, `1 + warm + min(quota,
//! n!)` for DFS, and `1 + warm` on a single-segment graph (`warm` is 1
//! when a valid seed ordering was evaluated), and
//! [`OrderingResult::progress`] places every improvement by its
//! evaluation index.
//!
//! The streams keep priorities, never orders, so the winner's orders come
//! from one more pass over its priorities once the streams finish. The
//! winner's evaluation completed, so some record reproduces it whole: that
//! pass resumes from the record, replaying every pop the memo stores for it
//! (up to the record's horizon) and deciding only the rest. Its steps are
//! booked apart, in [`SearchWork::winner_live_steps`] and
//! [`SearchWork::winner_replayed_steps`].

use dip_pipeline::par::parallel_map_indexed;
use dip_pipeline::{
    dual_queue, DualQueueConfig, PassGraph, PassPrefix, PassRecord, RankOrders, RequirementEvent,
    ScheduleWorkspace, StageGraph, NO_REQUIREMENT,
};
use dip_sim::CostModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Duration;

/// Which exploration strategy drives the ordering search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Monte Carlo tree search with UCB selection (DIP's default).
    Mcts,
    /// Depth-first enumeration of permutations in lexicographic order.
    Dfs,
    /// Uniformly random permutations.
    Random,
}

/// Configuration of the ordering search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderingSearchConfig {
    /// Exploration strategy.
    pub strategy: SearchStrategy,
    /// **Virtual-time** budget for the search: converted into a
    /// deterministic per-stream evaluation quota via [`Self::eval_cost`]
    /// (see [`OrderingSearchConfig::evaluation_quota`]). No search worker
    /// ever consults a wall clock, so the same budget buys the same quota —
    /// and therefore the same plan — on any machine.
    pub time_budget: Duration,
    /// Optional explicit cap on the number of ordering evaluations **per
    /// stream**, min-combined with the virtual-time quota. Handy for
    /// benchmarks that want to fix the total search work exactly.
    pub max_evaluations: Option<u64>,
    /// Inert: the planner never reads it. A fuzzy cache hit adopts its
    /// neighbour's ordering verbatim and runs no search at any budget.
    /// Defaults to zero and is kept only because the planner benchmark
    /// reads it.
    pub delta_budget: Duration,
    /// Calibrated cost model of one ordering evaluation, priced as one
    /// *real* dual-queue interleave pass per stage-graph item: the virtual
    /// clock rate that converts [`Self::time_budget`] into an evaluation
    /// quota. Memo hits and resumed passes are not cheaper in virtual
    /// time — they count in full against the quota — so the budget buys
    /// the same evaluations whether or not they repeat. Calibrate it with
    /// `dip_bench::calibrate_eval_cost` (the `dip-calibrate` bin); the
    /// default is the paper's reference-CPU model.
    pub eval_cost: CostModel,
    /// Number of independent root-parallel search streams. The stream
    /// count — not the thread count — determines which orderings get
    /// explored: stream `s` always derives its RNG from `seed` and `s` and
    /// always receives the same quota, so the plan is a pure function of
    /// (graph, seed, streams, quota).
    pub streams: usize,
    /// Physical CPU threads executing the streams (§6.2). Purely a
    /// throughput knob: any value produces bit-identical plans, more
    /// threads just finish the fixed per-stream quotas sooner (capped at
    /// `streams` useful threads).
    pub workers: usize,
    /// Base dual-queue configuration (memory limits etc.); the searched
    /// segment priorities override its `segment_priorities`.
    pub dual_queue: DualQueueConfig,
    /// Whether the random and DFS workers bound each evaluation by their
    /// stream's incumbent via [`dip_pipeline::schedule_resumed`], aborting
    /// an interleave pass the moment any stage end time exceeds the best
    /// time the stream has seen. The bound is exact (the makespan is a
    /// monotone max of stage end times), the incumbent is **per stream**,
    /// and a pruned evaluation still counts fully against the stream's
    /// quota — so pruning changes wall-clock time only, never which
    /// orderings are explored or which plan wins, and fixed-seed
    /// cross-worker bit-identity is preserved. MCTS ignores this knob: its
    /// backpropagation needs the true rollout value even when it is worse
    /// than the incumbent (an aborted pass yields no value to credit the
    /// tree path with, which would change how the tree grows). A memo hit
    /// over the cutoff counts as pruned, exactly like the aborted pass it
    /// stands in for. Disable only to measure the pruning win itself.
    pub prune_bounded_evaluations: bool,
    /// RNG seed. Stream `s` derives its RNG from `seed` and `s`; stream 0
    /// uses exactly the single-stream RNG.
    pub seed: u64,
    /// Warm start: a segment ordering to evaluate before exploring, normally
    /// the elastic anchor's ordering (see [`ordering_from_priorities`]).
    /// Cold plans never set it. MCTS additionally seeds every stream's
    /// tree with this path, so exploration starts around the incumbent
    /// instead of cold-starting. Ignored unless it is a permutation of the
    /// segment indices.
    pub seed_ordering: Option<Vec<usize>>,
}

impl Default for OrderingSearchConfig {
    fn default() -> Self {
        Self {
            strategy: SearchStrategy::Mcts,
            time_budget: Duration::from_millis(500),
            max_evaluations: None,
            delta_budget: Duration::ZERO,
            eval_cost: CostModel::REFERENCE_EVALUATION,
            streams: 4,
            workers: 4,
            dual_queue: DualQueueConfig::default(),
            prune_bounded_evaluations: true,
            seed: 0,
            seed_ordering: None,
        }
    }
}

impl OrderingSearchConfig {
    /// The deterministic per-stream evaluation quota of this configuration
    /// for a stage graph of `graph_items` items: the virtual-time budget
    /// divided by the calibrated per-evaluation cost, min-combined with
    /// [`Self::max_evaluations`]. This number — never a wall clock — is
    /// what stops every search stream, which is why fixed-seed searches
    /// are reproducible on any machine at any worker count.
    pub fn evaluation_quota(&self, graph_items: usize) -> u64 {
        let virtual_quota = self.eval_cost.quota(self.time_budget, graph_items as u64);
        self.max_evaluations
            .map_or(virtual_quota, |cap| cap.min(virtual_quota))
    }
}

/// Converts segment priorities (higher = earlier) back into the ordering
/// that produced them — the inverse of the search's priority assignment.
/// Elastic replans seed their search from the anchor's
/// [`OrderingResult::segment_priorities`] this way.
pub fn ordering_from_priorities(priorities: &[i64]) -> Vec<usize> {
    let mut ordering: Vec<usize> = (0..priorities.len()).collect();
    ordering.sort_by_key(|&seg| std::cmp::Reverse(priorities[seg]));
    ordering
}

/// True when `ordering` is a permutation of `0..num_segments`.
fn is_permutation(ordering: &[usize], num_segments: usize) -> bool {
    if ordering.len() != num_segments {
        return false;
    }
    let mut seen = vec![false; num_segments];
    for &seg in ordering {
        if seg >= num_segments || seen[seg] {
            return false;
        }
        seen[seg] = true;
    }
    true
}

/// A point on the best-score-versus-evaluations curve (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchProgressPoint {
    /// The stream-local evaluation count at which the improvement was
    /// found, counting the improving evaluation itself; 0 for the
    /// incumbents evaluated before the streams start (identity and warm
    /// seed). Streams advance in lockstep in virtual time, so this is the
    /// deterministic convergence index: the same seed yields the same
    /// points at any worker count.
    pub evaluation: u64,
    /// Best simulated iteration time found so far, in seconds.
    pub best_time_s: f64,
}

/// The kernel work behind an ordering search's evaluations: what its
/// quota bought, as opposed to what the quota counted
/// ([`OrderingResult::evaluations`]). Sums over searches with `+=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchWork {
    /// How many evaluations were cut short by the incumbent bound (see
    /// [`OrderingSearchConfig::prune_bounded_evaluations`]). Pruned
    /// evaluations still count against every quota, so this is a pure
    /// wall-clock win: `pruned_evaluations / evaluations` is the fraction
    /// of interleave passes the search did not have to finish. A memo hit
    /// over the stream's cutoff counts here too. Always 0 for MCTS, whose
    /// rollouts are never bounded.
    pub pruned_evaluations: u64,
    /// Distinct segment orderings whose evaluation completed during the
    /// search, by a pass or a record hit: the final size of the pass
    /// memo's exact map (identity and warm seed included). Every other
    /// completed evaluation repeated one of them. Deterministic for a fixed
    /// seed at any worker count, and never above `evaluations -
    /// pruned_evaluations`.
    pub distinct_orderings: u64,
    /// Interleave passes the search actually ran, completed or aborted by
    /// the cutoff, resumed or fresh (identity and warm seed included; the
    /// winner's final re-interleave, booked in
    /// [`Self::winner_live_steps`], is not).
    /// At most `distinct_orderings + pruned_evaluations`; the gap to
    /// `distinct_orderings` is what records answered whole. Repeats
    /// exactly at one worker; at more workers it can vary with thread
    /// timing, as can which stream first runs a shared ordering — the plan
    /// never varies. 1 on the no-search path.
    pub interleave_passes: u64,
    /// Stages those passes decided live, popping them from the queues:
    /// the kernel work the search paid for. Same determinism as
    /// `interleave_passes`; `graph.len()` on the no-search path.
    pub live_steps: u64,
    /// Stages those passes replayed from an earlier pass's pop log instead
    /// of deciding them (see [`dip_pipeline::dual_queue`]). A completed
    /// pass decides or replays every stage once. Same determinism as
    /// `interleave_passes`; 0 on the no-search path.
    pub replayed_steps: u64,
    /// Stages the winner's re-interleave decided live: the pass that
    /// writes [`OrderingResult::orders`] after the streams finish,
    /// resumed from the memo record the winner reproduces (see the module
    /// docs). It is in none of the counts above. Same determinism as
    /// `interleave_passes`; 0 on the no-search path, whose one pass is its
    /// evaluation.
    pub winner_live_steps: u64,
    /// Stages the winner's re-interleave replayed from that record;
    /// `winner_live_steps + winner_replayed_steps` is the graph's item
    /// count on every search.
    pub winner_replayed_steps: u64,
}

impl AddAssign for SearchWork {
    fn add_assign(&mut self, other: Self) {
        self.pruned_evaluations += other.pruned_evaluations;
        self.distinct_orderings += other.distinct_orderings;
        self.interleave_passes += other.interleave_passes;
        self.live_steps += other.live_steps;
        self.replayed_steps += other.replayed_steps;
        self.winner_live_steps += other.winner_live_steps;
        self.winner_replayed_steps += other.winner_replayed_steps;
    }
}

/// The outcome of an ordering search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderingResult {
    /// Priority per placement segment (higher = scheduled earlier).
    pub segment_priorities: Vec<i64>,
    /// Best simulated iteration time found, in seconds.
    pub best_time_s: f64,
    /// Number of orderings evaluated (all streams plus the incumbents).
    /// A quota counts evaluations, and memo hits — exact or record — count
    /// in full, so this is the quota-accounted work, not the number of
    /// interleave passes run (see [`Self::work`]). Fixed by the strategy,
    /// the stream count and the quota (see the module docs), never by
    /// the worker count.
    pub evaluations: u64,
    /// The kernel work the evaluations took: pruned evaluations, distinct
    /// orderings, interleave passes and their live and replayed steps.
    pub work: SearchWork,
    /// The deterministic per-stream evaluation quota the search ran under
    /// (0 when the search was skipped).
    pub evaluation_quota: u64,
    /// Progress curve (monotonically decreasing best time, merged across
    /// streams in [`SearchProgressPoint::evaluation`] order, so it is the
    /// same at any worker count).
    pub progress: Vec<SearchProgressPoint>,
    /// The per-rank orders realising the best time (one re-interleave of
    /// [`Self::segment_priorities`] after the streams finish, resumed from
    /// the pass memo).
    pub orders: RankOrders,
}

/// Per-thread evaluation scratch: a reusable [`ScheduleWorkspace`] plus one
/// pre-cloned [`DualQueueConfig`] whose `segment_priorities` vector is
/// rewritten in place for every ordering. Each worker thread of a search
/// holds one for every stream it runs, and the search's own thread one
/// more, so an evaluation in the hot loop performs **zero heap
/// allocations** once the workspace has warmed up on the graph's shape —
/// the base config is cloned once per thread, not once per evaluation or
/// stream. Every evaluation rewrites all of it first, so what one stream
/// leaves behind never reaches the next.
struct EvalContext {
    config: DualQueueConfig,
    ws: ScheduleWorkspace,
    /// Requirement-table indices `s * n + t` of the segment pairs the
    /// current priorities do not rank strictly `s` over `t`.
    unranked: Vec<u32>,
    /// The prefix the next pass replays, copied out of the pass memo.
    prefix_pops: Vec<u32>,
    /// The requirement events below that prefix.
    prefix_events: Vec<RequirementEvent>,
}

impl EvalContext {
    fn new(base: &DualQueueConfig) -> Self {
        Self {
            config: base.clone(),
            ws: ScheduleWorkspace::new(),
            unranked: Vec::new(),
            prefix_pops: Vec::new(),
            prefix_events: Vec::new(),
        }
    }

    /// Writes `ordering`'s priority assignment (position `i` ⇒ priority
    /// `n − i`) into the reused config vector.
    fn set_ordering(&mut self, ordering: &[usize]) {
        let n = ordering.len();
        let priorities = &mut self.config.segment_priorities;
        priorities.clear();
        priorities.resize(n, 0);
        for (pos, &seg) in ordering.iter().enumerate() {
            priorities[seg] = (n - pos) as i64;
        }
    }

    /// The priorities written by the last [`Self::set_ordering`].
    fn priorities(&self) -> &[i64] {
        &self.config.segment_priorities
    }
}

/// One search's pass memo, shared by every stream of one
/// [`search_ordering`] call and dropped with it (the graph and dual-queue
/// config are fixed only within a call). It holds makespans and decision
/// records, never orders.
struct PassMemo {
    tables: Mutex<MemoTables>,
    /// Interleave passes run through [`evaluate`], aborted ones included.
    passes: AtomicU64,
    /// Steps those passes decided live.
    live_steps: AtomicU64,
    /// Steps those passes replayed from an earlier pass.
    replayed_steps: AtomicU64,
}

struct MemoTables {
    /// Segment ordering → makespan, for every ordering whose evaluation
    /// completed (by a pass or a record hit).
    exact: HashMap<Vec<usize>, f64>,
    /// The decision record of every completed pass.
    records: PassRecords,
}

/// The decision records of a search's completed passes (one record per
/// pass, in completion order), so storing a record costs no allocation of
/// its own once the arenas have grown. A pass resumed at step `j` made the
/// same first `j` pops, and lowered its requirement steps at them in the
/// same events, as the pass it resumed from, so its record stores only
/// what follows step `j` and points at that pass for the rest.
struct PassRecords {
    /// Per pass: its makespan, origin and where its own parts end.
    passes: Vec<StoredPass>,
    /// The requirement tables, column-major: one column per ordered
    /// segment pair, holding that pair's step for every record.
    requirements: Requirements,
    /// Each pass's own pops, from its resume step up to its horizon (no
    /// resume replays past the horizon), back to back.
    pops: Compact,
    /// Each pass's own requirement events, at pop steps from its resume
    /// step up to its horizon, back to back.
    events: Vec<RequirementEvent>,
}

/// The fixed-size part of a stored record.
struct StoredPass {
    makespan: f64,
    origin: Origin,
    /// Where the pass's own pops end in [`PassRecords::pops`].
    pops_end: u32,
    /// Where the pass's own events end in [`PassRecords::events`].
    events_end: u32,
}

/// The start of a stored record: it shares its first `resumed` pops and
/// the events below them with record `source`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Origin {
    source: u32,
    resumed: u32,
}

/// The best an earlier pass offers an ordering.
#[derive(Debug, PartialEq, Eq)]
enum Resume {
    /// The index of a pass the ordering reproduces whole (`j = ∞`).
    Hit(u32),
    /// The pass with the largest resume point `j`, and `j` (0 when no pass
    /// agrees on even one step).
    At(Origin),
}

impl PassRecords {
    fn new(graph: &StageGraph) -> Self {
        let pairs = graph.num_segments() * graph.num_segments();
        Self {
            passes: Vec::new(),
            requirements: Requirements::for_graph(graph.len(), pairs),
            pops: Compact::for_graph(graph.len()),
            events: Vec::new(),
        }
    }

    /// The largest resume point any record offers an ordering whose
    /// unranked pairs are `unranked`: the first record holding it, and a
    /// [`Resume::Hit`] when it is `j = ∞` (every record the ordering
    /// reproduces carries the same makespan bits).
    fn best_resume(&mut self, unranked: &[u32]) -> Resume {
        match self.requirements.best(unranked, self.passes.len()) {
            Some((pass, NO_REQUIREMENT)) => Resume::Hit(pass as u32),
            Some((pass, resumed)) => Resume::At(Origin {
                source: pass as u32,
                resumed,
            }),
            None => Resume::At(Origin {
                source: 0,
                resumed: 0,
            }),
        }
    }

    /// The makespan of `pass`.
    fn makespan(&self, pass: u32) -> f64 {
        self.passes[pass as usize].makespan
    }

    /// The longest prefix of `pass` the records hold: its resume step and
    /// its own pops after it, up to its horizon.
    fn stored_prefix(&self, pass: u32) -> Origin {
        let stored = &self.passes[pass as usize];
        let (pops_start, _) = self.starts(pass as usize);
        Origin {
            source: pass,
            resumed: stored.origin.resumed + (stored.pops_end - pops_start as u32),
        }
    }

    /// Where the own parts of `pass` start: after those of the pass
    /// before it.
    fn starts(&self, pass: usize) -> (usize, usize) {
        pass.checked_sub(1).map_or((0, 0), |prev| {
            let prev = &self.passes[prev];
            (prev.pops_end as usize, prev.events_end as usize)
        })
    }

    /// Copies the first `origin.resumed` pops of pass `origin.source`, and
    /// its events below them, into the reused buffers: each pass along the
    /// chain of passes it resumed from contributes its own part.
    fn copy_prefix(&self, origin: Origin, pops: &mut Vec<u32>, events: &mut Vec<RequirementEvent>) {
        pops.clear();
        pops.resize(origin.resumed as usize, 0);
        let mut total = 0;
        for (pass, resumed, end) in self.chain(origin) {
            let (pops_start, _) = self.starts(pass);
            self.pops.copy_to(
                pops_start..pops_start + end - resumed,
                &mut pops[resumed..end],
            );
            total += self.own_events_below(pass, end).len();
        }
        // The chain yields later steps first, and each part's events are in
        // recorded order, so writing the parts back to front restores the
        // recorded order exactly.
        events.clear();
        let blank = RequirementEvent {
            pair: 0,
            pop_step: 0,
            push_step: 0,
        };
        events.resize(total, blank);
        for (pass, _, end) in self.chain(origin) {
            let part = self.own_events_below(pass, end);
            total -= part.len();
            events[total..total + part.len()].copy_from_slice(part);
        }
    }

    /// The passes along the chain that holds the first `origin.resumed`
    /// pops of pass `origin.source`, latest first, each with the steps
    /// `resumed..end` its own part contributes.
    fn chain(&self, origin: Origin) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (mut pass, mut end) = (origin.source as usize, origin.resumed as usize);
        std::iter::from_fn(move || {
            while end > 0 {
                let stored = &self.passes[pass];
                let resumed = stored.origin.resumed as usize;
                let part = (pass, resumed, end);
                (pass, end) = (stored.origin.source as usize, end.min(resumed));
                if part.2 > resumed {
                    return Some(part);
                }
            }
            None
        })
    }

    /// The own events of `pass` at pop steps below `end` (they are stored
    /// in pop-step order).
    fn own_events_below(&self, pass: usize, end: usize) -> &[RequirementEvent] {
        let (_, events_start) = self.starts(pass);
        let own = &self.events[events_start..self.passes[pass].events_end as usize];
        &own[..own.partition_point(|e| (e.pop_step as usize) < end)]
    }

    /// Stores the record of a completed pass that resumed at `origin`.
    fn push(&mut self, record: PassRecord<'_>, makespan: f64, origin: Origin) {
        let horizon = record.horizon();
        let resumed = origin.resumed as usize;
        self.requirements.push(record.requirements());
        if horizon > resumed {
            self.pops.extend(&record.pops()[resumed..horizon]);
        }
        // Events come in pop-step order, so those at steps `resumed..horizon`
        // are one run.
        let events = record.events();
        let below = |step: usize| events.partition_point(|e| (e.pop_step as usize) < step);
        let (lo, hi) = (below(resumed), below(horizon));
        self.events.extend_from_slice(&events[lo..hi.max(lo)]);
        self.passes.push(StoredPass {
            makespan,
            origin,
            pops_end: self.pops.len() as u32,
            events_end: self.events.len() as u32,
        });
    }
}

/// Whether every stage id and requirement step of a graph fits in two
/// bytes (ids and steps stay below its item count), with the largest
/// two-byte value left free to stand for [`NO_REQUIREMENT`].
fn fits_narrow(len: usize) -> bool {
    len < usize::from(u16::MAX)
}

/// A value as two bytes, [`NO_REQUIREMENT`] as the largest one.
fn narrow(value: u32) -> u16 {
    value.min(u32::from(u16::MAX)) as u16
}

/// A narrow stored value as four bytes.
fn widen(value: u16) -> u32 {
    if value == u16::MAX {
        NO_REQUIREMENT
    } else {
        u32::from(value)
    }
}

/// The memo's requirement columns, two bytes per step when the graph's
/// steps fit (see [`fits_narrow`]), four otherwise.
enum Requirements {
    Narrow(Columns<u16>),
    Wide(Columns<u32>),
}

impl Requirements {
    fn for_graph(len: usize, pairs: usize) -> Self {
        if fits_narrow(len) {
            Self::Narrow(Columns::new(pairs))
        } else {
            Self::Wide(Columns::new(pairs))
        }
    }

    /// Appends one record's row-major requirement table.
    fn push(&mut self, table: &[u32]) {
        match self {
            Self::Narrow(columns) => columns.push(table.iter().map(|&v| narrow(v))),
            Self::Wide(columns) => columns.push(table.iter().copied()),
        }
    }

    /// The first of the `records` records holding the largest minimum over
    /// the `pairs` columns, and that minimum; `None` without records.
    fn best(&mut self, pairs: &[u32], records: usize) -> Option<(usize, u32)> {
        match self {
            Self::Narrow(columns) => columns
                .best(pairs, records, u16::MAX)
                .map(|(record, j)| (record, widen(j))),
            Self::Wide(columns) => columns.best(pairs, records, NO_REQUIREMENT),
        }
    }
}

/// Per-record values stored column by column, plus the reused row the
/// scan folds them into.
struct Columns<T> {
    columns: Vec<Vec<T>>,
    mins: Vec<T>,
}

impl<T: Copy + Ord> Columns<T> {
    fn new(pairs: usize) -> Self {
        Self {
            columns: (0..pairs).map(|_| Vec::new()).collect(),
            mins: Vec::new(),
        }
    }

    fn push(&mut self, row: impl Iterator<Item = T>) {
        for (column, value) in self.columns.iter_mut().zip(row) {
            column.push(value);
        }
    }

    /// Takes the elementwise minimum of the `pairs` columns over all
    /// `records` records, without stopping early, then returns the first
    /// record holding the maximum of those minima. A record's minimum is
    /// `none` when `pairs` is empty.
    fn best(&mut self, pairs: &[u32], records: usize, none: T) -> Option<(usize, T)> {
        let mins = &mut self.mins;
        mins.clear();
        mins.resize(records, none);
        for &pair in pairs {
            for (min, &value) in mins.iter_mut().zip(&self.columns[pair as usize][..records]) {
                *min = (*min).min(value);
            }
        }
        let best = *mins.iter().max()?;
        let record = mins.iter().position(|&min| min == best)?;
        Some((record, best))
    }
}

/// Stage ids, two bytes each when the graph's ids fit (see
/// [`fits_narrow`]), four otherwise.
enum Compact {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Compact {
    fn for_graph(len: usize) -> Self {
        if fits_narrow(len) {
            Self::Narrow(Vec::new())
        } else {
            Self::Wide(Vec::new())
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Narrow(values) => values.len(),
            Self::Wide(values) => values.len(),
        }
    }

    fn extend(&mut self, values: &[u32]) {
        match self {
            Self::Narrow(narrow_values) => narrow_values.extend(values.iter().map(|&v| narrow(v))),
            Self::Wide(wide) => wide.extend_from_slice(values),
        }
    }

    fn copy_to(&self, range: std::ops::Range<usize>, out: &mut [u32]) {
        match self {
            Self::Narrow(values) => {
                for (out, &v) in out.iter_mut().zip(&values[range]) {
                    *out = widen(v);
                }
            }
            Self::Wide(values) => out.copy_from_slice(&values[range]),
        }
    }
}

impl PassMemo {
    fn new(graph: &StageGraph) -> Self {
        Self {
            tables: Mutex::new(MemoTables {
                exact: HashMap::new(),
                records: PassRecords::new(graph),
            }),
            passes: AtomicU64::new(0),
            live_steps: AtomicU64::new(0),
            replayed_steps: AtomicU64::new(0),
        }
    }

    fn tables(&self) -> std::sync::MutexGuard<'_, MemoTables> {
        self.tables
            .lock()
            .expect("a search stream panicked holding the pass memo")
    }

    /// The work the finished search counted; `pruned_evaluations` is the
    /// streams' to fill.
    fn into_work(self) -> SearchWork {
        let tables = self
            .tables
            .into_inner()
            .expect("a search stream panicked holding the pass memo");
        SearchWork {
            distinct_orderings: tables.exact.len() as u64,
            interleave_passes: self.passes.into_inner(),
            live_steps: self.live_steps.into_inner(),
            replayed_steps: self.replayed_steps.into_inner(),
            ..SearchWork::default()
        }
    }
}

/// Evaluates one ordering under `cutoff` — the single path every search
/// evaluation takes. Writes the ordering's priorities into `ctx`, then
/// answers from `memo` when it can: first from the exact map, then from
/// any completed pass the ordering reproduces whole (resume point `j = ∞`;
/// every such pass carries the same makespan bits, so the scan order does
/// not matter). An answer `m` returns `Some(m)` when `m <= cutoff` and
/// `None` otherwise, which is exactly what a fresh
/// [`dip_pipeline::schedule_resumed`] pass returns for that ordering (the
/// bound is exact, see there); a record answer within the cutoff joins the
/// exact map as a completed evaluation. Otherwise the bounded pass runs, resumed
/// at the largest resume point any record offers, and only a completed
/// pass is memoised, in both tables. `ctx.ws` holds a pop log only after
/// a pass, so callers keep priorities, never orders.
fn evaluate(
    graph: &PassGraph<'_>,
    ordering: &[usize],
    ctx: &mut EvalContext,
    memo: &PassMemo,
    cutoff: f64,
) -> Option<f64> {
    ctx.set_ordering(ordering);
    let origin = {
        let mut tables = memo.tables();
        if let Some(&makespan) = tables.exact.get(ordering) {
            return (makespan <= cutoff).then_some(makespan);
        }
        dual_queue::unranked_pairs(
            &ctx.config.segment_priorities,
            graph.graph().num_segments(),
            &mut ctx.unranked,
        );
        match tables.records.best_resume(&ctx.unranked) {
            Resume::Hit(pass) => {
                let makespan = tables.records.makespan(pass);
                if makespan <= cutoff {
                    tables.exact.insert(ordering.to_vec(), makespan);
                }
                return (makespan <= cutoff).then_some(makespan);
            }
            Resume::At(origin) => {
                tables
                    .records
                    .copy_prefix(origin, &mut ctx.prefix_pops, &mut ctx.prefix_events);
                origin
            }
        }
    };
    let prefix = PassPrefix::new(&ctx.prefix_pops, &ctx.prefix_events);
    let result = dual_queue::schedule_resumed(graph, &ctx.config, &mut ctx.ws, cutoff, prefix);
    memo.passes.fetch_add(1, AtomicOrdering::Relaxed);
    memo.live_steps
        .fetch_add(ctx.ws.live_steps() as u64, AtomicOrdering::Relaxed);
    memo.replayed_steps
        .fetch_add(ctx.ws.replayed_steps() as u64, AtomicOrdering::Relaxed);
    if let Some(makespan) = result {
        let mut tables = memo.tables();
        tables.exact.insert(ordering.to_vec(), makespan);
        tables.records.push(ctx.ws.record(), makespan, origin);
    }
    result
}

/// One stream's private best-so-far state plus its bookkeeping. Streams
/// never share this — merging happens once, deterministically, at the end.
#[derive(Clone)]
struct WorkerOutcome {
    time_s: f64,
    priorities: Vec<i64>,
    progress: Vec<SearchProgressPoint>,
    evaluations: u64,
    /// How many of `evaluations` the cutoff bound aborted early. Pruned
    /// evaluations still count fully against the quota.
    pruned: u64,
}

impl WorkerOutcome {
    fn starting_from(incumbent: &WorkerOutcome) -> Self {
        Self {
            time_s: incumbent.time_s,
            priorities: incumbent.priorities.clone(),
            progress: Vec::new(),
            evaluations: 0,
            pruned: 0,
        }
    }

    /// Records `(time_s, priorities)` found at stream-local `evaluation`
    /// when it strictly improves on this stream's best.
    fn record_if_better(&mut self, evaluation: u64, time_s: f64, priorities: &[i64]) {
        if time_s < self.time_s {
            self.time_s = time_s;
            self.priorities.clear();
            self.priorities.extend_from_slice(priorities);
            self.progress.push(SearchProgressPoint {
                evaluation,
                best_time_s: time_s,
            });
        }
    }

    /// True when this stream's deterministic evaluation quota is exhausted.
    /// Deliberately consults **no clock**: the quota is the only stopping
    /// rule, which is what makes fixed-seed searches bit-reproducible.
    fn budget_exhausted(&self, quota: u64) -> bool {
        self.evaluations >= quota
    }
}

/// Runs the segment-ordering search over `num_segments` segments of `graph`.
pub fn search_ordering(
    graph: &StageGraph,
    num_segments: usize,
    config: &OrderingSearchConfig,
) -> OrderingResult {
    let quota = config.evaluation_quota(graph.len());
    let view = PassGraph::new(graph);
    let memo = PassMemo::new(graph);
    let mut ctx = EvalContext::new(&config.dual_queue);
    let identity: Vec<usize> = (0..num_segments).collect();
    let t0 = evaluate(&view, &identity, &mut ctx, &memo, f64::INFINITY)
        .expect("an infinite cutoff never aborts");
    let mut incumbent = WorkerOutcome {
        time_s: t0,
        priorities: ctx.priorities().to_vec(),
        progress: vec![SearchProgressPoint {
            evaluation: 0,
            best_time_s: t0,
        }],
        evaluations: 1,
        pruned: 0,
    };

    // Warm start: evaluate the seeded ordering (typically the elastic
    // anchor's) so the incumbent is at least as good as the anchor.
    let warm = config
        .seed_ordering
        .as_deref()
        .filter(|seed| is_permutation(seed, num_segments));
    let mut warm_time = None;
    if let Some(seed) = warm {
        let t = evaluate(&view, seed, &mut ctx, &memo, f64::INFINITY)
            .expect("an infinite cutoff never aborts");
        incumbent.evaluations += 1;
        incumbent.record_if_better(0, t, ctx.priorities());
        warm_time = Some(t);
    }

    let outcomes = if num_segments <= 1 {
        Vec::new()
    } else {
        let search = Search {
            graph: &view,
            num_segments,
            config,
            quota,
            memo: &memo,
        };
        match config.strategy {
            // DFS is a deterministic lexicographic enumeration; it runs as
            // a single stream regardless of the configured count.
            SearchStrategy::Dfs => {
                let mut local = WorkerOutcome::starting_from(&incumbent);
                dfs_search(&search, &mut ctx, &mut local);
                vec![local]
            }
            // The streams run on `config.workers` threads through the
            // shared work-stealing fork-join helper, each thread with one
            // `EvalContext` for every stream it runs. A stream's work is a
            // pure function of its index, and the outcomes come back in
            // stream-index order, whichever thread ran which stream.
            strategy => parallel_map_indexed(
                config.streams.max(1),
                config.workers,
                || EvalContext::new(&config.dual_queue),
                |ctx, stream| {
                    let mut local = WorkerOutcome::starting_from(&incumbent);
                    if strategy == SearchStrategy::Mcts {
                        mcts_worker(&search, ctx, warm.zip(warm_time), &mut local, stream);
                    } else {
                        random_worker(&search, ctx, &mut local, stream);
                    }
                    local
                },
            ),
        }
    };

    merge_outcomes(&view, &mut ctx, incumbent, outcomes, quota, memo)
}

/// What every stream of one search shares: the packed graph, the search's
/// configuration and quota, and its pass memo.
struct Search<'a> {
    graph: &'a PassGraph<'a>,
    num_segments: usize,
    config: &'a OrderingSearchConfig,
    quota: u64,
    memo: &'a PassMemo,
}

impl Search<'_> {
    /// Evaluates `ordering` for a stream under `cutoff` (see [`evaluate`]).
    fn evaluate(&self, ordering: &[usize], ctx: &mut EvalContext, cutoff: f64) -> Option<f64> {
        evaluate(self.graph, ordering, ctx, self.memo, cutoff)
    }

    /// The cutoff a random or DFS evaluation runs under: the stream's
    /// incumbent when bounded evaluations are on.
    fn cutoff(&self, local: &WorkerOutcome) -> f64 {
        if self.config.prune_bounded_evaluations {
            local.time_s
        } else {
            f64::INFINITY
        }
    }
}

/// Merges the incumbent and every stream outcome into the final result.
///
/// Streams are visited in index order and only a *strictly* better time
/// replaces the current best, so ties resolve to the lowest stream index —
/// the stable tie-break that keeps fixed-seed searches deterministic.
/// Streams keep only `(time, priorities)`, so the winner's orders come
/// from one more pass over its priorities through `ctx`, resumed from the
/// memo record the winner reproduces whole.
fn merge_outcomes(
    graph: &PassGraph<'_>,
    ctx: &mut EvalContext,
    incumbent: WorkerOutcome,
    outcomes: Vec<WorkerOutcome>,
    quota: u64,
    memo: PassMemo,
) -> OrderingResult {
    let mut evaluations = incumbent.evaluations;
    let mut progress = incumbent.progress;
    let mut best_time = incumbent.time_s;
    let mut best_priorities = incumbent.priorities;
    let mut pruned = 0;
    for outcome in &outcomes {
        evaluations += outcome.evaluations;
        pruned += outcome.pruned;
        progress.extend(outcome.progress.iter().copied());
        if outcome.time_s < best_time {
            best_time = outcome.time_s;
            best_priorities = outcome.priorities.clone();
        }
    }
    // Merge the per-stream curves into one monotone best-so-far curve in
    // virtual-time order (stream-local evaluation index), never wall-clock
    // order, so the curve does not depend on how streams were scheduled.
    progress.sort_by(|a, b| {
        a.evaluation
            .cmp(&b.evaluation)
            .then(a.best_time_s.total_cmp(&b.best_time_s))
    });
    let mut merged = Vec::with_capacity(progress.len());
    let mut current = f64::INFINITY;
    for point in progress {
        if point.best_time_s < current {
            current = point.best_time_s;
            merged.push(point);
        }
    }
    // The winner's evaluation completed, so a record reproduces it whole;
    // replay everything the memo stores of that record.
    ctx.config.segment_priorities = best_priorities;
    dual_queue::unranked_pairs(
        &ctx.config.segment_priorities,
        graph.graph().num_segments(),
        &mut ctx.unranked,
    );
    {
        let mut tables = memo.tables();
        let origin = match tables.records.best_resume(&ctx.unranked) {
            Resume::Hit(pass) => tables.records.stored_prefix(pass),
            // Never for a completed winner; a resumed pass is exact anyway.
            Resume::At(origin) => origin,
        };
        tables
            .records
            .copy_prefix(origin, &mut ctx.prefix_pops, &mut ctx.prefix_events);
    }
    let prefix = PassPrefix::new(&ctx.prefix_pops, &ctx.prefix_events);
    let makespan =
        dual_queue::schedule_resumed(graph, &ctx.config, &mut ctx.ws, f64::INFINITY, prefix);
    debug_assert_eq!(
        makespan.map(f64::to_bits),
        Some(best_time.to_bits()),
        "the winner re-interleaves to its searched makespan"
    );
    // Every completed evaluation's ordering is in the exact map once, and
    // which evaluations complete does not depend on which stream ran first,
    // so its final size is deterministic. The pass and step counts are
    // not: which records exist when a stream scans depends on thread
    // timing.
    let work = SearchWork {
        pruned_evaluations: pruned,
        winner_live_steps: ctx.ws.live_steps() as u64,
        winner_replayed_steps: ctx.ws.replayed_steps() as u64,
        ..memo.into_work()
    };
    OrderingResult {
        orders: ctx.ws.orders(graph.graph()),
        segment_priorities: std::mem::take(&mut ctx.config.segment_priorities),
        best_time_s: best_time,
        evaluations,
        work,
        evaluation_quota: if outcomes.is_empty() { 0 } else { quota },
        progress: merged,
    }
}

/// The RNG of stream `s`; stream 0 replays the single-stream RNG.
fn worker_rng(seed: u64, stream: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0xA5A5_A5A5))
}

// ---------------------------------------------------------------------------
// Random exploration
// ---------------------------------------------------------------------------

fn random_worker(
    search: &Search<'_>,
    ctx: &mut EvalContext,
    local: &mut WorkerOutcome,
    stream: usize,
) {
    let mut rng = worker_rng(search.config.seed, stream);
    let mut ordering: Vec<usize> = (0..search.num_segments).collect();
    while !local.budget_exhausted(search.quota) {
        ordering.shuffle(&mut rng);
        // Only strictly-better-than-incumbent results matter here, so the
        // evaluation is bounded by this stream's own best time: exact
        // pruning with per-stream incumbents keeps fixed-seed cross-worker
        // bit-identity (streams never observe each other's progress).
        let cutoff = search.cutoff(local);
        // A pruned evaluation (provably worse than the incumbent) counts
        // against the quota exactly like a finished one.
        local.evaluations += 1;
        match search.evaluate(&ordering, ctx, cutoff) {
            Some(t) => local.record_if_better(local.evaluations, t, ctx.priorities()),
            None => local.pruned += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// DFS enumeration
// ---------------------------------------------------------------------------

fn dfs_search(search: &Search<'_>, ctx: &mut EvalContext, local: &mut WorkerOutcome) {
    // Lexicographic enumeration of permutations via recursion with an
    // explicit prefix stack, stopping at the quota.
    fn recurse(
        search: &Search<'_>,
        ctx: &mut EvalContext,
        local: &mut WorkerOutcome,
        prefix: &mut Vec<usize>,
        remaining: &mut Vec<usize>,
    ) {
        if local.budget_exhausted(search.quota) {
            return;
        }
        if remaining.is_empty() {
            // DFS only reports its single best ordering, so (like the
            // random worker) each leaf evaluation is bounded by the
            // incumbent — exact pruning, identical best plan.
            let cutoff = search.cutoff(local);
            local.evaluations += 1;
            match search.evaluate(prefix, ctx, cutoff) {
                Some(t) => local.record_if_better(local.evaluations, t, ctx.priorities()),
                None => local.pruned += 1,
            }
            return;
        }
        for i in 0..remaining.len() {
            let seg = remaining.remove(i);
            prefix.push(seg);
            recurse(search, ctx, local, prefix, remaining);
            prefix.pop();
            remaining.insert(i, seg);
        }
    }
    let mut prefix = Vec::new();
    let mut remaining: Vec<usize> = (0..search.num_segments).collect();
    recurse(search, ctx, local, &mut prefix, &mut remaining);
}

// ---------------------------------------------------------------------------
// MCTS
// ---------------------------------------------------------------------------

/// The child slot of a missing child.
const NO_CHILD: u32 = u32::MAX;

/// One stream's search tree, stored densely: node `v`'s child for segment
/// `s` sits in slot `v * segments + s` of `children` ([`NO_CHILD`] when
/// missing), and each node's visits and best time sit at its index in two
/// flat vectors.
struct MctsTree {
    segments: usize,
    children: Vec<u32>,
    visits: Vec<u64>,
    /// Best (lowest) iteration time observed among each node's descendants.
    best_time: Vec<f64>,
}

impl MctsTree {
    fn new(segments: usize) -> Self {
        let mut tree = Self {
            segments,
            children: Vec::new(),
            visits: Vec::new(),
            best_time: Vec::new(),
        };
        tree.add_node();
        tree
    }

    fn add_node(&mut self) -> usize {
        let node = self.visits.len();
        self.children
            .resize(self.children.len() + self.segments, NO_CHILD);
        self.visits.push(0);
        self.best_time.push(f64::INFINITY);
        node
    }

    /// The child of `node` for `segment`, if it exists.
    fn child(&self, node: usize, segment: usize) -> Option<usize> {
        let child = self.children[node * self.segments + segment];
        (child != NO_CHILD).then_some(child as usize)
    }

    fn add_child(&mut self, node: usize, segment: usize) -> usize {
        let child = self.add_node();
        self.children[node * self.segments + segment] = child as u32;
        child
    }

    /// Credits `node` with one visit at `time_s`.
    fn credit(&mut self, node: usize, time_s: f64) {
        self.visits[node] += 1;
        if time_s < self.best_time[node] {
            self.best_time[node] = time_s;
        }
    }

    /// Warm start: materialise `ordering` as a path from the root, crediting
    /// every node on it with one visit at the ordering's observed time. UCB
    /// then treats the previous best as an already-explored promising branch
    /// instead of starting from an empty tree.
    fn seed_path(&mut self, ordering: &[usize], time_s: f64) {
        let mut node = 0usize;
        for &segment in ordering {
            self.credit(node, time_s);
            node = match self.child(node, segment) {
                Some(child) => child,
                None => self.add_child(node, segment),
            };
        }
        self.credit(node, time_s);
    }
}

/// Random rollouts per MCTS expansion (§5.1).
const ROLLOUTS_PER_EXPANSION: usize = 4;
/// UCB exploration weight, the paper's `β` (§5.1).
const UCB_BETA: f64 = 0.5;
/// Exponent on the UCB exploitation term, the paper's `α` (§5.1).
const UCB_ALPHA: f64 = 1.0;

/// One root-parallel MCTS stream: owns its tree and RNG outright, so the
/// entire select/expand/rollout/backpropagate loop runs without locks, and
/// reuses one set of buffers for every iteration, so after warm-up only a
/// new tree node allocates.
fn mcts_worker(
    search: &Search<'_>,
    ctx: &mut EvalContext,
    warm: Option<(&[usize], f64)>,
    local: &mut WorkerOutcome,
    stream: usize,
) {
    let (n, quota) = (search.num_segments, search.quota);
    let mut rng = worker_rng(search.config.seed, stream);
    let mut tree = MctsTree::new(n);
    if let Some((seed, time_s)) = warm {
        tree.seed_path(seed, time_s);
    }
    let mut path: Vec<usize> = Vec::with_capacity(n + 1);
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut missing: Vec<usize> = Vec::with_capacity(n);
    let mut ordering: Vec<usize> = Vec::with_capacity(n);
    let mut rest: Vec<usize> = Vec::with_capacity(n);
    while !local.budget_exhausted(quota) {
        // --- Selection + expansion. ---
        let mut node = 0usize;
        path.clear();
        path.push(node);
        prefix.clear();
        used.fill(false);
        while prefix.len() < n {
            // Expand if some child is missing.
            missing.clear();
            missing.extend((0..n).filter(|&s| !used[s] && tree.child(node, s).is_none()));
            if !missing.is_empty() {
                let pick = missing[rng.gen_range(0..missing.len())];
                let child = tree.add_child(node, pick);
                prefix.push(pick);
                used[pick] = true;
                path.push(child);
                break;
            }
            // UCB selection among existing children: none is missing.
            let log_visits = (tree.visits[node].max(1) as f64).ln();
            let incumbent = local.time_s;
            let mut best_child = None;
            let mut best_ucb = f64::NEG_INFINITY;
            for segment in (0..n).filter(|&s| !used[s]) {
                let child = tree.children[node * n + segment] as usize;
                let best_time = tree.best_time[child];
                let exploit = if best_time.is_finite() {
                    (incumbent / best_time).powf(UCB_ALPHA)
                } else {
                    0.5
                };
                let explore = UCB_BETA * (log_visits / (tree.visits[child].max(1) as f64)).sqrt();
                let ucb = exploit + explore;
                if ucb > best_ucb {
                    best_ucb = ucb;
                    best_child = Some((segment, child));
                }
            }
            let Some((segment, child)) = best_child else {
                break;
            };
            prefix.push(segment);
            used[segment] = true;
            node = child;
            path.push(child);
        }

        // --- Rollouts. ---
        let mut local_best = f64::INFINITY;
        for _ in 0..ROLLOUTS_PER_EXPANSION {
            if local.budget_exhausted(quota) {
                break;
            }
            ordering.clear();
            ordering.extend_from_slice(&prefix);
            rest.clear();
            rest.extend((0..n).filter(|&s| !used[s]));
            rest.shuffle(&mut rng);
            ordering.extend_from_slice(&rest);
            // Deliberately unbounded: backpropagation must credit the tree
            // path with the rollout's *true* time even when it is worse
            // than the incumbent — a cutoff-aborted rollout would yield no
            // value and change how the tree grows. A repeated rollout is a
            // memo lookup of that same true time.
            let t = search
                .evaluate(&ordering, ctx, f64::INFINITY)
                .expect("an infinite cutoff never aborts");
            local.evaluations += 1;
            local.record_if_better(local.evaluations, t, ctx.priorities());
            local_best = local_best.min(t);
        }

        // --- Backpropagation. ---
        if local_best.is_finite() {
            for &node in &path {
                tree.credit(node, local_best);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
    use dip_pipeline::{separated_placement, ParallelConfig, StageGraphBuilder, SubMicrobatchPlan};
    use dip_sim::ClusterTopology;
    use std::collections::BTreeMap;

    /// Evaluates one ordering through a reusable workspace in one full
    /// pass, never a resumed one and never through a memo: the reference
    /// every memoised evaluation must reproduce.
    fn evaluate_into(graph: &PassGraph<'_>, ordering: &[usize], ctx: &mut EvalContext) -> f64 {
        ctx.set_ordering(ordering);
        dual_queue::schedule_resumed(
            graph,
            &ctx.config,
            &mut ctx.ws,
            f64::INFINITY,
            PassPrefix::EMPTY,
        )
        .expect("an infinite cutoff never aborts")
    }

    fn vlm_graph(num_microbatches: usize) -> (StageGraph, usize) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let mut k = BTreeMap::new();
        k.insert(spec.backbone_id().unwrap(), 2usize);
        let placement = separated_placement(&spec, parallel, &k);
        let cluster = ClusterTopology::h800_cluster(2);
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(6502, 1))
            .with(Modality::Image, ModalityWorkload::new(1690, 10));
        let batches = vec![batch; num_microbatches];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let graph = builder.build(&batches, &plan).unwrap();
        let n = placement.segments.len();
        (graph, n)
    }

    fn quick_config(strategy: SearchStrategy) -> OrderingSearchConfig {
        OrderingSearchConfig {
            strategy,
            // Virtual time: ~50 ms worth of evaluations per stream under
            // the reference cost model, regardless of the machine.
            time_budget: Duration::from_millis(50),
            streams: 2,
            workers: 2,
            ..OrderingSearchConfig::default()
        }
    }

    #[test]
    fn mcts_search_returns_a_complete_schedule() {
        let (graph, n) = vlm_graph(4);
        let result = search_ordering(&graph, n, &quick_config(SearchStrategy::Mcts));
        assert_eq!(result.segment_priorities.len(), n);
        assert!(result.best_time_s.is_finite() && result.best_time_s > 0.0);
        assert!(result.evaluations >= 1);
        assert_eq!(result.orders.num_stages(), graph.len());
        // Progress is monotonically decreasing after the merge.
        for w in result.progress.windows(2) {
            assert!(w[1].best_time_s < w[0].best_time_s);
        }
    }

    #[test]
    fn search_improves_or_matches_the_identity_ordering() {
        let (graph, n) = vlm_graph(6);
        let identity: Vec<usize> = (0..n).collect();
        let identity_time = evaluate_into(
            &PassGraph::new(&graph),
            &identity,
            &mut EvalContext::new(&DualQueueConfig::default()),
        );
        for strategy in [
            SearchStrategy::Mcts,
            SearchStrategy::Random,
            SearchStrategy::Dfs,
        ] {
            let result = search_ordering(&graph, n, &quick_config(strategy));
            assert!(
                result.best_time_s <= identity_time + 1e-9,
                "{strategy:?}: {} vs identity {}",
                result.best_time_s,
                identity_time
            );
        }
    }

    /// A search's evaluation count is fixed by its strategy, stream count,
    /// quota and seed ordering alone: the identity incumbent, the warm seed
    /// when it is a permutation, then every stream's full quota (MCTS and
    /// random) or the quota-capped enumeration (DFS), at any worker count.
    #[test]
    fn evaluations_follow_the_strategy_streams_and_quota_exactly() {
        let (graph, n) = vlm_graph(2);
        let permutations: u64 = (1..=n as u64).product();
        let streams = 3u64;
        let reversed: Vec<usize> = (0..n).rev().collect();
        for quota in [5u64, permutations + 3] {
            for strategy in [
                SearchStrategy::Mcts,
                SearchStrategy::Random,
                SearchStrategy::Dfs,
            ] {
                for workers in [1usize, 4] {
                    for (seed, warm) in [(None, 0u64), (Some(reversed.clone()), 1)] {
                        let config = OrderingSearchConfig {
                            time_budget: Duration::from_secs(3600),
                            max_evaluations: Some(quota),
                            streams: streams as usize,
                            workers,
                            seed_ordering: seed,
                            ..quick_config(strategy)
                        };
                        let result = search_ordering(&graph, n, &config);
                        assert_eq!(result.evaluation_quota, quota);
                        let searched = match strategy {
                            SearchStrategy::Dfs => quota.min(permutations),
                            _ => streams * quota,
                        };
                        assert_eq!(
                            result.evaluations,
                            1 + warm + searched,
                            "{strategy:?}, quota {quota}, {workers} workers, warm {warm}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ordering_from_priorities_inverts_priority_assignment() {
        let ordering = vec![2usize, 0, 3, 1];
        let n = ordering.len();
        let mut priorities = vec![0i64; n];
        for (pos, &seg) in ordering.iter().enumerate() {
            priorities[seg] = (n - pos) as i64;
        }
        assert_eq!(ordering_from_priorities(&priorities), ordering);
    }

    #[test]
    fn warm_start_is_at_least_as_good_as_the_seeded_ordering() {
        let (graph, n) = vlm_graph(4);
        // Cold search finds some best ordering.
        let cold = search_ordering(&graph, n, &quick_config(SearchStrategy::Mcts));
        let seed = ordering_from_priorities(&cold.segment_priorities);
        let seed_time = evaluate_into(
            &PassGraph::new(&graph),
            &seed,
            &mut EvalContext::new(&DualQueueConfig::default()),
        );
        // Warm search with zero exploration budget still holds the incumbent.
        let config = OrderingSearchConfig {
            time_budget: Duration::ZERO,
            seed_ordering: Some(seed),
            ..quick_config(SearchStrategy::Mcts)
        };
        let warm = search_ordering(&graph, n, &config);
        assert!(
            warm.best_time_s <= seed_time + 1e-9,
            "warm {} vs seeded {}",
            warm.best_time_s,
            seed_time
        );
        // Identity + seed were both evaluated.
        assert_eq!(warm.evaluations, 2);
    }

    #[test]
    fn invalid_seed_orderings_are_ignored() {
        let (graph, n) = vlm_graph(2);
        for bad in [
            vec![0usize; n],
            vec![0usize],
            (0..n + 1).collect::<Vec<_>>(),
        ] {
            let config = OrderingSearchConfig {
                time_budget: Duration::ZERO,
                seed_ordering: Some(bad),
                ..quick_config(SearchStrategy::Mcts)
            };
            let result = search_ordering(&graph, n, &config);
            assert_eq!(result.evaluations, 1, "only the identity is evaluated");
        }
    }

    /// Fixed search space (4 streams × an explicit per-stream quota); only
    /// the physical worker count varies.
    fn bounded_config(workers: usize, per_stream_evaluations: u64) -> OrderingSearchConfig {
        OrderingSearchConfig {
            strategy: SearchStrategy::Mcts,
            time_budget: Duration::from_secs(3600),
            max_evaluations: Some(per_stream_evaluations),
            streams: 4,
            workers,
            seed: 7,
            ..OrderingSearchConfig::default()
        }
    }

    #[test]
    fn warm_started_search_is_deterministic_for_a_fixed_seed() {
        let (graph, n) = vlm_graph(4);
        let run = || {
            let config = OrderingSearchConfig {
                seed_ordering: Some((0..n).rev().collect()),
                ..bounded_config(1, 40)
            };
            search_ordering(&graph, n, &config)
        };
        let a = run();
        let b = run();
        assert_eq!(a.segment_priorities, b.segment_priorities);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.orders, b.orders);
        assert!((a.best_time_s - b.best_time_s).abs() < 1e-12);
    }

    /// The headline guarantee of the virtual-time schedule: the physical
    /// worker count is a pure throughput knob — every count produces the
    /// bit-identical result, because the stream set and each stream's
    /// quota never depend on it.
    #[test]
    fn plans_are_bit_identical_across_worker_counts() {
        let (graph, n) = vlm_graph(4);
        let reference = search_ordering(&graph, n, &bounded_config(1, 30));
        for workers in [2usize, 4, 8] {
            let parallel = search_ordering(&graph, n, &bounded_config(workers, 30));
            assert_eq!(
                parallel.segment_priorities, reference.segment_priorities,
                "{workers} workers"
            );
            assert_eq!(parallel.orders, reference.orders, "{workers} workers");
            assert_eq!(parallel.evaluations, reference.evaluations);
            assert_eq!(parallel.progress, reference.progress, "{workers} workers");
            assert_eq!(
                parallel.best_time_s.to_bits(),
                reference.best_time_s.to_bits(),
                "{workers} workers"
            );
        }
    }

    /// The convergence index is deterministic: the merged progress curve's
    /// `(evaluation, best time bits)` points do not depend on how many
    /// threads ran the streams, nor on which stream hit the memo first.
    #[test]
    fn progress_points_are_identical_across_worker_counts() {
        let (graph, n) = vlm_graph(4);
        let reference = search_ordering(&graph, n, &bounded_config(1, 30));
        let progress = &reference.progress;
        assert_eq!(
            progress[0].evaluation, 0,
            "the identity incumbent comes first"
        );
        assert!(progress.len() > 1, "the streams improved on the incumbent");
        let parallel = search_ordering(&graph, n, &bounded_config(4, 30));
        assert_eq!(&parallel.progress, progress);
        assert_eq!(
            parallel.work.distinct_orderings,
            reference.work.distinct_orderings
        );
    }

    #[test]
    fn virtual_time_budgets_are_deterministic_without_an_evaluation_cap() {
        let (graph, n) = vlm_graph(4);
        // A pure time budget (no max_evaluations): the quota comes from the
        // calibrated cost model, so repeated runs and different worker
        // counts still agree bit-for-bit.
        let config = |workers: usize| OrderingSearchConfig {
            strategy: SearchStrategy::Mcts,
            time_budget: Duration::from_millis(25),
            streams: 3,
            workers,
            seed: 11,
            ..OrderingSearchConfig::default()
        };
        let a = search_ordering(&graph, n, &config(1));
        let b = search_ordering(&graph, n, &config(4));
        let c = search_ordering(&graph, n, &config(1));
        assert!(a.evaluation_quota > 0, "a 25 ms budget buys evaluations");
        assert_eq!(a.segment_priorities, b.segment_priorities);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.best_time_s.to_bits(), b.best_time_s.to_bits());
        assert_eq!(a.orders, c.orders);
        assert_eq!(a.evaluations, c.evaluations);
    }

    #[test]
    fn adding_streams_never_degrades_the_plan_for_a_fixed_seed() {
        let (graph, n) = vlm_graph(4);
        // Stream s explores the same orderings no matter how many other
        // streams exist, so a larger stream set explores a superset and the
        // merged best can only improve.
        let small = search_ordering(
            &graph,
            n,
            &OrderingSearchConfig {
                streams: 1,
                ..bounded_config(4, 30)
            },
        );
        for streams in [2usize, 4, 8] {
            let wide = search_ordering(
                &graph,
                n,
                &OrderingSearchConfig {
                    streams,
                    ..bounded_config(4, 30)
                },
            );
            assert!(
                wide.best_time_s <= small.best_time_s + 1e-12,
                "{streams} streams: {} vs single-stream {}",
                wide.best_time_s,
                small.best_time_s
            );
        }
    }

    #[test]
    fn evaluation_quota_follows_budget_and_graph_size() {
        let config = OrderingSearchConfig::default();
        // Bigger budgets buy more evaluations; bigger graphs fewer.
        let small_graph = config.evaluation_quota(50);
        let large_graph = config.evaluation_quota(5000);
        assert!(small_graph > large_graph);
        let short = OrderingSearchConfig {
            time_budget: Duration::from_millis(10),
            ..config.clone()
        };
        assert!(short.evaluation_quota(50) < small_graph);
        // An explicit cap min-combines with the virtual quota.
        let capped = OrderingSearchConfig {
            max_evaluations: Some(3),
            ..config.clone()
        };
        assert_eq!(capped.evaluation_quota(50), 3);
        // A zero budget buys nothing, whatever the cap says.
        let zero = OrderingSearchConfig {
            time_budget: Duration::ZERO,
            max_evaluations: Some(100),
            ..config
        };
        assert_eq!(zero.evaluation_quota(50), 0);
    }

    /// Every stored record rebuilds, at every resume step up to its
    /// horizon and over its whole stored prefix, exactly the pops and
    /// events of a fresh pass over its ordering, although resumed passes
    /// store only their own part.
    #[test]
    fn stored_records_rebuild_every_prefix() {
        let (graph, n) = vlm_graph(6);
        let view = PassGraph::new(&graph);
        let memo = PassMemo::new(&graph);
        let mut ctx = EvalContext::new(&DualQueueConfig::default());
        let mut rng = worker_rng(3, 0);
        let mut ordering: Vec<usize> = (0..n).collect();
        // The ordering behind each stored record, in storage order.
        let mut stored = Vec::new();
        for _ in 0..40 {
            ordering.shuffle(&mut rng);
            let passes = memo.passes.load(AtomicOrdering::Relaxed);
            evaluate(&view, &ordering, &mut ctx, &memo, f64::INFINITY);
            if memo.passes.load(AtomicOrdering::Relaxed) > passes {
                stored.push(ordering.clone());
            }
        }
        let tables = memo.tables();
        let records = &tables.records;
        assert!(
            records.passes.iter().any(|p| p.origin.resumed > 0),
            "no stored pass resumed"
        );
        let (mut fresh, mut pops, mut events) = (
            EvalContext::new(&DualQueueConfig::default()),
            Vec::new(),
            Vec::new(),
        );
        for (pass, ordering) in stored.iter().enumerate() {
            evaluate_into(&view, ordering, &mut fresh);
            let record = fresh.ws.record();
            // The winner's re-interleave replays a record's whole stored
            // prefix: at least up to its horizon, and its own pops.
            let whole = records.stored_prefix(pass as u32);
            assert!(whole.resumed as usize >= record.horizon(), "pass {pass}");
            records.copy_prefix(whole, &mut pops, &mut events);
            assert_eq!(pops, record.pops()[..whole.resumed as usize], "pass {pass}");
            for steps in 0..=record.horizon() {
                records.copy_prefix(
                    Origin {
                        source: pass as u32,
                        resumed: steps as u32,
                    },
                    &mut pops,
                    &mut events,
                );
                assert_eq!(pops, record.pops()[..steps], "pass {pass}, {steps} steps");
                let below: Vec<RequirementEvent> = record
                    .events()
                    .iter()
                    .copied()
                    .filter(|e| (e.pop_step as usize) < steps)
                    .collect();
                assert_eq!(events, below, "pass {pass}, {steps} steps");
            }
        }
    }

    /// The record-major scan the column-major one replaced: records in
    /// completion order, each one's pair loop stopping once its running
    /// minimum is at or below the best point so far, the scan stopping at
    /// the first record the ordering reproduces.
    fn record_major_resume(tables: &[Vec<u32>], unranked: &[u32]) -> Resume {
        let mut best = Origin {
            source: 0,
            resumed: 0,
        };
        for (pass, table) in tables.iter().enumerate() {
            let mut j = NO_REQUIREMENT;
            for &pair in unranked {
                j = j.min(table[pair as usize]);
                if j <= best.resumed {
                    break;
                }
            }
            if j == NO_REQUIREMENT {
                return Resume::Hit(pass as u32);
            }
            if j > best.resumed {
                best = Origin {
                    source: pass as u32,
                    resumed: j,
                };
            }
        }
        Resume::At(best)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3000))]
        /// The column-major scan returns exactly the record-major scan's
        /// `Resume` (variant, record and step) at both storage widths, on
        /// memos from empty to a few dozen records whose steps come from a
        /// small set (so equal `j` ties are common), with whole rows of
        /// "none" and orderings that leave no pair unranked.
        #[test]
        fn column_major_resume_matches_the_record_major_scan(
            shape in (1usize..6, 0u8..2),
            cells in proptest::prelude::prop::collection::vec(0u8..16, 0..600),
            priorities in proptest::prelude::prop::collection::vec(0u8..4, 5..6),
        ) {
            let (segments, wide) = (shape.0, shape.1 == 1);
            let pairs = segments * segments;
            // The graph length fixes the width; steps stay below it.
            let len = if wide { 100_000 } else { 60_000 };
            let steps = [0, 1, 2, 2, 5, 5, 9, len as u32 - 1];
            let tables: Vec<Vec<u32>> = cells
                .chunks_exact(pairs)
                .map(|row| {
                    // A row led by 15 is all "none".
                    let all_none = row[0] == 15;
                    row.iter()
                        .map(|&c| match c {
                            _ if all_none => NO_REQUIREMENT,
                            0..=7 => steps[usize::from(c)],
                            _ => NO_REQUIREMENT,
                        })
                        .collect()
                })
                .collect();
            let mut records = PassRecords {
                passes: Vec::new(),
                requirements: Requirements::for_graph(len, pairs),
                pops: Compact::for_graph(len),
                events: Vec::new(),
            };
            proptest::prop_assert_eq!(matches!(records.requirements, Requirements::Wide(_)), wide);
            for table in &tables {
                records.requirements.push(table);
                records.passes.push(StoredPass {
                    makespan: 0.0,
                    origin: Origin {
                        source: 0,
                        resumed: 0,
                    },
                    pops_end: 0,
                    events_end: 0,
                });
            }
            let priorities: Vec<i64> = priorities[..segments].iter().map(|&p| i64::from(p)).collect();
            let mut unranked = Vec::new();
            dual_queue::unranked_pairs(&priorities, segments, &mut unranked);
            proptest::prop_assert_eq!(
                records.best_resume(&unranked),
                record_major_resume(&tables, &unranked),
                "{} records, unranked {:?}",
                tables.len(),
                unranked
            );
        }
    }

    #[test]
    fn single_segment_graph_needs_no_search() {
        let spec = zoo::lm_7b();
        let parallel = ParallelConfig::new(2, 2, 1);
        let placement = dip_pipeline::balanced_param_placement(&spec, parallel, 1);
        let cluster = ClusterTopology::h800_cluster(1);
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batch = BatchWorkload::new().with(Modality::Text, ModalityWorkload::from_tokens(4096));
        let plan = SubMicrobatchPlan::uniform(1, 1);
        let graph = builder.build(&[batch], &plan).unwrap();
        for workers in [1usize, 4] {
            for (seed, warm) in [(None, 0u64), (Some(vec![0]), 1)] {
                let config = OrderingSearchConfig {
                    workers,
                    seed_ordering: seed,
                    ..quick_config(SearchStrategy::Mcts)
                };
                let result = search_ordering(&graph, 1, &config);
                assert_eq!(result.evaluations, 1 + warm, "{workers} workers");
                assert_eq!(result.evaluation_quota, 0);
                assert_eq!(result.segment_priorities.len(), 1);
            }
        }
    }
}
