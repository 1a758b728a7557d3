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
//! Each worker thread holds one evaluation context (a [`ScheduleWorkspace`]
//! and the config its priorities are written into) for every stream it
//! runs; the search's own thread holds one more for the incumbents, DFS and
//! the winner. All of them are dropped with the search.
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
//! [`search_ordering`] call owns one [`PassMemo`], shared by all of its
//! streams, through which every evaluation runs. The memo protocol —
//! decision records written by the interleave kernel, stored, scanned and
//! copied back by the memo — lives wholly in `dip-pipeline` (see
//! [`dip_pipeline::memo`] and [`dip_pipeline::dual_queue`]); this module
//! owns neither half. It chooses which priorities to evaluate and maps the
//! memo's [`dip_pipeline::MemoWork`] to [`SearchWork`]. A memo answer —
//! from its exact map, from a record the priorities reproduce whole, or
//! from a pass resumed where they stop agreeing with the best earlier pass
//! — is exactly what a fresh bounded pass would return.
//!
//! Every evaluation, a memo hit or not, counts in full against the
//! stream's quota (and as pruned when it loses to the stream's cutoff). So
//! the memo changes neither which orderings are explored nor which plan
//! wins, only how much kernel work runs, which [`SearchWork`] counts.
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
//! from one more pass over its priorities once the streams finish
//! ([`PassMemo::interleave_winner`]), resumed from the memo record the
//! winner reproduces whole. Its steps are booked apart, in
//! [`SearchWork::winner_live_steps`] and
//! [`SearchWork::winner_replayed_steps`].

use dip_pipeline::par::parallel_map_indexed;
use dip_pipeline::{DualQueueConfig, PassMemo, RankOrders, ScheduleWorkspace, StageGraph};
use dip_sim::CostModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::AddAssign;
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
    /// stream's incumbent (see [`dip_pipeline::schedule_bounded`]), aborting
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
}

impl EvalContext {
    fn new(base: &DualQueueConfig) -> Self {
        Self {
            config: base.clone(),
            ws: ScheduleWorkspace::new(),
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

    /// Evaluates one ordering under `cutoff` through the search's memo —
    /// the single path every search evaluation takes (see
    /// [`PassMemo::evaluate`]).
    fn evaluate(&mut self, memo: &PassMemo<'_>, ordering: &[usize], cutoff: f64) -> Option<f64> {
        self.set_ordering(ordering);
        memo.evaluate(&self.config, &mut self.ws, cutoff)
    }
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
    let memo = PassMemo::new(graph);
    let mut ctx = EvalContext::new(&config.dual_queue);
    let identity: Vec<usize> = (0..num_segments).collect();
    let t0 = ctx
        .evaluate(&memo, &identity, f64::INFINITY)
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
        let t = ctx
            .evaluate(&memo, seed, f64::INFINITY)
            .expect("an infinite cutoff never aborts");
        incumbent.evaluations += 1;
        incumbent.record_if_better(0, t, ctx.priorities());
        warm_time = Some(t);
    }

    let outcomes = if num_segments <= 1 {
        Vec::new()
    } else {
        let search = Search {
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

    merge_outcomes(graph, &mut ctx, incumbent, outcomes, quota, memo)
}

/// What every stream of one search shares: the search's configuration and
/// quota, and its pass memo.
struct Search<'a> {
    num_segments: usize,
    config: &'a OrderingSearchConfig,
    quota: u64,
    memo: &'a PassMemo<'a>,
}

impl Search<'_> {
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
    graph: &StageGraph,
    ctx: &mut EvalContext,
    incumbent: WorkerOutcome,
    outcomes: Vec<WorkerOutcome>,
    quota: u64,
    memo: PassMemo<'_>,
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
    ctx.config.segment_priorities = best_priorities;
    let memo = memo.interleave_winner(&ctx.config, &mut ctx.ws);
    // Every completed evaluation's priorities are in the exact map once,
    // and which evaluations complete does not depend on which stream ran
    // first, so its final size is deterministic. The pass and step counts
    // are not: which records exist when a stream scans depends on thread
    // timing.
    let work = SearchWork {
        pruned_evaluations: pruned,
        distinct_orderings: memo.distinct_priorities,
        interleave_passes: memo.passes,
        live_steps: memo.live_steps,
        replayed_steps: memo.replayed_steps,
        winner_live_steps: memo.winner_live_steps,
        winner_replayed_steps: memo.winner_replayed_steps,
    };
    OrderingResult {
        orders: ctx.ws.orders(graph),
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
        match ctx.evaluate(search.memo, &ordering, cutoff) {
            Some(t) => local.record_if_better(local.evaluations, t, ctx.priorities()),
            None => local.pruned += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// DFS enumeration
// ---------------------------------------------------------------------------

/// Lexicographic enumeration of the orderings from the identity on,
/// stopping at the quota.
fn dfs_search(search: &Search<'_>, ctx: &mut EvalContext, local: &mut WorkerOutcome) {
    let mut ordering: Vec<usize> = (0..search.num_segments).collect();
    loop {
        if local.budget_exhausted(search.quota) {
            return;
        }
        // DFS only reports its single best ordering, so (like the random
        // worker) each evaluation is bounded by the incumbent — exact
        // pruning, identical best plan.
        let cutoff = search.cutoff(local);
        local.evaluations += 1;
        match ctx.evaluate(search.memo, &ordering, cutoff) {
            Some(t) => local.record_if_better(local.evaluations, t, ctx.priorities()),
            None => local.pruned += 1,
        }
        if !next_permutation(&mut ordering) {
            return;
        }
    }
}

/// Rearranges `values` into the next permutation in lexicographic order,
/// returning false (and leaving them as they are) at the last one.
pub(crate) fn next_permutation(values: &mut [usize]) -> bool {
    // The longest non-increasing suffix starts at `i`; nothing follows
    // the last permutation, which is all suffix.
    let Some(i) = (1..values.len()).rev().find(|&i| values[i - 1] < values[i]) else {
        return false;
    };
    // Swap the pivot with the rightmost larger value, then make the suffix
    // ascending: the smallest arrangement after the pivot's new value.
    let j = (i..values.len())
        .rev()
        .find(|&j| values[j] > values[i - 1])
        .expect("the suffix holds a value above the pivot");
    values.swap(i - 1, j);
    values[i..].reverse();
    true
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
            let t = ctx
                .evaluate(search.memo, &ordering, f64::INFINITY)
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
    fn evaluate_into(graph: &StageGraph, ordering: &[usize], ctx: &mut EvalContext) -> f64 {
        ctx.set_ordering(ordering);
        dip_pipeline::schedule_into(graph, &ctx.config, &mut ctx.ws)
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
            &graph,
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
            &graph,
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

    /// DFS and the monolithic baseline enumerate permutations in
    /// lexicographic order from the identity, every one exactly once.
    #[test]
    fn permutation_generator_enumerates_all_orderings() {
        for n in 0..6 {
            let mut values: Vec<usize> = (0..n).collect();
            let mut seen = vec![values.clone()];
            while next_permutation(&mut values) {
                assert!(seen.last().unwrap() < &values, "{n}: out of order");
                seen.push(values.clone());
            }
            let count: usize = (1..=n).product();
            assert_eq!(seen.len(), count, "{n} values");
            // The last permutation is left as it is.
            assert_eq!(values, (0..n).rev().collect::<Vec<_>>());
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
