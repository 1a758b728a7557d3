//! Per-layer memory optimisation (§5.3).
//!
//! With the stage interleaving fixed by the dual-queue scheduler, each
//! pipeline rank is optimised independently: for every (forward, backward)
//! stage pair a memory-saving strategy is chosen from a candidate ladder so
//! that total latency is minimised while the activation memory alive at any
//! point of the rank's schedule stays within budget. The per-rank problem is
//! a group-choice ILP solved with a greedy warm start and a fixed 5%
//! optimality gap, exactly as the paper describes.
//!
//! Each rank's ILP has one memory constraint per stage pair, anchored at
//! the pair's forward position, and a pair loads the constraints anchored
//! inside its alive interval with the same bytes whichever strategy it
//! takes. So each group stores that support once and each candidate one
//! weight (see [`dip_solver::ilp`]): a rank with `P` pairs and an `S`-rung
//! ladder stores one entry per (pair, anchor inside its interval) instead
//! of `P × S × P` dense weights. [`MemoryOptOutcome::constraint_entries`]
//! counts them. Building the ILP costs about a sort per rank: the pairs
//! are collected by sorting the rank's stages by stage pair, and each
//! support is the slice of the pairs sorted by forward position that its
//! interval spans (two binary searches), put back into constraint order
//! through a bitset over the rank's pairs.
//!
//! # Parallel, deterministic solves
//!
//! The per-rank subproblems share no state, so
//! [`optimize_memory_detailed`] dispatches them across a scoped thread
//! pool (the caller passes the thread budget — the planner forwards its
//! per-plan CPU share so `plan_many` concurrency never multiplies) and
//! merges the per-rank selections **in rank order**, exactly as the serial
//! loop would have applied them. Each solve is bounded by a deterministic
//! branch-and-bound *node* budget derived from a fixed (virtual) time
//! limit via the calibrated per-node cost model — never by a wall
//! clock — so the parallel path is byte-identical to the serial path, on
//! any machine, at any thread count.

use crate::error::DipError;
use dip_pipeline::par::parallel_map_indexed;
use dip_pipeline::{Direction, MemoryPlan, MemoryStrategy, RankOrders, StageGraph};
use dip_sim::{CostModel, StageTiming};
use dip_solver::{Candidate, GroupChoiceProblem, SolveOptions};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Relative optimality gap at which a rank's ILP stops early (§5.3).
const OPTIMALITY_GAP: f64 = 0.05;

/// **Virtual-time** limit per pipeline rank (§5.3): converted into a
/// deterministic branch-and-bound node budget via
/// [`MemoryOptConfig::node_cost`], so the per-rank solve returns the same
/// selection on any machine (a wall clock never stops it).
const TIME_LIMIT: Duration = Duration::from_millis(100);

/// Configuration of the memory optimiser.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryOptConfig {
    /// Number of candidate strategies per stage pair (the paper's `S`, e.g. 10).
    pub candidates_per_pair: usize,
    /// Calibrated cost model of one branch-and-bound node, per constraint
    /// group — the virtual clock rate that converts the fixed per-rank
    /// virtual time limit (100 ms) into a node budget.
    pub node_cost: CostModel,
}

impl Default for MemoryOptConfig {
    fn default() -> Self {
        Self {
            candidates_per_pair: 10,
            node_cost: CostModel::REFERENCE_ILP_NODE,
        }
    }
}

impl MemoryOptConfig {
    /// The deterministic branch-and-bound node budget for one rank's ILP
    /// with `groups` stage pairs: the fixed virtual time limit divided by
    /// the calibrated per-node cost.
    pub fn node_budget(&self, groups: usize) -> u64 {
        self.node_cost.quota(TIME_LIMIT, groups as u64)
    }
}

/// The outcome of a (possibly parallel) memory-optimisation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryOptOutcome {
    /// The chosen per-stage-pair strategies.
    pub plan: MemoryPlan,
    /// Constraint entries the per-rank ILPs stored, summed over ranks (see
    /// [`dip_solver::GroupChoiceProblem::constraint_entries`]).
    pub constraint_entries: u64,
}

/// The selections one rank's subproblem contributes to the merged plan,
/// and the constraint entries its ILP stored.
type RankSolve = (Vec<(usize, MemoryStrategy)>, u64);

/// Runs per-rank memory optimisation over a stage graph and a fixed
/// interleaving, returning the chosen [`MemoryPlan`] and the constraint
/// entries its ILPs stored. The independent per-rank ILP subproblems are
/// dispatched across up to `threads` scoped worker threads; their
/// selections are merged in rank order — exactly the order a serial loop
/// applies them — and every solve is node-budgeted and reads no clock, so
/// the result is **byte-identical to the serial path** at any thread
/// count.
///
/// `capacity_per_rank` is the activation-memory budget of each rank (GPU
/// memory minus the static parameter/optimizer footprint). Ranks whose
/// budget cannot be met even by the most aggressive strategy fall back to
/// applying that strategy uniformly.
///
/// `threads` is this plan's CPU budget for the phase; the planner passes
/// its per-plan search parallelism so a `plan_many` pool of `P` plans
/// never exceeds `P × threads` total CPU threads.
///
/// # Errors
///
/// Returns [`DipError::Solver`] when the configuration admits no candidate
/// strategies (`candidates_per_pair == 0`), leaving the group-choice ILP
/// without a feasible selection.
pub fn optimize_memory_detailed(
    graph: &StageGraph,
    orders: &RankOrders,
    capacity_per_rank: &[u64],
    config: &MemoryOptConfig,
    threads: usize,
) -> Result<MemoryOptOutcome, DipError> {
    if config.candidates_per_pair == 0 {
        return Err(DipError::solver(
            "memory optimisation",
            "candidates_per_pair is 0: the group-choice ILP has no candidates to select from",
        ));
    }
    let ladder = MemoryStrategy::ladder(config.candidates_per_pair);
    let num_ranks = orders.num_ranks();

    // The shared work-stealing fork-join helper: rank → thread assignment
    // cannot influence the per-rank results, which are pure functions of
    // the rank index.
    let per_rank: Vec<RankSolve> = parallel_map_indexed(
        num_ranks,
        threads,
        || (),
        |_, rank| {
            solve_rank(
                graph,
                orders.rank(rank),
                capacity_per_rank,
                rank,
                config,
                &ladder,
            )
        },
    );

    // Deterministic merge: apply each rank's selections in rank order —
    // the exact order the serial loop would have written them, so the
    // parallel path produces a byte-identical plan.
    let mut plan = MemoryPlan::new();
    let mut constraint_entries = 0;
    for (selections, entries) in per_rank {
        for (stage_pair, strategy) in selections {
            plan.set(stage_pair, strategy);
        }
        constraint_entries += entries;
    }
    Ok(MemoryOptOutcome {
        plan,
        constraint_entries,
    })
}

/// Solves one rank's group-choice ILP, returning the chosen strategy per
/// stage pair hosted on the rank (empty when the rank hosts no complete
/// pair) and the constraint entries the ILP stored. Pure function of its
/// inputs: no clock consulted, no shared state touched — which is what
/// lets ranks solve concurrently yet reproducibly.
fn solve_rank(
    graph: &StageGraph,
    order: &[dip_pipeline::StageId],
    capacity_per_rank: &[u64],
    rank: usize,
    config: &MemoryOptConfig,
    ladder: &[MemoryStrategy],
) -> RankSolve {
    let capacity = capacity_per_rank.get(rank).copied().unwrap_or(u64::MAX);
    let infos = rank_pairs(graph, order);
    if infos.is_empty() {
        return (Vec::new(), 0);
    }

    // One memory constraint per pair, anchored at its forward position:
    // every pair alive at that position contributes its resident bytes.
    let capacities = vec![capacity as f64; infos.len()];
    let mut problem = GroupChoiceProblem::new(capacities);
    let mut anchors = ForwardAnchors::new(&infos);
    for info in &infos {
        let candidates: Vec<Candidate> = ladder
            .iter()
            .map(|s| {
                let t = s.apply(&info.base);
                Candidate::new(t.fwd_s + t.bwd_s, t.activation_bytes as f64)
            })
            .collect();
        problem.add_group(anchors.support(info), candidates);
    }

    let solution = dip_solver::ilp::solve(
        &problem,
        &SolveOptions {
            // The node budget — not a clock — bounds the solve, keeping it
            // deterministic on any machine.
            node_limit: Some(config.node_budget(infos.len())),
            optimality_gap: OPTIMALITY_GAP,
            warm_start: true,
        },
    );

    let selections = if solution.is_feasible() {
        infos
            .iter()
            .enumerate()
            .map(|(i, info)| (info.stage_pair, ladder[solution.selection[i]]))
            .collect()
    } else {
        // Budget unattainable: fall back to the most aggressive strategy.
        let most_aggressive = *ladder.last().expect("ladder is non-empty");
        infos
            .iter()
            .map(|info| (info.stage_pair, most_aggressive))
            .collect()
    };
    (selections, problem.constraint_entries())
}

/// A complete stage pair of one rank's order: its pre-strategy timing and
/// the positions of its forward and backward stage in the order.
#[derive(Debug, PartialEq)]
struct PairInfo {
    stage_pair: usize,
    base: StageTiming,
    fwd_pos: usize,
    bwd_pos: usize,
}

/// The stage pairs of one rank's order with both stages in it, in
/// stage-pair order. A pair's timing takes its forward's duration and
/// output bytes, its backward's duration, and the activation bytes of
/// whichever of the two runs later; a stage listed twice counts at its
/// last position.
fn rank_pairs(graph: &StageGraph, order: &[dip_pipeline::StageId]) -> Vec<PairInfo> {
    // Every position keyed by its stage pair: sorting the keys groups each
    // pair's stages, in position order.
    let mut keyed: Vec<(usize, usize)> = order
        .iter()
        .enumerate()
        .map(|(pos, id)| (graph.item(*id).stage_pair, pos))
        .collect();
    keyed.sort_unstable();
    keyed
        .chunk_by(|a, b| a.0 == b.0)
        .filter_map(|run| {
            let (mut fwd_pos, mut bwd_pos, mut base) = (None, None, StageTiming::default());
            for &(_, pos) in run {
                let item = graph.item(order[pos]);
                base.activation_bytes = item.activation_bytes;
                match item.direction {
                    Direction::Forward => {
                        fwd_pos = Some(pos);
                        base.fwd_s = item.duration;
                        base.p2p_bytes = item.p2p_bytes;
                    }
                    Direction::Backward => {
                        bwd_pos = Some(pos);
                        base.bwd_s = item.duration;
                    }
                }
            }
            Some(PairInfo {
                stage_pair: run[0].0,
                base,
                fwd_pos: fwd_pos?,
                bwd_pos: bwd_pos?,
            })
        })
        .collect()
}

/// The forward positions of a rank's pairs, sorted, each with its pair's
/// index: the index a constraint support is read from.
struct ForwardAnchors {
    sorted: Vec<(usize, u32)>,
    /// One bit per pair, all clear between calls to
    /// [`ForwardAnchors::support`].
    marks: Vec<u64>,
}

impl ForwardAnchors {
    fn new(infos: &[PairInfo]) -> Self {
        let mut sorted: Vec<(usize, u32)> = infos
            .iter()
            .enumerate()
            .map(|(k, info)| (info.fwd_pos, k as u32))
            .collect();
        sorted.sort_unstable();
        Self {
            sorted,
            marks: vec![0; infos.len().div_ceil(64)],
        }
    }

    /// The constraints `info` loads: the indices of the pairs whose
    /// forward position lies in `info`'s alive interval, strictly
    /// increasing. The interval's pairs are a slice of the sorted
    /// anchors; marking them in a bitset and reading the bits back in
    /// order puts them in pair order without a sort, and clears the bits.
    fn support(&mut self, info: &PairInfo) -> Vec<u32> {
        let lo = self.sorted.partition_point(|&(pos, _)| pos < info.fwd_pos);
        let hi = self.sorted.partition_point(|&(pos, _)| pos <= info.bwd_pos);
        let window = &self.sorted[lo..hi.max(lo)];
        for &(_, k) in window {
            self.marks[k as usize / 64] |= 1 << (k % 64);
        }
        let mut support = Vec::with_capacity(window.len());
        for (word, marks) in self.marks.iter_mut().enumerate() {
            let mut bits = std::mem::take(marks);
            while bits != 0 {
                support.push((word * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        support
    }
}

/// Estimated activation peak of one rank's order under a memory plan, using
/// the same anchored-interval approximation the optimiser itself uses.
pub fn estimated_peak_activation(
    graph: &StageGraph,
    order: &[dip_pipeline::StageId],
    plan: &MemoryPlan,
) -> u64 {
    let mut live: BTreeMap<usize, u64> = BTreeMap::new();
    let mut peak = 0u64;
    let mut current = 0u64;
    for id in order {
        let item = graph.item(*id);
        let strategy = plan.get(item.stage_pair);
        let base = StageTiming {
            fwd_s: 0.0,
            bwd_s: 0.0,
            activation_bytes: item.activation_bytes,
            p2p_bytes: item.p2p_bytes,
        };
        let resident = strategy.apply(&base).activation_bytes;
        match item.direction {
            Direction::Forward => {
                live.insert(item.stage_pair, resident);
                current += resident;
                peak = peak.max(current);
            }
            Direction::Backward => {
                if let Some(bytes) = live.remove(&item.stage_pair) {
                    current = current.saturating_sub(bytes);
                }
            }
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
    use dip_pipeline::{
        balanced_param_placement, dual_queue, DualQueueConfig, ParallelConfig, StageGraphBuilder,
        SubMicrobatchPlan,
    };
    use dip_sim::ClusterTopology;

    fn graph_and_orders(num_microbatches: usize) -> (StageGraph, RankOrders) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = balanced_param_placement(&spec, parallel, 1);
        let cluster = ClusterTopology::h800_cluster(2);
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(6502, 1))
            .with(Modality::Image, ModalityWorkload::new(1690, 10));
        let batches = vec![batch; num_microbatches];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let graph = builder.build(&batches, &plan).unwrap();
        let (orders, _) = dual_queue::schedule(&graph, &DualQueueConfig::default());
        (graph, orders)
    }

    #[test]
    fn generous_budget_keeps_everything_resident() {
        let (graph, orders) = graph_and_orders(4);
        let plan = optimize_memory_detailed(
            &graph,
            &orders,
            &vec![u64::MAX / 2; graph.num_ranks],
            &MemoryOptConfig::default(),
            1,
        )
        .unwrap()
        .plan;
        for rank in 0..graph.num_ranks {
            for id in orders.rank(rank) {
                let item = graph.item(*id);
                assert_eq!(plan.get(item.stage_pair), MemoryStrategy::NONE);
            }
        }
    }

    #[test]
    fn tight_budget_forces_memory_saving_strategies() {
        let (graph, orders) = graph_and_orders(8);
        // Measure the unconstrained peak, then demand a quarter of it.
        let none_plan = MemoryPlan::new();
        let unconstrained: Vec<u64> = orders
            .ranks()
            .map(|o| estimated_peak_activation(&graph, o, &none_plan))
            .collect();
        let budget: Vec<u64> = unconstrained.iter().map(|p| p / 4 + 1).collect();
        let plan =
            optimize_memory_detailed(&graph, &orders, &budget, &MemoryOptConfig::default(), 1)
                .unwrap()
                .plan;
        assert!(!plan.is_empty());
        // The optimised plan must respect the budget (by the optimiser's own
        // accounting) on every rank where a feasible choice exists.
        for (rank, order) in orders.ranks().enumerate() {
            let peak = estimated_peak_activation(&graph, order, &plan);
            let most_aggressive_plan = MemoryPlan::uniform(
                graph.num_stage_pairs,
                *MemoryStrategy::ladder(10).last().unwrap(),
            );
            let floor = estimated_peak_activation(&graph, order, &most_aggressive_plan);
            assert!(
                peak <= budget[rank].max(floor),
                "rank {rank}: peak {peak} > budget {}",
                budget[rank]
            );
        }
    }

    #[test]
    fn tighter_budgets_never_reduce_total_latency() {
        let (graph, orders) = graph_and_orders(6);
        let none_plan = MemoryPlan::new();
        let unconstrained: Vec<u64> = orders
            .ranks()
            .map(|o| estimated_peak_activation(&graph, o, &none_plan))
            .collect();
        let total_latency = |plan: &MemoryPlan| -> f64 {
            let ladder_base: f64 = graph
                .items()
                .iter()
                .map(|item| {
                    let strategy = plan.get(item.stage_pair);
                    let base = StageTiming {
                        fwd_s: if item.direction == Direction::Forward {
                            item.duration
                        } else {
                            0.0
                        },
                        bwd_s: if item.direction == Direction::Backward {
                            item.duration
                        } else {
                            0.0
                        },
                        activation_bytes: item.activation_bytes,
                        p2p_bytes: item.p2p_bytes,
                    };
                    let t = strategy.apply(&base);
                    t.fwd_s + t.bwd_s
                })
                .sum();
            ladder_base
        };
        let loose_budget: Vec<u64> = unconstrained.iter().map(|p| p * 2).collect();
        let tight_budget: Vec<u64> = unconstrained.iter().map(|p| p / 3 + 1).collect();
        let config = MemoryOptConfig::default();
        let loose = optimize_memory_detailed(&graph, &orders, &loose_budget, &config, 1)
            .unwrap()
            .plan;
        let tight = optimize_memory_detailed(&graph, &orders, &tight_budget, &config, 1)
            .unwrap()
            .plan;
        assert!(total_latency(&tight) >= total_latency(&loose) - 1e-9);
    }

    #[test]
    fn zero_candidates_is_a_solver_error() {
        let (graph, orders) = graph_and_orders(2);
        let config = MemoryOptConfig {
            candidates_per_pair: 0,
            ..MemoryOptConfig::default()
        };
        let err = optimize_memory_detailed(
            &graph,
            &orders,
            &vec![u64::MAX / 2; graph.num_ranks],
            &config,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, crate::DipError::Solver { .. }));
        assert!(err.to_string().contains("candidates_per_pair"));
    }

    #[test]
    fn parallel_memopt_matches_serial_byte_for_byte() {
        let (graph, orders) = graph_and_orders(8);
        let none_plan = MemoryPlan::new();
        let unconstrained: Vec<u64> = orders
            .ranks()
            .map(|o| estimated_peak_activation(&graph, o, &none_plan))
            .collect();
        // A binding budget so the ILP actually has to trade strategies.
        let budget: Vec<u64> = unconstrained.iter().map(|p| p / 4 + 1).collect();
        let config = MemoryOptConfig::default();
        let serial = optimize_memory_detailed(&graph, &orders, &budget, &config, 1).unwrap();
        for threads in [2usize, 4, 8, 64] {
            let parallel =
                optimize_memory_detailed(&graph, &orders, &budget, &config, threads).unwrap();
            assert_eq!(parallel.plan, serial.plan, "{threads} threads");
        }
        // A second serial run returns the same plan.
        assert_eq!(
            optimize_memory_detailed(&graph, &orders, &budget, &config, 1)
                .unwrap()
                .plan,
            serial.plan
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        /// The regression guarantee of the parallel decomposition: for any
        /// workload shape and any budget tightness, the parallel path is
        /// byte-identical to the serial one.
        #[test]
        fn parallel_memopt_is_identical_on_random_workloads(
            microbatches in 2usize..7,
            divisor in 1u64..8,
            threads in 2usize..9,
        ) {
            let (graph, orders) = graph_and_orders(microbatches);
            let none_plan = MemoryPlan::new();
            let budget: Vec<u64> = orders
                .ranks()
                .map(|o| estimated_peak_activation(&graph, o, &none_plan) / divisor + 1)
                .collect();
            let config = MemoryOptConfig::default();
            let serial =
                optimize_memory_detailed(&graph, &orders, &budget, &config, 1).unwrap();
            let parallel =
                optimize_memory_detailed(&graph, &orders, &budget, &config, threads).unwrap();
            proptest::prop_assert_eq!(parallel.plan, serial.plan);
        }
    }

    /// `rank_pairs` and `ForwardAnchors::support` as they were first
    /// written: the pairs collected through a `BTreeMap`, and each support
    /// scanned from every pair's anchor.
    fn reference_pairs_and_supports(
        graph: &StageGraph,
        order: &[dip_pipeline::StageId],
    ) -> (Vec<PairInfo>, Vec<Vec<u32>>) {
        type PendingPair = (Option<usize>, Option<usize>, Option<StageTiming>);
        let mut pairs: BTreeMap<usize, PendingPair> = BTreeMap::new();
        for (pos, id) in order.iter().enumerate() {
            let item = graph.item(*id);
            let entry = pairs.entry(item.stage_pair).or_insert((None, None, None));
            match item.direction {
                Direction::Forward => {
                    entry.0 = Some(pos);
                    let timing = entry.2.get_or_insert(StageTiming::default());
                    timing.fwd_s = item.duration;
                    timing.activation_bytes = item.activation_bytes;
                    timing.p2p_bytes = item.p2p_bytes;
                }
                Direction::Backward => {
                    entry.1 = Some(pos);
                    let timing = entry.2.get_or_insert(StageTiming::default());
                    timing.bwd_s = item.duration;
                    timing.activation_bytes = item.activation_bytes;
                }
            }
        }
        let infos: Vec<PairInfo> = pairs
            .into_iter()
            .filter_map(|(stage_pair, (f, b, t))| {
                Some(PairInfo {
                    stage_pair,
                    base: t?,
                    fwd_pos: f?,
                    bwd_pos: b?,
                })
            })
            .collect();
        let supports = infos
            .iter()
            .map(|info| {
                (0..infos.len() as u32)
                    .filter(|&k| (info.fwd_pos..=info.bwd_pos).contains(&infos[k as usize].fwd_pos))
                    .collect()
            })
            .collect();
        (infos, supports)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// The sorted pair collection and the anchor index give every rank
        /// the pairs, timings and supports of the map and the full scan —
        /// on the scheduler's orders, and on orders shuffled so that
        /// backwards can precede their forwards and stages can be missing
        /// or listed twice.
        #[test]
        fn pairs_and_supports_match_the_map_and_the_scan(
            microbatches in 1usize..7,
            shuffle_seed in 0u64..u64::MAX,
            mangle in 0usize..3,
        ) {
            let (graph, orders) = graph_and_orders(microbatches);
            let mut state = shuffle_seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for order in orders.ranks() {
                let mut order = order.to_vec();
                if mangle > 0 {
                    for i in (1..order.len()).rev() {
                        order.swap(i, (next() % (i as u64 + 1)) as usize);
                    }
                }
                if mangle > 1 && order.len() > 2 {
                    let dropped = (next() % order.len() as u64) as usize;
                    let repeated = order[(next() % order.len() as u64) as usize];
                    order.remove(dropped);
                    order.push(repeated);
                }
                let (infos, supports) = reference_pairs_and_supports(&graph, &order);
                let pairs = rank_pairs(&graph, &order);
                proptest::prop_assert_eq!(&pairs, &infos);
                let mut anchors = ForwardAnchors::new(&pairs);
                for (info, support) in pairs.iter().zip(&supports) {
                    proptest::prop_assert_eq!(&anchors.support(info), support);
                }
            }
        }
    }

    #[test]
    fn impossible_budget_falls_back_to_most_aggressive_strategy() {
        let (graph, orders) = graph_and_orders(4);
        let plan = optimize_memory_detailed(
            &graph,
            &orders,
            &vec![1; graph.num_ranks],
            &MemoryOptConfig::default(),
            1,
        )
        .unwrap()
        .plan;
        let most_aggressive = *MemoryStrategy::ladder(10).last().unwrap();
        let item = graph.item(orders.rank(0)[0]);
        assert_eq!(plan.get(item.stage_pair), most_aggressive);
    }
}
