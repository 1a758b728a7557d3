//! The monolithic-ILP scheduling baseline (§5.4, Fig. 12).
//!
//! Instead of DIP's decomposed three-phase search, the baseline formulates
//! the whole problem jointly: it enumerates segment orderings exhaustively
//! and, for each ordering, solves one *global* exact ILP that picks a memory
//! strategy for every stage pair of every pipeline rank simultaneously
//! (`p·n·S` variables, `p·n` constraints), with no optimality gap. The paper
//! solves this formulation with Gurobi/Z3; this reproduction uses the same
//! in-repo branch-and-bound engine, which exhibits the same exponential
//! growth in solve effort as the number of microbatches increases.
//!
//! The search is bounded by a budget of branch-and-bound nodes, not by a
//! clock, so its result and node count are the same on any machine.

use dip_pipeline::{dual_queue, Direction, DualQueueConfig, MemoryStrategy, StageGraph};
use dip_sim::StageTiming;
use dip_solver::{Candidate, GroupChoiceProblem, SolveOptions};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The result of a monolithic-ILP search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonolithicResult {
    /// Best simulated iteration time found (seconds); infinite if no ILP
    /// found a feasible selection within the node budget.
    pub best_time_s: f64,
    /// Wall-clock time spent searching (reported only; it decides nothing).
    pub search_time: Duration,
    /// Whether the search spent its whole node budget (and so may have
    /// stopped before trying every ordering).
    pub budget_exhausted: bool,
    /// Number of (ordering, ILP) subproblems that yielded a feasible selection.
    pub subproblems_solved: u64,
    /// Branch-and-bound nodes explored across all ILP solves.
    pub ilp_nodes: u64,
    /// Constraint entries stored across all ILPs built (see
    /// [`dip_solver::GroupChoiceProblem::constraint_entries`]): each stage
    /// pair's support once, where dense weight rows would hold
    /// `constraints × candidates` entries per pair.
    pub constraint_entries: u64,
}

/// Runs the monolithic baseline over a stage graph with `num_segments`
/// placement segments and per-rank activation budgets `capacity_per_rank`.
///
/// `candidates_per_pair` is the size of the memory-strategy ladder (the
/// paper's `S`); `node_budget` caps the branch-and-bound nodes explored
/// across the whole search.
pub fn monolithic_ilp_search(
    graph: &StageGraph,
    num_segments: usize,
    capacity_per_rank: &[u64],
    candidates_per_pair: usize,
    node_budget: u64,
) -> MonolithicResult {
    let start = Instant::now();
    let ladder = MemoryStrategy::ladder(candidates_per_pair);
    let mut best_time = f64::INFINITY;
    let mut subproblems = 0u64;
    let mut ilp_nodes = 0u64;
    let mut constraint_entries = 0u64;

    let mut orderings = Permutations::new(num_segments.max(1));
    while ilp_nodes < node_budget {
        let Some(ordering) = orderings.next_permutation() else {
            break;
        };
        // Fix the interleaving implied by this ordering.
        let n = ordering.len();
        let mut priorities = vec![0i64; n];
        for (pos, &seg) in ordering.iter().enumerate() {
            priorities[seg] = (n - pos) as i64;
        }
        let queue = DualQueueConfig {
            segment_priorities: priorities,
            memory_limit: Some(capacity_per_rank.to_vec()),
            ..DualQueueConfig::default()
        };
        let (orders, makespan) = dual_queue::schedule(graph, &queue);

        // Global exact ILP over every rank's stage pairs at once.
        // Constraints: for every rank, one per stage pair anchored at its
        // forward position.
        let mut pair_intervals: Vec<(usize, usize, usize, StageTiming)> = Vec::new(); // (rank, fwd_pos, bwd_pos, base)
        for (rank, order) in orders.ranks().enumerate() {
            let mut fwd_pos = std::collections::BTreeMap::new();
            let mut bases: std::collections::BTreeMap<usize, StageTiming> =
                std::collections::BTreeMap::new();
            for (pos, id) in order.iter().enumerate() {
                let item = graph.item(*id);
                let base = bases.entry(item.stage_pair).or_default();
                match item.direction {
                    Direction::Forward => {
                        fwd_pos.insert(item.stage_pair, pos);
                        base.fwd_s = item.duration;
                        base.activation_bytes = item.activation_bytes;
                    }
                    Direction::Backward => {
                        base.bwd_s = item.duration;
                        if let Some(&f) = fwd_pos.get(&item.stage_pair) {
                            pair_intervals.push((rank, f, pos, bases[&item.stage_pair]));
                        }
                    }
                }
            }
        }
        let capacities = pair_intervals
            .iter()
            .map(|(rank, ..)| capacity_per_rank.get(*rank).copied().unwrap_or(u64::MAX) as f64)
            .collect();
        let mut problem = GroupChoiceProblem::new(capacities);
        for (rank, fwd, bwd, base) in &pair_intervals {
            // The constraints of this rank anchored inside the pair's
            // alive interval.
            let support: Vec<u32> = (0..pair_intervals.len() as u32)
                .filter(|&k| {
                    let (r2, f2, ..) = &pair_intervals[k as usize];
                    r2 == rank && (fwd..=bwd).contains(&f2)
                })
                .collect();
            let candidates: Vec<Candidate> = ladder
                .iter()
                .map(|s| {
                    let t = s.apply(base);
                    Candidate::new(t.fwd_s + t.bwd_s, t.activation_bytes as f64)
                })
                .collect();
            problem.add_group(support, candidates);
        }
        constraint_entries += problem.constraint_entries();

        let solution = dip_solver::ilp::solve(
            &problem,
            &SolveOptions {
                node_limit: Some(node_budget.saturating_sub(ilp_nodes)),
                optimality_gap: 0.0,
                warm_start: false,
            },
        );
        ilp_nodes += solution.nodes_explored;
        if solution.is_feasible() {
            subproblems += 1;
            // Estimate the resulting iteration time: the interleaving's
            // makespan plus the extra recomputation latency the ILP accepted.
            let baseline_latency: f64 = pair_intervals
                .iter()
                .map(|(_, _, _, b)| b.fwd_s + b.bwd_s)
                .sum();
            let extra = (solution.objective - baseline_latency).max(0.0);
            best_time = best_time.min(makespan + extra / graph.num_ranks.max(1) as f64);
        }
    }

    MonolithicResult {
        best_time_s: best_time,
        search_time: start.elapsed(),
        budget_exhausted: ilp_nodes >= node_budget,
        subproblems_solved: subproblems,
        ilp_nodes,
        constraint_entries,
    }
}

/// Plain lexicographic permutation generator (avoids allocating all `n!`
/// permutations up front).
struct Permutations {
    current: Vec<usize>,
    first: bool,
    done: bool,
}

impl Permutations {
    fn new(n: usize) -> Self {
        Self {
            current: (0..n).collect(),
            first: true,
            done: false,
        }
    }

    fn next_permutation(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        if self.first {
            self.first = false;
            return Some(self.current.clone());
        }
        // Standard next-permutation algorithm.
        let v = &mut self.current;
        let n = v.len();
        if n < 2 {
            self.done = true;
            return None;
        }
        let mut i = n - 1;
        while i > 0 && v[i - 1] >= v[i] {
            i -= 1;
        }
        if i == 0 {
            self.done = true;
            return None;
        }
        let mut j = n - 1;
        while v[j] <= v[i - 1] {
            j -= 1;
        }
        v.swap(i - 1, j);
        v[i..].reverse();
        Some(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
    use dip_pipeline::{separated_placement, ParallelConfig, StageGraphBuilder, SubMicrobatchPlan};
    use dip_sim::ClusterTopology;
    use std::collections::BTreeMap;

    fn graph(num_microbatches: usize) -> (StageGraph, usize) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = separated_placement(&spec, parallel, &BTreeMap::new());
        let cluster = ClusterTopology::h800_cluster(2);
        let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(6502, 1))
            .with(Modality::Image, ModalityWorkload::new(1690, 10));
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), num_microbatches);
        let g = builder
            .build(&vec![batch; num_microbatches], &plan)
            .unwrap();
        let n = placement.segments.len();
        (g, n)
    }

    #[test]
    fn permutation_generator_enumerates_all_orderings() {
        let mut p = Permutations::new(3);
        let mut count = 0;
        while p.next_permutation().is_some() {
            count += 1;
        }
        assert_eq!(count, 6);
        let mut single = Permutations::new(1);
        assert_eq!(single.next_permutation(), Some(vec![0]));
        assert_eq!(single.next_permutation(), None);
    }

    /// Searches under a binding activation budget — a quarter of the
    /// unconstrained peak, as in fig12 — so the ILPs have to branch.
    fn search(graph: &StageGraph, n: usize, node_budget: u64) -> MonolithicResult {
        let unconstrained: u64 = graph.items_on_rank(0).map(|i| i.activation_bytes / 2).sum();
        let capacity = vec![unconstrained / 4; graph.num_ranks];
        monolithic_ilp_search(graph, n, &capacity, 4, node_budget)
    }

    #[test]
    fn monolithic_search_finds_a_schedule_on_tiny_instances() {
        let (g, n) = graph(2);
        let result = search(&g, n, u64::MAX);
        assert!(!result.budget_exhausted);
        assert!(result.best_time_s.is_finite());
        assert!(result.subproblems_solved >= 1);
    }

    #[test]
    fn monolithic_search_stops_at_its_node_budget() {
        let (g, n) = graph(6);
        let budget = 2_000;
        let result = search(&g, n, budget);
        assert!(result.budget_exhausted);
        assert!(result.ilp_nodes >= budget);
        // The budget is counted, not clocked: a rerun explores exactly the
        // same nodes and finds the same schedule.
        let rerun = search(&g, n, budget);
        assert_eq!(rerun.ilp_nodes, result.ilp_nodes);
        assert_eq!(rerun.best_time_s.to_bits(), result.best_time_s.to_bits());
    }

    #[test]
    fn search_effort_grows_with_microbatch_count() {
        let budget = 200_000;
        let (small, n) = graph(2);
        let (large, _) = graph(6);
        let small = search(&small, n, budget);
        let large = search(&large, n, budget);
        assert!(!small.budget_exhausted);
        assert!(large.budget_exhausted);
        assert!(
            large.ilp_nodes >= small.ilp_nodes,
            "{} < {}",
            large.ilp_nodes,
            small.ilp_nodes
        );
    }
}
