//! A branch-and-bound solver for *group-choice* integer programs:
//!
//! * variables are grouped; exactly one candidate must be chosen per group
//!   (the `Σ_j o_{i,j} = 1` selection constraints of §5.3);
//! * every linear constraint has non-negative coefficients and an upper
//!   bound (the peak-memory constraints of §5.3);
//! * the objective is the sum of the chosen candidates' costs, minimised.
//!
//! The solver supports a greedy warm start, an optimality-gap early exit and
//! a branch-and-bound node budget — the paper's three ingredients for
//! bringing per-instance solve time under 10 ms (§5.3 "Optimizations"),
//! with the paper's time limit counted in nodes rather than read from a
//! clock, so a solve returns the same answer on any machine.
//!
//! # Sparse constraint supports
//!
//! In the memory ILPs a stage pair loads exactly the constraints whose
//! anchor falls inside its alive interval, and each candidate strategy
//! loads all of them with the same bytes. So a group stores its
//! *support* — the constraints it loads, as sorted indices — once, and a
//! [`Candidate`] stores one scalar weight that applies to every constraint
//! in that support and to no other. A problem stores
//! [`GroupChoiceProblem::constraint_entries`] support entries where one
//! dense weight row per candidate would store `candidates × constraints`,
//! and every check and update touches only a support.
//!
//! Skipping the zero entries a dense row would hold changes no result:
//! adding or subtracting a zero leaves a float's bits unchanged, and,
//! because weights are non-negative, a constraint outside a candidate's
//! support can only reject it once that constraint is already over its
//! capacity. The search takes only candidates that fit, and backtracking
//! only lowers a usage, so a constraint is over capacity only if it is at
//! the root, before anything is chosen (a negative capacity): then every
//! candidate is rejected, exactly as a dense check would. The greedy warm
//! start also takes candidates that do not fit, so it tracks whether any
//! constraint has gone over.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The slack every capacity check allows.
const TOLERANCE: f64 = 1e-9;

/// Whether a constraint with `remaining` capacity left is over capacity:
/// it rejects even a zero load (`0 ≤ remaining + TOLERANCE` fails, as it
/// does for NaN).
fn over_capacity(remaining: f64) -> bool {
    !matches!(
        (remaining + TOLERANCE).partial_cmp(&0.0),
        Some(Ordering::Greater | Ordering::Equal)
    )
}

/// One selectable candidate within a group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Contribution to the objective (e.g. latency).
    pub cost: f64,
    /// Contribution to each constraint of its group's support (e.g. bytes
    /// of memory occupied while a constraint's time window is active):
    /// finite and non-negative.
    pub weight: f64,
}

impl Candidate {
    /// A candidate with the given cost and constraint weight.
    pub fn new(cost: f64, weight: f64) -> Self {
        Self { cost, weight }
    }
}

/// One group: the constraints its candidates load, and the candidates, of
/// which exactly one is chosen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Group {
    /// The constraints every candidate loads, strictly increasing.
    support: Vec<u32>,
    candidates: Vec<Candidate>,
}

/// A group-choice ILP instance.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GroupChoiceProblem {
    groups: Vec<Group>,
    capacities: Vec<f64>,
}

impl GroupChoiceProblem {
    /// Creates an empty problem with the given constraint capacities (the
    /// right-hand sides of the `≤` constraints).
    pub fn new(capacities: Vec<f64>) -> Self {
        Self {
            groups: Vec::new(),
            capacities,
        }
    }

    /// Appends a group whose candidates each load every constraint in
    /// `support` with their weight, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `support` is not strictly increasing, names a constraint
    /// the problem does not have, or a candidate's weight is negative or
    /// not finite.
    pub fn add_group(&mut self, support: Vec<u32>, candidates: Vec<Candidate>) -> usize {
        assert!(
            support.windows(2).all(|w| w[0] < w[1]),
            "a group's support must be strictly increasing"
        );
        assert!(
            support
                .last()
                .is_none_or(|&k| (k as usize) < self.capacities.len()),
            "a group's support names a constraint the problem does not have"
        );
        assert!(
            candidates
                .iter()
                .all(|c| c.weight.is_finite() && c.weight >= 0.0),
            "candidate weights must be finite and non-negative"
        );
        self.groups.push(Group {
            support,
            candidates,
        });
        self.groups.len() - 1
    }

    /// The constraint entries the problem stores: the summed support
    /// lengths of its groups.
    pub fn constraint_entries(&self) -> u64 {
        self.groups.iter().map(|g| g.support.len() as u64).sum()
    }

    /// Evaluates the objective of a selection (one index per group).
    ///
    /// # Panics
    ///
    /// Panics if `selection` has the wrong length or an index is out of range.
    pub fn objective(&self, selection: &[usize]) -> f64 {
        assert_eq!(selection.len(), self.groups.len());
        selection
            .iter()
            .zip(&self.groups)
            .map(|(&i, g)| g.candidates[i].cost)
            .sum()
    }

    /// Checks whether a selection satisfies every constraint.
    pub fn is_feasible(&self, selection: &[usize]) -> bool {
        if selection.len() != self.groups.len() {
            return false;
        }
        let mut lhs = vec![0.0f64; self.capacities.len()];
        for (&i, group) in selection.iter().zip(&self.groups) {
            let weight = group.candidates[i].weight;
            for &k in &group.support {
                lhs[k as usize] += weight;
            }
        }
        !lhs.iter()
            .zip(&self.capacities)
            .any(|(&lhs, &cap)| lhs > cap + TOLERANCE)
    }

    /// A greedy warm start: for each group pick the cheapest candidate that
    /// keeps all constraints satisfiable; if none does, pick the candidate
    /// with the smallest summed constraint load. Returns `None` if the
    /// result is infeasible.
    pub fn greedy_solution(&self) -> Option<Vec<usize>> {
        let mut remaining = self.capacities.clone();
        // Whether a constraint is already over capacity; nothing fits then,
        // and remaining capacity only shrinks.
        let mut overflowed = remaining.iter().any(|&r| over_capacity(r));
        let mut selection = Vec::with_capacity(self.groups.len());
        for group in &self.groups {
            let candidates = &group.candidates;
            let mut best: Option<usize> = None;
            if !overflowed {
                // A weight fits every constraint of the support exactly
                // when it fits the tightest one (none is NaN here).
                let slack = group
                    .support
                    .iter()
                    .map(|&k| remaining[k as usize] + TOLERANCE)
                    .fold(f64::INFINITY, f64::min);
                for (idx, cand) in candidates.iter().enumerate() {
                    let fits = cand.weight <= slack;
                    if fits && best.is_none_or(|b| cand.cost < candidates[b].cost) {
                        best = Some(idx);
                    }
                }
            }
            let pick = best.or_else(|| {
                // Nothing fits: take the least-overflowing candidate and hope
                // later groups leave slack (they will not; the caller detects
                // infeasibility at the end). A candidate's load is its weight
                // summed over the support, one addition per constraint.
                let load = |c: &Candidate| -> f64 { group.support.iter().map(|_| c.weight).sum() };
                candidates
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        load(a).partial_cmp(&load(b)).unwrap_or(Ordering::Equal)
                    })
                    .map(|(i, _)| i)
            })?;
            for &k in &group.support {
                let r = &mut remaining[k as usize];
                *r -= candidates[pick].weight;
                overflowed |= over_capacity(*r);
            }
            selection.push(pick);
        }
        if self.is_feasible(&selection) {
            Some(selection)
        } else {
            None
        }
    }
}

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Budget on explored branch-and-bound nodes; the best incumbent found
    /// so far is returned when hit. A node budget yields the same solution
    /// on any machine — the memory optimiser derives it from its (virtual)
    /// time limit via a calibrated per-node cost model so its plans are
    /// reproducible.
    pub node_limit: Option<u64>,
    /// Relative optimality gap that permits early termination (e.g. `0.05`).
    pub optimality_gap: f64,
    /// Whether to seed the search with [`GroupChoiceProblem::greedy_solution`].
    pub warm_start: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            node_limit: None,
            optimality_gap: 0.0,
            warm_start: true,
        }
    }
}

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// Proven optimal (within floating-point tolerance).
    Optimal,
    /// Stopped early because the incumbent is within the requested gap.
    WithinGap,
    /// Stopped at the node budget, with the best incumbent found so far or
    /// — when none was found — an empty selection and an infinite objective.
    NodeLimit,
    /// Proven infeasible: no selection satisfies every constraint.
    Infeasible,
}

/// A solver result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Chosen candidate index per group (empty when none was found).
    pub selection: Vec<usize>,
    /// Objective value of the selection (`f64::INFINITY` when none was found).
    pub objective: f64,
    /// Termination reason.
    pub status: SolveStatus,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: u64,
}

impl Solution {
    /// True if a feasible selection was produced.
    pub fn is_feasible(&self) -> bool {
        self.objective.is_finite()
    }
}

/// Solves a [`GroupChoiceProblem`] by depth-first branch and bound.
///
/// Groups are branched in order of decreasing cost spread (most impactful
/// first); within a group, candidates are tried cheapest-first. The lower
/// bound of a partial assignment is its cost plus the sum of each remaining
/// group's cheapest candidate — admissible because all costs are
/// non-negative contributions.
pub fn solve(problem: &GroupChoiceProblem, options: &SolveOptions) -> Solution {
    if problem.groups.is_empty() {
        return Solution {
            selection: Vec::new(),
            objective: 0.0,
            status: SolveStatus::Optimal,
            nodes_explored: 0,
        };
    }
    if problem.groups.iter().any(|g| g.candidates.is_empty()) {
        return Solution {
            selection: Vec::new(),
            objective: f64::INFINITY,
            status: SolveStatus::Infeasible,
            nodes_explored: 0,
        };
    }

    // Branch order: groups with the largest cost spread first.
    let cheapest = |g: &Group| {
        g.candidates
            .iter()
            .map(|c| c.cost)
            .fold(f64::INFINITY, f64::min)
    };
    let spreads: Vec<f64> = problem
        .groups
        .iter()
        .map(|g| {
            let max = g
                .candidates
                .iter()
                .map(|c| c.cost)
                .fold(f64::NEG_INFINITY, f64::max);
            max - cheapest(g)
        })
        .collect();
    let mut order: Vec<usize> = (0..problem.groups.len()).collect();
    order.sort_by(|&a, &b| {
        spreads[b]
            .partial_cmp(&spreads[a])
            .unwrap_or(Ordering::Equal)
    });

    // Per-group candidate order: cheapest first.
    let sorted_candidates: Vec<Vec<usize>> = problem
        .groups
        .iter()
        .map(|g| {
            let g = &g.candidates;
            let mut idx: Vec<usize> = (0..g.len()).collect();
            idx.sort_by(|&x, &y| g[x].cost.partial_cmp(&g[y].cost).unwrap_or(Ordering::Equal));
            idx
        })
        .collect();

    // Suffix minimum cost along the branch order (for the lower bound).
    let mut suffix_min = vec![0.0f64; order.len() + 1];
    for d in (0..order.len()).rev() {
        suffix_min[d] = suffix_min[d + 1] + cheapest(&problem.groups[order[d]]);
    }

    let mut incumbent: Option<Vec<usize>> = if options.warm_start {
        problem.greedy_solution()
    } else {
        None
    };
    let mut incumbent_cost = incumbent
        .as_ref()
        .map(|s| problem.objective(s))
        .unwrap_or(f64::INFINITY);

    // Total prune threshold for the current incumbent (it only moves when
    // the incumbent does).
    let mut cutoff = incumbent_cost * (1.0 - options.optimality_gap).max(0.0);

    let mut nodes = 0u64;
    let mut selection = vec![usize::MAX; problem.groups.len()];
    // `prefix[d]`: the summed cost of the candidates chosen at depths
    // `0..d` on the current path, added in depth order from the value an
    // empty `f64` sum starts at, so each entry has the bits of summing the
    // path from scratch.
    let mut prefix = vec![std::iter::empty::<f64>().sum::<f64>(); problem.groups.len() + 1];
    let mut usage = vec![0.0f64; problem.capacities.len()];
    // A constraint over capacity before anything is chosen rejects every
    // candidate; no other constraint ever goes over (see the module docs).
    let over_at_root = problem.capacities.iter().any(|&cap| over_capacity(cap));
    let mut node_budget_hit = false;
    let mut gap_exit = false;

    // Iterative DFS with explicit stack of (depth, next candidate position).
    struct Frame {
        depth: usize,
        cand_pos: usize,
    }
    let mut stack = vec![Frame {
        depth: 0,
        cand_pos: 0,
    }];

    'search: while let Some(frame) = stack.last_mut() {
        if options.node_limit.is_some_and(|cap| nodes >= cap) {
            node_budget_hit = true;
            break 'search;
        }
        let depth = frame.depth;
        if depth == problem.groups.len() {
            // Complete assignment.
            let cost = problem.objective(&selection);
            if cost < incumbent_cost {
                incumbent_cost = cost;
                incumbent = Some(selection.clone());
                cutoff = incumbent_cost * (1.0 - options.optimality_gap).max(0.0);
            }
            stack.pop();
            if let Some(parent) = stack.last() {
                undo(problem, &order, parent.depth, &mut selection, &mut usage);
            }
            continue;
        }
        let group_idx = order[depth];
        let group = &problem.groups[group_idx];
        let support = &group.support;
        let cand_order = &sorted_candidates[group_idx];

        // Find the next candidate to try at this depth.
        let mut advanced = false;
        while frame.cand_pos < cand_order.len() {
            let cand_idx = cand_order[frame.cand_pos];
            frame.cand_pos += 1;
            nodes += 1;
            let cand = group.candidates[cand_idx];

            // Bound: cost so far + this candidate + cheapest completion.
            let bound = prefix[depth] + cand.cost + suffix_min[depth + 1];
            if bound >= cutoff && incumbent_cost.is_finite() {
                continue;
            }
            // Feasibility: constraints are monotone, prune on violation.
            let fits = !over_at_root
                && support.iter().all(|&k| {
                    let k = k as usize;
                    usage[k] + cand.weight <= problem.capacities[k] + TOLERANCE
                });
            if !fits {
                continue;
            }
            // Take the candidate.
            selection[group_idx] = cand_idx;
            prefix[depth + 1] = prefix[depth] + cand.cost;
            // Every updated constraint passed the check above with this
            // very sum, so none goes over capacity.
            for &k in support {
                usage[k as usize] += cand.weight;
            }
            stack.push(Frame {
                depth: depth + 1,
                cand_pos: 0,
            });
            advanced = true;
            break;
        }
        if !advanced {
            // Exhausted this group's candidates; backtrack.
            stack.pop();
            if let Some(parent) = stack.last() {
                undo(problem, &order, parent.depth, &mut selection, &mut usage);
            }
        }
        // Gap-based early exit: the global lower bound is the root's suffix
        // minimum; if the incumbent is within the gap of it, stop.
        if incumbent_cost.is_finite()
            && options.optimality_gap > 0.0
            && incumbent_cost <= suffix_min[0] * (1.0 + options.optimality_gap)
        {
            gap_exit = true;
            break 'search;
        }
    }

    let status = if node_budget_hit {
        SolveStatus::NodeLimit
    } else if gap_exit {
        SolveStatus::WithinGap
    } else if incumbent.is_some() {
        SolveStatus::Optimal
    } else {
        SolveStatus::Infeasible
    };
    Solution {
        selection: incumbent.unwrap_or_default(),
        objective: incumbent_cost,
        status,
        nodes_explored: nodes,
    }
}

/// Removes the contribution of the candidate previously chosen at `depth`.
fn undo(
    problem: &GroupChoiceProblem,
    order: &[usize],
    depth: usize,
    selection: &mut [usize],
    usage: &mut [f64],
) {
    let group_idx = order[depth];
    let cand_idx = selection[group_idx];
    if cand_idx == usize::MAX {
        return;
    }
    let group = &problem.groups[group_idx];
    let weight = group.candidates[cand_idx].weight;
    for &k in &group.support {
        usage[k as usize] -= weight;
    }
    selection[group_idx] = usize::MAX;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Appends a group loading `support` with candidates `(cost, weight)`.
    fn group(p: &mut GroupChoiceProblem, support: &[u32], candidates: &[(f64, f64)]) {
        p.add_group(
            support.to_vec(),
            candidates
                .iter()
                .map(|&(cost, weight)| Candidate::new(cost, weight))
                .collect(),
        );
    }

    fn brute_force(problem: &GroupChoiceProblem) -> Option<f64> {
        let groups = &problem.groups;
        let mut best: Option<f64> = None;
        let mut indices = vec![0usize; groups.len()];
        if groups.iter().any(|g| g.candidates.is_empty()) {
            return None;
        }
        loop {
            if problem.is_feasible(&indices) {
                let cost = problem.objective(&indices);
                if best.is_none_or(|b| cost < b) {
                    best = Some(cost);
                }
            }
            let mut k = groups.len();
            loop {
                if k == 0 {
                    return best;
                }
                k -= 1;
                indices[k] += 1;
                if indices[k] < groups[k].candidates.len() {
                    break;
                }
                indices[k] = 0;
            }
        }
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let sol = solve(&GroupChoiceProblem::default(), &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn unconstrained_problem_picks_cheapest_per_group() {
        let mut p = GroupChoiceProblem::new(vec![]);
        group(&mut p, &[], &[(5.0, 0.0), (2.0, 0.0), (9.0, 0.0)]);
        group(&mut p, &[], &[(1.0, 0.0), (4.0, 0.0)]);
        let sol = solve(&p, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 3.0).abs() < 1e-9);
        assert_eq!(sol.selection, vec![1, 0]);
    }

    #[test]
    fn memory_constraint_forces_a_tradeoff() {
        // Cheapest picks use 10 + 10 = 20 > 15, so one group must switch to a
        // slower but lighter candidate.
        let mut p = GroupChoiceProblem::new(vec![15.0]);
        group(&mut p, &[0], &[(1.0, 10.0), (3.0, 4.0)]);
        group(&mut p, &[0], &[(1.0, 10.0), (5.0, 4.0)]);
        let sol = solve(&p, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(
            (sol.objective - 4.0).abs() < 1e-9,
            "objective {}",
            sol.objective
        );
        assert!(p.is_feasible(&sol.selection));
    }

    #[test]
    fn detects_infeasibility() {
        let mut p = GroupChoiceProblem::new(vec![5.0]);
        group(&mut p, &[0], &[(1.0, 10.0)]);
        let sol = solve(&p, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Infeasible);
        assert!(!sol.is_feasible());
        assert!(sol.objective.is_infinite());
    }

    #[test]
    fn empty_group_is_infeasible() {
        let mut p = GroupChoiceProblem::new(vec![]);
        group(&mut p, &[], &[]);
        let sol = solve(&p, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn a_negative_capacity_outside_every_support_still_rejects_everything() {
        // Constraint 1 is over capacity before anything is chosen and no
        // group loads it: no selection is feasible, and the search tries
        // (and rejects) every candidate of the first group it branches on.
        let mut p = GroupChoiceProblem::new(vec![10.0, -1.0]);
        group(&mut p, &[0], &[(1.0, 2.0), (2.0, 1.0)]);
        group(&mut p, &[0], &[(1.0, 2.0), (3.0, 1.0)]);
        assert_eq!(p.greedy_solution(), None);
        let sol = solve(&p, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Infeasible);
        assert_eq!(sol.nodes_explored, 2);
    }

    #[test]
    fn constraint_entries_count_each_support_once() {
        let mut p = GroupChoiceProblem::new(vec![1.0; 4]);
        group(&mut p, &[0, 2, 3], &[(1.0, 1.0); 10]);
        group(&mut p, &[], &[(1.0, 0.0); 3]);
        group(&mut p, &[1], &[(1.0, 0.5); 2]);
        assert_eq!(p.constraint_entries(), 4);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn an_unsorted_support_is_rejected() {
        let mut p = GroupChoiceProblem::new(vec![1.0; 3]);
        group(&mut p, &[2, 1], &[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn a_negative_weight_is_rejected() {
        let mut p = GroupChoiceProblem::new(vec![1.0]);
        group(&mut p, &[0], &[(1.0, -1.0)]);
    }

    #[test]
    fn warm_start_matches_cold_start_objective() {
        let mut p = GroupChoiceProblem::new(vec![30.0, 25.0]);
        for i in 0..6 {
            let support: &[u32] = [&[0][..], &[1], &[0, 1]][i % 3];
            group(
                &mut p,
                support,
                &[(1.0 + i as f64, 8.0), (4.0 + i as f64, 3.0), (9.0, 1.0)],
            );
        }
        let warm = solve(&p, &SolveOptions::default());
        let cold = solve(
            &p,
            &SolveOptions {
                warm_start: false,
                ..SolveOptions::default()
            },
        );
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn optimality_gap_allows_early_exit_with_bounded_regret() {
        let mut p = GroupChoiceProblem::new(vec![100.0]);
        for i in 0..8 {
            group(&mut p, &[0], &[(10.0, 6.0 + (i % 3) as f64), (10.4, 2.0)]);
        }
        let exact = solve(&p, &SolveOptions::default());
        let approx = solve(
            &p,
            &SolveOptions {
                optimality_gap: 0.05,
                ..SolveOptions::default()
            },
        );
        assert!(approx.is_feasible());
        assert!(approx.objective <= exact.objective * 1.05 + 1e-9);
    }

    #[test]
    fn greedy_solution_is_feasible_when_returned() {
        // Loose capacity: greedy succeeds and is feasible.
        let mut p = GroupChoiceProblem::new(vec![20.0]);
        group(&mut p, &[0], &[(1.0, 10.0), (2.0, 5.0)]);
        group(&mut p, &[0], &[(1.0, 10.0), (2.0, 5.0)]);
        let greedy = p.greedy_solution().unwrap();
        assert!(p.is_feasible(&greedy));

        // Tight capacity: the myopic greedy may fail even though a feasible
        // selection exists; the exact solver must still find it.
        let mut tight = GroupChoiceProblem::new(vec![12.0]);
        group(&mut tight, &[0], &[(1.0, 10.0), (2.0, 5.0)]);
        group(&mut tight, &[0], &[(1.0, 10.0), (2.0, 5.0)]);
        if let Some(sel) = tight.greedy_solution() {
            assert!(tight.is_feasible(&sel));
        }
        let sol = solve(&tight, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn node_limit_returns_incumbent_deterministically() {
        // No warm start, so the incumbent must come from the tree search —
        // a budget of 40 nodes reaches one complete assignment (30 groups)
        // and then stops, exercising the budget-bounded exit.
        let mut p = GroupChoiceProblem::new(vec![1e12]);
        for i in 0..30 {
            group(
                &mut p,
                &[0],
                &[(1.0 + (i % 5) as f64, 1.0), (2.0, 0.5), (3.0, 0.1)],
            );
        }
        let bounded = SolveOptions {
            node_limit: Some(40),
            warm_start: false,
            ..SolveOptions::default()
        };
        let a = solve(&p, &bounded);
        let b = solve(&p, &bounded);
        assert_eq!(a.status, SolveStatus::NodeLimit);
        assert!(a.is_feasible());
        // Same budget ⇒ bit-identical solution (the budget is counted, not
        // clocked, so this holds on any machine).
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.nodes_explored, b.nodes_explored);

        // A generous node budget proves optimality like the unbounded solve.
        let generous = solve(
            &p,
            &SolveOptions {
                node_limit: Some(u64::MAX),
                ..SolveOptions::default()
            },
        );
        let unbounded = solve(&p, &SolveOptions::default());
        assert_eq!(generous.status, SolveStatus::Optimal);
        assert_eq!(generous.selection, unbounded.selection);
    }

    #[test]
    fn node_limit_without_an_incumbent_is_not_infeasibility() {
        // A feasible problem whose 30 groups need more than 10 nodes to
        // reach a first complete assignment: without a warm start, the
        // budget runs out before any incumbent exists. That proves nothing
        // about feasibility, so the status is `NodeLimit`, not `Infeasible`.
        let mut p = GroupChoiceProblem::new(vec![1e12]);
        for _ in 0..30 {
            group(&mut p, &[0], &[(1.0, 1.0), (2.0, 0.5)]);
        }
        let sol = solve(
            &p,
            &SolveOptions {
                node_limit: Some(10),
                warm_start: false,
                ..SolveOptions::default()
            },
        );
        assert_eq!(sol.status, SolveStatus::NodeLimit);
        assert!(!sol.is_feasible());
        assert!(sol.selection.is_empty());
        assert!(sol.objective.is_infinite());
        assert_eq!(sol.nodes_explored, 10);
    }

    proptest! {
        #[test]
        fn solver_matches_brute_force_on_small_instances(
            groups in prop::collection::vec(
                prop::collection::vec((0.0f64..20.0, 0.0f64..10.0), 1..4),
                1..5,
            ),
            capacity in 5.0f64..30.0,
        ) {
            let mut p = GroupChoiceProblem::new(vec![capacity]);
            for g in groups {
                group(&mut p, &[0], &g);
            }
            let sol = solve(&p, &SolveOptions::default());
            let brute = brute_force(&p);
            match (brute, sol.status) {
                (Some(best), SolveStatus::Optimal) => {
                    prop_assert!((sol.objective - best).abs() < 1e-6,
                        "solver {} vs brute {}", sol.objective, best);
                    prop_assert!(p.is_feasible(&sol.selection));
                }
                (None, SolveStatus::Infeasible) => {}
                (b, s) => prop_assert!(false, "mismatch: brute {b:?}, status {s:?}"),
            }
        }
    }

    /// The solver as it was with one dense weight row per candidate
    /// (`weights[k]`, zero outside the group's support), kept as the
    /// reference the support-set solver must reproduce field by field.
    mod dense {
        use super::super::{Solution, SolveOptions, SolveStatus};

        pub struct Candidate {
            pub cost: f64,
            pub weights: Vec<f64>,
        }

        pub struct Problem {
            pub groups: Vec<Vec<Candidate>>,
            pub capacities: Vec<f64>,
        }

        impl Problem {
            /// Expands every candidate's weight over its group's support
            /// into a dense row.
            pub fn expand(problem: &super::GroupChoiceProblem) -> Self {
                let constraints = problem.capacities.len();
                let groups = problem
                    .groups
                    .iter()
                    .map(|g| {
                        g.candidates
                            .iter()
                            .map(|c| {
                                let mut weights = vec![0.0; constraints];
                                for &k in &g.support {
                                    weights[k as usize] = c.weight;
                                }
                                Candidate {
                                    cost: c.cost,
                                    weights,
                                }
                            })
                            .collect()
                    })
                    .collect();
                Self {
                    groups,
                    capacities: problem.capacities.clone(),
                }
            }

            fn objective(&self, selection: &[usize]) -> f64 {
                selection
                    .iter()
                    .zip(&self.groups)
                    .map(|(&i, g)| g[i].cost)
                    .sum()
            }

            fn is_feasible(&self, selection: &[usize]) -> bool {
                for (k, &cap) in self.capacities.iter().enumerate() {
                    let lhs: f64 = selection
                        .iter()
                        .zip(&self.groups)
                        .map(|(&i, g)| g[i].weights[k])
                        .sum();
                    if lhs > cap + 1e-9 {
                        return false;
                    }
                }
                true
            }

            pub fn greedy_solution(&self) -> Option<Vec<usize>> {
                let mut remaining = self.capacities.clone();
                let mut selection = Vec::new();
                for group in &self.groups {
                    let mut best: Option<usize> = None;
                    for (idx, cand) in group.iter().enumerate() {
                        let fits = (0..self.capacities.len())
                            .all(|k| cand.weights[k] <= remaining[k] + 1e-9);
                        if fits && best.is_none_or(|b| cand.cost < group[b].cost) {
                            best = Some(idx);
                        }
                    }
                    let pick = best.or_else(|| {
                        group
                            .iter()
                            .enumerate()
                            .min_by(|(_, a), (_, b)| {
                                let ua: f64 = a.weights.iter().sum();
                                let ub: f64 = b.weights.iter().sum();
                                ua.partial_cmp(&ub).unwrap_or(std::cmp::Ordering::Equal)
                            })
                            .map(|(i, _)| i)
                    })?;
                    for (k, r) in remaining.iter_mut().enumerate() {
                        *r -= group[pick].weights[k];
                    }
                    selection.push(pick);
                }
                self.is_feasible(&selection).then_some(selection)
            }
        }

        pub fn solve(problem: &Problem, options: &SolveOptions) -> Solution {
            let groups = &problem.groups;
            if groups.is_empty() {
                return Solution {
                    selection: Vec::new(),
                    objective: 0.0,
                    status: SolveStatus::Optimal,
                    nodes_explored: 0,
                };
            }
            if groups.iter().any(Vec::is_empty) {
                return Solution {
                    selection: Vec::new(),
                    objective: f64::INFINITY,
                    status: SolveStatus::Infeasible,
                    nodes_explored: 0,
                };
            }
            let costs = |g: &Vec<Candidate>| g.iter().map(|c| c.cost).collect::<Vec<_>>();
            let min_cost = |g: &Vec<Candidate>| costs(g).into_iter().fold(f64::INFINITY, f64::min);
            let mut order: Vec<usize> = (0..groups.len()).collect();
            order.sort_by(|&a, &b| {
                let spread = |g: &Vec<Candidate>| {
                    costs(g).into_iter().fold(f64::NEG_INFINITY, f64::max) - min_cost(g)
                };
                spread(&groups[b])
                    .partial_cmp(&spread(&groups[a]))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let sorted: Vec<Vec<usize>> = groups
                .iter()
                .map(|g| {
                    let mut idx: Vec<usize> = (0..g.len()).collect();
                    idx.sort_by(|&x, &y| {
                        g[x].cost
                            .partial_cmp(&g[y].cost)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    idx
                })
                .collect();
            let mut suffix_min = vec![0.0f64; order.len() + 1];
            for d in (0..order.len()).rev() {
                suffix_min[d] = suffix_min[d + 1] + min_cost(&groups[order[d]]);
            }
            let mut incumbent = if options.warm_start {
                problem.greedy_solution()
            } else {
                None
            };
            let mut incumbent_cost = incumbent
                .as_ref()
                .map(|s| problem.objective(s))
                .unwrap_or(f64::INFINITY);
            let gap = (1.0 - options.optimality_gap).max(0.0);
            let mut cutoff = incumbent_cost * gap;
            let mut nodes = 0u64;
            let mut selection = vec![usize::MAX; groups.len()];
            let mut prefix = vec![std::iter::empty::<f64>().sum::<f64>(); groups.len() + 1];
            let mut usage = vec![0.0f64; problem.capacities.len()];
            let (mut node_budget_hit, mut gap_exit) = (false, false);
            let undo = |depth: usize, selection: &mut [usize], usage: &mut [f64]| {
                let g = order[depth];
                if selection[g] != usize::MAX {
                    for (k, u) in usage.iter_mut().enumerate() {
                        *u -= groups[g][selection[g]].weights[k];
                    }
                    selection[g] = usize::MAX;
                }
            };
            // (depth, next candidate position)
            let mut stack = vec![(0usize, 0usize)];
            while let Some(frame) = stack.last_mut() {
                if options.node_limit.is_some_and(|cap| nodes >= cap) {
                    node_budget_hit = true;
                    break;
                }
                let depth = frame.0;
                if depth == groups.len() {
                    let cost = problem.objective(&selection);
                    if cost < incumbent_cost {
                        incumbent_cost = cost;
                        incumbent = Some(selection.clone());
                        cutoff = incumbent_cost * gap;
                    }
                    stack.pop();
                    if let Some(parent) = stack.last() {
                        undo(parent.0, &mut selection, &mut usage);
                    }
                    continue;
                }
                let g = order[depth];
                let mut advanced = false;
                while frame.1 < sorted[g].len() {
                    let c = sorted[g][frame.1];
                    frame.1 += 1;
                    nodes += 1;
                    let cand = &groups[g][c];
                    let bound = prefix[depth] + cand.cost + suffix_min[depth + 1];
                    if bound >= cutoff && incumbent_cost.is_finite() {
                        continue;
                    }
                    let fits = (0..problem.capacities.len())
                        .all(|k| usage[k] + cand.weights[k] <= problem.capacities[k] + 1e-9);
                    if !fits {
                        continue;
                    }
                    selection[g] = c;
                    prefix[depth + 1] = prefix[depth] + cand.cost;
                    for (k, u) in usage.iter_mut().enumerate() {
                        *u += cand.weights[k];
                    }
                    stack.push((depth + 1, 0));
                    advanced = true;
                    break;
                }
                if !advanced {
                    stack.pop();
                    if let Some(parent) = stack.last() {
                        undo(parent.0, &mut selection, &mut usage);
                    }
                }
                if incumbent_cost.is_finite()
                    && options.optimality_gap > 0.0
                    && incumbent_cost <= suffix_min[0] * (1.0 + options.optimality_gap)
                {
                    gap_exit = true;
                    break;
                }
            }
            let status = if node_budget_hit {
                SolveStatus::NodeLimit
            } else if gap_exit {
                SolveStatus::WithinGap
            } else if incumbent.is_some() {
                SolveStatus::Optimal
            } else {
                SolveStatus::Infeasible
            };
            Solution {
                selection: incumbent.unwrap_or_default(),
                objective: incumbent_cost,
                status,
                nodes_explored: nodes,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        /// The support-set solver returns exactly the dense solver's
        /// `Solution` — selection, objective bits, status and node count —
        /// and the same greedy warm start. Capacities may be negative,
        /// weights zero, groups empty (no candidates or no support) and
        /// node budgets tiny, so the greedy overflow fallback, the
        /// over-capacity count and every exit are exercised.
        #[test]
        fn support_solver_matches_the_dense_reference(
            groups in prop::collection::vec(
                (0u8..16, 0u8..24, prop::collection::vec((0u8..12, 0u8..8), 1..5)),
                0..7,
            ),
            capacities in prop::collection::vec(-4.0f64..40.0, 1..5),
            options in (0u8..2, 0u64..48, 0u8..3),
        ) {
            let mut p = GroupChoiceProblem::new(capacities);
            let constraints = p.capacities.len();
            for (mask, empty, candidates) in groups {
                let support: Vec<u32> =
                    (0..constraints as u32).filter(|&k| mask & (1 << k) != 0).collect();
                // Costs on a coarse grid so ties and gap exits occur;
                // weight 0 is drawn one time in eight, and one group in
                // 24 has no candidates.
                let candidates: Vec<Candidate> = candidates
                    .into_iter()
                    .filter(|_| empty > 0)
                    .map(|(cost, weight)| {
                        Candidate::new(f64::from(cost) * 0.75, f64::from(weight) * 3.3)
                    })
                    .collect();
                p.add_group(support, candidates);
            }
            let (warm, limit, gap) = options;
            let options = SolveOptions {
                node_limit: (limit > 0).then_some(limit),
                optimality_gap: [0.0, 0.05, 0.5][usize::from(gap)],
                warm_start: warm == 1,
            };
            let reference = dense::Problem::expand(&p);
            prop_assert_eq!(p.greedy_solution(), reference.greedy_solution());
            let sparse = solve(&p, &options);
            let dense = dense::solve(&reference, &options);
            prop_assert_eq!(&sparse.selection, &dense.selection);
            prop_assert_eq!(sparse.objective.to_bits(), dense.objective.to_bits());
            prop_assert_eq!(sparse.status, dense.status);
            prop_assert_eq!(sparse.nodes_explored, dense.nodes_explored);
        }
    }
}
