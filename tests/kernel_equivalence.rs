//! Evaluation-kernel equivalence properties: the reusable-workspace
//! interleaver (`schedule_into`), its cutoff-bounded variant
//! (`schedule_bounded`) and the incumbent-pruned search paths must all be
//! *behaviour-preserving* rewrites of the allocating originals — same
//! orders, same makespan bits, same best plan — across random workloads,
//! topologies and priority assignments. The workspace is deliberately
//! dirtied on a differently-shaped graph before each comparison, because
//! "reused scratch state leaks into the next evaluation" is exactly the
//! bug class these properties exist to catch.
//!
//! The same holds for the ordering search's per-search pass memo: an
//! ordering evaluated again, or one a completed pass's decision witness
//! covers, is served from the memo, and the result must be exactly what a
//! fresh pass over the winning priorities produces.

use dip_core::ordering::{search_ordering, OrderingResult, OrderingSearchConfig, SearchStrategy};
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::{
    balanced_param_placement, dual_queue, DecisionWitness, DualQueueConfig, ParallelConfig,
    ScheduleWorkspace, StageGraph, StageGraphBuilder, SubMicrobatchPlan,
};
use dip_sim::ClusterSpec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// A text-only stage graph over `pp` pipeline ranks with `vpp` segments
/// per rank and `microbatches` microbatches of `tokens` tokens each.
fn lm_graph(microbatches: usize, pp: usize, vpp: usize, tokens: u64) -> (StageGraph, usize) {
    let spec = zoo::lm_7b();
    let parallel = ParallelConfig::new(2, pp, 1);
    let placement = balanced_param_placement(&spec, parallel, vpp);
    let cluster = ClusterSpec::h800_cluster(1);
    let builder = StageGraphBuilder::new(&spec, &placement, &cluster);
    let batch = BatchWorkload::new().with(Modality::Text, ModalityWorkload::from_tokens(tokens));
    let batches = vec![batch; microbatches];
    let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
    let n = placement.segments.len();
    (builder.build(&batches, &plan).unwrap(), n)
}

/// A multimodal (text + image) graph with a split backbone — the richer
/// dependency structure (modality bridges, loss-boundary edges) the
/// search actually operates on. The encoder and adapter get one segment
/// each, the backbone `backbone_segments`.
fn vlm_graph(microbatches: usize, images: u64, backbone_segments: usize) -> (StageGraph, usize) {
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let mut k = BTreeMap::new();
    k.insert(spec.backbone_id().unwrap(), backbone_segments);
    let placement = dip_pipeline::separated_placement(&spec, parallel, &k);
    let cluster = ClusterSpec::h800_cluster(2);
    let builder = StageGraphBuilder::new(&spec, &placement, &cluster);
    let images = images.clamp(1, 32);
    let batch = BatchWorkload::new()
        .with(
            Modality::Text,
            ModalityWorkload::new(8192 - images * 169, 1),
        )
        .with(Modality::Image, ModalityWorkload::new(images * 169, images));
    let batches = vec![batch; microbatches];
    let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
    let n = placement.segments.len();
    (builder.build(&batches, &plan).unwrap(), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `schedule_into` through a *reused, dirty* workspace is bit-identical
    /// (per-rank orders and makespan bits) to a fresh `schedule` call, over
    /// random workload shapes, segment counts and priority assignments.
    #[test]
    fn reused_workspace_kernel_is_bit_identical_to_fresh_schedule(
        microbatches in 2usize..7,
        pp in 2usize..5,
        vpp in 1usize..3,
        tokens in 1024u64..16384,
        p0 in 0u64..11,
        p1 in 0u64..11,
    ) {
        let (graph, n) = lm_graph(microbatches, pp, vpp, tokens);
        let mut ws = ScheduleWorkspace::new();
        // Dirty the workspace on a graph of a different shape first.
        let (other, _) = lm_graph(microbatches + 1, 2, 1, 2048);
        dual_queue::schedule_into(&other, &DualQueueConfig::default(), &mut ws);
        let mut priorities = vec![0i64; n];
        if n > 0 {
            priorities[0] = p0 as i64 - 5;
            priorities[n - 1] = p1 as i64 - 5;
        }
        let config = DualQueueConfig {
            segment_priorities: priorities,
            ..DualQueueConfig::default()
        };
        let (orders, makespan) = dual_queue::schedule(&graph, &config);
        let ws_makespan = dual_queue::schedule_into(&graph, &config, &mut ws);
        prop_assert_eq!(makespan.to_bits(), ws_makespan.to_bits());
        prop_assert_eq!(orders.orders.as_slice(), ws.orders());
    }

    /// `schedule_bounded` with an infinite cutoff is exactly
    /// `schedule_into`, and a cutoff at the true makespan still completes
    /// with the same bits (the abort condition is strictly-greater).
    #[test]
    fn bounded_with_infinite_cutoff_equals_schedule_into(
        microbatches in 2usize..6,
        images in 1u64..20,
        p0 in 0u64..11,
    ) {
        let (graph, n) = vlm_graph(microbatches, images, 2);
        let mut priorities = vec![0i64; n];
        priorities[0] = p0 as i64 - 5;
        let config = DualQueueConfig {
            segment_priorities: priorities,
            ..DualQueueConfig::default()
        };
        let mut ws = ScheduleWorkspace::new();
        let makespan = dual_queue::schedule_into(&graph, &config, &mut ws);
        let orders = ws.orders().to_vec();
        let unbounded = dual_queue::schedule_bounded(&graph, &config, &mut ws, f64::INFINITY);
        prop_assert_eq!(unbounded.map(f64::to_bits), Some(makespan.to_bits()));
        prop_assert_eq!(orders.as_slice(), ws.orders());
        let at_makespan = dual_queue::schedule_bounded(&graph, &config, &mut ws, makespan);
        prop_assert_eq!(at_makespan.map(f64::to_bits), Some(makespan.to_bits()));
        // Just below the makespan the pass must abort.
        prop_assert!(
            dual_queue::schedule_bounded(&graph, &config, &mut ws, makespan * (1.0 - 1e-12))
                .is_none()
        );
    }
}

/// A fixed-quota search configuration so pruned and unpruned runs explore
/// the exact same ordering sequence.
fn search_config(strategy: SearchStrategy, workers: usize, prune: bool) -> OrderingSearchConfig {
    OrderingSearchConfig {
        strategy,
        time_budget: Duration::from_secs(3600),
        max_evaluations: Some(24),
        streams: 4,
        workers,
        prune_bounded_evaluations: prune,
        seed: 13,
        ..OrderingSearchConfig::default()
    }
}

/// Incumbent-bounded pruning is exact: the pruned random and DFS searches
/// return the same best plan (priorities, orders, makespan bits) as the
/// unpruned ones, at every worker count — pruning is a wall-clock
/// optimisation, never a behaviour change.
#[test]
fn pruned_search_returns_the_same_best_plan_as_unpruned() {
    let (graph, n) = vlm_graph(3, 10, 2);
    let mut total_pruned = 0u64;
    for strategy in [SearchStrategy::Random, SearchStrategy::Dfs] {
        let reference = search_ordering(&graph, n, &search_config(strategy, 1, false));
        assert_eq!(
            reference.pruned_evaluations, 0,
            "{strategy:?}: unpruned search prunes nothing"
        );
        let single = search_ordering(&graph, n, &search_config(strategy, 1, true));
        for workers in [1usize, 2, 4, 8] {
            let pruned = search_ordering(&graph, n, &search_config(strategy, workers, true));
            // Memo hits over the cutoff count as pruned, so the pruned
            // count does not depend on which stream evaluated first.
            assert_eq!(
                pruned.pruned_evaluations, single.pruned_evaluations,
                "{strategy:?}/{workers} workers"
            );
            assert_eq!(
                pruned.segment_priorities, reference.segment_priorities,
                "{strategy:?}/{workers} workers"
            );
            assert_eq!(
                pruned.orders, reference.orders,
                "{strategy:?}/{workers} workers"
            );
            assert_eq!(
                pruned.best_time_s.to_bits(),
                reference.best_time_s.to_bits(),
                "{strategy:?}/{workers} workers"
            );
            // Pruned evaluations still count against the quota, so the
            // exploration accounting is identical too.
            assert_eq!(pruned.evaluations, reference.evaluations);
            assert_eq!(pruned.worker_evaluations, reference.worker_evaluations);
            total_pruned += pruned.pruned_evaluations;
        }
    }
    // The property is only meaningful if the bound actually fired: with
    // 4 streams × 24 evaluations most candidates lose to the incumbent.
    assert!(total_pruned > 0, "the cutoff bound never pruned anything");
}

/// MCTS never prunes (its backpropagation needs true rollout values), so
/// the knob must be a no-op there and the pruned counter must stay zero.
#[test]
fn mcts_is_unaffected_by_the_pruning_knob() {
    let (graph, n) = vlm_graph(3, 10, 2);
    let with_knob = search_ordering(&graph, n, &search_config(SearchStrategy::Mcts, 2, true));
    let without = search_ordering(&graph, n, &search_config(SearchStrategy::Mcts, 2, false));
    assert_eq!(with_knob.pruned_evaluations, 0);
    assert_eq!(without.pruned_evaluations, 0);
    assert_eq!(with_knob.segment_priorities, without.segment_priorities);
    assert_eq!(with_knob.orders, without.orders);
    assert_eq!(
        with_knob.best_time_s.to_bits(),
        without.best_time_s.to_bits()
    );
}

/// Checks a search result against one fresh allocating pass over its own
/// winning priorities: a memo-served best time must carry the exact bits
/// of a real pass, and the orders must be that pass's orders.
fn assert_matches_a_fresh_pass(graph: &StageGraph, result: &OrderingResult, label: &str) {
    assert!(
        result.interleave_passes <= result.distinct_orderings + result.pruned_evaluations,
        "{label}: {} passes for {} distinct and {} pruned evaluations",
        result.interleave_passes,
        result.distinct_orderings,
        result.pruned_evaluations
    );
    let queue = DualQueueConfig {
        segment_priorities: result.segment_priorities.clone(),
        ..DualQueueConfig::default()
    };
    let (orders, makespan) = dual_queue::schedule(graph, &queue);
    assert_eq!(result.best_time_s.to_bits(), makespan.to_bits(), "{label}");
    assert_eq!(result.orders, orders, "{label}");
    assert!(
        result.distinct_orderings <= result.evaluations - result.pruned_evaluations,
        "{label}: {} distinct of {} completed evaluations",
        result.distinct_orderings,
        result.evaluations - result.pruned_evaluations
    );
}

/// The pass memo is exact on every strategy (MCTS, pruned random, pruned
/// DFS) at 1 and 4 workers: the plan and every deterministic counter
/// (evaluations, pruned evaluations, distinct orderings) agree across
/// worker counts, witness hits included. The pass count repeats at one
/// worker and never exceeds one pass per distinct or pruned evaluation.
#[test]
fn memoised_search_matches_a_fresh_pass_at_every_worker_count() {
    let (graph, n) = vlm_graph(3, 10, 2);
    for strategy in [
        SearchStrategy::Mcts,
        SearchStrategy::Random,
        SearchStrategy::Dfs,
    ] {
        let reference = search_ordering(&graph, n, &search_config(strategy, 1, true));
        assert_matches_a_fresh_pass(&graph, &reference, &format!("{strategy:?}/1 worker"));
        let parallel = search_ordering(&graph, n, &search_config(strategy, 4, true));
        assert_matches_a_fresh_pass(&graph, &parallel, &format!("{strategy:?}/4 workers"));
        assert_eq!(
            parallel.distinct_orderings, reference.distinct_orderings,
            "{strategy:?}"
        );
        assert_eq!(parallel.evaluations, reference.evaluations, "{strategy:?}");
        assert_eq!(
            parallel.pruned_evaluations, reference.pruned_evaluations,
            "{strategy:?}"
        );
        assert_eq!(
            parallel.segment_priorities, reference.segment_priorities,
            "{strategy:?}"
        );
        assert_eq!(parallel.orders, reference.orders, "{strategy:?}");
        assert_eq!(
            parallel.best_time_s.to_bits(),
            reference.best_time_s.to_bits(),
            "{strategy:?}"
        );
        let repeat = search_ordering(&graph, n, &search_config(strategy, 1, true));
        assert_eq!(
            repeat.interleave_passes, reference.interleave_passes,
            "{strategy:?}: the pass count repeats at one worker"
        );
    }
    // Unpruned DFS repeats exactly one ordering: its first leaf is the
    // identity the incumbent already memoised, every later leaf is new.
    let dfs = search_ordering(&graph, n, &search_config(SearchStrategy::Dfs, 1, false));
    assert_eq!(dfs.distinct_orderings, dfs.evaluations - 1);
}

/// On a 6-segment graph (720 orderings) the MCTS streams revisit
/// orderings, so the memo is actually hit: fewer distinct orderings than
/// evaluations, at either worker count, with the same count at both. The
/// decision witnesses are hit too: at one worker, fewer passes run than
/// there are distinct orderings.
#[test]
fn mcts_memo_is_hit_on_a_six_segment_graph() {
    let (graph, n) = vlm_graph(12, 10, 4);
    assert_eq!(n, 6);
    let config = |workers| OrderingSearchConfig {
        max_evaluations: Some(120),
        ..search_config(SearchStrategy::Mcts, workers, true)
    };
    let reference = search_ordering(&graph, n, &config(1));
    assert!(
        reference.distinct_orderings < reference.evaluations,
        "{} distinct of {} evaluations: the memo was never hit",
        reference.distinct_orderings,
        reference.evaluations
    );
    assert!(
        reference.interleave_passes < reference.distinct_orderings,
        "{} passes for {} distinct orderings: no decision witness was hit",
        reference.interleave_passes,
        reference.distinct_orderings
    );
    assert_matches_a_fresh_pass(&graph, &reference, "MCTS/1 worker");
    let parallel = search_ordering(&graph, n, &config(4));
    assert_matches_a_fresh_pass(&graph, &parallel, "MCTS/4 workers");
    assert_eq!(parallel.distinct_orderings, reference.distinct_orderings);
    assert_eq!(parallel.segment_priorities, reference.segment_priorities);
}

/// Every ordering of `segments` segments, in lexicographic order.
fn all_orderings(segments: usize) -> Vec<Vec<usize>> {
    fn extend(prefix: &mut Vec<usize>, segments: usize, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == segments {
            out.push(prefix.clone());
            return;
        }
        for seg in 0..segments {
            if !prefix.contains(&seg) {
                prefix.push(seg);
                extend(prefix, segments, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(&mut Vec::new(), segments, &mut out);
    out
}

/// The search's priority assignment: position `i` of `ordering` gets
/// priority `n − i`.
fn priorities_of(ordering: &[usize]) -> Vec<i64> {
    let n = ordering.len();
    let mut priorities = vec![0i64; n];
    for (pos, &seg) in ordering.iter().enumerate() {
        priorities[seg] = (n - pos) as i64;
    }
    priorities
}

/// True when `ordering` puts every segment ahead of every segment the
/// witness says it outranked.
fn witness_covers(witness: DecisionWitness<'_>, ordering: &[usize]) -> bool {
    let mut position = vec![0usize; ordering.len()];
    for (pos, &seg) in ordering.iter().enumerate() {
        position[seg] = pos;
    }
    (0..ordering.len()).all(|s| {
        let outranked = witness.outranked(s);
        (0..ordering.len())
            .all(|t| outranked[t / 64] & (1 << (t % 64)) == 0 || position[s] < position[t])
    })
}

/// Decision-witness soundness, exhaustively on the 6-segment VLM-S graph
/// (tp4 pp4, separated placement, 12 microbatches): for several reference
/// orderings, every one of the 720 orderings the reference pass's witness
/// covers reproduces its makespan bits and per-rank orders in a fresh
/// `schedule`. It runs under the cluster's activation budgets and again
/// with 1-byte budgets, which send every forward past a rank's first
/// through the relaxed deadlock path. Covered orderings other than the reference must exist,
/// or a witness demanding the full order would pass vacuously.
#[test]
fn decision_witness_covers_only_orderings_that_reproduce_the_pass() {
    let (graph, n) = vlm_graph(12, 10, 4);
    assert_eq!(n, 6);
    let orderings = all_orderings(n);
    // The identity plus orderings whose witnesses leave some segment
    // pairs unranked under the activation budgets.
    let references = [
        vec![0, 1, 2, 3, 4, 5],
        vec![0, 4, 1, 5, 3, 2],
        vec![1, 5, 4, 3, 0, 2],
        vec![0, 5, 3, 4, 1, 2],
        vec![4, 0, 3, 5, 2, 1],
    ];
    let usable = ClusterSpec::h800_cluster(2).gpu.usable_memory();
    let activation_budgets: Vec<u64> = graph
        .static_memory
        .iter()
        .map(|s| usable.saturating_sub(*s))
        .collect();
    let budgets = [
        ("activation budgets", activation_budgets),
        ("1-byte budgets", vec![1u64; graph.num_ranks]),
    ];
    let mut ws = ScheduleWorkspace::new();
    for (label, budget) in budgets {
        let memory_limit = Some(budget);
        let mut others_covered = 0usize;
        for reference in &references {
            let base = DualQueueConfig {
                memory_limit: memory_limit.clone(),
                ..DualQueueConfig::default()
            };
            let config = DualQueueConfig {
                segment_priorities: priorities_of(reference),
                ..base.clone()
            };
            let makespan = dual_queue::schedule_into(&graph, &config, &mut ws);
            let orders = ws.orders().to_vec();
            let witness = ws.decision_witness();
            assert!(witness_covers(witness, reference), "{label}: {reference:?}");
            for ordering in &orderings {
                if !witness_covers(witness, ordering) {
                    continue;
                }
                let (fresh_orders, fresh_makespan) = dual_queue::schedule(
                    &graph,
                    &DualQueueConfig {
                        segment_priorities: priorities_of(ordering),
                        ..base.clone()
                    },
                );
                assert_eq!(
                    fresh_makespan.to_bits(),
                    makespan.to_bits(),
                    "{label}: {ordering:?} covered by {reference:?}"
                );
                assert_eq!(
                    fresh_orders.orders, orders,
                    "{label}: {ordering:?} covered by {reference:?}"
                );
                others_covered += usize::from(ordering != reference);
            }
        }
        assert!(
            others_covered > 0,
            "{label}: no witness covered an ordering besides its own"
        );
    }
}
