//! DIP: Dynamic Interleaved Pipeline — the paper's primary contribution.
//!
//! This crate implements the DIP training planner on top of the substrates in
//! [`dip_pipeline`], [`dip_sim`] and [`dip_solver`]:
//!
//! * [`partitioner`] — the modality-aware partitioner (§4): sub-microbatch
//!   size selection (the 95%-of-peak rule), per-module pipeline segment
//!   counts `K_i = ⌊T_i / T_1⌋` (priced on the hosting ranks under the
//!   latency-balanced placement mode), the separated model-chunk placement
//!   in three [`dip_pipeline::PlacementMode`]s and the per-iteration
//!   sub-microbatch plan `M_i = ⌈N_i / B_i⌉`;
//! * [`ordering`] — the pipeline schedule searcher's first phase (§5.1):
//!   root-parallel MCTS over segment orderings with UCB selection, random
//!   rollouts and score backpropagation on independent per-worker trees
//!   (merged deterministically), plus DFS and random-exploration variants
//!   used in the Fig. 11 comparison;
//! * [`memopt`] — per-layer memory optimisation (§5.3): offline candidate
//!   generation over the checkpoint/offload ladder and a per-rank group-choice
//!   ILP with warm start and a 5% optimality gap;
//! * [`planner`] — the online planning loop (§3.2): prefetch metadata,
//!   partition microbatches, search a schedule (in parallel on CPU workers),
//!   optimise memory and deploy the plan, per training iteration;
//! * [`session`] — the thread-safe planning-session layer: a three-tier
//!   plan lookup (exact signature hit → fuzzy bucketed hit served by a
//!   reprice plus one interleave pass → cold plan) over concurrent O(1)
//!   LRU caches, with the cluster-topology fingerprint folded into every
//!   cache key, single-flight planning through a sharded per-key in-flight
//!   table (a stampeded fresh shape runs the planner exactly once), and a
//!   [`PlanningSession::plan_many`] worker pool for planning independent
//!   requests concurrently;
//! * [`elastic`] — the elastic scenario layer: topology changes (failures,
//!   grow/shrink events) are replanned incrementally from the old plan via
//!   [`DipPlanner::replan_elastic`], trading simulated iteration time
//!   against a migration-cost objective (bytes of optimizer/parameter
//!   state moved, priced at per-edge link bandwidth);
//! * [`error`] — the unified [`DipError`] returned by every public planner
//!   entry point;
//! * [`monolithic`] — the monolithic-ILP baseline of §5.4 / Fig. 12, solved
//!   exactly by branch and bound in place of Gurobi/Z3.
//!
//! # Example
//!
//! Multi-iteration planning goes through a [`PlanningSession`], which caches
//! plans for repeated workload shapes:
//!
//! ```
//! use dip_core::{PlanRequest, PlanTier, PlanningSession, PlannerConfig};
//! use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
//! use dip_pipeline::ParallelConfig;
//! use dip_sim::ClusterSpec;
//!
//! let spec = zoo::vlm_s();
//! let cluster = ClusterSpec::h800_cluster(2);
//! let session = PlanningSession::new(&spec, ParallelConfig::new(4, 4, 1), &cluster,
//!                                    PlannerConfig::fast());
//! let batch = BatchWorkload::new()
//!     .with(Modality::Text, ModalityWorkload::new(6502, 1))
//!     .with(Modality::Image, ModalityWorkload::new(1690, 10));
//! let request = PlanRequest::new(vec![batch]);
//! let (outcome, execution) = session.plan_and_simulate(&request).unwrap();
//! assert!(execution.metrics.iteration_time_s > 0.0);
//! // A second iteration with the same shape is served from the plan cache.
//! let (repeat, _) = session.plan_and_simulate(&request).unwrap();
//! assert_eq!(outcome.tier, PlanTier::Cold);
//! assert_eq!(repeat.tier, PlanTier::Exact);
//! ```
//!
//! Single-shot planning remains available through [`DipPlanner`].

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod elastic;
pub mod error;
pub mod memopt;
pub mod monolithic;
pub mod ordering;
pub mod partitioner;
pub mod planner;
pub mod session;

pub use elastic::{CandidateReport, ElasticCandidate, ElasticConfig, ElasticOutcome};
pub use error::DipError;
pub use memopt::{optimize_memory_detailed, MemoryOptConfig, MemoryOptOutcome};
pub use monolithic::{monolithic_ilp_search, MonolithicResult};
pub use ordering::{
    calibrate_eval_cost, ordering_from_priorities, search_ordering, OrderingResult,
    OrderingSearchConfig, SearchProgressPoint, SearchStrategy, SearchWork,
};
pub use partitioner::{ModalityAwarePartitioner, PartitionerConfig, PartitionerOutput};
pub use planner::{DipPlan, DipPlanner, PhaseTimes, PlanTier, PlannerConfig, PlannerStats};
pub use session::{PlanOutcome, PlanRequest, PlanningSession, SessionConfig, SessionStats};

// Re-exported so session users can configure the fuzzy tier without a
// direct dip-models dependency.
pub use dip_models::{BucketingConfig, CanonicalSignature};
