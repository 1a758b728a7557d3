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
//! * [`session`] — the thread-safe planning-session layer and the one way
//!   plans reach callers: a four-tier plan lookup (exact signature hit →
//!   elastic replan after a topology change → fuzzy bucketed hit served by
//!   a reprice plus one interleave pass → cold plan) over concurrent LRU
//!   caches that hold only the current topology's plans and whose hits
//!   are checked against the request's microbatches, single-flight
//!   planning through a per-key in-flight table (a stampeded fresh shape
//!   runs the planner exactly once), and a
//!   [`PlanningSession::plan_many`] worker pool for planning independent
//!   requests concurrently;
//! * [`elastic`] — the elastic scenario layer: after
//!   [`PlanningSession::retarget`] moves a session onto a changed topology
//!   (failures, grow/shrink events), each request is replanned
//!   incrementally from its old plan, trading simulated iteration time
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
//! use dip_sim::ClusterTopology;
//!
//! let spec = zoo::vlm_s();
//! let cluster = ClusterTopology::h800_cluster(2);
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
//! One type describes the machine: a [`dip_sim::ClusterTopology`], uniform
//! (`h800_cluster`, `h20_cluster`, `h100_cluster`) or heterogeneous
//! (`mixed_h800_h20`, or any node list). The session builds its
//! [`DipPlanner`], which holds the model, layout and topology it plans on,
//! with [`DipPlanner::on_topology`].

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

pub use elastic::{
    CandidateReport, ElasticCandidate, ElasticConfig, ElasticOutcome, ElasticReport,
};
pub use error::DipError;
pub use memopt::{optimize_memory_detailed, MemoryOptConfig, MemoryOptOutcome};
pub use monolithic::{monolithic_ilp_search, MonolithicResult};
pub use ordering::{
    ordering_from_priorities, search_ordering, OrderingResult, OrderingSearchConfig,
    SearchProgressPoint, SearchStrategy, SearchWork,
};
pub use partitioner::{ModalityAwarePartitioner, PartitionerConfig, PartitionerOutput};
pub use planner::{DipPlan, DipPlanner, PhaseTimes, PlanTier, PlannerConfig, PlannerStats};
pub use session::{PlanOutcome, PlanRequest, PlanningSession, SessionConfig, SessionStats};

// Re-exported so session users can configure the fuzzy tier without a
// direct dip-models dependency.
pub use dip_models::{BucketingConfig, CanonicalSignature};
