//! Pipeline-parallel abstractions and baseline training systems for the DIP
//! reproduction.
//!
//! The crate models everything between an [`dip_models::LmmSpec`] and a
//! simulated training iteration:
//!
//! * [`placement`] — model chunks, pipeline segments and their assignment to
//!   pipeline ranks;
//! * [`partition`] — partitioning algorithms: Megatron-style balanced
//!   parameters, exhaustive balanced latency (the §2.3 study), and DIP's
//!   separated modality-aware placement in three [`PlacementMode`]s
//!   (round-robin equal split, capacity-aware spec-sheet weighting, and the
//!   latency-balanced per-device DP);
//! * [`migration`] — state-migration accounting for elastic replanning:
//!   bytes of optimizer/parameter state a topology change forces to move,
//!   priced at per-edge link bandwidth ([`MigrationCost`]);
//! * [`graph`] — the stage graph of one training iteration: every forward and
//!   backward stage execution with its data dependencies, latencies and
//!   memory effects;
//! * [`strategy`] — per-stage memory-saving strategies (activation
//!   checkpointing / offloading) and how they transform stage timing;
//! * [`dual_queue`] — the greedy dual-queue stage interleaver (§5.2), shared
//!   by the baselines (with fixed priorities it degenerates to 1F1B) and by
//!   the DIP planner (which feeds it MCTS-derived segment priorities);
//! * [`executor`] — turns a stage graph plus per-rank orders into
//!   [`dip_sim::SimEngine`] tasks and reports iteration metrics;
//! * [`par`] — the deterministic fork-join helper behind the planner's
//!   parallel search, memory-ILP and batch-planning phases (one layer up,
//!   in `dip-core`);
//! * [`baselines`] — end-to-end baseline systems: Megatron-LM (1F1B and
//!   interleaved VPP), nnScaler*, Optimus coarse-grained scheduling, and an
//!   analytical FSDP/ZeRO-3 model.

//! # Example
//!
//! Build DIP's separated placement for a VLM and turn one iteration's
//! microbatches into a stage graph priced on a concrete cluster:
//!
//! ```
//! use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
//! use dip_pipeline::{separated_placement, ParallelConfig, StageGraphBuilder,
//!                    SubMicrobatchPlan};
//! use dip_sim::ClusterTopology;
//! use std::collections::BTreeMap;
//!
//! let spec = zoo::vlm_s();
//! let parallel = ParallelConfig::new(4, 4, 1);
//! let placement = separated_placement(&spec, parallel, &BTreeMap::new());
//! placement.validate(&spec).unwrap();
//!
//! let cluster = ClusterTopology::h800_cluster(2);
//! let builder = StageGraphBuilder::new_on(&spec, &placement, &cluster);
//! let batch = BatchWorkload::new()
//!     .with(Modality::Text, ModalityWorkload::new(6502, 1))
//!     .with(Modality::Image, ModalityWorkload::new(1690, 10));
//! let plan = SubMicrobatchPlan::uniform(placement.segments.len(), 1);
//! let graph = builder.build(&[batch], &plan).unwrap();
//! assert!(graph.critical_rank_time() > 0.0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod dual_queue;
pub mod executor;
pub mod graph;
pub mod migration;
pub mod par;
pub mod partition;
pub mod placement;
pub mod strategy;

pub use dual_queue::{
    schedule_into, schedule_resumed, DualQueueConfig, PassGraph, PassPrefix, PassRecord,
    RankOrders, RequirementEvent, ScheduleWorkspace, NO_REQUIREMENT,
};
pub use executor::{execute, ExecutionOutcome, ExecutorConfig};
pub use graph::{
    Direction, GraphBuildStats, PreparedWorkloads, StageGraph, StageGraphBuilder, StageId,
    SubMicrobatchPlan, WorkItem,
};
pub use migration::{full_restore_cost, migration_cost, MigrationCost};
pub use partition::{
    balanced_latency_placement, balanced_param_placement, capacity_aware_separated_placement,
    latency_balanced_separated_placement, separated_placement, PlacementMode,
};
pub use placement::{ChunkPiece, ModelChunk, ParallelConfig, PipelineError, Placement, Segment};
pub use strategy::{MemoryPlan, MemoryStrategy};
