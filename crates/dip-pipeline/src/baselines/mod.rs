//! Baseline training systems the paper compares DIP against (§7.1):
//! Megatron-LM (1F1B / interleaved VPP), nnScaler*, Optimus coarse-grained
//! bubble scheduling and PyTorch FSDP (ZeRO-3).
//!
//! Every pipeline baseline is expressed through the same machinery DIP uses —
//! a placement, a stage graph and the dual-queue scheduler — differing only
//! in how the model is partitioned and which scheduling priorities are used.
//! This mirrors the paper's methodology of re-implementing the baselines'
//! partitioning/scheduling policies inside one framework for a fair
//! comparison.

mod fsdp;
mod megatron;
mod nnscaler;
mod optimus;

pub use fsdp::simulate_fsdp;
pub use megatron::simulate_megatron;
pub use nnscaler::{nnscaler_static_plan, simulate_nnscaler};
pub use optimus::simulate_optimus;

use crate::dual_queue::{schedule, DualQueueConfig};
use crate::executor::{execute, ExecutionOutcome, ExecutorConfig};
use crate::graph::{StageGraphBuilder, SubMicrobatchPlan};
use crate::placement::{ParallelConfig, PipelineError, Placement};
use dip_models::{BatchWorkload, LmmSpec};
use dip_sim::{ClusterTopology, EfficiencyModel, TimingModel};

/// Shared context for simulating one training iteration of a baseline.
#[derive(Debug, Clone)]
pub struct BaselineContext<'a> {
    /// The model being trained.
    pub spec: &'a LmmSpec,
    /// The 3D parallelism configuration.
    pub parallel: ParallelConfig,
    /// The simulated cluster topology (per-rank devices and links).
    pub topology: ClusterTopology,
    /// The reference timing model (efficiency factors; stage pricing uses
    /// each rank's own device).
    pub timing: TimingModel,
}

impl<'a> BaselineContext<'a> {
    /// A context over a (possibly heterogeneous) topology with default
    /// (calibrated) efficiency factors.
    pub fn new(spec: &'a LmmSpec, parallel: ParallelConfig, topology: &ClusterTopology) -> Self {
        let timing = TimingModel::new(topology.reference_device(), EfficiencyModel::default());
        Self {
            spec,
            parallel,
            topology: topology.clone(),
            timing,
        }
    }

    /// Overrides the reference timing model. The pipeline baselines price
    /// stage compute on each rank's own device and take only the
    /// **efficiency factors** from this override; the analytical FSDP
    /// baseline (no stage graph) uses it in full.
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Per-rank activation memory budget: the usable memory of the device
    /// hosting each rank minus the rank's static footprint.
    pub fn activation_budget(&self, static_memory: &[u64]) -> Vec<u64> {
        self.topology
            .activation_budget(static_memory, self.parallel.tp)
    }
}

/// The one body every pipeline baseline shares: validates `placement`,
/// builds its stage graph over one sub-microbatch per microbatch,
/// interleaves it under `segment_priorities` and `max_inflight` within each
/// rank's activation budget, and executes the result. The baselines differ
/// only in these three inputs.
fn simulate_pipeline(
    ctx: &BaselineContext<'_>,
    placement: &Placement,
    microbatches: &[BatchWorkload],
    segment_priorities: Vec<i64>,
    max_inflight: Option<usize>,
) -> Result<ExecutionOutcome, PipelineError> {
    placement.validate(ctx.spec)?;
    let builder = StageGraphBuilder::new_on(ctx.spec, placement, &ctx.topology)
        .with_efficiency(ctx.timing.efficiency);
    let plan = SubMicrobatchPlan::uniform(placement.segments.len(), microbatches.len());
    let graph = builder.build(microbatches, &plan)?;
    let config = DualQueueConfig {
        segment_priorities,
        max_inflight,
        memory_limit: Some(ctx.activation_budget(&graph.static_memory)),
    };
    let (orders, _) = schedule(&graph, &config);
    execute(
        &graph,
        &orders,
        &ctx.topology,
        &ctx.timing,
        &ExecutorConfig::new(ctx.parallel),
    )
}
