//! Conversion of analytical layer costs into stage latencies.
//!
//! # The ECM-style roofline
//!
//! Every stage is priced as three separately saturating resources, in the
//! spirit of the execution-cache-memory (ECM) model:
//!
//! ```text
//! T_op = max( N_fop / (F     · α_fop · u(N_fop)),     compute   [s]
//!             N_mem / (B_mem · α_mem),                memory    [s]
//!             N_net / (B_net · α_net) )               network   [s]
//!        + T_overhead
//! ```
//!
//! with `F` the device peak in FLOP/s, `B_mem` the memory bandwidth in B/s,
//! `B_net` the tensor-parallel interconnect bandwidth in B/s, the `α` factors
//! the calibrated efficiency fractions, and `u(·)` the small-kernel
//! utilisation roll-off ([`EfficiencyModel::utilisation`]). A layer whose
//! arithmetic intensity `N_fop / N_mem` (FLOP/B) sits below the device's
//! machine balance `(F·α_fop)/(B_mem·α_mem)` is *memory-bound* — it gains
//! nothing from more FLOP/s. [`TimingModel::forward_roofline`] exposes the
//! per-resource terms so callers can classify instead of just summing.
//!
//! Communication edges are priced against calibrated link parameters:
//! `bytes / (B_link · α_net) + link_latency_s` for point-to-point and the
//! ring-all-reduce volume plus `collective_latency_s` for collectives. Both
//! fixed latencies live on [`EfficiencyModel`] and are supplied by the
//! calibration artifact ([`crate::CalibrationArtifact`]).

use crate::efficiency::{EfficiencyModel, RooflineBreakdown};
use crate::hardware::GpuSpec;
use dip_models::LayerCost;
use serde::{Deserialize, Serialize};

/// The simulated timing of one (forward, backward) stage pair of a model
/// chunk over one sub-microbatch.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageTiming {
    /// Forward latency in seconds.
    pub fwd_s: f64,
    /// Backward latency in seconds.
    pub bwd_s: f64,
    /// Activation bytes held between forward and backward.
    pub activation_bytes: u64,
    /// Bytes the stage sends to the next pipeline rank after forward
    /// (its output activations).
    pub p2p_bytes: u64,
}

impl StageTiming {
    /// Total forward + backward latency.
    pub fn total_s(&self) -> f64 {
        self.fwd_s + self.bwd_s
    }
}

/// Maps [`LayerCost`]s to wall-clock stage latencies on a specific GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingModel {
    /// The GPU executing the stage.
    pub gpu: GpuSpec,
    /// Efficiency factors applied to the analytical cost.
    pub efficiency: EfficiencyModel,
}

impl TimingModel {
    /// Creates a timing model.
    pub fn new(gpu: GpuSpec, efficiency: EfficiencyModel) -> Self {
        Self { gpu, efficiency }
    }

    /// Latency of the forward pass of a stage with the given cost.
    pub fn forward_latency(&self, cost: &LayerCost) -> f64 {
        self.efficiency.op_latency(
            self.gpu.peak_flops,
            self.gpu.mem_bandwidth,
            self.gpu.nvlink_bandwidth,
            cost.fwd_flops,
            cost.fwd_mem_bytes as f64,
            cost.tp_comm_bytes as f64,
        )
    }

    /// Latency of the backward pass of a stage with the given cost.
    pub fn backward_latency(&self, cost: &LayerCost) -> f64 {
        self.efficiency.op_latency(
            self.gpu.peak_flops,
            self.gpu.mem_bandwidth,
            self.gpu.nvlink_bandwidth,
            cost.bwd_flops,
            cost.bwd_mem_bytes() as f64,
            cost.tp_comm_bytes as f64,
        )
    }

    /// Per-resource roofline terms of the forward pass.
    /// `forward_roofline(c).total_s()` equals [`TimingModel::forward_latency`]
    /// bit for bit; the breakdown additionally tells *which* resource the
    /// layer saturates on this device.
    pub fn forward_roofline(&self, cost: &LayerCost) -> RooflineBreakdown {
        self.efficiency.op_breakdown(
            self.gpu.peak_flops,
            self.gpu.mem_bandwidth,
            self.gpu.nvlink_bandwidth,
            cost.fwd_flops,
            cost.fwd_mem_bytes as f64,
            cost.tp_comm_bytes as f64,
        )
    }

    /// Per-resource roofline terms of the backward pass; see
    /// [`TimingModel::forward_roofline`].
    pub fn backward_roofline(&self, cost: &LayerCost) -> RooflineBreakdown {
        self.efficiency.op_breakdown(
            self.gpu.peak_flops,
            self.gpu.mem_bandwidth,
            self.gpu.nvlink_bandwidth,
            cost.bwd_flops,
            cost.bwd_mem_bytes() as f64,
            cost.tp_comm_bytes as f64,
        )
    }

    /// This device's machine balance (ridge point) in FLOP/B: the arithmetic
    /// intensity at which a large kernel transitions from memory-bound to
    /// compute-bound, `(F·α_fop) / (B_mem·α_mem)`.
    pub fn machine_balance(&self) -> f64 {
        self.efficiency
            .machine_balance(self.gpu.peak_flops, self.gpu.mem_bandwidth)
    }

    /// Full stage-pair timing for a chunk whose output activation is
    /// `p2p_bytes` (sent to the next pipeline rank).
    pub fn stage_timing(&self, cost: &LayerCost, p2p_bytes: u64) -> StageTiming {
        StageTiming {
            fwd_s: self.forward_latency(cost),
            bwd_s: self.backward_latency(cost),
            activation_bytes: cost.activation_bytes,
            p2p_bytes,
        }
    }

    /// Latency of a point-to-point transfer of `bytes` over a link of the
    /// given raw `bandwidth` (bytes/s). Topology-aware callers resolve the
    /// link between the two endpoint devices (e.g.
    /// [`crate::ClusterTopology::link_bandwidth`]) and price the transfer
    /// here, so heterogeneous rank pairs are charged at the actual edge.
    pub fn p2p_latency_at(&self, bytes: u64, bandwidth: f64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        bytes as f64 / (bandwidth * self.efficiency.network_efficiency)
            + self.efficiency.link_latency_s
    }

    /// Latency of a ring all-reduce of `bytes` over `participants` GPUs
    /// connected with `bandwidth` bytes/s (used for data-parallel gradient
    /// synchronisation and the FSDP baseline).
    pub fn allreduce_latency(&self, bytes: u64, participants: usize, bandwidth: f64) -> f64 {
        if bytes == 0 || participants <= 1 {
            return 0.0;
        }
        let n = participants as f64;
        // Ring all-reduce moves 2 * (n-1)/n * bytes per GPU.
        let volume = 2.0 * (n - 1.0) / n * bytes as f64;
        volume / (bandwidth * self.efficiency.network_efficiency)
            + self.efficiency.collective_latency_s
    }

    /// Latency of the optimizer step for `param_bytes` of bf16 parameters
    /// resident on this GPU (memory-bound update of weights + Adam moments).
    pub fn optimizer_step_latency(&self, param_bytes: u64) -> f64 {
        // Roughly 8 bytes read + written per parameter element beyond the
        // bf16 weight itself (fp32 master weight and two moments).
        let traffic = param_bytes as f64 * 7.0;
        traffic / (self.gpu.mem_bandwidth * self.efficiency.memory_efficiency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::GpuGeneration;
    use dip_models::{zoo, ModalityWorkload, ModuleRole};

    fn model() -> TimingModel {
        TimingModel::new(
            GpuSpec::preset(GpuGeneration::H800),
            EfficiencyModel::default(),
        )
    }

    #[test]
    fn llama_layer_latency_is_in_the_milliseconds() {
        // §2.2: an LM layer of the 37B VLM takes ~10.5 ms fwd+bwd for 8192
        // tokens at TP=1-ish scale; our analytical model should land in the
        // same order of magnitude (single-digit to tens of milliseconds).
        let lm = zoo::qwen2_32b(ModuleRole::Backbone);
        let wl = ModalityWorkload::from_tokens(8192);
        // One transformer layer (skip the embedding at index 0).
        let cost = lm.cost_of_layers(1..2, &wl, 1);
        let t = model();
        let total_ms = (t.forward_latency(&cost) + t.backward_latency(&cost)) * 1e3;
        assert!(
            (2.0..60.0).contains(&total_ms),
            "layer fwd+bwd = {total_ms} ms"
        );
    }

    #[test]
    fn backward_is_slower_than_forward() {
        let lm = zoo::llama3_8b(ModuleRole::Backbone);
        let wl = ModalityWorkload::from_tokens(8192);
        let cost = lm.cost_of_layers(1..9, &wl, 1);
        let t = model();
        assert!(t.backward_latency(&cost) > t.forward_latency(&cost));
    }

    #[test]
    fn p2p_prefers_nvlink() {
        let t = model();
        let bytes = 64 * 1024 * 1024;
        let (nvlink, net) = (t.gpu.nvlink_bandwidth, t.gpu.net_bandwidth);
        assert!(t.p2p_latency_at(bytes, nvlink) < t.p2p_latency_at(bytes, net));
        assert_eq!(t.p2p_latency_at(0, nvlink), 0.0);
    }

    #[test]
    fn allreduce_scales_with_participants_and_bytes() {
        let t = model();
        let small = t.allreduce_latency(1 << 20, 8, 200e9);
        let large = t.allreduce_latency(1 << 30, 8, 200e9);
        assert!(large > small);
        assert_eq!(t.allreduce_latency(1 << 20, 1, 200e9), 0.0);
    }

    #[test]
    fn stage_timing_carries_activation_and_p2p_bytes() {
        let lm = zoo::llama3_8b(ModuleRole::Backbone);
        let wl = ModalityWorkload::from_tokens(4096);
        let cost = lm.cost_of_layers(1..5, &wl, 2);
        let timing = model().stage_timing(&cost, 1234);
        assert_eq!(timing.p2p_bytes, 1234);
        assert_eq!(timing.activation_bytes, cost.activation_bytes);
        assert!(timing.total_s() > 0.0);
    }

    #[test]
    fn optimizer_step_is_fast_but_nonzero() {
        let t = model();
        let lat = t.optimizer_step_latency(2 * (1 << 30));
        assert!(lat > 0.0 && lat < 0.5);
    }
}
