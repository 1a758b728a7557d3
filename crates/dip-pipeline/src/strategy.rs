//! Per-stage memory-saving strategies and their effect on stage timing.
//!
//! DIP's per-layer memory optimisation (§5.3) selects, for each
//! (forward, backward) stage pair, a point on the trade-off curve between
//! activation memory and recomputation/offloading latency. We model the two
//! strategies the paper names — activation checkpointing and activation
//! offloading — at fractional granularity: a strategy may be applied to any
//! fraction of a chunk's layers, which matches the paper's per-layer choice
//! space while keeping candidate generation simple.

use dip_sim::StageTiming;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Host↔device bandwidth used for activation offloading (PCIe Gen4 x16-ish).
const OFFLOAD_BANDWIDTH: f64 = 48e9;
/// Fraction of an offload transfer that cannot be hidden behind compute.
const OFFLOAD_EXPOSED_FRACTION: f64 = 0.35;
/// Fraction of a chunk's activations that must stay resident even under full
/// checkpointing (the chunk-boundary input activations).
const CHECKPOINT_RESIDENT_FRACTION: f64 = 0.12;

/// The memory-saving strategy applied to one (forward, backward) stage pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryStrategy {
    /// Fraction of the chunk's layers whose activations are recomputed in the
    /// backward pass instead of being kept resident (0 = none, 1 = full
    /// activation checkpointing).
    pub recompute_fraction: f64,
    /// Fraction of the *resident* activations that are offloaded to host
    /// memory between forward and backward.
    pub offload_fraction: f64,
}

impl MemoryStrategy {
    /// Keep everything resident (fastest, most memory).
    pub const NONE: MemoryStrategy = MemoryStrategy {
        recompute_fraction: 0.0,
        offload_fraction: 0.0,
    };

    /// Full activation checkpointing (slowest compute, least memory without
    /// touching the host).
    pub const FULL_CHECKPOINT: MemoryStrategy = MemoryStrategy {
        recompute_fraction: 1.0,
        offload_fraction: 0.0,
    };

    /// Creates a strategy, clamping both fractions to `[0, 1]`.
    pub fn new(recompute_fraction: f64, offload_fraction: f64) -> Self {
        Self {
            recompute_fraction: recompute_fraction.clamp(0.0, 1.0),
            offload_fraction: offload_fraction.clamp(0.0, 1.0),
        }
    }

    /// Applies the strategy to a baseline stage timing (the "keep everything"
    /// timing), returning the adjusted timing.
    pub fn apply(&self, base: &StageTiming) -> StageTiming {
        let act = base.activation_bytes as f64;
        // Checkpointing frees the checkpointed layers' activations but keeps
        // the chunk-boundary inputs, and replays their forward in backward.
        let resident_after_ckpt = act
            * ((1.0 - self.recompute_fraction)
                + self.recompute_fraction * CHECKPOINT_RESIDENT_FRACTION);
        let recompute_time = base.fwd_s * self.recompute_fraction;

        // Offloading moves a share of the resident activations to the host;
        // a fraction of the transfer is exposed on both directions.
        let offloaded = resident_after_ckpt * self.offload_fraction;
        let resident = resident_after_ckpt - offloaded;
        let transfer_time = offloaded / OFFLOAD_BANDWIDTH * OFFLOAD_EXPOSED_FRACTION;

        StageTiming {
            fwd_s: base.fwd_s + transfer_time,
            bwd_s: base.bwd_s + recompute_time + transfer_time,
            activation_bytes: resident.max(0.0) as u64,
            p2p_bytes: base.p2p_bytes,
        }
    }

    /// The canonical candidate ladder used for offline candidate generation
    /// (§5.3): `count` strategies spanning "no saving" to "full checkpointing
    /// plus full offload", ordered from fastest/most-memory to
    /// slowest/least-memory.
    pub fn ladder(count: usize) -> Vec<MemoryStrategy> {
        let count = count.max(2);
        (0..count)
            .map(|i| {
                let t = i as f64 / (count - 1) as f64;
                if t <= 0.5 {
                    // First half: ramp up recomputation.
                    MemoryStrategy::new(t * 2.0, 0.0)
                } else {
                    // Second half: full recomputation plus growing offload.
                    MemoryStrategy::new(1.0, (t - 0.5) * 2.0)
                }
            })
            .collect()
    }
}

impl Default for MemoryStrategy {
    fn default() -> Self {
        MemoryStrategy::NONE
    }
}

/// A memory plan: the strategy chosen for every stage pair, keyed by the
/// stage-pair identifier the caller uses (DIP keys them by
/// `(segment, microbatch, sub_microbatch, rank)` encoded as the forward
/// stage's id).
///
/// The choices are copy-on-write: cloning a plan (as every cached-plan hit
/// does) shares one map, and [`MemoryPlan::set`] copies it first only while
/// another plan still shares it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MemoryPlan {
    choices: Arc<BTreeMap<usize, MemoryStrategy>>,
}

impl MemoryPlan {
    /// An empty plan (every stage keeps its activations resident).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the strategy for a stage pair.
    pub fn set(&mut self, stage_pair: usize, strategy: MemoryStrategy) {
        Arc::make_mut(&mut self.choices).insert(stage_pair, strategy);
    }

    /// The strategy for a stage pair (defaults to [`MemoryStrategy::NONE`]).
    pub fn get(&self, stage_pair: usize) -> MemoryStrategy {
        self.choices
            .get(&stage_pair)
            .copied()
            .unwrap_or(MemoryStrategy::NONE)
    }

    /// Number of stage pairs with an explicit choice.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// True when no explicit choices have been made.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// True when this plan and `other` share one map: one is a clone of
    /// the other and neither has been [`set`](MemoryPlan::set) since.
    pub fn shares_storage_with(&self, other: &MemoryPlan) -> bool {
        Arc::ptr_eq(&self.choices, &other.choices)
    }

    /// A plan applying the same strategy to `stage_pairs` stage pairs.
    pub fn uniform(stage_pairs: usize, strategy: MemoryStrategy) -> Self {
        let mut plan = Self::new();
        for i in 0..stage_pairs {
            plan.set(i, strategy);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> StageTiming {
        StageTiming {
            fwd_s: 0.010,
            bwd_s: 0.020,
            activation_bytes: 1_000_000_000,
            p2p_bytes: 64_000_000,
        }
    }

    #[test]
    fn none_strategy_is_identity() {
        let t = MemoryStrategy::NONE.apply(&base());
        assert_eq!(t, base());
    }

    #[test]
    fn full_checkpoint_trades_time_for_memory() {
        let t = MemoryStrategy::FULL_CHECKPOINT.apply(&base());
        assert!(t.activation_bytes < base().activation_bytes / 4);
        assert!(t.bwd_s > base().bwd_s);
        assert!((t.bwd_s - (base().bwd_s + base().fwd_s)).abs() < 1e-12);
        assert_eq!(t.fwd_s, base().fwd_s);
    }

    #[test]
    fn offload_reduces_memory_further_and_costs_transfer_time() {
        let ckpt = MemoryStrategy::FULL_CHECKPOINT.apply(&base());
        let both = MemoryStrategy::new(1.0, 1.0).apply(&base());
        assert!(both.activation_bytes < ckpt.activation_bytes);
        assert!(both.fwd_s > ckpt.fwd_s);
        assert!(both.bwd_s > ckpt.bwd_s);
    }

    #[test]
    fn ladder_is_monotone_in_memory_and_latency() {
        let ladder = MemoryStrategy::ladder(10);
        assert_eq!(ladder.len(), 10);
        let timings: Vec<StageTiming> = ladder.iter().map(|s| s.apply(&base())).collect();
        for w in timings.windows(2) {
            assert!(w[1].activation_bytes <= w[0].activation_bytes);
            assert!(w[1].fwd_s + w[1].bwd_s >= w[0].fwd_s + w[0].bwd_s - 1e-12);
        }
        assert_eq!(ladder[0], MemoryStrategy::NONE);
    }

    #[test]
    fn fractions_are_clamped() {
        let s = MemoryStrategy::new(3.0, -1.0);
        assert_eq!(s.recompute_fraction, 1.0);
        assert_eq!(s.offload_fraction, 0.0);
    }

    #[test]
    fn memory_plan_defaults_to_none() {
        let mut plan = MemoryPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.get(3), MemoryStrategy::NONE);
        plan.set(3, MemoryStrategy::FULL_CHECKPOINT);
        assert_eq!(plan.get(3), MemoryStrategy::FULL_CHECKPOINT);
        assert_eq!(plan.len(), 1);
        let uniform = MemoryPlan::uniform(4, MemoryStrategy::FULL_CHECKPOINT);
        assert_eq!(uniform.len(), 4);
    }

    #[test]
    fn set_on_a_clone_leaves_the_original_unchanged() {
        let original = MemoryPlan::uniform(4, MemoryStrategy::FULL_CHECKPOINT);
        let mut clone = original.clone();
        clone.set(1, MemoryStrategy::new(0.5, 0.5));
        clone.set(9, MemoryStrategy::FULL_CHECKPOINT);
        assert_eq!(
            original,
            MemoryPlan::uniform(4, MemoryStrategy::FULL_CHECKPOINT)
        );
        assert_eq!(original.get(1), MemoryStrategy::FULL_CHECKPOINT);
        assert_eq!(original.len(), 4);
        assert_eq!(clone.get(1), MemoryStrategy::new(0.5, 0.5));
        assert_eq!(clone.len(), 5);
    }
}
