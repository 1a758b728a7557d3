//! Training-throughput metrics: iteration time, model FLOPs utilisation (MFU)
//! and derived comparisons.

use serde::{Deserialize, Serialize};

/// Model FLOPs utilisation: the model's useful FLOPs divided by the FLOPs the
/// cluster could theoretically deliver over the iteration.
///
/// Returns 0 when the iteration time or cluster peak is non-positive.
pub fn mfu(model_flops: f64, iteration_time_s: f64, cluster_peak_flops: f64) -> f64 {
    if iteration_time_s <= 0.0 || cluster_peak_flops <= 0.0 {
        return 0.0;
    }
    (model_flops / (iteration_time_s * cluster_peak_flops)).max(0.0)
}

/// Summary of one simulated training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IterationMetrics {
    /// End-to-end iteration time in seconds.
    pub iteration_time_s: f64,
    /// Total useful model FLOPs in the iteration (across all microbatches
    /// and data-parallel replicas).
    pub model_flops: f64,
    /// Model FLOPs utilisation.
    pub mfu: f64,
    /// Aggregate pipeline bubble fraction.
    pub bubble_fraction: f64,
    /// Peak GPU memory across ranks, in bytes.
    pub peak_memory_bytes: i64,
}

impl IterationMetrics {
    /// Builds metrics from raw measurements.
    pub fn new(
        iteration_time_s: f64,
        model_flops: f64,
        cluster_peak_flops: f64,
        bubble_fraction: f64,
        peak_memory_bytes: i64,
    ) -> Self {
        Self {
            iteration_time_s,
            model_flops,
            mfu: mfu(model_flops, iteration_time_s, cluster_peak_flops),
            bubble_fraction,
            peak_memory_bytes,
        }
    }

    /// Throughput improvement of `self` over `other` in percent
    /// (the "+97.3%" style numbers of the abstract).
    pub fn speedup_percent_over(&self, other: &IterationMetrics) -> f64 {
        if self.iteration_time_s <= 0.0 {
            return 0.0;
        }
        (other.iteration_time_s / self.iteration_time_s - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mfu_is_bounded_and_zero_on_degenerate_input() {
        assert_eq!(mfu(1e15, 0.0, 1e15), 0.0);
        assert_eq!(mfu(1e15, 1.0, 0.0), 0.0);
        let v = mfu(4e14, 1.0, 1e15);
        assert!((v - 0.4).abs() < 1e-12);
    }

    #[test]
    fn speedup_doubles_at_half_the_iteration_time() {
        let baseline = IterationMetrics::new(10.0, 1e15, 1e15, 0.3, 0);
        let faster = IterationMetrics::new(5.0, 1e15, 1e15, 0.1, 0);
        assert!((faster.speedup_percent_over(&baseline) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_constructor_computes_mfu() {
        let m = IterationMetrics::new(2.0, 1e15, 1e15, 0.2, 42);
        assert!((m.mfu - 0.5).abs() < 1e-12);
        assert_eq!(m.peak_memory_bytes, 42);
    }
}
