//! Order statistics and the per-request digest.

use dip_core::PlanTier;

/// Nearest-rank median (the lower middle element for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// The tail of a latency sample: the highest percentile that still has at
/// least `beyond` samples above it. With `n` samples that is the value of
/// nearest rank `n - beyond` (1-based), i.e. percentile
/// `100 · (n - beyond) / n`. Returns `(percentile, value)`, or `None` when
/// the sample has no more than `beyond` values.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= beyond {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - beyond;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// SplitMix64 finaliser.
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable code of a tier, for digests.
pub fn tier_code(tier: PlanTier) -> u64 {
    match tier {
        PlanTier::Cold => 1,
        PlanTier::Exact => 2,
        PlanTier::Fuzzy => 3,
        PlanTier::Elastic => 4,
    }
}

/// Digest of one served request: its tier, the bits of the plan's own
/// makespan estimate and the bits of its simulated iteration time.
pub fn request_digest(tier: PlanTier, planned_time_s: f64, sim_iteration_s: f64) -> u64 {
    let mut acc = 0x6469_705f_6265_6e63u64;
    for word in [
        tier_code(tier),
        planned_time_s.to_bits(),
        sim_iteration_s.to_bits(),
    ] {
        acc = mix(acc ^ word);
    }
    acc
}

/// Digest recorded for a request that failed to plan or simulate.
pub const FAILED_DIGEST: u64 = 0;

/// Order-sensitive fold of a digest sequence into one word.
pub fn fold(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(digests.len() as u64, |acc, &d| mix(acc.rotate_left(17) ^ d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_at_least_the_requested_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = tail(&values, 10).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);

        // 11 samples: the lowest one is the only value with 10 above it.
        let small: Vec<f64> = (0..11).rev().map(f64::from).collect();
        assert_eq!(tail(&small, 10), Some((100.0 / 11.0, 0.0)));
        assert_eq!(tail(&small[..10], 10), None);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let values: Vec<f64> = (0..2000).map(f64::from).collect();
        let (pct, value) = tail(&values, 10).unwrap();
        assert_eq!(pct, 99.5);
        assert_eq!(value, 1989.0);
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn digest_separates_tier_and_bits() {
        let base = request_digest(PlanTier::Cold, 1.5, 2.5);
        assert_eq!(base, request_digest(PlanTier::Cold, 1.5, 2.5));
        assert_ne!(base, request_digest(PlanTier::Fuzzy, 1.5, 2.5));
        assert_ne!(base, request_digest(PlanTier::Cold, 2.5, 1.5));
        assert_ne!(
            base,
            request_digest(PlanTier::Cold, 1.5, f64::from_bits(2.5f64.to_bits() + 1))
        );
        assert_ne!(base, FAILED_DIGEST);
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
        assert_ne!(fold(&[]), fold(&[0]));
    }
}
