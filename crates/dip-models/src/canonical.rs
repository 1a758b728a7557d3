//! Canonical workload signatures: the one workload identity behind both
//! plan-cache tiers.
//!
//! A [`CanonicalSignature`] quantises the sequence-length-like workload
//! dimensions (tokens, sequence counts) into configurable buckets before
//! hashing. Under [`BucketingConfig::exact`] every bucket has width 1, so
//! the signature separates any two distinct workloads: this is the exact
//! plan-cache key. Under wider buckets (the fuzzy tier) every workload
//! inside a bucket maps to the same key, and a plan computed for one
//! in-bucket shape can be *reused* for another — real dynamic traffic
//! produces near-identical shapes that differ by a handful of tokens and
//! would miss an exact-keyed cache. The planner layer re-prices the reused
//! plan against the real shape, so the reuse is bounded-regret rather than
//! approximate.
//!
//! The microbatch count and modality set are folded exactly by default:
//! plans are structurally tied to both (the stage graph has one work item
//! per `(segment, microbatch)` block), so bucketing them would make reuse
//! structurally unsound rather than merely suboptimal.

use crate::{BatchWorkload, ModalityWorkload};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Seed of the signature fold.
const CANONICAL_SEED: u64 = 0xb0c4_e7ab_u64.wrapping_mul(0x9e37_79b9_7f4a_7c15);

/// Folds one word into the accumulator with the SplitMix64 finaliser, so
/// the word's order in the sequence matters and words do not cancel. The
/// simulator's device keys and topology fingerprints fold with it too.
pub fn fold(acc: u64, word: u64) -> u64 {
    let mut z = acc.wrapping_add(word);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How aggressively workload dimensions are quantised before hashing.
///
/// Every dimension uses *bucket index* quantisation: value `v` with bucket
/// width `b` maps to `v / b` (integer division), so `[0, b)`, `[b, 2b)`, …
/// are the buckets. A width of 1 keeps the dimension exact. Wider buckets
/// raise the fuzzy hit rate and the worst-case in-bucket regret together;
/// the regret bound is checked empirically by the `fuzzy_replanning`
/// proptest suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BucketingConfig {
    /// Bucket width for per-modality token counts (1 = exact).
    pub token_bucket: u64,
    /// Bucket width for per-modality sequence counts (1 = exact).
    pub sequence_bucket: u64,
}

impl BucketingConfig {
    /// Exact matching: every bucket has width 1, so two workloads share a
    /// canonical signature exactly when they are equal.
    pub fn exact() -> Self {
        Self {
            token_bucket: 1,
            sequence_bucket: 1,
        }
    }

    /// Bucket index of a token count under this config.
    pub fn token_bin(&self, tokens: u64) -> u64 {
        tokens / self.token_bucket.max(1)
    }

    /// Bucket index of a sequence count under this config.
    pub fn sequence_bin(&self, sequences: u64) -> u64 {
        sequences / self.sequence_bucket.max(1)
    }

    /// The canonical bucket of one modality workload: the pair of bucket
    /// indices that decide fuzzy equality for this modality.
    pub fn bucket_of(&self, workload: &ModalityWorkload) -> (u64, u64) {
        (
            self.token_bin(workload.tokens),
            self.sequence_bin(workload.sequences),
        )
    }
}

impl Default for BucketingConfig {
    /// Moderate default buckets: 512-token and 4-sequence bins. Small
    /// enough that the shapes of the bundled benches stay distinguishable,
    /// wide enough that a ±few-% token jitter around a hot shape lands in
    /// the hot shape's bucket.
    fn default() -> Self {
        Self {
            token_bucket: 512,
            sequence_bucket: 4,
        }
    }
}

/// A quantised, cross-process-stable signature of a workload sequence.
///
/// Two microbatch sequences share a canonical signature exactly when they
/// have the same microbatch count and, per microbatch, the same non-empty
/// modality set with every modality's `(token, sequence)` counts falling in
/// the same [`BucketingConfig`] buckets. The hash folds the bucket indices
/// word by word with the SplitMix64 finaliser, so it is stable across
/// processes and suitable as a persistent cache key; it prints as 16 hex
/// digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CanonicalSignature(u64);

impl CanonicalSignature {
    /// Canonical signature of a microbatch sequence under `config`.
    pub fn of(microbatches: &[BatchWorkload], config: &BucketingConfig) -> Self {
        let mut acc = fold(CANONICAL_SEED, microbatches.len() as u64);
        acc = fold(acc, config.token_bucket.max(1));
        acc = fold(acc, config.sequence_bucket.max(1));
        for batch in microbatches {
            // Per-microbatch separator. `BatchWorkload` iterates in
            // `Modality::ALL` order and never stores an empty workload, so
            // the fold is canonical.
            acc = fold(acc, 0x6d6d_6261);
            for (modality, workload) in batch.iter() {
                let (token_bin, sequence_bin) = config.bucket_of(&workload);
                acc = fold(acc, modality as u64);
                acc = fold(acc, token_bin);
                acc = fold(acc, sequence_bin);
            }
        }
        Self(acc)
    }

    /// The raw 64-bit key.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for CanonicalSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Modality;
    use proptest::prelude::*;

    fn text(tokens: u64, sequences: u64) -> BatchWorkload {
        BatchWorkload::new().with(Modality::Text, ModalityWorkload::new(tokens, sequences))
    }

    #[test]
    fn exact_config_matches_exact_equality() {
        let config = BucketingConfig::exact();
        let key = |batch: BatchWorkload| CanonicalSignature::of(&[batch], &config);
        let base = key(text(1000, 2));
        assert_eq!(key(text(1000, 2)), base);
        assert_ne!(key(text(1001, 2)), base);
        assert_ne!(key(text(999, 2)), base);
        assert_ne!(key(text(1000, 3)), base);
        assert_ne!(key(text(1000, 1)), base);
        let image = BatchWorkload::new().with(Modality::Image, ModalityWorkload::new(1000, 2));
        assert_ne!(key(image), base);
        assert_ne!(key(text(10, 1)), key(text(1, 10)));
        // Empty workloads are never stored, so setting one leaves the key.
        let with_empty = text(1000, 2).with(Modality::Video, ModalityWorkload::from_tokens(0));
        assert_eq!(key(with_empty), base);
    }

    #[test]
    fn exact_signature_is_stable_across_processes() {
        // A literal, so any change to the fold shows up here rather than
        // as silent misses against signatures logged by an older build.
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(100, 2))
            .with(Modality::Image, ModalityWorkload::new(338, 2));
        let signature = CanonicalSignature::of(&[batch], &BucketingConfig::exact());
        assert_eq!(signature.as_u64(), 0xa276_49e7_4c25_e2ba);
        assert_eq!(
            signature.to_string(),
            format!("{:016x}", signature.as_u64())
        );
    }

    #[test]
    fn in_bucket_neighbours_collide_and_cross_bucket_shapes_do_not() {
        let config = BucketingConfig {
            token_bucket: 512,
            sequence_bucket: 4,
        };
        // 8192 and 8191+ up to 8703 share the [8192, 8704) token bucket.
        let base = CanonicalSignature::of(&[text(8192, 2)], &config);
        assert_eq!(CanonicalSignature::of(&[text(8200, 2)], &config), base);
        assert_eq!(CanonicalSignature::of(&[text(8703, 3)], &config), base);
        assert_ne!(CanonicalSignature::of(&[text(8704, 2)], &config), base);
        assert_ne!(CanonicalSignature::of(&[text(8191, 2)], &config), base);
        assert_ne!(CanonicalSignature::of(&[text(8192, 4)], &config), base);
    }

    #[test]
    fn microbatch_count_and_modality_set_stay_exact() {
        let config = BucketingConfig::default();
        let one = CanonicalSignature::of(&[text(8192, 1)], &config);
        let two = CanonicalSignature::of(&[text(8192, 1), text(8192, 1)], &config);
        assert_ne!(one, two);

        let with_image = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(8192, 1))
            .with(Modality::Image, ModalityWorkload::new(169, 1));
        assert_ne!(
            CanonicalSignature::of(&[with_image], &config),
            CanonicalSignature::of(&[text(8192, 1)], &config)
        );
    }

    #[test]
    fn bucket_widths_are_part_of_the_key() {
        let narrow = BucketingConfig {
            token_bucket: 64,
            sequence_bucket: 1,
        };
        let wide = BucketingConfig {
            token_bucket: 4096,
            sequence_bucket: 1,
        };
        assert_ne!(
            CanonicalSignature::of(&[text(8192, 1)], &narrow),
            CanonicalSignature::of(&[text(8192, 1)], &wide)
        );
    }

    proptest! {
        /// Bucketed equality is exactly bucket-index equality: any two
        /// workloads whose per-modality bucket indices agree collide, and
        /// any bucket-index difference separates them.
        #[test]
        fn collision_iff_same_buckets(
            tokens_a in 1u64..100_000,
            tokens_b in 1u64..100_000,
            seqs_a in 1u64..64,
            seqs_b in 1u64..64,
            token_bucket in 1u64..2048,
            sequence_bucket in 1u64..16,
        ) {
            let config = BucketingConfig { token_bucket, sequence_bucket };
            let a = CanonicalSignature::of(&[text(tokens_a, seqs_a)], &config);
            let b = CanonicalSignature::of(&[text(tokens_b, seqs_b)], &config);
            let same_bucket = config.token_bin(tokens_a) == config.token_bin(tokens_b)
                && config.sequence_bin(seqs_a) == config.sequence_bin(seqs_b);
            prop_assert_eq!(a == b, same_bucket);
        }

        /// The signature must not depend on the order in which modalities
        /// are inserted into a batch: the plan cache keys on it, so any
        /// iteration-order sensitivity would turn equal workloads into
        /// spurious cache misses.
        #[test]
        fn signature_is_stable_under_modality_insertion_order(
            entries in prop::collection::vec(
                (0usize..Modality::ALL.len(), 1u64..100_000, 1u64..64),
                1..6,
            ),
            rotation in 0usize..6,
        ) {
            let entries: Vec<(Modality, ModalityWorkload)> = entries
                .into_iter()
                .map(|(m, tokens, seqs)| {
                    (Modality::ALL[m], ModalityWorkload::new(tokens, seqs))
                })
                .collect();

            // Insertion in the generated order (later duplicates accumulate
            // via `add`, matching `FromIterator`).
            let forward: BatchWorkload = entries.iter().copied().collect();
            // Reversed and rotated orders accumulate per-modality in a
            // different sequence but reach the same totals.
            let reversed: BatchWorkload = entries.iter().rev().copied().collect();
            let rotation = rotation % entries.len();
            let rotated: BatchWorkload = entries[rotation..]
                .iter()
                .chain(&entries[..rotation])
                .copied()
                .collect();

            let key = |batch: BatchWorkload| {
                CanonicalSignature::of(&[batch], &BucketingConfig::exact())
            };
            let forward = key(forward);
            prop_assert_eq!(forward, key(reversed));
            prop_assert_eq!(forward, key(rotated));
        }
    }
}
