use crate::Modality;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The amount of work a single modality module must process for one
/// microbatch (or sub-microbatch).
///
/// Token counts are post-tokenisation: images are already converted to patch
/// tokens and video clips to spatio-temporal tokens, so a single number per
/// modality suffices for the analytical cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ModalityWorkload {
    /// Number of tokens processed by the module.
    pub tokens: u64,
    /// Number of independent packed sequences / instances the tokens are
    /// split into (attention is quadratic *within* a sequence).
    pub sequences: u64,
}

impl ModalityWorkload {
    /// A workload of `tokens` tokens forming a single packed sequence.
    pub fn from_tokens(tokens: u64) -> Self {
        Self {
            tokens,
            sequences: if tokens == 0 { 0 } else { 1 },
        }
    }

    /// A workload of `tokens` tokens split into `sequences` sequences.
    pub fn new(tokens: u64, sequences: u64) -> Self {
        Self { tokens, sequences }
    }

    /// True when there is no work at all.
    pub fn is_empty(&self) -> bool {
        self.tokens == 0
    }

    /// Splits this workload into `parts` roughly equal pieces (used when
    /// constructing sub-microbatches). Empty pieces are omitted.
    pub fn split(&self, parts: usize) -> Vec<ModalityWorkload> {
        if parts <= 1 || self.tokens == 0 {
            return vec![*self];
        }
        let parts = parts as u64;
        let mut out = Vec::with_capacity(parts as usize);
        let base_tokens = self.tokens / parts;
        let rem_tokens = self.tokens % parts;
        let base_seqs = self.sequences / parts;
        let rem_seqs = self.sequences % parts;
        for i in 0..parts {
            let tokens = base_tokens + u64::from(i < rem_tokens);
            if tokens == 0 {
                continue;
            }
            let sequences = (base_seqs + u64::from(i < rem_seqs)).max(1);
            out.push(ModalityWorkload { tokens, sequences });
        }
        out
    }

    /// Merges two workloads (token and sequence counts add).
    pub fn merge(&self, other: &ModalityWorkload) -> ModalityWorkload {
        ModalityWorkload {
            tokens: self.tokens + other.tokens,
            sequences: self.sequences + other.sequences,
        }
    }
}

/// The per-modality workload of one microbatch.
///
/// This is the "metadata" the DIP planner prefetches for the next batch
/// (step ① of the online workflow, §3.2): token counts and instance counts
/// per modality, without the actual tensor data.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BatchWorkload {
    per_modality: BTreeMap<Modality, ModalityWorkload>,
}

impl BatchWorkload {
    /// Creates an empty batch workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the workload for a modality, replacing any previous value.
    pub fn with(mut self, modality: Modality, workload: ModalityWorkload) -> Self {
        self.set(modality, workload);
        self
    }

    /// Sets the workload for a modality.
    pub fn set(&mut self, modality: Modality, workload: ModalityWorkload) {
        if workload.is_empty() {
            self.per_modality.remove(&modality);
        } else {
            self.per_modality.insert(modality, workload);
        }
    }

    /// Adds tokens/sequences to a modality's workload.
    pub fn add(&mut self, modality: Modality, workload: ModalityWorkload) {
        if workload.is_empty() {
            return;
        }
        let entry = self.per_modality.entry(modality).or_default();
        *entry = entry.merge(&workload);
    }

    /// The workload for `modality` (zero if absent).
    pub fn get(&self, modality: Modality) -> ModalityWorkload {
        self.per_modality
            .get(&modality)
            .copied()
            .unwrap_or_default()
    }

    /// Iterates over the non-empty modalities in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (Modality, ModalityWorkload)> + '_ {
        self.per_modality.iter().map(|(m, w)| (*m, *w))
    }

    /// The modalities that carry work in this batch.
    pub fn modalities(&self) -> Vec<Modality> {
        self.per_modality.keys().copied().collect()
    }

    /// Total token count across modalities.
    pub fn total_tokens(&self) -> u64 {
        self.per_modality.values().map(|w| w.tokens).sum()
    }

    /// True when no modality carries any work.
    pub fn is_empty(&self) -> bool {
        self.per_modality.is_empty()
    }

    /// Merges another batch workload into this one.
    pub fn merge(&mut self, other: &BatchWorkload) {
        for (m, w) in other.iter() {
            self.add(m, w);
        }
    }
}

impl FromIterator<(Modality, ModalityWorkload)> for BatchWorkload {
    fn from_iter<T: IntoIterator<Item = (Modality, ModalityWorkload)>>(iter: T) -> Self {
        let mut b = BatchWorkload::new();
        for (m, w) in iter {
            b.add(m, w);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_preserves_totals() {
        let w = ModalityWorkload::new(1000, 7);
        for parts in 1..10 {
            let pieces = w.split(parts);
            let tokens: u64 = pieces.iter().map(|p| p.tokens).sum();
            assert_eq!(tokens, 1000, "parts={parts}");
            assert!(pieces.len() <= parts.max(1));
        }
    }

    #[test]
    fn split_of_empty_workload_is_identity() {
        let w = ModalityWorkload::from_tokens(0);
        assert_eq!(w.split(4), vec![w]);
    }

    #[test]
    fn split_never_produces_zero_sequence_pieces() {
        let w = ModalityWorkload::new(10, 1);
        for piece in w.split(4) {
            assert!(piece.sequences >= 1);
            assert!(piece.tokens >= 1);
        }
    }

    #[test]
    fn batch_workload_accumulates() {
        let mut b = BatchWorkload::new();
        b.add(Modality::Text, ModalityWorkload::from_tokens(100));
        b.add(Modality::Text, ModalityWorkload::from_tokens(50));
        b.add(Modality::Image, ModalityWorkload::new(169, 1));
        assert_eq!(b.get(Modality::Text).tokens, 150);
        assert_eq!(b.total_tokens(), 319);
        assert_eq!(b.modalities(), vec![Modality::Text, Modality::Image]);
    }

    #[test]
    fn empty_workloads_are_not_stored() {
        let b = BatchWorkload::new().with(Modality::Video, ModalityWorkload::from_tokens(0));
        assert!(b.is_empty());
        assert_eq!(b.get(Modality::Video), ModalityWorkload::default());
    }

    #[test]
    fn merge_combines_batches() {
        let a = BatchWorkload::new().with(Modality::Text, ModalityWorkload::from_tokens(10));
        let mut b = BatchWorkload::new().with(Modality::Image, ModalityWorkload::from_tokens(20));
        b.merge(&a);
        assert_eq!(b.total_tokens(), 30);
    }
}
