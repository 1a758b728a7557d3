//! The modality-aware partitioner (§4).
//!
//! Offline, before training, the partitioner chooses for every modality
//! module a sub-microbatch size `B_i` (the smallest granule keeping GPU
//! efficiency above 95% of peak) and a pipeline-segment count
//! `K_i = ⌊T_i / T_1⌋`, then builds the separated placement. Online, for each
//! incoming microbatch, it splits each module's workload into
//! `M_i = ⌈N_i / B_i⌉` sub-microbatches.
//!
//! The efficiency target and the caps on `K_i` (4) and `M_i` (8) are fixed
//! constants; [`PartitionerConfig`] only selects the placement mode.

use crate::error::{DipError, ResultExt};
use dip_models::{BatchWorkload, LmmSpec, ModalityWorkload, ModuleId, ModuleRole};
use dip_pipeline::{ParallelConfig, Placement, PlacementMode, SubMicrobatchPlan};
use dip_sim::{ClusterTopology, TimingModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Fraction of peak GPU efficiency a sub-microbatch must retain (§4).
const EFFICIENCY_TARGET: f64 = 0.95;
/// Upper bound on the pipeline segments `K_i` of one module (§4), keeping
/// the ordering search space and per-stage overheads bounded.
const MAX_SEGMENTS_PER_MODULE: usize = 4;
/// Upper bound on the sub-microbatches `M_i` of one module in one
/// microbatch (§4).
const MAX_SUB_MICROBATCHES: usize = 8;

/// Configuration of the modality-aware partitioner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PartitionerConfig {
    /// How layers are distributed across the ranks' devices. The default
    /// [`PlacementMode::CapacityAware`] follows per-device spec-sheet
    /// capability on heterogeneous topologies;
    /// [`PlacementMode::LatencyBalanced`] balances *simulated* per-stage
    /// latency priced on each hosting rank's own device (and prices segment
    /// counts on the hosting ranks too). Both reduce bit-exactly to
    /// [`PlacementMode::RoundRobin`] on uniform topologies.
    pub placement: PlacementMode,
}

/// The offline output of the partitioner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionerOutput {
    /// Chosen sub-microbatch size per module, expressed in *instances* of the
    /// module's modality (images / clips / packed sequences).
    pub sub_microbatch_sizes: BTreeMap<ModuleId, u64>,
    /// Pipeline segment count `K_i` per module.
    pub segment_counts: BTreeMap<ModuleId, usize>,
    /// The separated placement built from the segment counts.
    pub placement: Placement,
}

/// The modality-aware partitioner.
#[derive(Debug, Clone)]
pub struct ModalityAwarePartitioner<'a> {
    spec: &'a LmmSpec,
    parallel: ParallelConfig,
    timing: TimingModel,
    config: PartitionerConfig,
    topology: Option<ClusterTopology>,
}

impl<'a> ModalityAwarePartitioner<'a> {
    /// Creates a partitioner. Without a topology
    /// ([`ModalityAwarePartitioner::on_topology`]) the placement falls back
    /// to the uniform round-robin layer split.
    pub fn new(
        spec: &'a LmmSpec,
        parallel: ParallelConfig,
        timing: TimingModel,
        config: PartitionerConfig,
    ) -> Self {
        Self {
            spec,
            parallel,
            timing,
            config,
            topology: None,
        }
    }

    /// Binds the partitioner to a cluster topology so the capacity-aware
    /// placement mode can weigh layer counts by per-rank device capability.
    pub fn on_topology(mut self, topology: &ClusterTopology) -> Self {
        self.topology = Some(topology.clone());
        self
    }

    /// Determines the sub-microbatch size for one module: the smallest number
    /// of modality instances whose per-stage work keeps the GPU at or above
    /// the efficiency target (§4, "Determine Sub-Microbatch Size").
    ///
    /// `instance_workload` is the workload of a single instance (e.g. one
    /// image = 169 patch tokens); `typical_instances` is the typical number
    /// of instances per microbatch and acts as an upper bound.
    pub fn sub_microbatch_size(
        &self,
        module: ModuleId,
        instance_workload: &ModalityWorkload,
        typical_instances: u64,
    ) -> u64 {
        let typical = typical_instances.max(1);
        let module_ref = self.spec.module(module);
        // Per-rank work of one instance through one pipeline stage of this
        // module (layers are spread over pp * K ranks; use a single-segment
        // stage as the reference granule, matching the paper's profiling of
        // the module's own kernels).
        let per_instance_flops = {
            let cost = module_ref.cost(instance_workload, self.parallel.tp);
            (cost.fwd_flops / self.parallel.pp as f64).max(1.0)
        };
        let required = self
            .timing
            .efficiency
            .work_for_utilisation(EFFICIENCY_TARGET);
        let needed = (required / per_instance_flops).ceil() as u64;
        needed.clamp(1, typical)
    }

    /// Determines the per-module segment counts `K_i = ⌊T_i / T_1⌋`
    /// (§4, "Partition Model Chunks") for a representative microbatch.
    ///
    /// Under [`PlacementMode::LatencyBalanced`] on a (bound, non-uniform)
    /// topology, each module's latency `T_i` is priced on its *actual
    /// hosting ranks* instead of the single reference device: the separated
    /// placement spreads every module across all `pp` ranks, and in the
    /// latency-balanced optimum each of the `pp` stages of one traversal
    /// takes `W / Σ_r s_r` (total work over summed per-rank, per-module
    /// throughput) — which equals the harmonic mean of the module's
    /// whole-module latencies priced per rank device. On a mixed cluster
    /// the per-module latency *ratios* differ per device kind (a
    /// memory-bound encoder slows down far less on an H20 than the
    /// FLOP-bound backbone does), so `K_i` shifts accordingly. All other
    /// modes keep the reference-device pricing, bit-identical to the
    /// pre-existing behaviour.
    pub fn segment_counts(&self, representative: &BatchWorkload) -> BTreeMap<ModuleId, usize> {
        let hosting_timings: Option<Vec<TimingModel>> =
            match (&self.topology, self.config.placement) {
                (Some(topology), PlacementMode::LatencyBalanced) if !topology.is_uniform() => Some(
                    (0..self.parallel.pp)
                        .map(|r| topology.rank_timing(r, self.parallel.tp, self.timing.efficiency))
                        .collect(),
                ),
                _ => None,
            };
        let mut latencies: Vec<(ModuleId, f64)> = Vec::new();
        for (id, wl) in self.spec.module_workloads(representative) {
            let module = self.spec.module(id);
            // Adapters are negligible; pin them to a single segment.
            if module.role() == ModuleRole::Adapter {
                continue;
            }
            let cost = module.cost(&wl, self.parallel.tp);
            let latency = match &hosting_timings {
                Some(timings) => {
                    // Harmonic mean over the hosting ranks' devices: the
                    // latency of one balanced traversal of the module
                    // across the actual device mix.
                    let inverse_sum: f64 = timings
                        .iter()
                        .map(|t| {
                            1.0 / (t.forward_latency(&cost) + t.backward_latency(&cost)).max(1e-9)
                        })
                        .sum();
                    timings.len() as f64 / inverse_sum
                }
                None => self.timing.forward_latency(&cost) + self.timing.backward_latency(&cost),
            };
            latencies.push((id, latency.max(1e-9)));
        }
        let t1 = latencies
            .iter()
            .map(|(_, t)| *t)
            .fold(f64::INFINITY, f64::min);
        let mut counts = BTreeMap::new();
        for (id, t) in latencies {
            let k = ((t / t1).floor() as usize).clamp(1, MAX_SEGMENTS_PER_MODULE);
            counts.insert(id, k);
        }
        counts
    }

    /// Runs the full offline phase: sub-microbatch sizes, segment counts and
    /// the separated placement.
    ///
    /// # Errors
    ///
    /// Returns [`DipError::Pipeline`] when the separated placement does not
    /// validate against the model specification (e.g. a degenerate parallel
    /// configuration leaves layers uncovered).
    pub fn partition(&self, representative: &BatchWorkload) -> Result<PartitionerOutput, DipError> {
        let segment_counts = self.segment_counts(representative);
        let placement = self.config.placement.place(
            self.spec,
            self.parallel,
            &segment_counts,
            self.topology.as_ref(),
            self.timing.efficiency,
            representative,
        );
        placement
            .validate(self.spec)
            .planning_context("offline modality-aware partitioning")?;

        let mut sub_microbatch_sizes = BTreeMap::new();
        for (id, module) in self.spec.iter() {
            let wl = self
                .spec
                .module_workloads(representative)
                .into_iter()
                .find(|(m, _)| *m == id)
                .map(|(_, w)| w)
                .unwrap_or_default();
            if wl.is_empty() || module.role() == ModuleRole::Adapter {
                sub_microbatch_sizes.insert(id, u64::MAX);
                continue;
            }
            let instances = wl.sequences.max(1);
            let instance_workload = ModalityWorkload::new((wl.tokens / instances).max(1), 1);
            let size = self.sub_microbatch_size(id, &instance_workload, instances);
            sub_microbatch_sizes.insert(id, size);
        }

        Ok(PartitionerOutput {
            sub_microbatch_sizes,
            segment_counts,
            placement,
        })
    }

    /// Online step ② of the workflow: builds the sub-microbatch plan for one
    /// iteration's microbatches (`M_i = ⌈N_i / B_i⌉`, §4, "Construct
    /// Sub-Microbatch").
    pub fn sub_microbatch_plan(
        &self,
        output: &PartitionerOutput,
        microbatches: &[BatchWorkload],
    ) -> SubMicrobatchPlan {
        let num_segments = output.placement.segments.len();
        let mut plan = SubMicrobatchPlan::uniform(num_segments, microbatches.len());
        for (s, segment) in output.placement.segments.iter().enumerate() {
            let Some(module_id) = segment.module else {
                continue;
            };
            // Only split modules that process a single modality stream; the
            // backbone (which sees the whole packed sequence) is not split.
            let source_is_single = matches!(
                self.spec.source(module_id),
                dip_models::WorkloadSource::Single(_)
            );
            if !source_is_single {
                continue;
            }
            let b = output
                .sub_microbatch_sizes
                .get(&module_id)
                .copied()
                .unwrap_or(u64::MAX);
            if b == u64::MAX || b == 0 {
                continue;
            }
            for (m, batch) in microbatches.iter().enumerate() {
                let wl = self
                    .spec
                    .module_workloads(batch)
                    .into_iter()
                    .find(|(id, _)| *id == module_id)
                    .map(|(_, w)| w)
                    .unwrap_or_default();
                let instances = wl.sequences;
                if instances == 0 {
                    continue;
                }
                let splits = instances.div_ceil(b) as usize;
                plan.set(s, m, splits.clamp(1, MAX_SUB_MICROBATCHES));
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::{zoo, Modality};
    use dip_sim::{ClusterTopology, EfficiencyModel, TimingModel};

    fn partitioner(spec: &LmmSpec) -> ModalityAwarePartitioner<'_> {
        let cluster = ClusterTopology::h800_cluster(2);
        let timing = TimingModel::new(cluster.reference_device(), EfficiencyModel::default());
        ModalityAwarePartitioner::new(
            spec,
            ParallelConfig::new(4, 4, 1),
            timing,
            PartitionerConfig::default(),
        )
    }

    fn vlm_batch(images: u64) -> BatchWorkload {
        BatchWorkload::new()
            .with(
                Modality::Text,
                ModalityWorkload::new(8192 - images * 169, 1),
            )
            .with(Modality::Image, ModalityWorkload::new(images * 169, images))
    }

    #[test]
    fn backbone_gets_more_segments_than_the_encoder() {
        let spec = zoo::vlm_s();
        let p = partitioner(&spec);
        let counts = p.segment_counts(&vlm_batch(10));
        let backbone = spec.backbone_id().unwrap();
        let (encoder_id, _) = spec.encoders().next().unwrap();
        // The 8B LM over 8192 tokens is slower than the 5B ViT over 1690
        // image tokens, so it should receive more pipeline segments.
        assert!(counts[&backbone] > counts[&encoder_id]);
        assert!(counts[&backbone] <= 4);
    }

    #[test]
    fn segment_and_split_counts_stop_at_their_caps() {
        let spec = zoo::vlm_s();
        let p = partitioner(&spec);
        // Against a one-image batch the backbone is many times slower than
        // the encoder, so its raw `⌊T_i / T_1⌋` exceeds the segment cap.
        let out = p.partition(&vlm_batch(1)).unwrap();
        let backbone = spec.backbone_id().unwrap();
        let (encoder_id, _) = spec.encoders().next().unwrap();
        assert_eq!(out.segment_counts[&backbone], MAX_SEGMENTS_PER_MODULE);
        // One image per sub-microbatch: a 48-image microbatch asks for 48
        // encoder splits, which the split cap clamps.
        assert_eq!(out.sub_microbatch_sizes[&encoder_id], 1);
        let plan = p.sub_microbatch_plan(&out, &[vlm_batch(48)]);
        let most = (0..out.placement.segments.len())
            .map(|s| plan.splits(s, 0))
            .max();
        assert_eq!(most, Some(MAX_SUB_MICROBATCHES));
    }

    #[test]
    fn partition_produces_a_valid_separated_placement() {
        let spec = zoo::vlm_s();
        let p = partitioner(&spec);
        let out = p.partition(&vlm_batch(10)).unwrap();
        out.placement.validate(&spec).unwrap();
        assert!(out.placement.segments.len() >= 3);
        for seg in out.placement.segments.iter() {
            assert!(seg.module.is_some());
        }
    }

    #[test]
    fn sub_microbatch_size_shrinks_for_heavier_instances() {
        let spec = zoo::vlm_s();
        let p = partitioner(&spec);
        let (encoder_id, _) = spec.encoders().next().unwrap();
        let small_instance = ModalityWorkload::new(169, 1);
        let large_instance = ModalityWorkload::new(169 * 8, 1);
        let b_small = p.sub_microbatch_size(encoder_id, &small_instance, 48);
        let b_large = p.sub_microbatch_size(encoder_id, &large_instance, 48);
        assert!(b_large <= b_small);
        assert!((1..=48).contains(&b_small));
    }

    #[test]
    fn sub_microbatch_plan_splits_only_image_segments() {
        let spec = zoo::vlm_s();
        let p = partitioner(&spec);
        let out = p.partition(&vlm_batch(24)).unwrap();
        let batches = vec![vlm_batch(48), vlm_batch(1)];
        let plan = p.sub_microbatch_plan(&out, &batches);
        let backbone = spec.backbone_id().unwrap();
        let (encoder_id, _) = spec.encoders().next().unwrap();
        let encoder_segments = out.placement.segments_of_module(encoder_id);
        let backbone_segments = out.placement.segments_of_module(backbone);
        // The image-heavy microbatch should be split more finely than the
        // single-image one on the encoder segments.
        let enc_seg = encoder_segments[0];
        assert!(plan.splits(enc_seg, 0) >= plan.splits(enc_seg, 1));
        // The backbone is never split.
        for &s in &backbone_segments {
            assert_eq!(plan.splits(s, 0), 1);
        }
    }

    #[test]
    fn consecutive_segments_of_a_module_share_split_counts() {
        let spec = zoo::vlm_s();
        let p = partitioner(&spec);
        let out = p.partition(&vlm_batch(24)).unwrap();
        let batches = vec![vlm_batch(40); 3];
        let plan = p.sub_microbatch_plan(&out, &batches);
        for (id, _) in spec.iter() {
            let segs = out.placement.segments_of_module(id);
            for w in segs.windows(2) {
                for m in 0..batches.len() {
                    assert_eq!(plan.splits(w[0], m), plan.splits(w[1], m));
                }
            }
        }
    }

    #[test]
    fn t2v_partitioning_assigns_segments_to_both_modules() {
        let spec = zoo::t2v_s();
        let p = partitioner(&spec);
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(1200, 8))
            .with(Modality::Video, ModalityWorkload::new(16 * 1560, 4));
        let out = p.partition(&batch).unwrap();
        out.placement.validate(&spec).unwrap();
        assert!(out.segment_counts.len() >= 2);
    }
}
