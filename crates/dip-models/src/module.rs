use crate::{LayerCost, LayerSpec, Modality, ModalityWorkload, ModelError, ModuleRole, BF16_BYTES};
use serde::{Deserialize, Serialize};

/// A modality module of an LMM: an encoder, backbone, decoder or adapter
/// made of a stack of layers that all process the same modality stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModalityModule {
    name: String,
    modality: Modality,
    role: ModuleRole,
    layers: Vec<LayerSpec>,
}

impl ModalityModule {
    /// Creates a new module.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyModule`] if `layers` is empty.
    pub fn new(
        name: impl Into<String>,
        modality: Modality,
        role: ModuleRole,
        layers: Vec<LayerSpec>,
    ) -> Result<Self, ModelError> {
        let name = name.into();
        if layers.is_empty() {
            return Err(ModelError::EmptyModule { module: name });
        }
        Ok(Self {
            name,
            modality,
            role,
            layers,
        })
    }

    /// The module's name (e.g. `"vit-5b"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The modality this module processes.
    pub fn modality(&self) -> Modality {
        self.modality
    }

    /// The module's role within the LMM.
    pub fn role(&self) -> ModuleRole {
        self.role
    }

    /// The module's layers, in execution order.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total parameter count of the module.
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(LayerSpec::param_count).sum()
    }

    /// Total parameter count expressed in billions, handy for reports.
    pub fn param_billions(&self) -> f64 {
        self.param_count() as f64 / 1e9
    }

    /// Analytical cost of running the whole module over `workload` with a
    /// tensor-parallel group of size `tp` (per-GPU cost).
    pub fn cost(&self, workload: &ModalityWorkload, tp: usize) -> LayerCost {
        self.cost_of_layers(0..self.layers.len(), workload, tp)
    }

    /// Analytical per-GPU cost of a contiguous slice of layers
    /// (`range` indexes into [`Self::layers`]).
    ///
    /// Modules are mostly runs of identical blocks (a ViT-5B encoder chunk
    /// at `pp = 4` holds about 16 equal transformer layers), so the cost is
    /// computed once per run of equal consecutive [`LayerSpec`]s and that
    /// one value is added once per layer of the run, in layer order. This
    /// is bit-exact against pricing every layer: a layer's cost is a pure
    /// function of its spec, the workload and `tp`, so equal specs yield
    /// bit-equal costs, and the sum performs the same additions in the same
    /// order. A run is never priced as `run length × cost`, whose rounding
    /// differs.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn cost_of_layers(
        &self,
        range: std::ops::Range<usize>,
        workload: &ModalityWorkload,
        tp: usize,
    ) -> LayerCost {
        let tp = tp.max(1) as f64;
        let mut total = LayerCost::default();
        let mut run: Option<(&LayerSpec, LayerCost)> = None;
        for layer in &self.layers[range] {
            let cost = match run {
                Some((spec, cost)) if spec == layer => cost,
                _ => {
                    let cost = self.layer_cost(layer, workload, tp);
                    run = Some((layer, cost));
                    cost
                }
            };
            total += cost;
        }
        total
    }

    /// The per-GPU cost of one layer over `workload` at tensor-parallel
    /// degree `tp` (already clamped to at least 1).
    fn layer_cost(&self, layer: &LayerSpec, workload: &ModalityWorkload, tp: f64) -> LayerCost {
        let params = layer.param_count() as f64 / tp;
        let param_bytes = (params * BF16_BYTES as f64) as u64;
        // Megatron-style TP: two all-reduces (attention out-proj and MLP
        // down-proj) of the full hidden activation per layer per pass.
        let tp_comm_bytes = if tp > 1.0 {
            self.tp_allreduce_bytes(layer, workload)
        } else {
            0
        };
        LayerCost {
            fwd_flops: layer.fwd_flops(workload) / tp,
            bwd_flops: layer.bwd_flops(workload) / tp,
            param_bytes,
            grad_bytes: param_bytes,
            optimizer_bytes: (params * crate::ADAM_STATE_BYTES_PER_PARAM as f64) as u64,
            activation_bytes: (layer.activation_bytes(workload) as f64 / tp) as u64,
            fwd_mem_bytes: (layer.fwd_mem_bytes(workload) as f64 / tp) as u64,
            tp_comm_bytes,
        }
    }

    fn tp_allreduce_bytes(&self, layer: &LayerSpec, workload: &ModalityWorkload) -> u64 {
        match layer {
            LayerSpec::Transformer(t) => {
                // Two all-reduces of (tokens x embed_dim) bf16 activations.
                2 * workload.tokens * t.embed_dim as u64 * BF16_BYTES
            }
            LayerSpec::LmHead(h) => workload.tokens * h.embed_dim as u64 * BF16_BYTES,
            LayerSpec::Adapter(a) => workload.tokens * a.out_dim as u64 * BF16_BYTES,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AdapterLayer, EmbeddingLayer, LmHeadLayer, PatchEmbedLayer, TransformerKind,
        TransformerLayer,
    };
    use proptest::prelude::*;

    fn small_module() -> ModalityModule {
        let layer = LayerSpec::Transformer(
            TransformerLayer::new(1024, 4096, 16, 16, TransformerKind::VitEncoder).unwrap(),
        );
        ModalityModule::new(
            "vit-test",
            Modality::Image,
            ModuleRole::Encoder,
            vec![layer; 4],
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty_modules() {
        let err = ModalityModule::new("x", Modality::Text, ModuleRole::Backbone, vec![]);
        assert_eq!(
            err.unwrap_err(),
            ModelError::EmptyModule { module: "x".into() }
        );
    }

    #[test]
    fn module_cost_is_sum_of_layer_costs() {
        let m = small_module();
        let wl = ModalityWorkload::from_tokens(1000);
        let whole = m.cost(&wl, 1);
        let first_half = m.cost_of_layers(0..2, &wl, 1);
        let second_half = m.cost_of_layers(2..4, &wl, 1);
        let stitched = first_half + second_half;
        assert!((whole.fwd_flops - stitched.fwd_flops).abs() < 1.0);
        assert_eq!(whole.param_bytes, stitched.param_bytes);
    }

    #[test]
    fn tensor_parallel_divides_compute_and_adds_communication() {
        let m = small_module();
        let wl = ModalityWorkload::from_tokens(1000);
        let tp1 = m.cost(&wl, 1);
        let tp4 = m.cost(&wl, 4);
        assert!(tp4.fwd_flops < tp1.fwd_flops / 3.5);
        assert_eq!(tp1.tp_comm_bytes, 0);
        assert!(tp4.tp_comm_bytes > 0);
    }

    #[test]
    fn param_count_matches_layers() {
        let m = small_module();
        let per_layer = m.layers()[0].param_count();
        assert_eq!(m.param_count(), 4 * per_layer);
        assert!(m.param_billions() > 0.0);
    }

    /// A small pool of layers: two transformer blocks that differ only in
    /// their width, and one layer of each other kind.
    fn layer_pool() -> [LayerSpec; 6] {
        let block = |embed_dim| {
            LayerSpec::Transformer(
                TransformerLayer::new(embed_dim, 4 * embed_dim, 16, 8, TransformerKind::CausalLm)
                    .unwrap(),
            )
        };
        [
            block(1024),
            block(2048),
            LayerSpec::Adapter(AdapterLayer {
                in_dim: 1024,
                out_dim: 2048,
                hidden_dim: 2048,
            }),
            LayerSpec::LmHead(LmHeadLayer {
                vocab_size: 32000,
                embed_dim: 1024,
            }),
            LayerSpec::PatchEmbed(PatchEmbedLayer {
                embed_dim: 1024,
                patch_size: 14,
                in_channels: 3,
            }),
            LayerSpec::Embedding(EmbeddingLayer {
                vocab_size: 32000,
                embed_dim: 1024,
            }),
        ]
    }

    /// Every field of a cost as bits, so `f64`s compare exactly.
    fn cost_bits(cost: &LayerCost) -> [u64; 8] {
        [
            cost.fwd_flops.to_bits(),
            cost.bwd_flops.to_bits(),
            cost.param_bytes,
            cost.grad_bytes,
            cost.optimizer_bytes,
            cost.activation_bytes,
            cost.fwd_mem_bytes,
            cost.tp_comm_bytes,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Run reuse in `cost_of_layers` is bit-exact: over random modules
        /// built from runs of pooled layers (so runs, alternations such as
        /// A B A, and single layers all occur), random sub-ranges including
        /// empty ones, and random workloads including zero tokens, it
        /// equals a naive loop that prices and adds every layer on its own.
        #[test]
        fn run_reuse_equals_a_naive_per_layer_loop(
            runs in prop::collection::vec((0usize..6, 1usize..5), 1..10),
            bounds in (0usize..64, 0usize..64),
            workload in (0u64..40_000, 0u64..9, 0u8..4),
            tp_index in 0usize..4,
        ) {
            let pool = layer_pool();
            let layers: Vec<LayerSpec> = runs
                .iter()
                .flat_map(|&(layer, length)| std::iter::repeat_n(pool[layer], length))
                .collect();
            let module =
                ModalityModule::new("pool", Modality::Text, ModuleRole::Backbone, layers).unwrap();
            let len = module.num_layers();
            let start = bounds.0 % (len + 1);
            let end = start + bounds.1 % (len + 1 - start);
            let (tokens, sequences, zero) = workload;
            let wl = ModalityWorkload::new(if zero == 0 { 0 } else { tokens }, sequences);
            let tp = [1usize, 2, 4, 8][tp_index];

            let div = tp as f64;
            let mut naive = LayerCost::default();
            for layer in &module.layers()[start..end] {
                let params = layer.param_count() as f64 / div;
                let param_bytes = (params * BF16_BYTES as f64) as u64;
                naive += LayerCost {
                    fwd_flops: layer.fwd_flops(&wl) / div,
                    bwd_flops: layer.bwd_flops(&wl) / div,
                    param_bytes,
                    grad_bytes: param_bytes,
                    optimizer_bytes: (params * crate::ADAM_STATE_BYTES_PER_PARAM as f64) as u64,
                    activation_bytes: (layer.activation_bytes(&wl) as f64 / div) as u64,
                    fwd_mem_bytes: (layer.fwd_mem_bytes(&wl) as f64 / div) as u64,
                    tp_comm_bytes: if tp > 1 { module.tp_allreduce_bytes(layer, &wl) } else { 0 },
                };
            }
            let reused = module.cost_of_layers(start..end, &wl, tp);
            prop_assert_eq!(
                cost_bits(&reused),
                cost_bits(&naive),
                "layers {}..{} of {:?}, {:?}, tp {}",
                start,
                end,
                runs,
                wl,
                tp
            );
        }
    }
}
