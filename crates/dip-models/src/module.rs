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
        let layers = &self.layers[range];
        let mut total = LayerCost::default();
        for layer in layers {
            let params = layer.param_count() as f64 / tp;
            let param_bytes = (params * BF16_BYTES as f64) as u64;
            let fwd = layer.fwd_flops(workload) / tp;
            let bwd = layer.bwd_flops(workload) / tp;
            let act = (layer.activation_bytes(workload) as f64 / tp) as u64;
            let fwd_mem = (layer.fwd_mem_bytes(workload) as f64 / tp) as u64;
            // Megatron-style TP: two all-reduces (attention out-proj and MLP
            // down-proj) of the full hidden activation per layer per pass.
            let tp_comm = if tp > 1.0 {
                self.tp_allreduce_bytes(layer, workload)
            } else {
                0
            };
            total += LayerCost {
                fwd_flops: fwd,
                bwd_flops: bwd,
                param_bytes,
                grad_bytes: param_bytes,
                optimizer_bytes: (params * crate::ADAM_STATE_BYTES_PER_PARAM as f64) as u64,
                activation_bytes: act,
                fwd_mem_bytes: fwd_mem,
                tp_comm_bytes: tp_comm,
            };
        }
        total
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
    use crate::{TransformerKind, TransformerLayer};

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
}
