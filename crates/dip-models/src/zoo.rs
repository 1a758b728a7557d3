//! The model zoo used throughout the paper's evaluation.
//!
//! Architectures follow Table 2 (ViT 5B/22B, Llama3 8B, Qwen2 32B/72B,
//! DiT 5B/30B), the combinations follow Table 3 (VLM-S/M/L, T2V-S/L) and
//! Table 6 (VLM-XL, T2V-XL), and the motivation models of §2 (unimodal 7B LM,
//! ViT 2B + LM 5B, and the 37B VLM) are included as well.

use crate::{
    AdapterLayer, EmbeddingLayer, LayerSpec, LmHeadLayer, LmmSpec, Modality, ModalityModule,
    ModuleRole, PatchEmbedLayer, TransformerKind, TransformerLayer,
};
use serde::{Deserialize, Serialize};

/// Llama 3 vocabulary size.
pub const LLAMA3_VOCAB: usize = 128_256;
/// Qwen2 vocabulary size.
pub const QWEN2_VOCAB: usize = 152_064;
/// GPT-3 vocabulary size.
pub const GPT3_VOCAB: usize = 50_257;
/// ViT patch size used by the Qwen2-VL-style encoder in the paper (§7.1).
pub const VIT_PATCH_SIZE: usize = 14;
/// Patch tokens produced per 728-px image after spatial merging (§7.1).
pub const TOKENS_PER_IMAGE: u64 = 169;
/// Context length used for packing VLM microbatches (§7.1).
pub const VLM_CONTEXT_LENGTH: u64 = 8192;
/// Maximum images per packed 8192-token sequence (`⌊8192/169⌋`, §7.1).
pub const MAX_IMAGES_PER_SEQUENCE: u64 = VLM_CONTEXT_LENGTH / TOKENS_PER_IMAGE;

/// Builds a stack of identical transformer layers.
fn transformer_stack(
    count: usize,
    embed_dim: usize,
    ffn_hidden_dim: usize,
    num_heads: usize,
    num_kv_groups: usize,
    kind: TransformerKind,
) -> Vec<LayerSpec> {
    let layer = TransformerLayer::new(embed_dim, ffn_hidden_dim, num_heads, num_kv_groups, kind)
        .expect("zoo layer dimensions are valid");
    vec![LayerSpec::Transformer(layer); count]
}

/// A ViT image encoder with a leading patch embedding.
fn vit_module(
    name: &str,
    layers: usize,
    embed_dim: usize,
    ffn_hidden_dim: usize,
    heads: usize,
) -> ModalityModule {
    let mut stack = vec![LayerSpec::PatchEmbed(PatchEmbedLayer {
        embed_dim,
        patch_size: VIT_PATCH_SIZE,
        in_channels: 3,
    })];
    stack.extend(transformer_stack(
        layers,
        embed_dim,
        ffn_hidden_dim,
        heads,
        heads,
        TransformerKind::VitEncoder,
    ));
    ModalityModule::new(name, Modality::Image, ModuleRole::Encoder, stack)
        .expect("non-empty ViT module")
}

/// A dense causal LLM with embedding and output head.
#[allow(clippy::too_many_arguments)]
fn llm_module(
    name: &str,
    role: ModuleRole,
    modality: Modality,
    layers: usize,
    embed_dim: usize,
    ffn_hidden_dim: usize,
    heads: usize,
    kv_groups: usize,
    vocab: usize,
    kind: TransformerKind,
) -> ModalityModule {
    let mut stack = vec![LayerSpec::Embedding(EmbeddingLayer {
        vocab_size: vocab,
        embed_dim,
    })];
    stack.extend(transformer_stack(
        layers,
        embed_dim,
        ffn_hidden_dim,
        heads,
        kv_groups,
        kind,
    ));
    stack.push(LayerSpec::LmHead(LmHeadLayer {
        vocab_size: vocab,
        embed_dim,
    }));
    ModalityModule::new(name, modality, role, stack).expect("non-empty LLM module")
}

/// A DiT video decoder.
fn dit_module(
    name: &str,
    layers: usize,
    embed_dim: usize,
    ffn_hidden_dim: usize,
    heads: usize,
) -> ModalityModule {
    let mut stack = vec![LayerSpec::PatchEmbed(PatchEmbedLayer {
        embed_dim,
        patch_size: 2,
        in_channels: 16,
    })];
    stack.extend(transformer_stack(
        layers,
        embed_dim,
        ffn_hidden_dim,
        heads,
        heads,
        TransformerKind::DitBlock,
    ));
    ModalityModule::new(name, Modality::Video, ModuleRole::Decoder, stack)
        .expect("non-empty DiT module")
}

/// A lightweight modality adapter projecting from `in_dim` to `out_dim`.
fn adapter_module(name: &str, modality: Modality, in_dim: usize, out_dim: usize) -> ModalityModule {
    let layer = LayerSpec::Adapter(AdapterLayer {
        in_dim,
        out_dim,
        hidden_dim: out_dim,
    });
    ModalityModule::new(name, modality, ModuleRole::Adapter, vec![layer])
        .expect("non-empty adapter module")
}

// ---------------------------------------------------------------------------
// Table 2 architectures
// ---------------------------------------------------------------------------

/// ViT 5B image encoder (63 layers, d=1792, ffn=15360, 16 heads).
pub fn vit_5b() -> ModalityModule {
    vit_module("vit-5b", 63, 1792, 15360, 16)
}

/// ViT 22B image encoder (48 layers, d=6144, ffn=24576, 48 heads).
pub fn vit_22b() -> ModalityModule {
    vit_module("vit-22b", 48, 6144, 24576, 48)
}

/// Llama3 8B language model (32 layers, d=4096, ffn=14336, 32 heads, 8 KV groups).
pub fn llama3_8b(role: ModuleRole) -> ModalityModule {
    llm_module(
        "llama3-8b",
        role,
        Modality::Text,
        32,
        4096,
        14336,
        32,
        8,
        LLAMA3_VOCAB,
        TransformerKind::CausalLm,
    )
}

/// Qwen2 32B language model (64 layers, d=5120, ffn=27648, 40 heads, 8 KV groups).
pub fn qwen2_32b(role: ModuleRole) -> ModalityModule {
    llm_module(
        "qwen2-32b",
        role,
        Modality::Text,
        64,
        5120,
        27648,
        40,
        8,
        QWEN2_VOCAB,
        TransformerKind::CausalLm,
    )
}

/// Qwen2 72B language model (80 layers, d=8192, ffn=29568, 64 heads, 8 KV groups).
pub fn qwen2_72b(role: ModuleRole) -> ModalityModule {
    llm_module(
        "qwen2-72b",
        role,
        Modality::Text,
        80,
        8192,
        29568,
        64,
        8,
        QWEN2_VOCAB,
        TransformerKind::CausalLm,
    )
}

/// GPT 175B language model backbone (96 layers, d=12288, 96 heads), Table 6.
pub fn gpt_175b() -> ModalityModule {
    llm_module(
        "gpt-175b",
        ModuleRole::Backbone,
        Modality::Text,
        96,
        12288,
        49152,
        96,
        96,
        GPT3_VOCAB,
        TransformerKind::GptBlock,
    )
}

/// DiT 5B video decoder (28 layers, d=3584, ffn=10240, 28 heads).
pub fn dit_5b() -> ModalityModule {
    dit_module("dit-5b", 28, 3584, 10240, 28)
}

/// DiT 30B video decoder (48 layers, d=6144, ffn=24576, 48 heads).
pub fn dit_30b() -> ModalityModule {
    dit_module("dit-30b", 48, 6144, 24576, 48)
}

// ---------------------------------------------------------------------------
// Motivation models (§2, Table 1)
// ---------------------------------------------------------------------------

/// Unimodal 7B language model used in Table 1.
pub fn lm_7b() -> LmmSpec {
    let lm = llm_module(
        "lm-7b",
        ModuleRole::Backbone,
        Modality::Text,
        32,
        4096,
        11008,
        32,
        32,
        32_000,
        TransformerKind::CausalLm,
    );
    LmmSpec::builder("LM-7B")
        .module_over_all_tokens(lm)
        .build()
        .expect("valid LM-7B spec")
}

/// ViT 2B + LM 5B vision-language model used in Table 1 and §3.1.
pub fn vlm_2b_5b() -> LmmSpec {
    let vit = vit_module("vit-2b", 48, 1792, 7168, 16);
    let adapter = adapter_module("vit2lm-adapter", Modality::Image, 1792, 3584);
    let lm = llm_module(
        "lm-5b",
        ModuleRole::Backbone,
        Modality::Text,
        32,
        3584,
        9472,
        28,
        28,
        32_000,
        TransformerKind::CausalLm,
    );
    LmmSpec::builder("VLM-2B+5B")
        .module(vit)
        .module(adapter)
        .module_over_all_tokens(lm)
        .build()
        .expect("valid VLM-2B+5B spec")
}

/// The 37B VLM of §2.3 (5B ViT with 64 layers + 32B language model, 64 layers).
pub fn vlm_37b() -> LmmSpec {
    let vit = vit_module("vit-5b-64l", 64, 1792, 15360, 16);
    let adapter = adapter_module("vit2lm-adapter", Modality::Image, 1792, 5120);
    let lm = qwen2_32b(ModuleRole::Backbone);
    LmmSpec::builder("VLM-37B")
        .module(vit)
        .module(adapter)
        .module_over_all_tokens(lm)
        .build()
        .expect("valid VLM-37B spec")
}

// ---------------------------------------------------------------------------
// Table 3 combinations
// ---------------------------------------------------------------------------

/// VLM-S: ViT 5B + Llama3 8B.
pub fn vlm_s() -> LmmSpec {
    let vit = vit_5b();
    let adapter = adapter_module("vit2lm-adapter", Modality::Image, 1792, 4096);
    LmmSpec::builder("VLM-S")
        .module(vit)
        .module(adapter)
        .module_over_all_tokens(llama3_8b(ModuleRole::Backbone))
        .build()
        .expect("valid VLM-S spec")
}

/// VLM-M: ViT 5B + Qwen2 32B.
pub fn vlm_m() -> LmmSpec {
    let vit = vit_5b();
    let adapter = adapter_module("vit2lm-adapter", Modality::Image, 1792, 5120);
    LmmSpec::builder("VLM-M")
        .module(vit)
        .module(adapter)
        .module_over_all_tokens(qwen2_32b(ModuleRole::Backbone))
        .build()
        .expect("valid VLM-M spec")
}

/// VLM-L: ViT 22B + Qwen2 72B.
pub fn vlm_l() -> LmmSpec {
    let vit = vit_22b();
    let adapter = adapter_module("vit2lm-adapter", Modality::Image, 6144, 8192);
    LmmSpec::builder("VLM-L")
        .module(vit)
        .module(adapter)
        .module_over_all_tokens(qwen2_72b(ModuleRole::Backbone))
        .build()
        .expect("valid VLM-L spec")
}

/// T2V-S: Llama3 8B text encoder + DiT 5B video decoder.
pub fn t2v_s() -> LmmSpec {
    let lm = llama3_8b(ModuleRole::Encoder);
    let adapter = adapter_module("lm2dit-adapter", Modality::Text, 4096, 3584);
    LmmSpec::builder("T2V-S")
        .module(lm)
        .module(adapter)
        .module(dit_5b())
        .build()
        .expect("valid T2V-S spec")
}

/// T2V-L: Qwen2 32B text encoder + DiT 30B video decoder.
pub fn t2v_l() -> LmmSpec {
    let lm = qwen2_32b(ModuleRole::Encoder);
    let adapter = adapter_module("lm2dit-adapter", Modality::Text, 5120, 6144);
    LmmSpec::builder("T2V-L")
        .module(lm)
        .module(adapter)
        .module(dit_30b())
        .build()
        .expect("valid T2V-L spec")
}

// ---------------------------------------------------------------------------
// Table 6 extra-large combinations
// ---------------------------------------------------------------------------

/// VLM-XL: ViT 22B + GPT 175B (large-scale simulation, Table 6).
pub fn vlm_xl() -> LmmSpec {
    let vit = vit_22b();
    let adapter = adapter_module("vit2lm-adapter", Modality::Image, 6144, 12288);
    LmmSpec::builder("VLM-XL")
        .module(vit)
        .module(adapter)
        .module_over_all_tokens(gpt_175b())
        .build()
        .expect("valid VLM-XL spec")
}

/// T2V-XL: Qwen2 72B text encoder + DiT 30B video decoder (Table 6).
pub fn t2v_xl() -> LmmSpec {
    let lm = qwen2_72b(ModuleRole::Encoder);
    let adapter = adapter_module("lm2dit-adapter", Modality::Text, 8192, 6144);
    LmmSpec::builder("T2V-XL")
        .module(lm)
        .module(adapter)
        .module(dit_30b())
        .build()
        .expect("valid T2V-XL spec")
}

// ---------------------------------------------------------------------------
// Evaluation setups (model + parallelism), Tables 3 and 6
// ---------------------------------------------------------------------------

/// A model combination with the parallelism configuration the paper uses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelSetup {
    /// Display name ("VLM-S", "T2V-XL-3k", ...).
    pub name: String,
    /// The model specification.
    pub model: LmmSpec,
    /// Tensor-parallel size.
    pub tp: usize,
    /// Pipeline-parallel size.
    pub pp: usize,
    /// Data-parallel size.
    pub dp: usize,
}

impl ModelSetup {
    /// Total number of GPUs (`tp * pp * dp`).
    pub fn num_gpus(&self) -> usize {
        self.tp * self.pp * self.dp
    }
}

/// The five evaluation setups of Table 3.
pub fn table3_setups() -> Vec<ModelSetup> {
    vec![
        ModelSetup {
            name: "VLM-S".into(),
            model: vlm_s(),
            tp: 4,
            pp: 4,
            dp: 1,
        },
        ModelSetup {
            name: "VLM-M".into(),
            model: vlm_m(),
            tp: 8,
            pp: 4,
            dp: 1,
        },
        ModelSetup {
            name: "VLM-L".into(),
            model: vlm_l(),
            tp: 8,
            pp: 8,
            dp: 1,
        },
        ModelSetup {
            name: "T2V-S".into(),
            model: t2v_s(),
            tp: 4,
            pp: 4,
            dp: 1,
        },
        ModelSetup {
            name: "T2V-L".into(),
            model: t2v_l(),
            tp: 8,
            pp: 8,
            dp: 1,
        },
    ]
}

/// The four large-scale simulation setups of Table 6.
pub fn table6_setups() -> Vec<ModelSetup> {
    vec![
        ModelSetup {
            name: "VLM-XL-8k".into(),
            model: vlm_xl(),
            tp: 8,
            pp: 8,
            dp: 128,
        },
        ModelSetup {
            name: "VLM-XL-16k".into(),
            model: vlm_xl(),
            tp: 8,
            pp: 16,
            dp: 128,
        },
        ModelSetup {
            name: "T2V-XL-3k".into(),
            model: t2v_xl(),
            tp: 8,
            pp: 4,
            dp: 96,
        },
        ModelSetup {
            name: "T2V-XL-6k".into(),
            model: t2v_xl(),
            tp: 8,
            pp: 8,
            dp: 96,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_params_within(actual_billions: f64, expected_billions: f64, tolerance: f64) {
        let lo = expected_billions * (1.0 - tolerance);
        let hi = expected_billions * (1.0 + tolerance);
        assert!(
            (lo..=hi).contains(&actual_billions),
            "expected ~{expected_billions}B, got {actual_billions:.2}B"
        );
    }

    #[test]
    fn table2_param_counts_are_close_to_nominal() {
        assert_params_within(vit_5b().param_billions(), 5.0, 0.25);
        assert_params_within(vit_22b().param_billions(), 22.0, 0.15);
        assert_params_within(llama3_8b(ModuleRole::Backbone).param_billions(), 8.0, 0.15);
        assert_params_within(qwen2_32b(ModuleRole::Backbone).param_billions(), 32.0, 0.20);
        assert_params_within(qwen2_72b(ModuleRole::Backbone).param_billions(), 72.0, 0.15);
        assert_params_within(dit_5b().param_billions(), 5.0, 0.25);
        assert_params_within(dit_30b().param_billions(), 30.0, 0.15);
        assert_params_within(gpt_175b().param_billions(), 175.0, 0.10);
    }

    #[test]
    fn table3_combination_sizes_span_12b_to_94b() {
        // Paper: five LMMs ranging from 12B to 94B parameters.
        let sizes: Vec<f64> = table3_setups()
            .iter()
            .map(|s| s.model.param_billions())
            .collect();
        let min = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sizes.iter().cloned().fold(0.0_f64, f64::max);
        assert!(min > 10.0 && min < 16.0, "smallest model {min:.1}B");
        assert!(max > 85.0 && max < 105.0, "largest model {max:.1}B");
    }

    #[test]
    fn table3_gpu_counts_match_paper() {
        let setups = table3_setups();
        let gpus: Vec<usize> = setups.iter().map(|s| s.num_gpus()).collect();
        assert_eq!(gpus, vec![16, 32, 64, 16, 64]);
    }

    #[test]
    fn table6_gpu_counts_match_paper() {
        let setups = table6_setups();
        let gpus: Vec<usize> = setups.iter().map(|s| s.num_gpus()).collect();
        assert_eq!(gpus, vec![8192, 16384, 3072, 6144]);
    }

    #[test]
    fn vlm_specs_have_encoder_adapter_backbone() {
        for spec in [vlm_s(), vlm_m(), vlm_l(), vlm_xl()] {
            assert_eq!(spec.modules().len(), 3, "{}", spec.name());
            assert!(spec.backbone().is_some(), "{}", spec.name());
            assert_eq!(spec.encoders().count(), 1, "{}", spec.name());
        }
    }

    #[test]
    fn t2v_specs_have_text_encoder_and_video_decoder() {
        for spec in [t2v_s(), t2v_l(), t2v_xl()] {
            assert_eq!(spec.encoders().count(), 1, "{}", spec.name());
            assert_eq!(spec.decoders().count(), 1, "{}", spec.name());
            assert_eq!(
                spec.decoders().next().unwrap().1.modality(),
                Modality::Image.max(Modality::Video)
            );
        }
    }

    #[test]
    fn motivation_models_have_expected_sizes() {
        assert_params_within(lm_7b().param_billions(), 7.0, 0.15);
        assert_params_within(vlm_2b_5b().param_billions(), 7.0, 0.20);
        assert_params_within(vlm_37b().param_billions(), 37.0, 0.15);
    }

    #[test]
    fn max_images_per_sequence_is_48() {
        assert_eq!(MAX_IMAGES_PER_SEQUENCE, 48);
    }
}
