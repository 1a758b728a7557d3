//! Model substrate for the DIP reproduction.
//!
//! This crate describes large multimodal model (LMM) architectures at the
//! granularity the DIP planner needs: modality modules (encoders, backbones,
//! decoders and adapters) composed of layers, together with an analytical
//! cost model that maps a layer plus a [`ModalityWorkload`] to floating point
//! operations, parameter bytes and activation bytes.
//!
//! The crate also ships the "model zoo" used throughout the paper's
//! evaluation: every architecture of Table 2, every combination of Table 3
//! (VLM-S/M/L, T2V-S/L) and the extra-large combinations of Table 6
//! (VLM-XL, T2V-XL), plus the 7B/ViT2B+LM5B pair used in the motivation
//! (Table 1) and the 37B VLM of §2.3.
//!
//! # Example
//!
//! ```
//! use dip_models::{zoo, ModalityWorkload};
//!
//! let vlm = zoo::vlm_s();
//! assert_eq!(vlm.modules().len(), 3); // ViT encoder, adapter, LM backbone
//!
//! // Cost of running the language backbone over 8192 text tokens.
//! let backbone = vlm.backbone().expect("VLM-S has a backbone");
//! let wl = ModalityWorkload::from_tokens(8192);
//! let cost = backbone.cost(&wl, 1);
//! assert!(cost.fwd_flops > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod canonical;
mod cost;
mod error;
mod layer;
mod lmm;
mod modality;
mod module;
mod workload;

pub mod json;
pub mod zoo;

pub use canonical::{BucketingConfig, CanonicalSignature};
pub use cost::{LayerCost, StagePairCost};
pub use error::ModelError;
pub use layer::{
    AdapterLayer, EmbeddingLayer, LayerKind, LayerSpec, LmHeadLayer, PatchEmbedLayer,
    TransformerKind, TransformerLayer,
};
pub use lmm::{LmmSpec, LmmSpecBuilder, ModuleId, WorkloadSource};
pub use modality::{Modality, ModuleRole};
pub use module::ModalityModule;
pub use workload::{BatchWorkload, ModalityWorkload};

/// Bytes per element for bf16 training (weights and activations).
pub const BF16_BYTES: u64 = 2;
/// Bytes per element for fp32 master weights / optimizer states.
pub const FP32_BYTES: u64 = 4;
/// Bytes of optimizer state per parameter for Adam with fp32 master weights
/// (fp32 master copy + two fp32 moments).
pub const ADAM_STATE_BYTES_PER_PARAM: u64 = 3 * FP32_BYTES;
