use std::fmt;

/// Errors produced when constructing or validating model specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// The model specification contained no modules.
    EmptySpec,
    /// A module was declared with zero layers.
    EmptyModule {
        /// Name of the offending module.
        module: String,
    },
    /// A transformer layer was declared with an invalid head configuration.
    InvalidHeads {
        /// Embedding dimension of the layer.
        embed_dim: usize,
        /// Number of attention heads requested.
        num_heads: usize,
        /// Number of key/value groups requested.
        num_kv_groups: usize,
    },
    /// The specification declared more than one backbone module.
    MultipleBackbones,
    /// A tensor-parallel degree that does not divide the attention heads was requested.
    IndivisibleTensorParallel {
        /// Number of attention heads in the layer.
        num_heads: usize,
        /// Requested tensor-parallel size.
        tp: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptySpec => write!(f, "model specification has no modules"),
            ModelError::EmptyModule { module } => {
                write!(f, "module `{module}` has no layers")
            }
            ModelError::InvalidHeads {
                embed_dim,
                num_heads,
                num_kv_groups,
            } => write!(
                f,
                "invalid attention configuration: embed_dim={embed_dim}, \
                 num_heads={num_heads}, num_kv_groups={num_kv_groups}"
            ),
            ModelError::MultipleBackbones => {
                write!(
                    f,
                    "model specification declares more than one backbone module"
                )
            }
            ModelError::IndivisibleTensorParallel { num_heads, tp } => write!(
                f,
                "tensor-parallel size {tp} does not divide {num_heads} attention heads"
            ),
        }
    }
}

impl std::error::Error for ModelError {}
