//! Transformer architecture description and derived memory math.

/// Numeric storage format of parameters and KVCache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 16-bit brain floating point (the paper's serving dtype).
    BF16,
    /// 16-bit IEEE floating point.
    FP16,
    /// 8-bit floating point (mentioned as a lossy alternative in §7).
    FP8,
}

impl DType {
    /// Size of one element in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            DType::BF16 | DType::FP16 => 2,
            DType::FP8 => 1,
        }
    }
}

/// Intra-instance parallelism strategy (paper §2.1 and Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// The whole model fits on one GPU.
    Single,
    /// Tensor parallelism across `degree` GPUs within one server.
    Tensor { degree: u32 },
    /// Expert parallelism across `degree` GPUs (MoE models in Table 1).
    Expert { degree: u32 },
}

impl Parallelism {
    /// Number of GPUs one serving instance occupies.
    pub const fn gpus(self) -> u32 {
        match self {
            Parallelism::Single => 1,
            Parallelism::Tensor { degree } | Parallelism::Expert { degree } => degree,
        }
    }
}

/// A dense (or MoE, for memory purposes) transformer architecture.
///
/// All derived quantities are exact integer arithmetic over the architecture;
/// `param_bytes_authoritative` optionally pins the total parameter footprint
/// to the model card / paper value where the public architecture details are
/// insufficient (MoE routing tensors, untied embeddings, MTP heads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Human-readable model name, e.g. `"Qwen-2.5-14B"`.
    pub name: &'static str,
    /// Number of transformer layers.
    pub num_layers: u32,
    /// Model (embedding) dimension.
    pub hidden_size: u64,
    /// Number of attention (query) heads.
    pub num_heads: u32,
    /// Number of key/value heads (GQA when < `num_heads`).
    pub num_kv_heads: u32,
    /// Per-head dimension.
    pub head_dim: u64,
    /// MLP intermediate dimension (SwiGLU assumed: 3 projection matrices).
    pub intermediate_size: u64,
    /// Vocabulary size.
    pub vocab_size: u64,
    /// Storage dtype for parameters and KVCache.
    pub dtype: DType,
    /// Deployment shape of one serving instance.
    pub parallelism: Parallelism,
    /// HBM capacity of each GPU in the reference deployment, in bytes.
    pub gpu_hbm_bytes: u64,
    /// Authoritative total parameter bytes (model card / paper Table 1);
    /// `None` means "use the architecture estimate".
    pub param_bytes_authoritative: Option<u64>,
}

impl ModelConfig {
    /// KVCache bytes one token consumes in *one* layer (K and V planes).
    pub fn kv_bytes_per_token_layer(&self) -> u64 {
        2 * self.num_kv_heads as u64 * self.head_dim * self.dtype.bytes()
    }

    /// KVCache bytes one token consumes across all layers.
    ///
    /// For Qwen-2.5-14B this is the paper's 192 KB/token figure.
    pub fn kv_bytes_per_token(&self) -> u64 {
        self.kv_bytes_per_token_layer() * self.num_layers as u64
    }

    /// Architecture-derived parameter count (dense transformer estimate).
    pub fn estimated_param_count(&self) -> u64 {
        let h = self.hidden_size;
        let q_dim = self.num_heads as u64 * self.head_dim;
        let kv_dim = self.num_kv_heads as u64 * self.head_dim;
        // Attention: Q, K, V, O projections.
        let attn = h * q_dim + 2 * h * kv_dim + q_dim * h;
        // SwiGLU MLP: gate, up, down.
        let mlp = 3 * h * self.intermediate_size;
        // Two RMSNorm weight vectors per layer.
        let norms = 2 * h;
        let per_layer = attn + mlp + norms;
        // Untied input embedding and LM head.
        let embed = 2 * self.vocab_size * h;
        per_layer * self.num_layers as u64 + embed
    }

    /// Total parameter bytes of one complete model copy.
    pub fn param_bytes(&self) -> u64 {
        self.param_bytes_authoritative
            .unwrap_or_else(|| self.estimated_param_count() * self.dtype.bytes())
    }

    /// Parameter bytes attributable to embeddings and the LM head.
    pub fn embedding_bytes(&self) -> u64 {
        // Scale the architecture share onto the authoritative total so that
        // per-layer + embedding always sums back to `param_bytes`.
        let est_total = self.estimated_param_count() * self.dtype.bytes();
        let est_embed = 2 * self.vocab_size * self.hidden_size * self.dtype.bytes();
        if est_total == 0 {
            return 0;
        }
        (self.param_bytes() as u128 * est_embed as u128 / est_total as u128) as u64
    }

    /// Parameter bytes of one transformer layer (uniform across layers).
    pub fn layer_param_bytes(&self) -> u64 {
        (self.param_bytes() - self.embedding_bytes()) / self.num_layers as u64
    }

    /// Number of GPUs one serving instance occupies.
    pub fn gpus_per_instance(&self) -> u32 {
        self.parallelism.gpus()
    }

    /// Total HBM of one serving instance.
    pub fn instance_hbm_bytes(&self) -> u64 {
        self.gpu_hbm_bytes * self.gpus_per_instance() as u64
    }

    /// Parameter bytes resident on each GPU of the instance (sharded evenly
    /// under TP/EP).
    pub fn param_bytes_per_gpu(&self) -> u64 {
        self.param_bytes() / self.gpus_per_instance() as u64
    }

    /// The paper Table 1 "Ratio (%)": parameter share of instance HBM.
    pub fn param_hbm_ratio(&self) -> f64 {
        self.param_bytes() as f64 / self.instance_hbm_bytes() as f64 * 100.0
    }

    /// Activation bytes per token forwarded between pipeline stages
    /// (one hidden vector per token).
    pub fn activation_bytes_per_token(&self) -> u64 {
        self.hidden_size * self.dtype.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GIB;

    fn toy() -> ModelConfig {
        ModelConfig {
            name: "toy",
            num_layers: 4,
            hidden_size: 128,
            num_heads: 8,
            num_kv_heads: 2,
            head_dim: 16,
            intermediate_size: 512,
            vocab_size: 1000,
            dtype: DType::BF16,
            parallelism: Parallelism::Single,
            gpu_hbm_bytes: 16 * GIB,
            param_bytes_authoritative: None,
        }
    }

    #[test]
    fn kv_math_is_gqa_aware() {
        let m = toy();
        // 2 planes * 2 kv heads * 16 dims * 2 bytes = 128 B per layer.
        assert_eq!(m.kv_bytes_per_token_layer(), 128);
        assert_eq!(m.kv_bytes_per_token(), 512);
    }

    #[test]
    fn estimated_params_match_hand_count() {
        let m = toy();
        let attn = 128 * 128 + 2 * 128 * 32 + 128 * 128; // q + kv + o
        let mlp = 3 * 128 * 512;
        let norms = 2 * 128;
        let embed = 2 * 1000 * 128;
        let expected = (attn + mlp + norms) * 4 + embed;
        assert_eq!(m.estimated_param_count(), expected);
        assert_eq!(m.param_bytes(), expected * 2);
    }

    #[test]
    fn authoritative_bytes_override_scales_layers() {
        let mut m = toy();
        let est = m.param_bytes();
        m.param_bytes_authoritative = Some(est * 2);
        assert_eq!(m.param_bytes(), est * 2);
        // Embedding + layers still account for the full total.
        let total = m.embedding_bytes() + m.layer_param_bytes() * m.num_layers as u64;
        let slack = m.param_bytes() - total;
        assert!(
            slack < m.num_layers as u64,
            "only integer-division slack allowed"
        );
    }

    #[test]
    fn parallelism_gpu_counts() {
        assert_eq!(Parallelism::Single.gpus(), 1);
        assert_eq!(Parallelism::Tensor { degree: 4 }.gpus(), 4);
        assert_eq!(Parallelism::Expert { degree: 32 }.gpus(), 32);
    }

    #[test]
    fn ratio_uses_instance_hbm() {
        let mut m = toy();
        m.param_bytes_authoritative = Some(8 * GIB);
        m.parallelism = Parallelism::Tensor { degree: 2 };
        // 8 GiB of params over 2 * 16 GiB HBM = 25 %.
        assert!((m.param_hbm_ratio() - 25.0).abs() < 1e-9);
        assert_eq!(m.param_bytes_per_gpu(), 4 * GIB);
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::BF16.bytes(), 2);
        assert_eq!(DType::FP16.bytes(), 2);
        assert_eq!(DType::FP8.bytes(), 1);
    }
}
