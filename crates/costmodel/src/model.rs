//! The Eq. 1–3 cost model and the attention-blind baseline.

use sim_core::SimDuration;

/// One chunk of work inside a microbatch: `new_tokens` tokens computed
/// against `prefix_tokens` already-cached tokens.
///
/// A full prefill of an `n`-token prompt is `ChunkWork { prefix_tokens: 0,
/// new_tokens: n }`; one decode step of a sequence with context `p` is
/// `ChunkWork { prefix_tokens: p, new_tokens: 1 }`; the second half of a
/// chunked prefill carries the first half as prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkWork {
    /// Tokens already in the KVCache that this chunk attends to.
    pub prefix_tokens: u64,
    /// New tokens computed by this chunk.
    pub new_tokens: u64,
}

impl ChunkWork {
    /// A full (unchunked) prefill of `n` tokens.
    pub fn prefill(n: u64) -> Self {
        ChunkWork {
            prefix_tokens: 0,
            new_tokens: n,
        }
    }

    /// One decode step at context length `p`.
    pub fn decode(p: u64) -> Self {
        ChunkWork {
            prefix_tokens: p,
            new_tokens: 1,
        }
    }

    /// The quadratic attention feature of Eq. 1:
    /// `p·c + (c² + c)/2`.
    pub fn attention_feature(self) -> f64 {
        let p = self.prefix_tokens as f64;
        let c = self.new_tokens as f64;
        p * c + (c * c + c) / 2.0
    }
}

/// Fitted (or calibrated) coefficients of Eq. 1–3, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Attention cost per token-pair unit (prefix-attn and self-attn).
    pub alpha_us: f64,
    /// Linear per-token cost (FFN + projections).
    pub beta_us: f64,
    /// Per-chunk fixed cost (kernel launches, scheduling, weight loads).
    pub gamma_us: f64,
    /// Parameter-loading cost deduplicated across chunks of one batch
    /// (Eq. 3); must satisfy `lambda_us <= gamma_us`.
    pub lambda_us: f64,
}

impl CostParams {
    /// Cost of one chunk per Eq. 1, in microseconds.
    pub fn chunk_cost_us(&self, w: ChunkWork) -> f64 {
        self.alpha_us * w.attention_feature() + self.beta_us * w.new_tokens as f64 + self.gamma_us
    }

    /// Cost of a microbatch per Eq. 3, in microseconds.
    ///
    /// Chunks share one parameter load, so `(n−1)·λ` is subtracted.
    pub fn batch_cost_us(&self, chunks: &[ChunkWork]) -> f64 {
        self.batch_cost_us_of(chunks.iter().copied())
    }

    /// [`CostParams::batch_cost_us`] over chunks that live inside other
    /// records, so pricing them needs no collected slice.
    pub fn batch_cost_us_of(&self, chunks: impl ExactSizeIterator<Item = ChunkWork>) -> f64 {
        let n = chunks.len();
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = chunks.map(|w| self.chunk_cost_us(w)).sum();
        sum - (n as f64 - 1.0) * self.lambda_us
    }

    /// Batch cost as a [`SimDuration`].
    pub fn batch_cost(&self, chunks: &[ChunkWork]) -> SimDuration {
        SimDuration::from_secs_f64(self.batch_cost_us(chunks) / 1e6)
    }

    /// Calibrated parameters for Qwen-2.5-14B on an A800-80G.
    ///
    /// Calibration targets come from the paper's measurements: a 2 K-token
    /// prefill takes ~221 ms and a typical batched decode iteration ~60 ms
    /// (§4.2 and §5.3). With these coefficients a 2 K prefill costs
    /// `95·2048 + 0.02·(2048²+2048)/2 + 2000 ≈ 238 ms`.
    pub fn qwen14b_a800() -> Self {
        CostParams {
            alpha_us: 0.02,
            beta_us: 95.0,
            gamma_us: 2_000.0,
            lambda_us: 1_500.0,
        }
    }
}

/// The attention-blind baseline of Figure 15: cost is linear in token count.
///
/// This is the "existing formulation without considering attention" the paper
/// attributes to NanoFlow (no self-attn term) and DistServe (no prefix-attn
/// term); it is accurate for short sequences and degrades quadratically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenCountModel {
    /// Cost per new token, in microseconds.
    pub per_token_us: f64,
    /// Fixed per-batch cost, in microseconds.
    pub fixed_us: f64,
}

impl TokenCountModel {
    /// Predicted cost of a microbatch, in microseconds.
    pub fn batch_cost_us(&self, chunks: &[ChunkWork]) -> f64 {
        if chunks.is_empty() {
            return 0.0;
        }
        let tokens: u64 = chunks.iter().map(|w| w.new_tokens).sum();
        self.per_token_us * tokens as f64 + self.fixed_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams {
            alpha_us: 0.01,
            beta_us: 100.0,
            gamma_us: 1_000.0,
            lambda_us: 800.0,
        }
    }

    #[test]
    fn chunk_work_constructors() {
        assert_eq!(
            ChunkWork::prefill(512),
            ChunkWork {
                prefix_tokens: 0,
                new_tokens: 512
            }
        );
        assert_eq!(
            ChunkWork::decode(100),
            ChunkWork {
                prefix_tokens: 100,
                new_tokens: 1
            }
        );
    }

    #[test]
    fn attention_feature_matches_eq1() {
        // p=10, c=4: 10*4 + (16+4)/2 = 50.
        let w = ChunkWork {
            prefix_tokens: 10,
            new_tokens: 4,
        };
        assert_eq!(w.attention_feature(), 50.0);
        // Decode: p=100, c=1: 100 + 1 = 101.
        assert_eq!(ChunkWork::decode(100).attention_feature(), 101.0);
    }

    #[test]
    fn chunk_cost_composition() {
        let p = params();
        let w = ChunkWork {
            prefix_tokens: 10,
            new_tokens: 4,
        };
        // 0.01*50 + 100*4 + 1000 = 1400.5
        assert!((p.chunk_cost_us(w) - 1400.5).abs() < 1e-9);
    }

    #[test]
    fn batch_cost_dedups_parameter_loading() {
        let p = params();
        let w = ChunkWork::prefill(64);
        let single = p.batch_cost_us(&[w]);
        let double = p.batch_cost_us(&[w, w]);
        // Two chunks cost less than two separate batches by exactly λ.
        assert!((2.0 * single - double - p.lambda_us).abs() < 1e-9);
        assert_eq!(p.batch_cost_us(&[]), 0.0);
    }

    #[test]
    fn chunked_prefill_latter_chunk_is_slower() {
        // §4.3: "if a request is chunked into two parts, the latter chunk is
        // slower than the former even when the tokens are the same".
        let p = params();
        let first = p.chunk_cost_us(ChunkWork {
            prefix_tokens: 0,
            new_tokens: 512,
        });
        let second = p.chunk_cost_us(ChunkWork {
            prefix_tokens: 512,
            new_tokens: 512,
        });
        assert!(second > first);
    }

    #[test]
    fn quadratic_term_dominates_at_long_context() {
        // §4.3 discussion: quadratic terms become significant beyond ~4 K.
        let p = CostParams::qwen14b_a800();
        let attn_4k = p.alpha_us * ChunkWork::prefill(4096).attention_feature();
        let linear_4k = p.beta_us * 4096.0;
        assert!(attn_4k > 0.2 * linear_4k, "attention must matter at 4K");
        let attn_16k = p.alpha_us * ChunkWork::prefill(16384).attention_feature();
        let linear_16k = p.beta_us * 16384.0;
        assert!(attn_16k > linear_16k, "attention dominates at 16K");
    }

    #[test]
    fn calibration_hits_paper_prefill_latency() {
        // ~221 ms for a 2 K prefill on A800 (paper §5.3); allow ±15 %.
        let p = CostParams::qwen14b_a800();
        let ms = p.batch_cost_us(&[ChunkWork::prefill(2048)]) / 1e3;
        assert!((180.0..260.0).contains(&ms), "2K prefill = {ms:.0} ms");
    }

    #[test]
    fn token_count_model_ignores_prefix() {
        let m = TokenCountModel {
            per_token_us: 100.0,
            fixed_us: 500.0,
        };
        let with_prefix = [ChunkWork {
            prefix_tokens: 4096,
            new_tokens: 64,
        }];
        let without = [ChunkWork {
            prefix_tokens: 0,
            new_tokens: 64,
        }];
        assert_eq!(m.batch_cost_us(&with_prefix), m.batch_cost_us(&without));
        assert_eq!(m.batch_cost_us(&[]), 0.0);
    }

    #[test]
    fn batch_cost_duration_conversion() {
        let p = params();
        let d = p.batch_cost(&[ChunkWork::prefill(1000)]);
        let us = p.batch_cost_us(&[ChunkWork::prefill(1000)]);
        assert!((d.as_secs_f64() * 1e6 - us).abs() < 1.0);
    }
}
