//! Property tests for the cost model: monotonicity, Eq. 3 algebra and fit
//! robustness.

use costmodel::{fit_chunk_params, ChunkWork, CostParams, GroundTruth};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::RngCore;
use sim_core::SimDuration;

fn params() -> CostParams {
    CostParams::qwen14b_a800()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chunk cost is monotone in both new tokens and prefix length.
    #[test]
    fn chunk_cost_is_monotone(p in 0u64..16_384, c in 1u64..8_192, dp in 0u64..4_096, dc in 0u64..4_096) {
        let m = params();
        let base = m.chunk_cost_us(ChunkWork { prefix_tokens: p, new_tokens: c });
        let more_prefix = m.chunk_cost_us(ChunkWork { prefix_tokens: p + dp, new_tokens: c });
        let more_tokens = m.chunk_cost_us(ChunkWork { prefix_tokens: p, new_tokens: c + dc });
        prop_assert!(more_prefix >= base);
        prop_assert!(more_tokens >= base);
    }

    /// Eq. 3: batching n chunks saves exactly (n-1)·λ over separate batches.
    #[test]
    fn batching_dedup_is_exact(chunks in proptest::collection::vec((0u64..4_096, 1u64..2_048), 1..20)) {
        let m = params();
        let works: Vec<ChunkWork> = chunks
            .iter()
            .map(|&(p, c)| ChunkWork { prefix_tokens: p, new_tokens: c })
            .collect();
        let together = m.batch_cost_us(&works);
        let separate: f64 = works.iter().map(|&w| m.batch_cost_us(&[w])).sum();
        let saved = separate - together;
        let expected = (works.len() as f64 - 1.0) * m.lambda_us;
        prop_assert!((saved - expected).abs() < 1e-6 * separate.max(1.0));
    }

    /// Splitting one chunk into two consecutive fragments preserves the
    /// attention feature exactly (the lookahead splitter's invariant).
    #[test]
    fn split_preserves_attention_feature(p in 0u64..8_192, c in 2u64..4_096, t_frac in 0.01f64..0.99) {
        let t = ((c as f64 * t_frac) as u64).clamp(1, c - 1);
        let whole = ChunkWork { prefix_tokens: p, new_tokens: c };
        let first = ChunkWork { prefix_tokens: p, new_tokens: t };
        let second = ChunkWork { prefix_tokens: p + t, new_tokens: c - t };
        let sum = first.attention_feature() + second.attention_feature();
        prop_assert!((whole.attention_feature() - sum).abs() < 1e-6);
    }

    /// Ground-truth expected time is monotone in batch extension: adding a
    /// chunk never makes the iteration faster.
    #[test]
    fn ground_truth_monotone_in_chunks(
        chunks in proptest::collection::vec((0u64..4_096, 1u64..1_024), 1..16),
        extra_p in 0u64..4_096,
        extra_c in 1u64..1_024,
    ) {
        let gt = GroundTruth::qwen14b_a800();
        let mut works: Vec<ChunkWork> = chunks
            .iter()
            .map(|&(p, c)| ChunkWork { prefix_tokens: p, new_tokens: c })
            .collect();
        let before = gt.expected_us(&works, 1.0);
        works.push(ChunkWork { prefix_tokens: extra_p, new_tokens: extra_c });
        let after = gt.expected_us(&works, 1.0);
        prop_assert!(after >= before - 1e-9, "adding work made it faster: {before} -> {after}");
    }

    /// `sample_stages` is one `sample` per stage in order: the same
    /// durations, bit for bit, and the same draws, for any chunk list
    /// (empty included) and stage fractions in (0, 1].
    #[test]
    fn sample_stages_equals_per_stage_sample(
        chunks in proptest::collection::vec((0u64..8_192, 1u64..2_048), 0..16),
        fracs in proptest::collection::vec((0u32..4, 0.0f64..1.0), 1..9),
        seed in 0u64..u64::MAX,
    ) {
        let gt = GroundTruth::qwen14b_a800();
        let works: Vec<ChunkWork> = chunks
            .iter()
            .map(|&(p, c)| ChunkWork { prefix_tokens: p, new_tokens: c })
            .collect();
        // One fraction in four is the whole model; the rest are 1 − u for
        // u in [0, 1), so in (0, 1].
        let fracs: Vec<f64> = fracs
            .iter()
            .map(|&(whole, u)| if whole == 0 { 1.0 } else { 1.0 - u })
            .collect();
        let mut staged_rng = SmallRng::seed_from_u64(seed);
        let mut staged = Vec::new();
        gt.sample_stages(&works, &fracs, &mut staged_rng, &mut staged);
        let mut each_rng = SmallRng::seed_from_u64(seed);
        let each: Vec<SimDuration> = fracs
            .iter()
            .map(|&f| gt.sample(&works, f, &mut each_rng))
            .collect();
        prop_assert_eq!(staged, each);
        prop_assert_eq!(staged_rng.next_u64(), each_rng.next_u64(), "the same draws");
    }

    /// Fitting on noise-free Eq. 1 samples recovers the parameters for any
    /// positive ground truth, provided the samples span the feature space.
    #[test]
    fn fit_recovers_arbitrary_params(
        alpha in 0.001f64..0.1,
        beta in 10.0f64..300.0,
        gamma in 100.0f64..5_000.0,
    ) {
        let truth = CostParams { alpha_us: alpha, beta_us: beta, gamma_us: gamma, lambda_us: 0.0 };
        let mut samples = Vec::new();
        for c in [16u64, 64, 256, 1024, 4096] {
            for p in [0u64, 512, 2048, 8192] {
                let w = ChunkWork { prefix_tokens: p, new_tokens: c };
                samples.push((w, truth.chunk_cost_us(w)));
            }
        }
        let fitted = fit_chunk_params(&samples).expect("well-posed fit");
        prop_assert!((fitted.alpha_us - alpha).abs() / alpha < 1e-4);
        prop_assert!((fitted.beta_us - beta).abs() / beta < 1e-4);
        prop_assert!((fitted.gamma_us - gamma).abs() / gamma < 1e-3);
    }
}
