//! The calibrated execution model the simulator charges time from.
//!
//! The paper's system profiles real GPUs offline and fits Eq. 1–3 to the
//! measurements. Our substitute for the GPU is [`GroundTruth`]: the same
//! functional family *plus* effects the estimator does not model — a
//! small-batch inefficiency knee, a weight-load (memory-bandwidth) floor and
//! bounded measurement noise. Schedulers never read `GroundTruth`
//! coefficients directly; they profile it through [`crate::fit::Profiler`]
//! and plan with the fitted model, exactly like the real system.

use modelcfg::ModelConfig;
use rand::Rng;
use sim_core::SimDuration;

use crate::model::{ChunkWork, CostParams};

/// Aggregate performance of one GPU, used to derive ground-truth
/// coefficients from a model architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuPerf {
    /// Peak dense BF16 throughput in TFLOPS.
    pub tflops: f64,
    /// Model FLOPs utilization achieved on GEMM-heavy work.
    pub mfu: f64,
    /// Attention kernels run memory-bound; their effective utilization is
    /// this fraction of `mfu`.
    pub attention_efficiency: f64,
    /// HBM bandwidth in GB/s (weight-load floor).
    pub mem_bw_gbps: f64,
}

impl GpuPerf {
    /// NVIDIA A800-80G (paper cluster A).
    pub fn a800() -> Self {
        GpuPerf {
            tflops: 312.0,
            mfu: 0.62,
            attention_efficiency: 0.30,
            mem_bw_gbps: 2_039.0,
        }
    }

    /// NVIDIA H800-80G (paper cluster B).
    pub fn h800() -> Self {
        GpuPerf {
            tflops: 989.0,
            mfu: 0.52,
            attention_efficiency: 0.28,
            mem_bw_gbps: 3_350.0,
        }
    }
}

/// The simulator's "actual" execution-time model.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// True underlying Eq. 1–3 coefficients.
    pub params: CostParams,
    /// Attention cost per (query, context) token pair for *decode* chunks,
    /// in µs. Decode attention streams the context's KVCache from HBM every
    /// step (memory-bound: `kv_bytes_per_token / mem_bw`), unlike prefill
    /// attention which tiles in SRAM and is compute-bound. This is what
    /// makes batched decode throughput rise with batch size until KV reads
    /// dominate — the amortization KunServe's enlarged batches exploit.
    pub alpha_decode_us: f64,
    /// Iterations with fewer new tokens than this run inefficiently.
    pub small_batch_knee_tokens: f64,
    /// Relative penalty at zero tokens (linearly fades to zero at the knee).
    pub small_batch_penalty: f64,
    /// Time to stream all resident weights once (memory-bound floor), µs.
    pub weight_load_us: f64,
    /// Fixed per-stage overhead added to each pipeline stage execution, µs.
    pub stage_overhead_us: f64,
    /// Half-width of the uniform multiplicative noise (0.02 = ±2 %).
    pub noise_frac: f64,
}

impl GroundTruth {
    /// Derives ground truth for `model` served on `gpu` with the instance's
    /// configured parallelism (TP/EP shards weights and compute evenly).
    pub fn for_model(model: &ModelConfig, gpu: GpuPerf) -> Self {
        let gpus = model.gpus_per_instance() as f64;
        let eff_flops = gpu.tflops * 1e12 * gpu.mfu * gpus;
        let param_count = model.param_bytes() as f64 / model.dtype.bytes() as f64;
        // Dense forward: ~2 FLOPs per parameter per token. TP adds a small
        // allreduce penalty.
        let tp_penalty = if gpus > 1.0 { 1.10 } else { 1.0 };
        let beta_us = 2.0 * param_count / eff_flops * 1e6 * tp_penalty;
        // Prefill attention: ~4·hidden FLOPs per (query, key) pair per
        // layer, tiled in SRAM at reduced efficiency — compute-bound.
        let attn_flops_per_pair = 4.0 * model.hidden_size as f64 * model.num_layers as f64;
        let alpha_us = attn_flops_per_pair / (eff_flops * gpu.attention_efficiency) * 1e6;
        // Decode attention: each step streams the context's KVCache from
        // HBM once — memory-bound at the aggregate bandwidth of the
        // instance's GPUs.
        let alpha_decode_us =
            model.kv_bytes_per_token() as f64 / (gpu.mem_bw_gbps * 1e9 * gpus) * 1e6;
        // All GPUs stream their weight shards in parallel.
        let weight_load_us = model.param_bytes_per_gpu() as f64 / (gpu.mem_bw_gbps * 1e9) * 1e6;
        // λ is close to γ: batching amortizes nearly the whole per-chunk
        // fixed cost (weight loads, launches); the ~50 µs residual is the
        // per-sequence scheduling/sampling overhead. A 256-sequence decode
        // batch then costs 256·(β + α·ctx + 50 µs) + γ ≈ 45–60 ms on the
        // Qwen-14B/A800 calibration, matching the paper's ~60 ms decodes.
        GroundTruth {
            params: CostParams {
                alpha_us,
                beta_us,
                gamma_us: 1_500.0,
                lambda_us: 1_450.0,
            },
            alpha_decode_us,
            small_batch_knee_tokens: 256.0,
            small_batch_penalty: 0.35,
            weight_load_us,
            stage_overhead_us: 300.0,
            noise_frac: 0.02,
        }
    }

    /// Ground truth calibrated for Qwen-2.5-14B on A800 (the paper's main
    /// single-GPU setup).
    pub fn qwen14b_a800() -> Self {
        GroundTruth::for_model(&modelcfg::catalog::qwen2_5_14b(), GpuPerf::a800())
    }

    /// Noise-free expected execution time of one iteration over `chunks`
    /// with `layer_fraction` of the model resident (1.0 = full model;
    /// a pipeline stage holding half the layers passes 0.5), in µs.
    pub fn expected_us(&self, chunks: &[ChunkWork], layer_fraction: f64) -> f64 {
        self.stage_us(self.base_us(chunks), layer_fraction)
    }

    /// The stage-independent part of [`GroundTruth::expected_us`]: the
    /// whole model's time over `chunks` in µs, `None` for no chunks.
    fn base_us(&self, chunks: &[ChunkWork]) -> Option<f64> {
        if chunks.is_empty() {
            return None;
        }
        // Eq. 3 decomposed into its physical parts:
        // - `fixed`: per-chunk overheads with batch deduplication (γ, λ);
        // - `attn`: attention — KV-streaming rate for decode steps
        //   (single-token / short multi-round chunks), compute rate for
        //   prefill chunks;
        // - `gemm`: the dense projections, **floored at one weight sweep**:
        //   below the crossover batch the GPU is memory-bound streaming
        //   weights, so extra sequences ride along nearly free. This
        //   sub-linearity is what makes the enlarged batches after a
        //   parameter drop cheap — and it is the fitted model's main
        //   blind spot, absorbed into its γ/λ estimates.
        let mut fixed = 0.0;
        let mut attn = 0.0;
        let mut gemm = 0.0;
        for (i, &w) in chunks.iter().enumerate() {
            let alpha = if w.new_tokens <= 8 {
                self.alpha_decode_us
            } else {
                self.params.alpha_us
            };
            attn += alpha * w.attention_feature();
            gemm += self.params.beta_us * w.new_tokens as f64;
            fixed += self.params.gamma_us;
            if i > 0 {
                fixed -= self.params.lambda_us;
            }
        }
        let new_tokens: u64 = chunks.iter().map(|c| c.new_tokens).sum();
        let penalty = 1.0
            + self.small_batch_penalty
                * (1.0 - (new_tokens as f64 / self.small_batch_knee_tokens)).max(0.0);
        Some(fixed + attn * penalty + (gemm * penalty).max(self.weight_load_us))
    }

    /// A stage's expected time, in µs, from [`GroundTruth::base_us`]: its
    /// `layer_fraction` of the model plus the per-stage overhead a
    /// partial model pays; no chunks cost nothing.
    fn stage_us(&self, base_us: Option<f64>, layer_fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&layer_fraction) && layer_fraction > 0.0,
            "layer fraction must be in (0, 1]"
        );
        base_us.map_or(0.0, |base| {
            base * layer_fraction
                + if layer_fraction < 1.0 {
                    self.stage_overhead_us
                } else {
                    0.0
                }
        })
    }

    /// `expected_us` with the multiplicative noise drawn from `rng`; a
    /// zero expectation is free and draws nothing.
    fn noisy_us<R: Rng + ?Sized>(&self, expected_us: f64, rng: &mut R) -> f64 {
        if expected_us == 0.0 {
            return 0.0;
        }
        let noise = 1.0 + rng.gen_range(-self.noise_frac..=self.noise_frac);
        expected_us * noise
    }

    /// Samples the actual execution time of one iteration (expected time
    /// with multiplicative noise).
    pub fn sample_us<R: Rng + ?Sized>(
        &self,
        chunks: &[ChunkWork],
        layer_fraction: f64,
        rng: &mut R,
    ) -> f64 {
        self.noisy_us(self.expected_us(chunks, layer_fraction), rng)
    }

    /// Samples an iteration time as a [`SimDuration`].
    pub fn sample<R: Rng + ?Sized>(
        &self,
        chunks: &[ChunkWork],
        layer_fraction: f64,
        rng: &mut R,
    ) -> SimDuration {
        SimDuration::from_secs_f64(self.sample_us(chunks, layer_fraction, rng) / 1e6)
    }

    /// Samples one microbatch's time on each pipeline stage, appending one
    /// duration per entry of `layer_fractions` to `out`. Equal, bit for
    /// bit and draw for draw, to one [`GroundTruth::sample`] per stage in
    /// order, but the stage-independent Eq. 1–3 sum is computed once.
    pub fn sample_stages<R: Rng + ?Sized>(
        &self,
        chunks: &[ChunkWork],
        layer_fractions: &[f64],
        rng: &mut R,
        out: &mut Vec<SimDuration>,
    ) {
        let base = self.base_us(chunks);
        for &f in layer_fractions {
            let expected = self.stage_us(base, f);
            out.push(SimDuration::from_secs_f64(
                self.noisy_us(expected, rng) / 1e6,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn qwen14b_prefill_latency_in_paper_ballpark() {
        // Paper §5.3: a typical prefill executes in ~221 ms on A800.
        let gt = GroundTruth::qwen14b_a800();
        let ms = gt.expected_us(&[ChunkWork::prefill(2048)], 1.0) / 1e3;
        assert!((150.0..330.0).contains(&ms), "2K prefill = {ms:.0} ms");
    }

    #[test]
    fn decode_batch_latency_in_paper_ballpark() {
        // Paper §5.3: typical batched decode ~60 ms. A 64-request decode
        // batch with ~1K contexts should land within a factor of 2.
        let gt = GroundTruth::qwen14b_a800();
        let chunks: Vec<ChunkWork> = (0..256).map(|i| ChunkWork::decode(800 + i * 8)).collect();
        let ms = gt.expected_us(&chunks, 1.0) / 1e3;
        assert!((25.0..130.0).contains(&ms), "decode batch = {ms:.1} ms");
    }

    #[test]
    fn weight_load_floor_applies_to_tiny_batches() {
        let gt = GroundTruth::qwen14b_a800();
        let one = gt.expected_us(&[ChunkWork::decode(10)], 1.0);
        assert!(
            one >= gt.weight_load_us,
            "a single decode cannot beat one weight sweep"
        );
    }

    #[test]
    fn small_batches_pay_the_efficiency_penalty() {
        let gt = GroundTruth::qwen14b_a800();
        // Per-token cost at 64 tokens must exceed per-token cost at 2048.
        let small = gt.expected_us(&[ChunkWork::prefill(64)], 1.0) / 64.0;
        let large = gt.expected_us(&[ChunkWork::prefill(2048)], 1.0) / 2048.0;
        assert!(small > large);
    }

    #[test]
    fn stage_fraction_scales_cost() {
        let gt = GroundTruth::qwen14b_a800();
        let chunks = [ChunkWork::prefill(1024)];
        let full = gt.expected_us(&chunks, 1.0);
        let half = gt.expected_us(&chunks, 0.5);
        // Half the layers cost roughly half, plus the stage overhead.
        assert!(half < 0.62 * full);
        assert!(half > 0.45 * full);
    }

    #[test]
    fn sampling_noise_is_bounded_and_deterministic() {
        let gt = GroundTruth::qwen14b_a800();
        let chunks = [ChunkWork::prefill(512)];
        let expected = gt.expected_us(&chunks, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let s = gt.sample_us(&chunks, 1.0, &mut rng);
            assert!((s - expected).abs() <= gt.noise_frac * expected * 1.0001);
        }
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        assert_eq!(
            gt.sample_us(&chunks, 1.0, &mut a),
            gt.sample_us(&chunks, 1.0, &mut b)
        );
    }

    #[test]
    fn empty_batch_is_free() {
        let gt = GroundTruth::qwen14b_a800();
        assert_eq!(gt.expected_us(&[], 1.0), 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(gt.sample_us(&[], 1.0, &mut rng), 0.0);
    }

    #[test]
    fn tp_instance_is_faster_per_token() {
        let gt14 = GroundTruth::for_model(&modelcfg::catalog::qwen2_5_14b(), GpuPerf::a800());
        let gt72 = GroundTruth::for_model(&modelcfg::catalog::qwen2_5_72b(), GpuPerf::a800());
        // 72B on 4 GPUs: ~5x the params over 4x the compute → slower per
        // token than 14B on 1 GPU, but by well under 5x.
        let r = gt72.params.beta_us / gt14.params.beta_us;
        assert!(r > 1.0 && r < 2.5, "beta ratio = {r:.2}");
    }

    #[test]
    #[should_panic(expected = "layer fraction")]
    fn zero_layer_fraction_rejected() {
        let gt = GroundTruth::qwen14b_a800();
        gt.expected_us(&[ChunkWork::prefill(10)], 0.0);
    }
}
