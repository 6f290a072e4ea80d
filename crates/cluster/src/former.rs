//! Microbatch formers: token-count baseline and cost-balanced lookahead.
//!
//! Token-count-balanced microbatches are not *cost*-balanced because
//! attention is quadratic in sequence length (paper Fig. 9). Under
//! overloading there are plenty of queued requests to look ahead at, so
//! KunServe forms microbatches by recursive cost bisection (§4.3,
//! Figs. 10–11): start from one batch holding all work, split it into two
//! halves of equal *modelled* cost (Eq. 1–3), and recurse until a batch
//! falls below the minimum token threshold that keeps the GPU efficient.
//!
//! Chunks may be split mid-request: the latter part carries the former as
//! prefix (its attention cost reflects that, per Eq. 1). Decode chunks
//! (one token) are atomic.
//!
//! A policy names its former with a [`MicrobatchFormerSpec`]; the default
//! [`crate::Policy::form_microbatches`] runs it for every pipelined
//! iteration of the [`crate::engine::Engine`].

use costmodel::{ChunkWork, CostParams};

use crate::batch::{token_count_form, MicroBatch, SeqChunk};

/// How a policy forms microbatches: a plain value that forms batches
/// without `&ClusterState`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicrobatchFormerSpec {
    /// Token-count balancing (Sarathi-style; the baseline of Fig. 9).
    TokenCount,
    /// Cost-balanced lookahead bisection (§4.3) with the Fig. 11 `MIN`
    /// halt threshold in tokens.
    CostBalanced {
        /// Lookahead recursion halt threshold in tokens.
        min_batch_tokens: u64,
    },
}

impl MicrobatchFormerSpec {
    /// Forms microbatches for a `stages`-deep group targeting
    /// `stages × microbatches_per_stage` microbatches.
    pub fn form(
        &self,
        work: &[SeqChunk],
        stages: usize,
        microbatches_per_stage: u32,
        cost: &CostParams,
    ) -> Vec<MicroBatch> {
        let target_mbs = (stages * microbatches_per_stage as usize).max(1) as u64;
        match *self {
            MicrobatchFormerSpec::TokenCount => token_count_form(work, target_mbs as usize),
            MicrobatchFormerSpec::CostBalanced { min_batch_tokens } => {
                // Fig. 11's MIN: "derived by dividing total token numbers" —
                // halting at total/m yields roughly m cost-balanced leaves.
                let total: u64 = work.iter().map(|c| c.work.new_tokens).sum();
                let min_tokens = (total / target_mbs).max(min_batch_tokens);
                let mbs = balance_microbatches(work, cost, min_tokens);
                if mbs.is_empty() {
                    token_count_form(work, target_mbs as usize)
                } else {
                    mbs
                }
            }
        }
    }
}

/// Splits `work` into cost-balanced microbatches.
///
/// The result is ordered (earlier microbatches enter the pipeline first)
/// and replays `work` in order: read one after another, with adjacent
/// fragments of a request merged, the microbatches' chunks are `work`. A
/// request chunk that straddles a split boundary is divided, with the
/// latter part's `prefix_tokens` extended by the former part.
///
/// `min_tokens` is the halt threshold of Fig. 11 line 4: batches at or
/// below it are not split further (chunking tiny batches wastes GPU
/// efficiency).
pub fn balance_microbatches(
    work: &[SeqChunk],
    cost: &CostParams,
    min_tokens: u64,
) -> Vec<MicroBatch> {
    if work.is_empty() {
        return Vec::new();
    }
    // Translate the MIN token threshold into a cost threshold: MIN implies
    // a target microbatch count `m = total/MIN`, and recursion halts once a
    // batch's cost falls to the per-leaf share. A cost-based halt treats
    // decode-heavy batches correctly (many one-token chunks are cheap in
    // tokens but expensive in time) and is immune to the degenerate case
    // where the per-batch fixed cost γ exceeds a leaf's variable cost.
    let total_tokens: u64 = work.iter().map(|c| c.work.new_tokens).sum();
    let m = (total_tokens / min_tokens.max(1)).max(1) as f64;
    let total_cost = batch_cost(work, cost);
    let leaf_share = (total_cost + (m - 1.0) * cost.lambda_us) / m;
    let cost_halt = (leaf_share * 1.1).max(2.2 * cost.gamma_us);
    let mut out = Vec::new();
    balance_rec(work.to_vec(), total_cost, cost, cost_halt, &mut out);
    out
}

fn batch_cost(chunks: &[SeqChunk], cost: &CostParams) -> f64 {
    cost.batch_cost_us_of(chunks.iter().map(|c| c.work))
}

/// Bisects `chunks`, whose cost is `price`, until every leaf is cheap
/// enough, appending the leaves to `out` in order. Every node is priced
/// once; a split's left side keeps its parent's allocation and its right
/// side takes one.
fn balance_rec(
    mut chunks: Vec<SeqChunk>,
    price: f64,
    cost: &CostParams,
    cost_halt: f64,
    out: &mut Vec<MicroBatch>,
) {
    if price <= cost_halt || chunks.len() + splittable_tokens(&chunks) <= 1 {
        if !chunks.is_empty() {
            out.push(MicroBatch { chunks });
        }
        return;
    }
    // After the split each side pays its own per-batch fixed cost: the two
    // halves sum to `cost(b) + λ` (one chunk loses its dedup), so an even
    // split targets half of that — without the +λ the right side would be
    // systematically heavier by γ and leaf sizes would decay geometrically.
    let target = 0.5 * (price + cost.lambda_us);
    let (at, fragment) = split_at_cost(&chunks, cost, target);
    if fragment.is_none() && (at == 0 || at == chunks.len()) {
        // Could not bisect (e.g. a single atomic decode chunk dominates).
        out.push(MicroBatch { chunks });
        return;
    }
    let mut right = chunks.split_off(at);
    if let Some(t) = fragment {
        let straddling = right[0];
        chunks.push(SeqChunk {
            request: straddling.request,
            work: ChunkWork {
                prefix_tokens: straddling.work.prefix_tokens,
                new_tokens: t,
            },
        });
        right[0].work = ChunkWork {
            prefix_tokens: straddling.work.prefix_tokens + t,
            new_tokens: straddling.work.new_tokens - t,
        };
    }
    let (left_price, right_price) = (batch_cost(&chunks, cost), batch_cost(&right, cost));
    balance_rec(chunks, left_price, cost, cost_halt, out);
    balance_rec(right, right_price, cost, cost_halt, out);
}

fn splittable_tokens(chunks: &[SeqChunk]) -> usize {
    chunks.iter().filter(|c| c.work.new_tokens > 1).count()
}

/// Finds where to split `chunks` so the left part's cost approximates
/// `target`. Returns `(at, fragment)`: the left part is `chunks[..at]`,
/// plus, for `Some(t)`, the first `t` tokens of the straddling chunk
/// `chunks[at]`, whose rest opens the right part carrying those `t` as
/// prefix. The fragment size comes from a binary search on the token
/// count.
///
/// Costs are accumulated with the Eq. 3 batch semantics — every chunk after
/// the first contributes its *marginal* cost `chunk_cost − λ` — so the
/// accumulated value stays consistent with `target`, which is half of a
/// deduplicated batch cost. Mixing raw and deduplicated costs here would
/// push the boundary to the first few chunks and degenerate the recursion
/// into slivers.
fn split_at_cost(chunks: &[SeqChunk], cost: &CostParams, target: f64) -> (usize, Option<u64>) {
    let mut acc = 0.0;
    for (i, chunk) in chunks.iter().enumerate() {
        let dedup = if i == 0 { 0.0 } else { cost.lambda_us };
        let c_cost = cost.chunk_cost_us(chunk.work) - dedup;
        if acc + c_cost <= target {
            acc += c_cost;
            continue;
        }
        // This chunk straddles the boundary; the fragment joining the left
        // part pays the same marginal (deduplicated) cost, so the raw
        // fragment cost target is `want_marginal + dedup`.
        let want_marginal = target - acc;
        return match best_split_tokens(chunk.work, cost, want_marginal + dedup) {
            Some(t) => (i, Some(t)),
            // Atomic chunk: put it on whichever side is cheaper overall.
            None if want_marginal > c_cost / 2.0 => (i + 1, None),
            None => (i, None),
        };
    }
    (chunks.len(), None)
}

/// Finds the token count `t ∈ [1, c)` whose left-fragment cost best
/// approximates `want`; `None` if the chunk cannot be split.
fn best_split_tokens(w: ChunkWork, cost: &CostParams, want: f64) -> Option<u64> {
    if w.new_tokens < 2 {
        return None;
    }
    let cost_of = |t: u64| {
        cost.chunk_cost_us(ChunkWork {
            prefix_tokens: w.prefix_tokens,
            new_tokens: t,
        })
    };
    let (mut lo, mut hi) = (1u64, w.new_tokens - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cost_of(mid) < want {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    // `lo` is the first token count at or above `want`; check the neighbor.
    if lo > 1 && (cost_of(lo) - want).abs() > (cost_of(lo - 1) - want).abs() {
        lo -= 1;
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use std::collections::BTreeMap;

    fn params() -> CostParams {
        CostParams::qwen14b_a800()
    }

    fn chunk(id: usize, prefix: u64, new: u64) -> SeqChunk {
        SeqChunk {
            request: RequestId(id),
            work: ChunkWork {
                prefix_tokens: prefix,
                new_tokens: new,
            },
        }
    }

    /// Sums each request's new tokens across all microbatches.
    fn tokens_per_request(mbs: &[MicroBatch]) -> BTreeMap<usize, u64> {
        let mut m = BTreeMap::new();
        for mb in mbs {
            for c in &mb.chunks {
                *m.entry(c.request.0).or_insert(0) += c.work.new_tokens;
            }
        }
        m
    }

    #[test]
    fn preserves_every_token_exactly() {
        let work = vec![
            chunk(0, 0, 3000),
            chunk(1, 0, 500),
            chunk(2, 1024, 1),
            chunk(3, 0, 1200),
        ];
        let mbs = balance_microbatches(&work, &params(), 256);
        let per_req = tokens_per_request(&mbs);
        assert_eq!(per_req[&0], 3000);
        assert_eq!(per_req[&1], 500);
        assert_eq!(per_req[&2], 1);
        assert_eq!(per_req[&3], 1200);
    }

    #[test]
    fn split_fragments_carry_prefix() {
        // One huge prefill must be bisected; the latter fragment's prefix
        // equals the former fragment's tokens (plus the original prefix).
        let work = vec![chunk(0, 100, 4096)];
        let mbs = balance_microbatches(&work, &params(), 1024);
        assert!(mbs.len() >= 2, "4K prefill must split at min=1K");
        let mut expected_prefix = 100;
        for mb in &mbs {
            let c = &mb.chunks[0];
            assert_eq!(
                c.work.prefix_tokens, expected_prefix,
                "fragments chain as prefixes"
            );
            expected_prefix += c.work.new_tokens;
        }
    }

    #[test]
    fn costs_are_balanced_within_tolerance() {
        let p = params();
        let work = vec![
            chunk(0, 0, 4096),
            chunk(1, 0, 300),
            chunk(2, 0, 700),
            chunk(3, 2048, 512),
            chunk(4, 500, 1),
            chunk(5, 900, 1),
        ];
        let mbs = balance_microbatches(&work, &p, 512);
        assert!(mbs.len() >= 2);
        let costs: Vec<f64> = mbs.iter().map(|m| p.batch_cost_us(&m.works())).collect();
        let max = costs.iter().cloned().fold(f64::MIN, f64::max);
        let min = costs.iter().cloned().fold(f64::MAX, f64::min);
        // Sibling batches from one bisection differ by at most one decode
        // chunk + rounding; across levels allow 2×.
        assert!(max / min < 2.5, "cost imbalance {max:.0}/{min:.0}");
    }

    #[test]
    fn halts_at_min_tokens() {
        let work = vec![chunk(0, 0, 2000)];
        let mbs = balance_microbatches(&work, &params(), 1000);
        for mb in &mbs {
            // No batch should fall much below the halt threshold: splitting
            // stops once at or under `min_tokens`.
            assert!(
                mb.new_tokens() >= 500,
                "over-fragmented: {}",
                mb.new_tokens()
            );
        }
        let coarse = balance_microbatches(&work, &params(), 4096);
        assert_eq!(coarse.len(), 1, "under the threshold nothing splits");
    }

    #[test]
    fn decode_only_batches_stay_atomic() {
        let work: Vec<SeqChunk> = (0..8).map(|i| chunk(i, 1000, 1)).collect();
        let mbs = balance_microbatches(&work, &params(), 2);
        let total: u64 = mbs.iter().map(|m| m.new_tokens()).sum();
        assert_eq!(total, 8);
        for mb in &mbs {
            for c in &mb.chunks {
                assert_eq!(c.work.new_tokens, 1, "decode chunks are never split");
            }
        }
    }

    #[test]
    fn beats_token_count_on_pipeline_bubbles() {
        // The end-to-end claim of §4.3: cost-balanced batches produce fewer
        // pipeline bubbles than token-balanced ones for skewed work.
        use crate::pipeline::{schedule_fixed_transfer, StageTiming};
        use sim_core::{SimDuration, SimTime};

        let p = params();
        // The engine's realistic work order: cheap decode chunks first,
        // then prefills by arrival, ending with a long-prefix continuation.
        // Token balancing then produces ascending-cost microbatches — the
        // Fig. 8 (b) bubble pattern — while cost balancing equalizes them.
        let mut work: Vec<SeqChunk> = (0..6).map(|i| chunk(i, 2000, 1)).collect();
        for i in 6..9 {
            work.push(chunk(i, 0, 512));
        }
        work.push(chunk(9, 8192, 512));
        let stages = 2;
        let eval = |mbs: &[MicroBatch]| {
            let times: Vec<SimDuration> = mbs
                .iter()
                .flat_map(|mb| {
                    let t = SimDuration::from_secs_f64(
                        p.batch_cost_us(&mb.works()) / 1e6 / stages as f64,
                    );
                    std::iter::repeat_n(t, stages)
                })
                .collect();
            let sched = schedule_fixed_transfer(
                SimTime::ZERO,
                &StageTiming { times, stages },
                SimDuration::ZERO,
            );
            sched.bubble_frac()
        };

        let token_mbs = token_count_form(&work, 4);
        let ours = balance_microbatches(&work, &p, 512);
        assert!(ours.len() >= 2);
        let bubble_token = eval(&token_mbs);
        let bubble_ours = eval(&ours);
        assert!(
            bubble_ours <= bubble_token + 1e-9,
            "lookahead {bubble_ours:.3} vs token-count {bubble_token:.3}"
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(balance_microbatches(&[], &params(), 100).is_empty());
        let one = vec![chunk(0, 0, 1)];
        let mbs = balance_microbatches(&one, &params(), 100);
        assert_eq!(mbs.len(), 1);
        assert_eq!(mbs[0].chunks.len(), 1);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a wall-clock complexity bound on the test itself, not simulated time"
    )]
    fn recursion_is_logarithmic_in_tokens() {
        // 64K tokens at min 512 → at most ~128 leaves + interior: fast.
        let work = vec![chunk(0, 0, 65_536)];
        let t0 = std::time::Instant::now();
        let mbs = balance_microbatches(&work, &params(), 512);
        assert!(mbs.len() >= 64);
        assert!(t0.elapsed().as_millis() < 200, "took {:?}", t0.elapsed());
    }

    #[test]
    fn former_spec_matches_direct_calls() {
        let p = params();
        let work = vec![chunk(0, 0, 2048), chunk(1, 0, 512), chunk(2, 512, 1)];
        // TokenCount spec = token_count_form at stages × per-stage.
        let spec = MicrobatchFormerSpec::TokenCount.form(&work, 2, 2, &p);
        let direct = token_count_form(&work, 4);
        assert_eq!(spec.len(), direct.len());
        // CostBalanced spec = balance_microbatches at max(total/m, MIN).
        let spec = MicrobatchFormerSpec::CostBalanced {
            min_batch_tokens: 256,
        }
        .form(&work, 2, 2, &p);
        let total: u64 = work.iter().map(|c| c.work.new_tokens).sum();
        let direct = balance_microbatches(&work, &p, (total / 4).max(256));
        assert_eq!(spec.len(), direct.len());
        let tokens = |mbs: &[MicroBatch]| -> u64 { mbs.iter().map(|m| m.new_tokens()).sum() };
        assert_eq!(tokens(&spec), total);
    }
}
