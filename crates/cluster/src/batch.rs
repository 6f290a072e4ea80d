//! Microbatch representation and the token-count baseline former.
//!
//! Batch *collection* (which sequences execute this iteration, Sarathi-style
//! token budgeting) happens in the engine; this module owns the second step:
//! splitting the collected work into pipeline microbatches. The baseline
//! splitter balances **token counts** — the state of the art the paper
//! improves on (§4.3): token balance is not cost balance because attention
//! is quadratic. The cost-balanced lookahead splitter lives in the
//! `kunserve` crate.

use costmodel::ChunkWork;

use crate::request::RequestId;

/// One sequence's chunk of work inside an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqChunk {
    /// The request performing the work.
    pub request: RequestId,
    /// The chunk (prefix + new tokens).
    pub work: ChunkWork,
}

/// One microbatch: the unit that flows through pipeline stages.
#[derive(Debug, Clone, Default)]
pub struct MicroBatch {
    /// The chunks fused into this microbatch.
    pub chunks: Vec<SeqChunk>,
}

impl MicroBatch {
    /// Total new tokens in the microbatch.
    pub fn new_tokens(&self) -> u64 {
        self.chunks.iter().map(|c| c.work.new_tokens).sum()
    }

    /// The chunk works, for cost evaluation.
    pub fn works(&self) -> Vec<ChunkWork> {
        self.chunks.iter().map(|c| c.work).collect()
    }

    /// Returns `true` if the microbatch is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// Token-count-based microbatch formation (the Sarathi-Serve/vLLM baseline,
/// paper Fig. 9 (a)–(b)).
///
/// Requests are packed *in arrival order* into microbatches of equal token
/// budget (`ceil(total / num_microbatches)`); a chunk straddling the budget
/// boundary is split, with the latter fragment carrying the former as
/// prefix, so read in order the microbatches replay `work`. The result is
/// token-balanced but — because attention cost is quadratic in context —
/// not cost-balanced, which is exactly the inefficiency §4.3 identifies.
pub fn token_count_form(work: &[SeqChunk], num_microbatches: usize) -> Vec<MicroBatch> {
    assert!(num_microbatches > 0, "need at least one microbatch");
    let total: u64 = work.iter().map(|c| c.work.new_tokens).sum();
    if total == 0 || work.is_empty() {
        return Vec::new();
    }
    let budget = total.div_ceil(num_microbatches as u64).max(1);
    let mut mbs: Vec<MicroBatch> = Vec::with_capacity(num_microbatches);
    let mut current = MicroBatch::default();
    let mut room = budget;
    for (i, chunk) in work.iter().enumerate() {
        let mut rest = chunk.work;
        let mut request = chunk.request;
        loop {
            if current.is_empty() {
                // A microbatch opens with a full budget: size it once.
                current
                    .chunks
                    .reserve_exact(microbatch_len(rest.new_tokens, &work[i + 1..], room));
            }
            if rest.new_tokens <= room {
                room -= rest.new_tokens;
                current.chunks.push(SeqChunk {
                    request,
                    work: rest,
                });
                break;
            }
            // Split at the budget boundary; the tail keeps the head as
            // prefix (chunked-prefill semantics).
            let head = ChunkWork {
                prefix_tokens: rest.prefix_tokens,
                new_tokens: room,
            };
            let tail = ChunkWork {
                prefix_tokens: rest.prefix_tokens + room,
                new_tokens: rest.new_tokens - room,
            };
            if head.new_tokens > 0 {
                current.chunks.push(SeqChunk {
                    request,
                    work: head,
                });
            }
            mbs.push(std::mem::take(&mut current));
            room = budget;
            rest = tail;
            request = chunk.request;
        }
        if room == 0 {
            mbs.push(std::mem::take(&mut current));
            room = budget;
        }
    }
    if !current.is_empty() {
        mbs.push(current);
    }
    mbs.retain(|mb| !mb.is_empty());
    mbs
}

/// The number of chunks [`token_count_form`] puts in a microbatch with
/// `room` tokens that opens on a chunk with `first` tokens left, followed
/// by `rest`: chunks join while the microbatch has room.
fn microbatch_len(first: u64, rest: &[SeqChunk], room: u64) -> usize {
    let mut used = first;
    let mut len = 1;
    for c in rest {
        if used >= room {
            break;
        }
        used += c.work.new_tokens;
        len += 1;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(id: usize, prefix: u64, new: u64) -> SeqChunk {
        SeqChunk {
            request: RequestId(id),
            work: ChunkWork {
                prefix_tokens: prefix,
                new_tokens: new,
            },
        }
    }

    #[test]
    fn balances_token_counts() {
        let work = vec![
            chunk(0, 0, 400),
            chunk(1, 0, 300),
            chunk(2, 0, 200),
            chunk(3, 0, 100),
        ];
        let mbs = token_count_form(&work, 2);
        assert_eq!(mbs.len(), 2);
        let t0 = mbs[0].new_tokens();
        let t1 = mbs[1].new_tokens();
        assert_eq!(t0 + t1, 1000);
        assert_eq!(
            t0.max(t1),
            500,
            "sequential fill splits at the 500 boundary"
        );
    }

    #[test]
    fn straddling_chunk_splits_with_prefix() {
        // Fig. 9 (a): a request exceeding the budget is chunked; the tail
        // carries the head as prefix.
        let work = vec![chunk(0, 0, 100), chunk(1, 0, 500)];
        let mbs = token_count_form(&work, 2);
        assert_eq!(mbs.len(), 2);
        assert_eq!(mbs[0].new_tokens(), 300);
        assert_eq!(mbs[1].new_tokens(), 300);
        let tail = mbs[1].chunks[0];
        assert_eq!(tail.request.0, 1);
        assert_eq!(tail.work.prefix_tokens, 200, "tail attends to the head");
    }

    #[test]
    fn all_tokens_preserved_per_request() {
        let work: Vec<SeqChunk> = (0..17).map(|i| chunk(i, 0, (i as u64 + 1) * 10)).collect();
        let mbs = token_count_form(&work, 4);
        let mut per_req = std::collections::BTreeMap::new();
        for mb in &mbs {
            for c in &mb.chunks {
                *per_req.entry(c.request.0).or_insert(0u64) += c.work.new_tokens;
            }
        }
        for i in 0..17 {
            assert_eq!(per_req[&i], (i as u64 + 1) * 10);
        }
    }

    #[test]
    fn token_balance_ignores_prefix_cost() {
        // The §4.3 critique: these two chunks have equal token counts but
        // wildly different attention cost; the token former cannot tell.
        let work = vec![chunk(0, 8192, 256), chunk(1, 0, 256)];
        let mbs = token_count_form(&work, 2);
        assert_eq!(mbs.len(), 2);
        assert_eq!(mbs[0].new_tokens(), mbs[1].new_tokens());
    }

    #[test]
    fn tiny_work_splits_naively() {
        // The baseline former blindly slices whatever it gets into the
        // requested microbatch count — tiny slices and all. (KunServe's
        // lookahead former is what knows better; §4.3.)
        let work = vec![chunk(0, 0, 10)];
        let mbs = token_count_form(&work, 4);
        assert_eq!(mbs.len(), 4);
        let total: u64 = mbs.iter().map(|m| m.new_tokens()).sum();
        assert_eq!(total, 10);
        assert!(token_count_form(&[], 4).is_empty());
    }

    #[test]
    fn arrival_order_is_preserved() {
        // Sequential fill keeps FIFO semantics: earlier requests land in
        // earlier microbatches.
        let work: Vec<SeqChunk> = (0..6).map(|i| chunk(i, 0, 100)).collect();
        let mbs = token_count_form(&work, 3);
        let first_mb_of: Vec<usize> = (0..6)
            .map(|id| {
                mbs.iter()
                    .position(|mb| mb.chunks.iter().any(|c| c.request.0 == id))
                    .expect("present")
            })
            .collect();
        for w in first_mb_of.windows(2) {
            assert!(w[0] <= w[1], "arrival order preserved across microbatches");
        }
    }

    #[test]
    fn deterministic_for_equal_tokens() {
        let work = vec![chunk(0, 0, 100), chunk(1, 0, 100), chunk(2, 0, 100)];
        let a = token_count_form(&work, 2);
        let b = token_count_form(&work, 2);
        let ids = |mbs: &[MicroBatch]| -> Vec<Vec<usize>> {
            mbs.iter()
                .map(|m| m.chunks.iter().map(|c| c.request.0).collect())
                .collect()
        };
        assert_eq!(ids(&a), ids(&b));
    }
}
