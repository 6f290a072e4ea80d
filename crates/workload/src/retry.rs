//! The closed-loop client retry model.
//!
//! When a request misses its [`Deadline`](crate::Deadline) the client does
//! what real clients do: it gives up on the attempt and *resends* — after an
//! exponential backoff with jitter, up to a bounded retry budget. Under
//! overload this is the metastable-failure amplifier: every miss turns into
//! future load, so recovery traffic can trigger the next overload (the
//! cascading-recovery storm) unless the serving side sheds.
//!
//! Everything here is a pure function of `(policy, request id, attempt)` —
//! no RNG state is threaded through the engine, so retry re-arrivals are
//! seed-deterministic under any event interleaving.

use sim_core::SimDuration;

/// Deterministic splitmix64: good avalanche behaviour from consecutive
/// inputs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Client-side retry behaviour: bounded exponential backoff with
/// deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *re*-sends after the initial attempt. A request
    /// that misses its deadline on attempt `max_retries` is abandoned
    /// (terminal failure) instead of re-arriving.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base: SimDuration,
    /// Multiplier applied per further retry (2 = classic doubling).
    pub multiplier: u32,
    /// Backoff ceiling — the exponential curve saturates here.
    pub cap: SimDuration,
    /// Seed mixed into the jitter hash, so two client populations with the
    /// same shape still interleave differently.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: SimDuration::from_millis(500),
            multiplier: 2,
            cap: SimDuration::from_secs(8),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Whether a request that just missed its deadline on `attempt`
    /// (0 = the initial send) still has budget to retry.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }

    /// Backoff before re-sending request `id` after a miss on `attempt`
    /// (0-based): `min(cap, base·multiplier^attempt)` plus a deterministic
    /// jitter in `[0, backoff/4)` derived from `(seed, id, attempt)`.
    ///
    /// Pure and total: the same inputs always produce the same delay.
    pub fn backoff(&self, id: u64, attempt: u32) -> SimDuration {
        let exp = attempt.min(31); // saturate the curve, avoid overflow
        let scale = u64::from(self.multiplier.max(1)).saturating_pow(exp);
        let backoff_us = self
            .base
            .as_micros()
            .saturating_mul(scale)
            .min(self.cap.as_micros())
            .max(1);
        let jitter_span = (backoff_us / 4).max(1);
        let h = splitmix64(self.seed ^ id.rotate_left(17) ^ (u64::from(attempt) << 48));
        SimDuration::from_micros(backoff_us + h % jitter_span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for id in 0..64u64 {
            for attempt in 0..8u32 {
                let a = p.backoff(id, attempt);
                let b = p.backoff(id, attempt);
                assert_eq!(a, b, "pure function of (id, attempt)");
                assert!(a >= p.base, "never shorter than base");
                // cap + 25% jitter is the hard ceiling.
                assert!(a.as_micros() <= p.cap.as_micros() + p.cap.as_micros() / 4);
            }
        }
    }

    #[test]
    fn backoff_grows_exponentially_until_cap() {
        let p = RetryPolicy {
            seed: 9,
            ..RetryPolicy::default()
        };
        // Strip jitter by comparing lower bounds: 500 ms, 1 s, 2 s, 4 s, 8 s, 8 s.
        let floors = [
            500_000u64, 1_000_000, 2_000_000, 4_000_000, 8_000_000, 8_000_000,
        ];
        for (attempt, floor) in floors.iter().enumerate() {
            let d = p.backoff(3, attempt as u32).as_micros();
            assert!(d >= *floor, "attempt {attempt}: {d} < {floor}");
            assert!(
                d < floor + floor / 4 + 1,
                "attempt {attempt}: jitter exceeds 25%"
            );
        }
    }

    #[test]
    fn jitter_differs_across_ids_and_seeds() {
        let p = RetryPolicy::default();
        let spread: std::collections::HashSet<u64> =
            (0..32u64).map(|id| p.backoff(id, 1).as_micros()).collect();
        assert!(
            spread.len() > 16,
            "ids decorrelate: {} distinct",
            spread.len()
        );
        let other = RetryPolicy {
            seed: 1,
            ..RetryPolicy::default()
        };
        assert_ne!(p.backoff(5, 1), other.backoff(5, 1), "seed changes jitter");
    }

    #[test]
    fn budget_is_finite() {
        let p = RetryPolicy::default();
        assert!(p.allows(0) && p.allows(2));
        assert!(!p.allows(3), "attempt == max_retries exhausts the budget");
        let none = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        assert!(!none.allows(0), "zero budget never retries");
    }
}
