//! Property tests for trace generation, upscaling and extreme-burst replay.

use proptest::prelude::*;
use sim_core::{SimDuration, SimTime};
use workload::{extreme_burst, BurstTraceBuilder, Dataset, DiurnalTraceBuilder, ModelId, Trace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated traces are sorted, densely numbered and in range.
    #[test]
    fn traces_are_well_formed(rps in 1.0f64..60.0, secs in 5u64..60, seed in 0u64..1000) {
        let t = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(rps)
            .duration(SimDuration::from_secs(secs))
            .seed(seed)
            .build();
        for (i, r) in t.requests.iter().enumerate() {
            prop_assert_eq!(r.id, i as u64);
            prop_assert!(r.arrival < SimTime::from_secs(secs));
            prop_assert!(r.input_tokens >= 1 && r.output_tokens >= 1);
        }
        for w in t.requests.windows(2) {
            prop_assert!(w[0].arrival <= w[1].arrival);
        }
    }

    /// Upscaling by `f` multiplies the request count by ~f and preserves
    /// per-request lengths.
    #[test]
    fn upscale_scales_counts(factor in 1.0f64..5.0, seed in 0u64..100) {
        let base = BurstTraceBuilder::new(Dataset::ShareGpt)
            .base_rps(20.0)
            .duration(SimDuration::from_secs(30))
            .seed(seed)
            .build();
        let up = base.upscale(factor, seed ^ 0xA5);
        let ratio = up.len() as f64 / base.len() as f64;
        prop_assert!((ratio - factor).abs() < 0.25 * factor + 0.1,
            "count ratio {ratio:.2} vs factor {factor:.2}");
        // Upscaling introduces no new length values.
        use std::collections::BTreeSet;
        let lengths: BTreeSet<(u64, u64)> =
            base.requests.iter().map(|r| (r.input_tokens, r.output_tokens)).collect();
        for r in &up.requests {
            prop_assert!(lengths.contains(&(r.input_tokens, r.output_tokens)));
        }
    }

    /// Extreme-burst replay: strictly more requests, the pre-window prefix
    /// intact, and replayed copies confined to shifted windows.
    #[test]
    fn extreme_burst_replays_consistently(repeats in 1u32..5, seed in 0u64..100) {
        let base = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(30.0)
            .duration(SimDuration::from_secs(40))
            .burst(SimTime::from_secs(15), SimDuration::from_secs(10), 2.5)
            .seed(seed)
            .build();
        let (start, end) = (SimTime::from_secs(15), SimTime::from_secs(25));
        let ex = extreme_burst(&base, start, end, repeats);
        let in_window =
            base.requests.iter().filter(|r| r.arrival >= start && r.arrival < end).count();
        let before_end = base.requests.iter().filter(|r| r.arrival < end).count();
        prop_assert_eq!(ex.len(), before_end + in_window * repeats as usize);
        // Nothing arrives past the last replayed window.
        let last = end + (end - start) * repeats as u64;
        for r in &ex.requests {
            prop_assert!(r.arrival < last);
        }
    }

    /// Determinism: identical builders produce identical traces.
    #[test]
    fn builders_are_deterministic(seed in 0u64..500) {
        let mk = || {
            BurstTraceBuilder::new(Dataset::LongBench)
                .base_rps(5.0)
                .duration(SimDuration::from_secs(20))
                .burst(SimTime::from_secs(8), SimDuration::from_secs(5), 2.0)
                .seed(seed)
                .build()
        };
        let (a, b): (Trace, Trace) = (mk(), mk());
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            prop_assert_eq!(x, y);
        }
    }

    /// Rate conservation (burst): the number of generated arrivals tracks
    /// the analytic envelope integral `expected_requests()` within Poisson
    /// noise, across seeds, rates and burst shapes.
    #[test]
    fn burst_rate_matches_the_envelope_integral(
        rps in 10.0f64..50.0,
        secs in 30u64..90,
        start_frac in 0.1f64..0.6,
        burst_secs in 4.0f64..15.0,
        mult in 1.5f64..3.5,
        seed in 0u64..500,
    ) {
        let b = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(rps)
            .duration(SimDuration::from_secs(secs))
            .burst(
                SimTime::from_secs_f64(secs as f64 * start_frac),
                SimDuration::from_secs_f64(burst_secs),
                mult,
            )
            .seed(seed);
        let expected = b.expected_requests();
        let got = b.build().len() as f64;
        // A Poisson count's stddev is sqrt(N); 5 sigma plus slack keeps
        // the sweep tight without flaking on small traces.
        prop_assert!(
            (got - expected).abs() <= 5.0 * expected.sqrt() + 10.0,
            "got {got}, expected {expected:.1}"
        );
    }

    /// Rate conservation (diurnal): same contract for the sinusoid+noise
    /// envelope, swept over amplitude, noise and phase.
    #[test]
    fn diurnal_rate_matches_the_envelope_integral(
        rps in 10.0f64..40.0,
        amplitude in 0.0f64..0.9,
        phase in 0.0f64..1.0,
        noise in 0.0f64..0.3,
        seed in 0u64..500,
    ) {
        let b = DiurnalTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(rps)
            .period(SimDuration::from_secs(40))
            .days(2.0)
            .amplitude(amplitude)
            .phase(phase)
            .noise(noise, 4)
            .seed(seed);
        let expected = b.expected_requests();
        let got = b.build().len() as f64;
        prop_assert!(
            (got - expected).abs() <= 5.0 * expected.sqrt() + 10.0,
            "got {got}, expected {expected:.1}"
        );
    }

    /// `merge`/`for_model` round-trip: splitting a merged co-served trace
    /// back by model recovers each per-model trace exactly (stable sort
    /// preserves same-model order; ids re-densify to the original).
    #[test]
    fn merge_then_for_model_round_trips(
        rps_a in 5.0f64..30.0,
        rps_b in 5.0f64..30.0,
        seed in 0u64..500,
    ) {
        let mk = |rps: f64, model: u32, seed: u64| {
            BurstTraceBuilder::new(Dataset::BurstGpt)
                .base_rps(rps)
                .duration(SimDuration::from_secs(25))
                .model(ModelId(model))
                .seed(seed)
                .build()
        };
        let a = mk(rps_a, 0, seed);
        let b = mk(rps_b, 1, seed ^ 0x5EED);
        let merged = Trace::merge(&[a.clone(), b.clone()]);
        // No request lost or invented, and models partition the merge.
        prop_assert_eq!(merged.len(), a.len() + b.len());
        prop_assert_eq!(merged.models(), vec![ModelId(0), ModelId(1)]);
        for (orig, model) in [(&a, ModelId(0)), (&b, ModelId(1))] {
            let back = merged.for_model(model);
            prop_assert_eq!(back.len(), orig.len());
            for (x, y) in back.requests.iter().zip(&orig.requests) {
                prop_assert_eq!(x, y);
            }
        }
        // Arrivals interleave chronologically in the merge.
        for w in merged.requests.windows(2) {
            prop_assert!(w[0].arrival <= w[1].arrival);
        }
    }
}
