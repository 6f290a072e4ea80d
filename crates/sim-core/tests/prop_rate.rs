//! Property tests for the bucketed rate counter: for any bucket-aligned
//! window, its rates and total equal, bit for bit, those summed event by
//! event from the recorded list.

use proptest::prelude::*;
use sim_core::stats::RATE_BUCKET;
use sim_core::{SimDuration, SimTime, WindowedRate};

/// Per-second rates summed event by event over `[start, end)`: the
/// windowing of a rate series that keeps every `(time, count)` event.
fn reference_rates(
    events: &[(SimTime, u64)],
    start: SimTime,
    end: SimTime,
    window: SimDuration,
) -> Vec<(SimTime, f64)> {
    let mut out = Vec::new();
    let mut t = start;
    while t < end {
        let wend = t + window;
        let mut sum = 0.0;
        for &(_, n) in events.iter().filter(|&&(e, _)| e >= t && e < wend) {
            sum += n as f64;
        }
        out.push((t, sum / window.as_secs_f64()));
        t = wend;
    }
    out
}

fn bits(rates: &[(SimTime, f64)]) -> Vec<(SimTime, u64)> {
    rates.iter().map(|&(t, r)| (t, r.to_bits())).collect()
}

fn time_strategy() -> impl Strategy<Value = u64> {
    let bucket = RATE_BUCKET.as_micros();
    prop_oneof![
        0u64..4_000_000,
        // Exactly on a bucket boundary, or one microsecond before it.
        (0u64..40).prop_map(move |b| b * bucket),
        (1u64..40).prop_map(move |b| b * bucket - 1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn buckets_match_the_event_list(
        events in proptest::collection::vec((time_strategy(), 0u64..2_000_000_000), 0..200),
        start_buckets in 0u64..30,
        window_buckets in 1u64..25,
        span_us in 0u64..5_000_000,
    ) {
        let events: Vec<(SimTime, u64)> =
            events.into_iter().map(|(t, n)| (SimTime::from_micros(t), n)).collect();
        let mut rate = WindowedRate::new();
        for &(t, n) in &events {
            rate.record(t, n);
        }
        let start = SimTime::ZERO + RATE_BUCKET * start_buckets;
        let window = RATE_BUCKET * window_buckets;
        let end = start + SimDuration::from_micros(span_us);
        prop_assert_eq!(
            bits(&rate.rates(start, end, window)),
            bits(&reference_rates(&events, start, end, window))
        );
        let total: u64 = events.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(rate.total(), total);
        let mut reference_total = 0.0;
        for &(_, n) in &events {
            reference_total += n as f64;
        }
        prop_assert_eq!((rate.total() as f64).to_bits(), reference_total.to_bits());
    }
}
