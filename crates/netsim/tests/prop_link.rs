//! Property tests for the link simulator: byte conservation, priority
//! ordering and the coordination bound on interactive delay.

use netsim::{JobId, Link, LinkSpec, Priority};
use proptest::prelude::*;
use sim_core::{SimDuration, SimTime};

fn spec() -> LinkSpec {
    LinkSpec {
        bytes_per_sec: 10e6,
        latency: SimDuration::ZERO,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every submitted byte is eventually carried, exactly once.
    #[test]
    fn bytes_are_conserved(
        jobs in proptest::collection::vec((1u64..5_000_000, 1u64..1_000_000), 1..12),
        interactives in proptest::collection::vec((0u64..2_000, 1u64..100_000), 0..12),
    ) {
        let mut link = Link::new(spec());
        let mut expected: u64 = 0;
        for (i, &(bytes, chunk)) in jobs.iter().enumerate() {
            link.submit(SimTime::ZERO, JobId(i as u64), bytes, chunk, Priority::KvExchange);
            expected += bytes;
        }
        let mut acts = interactives.clone();
        acts.sort();
        for &(at_ms, bytes) in &acts {
            link.interactive(SimTime::from_millis(at_ms), bytes);
            expected += bytes;
        }
        // Far-future drain: all background jobs must complete.
        let done = link.take_completions(SimTime::from_secs(100_000));
        prop_assert_eq!(done.len(), jobs.len(), "every job completes exactly once");
        prop_assert!(link.is_idle());
        prop_assert_eq!(link.carried_bytes(), expected);
    }

    /// With coordination (finite chunks), an interactive transfer arriving
    /// at time t waits at most one chunk residual plus its own wire time.
    #[test]
    fn interactive_delay_bounded_by_chunk(
        job_bytes in 1_000_000u64..50_000_000,
        chunk_bytes in 10_000u64..1_000_000,
        arrive_ms in 0u64..1_000,
        act_bytes in 1u64..100_000,
    ) {
        let mut link = Link::new(spec());
        link.submit(SimTime::ZERO, JobId(0), job_bytes, chunk_bytes, Priority::KvExchange);
        let t = SimTime::from_millis(arrive_ms);
        let done = link.interactive(t, act_bytes);
        let wire = spec().wire_time(act_bytes);
        let chunk_time = spec().wire_time(chunk_bytes);
        // Bound: one full chunk residual + own transfer (+1us rounding).
        let bound = t + chunk_time + wire + SimDuration::from_micros(1);
        prop_assert!(
            done <= bound,
            "interactive done {done:?} exceeds coordination bound {bound:?}"
        );
    }

    /// Higher-priority background classes always finish no later than
    /// lower-priority ones submitted at the same instant with equal size.
    #[test]
    fn priority_ordering_holds(bytes in 10_000u64..1_000_000, chunk in 1_000u64..100_000) {
        let mut link = Link::new(spec());
        let (restore, exchange) = (JobId(0), JobId(1));
        link.submit(SimTime::ZERO, restore, bytes, chunk, Priority::ParamRestore);
        link.submit(SimTime::ZERO, exchange, bytes, chunk, Priority::KvExchange);
        let done = link.take_completions(SimTime::from_secs(100_000));
        let pos = |id| done.iter().position(|&(_, j)| j == id).expect("completed");
        prop_assert!(pos(exchange) < pos(restore), "KV exchange preempts restores");
    }

    /// Completion estimates never move earlier as interactive traffic
    /// interferes (they are safe poll targets).
    #[test]
    fn estimates_are_monotone_lower_bounds(
        job_bytes in 100_000u64..10_000_000,
        acts in proptest::collection::vec((0u64..500, 1_000u64..100_000), 1..8),
    ) {
        let mut link = Link::new(spec());
        link.submit(SimTime::ZERO, JobId(0), job_bytes, 50_000, Priority::KvExchange);
        let mut last_est = link.next_completion_estimate().expect("job pending");
        let mut sorted = acts.clone();
        sorted.sort();
        // Each chunk's wire time rounds to whole microseconds, so the
        // committed schedule can differ from the whole-job estimate by up
        // to one microsecond per chunk.
        let slack = SimDuration::from_micros(1 + job_bytes / 50_000);
        for &(at_ms, bytes) in &sorted {
            link.interactive(SimTime::from_millis(at_ms), bytes);
            if let Some(est) = link.next_completion_estimate() {
                prop_assert!(
                    est + slack >= last_est,
                    "estimate moved earlier: {est:?} < {last_est:?}"
                );
                last_est = last_est.max(est);
            }
        }
    }
}
