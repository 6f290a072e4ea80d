//! Pipeline-parallel execution scheduling with bubble accounting.
//!
//! Microbatch `i` on stage `s` can start once stage `s` finished microbatch
//! `i−1` *and* microbatch `i`'s activations arrived from stage `s−1`:
//!
//! ```text
//! start[i][s] = max(finish[i-1][s], arrive[i][s])
//! finish[i][s] = start[i][s] + t[i][s]
//! ```
//!
//! Imbalanced microbatch times leave stages idle between microbatches —
//! the *bubbles* of paper Fig. 8. The schedule reports per-stage busy time
//! and span so the engine can attribute GPU idleness (the Fig. 14 bubble
//! timeline).

use sim_core::{SimDuration, SimTime};

/// Per-microbatch, per-stage execution times, row-major: microbatch
/// `mb` takes `times[mb * stages + stage]` on `stage`.
#[derive(Debug, Clone, Default)]
pub struct StageTiming {
    /// Execution time of each microbatch on each stage, one row of
    /// `stages` entries per microbatch.
    pub times: Vec<SimDuration>,
    /// Number of stages (the row length).
    pub stages: usize,
}

impl StageTiming {
    /// Number of microbatches.
    pub fn microbatches(&self) -> usize {
        self.times.len().checked_div(self.stages).unwrap_or(0)
    }
}

/// The computed schedule of one pipelined iteration. [`schedule`] fills
/// it in place, so a caller that keeps one reuses its per-stage buffers.
#[derive(Debug, Clone, Default)]
pub struct PipelineSchedule {
    /// Time the last microbatch leaves the last stage, relative to start.
    pub makespan: SimDuration,
    /// Per-stage busy time.
    pub stage_busy: Vec<SimDuration>,
    /// Per-stage first start (absolute).
    pub stage_start: Vec<SimTime>,
    /// Finish time of the last microbatch on each stage (absolute).
    pub finish: Vec<SimTime>,
}

impl PipelineSchedule {
    /// Stage `stage`'s span: its first start to its last finish.
    pub fn stage_span(&self, stage: usize) -> SimDuration {
        self.finish[stage] - self.stage_start[stage]
    }

    /// Fraction of stage time lost to bubbles: `1 − Σbusy / Σspan`.
    pub fn bubble_frac(&self) -> f64 {
        let busy: f64 = self.stage_busy.iter().map(|d| d.as_secs_f64()).sum();
        let span: f64 = (0..self.finish.len())
            .map(|st| self.stage_span(st).as_secs_f64())
            .sum();
        if span <= 0.0 {
            return 0.0;
        }
        (1.0 - busy / span).max(0.0)
    }
}

/// Computes the pipeline schedule into `out`.
///
/// `transfer(mb, from_stage, send_time)` is invoked once per microbatch per
/// stage boundary, in non-decreasing `send_time` order per boundary, and
/// returns the activation arrival time at the next stage — this is where the
/// network simulator injects contention with ongoing KVCache exchanges.
///
/// The recurrence only reads the previous microbatch's finish row, so
/// `out.finish` holds that row while it runs and the last microbatch's
/// row afterwards.
///
/// # Panics
///
/// Panics if `timing` is empty or ragged.
pub fn schedule(
    start: SimTime,
    timing: &StageTiming,
    out: &mut PipelineSchedule,
    mut transfer: impl FnMut(usize, usize, SimTime) -> SimTime,
) {
    let s = timing.stages;
    let m = timing.microbatches();
    assert!(
        m > 0 && s > 0,
        "schedule needs at least one microbatch and stage"
    );
    assert_eq!(timing.times.len(), m * s, "ragged stage timing");

    out.stage_busy.clear();
    out.stage_busy.resize(s, SimDuration::ZERO);
    out.stage_start.clear();
    out.stage_start.resize(s, SimTime::MAX);
    // Before the first microbatch every stage is free from `start`.
    out.finish.clear();
    out.finish.resize(s, start);

    for (i, row) in timing.times.chunks_exact(s).enumerate() {
        for (st, &t) in row.iter().enumerate() {
            let arrive = if st == 0 {
                start
            } else {
                transfer(i, st - 1, out.finish[st - 1])
            };
            let begin = arrive.max(out.finish[st]);
            out.stage_start[st] = out.stage_start[st].min(begin);
            out.stage_busy[st] += t;
            out.finish[st] = begin + t;
        }
    }
    out.makespan = out.finish[s - 1] - start;
}

/// Convenience: schedule with a fixed per-boundary transfer delay.
pub fn schedule_fixed_transfer(
    start: SimTime,
    timing: &StageTiming,
    transfer_delay: SimDuration,
) -> PipelineSchedule {
    let mut out = PipelineSchedule::default();
    schedule(start, timing, &mut out, |_, _, send| send + transfer_delay);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// `m` microbatches taking `t` on each of `stages` stages.
    fn uniform(m: usize, stages: usize, t: SimDuration) -> StageTiming {
        StageTiming {
            times: vec![t; m * stages],
            stages,
        }
    }

    #[test]
    fn single_stage_single_batch() {
        let timing = uniform(1, 1, ms(10));
        let sched = schedule_fixed_transfer(SimTime::ZERO, &timing, SimDuration::ZERO);
        assert_eq!(sched.makespan, ms(10));
        assert_eq!(sched.bubble_frac(), 0.0);
    }

    #[test]
    fn balanced_pipeline_textbook_makespan() {
        // 3 microbatches × 2 stages, all 10 ms, no transfer delay:
        // makespan = (m + s - 1) × t = 4 × 10 ms.
        let timing = uniform(3, 2, ms(10));
        let sched = schedule_fixed_transfer(SimTime::ZERO, &timing, SimDuration::ZERO);
        assert_eq!(sched.makespan, ms(40));
        // Stage 0: busy 30 of span 30. Stage 1: busy 30 of span 30 (starts
        // at 10, ends at 40). No bubbles in a perfectly balanced pipeline.
        assert_eq!(sched.bubble_frac(), 0.0);
    }

    #[test]
    fn imbalance_creates_bubbles() {
        // Fig. 8 (b): B1 takes 3× longer; stage 1 idles waiting for it.
        let timing = StageTiming {
            times: vec![ms(10), ms(10), ms(30), ms(30), ms(10), ms(10)],
            stages: 2,
        };
        let sched = schedule_fixed_transfer(SimTime::ZERO, &timing, SimDuration::ZERO);
        assert!(
            sched.bubble_frac() > 0.15,
            "bubble {:.2}",
            sched.bubble_frac()
        );
        // Hand-check stage 1: B0 runs 10–20, B1 arrives at 40 (10 ms gap),
        // runs 40–70, B2 arrives at 50 but stage busy until 70, runs 70–80.
        // `finish` is the last microbatch's (B2's) row.
        assert_eq!(sched.finish[1], SimTime::from_millis(80));
        assert_eq!(sched.stage_busy[1], ms(50));
        assert_eq!(sched.stage_span(1), ms(70));
    }

    #[test]
    fn transfer_delay_extends_makespan() {
        let timing = uniform(2, 2, ms(10));
        let no_delay = schedule_fixed_transfer(SimTime::ZERO, &timing, SimDuration::ZERO);
        let delayed = schedule_fixed_transfer(SimTime::ZERO, &timing, ms(5));
        assert_eq!(no_delay.makespan, ms(30));
        assert_eq!(delayed.makespan, ms(35));
    }

    #[test]
    fn transfer_called_in_send_order_per_boundary() {
        let timing = uniform(4, 2, ms(10));
        let mut last_send = SimTime::ZERO;
        let mut sched = PipelineSchedule::default();
        schedule(SimTime::ZERO, &timing, &mut sched, |_, boundary, send| {
            assert_eq!(boundary, 0);
            assert!(send >= last_send, "sends must be non-decreasing");
            last_send = send;
            send
        });
    }

    #[test]
    fn nonzero_start_offsets_everything() {
        let start = SimTime::from_secs(5);
        let timing = uniform(1, 1, ms(10));
        let sched = schedule_fixed_transfer(start, &timing, SimDuration::ZERO);
        assert_eq!(sched.finish[0], start + ms(10));
        assert_eq!(sched.makespan, ms(10));
    }

    #[test]
    #[should_panic(expected = "at least one microbatch")]
    fn empty_timing_panics() {
        schedule_fixed_transfer(SimTime::ZERO, &StageTiming::default(), SimDuration::ZERO);
    }

    #[test]
    fn balanced_vs_imbalanced_same_work() {
        // Same total work split two ways: balanced beats imbalanced — the
        // premise of lookahead formation (Fig. 9 (c)).
        let balanced = uniform(2, 2, ms(20));
        let imbalanced = StageTiming {
            times: vec![ms(10), ms(10), ms(30), ms(30)],
            stages: 2,
        };
        let b = schedule_fixed_transfer(SimTime::ZERO, &balanced, SimDuration::ZERO);
        let i = schedule_fixed_transfer(SimTime::ZERO, &imbalanced, SimDuration::ZERO);
        assert!(b.makespan < i.makespan);
        assert!(b.bubble_frac() < i.bubble_frac());
    }
}
