//! One directed link: a work-conserving server with atomic chunks.

use sim_core::SimTime;

use crate::spec::LinkSpec;

/// Traffic classes, most urgent first (paper §4.2 and §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Pipeline activation forwarding — always goes first.
    Activation = 0,
    /// KVCache exchange after a drop plan.
    KvExchange = 1,
    /// Background parameter restoration pulls.
    ParamRestore = 2,
}

/// Identifier of one background transfer job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

#[derive(Debug, Clone)]
struct Job {
    id: JobId,
    priority: Priority,
    submitted: SimTime,
    remaining: u64,
    chunk_bytes: u64,
}

/// A directed link processing transfers as atomic chunks.
///
/// Background jobs ([`Link::submit`]) transmit chunk by chunk in
/// `(priority, id)` order, which is submission order within a class.
/// Interactive transfers ([`Link::interactive`]) preempt at chunk
/// boundaries: one arriving mid-chunk waits for the chunk residual, never
/// for the whole job.
/// Chunk starts are committed lazily, so interactive transfers win ties with
/// chunks that *would* start at the same instant — the paper's "check
/// whether there will be activation transfer" rule.
#[derive(Debug, Clone)]
pub struct Link {
    spec: LinkSpec,
    /// The server is committed (busy) up to this instant.
    free_at: SimTime,
    /// Everything before this instant has been simulated.
    last_advance: SimTime,
    jobs: Vec<Job>,
    completions: Vec<(SimTime, JobId)>,
    /// Total bytes ever carried, for accounting tests.
    carried_bytes: u64,
}

impl Link {
    /// Creates an idle link.
    pub fn new(spec: LinkSpec) -> Self {
        Link {
            spec,
            free_at: SimTime::ZERO,
            last_advance: SimTime::ZERO,
            jobs: Vec::new(),
            completions: Vec::new(),
            carried_bytes: 0,
        }
    }

    /// The link's spec.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Submits background job `id` of `bytes`, transmitted in
    /// `chunk_bytes` chunks. A `chunk_bytes >= bytes` job is a single
    /// atomic chunk (the *uncoordinated* mode). Ids must rise with
    /// submission: jobs of one class are sent in id order.
    pub fn submit(
        &mut self,
        now: SimTime,
        id: JobId,
        bytes: u64,
        chunk_bytes: u64,
        priority: Priority,
    ) {
        debug_assert!(bytes > 0, "empty transfers should not be submitted");
        self.jobs.push(Job {
            id,
            priority,
            submitted: now,
            remaining: bytes,
            chunk_bytes: chunk_bytes.max(1),
        });
        self.jobs.sort_by_key(|j| (j.priority, j.id));
    }

    /// Performs an interactive (activation-class) transfer arriving at
    /// `now`; returns its completion time.
    pub fn interactive(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.advance_to(now);
        let start = self.free_at.max(now);
        let end = start + self.spec.transfer_time(bytes);
        self.free_at = end;
        self.carried_bytes += bytes;
        end
    }

    /// Simulates chunk starts up to (strictly before) `now`.
    ///
    /// Calls may arrive out of order: pipeline schedules reserve activation
    /// slots at *future* instants, after which bulk bookkeeping still runs
    /// at the engine's current time. Earlier-time calls simply commit
    /// nothing new — committed state is cumulative and never rolls back.
    pub fn advance_to(&mut self, now: SimTime) {
        self.last_advance = self.last_advance.max(now);
        while let Some(job) = self.jobs.first_mut() {
            let start = self.free_at.max(job.submitted);
            if start >= now {
                // The next chunk has not committed yet; an interactive
                // transfer arriving exactly at `now` goes first.
                break;
            }
            let chunk = job.chunk_bytes.min(job.remaining);
            let end = start + self.spec.transfer_time(chunk);
            self.free_at = end;
            self.carried_bytes += chunk;
            job.remaining -= chunk;
            if job.remaining == 0 {
                let id = job.id;
                self.jobs.remove(0);
                self.completions.push((end, id));
            }
        }
    }

    /// Earliest instant a pending background job could complete, assuming
    /// no further interactive interference (a lower bound, safe to poll at).
    pub fn next_completion_estimate(&self) -> Option<SimTime> {
        if let Some(&(t, _)) = self.completions.iter().min_by_key(|&&(t, _)| t) {
            return Some(t);
        }
        // Walk jobs hypothetically in order.
        let mut free_at = self.free_at;
        let mut best: Option<SimTime> = None;
        for job in &self.jobs {
            let start = free_at.max(job.submitted);
            let chunks = job.remaining.div_ceil(job.chunk_bytes);
            let end =
                start + self.spec.wire_time(job.remaining) + self.spec.latency * chunks.max(1);
            best = Some(best.map_or(end, |b: SimTime| b.min(end)));
            free_at = end;
        }
        best
    }

    /// Drains completions that occurred at or before `now`.
    pub fn take_completions(&mut self, now: SimTime) -> Vec<(SimTime, JobId)> {
        self.advance_to(now);
        let mut done: Vec<(SimTime, JobId)> = self
            .completions
            .iter()
            .filter(|&&(t, _)| t <= now)
            .copied()
            .collect();
        self.completions.retain(|&(t, _)| t > now);
        done.sort_by_key(|&(t, id)| (t, id));
        done
    }

    /// Remaining bytes of a pending job, or `None` if finished/unknown.
    pub fn remaining_bytes(&self, id: JobId) -> Option<u64> {
        self.jobs.iter().find(|j| j.id == id).map(|j| j.remaining)
    }

    /// Returns `true` if no background work is pending or in flight.
    pub fn is_idle(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total bytes the link has carried (committed chunks + interactive).
    pub fn carried_bytes(&self) -> u64 {
        self.carried_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// A 10 MB/s link with zero latency keeps the math readable:
    /// 10 KB = 1 ms.
    fn test_link() -> Link {
        Link::new(LinkSpec {
            bytes_per_sec: 10e6,
            latency: SimDuration::ZERO,
        })
    }

    #[test]
    fn single_job_completes_at_wire_time() {
        let mut l = test_link();
        let id = JobId(0);
        l.submit(SimTime::ZERO, id, 100_000, 10_000, Priority::KvExchange);
        assert_eq!(l.next_completion_estimate(), Some(ms(10)));
        let done = l.take_completions(ms(10));
        assert_eq!(done, vec![(ms(10), id)]);
        assert!(l.is_idle());
        assert_eq!(l.carried_bytes(), 100_000);
    }

    #[test]
    fn interactive_waits_only_chunk_residual_when_coordinated() {
        let mut l = test_link();
        // 100 ms of background work in 10 ms (100 KB / 10 KB) chunks.
        l.submit(
            SimTime::ZERO,
            JobId(0),
            1_000_000,
            100_000,
            Priority::KvExchange,
        );
        // Activation arrives mid-chunk at t = 15 ms: the chunk in flight ends
        // at 20 ms, then 10 KB of activation = 1 ms.
        let done = l.interactive(ms(15), 10_000);
        assert_eq!(done, ms(21));
    }

    #[test]
    fn interactive_stalls_behind_whole_job_when_uncoordinated() {
        let mut l = test_link();
        // Same job as one atomic chunk: the uncoordinated baseline.
        l.submit(
            SimTime::ZERO,
            JobId(0),
            1_000_000,
            u64::MAX,
            Priority::KvExchange,
        );
        let done = l.interactive(ms(15), 10_000);
        // Must wait for the whole 100 ms job.
        assert_eq!(done, ms(101));
    }

    #[test]
    fn interactive_wins_tie_with_uncommitted_chunk() {
        let mut l = test_link();
        // Background submitted at t=10; interactive also at t=10.
        l.submit(ms(10), JobId(0), 50_000, 10_000, Priority::KvExchange);
        let done = l.interactive(ms(10), 10_000);
        assert_eq!(done, ms(11), "activation goes first at the boundary");
        // Background then resumes and finishes 5 chunks later.
        assert_eq!(l.take_completions(ms(16)), vec![(ms(16), JobId(0))]);
    }

    #[test]
    fn background_jobs_respect_priority_then_fifo() {
        let mut l = test_link();
        let (restore, kv1, kv2) = (JobId(0), JobId(1), JobId(2));
        l.submit(
            SimTime::ZERO,
            restore,
            10_000,
            10_000,
            Priority::ParamRestore,
        );
        l.submit(SimTime::ZERO, kv1, 10_000, 10_000, Priority::KvExchange);
        l.submit(SimTime::ZERO, kv2, 10_000, 10_000, Priority::KvExchange);
        let done = l.take_completions(ms(3));
        assert_eq!(done, vec![(ms(1), kv1), (ms(2), kv2), (ms(3), restore)]);
    }

    #[test]
    fn completion_estimate_is_lower_bound_under_interference() {
        let mut l = test_link();
        let id = JobId(0);
        l.submit(SimTime::ZERO, id, 100_000, 10_000, Priority::KvExchange);
        let est = l.next_completion_estimate().expect("job pending");
        assert_eq!(est, ms(10));
        // Interactive traffic delays the job past the estimate.
        l.interactive(ms(1), 50_000); // 5 ms of activation traffic
        assert!(
            l.take_completions(est).is_empty(),
            "job not done at estimate"
        );
        let new_est = l.next_completion_estimate().expect("still pending");
        assert!(new_est > est, "estimate grows monotonically");
        let done = l.take_completions(new_est);
        assert_eq!(done, vec![(new_est, id)]);
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut l = test_link();
        l.submit(
            SimTime::ZERO,
            JobId(0),
            10_000,
            10_000,
            Priority::KvExchange,
        );
        // Job done at 1 ms; next submission at 100 ms starts fresh.
        let id2 = JobId(1);
        l.submit(ms(100), id2, 10_000, 10_000, Priority::KvExchange);
        let done = l.take_completions(ms(200));
        assert_eq!(done.last(), Some(&(ms(101), id2)));
    }

    #[test]
    fn remaining_bytes_tracks_chunks() {
        let mut l = test_link();
        let id = JobId(0);
        l.submit(SimTime::ZERO, id, 40_000, 10_000, Priority::KvExchange);
        assert_eq!(l.remaining_bytes(id), Some(40_000));
        l.advance_to(ms(2)); // chunks starting before 2 ms: at 0 and 1 ms.
        assert_eq!(l.remaining_bytes(id), Some(20_000));
        l.advance_to(ms(10));
        assert_eq!(l.remaining_bytes(id), None);
    }

    #[test]
    fn per_chunk_latency_accumulates() {
        let spec = LinkSpec {
            bytes_per_sec: 10e6,
            latency: SimDuration::from_micros(100),
        };
        let mut l = Link::new(spec);
        l.submit(
            SimTime::ZERO,
            JobId(0),
            100_000,
            10_000,
            Priority::KvExchange,
        );
        // 10 chunks × (1 ms + 0.1 ms) = 11 ms.
        let est = l.next_completion_estimate().expect("pending");
        assert_eq!(est, SimTime::from_micros(11_000));
    }
}
