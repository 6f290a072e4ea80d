//! Inter-run parallelism: a scoped thread pool that fans independent
//! simulation runs (scenarios × systems × seeds) across worker threads
//! with deterministic result ordering.
//!
//! Most figures run several *independent* simulations (the five systems
//! of a lineup, ablation levels, drop degrees). Each simulation is
//! internally deterministic, so executing them concurrently and collecting
//! results **by job index** yields byte-identical output at any thread
//! count — the printing stays sequential, only the compute overlaps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The host's available hardware parallelism (1 if unknown).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `n` independent jobs on up to `threads` workers and returns their
/// results **in job-index order** — the caller cannot observe scheduling.
///
/// With `threads <= 1` (or a single job) everything runs inline on the
/// caller's thread; the parallel path produces the exact same vector.
pub fn run_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                *slots[i].lock().expect("result slot") = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot").expect("job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order_at_any_thread_count() {
        let serial = run_indexed(1, 17, |i| i * i);
        for threads in [2, 4, 8] {
            assert_eq!(run_indexed(threads, 17, |i| i * i), serial);
        }
    }

    #[test]
    fn four_workers_run_four_jobs_at_once() {
        // Each job waits until all four have started. A harness that ran
        // them one at a time would time out on any host.
        let started = (Mutex::new(0usize), std::sync::Condvar::new());
        let met = run_indexed(4, 4, |_| {
            let (count, all_in) = &started;
            let mut n = count.lock().expect("no job panics holding the count");
            *n += 1;
            all_in.notify_all();
            let timeout = std::time::Duration::from_secs(10);
            let (n, _) = all_in
                .wait_timeout_while(n, timeout, |n| *n < 4)
                .expect("no job panics holding the count");
            *n == 4
        });
        assert_eq!(met, [true; 4], "the four jobs never ran at once");
    }

    #[test]
    fn zero_jobs_and_oversubscription() {
        assert!(run_indexed::<usize, _>(4, 0, |i| i).is_empty());
        // More threads than jobs clamps cleanly.
        assert_eq!(run_indexed(64, 3, |i| i + 1), vec![1, 2, 3]);
    }
}
