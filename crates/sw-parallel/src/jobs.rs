//! Bounded job runner: N worker threads draining an indexed task queue.
//!
//! This is the campaign-level sibling of [`run_ranks`](crate::run_ranks):
//! where `run_ranks` gives every simulated MPI rank its own scoped OS
//! thread, `run_jobs` caps the number of *independent* jobs (whole
//! simulations in a campaign) in flight at once, dispatching job indices
//! to a fixed pool of scoped worker threads.
//!
//! # Composition with the shared Rayon pool
//!
//! The same contract as `run_ranks` applies. Workers are plain scoped OS
//! threads, not Rayon tasks, so a job that blocks (on I/O, on a
//! checkpoint fsync) never parks a pool worker. Inside a job the solver
//! is free to fan its kernels out over the shared Rayon helper budget
//! (`ExecMode::Parallel`); helper acquisition never blocks, the budget is
//! global and capped at `threads − 1`, so a campaign running `W` workers
//! keeps at most `W + threads − 1` OS threads busy — campaign-level
//! concurrency composes with per-simulation kernel fan-out without
//! oversubscription. `run_jobs` debug-asserts the budget is never
//! overdrawn once all workers join.
//!
//! Workers compute in the caller's floating-point mode, as rank threads
//! do (see [`run_ranks`](crate::run_ranks)).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use sw_grid::fpenv;

/// Run `body(0..count)` on at most `workers` concurrent OS threads and
/// collect the results in job order. Panics in any job propagate.
///
/// Jobs are handed out dynamically (an atomic index dispenser), so a
/// long job does not hold back the queue behind it. Job bodies may use
/// the shared Rayon pool (nested data parallelism); see the module docs
/// for the composition contract.
pub fn run_jobs<T, F>(workers: usize, count: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, count);
    if workers == 1 {
        // Degenerate sequential case: no threads, deterministic order.
        return (0..count).map(body).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    let flushing = fpenv::is_flushing();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (next, results, body) = (&next, &results, &body);
            handles.push(scope.spawn(move || {
                let _fp = flushing.then(fpenv::flush_subnormals);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let value = body(i);
                    results.lock().expect("job results lock").push((i, value));
                }
            }));
        }
        for h in handles {
            h.join().expect("job worker panicked");
        }
    });
    // Nested parallel job bodies must never overdraw the shared helper
    // budget (other threads may hold helpers concurrently, so `borrowed`
    // need not be zero here — but it can never exceed the cap).
    let (borrowed, cap) = rayon::worker_budget();
    debug_assert!(
        borrowed <= cap,
        "job bodies overdrew the Rayon helper budget ({borrowed} > {cap})"
    );
    let mut pairs = results.into_inner().expect("job results lock");
    pairs.sort_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_job_order() {
        let out = run_jobs(3, 10, |i| i * 2);
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<usize> = run_jobs(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_is_clamped_to_job_count() {
        // More workers than jobs must not deadlock or lose results.
        let out = run_jobs(64, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn concurrency_is_bounded_by_workers() {
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        run_jobs(2, 12, |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {} > 2 workers",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn jobs_can_fan_out_over_the_shared_pool() {
        use rayon::prelude::*;
        let sums = run_jobs(3, 6, |job| {
            (0..500usize).into_par_iter().map(|i| i * (job + 1)).reduce(|| 0, |a, b| a + b)
        });
        let base: usize = (0..500).sum();
        assert_eq!(sums, (1..=6).map(|k| base * k).collect::<Vec<_>>());
    }
}
