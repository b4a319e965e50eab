//! The one scoped-thread work queue.
//!
//! [`par_map`] runs one job per item on up to `threads` scoped worker
//! threads.  Each worker claims the next unclaimed item from a shared
//! counter and runs its job to completion; the results come back in
//! item order.  The queue only decides *which thread* runs a job and
//! *when*, so a caller whose jobs are pure functions of their item gets
//! the same output for every thread count.  The sweep engine maps
//! experiment cells over it, and the traffic dispatch plane maps lanes.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Map `f` over `items` on up to `threads` scoped threads and return
/// the results in item order.  With at most one thread (or one item)
/// the jobs run inline on the caller's thread.  A panicking job
/// re-raises its panic in the caller.
#[allow(clippy::disallowed_methods)] // the one place threads start
pub fn par_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        match items.get(i) {
                            Some(item) => done.push((i, f(item))),
                            None => break done,
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            for (i, r) in worker.join().unwrap_or_else(|p| resume_unwind(p)) {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter().map(|r| r.expect("every job ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 8, 200] {
            assert_eq!(par_map(threads, &items, |x| x * x + 1), want, "threads {threads}");
        }
        assert!(par_map(4, &[] as &[u64], |x| *x).is_empty());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let items: Vec<usize> = (0..500).collect();
        let seen = Mutex::new(Vec::new());
        par_map(4, &items, |&i| seen.lock().unwrap().push(i));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, items);
    }

    #[test]
    fn jobs_spread_over_the_requested_threads_only() {
        let items: Vec<u32> = (0..64).collect();
        let ids = Mutex::new(HashSet::new());
        par_map(3, &items, |_| {
            ids.lock().unwrap().insert(thread::current().id());
            thread::yield_now();
        });
        let n = ids.into_inner().unwrap().len();
        assert!((1..=3).contains(&n), "{n} threads ran jobs");
        // One thread means the caller's own.
        let ids = Mutex::new(HashSet::new());
        par_map(1, &items, |_| ids.lock().unwrap().insert(thread::current().id()));
        assert_eq!(ids.into_inner().unwrap(), HashSet::from([thread::current().id()]));
    }

    #[test]
    fn a_panicking_job_reraises_its_own_panic() {
        let items: Vec<u32> = (0..8).collect();
        let err = std::panic::catch_unwind(|| {
            par_map(2, &items, |&i| assert!(i != 5, "job five failed"))
        })
        .expect_err("the panic must reach the caller");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| err.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("job five failed"), "got {msg:?}");
    }
}
