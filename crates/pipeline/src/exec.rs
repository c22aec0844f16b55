//! The scoped-thread fan-out primitive behind [`crate::ThreadExecutor`]
//! and the serve daemon's unit pool, plus the lock and deadline-bounded
//! wait that the serve scheduler and the remote driver share.
//!
//! The build environment has no external crates, so the parallel path is a
//! small scoped-thread work queue with the same contract rayon's
//! `par_iter().map().collect()` would give: results come back in item order
//! and the first error (by item index) wins, so serial and parallel runs of
//! a deterministic job produce identical output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Recover from a poisoned mutex: every critical section that uses this
/// leaves the protected state consistent before any operation that could
/// panic, so the inner data is still valid.
pub(crate) fn lock_ok<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` while `blocked` holds, until `deadline` at most.  Every
/// change to the guarded state must notify `cv` after it, or a waiter can
/// sleep through it until the deadline.
pub(crate) fn wait_until<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    deadline: Option<Instant>,
    blocked: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    match deadline {
        None => cv
            .wait_while(guard, blocked)
            .unwrap_or_else(PoisonError::into_inner),
        Some(d) => {
            cv.wait_timeout_while(guard, d.saturating_duration_since(Instant::now()), blocked)
                .unwrap_or_else(PoisonError::into_inner)
                .0
        }
    }
}

/// Resolves a requested worker count against an item count: `0` means the
/// machine's available parallelism, and the result is clamped to
/// `1..=items.max(1)` — never zero workers, never more workers than items.
pub fn resolve_threads(requested: usize, items: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    threads.min(items.max(1)).max(1)
}

/// Runs `job(0..items)` on `threads` scoped worker threads (`0` = machine
/// parallelism; the count is clamped to `1..=items`) and returns the results
/// in item order.  On failure the error of the smallest failing index is
/// returned, independent of thread timing.
pub fn run_indexed_threads<T, E, F>(threads: usize, items: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    if items == 0 {
        return Ok(Vec::new());
    }
    let threads = resolve_threads(threads, items);
    if threads <= 1 {
        return (0..items).map(job).collect();
    }

    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..items).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= items {
                    break;
                }
                let result = job(index);
                *slots[index].lock().expect("result slot") = Some(result);
            });
        }
    });

    let mut out = Vec::with_capacity(items);
    for slot in slots {
        match slot.into_inner().expect("result slot") {
            Some(Ok(value)) => out.push(Ok(value)),
            Some(Err(e)) => return Err(e),
            // A panicking worker would have propagated out of the scope
            // already; an empty slot is unreachable.
            None => unreachable!("work item skipped"),
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let serial: Vec<usize> = run_indexed_threads(1, 100, |i| Ok::<_, ()>(i * i)).unwrap();
        let parallel: Vec<usize> = run_indexed_threads(4, 100, |i| Ok::<_, ()>(i * i)).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn first_error_by_index_wins() {
        let result = run_indexed_threads(4, 50, |i| if i % 10 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(result.unwrap_err(), 3);
    }

    #[test]
    fn zero_items_is_empty() {
        let out: Vec<u8> = run_indexed_threads(0, 0, |_| Ok::<_, ()>(0)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn explicit_thread_count_is_respected() {
        // More threads than items must not deadlock or duplicate work.
        let out: Vec<usize> = run_indexed_threads(16, 3, Ok::<_, ()>).unwrap();
        assert_eq!(out, vec![0, 1, 2]);
    }

    /// Regression: a request for `0` threads is the documented
    /// machine-sized request and must always resolve to at least one
    /// worker — it runs to completion with results identical to serial,
    /// never zero workers.
    #[test]
    fn zero_thread_request_clamps_to_at_least_one_worker() {
        assert!(resolve_threads(0, 8) >= 1);
        assert_eq!(resolve_threads(0, 0), 1);
        // The 0 sentinel means machine parallelism all the way down — it is
        // resolved, never silently collapsed to a single worker.
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(resolve_threads(0, 100), machine.min(100));
        assert_eq!(resolve_threads(5, 2), 2);
        assert_eq!(resolve_threads(1, 100), 1);
        let zero: Vec<usize> = run_indexed_threads(0, 9, |i| Ok::<_, ()>(i + 1)).unwrap();
        let serial: Vec<usize> = run_indexed_threads(1, 9, |i| Ok::<_, ()>(i + 1)).unwrap();
        assert_eq!(zero, serial);
    }
}
