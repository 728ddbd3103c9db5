//! The parallel runtime's per-worker work-stealing deque, std-only.
//!
//! [`MutexDeque`] is a `Mutex<VecDeque>` with an atomic-length mirror.
//! The owning worker pushes and pops at the **back** (LIFO, cache-hot
//! depth-first execution — the Cilk discipline); thieves take from the
//! **front** (the oldest task, the "steal the shallowest frame"
//! heuristic). The length mirror is the lock-free emptiness fast path:
//! a thief scanning empty victims, or an owner polling an empty queue,
//! never takes a lock.
//!
//! The queue is a mutex on purpose: a lock-free Chase–Lev deque measured
//! no faster on the runtime's spawn-heavy fib(16) benchmark at two or
//! four workers (DESIGN.md §5d), and the runtime's role is semantic —
//! running reducer views under real steals — not raw scheduling
//! throughput.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A mutex-guarded per-worker deque: owner operates on the back, thieves
/// on the front, with an atomic-length mirror as a lock-free emptiness
/// fast path for steal scans.
pub struct MutexDeque<T> {
    /// Mirror of `inner.len()`, maintained under the lock, read without
    /// it — the lock-free emptiness fast path for steal scans.
    len: AtomicUsize,
    inner: Mutex<VecDeque<T>>,
}

impl<T> Default for MutexDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MutexDeque<T> {
    /// New empty deque.
    pub fn new() -> Self {
        MutexDeque {
            len: AtomicUsize::new(0),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        // Jobs run user closures *outside* the lock, so a panicking job
        // can never poison the queue; recover rather than propagate.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True if the deque was empty at the time of the check (no lock
    /// taken).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }

    /// Number of queued items at the time of the check (no lock taken).
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Owner: push a task at the back.
    pub fn push(&self, item: T) {
        let mut q = self.locked();
        q.push_back(item);
        self.len.store(q.len(), Ordering::Release);
    }

    /// Owner: pop the most recently pushed task (LIFO).
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut q = self.locked();
        let item = q.pop_back();
        self.len.store(q.len(), Ordering::Release);
        item
    }

    /// Thief: steal the oldest task (FIFO).
    pub fn steal(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut q = self.locked();
        let item = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let d = MutexDeque::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.steal(), Some(1), "thief takes the oldest");
        assert_eq!(d.pop(), Some(3), "owner takes the newest");
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn concurrent_steals_never_duplicate_or_lose_items() {
        let d = Arc::new(MutexDeque::new());
        const N: usize = 10_000;
        for i in 0..N {
            d.push(i);
        }
        let nthreads = 8;
        let mut seen: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nthreads)
                .map(|_| {
                    let d = d.clone();
                    s.spawn(move || {
                        let mut local = Vec::new();
                        while let Some(v) = d.steal() {
                            local.push(v);
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..N).collect::<Vec<_>>());
    }
}
