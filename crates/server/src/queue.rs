//! A small bounded MPMC queue on `Mutex` + `Condvar`.
//!
//! This is the server's admission-control point: `push` blocks once
//! `capacity` jobs are waiting (backpressure on producers instead of
//! unbounded memory growth), `pop` blocks until work or shutdown. The
//! queue is deliberately tiny and dependency-free — the vendored
//! `crossbeam` shim only provides work-stealing deques, which never
//! block, and `std::sync::mpsc` is single-consumer, so neither fits a
//! pool of competing workers.

use crate::lock_unpoisoned;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Condvar wait with poison recovery (see [`crate::lock_unpoisoned`]):
/// queue state mutations are single `VecDeque` operations, so a guard
/// recovered mid-unwind is always consistent.
fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why [`BoundedQueue::try_push`] handed the item back.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The queue is at capacity; retry after a consumer makes room.
    Full(T),
    /// The queue is closed; the item can never be enqueued.
    Closed(T),
}

/// Bounded multi-producer/multi-consumer FIFO channel.
///
/// All methods take `&self`; share the queue behind an `Arc`.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` waiting items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        BoundedQueue {
            capacity,
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues `item`, blocking while the queue is full. Returns
    /// `Err(item)` (giving the item back) if the queue was closed before
    /// space became available.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = wait_unpoisoned(&self.not_full, state);
        }
    }

    /// Non-blocking [`BoundedQueue::push`]: enqueues only if space is
    /// free right now, giving the item back (tagged with why) otherwise.
    /// The serving event loop uses this so a full queue parks the job
    /// instead of stalling the event loop.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Full`] when the queue is at capacity,
    /// [`TryPushError::Closed`] when it has been closed.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = lock_unpoisoned(&self.state);
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() < self.capacity {
            state.items.push_back(item);
            self.not_empty.notify_one();
            Ok(())
        } else {
            Err(TryPushError::Full(item))
        }
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed **and** drained — the
    /// consumer's shutdown signal (items enqueued before `close` are
    /// still delivered).
    pub fn pop(&self) -> Option<T> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = wait_unpoisoned(&self.not_empty, state);
        }
    }

    /// Closes the queue: subsequent `push`es fail fast, and `pop`
    /// returns `None` once the backlog drains. Idempotent.
    pub fn close(&self) {
        let mut state = lock_unpoisoned(&self.state);
        state.closed = true;
        // Wake everyone: blocked producers must fail, idle consumers
        // must observe the drain-and-exit condition.
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// `true` once [`BoundedQueue::close`] has been called (the backlog
    /// may still be draining). The supervisor polls this to tell a
    /// worker's natural shutdown exit from a death worth respawning.
    pub fn is_closed(&self) -> bool {
        lock_unpoisoned(&self.state).closed
    }

    /// Number of items currently waiting.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.state).items.len()
    }

    /// `true` when no item is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order_single_thread() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_blocks_until_space_then_succeeds() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(1).is_ok());
        // Give the producer a moment to block on the full queue.
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn try_push_reports_full_and_closed_without_blocking() {
        let q = BoundedQueue::new(1);
        q.try_push(1u8).unwrap();
        match q.try_push(2) {
            Err(TryPushError::Full(v)) => assert_eq!(v, 2),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        q.close();
        match q.try_push(4) {
            Err(TryPushError::Closed(v)) => assert_eq!(v, 4),
            other => panic!("expected Closed, got {other:?}"),
        }
        // Items admitted before close still drain.
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_drains_backlog_then_signals_consumers() {
        let q = BoundedQueue::new(4);
        q.push('a').unwrap();
        q.push('b').unwrap();
        q.close();
        assert_eq!(q.push('c'), Err('c'));
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u8>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    /// The close-while-parked path the reactor's parked submits lean
    /// on: producers blocked in `push` on a full queue must wake
    /// promptly on `close` and get their item handed back — never lost,
    /// never enqueued past the close.
    #[test]
    fn close_wakes_parked_producers_with_their_items() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).unwrap();
        let parked: Vec<_> = (1..=3u32)
            .map(|v| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(v))
            })
            .collect();
        // Let all three park on the full queue.
        thread::sleep(Duration::from_millis(20));
        q.close();
        let mut given_back: Vec<u32> = parked
            .into_iter()
            .map(|h| h.join().unwrap().expect_err("closed: item handed back"))
            .collect();
        given_back.sort_unstable();
        assert_eq!(given_back, vec![1, 2, 3]);
        // The pre-close item still drains; nothing snuck in after close.
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), None);
    }

    /// Stress the close / `try_push` give-back / `pop` interplay: under
    /// concurrent close, every item is either delivered exactly once or
    /// handed back to its producer — none lost, none duplicated.
    #[test]
    fn concurrent_close_never_loses_or_duplicates_items() {
        for round in 0..20u32 {
            let q = Arc::new(BoundedQueue::new(2));
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = q.pop() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            let producers: Vec<_> = (0..3u32)
                .map(|p| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        let mut kept = Vec::new();
                        for i in 0..40u32 {
                            let v = p * 1000 + i;
                            match q.try_push(v) {
                                Ok(()) => {}
                                Err(TryPushError::Full(v)) | Err(TryPushError::Closed(v)) => {
                                    kept.push(v)
                                }
                            }
                        }
                        kept
                    })
                })
                .collect();
            // Close mid-flight: producers racing the close must all get
            // a definite verdict per item.
            thread::sleep(Duration::from_micros(u64::from(round) * 50));
            q.close();
            let mut all: Vec<u32> = Vec::new();
            for p in producers {
                all.extend(p.join().unwrap());
            }
            for c in consumers {
                all.extend(c.join().unwrap());
            }
            all.sort_unstable();
            let mut expect: Vec<u32> = (0..3)
                .flat_map(|p| (0..40).map(move |i| p * 1000 + i))
                .collect();
            expect.sort_unstable();
            assert_eq!(all, expect, "round {round}: items lost or duplicated");
        }
    }

    #[test]
    fn is_closed_flips_on_close() {
        let q = BoundedQueue::<u8>::new(1);
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert!(q.is_closed(), "close is idempotent");
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        let q = Arc::new(BoundedQueue::new(8));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..50u32 {
                        q.push(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expect: Vec<u32> = (0..50).chain(1000..1050).collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}
