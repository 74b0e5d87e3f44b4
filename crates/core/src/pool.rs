//! The intra-job shard pool: persistent work-stealing workers that
//! execute per-stage shard tasks for [`crate::batch`]'s sharded solve
//! path.
//!
//! A sharded solve splits a job's lane range into contiguous chunks and
//! runs each chunk's current stage as one owned task. Tasks enter the
//! pool through a global [`Injector`]; each worker drains its local
//! deque first, then rebalances from the injector, then steals from
//! sibling workers — the standard work-stealing discipline, built on the
//! `vendor/crossbeam` deque shim so the whole crate stays
//! `#![forbid(unsafe_code)]`. Because tasks are owned (`'static`)
//! run-to-completion closures and the dispatching coordinator *helps*
//! (steals and runs pool tasks while waiting for its own shards via
//! [`ShardPool::help_while`]), the pool cannot deadlock regardless of
//! how many concurrent jobs oversubscribe it: every queued task is
//! runnable by any thread that touches the pool.
//!
//! One process-wide pool ([`global`]) sized to [`num_cores`] backs every
//! sharded solve that names no pool of its own — the job server,
//! `Msropm::solve_lanes`, the experiment runner and the portfolio
//! runner; tests build private pools to exercise width edge cases.

use crossbeam::deque::{Injector, Stealer, Worker};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Number of logical cores available to this process (1 when detection
/// fails). The single source of core-count truth for the workspace: the
/// global pool's width, `ExperimentRunner`'s default shard count and
/// the bench bins all route here.
pub fn num_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// State the sleep condvar guards: nothing but the shutdown flag —
/// workers re-check the (externally locked) queues under this mutex
/// before sleeping, which is what makes wakeups impossible to lose.
struct SleepState {
    shutdown: bool,
}

struct PoolShared {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    sleep: Mutex<SleepState>,
    wakeup: Condvar,
    tasks_run: AtomicU64,
}

impl PoolShared {
    fn lock_sleep(&self) -> std::sync::MutexGuard<'_, SleepState> {
        self.sleep.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Steals one task from the injector or any worker's deque (for
    /// helpers that have no local deque of their own).
    fn steal_task(&self) -> Option<Task> {
        if let Some(t) = self.injector.steal().success() {
            return Some(t);
        }
        self.stealers.iter().find_map(|s| s.steal().success())
    }

    /// `true` when any queue holds a task.
    fn has_work(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }

    fn run(&self, task: Task) {
        // A task must never take a pool worker down with it. Shard tasks
        // catch their own panics and report them through their result
        // channel; this is the backstop for the backstop.
        let _ = catch_unwind(AssertUnwindSafe(task));
        self.tasks_run.fetch_add(1, Ordering::Relaxed);
    }
}

/// A persistent pool of work-stealing shard workers (see module docs).
///
/// Dropping a pool shuts its workers down after their in-flight task;
/// queued-but-unstarted tasks are dropped, so callers must collect every
/// outstanding result before letting a pool go (the solve path always
/// does — it blocks in [`ShardPool::help_while`] until all its shards
/// report).
pub struct ShardPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    /// The shard armed by [`faultinject::arm_panic_in_shard`], or
    /// `u64::MAX` when disarmed.
    panic_shard: AtomicU64,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("width", &self.workers.len())
            .field("tasks_run", &self.tasks_run())
            .finish()
    }
}

impl ShardPool {
    /// Spawns a pool of `width` persistent workers.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "shard pool needs at least one worker");
        let locals: Vec<Worker<Task>> = (0..width).map(|_| Worker::new_fifo()).collect();
        let stealers = locals.iter().map(Worker::stealer).collect();
        let shared = Arc::new(PoolShared {
            injector: Injector::new(),
            stealers,
            sleep: Mutex::new(SleepState { shutdown: false }),
            wakeup: Condvar::new(),
            tasks_run: AtomicU64::new(0),
        });
        let workers = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("msropm-shard-{i}"))
                    .spawn(move || worker_loop(&shared, &local))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardPool {
            shared,
            workers,
            panic_shard: AtomicU64::new(u64::MAX),
        }
    }

    /// Number of pool workers (excluding helping coordinators).
    pub fn width(&self) -> usize {
        self.workers.len()
    }

    /// Total tasks the pool has completed (workers and helpers).
    pub fn tasks_run(&self) -> u64 {
        self.shared.tasks_run.load(Ordering::Relaxed)
    }

    /// Submits one owned task for any worker (or helping coordinator)
    /// to execute.
    pub fn submit(&self, task: Task) {
        self.shared.injector.push(task);
        // Pairing the notify with the sleep lock closes the race against
        // a worker that just found the queues empty.
        drop(self.shared.lock_sleep());
        self.shared.wakeup.notify_all();
    }

    /// Runs pool tasks on the calling thread until `done()` answers
    /// `true` — the coordinator side of the bargain: a thread waiting on
    /// shard results works the queue instead of idling, so `shards >
    /// width` configurations (and a 1-core container) still make
    /// progress at full speed and concurrent coordinators can never
    /// deadlock each other.
    pub fn help_while<F: FnMut() -> bool>(&self, mut done: F) {
        let mut idle_spins = 0u32;
        while !done() {
            if let Some(task) = self.shared.steal_task() {
                self.shared.run(task);
                idle_spins = 0;
            } else {
                // Nothing stealable: the remaining shards are in flight
                // on workers. Back off briefly rather than spinning.
                idle_spins += 1;
                if idle_spins < 8 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.lock_sleep().shutdown = true;
        self.shared.wakeup.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, local: &Worker<Task>) {
    loop {
        let task = local
            .pop()
            .or_else(|| shared.injector.steal_batch_and_pop(local).success())
            .or_else(|| shared.stealers.iter().find_map(|s| s.steal().success()));
        if let Some(task) = task {
            shared.run(task);
            continue;
        }
        let guard = shared.lock_sleep();
        if guard.shutdown {
            return;
        }
        // Re-check under the lock: a submit that raced the scan above
        // will have taken this mutex before notifying, so either the
        // task is visible now or the notification is still to come.
        if shared.has_work() {
            continue;
        }
        let _unused = shared
            .wakeup
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// The process-wide shard pool, created on first use with
/// [`num_cores`] workers. The job server's workers and
/// [`crate::portfolio::PortfolioRunner`] share it, so intra-job
/// parallelism never oversubscribes the machine with per-job thread
/// armies.
pub fn global() -> &'static ShardPool {
    static GLOBAL: OnceLock<ShardPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ShardPool::new(num_cores()))
}

/// Runtime-armed fault injection for shard execution, mirroring the
/// server crate's `faultinject` idiom: the disarmed fast path is a
/// single relaxed atomic load, so production solves pay nothing. The
/// armed fault belongs to one [`ShardPool`], so it can only fire in a
/// solve dispatched on that pool.
pub mod faultinject {
    use super::ShardPool;
    use std::sync::atomic::Ordering;

    /// Arms a one-shot panic inside shard `shard`'s next stage task
    /// dispatched on `pool` — on the pool worker (or helping
    /// coordinator) executing that shard, not on the thread that
    /// dispatched the job.
    pub fn arm_panic_in_shard(pool: &ShardPool, shard: usize) {
        pool.panic_shard.store(shard as u64, Ordering::Release);
    }

    /// Disarms `pool`'s shard panic (tests call this from a drop guard
    /// so a failing assertion cannot leak an armed fault).
    pub fn disarm(pool: &ShardPool) {
        pool.panic_shard.store(u64::MAX, Ordering::Release);
    }

    /// `true` while a shard panic is armed on `pool` and has not fired.
    pub fn is_armed(pool: &ShardPool) -> bool {
        pool.panic_shard.load(Ordering::Acquire) != u64::MAX
    }

    /// Check point called once per shard stage task dispatched on
    /// `pool`: `true` (once) when the fault is armed for `shard`,
    /// consuming it.
    pub(crate) fn take_panic_in_shard(pool: &ShardPool, shard: usize) -> bool {
        pool.panic_shard.load(Ordering::Relaxed) != u64::MAX
            && pool
                .panic_shard
                .compare_exchange(shard as u64, u64::MAX, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn tasks_execute_and_results_come_back() {
        let pool = ShardPool::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..16u64 {
            let tx = tx.clone();
            pool.submit(Box::new(move || tx.send(i * i).expect("recv alive")));
        }
        let mut got: Vec<u64> = rx.iter().take(16).collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).map(|i| i * i).collect::<Vec<_>>());
        assert!(pool.tasks_run() >= 16);
    }

    #[test]
    fn helping_coordinator_drains_an_oversubscribed_pool() {
        // 1 worker, 8 tasks: the coordinator must pick up the slack.
        let pool = ShardPool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(2));
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let d = Arc::clone(&done);
        pool.help_while(move || d.load(Ordering::SeqCst) == 8);
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn a_panicking_task_does_not_kill_the_worker() {
        let pool = ShardPool::new(1);
        pool.submit(Box::new(|| panic!("task panic")));
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(move || tx.send(1u8).expect("recv alive")));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)).expect("survivor"),
            1
        );
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ShardPool::new(3);
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            let tx = tx.clone();
            pool.submit(Box::new(move || tx.send(()).expect("recv alive")));
        }
        for _ in 0..3 {
            rx.recv_timeout(Duration::from_secs(10)).expect("task ran");
        }
        drop(pool); // must not hang
    }

    #[test]
    fn global_pool_matches_core_count() {
        assert_eq!(global().width(), num_cores());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_width_rejected() {
        let _ = ShardPool::new(0);
    }
}
