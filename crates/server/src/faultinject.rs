//! Runtime-armed fault injection points for chaos testing.
//!
//! The serving stack calls tiny check functions at the places failures
//! matter: job execution (worker panics), completion delivery (slow
//! hooks), and the event loop's socket write path (short writes,
//! abrupt disconnects). Each check's **disarmed fast path is a single
//! relaxed atomic load** of one process-global bitmask — `wire_bench`
//! asserts this stays free (and that the module is quiescent unless a
//! test armed it), so production serving pays nothing for the
//! instrumentation.
//!
//! Fault points are process-global: chaos tests that arm them must
//! serialize (the suite holds a mutex) and disarm on every exit path —
//! take a [`guard`] so a panicking assertion cannot leak an armed fault
//! into the next test.
//!
//! | point | armed by | fires |
//! |---|---|---|
//! | panic-in-solve | [`arm_panic_in_solve`] | panics inside the worker's `catch_unwind` region on the Nth job → typed `Failed` outcome |
//! | kill-worker | [`arm_kill_worker`] | panics **outside** the catch region on the Nth job → worker thread dies, `WorkerDied`/supervisor path |
//! | delay-completion | [`arm_delay_completion`] | sleeps before every completion delivery while armed |
//! | short-writes | [`arm_short_writes`] | caps every socket write to 7 bytes while armed |
//! | sever-write | [`arm_sever_write`] | the Nth socket write shuts the connection down instead of writing |

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const PANIC_IN_SOLVE: u64 = 1 << 0;
const KILL_WORKER: u64 = 1 << 1;
const DELAY_COMPLETION: u64 = 1 << 2;
const SHORT_WRITES: u64 = 1 << 3;
const SEVER_WRITE: u64 = 1 << 4;

/// Which fault points are armed (bitmask). Every check function's
/// disarmed fast path is one relaxed load of this.
static ARMED: AtomicU64 = AtomicU64::new(0);
static PANIC_COUNTDOWN: AtomicU64 = AtomicU64::new(0);
static KILL_COUNTDOWN: AtomicU64 = AtomicU64::new(0);
static DELAY_MS: AtomicU64 = AtomicU64::new(0);
static SEVER_COUNTDOWN: AtomicU64 = AtomicU64::new(0);

#[inline(always)]
fn is_armed(bit: u64) -> bool {
    ARMED.load(Ordering::Relaxed) & bit != 0
}

/// Decrements `counter`; exactly one caller observes the 1 → 0 edge,
/// disarms `bit` and fires. Never underflows under races.
fn countdown_fires(counter: &AtomicU64, bit: u64) -> bool {
    loop {
        let cur = counter.load(Ordering::Acquire);
        if cur == 0 {
            return false;
        }
        if counter
            .compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if cur == 1 {
                ARMED.fetch_and(!bit, Ordering::AcqRel);
                return true;
            }
            return false;
        }
    }
}

/// Arms panic-in-solve: the `nth` job (1-based) to enter solve
/// execution panics **inside** the worker's `catch_unwind` region —
/// exercising the typed `JobCompletion::Failed` path without killing
/// the thread. Fires once, then disarms itself.
///
/// # Panics
///
/// Panics if `nth == 0`.
pub fn arm_panic_in_solve(nth: u64) {
    assert!(nth > 0, "countdown must be at least 1");
    PANIC_COUNTDOWN.store(nth, Ordering::Release);
    ARMED.fetch_or(PANIC_IN_SOLVE, Ordering::AcqRel);
}

/// Arms kill-worker: the `nth` job (1-based) to reach a worker panics
/// **outside** the `catch_unwind` region, killing the worker thread
/// mid-job — exercising the `CompletionHook::Drop` → `WorkerDied` path
/// and the supervisor respawn. Fires once, then disarms itself.
///
/// # Panics
///
/// Panics if `nth == 0`.
pub fn arm_kill_worker(nth: u64) {
    assert!(nth > 0, "countdown must be at least 1");
    KILL_COUNTDOWN.store(nth, Ordering::Release);
    ARMED.fetch_or(KILL_WORKER, Ordering::AcqRel);
}

/// Arms delay-completion: every completion delivery sleeps `millis`
/// first, until disarmed.
pub fn arm_delay_completion(millis: u64) {
    DELAY_MS.store(millis, Ordering::Release);
    ARMED.fetch_or(DELAY_COMPLETION, Ordering::AcqRel);
}

/// Arms short-writes: every socket write of the event loop is capped
/// to 7 bytes, until disarmed — frames cross the wire in dribbles,
/// exercising partial-write handling end to end.
pub fn arm_short_writes() {
    ARMED.fetch_or(SHORT_WRITES, Ordering::AcqRel);
}

/// Arms sever-write: the `nth` socket write (1-based, across all
/// connections) shuts the peer connection down instead of writing —
/// an abrupt server-side disconnect mid-stream. Fires once, then
/// disarms itself.
///
/// # Panics
///
/// Panics if `nth == 0`.
pub fn arm_sever_write(nth: u64) {
    assert!(nth > 0, "countdown must be at least 1");
    SEVER_COUNTDOWN.store(nth, Ordering::Release);
    ARMED.fetch_or(SEVER_WRITE, Ordering::AcqRel);
}

/// Disarms every fault point and zeroes the countdowns.
pub fn disarm_all() {
    ARMED.store(0, Ordering::Release);
    PANIC_COUNTDOWN.store(0, Ordering::Release);
    KILL_COUNTDOWN.store(0, Ordering::Release);
    DELAY_MS.store(0, Ordering::Release);
    SEVER_COUNTDOWN.store(0, Ordering::Release);
}

/// `true` when no fault point is armed — the production steady state,
/// asserted by `wire_bench` before taking perf measurements.
pub fn quiescent() -> bool {
    ARMED.load(Ordering::Acquire) == 0
}

/// A drop guard that [`disarm_all`]s — chaos tests hold one so a
/// panicking assertion cannot leak an armed fault into the next test.
#[derive(Debug)]
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Takes a [`FaultGuard`] (and starts from a clean slate).
pub fn guard() -> FaultGuard {
    disarm_all();
    FaultGuard(())
}

/// Worker-loop check point, called inside the `catch_unwind` region.
///
/// # Panics
///
/// Panics when [`arm_panic_in_solve`]'s countdown fires.
#[inline]
pub fn maybe_panic_in_solve() {
    if !is_armed(PANIC_IN_SOLVE) {
        return;
    }
    if countdown_fires(&PANIC_COUNTDOWN, PANIC_IN_SOLVE) {
        panic!("fault injection: panic_in_solve fired");
    }
}

/// Worker-loop check point, called **outside** the `catch_unwind`
/// region with the job envelope in scope.
///
/// # Panics
///
/// Panics when [`arm_kill_worker`]'s countdown fires, killing the
/// calling worker thread.
#[inline]
pub fn maybe_kill_worker() {
    if !is_armed(KILL_WORKER) {
        return;
    }
    if countdown_fires(&KILL_COUNTDOWN, KILL_WORKER) {
        panic!("fault injection: kill_worker fired");
    }
}

/// Completion-delivery check point: sleeps while delay-completion is
/// armed, else returns immediately.
#[inline]
pub fn maybe_delay_completion() {
    if !is_armed(DELAY_COMPLETION) {
        return;
    }
    std::thread::sleep(Duration::from_millis(DELAY_MS.load(Ordering::Acquire)));
}

/// Socket-write check point: how many of `len` bytes this write may
/// move. `len` when disarmed; at most 7 while short-writes is armed.
#[inline]
pub fn short_write_cap(len: usize) -> usize {
    if !is_armed(SHORT_WRITES) {
        return len;
    }
    len.min(7)
}

/// Socket-write check point: `true` when this write should sever the
/// connection instead (the armed countdown just fired).
#[inline]
pub fn should_sever_write() -> bool {
    is_armed(SEVER_WRITE) && countdown_fires(&SEVER_COUNTDOWN, SEVER_WRITE)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fault state is process-global; this suite touches it from one
    // test only so it cannot race its siblings.
    #[test]
    fn countdowns_fire_exactly_once_and_disarm() {
        let _g = guard();
        assert!(quiescent());
        arm_short_writes();
        assert!(!quiescent());
        assert_eq!(short_write_cap(1024), 7);
        assert_eq!(short_write_cap(3), 3);
        arm_sever_write(3);
        assert!(!should_sever_write());
        assert!(!should_sever_write());
        assert!(should_sever_write());
        assert!(!should_sever_write(), "sever fires once then disarms");
        disarm_all();
        assert!(quiescent());
        assert_eq!(short_write_cap(1024), 1024);
        maybe_panic_in_solve(); // disarmed: must not panic
        maybe_kill_worker();
        maybe_delay_completion();
    }
}
