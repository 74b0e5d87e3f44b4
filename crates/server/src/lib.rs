//! # msropm-server — async batch-solve job service
//!
//! The paper's Potts machine is a throughput device: many independent
//! annealing replicas answering coloring/max-cut queries. This crate
//! wraps the workspace's batch solver ([`msropm_core::BatchJob::run`]
//! over [`msropm_core::Msropm::solve_lanes`]) as the unit of work behind
//! a request interface, in the spirit of the ASIC-emulated accelerator
//! framing where the oscillator fabric sits behind a job queue:
//!
//! - a **bounded MPMC job queue** ([`queue::BoundedQueue`]) admits
//!   requests and applies backpressure once full;
//! - **N worker threads** drain it, each owning a long-lived
//!   [`msropm_core::ShardedArena`] so back-to-back jobs reuse the
//!   integrator scratch and state buffers instead of reallocating;
//! - each job's lanes shard across the process-wide
//!   [`msropm_core::pool`] at a width [`ShardPolicy`] picks per job;
//! - a shared **problem cache** ([`msropm_core::ProblemCache`], keyed by
//!   [`msropm_graph::io::graph_hash`] + config fingerprint) interns
//!   compiled machines, so repeat topologies skip network/schedule
//!   recompilation entirely;
//! - each job returns a **ranked lane report**
//!   ([`msropm_core::JobReport`]) through a per-job completion channel
//!   ([`JobTicket`]), annotated with queue/service timing.
//!
//! ## Determinism
//!
//! A job is picked up by exactly one worker, and a completed
//! `BatchJob::run` is a pure function of `(graph, job)` — so the same
//! job + seed produces a **bit-identical** report whether the server
//! runs 1 worker or 40, at any shard width, hot cache or cold, fresh
//! arena or reused (property-tested in `tests/determinism.rs`). Only
//! completion *order* across different jobs depends on scheduling.
//!
//! ## Example: submit → await → ranked report
//!
//! ```
//! use std::sync::Arc;
//! use msropm_core::{BatchJob, MsropmConfig, SweepParam, SweepSpec};
//! use msropm_graph::generators;
//! use msropm_server::{JobServer, ServerConfig};
//!
//! let server = JobServer::start(ServerConfig {
//!     workers: 2,
//!     queue_capacity: 8,
//!     cache_capacity: 16,
//!     ..ServerConfig::default()
//! });
//!
//! // One tenant's operating point: a 4-lane (K, σ) sweep on a 3×3
//! // King's graph (dt coarsened to keep the example fast).
//! let graph = Arc::new(generators::kings_graph(3, 3));
//! let config = MsropmConfig { dt: 0.02, ..MsropmConfig::paper_default() };
//! let sweep = SweepSpec::new()
//!     .grid(SweepParam::CouplingStrength, vec![0.8, 1.0])
//!     .grid(SweepParam::Noise, vec![0.1, 0.2]);
//! let job = BatchJob::from_sweep(config, &sweep, 42);
//!
//! let ticket = server.submit(Arc::clone(&graph), job).expect("queue open");
//! let outcome = ticket.wait().expect("job completed");
//!
//! // Lanes come back best-first; the report is bit-reproducible.
//! let report = &outcome.report;
//! assert_eq!(report.ranked.len(), 4);
//! assert!(report.best().conflicts <= report.ranked[3].conflicts);
//! assert_eq!(report.graph_hash, msropm_graph::graph_hash(&graph));
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faultinject;
pub mod http;
pub mod proto;
pub mod queue;
pub mod reactor;
pub(crate) mod session;
pub mod stats;
#[cfg(test)]
mod wire;

pub use reactor::Frontend;
pub use session::WireConfig;

use msropm_core::{
    num_cores, BatchJob, CacheStats, CancelToken, JobReport, KernelBackend, ProblemCache,
    ShardedArena, SolveOptions,
};
use msropm_graph::Graph;
use queue::BoundedQueue;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Locks `m`, recovering the guard from a poisoned mutex instead of
/// panicking. Every lock in this crate's serving paths goes through
/// here: completion hooks fire from `Drop` during a worker panic's
/// unwind, so a poison-propagating `expect` there would turn one
/// injected fault into a double panic (process abort). The protected
/// invariants are all exception-safe single operations (`VecDeque` /
/// `HashMap` mutations that complete or don't), so the recovered state
/// is always consistent.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How wide each job's solve shards across the process-wide
/// [`msropm_core::pool`] (intra-job lane parallelism). Reports are
/// **bit-identical** at every width — the policy trades latency against
/// cross-job throughput, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// Adapt per job from queue depth: an idle server gives the lone
    /// job every core (lowest latency); a deep backlog narrows each job
    /// toward one shard so cross-job concurrency carries the
    /// throughput.
    #[default]
    Auto,
    /// Every job runs exactly this many shards (clamped to its lane
    /// count). `Fixed(1)` disables intra-job parallelism outright.
    Fixed(usize),
}

impl ShardPolicy {
    /// Resolves the shard width for one job of `lanes` lanes with
    /// `backlog` jobs waiting behind it.
    fn width(self, lanes: usize, backlog: usize) -> usize {
        let want = match self {
            ShardPolicy::Fixed(n) => n.max(1),
            ShardPolicy::Auto => (num_cores() / (backlog + 1)).max(1),
        };
        want.min(lanes.max(1))
    }
}

/// Sizing knobs of a [`JobServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads draining the queue (each owns a solve arena).
    pub workers: usize,
    /// Jobs admitted to the queue before `submit` blocks (backpressure).
    pub queue_capacity: usize,
    /// Compiled machines the problem cache retains (LRU beyond this).
    pub cache_capacity: usize,
    /// Intra-job shard width policy (see [`ShardPolicy`]).
    pub shards: ShardPolicy,
    /// When set, every accepted job is forced onto this kernel backend
    /// (base config and all lanes — see
    /// [`msropm_core::BatchJob::force_backend`]) before it reaches the
    /// problem cache. `None` honours whatever backend each job asks
    /// for. This is the `msropm_serve --backend` knob: one flag pins
    /// the whole deployment to e.g. the fixed-point kernel.
    pub backend: Option<KernelBackend>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 32,
            shards: ShardPolicy::Auto,
            backend: None,
        }
    }
}

/// Queue/service timing of one completed job, measured by the server.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    /// Submit → a worker picked the job up.
    pub queued: Duration,
    /// Pick-up → report ready (cache lookup/compile + solve + ranking).
    pub service: Duration,
}

impl JobTiming {
    /// End-to-end latency: `queued + service`.
    pub fn total(&self) -> Duration {
        self.queued + self.service
    }
}

/// A completed job: the ranked report plus server-side timing.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The ranked lane report (bit-deterministic; see the crate docs).
    pub report: JobReport,
    /// Where the job spent its latency.
    pub timing: JobTiming,
}

/// Errors surfaced to submitters.
#[derive(Debug)]
pub enum ServerError {
    /// The server is shutting down; the job was not enqueued.
    Closed,
    /// The worker executing the job died before replying — it panicked
    /// outside the supervised solve region, or the server tore down
    /// with the job still queued. The supervisor respawns the worker;
    /// the job itself is lost.
    WorkerDied,
    /// The solve panicked; the panic was caught ([`std::panic::catch_unwind`])
    /// and the worker lives on.
    Failed {
        /// The panic payload, best-effort stringified.
        message: String,
    },
    /// The job's deadline expired before it produced a report — shed in
    /// the queue or abandoned at a stage boundary.
    DeadlineExceeded,
    /// The job was cancelled before producing a report (see
    /// [`msropm_core::CancelToken`]); no report exists for it.
    Cancelled,
    /// [`JobTicket::wait_timeout`] elapsed with the job still running;
    /// the ticket is returned for a later retry.
    Timeout(JobTicket),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Closed => write!(f, "job server is shut down"),
            ServerError::WorkerDied => write!(f, "worker died before completing the job"),
            ServerError::Failed { message } => write!(f, "job failed: {message}"),
            ServerError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            ServerError::Cancelled => write!(f, "job was cancelled before completing"),
            ServerError::Timeout(_) => write!(f, "timed out waiting for the job"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Lifecycle of one submitted job, observable through its
/// [`JobStatusCell`] (and the wire protocol's `status` verb).
///
/// Transitions are monotone:
/// `Queued → Running → {Done, Cancelled, Failed}`, with
/// `Queued → Cancelled` when a cancel lands before pickup and
/// `Queued → Failed` when a deadline expires before pickup. `Failed`
/// covers every non-cancel way a job dies without a report: the solve
/// panicked (caught, worker lives), the deadline expired, or the
/// executing worker thread died. Cancellation is cooperative — a
/// `cancel()` is *observed* by the worker at pickup or at a stage
/// boundary, so a cancelled job may report `Queued`/`Running` for a
/// short while before settling in `Cancelled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum JobState {
    /// Submitted, not yet picked up by a worker.
    Queued = 0,
    /// A worker is executing the job.
    Running = 1,
    /// Completed; a report was produced.
    Done = 2,
    /// Cancelled before producing a report.
    Cancelled = 3,
    /// Died without a report: panicking solve, expired deadline, or
    /// dead worker.
    Failed = 4,
}

impl JobState {
    /// Inverse of `self as u8` (for wire decoding).
    pub fn from_u8(b: u8) -> Option<JobState> {
        match b {
            0 => Some(JobState::Queued),
            1 => Some(JobState::Running),
            2 => Some(JobState::Done),
            3 => Some(JobState::Cancelled),
            4 => Some(JobState::Failed),
            _ => None,
        }
    }

    /// `true` for the states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// Shared, lock-free cell holding one job's [`JobState`]; written by the
/// executing worker, read by status queries.
#[derive(Debug, Default)]
pub struct JobStatusCell(AtomicU8);

impl JobStatusCell {
    /// A fresh cell in [`JobState::Queued`].
    pub fn new() -> Self {
        JobStatusCell::default()
    }

    /// Current state.
    pub fn get(&self) -> JobState {
        JobState::from_u8(self.0.load(Ordering::Acquire)).expect("cell holds a valid state")
    }

    /// Records a transition (no ordering enforcement — callers follow
    /// the monotone lifecycle documented on [`JobState`]).
    pub fn set(&self, state: JobState) {
        self.0.store(state as u8, Ordering::Release);
    }

    /// Records a transition and returns the state it replaced (the
    /// session layer uses this to tell a mid-run worker death from an
    /// envelope dropped before pickup).
    pub fn swap(&self, state: JobState) -> JobState {
        JobState::from_u8(self.0.swap(state as u8, Ordering::AcqRel))
            .expect("cell holds a valid state")
    }
}

/// Handle to one in-flight job; redeem it with [`JobTicket::wait`].
#[derive(Debug)]
pub struct JobTicket {
    rx: mpsc::Receiver<JobCompletion>,
}

impl JobTicket {
    fn settle(msg: JobCompletion) -> Result<JobOutcome, ServerError> {
        match msg {
            JobCompletion::Done(outcome) => Ok(outcome),
            JobCompletion::Cancelled => Err(ServerError::Cancelled),
            JobCompletion::Failed { message } => Err(ServerError::Failed { message }),
            JobCompletion::DeadlineExceeded => Err(ServerError::DeadlineExceeded),
            JobCompletion::WorkerDied => Err(ServerError::WorkerDied),
        }
    }

    /// Blocks until the job completes.
    ///
    /// # Errors
    ///
    /// [`ServerError::Cancelled`] if the job was cancelled,
    /// [`ServerError::Failed`] if the solve panicked (caught),
    /// [`ServerError::DeadlineExceeded`] if its deadline expired,
    /// [`ServerError::WorkerDied`] if the executing worker died.
    pub fn wait(self) -> Result<JobOutcome, ServerError> {
        match self.rx.recv() {
            Ok(msg) => Self::settle(msg),
            Err(_) => Err(ServerError::WorkerDied),
        }
    }

    /// Like [`JobTicket::wait`] with an upper bound; on timeout the
    /// ticket comes back inside [`ServerError::Timeout`] so the caller
    /// can keep waiting later.
    ///
    /// # Errors
    ///
    /// [`ServerError::Timeout`] when `dur` elapses first, otherwise as
    /// for [`JobTicket::wait`].
    pub fn wait_timeout(self, dur: Duration) -> Result<JobOutcome, ServerError> {
        match self.rx.recv_timeout(dur) {
            Ok(msg) => Self::settle(msg),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServerError::Timeout(self)),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServerError::WorkerDied),
        }
    }
}

/// How one submitted job ended, as seen by a completion hook.
#[derive(Debug)]
pub enum JobCompletion {
    /// The job produced a report.
    Done(JobOutcome),
    /// The job was cancelled before producing a report; none exists.
    Cancelled,
    /// The solve panicked; the panic was caught and the worker lives.
    Failed {
        /// The panic payload, best-effort stringified.
        message: String,
    },
    /// The job's deadline expired before it produced a report.
    DeadlineExceeded,
    /// The executing worker died before replying (panic outside the
    /// supervised region, or teardown dropped the queued job).
    WorkerDied,
}

/// A completion callback run **on the worker thread** the moment a job
/// reaches its terminal state. It is every job's one completion path:
/// [`JobServer::submit`]'s [`JobTicket`] waits on a hook that sends the
/// completion down a channel. Fires exactly once: if the job is
/// destroyed without a verdict (worker panic unwinding, queue dropped),
/// the hook fires [`JobCompletion::WorkerDied`] from `Drop`, so a
/// registered job can never be silently forgotten.
///
/// Hooks must be cheap and panic-free: they run inline in the worker
/// loop (the serving codecs use them to hand an already-encoded frame
/// to an event loop or a poll store).
pub struct CompletionHook(Option<Box<dyn FnOnce(JobCompletion) + Send>>);

impl CompletionHook {
    /// Wraps `f` as a completion hook.
    pub fn new(f: impl FnOnce(JobCompletion) + Send + 'static) -> CompletionHook {
        CompletionHook(Some(Box::new(f)))
    }

    fn fire(mut self, completion: JobCompletion) {
        if let Some(f) = self.0.take() {
            f(completion);
        }
    }
}

impl Drop for CompletionHook {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f(JobCompletion::WorkerDied);
        }
    }
}

impl fmt::Debug for CompletionHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionHook")
            .field("fired", &self.0.is_none())
            .finish()
    }
}

/// Everything needed to enqueue one hook-completed job. Returned intact
/// by [`JobServer::try_submit_job`] when the queue is full, so the
/// event loop can park it and retry; **dropping** a
/// `PendingJob` fires its hook with [`JobCompletion::WorkerDied`].
#[derive(Debug)]
pub struct PendingJob {
    graph: Arc<Graph>,
    job: BatchJob,
    /// Domain digest of the compiled problem this job solves (`0` for a
    /// plain graph submission); scopes the problem-cache slot.
    problem_fingerprint: u64,
    cancel: CancelToken,
    status: Arc<JobStatusCell>,
    deadline: Option<Instant>,
    hook: CompletionHook,
}

impl PendingJob {
    /// Bundles a job with its cancellation/status plumbing, an optional
    /// absolute deadline (expired jobs are shed at pickup or abandoned
    /// at the next stage boundary → [`JobCompletion::DeadlineExceeded`])
    /// and the hook that will observe its completion.
    pub fn new(
        graph: Arc<Graph>,
        job: BatchJob,
        cancel: CancelToken,
        status: Arc<JobStatusCell>,
        deadline: Option<Instant>,
        hook: CompletionHook,
    ) -> PendingJob {
        PendingJob {
            graph,
            job,
            problem_fingerprint: 0,
            cancel,
            status,
            deadline,
            hook,
        }
    }

    /// Scopes this job's problem-cache slot to one compiled problem
    /// (see [`msropm_core::ProblemCache::lookup_problem`]); plain graph
    /// submissions keep the default `0`.
    pub fn with_problem_fingerprint(mut self, fingerprint: u64) -> PendingJob {
        self.problem_fingerprint = fingerprint;
        self
    }
}

/// Why [`JobServer::try_submit_job`] handed the job back.
#[derive(Debug)]
pub enum TrySubmitError {
    /// The queue is at capacity; park and retry later.
    Full(PendingJob),
    /// The server is shutting down; the job can never be enqueued.
    Closed(PendingJob),
}

/// One queued request: the job with its plumbing and completion hook,
/// plus the submission timestamp (for queue-delay accounting).
struct Envelope {
    pending: PendingJob,
    submitted_at: Instant,
}

impl Envelope {
    /// Stamps `pending` with the current time on its way into the queue.
    fn new(pending: PendingJob) -> Envelope {
        Envelope {
            pending,
            submitted_at: Instant::now(),
        }
    }
}

struct Shared {
    queue: BoundedQueue<Envelope>,
    cache: Mutex<ProblemCache>,
    shard_policy: ShardPolicy,
    /// Deployment-wide kernel-backend override (see [`ServerConfig::backend`]).
    backend: Option<KernelBackend>,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_failed: AtomicU64,
    worker_restarts: AtomicU64,
    jobs_sharded: AtomicU64,
    shard_width_max: AtomicU64,
    /// Live worker handles, shared with the supervisor (which reaps
    /// finished ones and pushes their replacements).
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// How often the supervisor scans for dead workers.
const SUPERVISOR_POLL: Duration = Duration::from_millis(20);
/// Rolling window bounding the worker restart rate…
const RESTART_WINDOW: Duration = Duration::from_secs(1);
/// …to at most this many respawns per window. A panic storm (every job
/// crashing) then costs bounded spawn churn instead of a hot loop; the
/// deficit is made up on later ticks once the window rolls.
const MAX_RESTARTS_PER_WINDOW: usize = 32;

/// The multi-worker batch-solve job service; see the crate docs.
pub struct JobServer {
    shared: Arc<Shared>,
    supervisor: Option<thread::JoinHandle<()>>,
}

impl JobServer {
    /// Boots the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if any sizing knob of `config` is zero.
    pub fn start(config: ServerConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            cache: Mutex::new(ProblemCache::new(config.cache_capacity)),
            shard_policy: config.shards,
            backend: config.backend,
            jobs_completed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            jobs_sharded: AtomicU64::new(0),
            shard_width_max: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let handles: Vec<_> = (0..config.workers)
            .map(|i| spawn_worker(&shared, format!("msropm-worker-{i}")))
            .collect();
        *lock_unpoisoned(&shared.workers) = handles;
        let supervisor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("msropm-supervisor".into())
                .spawn(move || supervisor_loop(&shared))
                .expect("spawn supervisor thread")
        };
        JobServer {
            shared,
            supervisor: Some(supervisor),
        }
    }

    /// Enqueues `job` against `graph`, blocking while the queue is full
    /// (backpressure), and returns the completion ticket.
    ///
    /// # Errors
    ///
    /// [`ServerError::Closed`] if the server has been shut down.
    pub fn submit(&self, graph: Arc<Graph>, job: BatchJob) -> Result<JobTicket, ServerError> {
        let (tx, rx) = mpsc::channel();
        // The submitter may drop its ticket before the job ends; the
        // failed send is then nobody's concern.
        let hook = CompletionHook::new(move |completion| {
            let _ = tx.send(completion);
        });
        let status = Arc::new(JobStatusCell::new());
        let pending = PendingJob::new(graph, job, CancelToken::new(), status, None, hook);
        self.shared
            .queue
            .push(Envelope::new(pending))
            .map_err(|_| ServerError::Closed)?;
        Ok(JobTicket { rx })
    }

    /// Enqueues a hook-completed job without ever waiting for queue
    /// space, handing the job back tagged with why it could not be
    /// enqueued. The event loop parks `Full` jobs and retries when a
    /// completion frees capacity. The job's [`CompletionHook`] fires on
    /// the worker thread when the job reaches a terminal state.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::Full`] or [`TrySubmitError::Closed`], both
    /// carrying the job back intact (dropping it fires the hook with
    /// [`JobCompletion::WorkerDied`]).
    // The Err variant intentionally carries the whole job back — that
    // give-back is the API (park and retry); boxing it would just move
    // the allocation onto the submit hot path.
    #[allow(clippy::result_large_err)]
    pub fn try_submit_job(&self, pending: PendingJob) -> Result<(), TrySubmitError> {
        use queue::TryPushError;
        match self.shared.queue.try_push(Envelope::new(pending)) {
            Ok(()) => Ok(()),
            Err(TryPushError::Full(envelope)) => Err(TrySubmitError::Full(envelope.pending)),
            Err(TryPushError::Closed(envelope)) => Err(TrySubmitError::Closed(envelope.pending)),
        }
    }

    /// Jobs completed since boot (all workers).
    pub fn jobs_completed(&self) -> u64 {
        self.shared.jobs_completed.load(Ordering::Relaxed)
    }

    /// Jobs observed as cancelled by a worker since boot (at pickup or a
    /// stage boundary); none of them produced a report.
    pub fn jobs_cancelled(&self) -> u64 {
        self.shared.jobs_cancelled.load(Ordering::Relaxed)
    }

    /// Jobs that died without a report since boot: caught solve panics,
    /// expired deadlines, and worker thread deaths (the last counted by
    /// the session layer via `JobServer::count_failed_job`).
    pub fn jobs_failed(&self) -> u64 {
        self.shared.jobs_failed.load(Ordering::Relaxed)
    }

    /// Dead workers the supervisor has respawned since boot.
    pub fn worker_restarts(&self) -> u64 {
        self.shared.worker_restarts.load(Ordering::Relaxed)
    }

    /// Jobs that ran with more than one shard since boot (intra-job
    /// parallel solves; see [`ShardPolicy`]).
    pub fn jobs_sharded(&self) -> u64 {
        self.shared.jobs_sharded.load(Ordering::Relaxed)
    }

    /// The widest shard count any job has run with since boot (0 before
    /// the first pickup).
    pub fn shard_width_max(&self) -> u64 {
        self.shared.shard_width_max.load(Ordering::Relaxed)
    }

    /// Counts one failed job observed outside the worker loop — the
    /// session's completion hook calls this when a `WorkerDied` lands
    /// for a running job (the dead worker itself can't count it).
    pub(crate) fn count_failed_job(&self) {
        self.shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Problem-cache counters (hits/misses/evictions/collisions).
    pub fn cache_stats(&self) -> CacheStats {
        lock_unpoisoned(&self.shared.cache).stats()
    }

    /// Jobs currently waiting in the queue (excluding in-flight ones).
    pub fn backlog(&self) -> usize {
        self.shared.queue.len()
    }

    /// Graceful shutdown: stops admitting jobs, lets the backlog drain,
    /// joins every worker. Tickets for already-queued jobs still
    /// complete.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        // The supervisor observes the closed queue and exits within one
        // poll tick; joining it first guarantees no respawn races the
        // worker joins below.
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let current = thread::current().id();
        let handles: Vec<_> = lock_unpoisoned(&self.shared.workers).drain(..).collect();
        for handle in handles {
            // A worker thread can itself run this teardown: its
            // completion hook may hold the last strong reference to the
            // session owning this pool, making the worker the thread
            // that drops it. Joining itself would deadlock (EDEADLK) —
            // detach instead; the thread exits right after this drop.
            if handle.thread().id() == current {
                continue;
            }
            // A panicked worker already surfaced through its job's
            // ticket or hook; don't double-panic here.
            let _ = handle.join();
        }
    }
}

impl Drop for JobServer {
    /// Dropping the server performs the same graceful shutdown as
    /// [`JobServer::shutdown`].
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// One boot path for both codecs: a [`ServerConfig::builder`] chain
/// ending in [`FrontendBuilder::bind`]. Every knob (worker pool,
/// quotas, event-loop count, write-buffer cap, poll backend) applies to
/// whichever codec [`FrontendBuilder::frontend`] selects, so
/// `msropm_serve` parses flags once and both transports run on the one
/// event loop of [`reactor`].
///
/// ```no_run
/// use msropm_server::{proto::FrontendKind, ServerConfig, ShardPolicy};
///
/// let server = ServerConfig::builder()
///     .frontend(FrontendKind::Http)
///     .workers(4)
///     .shards(ShardPolicy::Auto)
///     .bind("127.0.0.1:0")?;
/// println!("serving on {}", server.local_addr());
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrontendBuilder {
    kind: proto::FrontendKind,
    config: reactor::ReactorConfig,
}

impl Default for FrontendBuilder {
    fn default() -> Self {
        FrontendBuilder {
            kind: proto::FrontendKind::Reactor,
            config: reactor::ReactorConfig::default(),
        }
    }
}

impl FrontendBuilder {
    /// Which codec [`FrontendBuilder::bind`] serves (default: the
    /// binary protocol, [`proto::FrontendKind::Reactor`]).
    pub fn frontend(mut self, kind: proto::FrontendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Worker threads in the backing pool.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.wire.server.workers = workers;
        self
    }

    /// Job-queue capacity of the backing pool.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.wire.server.queue_capacity = capacity;
        self
    }

    /// Compiled-problem cache slots.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.wire.server.cache_capacity = capacity;
        self
    }

    /// Intra-job lane-sharding policy.
    pub fn shards(mut self, policy: ShardPolicy) -> Self {
        self.config.wire.server.shards = policy;
        self
    }

    /// Force every job onto one kernel backend (see
    /// [`ServerConfig::backend`]).
    pub fn backend(mut self, backend: KernelBackend) -> Self {
        self.config.wire.server.backend = Some(backend);
        self
    }

    /// Per-tenant cap on jobs submitted and not yet terminal.
    pub fn max_inflight_jobs(mut self, cap: usize) -> Self {
        self.config.wire.max_inflight_jobs = cap;
        self
    }

    /// Per-tenant cap on the summed lane count of non-terminal jobs.
    pub fn max_queued_lanes(mut self, cap: usize) -> Self {
        self.config.wire.max_queued_lanes = cap;
        self
    }

    /// Cap on concurrently served connections.
    pub fn max_connections(mut self, cap: usize) -> Self {
        self.config.wire.max_connections = cap;
        self
    }

    /// Event-loop threads; accepted connections round-robin across
    /// them.
    pub fn loops(mut self, loops: usize) -> Self {
        self.config.loops = loops;
        self
    }

    /// Per-connection cap on buffered unsent bytes.
    pub fn max_write_buffer(mut self, cap: usize) -> Self {
        self.config.max_write_buffer = cap;
        self
    }

    /// Force the portable `poll(2)` backend instead of epoll.
    pub fn poll_backend(mut self, force: bool) -> Self {
        self.config.poll_backend = force;
        self
    }

    /// The full session/transport config the chain has accumulated.
    pub fn config(&self) -> &reactor::ReactorConfig {
        &self.config
    }

    /// Binds `addr` and boots the event loops with the selected codec.
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation failures.
    pub fn bind<A: std::net::ToSocketAddrs>(self, addr: A) -> std::io::Result<Frontend> {
        Frontend::bind(addr, self.kind, self.config)
    }
}

impl ServerConfig {
    /// Starts a [`FrontendBuilder`] chain — the one boot API every
    /// serving binary and test goes through.
    pub fn builder() -> FrontendBuilder {
        FrontendBuilder::default()
    }
}

fn spawn_worker(shared: &Arc<Shared>, name: String) -> thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(&shared))
        .expect("spawn worker thread")
}

/// Reaps dead workers and respawns them (rate-bounded), keeping the
/// pool at full strength through panicking jobs. A worker can only die
/// from a panic escaping the supervised solve region (its job then
/// surfaces as `WorkerDied` through the hook's `Drop`); the respawned
/// thread picks up the backlog with a fresh arena. Exits once the
/// queue closes — workers then finish naturally and are joined by
/// [`JobServer::shutdown`].
fn supervisor_loop(shared: &Arc<Shared>) {
    let mut recent_restarts: VecDeque<Instant> = VecDeque::new();
    let mut respawned = 0u64;
    while !shared.queue.is_closed() {
        thread::sleep(SUPERVISOR_POLL);
        let now = Instant::now();
        while recent_restarts
            .front()
            .is_some_and(|t| now.duration_since(*t) > RESTART_WINDOW)
        {
            recent_restarts.pop_front();
        }
        let mut workers = lock_unpoisoned(&shared.workers);
        let mut i = 0;
        while i < workers.len() {
            if !workers[i].is_finished() {
                i += 1;
                continue;
            }
            if recent_restarts.len() >= MAX_RESTARTS_PER_WINDOW {
                break; // storm-bounded: retry this one on a later tick
            }
            let dead = workers.swap_remove(i);
            let _ = dead.join(); // reap; the panic already surfaced via its job
            if shared.queue.is_closed() {
                continue; // shutting down: a natural exit, not a death
            }
            respawned += 1;
            workers.push(spawn_worker(shared, format!("msropm-worker-r{respawned}")));
            shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
            recent_restarts.push_back(Instant::now());
        }
    }
}

/// Best-effort stringification of a caught panic payload (`&str` and
/// `String` payloads cover `panic!`/`assert!`; anything else gets a
/// placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "solve panicked (non-string payload)".to_string()
    }
}

fn worker_loop(shared: &Shared) {
    let mut arena = ShardedArena::new();
    while let Some(Envelope {
        pending,
        submitted_at,
    }) = shared.queue.pop()
    {
        let PendingJob {
            graph,
            mut job,
            problem_fingerprint,
            cancel,
            status,
            deadline,
            hook,
        } = pending;
        // Deployment-wide backend override, applied before the job's
        // config is used anywhere: the problem-cache key is derived
        // from the (overridden) config, so an f64 submission against a
        // `--backend fixed` server resolves to the fixed-point machine,
        // never a stale float compile.
        if let Some(backend) = shared.backend {
            job.force_backend(backend);
        }
        // Cancellation observed at pickup: skip all work. (Stage-boundary
        // checks inside the supervised run below cover mid-run cancels.)
        if cancel.is_cancelled() {
            status.set(JobState::Cancelled);
            shared.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            faultinject::maybe_delay_completion();
            hook.fire(JobCompletion::Cancelled);
            continue;
        }
        // Queue-wait deadline: a job that expired before pickup is shed
        // without compiling or solving anything.
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            status.set(JobState::Failed);
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            faultinject::maybe_delay_completion();
            hook.fire(JobCompletion::DeadlineExceeded);
            continue;
        }
        status.set(JobState::Running);
        // Chaos hook: fires OUTSIDE the catch_unwind region, so the
        // panic kills this thread mid-job — the hook drops during
        // unwind and fires `WorkerDied`, and the supervisor
        // respawns the worker. (Never fires unless a test armed it.)
        faultinject::maybe_kill_worker();
        // Shard width is decided at pickup from the policy and the
        // *current* backlog: a queue that piled up while this worker was
        // busy narrows the next job toward plain cross-job concurrency.
        let shards = shared
            .shard_policy
            .width(job.lanes.len(), shared.queue.len());
        if shards > 1 {
            shared.jobs_sharded.fetch_add(1, Ordering::Relaxed);
        }
        shared
            .shard_width_max
            .fetch_max(shards as u64, Ordering::Relaxed);
        let started_at = Instant::now();
        // The entire cache-lookup/compile/solve region is supervised:
        // a panicking solve (bad job, solver bug, injected fault)
        // becomes a typed `Failed` outcome and the worker lives on.
        // `AssertUnwindSafe` is sound here: on a caught panic the arena
        // is discarded and rebuilt, the cache's mutations are
        // complete-or-absent map operations (and its lock recovers from
        // poison), and the completion hook stays outside the closure.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            faultinject::maybe_panic_in_solve();
            // Double-checked caching: only the (cheap, verified) lookup
            // and the insert run under the lock. A miss compiles
            // *unlocked*, so a cold burst never serializes the pool on
            // one worker's compilation; if two workers race the same
            // problem, `intern` keeps the first resident copy
            // (compilations are bit-identical, so which one wins is
            // unobservable).
            let machine = {
                let mut cache = lock_unpoisoned(&shared.cache);
                cache.lookup_problem(&graph, &job.config, problem_fingerprint)
            };
            let machine = machine.unwrap_or_else(|| {
                let compiled = Arc::new(msropm_core::Msropm::new(&graph, job.config));
                let mut cache = lock_unpoisoned(&shared.cache);
                cache.intern_problem(compiled, problem_fingerprint)
            });
            // Solve outside the cache lock too: workers never serialize
            // on each other's integrations. The abort check combines
            // cancellation with the job's deadline — both land at stage
            // boundaries only (cross-shard joins on the sharded path),
            // so completed runs stay bit-identical at any width.
            job.run(
                &machine,
                SolveOptions::new()
                    .sharded(shards, &mut arena, msropm_core::pool::global())
                    .cancel(&cancel)
                    .abort_when(|| deadline.is_some_and(|deadline| Instant::now() >= deadline)),
            )
        }));
        let completion = match result {
            Err(payload) => {
                // The arena may hold a half-written solve (and a shard
                // panic drops its in-flight arenas); rebuild so the next
                // job starts from clean scratch state.
                arena = ShardedArena::new();
                status.set(JobState::Failed);
                shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
                JobCompletion::Failed {
                    message: panic_message(payload.as_ref()),
                }
            }
            Ok(None) if cancel.is_cancelled() => {
                // Cancelled at a stage boundary: the run was abandoned
                // and no report exists (nor ever will for this job).
                status.set(JobState::Cancelled);
                shared.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                JobCompletion::Cancelled
            }
            Ok(None) => {
                // Not cancelled, so the abort closure fired on the
                // deadline: abandoned at a stage boundary.
                status.set(JobState::Failed);
                shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
                JobCompletion::DeadlineExceeded
            }
            Ok(Some(report)) => {
                let finished_at = Instant::now();
                shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
                status.set(JobState::Done);
                JobCompletion::Done(JobOutcome {
                    report,
                    timing: JobTiming {
                        queued: started_at - submitted_at,
                        service: finished_at - started_at,
                    },
                })
            }
        };
        faultinject::maybe_delay_completion();
        hook.fire(completion);
    }
}
