//! Transport-agnostic session logic behind the serving event loop.
//!
//! Both codecs of [`crate::reactor`] — binary frames and HTTP/1.1 +
//! JSON — decode their requests into [`Request`]s and answer them
//! through one [`SessionCore`]: per-tenant quota accounting, the job
//! registry (id → status cell + cancel token), admission,
//! terminal-state bookkeeping, and graceful drain. The codecs therefore
//! **cannot** drift apart on quota or lifecycle behaviour: the
//! byte-identical-reports property test across codecs leans on this
//! sharing.
//!
//! # Completion flow
//!
//! Submission is hook-based ([`crate::CompletionHook`]): the worker
//! thread that finishes a job runs the session's completion hook, which
//! **first** releases the tenant's quota slot (so a client resubmitting
//! the instant its report arrives always fits), then encodes the
//! terminal frame once, and hands it to the codec's `deliver` callback
//! — an inbox push + [`polling::Poller::notify`] for a binary
//! connection, a job-id-keyed store for HTTP polls. No per-job waiter
//! thread exists anywhere.
//!
//! # Drain
//!
//! [`SessionCore::begin_drain`] flips the draining flag: new submits
//! are rejected with the typed [`ErrorCode::Draining`] **before**
//! admission, on whatever connections are still attached.
//! [`SessionCore::await_drained`] then blocks until every admitted job
//! has reached a terminal state and its `deliver` callback has
//! returned — at which point every terminal frame has been handed to
//! its transport.

use crate::proto::{
    self, ErrorCode, FrontendKind, Request, Response, WireProblemReport, WireReport, WireStats,
};
use crate::stats::Registry as StatsRegistry;
use crate::{
    lock_unpoisoned, CompletionHook, JobCompletion, JobServer, JobState, JobStatusCell, PendingJob,
    ServerConfig, TrySubmitError,
};
use msropm_core::{BatchJob, CancelToken};
use msropm_graph::Graph;
use msropm_problems::Decoder;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Session sizing and policy knobs, shared by both codecs.
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// The backing job-server pool (workers, queue, cache).
    pub server: ServerConfig,
    /// Per-tenant cap on jobs submitted and not yet terminal.
    pub max_inflight_jobs: usize,
    /// Per-tenant cap on the summed lane count of non-terminal jobs.
    pub max_queued_lanes: usize,
    /// Cap on concurrently served connections; excess connects receive
    /// a `busy` error frame and are closed.
    pub max_connections: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            server: ServerConfig::default(),
            max_inflight_jobs: 16,
            max_queued_lanes: 1024,
            max_connections: 64,
        }
    }
}

/// Per-tenant admission counters (covering non-terminal jobs only).
#[derive(Debug, Default, Clone, Copy)]
struct TenantUsage {
    inflight: usize,
    queued_lanes: usize,
}

/// Registry entry for one submitted job; lives past the terminal state
/// so late `status` queries still resolve.
struct JobEntry {
    tenant: String,
    lanes: usize,
    status: Arc<JobStatusCell>,
    cancel: CancelToken,
}

/// Terminal jobs retained for late `status` queries before the oldest
/// are evicted (a bounded memory footprint for a long-lived daemon; an
/// evicted id answers `UnknownJob`).
const TERMINAL_JOBS_RETAINED: usize = 4096;

#[derive(Default)]
struct Registry {
    next_job_id: u64,
    jobs: HashMap<u64, JobEntry>,
    tenants: HashMap<String, TenantUsage>,
    /// Terminal job ids in completion order, oldest first (the eviction
    /// queue bounding `jobs`).
    terminal_order: std::collections::VecDeque<u64>,
    /// Jobs whose terminal frame has not yet been delivered (drain
    /// waits for this to hit zero).
    active_jobs: usize,
}

/// Delivers one finished job to its codec: called with the job id and
/// the encoded terminal frame — a report for completed jobs, a
/// [`Response::JobFailed`] for failed/deadline-exceeded ones, `None`
/// for cancelled jobs (nothing is streamed). Runs on the worker
/// thread, after the quota slot has been released.
pub type DeliverFn = Box<dyn FnOnce(u64, Option<Vec<u8>>) + Send>;

/// What a submit decided; see [`SessionCore::submit`].
pub enum SubmitDisposition {
    /// Send this reply; the submit is fully handled.
    Reply(Response),
    /// The job was admitted (send the reply now) but the worker queue
    /// was full: enqueue later via [`SessionCore::retry_parked`].
    Parked(ParkedSubmit, Response),
}

/// An admitted job waiting for worker-queue space (its `Submitted`
/// reply is already on the wire; `status` answers `queued`).
pub struct ParkedSubmit {
    pending: PendingJob,
    /// The job id assigned at admission.
    pub job_id: u64,
}

/// One admission-ready job: the encoding graph, the batch job, and —
/// for compiled problems — the fingerprint scoping its cache slot plus
/// the decoder that turns its report into a typed
/// [`Response::ProblemReport`].
struct Admission {
    tenant: String,
    graph: Graph,
    job: BatchJob,
    problem_fingerprint: u64,
    decoder: Option<Decoder>,
    deadline_ms: u64,
}

impl Admission {
    /// Turns a submit request into an admission-ready job. A problem
    /// spec the compiler rejects answers with
    /// [`ErrorCode::UnsupportedProblem`] (request-scoped: the
    /// connection stays usable).
    fn from_request(req: Request) -> Result<Admission, Response> {
        match req {
            Request::Submit {
                tenant,
                graph,
                job,
                deadline_ms,
            } => Ok(Admission {
                tenant,
                graph,
                job,
                problem_fingerprint: 0,
                decoder: None,
                deadline_ms,
            }),
            Request::SubmitProblem {
                tenant,
                spec,
                config,
                replicas,
                seed,
                deadline_ms,
            } => {
                let compiled =
                    spec.compile(&config, replicas as usize)
                        .map_err(|e| Response::Error {
                            code: ErrorCode::UnsupportedProblem,
                            message: e.to_string(),
                        })?;
                Ok(Admission {
                    tenant,
                    graph: compiled.graph,
                    job: BatchJob {
                        config: compiled.config,
                        lanes: compiled.lanes,
                        seed,
                    },
                    problem_fingerprint: compiled.fingerprint,
                    decoder: Some(compiled.decoder),
                    deadline_ms,
                })
            }
            _ => Err(Response::Error {
                code: ErrorCode::UnsupportedVerb,
                message: "not a submit request".into(),
            }),
        }
    }
}

/// The shared session state; see the module docs.
pub struct SessionCore {
    jobs: JobServer,
    config: WireConfig,
    frontend: FrontendKind,
    registry: Mutex<Registry>,
    /// Signalled whenever a job reaches a terminal state.
    drained: Condvar,
    draining: AtomicBool,
    live_connections: AtomicUsize,
    reports_streamed: AtomicU64,
}

impl SessionCore {
    /// Boots the backing worker pool and an empty registry.
    pub fn new(config: WireConfig, frontend: FrontendKind) -> Arc<SessionCore> {
        Arc::new(SessionCore {
            jobs: JobServer::start(config.server),
            config,
            frontend,
            registry: Mutex::new(Registry::default()),
            drained: Condvar::new(),
            draining: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
            reports_streamed: AtomicU64::new(0),
        })
    }

    /// Records a newly served connection.
    pub fn connection_opened(&self) {
        self.live_connections.fetch_add(1, Ordering::AcqRel);
    }

    /// Records a closed connection.
    pub fn connection_closed(&self) {
        self.live_connections.fetch_sub(1, Ordering::AcqRel);
    }

    /// Connections currently served.
    pub fn live_connections(&self) -> usize {
        self.live_connections.load(Ordering::Acquire)
    }

    /// `true` when another connection would exceed the configured cap.
    pub fn at_connection_cap(&self) -> bool {
        self.live_connections() >= self.config.max_connections
    }

    /// Counts a report frame actually handed to a connection writer.
    pub fn note_report_streamed(&self) {
        self.reports_streamed.fetch_add(1, Ordering::Relaxed);
    }

    /// Report frames actually handed to a connection writer.
    pub fn reports_streamed(&self) -> u64 {
        self.reports_streamed.load(Ordering::Relaxed)
    }

    /// `true` once [`SessionCore::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Starts rejecting new submits with [`ErrorCode::Draining`];
    /// in-flight jobs keep running.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Blocks until every admitted job has reached a terminal state and
    /// its terminal frame has been delivered (all completion hooks have
    /// run).
    pub fn await_drained(&self) {
        let mut reg = lock_unpoisoned(&self.registry);
        while reg.active_jobs > 0 {
            reg = self
                .drained
                .wait(reg)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The one place the stats counters are snapshotted (in
    /// [`crate::stats::SCHEMA`] order). Every stats surface — the
    /// binary `stats` verb, the HTTP gateway's `/v1/stats` and
    /// `/metrics` — renders from this registry.
    pub fn stats_registry(&self) -> StatsRegistry {
        let cache = self.jobs.cache_stats();
        StatsRegistry::new(
            [
                self.jobs.jobs_completed(),
                self.jobs.jobs_cancelled(),
                self.jobs.jobs_failed(),
                self.jobs.worker_restarts(),
                self.jobs.backlog() as u64,
                cache.hits,
                cache.misses,
                self.live_connections() as u64,
                self.jobs.jobs_sharded(),
                self.jobs.shard_width_max(),
            ],
            self.frontend,
        )
    }

    /// [`SessionCore::stats_registry`] projected onto the binary frame's
    /// struct (the `stats` verb and [`crate::Frontend::stats`]).
    pub fn wire_stats(&self) -> WireStats {
        self.stats_registry().to_wire()
    }

    /// Answers the control verbs (`status`/`cancel`/`stats`) — `None`
    /// for the submits, which must go through [`SessionCore::submit`].
    pub fn handle_control(&self, req: &Request) -> Option<Response> {
        match req {
            Request::Submit { .. } | Request::SubmitProblem { .. } => None,
            Request::Status { tenant, job_id } => {
                Some(
                    self.job_entry_reply(tenant, *job_id, |entry, job_id| Response::StatusReply {
                        job_id,
                        state: entry.status.get(),
                    }),
                )
            }
            Request::Cancel { tenant, job_id } => {
                Some(self.job_entry_reply(tenant, *job_id, |entry, job_id| {
                    // Cooperative: flips the token; the worker observes
                    // it at pickup or the next stage boundary. Already
                    // terminal jobs are unaffected (cancel is a no-op).
                    entry.cancel.cancel();
                    Response::CancelReply {
                        job_id,
                        state: entry.status.get(),
                    }
                }))
            }
            Request::Stats => Some(Response::StatsReply(self.wire_stats())),
        }
    }

    /// Shared ownership/existence checks of the per-job verbs.
    fn job_entry_reply(
        &self,
        tenant: &str,
        job_id: u64,
        reply: impl FnOnce(&JobEntry, u64) -> Response,
    ) -> Response {
        let reg = lock_unpoisoned(&self.registry);
        match reg.jobs.get(&job_id) {
            None => Response::Error {
                code: ErrorCode::UnknownJob,
                message: format!("no job {job_id}"),
            },
            Some(entry) if entry.tenant != tenant => Response::Error {
                code: ErrorCode::Forbidden,
                message: format!("job {job_id} belongs to another tenant"),
            },
            Some(entry) => reply(entry, job_id),
        }
    }

    /// Admits a `Submit` or `SubmitProblem` request without ever
    /// blocking the caller. A problem spec is compiled first (an
    /// unsupported one answers [`ErrorCode::UnsupportedProblem`]
    /// without touching quotas) and its terminal frame is a decoded
    /// [`Response::ProblemReport`]. A full worker queue parks the
    /// (already admitted) job — the reply is still `Submitted`, and
    /// `status` answers `queued` until a worker picks it up.
    pub fn submit(self: &Arc<Self>, req: Request, deliver: DeliverFn) -> SubmitDisposition {
        let admitted = Admission::from_request(req).and_then(|a| self.admit(a, deliver));
        let (job_id, pending) = match admitted {
            Ok(admitted) => admitted,
            Err(reject) => return SubmitDisposition::Reply(reject),
        };
        match self.jobs.try_submit_job(pending) {
            Ok(()) => SubmitDisposition::Reply(Response::Submitted { job_id }),
            Err(TrySubmitError::Full(pending)) => SubmitDisposition::Parked(
                ParkedSubmit { pending, job_id },
                Response::Submitted { job_id },
            ),
            Err(TrySubmitError::Closed(pending)) => {
                // Queue closed under us: dropping the job fires its
                // hook (worker-died), which marks it failed and
                // releases the quota slot.
                drop(pending);
                SubmitDisposition::Reply(Response::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "job queue closed".into(),
                })
            }
        }
    }

    /// Retries a parked submit; gives it back while the queue is still
    /// full. A closed queue consumes the job (its hook marks it failed).
    pub fn retry_parked(&self, parked: ParkedSubmit) -> Option<ParkedSubmit> {
        let job_id = parked.job_id;
        match self.jobs.try_submit_job(parked.pending) {
            Ok(()) => None,
            Err(TrySubmitError::Full(pending)) => Some(ParkedSubmit { pending, job_id }),
            Err(TrySubmitError::Closed(pending)) => {
                drop(pending);
                None
            }
        }
    }

    /// Admission control: drain check, quota check, registration — all
    /// under the registry lock, *before* enqueueing, so a cancel/status
    /// for the returned id can never miss. On success the job is
    /// bundled with its session completion hook. A nonzero
    /// `deadline_ms` becomes an absolute deadline clocked from
    /// admission — queue wait counts against it.
    fn admit(
        self: &Arc<Self>,
        admission: Admission,
        deliver: DeliverFn,
    ) -> Result<(u64, PendingJob), Response> {
        let Admission {
            tenant,
            graph,
            job,
            problem_fingerprint,
            decoder,
            deadline_ms,
        } = admission;
        if self.is_draining() {
            return Err(Response::Error {
                code: ErrorCode::Draining,
                message: "server is draining; resubmit elsewhere".into(),
            });
        }
        let lanes = job.lanes.len();
        let cancel = CancelToken::new();
        let status = Arc::new(JobStatusCell::new());
        let deadline =
            (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
        let job_id = {
            let mut reg = lock_unpoisoned(&self.registry);
            // Read-only quota check first: a rejected submit must not
            // leave a tenant entry behind (a peer cycling random tenant
            // ids would otherwise grow the map forever).
            let usage = reg.tenants.get(&tenant).copied().unwrap_or_default();
            if usage.inflight + 1 > self.config.max_inflight_jobs {
                return Err(Response::Error {
                    code: ErrorCode::QuotaInFlight,
                    message: format!(
                        "tenant {tenant:?} at in-flight cap ({})",
                        self.config.max_inflight_jobs
                    ),
                });
            }
            if usage.queued_lanes + lanes > self.config.max_queued_lanes {
                return Err(Response::Error {
                    code: ErrorCode::QuotaLanes,
                    message: format!(
                        "tenant {tenant:?} would exceed queued-lane cap ({})",
                        self.config.max_queued_lanes
                    ),
                });
            }
            let usage = reg.tenants.entry(tenant.clone()).or_default();
            usage.inflight += 1;
            usage.queued_lanes += lanes;
            reg.active_jobs += 1;
            reg.next_job_id += 1;
            let job_id = reg.next_job_id;
            reg.jobs.insert(
                job_id,
                JobEntry {
                    tenant,
                    lanes,
                    status: Arc::clone(&status),
                    cancel: cancel.clone(),
                },
            );
            job_id
        };
        let hook = self.completion_hook(job_id, decoder, deliver);
        Ok((
            job_id,
            PendingJob::new(Arc::new(graph), job, cancel, status, deadline, hook)
                .with_problem_fingerprint(problem_fingerprint),
        ))
    }

    /// Builds the hook a worker fires when `job_id` reaches a terminal
    /// state: release the quota slot **before** streaming (a tenant
    /// that resubmits the moment its report arrives must fit), encode
    /// the terminal frame once — a report for `Done`, a typed
    /// [`Response::JobFailed`] for failures — then hand it to the
    /// codec's deliver callback. Every admitted job thus reaches
    /// the client as exactly one terminal frame, except cancelled jobs
    /// (the `CancelReply` already told the client) and jobs whose
    /// submit reply itself carried the error. Holds only a weak
    /// self-reference — hooks sit inside queued envelopes, and a strong
    /// one would cycle `SessionCore → JobServer → queue → hook →
    /// SessionCore`.
    fn completion_hook(
        self: &Arc<Self>,
        job_id: u64,
        decoder: Option<Decoder>,
        deliver: DeliverFn,
    ) -> CompletionHook {
        let weak: Weak<SessionCore> = Arc::downgrade(self);
        CompletionHook::new(move |completion| {
            let Some(core) = weak.upgrade() else {
                return;
            };
            let job_failed_frame = |code, message: &str| {
                Some(proto::encode_response(&Response::JobFailed {
                    job_id,
                    code,
                    message: message.into(),
                }))
            };
            let frame = match completion {
                JobCompletion::Done(outcome) => {
                    core.finalize(job_id);
                    // A problem submission decodes the ranked phase
                    // readout back into its typed domain solution; a
                    // plain graph submission streams the raw report.
                    // The worker stamped the service time before the
                    // decode, so the decode is timed here and added.
                    Some(match &decoder {
                        Some(decoder) => {
                            let decode_start = Instant::now();
                            let report = decoder.decode_report(&outcome.report);
                            let service = outcome.timing.service + decode_start.elapsed();
                            proto::encode_response(&Response::ProblemReport(WireProblemReport {
                                job_id,
                                queued_us: outcome.timing.queued.as_micros() as u64,
                                service_us: service.as_micros() as u64,
                                report,
                            }))
                        }
                        None => {
                            let report = WireReport::from_outcome(job_id, &outcome);
                            proto::encode_response(&Response::Report(report))
                        }
                    })
                }
                JobCompletion::Cancelled => {
                    // No report exists for a cancelled job, and none is
                    // ever streamed.
                    core.finalize(job_id);
                    None
                }
                JobCompletion::Failed { message } => {
                    // A panicking solve, caught by the worker: the
                    // client gets the panic message under a typed code.
                    core.fail(job_id);
                    core.finalize(job_id);
                    job_failed_frame(ErrorCode::Internal, &message)
                }
                JobCompletion::DeadlineExceeded => {
                    core.fail(job_id);
                    core.finalize(job_id);
                    job_failed_frame(ErrorCode::DeadlineExceeded, "job deadline exceeded")
                }
                JobCompletion::WorkerDied => {
                    // Fired from the hook's Drop. Two distinct paths
                    // land here: a worker thread dying mid-job (stream
                    // a typed failure, count it), and an envelope
                    // dropped before pickup — queue closed at submit —
                    // whose submit reply already carried the error
                    // (stream nothing).
                    let was_running = core.fail(job_id) == Some(JobState::Running);
                    core.finalize(job_id);
                    if was_running {
                        core.jobs.count_failed_job();
                        job_failed_frame(ErrorCode::Internal, "worker died")
                    } else {
                        None
                    }
                }
            };
            deliver(job_id, frame);
            core.settle();
        })
    }

    /// Marks `job_id` failed, returning the state it was in (`None` for
    /// an already-evicted entry).
    fn fail(&self, job_id: u64) -> Option<JobState> {
        let reg = lock_unpoisoned(&self.registry);
        reg.jobs
            .get(&job_id)
            .map(|entry| entry.status.swap(JobState::Failed))
    }

    /// Releases a job's quota reservation once it is terminal. The
    /// registry entry is retained so late status
    /// queries resolve, but only the newest [`TERMINAL_JOBS_RETAINED`]
    /// terminal jobs — older ones are evicted (status then answers
    /// `UnknownJob`), keeping a long-lived daemon's footprint bounded.
    fn finalize(&self, job_id: u64) {
        let mut reg = lock_unpoisoned(&self.registry);
        let Some(entry) = reg.jobs.get(&job_id) else {
            return;
        };
        let tenant = entry.tenant.clone();
        let lanes = entry.lanes;
        if let Some(usage) = reg.tenants.get_mut(&tenant) {
            usage.inflight = usage.inflight.saturating_sub(1);
            usage.queued_lanes = usage.queued_lanes.saturating_sub(lanes);
            // Idle tenants drop out of the map entirely; quotas are
            // purely about current usage, so an empty entry carries no
            // state.
            if usage.inflight == 0 && usage.queued_lanes == 0 {
                reg.tenants.remove(&tenant);
            }
        }
        reg.terminal_order.push_back(job_id);
        while reg.terminal_order.len() > TERMINAL_JOBS_RETAINED {
            if let Some(evict) = reg.terminal_order.pop_front() {
                reg.jobs.remove(&evict);
            }
        }
    }

    /// Counts one job's terminal frame as delivered and wakes the drain
    /// waiter.
    fn settle(&self) {
        let mut reg = lock_unpoisoned(&self.registry);
        reg.active_jobs = reg.active_jobs.saturating_sub(1);
        drop(reg);
        self.drained.notify_all();
    }
}
