//! # msropm-client — blocking TCP client for the MSROPM job protocol
//!
//! Speaks the framed protocol of [`msropm_server::proto`] against a
//! [`msropm_server::Frontend`] serving the binary codec: submit batch
//! jobs, poll status, request cooperative cancellation, fetch server
//! stats, and receive the **streamed** report frames of completed
//! jobs.
//!
//! The client is synchronous and single-connection. Each verb method
//! sends one request and blocks for its reply; report frames (which the
//! server pushes whenever a job completes, possibly interleaved with
//! verb replies) are stashed internally and redeemed with
//! [`Client::wait_report`]. Submitting many jobs and collecting their
//! reports later therefore pipelines naturally over one socket:
//!
//! ```no_run
//! use msropm_client::{Client, SubmitOptions};
//! use msropm_core::{BatchJob, MsropmConfig};
//! use msropm_graph::generators;
//!
//! let mut client = Client::connect("127.0.0.1:7227", "acme")?;
//! let graph = generators::kings_graph(7, 7);
//! let job = BatchJob::uniform(MsropmConfig::paper_default(), 8, 42);
//! let job_id = client
//!     .submit_with(&graph, &job, &SubmitOptions::new())?
//!     .expect("blocking submit yields a job id");
//! let report = client.wait_report(job_id)?;
//! println!("best lane: {} conflicts", report.best().unwrap().conflicts);
//! # Ok::<(), msropm_client::ClientError>(())
//! ```
//!
//! Beyond raw graph jobs, [`Client::submit_problem`] ships a typed
//! [`ProblemSpec`] — coloring, max-cut, max-k-cut, MIS, vertex cover,
//! number partitioning, CNF-SAT, QUBO or Ising — which the server
//! compiles onto the machine and answers with a decoded, domain-ranked
//! [`WireProblemReport`]:
//!
//! ```no_run
//! use msropm_client::{Client, SubmitOptions};
//! use msropm_core::MsropmConfig;
//! use msropm_graph::generators;
//! use msropm_problems::ProblemSpec;
//!
//! let mut client = Client::connect("127.0.0.1:7227", "acme")?;
//! let spec = ProblemSpec::Mis {
//!     graph: generators::kings_graph(5, 5),
//! };
//! let job_id = client
//!     .submit_problem(&spec, &MsropmConfig::paper_default(), 4, 42, &SubmitOptions::new())?
//!     .expect("blocking submit yields a job id");
//! let report = client.wait_problem_report(job_id)?;
//! let best = report.best().expect("replicas > 0");
//! println!("independent set of size {}", best.objective);
//! # Ok::<(), msropm_client::ClientError>(())
//! ```
//!
//! Reports are **bit-exact**: `f64` fields travel as IEEE bit patterns,
//! and the report's `graph_hash` lets a client verify it is looking at
//! the topology it submitted (`msropm_graph::graph_hash`). Colorings
//! can be re-verified locally with [`msropm_server::proto::verify_lane`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;

use msropm_core::{BatchJob, MsropmConfig};
use msropm_graph::Graph;
use msropm_problems::ProblemSpec;
use msropm_server::proto::{
    self, ErrorCode, ProtoError, Request, Response, WireProblemReport, WireReport, WireStats,
};
use msropm_server::JobState;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(io::Error),
    /// The server sent bytes that do not decode.
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Server {
        /// The protocol error code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered a verb with a frame of the wrong type.
    UnexpectedFrame(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            ClientError::UnexpectedFrame(what) => {
                write!(f, "unexpected frame while waiting for {what}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(io_err) => ClientError::Io(io_err),
            other => ClientError::Proto(other),
        }
    }
}

/// `true` when retrying the same operation against the same (or a
/// restarted) server can plausibly succeed: transport-level connection
/// failures and the typed [`ErrorCode::Busy`] rejection. Quota errors,
/// deadline expiries, and protocol desyncs are **not** retryable as-is
/// — the same request would fail the same way.
pub fn is_retryable(err: &ClientError) -> bool {
    match err {
        ClientError::Io(e) => matches!(
            e.kind(),
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::TimedOut
                | io::ErrorKind::UnexpectedEof
                | io::ErrorKind::NotConnected
                | io::ErrorKind::AddrNotAvailable
        ),
        ClientError::Server { code, .. } => *code == ErrorCode::Busy,
        _ => false,
    }
}

/// Reconnect policy for [`ConnectOptions::retry`]: exponential
/// backoff (`base_delay * 2^attempt`, capped at `max_delay`) with
/// uniform jitter in the upper half of each delay, so a fleet of
/// clients retrying against a restarting server does not stampede it
/// in lockstep.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 means a single try).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// 5 retries, 50 ms base, 2 s ceiling — under a second and a half
    /// of total backoff, enough to ride out a supervisor respawn or a
    /// momentary connection-cap spike.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry `attempt` (0-based).
    fn delay_for(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        let capped = exp.min(self.max_delay).max(Duration::from_millis(1));
        // Uniform in [capped/2, capped]: full-jitter halves thundering
        // herds while keeping the exponential envelope intact.
        let nanos = capped.as_nanos() as u64;
        let jittered = nanos / 2 + splitmix64(rng) % (nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }
}

/// SplitMix64 step — a tiny, dependency-free PRNG for retry jitter
/// (crypto-strength randomness is pointless here).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a connect should behave, for [`Client::connect_with`]: an
/// optional per-address connect timeout, Nagle control, a liveness
/// probe, and a [`RetryPolicy`] for retryable failures — one builder
/// behind every connect, the same way [`SubmitOptions`] unified the
/// submit quartet ([`Client::connect`] is the default-options
/// shorthand).
///
/// ```no_run
/// use msropm_client::{Client, ConnectOptions, RetryPolicy};
/// use std::time::Duration;
///
/// let options = ConnectOptions::new()
///     .connect_timeout(Duration::from_secs(2))
///     .retry(RetryPolicy::default());
/// let client = Client::connect_with("127.0.0.1:7227", "acme", &options)?;
/// # Ok::<(), msropm_client::ClientError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    connect_timeout: Option<Duration>,
    nodelay: bool,
    probe: bool,
    retry: Option<RetryPolicy>,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            connect_timeout: None,
            nodelay: true,
            probe: false,
            retry: None,
        }
    }
}

impl ConnectOptions {
    /// Default options: OS-default connect timeout, `TCP_NODELAY` on,
    /// no probe, no retry — exactly what [`Client::connect`] does.
    pub fn new() -> ConnectOptions {
        ConnectOptions::default()
    }

    /// Bound each address's TCP connect attempt to `dur` instead of
    /// the OS default (which can run to minutes against a silently
    /// dropping host). When the address resolves to several socket
    /// addresses, each gets its own budget.
    pub fn connect_timeout(mut self, dur: Duration) -> ConnectOptions {
        self.connect_timeout = Some(dur);
        self
    }

    /// Whether to set `TCP_NODELAY` (default `true`: the protocol is
    /// request/reply, so Nagle only adds latency).
    pub fn nodelay(mut self, on: bool) -> ConnectOptions {
        self.nodelay = on;
        self
    }

    /// Probe each connection with a `stats` round-trip before handing
    /// it out, so a server that accepts the socket and then closes it
    /// (connection cap, or still booting) fails the connect — where a
    /// retry policy can act on it — rather than the first real verb.
    pub fn probe(mut self, on: bool) -> ConnectOptions {
        self.probe = on;
        self
    }

    /// Retry retryable failures ([`is_retryable`] — connection
    /// failures and the typed `Busy` rejection) up to
    /// `policy.max_retries` times under jittered exponential backoff.
    /// Also turns the [`ConnectOptions::probe`] on: an unprobed
    /// connect cannot distinguish an accept-then-close server from a
    /// healthy one, which is most of what the retry is for.
    pub fn retry(mut self, policy: RetryPolicy) -> ConnectOptions {
        self.retry = Some(policy);
        self.probe = true;
        self
    }
}

/// How a submit should behave, for [`Client::submit_with`] and
/// [`Client::submit_problem`]: an optional server-side deadline,
/// multiplexed (`nowait`) submission, and a retry policy for the
/// server's load-shedding `Busy` rejection. One builder replaces the
/// former `submit` / `submit_deadline` / `submit_nowait` /
/// `submit_nowait_deadline` quartet.
///
/// ```no_run
/// use msropm_client::{Client, RetryPolicy, SubmitOptions};
/// # use msropm_core::{BatchJob, MsropmConfig};
/// # use msropm_graph::generators;
/// # let mut client = Client::connect("127.0.0.1:7227", "acme")?;
/// # let graph = generators::kings_graph(5, 5);
/// # let job = BatchJob::uniform(MsropmConfig::paper_default(), 4, 7);
/// let options = SubmitOptions::new()
///     .deadline_ms(5_000)
///     .retry(RetryPolicy::default());
/// let job_id = client.submit_with(&graph, &job, &options)?.expect("blocking");
/// # Ok::<(), msropm_client::ClientError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    deadline_ms: u64,
    nowait: bool,
    retry: Option<RetryPolicy>,
}

impl SubmitOptions {
    /// Default options: blocking submit, no deadline, no retry.
    pub fn new() -> SubmitOptions {
        SubmitOptions::default()
    }

    /// Server-side deadline: the job must produce its report within
    /// `ms` milliseconds of admission (queue wait included) or the
    /// server abandons it at the next stage boundary and streams a
    /// typed `DeadlineExceeded` failure. `0` means no deadline.
    pub fn deadline_ms(mut self, ms: u64) -> SubmitOptions {
        self.deadline_ms = ms;
        self
    }

    /// Multiplexed submit: write the frame and return without waiting
    /// for the reply, so many submits ride one socket back to back.
    /// Collect replies in submission order with
    /// [`Client::recv_submitted`].
    pub fn nowait(mut self) -> SubmitOptions {
        self.nowait = true;
        self
    }

    /// Retry the submit under `policy`'s jittered exponential backoff
    /// when the server answers with the retryable
    /// [`ErrorCode::Busy`] rejection (queue full). Transport errors are
    /// **not** retried — this client is single-connection, so a dead
    /// socket cannot be resubmitted on; reconnect via
    /// [`Client::connect_with`] under [`ConnectOptions::retry`]
    /// instead. Ignored for `nowait`
    /// submits (their replies are not observed here).
    pub fn retry(mut self, policy: RetryPolicy) -> SubmitOptions {
        self.retry = Some(policy);
        self
    }
}

/// One tenant's blocking connection to a wire server; see the crate
/// docs.
pub struct Client {
    tenant: String,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    stash: VecDeque<WireReport>,
    /// Decoded problem reports (for jobs submitted via
    /// [`Client::submit_problem`]) received while waiting on other
    /// replies; redeemed by [`Client::wait_problem_report`].
    problem_stash: VecDeque<WireProblemReport>,
    /// Typed per-job failure frames (`JobFailed`) received while
    /// waiting on other replies, keyed by job id; redeemed as
    /// [`ClientError::Server`] by the report-waiting verbs.
    failed: HashMap<u64, (ErrorCode, String)>,
    /// Submits written by [`SubmitOptions::nowait`] whose replies have
    /// not yet been read off the socket.
    pending_submits: usize,
    /// Replies to [`SubmitOptions::nowait`] frames that another verb
    /// had to read past (the server answers requests strictly in order
    /// per connection, so a blocking verb first drains every
    /// outstanding submit reply here); redeemed FIFO by
    /// [`Client::recv_submitted`].
    collected_submits: VecDeque<Result<u64, (ErrorCode, String)>>,
}

impl Client {
    /// Connects to `addr` and identifies as `tenant` on every request
    /// (the server's quota-accounting identity). Equivalent to
    /// [`Client::connect_with`] under default [`ConnectOptions`].
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn connect<A: ToSocketAddrs>(addr: A, tenant: &str) -> Result<Client, ClientError> {
        Client::connect_once(addr, tenant, &ConnectOptions::new())
    }

    /// The one connect entry point: connects to `addr` as `tenant`
    /// under [`ConnectOptions`] — connect timeout, Nagle control, a
    /// `stats` liveness probe, and retry with jittered exponential
    /// backoff on retryable failures.
    ///
    /// # Errors
    ///
    /// The final attempt's error once any retries are exhausted, or
    /// the first non-retryable error immediately.
    pub fn connect_with<A: ToSocketAddrs + Clone>(
        addr: A,
        tenant: &str,
        options: &ConnectOptions,
    ) -> Result<Client, ClientError> {
        let max_retries = options.retry.map_or(0, |policy| policy.max_retries);
        let mut rng = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED)
            | 1;
        let mut attempt = 0u32;
        loop {
            match Client::connect_once(addr.clone(), tenant, options) {
                Ok(client) => return Ok(client),
                Err(e) if attempt < max_retries && is_retryable(&e) => {
                    let policy = options.retry.expect("max_retries > 0 implies a policy");
                    std::thread::sleep(policy.delay_for(attempt, &mut rng));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One connection attempt under `options` (everything but the
    /// retry loop).
    fn connect_once<A: ToSocketAddrs>(
        addr: A,
        tenant: &str,
        options: &ConnectOptions,
    ) -> Result<Client, ClientError> {
        let stream = match options.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(dur) => {
                // `connect_timeout` takes a single resolved address;
                // mirror `TcpStream::connect`'s behavior of trying each
                // in turn and reporting the last failure.
                let mut last = None;
                let mut stream = None;
                for sock_addr in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sock_addr, dur) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(ClientError::Io(last.unwrap_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidInput,
                                "address resolved to no socket addresses",
                            )
                        })))
                    }
                }
            }
        };
        if options.nodelay {
            let _ = stream.set_nodelay(true);
        }
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            tenant: tenant.to_string(),
            stream,
            reader,
            stash: VecDeque::new(),
            problem_stash: VecDeque::new(),
            failed: HashMap::new(),
            pending_submits: 0,
            collected_submits: VecDeque::new(),
        };
        if options.probe {
            client.stats()?;
        }
        Ok(client)
    }

    /// The tenant id this connection submits under.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Reports received but not yet redeemed by [`Client::wait_report`].
    pub fn stashed_reports(&self) -> usize {
        self.stash.len()
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let payload = proto::encode_request(req);
        proto::write_frame(&mut self.stream, &payload)?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let payload = proto::read_frame(&mut self.reader)?;
        Ok(proto::decode_response(&payload)?)
    }

    /// Reads frames until a verb reply arrives, stashing the job
    /// terminal frames (reports and typed per-job failures) that the
    /// server streams asynchronously in between.
    fn recv_reply(&mut self) -> Result<Response, ClientError> {
        loop {
            match self.recv()? {
                Response::Report(r) => self.stash.push_back(r),
                Response::ProblemReport(r) => self.problem_stash.push_back(r),
                Response::JobFailed {
                    job_id,
                    code,
                    message,
                } => {
                    self.failed.insert(job_id, (code, message));
                }
                other => return Ok(other),
            }
        }
    }

    /// Redeems a stashed `JobFailed` frame for `job_id` as the typed
    /// client error.
    fn take_failed(&mut self, job_id: u64) -> Option<ClientError> {
        self.failed
            .remove(&job_id)
            .map(|(code, message)| ClientError::Server { code, message })
    }

    /// Reads the replies of every outstanding [`SubmitOptions::nowait`]
    /// into the collected queue. Called by each blocking verb before it
    /// reads its own reply: the server answers requests in order per
    /// connection, so the pending submit replies are on the wire
    /// *ahead* of the verb's — reading past them blindly would hand a
    /// pending submit's `Submitted` (or error) frame to the wrong call.
    fn drain_pending_submits(&mut self) -> Result<(), ClientError> {
        while self.pending_submits > 0 {
            let reply = self.recv_reply()?;
            self.pending_submits -= 1;
            match reply {
                Response::Submitted { job_id } => self.collected_submits.push_back(Ok(job_id)),
                Response::Error { code, message } => {
                    self.collected_submits.push_back(Err((code, message)))
                }
                _ => return Err(ClientError::UnexpectedFrame("submitted")),
            }
        }
        Ok(())
    }

    /// The one submit entry point: submits `job` against `graph` under
    /// [`SubmitOptions`]. Blocking submits return `Ok(Some(job_id))`
    /// (redeem the report with [`Client::wait_report`]); `nowait`
    /// submits return `Ok(None)` immediately and their replies are
    /// collected — in submission order — with
    /// [`Client::recv_submitted`]. Blocking verbs may be freely
    /// interleaved with outstanding `nowait` submits: they read past
    /// the pending replies into an internal queue, never
    /// mis-correlating them with their own.
    ///
    /// # Errors
    ///
    /// Blocking: [`ClientError::Server`] carries quota/shutdown
    /// rejections (`QuotaInFlight`, `QuotaLanes`, `ShuttingDown`, …);
    /// a `Busy` rejection is retried first when the options carry a
    /// [`RetryPolicy`]. `nowait`: transport failures only — typed
    /// rejections surface from [`Client::recv_submitted`].
    pub fn submit_with(
        &mut self,
        graph: &Graph,
        job: &BatchJob,
        options: &SubmitOptions,
    ) -> Result<Option<u64>, ClientError> {
        let req = Request::Submit {
            tenant: self.tenant.clone(),
            graph: graph.clone(),
            job: job.clone(),
            deadline_ms: options.deadline_ms,
        };
        self.submit_request(req, options)
    }

    /// Submits a typed [`ProblemSpec`] under the same
    /// [`SubmitOptions`] as [`Client::submit_with`]. The server
    /// compiles the spec onto the machine (`replicas` independent
    /// restart lanes, seeds derived from `seed`), solves it, and
    /// streams back a decoded, domain-ranked
    /// [`WireProblemReport`] — redeem it with
    /// [`Client::wait_problem_report`]. `config` is the base operating
    /// point; the compiler overrides `num_colors` per problem class.
    ///
    /// # Errors
    ///
    /// As [`Client::submit_with`], plus
    /// [`ErrorCode::UnsupportedProblem`] (as [`ClientError::Server`])
    /// for a spec the server's compiler rejects — request-scoped: the
    /// connection stays usable.
    pub fn submit_problem(
        &mut self,
        spec: &ProblemSpec,
        config: &MsropmConfig,
        replicas: u32,
        seed: u64,
        options: &SubmitOptions,
    ) -> Result<Option<u64>, ClientError> {
        let req = Request::SubmitProblem {
            tenant: self.tenant.clone(),
            spec: spec.clone(),
            config: *config,
            replicas,
            seed,
            deadline_ms: options.deadline_ms,
        };
        self.submit_request(req, options)
    }

    /// Shared tail of [`Client::submit_with`] /
    /// [`Client::submit_problem`]: write the frame, then (blocking
    /// path) collect the reply, retrying `Busy` rejections under the
    /// options' policy.
    fn submit_request(
        &mut self,
        req: Request,
        options: &SubmitOptions,
    ) -> Result<Option<u64>, ClientError> {
        if options.nowait {
            self.send(&req)?;
            self.pending_submits += 1;
            return Ok(None);
        }
        let mut rng = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED)
            | 1;
        let mut attempt = 0u32;
        loop {
            self.send(&req)?;
            self.drain_pending_submits()?;
            let outcome = match self.recv_reply()? {
                Response::Submitted { job_id } => return Ok(Some(job_id)),
                Response::Error { code, message } => ClientError::Server { code, message },
                _ => return Err(ClientError::UnexpectedFrame("submitted")),
            };
            match options.retry {
                Some(policy)
                    if attempt < policy.max_retries
                        && matches!(
                            outcome,
                            ClientError::Server {
                                code: ErrorCode::Busy,
                                ..
                            }
                        ) =>
                {
                    std::thread::sleep(policy.delay_for(attempt, &mut rng));
                    attempt += 1;
                }
                _ => return Err(outcome),
            }
        }
    }

    /// Submits written and not yet redeemed via
    /// [`Client::recv_submitted`] (whether or not their reply frame has
    /// been read off the socket yet).
    pub fn pending_submits(&self) -> usize {
        self.pending_submits + self.collected_submits.len()
    }

    /// Collects the oldest outstanding [`SubmitOptions::nowait`] reply:
    /// the server-assigned job id, or the typed rejection for that
    /// submit. Reports arriving meanwhile are stashed, never lost.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for quota/drain rejections of this
    /// submit; [`ClientError::UnexpectedFrame`] when no submit is
    /// outstanding.
    pub fn recv_submitted(&mut self) -> Result<u64, ClientError> {
        // A reply another verb already read past comes first (FIFO).
        if let Some(collected) = self.collected_submits.pop_front() {
            return collected.map_err(|(code, message)| ClientError::Server { code, message });
        }
        if self.pending_submits == 0 {
            return Err(ClientError::UnexpectedFrame("no submit outstanding"));
        }
        let reply = self.recv_reply()?;
        self.pending_submits -= 1;
        match reply {
            Response::Submitted { job_id } => Ok(job_id),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedFrame("submitted")),
        }
    }

    /// Nonblocking report check: the stash first, then whatever is
    /// already on the socket (waiting at most a millisecond). `None`
    /// means "not yet" — keep polling or fall back to
    /// [`Client::wait_report`].
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a typed server error frame.
    pub fn poll_report(&mut self, job_id: u64) -> Result<Option<WireReport>, ClientError> {
        self.wait_report_timeout(job_id, Duration::from_millis(1))
    }

    /// Queries one job's lifecycle state.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with `UnknownJob`/`Forbidden` for bad ids.
    pub fn status(&mut self, job_id: u64) -> Result<JobState, ClientError> {
        self.send(&Request::Status {
            tenant: self.tenant.clone(),
            job_id,
        })?;
        self.drain_pending_submits()?;
        match self.recv_reply()? {
            Response::StatusReply { state, .. } => Ok(state),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedFrame("status reply")),
        }
    }

    /// Requests cooperative cancellation; returns the job's state at
    /// reply time (the cancel lands at the worker's next check, so this
    /// may still read `Queued`/`Running`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with `UnknownJob`/`Forbidden` for bad ids.
    pub fn cancel(&mut self, job_id: u64) -> Result<JobState, ClientError> {
        self.send(&Request::Cancel {
            tenant: self.tenant.clone(),
            job_id,
        })?;
        self.drain_pending_submits()?;
        match self.recv_reply()? {
            Response::CancelReply { state, .. } => Ok(state),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedFrame("cancel reply")),
        }
    }

    /// Fetches server-wide counters.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        self.send(&Request::Stats)?;
        self.drain_pending_submits()?;
        match self.recv_reply()? {
            Response::StatsReply(stats) => Ok(stats),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedFrame("stats reply")),
        }
    }

    /// Blocks until `job_id`'s report arrives (checking the stash
    /// first). Reports for *other* jobs that arrive meanwhile stay
    /// stashed for their own `wait_report` calls.
    ///
    /// A job that failed server-side — a panicking solve, a dead
    /// worker, or an expired deadline — terminates this wait with the
    /// typed [`ClientError::Server`] carrying [`ErrorCode::Internal`]
    /// or [`ErrorCode::DeadlineExceeded`]. Never returns for a
    /// *cancelled* job — the server streams nothing for those; poll
    /// [`Client::status`] or use [`Client::wait_report_timeout`] when
    /// cancellation is in play.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a typed server error frame.
    pub fn wait_report(&mut self, job_id: u64) -> Result<WireReport, ClientError> {
        // Outstanding submit replies sit ahead of any report on the
        // wire; read them into the collected queue first.
        self.drain_pending_submits()?;
        loop {
            if let Some(pos) = self.stash.iter().position(|r| r.job_id == job_id) {
                return Ok(self.stash.remove(pos).expect("position is valid"));
            }
            if let Some(err) = self.take_failed(job_id) {
                return Err(err);
            }
            match self.recv()? {
                Response::Report(r) => self.stash.push_back(r),
                Response::ProblemReport(r) => self.problem_stash.push_back(r),
                Response::JobFailed {
                    job_id: failed_id,
                    code,
                    message,
                } => {
                    // A failure frame for a *different* job stays
                    // stashed for that job's own wait.
                    self.failed.insert(failed_id, (code, message));
                }
                Response::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                _ => return Err(ClientError::UnexpectedFrame("report")),
            }
        }
    }

    /// Blocks until the decoded problem report of `job_id` — a job
    /// submitted via [`Client::submit_problem`] — arrives (checking the
    /// stash first). Raw reports and problem reports for *other* jobs
    /// that arrive meanwhile stay stashed for their own waits; failure
    /// semantics match [`Client::wait_report`].
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a typed server error frame.
    pub fn wait_problem_report(&mut self, job_id: u64) -> Result<WireProblemReport, ClientError> {
        self.drain_pending_submits()?;
        loop {
            if let Some(pos) = self.problem_stash.iter().position(|r| r.job_id == job_id) {
                return Ok(self.problem_stash.remove(pos).expect("position is valid"));
            }
            if let Some(err) = self.take_failed(job_id) {
                return Err(err);
            }
            match self.recv()? {
                Response::Report(r) => self.stash.push_back(r),
                Response::ProblemReport(r) => self.problem_stash.push_back(r),
                Response::JobFailed {
                    job_id: failed_id,
                    code,
                    message,
                } => {
                    self.failed.insert(failed_id, (code, message));
                }
                Response::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                _ => return Err(ClientError::UnexpectedFrame("problem report")),
            }
        }
    }

    /// Like [`Client::wait_report`] with a deadline: `Ok(None)` when
    /// `dur` elapses without the report — the call the smoke/CI path
    /// uses to assert a **cancelled job never produces a report**.
    ///
    /// The deadline only fires on a frame boundary. If it lands while a
    /// frame is mid-flight (some of its bytes already read), the client
    /// blocks until that frame completes rather than abandoning it —
    /// returning early there would desync the stream for every later
    /// request on this connection.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a typed server error frame.
    pub fn wait_report_timeout(
        &mut self,
        job_id: u64,
        dur: Duration,
    ) -> Result<Option<WireReport>, ClientError> {
        // Submit replies arrive promptly (admission is synchronous
        // server-side); collecting them first keeps the frame stream
        // unambiguous for the deadline loop below.
        self.drain_pending_submits()?;
        let deadline = Instant::now() + dur;
        loop {
            if let Some(pos) = self.stash.iter().position(|r| r.job_id == job_id) {
                return Ok(self.stash.remove(pos));
            }
            if let Some(err) = self.take_failed(job_id) {
                return Err(err);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            let Some(payload) = self.read_frame_deadline(left)? else {
                return Ok(None);
            };
            match proto::decode_response(&payload)? {
                Response::Report(r) => self.stash.push_back(r),
                Response::ProblemReport(r) => self.problem_stash.push_back(r),
                Response::JobFailed {
                    job_id: failed_id,
                    code,
                    message,
                } => {
                    self.failed.insert(failed_id, (code, message));
                }
                Response::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                _ => return Err(ClientError::UnexpectedFrame("report")),
            }
        }
    }

    /// Reads one frame, giving up (→ `Ok(None)`) only if nothing at all
    /// has arrived within `left`. Once the first header byte is in, the
    /// frame is committed: the read timeout is lifted and the remainder
    /// is read blocking, so a deadline can never leave the stream
    /// desynced mid-frame.
    fn read_frame_deadline(&mut self, left: Duration) -> Result<Option<Vec<u8>>, ClientError> {
        use std::io::Read as _;
        // The reader wraps a `try_clone` of `self.stream`; clones share
        // the underlying socket, so the timeout applies to both.
        self.stream.set_read_timeout(Some(left))?;
        let mut header = [0u8; 4];
        let mut got = 0usize;
        let header_result = loop {
            match self.reader.read(&mut header[got..]) {
                Ok(0) => {
                    break Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed",
                    )))
                }
                Ok(n) => {
                    got += n;
                    if got == header.len() {
                        break Ok(());
                    }
                    // Partial header: the frame is committed; finish it
                    // without a deadline.
                    self.stream.set_read_timeout(None)?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if got == 0
                        && matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                {
                    self.stream.set_read_timeout(None)?;
                    return Ok(None);
                }
                Err(e) => break Err(ClientError::Io(e)),
            }
        };
        self.stream.set_read_timeout(None)?;
        header_result?;
        let len = u32::from_le_bytes(header);
        if len > proto::MAX_FRAME_LEN {
            return Err(ClientError::Proto(ProtoError::Oversized(len)));
        }
        let mut payload = vec![0u8; len as usize];
        self.reader.read_exact(&mut payload)?;
        Ok(Some(payload))
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("tenant", &self.tenant)
            .field("stashed_reports", &self.stash.len())
            .finish_non_exhaustive()
    }
}
