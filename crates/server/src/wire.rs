//! Thread-per-connection TCP front end for the job server.
//!
//! This is the PR 4 "socket protocol over `JobServer::submit`" rung,
//! refactored: everything transport-agnostic — per-tenant quotas, the
//! job registry, admission, drain — now lives in [`crate::session`]
//! and is shared with the epoll-based [`crate::reactor`] front end.
//! What remains here is the legacy *transport*: a blocking
//! [`std::net::TcpListener`] acceptor plus reader/writer threads per
//! connection. It stays the default for small deployments (simple
//! blocking I/O, per-connection backpressure for free); the reactor is
//! the shape for thousands of mostly idle connections.
//!
//! # Connection model
//!
//! Each accepted connection gets a reader thread (parses request
//! frames, answers control verbs inline) and a writer thread draining a
//! FIFO channel of encoded frames — so a slow solve never blocks
//! `status`/`cancel` on the same connection, and report frames from
//! many in-flight jobs interleave safely with verb replies. Job
//! completions are delivered by the **worker thread** through the
//! session's completion hook (quota slot released first, then the
//! encoded report frame is pushed into the connection's writer
//! channel); the per-job waiter threads of PR 4 are gone.
//!
//! # Shutdown
//!
//! [`WireServer::shutdown`] drains gracefully: new submits are rejected
//! with the typed [`crate::proto::ErrorCode::Draining`] error (on *all*
//! connections, before admission — late-arriving submits cannot race
//! the accept-stop), the acceptor stops, every in-flight job runs to
//! its terminal state, all pending report frames are flushed to their
//! connections, and only then are connections and the worker pool torn
//! down.

use crate::proto::{self, ErrorCode, FrontendKind, ProtoError, Request, Response, WireStats};
use crate::session::{DeliverFn, ProblemSubmission, SessionCore};
use crate::{faultinject, lock_unpoisoned};
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

pub use crate::session::WireConfig;

/// The thread-per-connection TCP front end; see the module docs.
pub struct WireServer {
    core: Arc<SessionCore>,
    local_addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    connections: ConnectionList,
    down: bool,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor; the backing worker pool boots immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: WireConfig) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Nonblocking accept + poll keeps shutdown portable (no
        // self-connect tricks): the loop notices the drain flag within
        // one poll interval.
        listener.set_nonblocking(true)?;
        let core = SessionCore::new(config, FrontendKind::Threads);
        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let core = Arc::clone(&core);
            let connections = Arc::clone(&connections);
            thread::Builder::new()
                .name("msropm-wire-accept".into())
                .spawn(move || accept_loop(&listener, &core, &connections))
                .expect("spawn acceptor")
        };
        Ok(WireServer {
            core,
            local_addr,
            accept: Some(accept),
            connections,
            down: false,
        })
    }

    /// The bound address (reports the ephemeral port after `bind(":0")`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current server-wide counters (the `stats` verb's payload).
    pub fn stats(&self) -> WireStats {
        self.core.wire_stats()
    }

    /// Report frames actually handed to a connection writer.
    pub fn reports_streamed(&self) -> u64 {
        self.core.reports_streamed()
    }

    /// Graceful drain: rejects new submits, stops accepting, lets every
    /// in-flight job reach a terminal state, flushes pending report
    /// frames, then closes connections and the worker pool.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.core.begin_drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Wait for every admitted job to reach a terminal state — at
        // that point each completion hook has run and pushed its report
        // frame into a connection's writer channel (the hook holds its
        // own sender clone, so a frame sent before the clone drops is
        // always flushed by the writer).
        self.core.await_drained();
        // Closing the read side ends each reader loop; readers drop
        // their writer senders, writers flush the queued frames (reports
        // included) and exit.
        let mut conns = lock_unpoisoned(&self.connections);
        for (stream, _) in conns.iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, handle) in conns.drain(..) {
            let _ = handle.join();
        }
        // The JobServer itself drains and joins its workers when the
        // last Arc<SessionCore> drops.
    }
}

impl Drop for WireServer {
    /// Dropping the front end performs the same graceful drain as
    /// [`WireServer::shutdown`].
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

type ConnectionList = Arc<Mutex<Vec<(TcpStream, thread::JoinHandle<()>)>>>;

/// Reaps entries whose handler thread has exited: joins the (finished)
/// thread and drops the retained stream clone, releasing its fd. Called
/// from the accept loop so a daemon serving churning short-lived
/// connections never accumulates dead sockets.
fn sweep_connections(connections: &ConnectionList) {
    let mut conns = lock_unpoisoned(connections);
    let mut i = 0;
    while i < conns.len() {
        if conns[i].1.is_finished() {
            let (_stream, handle) = conns.swap_remove(i);
            let _ = handle.join();
        } else {
            i += 1;
        }
    }
}

fn accept_loop(listener: &TcpListener, core: &Arc<SessionCore>, connections: &ConnectionList) {
    loop {
        if core.is_draining() {
            return;
        }
        sweep_connections(connections);
        match listener.accept() {
            Ok((stream, _peer)) => {
                if core.at_connection_cap() {
                    // Over the cap: one typed error frame, then close.
                    let mut w = BufWriter::new(&stream);
                    let frame = proto::encode_response(&Response::Error {
                        code: ErrorCode::Busy,
                        message: "connection cap reached".into(),
                    });
                    let _ = proto::write_frame(&mut w, &frame);
                    let _ = w.flush();
                    continue;
                }
                stream.set_nonblocking(false).expect("stream mode");
                let _ = stream.set_nodelay(true);
                let reader_stream = match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                core.connection_opened();
                let core2 = Arc::clone(core);
                let handle = thread::Builder::new()
                    .name("msropm-wire-conn".into())
                    .spawn(move || {
                        connection_loop(reader_stream, &core2);
                        core2.connection_closed();
                    })
                    .expect("spawn connection thread");
                lock_unpoisoned(connections).push((stream, handle));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// The connection writer's socket, with the fault-injection write
/// points applied: writes are capped while short-writes is armed
/// (exercising partial-write handling in the `BufWriter` above), and a
/// fired sever countdown shuts the whole connection down mid-frame —
/// an abrupt server-side disconnect as the client sees it. Both checks
/// are single relaxed atomic loads when disarmed.
struct FaultStream(TcpStream);

impl io::Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if faultinject::should_sever_write() {
            let _ = self.0.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "fault injection: write severed",
            ));
        }
        let cap = faultinject::short_write_cap(buf.len());
        self.0.write(&buf[..cap])
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Runs one connection: parse frames, answer verbs, submit jobs with a
/// writer-channel deliver hook. Returns when the peer closes, the
/// framing desyncs, or shutdown closes the read side.
fn connection_loop(stream: TcpStream, core: &Arc<SessionCore>) {
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let writer = thread::Builder::new()
        .name("msropm-wire-writer".into())
        .spawn(move || {
            let mut out = BufWriter::new(FaultStream(write_stream));
            while let Ok(frame) = rx.recv() {
                if proto::write_frame(&mut out, &frame).is_err() || out.flush().is_err() {
                    // Peer gone: drain silently so senders never block.
                    for _ in rx.iter() {}
                    return;
                }
            }
        })
        .expect("spawn writer thread");

    let mut reader = BufReader::new(stream);
    loop {
        let payload = match proto::read_frame(&mut reader) {
            Ok(p) => p,
            Err(e) => {
                if !proto::is_clean_close(&e) {
                    send(
                        &tx,
                        &Response::Error {
                            code: ErrorCode::Malformed,
                            message: e.to_string(),
                        },
                    );
                }
                break;
            }
        };
        match proto::decode_request(&payload) {
            Ok(Request::Submit {
                tenant,
                graph,
                job,
                deadline_ms,
            }) => {
                let tx2 = tx.clone();
                let deliver: DeliverFn = Box::new(move |core, _job_id, frame| {
                    if let Some(frame) = frame {
                        let is_report = proto::is_report_frame(&frame);
                        if tx2.send(frame).is_ok() && is_report {
                            core.note_report_streamed();
                        }
                    }
                });
                let resp = core.submit_blocking(tenant, graph, job, deadline_ms, deliver);
                send(&tx, &resp);
            }
            Ok(Request::SubmitProblem {
                tenant,
                spec,
                config,
                replicas,
                seed,
                deadline_ms,
            }) => {
                let tx2 = tx.clone();
                let deliver: DeliverFn = Box::new(move |core, _job_id, frame| {
                    if let Some(frame) = frame {
                        let is_report = proto::is_report_frame(&frame);
                        if tx2.send(frame).is_ok() && is_report {
                            core.note_report_streamed();
                        }
                    }
                });
                let resp = core.submit_problem_blocking(
                    ProblemSubmission {
                        tenant,
                        spec,
                        config,
                        replicas,
                        seed,
                        deadline_ms,
                    },
                    deliver,
                );
                send(&tx, &resp);
            }
            Ok(req) => {
                let resp = core
                    .handle_control(&req)
                    .expect("non-submit requests are control verbs");
                send(&tx, &resp);
            }
            Err(ProtoError::BadTag(t)) => send(
                &tx,
                &Response::Error {
                    code: ErrorCode::UnsupportedVerb,
                    message: format!("unknown frame type 0x{t:02X}"),
                },
            ),
            Err(e) => send(
                &tx,
                &Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                },
            ),
        }
    }
    drop(tx);
    let _ = writer.join();
}

fn send(tx: &mpsc::Sender<Vec<u8>>, resp: &Response) {
    let _ = tx.send(proto::encode_response(resp));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, encode_request, read_frame, write_frame, WireReport};
    use crate::{JobState, ServerConfig};
    use msropm_core::{BatchJob, MsropmConfig};
    use msropm_graph::{generators, Graph};
    use std::io::Write;

    fn fast_config() -> MsropmConfig {
        MsropmConfig {
            dt: 0.02,
            ..MsropmConfig::paper_default()
        }
    }

    fn test_server(config: WireConfig) -> WireServer {
        WireServer::bind("127.0.0.1:0", config).expect("bind ephemeral port")
    }

    /// Minimal blocking test client speaking raw frames.
    struct RawClient {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl RawClient {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            RawClient { stream, reader }
        }

        fn send(&mut self, req: &Request) {
            let payload = encode_request(req);
            write_frame(&mut self.stream, &payload).expect("write frame");
            self.stream.flush().expect("flush");
        }

        fn recv(&mut self) -> Response {
            let payload = read_frame(&mut self.reader).expect("read frame");
            decode_response(&payload).expect("decode response")
        }

        fn submit(&mut self, tenant: &str, graph: &Graph, job: BatchJob) -> Response {
            self.send(&Request::Submit {
                tenant: tenant.into(),
                graph: graph.clone(),
                job,
                deadline_ms: 0,
            });
            self.recv()
        }
    }

    /// Reads frames until a report arrives (Submitted replies may be
    /// reordered behind an instantly completing job's report now that
    /// workers deliver frames directly).
    fn recv_report(c: &mut RawClient) -> WireReport {
        loop {
            match c.recv() {
                Response::Report(r) => return r,
                Response::Submitted { .. } => {}
                other => panic!("expected a report frame, got {other:?}"),
            }
        }
    }

    fn small_job(replicas: usize, seed: u64) -> BatchJob {
        BatchJob::uniform(fast_config(), replicas, seed)
    }

    /// Paper timings at a step that keeps a job busy for hundreds of ms
    /// in either build profile: release builds integrate ~30x faster
    /// than debug ones, so they take a 16x finer step.
    fn busy_config() -> MsropmConfig {
        let dt = if cfg!(debug_assertions) {
            0.02
        } else {
            0.02 / 16.0
        };
        MsropmConfig {
            dt,
            ..MsropmConfig::paper_default()
        }
    }

    /// A job big enough to hold a 1-worker server busy for a while
    /// (hundreds of ms), so queue-position assertions are robust.
    fn big_job(seed: u64) -> BatchJob {
        BatchJob::uniform(busy_config(), 16, seed)
    }

    #[test]
    fn submit_streams_a_report_with_matching_hash() {
        let server = test_server(WireConfig::default());
        let g = generators::kings_graph(4, 4);
        let mut c = RawClient::connect(server.local_addr());
        let resp = c.submit("t0", &g, small_job(4, 7));
        let Response::Submitted { job_id } = resp else {
            panic!("expected Submitted, got {resp:?}");
        };
        let report = recv_report(&mut c);
        assert_eq!(report.job_id, job_id);
        assert_eq!(report.graph_hash, msropm_graph::graph_hash(&g));
        assert_eq!(report.ranked.len(), 4);
        // Conflict counts are verifiable client-side from the coloring.
        for lane in &report.ranked {
            assert_eq!(proto::verify_lane(&g, lane), Some(lane.conflicts));
        }
        server.shutdown();
    }

    #[test]
    fn tenant_at_inflight_cap_is_rejected_while_others_proceed() {
        let server = test_server(WireConfig {
            server: ServerConfig {
                workers: 1,
                queue_capacity: 8,
                cache_capacity: 4,
                ..ServerConfig::default()
            },
            max_inflight_jobs: 1,
            max_queued_lanes: 64,
            max_connections: 8,
        });
        let g = generators::kings_graph(6, 6);
        let mut greedy = RawClient::connect(server.local_addr());
        let mut other = RawClient::connect(server.local_addr());

        // Greedy's first job occupies its whole in-flight quota.
        let Response::Submitted { job_id: first } = greedy.submit("greedy", &g, big_job(1)) else {
            panic!("first submit must be admitted");
        };
        // Second submit: typed quota rejection (jobs stay in flight for
        // at least the service time of the first).
        match greedy.submit("greedy", &g, small_job(2, 2)) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::QuotaInFlight),
            other => panic!("expected quota rejection, got {other:?}"),
        }
        // A different tenant is unaffected.
        match other.submit("modest", &g, small_job(2, 3)) {
            Response::Submitted { .. } => {}
            other => panic!("other tenant must be admitted, got {other:?}"),
        }
        // After the first job completes, greedy can submit again.
        loop {
            match greedy.recv() {
                Response::Report(r) if r.job_id == first => break,
                Response::Report(_) => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        match greedy.submit("greedy", &g, small_job(2, 4)) {
            Response::Submitted { .. } => {}
            other => panic!("quota must free after completion, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn lane_quota_counts_lanes_not_jobs() {
        let server = test_server(WireConfig {
            server: ServerConfig {
                workers: 1,
                queue_capacity: 8,
                cache_capacity: 4,
                ..ServerConfig::default()
            },
            max_inflight_jobs: 10,
            max_queued_lanes: 20,
            max_connections: 8,
        });
        let g = generators::kings_graph(6, 6);
        let mut c = RawClient::connect(server.local_addr());
        // 16 lanes admitted; 16 + 8 > 20 rejected on the lane axis.
        let Response::Submitted { .. } = c.submit("t", &g, big_job(1)) else {
            panic!("16-lane job fits the 20-lane cap");
        };
        match c.submit("t", &g, small_job(8, 2)) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::QuotaLanes),
            other => panic!("expected lane-quota rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn cancelled_queued_job_never_reports() {
        let server = test_server(WireConfig {
            server: ServerConfig {
                workers: 1,
                queue_capacity: 8,
                cache_capacity: 4,
                ..ServerConfig::default()
            },
            ..WireConfig::default()
        });
        let g = generators::kings_graph(6, 6);
        let mut c = RawClient::connect(server.local_addr());
        // Job A occupies the single worker; job B sits in the queue.
        let Response::Submitted { job_id: a } = c.submit("t", &g, big_job(1)) else {
            panic!("submit A");
        };
        let Response::Submitted { job_id: b } = c.submit("t", &g, small_job(4, 2)) else {
            panic!("submit B");
        };
        c.send(&Request::Cancel {
            tenant: "t".into(),
            job_id: b,
        });
        match c.recv() {
            Response::CancelReply { job_id, .. } => assert_eq!(job_id, b),
            other => panic!("expected CancelReply, got {other:?}"),
        }
        // Exactly one report arrives: A's. B is observed cancelled at
        // pickup and the server then goes idle.
        let report = recv_report(&mut c);
        assert_eq!(report.job_id, a);
        // B settles in Cancelled (poll; the worker pops it right after A).
        let mut state = JobState::Queued;
        for _ in 0..200 {
            c.send(&Request::Status {
                tenant: "t".into(),
                job_id: b,
            });
            match c.recv() {
                Response::StatusReply { state: s, .. } => state = s,
                other => panic!("unexpected frame {other:?}"),
            }
            if state == JobState::Cancelled {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(state, JobState::Cancelled);
        // Drain: the server streamed exactly one report.
        server.shutdown();
    }

    #[test]
    fn cancel_is_tenant_scoped_and_status_answers_unknown_ids() {
        let server = test_server(WireConfig::default());
        let g = generators::kings_graph(4, 4);
        let mut owner = RawClient::connect(server.local_addr());
        let mut thief = RawClient::connect(server.local_addr());
        let Response::Submitted { job_id } = owner.submit("owner", &g, small_job(2, 1)) else {
            panic!("submit");
        };
        thief.send(&Request::Cancel {
            tenant: "thief".into(),
            job_id,
        });
        match thief.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Forbidden),
            other => panic!("expected Forbidden, got {other:?}"),
        }
        thief.send(&Request::Status {
            tenant: "thief".into(),
            job_id: 999_999,
        });
        match thief.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
            other => panic!("expected UnknownJob, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_do_not_kill_the_connection() {
        let server = test_server(WireConfig::default());
        let mut c = RawClient::connect(server.local_addr());
        // Well-framed garbage: unknown verb byte.
        write_frame(&mut c.stream, &[0x55, 1, 2, 3]).unwrap();
        c.stream.flush().unwrap();
        match c.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVerb),
            other => panic!("expected UnsupportedVerb, got {other:?}"),
        }
        // Well-framed truncated submit body: Malformed, still alive.
        write_frame(&mut c.stream, &[0x01, 0xFF]).unwrap();
        c.stream.flush().unwrap();
        match c.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        }
        // The connection still serves real requests afterwards.
        c.send(&Request::Stats);
        match c.recv() {
            Response::StatsReply(s) => assert_eq!(s.frontend, FrontendKind::Threads),
            other => panic!("expected StatsReply, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn stats_count_completed_cancelled_and_connections() {
        let server = test_server(WireConfig {
            server: ServerConfig {
                workers: 1,
                queue_capacity: 8,
                cache_capacity: 4,
                ..ServerConfig::default()
            },
            ..WireConfig::default()
        });
        let g = generators::kings_graph(5, 5);
        let mut c = RawClient::connect(server.local_addr());
        let Response::Submitted { job_id: a } = c.submit("t", &g, big_job(1)) else {
            panic!("submit A");
        };
        let Response::Submitted { job_id: b } = c.submit("t", &g, small_job(2, 2)) else {
            panic!("submit B");
        };
        c.send(&Request::Cancel {
            tenant: "t".into(),
            job_id: b,
        });
        let Response::CancelReply { .. } = c.recv() else {
            panic!("cancel reply");
        };
        let report = recv_report(&mut c);
        assert_eq!(report.job_id, a);
        // Poll stats until the cancelled job has been observed.
        let mut stats = WireStats::default();
        for _ in 0..200 {
            c.send(&Request::Stats);
            match c.recv() {
                Response::StatsReply(s) => stats = s,
                other => panic!("unexpected frame {other:?}"),
            }
            if stats.jobs_cancelled >= 1 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.jobs_cancelled, 1);
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.frontend, FrontendKind::Threads);
        assert_eq!(server.stats().jobs_completed, 1);
        assert_eq!(server.reports_streamed(), 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_submits_with_draining_but_drains_inflight_reports() {
        let server = test_server(WireConfig {
            server: ServerConfig {
                workers: 1,
                queue_capacity: 8,
                cache_capacity: 4,
                ..ServerConfig::default()
            },
            ..WireConfig::default()
        });
        // A job long enough (~seconds on one worker) that the drain
        // window below is wide open when the late submit lands.
        let g = generators::kings_graph(10, 10);
        let mut c = RawClient::connect(server.local_addr());
        let Response::Submitted { job_id } =
            c.submit("t", &g, BatchJob::uniform(busy_config(), 32, 3))
        else {
            panic!("submit");
        };
        // Drain in a background thread while the client is still
        // attached; a late submit on this live connection must get the
        // typed Draining rejection (not an admission, not a hard
        // disconnect), and the in-flight job's report must still arrive.
        let drainer = thread::spawn(move || server.shutdown());
        thread::sleep(Duration::from_millis(100));
        match c.submit("t", &g, small_job(2, 99)) {
            Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::Draining, "drain rejections are typed")
            }
            other => panic!("expected Draining rejection, got {other:?}"),
        }
        let report = recv_report(&mut c);
        assert_eq!(report.job_id, job_id);
        drainer.join().expect("drain completes");
    }
}
