//! The serving event loop: both transports — the binary frame
//! protocol and the HTTP/1.1 + JSON gateway — on nonblocking
//! epoll/poll loops, with no thread per connection.
//!
//! **N event-loop threads** (default 1) own all sockets via a
//! [`polling::Poller`] (epoll on Linux, `poll(2)` fallback), and each
//! connection is a small state machine: a read buffer feeding its
//! codec's incremental decoder, and a write buffer flushed on writable
//! readiness. An idle connection costs one registered fd and a few
//! hundred bytes; *all* per-tenant quota, registry, and drain semantics
//! come from the shared [`crate::session::SessionCore`].
//!
//! # Codecs
//!
//! A [`Frontend`] speaks one codec ([`FrontendKind`]) on every
//! connection. The codecs differ only where the transports do:
//!
//! | step | binary ([`FrontendKind::Reactor`]) | HTTP ([`FrontendKind::Http`]) |
//! |---|---|---|
//! | decode | [`proto::Decoder`] frames | [`HttpParser`] requests ([`crate::http`] routes them) |
//! | reply | framed [`Response`] | status line + JSON body |
//! | over the connection cap | `Busy` error frame | `503` |
//! | completion | streamed to the submitting connection | filed by job id for `GET /v1/jobs/{id}` |
//!
//! Both decode into the same [`Request`]s and dispatch them through the
//! same session calls, so the report a codec renders is byte-identical
//! to the other's (property-tested across codecs, worker counts and
//! shard widths).
//!
//! # Completion wakeups
//!
//! Job completions are delivered by the worker thread through the
//! session hook. A binary connection's terminal frame is pushed into
//! the owning loop's inbox, addressed to the connection's slot and
//! generation, and the loop is woken through the poller's
//! eventfd/pipe notifier; an HTTP job's frame goes into a
//! [`TerminalStore`] shared by all loops, so a job submitted on one
//! loop is pollable from a connection on another. Cancelled jobs
//! deliver no frame (the wire contract: **a cancelled job never
//! streams a report**).
//!
//! # Backpressure
//!
//! - a full worker queue **parks** the (already admitted) submit inside
//!   the loop and retries as completions free capacity — the client
//!   sees `submitted` and a `queued` status, never a stalled loop;
//! - a peer that stops reading while replies pile up grows its write
//!   buffer until [`ReactorConfig::max_write_buffer`], at which point
//!   the connection is dropped (a slow consumer must not hold frame
//!   memory hostage).
//!
//! # Shutdown
//!
//! [`Frontend::shutdown`] drains gracefully: submits are rejected with
//! the typed `Draining` error while in-flight jobs run to terminal
//! states, every pending reply is flushed (bounded by a five-second
//! deadline against stuck peers), and only then do the loops,
//! connections, and worker pool tear down.

use crate::http::{self, HttpParser, HttpRequest, TerminalStore};
use crate::proto::{
    self, Decoder, ErrorCode, FrontendKind, ProtoError, Request, Response, WireStats,
};
use crate::session::{DeliverFn, ParkedSubmit, SessionCore, SubmitDisposition, WireConfig};
use crate::{faultinject, lock_unpoisoned};
use polling::{BackendKind, Event, Poller};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Sizing and policy knobs of a [`Frontend`], for either codec.
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Session policy (worker pool, quotas, connection cap).
    pub wire: WireConfig,
    /// Event-loop threads. Loop 0 owns the listener; accepted
    /// connections are distributed round-robin across all loops.
    pub loops: usize,
    /// Per-connection cap on buffered unsent bytes; a peer that lets
    /// its write buffer exceed this (by not reading) is disconnected.
    pub max_write_buffer: usize,
    /// Force the portable `poll(2)` backend instead of epoll (testing
    /// and debugging).
    pub poll_backend: bool,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            wire: WireConfig::default(),
            loops: 1,
            max_write_buffer: 8 << 20,
            poll_backend: false,
        }
    }
}

/// Poller key of loop 0's listener; connection keys are
/// `slab index + FIRST_CONN_KEY`.
const KEY_LISTENER: usize = 0;
const FIRST_CONN_KEY: usize = 1;

/// How long a draining loop keeps retrying flushes to peers that have
/// stopped reading before force-closing them.
const DRAIN_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

/// A finished binary-codec job routed back to its loop: the encoded
/// terminal frame — a report, or a typed `JobFailed` for
/// failed/deadline-exceeded jobs (`None` for cancelled ones) —
/// addressed to a connection slot.
struct Completion {
    conn: usize,
    generation: u64,
    frame: Option<Vec<u8>>,
}

#[derive(Default)]
struct Inbox {
    /// Connections accepted by loop 0 and assigned to this loop.
    new_conns: Vec<TcpStream>,
    /// Completions delivered by worker threads.
    completions: Vec<Completion>,
    /// Set once by shutdown after the session has drained.
    exit: bool,
}

/// The cross-thread surface of one event loop: its poller (for
/// notification) and its inbox.
struct LoopShared {
    poller: Poller,
    inbox: Mutex<Inbox>,
}

/// A connection's incremental request decoder, which also names its
/// codec.
enum Codec {
    Binary(Decoder),
    Http(HttpParser),
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Guards completions against slot reuse: a frame addressed to a
    /// recycled index is discarded unless the generation matches.
    generation: u64,
    codec: Codec,
    /// Encoded-but-unsent bytes (`out[out_pos..]` is pending).
    out: Vec<u8>,
    out_pos: usize,
    /// (read, write) interest currently registered with the poller.
    registered: (bool, bool),
    /// Peer closed its write side; serve queued output, accept no new
    /// requests, close once outstanding jobs finish.
    read_eof: bool,
    /// Flush queued output, then close (protocol desync, or an HTTP
    /// exchange without keep-alive).
    closing: bool,
    /// Binary jobs admitted on this connection and not yet
    /// completion-routed (HTTP jobs are polled, never routed).
    jobs_outstanding: usize,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// The serving front end: N event loops speaking one codec over one
/// session; see the module docs. Boot it with
/// [`crate::ServerConfig::builder`].
pub struct Frontend {
    kind: FrontendKind,
    core: Arc<SessionCore>,
    local_addr: SocketAddr,
    loops: Vec<(Arc<LoopShared>, thread::JoinHandle<()>)>,
    down: bool,
}

impl Frontend {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// event loops speaking `kind`'s codec; the backing worker pool
    /// boots immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation failures.
    ///
    /// # Panics
    ///
    /// Panics if `config.loops` is zero.
    pub(crate) fn bind<A: ToSocketAddrs>(
        addr: A,
        kind: FrontendKind,
        config: ReactorConfig,
    ) -> std::io::Result<Frontend> {
        assert!(config.loops > 0, "need at least one event loop");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let core = SessionCore::new(config.wire, kind);
        let backend = if config.poll_backend {
            BackendKind::Poll
        } else {
            BackendKind::Epoll
        };
        let shareds: Vec<Arc<LoopShared>> = (0..config.loops)
            .map(|_| {
                Ok(Arc::new(LoopShared {
                    poller: Poller::with_backend(backend)?,
                    inbox: Mutex::new(Inbox::default()),
                }))
            })
            .collect::<std::io::Result<_>>()?;
        let terminals = Arc::new(Mutex::new(TerminalStore::default()));
        let mut loops = Vec::with_capacity(config.loops);
        // Loop 0 takes ownership of the listener itself — registering a
        // clone's fd would leave the poll backend watching a raw fd
        // number that gets recycled once the original drops.
        let mut listener = Some(listener);
        for (i, shared) in shareds.iter().enumerate() {
            let event_loop = EventLoop {
                kind,
                core: Arc::clone(&core),
                shared: Arc::clone(shared),
                peers: shareds.clone(),
                terminals: Arc::clone(&terminals),
                listener: if i == 0 {
                    let listener = listener.take().expect("loop 0 takes the listener");
                    shared
                        .poller
                        .add(listener.as_raw_fd(), Event::readable(KEY_LISTENER))?;
                    Some(listener)
                } else {
                    None
                },
                slab: Vec::new(),
                free: Vec::new(),
                next_gen: 0,
                parked: Vec::new(),
                rr: 0,
                max_wbuf: config.max_write_buffer,
                exiting: false,
                exit_deadline: None,
            };
            let handle = thread::Builder::new()
                .name(format!("msropm-{kind}-{i}"))
                .spawn(move || event_loop.run())
                .expect("spawn event loop");
            loops.push((Arc::clone(shared), handle));
        }
        Ok(Frontend {
            kind,
            core,
            local_addr,
            loops,
            down: false,
        })
    }

    /// Which codec is serving (as carried in stats replies).
    pub fn kind(&self) -> FrontendKind {
        self.kind
    }

    /// The bound address (reports the ephemeral port after `bind(":0")`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current server-wide counters (the `stats` verb's payload).
    pub fn stats(&self) -> WireStats {
        self.core.wire_stats()
    }

    /// Report frames actually handed to a connection's write buffer
    /// (for HTTP: report bodies served to a poll, each counted once).
    pub fn reports_streamed(&self) -> u64 {
        self.core.reports_streamed()
    }

    /// Graceful drain; see the module docs.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.core.begin_drain();
        // All jobs terminal and delivered ⇒ every binary completion is
        // in its loop's inbox and every HTTP frame is filed.
        self.core.await_drained();
        for (shared, _) in &self.loops {
            lock_unpoisoned(&shared.inbox).exit = true;
            let _ = shared.poller.notify();
        }
        for (_, handle) in self.loops.drain(..) {
            let _ = handle.join();
        }
        // The JobServer drains and joins its workers when the last
        // Arc<SessionCore> drops.
    }
}

impl Drop for Frontend {
    /// Dropping the front end performs the same graceful drain as
    /// [`Frontend::shutdown`].
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The over-cap reply of `kind`'s codec: a `Busy` error frame or a
/// `503`, after which the connection closes.
fn busy_reply(kind: FrontendKind) -> Vec<u8> {
    let (code, message) = (ErrorCode::Busy, "connection cap reached");
    let mut out = Vec::new();
    match kind {
        FrontendKind::Reactor => {
            let frame = proto::encode_response(&Response::Error {
                code,
                message: message.into(),
            });
            let _ = proto::write_frame(&mut out, &frame);
        }
        FrontendKind::Http => {
            let body = http::error_body(code, message).render();
            http::write_response(&mut out, 503, "application/json", body.as_bytes(), true);
        }
    }
    out
}

/// One event loop's full state; `run` is the thread body.
struct EventLoop {
    kind: FrontendKind,
    core: Arc<SessionCore>,
    shared: Arc<LoopShared>,
    /// Every loop of the front end, in index order (round-robin
    /// targets; only loop 0, the listener owner, actually assigns).
    peers: Vec<Arc<LoopShared>>,
    /// HTTP terminal frames by job id, shared by every loop.
    terminals: Arc<Mutex<TerminalStore>>,
    listener: Option<TcpListener>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    parked: Vec<ParkedSubmit>,
    rr: usize,
    max_wbuf: usize,
    exiting: bool,
    exit_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = if !self.parked.is_empty() {
                // A parked submit can also become enqueueable when a
                // worker *picks up* a job (which signals nothing), so
                // poll on a short tick rather than relying purely on
                // completion wakeups.
                Some(Duration::from_millis(10))
            } else if self.exiting {
                Some(Duration::from_millis(20))
            } else {
                None
            };
            if self.shared.poller.wait(&mut events, timeout).is_err() {
                // A broken poller is unrecoverable; drop every
                // connection rather than spin.
                break;
            }
            self.handle_inbox();
            for &ev in &events {
                if ev.key == KEY_LISTENER {
                    self.accept_ready();
                } else {
                    self.conn_event(ev);
                }
            }
            self.retry_parked();
            if self.exiting && self.ready_to_exit() {
                break;
            }
        }
        self.teardown();
    }

    /// Drains the cross-thread inbox: adopt assigned connections,
    /// route completions, observe the exit flag.
    fn handle_inbox(&mut self) {
        let (new_conns, completions, exit) = {
            let mut inbox = lock_unpoisoned(&self.shared.inbox);
            (
                std::mem::take(&mut inbox.new_conns),
                std::mem::take(&mut inbox.completions),
                inbox.exit,
            )
        };
        if exit && !self.exiting {
            self.exiting = true;
            self.exit_deadline = Some(Instant::now() + DRAIN_FLUSH_DEADLINE);
            // Stop accepting: unregister and drop the listener.
            if let Some(listener) = self.listener.take() {
                let _ = self.shared.poller.delete(listener.as_raw_fd());
            }
        }
        for stream in new_conns {
            if self.exiting {
                // Adopted after the drain finished: nothing left to
                // serve them with.
                self.core.connection_closed();
                continue;
            }
            self.register(stream);
        }
        for completion in completions {
            self.route_completion(completion);
        }
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.core.at_connection_cap() {
                        // Over the cap: one best-effort busy reply (the
                        // stream is still blocking), then close.
                        let _ = (&stream).write_all(&busy_reply(self.kind));
                        continue;
                    }
                    self.core.connection_opened();
                    let _ = stream.set_nodelay(true);
                    // Round-robin across loops; local assignment skips
                    // the inbox.
                    let target = self.rr % self.peers.len();
                    self.rr = self.rr.wrapping_add(1);
                    if Arc::ptr_eq(&self.peers[target], &self.shared) {
                        self.register(stream);
                    } else {
                        let peer = &self.peers[target];
                        lock_unpoisoned(&peer.inbox).new_conns.push(stream);
                        let _ = peer.poller.notify();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Installs an accepted connection into the slab and poller.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.core.connection_closed();
            return;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.next_gen += 1;
        let key = idx + FIRST_CONN_KEY;
        if self
            .shared
            .poller
            .add(stream.as_raw_fd(), Event::readable(key))
            .is_err()
        {
            self.free.push(idx);
            self.core.connection_closed();
            return;
        }
        self.slab[idx] = Some(Conn {
            stream,
            generation: self.next_gen,
            codec: match self.kind {
                FrontendKind::Reactor => Codec::Binary(Decoder::new()),
                FrontendKind::Http => Codec::Http(HttpParser::new()),
            },
            out: Vec::new(),
            out_pos: 0,
            registered: (true, false),
            read_eof: false,
            closing: false,
            jobs_outstanding: 0,
        });
    }

    fn conn_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.slab.get_mut(idx).and_then(Option::as_mut)
    }

    /// Fully closes a connection: poller deregistration, slot recycle,
    /// live-connection accounting. Late completions for it are dropped
    /// by the generation check.
    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slab.get_mut(idx).and_then(Option::take) {
            let _ = self.shared.poller.delete(conn.stream.as_raw_fd());
            self.free.push(idx);
            self.core.connection_closed();
        }
    }

    /// Dispatches one readiness event for a connection slot.
    fn conn_event(&mut self, ev: Event) {
        let idx = ev.key - FIRST_CONN_KEY;
        let Some(conn) = self.conn_mut(idx) else {
            // Stale event for a slot closed earlier in this batch.
            return;
        };
        if conn.registered == (false, false) {
            // Error/hang-up conditions bypass the interest mask
            // (level-triggered), so an event for a connection with no
            // registered interest can only mean the peer reset a
            // half-closed socket. There is nothing to read or flush —
            // close it, or this event would re-fire every wait and spin
            // the loop until the outstanding job finished (its late
            // completion is discarded by the generation check).
            self.close(idx);
            return;
        }
        if ev.writable {
            self.flush(idx);
        }
        let readable = ev.readable
            && self
                .conn_mut(idx)
                .is_some_and(|conn| !conn.read_eof && !conn.closing);
        if readable {
            self.conn_read(idx);
        }
        self.maybe_close(idx);
        self.update_interest(idx);
    }

    /// Reads until the socket would block, feeding the codec.
    fn conn_read(&mut self, idx: usize) {
        let mut buf = [0u8; 16 << 10];
        loop {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    // Peer closed its write side: keep the connection
                    // alive to stream reports of its outstanding jobs,
                    // then close.
                    conn.read_eof = true;
                    return;
                }
                Ok(n) => {
                    match &mut conn.codec {
                        Codec::Binary(decoder) => decoder.push(&buf[..n]),
                        Codec::Http(parser) => parser.push(&buf[..n]),
                    }
                    if !self.drain_requests(idx) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// Answers every complete request the codec has buffered; `false`
    /// once the connection should stop being read (closed, desynced, or
    /// an HTTP exchange without keep-alive).
    fn drain_requests(&mut self, idx: usize) -> bool {
        loop {
            let Some(conn) = self.conn_mut(idx) else {
                return false;
            };
            let more = match &mut conn.codec {
                Codec::Binary(decoder) => match decoder.next_frame() {
                    Ok(Some(payload)) => {
                        self.binary_request(idx, &payload);
                        true
                    }
                    Ok(None) => return true,
                    Err(e) => {
                        // Framing desync (oversized header): typed
                        // error, flush, close.
                        conn.closing = true;
                        self.queue_response(
                            idx,
                            &Response::Error {
                                code: ErrorCode::Malformed,
                                message: e.to_string(),
                            },
                        );
                        false
                    }
                },
                Codec::Http(parser) => match parser.next_request() {
                    Ok(Some(req)) => {
                        let keep_alive = req.keep_alive;
                        self.http_request(idx, &req);
                        keep_alive
                    }
                    Ok(None) => return true,
                    Err(e) => {
                        // Framing errors answer with the parser's
                        // status; only fatal ones (desync) close the
                        // connection — an oversized body is discarded
                        // and serving continues.
                        let body = http::error_body(ErrorCode::Malformed, &e.reason).render();
                        self.queue_http(
                            idx,
                            e.status,
                            "application/json",
                            body.as_bytes(),
                            e.fatal,
                        );
                        !e.fatal
                    }
                },
            };
            if !more || self.conn_mut(idx).is_none() {
                return false;
            }
        }
    }

    /// Binary codec: decodes one request frame, dispatches it, and
    /// frames the reply.
    fn binary_request(&mut self, idx: usize, payload: &[u8]) {
        let resp = match proto::decode_request(payload) {
            Ok(req) => self.dispatch(idx, req),
            Err(ProtoError::BadTag(t)) => Response::Error {
                code: ErrorCode::UnsupportedVerb,
                message: format!("unknown frame type 0x{t:02X}"),
            },
            Err(e) => Response::Error {
                code: ErrorCode::Malformed,
                message: e.to_string(),
            },
        };
        self.queue_response(idx, &resp);
    }

    /// HTTP codec: routes one parsed request (see [`http::answer`]) and
    /// queues the response, advertising `connection: close` when the
    /// request did not ask for keep-alive.
    fn http_request(&mut self, idx: usize, req: &HttpRequest) {
        let core = Arc::clone(&self.core);
        let terminals = Arc::clone(&self.terminals);
        let (status, content_type, body) =
            http::answer(req, &core, &terminals, |r| self.dispatch(idx, r));
        self.queue_http(idx, status, content_type, &body, !req.keep_alive);
    }

    /// Answers one decoded request through the session: control verbs
    /// inline; a submit is admitted with the codec's deliver callback
    /// (a full worker queue parks it here).
    fn dispatch(&mut self, idx: usize, req: Request) -> Response {
        if let Some(resp) = self.core.handle_control(&req) {
            return resp;
        }
        let deliver: DeliverFn = match self.kind {
            FrontendKind::Reactor => {
                // Route the frame back to this connection slot (the
                // generation guards against slot reuse) and wake the
                // loop.
                let shared = Arc::clone(&self.shared);
                let generation = self.slab[idx]
                    .as_ref()
                    .expect("only a live connection dispatches")
                    .generation;
                Box::new(move |_job_id, frame| {
                    lock_unpoisoned(&shared.inbox).completions.push(Completion {
                        conn: idx,
                        generation,
                        frame,
                    });
                    let _ = shared.poller.notify();
                })
            }
            FrontendKind::Http => {
                // File the frame by job id for any connection's poll.
                let terminals = Arc::clone(&self.terminals);
                Box::new(move |job_id, frame| lock_unpoisoned(&terminals).insert(job_id, frame))
            }
        };
        let resp = match self.core.submit(req, deliver) {
            SubmitDisposition::Reply(resp) => resp,
            SubmitDisposition::Parked(parked, resp) => {
                self.parked.push(parked);
                resp
            }
        };
        if self.kind == FrontendKind::Reactor && matches!(resp, Response::Submitted { .. }) {
            if let Some(conn) = self.conn_mut(idx) {
                conn.jobs_outstanding += 1;
            }
        }
        resp
    }

    /// Retries parked submits; keeps whatever is still blocked on a
    /// full queue.
    fn retry_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.parked);
        for p in parked {
            if let Some(still) = self.core.retry_parked(p) {
                self.parked.push(still);
            }
        }
    }

    /// Routes one completed binary job back to its connection.
    fn route_completion(&mut self, completion: Completion) {
        let Some(conn) = self.conn_mut(completion.conn) else {
            return;
        };
        if conn.generation != completion.generation {
            // The slot was recycled; the original peer is gone and the
            // frame is dropped.
            return;
        }
        conn.jobs_outstanding = conn.jobs_outstanding.saturating_sub(1);
        if let Some(frame) = completion.frame {
            let is_report = proto::is_report_frame(&frame);
            if self.queue_frame(completion.conn, &frame) && is_report {
                self.core.note_report_streamed();
            }
        }
        self.maybe_close(completion.conn);
        self.update_interest(completion.conn);
    }

    /// Encodes and queues a binary response frame.
    fn queue_response(&mut self, idx: usize, resp: &Response) {
        self.queue_frame(idx, &proto::encode_response(resp));
    }

    /// Frames `payload` into the connection's write buffer. Returns
    /// `false` when the connection is gone (dead peer or slow-consumer
    /// overflow).
    fn queue_frame(&mut self, idx: usize, payload: &[u8]) -> bool {
        let Some(conn) = self.conn_mut(idx) else {
            return false;
        };
        if proto::write_frame(&mut conn.out, payload).is_err() {
            // Only possible for an oversized payload we built
            // ourselves; drop the connection rather than desync it.
            self.close(idx);
            return false;
        }
        self.queued(idx)
    }

    /// Queues one HTTP response; `close` advertises `connection: close`
    /// and stops reading further requests.
    fn queue_http(
        &mut self,
        idx: usize,
        status: u16,
        content_type: &str,
        body: &[u8],
        close: bool,
    ) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        http::write_response(&mut conn.out, status, content_type, body, close);
        conn.closing |= close;
        self.queued(idx);
    }

    /// Flushes freshly queued output opportunistically and drops a slow
    /// consumer over the write-buffer cap. Returns `false` when the
    /// connection is gone.
    fn queued(&mut self, idx: usize) -> bool {
        self.flush(idx);
        let Some(conn) = self.conn_mut(idx) else {
            return false;
        };
        if conn.pending_out() > self.max_wbuf {
            // Slow consumer: the peer stopped reading while replies
            // piled up. Drop it instead of holding the memory.
            self.close(idx);
            return false;
        }
        self.update_interest(idx);
        true
    }

    /// Writes pending output until empty or the socket would block.
    /// Each write attempt passes through the fault-injection socket
    /// points (a single relaxed load each when disarmed): armed
    /// short-writes cap the attempt at a few bytes, and a fired sever
    /// countdown shuts the connection down mid-stream instead.
    fn flush(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            if conn.out_pos >= conn.out.len() {
                break;
            }
            if faultinject::should_sever_write() {
                let _ = conn.stream.shutdown(Shutdown::Both);
                self.close(idx);
                return;
            }
            let cap = faultinject::short_write_cap(conn.out.len() - conn.out_pos);
            match (&conn.stream).write(&conn.out[conn.out_pos..conn.out_pos + cap]) {
                Ok(0) => {
                    self.close(idx);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > 64 << 10 {
            // Reclaim the flushed prefix of a large buffer.
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
    }

    /// Closes a connection that has finished its useful life: a close
    /// decision flushes-then-closes; a half-closed peer closes once its
    /// outstanding jobs have reported and flushed.
    fn maybe_close(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let drained = conn.pending_out() == 0;
        if (conn.closing && drained) || (conn.read_eof && drained && conn.jobs_outstanding == 0) {
            self.close(idx);
        }
    }

    /// Syncs the poller registration with what the state machine
    /// currently needs (read unless EOF/desync, write while output is
    /// pending).
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let want = (!conn.read_eof && !conn.closing, conn.pending_out() > 0);
        if want == conn.registered {
            return;
        }
        let key = idx + FIRST_CONN_KEY;
        let interest = Event {
            key,
            readable: want.0,
            writable: want.1,
        };
        let fd = conn.stream.as_raw_fd();
        if self.shared.poller.modify(fd, interest).is_ok() {
            if let Some(conn) = self.conn_mut(idx) {
                conn.registered = want;
            }
        } else {
            self.close(idx);
        }
    }

    /// True once a draining loop has nothing left to deliver: no parked
    /// submits, an empty inbox, and every write buffer flushed — or the
    /// flush deadline has passed.
    fn ready_to_exit(&self) -> bool {
        if self
            .exit_deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            return true;
        }
        if !self.parked.is_empty() {
            return false;
        }
        {
            let inbox = lock_unpoisoned(&self.shared.inbox);
            if !inbox.new_conns.is_empty() || !inbox.completions.is_empty() {
                return false;
            }
        }
        self.slab
            .iter()
            .flatten()
            .all(|conn| conn.pending_out() == 0)
    }

    /// Final teardown: close every connection and release the slab.
    fn teardown(&mut self) {
        for idx in 0..self.slab.len() {
            self.close(idx);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::proto::{decode_response, encode_request, read_frame, write_frame, WireReport};
    use crate::{JobState, ServerConfig};
    use msropm_core::{BatchJob, MsropmConfig};
    use msropm_graph::{generators, Graph};
    use std::io::{BufReader, Write};

    pub(crate) fn fast_config() -> MsropmConfig {
        MsropmConfig {
            dt: 0.02,
            ..MsropmConfig::paper_default()
        }
    }

    pub(crate) fn small_job(replicas: usize, seed: u64) -> BatchJob {
        BatchJob::uniform(fast_config(), replicas, seed)
    }

    /// A 16-lane job that holds a 1-worker server busy for hundreds of
    /// ms in either build profile: release builds integrate ~30x faster
    /// than debug ones, so they take a 16x finer step.
    pub(crate) fn big_job(seed: u64) -> BatchJob {
        let dt = if cfg!(debug_assertions) {
            0.02
        } else {
            0.02 / 16.0
        };
        let config = MsropmConfig {
            dt,
            ..MsropmConfig::paper_default()
        };
        BatchJob::uniform(config, 16, seed)
    }

    fn reactor(config: ReactorConfig) -> Frontend {
        Frontend::bind("127.0.0.1:0", FrontendKind::Reactor, config).expect("bind ephemeral port")
    }

    /// One worker and a small queue: the shape every quota/cancel test
    /// below runs against.
    fn one_worker(max_inflight_jobs: usize, max_queued_lanes: usize) -> ReactorConfig {
        ReactorConfig {
            wire: WireConfig {
                server: ServerConfig {
                    workers: 1,
                    queue_capacity: 8,
                    cache_capacity: 4,
                    ..ServerConfig::default()
                },
                max_inflight_jobs,
                max_queued_lanes,
                max_connections: 8,
            },
            ..ReactorConfig::default()
        }
    }

    /// Minimal blocking test client speaking raw frames; out-of-order
    /// report frames are stashed, never dropped.
    pub(crate) struct RawClient {
        pub(crate) stream: TcpStream,
        pub(crate) reader: BufReader<TcpStream>,
        pub(crate) stash: Vec<WireReport>,
    }

    impl RawClient {
        pub(crate) fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            RawClient {
                stream,
                reader,
                stash: Vec::new(),
            }
        }

        pub(crate) fn send(&mut self, req: &Request) {
            let payload = encode_request(req);
            write_frame(&mut self.stream, &payload).expect("write frame");
            self.stream.flush().expect("flush");
        }

        pub(crate) fn recv(&mut self) -> Response {
            let payload = read_frame(&mut self.reader).expect("read frame");
            decode_response(&payload).expect("decode response")
        }

        /// Reads until a non-report frame arrives, stashing reports.
        pub(crate) fn recv_reply(&mut self) -> Response {
            loop {
                match self.recv() {
                    Response::Report(r) => self.stash.push(r),
                    other => return other,
                }
            }
        }

        /// Sends one submit and returns its reply (reports stashed).
        pub(crate) fn try_submit(
            &mut self,
            tenant: &str,
            graph: &Graph,
            job: BatchJob,
        ) -> Response {
            self.send(&Request::Submit {
                tenant: tenant.into(),
                graph: graph.clone(),
                job,
                deadline_ms: 0,
            });
            self.recv_reply()
        }

        pub(crate) fn submit(&mut self, tenant: &str, graph: &Graph, job: BatchJob) -> u64 {
            match self.try_submit(tenant, graph, job) {
                Response::Submitted { job_id } => job_id,
                other => panic!("expected Submitted, got {other:?}"),
            }
        }

        pub(crate) fn wait_report(&mut self, job_id: u64) -> WireReport {
            loop {
                if let Some(pos) = self.stash.iter().position(|r| r.job_id == job_id) {
                    return self.stash.remove(pos);
                }
                match self.recv() {
                    Response::Report(r) => self.stash.push(r),
                    other => panic!("expected report for {job_id}, got {other:?}"),
                }
            }
        }
    }

    #[cfg(target_os = "linux")]
    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    }

    #[test]
    fn submit_streams_a_report_on_both_backends() {
        for poll_backend in [false, true] {
            let server = reactor(ReactorConfig {
                poll_backend,
                ..ReactorConfig::default()
            });
            let g = generators::kings_graph(4, 4);
            let mut c = RawClient::connect(server.local_addr());
            let job_id = c.submit("t", &g, small_job(4, 7));
            let report = c.wait_report(job_id);
            assert_eq!(report.graph_hash, msropm_graph::graph_hash(&g));
            assert_eq!(report.ranked.len(), 4);
            for lane in &report.ranked {
                assert_eq!(proto::verify_lane(&g, lane), Some(lane.conflicts));
            }
            let stats = server.stats();
            assert_eq!(stats.frontend, FrontendKind::Reactor);
            assert_eq!(stats.connections, 1);
            server.shutdown();
        }
    }

    #[test]
    fn full_worker_queue_parks_submits_instead_of_stalling() {
        // Queue capacity 1 with a single worker: a burst of 6 jobs can
        // only fit by parking, yet every submit must be admitted
        // immediately and every report must eventually stream.
        let server = reactor(ReactorConfig {
            wire: WireConfig {
                server: ServerConfig {
                    workers: 1,
                    queue_capacity: 1,
                    cache_capacity: 4,
                    ..ServerConfig::default()
                },
                max_inflight_jobs: 16,
                max_queued_lanes: 1024,
                max_connections: 8,
            },
            ..ReactorConfig::default()
        });
        let g = generators::kings_graph(4, 4);
        let mut c = RawClient::connect(server.local_addr());
        let ids: Vec<u64> = (0..6).map(|i| c.submit("t", &g, small_job(2, i))).collect();
        // A parked job answers status (it is admitted and registered).
        for &id in &ids {
            c.send(&Request::Status {
                tenant: "t".into(),
                job_id: id,
            });
            match c.recv_reply() {
                Response::StatusReply { job_id, .. } => assert_eq!(job_id, id),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        for &id in &ids {
            let report = c.wait_report(id);
            assert_eq!(report.job_id, id);
        }
        server.shutdown();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_connections_cost_no_threads() {
        let server = reactor(ReactorConfig {
            wire: WireConfig {
                max_connections: 256,
                ..WireConfig::default()
            },
            ..ReactorConfig::default()
        });
        let mut active = RawClient::connect(server.local_addr());
        let baseline = thread_count();
        let idle: Vec<TcpStream> = (0..128)
            .map(|_| TcpStream::connect(server.local_addr()).expect("idle connect"))
            .collect();
        // Wait until the reactor has registered them all.
        let g = generators::kings_graph(4, 4);
        let mut connections = 0;
        for _ in 0..200 {
            active.send(&Request::Stats);
            match active.recv_reply() {
                Response::StatsReply(s) => connections = s.connections,
                other => panic!("unexpected frame {other:?}"),
            }
            if connections >= 129 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            connections >= 129,
            "server must track all idle connections, saw {connections}"
        );
        // Idle connections must not have spawned threads. Other tests in
        // this process start and stop servers meanwhile, so keep the
        // least of several samples.
        let with_idle = (0..50)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(10));
                thread_count()
            })
            .min()
            .expect("nonempty");
        assert!(
            with_idle <= baseline + 2,
            "idle connections spawned threads: {baseline} -> {with_idle}"
        );
        // Traffic still flows with the idle fleet attached.
        let id = active.submit("t", &g, small_job(2, 1));
        let report = active.wait_report(id);
        assert_eq!(report.job_id, id);
        drop(idle);
        server.shutdown();
    }

    #[test]
    fn multiple_loops_serve_connections_round_robin() {
        let server = reactor(ReactorConfig {
            loops: 3,
            ..ReactorConfig::default()
        });
        let g = generators::kings_graph(4, 4);
        // More connections than loops: every loop ends up owning some,
        // and each serves submits + reports independently.
        let mut clients: Vec<RawClient> = (0..7)
            .map(|_| RawClient::connect(server.local_addr()))
            .collect();
        let ids: Vec<u64> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| c.submit(&format!("t{i}"), &g, small_job(2, i as u64)))
            .collect();
        for (c, id) in clients.iter_mut().zip(ids) {
            let report = c.wait_report(id);
            assert_eq!(report.job_id, id);
        }
        server.shutdown();
    }

    #[test]
    fn tiny_writes_and_batched_frames_both_decode() {
        let server = reactor(ReactorConfig::default());
        let g = generators::kings_graph(4, 4);
        let mut c = RawClient::connect(server.local_addr());

        // One submit frame dribbled a byte at a time across many writes.
        let payload = encode_request(&Request::Submit {
            tenant: "t".into(),
            graph: g.clone(),
            job: small_job(2, 5),
            deadline_ms: 0,
        });
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        for byte in framed {
            c.stream.write_all(&[byte]).expect("write byte");
            c.stream.flush().expect("flush byte");
        }
        let id = match c.recv() {
            Response::Submitted { job_id } => job_id,
            other => panic!("expected Submitted, got {other:?}"),
        };
        let report = c.wait_report(id);
        assert_eq!(report.job_id, id);

        // Two requests batched into one write: both answered.
        let mut batch = Vec::new();
        write_frame(&mut batch, &encode_request(&Request::Stats)).unwrap();
        write_frame(
            &mut batch,
            &encode_request(&Request::Status {
                tenant: "t".into(),
                job_id: id,
            }),
        )
        .unwrap();
        c.stream.write_all(&batch).expect("write batch");
        c.stream.flush().expect("flush batch");
        let mut saw_stats = false;
        let mut saw_status = false;
        while !(saw_stats && saw_status) {
            match c.recv() {
                Response::StatsReply(_) => saw_stats = true,
                Response::StatusReply { job_id, state } => {
                    assert_eq!(job_id, id);
                    assert_eq!(state, JobState::Done);
                    saw_status = true;
                }
                Response::Report(_) => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_desync_closes() {
        let server = reactor(ReactorConfig::default());
        let mut c = RawClient::connect(server.local_addr());
        // Well-framed unknown verb: typed error, connection survives.
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
        c.send(&Request::Stats);
        match c.recv() {
            Response::StatsReply(_) => {}
            other => panic!("expected StatsReply, got {other:?}"),
        }
        // An oversized length prefix desyncs the stream: one Malformed
        // error frame, then the server closes the connection.
        c.stream
            .write_all(&(proto::MAX_FRAME_LEN + 1).to_le_bytes())
            .unwrap();
        c.stream.flush().unwrap();
        match c.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        }
        let eof = read_frame(&mut c.reader);
        assert!(eof.is_err(), "desynced connection must be closed");
        server.shutdown();
    }

    #[test]
    fn draining_rejects_submits_but_streams_inflight_reports() {
        let server = reactor(one_worker(16, 1024));
        // Long enough (~seconds on one worker) that the drain window is
        // wide open for the late submit below.
        let g = generators::kings_graph(10, 10);
        let mut c = RawClient::connect(server.local_addr());
        let job_id = c.submit("t", &g, small_job(32, 3));
        let drainer = std::thread::spawn(move || server.shutdown());
        std::thread::sleep(Duration::from_millis(100));
        c.send(&Request::Submit {
            tenant: "t".into(),
            graph: g.clone(),
            job: small_job(2, 99),
            deadline_ms: 0,
        });
        match c.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Draining),
            other => panic!("expected Draining rejection, got {other:?}"),
        }
        let report = c.wait_report(job_id);
        assert_eq!(report.job_id, job_id);
        drainer.join().expect("drain completes");
    }

    #[test]
    fn cancelled_jobs_never_stream_and_free_quota() {
        let server = reactor(one_worker(2, 64));
        let g = generators::kings_graph(6, 6);
        let mut c = RawClient::connect(server.local_addr());
        let a = c.submit("t", &g, big_job(1));
        let b = c.submit("t", &g, small_job(4, 2));
        // A third submit exceeds max_inflight_jobs = 2.
        c.send(&Request::Submit {
            tenant: "t".into(),
            graph: g.clone(),
            job: small_job(2, 3),
            deadline_ms: 0,
        });
        match c.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::QuotaInFlight),
            other => panic!("expected quota rejection, got {other:?}"),
        }
        c.send(&Request::Cancel {
            tenant: "t".into(),
            job_id: b,
        });
        match c.recv_reply() {
            Response::CancelReply { job_id, .. } => assert_eq!(job_id, b),
            other => panic!("expected CancelReply, got {other:?}"),
        }
        let report = c.wait_report(a);
        assert_eq!(report.job_id, a);
        // B settles cancelled and its quota slot frees.
        let mut state = JobState::Queued;
        for _ in 0..200 {
            c.send(&Request::Status {
                tenant: "t".into(),
                job_id: b,
            });
            match c.recv() {
                Response::StatusReply { state: s, .. } => state = s,
                Response::Report(r) => panic!("cancelled job streamed a report: {r:?}"),
                other => panic!("unexpected frame {other:?}"),
            }
            if state == JobState::Cancelled {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(state, JobState::Cancelled);
        let c2 = c.submit("t", &g, small_job(2, 4));
        let report = c.wait_report(c2);
        assert_eq!(report.job_id, c2);
        server.shutdown();
    }

    #[test]
    fn tenant_at_inflight_cap_is_rejected_while_others_proceed() {
        let server = reactor(one_worker(1, 64));
        let g = generators::kings_graph(6, 6);
        let mut greedy = RawClient::connect(server.local_addr());
        let mut other = RawClient::connect(server.local_addr());

        // Greedy's first job occupies its whole in-flight quota.
        let first = greedy.submit("greedy", &g, big_job(1));
        // Second submit: typed quota rejection (jobs stay in flight for
        // at least the service time of the first).
        match greedy.try_submit("greedy", &g, small_job(2, 2)) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::QuotaInFlight),
            other => panic!("expected quota rejection, got {other:?}"),
        }
        // A different tenant is unaffected.
        other.submit("modest", &g, small_job(2, 3));
        // After the first job completes, greedy can submit again.
        greedy.wait_report(first);
        greedy.submit("greedy", &g, small_job(2, 4));
        server.shutdown();
    }

    #[test]
    fn lane_quota_counts_lanes_not_jobs() {
        let server = reactor(one_worker(10, 20));
        let g = generators::kings_graph(6, 6);
        let mut c = RawClient::connect(server.local_addr());
        // 16 lanes admitted; 16 + 8 > 20 rejected on the lane axis.
        c.submit("t", &g, big_job(1));
        match c.try_submit("t", &g, small_job(8, 2)) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::QuotaLanes),
            other => panic!("expected lane-quota rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn cancel_is_tenant_scoped_and_status_answers_unknown_ids() {
        let server = reactor(ReactorConfig::default());
        let g = generators::kings_graph(4, 4);
        let mut owner = RawClient::connect(server.local_addr());
        let mut thief = RawClient::connect(server.local_addr());
        let job_id = owner.submit("owner", &g, small_job(2, 1));
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
    fn stats_count_completed_cancelled_and_connections() {
        let server = reactor(one_worker(16, 1024));
        let g = generators::kings_graph(5, 5);
        let mut c = RawClient::connect(server.local_addr());
        let a = c.submit("t", &g, big_job(1));
        let b = c.submit("t", &g, small_job(2, 2));
        c.send(&Request::Cancel {
            tenant: "t".into(),
            job_id: b,
        });
        let Response::CancelReply { .. } = c.recv_reply() else {
            panic!("cancel reply");
        };
        c.wait_report(a);
        // Poll stats until the cancelled job has been observed.
        let mut stats = WireStats::default();
        for _ in 0..200 {
            c.send(&Request::Stats);
            match c.recv_reply() {
                Response::StatsReply(s) => stats = s,
                other => panic!("unexpected frame {other:?}"),
            }
            if stats.jobs_cancelled >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.jobs_cancelled, 1);
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.frontend, FrontendKind::Reactor);
        assert_eq!(server.stats().jobs_completed, 1);
        assert_eq!(server.reports_streamed(), 1);
        server.shutdown();
    }
}
