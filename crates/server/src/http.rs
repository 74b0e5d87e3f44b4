//! HTTP/1.1 + JSON codec: the same session core behind a curl-able
//! transport.
//!
//! The binary wire protocol ([`crate::proto`]) is the efficient path,
//! but it requires a bespoke client. This module serves the identical
//! job semantics — admission, per-tenant quotas, deadlines, cooperative
//! cancellation, graceful drain — over HTTP/1.1 with JSON bodies, so
//! any load balancer, curl script, or metrics scraper can reach the
//! Potts machine. It is a codec, not a server: the event loop of
//! [`crate::reactor`] owns the sockets, feeds each connection's bytes
//! to an incremental [`HttpParser`], and hands every parsed request to
//! this module's router, which decodes the JSON into the same
//! [`Request`]s the binary codec produces and renders the session's
//! answers back as JSON.
//!
//! # Endpoints
//!
//! | method + path        | body                              | answer |
//! |----------------------|-----------------------------------|--------|
//! | `POST /v1/jobs`      | raw graph submit (JSON)           | `202 {"job_id"}` |
//! | `POST /v1/problems`  | one of the nine problem classes   | `202 {"job_id"}` |
//! | `GET /v1/jobs/{id}`  | — (`?tenant=` query)              | state + report once terminal |
//! | `DELETE /v1/jobs/{id}` | — (`?tenant=` query)            | cooperative cancel |
//! | `GET /v1/stats`      | —                                 | the stats registry as JSON |
//! | `GET /metrics`       | —                                 | Prometheus text format |
//!
//! Where the binary protocol *streams* report frames, HTTP *polls*:
//! a submit answers `202` with the job id immediately, and the
//! terminal frame (report, decoded problem report, or typed job
//! failure) is retained server-side for `GET /v1/jobs/{id}` — the same
//! bounded retention discipline as the session's terminal-status
//! window. The retention store is shared by every event loop, so a job
//! submitted on one connection can be polled or cancelled from any
//! other.
//!
//! # Error mapping
//!
//! Typed [`ErrorCode`]s map onto HTTP statuses via [`http_status`]:
//! quota exhaustion answers `429`, a draining server `503`, an expired
//! job deadline `504`, an uncompilable problem spec `422`; malformed
//! bodies are `400`, unknown jobs `404`, other tenants' jobs `403`.
//! Application-level errors are request-scoped — **the connection
//! stays serving** (property-tested: hostile bodies never take the
//! keep-alive connection down). Only framing-level violations
//! (unparseable request line, header caps) close the connection, after
//! a final response.
//!
//! # Parser contract
//!
//! [`HttpParser`] is written to the same bar as [`crate::proto::Decoder`]:
//! fed arbitrary byte chunks, it never panics, is segmentation-invariant
//! (byte-dribbled and batched input decode to the same request
//! sequence), and enforces caps before allocating — request line
//! (`414`), header section (`431`), body length (`413`, recoverable:
//! the oversized body is discarded and the connection resyncs at its
//! end).

use crate::lock_unpoisoned;
use crate::proto::{self, ErrorCode, Request, Response, WireLane, WireProblemReport, WireReport};
use crate::session::SessionCore;
use msropm_core::{BatchJob, MsropmConfig, ReinitMode};
use msropm_graph::Graph;
use msropm_problems::json::{self, Json};
use msropm_problems::{DecodedLane, DecodedSolution, ProblemClass, ProblemError, ProblemSpec};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Longest accepted request line (method + target + version), bytes.
pub const MAX_REQUEST_LINE: usize = 8 << 10;

/// Cap on the summed header-line bytes of one request.
pub const MAX_HEADER_BYTES: usize = 32 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 128;

/// Largest accepted request body (same cap as a binary wire frame).
pub const MAX_BODY_LEN: u64 = proto::MAX_FRAME_LEN as u64;

/// Maps a typed wire error onto its HTTP status.
pub fn http_status(code: ErrorCode) -> u16 {
    match code {
        ErrorCode::Malformed => 400,
        ErrorCode::UnsupportedVerb => 405,
        ErrorCode::QuotaInFlight | ErrorCode::QuotaLanes => 429,
        ErrorCode::ShuttingDown | ErrorCode::Busy | ErrorCode::Draining => 503,
        ErrorCode::UnknownJob => 404,
        ErrorCode::Forbidden => 403,
        ErrorCode::DeadlineExceeded => 504,
        ErrorCode::Internal => 500,
        ErrorCode::UnsupportedProblem => 422,
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

// ---------------------------------------------------------------------
// Incremental request parser
// ---------------------------------------------------------------------

/// One fully parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, as sent (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Target path, query string excluded.
    pub path: String,
    /// Raw query string (empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request after this one.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First value of a header by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A parse failure: the HTTP status to answer with, a reason, and
/// whether the connection is desynced (`fatal`: respond then close) or
/// can resync and keep serving (`413` with a known body length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpParseError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Human-readable detail.
    pub reason: String,
    /// `true` when request framing is lost and the connection must
    /// close after the error response.
    pub fatal: bool,
}

impl HttpParseError {
    fn fatal(status: u16, reason: impl Into<String>) -> HttpParseError {
        HttpParseError {
            status,
            reason: reason.into(),
            fatal: true,
        }
    }
}

struct Partial {
    method: String,
    path: String,
    query: String,
    version_keep_alive: bool,
    headers: Vec<(String, String)>,
    header_bytes: usize,
}

enum ParseState {
    Line,
    Headers(Box<Partial>),
    Body(Box<Partial>, usize),
    /// Discarding the body of an already-rejected oversized request;
    /// framing resyncs at its end.
    Skip(u64),
}

/// Incremental, panic-free HTTP/1.1 request parser; see the module
/// docs. Fed with [`HttpParser::push`], drained with
/// [`HttpParser::next_request`] — the same shape as
/// [`crate::proto::Decoder`].
pub struct HttpParser {
    buf: Vec<u8>,
    pos: usize,
    state: ParseState,
    poisoned: bool,
}

impl Default for HttpParser {
    fn default() -> Self {
        HttpParser::new()
    }
}

impl HttpParser {
    /// A fresh parser with no buffered bytes.
    pub fn new() -> HttpParser {
        HttpParser {
            buf: Vec::new(),
            pos: 0,
            state: ParseState::Line,
            poisoned: false,
        }
    }

    /// Appends raw transport bytes (any split).
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily, like the frame decoder: shift the live tail
        // down once the consumed prefix dominates.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet consumed by returned requests.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn avail(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Takes the next `\n`-terminated line (stripping an optional
    /// trailing `\r`); `None` when incomplete. Fails once the
    /// unterminated prefix exceeds `cap`.
    fn take_line(
        &mut self,
        cap: usize,
        over: HttpParseError,
    ) -> Result<Option<String>, HttpParseError> {
        let avail = self.avail();
        match avail.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if i > cap {
                    return Err(over);
                }
                let mut line = &avail[..i];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                let text = std::str::from_utf8(line)
                    .map_err(|_| HttpParseError::fatal(400, "non-UTF-8 in request head"))?
                    .to_string();
                self.pos += i + 1;
                Ok(Some(text))
            }
            None if avail.len() > cap => Err(over),
            None => Ok(None),
        }
    }

    /// Extracts the next complete request, `Ok(None)` when more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// A fatal [`HttpParseError`] is sticky: the framing is lost and
    /// every later call repeats it. A non-fatal one (`413`) leaves the
    /// parser discarding the rejected body; parsing resumes at the
    /// next request boundary.
    pub fn next_request(&mut self) -> Result<Option<HttpRequest>, HttpParseError> {
        if self.poisoned {
            return Err(HttpParseError::fatal(400, "connection desynced"));
        }
        loop {
            match std::mem::replace(&mut self.state, ParseState::Line) {
                ParseState::Line => {
                    let line = match self.take_line(
                        MAX_REQUEST_LINE,
                        HttpParseError::fatal(414, "request line too long"),
                    ) {
                        Ok(Some(line)) => line,
                        Ok(None) => return Ok(None),
                        Err(e) => return self.poison(e),
                    };
                    // Tolerate blank line(s) before the request line
                    // (RFC 9112 §2.2 robustness).
                    if line.is_empty() {
                        continue;
                    }
                    match Self::parse_request_line(&line) {
                        Ok(partial) => self.state = ParseState::Headers(Box::new(partial)),
                        Err(e) => return self.poison(e),
                    }
                }
                ParseState::Headers(mut partial) => {
                    let line = match self.take_line(
                        MAX_HEADER_BYTES,
                        HttpParseError::fatal(431, "header line too long"),
                    ) {
                        Ok(Some(line)) => line,
                        Ok(None) => {
                            self.state = ParseState::Headers(partial);
                            return Ok(None);
                        }
                        Err(e) => return self.poison(e),
                    };
                    if line.is_empty() {
                        match Self::finish_headers(*partial) {
                            Ok((req, body_len)) => {
                                if body_len > MAX_BODY_LEN {
                                    // Recoverable: the caller answers
                                    // 413 while the parser discards
                                    // exactly `body_len` bytes, then
                                    // the connection keeps serving.
                                    self.state = ParseState::Skip(body_len);
                                    return Err(HttpParseError {
                                        status: 413,
                                        reason: format!(
                                            "body of {body_len} bytes exceeds cap {MAX_BODY_LEN}"
                                        ),
                                        fatal: false,
                                    });
                                }
                                if body_len == 0 {
                                    return Ok(Some(req));
                                }
                                self.state = ParseState::Body(
                                    Box::new(Self::reopen(req)),
                                    body_len as usize,
                                );
                            }
                            Err(e) => return self.poison(e),
                        }
                    } else {
                        if let Err(e) = Self::push_header(&mut partial, &line) {
                            return self.poison(e);
                        }
                        self.state = ParseState::Headers(partial);
                    }
                }
                ParseState::Body(partial, need) => {
                    if self.avail().len() < need {
                        self.state = ParseState::Body(partial, need);
                        return Ok(None);
                    }
                    let body = self.avail()[..need].to_vec();
                    self.pos += need;
                    let mut req = Self::complete(*partial);
                    req.body = body;
                    return Ok(Some(req));
                }
                ParseState::Skip(remaining) => {
                    let take = (self.avail().len() as u64).min(remaining);
                    self.pos += take as usize;
                    let left = remaining - take;
                    if left > 0 {
                        self.state = ParseState::Skip(left);
                        return Ok(None);
                    }
                }
            }
        }
    }

    fn poison(&mut self, e: HttpParseError) -> Result<Option<HttpRequest>, HttpParseError> {
        self.poisoned = true;
        Err(e)
    }

    fn parse_request_line(line: &str) -> Result<Partial, HttpParseError> {
        let mut parts = line.split(' ').filter(|p| !p.is_empty());
        let (Some(method), Some(target), Some(version), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpParseError::fatal(400, "malformed request line"));
        };
        if method.is_empty() || method.len() > 16 || !method.bytes().all(|b| b.is_ascii_uppercase())
        {
            return Err(HttpParseError::fatal(400, "malformed method"));
        }
        let version_keep_alive = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return Err(HttpParseError::fatal(505, "unsupported HTTP version")),
        };
        if !target.starts_with('/') {
            return Err(HttpParseError::fatal(
                400,
                "target must be an absolute path",
            ));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        Ok(Partial {
            method: method.to_string(),
            path,
            query,
            version_keep_alive,
            headers: Vec::new(),
            header_bytes: 0,
        })
    }

    fn push_header(partial: &mut Partial, line: &str) -> Result<(), HttpParseError> {
        partial.header_bytes += line.len();
        if partial.header_bytes > MAX_HEADER_BYTES {
            return Err(HttpParseError::fatal(431, "header section too large"));
        }
        if partial.headers.len() >= MAX_HEADERS {
            return Err(HttpParseError::fatal(431, "too many header fields"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpParseError::fatal(400, "header line without ':'"));
        };
        if name.is_empty()
            || name
                .bytes()
                .any(|b| b <= b' ' || b == b'(' || b == b')' || !b.is_ascii_graphic())
        {
            return Err(HttpParseError::fatal(400, "malformed header name"));
        }
        partial
            .headers
            .push((name.to_ascii_lowercase(), value.trim().to_string()));
        Ok(())
    }

    /// Validates the header section and resolves body framing; returns
    /// the (bodiless) request plus its announced body length.
    fn finish_headers(partial: Partial) -> Result<(HttpRequest, u64), HttpParseError> {
        fn values<'a>(
            headers: &'a [(String, String)],
            name: &'a str,
        ) -> impl Iterator<Item = &'a String> + 'a {
            headers
                .iter()
                .filter(move |(n, _)| n == name)
                .map(|(_, v)| v)
        }
        let find_all = |name: &'static str| values(&partial.headers, name);
        if find_all("transfer-encoding").next().is_some() {
            return Err(HttpParseError::fatal(
                501,
                "transfer-encoding not supported",
            ));
        }
        let mut body_len = 0u64;
        let mut seen: Option<&str> = None;
        for value in find_all("content-length") {
            if seen.is_some_and(|prev| prev != value) {
                return Err(HttpParseError::fatal(400, "conflicting content-length"));
            }
            seen = Some(value);
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpParseError::fatal(400, "malformed content-length"));
            }
            // A digits-only value too large for u128 is over any cap.
            body_len = value
                .parse::<u128>()
                .map(|v| v.min(u64::MAX as u128) as u64)
                .unwrap_or(u64::MAX);
        }
        let keep_alive = {
            let connection = find_all("connection")
                .map(|v| v.to_ascii_lowercase())
                .collect::<Vec<_>>()
                .join(",");
            if connection.split(',').any(|t| t.trim() == "close") {
                false
            } else if connection.split(',').any(|t| t.trim() == "keep-alive") {
                true
            } else {
                partial.version_keep_alive
            }
        };
        let req = HttpRequest {
            method: partial.method,
            path: partial.path,
            query: partial.query,
            headers: partial.headers,
            body: Vec::new(),
            keep_alive,
        };
        Ok((req, body_len))
    }

    fn reopen(req: HttpRequest) -> Partial {
        Partial {
            method: req.method,
            path: req.path,
            query: req.query,
            version_keep_alive: req.keep_alive,
            headers: req.headers,
            header_bytes: 0,
        }
    }

    fn complete(partial: Partial) -> HttpRequest {
        HttpRequest {
            method: partial.method,
            path: partial.path,
            query: partial.query,
            headers: partial.headers,
            body: Vec::new(),
            keep_alive: partial.version_keep_alive,
        }
    }
}

// ---------------------------------------------------------------------
// Query strings
// ---------------------------------------------------------------------

/// Percent-decodes one query component (`+` is a space); `None` on a
/// truncated or non-hex escape or non-UTF-8 result.
fn pct_decode(s: &str) -> Option<String> {
    let raw = s.as_bytes();
    let mut out = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        match raw[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hi = raw.get(i + 1).and_then(|b| (*b as char).to_digit(16))?;
                let lo = raw.get(i + 2).and_then(|b| (*b as char).to_digit(16))?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// First value of `key` in a raw query string, percent-decoded.
fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (pct_decode(k).as_deref() == Some(key)).then(|| pct_decode(v))?
    })
}

// ---------------------------------------------------------------------
// JSON request decoding
// ---------------------------------------------------------------------

/// A request-scoped API failure: the HTTP status, the wire-level error
/// code it corresponds to, and a message. Always answered on a live
/// connection.
struct ApiError {
    status: u16,
    code: ErrorCode,
    message: String,
}

fn bad(message: impl Into<String>) -> ApiError {
    ApiError {
        status: 400,
        code: ErrorCode::Malformed,
        message: message.into(),
    }
}

fn unsupported(message: impl Into<String>) -> ApiError {
    ApiError {
        status: 422,
        code: ErrorCode::UnsupportedProblem,
        message: message.into(),
    }
}

fn not_found(message: impl Into<String>) -> ApiError {
    ApiError {
        status: 404,
        code: ErrorCode::UnknownJob,
        message: message.into(),
    }
}

fn method_not_allowed() -> ApiError {
    ApiError {
        status: 405,
        code: ErrorCode::UnsupportedVerb,
        message: "method not allowed for this path".into(),
    }
}

/// The JSON error body every failure path renders:
/// `{"error": <name>, "code": <wire code>, "message": <detail>}`.
pub(crate) fn error_body(code: ErrorCode, message: &str) -> Json {
    Json::Obj(vec![
        ("error".into(), Json::Str(code.to_string())),
        ("code".into(), Json::Num(code as u16 as f64)),
        ("message".into(), Json::Str(message.into())),
    ])
}

fn parse_json_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    json::parse(text).map_err(|e| bad(format!("invalid JSON: {e}")))
}

fn as_obj(j: &Json) -> Result<&[(String, Json)], ApiError> {
    match j {
        Json::Obj(fields) => Ok(fields),
        _ => Err(bad("expected a JSON object")),
    }
}

fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Optional unsigned integer field; accepts a JSON number or (for
/// full-width u64s such as seeds) a decimal string.
fn get_u64(fields: &[(String, Json)], key: &str) -> Result<Option<u64>, ApiError> {
    match get(fields, key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            bad(format!(
                "field \"{key}\" must be an unsigned integer (number or decimal string)"
            ))
        }),
    }
}

fn get_tenant(fields: &[(String, Json)]) -> Result<String, ApiError> {
    let tenant = get(fields, "tenant")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"tenant\" string"))?;
    if tenant.is_empty() || tenant.len() > proto::MAX_TENANT_LEN {
        return Err(bad(format!(
            "tenant must be 1..={} bytes",
            proto::MAX_TENANT_LEN
        )));
    }
    Ok(tenant.to_string())
}

fn get_f64(value: &Json, key: &str) -> Result<f64, ApiError> {
    match value {
        Json::Num(x) => Ok(*x),
        _ => Err(bad(format!("config field \"{key}\" must be a number"))),
    }
}

fn get_finite_nonneg(value: &Json, key: &str) -> Result<f64, ApiError> {
    let x = get_f64(value, key)?;
    if !x.is_finite() || x < 0.0 {
        return Err(bad(format!(
            "config field \"{key}\" must be finite and non-negative"
        )));
    }
    Ok(x)
}

fn parse_reinit(value: &Json) -> Result<ReinitMode, ApiError> {
    let fields = as_obj(value)?;
    let mode = get(fields, "mode")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("reinit needs a \"mode\" string"))?;
    match mode {
        "uniform" => Ok(ReinitMode::UniformRandom),
        "jitter-drift" => {
            let sigma = match get(fields, "sigma") {
                None | Some(Json::Null) => 0.0,
                Some(v) => get_finite_nonneg(v, "sigma")?,
            };
            Ok(ReinitMode::JitterDrift { sigma })
        }
        other => Err(bad(format!(
            "reinit mode \"{other}\" is not \"uniform\" or \"jitter-drift\""
        ))),
    }
}

/// Overrides [`MsropmConfig::paper_default`] field-by-field from a JSON
/// object, with the same validation the binary decoder applies
/// (`num_colors` a power of two ≥ 2, f64 knobs finite and non-negative,
/// `dt` positive). Unknown keys are a `400` — a typoed knob must not
/// silently run at the default.
fn parse_config(value: &Json) -> Result<MsropmConfig, ApiError> {
    let fields = as_obj(value)?;
    let mut c = MsropmConfig::paper_default();
    for (key, v) in fields {
        match key.as_str() {
            "num_colors" => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| bad("num_colors must be an unsigned integer"))?
                    as usize;
                if n < 2 || !n.is_power_of_two() || n > u16::MAX as usize + 1 {
                    return Err(bad("num_colors must be a power of two in [2, 65536]"));
                }
                c.num_colors = n;
            }
            "coupling_strength" => c.coupling_strength = get_finite_nonneg(v, key)?,
            "shil_strength" => c.shil_strength = get_finite_nonneg(v, key)?,
            "noise" => c.noise = get_finite_nonneg(v, key)?,
            "frequency_spread" => c.frequency_spread = get_finite_nonneg(v, key)?,
            "t_init" => c.t_init = get_finite_nonneg(v, key)?,
            "t_anneal" => c.t_anneal = get_finite_nonneg(v, key)?,
            "t_lock" => c.t_lock = get_finite_nonneg(v, key)?,
            "dt" => {
                let x = get_f64(v, key)?;
                if !x.is_finite() || x <= 0.0 {
                    return Err(bad("dt must be positive and finite"));
                }
                c.dt = x;
            }
            "shil_ramp" => {
                c.shil_ramp = v
                    .as_bool()
                    .ok_or_else(|| bad("shil_ramp must be a boolean"))?;
            }
            "reinit" => c.reinit = parse_reinit(v)?,
            "backend" => {
                let name = v.as_str().ok_or_else(|| bad("backend must be a string"))?;
                c.backend = msropm_core::KernelBackend::from_name(name).ok_or_else(|| {
                    bad(format!("backend \"{name}\" is not \"f64\" or \"fixed\""))
                })?;
            }
            other => return Err(bad(format!("unknown config field \"{other}\""))),
        }
    }
    Ok(c)
}

fn get_config(fields: &[(String, Json)]) -> Result<MsropmConfig, ApiError> {
    match get(fields, "config") {
        None | Some(Json::Null) => Ok(MsropmConfig::paper_default()),
        Some(value) => parse_config(value),
    }
}

fn get_replicas(fields: &[(String, Json)]) -> Result<usize, ApiError> {
    let replicas = get_u64(fields, "replicas")?.unwrap_or(1);
    if replicas == 0 || replicas > proto::MAX_JOB_LANES as u64 {
        return Err(bad(format!(
            "replicas must be 1..={}",
            proto::MAX_JOB_LANES
        )));
    }
    Ok(replicas as usize)
}

fn parse_graph(value: &Json) -> Result<Graph, ApiError> {
    let fields = as_obj(value)?;
    let nodes = get_u64(fields, "nodes")?.ok_or_else(|| bad("graph needs a \"nodes\" count"))?;
    // The node cap both codecs share: a few bytes of JSON must not drive
    // a multi-GB adjacency allocation.
    if nodes > proto::MAX_GRAPH_NODES as u64 {
        return Err(bad(format!(
            "graph exceeds the gateway cap of {} nodes",
            proto::MAX_GRAPH_NODES
        )));
    }
    let Some(Json::Arr(edges)) = get(fields, "edges") else {
        return Err(bad("graph needs an \"edges\" array"));
    };
    let mut pairs = Vec::with_capacity(edges.len());
    for edge in edges {
        let Json::Arr(pair) = edge else {
            return Err(bad("each edge must be a [u, v] pair"));
        };
        let (Some(u), Some(v)) = (
            pair.first().and_then(Json::as_u64),
            pair.get(1).and_then(Json::as_u64),
        ) else {
            return Err(bad("each edge must be a [u, v] pair of node indices"));
        };
        if pair.len() != 2 {
            return Err(bad("each edge must be a [u, v] pair"));
        }
        pairs.push((u as usize, v as usize));
    }
    Graph::from_edges(nodes as usize, pairs).map_err(|e| bad(format!("bad graph: {e}")))
}

/// Decodes a `POST /v1/jobs` body into a raw submit.
fn parse_submit_job(body: &[u8]) -> Result<Request, ApiError> {
    let j = parse_json_body(body)?;
    let fields = as_obj(&j)?;
    let tenant = get_tenant(fields)?;
    let graph = parse_graph(get(fields, "graph").ok_or_else(|| bad("missing \"graph\""))?)?;
    let replicas = get_replicas(fields)?;
    let seed = get_u64(fields, "seed")?.unwrap_or(0);
    let deadline_ms = get_u64(fields, "deadline_ms")?.unwrap_or(0);
    let config = get_config(fields)?;
    Ok(Request::Submit {
        tenant,
        graph,
        job: BatchJob::uniform(config, replicas, seed),
        deadline_ms,
    })
}

/// Decodes a `POST /v1/problems` body into a typed problem submission.
/// The `input` text is the class's native format (DIMACS `.col`,
/// DIMACS CNF, weight list, QUBO/Ising JSON), exactly as `solve_remote`
/// reads from disk.
fn parse_submit_problem(body: &[u8]) -> Result<Request, ApiError> {
    let j = parse_json_body(body)?;
    let fields = as_obj(&j)?;
    let tenant = get_tenant(fields)?;
    let class_name = get(fields, "class")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"class\" string"))?;
    let class = ProblemClass::from_name(class_name)
        .ok_or_else(|| unsupported(format!("unknown problem class \"{class_name}\"")))?;
    let input = get(fields, "input")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"input\" text"))?;
    let k = get_u64(fields, "k")?.unwrap_or(0);
    if k > u16::MAX as u64 {
        return Err(bad("k out of range"));
    }
    let spec = ProblemSpec::from_text(class, input, k as u16).map_err(|e| match e {
        ProblemError::Parse(msg) => bad(format!("cannot parse {} input: {msg}", class.name())),
        ProblemError::Unsupported(msg) => unsupported(msg),
    })?;
    let replicas = get_replicas(fields)?;
    let seed = get_u64(fields, "seed")?.unwrap_or(0);
    let deadline_ms = get_u64(fields, "deadline_ms")?.unwrap_or(0);
    let config = get_config(fields)?;
    Ok(Request::SubmitProblem {
        tenant,
        spec,
        config,
        replicas: replicas as u32,
        seed,
        deadline_ms,
    })
}

// ---------------------------------------------------------------------
// JSON response rendering
// ---------------------------------------------------------------------
//
// Full-width u64 fields (hashes, fingerprints, seeds) travel as decimal
// strings — a JSON number is an f64 and drops bits past 2^53. Timing
// and count fields stay numbers. f64 payloads (accuracy, objective) are
// bit-exact through the shortest-round-trip `Display`.

fn lane_json(lane: &WireLane) -> Json {
    Json::Obj(vec![
        ("lane".into(), Json::Num(lane.lane as f64)),
        ("seed".into(), Json::u64_str(lane.seed)),
        ("conflicts".into(), Json::Num(lane.conflicts as f64)),
        ("accuracy".into(), Json::Num(lane.accuracy)),
        (
            "coloring".into(),
            Json::Arr(lane.coloring.iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
    ])
}

fn report_json(report: &WireReport) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::Str("report".into())),
        ("job_id".into(), Json::Num(report.job_id as f64)),
        ("graph_hash".into(), Json::u64_str(report.graph_hash)),
        ("seed".into(), Json::u64_str(report.seed)),
        ("queued_us".into(), Json::Num(report.queued_us as f64)),
        ("service_us".into(), Json::Num(report.service_us as f64)),
        (
            "ranked".into(),
            Json::Arr(report.ranked.iter().map(lane_json).collect()),
        ),
    ])
}

fn solution_json(solution: &DecodedSolution) -> Json {
    let (kind, values) = match solution {
        DecodedSolution::Coloring(colors) => (
            "coloring",
            colors.iter().map(|&c| Json::Num(c as f64)).collect(),
        ),
        DecodedSolution::CutSides(sides) => {
            ("cut_sides", sides.iter().map(|&b| Json::Bool(b)).collect())
        }
        DecodedSolution::Subset(members) => (
            "subset",
            members.iter().map(|&v| Json::Num(v as f64)).collect(),
        ),
        DecodedSolution::Partition(sides) => {
            ("partition", sides.iter().map(|&b| Json::Bool(b)).collect())
        }
        DecodedSolution::Assignment(truth) => {
            ("assignment", truth.iter().map(|&b| Json::Bool(b)).collect())
        }
        DecodedSolution::Spins(spins) => ("spins", spins.iter().map(|&b| Json::Bool(b)).collect()),
    };
    Json::Obj(vec![
        ("kind".into(), Json::Str(kind.into())),
        ("values".into(), Json::Arr(values)),
    ])
}

fn decoded_lane_json(lane: &DecodedLane) -> Json {
    Json::Obj(vec![
        ("lane".into(), Json::Num(lane.lane as f64)),
        ("seed".into(), Json::u64_str(lane.seed)),
        ("objective".into(), Json::Num(lane.objective)),
        ("feasible".into(), Json::Bool(lane.feasible)),
        ("solution".into(), solution_json(&lane.solution)),
    ])
}

fn problem_report_json(report: &WireProblemReport) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::Str("problem_report".into())),
        ("job_id".into(), Json::Num(report.job_id as f64)),
        ("queued_us".into(), Json::Num(report.queued_us as f64)),
        ("service_us".into(), Json::Num(report.service_us as f64)),
        ("class".into(), Json::Str(report.report.class.name().into())),
        (
            "problem_fingerprint".into(),
            Json::u64_str(report.report.problem_fingerprint),
        ),
        ("graph_hash".into(), Json::u64_str(report.report.graph_hash)),
        ("seed".into(), Json::u64_str(report.report.seed)),
        (
            "ranked".into(),
            Json::Arr(report.report.ranked.iter().map(decoded_lane_json).collect()),
        ),
    ])
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// Most terminal frames retained for `GET /v1/jobs/{id}` — matches the
/// session registry's terminal-status window, so a pollable report
/// outlives neither its status entry nor this cap.
const TERMINAL_FRAMES_RETAINED: usize = 4096;

/// A terminal frame retained for polling; `served` dedupes the
/// reports-streamed accounting across repeated GETs.
struct TerminalEntry {
    frame: Option<Vec<u8>>,
    served: bool,
}

/// Bounded job-id-keyed retention of terminal frames (the pre-encoded
/// binary frame; `None` for a cancelled job). HTTP being poll-based,
/// completions are keyed by job id — not by connection — so the
/// submitting connection may die and any later connection of the same
/// tenant, on any event loop, can still collect the report.
#[derive(Default)]
pub(crate) struct TerminalStore {
    entries: HashMap<u64, TerminalEntry>,
    order: VecDeque<u64>,
}

impl TerminalStore {
    /// Files a job's terminal frame (the HTTP codec's deliver callback).
    pub(crate) fn insert(&mut self, job_id: u64, frame: Option<Vec<u8>>) {
        if self
            .entries
            .insert(
                job_id,
                TerminalEntry {
                    frame,
                    served: false,
                },
            )
            .is_none()
        {
            self.order.push_back(job_id);
        }
        while self.order.len() > TERMINAL_FRAMES_RETAINED {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
    }
}

/// Appends one HTTP/1.1 response (head + body) to `out`; `close`
/// advertises `connection: close`.
pub(crate) fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) {
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\n{}\r\n",
        status_text(status),
        body.len(),
        if close { "connection: close\r\n" } else { "" }
    );
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
}

/// Answers one parsed request: `(status, content type, body)`.
/// `dispatch` runs a decoded [`Request`] through the session on the
/// requesting connection's event loop; `terminals` holds the frames
/// that `GET /v1/jobs/{id}` serves.
pub(crate) fn answer(
    req: &HttpRequest,
    core: &SessionCore,
    terminals: &Mutex<TerminalStore>,
    dispatch: impl FnMut(Request) -> Response,
) -> (u16, &'static str, Vec<u8>) {
    if (req.method.as_str(), req.path.as_str()) == ("GET", "/metrics") {
        let text = core.stats_registry().render_prometheus();
        return (200, "text/plain; version=0.0.4", text.into_bytes());
    }
    let (status, body) = route(req, core, terminals, dispatch)
        .unwrap_or_else(|e| (e.status, error_body(e.code, &e.message)));
    (status, "application/json", body.render().into_bytes())
}

/// The JSON endpoints of the table in the module docs.
fn route(
    req: &HttpRequest,
    core: &SessionCore,
    terminals: &Mutex<TerminalStore>,
    mut dispatch: impl FnMut(Request) -> Response,
) -> Result<(u16, Json), ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/jobs") => Ok(submit_reply(dispatch(parse_submit_job(&req.body)?))),
        ("POST", "/v1/problems") => Ok(submit_reply(dispatch(parse_submit_problem(&req.body)?))),
        ("GET", "/v1/stats") => {
            let registry = core.stats_registry();
            let counters = registry
                .iter()
                .map(|(def, value)| (def.name.to_string(), Json::Num(value as f64)))
                .collect();
            Ok((
                200,
                Json::Obj(vec![
                    (
                        "frontend".into(),
                        Json::Str(registry.frontend().to_string()),
                    ),
                    ("counters".into(), Json::Obj(counters)),
                ]),
            ))
        }
        (method, path) if path.starts_with("/v1/jobs/") => {
            let job_id = path["/v1/jobs/".len()..]
                .parse::<u64>()
                .map_err(|_| not_found("no such job resource"))?;
            let tenant = query_param(&req.query, "tenant")
                .ok_or_else(|| bad("missing \"tenant\" query parameter"))?;
            match method {
                "GET" => Ok(job_status(
                    dispatch(Request::Status { tenant, job_id }),
                    job_id,
                    core,
                    terminals,
                )),
                "DELETE" => Ok(job_cancel(dispatch(Request::Cancel { tenant, job_id }))),
                _ => Err(method_not_allowed()),
            }
        }
        (_, "/v1/jobs" | "/v1/problems" | "/v1/stats" | "/metrics") => Err(method_not_allowed()),
        _ => Err(not_found("no such resource")),
    }
}

/// Maps a submit reply: `Submitted` → `202`, typed errors → their
/// status.
fn submit_reply(resp: Response) -> (u16, Json) {
    match resp {
        Response::Submitted { job_id } => (
            202,
            Json::Obj(vec![("job_id".into(), Json::Num(job_id as f64))]),
        ),
        Response::Error { code, message } => (http_status(code), error_body(code, &message)),
        _ => (
            500,
            error_body(ErrorCode::Internal, "unexpected submit reply"),
        ),
    }
}

/// `GET /v1/jobs/{id}`: the session's status answer, upgraded with the
/// retained terminal frame once there is one. A terminal `JobFailed`
/// answers with the failure's mapped status (`504` for an expired
/// deadline).
fn job_status(
    resp: Response,
    job_id: u64,
    core: &SessionCore,
    terminals: &Mutex<TerminalStore>,
) -> (u16, Json) {
    let mut state = match resp {
        Response::StatusReply { state, .. } => state,
        Response::Error { code, message } => {
            return (http_status(code), error_body(code, &message))
        }
        _ => {
            return (
                500,
                error_body(ErrorCode::Internal, "unexpected status reply"),
            );
        }
    };
    let filed = lock_unpoisoned(terminals)
        .entries
        .get_mut(&job_id)
        .map(|entry| {
            (
                entry.frame.clone(),
                !std::mem::replace(&mut entry.served, true),
            )
        });
    // `done`/`failed` promise a report (or typed error) in the same
    // body, but the worker flips the status cell before its completion
    // hook files the frame. If the frame is still in flight, answer
    // `running` — the next poll will see both flip together.
    if matches!(state, crate::JobState::Done | crate::JobState::Failed) && filed.is_none() {
        state = crate::JobState::Running;
    }
    let mut fields = vec![
        ("job_id".into(), Json::Num(job_id as f64)),
        ("state".into(), Json::Str(state.to_string())),
    ];
    if let Some((frame, first_serve)) = filed {
        let report = match frame.as_deref().map(proto::decode_response) {
            Some(Ok(Response::Report(report))) => report_json(&report),
            Some(Ok(Response::ProblemReport(report))) => problem_report_json(&report),
            Some(Ok(Response::JobFailed { code, message, .. })) => {
                fields.push(("error".into(), error_body(code, &message)));
                return (http_status(code), Json::Obj(fields));
            }
            Some(_) => {
                return (
                    500,
                    error_body(ErrorCode::Internal, "corrupt terminal frame"),
                );
            }
            // A cancelled job retains no frame; the state already says
            // "cancelled".
            None => return (200, Json::Obj(fields)),
        };
        if first_serve {
            core.note_report_streamed();
        }
        fields.push(("report".into(), report));
    }
    (200, Json::Obj(fields))
}

/// `DELETE /v1/jobs/{id}`: cooperative cancel through the session.
fn job_cancel(resp: Response) -> (u16, Json) {
    match resp {
        Response::CancelReply { job_id, state } => (
            200,
            Json::Obj(vec![
                ("job_id".into(), Json::Num(job_id as f64)),
                ("state".into(), Json::Str(state.to_string())),
            ]),
        ),
        Response::Error { code, message } => (http_status(code), error_body(code, &message)),
        _ => (
            500,
            error_body(ErrorCode::Internal, "unexpected cancel reply"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FrontendKind;
    use crate::reactor::ReactorConfig;
    use crate::{Frontend, ServerConfig, ShardPolicy, WireConfig};
    use std::io::{Read as _, Write as _};
    use std::net::{SocketAddr, TcpStream};
    use std::thread;
    use std::time::{Duration, Instant};

    fn http_config(workers: usize, max_inflight: usize, max_connections: usize) -> ReactorConfig {
        ReactorConfig {
            wire: WireConfig {
                server: ServerConfig {
                    workers,
                    queue_capacity: 32,
                    cache_capacity: 4,
                    shards: ShardPolicy::Fixed(1),
                    ..ServerConfig::default()
                },
                max_inflight_jobs: max_inflight,
                max_queued_lanes: 1024,
                max_connections,
            },
            ..ReactorConfig::default()
        }
    }

    fn bind(config: ReactorConfig) -> Frontend {
        Frontend::bind("127.0.0.1:0", FrontendKind::Http, config).expect("bind ephemeral port")
    }

    fn server(workers: usize) -> Frontend {
        bind(http_config(workers, 32, 8))
    }

    /// Minimal blocking test client: one request at a time over a
    /// keep-alive connection.
    struct TestClient {
        stream: TcpStream,
    }

    fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        haystack.windows(needle.len()).position(|w| w == needle)
    }

    impl TestClient {
        fn connect(addr: SocketAddr) -> TestClient {
            TestClient {
                stream: TcpStream::connect(addr).expect("connect"),
            }
        }

        fn send_raw(&mut self, bytes: &[u8]) {
            self.stream.write_all(bytes).expect("send request");
        }

        fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
            let body = body.unwrap_or("");
            let req = format!(
                "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            self.send_raw(req.as_bytes());
            self.read_response().expect("response")
        }

        /// Reads one response; `None` on a clean EOF before any byte.
        fn read_response(&mut self) -> Option<(u16, String)> {
            let mut buf = Vec::new();
            let mut tmp = [0u8; 4096];
            let header_end = loop {
                if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
                    break pos + 4;
                }
                let n = self.stream.read(&mut tmp).expect("read head");
                if n == 0 {
                    assert!(buf.is_empty(), "connection died mid-response");
                    return None;
                }
                buf.extend_from_slice(&tmp[..n]);
            };
            let head = std::str::from_utf8(&buf[..header_end]).expect("utf8 head");
            let status: u16 = head
                .split(' ')
                .nth(1)
                .expect("status code")
                .parse()
                .expect("numeric status");
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().expect("numeric content-length"))
                })
                .unwrap_or(0);
            while buf.len() < header_end + content_length {
                let n = self.stream.read(&mut tmp).expect("read body");
                assert!(n > 0, "connection died mid-body");
                buf.extend_from_slice(&tmp[..n]);
            }
            let body = String::from_utf8(buf[header_end..header_end + content_length].to_vec())
                .expect("utf8 body");
            (status, body).into()
        }
    }

    fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(fields) = j else {
            panic!("expected object, got {j:?}");
        };
        get(fields, key).unwrap_or_else(|| panic!("missing field {key} in {j:?}"))
    }

    fn parse_body(body: &str) -> Json {
        json::parse(body).expect("valid JSON body")
    }

    fn job_id_of(body: &str) -> u64 {
        field(&parse_body(body), "job_id").as_u64().expect("job_id")
    }

    fn state_of(j: &Json) -> String {
        field(j, "state")
            .as_str()
            .expect("state string")
            .to_string()
    }

    /// Polls `GET /v1/jobs/{id}` until the job leaves queued/running.
    fn poll_terminal(client: &mut TestClient, job_id: u64) -> (u16, Json) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, body) =
                client.request("GET", &format!("/v1/jobs/{job_id}?tenant=t"), None);
            let j = parse_body(&body);
            if status != 200 {
                return (status, j);
            }
            let state = state_of(&j);
            if state != "queued" && state != "running" {
                return (status, j);
            }
            assert!(
                Instant::now() < deadline,
                "job {job_id} never went terminal"
            );
            thread::sleep(Duration::from_millis(5));
        }
    }

    const MAXCUT_DIMACS: &str = "p edge 4 5\ne 1 2\ne 2 3\ne 3 4\ne 4 1\ne 1 3\n";

    fn problem_body(class: &str, input: &str, extra_config: Vec<(String, Json)>) -> String {
        let mut config = vec![("dt".into(), Json::Num(0.02))];
        config.extend(extra_config);
        Json::Obj(vec![
            ("tenant".into(), Json::Str("t".into())),
            ("class".into(), Json::Str(class.into())),
            ("input".into(), Json::Str(input.into())),
            ("replicas".into(), Json::Num(2.0)),
            ("seed".into(), Json::u64_str(7)),
            ("config".into(), Json::Obj(config)),
        ])
        .render()
    }

    // -- parser unit coverage (proptests live in tests/http_parser.rs) --

    #[test]
    fn parser_handles_pipelined_requests_and_bodies() {
        let mut p = HttpParser::new();
        p.push(b"POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcGET /b?x=1 HTTP/1.1\r\n\r\n");
        let first = p.next_request().unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"abc");
        assert!(first.keep_alive);
        let second = p.next_request().unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/b");
        assert_eq!(second.query, "x=1");
        assert!(second.body.is_empty());
        assert!(p.next_request().unwrap().is_none());
    }

    #[test]
    fn parser_recovers_after_oversized_body() {
        let mut p = HttpParser::new();
        let huge = MAX_BODY_LEN + 5;
        p.push(format!("POST /big HTTP/1.1\r\ncontent-length: {huge}\r\n\r\n").as_bytes());
        let err = p.next_request().unwrap_err();
        assert_eq!(err.status, 413);
        assert!(!err.fatal);
        // Dribble the rejected body through in chunks, then a good
        // request: the parser resyncs at the body boundary.
        let mut left = huge;
        while left > 0 {
            let n = left.min(1 << 20);
            p.push(&vec![b'x'; n as usize]);
            left -= n;
            assert!(p.next_request().unwrap().is_none() || left == 0);
        }
        p.push(b"GET /ok HTTP/1.1\r\n\r\n");
        let req = p.next_request().unwrap().unwrap();
        assert_eq!(req.path, "/ok");
    }

    #[test]
    fn parser_poisons_on_fatal_errors() {
        for (raw, status) in [
            (&b"GARBAGE\r\n\r\n"[..], 400),
            (&b"GET /x HTTP/3.0\r\n\r\n"[..], 505),
            (&b"GET /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n"[..], 400),
            (
                &b"GET /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"[..],
                501,
            ),
        ] {
            let mut p = HttpParser::new();
            p.push(raw);
            let err = p.next_request().unwrap_err();
            assert_eq!(
                err.status,
                status,
                "input {:?}",
                String::from_utf8_lossy(raw)
            );
            assert!(err.fatal);
            // Sticky: further pushes cannot desync into garbage.
            p.push(b"GET /ok HTTP/1.1\r\n\r\n");
            assert!(p.next_request().is_err());
        }
    }

    #[test]
    fn parser_enforces_line_and_header_caps() {
        let mut p = HttpParser::new();
        p.push(b"GET /");
        p.push(&vec![b'a'; MAX_REQUEST_LINE + 10]);
        let err = p.next_request().unwrap_err();
        assert_eq!(err.status, 414);
        assert!(err.fatal);

        let mut p = HttpParser::new();
        p.push(b"GET /x HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            p.push(format!("h{i}: v\r\n").as_bytes());
        }
        p.push(b"\r\n");
        let err = p.next_request().unwrap_err();
        assert_eq!(err.status, 431);
        assert!(err.fatal);
    }

    #[test]
    fn parser_connection_header_overrides_version_default() {
        let mut p = HttpParser::new();
        p.push(b"GET /a HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(!p.next_request().unwrap().unwrap().keep_alive);
        let mut p = HttpParser::new();
        p.push(b"GET /a HTTP/1.0\r\n\r\n");
        assert!(!p.next_request().unwrap().unwrap().keep_alive);
        let mut p = HttpParser::new();
        p.push(b"GET /a HTTP/1.0\r\nconnection: keep-alive\r\n\r\n");
        assert!(p.next_request().unwrap().unwrap().keep_alive);
    }

    // -- endpoint coverage --

    #[test]
    fn problem_submit_polls_to_a_decoded_report() {
        let server = server(2);
        let mut client = TestClient::connect(server.local_addr());
        let (status, body) = client.request(
            "POST",
            "/v1/jobs",
            Some(&problem_body("max-cut", MAXCUT_DIMACS, vec![])),
        );
        // Wrong endpoint for a problem body: graph is missing.
        assert_eq!(status, 400, "{body}");

        let (status, body) = client.request(
            "POST",
            "/v1/problems",
            Some(&problem_body("max-cut", MAXCUT_DIMACS, vec![])),
        );
        assert_eq!(status, 202, "{body}");
        let job_id = job_id_of(&body);

        let (status, report) = poll_terminal(&mut client, job_id);
        assert_eq!(status, 200, "{report:?}");
        assert_eq!(state_of(&report), "done");
        let report = field(&report, "report");
        assert_eq!(field(report, "type").as_str(), Some("problem_report"));
        assert_eq!(field(report, "class").as_str(), Some("max-cut"));
        assert_eq!(field(report, "seed").as_u64(), Some(7));
        let Json::Arr(ranked) = field(report, "ranked") else {
            panic!("ranked must be an array");
        };
        assert_eq!(ranked.len(), 2);
        let sol = field(&ranked[0], "solution");
        assert_eq!(field(sol, "kind").as_str(), Some("cut_sides"));
        let Json::Arr(values) = field(sol, "values") else {
            panic!("values must be an array");
        };
        assert_eq!(values.len(), 4);

        // Re-polling still answers the report, but streams it once.
        let (_, again) = poll_terminal(&mut client, job_id);
        assert_eq!(state_of(&again), "done");
        assert_eq!(server.reports_streamed(), 1);
    }

    #[test]
    fn raw_job_submit_roundtrip() {
        let server = server(1);
        let mut client = TestClient::connect(server.local_addr());
        let body = Json::Obj(vec![
            ("tenant".into(), Json::Str("t".into())),
            (
                "graph".into(),
                Json::Obj(vec![
                    ("nodes".into(), Json::Num(3.0)),
                    (
                        "edges".into(),
                        Json::Arr(vec![
                            Json::Arr(vec![Json::Num(0.0), Json::Num(1.0)]),
                            Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]),
                            Json::Arr(vec![Json::Num(2.0), Json::Num(0.0)]),
                        ]),
                    ),
                ]),
            ),
            ("replicas".into(), Json::Num(2.0)),
            ("seed".into(), Json::Num(21.0)),
            (
                "config".into(),
                Json::Obj(vec![("dt".into(), Json::Num(0.02))]),
            ),
        ])
        .render();
        let (status, reply) = client.request("POST", "/v1/jobs", Some(&body));
        assert_eq!(status, 202, "{reply}");
        let job_id = job_id_of(&reply);
        let (status, report) = poll_terminal(&mut client, job_id);
        assert_eq!(status, 200);
        assert_eq!(state_of(&report), "done");
        let report = field(&report, "report");
        assert_eq!(field(report, "type").as_str(), Some("report"));
        let Json::Arr(ranked) = field(report, "ranked") else {
            panic!("ranked must be an array");
        };
        assert_eq!(ranked.len(), 2);
        let Json::Arr(coloring) = field(&ranked[0], "coloring") else {
            panic!("coloring must be an array");
        };
        assert_eq!(coloring.len(), 3);
    }

    #[test]
    fn hostile_requests_leave_the_connection_serving() {
        let server = server(1);
        let mut client = TestClient::connect(server.local_addr());

        // Bad JSON → 400, connection must keep serving.
        let (status, _) = client.request("POST", "/v1/problems", Some("{not json"));
        assert_eq!(status, 400);
        // Unknown path → 404.
        let (status, _) = client.request("GET", "/nope", None);
        assert_eq!(status, 404);
        // Wrong method → 405.
        let (status, _) = client.request("PUT", "/v1/stats", None);
        assert_eq!(status, 405);
        // Unknown problem class → 422.
        let (status, _) = client.request(
            "POST",
            "/v1/problems",
            Some(&problem_body("tsp", "x", vec![])),
        );
        assert_eq!(status, 422);
        // Unparseable DIMACS → 400.
        let (status, _) = client.request(
            "POST",
            "/v1/problems",
            Some(&problem_body("max-cut", "p edge nope\n", vec![])),
        );
        assert_eq!(status, 400);
        // Unknown config knob → 400, not silently defaulted.
        let (status, body) = client.request(
            "POST",
            "/v1/problems",
            Some(&problem_body(
                "max-cut",
                MAXCUT_DIMACS,
                vec![("warp_factor".into(), Json::Num(9.0))],
            )),
        );
        assert_eq!(status, 400, "{body}");
        // Oversized declared body → 413, recoverable without sending it.
        client.send_raw(
            format!(
                "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY_LEN + 1
            )
            .as_bytes(),
        );
        let (status, _) = client.read_response().expect("413 response");
        assert_eq!(status, 413);
        // The connection is now resyncing inside the (never-sent)
        // skipped body; anything further we write to it is discarded as
        // body bytes. Open a fresh connection to confirm the server
        // itself survived the whole gauntlet.
        let mut fresh = TestClient::connect(server.local_addr());
        let (status, body) = fresh.request("GET", "/v1/stats", None);
        assert_eq!(status, 200);
        assert_eq!(field(&parse_body(&body), "frontend").as_str(), Some("http"));
    }

    #[test]
    fn stats_and_metrics_render_the_registry() {
        let server = server(1);
        let mut client = TestClient::connect(server.local_addr());
        let (status, body) = client.request(
            "POST",
            "/v1/problems",
            Some(&problem_body(
                "mis",
                "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n",
                vec![],
            )),
        );
        assert_eq!(status, 202, "{body}");
        let job_id = job_id_of(&body);
        let (_, report) = poll_terminal(&mut client, job_id);
        assert_eq!(state_of(&report), "done");

        let (status, body) = client.request("GET", "/v1/stats", None);
        assert_eq!(status, 200);
        let stats = parse_body(&body);
        assert_eq!(field(&stats, "frontend").as_str(), Some("http"));
        let counters = field(&stats, "counters");
        assert_eq!(field(counters, "jobs_completed").as_u64(), Some(1));
        assert_eq!(field(counters, "connections").as_u64(), Some(1));

        let (status, text) = client.request("GET", "/metrics", None);
        assert_eq!(status, 200);
        assert!(
            text.contains("# TYPE msropm_jobs_completed counter"),
            "{text}"
        );
        assert!(text.contains("msropm_jobs_completed 1"), "{text}");
        assert!(text.contains("msropm_frontend{kind=\"http\"} 1"), "{text}");
    }

    #[test]
    fn quota_deadline_cancel_and_ownership_map_to_http_statuses() {
        // One worker, one in-flight job per tenant.
        let server = bind(http_config(1, 1, 8));
        let mut client = TestClient::connect(server.local_addr());
        // Occupy the single worker with a long job from tenant "u"
        // (paper-default dt, many replicas ≈ 100 ms) so tenant "t"'s
        // job below sits in the queue, where a cancel lands
        // deterministically (cancelling a *running* job is cooperative
        // and may lose the race to completion).
        let occupy = |tenant: &str, replicas: f64| {
            Json::Obj(vec![
                ("tenant".into(), Json::Str(tenant.into())),
                ("class".into(), Json::Str("max-cut".into())),
                ("input".into(), Json::Str(MAXCUT_DIMACS.into())),
                ("replicas".into(), Json::Num(replicas)),
            ])
            .render()
        };
        let (status, body) = client.request("POST", "/v1/problems", Some(&occupy("u", 64.0)));
        assert_eq!(status, 202, "{body}");
        let (status, body) = client.request("POST", "/v1/problems", Some(&occupy("t", 4.0)));
        assert_eq!(status, 202, "{body}");
        let slow_id = job_id_of(&body);

        // Second in-flight job for the same tenant: quota → 429.
        let (status, body) = client.request(
            "POST",
            "/v1/problems",
            Some(&problem_body("max-cut", MAXCUT_DIMACS, vec![])),
        );
        assert_eq!(status, 429, "{body}");
        assert_eq!(
            field(&parse_body(&body), "code").as_u64(),
            Some(ErrorCode::QuotaInFlight as u16 as u64)
        );

        // Another tenant may not poll or cancel it.
        let (status, _) = client.request("GET", &format!("/v1/jobs/{slow_id}?tenant=other"), None);
        assert_eq!(status, 403);
        let (status, _) =
            client.request("DELETE", &format!("/v1/jobs/{slow_id}?tenant=other"), None);
        assert_eq!(status, 403);
        // Unknown job → 404; missing tenant → 400.
        let (status, _) = client.request("GET", "/v1/jobs/999999?tenant=t", None);
        assert_eq!(status, 404);
        let (status, _) = client.request("GET", &format!("/v1/jobs/{slow_id}"), None);
        assert_eq!(status, 400);

        // Cancel the queued job and poll to the cancelled terminal
        // state (observed once the worker pops it past the occupier).
        let (status, body) =
            client.request("DELETE", &format!("/v1/jobs/{slow_id}?tenant=t"), None);
        assert_eq!(status, 200, "{body}");
        let (status, j) = poll_terminal(&mut client, slow_id);
        assert_eq!(status, 200);
        assert_eq!(state_of(&j), "cancelled");

        // A deadline that expires while the job waits in the queue
        // fails it with 504 on poll: occupy the single worker with a
        // third tenant's slow job, then submit a 1 ms-deadline job
        // behind it.
        let (status, body) = client.request("POST", "/v1/problems", Some(&occupy("v", 32.0)));
        assert_eq!(status, 202, "{body}");
        let deadline = Json::Obj(vec![
            ("tenant".into(), Json::Str("t".into())),
            ("class".into(), Json::Str("max-cut".into())),
            ("input".into(), Json::Str(MAXCUT_DIMACS.into())),
            ("replicas".into(), Json::Num(4.0)),
            ("deadline_ms".into(), Json::Num(1.0)),
        ])
        .render();
        let (status, body) = client.request("POST", "/v1/problems", Some(&deadline));
        assert_eq!(status, 202, "{body}");
        let dead_id = job_id_of(&body);
        thread::sleep(Duration::from_millis(5));
        let (status, j) = poll_terminal(&mut client, dead_id);
        assert_eq!(status, 504, "{j:?}");
        assert_eq!(state_of(&j), "failed");
        assert_eq!(
            field(field(&j, "error"), "code").as_u64(),
            Some(ErrorCode::DeadlineExceeded as u16 as u64)
        );
    }

    #[test]
    fn http10_and_connection_close_end_the_connection() {
        let server = server(1);
        let mut client = TestClient::connect(server.local_addr());
        client.send_raw(b"GET /v1/stats HTTP/1.0\r\n\r\n");
        let (status, _) = client.read_response().expect("response before close");
        assert_eq!(status, 200);
        // The server closes after an HTTP/1.0 exchange.
        assert!(client.read_response().is_none());

        let mut client = TestClient::connect(server.local_addr());
        client.send_raw(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
        let (status, _) = client.read_response().expect("response before close");
        assert_eq!(status, 200);
        assert!(client.read_response().is_none());
    }

    #[test]
    fn connection_cap_answers_busy_503() {
        let server = bind(http_config(1, 32, 1));
        let mut first = TestClient::connect(server.local_addr());
        let (status, _) = first.request("GET", "/v1/stats", None);
        assert_eq!(status, 200);
        // Second connection is over the cap: one 503, then close.
        let mut second = TestClient::connect(server.local_addr());
        let (status, body) = second.read_response().expect("busy response");
        assert_eq!(status, 503);
        assert_eq!(
            field(&parse_body(&body), "code").as_u64(),
            Some(ErrorCode::Busy as u16 as u64)
        );
        assert!(second.read_response().is_none());
    }

    #[test]
    fn jobs_submitted_on_one_loop_poll_and_cancel_from_another() {
        // Two event loops: connection A lands on loop 0 and B on loop 1
        // (round-robin in accept order), so every GET/DELETE on B
        // reaches jobs admitted on A only through the shared terminal
        // store and session.
        let server = bind(ReactorConfig {
            loops: 2,
            ..http_config(1, 32, 8)
        });
        let mut a = TestClient::connect(server.local_addr());
        let (status, body) = a.request(
            "POST",
            "/v1/problems",
            Some(&problem_body("max-cut", MAXCUT_DIMACS, vec![])),
        );
        assert_eq!(status, 202, "{body}");
        let done_id = job_id_of(&body);
        // Occupy the single worker with another tenant's long job so
        // the second job is still queued when B's cancel lands.
        let occupier = Json::Obj(vec![
            ("tenant".into(), Json::Str("u".into())),
            ("class".into(), Json::Str("max-cut".into())),
            ("input".into(), Json::Str(MAXCUT_DIMACS.into())),
            ("replicas".into(), Json::Num(64.0)),
        ])
        .render();
        let (status, body) = a.request("POST", "/v1/problems", Some(&occupier));
        assert_eq!(status, 202, "{body}");
        let (status, body) = a.request(
            "POST",
            "/v1/problems",
            Some(&problem_body("max-cut", MAXCUT_DIMACS, vec![])),
        );
        assert_eq!(status, 202, "{body}");
        let cancel_id = job_id_of(&body);

        let mut b = TestClient::connect(server.local_addr());
        let (status, body) = b.request("DELETE", &format!("/v1/jobs/{cancel_id}?tenant=t"), None);
        assert_eq!(status, 200, "{body}");

        let (status, report) = poll_terminal(&mut b, done_id);
        assert_eq!(status, 200, "{report:?}");
        assert_eq!(state_of(&report), "done");
        let report = field(&report, "report");
        assert_eq!(field(report, "type").as_str(), Some("problem_report"));
        assert_eq!(field(report, "class").as_str(), Some("max-cut"));
        let Json::Arr(ranked) = field(report, "ranked") else {
            panic!("ranked must be an array");
        };
        assert_eq!(ranked.len(), 2);

        let (status, j) = poll_terminal(&mut b, cancel_id);
        assert_eq!(status, 200);
        assert_eq!(state_of(&j), "cancelled");
        assert_eq!(server.stats().connections, 2);
        server.shutdown();
    }
}
