//! Socket-path throughput/latency harness: the `serve_bench` workloads
//! driven through a real loopback TCP connection (framing, tenant
//! accounting and report streaming included).
//!
//! Boots an in-process [`msropm_server::Frontend`] (the one event
//! loop, binary or HTTP codec) on an ephemeral `127.0.0.1` port and
//! hammers it with the library client:
//!
//! - `wire_reactor_hot`: repeat-topology jobs on one board
//!   (problem-cache steady state) — the socket-path throughput ceiling;
//! - `wire_reactor_mixed`: a rotating graph pool with interleaved sweep
//!   jobs — the traffic shape the cache + arena design is for;
//! - `wire_mux_hot`: the hot workload with every submit written
//!   back-to-back on one socket before any reply is read (the
//!   multiplexed client mode);
//! - `wire_reactor_idle256`: the hot workload while 256 completely
//!   idle connections stay attached — the idle-connection-scaling row
//!   (the event loop serves them with no threads);
//! - `http_hot` / `http_mixed`: the hot/mixed shapes through the
//!   HTTP/1.1 + JSON gateway front end — submits pipelined on one
//!   keep-alive connection, reports collected by polling
//!   `GET /v1/jobs/{id}` (the gateway has no streaming push, so the
//!   poll is part of what the row measures). Sweep jobs can't travel
//!   over `POST /v1/jobs`, so the mixed row rotates graphs only;
//! - `wire_codec`: pure encode→decode round-trips of representative
//!   submit/report frames (no socket) — the framing cost in isolation.
//!
//! Recorded per workload: jobs/sec and client-observed p50/p99 latency
//! (submit → report frame received, so framing + streaming are *in* the
//! number), plus the server-reported mean service time. Only the
//! 1-worker service columns and the codec columns are gated — wall
//! latency measures the workload shape more than the code.
//!
//! Rows are **merged** into `BENCH_serve.json`: when the output file
//! already exists and parses, its non-`wire*`/`http*` rows (the
//! in-process `serve_bench` rows) are preserved and this bench's rows
//! replaced —
//! so `scripts/refresh_baselines.sh` can regenerate the whole file with
//! `serve_bench` followed by `wire_bench`. `--baseline PATH` gates the
//! tracked columns against a committed baseline (>15% regression exits
//! nonzero; see `msropm_bench::baseline`).
//!
//! Run with: `cargo run --release -p msropm-bench --bin wire_bench`

use msropm_bench::baseline;
use msropm_client::http::HttpClient;
use msropm_client::{Client, SubmitOptions};
use msropm_core::{BatchJob, MsropmConfig, SweepParam, SweepSpec};
use msropm_graph::{generators, Graph};
use msropm_problems::json::Json;
use msropm_server::proto::{
    decode_request, decode_response, encode_request, encode_response, FrontendKind, Request,
    Response, WireLane, WireReport,
};
use msropm_server::{Frontend, ServerConfig, ShardPolicy};
use std::fmt::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gated columns: server-side service time (1-worker rows) and the
/// codec round-trips. Client-observed wall latency is recorded, not
/// gated.
const TRACKED: [&str; 4] = [
    "service_us_per_job",
    "service_us_per_lane",
    "submit_roundtrip_ns",
    "report_roundtrip_ns",
];

fn fast_config() -> MsropmConfig {
    MsropmConfig {
        dt: 0.02,
        ..MsropmConfig::paper_default()
    }
}

struct Workload {
    jobs: Vec<(Arc<Graph>, BatchJob)>,
}

fn wire_hot(n: usize) -> Workload {
    let board = Arc::new(generators::kings_graph(7, 7));
    let jobs = (0..n)
        .map(|i| {
            (
                Arc::clone(&board),
                BatchJob::uniform(fast_config(), 8, i as u64),
            )
        })
        .collect();
    Workload { jobs }
}

fn wire_mixed(n: usize) -> Workload {
    let pool: Vec<Arc<Graph>> = vec![
        Arc::new(generators::kings_graph(7, 7)),
        Arc::new(generators::kings_graph(5, 5)),
        Arc::new(generators::cycle_graph(48)),
        Arc::new(generators::grid_graph(6, 6)),
        Arc::new(generators::triangular_lattice(5, 5)),
    ];
    let sweep = SweepSpec::new()
        .grid(SweepParam::CouplingStrength, vec![0.8, 1.2])
        .grid(SweepParam::Noise, vec![0.1, 0.25]);
    let jobs = (0..n)
        .map(|i| {
            let graph = Arc::clone(&pool[i % pool.len()]);
            let job = if i % 4 == 3 {
                BatchJob::from_sweep(fast_config(), &sweep, i as u64)
            } else {
                BatchJob::uniform(fast_config(), 8, i as u64)
            };
            (graph, job)
        })
        .collect();
    Workload { jobs }
}

struct Row {
    workload: String,
    jobs: usize,
    lanes: usize,
    /// Idle connections attached for the whole run (0 for most rows).
    idle_conns: usize,
    wall_s: f64,
    /// Client-observed submit→report latencies (sorted), microseconds.
    latencies_us: Vec<f64>,
    /// Server-reported total service time, microseconds.
    service_us_total: f64,
    gate_row: bool,
}

impl Row {
    fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }

    fn percentile_us(&self, p: f64) -> f64 {
        let idx = ((self.latencies_us.len() - 1) as f64 * p).round() as usize;
        self.latencies_us[idx]
    }
}

/// How one bench run drives the server.
#[derive(Clone, Copy)]
struct RunOpts {
    /// Which front end serves the run.
    frontend: FrontendKind,
    /// Write every submit before reading any reply (multiplexed client
    /// mode) instead of one blocking round-trip per submit.
    mux: bool,
    /// Completely idle extra connections held open through the run.
    idle_conns: usize,
}

impl RunOpts {
    const REACTOR: RunOpts = RunOpts {
        frontend: FrontendKind::Reactor,
        mux: false,
        idle_conns: 0,
    };
    const MUX: RunOpts = RunOpts {
        frontend: FrontendKind::Reactor,
        mux: true,
        idle_conns: 0,
    };
    const IDLE: RunOpts = RunOpts {
        frontend: FrontendKind::Reactor,
        mux: false,
        idle_conns: 256,
    };
    const HTTP: RunOpts = RunOpts {
        frontend: FrontendKind::Http,
        mux: false,
        idle_conns: 0,
    };
}

/// Binds whichever front end the run options ask for on an ephemeral
/// loopback port, through the one server-boot API.
fn bind_frontend(workers: usize, opts: RunOpts) -> Frontend {
    ServerConfig::builder()
        .frontend(opts.frontend)
        .workers(workers)
        .queue_capacity(32)
        .cache_capacity(16)
        // The wire suite measures transport, not the solver: pin one
        // shard so its rows stay comparable to old baselines.
        .shards(ShardPolicy::Fixed(1))
        .max_inflight_jobs(512)
        .max_queued_lanes(1 << 16)
        .max_connections(opts.idle_conns + 8)
        .bind("127.0.0.1:0")
        .expect("bind frontend")
}

/// Runs one workload against a fresh front end over loopback TCP.
/// Jobs are pipelined: all submits first, then reports collected in
/// submit order (the client stashes out-of-order arrivals). With
/// `opts.mux`, submits are additionally written back to back before
/// any reply is read.
fn run_workload(workload: Workload, workers: usize, label: String, opts: RunOpts) -> Row {
    let server = bind_frontend(workers, opts);
    // The idle fleet attaches before any traffic and stays for the
    // whole run; the row measures serving *with* the fleet resident.
    let idle_fleet: Vec<TcpStream> = (0..opts.idle_conns)
        .map(|_| TcpStream::connect(server.local_addr()).expect("idle connect"))
        .collect();
    let mut client = Client::connect(server.local_addr(), "bench").expect("connect");
    if !idle_fleet.is_empty() {
        // Wait until every idle connection is registered server-side so
        // the measurement below really runs against a full house.
        for _ in 0..600 {
            let stats = client.stats().expect("stats");
            if stats.connections >= (opts.idle_conns + 1) as u64 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
    let n_jobs = workload.jobs.len();
    let lanes: usize = workload.jobs.iter().map(|(_, j)| j.lanes.len()).sum();
    let t0 = Instant::now();
    let submitted: Vec<(u64, Instant)> = if opts.mux {
        let at: Vec<Instant> = workload
            .jobs
            .iter()
            .map(|(g, job)| {
                client
                    .submit_with(g, job, &SubmitOptions::new().nowait())
                    .expect("mux submit");
                Instant::now()
            })
            .collect();
        at.into_iter()
            .map(|at| (client.recv_submitted().expect("mux reply"), at))
            .collect()
    } else {
        workload
            .jobs
            .iter()
            .map(|(g, job)| {
                let id = client
                    .submit_with(g, job, &SubmitOptions::new())
                    .expect("submit admitted")
                    .expect("blocking submit yields a job id");
                (id, Instant::now())
            })
            .collect()
    };
    let mut latencies_us = Vec::with_capacity(n_jobs);
    let mut service_us_total = 0.0f64;
    for (id, at) in &submitted {
        let report = client.wait_report(*id).expect("report streamed");
        latencies_us.push(at.elapsed().as_secs_f64() * 1e6);
        service_us_total += report.service_us as f64;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    drop(idle_fleet);
    server.shutdown();
    latencies_us.sort_by(f64::total_cmp);
    Row {
        workload: label,
        jobs: n_jobs,
        lanes,
        idle_conns: opts.idle_conns,
        wall_s,
        latencies_us,
        service_us_total,
        gate_row: workers == 1,
    }
}

/// A `POST /v1/jobs` body stream for the HTTP gateway rows: the same
/// graph/lane shapes as the wire workloads, pre-rendered to JSON.
struct HttpWorkload {
    bodies: Vec<String>,
    lanes: usize,
}

fn graph_body(g: &Graph) -> String {
    let mut edges = String::new();
    for (i, (_, u, v)) in g.edges().enumerate() {
        if i > 0 {
            edges.push(',');
        }
        let _ = write!(edges, "[{},{}]", u.index(), v.index());
    }
    format!("{{\"nodes\":{},\"edges\":[{edges}]}}", g.num_nodes())
}

fn http_job_body(graph: &str, replicas: usize, seed: u64) -> String {
    format!(
        "{{\"tenant\":\"bench\",\"graph\":{graph},\"replicas\":{replicas},\
         \"seed\":{seed},\"config\":{{\"dt\":0.02}}}}"
    )
}

/// The [`wire_hot`] shape over JSON: repeat topology, uniform lanes.
fn http_hot(n: usize) -> HttpWorkload {
    let board = graph_body(&generators::kings_graph(7, 7));
    HttpWorkload {
        bodies: (0..n).map(|i| http_job_body(&board, 8, i as u64)).collect(),
        lanes: n * 8,
    }
}

/// The [`wire_mixed`] graph rotation over JSON. Sweep jobs have no
/// `POST /v1/jobs` encoding, so every job is uniform.
fn http_mixed(n: usize) -> HttpWorkload {
    let pool: Vec<String> = [
        generators::kings_graph(7, 7),
        generators::kings_graph(5, 5),
        generators::cycle_graph(48),
        generators::grid_graph(6, 6),
        generators::triangular_lattice(5, 5),
    ]
    .iter()
    .map(graph_body)
    .collect();
    HttpWorkload {
        bodies: (0..n)
            .map(|i| http_job_body(&pool[i % pool.len()], 8, i as u64))
            .collect(),
        lanes: n * 8,
    }
}

fn jfield<'a>(value: &'a Json, key: &str) -> &'a Json {
    match value {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {key:?}")),
        _ => panic!("expected a JSON object looking up {key:?}"),
    }
}

/// Runs one workload through the HTTP gateway: all submits pipelined on
/// one keep-alive connection, then each job polled to its report in
/// submit order. The gateway streams nothing, so the polling round
/// trips are deliberately inside the measured latency — that *is* the
/// transport being benchmarked.
fn run_http_workload(workload: HttpWorkload, workers: usize, label: String) -> Row {
    let server = bind_frontend(workers, RunOpts::HTTP);
    let mut client = HttpClient::connect(server.local_addr()).expect("connect http");
    let n_jobs = workload.bodies.len();
    let lanes = workload.lanes;
    let t0 = Instant::now();
    let submitted: Vec<(u64, Instant)> = workload
        .bodies
        .iter()
        .map(|body| {
            let (status, reply) = client
                .request_json("POST", "/v1/jobs", Some(body))
                .expect("http submit");
            assert_eq!(status, 202, "submit accepted: {reply:?}");
            let id = jfield(&reply, "job_id").as_u64().expect("job_id");
            (id, Instant::now())
        })
        .collect();
    let mut latencies_us = Vec::with_capacity(n_jobs);
    let mut service_us_total = 0.0f64;
    for (id, at) in &submitted {
        loop {
            let (status, reply) = client
                .request_json("GET", &format!("/v1/jobs/{id}?tenant=bench"), None)
                .expect("http status");
            assert_eq!(status, 200, "status answered: {reply:?}");
            match jfield(&reply, "state").as_str().expect("state string") {
                "done" => {
                    let report = jfield(&reply, "report");
                    service_us_total +=
                        jfield(report, "service_us").as_u64().expect("service_us") as f64;
                    latencies_us.push(at.elapsed().as_secs_f64() * 1e6);
                    break;
                }
                "queued" | "running" => std::thread::sleep(Duration::from_micros(200)),
                other => panic!("job {id} reached unexpected state {other:?}"),
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    server.shutdown();
    latencies_us.sort_by(f64::total_cmp);
    Row {
        workload: label,
        jobs: n_jobs,
        lanes,
        idle_conns: 0,
        wall_s,
        latencies_us,
        service_us_total,
        gate_row: workers == 1,
    }
}

/// Slices the flat `{...}` row objects out of a bench JSON document's
/// `"results"` array, returning every row whose label does **not**
/// start with `wire` or `http` (this bench's rows) exactly as it
/// appears in the file (rows are flat — no nested braces — which
/// `baseline::parse_rows` has already validated by the time this runs).
fn non_wire_row_texts(doc: &str) -> Vec<String> {
    let Some(start) = doc.find("\"results\"") else {
        return Vec::new();
    };
    let Some(open) = doc[start..].find('[') else {
        return Vec::new();
    };
    let mut body = &doc[start + open + 1..];
    let mut kept = Vec::new();
    while let Some(obj_start) = body.find('{') {
        let Some(obj_len) = body[obj_start..].find('}') else {
            break;
        };
        let row = &body[obj_start..=obj_start + obj_len];
        if !row.contains("\"workload\": \"wire") && !row.contains("\"workload\": \"http") {
            kept.push(row.to_string());
        }
        body = &body[obj_start + obj_len + 1..];
    }
    kept
}

/// Asserts the fault-injection points are free when disarmed: the bench
/// refuses to record numbers with faults armed, and the per-call cost
/// of the disarmed checks must stay in plain-load territory so they can
/// live on the serving hot paths.
fn assert_faults_disarmed() {
    use msropm_server::faultinject;
    assert!(
        faultinject::quiescent(),
        "wire_bench: fault injection is armed — numbers would be meaningless"
    );
    const ITERS: u32 = 1_000_000;
    let t = Instant::now();
    for i in 0..ITERS {
        faultinject::maybe_delay_completion();
        std::hint::black_box(faultinject::short_write_cap(i as usize + 1));
        std::hint::black_box(faultinject::should_sever_write());
    }
    let ns_per_iter = t.elapsed().as_nanos() as f64 / f64::from(ITERS);
    // Three relaxed loads per iteration; 250ns leaves two orders of
    // magnitude of headroom over any real machine so this never flakes,
    // while still catching a fault point that grew a lock or a syscall.
    assert!(
        ns_per_iter < 250.0,
        "wire_bench: disarmed fault checks cost {ns_per_iter:.1} ns/iter — no longer a no-op"
    );
}

/// Encode→decode round-trip cost of representative frames, ns/op.
fn codec_ns() -> (f64, f64) {
    let graph = generators::kings_graph(7, 7);
    let submit = Request::Submit {
        tenant: "bench".into(),
        graph: graph.clone(),
        job: BatchJob::uniform(fast_config(), 8, 1),
        deadline_ms: 0,
    };
    let report = Response::Report(WireReport {
        job_id: 1,
        graph_hash: 0xfeed,
        seed: 1,
        queued_us: 10,
        service_us: 1000,
        ranked: (0..8)
            .map(|lane| WireLane {
                lane,
                seed: lane as u64,
                conflicts: lane as u64,
                accuracy: 0.97,
                coloring: vec![2u16; graph.num_nodes()],
            })
            .collect(),
    });
    const ITERS: u32 = 2000;
    let time = |f: &dyn Fn()| -> f64 {
        // One warmup pass, then best-of-3 timed passes.
        f();
        (0..3)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..ITERS {
                    f();
                }
                t.elapsed().as_nanos() as f64 / f64::from(ITERS)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let submit_ns = time(&|| {
        let payload = encode_request(&submit);
        let back = decode_request(&payload).expect("roundtrip");
        std::hint::black_box(back);
    });
    let report_ns = time(&|| {
        let payload = encode_response(&report);
        let back = decode_response(&payload).expect("roundtrip");
        std::hint::black_box(back);
    });
    (submit_ns, report_ns)
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut quick = false;
    let mut workers = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = Some(args.next().expect("--out requires a value")),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline requires a value")),
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers requires a number");
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; valid: --quick, --workers N, --out PATH, --baseline PATH"
                );
                std::process::exit(2);
            }
        }
    }
    assert_faults_disarmed();
    let out_path = out_path.unwrap_or_else(|| baseline::default_out_path("BENCH_serve.json"));
    let (hot_jobs, mixed_jobs) = if quick { (10, 12) } else { (32, 40) };

    // Best-of-2 per row, mirroring serve_bench: scheduler hiccups only
    // ever slow a run down, so the minimum is the gate-stable statistic.
    let best = |make: &dyn Fn() -> Workload, workers: usize, label: &str, opts: RunOpts| -> Row {
        let a = run_workload(make(), workers, label.to_string(), opts);
        let b = run_workload(make(), workers, label.to_string(), opts);
        if a.service_us_total <= b.service_us_total {
            a
        } else {
            b
        }
    };
    let mut rows = vec![
        best(
            &|| wire_hot(hot_jobs),
            1,
            "wire_reactor_hot",
            RunOpts::REACTOR,
        ),
        best(
            &|| wire_mixed(mixed_jobs),
            1,
            "wire_reactor_mixed",
            RunOpts::REACTOR,
        ),
        best(&|| wire_hot(hot_jobs), 1, "wire_mux_hot", RunOpts::MUX),
        best(
            &|| wire_hot(hot_jobs),
            1,
            &format!("wire_reactor_idle{}", RunOpts::IDLE.idle_conns),
            RunOpts::IDLE,
        ),
    ];
    // The HTTP gateway rows: same shapes, JSON transport, polled
    // completion. Best-of-2 like every other row.
    let best_http = |make: &dyn Fn() -> HttpWorkload, label: &str| -> Row {
        let a = run_http_workload(make(), 1, label.to_string());
        let b = run_http_workload(make(), 1, label.to_string());
        if a.service_us_total <= b.service_us_total {
            a
        } else {
            b
        }
    };
    rows.push(best_http(&|| http_hot(hot_jobs), "http_hot"));
    rows.push(best_http(&|| http_mixed(mixed_jobs), "http_mixed"));
    if workers > 1 {
        rows.push(best(
            &|| wire_hot(hot_jobs),
            workers,
            &format!("wire_reactor_hot_w{workers}"),
            RunOpts::REACTOR,
        ));
        rows.push(best(
            &|| wire_mixed(mixed_jobs),
            workers,
            &format!("wire_reactor_mixed_w{workers}"),
            RunOpts::REACTOR,
        ));
    }
    for r in &rows {
        println!(
            "{:<22} {:>3} jobs ({:>3} lanes) in {:>6.2}s | {:>6.2} jobs/s | latency p50 {:>9.0} us p99 {:>9.0} us | service/job {:>9.0} us",
            r.workload,
            r.jobs,
            r.lanes,
            r.wall_s,
            r.jobs_per_sec(),
            r.percentile_us(0.50),
            r.percentile_us(0.99),
            r.service_us_total / r.jobs as f64,
        );
    }
    let (submit_ns, report_ns) = codec_ns();
    println!(
        "wire_codec             submit roundtrip {submit_ns:>8.0} ns | report roundtrip {report_ns:>8.0} ns"
    );

    // Refuse to write a bogus baseline.
    for r in &rows {
        let cols = [r.wall_s, r.jobs_per_sec(), r.service_us_total];
        if cols.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            eprintln!(
                "wire_bench: invalid timings for workload {:?} (NaN/zero) — refusing to write {out_path}",
                r.workload
            );
            std::process::exit(1);
        }
    }
    if !submit_ns.is_finite() || submit_ns <= 0.0 || !report_ns.is_finite() || report_ns <= 0.0 {
        eprintln!("wire_bench: invalid codec timings — refusing to write {out_path}");
        std::process::exit(1);
    }

    // Encode this run's rows as JSON objects.
    let mut wire_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut row = format!(
                "{{\"workload\": \"{name}\", \"jobs\": {jobs}, \"lanes\": {lanes}, \
                 \"jobs_per_sec\": {jps:.3}, \
                 \"p50_latency_us\": {p50:.1}, \"p99_latency_us\": {p99:.1}",
                name = r.workload,
                jobs = r.jobs,
                lanes = r.lanes,
                jps = r.jobs_per_sec(),
                p50 = r.percentile_us(0.50),
                p99 = r.percentile_us(0.99),
            );
            if r.idle_conns > 0 {
                let _ = write!(row, ", \"idle_conns\": {}", r.idle_conns);
            }
            if r.gate_row {
                let _ = write!(
                    row,
                    ", \"service_us_per_job\": {spj:.1}, \"service_us_per_lane\": {spl:.1}",
                    spj = r.service_us_total / r.jobs as f64,
                    spl = r.service_us_total / r.lanes as f64,
                );
            }
            row.push('}');
            row
        })
        .collect();
    wire_rows.push(format!(
        "{{\"workload\": \"wire_codec\", \
         \"submit_roundtrip_ns\": {submit_ns:.1}, \"report_roundtrip_ns\": {report_ns:.1}}}"
    ));

    // Merge: keep non-wire rows of an existing, parseable output file
    // (the serve_bench rows of the shared BENCH_serve.json) **verbatim**
    // — re-serializing them would reorder keys / reformat numbers and
    // churn the committed baseline on every refresh.
    let kept: Vec<String> = std::fs::read_to_string(&out_path)
        .ok()
        .filter(|existing| baseline::parse_rows(existing).is_ok())
        .map(|existing| non_wire_row_texts(&existing))
        .unwrap_or_default();

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"suite\": \"serve\",");
    let _ = writeln!(json, "  \"unix_time\": {unix_time},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    json.push_str("  \"results\": [\n");
    let all: Vec<&String> = kept.iter().chain(wire_rows.iter()).collect();
    for (i, row) in all.iter().enumerate() {
        let _ = write!(json, "    {row}");
        json.push_str(if i + 1 == all.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("failed to write {out_path}: {e}"));
    println!(
        "wrote {out_path} ({} preserved + {} wire rows)",
        kept.len(),
        wire_rows.len()
    );

    if let Some(base_path) = baseline_path {
        baseline::enforce_gate_cli(&json, &base_path, &TRACKED);
    }
}
