//! Cross-codec equivalence: the gate that makes swapping the transport
//! safe.
//!
//! Both codecs of the serving event loop — binary frames and HTTP/JSON
//! — share one session layer, so the observable contract must be
//! *identical*. This file pins the strongest form of that claim over
//! real loopback sockets:
//!
//! 1. **byte-identical report frames** across {1, 4 workers} on a
//!    mixed submit/cancel workload driven through the library client —
//!    framing included, modulo the volatile job-id/timing fields;
//! 2. **cancellation parity**: the cancelled subset never streams a
//!    report and settles `cancelled` at every worker count;
//! 3. the multiplexed client mode (many in-flight submits on one
//!    socket) is how that workload is driven;
//! 4. **transport-codec parity**: a problem report served over the
//!    HTTP/JSON gateway reconstructs byte-identically to the binary
//!    wire's frame for the same job at every worker count and shard
//!    width — the JSON codec is lossless.

mod common;
use common::SubmitShorthand;

use msropm_client::http::{problem_report_from_json, HttpClient};
use msropm_client::{Client, SubmitOptions};
use msropm_core::{BatchJob, MsropmConfig, SweepParam, SweepSpec};
use msropm_graph::{generators, io as graph_io, Graph};
use msropm_problems::json::Json;
use msropm_problems::{Cnf, Lit, ProblemSpec};
use msropm_server::proto::{
    encode_response, FrontendKind, Response, WireProblemReport, WireReport,
};
use msropm_server::{Frontend, JobState, ServerConfig, ShardPolicy};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast_config() -> MsropmConfig {
    MsropmConfig {
        dt: 0.02,
        ..MsropmConfig::paper_default()
    }
}

/// Binds the requested codec on an ephemeral loopback port through the
/// one server-boot API.
fn bind_frontend(frontend: FrontendKind, workers: usize, shards: ShardPolicy) -> Frontend {
    ServerConfig::builder()
        .frontend(frontend)
        .workers(workers)
        .queue_capacity(32)
        .cache_capacity(4) // smaller than the graph pool: eviction churn included
        .shards(shards)
        .max_inflight_jobs(32)
        .max_queued_lanes(1024)
        .max_connections(8)
        .bind("127.0.0.1:0")
        .expect("bind frontend")
}

/// A small mixed workload: repeat + cold topologies, every third job a
/// heterogeneous sweep.
fn mixed_jobs(n: usize) -> Vec<(Arc<Graph>, BatchJob)> {
    let pool = [
        Arc::new(generators::kings_graph(5, 5)),
        Arc::new(generators::cycle_graph(32)),
        Arc::new(generators::grid_graph(5, 5)),
    ];
    let sweep = SweepSpec::new()
        .grid(SweepParam::CouplingStrength, vec![0.8, 1.2])
        .grid(SweepParam::Noise, vec![0.1, 0.25]);
    (0..n)
        .map(|i| {
            let graph = Arc::clone(&pool[i % pool.len()]);
            let job = if i % 3 == 2 {
                BatchJob::from_sweep(fast_config(), &sweep, i as u64)
            } else {
                BatchJob::uniform(fast_config(), 6, i as u64)
            };
            (graph, job)
        })
        .collect()
}

/// Encodes a report frame minus the volatile fields (job id, timings),
/// for byte-level comparison across runs.
fn report_fingerprint(report: &WireReport) -> Vec<u8> {
    let mut stripped = report.clone();
    stripped.job_id = 0;
    stripped.queued_us = 0;
    stripped.service_us = 0;
    encode_response(&Response::Report(stripped))
}

/// `(job index, fingerprint bytes)` for every surviving job of one run.
type RunFingerprints = Vec<(usize, Vec<u8>)>;

/// Drives the mixed workload through one server: occupy every worker
/// with a long job, multiplex-submit the batch, cancel `cancel_idx`
/// while they are still queued, then collect fingerprints of the
/// surviving reports and verify the cancelled subset never reports.
fn run_workload(workers: usize, cancel_idx: &[usize]) -> RunFingerprints {
    let server = bind_frontend(FrontendKind::Reactor, workers, ShardPolicy::Auto);
    assert_eq!(server.kind(), FrontendKind::Reactor);
    let mut client = Client::connect(server.local_addr(), "parity").expect("connect");
    assert_eq!(
        client.stats().expect("stats").frontend,
        FrontendKind::Reactor
    );

    // One long job per worker so every later cancel provably lands
    // before pickup (cooperative cancellation then means: no report).
    let board = Arc::new(generators::kings_graph(8, 8));
    let occupiers: Vec<u64> = (0..workers)
        .map(|w| {
            client
                .submit_ok(
                    &board,
                    &BatchJob::uniform(fast_config(), 16, 7_000 + w as u64),
                )
                .expect("occupier admitted")
        })
        .collect();

    // The batch rides one socket multiplexed: all submits written
    // before any reply is read.
    let jobs = mixed_jobs(9);
    for (graph, job) in &jobs {
        client.submit_nowait_ok(graph, job).expect("mux submit");
    }
    let ids: Vec<u64> = (0..jobs.len())
        .map(|_| client.recv_submitted().expect("mux reply"))
        .collect();
    for &c in cancel_idx {
        client.cancel(ids[c]).expect("cancel");
    }

    // Collect every surviving report (fingerprinted), in job order.
    let mut fingerprints = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        if cancel_idx.contains(&i) {
            continue;
        }
        let report = client.wait_report(id).expect("report streamed");
        fingerprints.push((i, report_fingerprint(&report)));
    }
    for &id in &occupiers {
        client.wait_report(id).expect("occupier report");
    }

    // Cancelled jobs settle in `cancelled` and never stream a report.
    for &c in cancel_idx {
        let mut state = JobState::Queued;
        for _ in 0..200 {
            state = client.status(ids[c]).expect("status");
            if state == JobState::Cancelled {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            state,
            JobState::Cancelled,
            "{workers}w: cancelled job {c} never settled"
        );
        assert!(
            client
                .wait_report_timeout(ids[c], Duration::from_millis(300))
                .expect("drain")
                .is_none(),
            "{workers}w: cancelled job {c} streamed a report"
        );
    }
    server.shutdown();
    fingerprints
}

/// The problem specs driven through every cell of the parity matrix:
/// five distinct classes, all small enough to keep the 8-run matrix
/// fast.
fn problem_specs() -> Vec<ProblemSpec> {
    let mut cnf = Cnf::new(4);
    cnf.add_clause(vec![Lit::from_dimacs(1), Lit::from_dimacs(2)]);
    cnf.add_clause(vec![Lit::from_dimacs(-1), Lit::from_dimacs(3)]);
    cnf.add_clause(vec![Lit::from_dimacs(-2), Lit::from_dimacs(-3)]);
    cnf.add_clause(vec![Lit::from_dimacs(-3), Lit::from_dimacs(4)]);
    vec![
        ProblemSpec::Mis {
            graph: generators::cycle_graph(9),
        },
        ProblemSpec::VertexCover {
            graph: generators::kings_graph(3, 3),
        },
        ProblemSpec::MaxKCut {
            graph: generators::kings_graph(4, 4),
            k: 4,
        },
        ProblemSpec::NumberPartition {
            weights: vec![3, 1, 4, 1, 5, 9, 2, 6],
        },
        ProblemSpec::CnfSat { cnf },
    ]
}

/// Encodes a problem-report frame minus the volatile fields, for
/// byte-level comparison across runs.
fn problem_fingerprint(report: &WireProblemReport) -> Vec<u8> {
    let mut stripped = report.clone();
    stripped.job_id = 0;
    stripped.queued_us = 0;
    stripped.service_us = 0;
    encode_response(&Response::ProblemReport(stripped))
}

/// Submits every problem spec through one binary cell of the matrix
/// and returns the stripped report frames in submission order.
fn run_problem_workload(workers: usize, shards: ShardPolicy) -> Vec<Vec<u8>> {
    let server = bind_frontend(FrontendKind::Reactor, workers, shards);
    let mut client = Client::connect(server.local_addr(), "problem-parity").expect("connect");
    let config = fast_config();
    let ids: Vec<u64> = problem_specs()
        .iter()
        .map(|spec| {
            client
                .submit_problem(spec, &config, 4, 21, &SubmitOptions::new())
                .expect("submit problem")
                .expect("blocking submit yields an id")
        })
        .collect();
    let frames = ids
        .iter()
        .map(|&id| problem_fingerprint(&client.wait_problem_report(id).expect("problem report")))
        .collect();
    server.shutdown();
    frames
}

/// Renders a spec in the class's native text format — the inverse of
/// the gateway's `from_text` ingestion, preserving edge/clause order so
/// the server-side reconstruction is the identical instance. Returns
/// the text and the `k` parameter (0 where the class takes none).
fn problem_input(spec: &ProblemSpec) -> (String, u16) {
    fn dimacs(graph: &Graph) -> String {
        let mut buf = Vec::new();
        graph_io::write_dimacs(graph, &mut buf).expect("write to vec");
        String::from_utf8(buf).expect("dimacs is ascii")
    }
    match spec {
        ProblemSpec::Mis { graph } | ProblemSpec::VertexCover { graph } => (dimacs(graph), 0),
        ProblemSpec::MaxKCut { graph, k } => (dimacs(graph), *k),
        ProblemSpec::NumberPartition { weights } => (
            weights
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" "),
            0,
        ),
        ProblemSpec::CnfSat { cnf } => {
            let mut text = format!("p cnf {} {}\n", cnf.num_vars(), cnf.num_clauses());
            for clause in cnf.clauses() {
                for lit in clause {
                    text.push_str(&format!("{} ", lit.to_dimacs()));
                }
                text.push_str("0\n");
            }
            (text, 0)
        }
        other => unreachable!("problem_specs() does not produce {other:?}"),
    }
}

/// Looks a field up in a JSON object (panicking helpers keep the test
/// terse).
fn json_field(value: &Json, key: &str) -> Json {
    let Json::Obj(fields) = value else {
        panic!("expected object, got {value:?}");
    };
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("missing field {key:?} in {value:?}"))
}

/// Polls `GET /v1/jobs/{id}` until the job is done and returns its
/// rendered report.
fn poll_http_report(client: &mut HttpClient, job_id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = client
            .request_json(
                "GET",
                &format!("/v1/jobs/{job_id}?tenant=problem-parity"),
                None,
            )
            .expect("poll status");
        assert_eq!(status, 200, "{body:?}");
        let state = json_field(&body, "state");
        if state.as_str() == Some("done") {
            return json_field(&body, "report");
        }
        assert!(Instant::now() < deadline, "job {job_id} stuck in {state:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The HTTP cell of the parity matrix: every spec rendered to its text
/// format, submitted as JSON over the gateway, the JSON report mapped
/// back onto the wire struct, and fingerprinted with the *same*
/// binary encoder as the binary cells.
fn run_problem_workload_http(workers: usize, shards: ShardPolicy) -> Vec<Vec<u8>> {
    let server = bind_frontend(FrontendKind::Http, workers, shards);
    let mut client = HttpClient::connect(server.local_addr()).expect("connect http");
    let ids: Vec<u64> = problem_specs()
        .iter()
        .map(|spec| {
            let (input, k) = problem_input(spec);
            let mut fields = vec![
                ("tenant".into(), Json::Str("problem-parity".into())),
                ("class".into(), Json::Str(spec.class().name().into())),
                ("input".into(), Json::Str(input)),
                ("replicas".into(), Json::Num(4.0)),
                ("seed".into(), Json::Num(21.0)),
                (
                    "config".into(),
                    Json::Obj(vec![("dt".into(), Json::Num(0.02))]),
                ),
            ];
            if k != 0 {
                fields.push(("k".into(), Json::Num(f64::from(k))));
            }
            let body = Json::Obj(fields).render();
            let (status, reply) = client
                .request_json("POST", "/v1/problems", Some(&body))
                .expect("submit problem");
            assert_eq!(status, 202, "{reply:?}");
            json_field(&reply, "job_id")
                .as_u64()
                .expect("job_id is a u64")
        })
        .collect();
    let frames = ids
        .iter()
        .map(|&id| {
            let report = poll_http_report(&mut client, id);
            let wire = problem_report_from_json(&report).expect("JSON report maps onto the wire");
            problem_fingerprint(&wire)
        })
        .collect();
    server.shutdown();
    frames
}

/// The acceptance matrix: typed problem reports are byte-identical
/// across {binary, http} × {1, 4 workers} × {1, 4 shards} for every
/// problem class — including across the binary-vs-JSON codec
/// boundary.
#[test]
fn problem_reports_are_bit_identical_across_frontends_workers_and_shards() {
    let mut runs = Vec::new();
    for frontend in [FrontendKind::Reactor, FrontendKind::Http] {
        for workers in [1usize, 4] {
            for shards in [ShardPolicy::Fixed(1), ShardPolicy::Fixed(4)] {
                let frames = match frontend {
                    FrontendKind::Http => run_problem_workload_http(workers, shards),
                    FrontendKind::Reactor => run_problem_workload(workers, shards),
                };
                runs.push((format!("{frontend:?}/{workers}w/{shards:?}"), frames));
            }
        }
    }
    let (reference_name, reference) = &runs[0];
    assert_eq!(reference.len(), problem_specs().len());
    for (name, frames) in &runs[1..] {
        assert_eq!(frames.len(), reference.len());
        for (i, (bytes, ref_bytes)) in frames.iter().zip(reference).enumerate() {
            assert_eq!(
                bytes, ref_bytes,
                "problem {i}: report bytes differ between {reference_name} and {name}"
            );
        }
    }
}

#[test]
fn wire_reports_are_bit_identical_across_frontends_and_worker_counts() {
    let cancel_idx = [2usize, 5];
    let runs: Vec<(String, RunFingerprints)> = [1, 4]
        .into_iter()
        .map(|workers| (format!("{workers}w"), run_workload(workers, &cancel_idx)))
        .collect();
    let (reference_name, reference) = &runs[0];
    assert_eq!(reference.len(), 7, "9 jobs minus 2 cancelled");
    for (name, fingerprints) in &runs[1..] {
        assert_eq!(fingerprints.len(), reference.len());
        for ((job, bytes), (ref_job, ref_bytes)) in fingerprints.iter().zip(reference) {
            assert_eq!(job, ref_job);
            assert_eq!(
                bytes, ref_bytes,
                "job {job}: wire report bytes differ between {reference_name} and {name}"
            );
        }
    }
}
