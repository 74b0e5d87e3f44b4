//! Full-stack wire tests: real loopback TCP sockets, the library
//! client, and a live binary-codec [`Frontend`] — pinning the two properties the
//! socket path must preserve on top of the in-process server:
//!
//! 1. **determinism across the wire**: the report frames of one job are
//!    byte-identical whether the backing pool runs 1 worker or 4 (the
//!    PR 3 property, now including framing);
//! 2. **cancellation semantics**: a cancelled job never streams a
//!    report, and its quota slot frees for the tenant.

mod common;
use common::SubmitShorthand;

use msropm_client::{Client, ClientError, RetryPolicy, SubmitOptions};
use msropm_core::{BatchJob, MsropmConfig, SweepParam, SweepSpec};
use msropm_graph::{generators, graph_hash};
use msropm_server::proto::{encode_response, ErrorCode, Response, WireReport};
use msropm_server::{Frontend, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn fast_config() -> MsropmConfig {
    MsropmConfig {
        dt: 0.02,
        ..MsropmConfig::paper_default()
    }
}

fn server_with(workers: usize) -> Frontend {
    ServerConfig::builder()
        .workers(workers)
        .queue_capacity(16)
        .cache_capacity(4) // smaller than the graph pool: eviction churn included
        .bind("127.0.0.1:0")
        .expect("bind ephemeral port")
}

/// One worker and per-tenant caps on in-flight jobs and queued lanes.
fn one_worker(max_inflight_jobs: usize, max_queued_lanes: usize) -> Frontend {
    ServerConfig::builder()
        .workers(1)
        .queue_capacity(16)
        .cache_capacity(4)
        .max_inflight_jobs(max_inflight_jobs)
        .max_queued_lanes(max_queued_lanes)
        .max_connections(8)
        .bind("127.0.0.1:0")
        .expect("bind")
}

/// A small mixed workload: repeat + cold topologies, every third job a
/// heterogeneous sweep.
fn mixed_jobs(n: usize) -> Vec<(Arc<msropm_graph::Graph>, BatchJob)> {
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

/// Encodes a report frame minus the volatile timing fields, for
/// byte-level comparison across runs.
fn report_fingerprint(report: &WireReport) -> Vec<u8> {
    let mut stripped = report.clone();
    stripped.job_id = 0;
    stripped.queued_us = 0;
    stripped.service_us = 0;
    encode_response(&Response::Report(stripped))
}

#[test]
fn wire_reports_are_bit_identical_across_worker_counts() {
    let runs: Vec<Vec<Vec<u8>>> = [1usize, 4]
        .iter()
        .map(|&workers| {
            let server = server_with(workers);
            let mut client = Client::connect(server.local_addr(), "determinism").expect("connect");
            let jobs = mixed_jobs(9);
            let ids: Vec<u64> = jobs
                .iter()
                .map(|(g, job)| client.submit_ok(g, job).expect("submit"))
                .collect();
            let fingerprints = ids
                .iter()
                .map(|&id| report_fingerprint(&client.wait_report(id).expect("report")))
                .collect();
            server.shutdown();
            fingerprints
        })
        .collect();
    assert_eq!(runs[0].len(), runs[1].len());
    for (i, (a, b)) in runs[0].iter().zip(&runs[1]).enumerate() {
        assert_eq!(
            a, b,
            "job {i}: wire report bytes differ across 1 vs 4 workers"
        );
    }
}

#[test]
fn reports_carry_verifiable_hashes_and_rankings() {
    let server = server_with(2);
    let mut client = Client::connect(server.local_addr(), "verify").expect("connect");
    let g = generators::kings_graph(5, 5);
    let job = BatchJob::uniform(fast_config(), 8, 3);
    let id = client.submit_ok(&g, &job).expect("submit");
    let report = client.wait_report(id).expect("report");
    assert_eq!(report.graph_hash, graph_hash(&g));
    assert_eq!(report.seed, 3);
    assert_eq!(report.ranked.len(), 8);
    for pair in report.ranked.windows(2) {
        assert!(
            pair[0].conflicts <= pair[1].conflicts,
            "ranking is best-first"
        );
    }
    for lane in &report.ranked {
        assert_eq!(
            msropm_server::proto::verify_lane(&g, lane),
            Some(lane.conflicts),
            "client-side conflict recount must match"
        );
    }
    server.shutdown();
}

#[test]
fn blocking_verbs_never_consume_outstanding_mux_replies() {
    let server = server_with(1);
    let mut client = Client::connect(server.local_addr(), "mux").expect("connect");
    let g = generators::kings_graph(5, 5);
    // Two multiplexed submits left outstanding on purpose.
    client
        .submit_nowait_ok(&g, &BatchJob::uniform(fast_config(), 2, 1))
        .expect("mux submit A");
    client
        .submit_nowait_ok(&g, &BatchJob::uniform(fast_config(), 2, 2))
        .expect("mux submit B");
    // An interleaved blocking verb must read *past* the outstanding
    // submit replies (collecting them), not mistake one for its own.
    let stats = client.stats().expect("stats while submits outstanding");
    assert!(stats.backlog <= 3);
    assert_eq!(client.pending_submits(), 2);
    // A blocking submit returns its OWN job id, not the oldest
    // outstanding one; the server assigns ids in admission order.
    let c = client
        .submit_ok(&g, &BatchJob::uniform(fast_config(), 2, 3))
        .expect("blocking submit");
    let a = client.recv_submitted().expect("collected reply A");
    let b = client.recv_submitted().expect("collected reply B");
    assert!(
        a < b && b < c,
        "ids must reflect admission order: {a} {b} {c}"
    );
    assert_eq!(client.pending_submits(), 0);
    // Every job redeems by its true id.
    for id in [a, b, c] {
        assert_eq!(client.wait_report(id).expect("report").job_id, id);
    }
    server.shutdown();
}

#[test]
fn quota_rejection_is_tenant_scoped_through_the_client() {
    let server = one_worker(1, 64);
    let g = generators::kings_graph(6, 6);
    let mut greedy = Client::connect(server.local_addr(), "greedy").expect("connect");
    let mut modest = Client::connect(server.local_addr(), "modest").expect("connect");
    let first = greedy
        .submit_ok(&g, &BatchJob::uniform(fast_config(), 16, 1))
        .expect("first greedy submit admitted");
    match greedy.submit_ok(&g, &BatchJob::uniform(fast_config(), 2, 2)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::QuotaInFlight),
        other => panic!("expected quota rejection, got {other:?}"),
    }
    let other_id = modest
        .submit_ok(&g, &BatchJob::uniform(fast_config(), 2, 3))
        .expect("other tenant proceeds");
    // Quota frees after completion.
    greedy.wait_report(first).expect("first report");
    greedy
        .submit_ok(&g, &BatchJob::uniform(fast_config(), 2, 4))
        .expect("slot freed after completion");
    modest.wait_report(other_id).expect("modest report");
    server.shutdown();
}

#[test]
fn cancelled_job_never_streams_a_report_and_frees_quota() {
    let server = one_worker(2, 64);
    let g = generators::kings_graph(6, 6);
    let mut client = Client::connect(server.local_addr(), "c").expect("connect");
    // A occupies the worker; B queues and is cancelled; a third submit
    // would exceed max_inflight_jobs = 2 until B's slot frees.
    let a = client
        .submit_ok(&g, &BatchJob::uniform(fast_config(), 16, 1))
        .expect("submit A");
    let b = client
        .submit_ok(&g, &BatchJob::uniform(fast_config(), 4, 2))
        .expect("submit B");
    match client.submit_ok(&g, &BatchJob::uniform(fast_config(), 2, 3)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::QuotaInFlight),
        other => panic!("expected quota rejection, got {other:?}"),
    }
    client.cancel(b).expect("cancel B");
    client.wait_report(a).expect("A completes");
    // B settles cancelled; its quota slot frees; it never reports.
    let mut settled = false;
    for _ in 0..200 {
        if client.status(b).expect("status") == msropm_server::JobState::Cancelled {
            settled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(settled, "cancelled job never settled");
    assert!(client
        .wait_report_timeout(b, Duration::from_millis(500))
        .expect("drain")
        .is_none());
    let c = client
        .submit_ok(&g, &BatchJob::uniform(fast_config(), 2, 4))
        .expect("slot freed after cancellation");
    client.wait_report(c).expect("C completes");
    let stats = client.stats().expect("stats");
    assert!(stats.jobs_cancelled >= 1);
    server.shutdown();
}

/// Every [`SubmitOptions`] combination the removed submit quartet used
/// to spell — plain, deadline, nowait, nowait + deadline — stays
/// behaviorally intact through the one `submit_with` entry point, and
/// [`ConnectOptions`] covers both former connect paths.
#[test]
fn submit_and_connect_options_cover_the_legacy_surface() {
    use msropm_client::ConnectOptions;
    let server = server_with(1);
    let mut client = Client::connect_with(
        server.local_addr(),
        "compat",
        &ConnectOptions::new()
            .connect_timeout(Duration::from_secs(5))
            .retry(RetryPolicy::default()),
    )
    .expect("connect with options");
    let g = generators::kings_graph(4, 4);

    let a = client
        .submit_with(
            &g,
            &BatchJob::uniform(fast_config(), 2, 1),
            &SubmitOptions::new(),
        )
        .expect("submit")
        .expect("blocking submit yields a job id");
    client.wait_report(a).expect("report A");

    let b = client
        .submit_with(
            &g,
            &BatchJob::uniform(fast_config(), 2, 2),
            &SubmitOptions::new().deadline_ms(60_000),
        )
        .expect("submit with deadline")
        .expect("blocking submit yields a job id");
    client.wait_report(b).expect("report B");

    client
        .submit_with(
            &g,
            &BatchJob::uniform(fast_config(), 2, 3),
            &SubmitOptions::new().nowait(),
        )
        .expect("nowait submit");
    client
        .submit_with(
            &g,
            &BatchJob::uniform(fast_config(), 2, 4),
            &SubmitOptions::new().nowait().deadline_ms(60_000),
        )
        .expect("nowait submit with deadline");
    assert_eq!(client.pending_submits(), 2);
    let c = client.recv_submitted().expect("reply C");
    let d = client.recv_submitted().expect("reply D");
    client.wait_report(c).expect("report C");
    client.wait_report(d).expect("report D");
    server.shutdown();
}
