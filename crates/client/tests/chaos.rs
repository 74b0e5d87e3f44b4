//! Chaos suite: fault-injected serving against the binary codec of the
//! serving event loop.
//!
//! Every test here arms one or more runtime fault points
//! ([`msropm_server::faultinject`]) and asserts the serving contract
//! that matters under failure:
//!
//! - **every submit terminates in a typed outcome** — a report, a
//!   typed `JobFailed`/`Error` frame, or a `cancelled` status; never a
//!   hang, never a lost ticket (all waits are bounded);
//! - **quotas are always released**: after a churn of panics, dead
//!   workers, expired deadlines and cancels, the tenant can fill its
//!   entire in-flight quota again;
//! - **the pool self-heals**: killed workers are respawned by the
//!   supervisor (`worker_restarts` > 0) and throughput recovers — a
//!   fresh batch completes normally after the burst;
//! - **unaffected jobs stay byte-identical**: report frames for jobs
//!   that survive the chaos match across
//!   {1, 4 workers} × {1, 4 shards}, bit for bit
//!   (modulo the volatile id/timing fields) — failure handling must
//!   not perturb the solver at any intra-job shard width;
//! - **shard faults stay job-scoped**: a panic inside one shard of a
//!   sharded solve unwinds the whole job to a typed failure (arena
//!   rebuilt, no worker restart) and the server keeps serving;
//! - **socket faults degrade cleanly**: short writes never corrupt
//!   frames, severed writes surface as typed I/O errors.
//!
//! Fault points are process-global, so every test serializes on
//! [`CHAOS`] and holds a [`faultinject::guard`] to disarm on every
//! exit path (panicking assertions included).

mod common;
use common::SubmitShorthand;

use msropm_client::{Client, ClientError, SubmitOptions};
use msropm_core::{BatchJob, MsropmConfig, SweepParam, SweepSpec};
use msropm_graph::{generators, Graph};
use msropm_problems::ProblemSpec;
use msropm_server::faultinject;
use msropm_server::proto::{self, encode_response, ErrorCode, Request, Response, WireReport};
use msropm_server::{Frontend, JobState, ServerConfig, ShardPolicy};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serializes the suite: fault points are process-global state.
static CHAOS: Mutex<()> = Mutex::new(());

/// No wait in this suite is unbounded; anything slower than this is a
/// hang, which is exactly what the suite exists to catch.
const NO_HANG: Duration = Duration::from_secs(60);

fn chaos_lock() -> MutexGuard<'static, ()> {
    // A panicked sibling test must not wedge the rest of the suite.
    CHAOS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fast_config() -> MsropmConfig {
    MsropmConfig {
        dt: 0.02,
        ..MsropmConfig::paper_default()
    }
}

/// Per-tenant in-flight cap of every chaos server.
const MAX_INFLIGHT: usize = 32;

fn bind_frontend(workers: usize, shards: usize) -> Frontend {
    ServerConfig::builder()
        .workers(workers)
        .queue_capacity(32)
        .cache_capacity(4)
        .shards(ShardPolicy::Fixed(shards))
        .max_inflight_jobs(MAX_INFLIGHT)
        .max_queued_lanes(4096)
        .max_connections(8)
        .bind("127.0.0.1:0")
        .expect("bind frontend")
}

/// The worker-count × shard-width matrix the acceptance criteria name.
const MATRIX: [(usize, usize); 4] = [(1, 1), (4, 1), (1, 4), (4, 4)];

/// A small mixed workload: repeat + cold topologies, every third job a
/// heterogeneous sweep. Seeds are fixed so the same index always means
/// the same problem — the basis of the cross-run identity check.
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

/// A job heavy enough to hold a worker for a while (the occupier /
/// mid-run-deadline vehicle).
fn long_job(seed: u64) -> (Arc<Graph>, BatchJob) {
    (
        Arc::new(generators::kings_graph(8, 8)),
        BatchJob::uniform(fast_config(), 16, seed),
    )
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

/// How one submit of the chaos workload terminated. Every job lands in
/// exactly one of these — that *is* the no-lost-tickets claim.
#[derive(Debug)]
enum Outcome {
    Report(Vec<u8>),
    Failed(ErrorCode),
    Cancelled,
}

/// Waits (bounded) for job `id` to reach a typed outcome.
fn settle(client: &mut Client, id: u64, cancelled: bool, ctx: &str) -> Outcome {
    if cancelled {
        // Cancelled jobs never stream a frame; their terminal signal is
        // the status register. A cancel can race pickup/completion, so
        // any terminal state is a valid typed outcome.
        let t0 = Instant::now();
        loop {
            match client.status(id).expect("status") {
                JobState::Done => {
                    // Lost the race: the report is on the wire. Drain it
                    // so later frame accounting stays clean.
                    let report = client
                        .wait_report_timeout(id, NO_HANG)
                        .expect("report after cancel race")
                        .unwrap_or_else(|| panic!("{ctx}: done job {id} never streamed"));
                    return Outcome::Report(report_fingerprint(&report));
                }
                JobState::Cancelled => return Outcome::Cancelled,
                JobState::Failed => {
                    return match client.wait_report_timeout(id, Duration::from_secs(2)) {
                        Err(ClientError::Server { code, .. }) => Outcome::Failed(code),
                        // The failure frame may have been suppressed
                        // (cancel won at the boundary) — the status is
                        // still a typed terminal outcome.
                        Ok(None) => Outcome::Failed(ErrorCode::Internal),
                        other => panic!("{ctx}: failed job {id} yielded {other:?}"),
                    };
                }
                JobState::Queued | JobState::Running => {
                    assert!(t0.elapsed() < NO_HANG, "{ctx}: job {id} never settled");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
    match client.wait_report_timeout(id, NO_HANG) {
        Ok(Some(report)) => Outcome::Report(report_fingerprint(&report)),
        Ok(None) => panic!("{ctx}: job {id} hung (no frame within {NO_HANG:?})"),
        Err(ClientError::Server { code, .. }) => Outcome::Failed(code),
        Err(e) => panic!("{ctx}: job {id} surfaced transport error {e}"),
    }
}

/// Drives one chaos run: mixed submits (multiplexed), two cancels, a
/// panic-in-solve fault armed mid-stream, delayed completions
/// throughout. Returns the typed outcome of every submit, by job
/// index.
fn chaos_run(workers: usize, shards: usize) -> BTreeMap<usize, Outcome> {
    let ctx = format!("{workers}w/{shards}s");
    let server = bind_frontend(workers, shards);
    let mut client = Client::connect(server.local_addr(), "chaos").expect("connect");

    // Slow every delivery a little and panic one solve mid-batch: the
    // chaos is identical per run, the *victim* job is whichever solve
    // the scheduler hands the countdown to.
    faultinject::arm_delay_completion(2);
    faultinject::arm_panic_in_solve(4);

    let jobs = mixed_jobs(12);
    for (graph, job) in &jobs {
        client.submit_nowait_ok(graph, job).expect("mux submit");
    }
    let ids: Vec<u64> = (0..jobs.len())
        .map(|_| client.recv_submitted().expect("mux reply"))
        .collect();
    let cancel_idx = [2usize, 7];
    for &c in &cancel_idx {
        client.cancel(ids[c]).expect("cancel");
    }

    let outcomes: BTreeMap<usize, Outcome> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (i, settle(&mut client, id, cancel_idx.contains(&i), &ctx)))
        .collect();

    // Quota release: every ticket above reached a terminal state, so
    // the tenant must be able to fill its entire in-flight quota again.
    faultinject::disarm_all();
    let quota = MAX_INFLIGHT;
    let graph = Arc::new(generators::kings_graph(4, 4));
    for s in 0..quota {
        client
            .submit_nowait_ok(&graph, &BatchJob::uniform(fast_config(), 2, s as u64))
            .expect("quota submit");
    }
    let refill: Vec<u64> = (0..quota)
        .map(|_| {
            client
                .recv_submitted()
                .unwrap_or_else(|e| panic!("{ctx}: quota not fully released after chaos: {e}"))
        })
        .collect();
    for id in refill {
        settle(&mut client, id, false, &ctx);
    }

    // Drain completes: shutdown joins the workers and the supervisor.
    server.shutdown();
    outcomes
}

#[test]
fn chaos_every_submit_terminates_and_survivors_stay_identical() {
    let _serial = chaos_lock();
    let _faults = faultinject::guard();

    let runs: Vec<(String, BTreeMap<usize, Outcome>)> = MATRIX
        .into_iter()
        .map(|(workers, shards)| (format!("{workers}w/{shards}s"), chaos_run(workers, shards)))
        .collect();

    for (name, outcomes) in &runs {
        assert_eq!(outcomes.len(), 12, "{name}: a submit was lost");
        let failed = outcomes
            .values()
            .filter(|o| matches!(o, Outcome::Failed(code) if *code == ErrorCode::Internal))
            .count();
        assert!(
            failed >= 1,
            "{name}: the armed panic never surfaced as a typed Internal failure"
        );
    }

    // Byte-identity for the jobs that survived *everywhere*: the panic
    // victim and the cancel races differ per run, but any job that
    // reported in every run must have produced identical bytes —
    // across worker counts and intra-job shard widths.
    let common: Vec<usize> = (0..12)
        .filter(|i| {
            runs.iter()
                .all(|(_, o)| matches!(o.get(i), Some(Outcome::Report(_))))
        })
        .collect();
    assert!(
        common.len() >= 6,
        "too few universally-surviving jobs to make the identity check meaningful: {common:?}"
    );
    let (ref_name, ref_outcomes) = &runs[0];
    for (name, outcomes) in &runs[1..] {
        for &i in &common {
            let (Some(Outcome::Report(a)), Some(Outcome::Report(b))) =
                (ref_outcomes.get(&i), outcomes.get(&i))
            else {
                unreachable!("filtered to universally-reported jobs");
            };
            assert_eq!(
                a, b,
                "job {i}: report bytes differ between {ref_name} and {name}"
            );
        }
    }
}

#[test]
fn panicking_solve_is_a_typed_failure_not_a_dead_server() {
    let _serial = chaos_lock();
    let _faults = faultinject::guard();
    let server = bind_frontend(1, 1);
    let mut client = Client::connect(server.local_addr(), "chaos").expect("connect");
    let (graph, job) = &mixed_jobs(1)[0];

    faultinject::arm_panic_in_solve(1);
    let id = client.submit_ok(graph, job).expect("submit");
    match client.wait_report_timeout(id, NO_HANG) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(
                message.contains("panic"),
                "failure message should carry the panic text, got {message:?}"
            );
        }
        other => panic!("expected typed failure, got {other:?}"),
    }
    assert_eq!(client.status(id).expect("status"), JobState::Failed);

    // The worker caught the panic in place: the very next job
    // solves normally and the failure is counted.
    let id2 = client.submit_ok(graph, job).expect("submit after panic");
    client.wait_report(id2).expect("report after panic");
    let stats = client.stats().expect("stats");
    assert!(stats.jobs_failed >= 1, "{stats:?}");
    assert_eq!(
        stats.worker_restarts, 0,
        "caught panic must not cost a restart"
    );
    server.shutdown();
}

/// Disarms the *core* pool's shard-panic fault on drop — it is a
/// separate fault point from the server crate's `faultinject`, so the
/// server-side guard does not cover it and a failing assertion must
/// not leak it into later tests.
struct ShardFaultGuard;

impl Drop for ShardFaultGuard {
    fn drop(&mut self) {
        msropm_core::pool::faultinject::disarm();
    }
}

#[test]
fn shard_panic_is_a_typed_failure_not_a_dead_server() {
    let _serial = chaos_lock();
    let _faults = faultinject::guard();
    let _shard_fault = ShardFaultGuard;
    for shards in [4, 2] {
        let server = bind_frontend(1, shards);
        let mut client = Client::connect(server.local_addr(), "chaos").expect("connect");
        // A job wide enough that every shard of the fixed width gets
        // lanes — the armed shard is guaranteed to run.
        let graph = Arc::new(generators::kings_graph(4, 4));
        let job = BatchJob::uniform(fast_config(), 8, 77);

        // One shard of the sharded solve panics; the unwind crosses the
        // shard join, the worker's catch_unwind types it, and the
        // worker (arena rebuilt) lives on.
        msropm_core::pool::faultinject::arm_panic_in_shard(1);
        let id = client.submit_ok(&graph, &job).expect("submit");
        match client.wait_report_timeout(id, NO_HANG) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Internal, "{shards}s");
                assert!(
                    message.contains("injected shard panic"),
                    "{shards}s: failure should carry the shard panic text, \
                     got {message:?}"
                );
            }
            other => panic!("{shards}s: expected typed failure, got {other:?}"),
        }
        assert_eq!(client.status(id).expect("status"), JobState::Failed);

        // Same job, fault disarmed by its one-shot firing: the rebuilt
        // arena solves it normally, and a shard panic costs a failure
        // count but never a worker restart.
        let id2 = client
            .submit_ok(&graph, &job)
            .expect("submit after shard panic");
        client.wait_report(id2).expect("report after shard panic");
        let stats = client.stats().expect("stats");
        assert!(stats.jobs_failed >= 1, "{shards}s: {stats:?}");
        assert_eq!(
            stats.worker_restarts, 0,
            "{shards}s: a caught shard panic must not cost a restart"
        );
        assert!(
            stats.jobs_sharded >= 2 && stats.shard_width_max >= shards as u64,
            "{shards}s: shard counters missed the sharded solves: {stats:?}"
        );
        server.shutdown();
    }
}

#[test]
fn killed_workers_are_respawned_and_throughput_recovers() {
    let _serial = chaos_lock();
    let _faults = faultinject::guard();
    for workers in [1, 4] {
        let server = bind_frontend(workers, 1);
        let mut client = Client::connect(server.local_addr(), "chaos").expect("connect");
        let (graph, job) = &mixed_jobs(1)[0];

        // A burst of three worker deaths; each must surface as a typed
        // failure on its job and cost exactly one respawn.
        for round in 0..3u64 {
            faultinject::arm_kill_worker(1);
            let id = client.submit_ok(graph, job).expect("submit");
            match client.wait_report_timeout(id, NO_HANG) {
                Err(ClientError::Server { code, message }) => {
                    assert_eq!(code, ErrorCode::Internal, "{workers}w round {round}");
                    assert!(
                        message.contains("worker died"),
                        "{workers}w round {round}: got {message:?}"
                    );
                }
                other => panic!("{workers}w round {round}: got {other:?}"),
            }
            assert_eq!(client.status(id).expect("status"), JobState::Failed);
        }

        // Self-healed: restarts were observed and a full fresh batch
        // completes — with 1 worker this only passes if the pool really
        // was respawned.
        let t0 = Instant::now();
        loop {
            let stats = client.stats().expect("stats");
            if stats.worker_restarts >= 3 {
                assert!(stats.jobs_failed >= 3, "{workers}w: {stats:?}");
                break;
            }
            assert!(
                t0.elapsed() < NO_HANG,
                "{workers}w: supervisor never logged 3 restarts: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        for (graph, job) in &mixed_jobs(6) {
            let id = client.submit_ok(graph, job).expect("submit after burst");
            client.wait_report(id).expect("report after burst");
        }
        server.shutdown();
    }
}

#[test]
fn deadlines_expire_in_queue_and_mid_run_with_typed_errors() {
    let _serial = chaos_lock();
    let _faults = faultinject::guard();
    // The shard axis rides along: deadline semantics fire at stage
    // boundaries, which a sharded solve joins through identically.
    for shards in [1, 4] {
        let server = bind_frontend(1, shards);
        let mut client = Client::connect(server.local_addr(), "chaos").expect("connect");

        // Queue-wait shedding: the single worker is busy, so a 1 ms
        // deadline is long dead by pickup — the job must be shed
        // without ever running.
        let (og, oj) = long_job(900);
        let occupier = client.submit_ok(&og, &oj).expect("occupier");
        let (graph, job) = &mixed_jobs(1)[0];
        let doomed = client
            .submit_deadline_ok(graph, job, 1)
            .expect("deadline submit");
        match client.wait_report_timeout(doomed, NO_HANG) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::DeadlineExceeded, "{shards}s")
            }
            other => panic!("{shards}s: queued deadline yielded {other:?}"),
        }
        assert_eq!(client.status(doomed).expect("status"), JobState::Failed);
        client.wait_report(occupier).expect("occupier report");

        // Mid-run expiry: a heavy job with a deadline shorter than its
        // runtime starts on an idle worker and is abandoned at a stage
        // boundary.
        let (hg, hj) = long_job(901);
        let midrun = client
            .submit_deadline_ok(&hg, &hj, 20)
            .expect("midrun submit");
        match client.wait_report_timeout(midrun, NO_HANG) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::DeadlineExceeded, "{shards}s midrun")
            }
            other => panic!("{shards}s: midrun deadline yielded {other:?}"),
        }

        // deadline_ms = 0 means no deadline — and expiries released
        // their quota (the fresh submits are admitted and complete).
        let clean = client
            .submit_deadline_ok(graph, job, 0)
            .expect("no deadline");
        client.wait_report(clean).expect("report");
        let stats = client.stats().expect("stats");
        assert!(stats.jobs_failed >= 2, "{shards}s: {stats:?}");
        server.shutdown();
    }
}

#[test]
fn short_writes_dribble_frames_through_intact() {
    let _serial = chaos_lock();
    let _faults = faultinject::guard();

    // Reference fingerprints with the wire healthy...
    let reference: Vec<Vec<u8>> = {
        let server = bind_frontend(1, 1);
        let mut client = Client::connect(server.local_addr(), "chaos").expect("connect");
        let prints = mixed_jobs(4)
            .iter()
            .map(|(g, j)| {
                let id = client.submit_ok(g, j).expect("submit");
                report_fingerprint(&client.wait_report(id).expect("report"))
            })
            .collect();
        server.shutdown();
        prints
    };

    // ...must survive every frame crossing the socket 7 bytes at a
    // time.
    let server = bind_frontend(1, 1);
    let mut client = Client::connect(server.local_addr(), "chaos").expect("connect");
    faultinject::arm_short_writes();
    for (i, (g, j)) in mixed_jobs(4).iter().enumerate() {
        let id = client.submit_ok(g, j).expect("submit");
        let report = client.wait_report(id).expect("report");
        assert_eq!(
            report_fingerprint(&report),
            reference[i],
            "job {i} corrupted by short writes"
        );
    }
    faultinject::disarm_all();
    server.shutdown();
}

/// Request-scoped rejections are not connection faults: a problem the
/// compiler refuses ([`ErrorCode::UnsupportedProblem`]) and a verb the
/// decoder has never heard of ([`ErrorCode::UnsupportedVerb`]) must
/// each answer one typed error frame and leave the connection serving
/// the very next request.
#[test]
fn unsupported_problem_and_unknown_verb_leave_the_connection_alive() {
    let _serial = chaos_lock();
    let _faults = faultinject::guard();
    let server = bind_frontend(1, 1);
    let mut client = Client::connect(server.local_addr(), "chaos").expect("connect");
    let config = fast_config();

    // A 3-color palette is not a power of two: the session's
    // compile step must reject it request-scoped.
    let bad = ProblemSpec::Coloring {
        graph: generators::cycle_graph(5),
        colors: 3,
    };
    match client.submit_problem(&bad, &config, 2, 1, &SubmitOptions::new()) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::UnsupportedProblem)
        }
        other => panic!("unsupported spec yielded {other:?}"),
    }

    // Same socket, next requests: a valid problem and a plain job
    // both serve normally — no desync, no teardown.
    let good = ProblemSpec::Mis {
        graph: generators::cycle_graph(9),
    };
    let pid = client
        .submit_problem(&good, &config, 2, 2, &SubmitOptions::new())
        .unwrap_or_else(|e| panic!("problem after rejection: {e}"))
        .expect("blocking submit yields an id");
    client
        .wait_problem_report(pid)
        .unwrap_or_else(|e| panic!("problem report after rejection: {e}"));
    let (graph, job) = &mixed_jobs(1)[0];
    let id = client.submit_ok(graph, job).expect("plain submit");
    client.wait_report(id).expect("plain report");

    // An unknown verb on a raw socket: typed UnsupportedVerb, then
    // a Stats request on the same socket still answers.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    proto::write_frame(&mut raw, &[0xAB, 0xCD, 0xEF]).expect("raw write");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("raw clone"));
    let reply = proto::read_frame(&mut reader).expect("raw read");
    match proto::decode_response(&reply) {
        Ok(Response::Error {
            code: ErrorCode::UnsupportedVerb,
            ..
        }) => {}
        other => panic!("unknown verb yielded {other:?}"),
    }
    proto::write_frame(&mut raw, &proto::encode_request(&Request::Stats))
        .expect("stats after bad verb");
    let reply = proto::read_frame(&mut reader).expect("stats read after bad verb");
    match proto::decode_response(&reply) {
        Ok(Response::StatsReply(_)) => {}
        other => panic!("stats after bad verb yielded {other:?}"),
    }
    server.shutdown();
}

#[test]
fn severed_write_surfaces_as_transport_error_not_a_hang() {
    let _serial = chaos_lock();
    let _faults = faultinject::guard();
    let server = bind_frontend(1, 1);
    let mut client = Client::connect(server.local_addr(), "chaos").expect("connect");
    let (graph, job) = &mixed_jobs(1)[0];

    // The next server-side write (this submit's reply) severs the
    // connection. The client must get a typed, retryable transport
    // error — not block forever on a half-open socket.
    faultinject::arm_sever_write(1);
    let t0 = Instant::now();
    let err = client
        .submit_ok(graph, job)
        .err()
        .or_else(|| {
            // The submit reply may have raced the arming; the
            // report write then takes the sever.
            client.wait_report(1).err()
        })
        .expect("severed connection must error");
    assert!(t0.elapsed() < NO_HANG, "sever hung the client");
    assert!(
        matches!(err, ClientError::Io(_)),
        "expected transport error, got {err:?}"
    );
    assert!(
        msropm_client::is_retryable(&err),
        "a severed connection should be retryable: {err:?}"
    );
    server.shutdown();
}
