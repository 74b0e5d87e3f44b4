//! `serve_hot_open`: the reactor front end over the binary wire, open
//! loop.
//!
//! The server boots in process (2 workers, `ShardPolicy::Auto`, f64
//! kernel). One multiplexed `Client` connection sends jobs at seeded
//! Poisson arrival times with a fixed mean rate, drawn from the `mixed`
//! graph pool at dt 0.02; every 4th job is a (K, σ) sweep. The problem
//! cache holds the whole pool, so every lookup hits. Latency runs from
//! each job's due time to its report; how late the generator sent is
//! reported beside it.

use crate::layers::{self, WorkCounts};
use crate::stats::{self, ms};
use crate::{Args, Measured, Report, Traced, SETUP_REPEATS};
use msropm_client::{Client, ClientError, ConnectOptions, SubmitOptions};
use msropm_core::{
    num_cores, BatchJob, KernelBackend, Msropm, MsropmConfig, ShardedArena, SolveOptions,
    SweepParam, SweepSpec,
};
use msropm_graph::{generators, graph_hash, Graph};
use msropm_server::proto::{self, FrontendKind, Request, Response, WireReport};
use msropm_server::{Frontend, ServerConfig, ShardPolicy};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Mean arrival rate, jobs per second: a committed constant, about half
/// of what a 2-worker server sustains on this pool on a 2-core host.
const RATE_JOBS_PER_S: f64 = 20.0;
/// Worker threads of the served pool.
const WORKERS: usize = 2;
/// Lanes of a uniform job; sweep jobs carry the 2×2 grid.
const LANES: usize = 8;
/// Jobs at the head of the schedule replayed in process, bit for bit.
const REPLAY_JOBS: usize = 8;
/// Longest wait for the reports still out once the last job was sent.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest single wait for a report before the generator looks at the
/// schedule again; bounds how late a report that arrives behind another
/// job's is stamped.
const POLL_CAP: Duration = Duration::from_millis(1);
/// A run whose 95th-percentile send lag exceeds one mean inter-arrival
/// gap is invalid: the generator, not the server, set the latency.
const MAX_GEN_LAG_MS: f64 = 1e3 / RATE_JOBS_PER_S;
/// Tail percentile reported (≥ 10 samples beyond it at 20 jobs/s over
/// 10 s or more).
const TAIL_PCT: f64 = 95.0;

fn config() -> MsropmConfig {
    MsropmConfig {
        dt: 0.02,
        ..MsropmConfig::paper_default()
    }
}

/// King's 7×7 and 5×5, cycle 48, grid 6×6, triangular 5×5.
fn graph_pool() -> Vec<Graph> {
    vec![
        generators::kings_graph(7, 7),
        generators::kings_graph(5, 5),
        generators::cycle_graph(48),
        generators::grid_graph(6, 6),
        generators::triangular_lattice(5, 5),
    ]
}

/// One scheduled job: its pool graph, the job, and its due offset.
struct Scheduled {
    graph: usize,
    job: BatchJob,
    due_s: f64,
}

/// Poisson arrivals over `seconds`, conditioned on their count: exactly
/// `RATE_JOBS_PER_S × seconds` jobs at sorted uniform times. Graphs
/// rotate through the pool, so every seed offers the same load and mix;
/// the seed sets the arrival times and job seeds.
fn schedule(seed: u64, seconds: f64, pool: usize) -> Vec<Scheduled> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e27_e0be);
    let count = (RATE_JOBS_PER_S * seconds).round().max(1.0) as usize;
    let mut due: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * seconds).collect();
    due.sort_by(f64::total_cmp);
    let sweep = SweepSpec::new()
        .grid(SweepParam::CouplingStrength, vec![0.8, 1.2])
        .grid(SweepParam::Noise, vec![0.1, 0.25]);
    due.into_iter()
        .enumerate()
        .map(|(i, due_s)| {
            let graph = i % pool;
            let job_seed = rng.next_u64();
            let job = if i % 4 == 3 {
                BatchJob::from_sweep(config(), &sweep, job_seed)
            } else {
                BatchJob::uniform(config(), LANES, job_seed)
            };
            Scheduled { graph, job, due_s }
        })
        .collect()
}

struct Bench {
    server: Frontend,
    client: Client,
    pool: Vec<Graph>,
}

/// Graph generation, server bind, connect, and one warm-up job per pool
/// graph so the cache holds the whole pool.
fn set_up() -> Result<Bench, String> {
    let pool = graph_pool();
    let server = ServerConfig::builder()
        .frontend(FrontendKind::Reactor)
        .workers(WORKERS)
        .shards(ShardPolicy::Auto)
        .backend(KernelBackend::F64)
        .queue_capacity(256)
        .cache_capacity(16)
        .max_inflight_jobs(4096)
        .max_queued_lanes(1 << 20)
        .max_connections(8)
        .bind("127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect_with(server.local_addr(), "bench", &ConnectOptions::new())
        .map_err(|e| format!("connect: {e}"))?;
    for g in &pool {
        let id = client
            .submit_with(
                g,
                &BatchJob::uniform(config(), LANES, 0),
                &SubmitOptions::new(),
            )
            .map_err(|e| format!("warm-up submit: {e}"))?
            .ok_or("blocking submit returned no id")?;
        client
            .wait_report(id)
            .map_err(|e| format!("warm-up report: {e}"))?;
    }
    Ok(Bench {
        server,
        client,
        pool,
    })
}

/// One job's journey, stamped by the generator.
struct Done {
    index: usize,
    due: Instant,
    sent: Instant,
    acked: Instant,
    received: Instant,
    queued_us: u64,
    service_us: u64,
    /// The best lane's accuracy, or why the report failed verification.
    verified: Result<f64, String>,
    /// The report itself, kept for the replayed head of the schedule.
    report: Option<WireReport>,
}

struct Segment {
    wall_s: f64,
    done: Vec<Done>,
    failed: Vec<String>,
}

/// Drives one open-loop pass over `jobs`: each job is sent when due
/// (blocking submit, so the generator stamps its id round trip), and
/// between sends the generator waits for reports on the same connection.
fn open_loop(bench: &mut Bench, jobs: &[Scheduled]) -> Result<Segment, String> {
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(jobs[i].due_s);
    let mut next = 0;
    let mut outstanding: Vec<(usize, u64, Instant, Instant)> = Vec::new();
    let mut seg = Segment {
        wall_s: 0.0,
        done: Vec::with_capacity(jobs.len()),
        failed: Vec::new(),
    };
    let client = &mut bench.client;
    loop {
        let now = Instant::now();
        if next < jobs.len() && now >= due(next) {
            let job = &jobs[next];
            let sent = Instant::now();
            match client.submit_with(&bench.pool[job.graph], &job.job, &SubmitOptions::new()) {
                Ok(Some(id)) => outstanding.push((next, id, sent, Instant::now())),
                Ok(None) => return Err("blocking submit returned no id".into()),
                Err(ClientError::Server { code, message }) => seg
                    .failed
                    .push(format!("job {next} refused: {code:?} {message}")),
                Err(e) => return Err(format!("submit: {e}")),
            }
            next += 1;
            continue;
        }
        if next == jobs.len() {
            if outstanding.is_empty() {
                break;
            }
            if now > due(jobs.len() - 1) + DRAIN_TIMEOUT {
                for (index, ..) in outstanding.drain(..) {
                    seg.failed.push(format!("job {index}: no report"));
                }
                break;
            }
        }
        let until = if next < jobs.len() {
            due(next)
        } else {
            now + POLL_CAP
        };
        let wait = until.saturating_duration_since(now).min(POLL_CAP);
        let Some(&(_, oldest, ..)) = outstanding.first() else {
            std::thread::sleep(wait);
            continue;
        };
        let mut polled = vec![(oldest, client.wait_report_timeout(oldest, wait))];
        if client.stashed_reports() > 0 {
            for &(_, id, ..) in &outstanding[1..] {
                polled.push((id, client.wait_report_timeout(id, Duration::ZERO)));
            }
        }
        let received = Instant::now();
        for (id, result) in polled {
            let report = match result {
                Ok(None) => continue,
                Ok(Some(report)) => Some(report),
                Err(ClientError::Server { code, message }) => {
                    seg.failed
                        .push(format!("job id {id} failed: {code:?} {message}"));
                    None
                }
                Err(e) => return Err(format!("report: {e}")),
            };
            let pos = outstanding
                .iter()
                .position(|o| o.1 == id)
                .expect("polled ids are outstanding");
            let (index, _, sent, acked) = outstanding.remove(pos);
            if let Some(report) = report {
                let job = &jobs[index];
                seg.done.push(Done {
                    index,
                    due: due(index),
                    sent,
                    acked,
                    received,
                    queued_us: report.queued_us,
                    service_us: report.service_us,
                    verified: verify(&bench.pool[job.graph], &job.job, &report),
                    report: (index < REPLAY_JOBS).then_some(report),
                });
            }
        }
    }
    seg.wall_s = start.elapsed().as_secs_f64();
    Ok(seg)
}

/// Re-verifies one report on its own graph: every lane's conflicts
/// (`proto::verify_lane`), accuracy bits, colour range, seed, ranking
/// and graph hash. Returns the best lane's accuracy.
fn verify(graph: &Graph, job: &BatchJob, report: &WireReport) -> Result<f64, String> {
    if report.ranked.len() != job.lanes.len() {
        return Err(format!(
            "{} lanes for {}",
            report.ranked.len(),
            job.lanes.len()
        ));
    }
    if report.graph_hash != graph_hash(graph) || report.seed != job.seed {
        return Err("graph hash or seed not echoed".into());
    }
    let seeds = job.lane_seeds();
    let m = graph.num_edges();
    let colors = job.config.num_colors as u16;
    for (rank, lane) in report.ranked.iter().enumerate() {
        let fail = |what: &str| Err(format!("rank {rank}: {what}"));
        if proto::verify_lane(graph, lane) != Some(lane.conflicts) {
            return fail("conflicts differ from a recount");
        }
        let accuracy = (m as u64 - lane.conflicts) as f64 / m as f64;
        if lane.accuracy.to_bits() != accuracy.to_bits() {
            return fail("accuracy differs from the conflicts");
        }
        if lane.coloring.iter().any(|&c| c >= colors)
            || seeds.get(lane.lane as usize) != Some(&lane.seed)
        {
            return fail("colour out of range or wrong lane seed");
        }
        if rank > 0 {
            let prev = &report.ranked[rank - 1];
            if (prev.conflicts, prev.lane) >= (lane.conflicts, lane.lane) {
                return fail("lanes not ranked by (conflicts, lane)");
            }
        }
    }
    Ok(report.ranked[0].accuracy)
}

/// Solves one served job again in process and compares the report bit
/// for bit; returns the solve's exact work counts.
fn replay(graph: &Graph, job: &BatchJob, report: &WireReport) -> Result<WorkCounts, String> {
    let machine = Msropm::new(graph, job.config);
    let seeds = job.lane_seeds();
    let solutions = machine
        .solve_lanes(&job.lanes, &seeds, SolveOptions::new())
        .ok_or("uncancelled replay returned nothing")?;
    for lane in &report.ranked {
        let local = &solutions[lane.lane as usize];
        let colors: Vec<u16> = local.coloring.as_slice().iter().map(|c| c.0).collect();
        if colors != lane.coloring || local.coloring.conflicts(graph) as u64 != lane.conflicts {
            return Err(format!(
                "lane {} differs from the in-process replay",
                lane.lane
            ));
        }
    }
    Ok(layers::work_counts(graph, &job.config, &solutions))
}

/// Collects a segment's verification results and replays the head of
/// the schedule. Returns best-lane accuracies, errors and the replayed
/// work.
fn check(
    bench: &Bench,
    jobs: &[Scheduled],
    seg: &Segment,
) -> (Vec<f64>, Vec<String>, WorkCounts, usize) {
    let mut quality = Vec::new();
    let mut errors = seg.failed.clone();
    let mut counts = WorkCounts::default();
    let mut replayed = 0;
    for d in &seg.done {
        match &d.verified {
            Ok(best) => quality.push(*best),
            Err(e) => errors.push(format!("job {}: {e}", d.index)),
        }
        if let Some(report) = &d.report {
            let job = &jobs[d.index];
            match replay(&bench.pool[job.graph], &job.job, report) {
                Ok(c) => {
                    counts.add(c);
                    replayed += 1;
                }
                Err(e) => errors.push(format!("job {}: {e}", d.index)),
            }
        }
    }
    (quality, errors, counts, replayed)
}

fn latencies(seg: &Segment) -> Vec<f64> {
    seg.done.iter().map(|d| ms(d.due, d.received)).collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (setup_s, mut bench) = layers::repeated_setup(SETUP_REPEATS, set_up)?;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let jobs = schedule(args.seed, seconds, bench.pool.len());
    let before = bench.client.stats().map_err(|e| format!("stats: {e}"))?;
    let plain = open_loop(&mut bench, &jobs)?;
    let traced = if args.trace {
        Some(open_loop(&mut bench, &jobs)?)
    } else {
        None
    };
    let after = bench.client.stats().map_err(|e| format!("stats: {e}"))?;
    let (quality, mut errors, counts, replayed) = check(&bench, &jobs, &plain);
    let lags: Vec<f64> = plain.done.iter().map(|d| ms(d.due, d.sent)).collect();
    let lag_p95 = stats::percentile(&lags, 95.0);
    if lag_p95 > MAX_GEN_LAG_MS {
        errors.push(format!(
            "invalid run: generator p95 send lag {lag_p95:.2} ms exceeds {MAX_GEN_LAG_MS} ms"
        ));
    }
    let mut notes = vec![format!(
        "serve_hot_open: {} jobs scheduled at {RATE_JOBS_PER_S} jobs/s over {seconds} s, \
         {WORKERS} workers, {} cores; generator p95 lag {lag_p95:.3} ms",
        jobs.len(),
        num_cores()
    )];
    notes.push(
        "serving latencies have no reference in the paper: unvalidated host time".to_string(),
    );
    let mut attempted = jobs.len() as u64;
    let Some(traced) = traced else {
        bench.server.shutdown();
        return Ok(Report {
            attempted,
            failed: errors.len() as u64,
            errors,
            notes,
            measured: Some(Measured {
                setup_s,
                wall_s: plain.wall_s,
                latencies_ms: latencies(&plain),
                tail_pct: TAIL_PCT,
                quality: stats::mean(&quality),
            }),
            traced: None,
        });
    };
    let (_, traced_errors, _, _) = check(&bench, &jobs, &traced);
    errors.extend(traced_errors);
    attempted += jobs.len() as u64;

    // Per-job layer split of the traced pass: generator lag, queue wait
    // and service (as the server reports them), and the transport rest.
    let per_job =
        |f: &dyn Fn(&Done) -> f64| stats::mean(&traced.done.iter().map(f).collect::<Vec<_>>());
    let lag_ms = per_job(&|d| ms(d.due, d.sent));
    let queue_ms = per_job(&|d| d.queued_us as f64 / 1e3);
    let service_ms = per_job(&|d| d.service_us as f64 / 1e3);
    let latency_ms = per_job(&|d| ms(d.due, d.received));
    let transport_ms = latency_ms - lag_ms - queue_ms - service_ms;
    let submit_rtt_ms = per_job(&|d| ms(d.sent, d.acked));
    let untraced_job_ms = stats::mean(&latencies(&plain));

    // Layer micro-measurements on the workload's own inputs.
    let frames: Vec<(Request, Response)> = plain
        .done
        .iter()
        .filter_map(|d| {
            let job = &jobs[d.index];
            let submit = Request::Submit {
                tenant: "bench".into(),
                graph: bench.pool[job.graph].clone(),
                job: job.job.clone(),
                deadline_ms: 0,
            };
            d.report
                .as_ref()
                .map(|r| (submit, Response::Report(r.clone())))
        })
        .collect();
    let codec_ns = layers::codec_ns(&frames);
    let report_bytes = layers::report_bytes(&frames);
    let kernel = layers::kernel_times(&bench.pool[0], &config(), LANES);
    let first = jobs.first().ok_or("empty schedule")?;
    let machine = Msropm::new(&bench.pool[first.graph], first.job.config);
    let split = layers::stage_split(
        &machine,
        &first.job.lanes,
        &first.job.lane_seeds(),
        1,
        &mut ShardedArena::new(),
    );
    let compile_us = layers::us_per_item(&bench.pool, |g| {
        std::hint::black_box(Msropm::new(g, config()));
    });
    let hash_us = layers::us_per_item(&bench.pool, |g| {
        std::hint::black_box(graph_hash(g));
    });
    let lookups =
        (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
    let per_replay = |n: u64| n as f64 / replayed.max(1) as f64;
    let metrics: BTreeMap<&'static str, f64> = [
        ("osc.rhs_ns", kernel.rhs_ns),
        ("osc.step_ns", kernel.step_ns),
        ("ode.noise_ns", kernel.noise_ns),
        ("core.stage1_ms", split.stage1_ms),
        ("core.stage2_ms", split.rest_ms()),
        ("core.compile_us", compile_us),
        (
            "core.cache_hit_rate",
            (after.cache_hits - before.cache_hits) as f64 / lookups.max(1) as f64,
        ),
        ("core.rhs_evals", per_replay(counts.rhs_evals)),
        ("core.edge_visits", per_replay(counts.edge_visits)),
        ("ode.noise_draws", per_replay(counts.noise_draws)),
        ("server.queue_ms", queue_ms),
        ("server.service_ms", service_ms),
        ("server.transport_ms", transport_ms),
        ("server.submit_rtt_ms", submit_rtt_ms),
        ("server.codec_ns", codec_ns),
        (
            "server.jobs_sharded",
            (after.jobs_sharded - before.jobs_sharded) as f64,
        ),
        ("server.shard_width_max", after.shard_width_max as f64),
        ("server.report_bytes", report_bytes),
        ("graph.hash_us", hash_us),
        ("bench.gen_lag_ms", lag_p95),
        (
            "bench.unattributed_frac",
            1.0 - latency_ms / untraced_job_ms,
        ),
        (
            "bench.trace_overhead_frac",
            1.0 - (traced.done.len() as f64 / traced.wall_s)
                / (plain.done.len() as f64 / plain.wall_s),
        ),
    ]
    .into_iter()
    .collect();
    bench.server.shutdown();
    Ok(Report {
        attempted,
        failed: errors.len() as u64,
        errors,
        notes,
        measured: None,
        traced: Some(Traced {
            metrics,
            layers: vec![
                ("bench.gen_lag", lag_ms),
                ("server.queue", queue_ms),
                ("server.service", service_ms),
                ("server.transport (rest)", transport_ms),
            ],
            inside: vec![
                ("server.submit_rtt (ms)", submit_rtt_ms),
                ("server.codec, both frames (ms)", codec_ns / 1e6),
                ("graph.hash, per lookup (ms)", hash_us / 1e3),
                ("job solve, 1 shard (ms)", split.full_ms),
            ],
            untraced_job_ms,
        }),
    })
}
