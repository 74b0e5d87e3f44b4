//! `problems_cold_http`: fresh problem instances over the HTTP/JSON
//! front end, closed loop.
//!
//! One keep-alive `HttpClient` connection posts `POST /v1/problems` with
//! a newly generated instance per request, cycling all nine classes in
//! their text formats (DIMACS `.col`, DIMACS CNF, weight lists, QUBO and
//! Ising JSON) at 32–64 variables, 2–4 replicas, on the fixed-point
//! kernel at dt 0.02. Each report is collected by polling
//! `GET /v1/jobs/{id}` every [`POLL_INTERVAL`]. Every request misses the
//! problem cache (and evicts once it is full), so JSON, problem
//! parse/compile/decode and machine compile all run per job.

use crate::layers::{self, WorkCounts};
use crate::stats::{self, median, ms};
use crate::{Args, Measured, Report, Traced, SETUP_REPEATS};
use msropm_client::http::{problem_report_from_json, HttpClient};
use msropm_core::{
    BatchJob, JobReport, KernelBackend, Msropm, MsropmConfig, RankedLane, ShardedArena,
    SolveOptions,
};
use msropm_graph::{generators, graph_hash, io, Graph};
use msropm_problems::baseline::{
    greedy_ising, greedy_max_k_cut, greedy_mis, greedy_partition, greedy_qubo, greedy_vertex_cover,
};
use msropm_problems::json::Json;
use msropm_problems::{Decoder, ObjectiveSense, ProblemClass, ProblemSpec};
use msropm_server::http::HttpParser;
use msropm_server::proto::{FrontendKind, Request, Response, WireProblemReport};
use msropm_server::{Frontend, ServerConfig, ShardPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Fixed interval between status polls of one job.
const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// Worker threads of the served pool.
const WORKERS: usize = 2;
/// Compiled problems the server cache keeps; fresh instances evict.
const CACHE_CAPACITY: usize = 8;
/// Palette / class count sent with every request (used by coloring and
/// max-k-cut).
const K: u16 = 4;
/// Jobs at the head of the stream replayed in process, bit for bit: one
/// of each class.
const REPLAY_JOBS: usize = 9;
/// Tail percentile reported (≥ 10 samples beyond it at the closed-loop
/// job rate over 10 s or more).
const TAIL_PCT: f64 = 95.0;

fn config() -> MsropmConfig {
    MsropmConfig {
        dt: 0.02,
        backend: KernelBackend::Fixed,
        ..MsropmConfig::paper_default()
    }
}

/// One generated request.
struct Job {
    class: ProblemClass,
    text: String,
    replicas: usize,
    seed: u64,
    body: String,
}

/// Rounds to three decimals so instance text stays short and exact.
fn coef(rng: &mut StdRng, half_width: f64) -> f64 {
    ((rng.gen::<f64>() * 2.0 - 1.0) * half_width * 1000.0).round() / 1000.0
}

fn dimacs(g: &Graph) -> String {
    let mut out = Vec::new();
    io::write_dimacs(g, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("DIMACS text is ASCII")
}

/// Distinct pairs `i < j < n`, about `per_var × n` of them.
fn sparse_pairs(rng: &mut StdRng, n: usize, per_var: usize) -> Vec<(usize, usize)> {
    let mut pairs = std::collections::BTreeSet::new();
    while pairs.len() < per_var * n {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            pairs.insert((a.min(b), a.max(b)));
        }
    }
    pairs.into_iter().collect()
}

fn quadratic_json(
    n: usize,
    linear_key: &str,
    linear: &[f64],
    quad_key: &str,
    quad: &[(usize, usize, f64)],
) -> String {
    let mut out = format!("{{\"n\":{n},\"{linear_key}\":[");
    for (i, x) in linear.iter().enumerate() {
        let _ = write!(out, "{}{x}", if i > 0 { "," } else { "" });
    }
    let _ = write!(out, "],\"{quad_key}\":[");
    for (i, (a, b, w)) in quad.iter().enumerate() {
        let _ = write!(out, "{}[{a},{b},{w}]", if i > 0 { "," } else { "" });
    }
    out.push_str("]}");
    out
}

/// Instance text of `class` with `n` variables.
fn instance(class: ProblemClass, n: usize, rng: &mut StdRng) -> String {
    let sparse = |rng: &mut StdRng, degree: f64| generators::erdos_renyi(n, degree / n as f64, rng);
    match class {
        ProblemClass::Coloring => {
            dimacs(&generators::planted_k_colorable(n, K as usize, 4.0 / n as f64, rng).0)
        }
        ProblemClass::MaxCut | ProblemClass::Mis | ProblemClass::VertexCover => {
            dimacs(&sparse(rng, 4.0))
        }
        ProblemClass::MaxKCut => dimacs(&sparse(rng, 6.0)),
        ProblemClass::NumberPartition => {
            let mut weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..1000u64)).collect();
            // An even total makes a perfect partition possible.
            if weights.iter().sum::<u64>() % 2 == 1 {
                weights[0] += 1;
            }
            weights
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        }
        ProblemClass::CnfSat => {
            // Random 3-SAT at clause ratio 3, every clause satisfied by a
            // planted assignment.
            let planted: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
            let clauses = 3 * n;
            let mut out = format!("p cnf {n} {clauses}\n");
            let mut written = 0;
            while written < clauses {
                let vars = [
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                ];
                if vars[0] == vars[1] || vars[1] == vars[2] || vars[0] == vars[2] {
                    continue;
                }
                let lits: Vec<i64> = vars
                    .iter()
                    .map(|&v| {
                        if rng.gen::<bool>() {
                            v as i64 + 1
                        } else {
                            -(v as i64 + 1)
                        }
                    })
                    .collect();
                let satisfied = lits
                    .iter()
                    .any(|&l| (l > 0) == planted[(l.unsigned_abs() - 1) as usize]);
                if satisfied {
                    let _ = writeln!(out, "{} {} {} 0", lits[0], lits[1], lits[2]);
                    written += 1;
                }
            }
            out
        }
        ProblemClass::Qubo => {
            let linear: Vec<f64> = (0..n).map(|_| coef(rng, 1.0)).collect();
            let quad: Vec<(usize, usize, f64)> = sparse_pairs(rng, n, 2)
                .into_iter()
                .map(|(a, b)| (a, b, coef(rng, 1.0)))
                .collect();
            quadratic_json(n, "linear", &linear, "quadratic", &quad)
        }
        ProblemClass::Ising => {
            let h: Vec<f64> = (0..n).map(|_| coef(rng, 0.5)).collect();
            let j: Vec<(usize, usize, f64)> = sparse_pairs(rng, n, 2)
                .into_iter()
                .map(|(a, b)| (a, b, coef(rng, 1.0)))
                .collect();
            quadratic_json(n, "h", &h, "j", &j)
        }
    }
}

/// The deterministic request stream of one workload seed: job `i` is of
/// class `i mod 9`.
struct JobStream {
    rng: StdRng,
    next: usize,
}

impl JobStream {
    fn new(seed: u64) -> Self {
        JobStream {
            rng: StdRng::seed_from_u64(seed ^ 0xc01d_4777),
            next: 0,
        }
    }

    fn next_job(&mut self) -> Job {
        let class = ProblemClass::ALL[self.next % ProblemClass::ALL.len()];
        self.next += 1;
        let rng = &mut self.rng;
        let n = rng.gen_range(32..65usize);
        let replicas = rng.gen_range(2..5usize);
        let seed = rng.gen_range(0..u32::MAX as u64);
        let text = instance(class, n, rng);
        let body = Json::Obj(vec![
            ("tenant".into(), Json::Str("bench".into())),
            ("class".into(), Json::Str(class.name().into())),
            ("input".into(), Json::Str(text.clone())),
            ("k".into(), Json::Num(f64::from(K))),
            ("replicas".into(), Json::Num(replicas as f64)),
            ("seed".into(), Json::Num(seed as f64)),
            (
                "config".into(),
                Json::Obj(vec![
                    ("backend".into(), Json::Str("fixed".into())),
                    ("dt".into(), Json::Num(0.02)),
                ]),
            ),
        ])
        .render();
        Job {
            class,
            text,
            replicas,
            seed,
            body,
        }
    }
}

struct Bench {
    server: Frontend,
    client: HttpClient,
}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value
        .get(key)
        .ok_or_else(|| format!("response lacks \"{key}\""))
}

/// One served job: stamps, poll count and the decoded report.
struct Done {
    job: Job,
    posted: Instant,
    acked: Instant,
    received: Instant,
    polls: u32,
    report: WireProblemReport,
}

/// Posts one job and polls it to its terminal state. `Ok(None)` is a
/// refused or failed job.
fn serve_one(client: &mut HttpClient, job: Job) -> Result<Result<Done, String>, String> {
    let posted = Instant::now();
    let (status, reply) = client
        .request_json("POST", "/v1/problems", Some(&job.body))
        .map_err(|e| format!("POST: {e:?}"))?;
    let acked = Instant::now();
    if status != 202 {
        return Ok(Err(format!("{} refused with {status}", job.class)));
    }
    let id = field(&reply, "job_id")?
        .as_u64()
        .ok_or("job_id is not a number")?;
    let path = format!("/v1/jobs/{id}?tenant=bench");
    let mut polls = 0;
    loop {
        std::thread::sleep(POLL_INTERVAL);
        polls += 1;
        let (status, reply) = client
            .request_json("GET", &path, None)
            .map_err(|e| format!("GET: {e:?}"))?;
        let state = field(&reply, "state")?
            .as_str()
            .unwrap_or_default()
            .to_string();
        match (status, state.as_str()) {
            (200, "queued" | "running") => continue,
            (200, "done") => {
                let received = Instant::now();
                let report = problem_report_from_json(field(&reply, "report")?)
                    .map_err(|e| format!("report JSON: {e:?}"))?;
                return Ok(Ok(Done {
                    job,
                    posted,
                    acked,
                    received,
                    polls,
                    report,
                }));
            }
            _ => {
                return Ok(Err(format!(
                    "{} job {id} ended {status} {state}",
                    job.class
                )))
            }
        }
    }
}

/// Server bind, connect, and one warm-up request per class from a
/// stream no measured run uses.
fn set_up() -> Result<Bench, String> {
    let server = ServerConfig::builder()
        .frontend(FrontendKind::Http)
        .workers(WORKERS)
        .shards(ShardPolicy::Auto)
        .cache_capacity(CACHE_CAPACITY)
        .queue_capacity(64)
        .max_inflight_jobs(64)
        .max_connections(8)
        .bind("127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    let mut client =
        HttpClient::connect(server.local_addr()).map_err(|e| format!("connect: {e:?}"))?;
    let mut warm = JobStream::new(u64::MAX);
    for _ in ProblemClass::ALL {
        serve_one(&mut client, warm.next_job())??;
    }
    Ok(Bench { server, client })
}

/// The timing of one completed job, kept for every job of a segment.
struct Stamp {
    posted: Instant,
    acked: Instant,
    received: Instant,
    polls: u32,
    queued_us: u64,
    service_us: u64,
}

struct Segment {
    wall_s: f64,
    attempted: u64,
    stamps: Vec<Stamp>,
    /// 1 when a job's best lane met the quality base, else 0.
    quality: Vec<f64>,
    errors: Vec<String>,
    /// The first jobs in full, for the in-process replay.
    head: Vec<Done>,
}

/// Closed loop: the next request goes out when the previous report is
/// in and verified. Instance generation happens before each request's
/// clock starts; only the head of the stream is kept in full.
fn closed_loop(bench: &mut Bench, seed: u64, seconds: f64) -> Result<Segment, String> {
    let mut stream = JobStream::new(seed);
    let mut seg = Segment {
        wall_s: 0.0,
        attempted: 0,
        stamps: Vec::new(),
        quality: Vec::new(),
        errors: Vec::new(),
        head: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < budget || (seg.attempted as usize) < REPLAY_JOBS {
        seg.attempted += 1;
        let done = match serve_one(&mut bench.client, stream.next_job())? {
            Ok(done) => done,
            Err(e) => {
                seg.errors.push(e);
                continue;
            }
        };
        seg.stamps.push(Stamp {
            posted: done.posted,
            acked: done.acked,
            received: done.received,
            polls: done.polls,
            queued_us: done.report.queued_us,
            service_us: done.report.service_us,
        });
        let verified = compile(&done.job)
            .and_then(|(spec, compiled)| verify(&done.job, &spec, &compiled.decoder, &done.report));
        match verified {
            Ok(meets) => seg.quality.push(if meets { 1.0 } else { 0.0 }),
            Err(e) => seg.errors.push(format!(
                "job {} ({}): {e}",
                seg.attempted - 1,
                done.job.class
            )),
        }
        if seg.head.len() < REPLAY_JOBS {
            seg.head.push(done);
        }
    }
    seg.wall_s = start.elapsed().as_secs_f64();
    Ok(seg)
}

/// The client-side view of one job: its spec and decoder.
fn compile(job: &Job) -> Result<(ProblemSpec, msropm_problems::CompiledProblem), String> {
    let spec = ProblemSpec::from_text(job.class, &job.text, K).map_err(|e| e.to_string())?;
    let compiled = spec
        .compile(&config(), job.replicas)
        .map_err(|e| e.to_string())?;
    Ok((spec, compiled))
}

/// The class's greedy reference from `problems::baseline`; `None` for
/// CNF-SAT, which has none (feasibility alone is its criterion).
fn greedy(spec: &ProblemSpec) -> Option<f64> {
    Some(match spec {
        ProblemSpec::Coloring { graph, colors } => {
            (graph.num_edges() - greedy_max_k_cut(graph, *colors as usize).1) as f64
        }
        ProblemSpec::MaxCut { graph } => greedy_max_k_cut(graph, 2).1 as f64,
        ProblemSpec::MaxKCut { graph, k } => greedy_max_k_cut(graph, *k as usize).1 as f64,
        ProblemSpec::Mis { graph } => greedy_mis(graph).len() as f64,
        ProblemSpec::VertexCover { graph } => greedy_vertex_cover(graph).len() as f64,
        ProblemSpec::NumberPartition { weights } => greedy_partition(weights).1 as f64,
        ProblemSpec::CnfSat { .. } => return None,
        ProblemSpec::Qubo(q) => greedy_qubo(q).1,
        ProblemSpec::Ising(i) => greedy_ising(i).1,
    })
}

/// Classes whose `feasible` flag means "objective is zero".
fn feasible_means_zero(class: ProblemClass) -> bool {
    matches!(
        class,
        ProblemClass::Coloring | ProblemClass::NumberPartition | ProblemClass::CnfSat
    )
}

/// Re-verifies one report: every lane's objective recomputed with
/// `Decoder::objective_of`, feasibility flags, ranking, echoes. Returns
/// whether the best lane is feasible and no worse than the greedy base.
fn verify(
    job: &Job,
    spec: &ProblemSpec,
    decoder: &Decoder,
    served: &WireProblemReport,
) -> Result<bool, String> {
    let report = &served.report;
    if report.class != job.class
        || report.problem_fingerprint != spec.fingerprint()
        || report.seed != job.seed
    {
        return Err("class, fingerprint or seed not echoed".into());
    }
    if report.ranked.len() != job.replicas {
        return Err(format!(
            "{} lanes for {} replicas",
            report.ranked.len(),
            job.replicas
        ));
    }
    let sense = job.class.sense();
    for (rank, lane) in report.ranked.iter().enumerate() {
        if decoder.objective_of(&lane.solution).map(f64::to_bits) != Some(lane.objective.to_bits())
        {
            return Err(format!("rank {rank}: objective differs from a recount"));
        }
        if feasible_means_zero(job.class) && lane.feasible != (lane.objective == 0.0)
            || !feasible_means_zero(job.class) && !lane.feasible
        {
            return Err(format!(
                "rank {rank}: feasibility flag disagrees with the objective"
            ));
        }
        if rank > 0 {
            let prev = &report.ranked[rank - 1];
            let order = match sense {
                ObjectiveSense::Minimize => prev.objective.total_cmp(&lane.objective),
                ObjectiveSense::Maximize => lane.objective.total_cmp(&prev.objective),
            };
            if order.then(prev.lane.cmp(&lane.lane)).is_gt() {
                return Err(format!("rank {rank}: lanes out of objective order"));
            }
        }
    }
    let best = &report.ranked[0];
    let beats_greedy = match (greedy(spec), sense) {
        (None, _) => true,
        (Some(g), ObjectiveSense::Minimize) => best.objective <= g,
        (Some(g), ObjectiveSense::Maximize) => best.objective >= g,
    };
    Ok(best.feasible && beats_greedy)
}

/// Solves one served job again in process, ranks and decodes it, and
/// compares the decoded report bit for bit. Returns the solve's work
/// counts and the machine report (for the decode timing).
fn replay(done: &Done) -> Result<(WorkCounts, JobReport), String> {
    let (_, compiled) = compile(&done.job)?;
    let machine = Msropm::new(&compiled.graph, compiled.config);
    let job = BatchJob {
        config: compiled.config,
        lanes: compiled.lanes.clone(),
        seed: done.job.seed,
    };
    let seeds = job.lane_seeds();
    let solutions = machine
        .solve_lanes(&job.lanes, &seeds, SolveOptions::new())
        .ok_or("uncancelled replay returned nothing")?;
    let counts = layers::work_counts(&compiled.graph, &compiled.config, &solutions);
    let m = compiled.graph.num_edges();
    let mut ranked: Vec<RankedLane> = solutions
        .into_iter()
        .enumerate()
        .map(|(lane, solution)| {
            let conflicts = solution.coloring.conflicts(&compiled.graph);
            RankedLane {
                lane,
                seed: seeds[lane],
                conflicts,
                accuracy: if m == 0 {
                    1.0
                } else {
                    (m - conflicts) as f64 / m as f64
                },
                solution,
            }
        })
        .collect();
    ranked.sort_by_key(|r| r.conflicts);
    let machine_report = JobReport {
        graph_hash: graph_hash(&compiled.graph),
        seed: job.seed,
        ranked,
    };
    if compiled.decoder.decode_report(&machine_report) != done.report.report {
        return Err(format!(
            "{} report differs from the in-process replay",
            done.job.class
        ));
    }
    Ok((counts, machine_report))
}

/// A segment's verification errors plus those of the replayed head,
/// with the head's work counts and machine reports.
fn check(seg: &Segment) -> (Vec<String>, WorkCounts, Vec<JobReport>) {
    let mut errors = seg.errors.clone();
    let mut counts = WorkCounts::default();
    let mut machine_reports = Vec::new();
    for (i, d) in seg.head.iter().enumerate() {
        match replay(d) {
            Ok((c, r)) => {
                counts.add(c);
                machine_reports.push(r);
            }
            Err(e) => errors.push(format!("job {i}: {e}")),
        }
    }
    (errors, counts, machine_reports)
}

fn latencies(seg: &Segment) -> Vec<f64> {
    seg.stamps
        .iter()
        .map(|s| ms(s.posted, s.received))
        .collect()
}

fn stats_counters(client: &mut HttpClient) -> Result<Json, String> {
    let (_, body) = client
        .request_json("GET", "/v1/stats", None)
        .map_err(|e| format!("stats: {e:?}"))?;
    Ok(field(&body, "counters")?.clone())
}

fn counter(counters: &Json, name: &str) -> f64 {
    counters.get(name).and_then(Json::as_f64).unwrap_or(0.0)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (setup_s, mut bench) = layers::repeated_setup(SETUP_REPEATS, set_up)?;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = stats_counters(&mut bench.client)?;
    let plain = closed_loop(&mut bench, args.seed, seconds)?;
    let traced = if args.trace {
        Some(closed_loop(&mut bench, args.seed, seconds)?)
    } else {
        None
    };
    let after = stats_counters(&mut bench.client)?;
    bench.server.shutdown();
    let (mut errors, counts, machine_reports) = check(&plain);
    let notes = vec![
        format!(
            "problems_cold_http: {} jobs closed loop over {seconds} s, {WORKERS} workers, \
             status polled every {} ms",
            plain.stamps.len(),
            POLL_INTERVAL.as_millis()
        ),
        "quality base: best lane feasible and no worse than the class's problems::baseline \
         greedy (coloring and max-cut via greedy_max_k_cut; CNF-SAT, which has no greedy, \
         by feasibility alone)"
            .to_string(),
        "serving latencies have no reference in the paper: unvalidated host time".to_string(),
    ];
    let mut attempted = plain.attempted;
    let Some(traced) = traced else {
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
                quality: stats::mean(&plain.quality),
            }),
            traced: None,
        });
    };
    let (traced_errors, _, _) = check(&traced);
    errors.extend(traced_errors);
    attempted += traced.attempted;

    let per_job =
        |f: &dyn Fn(&Stamp) -> f64| stats::mean(&traced.stamps.iter().map(f).collect::<Vec<_>>());
    let queue_ms = per_job(&|s| s.queued_us as f64 / 1e3);
    let service_ms = per_job(&|s| s.service_us as f64 / 1e3);
    let latency_ms = per_job(&|s| ms(s.posted, s.received));
    let transport_ms = latency_ms - queue_ms - service_ms;
    let submit_rtt_ms = per_job(&|s| ms(s.posted, s.acked));
    let polls = per_job(&|s| f64::from(s.polls));
    let untraced_job_ms = stats::mean(&latencies(&plain));

    // Layer micro-measurements on the head of the stream (one job per
    // class).
    let head: Vec<&Done> = plain.head.iter().collect();
    let compiled: Vec<_> = head
        .iter()
        .map(|d| compile(&d.job))
        .collect::<Result<_, _>>()?;
    let parse_us = layers::us_per_item(&head, |d| {
        std::hint::black_box(ProblemSpec::from_text(d.job.class, &d.job.text, K).is_ok());
    });
    let problem_compile_us = layers::us_per_item(&compiled, |(spec, c)| {
        std::hint::black_box(spec.compile(&config(), c.lanes.len()).is_ok());
    });
    let paired: Vec<_> = compiled.iter().zip(&machine_reports).collect();
    let decode_us = layers::us_per_item(&paired, |((_, c), r)| {
        std::hint::black_box(c.decoder.decode_report(r));
    });
    let machine_compile_us = layers::us_per_item(&compiled, |(_, c)| {
        std::hint::black_box(Msropm::new(&c.graph, c.config));
    });
    let hash_us = layers::us_per_item(&compiled, |(_, c)| {
        std::hint::black_box(graph_hash(&c.graph));
    });
    let http_parse_ns = 1e3
        * layers::us_per_item(&head, |d| {
            let request = format!(
                "POST /v1/problems HTTP/1.1\r\nhost: msropm\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\n\r\n{}",
                d.job.body.len(),
                d.job.body
            );
            let mut parser = HttpParser::new();
            parser.push(request.as_bytes());
            std::hint::black_box(parser.next_request().is_ok());
        });
    // The same submissions and reports as binary-wire frames.
    let frames: Vec<(Request, Response)> = head
        .iter()
        .zip(&compiled)
        .map(|(d, (spec, c))| {
            let submit = Request::SubmitProblem {
                tenant: "bench".into(),
                spec: spec.clone(),
                config: config(),
                replicas: c.lanes.len() as u32,
                seed: d.job.seed,
                deadline_ms: 0,
            };
            (submit, Response::ProblemReport(d.report.clone()))
        })
        .collect();
    let codec_ns = layers::codec_ns(&frames);
    let report_bytes = layers::report_bytes(&frames);
    // Kernel and stage split on the head's coloring instance, the only
    // two-stage class, at its own lane count.
    let (_, coloring) = &compiled[0];
    let kernel = layers::kernel_times(&coloring.graph, &coloring.config, coloring.lanes.len());
    let machine = Msropm::new(&coloring.graph, coloring.config);
    let first = BatchJob {
        config: coloring.config,
        lanes: coloring.lanes.clone(),
        seed: head[0].job.seed,
    };
    let split = layers::stage_split(
        &machine,
        &first.lanes,
        &first.lane_seeds(),
        1,
        &mut ShardedArena::new(),
    );
    let replayed = machine_reports.len().max(1) as f64;
    let hits = counter(&after, "cache_hits") - counter(&before, "cache_hits");
    let misses = counter(&after, "cache_misses") - counter(&before, "cache_misses");
    let metrics: BTreeMap<&'static str, f64> = [
        ("osc.rhs_ns", kernel.rhs_ns),
        ("osc.step_ns", kernel.step_ns),
        ("ode.noise_ns", kernel.noise_ns),
        ("core.stage1_ms", split.stage1_ms),
        ("core.stage2_ms", split.rest_ms()),
        ("core.compile_us", machine_compile_us),
        ("core.cache_hit_rate", hits / (hits + misses).max(1.0)),
        ("core.rhs_evals", counts.rhs_evals as f64 / replayed),
        ("core.edge_visits", counts.edge_visits as f64 / replayed),
        ("ode.noise_draws", counts.noise_draws as f64 / replayed),
        ("problems.parse_us", parse_us),
        ("problems.compile_us", problem_compile_us),
        ("problems.decode_us", decode_us),
        ("server.queue_ms", queue_ms),
        ("server.service_ms", service_ms),
        ("server.transport_ms", transport_ms),
        ("server.submit_rtt_ms", submit_rtt_ms),
        ("server.codec_ns", codec_ns),
        ("server.http_parse_ns", http_parse_ns),
        ("server.http_polls_per_job", polls),
        (
            "server.jobs_sharded",
            counter(&after, "jobs_sharded") - counter(&before, "jobs_sharded"),
        ),
        ("server.shard_width_max", counter(&after, "shard_width_max")),
        ("server.report_bytes", report_bytes),
        ("graph.hash_us", hash_us),
        (
            "bench.unattributed_frac",
            1.0 - latency_ms / untraced_job_ms,
        ),
        (
            "bench.trace_overhead_frac",
            1.0 - (traced.stamps.len() as f64 / traced.wall_s)
                / (plain.stamps.len() as f64 / plain.wall_s),
        ),
    ]
    .into_iter()
    .collect();
    Ok(Report {
        attempted,
        failed: errors.len() as u64,
        errors,
        notes,
        measured: None,
        traced: Some(Traced {
            metrics,
            layers: vec![
                ("server.queue", queue_ms),
                ("server.service", service_ms),
                ("server.transport (rest)", transport_ms),
            ],
            inside: vec![
                ("server.submit_rtt (ms)", submit_rtt_ms),
                ("status polls per job", polls),
                ("problems.parse (ms)", parse_us / 1e3),
                ("problems.compile (ms)", problem_compile_us / 1e3),
                ("core.compile, Msropm::new (ms)", machine_compile_us / 1e3),
                ("problems.decode (ms)", decode_us / 1e3),
                ("job solve, coloring head, 1 shard (ms)", split.full_ms),
                (
                    "median job latency, traced (ms)",
                    median(&latencies(&traced)),
                ),
            ],
            untraced_job_ms,
        }),
    })
}
