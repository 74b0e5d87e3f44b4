//! Remote-solve CLI over the MSROPM wire protocol.
//!
//! ```text
//! solve_remote --addr HOST:PORT [--tenant NAME] [--retries N] [--retry-base-ms MS]
//!              submit --graph SPEC [--replicas N] [--seed S] [--sweep]
//!              [--deadline-ms MS] [--no-wait]
//! solve_remote --addr HOST:PORT [--tenant NAME]
//!              problem --class NAME --input SPEC|FILE [--k K] [--replicas N]
//!              [--seed S] [--deadline-ms MS] [--no-wait]
//! solve_remote --addr HOST:PORT [--tenant NAME] status JOB_ID
//! solve_remote --addr HOST:PORT [--tenant NAME] cancel JOB_ID
//! solve_remote --addr HOST:PORT [--tenant NAME] stats
//! solve_remote smoke [--addr HOST:PORT]
//! ```
//!
//! Graph `SPEC`s: `kings:RxC`, `grid:RxC`, `cycle:N`, or a path to a
//! DIMACS `.col` file.
//!
//! `problem` submits a typed [`msropm_problems::ProblemSpec`] through
//! the `SubmitProblem` wire verb and prints the decoded, domain-ranked
//! report. Classes `coloring`, `max-cut`, `max-k-cut`, `mis` and
//! `vertex-cover` take a graph `SPEC` (generator or DIMACS `.col`
//! file); `number-partition` takes a whitespace-separated weights
//! file; `cnf-sat` a DIMACS CNF file; `qubo`/`ising` their JSON forms.
//!
//! `smoke` runs the CI scenario: submit a long job and a short one,
//! poll `status`, `cancel` the queued job, verify the long job's report
//! arrives (with a matching client-side graph hash and conflict
//! recount) and that **the cancelled job never produces a report**;
//! then submit one instance of every problem class through
//! `SubmitProblem`, and prove an unsupported spec and an unknown verb
//! each answer a typed error **without desyncing the connection**.
//! Without `--addr` it boots an in-process binary-codec
//! [`msropm_server::Frontend`] on an ephemeral loopback port first —
//! the protocol still travels through a real TCP socket.

use msropm_client::{Client, ClientError, ConnectOptions, RetryPolicy, SubmitOptions};
use msropm_core::{BatchJob, KernelBackend, MsropmConfig, SweepParam, SweepSpec};
use msropm_graph::{generators, graph_hash, io as graph_io, Graph};
use msropm_problems::{DecodedSolution, ProblemClass, ProblemSpec};
use msropm_server::proto::{self, verify_lane, ErrorCode, Request, Response, WireProblemReport};
use msropm_server::stats::Registry;
use msropm_server::{JobState, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: solve_remote --addr HOST:PORT [--tenant NAME] [--retries N] [--retry-base-ms MS] \
         <submit|problem|status|cancel|stats> ...\n\
         \x20      solve_remote smoke [--addr HOST:PORT] [--idle N]\n\
         submit:  --graph SPEC [--replicas N] [--seed S] [--sweep] [--backend f64|fixed] \
         [--deadline-ms MS] [--no-wait]\n\
         problem: --class NAME --input SPEC|FILE [--k K] [--replicas N] [--seed S] \
         [--backend f64|fixed] [--deadline-ms MS] [--no-wait]\n\
         \x20        classes: coloring | max-cut | max-k-cut | mis | vertex-cover | \
         number-partition | cnf-sat | qubo | ising\n\
         smoke:   --idle N holds N extra idle connections open through the scenario\n\
         --retries N reconnects with exponential backoff on refused/reset connections\n\
         graph SPECs: kings:RxC | grid:RxC | cycle:N | path/to/file.col"
    );
    std::process::exit(2);
}

fn parse_graph_spec(spec: &str) -> Result<Graph, String> {
    fn dims(s: &str) -> Result<(usize, usize), String> {
        let (r, c) = s.split_once('x').ok_or_else(|| format!("bad dims {s:?}"))?;
        Ok((
            r.parse().map_err(|_| format!("bad rows {r:?}"))?,
            c.parse().map_err(|_| format!("bad cols {c:?}"))?,
        ))
    }
    if let Some(d) = spec.strip_prefix("kings:") {
        let (r, c) = dims(d)?;
        Ok(generators::kings_graph(r, c))
    } else if let Some(d) = spec.strip_prefix("grid:") {
        let (r, c) = dims(d)?;
        Ok(generators::grid_graph(r, c))
    } else if let Some(n) = spec.strip_prefix("cycle:") {
        let n = n.parse().map_err(|_| format!("bad cycle size {n:?}"))?;
        Ok(generators::cycle_graph(n))
    } else {
        let file = std::fs::File::open(spec)
            .map_err(|e| format!("cannot open graph file {spec:?}: {e}"))?;
        graph_io::read_dimacs(std::io::BufReader::new(file))
            .map_err(|e| format!("cannot parse {spec:?}: {e}"))
    }
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("solve_remote: {e}");
    std::process::exit(1);
}

/// Builds a typed spec from the CLI's `--class`/`--input`/`--k`
/// arguments. Graph classes accept generator specs or DIMACS `.col`
/// files; the other classes read their standard text format from the
/// input path.
fn build_problem_spec(class: ProblemClass, input: &str, k: u16) -> Result<ProblemSpec, String> {
    let spec = match class {
        ProblemClass::Coloring
        | ProblemClass::MaxCut
        | ProblemClass::MaxKCut
        | ProblemClass::Mis
        | ProblemClass::VertexCover => {
            let graph = parse_graph_spec(input)?;
            let k = if k == 0 { 4 } else { k };
            match class {
                ProblemClass::Coloring => ProblemSpec::Coloring { graph, colors: k },
                ProblemClass::MaxCut => ProblemSpec::MaxCut { graph },
                ProblemClass::MaxKCut => ProblemSpec::MaxKCut { graph, k },
                ProblemClass::Mis => ProblemSpec::Mis { graph },
                ProblemClass::VertexCover => ProblemSpec::VertexCover { graph },
                _ => unreachable!("matched a graph class"),
            }
        }
        _ => {
            let text = std::fs::read_to_string(input)
                .map_err(|e| format!("cannot read {input:?}: {e}"))?;
            ProblemSpec::from_text(class, &text, k).map_err(|e| e.to_string())?
        }
    };
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// One-line summary of a decoded solution for terminal output.
fn describe_solution(sol: &DecodedSolution) -> String {
    match sol {
        DecodedSolution::Coloring(c) => format!("coloring of {} vertices", c.len()),
        DecodedSolution::CutSides(s) => {
            format!(
                "cut with {} vertices on side 1",
                s.iter().filter(|&&b| b).count()
            )
        }
        DecodedSolution::Subset(s) => format!("subset of {} vertices", s.len()),
        DecodedSolution::Partition(p) => {
            format!(
                "partition with {} items on side 1",
                p.iter().filter(|&&b| b).count()
            )
        }
        DecodedSolution::Assignment(a) => {
            format!(
                "assignment with {} of {} vars true",
                a.iter().filter(|&&b| b).count(),
                a.len()
            )
        }
        DecodedSolution::Spins(s) => {
            format!(
                "{} of {} spins up",
                s.iter().filter(|&&b| b).count(),
                s.len()
            )
        }
    }
}

fn print_problem_report(report: &WireProblemReport) {
    let r = &report.report;
    println!(
        "job {}: class {}, fingerprint {:#018x}, {} lanes, queued {} us, service {} us",
        report.job_id,
        r.class,
        r.problem_fingerprint,
        r.ranked.len(),
        report.queued_us,
        report.service_us
    );
    for lane in r.ranked.iter().take(4) {
        println!(
            "  lane {:>3} (seed {:#018x}): objective {}, {}, {}",
            lane.lane,
            lane.seed,
            lane.objective,
            if lane.feasible {
                "feasible"
            } else {
                "infeasible"
            },
            describe_solution(&lane.solution)
        );
    }
    if r.ranked.len() > 4 {
        println!("  ... {} more lanes", r.ranked.len() - 4);
    }
}

fn print_report(graph: Option<&Graph>, report: &msropm_server::proto::WireReport) {
    println!(
        "job {}: graph hash {:#018x}, {} lanes, queued {} us, service {} us",
        report.job_id,
        report.graph_hash,
        report.ranked.len(),
        report.queued_us,
        report.service_us
    );
    if let Some(g) = graph {
        assert_eq!(
            report.graph_hash,
            graph_hash(g),
            "server answered a different topology"
        );
    }
    for lane in report.ranked.iter().take(4) {
        println!(
            "  lane {:>3} (seed {:#018x}): {} conflicts, accuracy {:.4}",
            lane.lane, lane.seed, lane.conflicts, lane.accuracy
        );
    }
    if report.ranked.len() > 4 {
        println!("  ... {} more lanes", report.ranked.len() - 4);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut tenant = "cli".to_string();
    let mut retries: Option<u32> = None;
    let mut retry_base_ms: Option<u64> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(it.next().unwrap_or_else(|| usage())),
            "--tenant" => tenant = it.next().unwrap_or_else(|| usage()),
            "--retries" => {
                retries = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--retry-base-ms" => {
                retry_base_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => rest.push(a),
        }
    }
    let Some(verb) = rest.first().cloned() else {
        usage()
    };
    if verb == "smoke" {
        let mut idle = 0usize;
        let mut it = rest.iter().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--idle" => {
                    idle = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage())
                }
                _ => usage(),
            }
        }
        smoke(addr.as_deref(), idle);
        return;
    }
    let Some(addr) = addr else { usage() };
    // Either retry flag opts into reconnect-with-backoff; the other
    // takes its default from RetryPolicy.
    let mut client = if retries.is_some() || retry_base_ms.is_some() {
        let defaults = RetryPolicy::default();
        let policy = RetryPolicy {
            max_retries: retries.unwrap_or(defaults.max_retries),
            base_delay: retry_base_ms
                .map(Duration::from_millis)
                .unwrap_or(defaults.base_delay),
            ..defaults
        };
        Client::connect_with(addr.as_str(), &tenant, &ConnectOptions::new().retry(policy))
            .unwrap_or_else(|e| fail(format!("connect {addr} (after retries): {e}")))
    } else {
        Client::connect(&addr, &tenant).unwrap_or_else(|e| fail(format!("connect {addr}: {e}")))
    };
    match verb.as_str() {
        "submit" => {
            let mut graph_spec: Option<String> = None;
            let mut replicas = 8usize;
            let mut seed = 1u64;
            let mut sweep = false;
            let mut wait = true;
            let mut deadline_ms = 0u64;
            let mut backend: Option<KernelBackend> = None;
            let mut it = rest.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--graph" => graph_spec = it.next().cloned(),
                    "--deadline-ms" => {
                        deadline_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--replicas" => {
                        replicas = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--sweep" => sweep = true,
                    "--no-wait" => wait = false,
                    "--backend" => {
                        backend = Some(
                            it.next()
                                .and_then(|v| KernelBackend::from_name(v))
                                .unwrap_or_else(|| usage()),
                        )
                    }
                    _ => usage(),
                }
            }
            let spec = graph_spec.unwrap_or_else(|| usage());
            let graph = parse_graph_spec(&spec).unwrap_or_else(|e| fail(e));
            let mut config = MsropmConfig::paper_default();
            if let Some(b) = backend {
                config = config.with_backend(b);
            }
            let job = if sweep {
                let grid = SweepSpec::new()
                    .logspace(SweepParam::CouplingStrength, 0.7, 1.4, replicas.max(2) / 2)
                    .grid(SweepParam::Noise, vec![0.12, 0.24]);
                BatchJob::from_sweep(config, &grid, seed)
            } else {
                BatchJob::uniform(config, replicas, seed)
            };
            let job_id = client
                .submit_with(&graph, &job, &SubmitOptions::new().deadline_ms(deadline_ms))
                .unwrap_or_else(|e| fail(format!("submit: {e}")))
                .expect("blocking submit yields a job id");
            if deadline_ms > 0 {
                println!(
                    "submitted job {job_id} ({} lanes, deadline {deadline_ms} ms)",
                    job.lanes.len()
                );
            } else {
                println!("submitted job {job_id} ({} lanes)", job.lanes.len());
            }
            if wait {
                let report = client
                    .wait_report(job_id)
                    .unwrap_or_else(|e| fail(format!("wait: {e}")));
                print_report(Some(&graph), &report);
            }
        }
        "problem" => {
            let mut class: Option<String> = None;
            let mut input: Option<String> = None;
            let mut k = 0u16;
            let mut replicas = 8u32;
            let mut seed = 1u64;
            let mut wait = true;
            let mut deadline_ms = 0u64;
            let mut backend: Option<KernelBackend> = None;
            let mut it = rest.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--class" => class = it.next().cloned(),
                    "--input" => input = it.next().cloned(),
                    "--k" => {
                        k = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--replicas" => {
                        replicas = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--deadline-ms" => {
                        deadline_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--no-wait" => wait = false,
                    "--backend" => {
                        backend = Some(
                            it.next()
                                .and_then(|v| KernelBackend::from_name(v))
                                .unwrap_or_else(|| usage()),
                        )
                    }
                    _ => usage(),
                }
            }
            let class = class
                .as_deref()
                .and_then(ProblemClass::from_name)
                .unwrap_or_else(|| usage());
            let input = input.unwrap_or_else(|| usage());
            let spec = build_problem_spec(class, &input, k).unwrap_or_else(|e| fail(e));
            let mut config = MsropmConfig::paper_default();
            if let Some(b) = backend {
                config = config.with_backend(b);
            }
            let options = SubmitOptions::new().deadline_ms(deadline_ms);
            let job_id = client
                .submit_problem(&spec, &config, replicas, seed, &options)
                .unwrap_or_else(|e| fail(format!("submit problem: {e}")))
                .expect("blocking submit yields a job id");
            println!("submitted {class} job {job_id} ({replicas} replicas)");
            if wait {
                let report = client
                    .wait_problem_report(job_id)
                    .unwrap_or_else(|e| fail(format!("wait: {e}")));
                print_problem_report(&report);
            }
        }
        "status" | "cancel" => {
            let job_id: u64 = rest
                .get(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
            let state = if verb == "status" {
                client.status(job_id)
            } else {
                client.cancel(job_id)
            }
            .unwrap_or_else(|e| fail(format!("{verb}: {e}")));
            println!("job {job_id}: {state}");
        }
        "stats" => {
            let s = client
                .stats()
                .unwrap_or_else(|e| fail(format!("stats: {e}")));
            // Render from the shared registry schema: every counter the
            // server exposes prints, including ones added after this
            // binary shipped a hand-written format string.
            let registry = Registry::from_wire(&s);
            println!("frontend: {}", registry.frontend());
            for (def, value) in registry.iter() {
                println!("{}: {}", def.name, value);
            }
        }
        _ => usage(),
    }
}

/// The CI wire-smoke scenario; panics (nonzero exit) on any violation.
/// With `idle > 0`, that many extra connections are opened first and
/// held open — completely idle — through the whole scenario, proving
/// the server multiplexes them without degrading active traffic (the
/// event loop serves them threadlessly; `stats` must count every
/// one).
fn smoke(addr: Option<&str>, idle: usize) {
    // Without --addr: boot a 1-worker server in-process on an
    // ephemeral loopback port (still a real TCP socket). With --addr:
    // the server was booted externally (ci.sh starts `msropm_serve
    // --workers 1`).
    let local = if addr.is_none() {
        Some(
            ServerConfig::builder()
                .workers(1)
                .queue_capacity(16)
                .cache_capacity(8)
                .bind("127.0.0.1:0")
                .unwrap_or_else(|e| fail(format!("bind: {e}"))),
        )
    } else {
        None
    };
    let addr = addr
        .map(str::to_string)
        .unwrap_or_else(|| local.as_ref().unwrap().local_addr().to_string());
    println!("wire smoke against {addr}");
    let mut client =
        Client::connect(&addr, "smoke").unwrap_or_else(|e| fail(format!("connect {addr}: {e}")));

    // The idle fleet: open and then never touch. Held until the end of
    // the scenario so every assertion below runs with the fleet attached.
    let idle_fleet: Vec<std::net::TcpStream> = (0..idle)
        .map(|i| {
            std::net::TcpStream::connect(&addr)
                .unwrap_or_else(|e| fail(format!("idle connect {i}: {e}")))
        })
        .collect();
    if idle > 0 {
        // Wait until the server has registered the whole fleet.
        let mut connections = 0;
        for _ in 0..600 {
            let s = client
                .stats()
                .unwrap_or_else(|e| fail(format!("stats: {e}")));
            connections = s.connections;
            if connections >= (idle + 1) as u64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(
            connections >= (idle + 1) as u64,
            "server tracks only {connections} of {} connections",
            idle + 1
        );
        println!("idle fleet attached: {connections} connections served");
    }

    // Job A: big enough to occupy the single worker for a while. Job B
    // queues behind it and is cancelled while A runs.
    let board = generators::kings_graph(14, 14);
    let config = MsropmConfig::paper_default();
    let job_a = BatchJob::uniform(config, 12, 1);
    let job_b = BatchJob::uniform(config, 4, 2);
    let blocking = SubmitOptions::new();
    let a = client
        .submit_with(&board, &job_a, &blocking)
        .unwrap_or_else(|e| fail(format!("submit A: {e}")))
        .expect("blocking submit yields a job id");
    let b = client
        .submit_with(&board, &job_b, &blocking)
        .unwrap_or_else(|e| fail(format!("submit B: {e}")))
        .expect("blocking submit yields a job id");
    println!("submitted A={a} (12 lanes), B={b} (4 lanes)");

    let state_b = client
        .status(b)
        .unwrap_or_else(|e| fail(format!("status B: {e}")));
    println!("status B before cancel: {state_b}");
    let after_cancel = client
        .cancel(b)
        .unwrap_or_else(|e| fail(format!("cancel B: {e}")));
    println!("cancel B acknowledged (state then: {after_cancel})");

    // A's report must arrive, bit-verifiable client-side.
    let report_a = client
        .wait_report(a)
        .unwrap_or_else(|e| fail(format!("wait A: {e}")));
    assert_eq!(report_a.graph_hash, graph_hash(&board), "A hash mismatch");
    for lane in &report_a.ranked {
        assert_eq!(
            verify_lane(&board, lane),
            Some(lane.conflicts),
            "lane {} conflict recount mismatch",
            lane.lane
        );
    }
    println!(
        "report A: best lane {} with {} conflicts",
        report_a.best().map(|l| l.lane).unwrap_or_default(),
        report_a.best().map(|l| l.conflicts).unwrap_or_default()
    );

    // B must settle in Cancelled (the worker observes the token right
    // after A) ...
    let mut state = after_cancel;
    for _ in 0..600 {
        if state == JobState::Cancelled {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        state = client
            .status(b)
            .unwrap_or_else(|e| fail(format!("status B: {e}")));
    }
    assert_eq!(state, JobState::Cancelled, "B never settled in cancelled");
    // ... and must never produce a report.
    match client.wait_report_timeout(b, Duration::from_secs(2)) {
        Ok(None) => {}
        Ok(Some(_)) => fail("cancelled job B produced a report"),
        Err(e) => fail(format!("drain after cancel: {e}")),
    }
    // Multiplexed mode: several submits written back to back on the
    // one socket before any reply is read, then correlated by job id.
    let mux_jobs = 4;
    let small = generators::kings_graph(5, 5);
    let nowait = SubmitOptions::new().nowait();
    for i in 0..mux_jobs {
        client
            .submit_with(&small, &BatchJob::uniform(config, 2, 100 + i), &nowait)
            .unwrap_or_else(|e| fail(format!("mux submit {i}: {e}")));
    }
    let mux_ids: Vec<u64> = (0..mux_jobs)
        .map(|i| {
            client
                .recv_submitted()
                .unwrap_or_else(|e| fail(format!("mux reply {i}: {e}")))
        })
        .collect();
    for id in &mux_ids {
        let report = client
            .wait_report(*id)
            .unwrap_or_else(|e| fail(format!("mux report {id}: {e}")));
        assert_eq!(report.graph_hash, graph_hash(&small), "mux hash mismatch");
    }
    println!("multiplexed {mux_jobs} in-flight submits on one socket");

    // One instance of every problem class through the SubmitProblem
    // verb: the server compiles, solves, and streams back a decoded,
    // domain-ranked report.
    let specs: Vec<ProblemSpec> = {
        use msropm_problems::{Cnf, Ising, Lit, Qubo};
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::from_dimacs(1), Lit::from_dimacs(2)]);
        cnf.add_clause(vec![Lit::from_dimacs(-1), Lit::from_dimacs(3)]);
        cnf.add_clause(vec![Lit::from_dimacs(-2), Lit::from_dimacs(-3)]);
        vec![
            ProblemSpec::Coloring {
                graph: generators::kings_graph(4, 4),
                colors: 4,
            },
            ProblemSpec::MaxCut {
                graph: generators::cycle_graph(7),
            },
            ProblemSpec::MaxKCut {
                graph: generators::kings_graph(4, 4),
                k: 4,
            },
            ProblemSpec::Mis {
                graph: generators::cycle_graph(9),
            },
            ProblemSpec::VertexCover {
                graph: generators::kings_graph(3, 3),
            },
            ProblemSpec::NumberPartition {
                weights: vec![3, 1, 4, 1, 5, 9, 2, 6],
            },
            ProblemSpec::CnfSat { cnf },
            ProblemSpec::Qubo(Qubo {
                n: 4,
                linear: vec![-1.0, 0.5, -0.5, 0.25],
                quadratic: vec![(0, 1, 1.0), (1, 2, -1.0), (2, 3, 0.5)],
            }),
            ProblemSpec::Ising(Ising {
                n: 4,
                h: vec![0.1, -0.2, 0.3, 0.0],
                j: vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, -1.0)],
            }),
        ]
    };
    for spec in &specs {
        let class = spec.class();
        let id = client
            .submit_problem(spec, &config, 2, 7, &blocking)
            .unwrap_or_else(|e| fail(format!("submit {class}: {e}")))
            .expect("blocking submit yields a job id");
        let report = client
            .wait_problem_report(id)
            .unwrap_or_else(|e| fail(format!("wait {class}: {e}")));
        assert_eq!(report.report.class, class, "class echoed back");
        assert_eq!(
            report.report.ranked.len(),
            2,
            "{class}: one entry per replica"
        );
        let best = report.report.best().expect("two replicas ranked");
        println!(
            "problem {class}: job {id}, best objective {} ({})",
            best.objective,
            if best.feasible {
                "feasible"
            } else {
                "infeasible"
            }
        );
    }

    // An unsupported spec must answer a typed, request-scoped error —
    // and leave the connection fully usable.
    let bad = ProblemSpec::Coloring {
        graph: generators::cycle_graph(5),
        colors: 3, // not a power of two: the compiler rejects it
    };
    match client.submit_problem(&bad, &config, 2, 7, &blocking) {
        Err(ClientError::Server {
            code: ErrorCode::UnsupportedProblem,
            ..
        }) => {}
        other => fail(format!(
            "3-color spec should be UnsupportedProblem, got {other:?}"
        )),
    }
    let after_bad = client
        .submit_with(&small, &BatchJob::uniform(config, 2, 321), &blocking)
        .unwrap_or_else(|e| fail(format!("submit after unsupported spec: {e}")))
        .expect("blocking submit yields a job id");
    client
        .wait_report(after_bad)
        .unwrap_or_else(|e| fail(format!("report after unsupported spec: {e}")));
    println!("unsupported spec answered typed error; connection stayed live");

    // An unknown verb frame must do the same: typed UnsupportedVerb
    // reply, no desync — the very next frame on the socket is served.
    {
        let mut raw = std::net::TcpStream::connect(&addr)
            .unwrap_or_else(|e| fail(format!("raw connect: {e}")));
        proto::write_frame(&mut raw, &[0xAB, 0xCD, 0xEF])
            .unwrap_or_else(|e| fail(format!("raw write: {e}")));
        let mut reader = std::io::BufReader::new(
            raw.try_clone()
                .unwrap_or_else(|e| fail(format!("raw clone: {e}"))),
        );
        let reply =
            proto::read_frame(&mut reader).unwrap_or_else(|e| fail(format!("raw read: {e}")));
        match proto::decode_response(&reply) {
            Ok(Response::Error {
                code: ErrorCode::UnsupportedVerb,
                ..
            }) => {}
            other => fail(format!("unknown verb should be UnsupportedVerb: {other:?}")),
        }
        proto::write_frame(&mut raw, &proto::encode_request(&Request::Stats))
            .unwrap_or_else(|e| fail(format!("stats after bad verb: {e}")));
        let reply = proto::read_frame(&mut reader)
            .unwrap_or_else(|e| fail(format!("stats read after bad verb: {e}")));
        match proto::decode_response(&reply) {
            Ok(Response::StatsReply(_)) => {}
            other => fail(format!("stats after bad verb should answer: {other:?}")),
        }
        println!("unknown verb answered typed error; connection stayed live");
    }

    let stats = client
        .stats()
        .unwrap_or_else(|e| fail(format!("stats: {e}")));
    assert!(stats.jobs_completed >= 1, "A should be counted completed");
    assert!(stats.jobs_cancelled >= 1, "B should be counted cancelled");
    drop(idle_fleet);
    if let Some(server) = local {
        server.shutdown();
    }
    println!(
        "wire smoke OK ({} frontend): submit/status/cancel verified; cancelled job produced \
         no report (completed {}, cancelled {}, idle connections {})",
        stats.frontend, stats.jobs_completed, stats.jobs_cancelled, idle
    );
}
