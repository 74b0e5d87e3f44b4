//! `paper_2116`: the paper's headline instance, solved in process.
//!
//! The 46×46 King's graph (2116 nodes, 8190 edges) at
//! `MsropmConfig::paper_default()` — f64 kernel, dt 0.01, the 60 ns
//! four-colour schedule. One caller solves 8-lane jobs back to back
//! through `Msropm::solve_lanes`, sharded `nproc`-wide on
//! `pool::global()`. No transport, no cache: kernel and sharding
//! changes show here.

use crate::layers::{self, WorkCounts};
use crate::stats;
use crate::{Args, Measured, Report, Traced, SETUP_REPEATS};
use msropm_core::{
    num_cores, pool, BatchJob, CancelToken, LaneConfig, Msropm, MsropmConfig, MsropmSolution,
    ShardedArena, SolveOptions,
};
use msropm_graph::{generators, graph_hash, Graph};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Board side: 46² = 2116 nodes.
const SIDE: usize = 46;
/// Replica lanes per job.
const LANES: usize = 8;
/// A run measures at least this many jobs, however short `--seconds`.
const MIN_JOBS: usize = 3;
/// Colours of the paper's schedule.
const COLORS: usize = 4;
/// Paper, Table 1: top accuracy at 2116 nodes.
const PAPER_TOP_ACCURACY: f64 = 0.97;
/// Schedule length of the paper's four-colour run, ns.
const PAPER_SCHEDULE_NS: f64 = 60.0;

struct Bench {
    graph: Graph,
    machine: Msropm,
    arena: ShardedArena,
    shards: usize,
}

/// Graph generation, compile, and a warm-up that starts the shard pool
/// and sizes the arena: stage 1 of one lane per core.
fn set_up() -> Result<Bench, String> {
    let graph = generators::kings_graph(SIDE, SIDE);
    let machine = Msropm::new(&graph, MsropmConfig::paper_default());
    let shards = num_cores();
    let mut arena = ShardedArena::new();
    let stop = CancelToken::new();
    stop.cancel();
    let lanes = vec![LaneConfig::default(); shards];
    let seeds: Vec<u64> = (0..shards as u64).collect();
    let warm = machine.solve_lanes(
        &lanes,
        &seeds,
        SolveOptions::new()
            .sharded(shards, &mut arena, pool::global())
            .cancel(&stop),
    );
    if warm.is_some() {
        return Err("a pre-cancelled warm-up solve ran to completion".into());
    }
    Ok(Bench {
        graph,
        machine,
        arena,
        shards,
    })
}

/// The lane seeds of job `index` of the workload seeded `seed`.
fn job_seeds(seed: u64, index: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut job_seed = 0;
    for _ in 0..=index {
        job_seed = rng.next_u64();
    }
    BatchJob::uniform(MsropmConfig::paper_default(), LANES, job_seed).lane_seeds()
}

/// Re-verifies one job from its solutions alone: colour range, the
/// stage records against a recount on the graph, and the final
/// conflicts (recounted with `Coloring::conflicts`) against the edges
/// the second stage left uncut. Returns the best lane's accuracy.
fn verify(graph: &Graph, solutions: &[MsropmSolution]) -> Result<f64, String> {
    if solutions.len() != LANES {
        return Err(format!("{} solutions for {LANES} lanes", solutions.len()));
    }
    let m = graph.num_edges();
    let mut best = 0.0f64;
    for (lane, s) in solutions.iter().enumerate() {
        let fail = |what: &str| Err(format!("lane {lane}: {what}"));
        if s.coloring.len() != graph.num_nodes() {
            return fail("coloring does not cover the graph");
        }
        if s.coloring.as_slice().iter().any(|c| c.index() >= COLORS) {
            return fail("colour outside the 4-colour palette");
        }
        if s.total_time_ns != PAPER_SCHEDULE_NS || s.stages.len() != 2 {
            return fail("not the 60 ns two-stage schedule");
        }
        let (s1, s2) = (&s.stages[0], &s.stages[1]);
        if s1.active_edges != m || s1.partition.cut_value(graph) != s1.cut_value {
            return fail("stage-1 record disagrees with a recount");
        }
        if s2.active_edges != m - s1.cut_value {
            return fail("stage 2 did not keep exactly the uncut stage-1 edges");
        }
        let conflicts = s.coloring.conflicts(graph);
        if conflicts != s2.active_edges - s2.cut_value {
            return fail("conflicts differ from the edges stage 2 left uncut");
        }
        best = best.max((m - conflicts) as f64 / m as f64);
    }
    Ok(best)
}

struct Segment {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    quality: Vec<f64>,
    counts: WorkCounts,
    errors: Vec<String>,
}

fn solve_jobs(bench: &mut Bench, seed: u64, seconds: f64) -> Segment {
    let lanes = vec![LaneConfig::default(); LANES];
    let mut seg = Segment {
        wall_s: 0.0,
        latencies_ms: Vec::new(),
        quality: Vec::new(),
        counts: WorkCounts::default(),
        errors: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut index = 0;
    while start.elapsed() < budget || index < MIN_JOBS {
        let seeds = job_seeds(seed, index);
        let t = Instant::now();
        let solved = bench.machine.solve_lanes(
            &lanes,
            &seeds,
            SolveOptions::new().sharded(bench.shards, &mut bench.arena, pool::global()),
        );
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        match solved.ok_or_else(|| "uncancelled solve returned nothing".to_string()) {
            Ok(solutions) => match verify(&bench.graph, &solutions) {
                Ok(best) => {
                    seg.latencies_ms.push(latency_ms);
                    seg.quality.push(best);
                    if index == 0 {
                        seg.counts =
                            layers::work_counts(&bench.graph, bench.machine.config(), &solutions);
                    }
                }
                Err(e) => seg.errors.push(format!("job {index}: {e}")),
            },
            Err(e) => seg.errors.push(format!("job {index}: {e}")),
        }
        index += 1;
    }
    seg.wall_s = start.elapsed().as_secs_f64();
    seg
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (setup_s, mut bench) = layers::repeated_setup(SETUP_REPEATS, set_up)?;
    let mut notes = vec![format!(
        "paper_2116: {} nodes, {} edges, {LANES} lanes/job, {} shards",
        bench.graph.num_nodes(),
        bench.graph.num_edges(),
        bench.shards
    )];
    if !args.trace {
        let seg = solve_jobs(&mut bench, args.seed, args.seconds);
        let quality = stats::mean(&seg.quality);
        notes.push(format!(
            "paper anchor: mean best-lane accuracy {quality:.4} vs Table 1 top accuracy \
             {PAPER_TOP_ACCURACY:.2} at 2116 nodes"
        ));
        notes.push(format!(
            "work per job (job 0): rhs_evals {} edge_visits {} noise_draws {}",
            seg.counts.rhs_evals, seg.counts.edge_visits, seg.counts.noise_draws
        ));
        notes.push(format!(
            "job latencies (ms): {}",
            seg.latencies_ms
                .iter()
                .map(|l| format!("{l:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        let attempted = (seg.latencies_ms.len() + seg.errors.len()) as u64;
        return Ok(Report {
            attempted,
            failed: seg.errors.len() as u64,
            errors: seg.errors,
            notes,
            measured: Some(Measured {
                setup_s,
                wall_s: seg.wall_s,
                latencies_ms: seg.latencies_ms,
                tail_pct: 100.0,
                quality,
            }),
            traced: None,
        });
    }

    // Traced run: an untraced and a traced half over the same jobs, then
    // the per-layer replays and micro-measurements.
    let plain = solve_jobs(&mut bench, args.seed, args.seconds / 2.0);
    let traced = solve_jobs(&mut bench, args.seed, args.seconds / 2.0);
    let lanes = vec![LaneConfig::default(); LANES];
    let seeds = job_seeds(args.seed, 0);
    let shards = bench.shards;
    let split = layers::stage_split(&bench.machine, &lanes, &seeds, shards, &mut bench.arena);
    let serial_stage1_ms = layers::stage1_ms(&bench.machine, &lanes, &seeds, 1, &mut bench.arena);
    let config = *bench.machine.config();
    let kernel = layers::kernel_times(&bench.graph, &config, LANES);
    let compile_us = layers::us_per_item(std::slice::from_ref(&bench.graph), |g| {
        std::hint::black_box(Msropm::new(g, config));
    });
    let hash_us = layers::us_per_item(std::slice::from_ref(&bench.graph), |g| {
        std::hint::black_box(graph_hash(g));
    });
    let counts = traced.counts;
    let replica_steps = counts.rhs_evals as f64;
    let untraced_job_ms = stats::mean(&plain.latencies_ms);
    let traced_job_ms = stats::mean(&traced.latencies_ms);
    let layer_rows = vec![
        ("core.stage1 (replay)", split.stage1_ms),
        ("core.stage2 (replay)", split.rest_ms()),
    ];
    let sum: f64 = layer_rows.iter().map(|(_, v)| v).sum();
    let metrics: BTreeMap<&'static str, f64> = [
        ("osc.rhs_ns", kernel.rhs_ns),
        ("osc.step_ns", kernel.step_ns),
        ("ode.noise_ns", kernel.noise_ns),
        ("core.stage1_ms", split.stage1_ms),
        ("core.stage2_ms", split.rest_ms()),
        ("core.shard_speedup", serial_stage1_ms / split.stage1_ms),
        ("core.compile_us", compile_us),
        ("core.rhs_evals", counts.rhs_evals as f64),
        ("core.edge_visits", counts.edge_visits as f64),
        ("ode.noise_draws", counts.noise_draws as f64),
        ("graph.hash_us", hash_us),
        ("bench.unattributed_frac", 1.0 - sum / untraced_job_ms),
        (
            "bench.trace_overhead_frac",
            1.0 - (traced.latencies_ms.len() as f64 / traced.wall_s)
                / (plain.latencies_ms.len() as f64 / plain.wall_s),
        ),
    ]
    .into_iter()
    .collect();
    notes.push(format!(
        "traced half: {:.1} ms/job vs untraced {:.1}; shard speed-up measured over stage 1 \
         ({:.1} ms on 1 shard, {:.1} ms on {shards})",
        traced_job_ms, untraced_job_ms, serial_stage1_ms, split.stage1_ms
    ));
    let mut errors = plain.errors;
    errors.extend(traced.errors);
    let attempted = (plain.latencies_ms.len() + traced.latencies_ms.len() + errors.len()) as u64;
    Ok(Report {
        attempted,
        failed: errors.len() as u64,
        errors,
        notes,
        measured: None,
        traced: Some(Traced {
            metrics,
            layers: layer_rows,
            inside: vec![(
                "osc.step x replica-steps / shards (ms)",
                kernel.step_ns * replica_steps / shards as f64 / 1e6,
            )],
            untraced_job_ms,
        }),
    })
}
