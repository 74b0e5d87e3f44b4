//! Phase-step / anneal throughput harness with machine-readable output.
//!
//! Runs the hot-loop suite on the paper's King's graphs (n = 49 … 2116):
//!
//! - `naive_eval`: one RHS evaluation via the reference CSR walk
//!   (`PhaseNetwork::eval`);
//! - `batch1_eval`: one RHS evaluation via [`BatchKernel`] at one
//!   replica on the same all-live graph — the kernel a single
//!   `Msropm::solve` run steps;
//! - `fx_eval`: one RHS evaluation via the fixed-point kernel
//!   ([`FxBatchKernel`] at one replica): i32 binary-turn phases,
//!   Q-format weights, table-driven sine (the acceptance metric is
//!   `fx_speedup = batch1/fx` > 1 on the 2116-node board);
//! - `fx_batch_eval`: the fixed-point RHS at two replicas, the lane
//!   width a sharded serving job runs per shard, reported per replica;
//! - `batch_eval`: one 40-replica SoA RHS sweep ([`BatchKernel`]),
//!   reported per replica;
//! - `sweep_eval`: the same 40-replica RHS with **heterogeneous**
//!   per-lane (K, σ) control tables (`BatchKernel::from_lanes`) — the
//!   per-lane sweep must run at homogeneous-batch speed;
//! - `batch_stage2_eval`: the SoA RHS of a 4-lane shard (the shard a
//!   `paper_2116` job runs on each of two cores) gated by **real**
//!   stage-1 cuts — each lane's couplings across its own stage-1
//!   partition cut, as the solver does at the stage transition —
//!   reported per replica. Only the (edge, lane) couplings that still
//!   conduct are swept, so this is the stage-2 cost the live-pair sweep
//!   targets (`stage2_live_frac` is the share of edges that conduct in
//!   at least one lane);
//! - `anneal_naive` / `anneal_batch1` / `anneal_batch`: a 1 ns
//!   Euler–Maruyama annealing window (100 steps) through the reference
//!   drift, the one-lane kernel and the 40-replica kernel (reported per
//!   replica).
//!
//! Results are written as JSON to `BENCH_phase_step.json` at the
//! repository root (override with `--out PATH`; `--quick` restricts to
//! the 49-node board) so successive PRs can track the perf trajectory.
//!
//! Run with: `cargo run --release -p msropm-bench --bin bench_phase_step`

use msropm_core::{LaneConfig, Msropm, MsropmConfig, SolveOptions};
use msropm_graph::{generators, Cut, Graph};
use msropm_ode::system::OdeSystem;
use msropm_osc::batch::{BatchIntegrator, BatchKernel};
use msropm_osc::fxkernel::{phase_to_turns, FxBatchKernel};
use msropm_osc::PhaseNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const BATCH_REPLICAS: usize = 40; // the paper's iteration count
/// Lanes per shard of a `paper_2116` job (8 lanes on 2 cores).
const STAGE2_LANES: usize = 4;
/// Lanes per shard of a sharded 2–4-lane serving job on 2 cores.
const FX_SHARD_LANES: usize = 2;

/// Real stage-1 cuts of `g`: the partitions of `STAGE2_LANES` lanes of
/// a single-stage (2-colour) solve at the paper's physics.
fn stage1_cuts(g: &Graph) -> Vec<Cut> {
    let config = MsropmConfig {
        num_colors: 2,
        ..MsropmConfig::paper_default()
    };
    let seeds: Vec<u64> = (0..STAGE2_LANES as u64).collect();
    let lanes = vec![LaneConfig::default(); STAGE2_LANES];
    Msropm::new(g, config)
        .solve_lanes(&lanes, &seeds, SolveOptions::new())
        .expect("no cancel token")
        .into_iter()
        .map(|s| s.stages[0].partition.clone())
        .collect()
}

/// Times `f` (already warmed up by `warmup` calls) and returns seconds
/// per call, sampling until ~`budget_s` of wall clock is spent.
fn time_per_call(mut f: impl FnMut(), warmup: usize, budget_s: f64) -> f64 {
    for _ in 0..warmup {
        f();
    }
    // Estimate per-call cost, then run batches.
    let t = Instant::now();
    f();
    let est = t.elapsed().as_secs_f64().max(1e-9);
    let calls = ((budget_s / est) as usize).clamp(1, 1_000_000);
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_secs_f64() / calls as f64
}

struct Row {
    side: usize,
    nodes: usize,
    edges: usize,
    naive_eval_ns: f64,
    /// One `BatchKernel` RHS evaluation at M = 1, all edges live.
    batch1_eval_ns: f64,
    /// One fixed-point RHS evaluation (integer phases, LUT sine).
    fx_eval_ns: f64,
    /// One-lane f64 kernel vs fixed-point kernel: `batch1/fx`.
    fx_speedup: f64,
    /// Fixed-point RHS at the serving shard width, per replica.
    fx_batch_eval_ns_per_replica: f64,
    batch_eval_ns_per_replica: f64,
    batch_speedup: f64,
    /// Heterogeneous 40-lane (K, σ) sweep RHS, per replica — the
    /// per-lane control tables must not slow the SoA sweep.
    sweep_eval_ns_per_replica: f64,
    /// 4-lane SoA RHS under real stage-1 cuts, per replica.
    batch_stage2_eval_ns: f64,
    /// Share of the edges that conduct in some stage-2 lane.
    stage2_live_frac: f64,
    anneal_naive_us: f64,
    /// The 1 ns window on a one-lane `BatchIntegrator`.
    anneal_batch1_us: f64,
    anneal_batch_us_per_replica: f64,
}

fn bench_side(g: &Graph, side: usize, cuts: &[Cut], eval_budget: f64, anneal_budget: f64) -> Row {
    let n = g.num_nodes();
    let net = PhaseNetwork::builder(g)
        .coupling_strength(1.0)
        .noise(0.18)
        .build();
    let mut rng = StdRng::seed_from_u64(1);
    let phases = net.random_phases(&mut rng);
    let mut dydt = vec![0.0; n];

    // --- RHS evaluation: naive CSR walk vs the one-lane kernel. ---
    let naive_eval_ns = 1e9
        * time_per_call(
            || {
                net.eval(0.0, std::hint::black_box(&phases), &mut dydt);
                std::hint::black_box(&dydt);
            },
            3,
            eval_budget,
        );
    let batch1 = BatchKernel::new(&net, 1);
    let mut scratch = Vec::new();
    let batch1_eval_ns = 1e9
        * time_per_call(
            || {
                batch1.drift_into(std::hint::black_box(&phases), &mut dydt, &mut scratch);
                std::hint::black_box(&dydt);
            },
            3,
            eval_budget,
        );

    // --- Fixed-point RHS: same topology, i32 turns + LUT sine. ---
    let fx = FxBatchKernel::new(&net, 1, 0.01);
    let phases_q: Vec<i32> = phases.iter().map(|&p| phase_to_turns(p)).collect();
    let mut dq = vec![0i32; n];
    let mut scratch_q = Vec::new();
    let fx_eval_ns = 1e9
        * time_per_call(
            || {
                fx.drift_into(std::hint::black_box(&phases_q), &mut dq, &mut scratch_q);
                std::hint::black_box(&dq);
            },
            3,
            eval_budget,
        );

    // --- Fixed-point RHS at the serving shard width. ---
    let fx_batch = FxBatchKernel::new(&net, FX_SHARD_LANES, 0.01);
    let mut rng_q = StdRng::seed_from_u64(4);
    let phases_qb: Vec<i32> = (0..fx_batch.state_len())
        .map(|_| rng_q.gen::<u32>() as i32)
        .collect();
    let mut dq_b = vec![0i32; fx_batch.state_len()];
    let fx_batch_eval_ns_per_replica =
        1e9 * time_per_call(
            || {
                fx_batch.drift_into(std::hint::black_box(&phases_qb), &mut dq_b, &mut scratch_q);
                std::hint::black_box(&dq_b);
            },
            3,
            eval_budget,
        ) / FX_SHARD_LANES as f64;

    // --- 40-replica SoA sweep. ---
    let batch = BatchKernel::new(&net, BATCH_REPLICAS);
    let mut rng_b = StdRng::seed_from_u64(2);
    let phases_b: Vec<f64> = (0..n * BATCH_REPLICAS)
        .map(|_| rng_b.gen::<f64>() * std::f64::consts::TAU)
        .collect();
    let mut dydt_b = vec![0.0; n * BATCH_REPLICAS];
    let mut scratch_b = Vec::new();
    let batch_eval_ns_per_replica =
        1e9 * time_per_call(
            || {
                batch.drift_into(std::hint::black_box(&phases_b), &mut dydt_b, &mut scratch_b);
                std::hint::black_box(&dydt_b);
            },
            3,
            eval_budget,
        ) / BATCH_REPLICAS as f64;

    // --- Heterogeneous lane sweep: same SoA RHS, per-lane (K, σ). ---
    let lane_nets: Vec<PhaseNetwork> = (0..BATCH_REPLICAS)
        .map(|r| {
            let mut lane = net.clone();
            lane.set_coupling_strength(0.5 + 0.04 * r as f64);
            lane.set_noise(0.05 + 0.01 * r as f64);
            lane
        })
        .collect();
    let sweep = BatchKernel::from_lanes(&lane_nets);
    let mut dydt_s = vec![0.0; n * BATCH_REPLICAS];
    let mut scratch_s = Vec::new();
    let sweep_eval_ns_per_replica =
        1e9 * time_per_call(
            || {
                sweep.drift_into(std::hint::black_box(&phases_b), &mut dydt_s, &mut scratch_s);
                std::hint::black_box(&dydt_s);
            },
            3,
            eval_budget,
        ) / BATCH_REPLICAS as f64;

    // --- Stage-2 SoA sweep: each lane cut along its stage-1 partition. ---
    let mut stage2 = BatchKernel::new(&net, STAGE2_LANES);
    for (e, u, v) in g.edges() {
        for (r, cut) in cuts.iter().enumerate() {
            if cut.side(u) != cut.side(v) {
                stage2.set_edge_enabled(e.index(), r, false);
            }
        }
    }
    let stage2_live_frac = stage2.num_live_edges() as f64 / g.num_edges() as f64;
    let phases_2 = &phases_b[..n * STAGE2_LANES];
    let mut dydt_2 = vec![0.0; n * STAGE2_LANES];
    let mut scratch_2 = Vec::new();
    let batch_stage2_eval_ns =
        1e9 * time_per_call(
            || {
                stage2.drift_into(std::hint::black_box(phases_2), &mut dydt_2, &mut scratch_2);
                std::hint::black_box(&dydt_2);
            },
            3,
            eval_budget,
        ) / STAGE2_LANES as f64;

    // --- 1 ns anneal window (100 Euler–Maruyama steps). ---
    let mut rng_a = StdRng::seed_from_u64(3);
    let mut ph_a = net.random_phases(&mut rng_a);
    let net_mut = net.clone();
    let anneal_naive_us = 1e6
        * time_per_call(
            || {
                // The pre-kernel shape: fresh stepper, drift via CSR walk.
                use msropm_ode::sde::{EulerMaruyama, SdeStepper};
                EulerMaruyama::new().integrate(&net_mut, &mut ph_a, 0.0, 1.0, 0.01, &mut rng_a);
                std::hint::black_box(&ph_a);
            },
            1,
            anneal_budget,
        );
    let mut batch_integrator = BatchIntegrator::new();
    let mut rng_1 = [StdRng::seed_from_u64(3)];
    let mut ph_1 = net_mut.random_phases(&mut rng_1[0]);
    let anneal_batch1_us = 1e6
        * time_per_call(
            || {
                batch_integrator.integrate(&batch1, &mut ph_1, 0.0, 1.0, 0.01, &mut rng_1);
                std::hint::black_box(&ph_1);
            },
            1,
            anneal_budget,
        );
    let mut rngs: Vec<StdRng> = (0..BATCH_REPLICAS)
        .map(|r| StdRng::seed_from_u64(r as u64))
        .collect();
    let mut ph_batch = phases_b.clone();
    let anneal_batch_us_per_replica =
        1e6 * time_per_call(
            || {
                batch_integrator.integrate(&batch, &mut ph_batch, 0.0, 1.0, 0.01, &mut rngs);
                std::hint::black_box(&ph_batch);
            },
            1,
            anneal_budget,
        ) / BATCH_REPLICAS as f64;

    Row {
        side,
        nodes: n,
        edges: g.num_edges(),
        naive_eval_ns,
        batch1_eval_ns,
        fx_eval_ns,
        fx_speedup: batch1_eval_ns / fx_eval_ns,
        fx_batch_eval_ns_per_replica,
        batch_eval_ns_per_replica,
        batch_speedup: naive_eval_ns / batch_eval_ns_per_replica,
        sweep_eval_ns_per_replica,
        batch_stage2_eval_ns,
        stage2_live_frac,
        anneal_naive_us,
        anneal_batch1_us,
        anneal_batch_us_per_replica,
    }
}

/// Column-wise best of two measurement passes. Scheduler hiccups on a
/// shared box only ever make a sample *slower*, so the per-column
/// minimum is the stable statistic the 15% CI gate can safely compare
/// (derived ratios are recomputed from the kept minima).
fn best_of(a: Row, b: Row) -> Row {
    let mut r = Row {
        naive_eval_ns: a.naive_eval_ns.min(b.naive_eval_ns),
        batch1_eval_ns: a.batch1_eval_ns.min(b.batch1_eval_ns),
        fx_eval_ns: a.fx_eval_ns.min(b.fx_eval_ns),
        fx_batch_eval_ns_per_replica: a
            .fx_batch_eval_ns_per_replica
            .min(b.fx_batch_eval_ns_per_replica),
        batch_eval_ns_per_replica: a.batch_eval_ns_per_replica.min(b.batch_eval_ns_per_replica),
        sweep_eval_ns_per_replica: a.sweep_eval_ns_per_replica.min(b.sweep_eval_ns_per_replica),
        batch_stage2_eval_ns: a.batch_stage2_eval_ns.min(b.batch_stage2_eval_ns),
        anneal_naive_us: a.anneal_naive_us.min(b.anneal_naive_us),
        anneal_batch1_us: a.anneal_batch1_us.min(b.anneal_batch1_us),
        anneal_batch_us_per_replica: a
            .anneal_batch_us_per_replica
            .min(b.anneal_batch_us_per_replica),
        ..a
    };
    r.fx_speedup = r.batch1_eval_ns / r.fx_eval_ns;
    r.batch_speedup = r.naive_eval_ns / r.batch_eval_ns_per_replica;
    r
}

/// Tracked ns/op columns for the `--baseline` CI perf gate: the compiled
/// hot paths. `naive_eval_ns` is the uncompiled reference (tracked too —
/// it regressing usually means the whole build got slower).
const TRACKED: [&str; 9] = [
    "naive_eval_ns",
    "batch1_eval_ns",
    "fx_eval_ns",
    "fx_batch_eval_ns_per_replica",
    "batch_eval_ns_per_replica",
    "sweep_eval_ns_per_replica",
    "batch_stage2_eval_ns",
    "anneal_1ns_batch1_us",
    "anneal_1ns_batch_us_per_replica",
];

/// Every timing a row carries, for output validation.
fn row_timings(r: &Row) -> [(&'static str, f64); 11] {
    [
        ("naive_eval_ns", r.naive_eval_ns),
        ("batch1_eval_ns", r.batch1_eval_ns),
        ("fx_eval_ns", r.fx_eval_ns),
        ("fx_speedup", r.fx_speedup),
        (
            "fx_batch_eval_ns_per_replica",
            r.fx_batch_eval_ns_per_replica,
        ),
        ("batch_eval_ns_per_replica", r.batch_eval_ns_per_replica),
        ("sweep_eval_ns_per_replica", r.sweep_eval_ns_per_replica),
        ("batch_stage2_eval_ns", r.batch_stage2_eval_ns),
        ("anneal_1ns_naive_us", r.anneal_naive_us),
        ("anneal_1ns_batch1_us", r.anneal_batch1_us),
        (
            "anneal_1ns_batch_us_per_replica",
            r.anneal_batch_us_per_replica,
        ),
    ]
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = Some(args.next().expect("--out requires a value")),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline requires a value")),
            other => {
                eprintln!(
                    "unknown argument {other:?}; valid: --quick, --out PATH, --baseline PATH"
                );
                std::process::exit(2);
            }
        }
    }
    let out_path = out_path
        .unwrap_or_else(|| msropm_bench::baseline::default_out_path("BENCH_phase_step.json"));
    let sides: &[usize] = if quick { &[7] } else { &[7, 20, 32, 46] };
    let (eval_budget, anneal_budget) = if quick { (0.05, 0.1) } else { (0.3, 0.6) };

    let mut rows = Vec::new();
    for &side in sides {
        let g = generators::kings_graph_square(side);
        let cuts = stage1_cuts(&g);
        let row = best_of(
            bench_side(&g, side, &cuts, eval_budget, anneal_budget),
            bench_side(&g, side, &cuts, eval_budget, anneal_budget),
        );
        println!(
            "kings {:>2}x{:<2} n={:<5} m={:<6} eval naive {:>9.1} ns | batch1 {:>9.1} ns | fx {:>9.1} ns ({:>4.2}x) | fx{}/rep {:>9.1} ns | batch/rep {:>9.1} ns ({:>4.2}x) | sweep/rep {:>9.1} ns | stage2/rep {:>9.1} ns ({:>4.1}% live) | anneal1ns naive {:>8.1} us | batch1 {:>8.1} us | batch/rep {:>8.1} us",
            row.side, row.side, row.nodes, row.edges,
            row.naive_eval_ns, row.batch1_eval_ns,
            row.fx_eval_ns, row.fx_speedup,
            FX_SHARD_LANES, row.fx_batch_eval_ns_per_replica,
            row.batch_eval_ns_per_replica, row.batch_speedup,
            row.sweep_eval_ns_per_replica,
            row.batch_stage2_eval_ns, 100.0 * row.stage2_live_frac,
            row.anneal_naive_us, row.anneal_batch1_us, row.anneal_batch_us_per_replica,
        );
        rows.push(row);
    }

    // Validate before writing: a NaN/zero timing (broken clock, elided
    // benchmark loop, bad refactor of this harness) must fail the run,
    // not silently become the committed baseline future PRs are gated
    // against.
    let mut bogus = Vec::new();
    for r in &rows {
        for (name, v) in row_timings(r) {
            if !v.is_finite() || v <= 0.0 {
                bogus.push(format!("kings_{0}x{0} {name} = {v}", r.side));
            }
        }
    }
    if !bogus.is_empty() {
        eprintln!(
            "bench_phase_step: invalid timings — refusing to write {out_path}:\n  {}",
            bogus.join("\n  ")
        );
        std::process::exit(1);
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"suite\": \"phase_step\",");
    let _ = writeln!(json, "  \"unix_time\": {unix_time},");
    let _ = writeln!(json, "  \"batch_replicas\": {BATCH_REPLICAS},");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"graph\": \"kings_{side}x{side}\", \"nodes\": {nodes}, \"edges\": {edges}, \
             \"naive_eval_ns\": {naive:.2}, \"batch1_eval_ns\": {b1:.2}, \
             \"fx_eval_ns\": {fx:.2}, \"fx_speedup\": {fxs:.3}, \
             \"fx_batch_eval_ns_per_replica\": {fxb:.2}, \
             \"batch_eval_ns_per_replica\": {batch:.2}, \"batch_speedup\": {bspeed:.3}, \
             \"sweep_eval_ns_per_replica\": {sweep:.2}, \
             \"batch_stage2_eval_ns\": {stage2:.2}, \"stage2_live_frac\": {live:.3}, \
             \"anneal_1ns_naive_us\": {an:.2}, \"anneal_1ns_batch1_us\": {a1:.2}, \
             \"anneal_1ns_batch_us_per_replica\": {ab:.2}}}",
            side = r.side,
            nodes = r.nodes,
            edges = r.edges,
            naive = r.naive_eval_ns,
            b1 = r.batch1_eval_ns,
            fx = r.fx_eval_ns,
            fxs = r.fx_speedup,
            fxb = r.fx_batch_eval_ns_per_replica,
            batch = r.batch_eval_ns_per_replica,
            bspeed = r.batch_speedup,
            sweep = r.sweep_eval_ns_per_replica,
            stage2 = r.batch_stage2_eval_ns,
            live = r.stage2_live_frac,
            an = r.anneal_naive_us,
            a1 = r.anneal_batch1_us,
            ab = r.anneal_batch_us_per_replica,
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("failed to write {out_path}: {e}"));
    println!("wrote {out_path}");

    // Acceptance floor: the fixed-point RHS must stay faster than the
    // one-lane f64 kernel on the paper's largest board. Checked whenever
    // the 46x46 row was measured (i.e. every non-`--quick` run). The
    // ratio read 1.6-2.5x over three runs on a shared 2-core box, a
    // spread too wide to gate any margin above 1 without flaking;
    // `fx_eval_ns` itself stays under the 15% regression gate below.
    const FX_SPEEDUP_FLOOR: f64 = 1.0;
    if let Some(big) = rows.iter().find(|r| r.side == 46) {
        if big.fx_speedup < FX_SPEEDUP_FLOOR {
            eprintln!(
                "bench_phase_step: fx_speedup {:.3} at kings_46x46 is below the {FX_SPEEDUP_FLOOR} floor",
                big.fx_speedup
            );
            std::process::exit(1);
        }
    }

    // CI perf-regression gate: compare the run just taken against a
    // committed baseline; any tracked column >15% slower exits nonzero.
    // (`--quick` runs compare only the rows they measured.)
    if let Some(base_path) = baseline_path {
        msropm_bench::baseline::enforce_gate_cli(&json, &base_path, &TRACKED);
    }
}
