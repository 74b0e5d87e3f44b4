//! Measurements of single layers, taken from outside the crates through
//! their public entry points: kernel and integrator calls on a
//! workload's own graph, stage boundaries of a replayed solve, wire
//! codec round trips, and the exact work counts a solve implies.

use crate::stats::{mean, median, ns_per_call};
use msropm_core::{
    pool, CancelToken, LaneConfig, Msropm, MsropmConfig, MsropmSolution, Schedule, ShardedArena,
    SolveOptions,
};
use msropm_graph::Graph;
use msropm_ode::sde::fill_normal_batch;
use msropm_osc::{BatchIntegrator, BatchKernel, FxBatchIntegrator, FxBatchKernel, PhaseNetwork};
use msropm_server::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each timed batch of a kernel micro-measurement lasts at least this.
const KERNEL_BATCH: Duration = Duration::from_millis(20);

/// Per replica-step cost of the integration layers on one graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    /// `drift_into` (RHS evaluation), ns per replica-step.
    pub rhs_ns: f64,
    /// Integrator `step` (RHS + noise + update), ns per replica-step.
    pub step_ns: f64,
    /// `fill_normal_batch`, ns per Gaussian draw.
    pub noise_ns: f64,
}

/// Times the anneal-window state (couplings on, SHIL off) of the kernel
/// backend `config` selects, on `graph` with `lanes` replicas.
pub fn kernel_times(graph: &Graph, config: &MsropmConfig, lanes: usize) -> KernelTimes {
    let net = PhaseNetwork::builder(graph)
        .coupling_strength(config.coupling_strength)
        .noise(config.noise)
        .build();
    let len = graph.num_nodes() * lanes;
    let mut rng = StdRng::seed_from_u64(0x6b65_726e);
    let mut rngs: Vec<StdRng> = (0..lanes as u64).map(StdRng::seed_from_u64).collect();
    let (rhs, step) = match config.backend {
        msropm_core::KernelBackend::F64 => {
            let mut kernel = BatchKernel::new(&net, lanes);
            kernel.enable_all_edges();
            kernel.set_couplings_enabled(true);
            kernel.set_shil_enabled(false);
            let mut y: Vec<f64> = (0..len)
                .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
                .collect();
            let mut dydt = vec![0.0; len];
            let mut scratch = Vec::new();
            let rhs = ns_per_call(
                || kernel.drift_into(black_box(&y), &mut dydt, &mut scratch),
                KERNEL_BATCH,
            );
            let mut integrator = BatchIntegrator::new();
            let step = ns_per_call(
                || integrator.step(&kernel, black_box(&mut y), config.dt, &mut rngs),
                KERNEL_BATCH,
            );
            (rhs, step)
        }
        msropm_core::KernelBackend::Fixed => {
            let mut kernel = FxBatchKernel::new(&net, lanes, config.dt);
            kernel.enable_all_edges();
            kernel.set_couplings_enabled(true);
            kernel.set_shil_enabled(false);
            let mut y: Vec<i32> = (0..len).map(|_| rng.gen::<u32>() as i32).collect();
            let mut dq = vec![0i32; len];
            let mut scratch = Vec::new();
            let rhs = ns_per_call(
                || kernel.drift_into(black_box(&y), &mut dq, &mut scratch),
                KERNEL_BATCH,
            );
            let mut integrator = FxBatchIntegrator::new();
            let step = ns_per_call(
                || integrator.step(&kernel, black_box(&mut y), &mut rngs),
                KERNEL_BATCH,
            );
            (rhs, step)
        }
    };
    let mut noise = vec![0.0; len];
    let noise_ns = ns_per_call(
        || fill_normal_batch(black_box(&mut noise), &mut rngs),
        KERNEL_BATCH,
    );
    KernelTimes {
        rhs_ns: rhs / lanes as f64,
        step_ns: step / lanes as f64,
        noise_ns: noise_ns / len as f64,
    }
}

/// Wall time of a solve split at its first stage boundary.
#[derive(Debug, Clone, Copy)]
pub struct StageSplit {
    /// Start of the solve to the stage-1 boundary (a pre-cancelled token
    /// abandons the run exactly there), ms.
    pub stage1_ms: f64,
    /// The complete solve, ms.
    pub full_ms: f64,
}

impl StageSplit {
    /// Everything after the stage-1 boundary, ms (0 for single-stage
    /// schedules, whose only boundary is the end of the run).
    pub fn rest_ms(&self) -> f64 {
        (self.full_ms - self.stage1_ms).max(0.0)
    }
}

/// Wall time of one job replayed on the shard pool until its stage-1
/// boundary, where an already-cancelled token abandons it, ms.
pub fn stage1_ms(
    machine: &Msropm,
    lanes: &[LaneConfig],
    seeds: &[u64],
    shards: usize,
    arena: &mut ShardedArena,
) -> f64 {
    let stop = CancelToken::new();
    stop.cancel();
    let t = Instant::now();
    let stopped = machine.solve_lanes(
        lanes,
        seeds,
        SolveOptions::new()
            .sharded(shards, arena, pool::global())
            .cancel(&stop),
    );
    black_box(stopped);
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays one job on the shard pool twice: once stopped at the stage-1
/// boundary, once to completion.
pub fn stage_split(
    machine: &Msropm,
    lanes: &[LaneConfig],
    seeds: &[u64],
    shards: usize,
    arena: &mut ShardedArena,
) -> StageSplit {
    let stage1_ms = stage1_ms(machine, lanes, seeds, shards, arena);
    let t = Instant::now();
    let full = machine.solve_lanes(
        lanes,
        seeds,
        SolveOptions::new().sharded(shards, arena, pool::global()),
    );
    let full_ms = t.elapsed().as_secs_f64() * 1e3;
    black_box(full);
    StageSplit {
        stage1_ms: stage1_ms.min(full_ms),
        full_ms,
    }
}

/// Microseconds per call of `f` over each item of `items`, averaged.
pub fn us_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let per_item: Vec<f64> = items
        .iter()
        .map(|item| ns_per_call(|| f(item), Duration::from_millis(2)) / 1e3)
        .collect();
    mean(&per_item)
}

/// Encode → decode round trip of each binary-wire (submit, report) frame
/// pair, ns per pair.
pub fn codec_ns(frames: &[(Request, Response)]) -> f64 {
    1e3 * us_per_item(frames, |(submit, report)| {
        let req = decode_request(&encode_request(submit));
        let resp = decode_response(&encode_response(report));
        black_box((req.is_ok(), resp.is_ok()));
    })
}

/// Mean encoded size of the report frames, bytes.
pub fn report_bytes(frames: &[(Request, Response)]) -> f64 {
    let sizes: Vec<f64> = frames
        .iter()
        .map(|(_, report)| encode_response(report).len() as f64)
        .collect();
    mean(&sizes)
}

/// Exact work a completed solve implies, counted from its schedule and
/// per-stage readout records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// RHS evaluations: lanes × integration steps.
    pub rhs_evals: u64,
    /// Σ over coupled windows of steps × active edges, summed over lanes.
    pub edge_visits: u64,
    /// Gaussian draws: one per oscillator per lane per step.
    pub noise_draws: u64,
}

impl WorkCounts {
    /// Adds another solve's counts.
    pub fn add(&mut self, other: WorkCounts) {
        self.rhs_evals += other.rhs_evals;
        self.edge_visits += other.edge_visits;
        self.noise_draws += other.noise_draws;
    }
}

/// Integration steps the solver takes to cover `[t0, t1]` at `dt`: the
/// integrators' loop, whose last step shrinks to land on `t1`.
fn window_steps(t0: f64, t1: f64, dt: f64) -> u64 {
    let mut t = t0;
    let mut steps = 0;
    while t < t1 {
        t += dt.min(t1 - t);
        steps += 1;
    }
    steps
}

/// Counts the work of `solutions`, solved on `graph` at `config`.
pub fn work_counts(
    graph: &Graph,
    config: &MsropmConfig,
    solutions: &[MsropmSolution],
) -> WorkCounts {
    let schedule = Schedule::from_config(config);
    let steps: Vec<u64> = schedule
        .windows()
        .iter()
        .map(|w| window_steps(w.t_start, w.t_end(), config.dt))
        .collect();
    let lanes = solutions.len() as u64;
    let rhs_evals = lanes * steps.iter().sum::<u64>();
    let mut edge_visits = 0u64;
    for solution in solutions {
        for (window, &n) in schedule.windows().iter().zip(&steps) {
            if window.controls().couplings_on {
                let active = solution.stages[window.stage - 1].active_edges as u64;
                edge_visits += n * active;
            }
        }
    }
    WorkCounts {
        rhs_evals,
        edge_visits,
        noise_draws: rhs_evals * graph.num_nodes() as u64,
    }
}

/// Runs `set_up` `times` times and returns the median wall time in
/// seconds together with the last run's state.
pub fn repeated_setup<T>(
    times: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        // Drop the previous state first so each set-up starts from the
        // same point.
        drop(last.take());
        let t = Instant::now();
        let state = set_up()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(state);
    }
    Ok((median(&secs), last.expect("times >= 1")))
}
