//! Multi-replica batch execution of the divide-and-color schedule.
//!
//! The paper's experiments run 40 independent iterations per problem;
//! this module advances all of them through the full multi-stage
//! schedule as one interleaved SoA sweep (see [`msropm_osc::batch`] for
//! the kernel layout). Per-replica gating (`P_EN` lanes) and `SHIL_SEL`
//! assignments evolve independently across stage transitions, exactly as
//! `Msropm::solve` evolves them for a single run.
//!
//! The replicas are full **control lanes**: each lane may override the
//! base configuration's coupling strength, SHIL strength/ramp, annealing
//! noise and re-init mode ([`crate::config::LaneConfig`]), so one batch
//! can sweep an operating grid or run a restart portfolio instead of
//! repeating one point M times. Timing stays lockstep across lanes
//! (enforced by [`crate::schedule::ScheduleSet`]); everything else rides
//! in per-lane kernel tables, so the hot loop is identical to the
//! homogeneous case.
//!
//! Every batch solve — [`crate::machine::Msropm::solve_lanes`], the
//! experiment and portfolio runners, the job server — runs one driver,
//! `solve_lanes_sharded_hooked`. It splits the lane range into
//! contiguous shards; at width 1 it runs inline on the calling thread,
//! wider it runs each shard's current stage as an owned task on a
//! [`crate::pool::ShardPool`] and re-joins at every stage boundary.
//! There, hooks (cancellation, deadlines, portfolio restarts) see every
//! lane of every shard at once, in global lane order, with exactly the
//! single-shard semantics. Both widths execute the same stage body on
//! the same per-shard state, so 1-shard and N-shard solves are
//! bit-identical by construction.
//!
//! # Determinism contract
//!
//! Replica `i` performs bit-for-bit the floating-point operations and RNG
//! draws of a standalone `Msropm::solve` over the lane's *resolved*
//! config, seeded with `seeds[i]`:
//!
//! - every replica draws noise, initial phases and (optionally) frequency
//!   offsets from its **own** `StdRng`, in the order a sequential run
//!   would;
//! - the interleaved drift sweep visits each lane's conducting edges in
//!   the same (edge-id) order as the scalar compiled kernel, and gated
//!   lanes contribute nothing;
//! - per-lane coupling weights are **copied** from a lane-resolved
//!   network, never rescaled, so a swept lane carries exactly the
//!   weights a standalone machine at that operating point would;
//! - ramped and non-ramped lanes share the plain step sequence (the
//!   step-indexed `RampSchedule`), so mixing them changes no step sizes;
//! - jitter-drift and uniform re-init lanes may coexist: during the
//!   randomize window (couplings and SHIL off — lanes are independent)
//!   jitter lanes integrate bias + noise drawing one deviate per node
//!   per step, uniform lanes draw nothing until their end-of-window
//!   phase redraw, each matching its solo counterpart;
//! - shards partition replicas into disjoint contiguous ranges, and a
//!   replica's trajectory never depends on its range.
//!
//! Hence colorings (and final phases) are identical across shard counts
//! and identical to a sequential iteration loop — property-tested in the
//! workspace root's `tests/batch_determinism.rs` and
//! `tests/lane_equivalence.rs`.

use crate::config::{KernelBackend, LaneConfig, MsropmConfig, ReinitMode};
use crate::machine::{MsropmSolution, StageRecord};
use crate::pool::{faultinject, ShardPool};
use crate::schedule::{ScheduleSet, Window, WindowKind};
use msropm_graph::{Color, Coloring, Cut, Graph};
use msropm_ode::sde::standard_normal;
use msropm_osc::batch::{BatchIntegrator, BatchKernel};
use msropm_osc::fxkernel::{
    self, noise_increment, phase_to_turns, turns_to_phase, FxBatchIntegrator, FxBatchKernel,
};
use msropm_osc::lock::{lock_error, phase_to_spin};
use msropm_osc::shil::{stage_shil_phase, Shil};
use msropm_osc::PhaseNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::f64::consts::TAU;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

/// The backend-erased compiled kernel of one lane range: either the
/// IEEE-double SoA kernel or its fixed-point twin. The generic control
/// plumbing (gating at stage transitions, boundary hooks, lane copies)
/// goes through this enum's delegating methods; the numeric stage
/// bodies ([`run_one_stage`]) match once and stay monomorphic, so
/// neither hot loop pays for the other's existence.
#[derive(Debug)]
pub(crate) enum EngineKernel {
    F64(BatchKernel),
    Fx(FxBatchKernel),
}

impl EngineKernel {
    fn edge_enabled(&self, edge: usize, replica: usize) -> bool {
        match self {
            EngineKernel::F64(k) => k.edge_enabled(edge, replica),
            EngineKernel::Fx(k) => k.edge_enabled(edge, replica),
        }
    }

    fn set_edge_enabled(&mut self, edge: usize, replica: usize, on: bool) {
        match self {
            EngineKernel::F64(k) => k.set_edge_enabled(edge, replica, on),
            EngineKernel::Fx(k) => k.set_edge_enabled(edge, replica, on),
        }
    }

    fn enable_all_edges(&mut self) {
        match self {
            EngineKernel::F64(k) => k.enable_all_edges(),
            EngineKernel::Fx(k) => k.enable_all_edges(),
        }
    }

    fn set_shil_enabled(&mut self, on: bool) {
        match self {
            EngineKernel::F64(k) => k.set_shil_enabled(on),
            EngineKernel::Fx(k) => k.set_shil_enabled(on),
        }
    }

    fn set_bias(&mut self, node: usize, replica: usize, delta_omega: f64) {
        match self {
            EngineKernel::F64(k) => k.set_bias(node, replica, delta_omega),
            EngineKernel::Fx(k) => k.set_bias(node, replica, delta_omega),
        }
    }
}

/// The backend-erased mutable phase buffer of one shard: `f64` radians
/// for the float backend, `i32` binary turns for the fixed-point one.
/// A batch is single-backend (asserted at prepare time), so the two
/// variants never mix inside one boundary.
pub(crate) enum PhasesMut<'a> {
    F64(&'a mut [f64]),
    Fx(&'a mut [i32]),
}

impl PhasesMut<'_> {
    fn len(&self) -> usize {
        match self {
            PhasesMut::F64(p) => p.len(),
            PhasesMut::Fx(p) => p.len(),
        }
    }

    fn copy_within_lane(&mut self, n: usize, rr: usize, src: usize, dst: usize) {
        match self {
            PhasesMut::F64(p) => {
                for i in 0..n {
                    p[i * rr + dst] = p[i * rr + src];
                }
            }
            PhasesMut::Fx(p) => {
                for i in 0..n {
                    p[i * rr + dst] = p[i * rr + src];
                }
            }
        }
    }
}

/// Borrows the backend-matching phase buffer for a boundary slice
/// (taking both buffers keeps the borrow disjoint from the arena's
/// other fields).
fn arena_phases<'a>(
    kernel: &EngineKernel,
    phases: &'a mut [f64],
    fx_phases: &'a mut [i32],
) -> PhasesMut<'a> {
    match kernel {
        EngineKernel::F64(_) => PhasesMut::F64(phases),
        EngineKernel::Fx(_) => PhasesMut::Fx(fx_phases),
    }
}

/// One shard's mutable slice of a [`StageBoundary`]: the per-shard
/// kernel and state vectors, in lane order within the shard.
pub(crate) struct ShardSlice<'a> {
    kernel: &'a mut EngineKernel,
    phases: PhasesMut<'a>,
    groups: &'a mut [usize],
    stage_records: &'a mut [Vec<StageRecord>],
    replicas: usize,
}

impl ShardSlice<'_> {
    /// Copies lane `src` onto lane `dst` *within this shard* (local
    /// indices).
    fn copy_lane_local(&mut self, graph: &Graph, src: usize, dst: usize) {
        let rr = self.replicas;
        let n = self.phases.len() / rr;
        self.phases.copy_within_lane(n, rr, src, dst);
        for i in 0..n {
            self.groups[i * rr + dst] = self.groups[i * rr + src];
        }
        for e in 0..graph.num_edges() {
            let on = self.kernel.edge_enabled(e, src);
            self.kernel.set_edge_enabled(e, dst, on);
        }
        self.stage_records[dst] = self.stage_records[src].clone();
    }
}

/// Copies lane state across two *different* shards (local indices into
/// each). Reads from `src` are through shared references, so the
/// borrows never conflict.
fn copy_lane_across(
    graph: &Graph,
    src: &ShardSlice<'_>,
    src_lane: usize,
    dst: &mut ShardSlice<'_>,
    dst_lane: usize,
) {
    let (rs, rd) = (src.replicas, dst.replicas);
    let n = src.phases.len() / rs;
    match (&src.phases, &mut dst.phases) {
        (PhasesMut::F64(s), PhasesMut::F64(d)) => {
            for i in 0..n {
                d[i * rd + dst_lane] = s[i * rs + src_lane];
            }
        }
        (PhasesMut::Fx(s), PhasesMut::Fx(d)) => {
            for i in 0..n {
                d[i * rd + dst_lane] = s[i * rs + src_lane];
            }
        }
        _ => unreachable!("a batch is single-backend; shards cannot mix phase formats"),
    }
    for i in 0..n {
        dst.groups[i * rd + dst_lane] = src.groups[i * rs + src_lane];
    }
    for e in 0..graph.num_edges() {
        let on = src.kernel.edge_enabled(e, src_lane);
        dst.kernel.set_edge_enabled(e, dst_lane, on);
    }
    dst.stage_records[dst_lane] = src.stage_records[src_lane].clone();
}

/// The cross-lane view a stage-boundary hook receives: per-lane quality
/// so far plus the lane-state copy that implements population restarts.
///
/// The hook fires after each stage's readout *and* transition (groups
/// latched, crossing couplings cut) for every stage except the last —
/// the instants the paper's control sequencer could realistically
/// intervene between SHIL windows. On the sharded path the boundary
/// spans every shard (shards appear in lane order), so lane indices are
/// **global** and `copy_lane` works across shard boundaries — a
/// portfolio restart neither knows nor cares how the batch was
/// partitioned.
pub(crate) struct StageBoundary<'a> {
    graph: &'a Graph,
    shards: Vec<ShardSlice<'a>>,
}

impl StageBoundary<'_> {
    /// Number of lanes in the batch (across all shards).
    pub(crate) fn num_lanes(&self) -> usize {
        self.shards.iter().map(|s| s.replicas).sum()
    }

    /// Maps a global lane index to `(shard, local lane)`.
    fn locate(&self, lane: usize) -> (usize, usize) {
        let mut remaining = lane;
        for (s, shard) in self.shards.iter().enumerate() {
            if remaining < shard.replicas {
                return (s, remaining);
            }
            remaining -= shard.replicas;
        }
        panic!("lane {lane} out of range");
    }

    /// Edges already *permanently satisfied* for lane `r`: couplings cut
    /// at earlier transitions connect nodes whose group ids (and hence
    /// final colors) already differ. The natural stage-boundary quality
    /// ranking — more satisfied edges now means fewer conflicts the
    /// remaining stages must resolve.
    pub(crate) fn satisfied_edges(&self, r: usize) -> usize {
        let (s, local) = self.locate(r);
        let m = self.graph.num_edges();
        let kernel = &self.shards[s].kernel;
        let active = (0..m).filter(|&e| kernel.edge_enabled(e, local)).count();
        m - active
    }

    /// Re-seeds lane `dst` from lane `src`: copies phases, group ids,
    /// per-lane coupling gating **and the stage records so far**, so the
    /// restarted lane's eventual `MsropmSolution` describes one
    /// consistent lineage (its early stages are the survivor's history
    /// the final coloring is actually built on, not the discarded run).
    /// `dst` keeps its own control parameters (weights, σ, SHIL) and its
    /// own RNG stream, so the restarted lane re-explores the survivor's
    /// partition from a different operating point and noise path.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub(crate) fn copy_lane(&mut self, src: usize, dst: usize) {
        let lanes = self.num_lanes();
        assert!(src < lanes && dst < lanes, "lane range");
        if src == dst {
            return;
        }
        let (ss, sl) = self.locate(src);
        let (ds, dl) = self.locate(dst);
        if ss == ds {
            self.shards[ss].copy_lane_local(self.graph, sl, dl);
        } else if ss < ds {
            let (head, tail) = self.shards.split_at_mut(ds);
            copy_lane_across(self.graph, &head[ss], sl, &mut tail[0], dl);
        } else {
            let (head, tail) = self.shards.split_at_mut(ss);
            copy_lane_across(self.graph, &tail[0], sl, &mut head[ds], dl);
        }
    }
}

/// Reusable scratch for one shard of a batch solve: the integrator
/// (drift + noise buffers) plus every per-run state vector
/// (`phases`/`groups`/`bits`/RNGs/resolved configs/SHIL tables).
///
/// A long-lived arena makes repeated batch solves allocation-free across
/// jobs once warm (for same-shaped jobs — buffers only grow, never
/// shrink). The compiled [`BatchKernel`] itself is still built per solve
/// — it *is* the problem compilation; reuse across repeat topologies
/// happens one level up in [`crate::cache::ProblemCache`], which caches
/// the machine (graph + network) a kernel is compiled from.
///
/// Results are bit-identical whether a fresh or a reused arena is used
/// (every buffer is fully re-initialized at the start of a solve);
/// covered by `reused_arena_matches_fresh_arena` below.
#[derive(Debug, Default)]
pub(crate) struct BatchArena {
    integrator: BatchIntegrator,
    fx_integrator: FxBatchIntegrator,
    rngs: Vec<StdRng>,
    configs: Vec<MsropmConfig>,
    phases: Vec<f64>,
    /// Fixed-point twin of `phases` (binary-turn words); only the
    /// buffer matching the batch's backend is populated by a solve.
    fx_phases: Vec<i32>,
    groups: Vec<usize>,
    bits: Vec<bool>,
    stage_shils: Vec<Shil>,
    ramped: Vec<bool>,
}

/// Long-lived solver scratch for [`crate::machine::Msropm::solve_lanes`]:
/// one arena per shard slot. A solve moves shard `i`'s arena into shard
/// `i`'s tasks and moves it back at the end, so repeated solves of
/// same-shaped jobs reuse every per-shard buffer and allocate (almost)
/// nothing per job; a 1-shard solve runs in slot 0. The job-server
/// workers each own one and thread it through every solve they execute.
/// (A solve wider than one shard does clone the graph and network into
/// `Arc`s once so tasks can outlive the caller's borrows; that is
/// O(n + m) against a solve that integrates thousands of steps per
/// edge.)
///
/// Results are bit-identical whatever the arena's history. If a solve
/// panics (a shard task died), the arenas that were in flight are lost
/// — rebuild with [`ShardedArena::new`].
#[derive(Debug, Default)]
pub struct ShardedArena {
    shards: Vec<BatchArena>,
}

impl ShardedArena {
    /// Creates an empty set of shard arenas; shards materialize on
    /// first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The arena of shard `i`, created empty on demand. Shard `i` of
    /// every solve uses slot `i`, so warm buffers line up across jobs.
    fn shard_slot(&mut self, i: usize) -> &mut BatchArena {
        while self.shards.len() <= i {
            self.shards.push(BatchArena::default());
        }
        &mut self.shards[i]
    }
}

/// Clears and re-fills a reusable buffer to `len` copies of `fill`,
/// reusing its capacity.
fn refill<T: Clone>(buf: &mut Vec<T>, len: usize, fill: T) {
    buf.clear();
    buf.resize(len, fill);
}

/// Derives lane `r`'s network from the base network: a clone with the
/// lane's coupling/noise overrides applied by the same recipe the
/// builder uses, so a swept lane's weights are bit-identical to a
/// standalone machine's at that operating point. Lanes without
/// overrides share the base network untouched (preserving any per-edge
/// weight customization it carries).
fn lane_network(base: &PhaseNetwork, lane: &LaneConfig) -> PhaseNetwork {
    let mut net = base.clone();
    if let Some(k) = lane.coupling_strength {
        net.set_coupling_strength(k);
    }
    if let Some(sigma) = lane.noise {
        net.set_noise(sigma);
    }
    net
}

/// Everything [`prepare_lane_range`] computes beyond the arena's own
/// buffers: the compiled kernel, the (per-solve) stage-record
/// accumulators and the lockstep timeline.
struct PreparedRange {
    kernel: EngineKernel,
    stage_records: Vec<Vec<StageRecord>>,
    windows: Vec<Window>,
    k: usize,
    dt: f64,
}

/// Asserts every lane of a batch resolves to the same [`KernelBackend`]
/// and returns it. One batch runs one numeric stack: the SoA sweep,
/// the shared phase buffers and the cross-shard boundary all assume a
/// single phase format.
fn batch_backend(base: &MsropmConfig, lanes: &[LaneConfig]) -> KernelBackend {
    let backend = lanes
        .first()
        .map_or(base.backend, |l| l.backend.unwrap_or(base.backend));
    assert!(
        lanes
            .iter()
            .all(|l| l.backend.unwrap_or(base.backend) == backend),
        "all lanes in a batch must use the same kernel backend"
    );
    backend
}

/// Shared start-of-run setup for one contiguous lane range: resolves the
/// lane configs, compiles the (possibly heterogeneous) kernel, seeds the
/// RNGs and draws spreads + initial phases — every buffer in `arena`
/// fully re-initialized. Both the borrowed single-shard path and the
/// owned shard tasks run exactly this code, which is half of the
/// 1-vs-N-shard bit-identity argument (the other half is
/// [`run_one_stage`]).
fn prepare_lane_range(
    graph: &Graph,
    base_config: &MsropmConfig,
    network: &PhaseNetwork,
    lanes: &[LaneConfig],
    seeds: &[u64],
    sample_spread: bool,
    arena: &mut BatchArena,
) -> PreparedRange {
    let n = graph.num_nodes();
    let rr = seeds.len();
    assert_eq!(lanes.len(), rr, "need one lane config per seed");
    let backend = batch_backend(base_config, lanes);
    let BatchArena {
        integrator: _,
        fx_integrator: _,
        rngs,
        configs,
        phases,
        fx_phases,
        groups,
        bits,
        stage_shils: _,
        ramped,
    } = arena;
    configs.clear();
    configs.extend(lanes.iter().map(|l| l.resolve(base_config)));
    let schedule_set = ScheduleSet::from_configs(configs);
    let schedule = schedule_set.lockstep();
    let k = configs[0].num_stages();
    let dt = configs[0].dt;
    let windows = schedule.windows().to_vec();

    rngs.clear();
    rngs.extend(seeds.iter().map(|&s| StdRng::seed_from_u64(s)));
    let needs_lane_nets = lanes
        .iter()
        .any(|l| l.coupling_strength.is_some() || l.noise.is_some());
    let lane_nets: Option<Vec<PhaseNetwork>> =
        needs_lane_nets.then(|| lanes.iter().map(|l| lane_network(network, l)).collect());
    let mut kernel = match (backend, &lane_nets) {
        (KernelBackend::F64, Some(nets)) => EngineKernel::F64(BatchKernel::from_lanes(nets)),
        (KernelBackend::F64, None) => EngineKernel::F64(BatchKernel::new(network, rr)),
        (KernelBackend::Fixed, Some(nets)) => EngineKernel::Fx(FxBatchKernel::from_lanes(nets, dt)),
        (KernelBackend::Fixed, None) => EngineKernel::Fx(FxBatchKernel::new(network, rr, dt)),
    };
    // Start-of-run control state, mirroring `Msropm::solve`: every P_EN
    // high, SHIL off.
    kernel.enable_all_edges();
    kernel.set_shil_enabled(false);

    // Runner semantics: frequency offsets are the replica's first draws.
    if sample_spread {
        for (r, rng) in rngs.iter_mut().enumerate() {
            if configs[r].frequency_spread > 0.0 {
                for i in 0..n {
                    kernel.set_bias(i, r, configs[r].frequency_spread * standard_normal(rng));
                }
            }
        }
    }

    // Startup randomization: i.i.d. uniform phases, per replica in node
    // order (the order `PhaseNetwork::random_phases` draws). Both
    // backends consume the identical uniform draws; the fixed-point
    // path quantizes each to the nearest of 2^32 turn counts.
    match backend {
        KernelBackend::F64 => {
            refill(phases, n * rr, 0.0);
            for (r, rng) in rngs.iter_mut().enumerate() {
                for i in 0..n {
                    phases[i * rr + r] = rng.gen::<f64>() * TAU;
                }
            }
        }
        KernelBackend::Fixed => {
            refill(fx_phases, n * rr, 0i32);
            for (r, rng) in rngs.iter_mut().enumerate() {
                for i in 0..n {
                    fx_phases[i * rr + r] = phase_to_turns(rng.gen::<f64>() * TAU);
                }
            }
        }
    }

    refill(groups, n * rr, 0usize);
    refill(bits, n * rr, false);
    ramped.clear();
    ramped.extend(configs.iter().map(|c| c.shil_ramp));
    // Stage records are the output payload (moved into the returned
    // solutions), so they are the one fresh allocation per solve.
    let stage_records: Vec<Vec<StageRecord>> = vec![Vec::with_capacity(k); rr];
    PreparedRange {
        kernel,
        stage_records,
        windows,
        k,
        dt,
    }
}

/// Advances one lane range through one full stage: Randomize → Anneal →
/// Lock → readout → transition. `stage_windows` is the stage's three
/// schedule windows in that order. This is *the* stage body — the
/// single-shard loop and every shard task call exactly this function,
/// so partitioning the lane range cannot change any lane's arithmetic.
/// One backend match here keeps both numeric bodies fully monomorphic.
fn run_one_stage(
    graph: &Graph,
    stage: usize,
    stage_windows: &[Window],
    dt: f64,
    kernel: &mut EngineKernel,
    arena: &mut BatchArena,
    stage_records: &mut [Vec<StageRecord>],
) {
    match kernel {
        EngineKernel::F64(k) => {
            run_one_stage_f64(graph, stage, stage_windows, dt, k, arena, stage_records)
        }
        EngineKernel::Fx(k) => {
            run_one_stage_fx(graph, stage, stage_windows, dt, k, arena, stage_records)
        }
    }
}

/// The IEEE-double stage body (the reference arithmetic every property
/// test is anchored to).
fn run_one_stage_f64(
    graph: &Graph,
    stage: usize,
    stage_windows: &[Window],
    dt: f64,
    kernel: &mut BatchKernel,
    arena: &mut BatchArena,
    stage_records: &mut [Vec<StageRecord>],
) {
    let n = graph.num_nodes();
    let BatchArena {
        integrator,
        fx_integrator: _,
        rngs,
        configs,
        phases,
        fx_phases: _,
        groups,
        bits,
        stage_shils,
        ramped,
    } = arena;
    let rr = configs.len();
    let num_groups = 1usize << (stage - 1);
    let any_ramped = ramped.iter().any(|&r| r);
    let [w_init, w_anneal, w_lock] = stage_windows else {
        panic!("stage {stage} must have exactly three windows");
    };

    // ---- Randomize window (couplings off, SHIL off) ----
    debug_assert_eq!(w_init.kind, WindowKind::Randomize);
    kernel.set_couplings_enabled(false);
    kernel.set_shil_enabled(false);
    let any_jitter = configs
        .iter()
        .any(|c| matches!(c.reinit, ReinitMode::JitterDrift { .. }));
    let any_uniform = configs
        .iter()
        .any(|c| c.reinit == ReinitMode::UniformRandom);
    if any_jitter && !any_uniform {
        // All lanes drift: run the kernel path with each lane's
        // drift σ, then restore the lanes' annealing σ.
        for (r, cfg) in configs.iter().enumerate() {
            let ReinitMode::JitterDrift { sigma } = cfg.reinit else {
                unreachable!("all lanes drift here")
            };
            kernel.set_lane_noise_amplitude(r, sigma);
        }
        integrator.integrate(kernel, phases, w_init.t_start, w_init.t_end(), dt, rngs);
        for (r, cfg) in configs.iter().enumerate() {
            kernel.set_lane_noise_amplitude(r, cfg.noise);
        }
    } else if any_jitter {
        // Mixed modes. Couplings and SHIL are off, so lanes are
        // fully independent: advance jitter lanes by the exact
        // bias + noise arithmetic of the kernel path (one deviate
        // per node per step, in node order — the solo stream),
        // while uniform lanes draw nothing until their redraw
        // below.
        let mut t = w_init.t_start;
        let t_end = w_init.t_end();
        while t < t_end {
            let h = dt.min(t_end - t);
            let sqrt_h = h.sqrt();
            for i in 0..n {
                let row = i * rr;
                for (r, rng) in rngs.iter_mut().enumerate() {
                    if let ReinitMode::JitterDrift { sigma } = configs[r].reinit {
                        let xi = standard_normal(rng);
                        let sig = if kernel.node_enabled(i) { sigma } else { 0.0 };
                        phases[row + r] += h * kernel.bias_of(i, r) + sqrt_h * sig * xi;
                    }
                }
            }
            t += h;
        }
    }
    for (r, rng) in rngs.iter_mut().enumerate() {
        if configs[r].reinit == ReinitMode::UniformRandom {
            for i in 0..n {
                phases[i * rr + r] = rng.gen::<f64>() * TAU;
            }
        }
    }

    // ---- Anneal window (couplings on, SHIL off) ----
    debug_assert_eq!(w_anneal.kind, WindowKind::Anneal);
    kernel.set_couplings_enabled(true);
    integrator.integrate(kernel, phases, w_anneal.t_start, w_anneal.t_end(), dt, rngs);

    // ---- Lock window (couplings on, SHIL on) ----
    debug_assert_eq!(w_lock.kind, WindowKind::Lock);
    stage_shils.clear();
    for cfg in configs.iter() {
        stage_shils.extend(
            (0..num_groups)
                .map(|g| Shil::order2(stage_shil_phase(g, num_groups), cfg.shil_strength)),
        );
    }
    let shil_of = |r: usize, g: usize| stage_shils[r * num_groups + g];
    for i in 0..n {
        for r in 0..rr {
            kernel.set_shil(i, r, Some(shil_of(r, groups[i * rr + r])));
        }
    }
    kernel.set_shil_enabled(true);
    if any_ramped {
        integrator.integrate_ramped_lanes(
            kernel,
            phases,
            w_lock.t_start,
            w_lock.t_end(),
            dt,
            rngs,
            |f| f,
            ramped,
        );
    } else {
        integrator.integrate(kernel, phases, w_lock.t_start, w_lock.t_end(), dt, rngs);
    }

    // ---- Readout (per replica) ----
    for i in 0..n {
        for r in 0..rr {
            let idx = i * rr + r;
            bits[idx] = phase_to_spin(phases[idx], &shil_of(r, groups[idx])) == 1;
        }
    }
    for r in 0..rr {
        let worst_lock = (0..n)
            .map(|i| lock_error(phases[i * rr + r], &shil_of(r, groups[i * rr + r])))
            .fold(0.0f64, f64::max);
        let replica_bits: Vec<bool> = (0..n).map(|i| bits[i * rr + r]).collect();
        let mut cut_value = 0usize;
        let mut active_edges = 0usize;
        for (e, u, v) in graph.edges() {
            if kernel.edge_enabled(e.index(), r) {
                active_edges += 1;
                if replica_bits[u.index()] != replica_bits[v.index()] {
                    cut_value += 1;
                }
            }
        }
        stage_records[r].push(StageRecord {
            stage,
            partition: Cut::new(replica_bits),
            cut_value,
            active_edges,
            max_lock_error: worst_lock,
        });
    }

    // ---- Stage transition: latch SHIL_SEL, cut crossing couplings.
    for idx in 0..n * rr {
        groups[idx] = groups[idx] * 2 + usize::from(bits[idx]);
    }
    for (e, u, v) in graph.edges() {
        let (u, v) = (u.index() * rr, v.index() * rr);
        for r in 0..rr {
            if groups[u + r] != groups[v + r] {
                kernel.set_edge_enabled(e.index(), r, false);
            }
        }
    }
    kernel.set_shil_enabled(false);
}

/// The fixed-point stage body: the same control flow as
/// [`run_one_stage_f64`] over `i32` binary-turn phases. The drift
/// windows run on the fx integrator's uniform step grid (every step a
/// full `dt`, the hardware clock); readout converts each phase word to
/// radians and reuses the exact `phase_to_spin`/`lock_error` decision
/// functions, so binarization and quality metrics are defined
/// identically across backends.
fn run_one_stage_fx(
    graph: &Graph,
    stage: usize,
    stage_windows: &[Window],
    dt: f64,
    kernel: &mut FxBatchKernel,
    arena: &mut BatchArena,
    stage_records: &mut [Vec<StageRecord>],
) {
    let n = graph.num_nodes();
    let BatchArena {
        integrator: _,
        fx_integrator: integrator,
        rngs,
        configs,
        phases: _,
        fx_phases: phases,
        groups,
        bits,
        stage_shils,
        ramped,
    } = arena;
    let rr = configs.len();
    let num_groups = 1usize << (stage - 1);
    let any_ramped = ramped.iter().any(|&r| r);
    let [w_init, w_anneal, w_lock] = stage_windows else {
        panic!("stage {stage} must have exactly three windows");
    };

    // ---- Randomize window (couplings off, SHIL off) ----
    debug_assert_eq!(w_init.kind, WindowKind::Randomize);
    kernel.set_couplings_enabled(false);
    kernel.set_shil_enabled(false);
    let any_jitter = configs
        .iter()
        .any(|c| matches!(c.reinit, ReinitMode::JitterDrift { .. }));
    let any_uniform = configs
        .iter()
        .any(|c| c.reinit == ReinitMode::UniformRandom);
    if any_jitter && !any_uniform {
        // All lanes drift: run the kernel path with each lane's drift
        // σ (as a quantized gain), then restore the annealing σ.
        for (r, cfg) in configs.iter().enumerate() {
            let ReinitMode::JitterDrift { sigma } = cfg.reinit else {
                unreachable!("all lanes drift here")
            };
            kernel.set_lane_noise_amplitude(r, sigma);
        }
        integrator.integrate(kernel, phases, w_init.t_start, w_init.t_end(), dt, rngs);
        for (r, cfg) in configs.iter().enumerate() {
            kernel.set_lane_noise_amplitude(r, cfg.noise);
        }
    } else if any_jitter {
        // Mixed modes. Couplings and SHIL are off, so lanes are fully
        // independent: advance jitter lanes by the exact bias + noise
        // arithmetic of the fx kernel path (one deviate per node per
        // step, in node order — the solo stream), while uniform lanes
        // draw nothing until their redraw below.
        let drift_gains: Vec<i64> = configs
            .iter()
            .map(|c| match c.reinit {
                ReinitMode::JitterDrift { sigma } => fxkernel::noise_gain(sigma, dt),
                ReinitMode::UniformRandom => 0,
            })
            .collect();
        for _ in 0..kernel.steps_for(w_init.t_start, w_init.t_end()) {
            for i in 0..n {
                let row = i * rr;
                for (r, rng) in rngs.iter_mut().enumerate() {
                    if matches!(configs[r].reinit, ReinitMode::JitterDrift { .. }) {
                        let xi = standard_normal(rng);
                        let gain = if kernel.node_enabled(i) {
                            drift_gains[r]
                        } else {
                            0
                        };
                        phases[row + r] = phases[row + r]
                            .wrapping_add(kernel.bias_step_of(i, r))
                            .wrapping_add(noise_increment(gain, xi));
                    }
                }
            }
        }
    }
    for (r, rng) in rngs.iter_mut().enumerate() {
        if configs[r].reinit == ReinitMode::UniformRandom {
            for i in 0..n {
                phases[i * rr + r] = phase_to_turns(rng.gen::<f64>() * TAU);
            }
        }
    }

    // ---- Anneal window (couplings on, SHIL off) ----
    debug_assert_eq!(w_anneal.kind, WindowKind::Anneal);
    kernel.set_couplings_enabled(true);
    integrator.integrate(kernel, phases, w_anneal.t_start, w_anneal.t_end(), dt, rngs);

    // ---- Lock window (couplings on, SHIL on) ----
    debug_assert_eq!(w_lock.kind, WindowKind::Lock);
    stage_shils.clear();
    for cfg in configs.iter() {
        stage_shils.extend(
            (0..num_groups)
                .map(|g| Shil::order2(stage_shil_phase(g, num_groups), cfg.shil_strength)),
        );
    }
    let shil_of = |r: usize, g: usize| stage_shils[r * num_groups + g];
    for i in 0..n {
        for r in 0..rr {
            kernel.set_shil(i, r, Some(shil_of(r, groups[i * rr + r])));
        }
    }
    kernel.set_shil_enabled(true);
    if any_ramped {
        integrator.integrate_ramped_lanes(
            kernel,
            phases,
            w_lock.t_start,
            w_lock.t_end(),
            dt,
            rngs,
            |f| f,
            ramped,
        );
    } else {
        integrator.integrate(kernel, phases, w_lock.t_start, w_lock.t_end(), dt, rngs);
    }

    // ---- Readout (per replica) ----
    for i in 0..n {
        for r in 0..rr {
            let idx = i * rr + r;
            bits[idx] = phase_to_spin(turns_to_phase(phases[idx]), &shil_of(r, groups[idx])) == 1;
        }
    }
    for r in 0..rr {
        let worst_lock = (0..n)
            .map(|i| {
                lock_error(
                    turns_to_phase(phases[i * rr + r]),
                    &shil_of(r, groups[i * rr + r]),
                )
            })
            .fold(0.0f64, f64::max);
        let replica_bits: Vec<bool> = (0..n).map(|i| bits[i * rr + r]).collect();
        let mut cut_value = 0usize;
        let mut active_edges = 0usize;
        for (e, u, v) in graph.edges() {
            if kernel.edge_enabled(e.index(), r) {
                active_edges += 1;
                if replica_bits[u.index()] != replica_bits[v.index()] {
                    cut_value += 1;
                }
            }
        }
        stage_records[r].push(StageRecord {
            stage,
            partition: Cut::new(replica_bits),
            cut_value,
            active_edges,
            max_lock_error: worst_lock,
        });
    }

    // ---- Stage transition: latch SHIL_SEL, cut crossing couplings.
    for idx in 0..n * rr {
        groups[idx] = groups[idx] * 2 + usize::from(bits[idx]);
    }
    for (e, u, v) in graph.edges() {
        let (u, v) = (u.index() * rr, v.index() * rr);
        for r in 0..rr {
            if groups[u + r] != groups[v + r] {
                kernel.set_edge_enabled(e.index(), r, false);
            }
        }
    }
    kernel.set_shil_enabled(false);
}

/// Builds the per-lane solutions from a finished range's final state.
/// Fixed-point phase words convert to radians in `[0, 2π)` — exactly
/// invertibly (see [`msropm_osc::fxkernel::phase_to_turns`]), so the
/// golden-hash tests can recover the raw words from a solution.
fn assemble_solutions(
    n: usize,
    kernel: &EngineKernel,
    arena: &BatchArena,
    stage_records: Vec<Vec<StageRecord>>,
    total_time_ns: f64,
) -> Vec<MsropmSolution> {
    let rr = stage_records.len();
    let groups = &arena.groups;
    stage_records
        .into_iter()
        .enumerate()
        .map(|(r, stages)| {
            let coloring: Coloring = (0..n).map(|i| Color(groups[i * rr + r] as u16)).collect();
            let final_phases = (0..n)
                .map(|i| match kernel {
                    EngineKernel::F64(_) => arena.phases[i * rr + r],
                    EngineKernel::Fx(_) => turns_to_phase(arena.fx_phases[i * rr + r]),
                })
                .collect();
            MsropmSolution {
                coloring,
                stages,
                final_phases,
                total_time_ns,
            }
        })
        .collect()
}

/// Runs one contiguous lane range as a single interleaved batch,
/// invoking `hook` at every non-final stage boundary (the population
/// restart and cooperative-cancellation entry point; see
/// [`StageBoundary`]). All per-run state lives in `arena`, so a caller
/// reusing one arena across solves allocates nothing here once the
/// buffers are warm.
///
/// Returns `None` when `hook` answers [`ControlFlow::Break`] — the run
/// is abandoned at that stage boundary and **no** solutions are
/// produced (the partially annealed state is discarded; the arena stays
/// reusable). A `Break` cannot change the trajectory of a run that
/// continues: the hook fires strictly between stages, after all RNG
/// draws of the finished stage and before any of the next.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_lane_range_hooked<F>(
    graph: &Graph,
    base_config: &MsropmConfig,
    network: &PhaseNetwork,
    lanes: &[LaneConfig],
    seeds: &[u64],
    sample_spread: bool,
    arena: &mut BatchArena,
    mut hook: F,
) -> Option<Vec<MsropmSolution>>
where
    F: FnMut(usize, &mut StageBoundary) -> ControlFlow<()>,
{
    let rr = seeds.len();
    let PreparedRange {
        mut kernel,
        mut stage_records,
        windows,
        k,
        dt,
    } = prepare_lane_range(
        graph,
        base_config,
        network,
        lanes,
        seeds,
        sample_spread,
        arena,
    );
    for stage in 1..=k {
        run_one_stage(
            graph,
            stage,
            &windows[3 * (stage - 1)..3 * stage],
            dt,
            &mut kernel,
            arena,
            &mut stage_records,
        );
        if stage < k {
            let phases = arena_phases(&kernel, &mut arena.phases, &mut arena.fx_phases);
            let mut boundary = StageBoundary {
                graph,
                shards: vec![ShardSlice {
                    kernel: &mut kernel,
                    phases,
                    groups: arena.groups.as_mut_slice(),
                    stage_records: stage_records.as_mut_slice(),
                    replicas: rr,
                }],
            };
            if hook(stage, &mut boundary).is_break() {
                return None;
            }
        }
    }
    let total_time_ns = windows.last().map_or(0.0, Window::t_end);
    Some(assemble_solutions(
        graph.num_nodes(),
        &kernel,
        arena,
        stage_records,
        total_time_ns,
    ))
}

/// One shard of a sharded solve: a contiguous lane range plus
/// everything its stage tasks need, fully owned so the whole struct can
/// move onto (and back off) the [`ShardPool`] between stage boundaries.
struct ShardRun {
    graph: Arc<Graph>,
    shard: usize,
    kernel: EngineKernel,
    arena: BatchArena,
    stage_records: Vec<Vec<StageRecord>>,
    windows: Vec<Window>,
    dt: f64,
}

impl ShardRun {
    #[allow(clippy::too_many_arguments)]
    fn init(
        graph: Arc<Graph>,
        base_config: MsropmConfig,
        network: Arc<PhaseNetwork>,
        lanes: Vec<LaneConfig>,
        seeds: Vec<u64>,
        sample_spread: bool,
        mut arena: BatchArena,
        shard: usize,
    ) -> Self {
        let prep = prepare_lane_range(
            &graph,
            &base_config,
            &network,
            &lanes,
            &seeds,
            sample_spread,
            &mut arena,
        );
        ShardRun {
            graph,
            shard,
            kernel: prep.kernel,
            arena,
            stage_records: prep.stage_records,
            windows: prep.windows,
            dt: prep.dt,
        }
    }

    /// Runs stage `stage`. `injected_panic` is the one-shot fault the
    /// dispatcher took from its pool for this task
    /// ([`crate::pool::faultinject`]).
    fn run_stage(&mut self, stage: usize, injected_panic: bool) {
        if injected_panic {
            panic!("injected shard panic (shard {})", self.shard);
        }
        run_one_stage(
            &self.graph,
            stage,
            &self.windows[3 * (stage - 1)..3 * stage],
            self.dt,
            &mut self.kernel,
            &mut self.arena,
            &mut self.stage_records,
        );
    }

    fn boundary_slice(&mut self) -> ShardSlice<'_> {
        let phases = arena_phases(
            &self.kernel,
            &mut self.arena.phases,
            &mut self.arena.fx_phases,
        );
        ShardSlice {
            kernel: &mut self.kernel,
            phases,
            groups: self.arena.groups.as_mut_slice(),
            stage_records: self.stage_records.as_mut_slice(),
            replicas: self.arena.configs.len(),
        }
    }

    fn finish(self) -> (Vec<MsropmSolution>, BatchArena) {
        let total_time_ns = self.windows.last().map_or(0.0, Window::t_end);
        let sols = assemble_solutions(
            self.graph.num_nodes(),
            &self.kernel,
            &self.arena,
            self.stage_records,
            total_time_ns,
        );
        (sols, self.arena)
    }
}

/// What a shard task sends back: its run (moved through the pool) or
/// the payload of the panic that killed it.
type ShardResult = (usize, Result<ShardRun, Box<dyn Any + Send>>);

/// Waits for all `shards` stage tasks of the current stage, executing
/// pool tasks on this thread while waiting ([`ShardPool::help_while`]).
/// If any shard panicked, the panic resumes here — after every shard
/// has reported, so no task is left holding state.
fn collect_shards(
    pool: &ShardPool,
    rx: &mpsc::Receiver<ShardResult>,
    shards: usize,
) -> Vec<ShardRun> {
    let mut slots: Vec<Option<ShardRun>> = (0..shards).map(|_| None).collect();
    let mut received = 0usize;
    let mut panic: Option<Box<dyn Any + Send>> = None;
    pool.help_while(|| {
        while let Ok((idx, res)) = rx.try_recv() {
            received += 1;
            match res {
                Ok(run) => slots[idx] = Some(run),
                Err(payload) => {
                    if panic.is_none() {
                        panic = Some(payload);
                    }
                }
            }
        }
        received == shards
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every shard reported"))
        .collect()
}

/// Runs one job's lane range — the one batch-solve driver. The range
/// splits into `shards` contiguous chunks; each chunk's current stage
/// runs as one owned task on `pool` (the process-wide
/// [`crate::pool::global`] when `None`); the dispatching thread helps
/// the pool while waiting and fires `hook` over a cross-shard
/// [`StageBoundary`] at every non-final boundary. `shards == 1` (or a
/// single-lane job) runs [`solve_lane_range_hooked`] inline in shard
/// slot 0 and never touches a pool. `sample_spread` reproduces
/// `Msropm::with_frequency_spread` semantics: each replica first draws
/// per-oscillator frequency offsets from its own RNG, before any phase
/// draws.
///
/// Bit-identity across shard counts holds by construction (shared
/// [`prepare_lane_range`] + [`run_one_stage`], per-lane RNG streams, a
/// lane's arithmetic independent of its range) and is property-tested
/// at the core, server and wire layers.
///
/// A panic inside any shard task (e.g. a poisoned problem) is re-raised
/// on the calling thread once every shard has reported — the job
/// server's `catch_unwind` then maps it to a typed `Failed` completion.
/// The in-flight shard arenas are lost to the panic; rebuild the
/// [`ShardedArena`].
///
/// # Panics
///
/// Panics if `shards == 0`, `lanes.len() != seeds.len()`, any resolved
/// lane config is inconsistent, or a shard task panicked.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_lanes_sharded_hooked<F>(
    graph: &Graph,
    base_config: &MsropmConfig,
    network: &PhaseNetwork,
    lanes: &[LaneConfig],
    seeds: &[u64],
    sample_spread: bool,
    shards: usize,
    arena: &mut ShardedArena,
    pool: Option<&ShardPool>,
    mut hook: F,
) -> Option<Vec<MsropmSolution>>
where
    F: FnMut(usize, &mut StageBoundary) -> ControlFlow<()>,
{
    assert!(shards > 0, "need at least one shard");
    assert_eq!(lanes.len(), seeds.len(), "need one lane config per seed");
    base_config.validate();
    if seeds.is_empty() {
        return Some(Vec::new());
    }
    let shards = shards.min(seeds.len());
    if shards == 1 {
        return solve_lane_range_hooked(
            graph,
            base_config,
            network,
            lanes,
            seeds,
            sample_spread,
            arena.shard_slot(0),
            hook,
        );
    }
    let pool = match pool {
        Some(pool) => pool,
        None => crate::pool::global(),
    };
    // Lockstep (and backend agreement) must hold across the *whole*
    // batch, not just within each shard, so a cross-shard mismatch
    // fails exactly like it does on the single-shard path.
    let _ = batch_backend(base_config, lanes);
    let all_configs: Vec<MsropmConfig> = lanes.iter().map(|l| l.resolve(base_config)).collect();
    let _lockstep = ScheduleSet::from_configs(&all_configs);
    let k = all_configs[0].num_stages();
    drop(all_configs);

    let chunk_len = seeds.len().div_ceil(shards);
    // div_ceil chunking can yield fewer chunks than requested (6 lanes
    // at width 4 chunk as 2+2+2): recount so every join waits for
    // exactly the tasks dispatched.
    let shards = seeds.len().div_ceil(chunk_len);
    let graph_arc = Arc::new(graph.clone());
    let net_arc = Arc::new(network.clone());
    let base = *base_config;
    let (tx, rx) = mpsc::channel::<ShardResult>();

    // Stage 1 tasks carry shard init (kernel compilation, RNG seeding,
    // initial draws), so problem setup parallelizes too.
    for (idx, (seed_chunk, lane_chunk)) in seeds
        .chunks(chunk_len)
        .zip(lanes.chunks(chunk_len))
        .enumerate()
    {
        let tx = tx.clone();
        let task_graph = Arc::clone(&graph_arc);
        let task_net = Arc::clone(&net_arc);
        let task_lanes = lane_chunk.to_vec();
        let task_seeds = seed_chunk.to_vec();
        let shard_arena = std::mem::take(arena.shard_slot(idx));
        let injected_panic = faultinject::take_panic_in_shard(pool, idx);
        pool.submit(Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(move || {
                let mut run = ShardRun::init(
                    task_graph,
                    base,
                    task_net,
                    task_lanes,
                    task_seeds,
                    sample_spread,
                    shard_arena,
                    idx,
                );
                run.run_stage(1, injected_panic);
                run
            }));
            let _ = tx.send((idx, out));
        }));
    }
    let mut runs = collect_shards(pool, &rx, shards);

    for stage in 1..k {
        let slices: Vec<ShardSlice> = runs.iter_mut().map(ShardRun::boundary_slice).collect();
        let mut boundary = StageBoundary {
            graph,
            shards: slices,
        };
        if hook(stage, &mut boundary).is_break() {
            // Abandoned at the boundary, same as the single-shard path:
            // no solutions, arenas back in their slots for reuse.
            for (idx, run) in runs.into_iter().enumerate() {
                *arena.shard_slot(idx) = run.arena;
            }
            return None;
        }
        for (idx, mut run) in runs.into_iter().enumerate() {
            let tx = tx.clone();
            let next = stage + 1;
            let injected_panic = faultinject::take_panic_in_shard(pool, idx);
            pool.submit(Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(move || {
                    run.run_stage(next, injected_panic);
                    run
                }));
                let _ = tx.send((idx, out));
            }));
        }
        runs = collect_shards(pool, &rx, shards);
    }

    let mut out = Vec::with_capacity(seeds.len());
    for (idx, run) in runs.into_iter().enumerate() {
        let (sols, shard_arena) = run.finish();
        out.extend(sols);
        *arena.shard_slot(idx) = shard_arena;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Msropm, SolveOptions};
    use msropm_graph::generators;

    fn fast_config() -> MsropmConfig {
        MsropmConfig {
            dt: 0.02,
            ..MsropmConfig::paper_default()
        }
    }

    /// A stage-boundary hook that never intervenes.
    fn no_hook(_: usize, _: &mut StageBoundary) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// One lane range solved inline in `arena` (the 1-shard body).
    fn solve_inline(
        g: &Graph,
        base: &MsropmConfig,
        net: &PhaseNetwork,
        lanes: &[LaneConfig],
        seeds: &[u64],
        arena: &mut BatchArena,
    ) -> Vec<MsropmSolution> {
        solve_lane_range_hooked(g, base, net, lanes, seeds, false, arena, no_hook)
            .expect("hook never aborts")
    }

    /// `seeds.len()` default lanes through `Msropm::solve_lanes`,
    /// `shards` wide on the global pool.
    fn solve_default(machine: &Msropm, seeds: &[u64], shards: usize) -> Vec<MsropmSolution> {
        let lanes = vec![LaneConfig::default(); seeds.len()];
        machine
            .solve_lanes(&lanes, seeds, SolveOptions::new().shards(shards))
            .expect("no abort hook")
    }

    #[test]
    fn batch_replicas_match_sequential_solves_bitwise() {
        let g = generators::kings_graph(4, 4);
        let machine = Msropm::new(&g, fast_config());
        let seeds: Vec<u64> = (100..108).collect();
        let batch = solve_default(&machine, &seeds, 1);
        assert_eq!(batch.len(), seeds.len());
        for (r, &seed) in seeds.iter().enumerate() {
            let mut solo_machine = machine.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = solo_machine.solve(&mut rng);
            assert_eq!(batch[r].coloring, solo.coloring, "replica {r} coloring");
            for (a, b) in batch[r].final_phases.iter().zip(&solo.final_phases) {
                assert_eq!(a.to_bits(), b.to_bits(), "replica {r} phases diverged");
            }
            assert_eq!(batch[r].stages.len(), solo.stages.len());
            for (sa, sb) in batch[r].stages.iter().zip(&solo.stages) {
                assert_eq!(sa.cut_value, sb.cut_value);
                assert_eq!(sa.active_edges, sb.active_edges);
                assert_eq!(sa.partition, sb.partition);
            }
        }
    }

    #[test]
    fn thread_count_is_invisible() {
        let g = generators::kings_graph(4, 4);
        let machine = Msropm::new(&g, fast_config());
        let seeds: Vec<u64> = (7..17).collect();
        let one = solve_default(&machine, &seeds, 1);
        let four = solve_default(&machine, &seeds, 4);
        let many = solve_default(&machine, &seeds, 64);
        for r in 0..seeds.len() {
            assert_eq!(one[r].coloring, four[r].coloring);
            assert_eq!(one[r].coloring, many[r].coloring);
            for (a, b) in one[r].final_phases.iter().zip(&four[r].final_phases) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn ramped_batch_matches_sequential() {
        let g = generators::kings_graph(3, 3);
        let machine = Msropm::new(&g, fast_config().with_shil_ramp(true));
        let seeds = [41u64, 42];
        let batch = solve_default(&machine, &seeds, 2);
        for (r, &seed) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = machine.clone().solve(&mut rng);
            assert_eq!(batch[r].coloring, solo.coloring, "ramped replica {r}");
        }
    }

    #[test]
    fn defective_oscillators_carry_into_batch() {
        let g = generators::kings_graph(3, 3);
        let mut machine = Msropm::new(&g, fast_config());
        machine.set_oscillator_enabled(4, false);
        let seeds = [9u64, 10];
        let batch = solve_default(&machine, &seeds, 1);
        for (r, &seed) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = machine.clone().solve(&mut rng);
            assert_eq!(
                batch[r].coloring, solo.coloring,
                "replica {r} with dead ring"
            );
        }
    }

    #[test]
    fn empty_seed_list_is_empty_batch() {
        let g = generators::path_graph(2);
        let machine = Msropm::new(&g, fast_config());
        assert!(solve_default(&machine, &[], 4).is_empty());
    }

    /// A lane's trajectory in a heterogeneous batch must be bit-identical
    /// to a sequential `Msropm::solve` over the lane's resolved config.
    fn assert_lane_matches_solo(
        g: &msropm_graph::Graph,
        base: &MsropmConfig,
        lanes: &[LaneConfig],
        seeds: &[u64],
    ) {
        let machine = Msropm::new(g, *base);
        let batch = machine
            .solve_lanes(lanes, seeds, SolveOptions::new())
            .expect("no abort hook");
        for (r, (&seed, lane)) in seeds.iter().zip(lanes).enumerate() {
            let mut solo_machine = Msropm::new(g, lane.resolve(base));
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = solo_machine.solve(&mut rng);
            assert_eq!(batch[r].coloring, solo.coloring, "lane {r} coloring");
            for (a, b) in batch[r].final_phases.iter().zip(&solo.final_phases) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {r} phases diverged");
            }
        }
    }

    #[test]
    fn swept_lanes_match_their_standalone_machines() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let lanes = [
            LaneConfig::default(),
            LaneConfig::default().with_coupling_strength(0.6),
            LaneConfig::default()
                .with_noise(0.05)
                .with_shil_strength(1.2),
            LaneConfig::default()
                .with_coupling_strength(1.4)
                .with_noise(0.3),
        ];
        assert_lane_matches_solo(&g, &base, &lanes, &[31, 32, 33, 34]);
    }

    #[test]
    fn mixed_reinit_lanes_match_their_standalone_machines() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let lanes = [
            LaneConfig::default().with_reinit(ReinitMode::UniformRandom),
            LaneConfig::default(),
            LaneConfig::default().with_reinit(ReinitMode::JitterDrift { sigma: 0.4 }),
        ];
        assert_lane_matches_solo(&g, &base, &lanes, &[51, 52, 53]);
    }

    #[test]
    fn mixed_ramp_lanes_match_their_standalone_machines() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let lanes = [
            LaneConfig::default().with_shil_ramp(true),
            LaneConfig::default(),
            LaneConfig::default().with_shil_ramp(true).with_noise(0.1),
        ];
        assert_lane_matches_solo(&g, &base, &lanes, &[61, 62, 63]);
    }

    #[test]
    fn mixed_reinit_with_defective_ring_matches_solo() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let lanes = [
            LaneConfig::default().with_reinit(ReinitMode::UniformRandom),
            LaneConfig::default().with_reinit(ReinitMode::JitterDrift { sigma: 2.0 }),
        ];
        let seeds = [71u64, 72];
        let mut machine = Msropm::new(&g, base);
        machine.set_oscillator_enabled(2, false);
        let batch = machine
            .solve_lanes(&lanes, &seeds, SolveOptions::new())
            .expect("no abort hook");
        for (r, (&seed, lane)) in seeds.iter().zip(&lanes).enumerate() {
            let mut solo_machine = Msropm::new(&g, lane.resolve(&base));
            solo_machine.set_oscillator_enabled(2, false);
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = solo_machine.solve(&mut rng);
            for (a, b) in batch[r].final_phases.iter().zip(&solo.final_phases) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {r} with dead ring");
            }
        }
    }

    #[test]
    fn reused_arena_matches_fresh_arena() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let jobs: [(&[LaneConfig], &[u64]); 3] = [
            (&[LaneConfig::default(); 4], &[1, 2, 3, 4]),
            (
                &[
                    LaneConfig::default().with_coupling_strength(0.7),
                    LaneConfig::default().with_noise(0.05),
                ],
                &[5, 6],
            ),
            (&[LaneConfig::default(); 2], &[7, 8]),
        ];
        // One arena reused across heterogeneously-shaped jobs vs a fresh
        // arena per job: bit-identical.
        let mut warm = BatchArena::default();
        for (lanes, seeds) in jobs {
            let reused = solve_inline(&g, &base, &net, lanes, seeds, &mut warm);
            let fresh = solve_inline(&g, &base, &net, lanes, seeds, &mut BatchArena::default());
            for (a, b) in reused.iter().zip(&fresh) {
                assert_eq!(a.coloring, b.coloring);
                for (x, y) in a.final_phases.iter().zip(&b.final_phases) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn heterogeneous_sharding_is_invisible() {
        let g = generators::kings_graph(3, 3);
        let machine = Msropm::new(&g, fast_config());
        let lanes: Vec<LaneConfig> = (0..6)
            .map(|i| LaneConfig::default().with_noise(0.05 + 0.05 * i as f64))
            .collect();
        let seeds: Vec<u64> = (90..96).collect();
        let solve = |shards| {
            machine
                .solve_lanes(&lanes, &seeds, SolveOptions::new().shards(shards))
                .expect("no abort hook")
        };
        let (one, three) = (solve(1), solve(3));
        for r in 0..seeds.len() {
            assert_eq!(one[r].coloring, three[r].coloring, "lane {r}");
        }
    }

    #[test]
    fn stage_boundary_hook_fires_on_non_final_stages() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config(); // 4 colors => 2 stages => 1 boundary
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 3];
        let mut fired = Vec::new();
        let mut arena = BatchArena::default();
        let out = solve_lane_range_hooked(
            &g,
            &base,
            &net,
            &lanes,
            &[1, 2, 3],
            false,
            &mut arena,
            |stage, b| {
                fired.push((stage, b.num_lanes()));
                // Satisfied-edge counts are sane: between 0 and m.
                for r in 0..b.num_lanes() {
                    assert!(b.satisfied_edges(r) <= g.num_edges());
                }
                ControlFlow::Continue(())
            },
        );
        assert_eq!(out.expect("run completes").len(), 3);
        assert_eq!(fired, vec![(1, 3)]);
    }

    #[test]
    fn hook_break_abandons_the_run() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config(); // 2 stages => the one boundary aborts
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 2];
        let mut arena = BatchArena::default();
        let out = solve_lane_range_hooked(
            &g,
            &base,
            &net,
            &lanes,
            &[1, 2],
            false,
            &mut arena,
            |_, _: &mut StageBoundary| ControlFlow::Break(()),
        );
        assert!(out.is_none(), "broken run must yield no solutions");
        // The arena stays reusable and a subsequent full run is
        // bit-identical to one in a fresh arena.
        let resumed = solve_inline(&g, &base, &net, &lanes, &[1, 2], &mut arena);
        let fresh = solve_inline(&g, &base, &net, &lanes, &[1, 2], &mut BatchArena::default());
        for (a, b) in resumed.iter().zip(&fresh) {
            assert_eq!(a.coloring, b.coloring);
            for (x, y) in a.final_phases.iter().zip(&b.final_phases) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn copy_lane_transplants_partition_state() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 2];
        let mut arena = BatchArena::default();
        let sols = solve_lane_range_hooked(
            &g,
            &base,
            &net,
            &lanes,
            &[5, 6],
            false,
            &mut arena,
            |_, b| {
                b.copy_lane(0, 1);
                assert_eq!(b.satisfied_edges(0), b.satisfied_edges(1));
                ControlFlow::Continue(())
            },
        )
        .expect("uncancelled run completes");
        // After the copy both lanes share the stage-1 partition, so the
        // stage-1 group bit (the color MSB) must agree everywhere.
        let c0 = &sols[0].coloring;
        let c1 = &sols[1].coloring;
        for i in 0..g.num_nodes() {
            assert_eq!(
                c0.as_slice()[i].index() >> 1,
                c1.as_slice()[i].index() >> 1,
                "node {i} stage-1 bit"
            );
        }
    }

    // ---- Sharded-solve tests (PR 7) ----

    fn assert_solutions_bitwise_equal(a: &[MsropmSolution], b: &[MsropmSolution]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.coloring, y.coloring);
            for (p, q) in x.final_phases.iter().zip(&y.final_phases) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
            assert_eq!(x.stages.len(), y.stages.len());
            for (sa, sb) in x.stages.iter().zip(&y.stages) {
                assert_eq!(sa.partition, sb.partition);
                assert_eq!(sa.cut_value, sb.cut_value);
                assert_eq!(sa.active_edges, sb.active_edges);
            }
        }
    }

    #[test]
    fn shard_count_is_invisible() {
        let g = generators::kings_graph(4, 4);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes: Vec<LaneConfig> = (0..10)
            .map(|i| match i % 3 {
                0 => LaneConfig::default(),
                1 => LaneConfig::default().with_coupling_strength(0.8),
                _ => LaneConfig::default().with_noise(0.1),
            })
            .collect();
        let seeds: Vec<u64> = (300..310).collect();
        let pool = ShardPool::new(2);
        let reference = solve_inline(&g, &base, &net, &lanes, &seeds, &mut BatchArena::default());
        for shards in [1usize, 2, 3, 4, 64] {
            let mut arena = ShardedArena::new();
            let sharded = solve_lanes_sharded_hooked(
                &g,
                &base,
                &net,
                &lanes,
                &seeds,
                false,
                shards,
                &mut arena,
                Some(&pool),
                no_hook,
            )
            .expect("uncancelled run completes");
            assert_solutions_bitwise_equal(&reference, &sharded);
        }
    }

    #[test]
    fn sharded_reused_arena_matches_fresh() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let pool = ShardPool::new(2);
        let mut warm = ShardedArena::new();
        for round in 0..3u64 {
            let lanes = vec![LaneConfig::default(); 6];
            let seeds: Vec<u64> = (round * 10..round * 10 + 6).collect();
            let reused = solve_lanes_sharded_hooked(
                &g,
                &base,
                &net,
                &lanes,
                &seeds,
                false,
                3,
                &mut warm,
                Some(&pool),
                no_hook,
            )
            .expect("completes");
            let fresh = solve_lanes_sharded_hooked(
                &g,
                &base,
                &net,
                &lanes,
                &seeds,
                false,
                3,
                &mut ShardedArena::new(),
                Some(&pool),
                no_hook,
            )
            .expect("completes");
            assert_solutions_bitwise_equal(&reused, &fresh);
        }
    }

    #[test]
    fn sharded_hook_sees_global_lane_order_and_copies_across_shards() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 6];
        let seeds: Vec<u64> = (40..46).collect();
        let pool = ShardPool::new(2);

        // Reference: single shard, hook copies lane 0 onto lane 5.
        let mut single = BatchArena::default();
        let reference = solve_lane_range_hooked(
            &g,
            &base,
            &net,
            &lanes,
            &seeds,
            false,
            &mut single,
            |_, b| {
                assert_eq!(b.num_lanes(), 6);
                b.copy_lane(0, 5);
                ControlFlow::Continue(())
            },
        )
        .expect("completes");

        // 3 shards of 2 lanes: the same copy crosses shard boundaries.
        let mut arena = ShardedArena::new();
        let mut satisfied = Vec::new();
        let sharded = solve_lanes_sharded_hooked(
            &g,
            &base,
            &net,
            &lanes,
            &seeds,
            false,
            3,
            &mut arena,
            Some(&pool),
            |_, b| {
                assert_eq!(b.num_lanes(), 6);
                satisfied = (0..6).map(|r| b.satisfied_edges(r)).collect();
                b.copy_lane(0, 5);
                assert_eq!(b.satisfied_edges(0), b.satisfied_edges(5));
                ControlFlow::Continue(())
            },
        )
        .expect("completes");
        assert_solutions_bitwise_equal(&reference, &sharded);
        assert_eq!(satisfied.len(), 6);
    }

    #[test]
    fn sharded_hook_break_abandons_and_keeps_arena_reusable() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 4];
        let pool = ShardPool::new(2);
        let mut arena = ShardedArena::new();
        let out = solve_lanes_sharded_hooked(
            &g,
            &base,
            &net,
            &lanes,
            &[1, 2, 3, 4],
            false,
            2,
            &mut arena,
            Some(&pool),
            |_, _: &mut StageBoundary| ControlFlow::Break(()),
        );
        assert!(out.is_none(), "broken run must yield no solutions");
        // The shard arenas came back and the next run is bit-identical
        // to a fresh-arena run.
        let resumed = solve_lanes_sharded_hooked(
            &g,
            &base,
            &net,
            &lanes,
            &[1, 2, 3, 4],
            false,
            2,
            &mut arena,
            Some(&pool),
            no_hook,
        )
        .expect("completes");
        let fresh = solve_lanes_sharded_hooked(
            &g,
            &base,
            &net,
            &lanes,
            &[1, 2, 3, 4],
            false,
            2,
            &mut ShardedArena::new(),
            Some(&pool),
            no_hook,
        )
        .expect("completes");
        assert_solutions_bitwise_equal(&resumed, &fresh);
    }

    #[test]
    fn empty_seed_list_is_empty_sharded_batch() {
        let g = generators::path_graph(2);
        let base = fast_config();
        let net = base.build_network(&g);
        let pool = ShardPool::new(1);
        let out = solve_lanes_sharded_hooked(
            &g,
            &base,
            &net,
            &[],
            &[],
            false,
            4,
            &mut ShardedArena::new(),
            Some(&pool),
            no_hook,
        );
        assert_eq!(out.expect("trivially completes").len(), 0);
    }

    /// Runs `lanes` 2 shards wide on `pool`.
    fn solve_two_shards(
        g: &Graph,
        base: &MsropmConfig,
        net: &PhaseNetwork,
        lanes: &[LaneConfig],
        seeds: &[u64],
        pool: &ShardPool,
    ) -> Vec<MsropmSolution> {
        solve_lanes_sharded_hooked(
            g,
            base,
            net,
            lanes,
            seeds,
            false,
            2,
            &mut ShardedArena::new(),
            Some(pool),
            no_hook,
        )
        .expect("completes")
    }

    #[test]
    fn shard_panic_unwinds_to_the_caller() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 4];
        let seeds = [1, 2, 3, 4];
        let pool = ShardPool::new(2);
        faultinject::arm_panic_in_shard(&pool, 1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            solve_two_shards(&g, &base, &net, &lanes, &seeds, &pool)
        }));
        faultinject::disarm(&pool);
        assert!(result.is_err(), "shard panic must unwind out of the solve");
        // The pool survives and a fresh solve matches the unsharded
        // reference.
        let sharded = solve_two_shards(&g, &base, &net, &lanes, &seeds, &pool);
        let reference = solve_inline(&g, &base, &net, &lanes, &seeds, &mut BatchArena::default());
        assert_solutions_bitwise_equal(&reference, &sharded);
    }

    #[test]
    fn armed_shard_panic_stays_on_its_own_pool() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 4];
        let seeds = [5, 6, 7, 8];
        let armed = ShardPool::new(1);
        let other = ShardPool::new(2);
        faultinject::arm_panic_in_shard(&armed, 1);
        // A 2-shard solve on another pool dispatches a shard-1 task at
        // every stage; none of them may take the other pool's fault.
        let result = catch_unwind(AssertUnwindSafe(|| {
            solve_two_shards(&g, &base, &net, &lanes, &seeds, &other)
        }));
        let still_armed = faultinject::is_armed(&armed);
        faultinject::disarm(&armed);
        assert!(result.is_ok(), "a fault armed on one pool fired on another");
        assert!(still_armed, "the armed pool's fault was consumed elsewhere");
    }
}
