//! The compiled coupling kernel: the allocation-free, edge-visited-once
//! form of the phase-network drift used by every integration window.
//!
//! # Why compile?
//!
//! [`PhaseNetwork`]'s own [`OdeSystem::eval`] is the *reference*
//! implementation: a CSR walk that re-tests the `P_EN`/`L_EN` gating of
//! every neighbor on every step and evaluates `sin(θ_i − θ_j)` twice per
//! undirected edge (once from each endpoint). The gating state only
//! changes at window boundaries (the machine's stage transitions), so all
//! of that per-step branching is loop-invariant. [`CoupledKernel`]
//! compiles the current gating state once per window into:
//!
//! - a flat **active-edge list** (SoA: endpoint and weight arrays in
//!   edge-id order) visited **once** per step: the kernel evaluates
//!   `s = w·sin(θ_u − θ_v)` a single time and scatters `−s`/`+s` to the
//!   two endpoints (the drift is antisymmetric because `sin` is odd);
//! - a dense **SHIL torque table** (`Ks`, `m`, `ψ` per node, zeroed where
//!   SHIL is unassigned, globally disabled, or the ring is defective);
//! - per-node bias (`Δω`) and diffusion (`σ`) vectors with the defective
//!   rings already zeroed out.
//!
//! The hot path is three passes over contiguous buffers — gather phase
//! differences, [`sin_slice`] (branchless,
//! auto-vectorized), scatter — which measures ~4× faster than the CSR
//! walk on the paper's 2116-node King's graph (see
//! `crates/bench/src/bin/bench_phase_step.rs`).
//!
//! [`KernelIntegrator`] owns the drift/scratch buffers and a reusable
//! Euler–Maruyama loop, so a full multi-window anneal performs **zero
//! heap allocation** after the first step.
//!
//! # Numerical contract
//!
//! The kernel drift agrees with the naive [`PhaseNetwork`] eval to better
//! than 1e-12 absolute (property-tested in the workspace root): the only
//! differences are the per-node accumulation order and the polynomial
//! `sin` (|err| < 4e-15). The SHIL table multiplies by a runtime
//! `shil_scale`, so the OIM-style SHIL ramp only rescales one scalar
//! instead of recompiling.

use crate::fastmath::{sin_fast, sin_slice};
use crate::network::PhaseNetwork;
use msropm_ode::sde::standard_normal;
use msropm_ode::system::{OdeSystem, SdeSystem};
use rand::Rng;

/// An immutable, compiled snapshot of a [`PhaseNetwork`]'s gating state
/// (plus a mutable SHIL ramp scale). See the module docs.
#[derive(Debug, Clone)]
pub struct CoupledKernel {
    num_nodes: usize,
    /// Active-edge endpoints/weights, ascending edge id (SoA layout).
    edge_u: Vec<u32>,
    edge_v: Vec<u32>,
    edge_w: Vec<f64>,
    /// Per-node free-running frequency offset; 0 for defective rings.
    bias: Vec<f64>,
    /// Dense SHIL table; `ks == 0` encodes "no torque".
    shil_m: Vec<f64>,
    shil_psi: Vec<f64>,
    shil_ks: Vec<f64>,
    shil_scale: f64,
    shil_on: bool,
    /// Per-node diffusion coefficient; 0 for defective rings.
    noise: Vec<f64>,
}

impl CoupledKernel {
    /// Compiles the network's **current** gating state. An edge is kept
    /// iff couplings are globally on, its own `P_EN` is high and both
    /// endpoints are functional; the SHIL table is zeroed unless
    /// `SHIL_EN` is high.
    pub fn compile(net: &PhaseNetwork) -> Self {
        let n = net.num_nodes();
        let m = net.num_edges();
        let mut edge_u = Vec::with_capacity(m);
        let mut edge_v = Vec::with_capacity(m);
        let mut edge_w = Vec::with_capacity(m);
        if net.couplings_enabled() {
            for (e, &(u, v)) in net.edge_endpoints().iter().enumerate() {
                if net.edge_enabled(e)
                    && net.node_enabled(u as usize)
                    && net.node_enabled(v as usize)
                {
                    edge_u.push(u);
                    edge_v.push(v);
                    edge_w.push(net.edge_weight(e));
                }
            }
        }
        let shil_on = net.shil_enabled();
        let mut shil_m = vec![0.0; n];
        let mut shil_psi = vec![0.0; n];
        let mut shil_ks = vec![0.0; n];
        let mut bias = vec![0.0; n];
        let mut noise = vec![0.0; n];
        for i in 0..n {
            if !net.node_enabled(i) {
                continue;
            }
            bias[i] = net.delta_omega()[i];
            noise[i] = net.noise_amplitude();
            if shil_on {
                if let Some(shil) = net.shil_of(i) {
                    shil_m[i] = shil.order() as f64;
                    shil_psi[i] = shil.phase();
                    shil_ks[i] = shil.strength();
                }
            }
        }
        CoupledKernel {
            num_nodes: n,
            edge_u,
            edge_v,
            edge_w,
            bias,
            shil_m,
            shil_psi,
            shil_ks,
            shil_scale: 1.0,
            shil_on,
            noise,
        }
    }

    /// Number of oscillators.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges that survived compilation (active couplings).
    pub fn num_active_edges(&self) -> usize {
        self.edge_w.len()
    }

    /// Scales every SHIL strength by `scale` at evaluation time — the
    /// OIM-style annealed-SHIL ramp without recompiling.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative or non-finite.
    pub fn set_shil_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "SHIL scale must be finite and non-negative, got {scale}"
        );
        self.shil_scale = scale;
    }

    /// The current SHIL ramp scale.
    pub fn shil_scale(&self) -> f64 {
        self.shil_scale
    }

    /// Per-node diffusion coefficients (σ, with defective rings zeroed).
    pub fn noise(&self) -> &[f64] {
        &self.noise
    }

    /// Writes the drift into `dydt` using `scratch` for the edge pass.
    ///
    /// This is the allocation-free hot path: `scratch` grows once to
    /// `max(active edges, nodes)` and is reused across steps (the edge
    /// pass and the SHIL pass each borrow it in turn). The arithmetic is
    /// identical (bitwise) to the [`OdeSystem::eval`] implementation; the
    /// buffer exists so the `sin` pass runs over contiguous memory and
    /// vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if `y`/`dydt` lengths differ from [`CoupledKernel::num_nodes`].
    pub fn drift_into(&self, y: &[f64], dydt: &mut [f64], scratch: &mut Vec<f64>) {
        assert_eq!(y.len(), self.num_nodes, "phase vector size mismatch");
        assert_eq!(dydt.len(), self.num_nodes, "drift vector size mismatch");
        dydt.copy_from_slice(&self.bias);
        let m = self.edge_w.len();
        scratch.resize(m, 0.0);
        // Pass 1: gather phase differences.
        for ((d, u), v) in scratch.iter_mut().zip(&self.edge_u).zip(&self.edge_v) {
            *d = y[*u as usize] - y[*v as usize];
        }
        // Pass 2: branchless sin over contiguous memory (vectorized).
        sin_slice(scratch);
        // Pass 3: scatter ±w·s to both endpoints — each edge exactly once.
        for k in 0..m {
            let s = self.edge_w[k] * scratch[k];
            dydt[self.edge_u[k] as usize] -= s;
            dydt[self.edge_v[k] as usize] += s;
        }
        // SHIL pass, same three-pass shape as the edges: precompute the
        // argument slice, one vectorized `sin_slice` sweep, then apply.
        // Bitwise-identical to the scalar `shil_pass` (`sin_slice`
        // matches per-element `sin_fast` exactly); `scratch` regrows at
        // most once to `max(m, n)` and stays allocation-free after.
        if self.shil_on {
            let n = self.num_nodes;
            scratch.resize(n, 0.0);
            for i in 0..n {
                scratch[i] = self.shil_m[i] * y[i] - self.shil_psi[i];
            }
            sin_slice(&mut scratch[..n]);
            for i in 0..n {
                dydt[i] -= (self.shil_ks[i] * self.shil_scale) * scratch[i];
            }
        }
    }

    /// Adds the dense SHIL torque `−Ks·scale·sin(mθ − ψ)` for every node.
    /// Nodes without SHIL have `Ks = 0`, making the pass branch-free.
    fn shil_pass(&self, y: &[f64], dydt: &mut [f64]) {
        if !self.shil_on {
            return;
        }
        for i in 0..self.num_nodes {
            let torque = (self.shil_ks[i] * self.shil_scale)
                * sin_fast(self.shil_m[i] * y[i] - self.shil_psi[i]);
            dydt[i] -= torque;
        }
    }
}

impl OdeSystem for CoupledKernel {
    fn dim(&self) -> usize {
        self.num_nodes
    }

    /// Scratch-free single-pass variant, bitwise-identical to
    /// [`CoupledKernel::drift_into`] (same per-edge values in the same
    /// accumulation order). Lets the kernel drive any `msropm-ode`
    /// integrator (e.g. RK4 relaxation) through the standard trait.
    fn eval(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        assert_eq!(y.len(), self.num_nodes, "phase vector size mismatch");
        dydt.copy_from_slice(&self.bias);
        for k in 0..self.edge_w.len() {
            let (u, v) = (self.edge_u[k] as usize, self.edge_v[k] as usize);
            let s = self.edge_w[k] * sin_fast(y[u] - y[v]);
            dydt[u] -= s;
            dydt[v] += s;
        }
        self.shil_pass(y, dydt);
    }
}

impl SdeSystem for CoupledKernel {
    fn diffusion(&self, _t: f64, _y: &[f64], g_out: &mut [f64]) {
        g_out.copy_from_slice(&self.noise);
    }
}

/// The segment schedule shared by the scalar and batch ramped
/// integrators. Both must stay in **exact lockstep** — same segment
/// count, same boundaries, same mid-segment ramp fractions — or the
/// batch solver's bit-identity-with-sequential contract breaks (step
/// sizes and per-step RNG consumption would diverge). Keeping the
/// arithmetic in one place makes that impossible to drift.
///
/// Segments are indexed by **step count**, not by time: a ramped window
/// performs exactly the step sequence of the plain
/// [`KernelIntegrator::integrate`] loop (`h = dt` except the final
/// landing step) and only the SHIL scale changes between steps. This is
/// what lets a batch mix ramped and non-ramped lanes — the non-ramped
/// lanes see the same step sizes and RNG consumption as a standalone
/// un-ramped run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RampSchedule {
    segments: usize,
    steps_per_seg: usize,
}

impl RampSchedule {
    /// Plans ~10-step segments (1..=1000 of them) over the steps the
    /// plain loop takes to cover `[t0, t1]`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `t1 < t0`.
    pub(crate) fn new(t0: f64, t1: f64, dt: f64) -> Self {
        assert!(dt > 0.0, "step size must be positive");
        assert!(t1 >= t0, "t1 must be >= t0");
        let steps = (((t1 - t0) / dt).ceil() as usize).max(1);
        let segments = steps.div_ceil(10).clamp(1, 1000);
        RampSchedule {
            segments,
            steps_per_seg: steps.div_ceil(segments),
        }
    }

    /// Segment containing step `step` (0-based; steps past the planned
    /// count stay in the last segment).
    pub(crate) fn seg_of(&self, step: usize) -> usize {
        (step / self.steps_per_seg).min(self.segments - 1)
    }

    /// Mid-segment ramp abscissa for segment `s`.
    pub(crate) fn frac(&self, s: usize) -> f64 {
        (s as f64 + 0.5) / self.segments as f64
    }
}

/// A reusable Euler–Maruyama driver for [`CoupledKernel`]s.
///
/// Owns the drift and edge-scratch buffers, so integrating any number of
/// windows (across recompilations of the kernel — buffer sizes only
/// shrink or stay put for a fixed problem) allocates nothing after the
/// first step. One normal deviate is drawn per oscillator per step even
/// where σ = 0, so the RNG stream is independent of the gating state —
/// the property that makes seeded runs comparable across configurations.
#[derive(Debug, Clone, Default)]
pub struct KernelIntegrator {
    drift: Vec<f64>,
    scratch: Vec<f64>,
}

impl KernelIntegrator {
    /// Creates an integrator with empty (lazily sized) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// One Euler–Maruyama step `y += f·dt + σ·√dt·ξ`.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        kernel: &CoupledKernel,
        y: &mut [f64],
        dt: f64,
        rng: &mut R,
    ) {
        let n = kernel.num_nodes();
        self.drift.resize(n, 0.0);
        kernel.drift_into(y, &mut self.drift, &mut self.scratch);
        let sqrt_dt = dt.sqrt();
        let noise = kernel.noise();
        for i in 0..n {
            let xi = standard_normal(rng);
            y[i] += dt * self.drift[i] + sqrt_dt * noise[i] * xi;
        }
    }

    /// Integrates from `t0` to `t1` with steps of at most `dt` (the final
    /// step shrinks to land on `t1`).
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `t1 < t0`.
    pub fn integrate<R: Rng + ?Sized>(
        &mut self,
        kernel: &CoupledKernel,
        y: &mut [f64],
        t0: f64,
        t1: f64,
        dt: f64,
        rng: &mut R,
    ) {
        self.integrate_observed(kernel, y, t0, t1, dt, rng, |_, _| {});
    }

    /// Like [`KernelIntegrator::integrate`] with an observer invoked at
    /// `t0` and after every step.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `t1 < t0`.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_observed<R: Rng + ?Sized>(
        &mut self,
        kernel: &CoupledKernel,
        y: &mut [f64],
        t0: f64,
        t1: f64,
        dt: f64,
        rng: &mut R,
        mut observe: impl FnMut(f64, &[f64]),
    ) {
        assert!(dt > 0.0, "step size must be positive");
        assert!(t1 >= t0, "t1 must be >= t0");
        observe(t0, y);
        let mut t = t0;
        while t < t1 {
            let h = dt.min(t1 - t);
            self.step(kernel, y, h, rng);
            t += h;
            observe(t, y);
        }
    }

    /// Integrates `[t0, t1]` while ramping the kernel's SHIL scale:
    /// steps are grouped into segments (ten steps each, capped at
    /// 1000 segments) and segment `s` runs with
    /// `scale = ramp((s + ½)/segments)`. The step sequence is exactly the
    /// plain [`KernelIntegrator::integrate`] sequence — segments switch
    /// the scale *between* steps and never split one. The observer fires
    /// at `t0` and after every step with absolute time, fixing the Fig. 3
    /// waveform dumps that previously collapsed ramped windows to one
    /// sample. The kernel's scale is restored to 1 on return.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`, `t1 < t0`, or the ramp returns a negative or
    /// non-finite scale.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_ramped<R: Rng + ?Sized>(
        &mut self,
        kernel: &mut CoupledKernel,
        y: &mut [f64],
        t0: f64,
        t1: f64,
        dt: f64,
        rng: &mut R,
        ramp: impl Fn(f64) -> f64,
        mut observe: impl FnMut(f64, &[f64]),
    ) {
        let schedule = RampSchedule::new(t0, t1, dt);
        observe(t0, y);
        let mut t = t0;
        let mut step = 0usize;
        let mut cur_seg = usize::MAX;
        while t < t1 {
            let s = schedule.seg_of(step);
            if s != cur_seg {
                kernel.set_shil_scale(ramp(schedule.frac(s)));
                cur_seg = s;
            }
            let h = dt.min(t1 - t);
            self.step(kernel, y, h, rng);
            t += h;
            step += 1;
            observe(t, y);
        }
        kernel.set_shil_scale(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shil::Shil;
    use msropm_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::TAU;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn kernel_drift_matches_naive_eval() {
        let g = generators::kings_graph(5, 5);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(0.8).build();
        net.set_shil_all(Shil::order2(0.3, 1.7));
        net.set_shil_enabled(true);
        let mut rng = StdRng::seed_from_u64(11);
        let y = net.random_phases(&mut rng);
        let mut naive = vec![0.0; y.len()];
        net.eval(0.0, &y, &mut naive);

        let kernel = net.compile_kernel();
        let mut fast = vec![0.0; y.len()];
        let mut scratch = Vec::new();
        kernel.drift_into(&y, &mut fast, &mut scratch);
        assert!(max_abs_diff(&naive, &fast) < 1e-12);

        // Trait path must agree bitwise with the scratch path.
        let mut via_trait = vec![0.0; y.len()];
        kernel.eval(0.0, &y, &mut via_trait);
        for (a, b) in fast.iter().zip(&via_trait) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gated_edges_and_nodes_are_compiled_out() {
        let g = generators::kings_graph(4, 4);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        let m = g.num_edges();
        net.set_edge_enabled(0, false);
        net.set_edge_enabled(5, false);
        net.set_node_enabled(3, false);
        let kernel = net.compile_kernel();
        let dead_touch = g
            .edges()
            .filter(|&(e, u, v)| {
                (u.index() == 3 || v.index() == 3) && e.index() != 0 && e.index() != 5
            })
            .count();
        assert_eq!(kernel.num_active_edges(), m - 2 - dead_touch);

        // Couplings globally off: zero edges.
        net.set_couplings_enabled(false);
        assert_eq!(net.compile_kernel().num_active_edges(), 0);

        // Drift still matches the naive reference under this gating.
        net.set_couplings_enabled(true);
        let mut rng = StdRng::seed_from_u64(3);
        let y = net.random_phases(&mut rng);
        let (mut a, mut b) = (vec![0.0; y.len()], vec![0.0; y.len()]);
        net.eval(0.0, &y, &mut a);
        net.compile_kernel().drift_into(&y, &mut b, &mut Vec::new());
        assert!(max_abs_diff(&a, &b) < 1e-12);
    }

    #[test]
    fn integrator_reproduces_seeded_anneal() {
        // The kernel integrator and the generic Euler–Maruyama stepper
        // draw identical noise sequences, so a seeded anneal agrees.
        use msropm_ode::sde::{EulerMaruyama, SdeStepper};
        let g = generators::kings_graph(3, 3);
        let mut net = PhaseNetwork::builder(&g)
            .coupling_strength(0.6)
            .noise(0.2)
            .build();
        net.set_shil_all(Shil::order2(0.0, 1.2));
        net.set_shil_enabled(true);
        let kernel = net.compile_kernel();
        let mut rng = StdRng::seed_from_u64(21);
        let mut y1 = net.random_phases(&mut rng);
        let mut y2 = y1.clone();

        let mut em_rng = StdRng::seed_from_u64(77);
        EulerMaruyama::new().integrate(&kernel, &mut y1, 0.0, 2.0, 0.01, &mut em_rng);
        let mut ki_rng = StdRng::seed_from_u64(77);
        KernelIntegrator::new().integrate(&kernel, &mut y2, 0.0, 2.0, 0.01, &mut ki_rng);
        for (a, b) in y1.iter().zip(&y2) {
            assert_eq!(a.to_bits(), b.to_bits(), "EM and KernelIntegrator diverged");
        }
    }

    #[test]
    fn shil_scale_ramps_torque() {
        let g = Graph::empty(1);
        let mut net = PhaseNetwork::builder(&g).build();
        net.set_shil_all(Shil::order2(0.0, 2.0));
        net.set_shil_enabled(true);
        let mut kernel = net.compile_kernel();
        let y = [1.0];
        let mut full = [0.0];
        kernel.drift_into(&y, &mut full, &mut Vec::new());
        kernel.set_shil_scale(0.5);
        let mut half = [0.0];
        kernel.drift_into(&y, &mut half, &mut Vec::new());
        assert!((half[0] - 0.5 * full[0]).abs() < 1e-15);
        kernel.set_shil_scale(0.0);
        let mut zero = [0.0];
        kernel.drift_into(&y, &mut zero, &mut Vec::new());
        assert_eq!(zero[0], 0.0);
    }

    #[test]
    fn ramped_integration_observes_every_step() {
        let g = Graph::empty(2);
        let mut net = PhaseNetwork::builder(&g).noise(0.1).build();
        net.set_shil_all(Shil::order2(0.0, 1.0));
        net.set_shil_enabled(true);
        let mut kernel = net.compile_kernel();
        let mut rng = StdRng::seed_from_u64(5);
        let mut y = vec![0.7, 2.5];
        let mut ts = Vec::new();
        KernelIntegrator::new().integrate_ramped(
            &mut kernel,
            &mut y,
            10.0,
            11.0,
            0.01,
            &mut rng,
            |f| f,
            |t, _| ts.push(t),
        );
        // t0 plus one sample per step; fp accumulation may add a tiny
        // catch-up step per segment boundary (10 segments here).
        assert!((101..=111).contains(&ts.len()), "got {} samples", ts.len());
        assert_eq!(ts[0], 10.0);
        assert!((ts.last().unwrap() - 11.0).abs() < 1e-9);
        assert!(ts.windows(2).all(|w| w[1] > w[0]), "monotone time");
        assert_eq!(kernel.shil_scale(), 1.0, "scale restored");
    }

    #[test]
    fn defective_ring_is_frozen_by_kernel() {
        let g = generators::path_graph(3);
        let mut net = PhaseNetwork::builder(&g)
            .coupling_strength(1.0)
            .noise(0.4)
            .build();
        net.set_shil_all(Shil::order2(0.0, 2.0));
        net.set_shil_enabled(true);
        net.set_node_enabled(1, false);
        let kernel = net.compile_kernel();
        let mut rng = StdRng::seed_from_u64(9);
        let mut y = vec![0.3, 1.7, 2.9];
        KernelIntegrator::new().integrate(&kernel, &mut y, 0.0, 3.0, 0.01, &mut rng);
        assert_eq!(y[1], 1.7, "defective ring moved");
        assert_ne!(y[0], 0.3, "live ring must feel noise/SHIL");
    }

    #[test]
    fn random_phases_uniform_start() {
        let g = Graph::empty(512);
        let net = PhaseNetwork::builder(&g).build();
        let mut rng = StdRng::seed_from_u64(1);
        let y = net.random_phases(&mut rng);
        assert!(y.iter().all(|&p| (0.0..TAU).contains(&p)));
    }
}
