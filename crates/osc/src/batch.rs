//! Multi-replica (SoA) phase integration: M independent machine replicas
//! advanced in one interleaved sweep.
//!
//! The paper runs **40 independent iterations** per problem and keeps the
//! best solution. Run sequentially, every iteration re-walks the same
//! topology while the previous iteration's phases fall out of cache.
//! [`BatchKernel`] lays the replica phases out *replica-minor per node*
//! (`y[i*M + r]`), so one pass over the edge list advances all replicas:
//! the per-edge inner loop over `M` contiguous lanes is the textbook
//! auto-vectorization shape, and the topology arrays are read once per
//! step instead of once per step **per replica**.
//!
//! Replicas differ in their gating state after stage 1 (each replica cuts
//! its own partition's couplings), so gating is represented as a
//! per-replica **weight lane** (`0.0` = gated): the sweep stays uniform
//! and branch-free. Adding a `±0` term is exact in IEEE arithmetic, which
//! keeps every replica's phase trajectory **bit-identical** to the same
//! replica integrated alone with the scalar
//! [`CoupledKernel`](crate::kernel::CoupledKernel) — the property that
//! lets the batch solver shard replicas across threads deterministically.
//!
//! The same lane treatment extends to every control parameter, so the
//! replicas need not be identical machines: per-replica coupling
//! strengths ride in the weight lanes ([`BatchKernel::from_lanes`]),
//! per-replica noise amplitudes in σ-lanes, per-replica SHIL strengths
//! in the dense SHIL table, and per-replica OIM ramps in a SHIL-scale
//! lane — all resolved to flat per-(element, replica) tables before the
//! sweep, so heterogeneous parameter portfolios run at homogeneous-batch
//! speed with no per-step branching.
//!
//! Noise is drawn through
//! [`fill_normal_batch`](msropm_ode::sde::fill_normal_batch) from one
//! seeded RNG **per replica**, in the same per-replica order a sequential
//! run would draw, completing the bit-identity argument.
//!
//! **Live-edge sweep.** Weight lanes keep the sweep uniform *within* an
//! edge, but an edge gated in **every** lane still costs a gather, a sine
//! and a scatter per lane for nothing. After stage 1 each lane has cut
//! roughly 70% of its couplings, and across a shard of a few lanes about
//! 40–47% of the edges are dead in all of them. The drift therefore
//! sweeps only the *live* edges — those that conduct in at least one
//! lane — in ascending edge id. Skipping an all-gated edge drops only
//! exact `±0` terms, so each lane keeps its accumulation order and its
//! bits (the argument the scalar kernel's flat active-edge list already
//! rests on). The list is internal state: any gating change that
//! flips an `(edge, lane)` bit invalidates it, and the next drift
//! rebuilds it in one O(m·M) pass. Gating changes only at stage
//! transitions, portfolio re-seeds and [`BatchKernel::enable_all_edges`],
//! so the rebuild runs a few times per solve, never per step.

use crate::fastmath::sin_slice;
use crate::network::PhaseNetwork;
use crate::shil::Shil;
use msropm_ode::sde::fill_normal_batch;
use rand::Rng;
use std::cell::OnceCell;

/// A compiled multi-replica coupling kernel (see the module docs).
///
/// Unlike the scalar kernel, gating is mutable in place (per-replica
/// weight lanes) because each replica's `P_EN`/`SHIL_SEL` state evolves
/// independently across solution stages; recompiling per window would
/// cost O(n·M + m·M) for no benefit.
///
/// Every control parameter is a **per-replica lane**: ungated edge
/// weights (`K`-lanes), noise amplitudes (`σ`-lanes), SHIL tables and
/// SHIL ramp scales. [`BatchKernel::new`] broadcasts one network across
/// all lanes; [`BatchKernel::from_lanes`] gives each lane the weights
/// and noise of its own network, which is how heterogeneous parameter
/// sweeps enter the hot loop without any per-step branching.
#[derive(Debug, Clone)]
pub struct BatchKernel {
    num_nodes: usize,
    replicas: usize,
    /// Edge endpoints in edge-id order (all graph edges).
    edge_u: Vec<u32>,
    edge_v: Vec<u32>,
    /// Ungated physical weight lanes `[e*M + r]` (per-replica `K`).
    base_weight: Vec<f64>,
    /// Effective weight lanes `[e*M + r]`; `0.0` encodes a gated edge.
    weight: Vec<f64>,
    /// Bookkeeping mirror of the gating (weights may legitimately be 0).
    edge_on: Vec<bool>,
    /// Ids of the edges that conduct in at least one lane, ascending;
    /// emptied by any gating change and rebuilt by the next drift.
    live: OnceCell<Vec<u32>>,
    node_enabled: Vec<bool>,
    /// Per-(node, replica) frequency offsets `[i*M + r]`.
    bias: Vec<f64>,
    /// Dense per-(node, replica) SHIL table.
    shil_m: Vec<f64>,
    shil_psi: Vec<f64>,
    shil_ks: Vec<f64>,
    /// Per-replica SHIL ramp scale (the OIM ramp, one lane at a time).
    shil_scale: Vec<f64>,
    /// Per-(node, replica) diffusion σ `[i*M + r]` (defective rings 0).
    noise_sig: Vec<f64>,
    /// Per-replica noise amplitude (the value `noise_sig` lanes carry on
    /// functional rings).
    noise_amp: Vec<f64>,
    couplings_on: bool,
    shil_on: bool,
}

impl BatchKernel {
    /// Builds a batch kernel over `net`'s topology with `replicas` lanes.
    /// Every lane starts from the network's current state: its edge
    /// gating, frequency offsets, SHIL assignments and noise amplitude.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(net: &PhaseNetwork, replicas: usize) -> Self {
        assert!(replicas > 0, "need at least one replica");
        Self::build(net, replicas, None)
    }

    /// Builds a **heterogeneous** batch kernel: lane `r` takes its edge
    /// weights, edge gating, noise amplitude, frequency offsets and SHIL
    /// assignments from `nets[r]`. All networks must share the topology
    /// and per-ring enables (they are typically clones of one base
    /// network with per-lane parameter overrides applied); the global
    /// coupling/SHIL enables are taken from `nets[0]` and must agree.
    ///
    /// Lane `r` of the resulting kernel is bit-identical to a
    /// single-replica kernel built from `nets[r]` alone — per-lane
    /// weights are *copied*, never rescaled, so no rounding can creep in
    /// between a swept lane and a standalone run at the same operating
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if `nets` is empty or the networks disagree on topology,
    /// node enables, or the global coupling/SHIL enables.
    pub fn from_lanes(nets: &[PhaseNetwork]) -> Self {
        assert!(!nets.is_empty(), "need at least one lane network");
        let base = &nets[0];
        for (r, net) in nets.iter().enumerate() {
            assert_eq!(
                net.num_nodes(),
                base.num_nodes(),
                "lane {r} node count differs"
            );
            assert_eq!(
                net.edge_endpoints(),
                base.edge_endpoints(),
                "lane {r} topology differs"
            );
            assert!(
                (0..net.num_nodes()).all(|i| net.node_enabled(i) == base.node_enabled(i)),
                "lane {r} ring enables differ"
            );
            assert_eq!(
                net.couplings_enabled(),
                base.couplings_enabled(),
                "lane {r} global coupling enable differs"
            );
            assert_eq!(
                net.shil_enabled(),
                base.shil_enabled(),
                "lane {r} global SHIL enable differs"
            );
        }
        Self::build(base, nets.len(), Some(nets))
    }

    fn build(net: &PhaseNetwork, replicas: usize, lanes: Option<&[PhaseNetwork]>) -> Self {
        let n = net.num_nodes();
        let m = net.num_edges();
        let lane_net = |r: usize| lanes.map_or(net, |nets| &nets[r]);
        let mut edge_u = Vec::with_capacity(m);
        let mut edge_v = Vec::with_capacity(m);
        for &(u, v) in net.edge_endpoints() {
            edge_u.push(u);
            edge_v.push(v);
        }
        let mut base_weight = vec![0.0; m * replicas];
        for e in 0..m {
            for r in 0..replicas {
                base_weight[e * replicas + r] = lane_net(r).edge_weight(e);
            }
        }
        let node_enabled: Vec<bool> = (0..n).map(|i| net.node_enabled(i)).collect();
        let mut kernel = BatchKernel {
            num_nodes: n,
            replicas,
            edge_u,
            edge_v,
            base_weight,
            weight: vec![0.0; m * replicas],
            edge_on: vec![false; m * replicas],
            live: OnceCell::new(),
            node_enabled,
            bias: vec![0.0; n * replicas],
            shil_m: vec![0.0; n * replicas],
            shil_psi: vec![0.0; n * replicas],
            shil_ks: vec![0.0; n * replicas],
            shil_scale: vec![1.0; replicas],
            noise_sig: vec![0.0; n * replicas],
            noise_amp: vec![0.0; replicas],
            couplings_on: net.couplings_enabled(),
            shil_on: net.shil_enabled(),
        };
        for e in 0..m {
            for r in 0..replicas {
                kernel.set_edge_enabled(e, r, lane_net(r).edge_enabled(e));
            }
        }
        for i in 0..n {
            for r in 0..replicas {
                kernel.set_bias(i, r, lane_net(r).delta_omega()[i]);
                kernel.set_shil(i, r, lane_net(r).shil_of(i));
            }
        }
        for r in 0..replicas {
            kernel.set_lane_noise_amplitude(r, lane_net(r).noise_amplitude());
        }
        kernel
    }

    /// Number of oscillators per replica.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of replicas (`M`).
    pub fn num_replicas(&self) -> usize {
        self.replicas
    }

    /// Length of the interleaved state vector (`n·M`).
    pub fn state_len(&self) -> usize {
        self.num_nodes * self.replicas
    }

    /// Index of node `i`, replica `r` in the interleaved state vector.
    #[inline(always)]
    pub fn idx(&self, node: usize, replica: usize) -> usize {
        node * self.replicas + replica
    }

    /// Gates one coupling of one replica (that replica's `P_EN` bit).
    /// An enabled edge conducts at that replica's own lane weight.
    ///
    /// # Panics
    ///
    /// Panics if `edge` or `replica` is out of range.
    pub fn set_edge_enabled(&mut self, edge: usize, replica: usize, on: bool) {
        assert!(replica < self.replicas, "replica out of range");
        let (u, v) = (self.edge_u[edge] as usize, self.edge_v[edge] as usize);
        let live = on && self.node_enabled[u] && self.node_enabled[v];
        let lane = edge * self.replicas + replica;
        if self.edge_on[lane] != live {
            self.live.take();
        }
        self.edge_on[lane] = live;
        self.weight[lane] = if live { self.base_weight[lane] } else { 0.0 };
    }

    /// Returns `true` if `edge` conducts for `replica`.
    pub fn edge_enabled(&self, edge: usize, replica: usize) -> bool {
        self.edge_on[edge * self.replicas + replica]
    }

    /// The edges the drift sweeps: those that conduct in at least one
    /// lane, in ascending edge id (rebuilt here after a gating change).
    fn live_edges(&self) -> &[u32] {
        self.live.get_or_init(|| {
            let rr = self.replicas;
            (0..self.edge_u.len())
                .filter(|&e| self.edge_on[e * rr..(e + 1) * rr].contains(&true))
                .map(|e| e as u32)
                .collect()
        })
    }

    /// Number of edges the drift sweeps: those that conduct in at least
    /// one lane. Edges gated in every lane are skipped.
    pub fn num_live_edges(&self) -> usize {
        self.live_edges().len()
    }

    /// Raises every replica's `P_EN` on every edge — the start-of-run
    /// control state every lane-range solve begins from (defective
    /// rings' edges stay dead regardless).
    pub fn enable_all_edges(&mut self) {
        for e in 0..self.edge_u.len() {
            for r in 0..self.replicas {
                self.set_edge_enabled(e, r, true);
            }
        }
    }

    /// Sets the frequency offset of node `i` in `replica` (used for
    /// per-replica process-variation sampling). Defective rings stay 0.
    pub fn set_bias(&mut self, node: usize, replica: usize, delta_omega: f64) {
        let v = if self.node_enabled[node] {
            delta_omega
        } else {
            0.0
        };
        self.bias[node * self.replicas + replica] = v;
    }

    /// Assigns (or clears) the SHIL source of node `i` in `replica` —
    /// that replica's `SHIL_SEL` value. Defective rings keep `Ks = 0`.
    pub fn set_shil(&mut self, node: usize, replica: usize, shil: Option<Shil>) {
        let k = node * self.replicas + replica;
        match shil {
            Some(s) if self.node_enabled[node] => {
                self.shil_m[k] = s.order() as f64;
                self.shil_psi[k] = s.phase();
                self.shil_ks[k] = s.strength();
            }
            _ => {
                self.shil_m[k] = 0.0;
                self.shil_psi[k] = 0.0;
                self.shil_ks[k] = 0.0;
            }
        }
    }

    /// Frequency offset of node `i` in `replica`.
    pub fn bias_of(&self, node: usize, replica: usize) -> f64 {
        self.bias[node * self.replicas + replica]
    }

    /// Returns `true` if oscillator `node` is functional (ring `L_EN`).
    pub fn node_enabled(&self, node: usize) -> bool {
        self.node_enabled[node]
    }

    /// Global coupling enable (`G_EN`): skips the edge sweep when low.
    pub fn set_couplings_enabled(&mut self, on: bool) {
        self.couplings_on = on;
    }

    /// Global SHIL enable (`SHIL_EN`): skips the torque pass when low.
    pub fn set_shil_enabled(&mut self, on: bool) {
        self.shil_on = on;
    }

    /// Scales every SHIL strength of every replica at evaluation time
    /// (the OIM ramp applied uniformly).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative or non-finite.
    pub fn set_shil_scale(&mut self, scale: f64) {
        for r in 0..self.replicas {
            self.set_lane_shil_scale(r, scale);
        }
    }

    /// Scales the SHIL strengths of one replica at evaluation time —
    /// the per-lane OIM ramp (lanes that don't ramp keep scale 1).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range or `scale` is negative or
    /// non-finite.
    pub fn set_lane_shil_scale(&mut self, replica: usize, scale: f64) {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "SHIL scale must be finite and non-negative, got {scale}"
        );
        self.shil_scale[replica] = scale;
    }

    /// Sets the white-noise amplitude σ of every replica's functional
    /// rings.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn set_noise_amplitude(&mut self, sigma: f64) {
        for r in 0..self.replicas {
            self.set_lane_noise_amplitude(r, sigma);
        }
    }

    /// Sets the white-noise amplitude σ of one replica (its σ-lane);
    /// defective rings stay at 0.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range or `sigma < 0`.
    pub fn set_lane_noise_amplitude(&mut self, replica: usize, sigma: f64) {
        assert!(sigma >= 0.0, "noise amplitude must be non-negative");
        assert!(replica < self.replicas, "replica out of range");
        self.noise_amp[replica] = sigma;
        for i in 0..self.num_nodes {
            self.noise_sig[i * self.replicas + replica] =
                if self.node_enabled[i] { sigma } else { 0.0 };
        }
    }

    /// Noise amplitude σ of replica 0 (all replicas agree unless
    /// per-lane amplitudes were set — query
    /// [`BatchKernel::lane_noise_amplitude`] for a specific lane).
    pub fn noise_amplitude(&self) -> f64 {
        self.noise_amp[0]
    }

    /// Noise amplitude σ of one replica.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn lane_noise_amplitude(&self, replica: usize) -> f64 {
        self.noise_amp[replica]
    }

    /// Writes the interleaved drift into `dydt` (`scratch` holds the
    /// per-(live edge, replica) sin pass; resized once, reused forever).
    ///
    /// Per replica the arithmetic is bit-identical to the scalar
    /// [`CoupledKernel`](crate::kernel::CoupledKernel): edges are visited
    /// in the same (edge-id) order, gated lanes of a live edge contribute
    /// an exact `±0`, and edges gated in every lane are skipped (see the
    /// module docs on the live-edge sweep).
    ///
    /// # Panics
    ///
    /// Panics if `y`/`dydt` lengths differ from [`BatchKernel::state_len`].
    pub fn drift_into(&self, y: &[f64], dydt: &mut [f64], scratch: &mut Vec<f64>) {
        assert_eq!(y.len(), self.state_len(), "phase vector size mismatch");
        assert_eq!(dydt.len(), self.state_len(), "drift vector size mismatch");
        let rr = self.replicas;
        dydt.copy_from_slice(&self.bias);
        if self.couplings_on {
            let live = self.live_edges();
            let len = live.len() * rr;
            scratch.resize(len, 0.0);
            // Pass 1: gather phase differences, M contiguous lanes per edge.
            for (row, &e) in scratch[..len].chunks_exact_mut(rr).zip(live) {
                let e = e as usize;
                let (u, v) = (self.edge_u[e] as usize * rr, self.edge_v[e] as usize * rr);
                for ((d, yu), yv) in row.iter_mut().zip(&y[u..u + rr]).zip(&y[v..v + rr]) {
                    *d = yu - yv;
                }
            }
            // Pass 2: branchless vectorized sin over the whole buffer.
            sin_slice(&mut scratch[..len]);
            // Pass 3: scatter ±w·s — every live (edge, replica) once.
            // `u != v`, so the two rows are disjoint and updating one
            // before the other leaves every element's update sequence
            // (and bits) unchanged.
            for (srow, &e) in scratch[..len].chunks_exact(rr).zip(live) {
                let e = e as usize;
                let (u, v) = (self.edge_u[e] as usize * rr, self.edge_v[e] as usize * rr);
                let wrow = &self.weight[e * rr..(e + 1) * rr];
                for ((d, w), s) in dydt[u..u + rr].iter_mut().zip(wrow).zip(srow) {
                    *d -= w * s;
                }
                for ((d, w), s) in dydt[v..v + rr].iter_mut().zip(wrow).zip(srow) {
                    *d += w * s;
                }
            }
        }
        if self.shil_on {
            // Same three-pass shape as the edges: argument slice, one
            // vectorized `sin_slice` sweep over contiguous memory, then
            // apply. Bitwise-identical to the former per-element
            // `sin_fast` loop; `scratch` regrows at most once to
            // `max(m, n)·M` lanes.
            let len = self.num_nodes * rr;
            scratch.resize(len, 0.0);
            for (k, slot) in scratch[..len].iter_mut().enumerate() {
                *slot = self.shil_m[k] * y[k] - self.shil_psi[k];
            }
            sin_slice(&mut scratch[..len]);
            for i in 0..self.num_nodes {
                let row = i * rr;
                for r in 0..rr {
                    let k = row + r;
                    dydt[k] -= (self.shil_ks[k] * self.shil_scale[r]) * scratch[k];
                }
            }
        }
    }
}

/// Reusable Euler–Maruyama driver for [`BatchKernel`]s with one RNG per
/// replica. Owns all scratch; allocation-free after the first step.
#[derive(Debug, Clone, Default)]
pub struct BatchIntegrator {
    drift: Vec<f64>,
    noise: Vec<f64>,
    scratch: Vec<f64>,
}

impl BatchIntegrator {
    /// Creates an integrator with empty (lazily sized) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// One interleaved Euler–Maruyama step for all replicas.
    ///
    /// # Panics
    ///
    /// Panics if `rngs.len() != kernel.num_replicas()`.
    pub fn step<R: Rng>(&mut self, kernel: &BatchKernel, y: &mut [f64], dt: f64, rngs: &mut [R]) {
        assert_eq!(
            rngs.len(),
            kernel.num_replicas(),
            "need exactly one RNG per replica"
        );
        let len = kernel.state_len();
        let rr = kernel.num_replicas();
        self.drift.resize(len, 0.0);
        self.noise.resize(len, 0.0);
        kernel.drift_into(y, &mut self.drift, &mut self.scratch);
        // Per-replica streams in sequential order (see fill_normal_batch):
        // one deviate per oscillator per step, σ = 0 lanes included.
        fill_normal_batch(&mut self.noise, rngs);
        let sqrt_dt = dt.sqrt();
        for i in 0..kernel.num_nodes() {
            let row = i * rr;
            for r in 0..rr {
                y[row + r] += dt * self.drift[row + r]
                    + sqrt_dt * kernel.noise_sig[row + r] * self.noise[row + r];
            }
        }
    }

    /// Integrates all replicas from `t0` to `t1` with steps of at most
    /// `dt` (final step shrinks to land on `t1`).
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `t1 < t0`.
    pub fn integrate<R: Rng>(
        &mut self,
        kernel: &BatchKernel,
        y: &mut [f64],
        t0: f64,
        t1: f64,
        dt: f64,
        rngs: &mut [R],
    ) {
        assert!(dt > 0.0, "step size must be positive");
        assert!(t1 >= t0, "t1 must be >= t0");
        let mut t = t0;
        while t < t1 {
            let h = dt.min(t1 - t);
            self.step(kernel, y, h, rngs);
            t += h;
        }
    }

    /// Integrates `[t0, t1]` while ramping every replica's SHIL scale.
    /// Equivalent to [`BatchIntegrator::integrate_ramped_lanes`] with
    /// every lane ramped.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`, `t1 < t0`, or the ramp returns a negative or
    /// non-finite scale.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_ramped<R: Rng>(
        &mut self,
        kernel: &mut BatchKernel,
        y: &mut [f64],
        t0: f64,
        t1: f64,
        dt: f64,
        rngs: &mut [R],
        ramp: impl Fn(f64) -> f64,
    ) {
        let all = vec![true; kernel.num_replicas()];
        self.integrate_ramped_lanes(kernel, y, t0, t1, dt, rngs, ramp, &all);
    }

    /// Integrates `[t0, t1]` while ramping the SHIL scale of the lanes
    /// marked in `ramped`; unmarked lanes hold scale 1 throughout. Uses
    /// the same step-indexed [`RampSchedule`](crate::kernel) as the
    /// scalar `KernelIntegrator::integrate_ramped`, so the step sequence
    /// is exactly the plain [`BatchIntegrator::integrate`] sequence:
    /// ramped lanes stay in lockstep with a sequential ramped run, and
    /// non-ramped lanes are bit-identical to a plain sequential run.
    /// All scales are restored to 1 on return.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`, `t1 < t0`, `ramped.len()` differs from the
    /// replica count, or the ramp returns a negative or non-finite
    /// scale.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_ramped_lanes<R: Rng>(
        &mut self,
        kernel: &mut BatchKernel,
        y: &mut [f64],
        t0: f64,
        t1: f64,
        dt: f64,
        rngs: &mut [R],
        ramp: impl Fn(f64) -> f64,
        ramped: &[bool],
    ) {
        assert_eq!(
            ramped.len(),
            kernel.num_replicas(),
            "need one ramp flag per replica"
        );
        let schedule = crate::kernel::RampSchedule::new(t0, t1, dt);
        let mut t = t0;
        let mut step = 0usize;
        let mut cur_seg = usize::MAX;
        while t < t1 {
            let s = schedule.seg_of(step);
            if s != cur_seg {
                let scale = ramp(schedule.frac(s));
                for (r, &is_ramped) in ramped.iter().enumerate() {
                    if is_ramped {
                        kernel.set_lane_shil_scale(r, scale);
                    }
                }
                cur_seg = s;
            }
            let h = dt.min(t1 - t);
            self.step(kernel, y, h, rngs);
            t += h;
            step += 1;
        }
        kernel.set_shil_scale(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelIntegrator;
    use msropm_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::TAU;

    /// Scalar reference: integrate one replica with the scalar kernel.
    fn scalar_run(net: &mut PhaseNetwork, seed: u64, duration: f64, dt: f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut y = net.random_phases(&mut rng);
        let kernel = net.compile_kernel();
        KernelIntegrator::new().integrate(&kernel, &mut y, 0.0, duration, dt, &mut rng);
        y
    }

    #[test]
    fn batch_is_bit_identical_to_scalar_replicas() {
        let g = generators::kings_graph(4, 4);
        let mut net = PhaseNetwork::builder(&g)
            .coupling_strength(0.9)
            .noise(0.25)
            .build();
        net.set_shil_all(Shil::order2(0.0, 1.5));
        net.set_shil_enabled(true);

        let seeds = [5u64, 6, 7];
        let kernel = BatchKernel::new(&net, seeds.len());
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        // Initial phases drawn per replica in node order, as a sequential
        // run would.
        let n = net.num_nodes();
        let rr = seeds.len();
        let mut y = vec![0.0; n * rr];
        for r in 0..rr {
            for i in 0..n {
                y[i * rr + r] = rand::Rng::gen::<f64>(&mut rngs[r]) * TAU;
            }
        }
        BatchIntegrator::new().integrate(&kernel, &mut y, 0.0, 2.0, 0.01, &mut rngs);

        for (r, &seed) in seeds.iter().enumerate() {
            let solo = scalar_run(&mut net, seed, 2.0, 0.01);
            for i in 0..n {
                assert_eq!(
                    y[i * rr + r].to_bits(),
                    solo[i].to_bits(),
                    "node {i} replica {r} diverged from scalar run"
                );
            }
        }
    }

    #[test]
    fn per_replica_gating_is_independent() {
        // Path 0-1-2: replica 0 cuts edge (1,2), replica 1 keeps all.
        let g = generators::path_graph(3);
        let net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        let e12 = g
            .find_edge(msropm_graph::NodeId::new(1), msropm_graph::NodeId::new(2))
            .unwrap()
            .index();
        let mut kernel = BatchKernel::new(&net, 2);
        kernel.set_edge_enabled(e12, 0, false);
        assert!(!kernel.edge_enabled(e12, 0));
        assert!(kernel.edge_enabled(e12, 1));
        // enable_all_edges restores the start-of-run state...
        kernel.enable_all_edges();
        assert!(kernel.edge_enabled(e12, 0));
        // ...and re-gating works on top of it.
        kernel.set_edge_enabled(e12, 0, false);

        let mut y = vec![0.0, 0.0, 1.0, 1.0, 2.5, 2.5]; // both replicas same start
        let mut rngs = vec![StdRng::seed_from_u64(1), StdRng::seed_from_u64(1)];
        BatchIntegrator::new().integrate(&kernel, &mut y, 0.0, 10.0, 0.01, &mut rngs);
        let node2 = |r: usize| y[kernel.idx(2, r)];
        assert_eq!(node2(0), 2.5, "gated replica's node 2 must not move");
        assert_ne!(node2(1), 2.5, "ungated replica's node 2 must move");
    }

    #[test]
    fn batch_ramp_matches_scalar_ramp() {
        let g = generators::kings_graph(3, 3);
        let mut net = PhaseNetwork::builder(&g)
            .coupling_strength(0.7)
            .noise(0.1)
            .build();
        net.set_shil_all(Shil::order2(0.0, 2.0));
        net.set_shil_enabled(true);

        // Scalar reference.
        let mut rng = StdRng::seed_from_u64(42);
        let mut y_scalar = net.random_phases(&mut rng);
        let mut k_scalar = net.compile_kernel();
        KernelIntegrator::new().integrate_ramped(
            &mut k_scalar,
            &mut y_scalar,
            0.0,
            3.0,
            0.01,
            &mut rng,
            |f| f,
            |_, _| {},
        );

        // One-replica batch.
        let mut k_batch = BatchKernel::new(&net, 1);
        let mut rngs = vec![StdRng::seed_from_u64(42)];
        let n = net.num_nodes();
        let mut y = vec![0.0; n];
        for slot in y.iter_mut() {
            *slot = rand::Rng::gen::<f64>(&mut rngs[0]) * TAU;
        }
        BatchIntegrator::new().integrate_ramped(
            &mut k_batch,
            &mut y,
            0.0,
            3.0,
            0.01,
            &mut rngs,
            |f| f,
        );
        for i in 0..n {
            assert_eq!(y[i].to_bits(), y_scalar[i].to_bits(), "node {i}");
        }
    }

    #[test]
    fn defective_ring_respected_in_batch() {
        let g = generators::path_graph(2);
        let mut net = PhaseNetwork::builder(&g)
            .coupling_strength(1.0)
            .noise(0.5)
            .build();
        net.set_node_enabled(0, false);
        let mut kernel = BatchKernel::new(&net, 2);
        kernel.set_noise_amplitude(0.5);
        // Re-asserting gating or bias on a dead ring keeps it dead.
        kernel.set_edge_enabled(0, 1, true);
        kernel.set_bias(0, 1, 3.0);
        kernel.set_shil(0, 1, Some(Shil::order2(0.0, 9.0)));
        kernel.set_shil_enabled(true);
        let mut y = vec![1.0, 1.0, 1.0, 1.0];
        let mut rngs = vec![StdRng::seed_from_u64(3), StdRng::seed_from_u64(4)];
        BatchIntegrator::new().integrate(&kernel, &mut y, 0.0, 2.0, 0.01, &mut rngs);
        assert_eq!(y[kernel.idx(0, 0)], 1.0);
        assert_eq!(
            y[kernel.idx(0, 1)],
            1.0,
            "dead ring moved via re-enabled state"
        );
        assert_ne!(y[kernel.idx(1, 0)], 1.0, "live ring must jitter");
    }

    /// Reference drift: every edge, every lane, edge-id order
    /// (`sin_fast` per element is bitwise `sin_slice`).
    fn full_sweep_drift(k: &BatchKernel, y: &[f64]) -> Vec<f64> {
        assert!(!k.shil_on, "reference covers the edge sweep only");
        let rr = k.replicas;
        let mut dydt = k.bias.clone();
        if k.couplings_on {
            for e in 0..k.edge_u.len() {
                let (u, v) = (k.edge_u[e] as usize * rr, k.edge_v[e] as usize * rr);
                for r in 0..rr {
                    let s = k.weight[e * rr + r] * crate::fastmath::sin_fast(y[u + r] - y[v + r]);
                    dydt[u + r] -= s;
                    dydt[v + r] += s;
                }
            }
        }
        dydt
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn live_edge_sweep_matches_full_sweep(
            rows in 2usize..6,
            cols in 2usize..6,
            lanes in 1usize..6,
            seed in 0u64..1_000_000,
            ops in proptest::collection::vec(
                (0usize..5, 0usize..1000, 0usize..8, 0usize..8),
                1..40,
            ),
        ) {
            // Random per-lane gate / ungate, portfolio-style lane copies,
            // transition-style bulk cuts and `enable_all_edges`, with
            // one scratch buffer reused throughout: after every change
            // the drift must equal the full sweep bit for bit, and the
            // sweep must cover exactly the edges live in some lane.
            let g = generators::kings_graph(rows, cols);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = PhaseNetwork::builder(&g)
                .coupling_strength(0.5 + rng.gen::<f64>())
                .build();
            for e in 0..g.num_edges() {
                if rng.gen_bool(0.2) {
                    net.set_edge_weight(e, rng.gen_range(-2.0f64..2.0));
                }
            }
            if rng.gen_bool(0.3) {
                net.set_node_enabled(rng.gen_range(0..g.num_nodes()), false);
            }
            let mut kernel = BatchKernel::new(&net, lanes);
            let m = g.num_edges();
            let y: Vec<f64> = (0..kernel.state_len()).map(|_| rng.gen::<f64>() * TAU).collect();
            let mut dydt = vec![0.0; kernel.state_len()];
            let mut scratch = Vec::new();
            for (kind, e, a, b) in ops {
                let (e, a, b) = (e % m, a % lanes, b % lanes);
                match kind {
                    0 => kernel.set_edge_enabled(e, a, false),
                    1 => kernel.set_edge_enabled(e, a, true),
                    2 => {
                        for edge in 0..m {
                            let on = kernel.edge_enabled(edge, a);
                            kernel.set_edge_enabled(edge, b, on);
                        }
                    }
                    3 => {
                        for edge in 0..m {
                            for r in 0..lanes {
                                if (edge + r + e) % 3 != 0 {
                                    kernel.set_edge_enabled(edge, r, false);
                                }
                            }
                        }
                    }
                    _ => kernel.enable_all_edges(),
                }
                let live = (0..m)
                    .filter(|&edge| (0..lanes).any(|r| kernel.edge_enabled(edge, r)))
                    .count();
                proptest::prop_assert_eq!(kernel.num_live_edges(), live);
                kernel.drift_into(&y, &mut dydt, &mut scratch);
                let reference = full_sweep_drift(&kernel, &y);
                for (k, (got, want)) in dydt.iter().zip(&reference).enumerate() {
                    proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "slot {}", k);
                }
            }
        }
    }

    #[test]
    fn all_gated_edges_leave_the_sweep() {
        let g = generators::kings_graph(3, 3);
        let net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        let mut kernel = BatchKernel::new(&net, 2);
        assert_eq!(kernel.num_live_edges(), g.num_edges());
        kernel.set_edge_enabled(0, 0, false);
        assert_eq!(
            kernel.num_live_edges(),
            g.num_edges(),
            "lane 1 still conducts"
        );
        kernel.set_edge_enabled(0, 1, false);
        assert_eq!(kernel.num_live_edges(), g.num_edges() - 1);
        kernel.enable_all_edges();
        assert_eq!(kernel.num_live_edges(), g.num_edges());
    }

    #[test]
    #[should_panic(expected = "one RNG per replica")]
    fn wrong_rng_count_rejected() {
        let g = generators::path_graph(2);
        let net = PhaseNetwork::builder(&g).build();
        let kernel = BatchKernel::new(&net, 3);
        let mut y = vec![0.0; kernel.state_len()];
        let mut rngs = vec![StdRng::seed_from_u64(0)];
        BatchIntegrator::new().step(&kernel, &mut y, 0.01, &mut rngs);
    }
}
