//! Multi-replica (SoA) phase integration: M independent machine replicas
//! advanced in one interleaved sweep.
//!
//! The paper runs **40 independent iterations** per problem and keeps the
//! best solution. Run sequentially, every iteration re-walks the same
//! topology while the previous iteration's phases fall out of cache.
//! [`BatchKernel`] lays the replica phases out *replica-minor per node*
//! (`y[i*M + r]`), so one sweep advances all replicas while their phases
//! share the cache, and the bias, SHIL, noise and update passes run over
//! `M` contiguous lanes per node.
//!
//! Replicas differ in their gating state after stage 1 (each replica cuts
//! its own partition's couplings), so gating is a per-(edge, replica)
//! bit, compiled into the sweep below. Every replica's phase trajectory
//! stays **bit-identical** to the same replica integrated alone on a
//! one-lane kernel — the property that lets the batch solver shard
//! replicas across the shard pool deterministically, and that makes
//! `M = 1` the single-run path.
//!
//! Every control parameter is a lane, so the replicas need not be
//! identical machines: per-replica coupling strengths ride in the
//! weight lanes ([`BatchKernel::from_lanes`]),
//! per-replica noise amplitudes in σ-lanes, per-replica SHIL strengths
//! in the dense SHIL table, and per-replica OIM ramps in a SHIL-scale
//! lane — all resolved to flat per-(element, replica) tables before the
//! sweep, so heterogeneous parameter portfolios run at homogeneous-batch
//! speed with no per-step branching.
//!
//! **What lives here.** [`BatchKernel`] is [`LaneKernel`] in the
//! [`F64`] format, and [`BatchIntegrator`] is [`LaneIntegrator`] in it.
//! The lane controls and their rules (an edge conducts only between
//! working rings; a defective ring gets no bias, SHIL or noise) and the
//! Euler–Maruyama driver are written once in [`crate::lanes`] for both
//! number formats. This module holds what is f64's own: values stored as
//! given, the gating compiled into a [`Sweep`], the drift body, the step
//! grid (steps of `dt`, the last one shrunk to land on the window's end)
//! and the update `y += h·f + √h·σ·ξ`.
//!
//! Noise is drawn through
//! [`fill_normal_batch`](msropm_ode::sde::fill_normal_batch) from one
//! seeded RNG **per replica**, in the same per-replica order a sequential
//! run would draw, completing the bit-identity argument.
//!
//! **Live-pair sweep.** After stage 1 each lane has cut its own
//! partition's couplings, so one lane of a `paper_2116` shard conducts
//! about 28% of the edges while some lane of the shard conducts 58.5%
//! of them. The drift therefore sweeps a compiled **live-pair list**:
//! one entry per conducting `(edge, lane)`, in (edge id, lane) order,
//! stored as flat state indices of both endpoints and that lane's
//! weight. The sweep is a flat gather → `sin_slice` → scatter over
//! pairs, so every lane gets exactly the arithmetic of a one-lane run in
//! the same order: its conducting edges, ascending, and no gated term at
//! all.
//!
//! One case keeps the per-edge **row body** (M contiguous lanes per
//! live edge): a shard of at least 8 lanes in which
//! every live edge conducts in every lane — stage 1 of a wide
//! experiment shard, or a 40-lane microbenchmark. There a pair list
//! only repeats the endpoints M times over, and was measured slower
//! (by about 13% at M = 40 and 5% at M = 8 on King's 46×46). Because
//! every visited lane conducts, the row body
//! reads the ungated weights directly and stays bit-identical too. The
//! choice follows from the lane count and the gating alone.
//!
//! The compiled sweep is internal state: any gating change that flips
//! an `(edge, lane)` bit invalidates it, and the next drift rebuilds it
//! at exact capacity in one O(m·M) pass. Gating changes only at stage
//! transitions, portfolio re-seeds and [`BatchKernel::enable_all_edges`],
//! so the rebuild runs a few times per solve, never per step.

use crate::fastmath::sin_slice;
use crate::lanes::{LaneFormat, LaneIntegrator, LaneKernel};
use crate::network::{lane_base, PhaseNetwork};
use rand::Rng;

/// Fewest lanes at which a shard whose live edges conduct in every lane
/// sweeps per-edge rows instead of pairs (see the module docs).
const ROW_MIN_LANES: usize = 8;

/// The IEEE-double [`LaneFormat`]: every value is stored as given, and
/// the gating compiles into a [`Sweep`].
#[derive(Debug, Clone, Copy)]
pub struct F64;

/// What one f64 drift sweeps, compiled from the gating (see the module
/// docs).
#[derive(Debug, Clone)]
pub enum Sweep {
    /// Ids of the live edges, ascending, when each conducts in every
    /// lane of a shard of at least 8 lanes (`ROW_MIN_LANES`).
    Rows(Vec<u32>),
    /// One entry per conducting `(edge, lane)` in (edge id, lane) order:
    /// the state indices `u·M + r` and `v·M + r` and the lane's weight.
    Pairs {
        /// State index of each pair's first endpoint.
        u: Vec<u32>,
        /// State index of each pair's second endpoint.
        v: Vec<u32>,
        /// Each pair's lane weight.
        w: Vec<f64>,
    },
}

impl LaneFormat for F64 {
    type Word = f64;
    type Gain = f64;
    type Gating = Sweep;

    fn rate(&self, per_time: f64) -> f64 {
        per_time
    }

    fn order(&self, m: u32) -> f64 {
        m as f64
    }

    fn phase(&self, theta: f64) -> f64 {
        theta
    }

    fn radians(theta: f64) -> f64 {
        theta
    }

    fn scale(&self, scale: f64) -> f64 {
        scale
    }

    fn gain(&self, sigma: f64) -> f64 {
        sigma
    }

    /// Per-edge rows when every live edge conducts in every lane of a
    /// wide shard, else the live-pair list, both at exact capacity.
    fn compile(k: &BatchKernel) -> Sweep {
        let rr = k.replicas;
        let m = k.edge_u.len();
        let lanes = |e: usize| &k.edge_on[e * rr..(e + 1) * rr];
        let (mut pairs, mut live, mut uniform) = (0, 0, true);
        for e in 0..m {
            let on = lanes(e).iter().filter(|&&b| b).count();
            pairs += on;
            live += usize::from(on > 0);
            uniform &= on == 0 || on == rr;
        }
        if uniform && rr >= ROW_MIN_LANES {
            let mut ids = Vec::with_capacity(live);
            ids.extend((0..m).filter(|&e| lanes(e)[0]).map(|e| e as u32));
            return Sweep::Rows(ids);
        }
        let mut u = Vec::with_capacity(pairs);
        let mut v = Vec::with_capacity(pairs);
        let mut w = Vec::with_capacity(pairs);
        for e in 0..m {
            let (eu, ev) = (k.edge_u[e] as usize * rr, k.edge_v[e] as usize * rr);
            for r in (0..rr).filter(|&r| lanes(e)[r]) {
                u.push((eu + r) as u32);
                v.push((ev + r) as u32);
                w.push(k.base_weight[e * rr + r]);
            }
        }
        Sweep::Pairs { u, v, w }
    }

    fn drift(k: &BatchKernel, y: &[f64], dydt: &mut [f64], scratch: &mut Vec<f64>) {
        k.drift_into(y, dydt, scratch);
    }

    /// Steps of `dt`, the last one shrunk to land on `t1`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `t1 < t0`.
    fn steps(&self, t0: f64, t1: f64, dt: f64) -> impl Iterator<Item = f64> + use<> {
        assert!(dt > 0.0, "step size must be positive");
        assert!(t1 >= t0, "t1 must be >= t0");
        let mut t = t0;
        std::iter::from_fn(move || {
            (t < t1).then(|| {
                let h = dt.min(t1 - t);
                t += h;
                h
            })
        })
    }

    /// `y += h·d + √h·σ·ξ`.
    #[inline(always)]
    fn advance(y: &mut f64, d: f64, sigma: f64, xi: f64, h: f64, sqrt_h: f64) {
        *y += h * d + sqrt_h * sigma * xi;
    }
}

/// The multi-replica IEEE-double coupling kernel: a [`LaneKernel`] in
/// the [`F64`] format (see the module docs).
pub type BatchKernel = LaneKernel<F64>;

/// Panics unless the `n·M` state vector fits 32-bit indices (the sweep
/// stores state indices as `u32`).
fn assert_u32_indexable(n: usize, replicas: usize) {
    assert!(
        u32::try_from(n * replicas).is_ok(),
        "state vector of {n}x{replicas} exceeds 32-bit indices"
    );
}

impl BatchKernel {
    /// Builds a batch kernel over `net`'s topology with `replicas` lanes.
    /// Every lane starts from the network's current state: its edge
    /// gating, frequency offsets, SHIL assignments and noise amplitude.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` or the state vector (`n·M`) does not fit
    /// 32-bit indices.
    pub fn new(net: &PhaseNetwork, replicas: usize) -> Self {
        assert!(replicas > 0, "need at least one replica");
        assert_u32_indexable(net.num_nodes(), replicas);
        LaneKernel::build(F64, net, replicas, None)
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
    /// Panics if `nets` is empty, the networks disagree on topology,
    /// node enables, or the global coupling/SHIL enables, or the state
    /// vector (`n·M`) does not fit 32-bit indices.
    pub fn from_lanes(nets: &[PhaseNetwork]) -> Self {
        let base = lane_base(nets);
        assert_u32_indexable(base.num_nodes(), nets.len());
        LaneKernel::build(F64, base, nets.len(), Some(nets))
    }

    /// Number of edges that conduct in at least one lane.
    pub fn num_live_edges(&self) -> usize {
        self.edge_on
            .chunks_exact(self.replicas)
            .filter(|lanes| lanes.contains(&true))
            .count()
    }

    /// Number of `(edge, lane)` couplings the drift sweeps.
    #[cfg(test)]
    fn num_live_pairs(&self) -> usize {
        match self.gating() {
            Sweep::Rows(ids) => ids.len() * self.replicas,
            Sweep::Pairs { w, .. } => w.len(),
        }
    }

    /// Writes the interleaved drift into `dydt` (`scratch` holds the sin
    /// pass; resized once per sweep shape, reused forever).
    ///
    /// Per replica the arithmetic is bit-identical to a one-lane kernel
    /// with that replica's gating: its conducting edges are visited in ascending
    /// edge id, each as `s = w·sin(θu − θv)`, `dydt[u] −= s`,
    /// `dydt[v] += s`, and gated lanes add nothing. The live-pair sweep
    /// and the row body (see the module docs) differ only in how the
    /// lanes are laid out in the sin pass.
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
            match self.gating() {
                Sweep::Pairs { u, v, w } => pair_drift(u, v, w, y, dydt, scratch),
                Sweep::Rows(live) => self.row_drift(live, y, dydt, scratch),
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

    /// The row body: gather, sin and scatter `M` contiguous lanes per
    /// live edge. Only runs when every lane of a live edge conducts, so
    /// the ungated weights are the effective ones.
    fn row_drift(&self, live: &[u32], y: &[f64], dydt: &mut [f64], scratch: &mut Vec<f64>) {
        let rr = self.replicas;
        let len = live.len() * rr;
        scratch.resize(len, 0.0);
        for (row, &e) in scratch[..len].chunks_exact_mut(rr).zip(live) {
            let e = e as usize;
            let (u, v) = (self.edge_u[e] as usize * rr, self.edge_v[e] as usize * rr);
            for ((d, yu), yv) in row.iter_mut().zip(&y[u..u + rr]).zip(&y[v..v + rr]) {
                *d = yu - yv;
            }
        }
        sin_slice(&mut scratch[..len]);
        // `u != v`, so the two rows are disjoint and updating one before
        // the other leaves each element's update sequence unchanged.
        for (srow, &e) in scratch[..len].chunks_exact(rr).zip(live) {
            let e = e as usize;
            let (u, v) = (self.edge_u[e] as usize * rr, self.edge_v[e] as usize * rr);
            let wrow = &self.base_weight[e * rr..(e + 1) * rr];
            for ((d, w), s) in dydt[u..u + rr].iter_mut().zip(wrow).zip(srow) {
                *d -= w * s;
            }
            for ((d, w), s) in dydt[v..v + rr].iter_mut().zip(wrow).zip(srow) {
                *d += w * s;
            }
        }
    }
}

/// The live-pair body: gather → `sin_slice` → scatter over one entry per
/// conducting `(edge, lane)`, state indices `u`, `v` and weight `w`.
fn pair_drift(
    u: &[u32],
    v: &[u32],
    w: &[f64],
    y: &[f64],
    dydt: &mut [f64],
    scratch: &mut Vec<f64>,
) {
    let len = w.len();
    scratch.resize(len, 0.0);
    for ((d, &iu), &iv) in scratch[..len].iter_mut().zip(u).zip(v) {
        *d = y[iu as usize] - y[iv as usize];
    }
    sin_slice(&mut scratch[..len]);
    for ((s, w), (&iu, &iv)) in scratch[..len].iter().zip(w).zip(u.iter().zip(v)) {
        let s = w * s;
        dydt[iu as usize] -= s;
        dydt[iv as usize] += s;
    }
}

/// The reusable Euler–Maruyama driver for [`BatchKernel`]s: a
/// [`LaneIntegrator`] in the [`F64`] format.
pub type BatchIntegrator = LaneIntegrator<F64>;

impl BatchIntegrator {
    /// One interleaved Euler–Maruyama step `y += f·dt + σ·√dt·ξ` for all
    /// replicas.
    ///
    /// # Panics
    ///
    /// Panics if `rngs.len() != kernel.num_replicas()`.
    pub fn step<R: Rng>(&mut self, kernel: &BatchKernel, y: &mut [f64], dt: f64, rngs: &mut [R]) {
        self.step_by(kernel, y, dt, rngs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shil::Shil;
    use msropm_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::TAU;

    /// One-lane reference: `net` alone on a one-lane kernel from
    /// `seed`'s random start.
    fn solo_run(net: &PhaseNetwork, seed: u64, duration: f64, dt: f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut y = net.random_phases(&mut rng);
        let kernel = BatchKernel::new(net, 1);
        BatchIntegrator::new().integrate(&kernel, &mut y, 0.0, duration, dt, &mut [rng]);
        y
    }

    /// `seeds.len()` interleaved random starts, drawn per replica in node
    /// order as a one-lane run would draw them.
    fn interleaved_starts(n: usize, seeds: &[u64]) -> (Vec<f64>, Vec<StdRng>) {
        let rr = seeds.len();
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let mut y = vec![0.0; n * rr];
        for (r, rng) in rngs.iter_mut().enumerate() {
            for i in 0..n {
                y[i * rr + r] = rng.gen::<f64>() * TAU;
            }
        }
        (y, rngs)
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
        let n = net.num_nodes();
        let rr = seeds.len();
        let (mut y, mut rngs) = interleaved_starts(n, &seeds);
        BatchIntegrator::new().integrate(&kernel, &mut y, 0.0, 2.0, 0.01, &mut rngs);

        for (r, &seed) in seeds.iter().enumerate() {
            let solo = solo_run(&net, seed, 2.0, 0.01);
            for i in 0..n {
                assert_eq!(
                    y[i * rr + r].to_bits(),
                    solo[i].to_bits(),
                    "node {i} replica {r} diverged from its one-lane run"
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
        // Lanes 0 and 2 ramp, lane 1 holds full SHIL: each lane equals
        // its own one-lane run (ramped or plain), bit for bit.
        let g = generators::kings_graph(3, 3);
        let mut net = PhaseNetwork::builder(&g)
            .coupling_strength(0.7)
            .noise(0.1)
            .build();
        net.set_shil_all(Shil::order2(0.0, 2.0));
        net.set_shil_enabled(true);
        let n = net.num_nodes();
        let seeds = [42u64, 43, 44];
        let ramped = [true, false, true];
        let mut kernel = BatchKernel::new(&net, seeds.len());
        let (mut y, mut rngs) = interleaved_starts(n, &seeds);
        BatchIntegrator::new().integrate_ramped(
            &mut kernel,
            &mut y,
            0.0,
            3.0,
            0.01,
            &mut rngs,
            |f| f,
            &ramped,
            |_, _| {},
        );

        for (r, (&seed, &is_ramped)) in seeds.iter().zip(&ramped).enumerate() {
            let (mut solo, mut rng) = interleaved_starts(n, &[seed]);
            let mut solo_kernel = BatchKernel::new(&net, 1);
            let mut integrator = BatchIntegrator::new();
            if is_ramped {
                integrator.integrate_ramped(
                    &mut solo_kernel,
                    &mut solo,
                    0.0,
                    3.0,
                    0.01,
                    &mut rng,
                    |f| f,
                    &[true],
                    |_, _| {},
                );
            } else {
                integrator.integrate(&solo_kernel, &mut solo, 0.0, 3.0, 0.01, &mut rng);
            }
            for i in 0..n {
                assert_eq!(
                    y[i * seeds.len() + r].to_bits(),
                    solo[i].to_bits(),
                    "node {i} lane {r}"
                );
            }
        }
    }

    #[test]
    fn shil_scale_ramps_torque() {
        let g = Graph::empty(1);
        let mut net = PhaseNetwork::builder(&g).build();
        net.set_shil_all(Shil::order2(0.0, 2.0));
        net.set_shil_enabled(true);
        let mut kernel = BatchKernel::new(&net, 1);
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
        let mut kernel = BatchKernel::new(&net, 1);
        let mut y = vec![0.7, 2.5];
        let mut ts = Vec::new();
        BatchIntegrator::new().integrate_ramped(
            &mut kernel,
            &mut y,
            10.0,
            11.0,
            0.01,
            &mut [StdRng::seed_from_u64(5)],
            |f| f,
            &[true],
            |t, _| ts.push(t),
        );
        // t0 plus one sample per step; fp accumulation may add a tiny
        // catch-up step per segment boundary (10 segments here).
        assert!((101..=111).contains(&ts.len()), "got {} samples", ts.len());
        assert_eq!(ts[0], 10.0);
        assert!((ts.last().unwrap() - 11.0).abs() < 1e-9);
        assert!(ts.windows(2).all(|w| w[1] > w[0]), "monotone time");
        assert_eq!(kernel.shil_scale[0], 1.0, "scale restored");
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
                    let w = if k.edge_on[e * rr + r] {
                        k.base_weight[e * rr + r]
                    } else {
                        0.0
                    };
                    let s = w * crate::fastmath::sin_fast(y[u + r] - y[v + r]);
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
            // sweep must cover exactly the conducting (edge, lane) slots.
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
                let conducting = (0..m)
                    .flat_map(|edge| (0..lanes).map(move |r| (edge, r)))
                    .filter(|&(edge, r)| kernel.edge_enabled(edge, r))
                    .count();
                proptest::prop_assert_eq!(kernel.num_live_pairs(), conducting);
                kernel.drift_into(&y, &mut dydt, &mut scratch);
                let reference = full_sweep_drift(&kernel, &y);
                for (k, (got, want)) in dydt.iter().zip(&reference).enumerate() {
                    proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "slot {}", k);
                }
            }
        }
    }

    /// `lanes` networks on `g`, each with its own coupling strength,
    /// frequency offsets, edge weights and SHIL phase. When `gated`,
    /// lane 1 cuts every edge and the other lanes cut each edge with
    /// probability ½; `defective` disables that ring in every lane.
    fn lane_networks(
        g: &msropm_graph::Graph,
        lanes: usize,
        gated: bool,
        defective: Option<usize>,
        rng: &mut StdRng,
    ) -> Vec<PhaseNetwork> {
        (0..lanes)
            .map(|r| {
                let mut net = PhaseNetwork::builder(g)
                    .coupling_strength(0.5 + rng.gen::<f64>())
                    .noise(0.1)
                    .frequency_spread(0.2)
                    .build_with_spread(rng);
                for e in 0..g.num_edges() {
                    if rng.gen_bool(0.3) {
                        net.set_edge_weight(e, rng.gen_range(-2.0f64..2.0));
                    }
                    if gated && (r == 1 || rng.gen_bool(0.5)) {
                        net.set_edge_enabled(e, false);
                    }
                }
                if let Some(node) = defective {
                    net.set_node_enabled(node, false);
                }
                net.set_shil_all(Shil::order2(rng.gen::<f64>(), 0.5 + rng.gen::<f64>()));
                net.set_shil_enabled(true);
                net
            })
            .collect()
    }

    proptest::proptest! {
        // Default config: 64 cases, or `PROPTEST_CASES` (CI runs 2000 in
        // release).
        #[test]
        fn every_lane_matches_its_solo_kernel(
            lanes in 1usize..=10,
            complete in proptest::prelude::any::<bool>(),
            gated in proptest::prelude::any::<bool>(),
            defective in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000_000,
        ) {
            // Both sweep bodies (pairs, and rows at ≥ 8 all-live lanes),
            // per-lane weights, biases and SHIL, random per-lane gating
            // with one lane cut entirely, and a defective ring: each
            // lane's drift equals a one-lane kernel built from that
            // lane's own network bit for bit, and the reference drift
            // within 1e-12.
            let g = if complete {
                generators::complete_graph(9)
            } else {
                generators::kings_graph(4, 5)
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let dead = defective.then(|| rng.gen_range(0..g.num_nodes()));
            let nets = lane_networks(&g, lanes, gated, dead, &mut rng);
            let kernel = BatchKernel::from_lanes(&nets);
            let rows = matches!(kernel.gating(), Sweep::Rows(_));
            proptest::prop_assert_eq!(rows, lanes >= ROW_MIN_LANES && !gated);
            let n = g.num_nodes();
            let y: Vec<f64> = (0..n * lanes).map(|_| rng.gen::<f64>() * TAU).collect();
            let mut dydt = vec![0.0; n * lanes];
            kernel.drift_into(&y, &mut dydt, &mut Vec::new());
            for (r, net) in nets.iter().enumerate() {
                let solo_y: Vec<f64> = (0..n).map(|i| y[i * lanes + r]).collect();
                let mut solo = vec![0.0; n];
                BatchKernel::new(net, 1).drift_into(&solo_y, &mut solo, &mut Vec::new());
                let mut reference = vec![0.0; n];
                msropm_ode::system::OdeSystem::eval(net, 0.0, &solo_y, &mut reference);
                for (i, want) in solo.iter().enumerate() {
                    let got = dydt[i * lanes + r];
                    proptest::prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "node {} lane {}",
                        i,
                        r
                    );
                    proptest::prop_assert!(
                        (got - reference[i]).abs() <= 1e-12,
                        "node {} lane {}: {} vs reference {}",
                        i,
                        r,
                        got,
                        reference[i]
                    );
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
        assert_eq!(kernel.num_live_pairs(), 2 * g.num_edges() - 1);
        kernel.set_edge_enabled(0, 1, false);
        assert_eq!(kernel.num_live_edges(), g.num_edges() - 1);
        assert_eq!(kernel.num_live_pairs(), 2 * g.num_edges() - 2);
        kernel.enable_all_edges();
        assert_eq!(kernel.num_live_edges(), g.num_edges());
    }

    #[test]
    fn wide_all_live_shards_sweep_rows_until_a_lane_is_gated() {
        let g = generators::kings_graph(3, 3);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        net.set_node_enabled(4, false);
        let mut kernel = BatchKernel::new(&net, ROW_MIN_LANES);
        assert!(matches!(kernel.gating(), Sweep::Rows(_)));
        let live = kernel.num_live_edges();
        assert!(
            live < g.num_edges(),
            "the dead ring's edges leave the sweep"
        );
        assert_eq!(kernel.num_live_pairs(), live * ROW_MIN_LANES);
        kernel.set_edge_enabled(0, 3, false);
        assert!(matches!(kernel.gating(), Sweep::Pairs { .. }));
        assert_eq!(kernel.num_live_pairs(), live * ROW_MIN_LANES - 1);
        assert!(matches!(
            BatchKernel::new(&net, ROW_MIN_LANES - 1).gating(),
            Sweep::Pairs { .. }
        ));
    }

    fn two_lane_path() -> BatchKernel {
        let g = generators::path_graph(2);
        BatchKernel::new(&PhaseNetwork::builder(&g).build(), 2)
    }

    #[test]
    #[should_panic(expected = "replica out of range")]
    fn set_bias_rejects_out_of_range_replica() {
        two_lane_path().set_bias(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "replica out of range")]
    fn set_shil_rejects_out_of_range_replica() {
        two_lane_path().set_shil(0, 2, Some(Shil::order2(0.0, 1.0)));
    }

    #[test]
    #[should_panic(expected = "replica out of range")]
    fn bias_of_rejects_out_of_range_replica() {
        two_lane_path().bias_of(0, 2);
    }

    #[test]
    #[should_panic(expected = "replica out of range")]
    fn edge_enabled_rejects_out_of_range_replica() {
        two_lane_path().edge_enabled(0, 2);
    }

    #[test]
    #[should_panic(expected = "replica out of range")]
    fn idx_rejects_out_of_range_replica() {
        two_lane_path().idx(0, 2);
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

    #[test]
    #[should_panic(expected = "lane 1 topology differs")]
    fn from_lanes_rejects_lanes_with_different_topology() {
        let path = PhaseNetwork::builder(&generators::path_graph(4)).build();
        let cycle = PhaseNetwork::builder(&generators::cycle_graph(4)).build();
        BatchKernel::from_lanes(&[path, cycle]);
    }
}
