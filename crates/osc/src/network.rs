//! The coupled-oscillator phase network: drift, noise, energy, relaxation.
//!
//! [`PhaseNetwork`] owns the gating state and the **reference** CSR drift
//! implementation ([`OdeSystem::eval`]). [`PhaseNetwork::relax`]
//! integrates that reference drift directly; the stochastic anneals
//! build a one-lane [`BatchKernel`] from the current gating and step it
//! with a [`BatchIntegrator`], the kernel every run goes through, which
//! agrees with the reference to < 1e-12 (property-tested).

use crate::batch::{BatchIntegrator, BatchKernel};
use crate::shil::Shil;
use msropm_graph::Graph;
use msropm_ode::fixed::{FixedStepper, Rk4};
use msropm_ode::system::{OdeSystem, SdeSystem};
use rand::Rng;
use std::f64::consts::TAU;

/// Builder for [`PhaseNetwork`] (see [`PhaseNetwork::builder`]).
#[derive(Debug, Clone)]
pub struct PhaseNetworkBuilder {
    num_nodes: usize,
    offsets: Vec<u32>,
    neighbors: Vec<(u32, u32)>,
    endpoints: Vec<(u32, u32)>,
    coupling: f64,
    noise: f64,
    freq_spread: f64,
}

impl PhaseNetworkBuilder {
    fn from_graph(g: &Graph) -> Self {
        let mut offsets = Vec::with_capacity(g.num_nodes() + 1);
        let mut neighbors = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0);
        for v in g.nodes() {
            for (w, e) in g.neighbors(v) {
                neighbors.push((w.index() as u32, e.index() as u32));
            }
            offsets.push(neighbors.len() as u32);
        }
        let endpoints = g
            .edges()
            .map(|(_, u, v)| (u.index() as u32, v.index() as u32))
            .collect();
        PhaseNetworkBuilder {
            num_nodes: g.num_nodes(),
            offsets,
            neighbors,
            endpoints,
            coupling: 1.0,
            noise: 0.0,
            freq_spread: 0.0,
        }
    }

    /// Sets the coupling magnitude `K_c` (rad/ns). Couplings are applied
    /// with the B2B-inverter sign convention `K_ij = −K_c` (anti-phase).
    ///
    /// # Panics
    ///
    /// Panics if `coupling < 0`.
    pub fn coupling_strength(mut self, coupling: f64) -> Self {
        assert!(coupling >= 0.0, "coupling strength must be non-negative");
        self.coupling = coupling;
        self
    }

    /// Sets the white phase-noise amplitude `σ` (rad/√ns).
    ///
    /// # Panics
    ///
    /// Panics if `noise < 0`.
    pub fn noise(mut self, noise: f64) -> Self {
        assert!(noise >= 0.0, "noise amplitude must be non-negative");
        self.noise = noise;
        self
    }

    /// Sets the standard deviation of the per-oscillator free-running
    /// frequency offsets `Δω_i` (rad/ns); sampled when the network is built
    /// with [`PhaseNetworkBuilder::build_with_spread`].
    ///
    /// # Panics
    ///
    /// Panics if `spread < 0`.
    pub fn frequency_spread(mut self, spread: f64) -> Self {
        assert!(spread >= 0.0, "frequency spread must be non-negative");
        self.freq_spread = spread;
        self
    }

    /// Builds the network with identical oscillators (`Δω_i = 0`).
    pub fn build(self) -> PhaseNetwork {
        let num_nodes = self.num_nodes;
        let num_edges = self.endpoints.len();
        let coupling = self.coupling;
        PhaseNetwork {
            num_nodes,
            offsets: self.offsets,
            neighbors: self.neighbors,
            endpoints: self.endpoints,
            edge_weight: vec![-coupling; num_edges],
            edge_enabled: vec![true; num_edges],
            couplings_on: true,
            shil: vec![None; num_nodes],
            shil_on: false,
            delta_omega: vec![0.0; num_nodes],
            noise: self.noise,
            node_enabled: vec![true; num_nodes],
        }
    }

    /// Builds the network with Gaussian frequency offsets drawn from `rng`
    /// (std dev set by [`PhaseNetworkBuilder::frequency_spread`]).
    pub fn build_with_spread<R: Rng + ?Sized>(self, rng: &mut R) -> PhaseNetwork {
        let spread = self.freq_spread;
        let mut net = self.build();
        if spread > 0.0 {
            for dw in &mut net.delta_omega {
                *dw = spread * msropm_ode::sde::standard_normal(rng);
            }
        }
        net
    }
}

/// A network of coupled ring oscillators in the phase domain.
///
/// Holds the CSR coupling topology derived from a [`Graph`], per-edge
/// weights and enables (the `L_EN`/`P_EN` gates), per-node SHIL assignments
/// (the `SHIL_SEL` multiplexers) and the global coupling/SHIL enables
/// (`G_EN`, `SHIL_EN`). Implements [`OdeSystem`]/[`SdeSystem`] so any
/// integrator from `msropm-ode` can evolve it.
#[derive(Debug, Clone)]
pub struct PhaseNetwork {
    num_nodes: usize,
    offsets: Vec<u32>,
    neighbors: Vec<(u32, u32)>,
    endpoints: Vec<(u32, u32)>,
    edge_weight: Vec<f64>,
    edge_enabled: Vec<bool>,
    couplings_on: bool,
    shil: Vec<Option<Shil>>,
    shil_on: bool,
    delta_omega: Vec<f64>,
    noise: f64,
    node_enabled: Vec<bool>,
}

impl PhaseNetwork {
    /// Starts building a network over the coupling topology of `g`.
    pub fn builder(g: &Graph) -> PhaseNetworkBuilder {
        PhaseNetworkBuilder::from_graph(g)
    }

    /// Number of oscillators.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of couplings (graph edges).
    pub fn num_edges(&self) -> usize {
        self.edge_weight.len()
    }

    /// White phase-noise amplitude `σ`.
    pub fn noise_amplitude(&self) -> f64 {
        self.noise
    }

    /// Sets the white phase-noise amplitude `σ`.
    ///
    /// # Panics
    ///
    /// Panics if `noise < 0`.
    pub fn set_noise(&mut self, noise: f64) {
        assert!(noise >= 0.0, "noise amplitude must be non-negative");
        self.noise = noise;
    }

    /// Globally enables/disables all couplings (the `G_EN` gate for B2Bs).
    pub fn set_couplings_enabled(&mut self, on: bool) {
        self.couplings_on = on;
    }

    /// Returns `true` if couplings are globally enabled.
    pub fn couplings_enabled(&self) -> bool {
        self.couplings_on
    }

    /// Enables/disables one coupling (a `P_EN`/`L_EN` gate).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn set_edge_enabled(&mut self, edge: usize, on: bool) {
        self.edge_enabled[edge] = on;
    }

    /// Returns `true` if the coupling `edge` is individually enabled.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn edge_enabled(&self, edge: usize) -> bool {
        self.edge_enabled[edge]
    }

    /// Sets the coupling magnitude `K_c` for **every** edge, replacing
    /// any per-edge weight overrides — the same recipe as
    /// [`PhaseNetworkBuilder::coupling_strength`] (all weights become
    /// `−coupling`, the B2B anti-phase sign). This is how per-lane
    /// coupling sweeps derive a lane network from a base network without
    /// any weight rescaling arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `coupling < 0`.
    pub fn set_coupling_strength(&mut self, coupling: f64) {
        assert!(coupling >= 0.0, "coupling strength must be non-negative");
        for w in &mut self.edge_weight {
            *w = -coupling;
        }
    }

    /// Overrides the weight of one coupling (`K_ij`; negative = B2B).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range or `weight` is non-finite.
    pub fn set_edge_weight(&mut self, edge: usize, weight: f64) {
        assert!(weight.is_finite(), "coupling weight must be finite");
        self.edge_weight[edge] = weight;
    }

    /// The weight of one coupling.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn edge_weight(&self, edge: usize) -> f64 {
        self.edge_weight[edge]
    }

    /// Edge endpoints `(u, v)` in dense edge-id order — the canonical
    /// visit order of the compiled kernels.
    pub fn edge_endpoints(&self) -> &[(u32, u32)] {
        &self.endpoints
    }

    /// Globally enables/disables SHIL injection (the `SHIL_EN` gate).
    pub fn set_shil_enabled(&mut self, on: bool) {
        self.shil_on = on;
    }

    /// Returns `true` if SHIL injection is globally enabled.
    pub fn shil_enabled(&self) -> bool {
        self.shil_on
    }

    /// Assigns a SHIL source to every oscillator (stage 1: all on SHIL 1).
    pub fn set_shil_all(&mut self, shil: Shil) {
        for s in &mut self.shil {
            *s = Some(shil);
        }
    }

    /// Assigns (or clears) the SHIL source of one oscillator — the
    /// `SHIL_SEL` multiplexer of the paper's Fig. 4(a).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_shil_node(&mut self, node: usize, shil: Option<Shil>) {
        self.shil[node] = shil;
    }

    /// SHIL source currently selected for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn shil_of(&self, node: usize) -> Option<Shil> {
        self.shil[node]
    }

    /// Per-oscillator free-running frequency offsets.
    pub fn delta_omega(&self) -> &[f64] {
        &self.delta_omega
    }

    /// Enables/disables one oscillator (the per-ring `L_EN` gate). A
    /// disabled oscillator models a **defective ring**: its phase freezes
    /// and it exchanges no coupling torque with its neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_node_enabled(&mut self, node: usize, on: bool) {
        self.node_enabled[node] = on;
    }

    /// Returns `true` if oscillator `node` is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_enabled(&self, node: usize) -> bool {
        self.node_enabled[node]
    }

    /// Number of enabled oscillators.
    pub fn num_enabled_nodes(&self) -> usize {
        self.node_enabled.iter().filter(|&&e| e).count()
    }

    /// Total phase-domain energy whose negative gradient is the drift:
    /// `E = −Σ_e w_e cos(θ_u−θ_v) − Σ_i (Ks_i/m)cos(mθ_i−ψ_i) − Σ_i Δω_i θ_i`,
    /// with disabled couplings and disabled SHIL contributing zero.
    #[allow(clippy::needless_range_loop)] // indexed walk over parallel arrays
    pub fn energy(&self, phases: &[f64]) -> f64 {
        assert_eq!(phases.len(), self.num_nodes, "phase vector size mismatch");
        let mut e = 0.0;
        // Each undirected edge is visited twice in CSR; halve the sum.
        if self.couplings_on {
            for i in 0..self.num_nodes {
                let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
                for &(j, eid) in &self.neighbors[lo..hi] {
                    if self.edge_enabled[eid as usize] {
                        e += -0.5
                            * self.edge_weight[eid as usize]
                            * (phases[i] - phases[j as usize]).cos();
                    }
                }
            }
        }
        for i in 0..self.num_nodes {
            if self.shil_on {
                if let Some(shil) = &self.shil[i] {
                    e += shil.potential(phases[i]);
                }
            }
            e -= self.delta_omega[i] * phases[i];
        }
        e
    }

    /// The vector-Potts Hamiltonian of paper Eq. (4) with unit couplings
    /// over **all** graph edges (gating ignored):
    /// `H = Σ_{(i,j)∈E} cos(θ_i − θ_j)`.
    ///
    /// Minimizing `H` pushes adjacent oscillators apart in phase; for phases
    /// locked to the color targets, `H` counts satisfied/violated edges.
    pub fn vector_potts_hamiltonian(&self, phases: &[f64]) -> f64 {
        assert_eq!(phases.len(), self.num_nodes, "phase vector size mismatch");
        let mut h = 0.0;
        for i in 0..self.num_nodes {
            let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
            for &(j, _) in &self.neighbors[lo..hi] {
                let j = j as usize;
                if j > i {
                    h += (phases[i] - phases[j]).cos();
                }
            }
        }
        h
    }

    /// Uniform random initial phases in `[0, 2π)` — the steady-state result
    /// of the paper's "turn on at random instants and drift by jitter"
    /// randomization.
    pub fn random_phases<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        (0..self.num_nodes)
            .map(|_| rng.gen::<f64>() * TAU)
            .collect()
    }

    /// Deterministic relaxation (gradient descent) for `duration` ns with
    /// RK4 steps of `dt` ns on the reference drift. Used for noiseless
    /// analysis and tests.
    pub fn relax(&mut self, phases: &mut [f64], duration: f64, dt: f64) {
        Rk4::new().integrate(&*self, phases, 0.0, duration, dt);
    }

    /// Stochastic annealing for `duration` ns with Euler–Maruyama steps of
    /// `dt` ns, drawing jitter from `rng`. This is the paper's
    /// "self-annealing" window. Runs on a one-lane [`BatchKernel`] built
    /// from the current gating; callers that integrate many windows
    /// should hold the kernel and a [`BatchIntegrator`] instead (as
    /// `msropm-core` does).
    pub fn anneal<R: Rng + ?Sized>(
        &mut self,
        phases: &mut [f64],
        duration: f64,
        dt: f64,
        rng: &mut R,
    ) {
        self.anneal_observed(phases, duration, dt, rng, |_, _| {});
    }

    /// Stochastic annealing that records `(t, θ)` samples via `observe`.
    pub fn anneal_observed<R: Rng + ?Sized>(
        &mut self,
        phases: &mut [f64],
        duration: f64,
        dt: f64,
        rng: &mut R,
        observe: impl FnMut(f64, &[f64]),
    ) {
        let kernel = BatchKernel::new(self, 1);
        BatchIntegrator::new().integrate_observed(
            &kernel,
            phases,
            0.0,
            duration,
            dt,
            &mut [rng],
            observe,
        );
    }

    /// Stochastic annealing with a **SHIL-strength ramp**: every assigned
    /// SHIL's strength is scaled by `ramp(t/duration)` (`ramp(0..=1) >= 0`)
    /// while integrating. Ramping the sub-harmonic injection from 0 to full
    /// strength is the classical OIM annealing refinement (Wang &
    /// Roychowdhury): phases order under the couplings first and discretize
    /// gradually instead of being quenched.
    ///
    /// The network's configured SHIL strengths are never modified; the
    /// ramp only scales the one-lane kernel's torque table.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`, `duration < 0`, or the ramp returns a negative
    /// scale.
    pub fn anneal_shil_ramped<R: Rng + ?Sized>(
        &mut self,
        phases: &mut [f64],
        duration: f64,
        dt: f64,
        rng: &mut R,
        ramp: impl Fn(f64) -> f64,
    ) {
        assert!(duration >= 0.0, "duration must be non-negative");
        let mut kernel = BatchKernel::new(self, 1);
        BatchIntegrator::new().integrate_ramped(
            &mut kernel,
            phases,
            0.0,
            duration,
            dt,
            &mut [rng],
            ramp,
            &[true],
            |_, _| {},
        );
    }
}

/// Checks that per-lane networks can share one compiled kernel and
/// returns lane 0's, the base the kernel compiles its shared structure
/// from: the lanes must agree on topology, ring enables and the global
/// coupling/SHIL enables, and may differ in weights, noise, offsets,
/// SHIL assignments and per-edge gating.
///
/// # Panics
///
/// Panics if `nets` is empty or any lane disagrees with lane 0.
pub(crate) fn lane_base(nets: &[PhaseNetwork]) -> &PhaseNetwork {
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
    base
}

impl OdeSystem for PhaseNetwork {
    fn dim(&self) -> usize {
        self.num_nodes
    }

    fn eval(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        assert_eq!(y.len(), self.num_nodes, "phase vector size mismatch");
        for i in 0..self.num_nodes {
            if !self.node_enabled[i] {
                dydt[i] = 0.0;
                continue;
            }
            let mut d = self.delta_omega[i];
            if self.couplings_on {
                let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
                for &(j, eid) in &self.neighbors[lo..hi] {
                    if self.edge_enabled[eid as usize] && self.node_enabled[j as usize] {
                        d -= self.edge_weight[eid as usize] * (y[i] - y[j as usize]).sin();
                    }
                }
            }
            if self.shil_on {
                if let Some(shil) = &self.shil[i] {
                    d += shil.torque(y[i]);
                }
            }
            dydt[i] = d;
        }
    }
}

impl SdeSystem for PhaseNetwork {
    fn diffusion(&self, _t: f64, _y: &[f64], g_out: &mut [f64]) {
        for (g, &on) in g_out.iter_mut().zip(&self.node_enabled) {
            *g = if on { self.noise } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::phase_to_spin;
    use crate::waveform::principal_phase;
    use msropm_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    #[test]
    fn negative_coupling_antiphase() {
        let g = generators::path_graph(2);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        let mut phases = vec![0.2, 1.0];
        net.relax(&mut phases, 60.0, 1e-2);
        let d = principal_phase(phases[0] - phases[1]);
        assert!((d - PI).abs() < 1e-3, "phase difference {d}");
    }

    #[test]
    fn positive_coupling_in_phase() {
        let g = generators::path_graph(2);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        net.set_edge_weight(0, 1.0); // ferromagnetic
        let mut phases = vec![0.2, 2.0];
        net.relax(&mut phases, 60.0, 1e-2);
        let d = principal_phase(phases[0] - phases[1]);
        assert!(d < 1e-3 || (TAU - d) < 1e-3, "phase difference {d}");
    }

    #[test]
    fn shil_binarizes_to_its_stable_pair() {
        let g = Graph::empty(4);
        let mut net = PhaseNetwork::builder(&g).build();
        let shil = Shil::order2(PI, 1.0); // SHIL 2: stable at 90/270 deg
        net.set_shil_all(shil);
        net.set_shil_enabled(true);
        let mut phases = vec![0.3, 1.8, 3.3, 5.5];
        net.relax(&mut phases, 40.0, 1e-2);
        for &p in &phases {
            let p = principal_phase(p);
            let d1 = (p - PI / 2.0).abs();
            let d2 = (p - 3.0 * PI / 2.0).abs();
            assert!(d1 < 1e-3 || d2 < 1e-3, "phase {p} not binarized");
        }
    }

    #[test]
    fn disabled_shil_has_no_effect() {
        let g = Graph::empty(1);
        let mut net = PhaseNetwork::builder(&g).build();
        net.set_shil_all(Shil::order2(0.0, 5.0));
        net.set_shil_enabled(false);
        let mut phases = vec![1.234];
        net.relax(&mut phases, 10.0, 1e-2);
        assert!((phases[0] - 1.234).abs() < 1e-12);
    }

    #[test]
    fn disabled_couplings_freeze_network() {
        let g = generators::complete_graph(3);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(2.0).build();
        net.set_couplings_enabled(false);
        let mut phases = vec![0.1, 2.2, 4.4];
        let before = phases.clone();
        net.relax(&mut phases, 5.0, 1e-2);
        assert_eq!(phases, before);
    }

    #[test]
    fn per_edge_gating() {
        // Path 0-1-2; disable edge (1,2): node 2 must not move.
        let g = generators::path_graph(3);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        let e12 = g
            .find_edge(msropm_graph::NodeId::new(1), msropm_graph::NodeId::new(2))
            .unwrap();
        net.set_edge_enabled(e12.index(), false);
        assert!(!net.edge_enabled(e12.index()));
        let mut phases = vec![0.0, 1.0, 2.5];
        net.relax(&mut phases, 20.0, 1e-2);
        assert!((phases[2] - 2.5).abs() < 1e-12, "gated node moved");
        let d = principal_phase(phases[0] - phases[1]);
        assert!((d - PI).abs() < 1e-3);
    }

    #[test]
    fn triangle_frustration_cannot_cut_all() {
        // Three mutually coupled oscillators: at most 2 of 3 edges can be
        // antiphase; the relaxed state is the 120-degree splay.
        let g = generators::complete_graph(3);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        let mut phases = vec![0.05, 2.0, 4.5];
        net.relax(&mut phases, 120.0, 1e-2);
        // Pairwise separations all ~120 degrees.
        for i in 0..3 {
            for j in (i + 1)..3 {
                let d = principal_phase(phases[i] - phases[j]);
                let d = d.min(TAU - d);
                assert!((d - TAU / 3.0).abs() < 1e-2, "sep {d}");
            }
        }
    }

    #[test]
    fn energy_descends_without_noise() {
        let g = generators::kings_graph(3, 3);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(0.7).build();
        let mut rng = StdRng::seed_from_u64(9);
        let mut phases = net.random_phases(&mut rng);
        let mut prev = net.energy(&phases);
        for _ in 0..20 {
            net.relax(&mut phases, 1.0, 1e-2);
            let e = net.energy(&phases);
            assert!(e <= prev + 1e-9, "energy rose: {prev} -> {e}");
            prev = e;
        }
    }

    #[test]
    fn drift_is_negative_energy_gradient() {
        let g = generators::kings_graph(2, 3);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(0.8).build();
        net.set_shil_all(Shil::order2(0.4, 0.6));
        net.set_shil_enabled(true);
        let mut rng = StdRng::seed_from_u64(4);
        let phases = net.random_phases(&mut rng);
        let mut drift = vec![0.0; phases.len()];
        net.eval(0.0, &phases, &mut drift);
        let h = 1e-6;
        for i in 0..phases.len() {
            let mut p = phases.clone();
            p[i] += h;
            let ep = net.energy(&p);
            p[i] -= 2.0 * h;
            let em = net.energy(&p);
            let grad = (ep - em) / (2.0 * h);
            assert!(
                (drift[i] + grad).abs() < 1e-5,
                "node {i}: drift {} vs -grad {}",
                drift[i],
                -grad
            );
        }
    }

    #[test]
    fn coupled_shil_pair_lands_on_cut_colors() {
        // Two coupled oscillators + SHIL 1: they must end on *different*
        // binarized phases (0 and 180), i.e. the max-cut of a single edge.
        let g = generators::path_graph(2);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(0.5).build();
        let mut phases = vec![1.0, 1.3];
        net.relax(&mut phases, 30.0, 1e-2);
        let shil = Shil::order2(0.0, 1.0);
        net.set_shil_all(shil);
        net.set_shil_enabled(true);
        net.relax(&mut phases, 30.0, 1e-2);
        let s0 = phase_to_spin(phases[0], &shil);
        let s1 = phase_to_spin(phases[1], &shil);
        assert_ne!(s0, s1, "coupled pair not cut: {phases:?}");
    }

    #[test]
    fn anneal_with_noise_is_reproducible_by_seed() {
        let g = generators::kings_graph(3, 3);
        let mut net = PhaseNetwork::builder(&g)
            .coupling_strength(0.5)
            .noise(0.3)
            .build();
        let run = |net: &mut PhaseNetwork, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut phases = net.random_phases(&mut rng);
            net.anneal(&mut phases, 5.0, 1e-2, &mut rng);
            phases
        };
        let a = run(&mut net, 7);
        let b = run(&mut net, 7);
        let c = run(&mut net, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn frequency_spread_sampling() {
        let g = Graph::empty(64);
        let mut rng = StdRng::seed_from_u64(2);
        let net = PhaseNetwork::builder(&g)
            .frequency_spread(0.1)
            .build_with_spread(&mut rng);
        let nonzero = net.delta_omega().iter().filter(|&&w| w != 0.0).count();
        assert_eq!(nonzero, 64);
        let mean: f64 = net.delta_omega().iter().sum::<f64>() / 64.0;
        assert!(mean.abs() < 0.1);
    }

    #[test]
    fn vector_potts_hamiltonian_counts_edges() {
        let g = generators::path_graph(3);
        let net = PhaseNetwork::builder(&g).build();
        // Both edges antiphase: H = -2. Both in phase: H = +2.
        assert!((net.vector_potts_hamiltonian(&[0.0, PI, 0.0]) + 2.0).abs() < 1e-12);
        assert!((net.vector_potts_hamiltonian(&[0.0, 0.0, 0.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dead_oscillator_is_frozen_and_invisible() {
        // Path 0-1-2 with node 1 dead: node 1 never moves, nodes 0 and 2
        // (not adjacent) receive no torque at all.
        let g = generators::path_graph(3);
        let mut net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        net.set_node_enabled(1, false);
        assert!(!net.node_enabled(1));
        assert_eq!(net.num_enabled_nodes(), 2);
        let mut phases = vec![0.3, 1.7, 2.9];
        net.relax(&mut phases, 10.0, 1e-2);
        assert_eq!(phases, vec![0.3, 1.7, 2.9], "no live coupling exists");

        // Re-enable: the chain orders again.
        net.set_node_enabled(1, true);
        net.relax(&mut phases, 60.0, 1e-2);
        let d01 = principal_phase(phases[0] - phases[1]);
        assert!((d01 - PI).abs() < 1e-2);
    }

    #[test]
    fn dead_oscillator_receives_no_noise() {
        let g = Graph::empty(2);
        let mut net = PhaseNetwork::builder(&g).noise(1.0).build();
        net.set_node_enabled(0, false);
        let mut rng = StdRng::seed_from_u64(9);
        let mut phases = vec![1.0, 1.0];
        net.anneal(&mut phases, 5.0, 1e-2, &mut rng);
        assert_eq!(phases[0], 1.0, "dead node must not jitter");
        assert_ne!(phases[1], 1.0, "live node must jitter");
    }

    #[test]
    fn shil_ramp_binarizes_and_restores_strengths() {
        let g = Graph::empty(3);
        let mut net = PhaseNetwork::builder(&g).build();
        let shil = Shil::order2(0.0, 2.0);
        net.set_shil_all(shil);
        net.set_shil_enabled(true);
        let mut rng = StdRng::seed_from_u64(3);
        let mut phases = vec![0.7, 2.5, 5.0];
        net.anneal_shil_ramped(&mut phases, 30.0, 1e-2, &mut rng, |f| f);
        for &p in &phases {
            let e = crate::lock::lock_error(p, &shil);
            assert!(e < 0.05, "phase {p} not discretized after ramp (err {e})");
        }
        // Strengths restored to their configured values.
        for i in 0..3 {
            assert_eq!(net.shil_of(i).unwrap().strength(), 2.0);
        }
    }

    #[test]
    fn zero_ramp_means_no_shil() {
        let g = Graph::empty(1);
        let mut net = PhaseNetwork::builder(&g).build();
        net.set_shil_all(Shil::order2(0.0, 5.0));
        net.set_shil_enabled(true);
        let mut rng = StdRng::seed_from_u64(5);
        let mut phases = vec![1.0];
        net.anneal_shil_ramped(&mut phases, 5.0, 1e-2, &mut rng, |_| 0.0);
        assert!(
            (phases[0] - 1.0).abs() < 1e-9,
            "zero-scaled SHIL moved the phase"
        );
    }

    #[test]
    fn random_phases_uniform_start() {
        let g = Graph::empty(512);
        let net = PhaseNetwork::builder(&g).build();
        let mut rng = StdRng::seed_from_u64(1);
        let y = net.random_phases(&mut rng);
        assert!(y.iter().all(|&p| (0.0..TAU).contains(&p)));
    }

    #[test]
    fn observed_anneal_reports_times() {
        let g = generators::path_graph(2);
        let mut net = PhaseNetwork::builder(&g).noise(0.1).build();
        let mut rng = StdRng::seed_from_u64(1);
        let mut phases = vec![0.0, 1.0];
        let mut count = 0;
        net.anneal_observed(&mut phases, 0.5, 0.1, &mut rng, |_, _| count += 1);
        assert_eq!(count, 6);
    }

    use msropm_graph::Graph;
}
