//! The lane layer both phase kernels share: one [`LaneKernel`] and one
//! [`LaneIntegrator`], generic over their number format.
//!
//! The paper's machine has one set of control lines per oscillator
//! array: the per-coupling `P_EN` gates, the per-ring `L_EN` enables,
//! the global `G_EN` and `SHIL_EN`, and the `SHIL_SEL` source of every
//! ring. The emulator runs `M` replicas of that array side by side (the
//! SoA layout `y[i*M + r]`, see [`crate::batch`]), so every control is a
//! per-replica **lane**. This module owns the rules those lanes obey,
//! once for both number formats:
//!
//! - an edge conducts in a lane only when its `P_EN` bit is high *and*
//!   both of its rings work — a defective ring's couplings stay dead
//!   whatever is asked of them;
//! - a defective ring gets zero frequency offset, zero SHIL and zero
//!   noise;
//! - lane networks share topology and ring enables (see
//!   [`BatchKernel::from_lanes`](crate::batch::BatchKernel::from_lanes)),
//!   and each lane copies its own weights, offsets, SHIL sources and
//!   noise amplitude;
//! - any gating change that flips an `(edge, lane)` bit drops the
//!   compiled gating, which the next drift rebuilds.
//!
//! It also owns the one Euler–Maruyama driver, [`LaneIntegrator`], and
//! its step-indexed SHIL ramp schedule. What differs between the formats
//! is behind [`LaneFormat`]: how one value is stored, what the gating
//! compiles into, the drift body, the step grid and the update.
//!
//! - [`F64`](crate::batch::F64) stores every value as given, compiles
//!   the gating into the live-pair/row [`Sweep`](crate::batch::Sweep)
//!   and steps by `dt`, the last step shrunk to land on the window's end.
//! - [`Fixed`](crate::fxkernel::Fixed) quantizes every rate to per-step
//!   turn counts at its `dt`, compiles the gating into the effective
//!   weight lanes and takes `ceil((t1 − t0)/dt)` full steps.
//!
//! [`BatchKernel`](crate::batch::BatchKernel) and
//! [`FxBatchKernel`](crate::fxkernel::FxBatchKernel) are `LaneKernel`,
//! and [`BatchIntegrator`](crate::batch::BatchIntegrator) and
//! [`FxBatchIntegrator`](crate::fxkernel::FxBatchIntegrator)
//! `LaneIntegrator`, at the two formats.

use crate::network::PhaseNetwork;
use crate::shil::Shil;
use msropm_ode::sde::fill_normal_batch;
use rand::Rng;
use std::cell::OnceCell;
use std::fmt::Debug;

/// How a [`LaneKernel`] stores its control values, what its gating
/// compiles into, and how a [`LaneIntegrator`] steps it (see the module
/// docs). Implemented by the two kernel formats,
/// [`F64`](crate::batch::F64) and [`Fixed`](crate::fxkernel::Fixed).
pub trait LaneFormat: Debug + Clone + Sized {
    /// A stored weight, offset, SHIL order, phase, strength or scale:
    /// `f64` as given, or an `i32` quantized count.
    type Word: Copy + Default + Debug;
    /// A stored per-(ring, lane) noise amplitude.
    type Gain: Copy + Default + Debug;
    /// What the gating compiles into for the drift.
    type Gating: Debug + Clone;

    /// A rate in radians per unit time (a coupling weight, frequency
    /// offset or SHIL strength).
    fn rate(&self, per_time: f64) -> Self::Word;
    /// A SHIL order.
    fn order(&self, m: u32) -> Self::Word;
    /// A phase in radians.
    fn phase(&self, theta: f64) -> Self::Word;
    /// A stored phase in radians: the inverse of [`LaneFormat::phase`].
    fn radians(word: Self::Word) -> f64;
    /// A SHIL ramp scale (finite and non-negative).
    fn scale(&self, scale: f64) -> Self::Word;
    /// A noise amplitude σ.
    fn gain(&self, sigma: f64) -> Self::Gain;
    /// Compiles `kernel`'s current gating.
    fn compile(kernel: &LaneKernel<Self>) -> Self::Gating;
    /// Writes `kernel`'s interleaved drift at `y` into `out`: a rate in
    /// f64, a per-step increment in fixed point (`scratch` is the
    /// drift body's reusable buffer).
    fn drift(
        kernel: &LaneKernel<Self>,
        y: &[Self::Word],
        out: &mut [Self::Word],
        scratch: &mut Vec<Self::Word>,
    );
    /// The step sizes, in order, that cover `[t0, t1]` at step `dt`.
    fn steps(&self, t0: f64, t1: f64, dt: f64) -> impl Iterator<Item = f64> + use<Self>;
    /// One oscillator's Euler–Maruyama update over a step of `h`
    /// (`sqrt_h = √h`): drift `d`, noise gain `g` and standard normal
    /// deviate `xi`.
    fn advance(y: &mut Self::Word, d: Self::Word, g: Self::Gain, xi: f64, h: f64, sqrt_h: f64);
}

/// A compiled multi-replica coupling kernel in number format `F`: the
/// topology, the per-lane control tables and the compiled gating (see
/// the module docs).
///
/// Gating is mutable in place (per-replica gating bits) because each
/// replica's `P_EN`/`SHIL_SEL` state evolves independently across
/// solution stages; recompiling per window would cost O(n·M + m·M) for
/// no benefit.
///
/// Every control parameter is a **per-replica lane**: ungated edge
/// weights (`K`-lanes), noise amplitudes (`σ`-lanes), SHIL tables and
/// SHIL ramp scales. `new` broadcasts one network across all lanes;
/// `from_lanes` gives each lane the weights and noise of its own
/// network, which is how heterogeneous parameter sweeps enter the hot
/// loop without any per-step branching.
#[derive(Debug, Clone)]
pub struct LaneKernel<F: LaneFormat> {
    pub(crate) format: F,
    pub(crate) num_nodes: usize,
    pub(crate) replicas: usize,
    /// Edge endpoints in edge-id order (all graph edges).
    pub(crate) edge_u: Vec<u32>,
    pub(crate) edge_v: Vec<u32>,
    /// Ungated weight lanes `[e*M + r]` (per-replica `K`).
    pub(crate) base_weight: Vec<F::Word>,
    /// Gating `[e*M + r]`: `true` where the edge conducts in that lane.
    pub(crate) edge_on: Vec<bool>,
    /// The compiled gating; emptied by any gating change and rebuilt by
    /// the next drift.
    gating: OnceCell<F::Gating>,
    pub(crate) node_enabled: Vec<bool>,
    /// Per-(node, replica) frequency offsets `[i*M + r]`.
    pub(crate) bias: Vec<F::Word>,
    /// Dense per-(node, replica) SHIL table: order, phase, strength.
    pub(crate) shil_m: Vec<F::Word>,
    pub(crate) shil_psi: Vec<F::Word>,
    pub(crate) shil_ks: Vec<F::Word>,
    /// Per-replica SHIL ramp scale (the OIM ramp, one lane at a time).
    pub(crate) shil_scale: Vec<F::Word>,
    /// Per-(node, replica) noise amplitude `[i*M + r]` (defective rings
    /// 0).
    pub(crate) noise: Vec<F::Gain>,
    /// Per-replica noise amplitude σ (the value `noise` lanes encode on
    /// functional rings).
    noise_amp: Vec<f64>,
    pub(crate) couplings_on: bool,
    pub(crate) shil_on: bool,
}

impl<F: LaneFormat> LaneKernel<F> {
    /// Builds a kernel in `format` over `net`'s topology with `replicas`
    /// lanes. Lane `r` takes its weights, gating, offsets, SHIL sources
    /// and noise amplitude from `lanes[r]` when given (networks already
    /// checked by `lane_base`), else from `net`.
    pub(crate) fn build(
        format: F,
        net: &PhaseNetwork,
        replicas: usize,
        lanes: Option<&[PhaseNetwork]>,
    ) -> Self {
        let n = net.num_nodes();
        let m = net.num_edges();
        let lane_net = |r: usize| lanes.map_or(net, |nets| &nets[r]);
        let (edge_u, edge_v) = net.edge_endpoints().iter().copied().unzip();
        let mut base_weight = Vec::with_capacity(m * replicas);
        for e in 0..m {
            base_weight.extend((0..replicas).map(|r| format.rate(lane_net(r).edge_weight(e))));
        }
        let unit = format.scale(1.0);
        let mut kernel = LaneKernel {
            num_nodes: n,
            replicas,
            edge_u,
            edge_v,
            base_weight,
            edge_on: vec![false; m * replicas],
            gating: OnceCell::new(),
            node_enabled: (0..n).map(|i| net.node_enabled(i)).collect(),
            bias: vec![F::Word::default(); n * replicas],
            shil_m: vec![F::Word::default(); n * replicas],
            shil_psi: vec![F::Word::default(); n * replicas],
            shil_ks: vec![F::Word::default(); n * replicas],
            shil_scale: vec![unit; replicas],
            noise: vec![F::Gain::default(); n * replicas],
            noise_amp: vec![0.0; replicas],
            couplings_on: net.couplings_enabled(),
            shil_on: net.shil_enabled(),
            format,
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
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    #[inline(always)]
    pub fn idx(&self, node: usize, replica: usize) -> usize {
        assert!(replica < self.replicas, "replica out of range");
        node * self.replicas + replica
    }

    /// Gates one coupling of one replica (that replica's `P_EN` bit).
    /// An enabled edge conducts at that replica's own lane weight, and
    /// only while both of its rings work.
    ///
    /// # Panics
    ///
    /// Panics if `edge` or `replica` is out of range.
    pub fn set_edge_enabled(&mut self, edge: usize, replica: usize, on: bool) {
        let lane = self.idx(edge, replica);
        let (u, v) = (self.edge_u[edge] as usize, self.edge_v[edge] as usize);
        let live = on && self.node_enabled[u] && self.node_enabled[v];
        if self.edge_on[lane] != live {
            self.gating.take();
        }
        self.edge_on[lane] = live;
    }

    /// Returns `true` if `edge` conducts for `replica`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` or `replica` is out of range.
    pub fn edge_enabled(&self, edge: usize, replica: usize) -> bool {
        self.edge_on[self.idx(edge, replica)]
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

    /// The number format every control value is stored in.
    pub fn format(&self) -> &F {
        &self.format
    }

    /// The compiled gating the drift runs (compiled here after a gating
    /// change).
    pub(crate) fn gating(&self) -> &F::Gating {
        self.gating.get_or_init(|| F::compile(self))
    }

    /// Sets the frequency offset of node `i` in `replica` (radians per
    /// unit time; used for per-replica process-variation sampling).
    /// Defective rings stay 0.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `replica` is out of range.
    pub fn set_bias(&mut self, node: usize, replica: usize, delta_omega: f64) {
        let k = self.idx(node, replica);
        self.bias[k] = if self.node_enabled[node] {
            self.format.rate(delta_omega)
        } else {
            F::Word::default()
        };
    }

    /// The stored frequency offset of node `i` in `replica`: radians
    /// per unit time in f64, per-step turn counts in fixed point.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `replica` is out of range.
    pub fn bias_of(&self, node: usize, replica: usize) -> F::Word {
        self.bias[self.idx(node, replica)]
    }

    /// Assigns (or clears) the SHIL source of node `i` in `replica` —
    /// that replica's `SHIL_SEL` value. Defective rings keep strength 0.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `replica` is out of range.
    pub fn set_shil(&mut self, node: usize, replica: usize, shil: Option<Shil>) {
        let k = self.idx(node, replica);
        let f = &self.format;
        let (m, psi, ks) = match shil {
            Some(s) if self.node_enabled[node] => {
                (f.order(s.order()), f.phase(s.phase()), f.rate(s.strength()))
            }
            _ => Default::default(),
        };
        (self.shil_m[k], self.shil_psi[k], self.shil_ks[k]) = (m, psi, ks);
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
        self.shil_scale[replica] = self.format.scale(scale);
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
        let gain = self.format.gain(sigma);
        for i in 0..self.num_nodes {
            self.noise[i * self.replicas + replica] = if self.node_enabled[i] {
                gain
            } else {
                F::Gain::default()
            };
        }
    }

    /// Noise amplitude σ of one replica.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn lane_noise_amplitude(&self, replica: usize) -> f64 {
        self.noise_amp[replica]
    }
}

/// The segment schedule of a ramped window, indexed by **step count**:
/// a ramped window takes exactly the plain step sequence and only the
/// SHIL scale changes between steps, so ramped and non-ramped lanes mix
/// freely in one batch.
#[derive(Debug, Clone, Copy)]
struct RampSchedule {
    segments: usize,
    steps_per_seg: usize,
    /// The segment whose scale the ramped lanes carry (`usize::MAX`
    /// before the first step).
    current: usize,
}

impl RampSchedule {
    /// Plans ~10-step segments (1..=1000 of them) over
    /// `ceil((t1 − t0)/dt)` steps, for a window and `dt` the format's
    /// step grid has already checked.
    fn new(t0: f64, t1: f64, dt: f64) -> Self {
        let steps = (((t1 - t0) / dt).ceil() as usize).max(1);
        let segments = steps.div_ceil(10).clamp(1, 1000);
        RampSchedule {
            segments,
            steps_per_seg: steps.div_ceil(segments),
            current: usize::MAX,
        }
    }

    /// Runs before step `step` (0-based; steps past the planned count
    /// stay in the last segment). When the step opens segment `s`, sets
    /// the SHIL scale of the lanes `ramped` marks to
    /// `ramp((s + ½)/segments)`, the mid-segment ramp abscissa.
    fn enter<F: LaneFormat>(
        &mut self,
        step: usize,
        kernel: &mut LaneKernel<F>,
        ramp: &impl Fn(f64) -> f64,
        ramped: &[bool],
    ) {
        let s = (step / self.steps_per_seg).min(self.segments - 1);
        if s != self.current {
            let scale = ramp((s as f64 + 0.5) / self.segments as f64);
            for (r, _) in ramped.iter().enumerate().filter(|(_, &on)| on) {
                kernel.set_lane_shil_scale(r, scale);
            }
            self.current = s;
        }
    }
}

/// Reusable Euler–Maruyama driver for a [`LaneKernel`] in format `F`
/// (step grid [`LaneFormat::steps`], update [`LaneFormat::advance`]),
/// with one RNG per replica. Owns all scratch; allocation-free after the
/// first step. One normal deviate is drawn per oscillator per step even
/// where σ = 0, so each replica's RNG stream is independent of its
/// gating state.
#[derive(Debug, Clone)]
pub struct LaneIntegrator<F: LaneFormat> {
    drift: Vec<F::Word>,
    noise: Vec<f64>,
    scratch: Vec<F::Word>,
}

impl<F: LaneFormat> Default for LaneIntegrator<F> {
    fn default() -> Self {
        LaneIntegrator {
            drift: Vec::new(),
            noise: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl<F: LaneFormat> LaneIntegrator<F> {
    /// Creates an integrator with empty (lazily sized) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// One interleaved Euler–Maruyama step of size `h` for all replicas.
    ///
    /// # Panics
    ///
    /// Panics if `rngs.len() != kernel.num_replicas()`.
    pub(crate) fn step_by<R: Rng>(
        &mut self,
        kernel: &LaneKernel<F>,
        y: &mut [F::Word],
        h: f64,
        rngs: &mut [R],
    ) {
        assert_eq!(
            rngs.len(),
            kernel.num_replicas(),
            "need exactly one RNG per replica"
        );
        let len = kernel.state_len();
        self.drift.resize(len, F::Word::default());
        self.noise.resize(len, 0.0);
        F::drift(kernel, y, &mut self.drift, &mut self.scratch);
        // Per-replica streams in sequential order (see fill_normal_batch):
        // one deviate per oscillator per step, σ = 0 lanes included.
        fill_normal_batch(&mut self.noise, rngs);
        let sqrt_h = h.sqrt();
        let terms = self.drift.iter().zip(&self.noise).zip(&kernel.noise);
        for (q, ((&d, &xi), &g)) in y.iter_mut().zip(terms) {
            F::advance(q, d, g, xi, h, sqrt_h);
        }
    }

    /// Integrates all replicas over `[t0, t1]` on the format's step grid
    /// ([`LaneFormat::steps`]).
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0` or the format rejects `dt` (f64: `dt <= 0`;
    /// fixed point: `dt` differs from the kernel's compiled step).
    pub fn integrate<R: Rng>(
        &mut self,
        kernel: &LaneKernel<F>,
        y: &mut [F::Word],
        t0: f64,
        t1: f64,
        dt: f64,
        rngs: &mut [R],
    ) {
        self.integrate_observed(kernel, y, t0, t1, dt, rngs, |_, _| {});
    }

    /// Like [`LaneIntegrator::integrate`] with an observer invoked with
    /// the interleaved state at `t0` and after every step.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_observed<R: Rng>(
        &mut self,
        kernel: &LaneKernel<F>,
        y: &mut [F::Word],
        t0: f64,
        t1: f64,
        dt: f64,
        rngs: &mut [R],
        mut observe: impl FnMut(f64, &[F::Word]),
    ) {
        let steps = kernel.format.steps(t0, t1, dt);
        observe(t0, y);
        let mut t = t0;
        for h in steps {
            self.step_by(kernel, y, h, rngs);
            t += h;
            observe(t, y);
        }
    }

    /// Integrates `[t0, t1]` while ramping the SHIL scale of the lanes
    /// marked in `ramped`; unmarked lanes hold scale 1 throughout. Steps
    /// are grouped into segments (ten steps each, capped at 1000
    /// segments) and segment `s` runs with `scale = ramp((s + ½)/segments)`.
    /// The step sequence is exactly the plain
    /// [`LaneIntegrator::integrate`] sequence — segments switch the
    /// scale *between* steps and never split one — so a ramped lane
    /// matches its one-lane ramped run and an unmarked lane its plain
    /// run, bit for bit. The observer fires at `t0` and after every step
    /// with absolute time. All scales are restored to 1 on return.
    ///
    /// # Panics
    ///
    /// Panics as [`LaneIntegrator::integrate`] does, if `ramped.len()`
    /// differs from the replica count, or if the ramp returns a negative
    /// or non-finite scale.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_ramped<R: Rng>(
        &mut self,
        kernel: &mut LaneKernel<F>,
        y: &mut [F::Word],
        t0: f64,
        t1: f64,
        dt: f64,
        rngs: &mut [R],
        ramp: impl Fn(f64) -> f64,
        ramped: &[bool],
        mut observe: impl FnMut(f64, &[F::Word]),
    ) {
        assert_eq!(
            ramped.len(),
            kernel.num_replicas(),
            "need one ramp flag per replica"
        );
        let steps = kernel.format.steps(t0, t1, dt);
        let mut schedule = RampSchedule::new(t0, t1, dt);
        observe(t0, y);
        let mut t = t0;
        for (step, h) in steps.enumerate() {
            schedule.enter(step, kernel, &ramp, ramped);
            self.step_by(kernel, y, h, rngs);
            t += h;
            observe(t, y);
        }
        kernel.set_shil_scale(1.0);
    }
}

#[cfg(test)]
mod tests {
    use crate::batch::F64;
    use crate::fxkernel::FxBatchKernel;
    use crate::lanes::LaneFormat;
    use crate::network::PhaseNetwork;
    use msropm_graph::generators;

    #[test]
    fn both_step_grids_are_pinned_over_the_paper_windows() {
        // Step counts over the paper schedule's six windows (ns), as the
        // float loop `while t < t1 { h = dt.min(t1 − t); t += h }` takes
        // them: its extra steps are slivers, and the fixed grid takes
        // `ceil((t1 − t0)/dt)` full steps.
        let windows = [0.0, 5.0, 25.0, 30.0, 35.0, 55.0, 60.0];
        let float = [
            [501, 2000, 500, 501, 2001, 501],
            [251, 1001, 251, 250, 1000, 250],
        ];
        let fixed = [
            [500, 2000, 500, 500, 2000, 500],
            [250, 1000, 250, 250, 1000, 250],
        ];
        let net = PhaseNetwork::builder(&generators::path_graph(2)).build();
        for (k, dt) in [0.01, 0.02].into_iter().enumerate() {
            let format = *FxBatchKernel::new(&net, 1, dt).format();
            for (w, t) in windows.windows(2).enumerate() {
                let (t0, t1) = (t[0], t[1]);
                let hs: Vec<f64> = F64.steps(t0, t1, dt).collect();
                assert_eq!(hs.len(), float[k][w], "f64 over [{t0}, {t1}] at {dt}");
                let (full, last) = (((t1 - t0) / dt).ceil() as usize, hs[hs.len() - 1]);
                assert!(
                    hs.len() == full || (1e-14..1e-11).contains(&last),
                    "{last:e}"
                );
                let hs: Vec<f64> = format.steps(t0, t1, dt).collect();
                assert_eq!(hs.len(), fixed[k][w], "fixed over [{t0}, {t1}] at {dt}");
                assert!(hs.iter().all(|&h| h == dt));
            }
        }
    }
}
