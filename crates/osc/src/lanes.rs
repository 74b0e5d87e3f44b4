//! The lane-control layer both phase kernels share: one
//! [`LaneKernel`] generic over its number format.
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
//! What differs between the formats is behind [`LaneFormat`]: how one
//! value is stored, and what the gating compiles into.
//!
//! - [`F64`](crate::batch::F64) stores every value as given and
//!   compiles the gating into the live-pair/row
//!   [`Sweep`](crate::batch::Sweep) ([`crate::batch`]).
//! - [`Fixed`](crate::fxkernel::Fixed) quantizes every rate to per-step
//!   turn counts at its `dt` and compiles the gating into the effective
//!   weight lanes ([`crate::fxkernel`]).
//!
//! The drift bodies, integrators and sine code stay with their formats;
//! [`BatchKernel`](crate::batch::BatchKernel) and
//! [`FxBatchKernel`](crate::fxkernel::FxBatchKernel) are `LaneKernel`
//! at the two formats.

use crate::network::PhaseNetwork;
use crate::shil::Shil;
use std::cell::OnceCell;
use std::fmt::Debug;

/// How a [`LaneKernel`] stores its control values and what its gating
/// compiles into (see the module docs). Implemented by the two kernel
/// formats, [`F64`](crate::batch::F64) and
/// [`Fixed`](crate::fxkernel::Fixed).
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
    /// A SHIL ramp scale (finite and non-negative).
    fn scale(&self, scale: f64) -> Self::Word;
    /// A noise amplitude σ.
    fn gain(&self, sigma: f64) -> Self::Gain;
    /// Compiles `kernel`'s current gating.
    fn compile(kernel: &LaneKernel<Self>) -> Self::Gating;
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

    /// Noise amplitude σ of replica 0 (all replicas agree unless
    /// per-lane amplitudes were set — query
    /// [`LaneKernel::lane_noise_amplitude`] for a specific lane).
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
}
