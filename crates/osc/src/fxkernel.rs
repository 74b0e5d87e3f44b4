//! Fixed-point phase kernel: the Q-format integer backend behind the
//! same `drift_into` contract as [`crate::batch::BatchKernel`].
//!
//! # Why a second numeric stack
//!
//! The float kernels have plateaued: `sin_fast` already vectorizes the
//! edge pass, and the next SIMD rung (explicit `f64x4`/intrinsics) is
//! blocked on stable Rust. An ASIC built from these oscillators does
//! not integrate IEEE doubles either — it accumulates *quantized phase
//! counts* in registers that wrap. This module is that machine's
//! numeric model, and it happens to also be the fastest RHS path on
//! commodity CPUs: everything in the hot loop is `i32` adds, shifts,
//! multiplies and a 4 KiB table lookup, with no polynomial in sight.
//!
//! # Hot loop: scalar, specialized by lane width
//!
//! The edge and SHIL passes do **not** auto-vectorize. Each
//! (edge, lane) loads two table entries at a data-dependent index, a
//! gather that the SSE2 baseline lacks, so the compiled passes are
//! scalar integer code (confirmed with `objdump`: no vector
//! instructions in `drift_into`). What the loop can shed is overhead
//! around that arithmetic. [`FxBatchKernel::drift_into`] therefore
//! calls one `#[inline(always)]` body with a literal lane width for the
//! widths `problems_cold_http` serving runs (1 and 2 lanes per shard)
//! and at the generic width for the rest. Rows are taken as slices and
//! zipped, and the table index is masked to its proven range, so no
//! bounds check remains per lane at any width. On a 48-node complete
//! graph this cut the cost per (edge, lane) by about 45% at one and two
//! lanes and by a third at four (2-vCPU x86-64 VM), with every phase
//! word unchanged.
//!
//! # Phase format: binary turns (Q0.32)
//!
//! A phase is an `i32` whose **unsigned** reinterpretation counts
//! `2^32`-ths of a full turn: `θ = 2π · (q as u32) / 2^32`. This is the
//! classic DDS phase-accumulator format, chosen over a literal Q3.28
//! radian format for one decisive property: **wrapping arithmetic is
//! exact arithmetic mod 2π**. Phase reduction — a `rem_euclid(TAU)`
//! with rounding error in float land — is free and exact here; overflow
//! in any intermediate sum is not a bug but the correct group
//! operation. A bonus: `m·θ` for the SHIL torque is a single
//! `wrapping_mul`, exact mod 2π for any integer order.
//!
//! # Compile-time quantization
//!
//! The integrator walks a uniform step grid (every step is exactly
//! `dt`; windows that are not an exact multiple of `dt` round their
//! step count up, mirroring the float loop's step *count* without its
//! shrunken landing step — the hardware has one clock, not a fractional
//! last cycle). That makes `dt` a compile-time constant of the kernel,
//! so every rate is folded into a per-**step** increment when the
//! kernel is built:
//!
//! ```text
//! wq   = round(dt·K_uv / 2π · 2^32)        (per edge per lane, i32)
//! bq   = round(dt·Δω_i / 2π · 2^32)        (per node per lane, i32)
//! ksq  = round(dt·Ks_i / 2π · 2^32)        (per node per lane, i32)
//! ```
//!
//! One RHS evaluation is then pure integer gather → LUT → scatter:
//! `dq_u -= (wq · sinq(q_u − q_v)) >> 30`, accumulated with wrapping
//! adds. No division, no float, no rounding mode to disagree across
//! platforms: the kernel arithmetic is bit-exact everywhere.
//!
//! # Sine: quarter-wave LUT, linear interpolation
//!
//! [`sin_turns`] returns Q1.30 (`2^30` = amplitude 1.0) from a
//! 1025-entry quarter-wave table (4 KiB, entries are
//! `round(2^30·sin(π/2·j/1024))`) with 16-bit linear interpolation.
//! Quadrant folding is branchless bit-twiddling on the turn count (the
//! symmetry is exact in this format). Max absolute error is under
//! **4e-7** of unit amplitude (interpolation curvature ~2.9e-7 +
//! fraction truncation ~2.3e-8 + table rounding 2^-31), property-tested
//! against `f64::sin` over the full wrapped range. The table is built
//! once from [`crate::fastmath::sin_fast`] — our own polynomial, not
//! libm — so its entries are identical on every platform.
//!
//! # Noise: quantized ziggurat draws
//!
//! [`FxBatchIntegrator`] draws one `f64` standard-normal deviate per
//! oscillator per step through the exact
//! [`fill_normal_batch`] stream the
//! float backend consumes (same RNG, same order — a lane's seed means
//! the same thing under either backend), then quantizes: the deviate is
//! rounded to Q16 and multiplied by a per-lane integer gain
//! `round(σ√dt/2π · 2^32 · 2^16)`, mirroring the betrusted-ec
//! ring-oscillator TRNG treatment of jitter as integer counts on a
//! phase accumulator. Trajectories are therefore bit-exact run-to-run
//! and across shard widths by the same per-lane-stream argument as the
//! float path.

use crate::fastmath::{round_half_away_any, sin_fast};
use crate::network::PhaseNetwork;
use crate::shil::Shil;
use msropm_ode::sde::fill_normal_batch;
use rand::Rng;
use std::f64::consts::{FRAC_PI_2, TAU};
use std::sync::OnceLock;

/// One full turn in phase counts: `2^32` (as f64, for quantization).
const TURN: f64 = 4_294_967_296.0;

/// Quarter-wave resolution: `2^QSIN_BITS` segments over `[0, π/2]`.
const QSIN_BITS: u32 = 10;

/// Amplitude 1.0 in the Q1.30 output format of [`sin_turns`].
pub const QSIN_ONE: i32 = 1 << 30;

/// Maximum absolute error of [`sin_turns`], as a fraction of unit
/// amplitude (documented bound; property-tested with margin).
pub const QSIN_MAX_ERR: f64 = 4e-7;

/// Quantizes an angle in radians to binary turns (wrapping mod 2π).
///
/// Exactly invertible against [`turns_to_phase`]: for every `q`,
/// `phase_to_turns(turns_to_phase(q)) == q` (the relative error of the
/// round trip is ~2^-52, far below the 0.5-count rounding threshold) —
/// the property the golden-hash test uses to recover raw phase words
/// from a solution's `f64` phases.
#[inline]
pub fn phase_to_turns(theta: f64) -> i32 {
    ((theta * (TURN / TAU)).round() as i64) as u32 as i32
}

/// The phase angle in `[0, 2π)` a turn count represents.
#[inline]
pub fn turns_to_phase(q: i32) -> f64 {
    (q as u32 as f64) * (TAU / TURN)
}

/// Quantizes a rate already multiplied by `dt` (a per-step phase
/// increment in radians) to per-step turn counts, saturating at the
/// `i32` range (reachable only for |dt·rate| ≥ π, far beyond any valid
/// configuration).
#[inline]
fn quantize_step(radians_per_step: f64) -> i32 {
    let q = (radians_per_step * (TURN / TAU)).round();
    q.clamp(i32::MIN as f64, i32::MAX as f64) as i32
}

/// Per-lane noise gain: turn counts per unit deviate, in Q16
/// (`round(σ·√dt/2π · 2^32 · 2^16)`).
#[inline]
pub fn noise_gain(sigma: f64, dt: f64) -> i64 {
    (sigma * dt.sqrt() * (TURN / TAU) * 65_536.0).round() as i64
}

/// One quantized noise increment: the deviate is rounded to Q16 and
/// folded against a [`noise_gain`] (Q16·Q16 → >>32). This is the
/// single quantization the integer noise path applies on top of the
/// shared ziggurat stream.
#[inline]
pub fn noise_increment(gain: i64, xi: f64) -> i32 {
    // `round_half_away_any` is `f64::round` bit for bit, without the
    // libm call that `round` lowers to on the SSE2 baseline (see the
    // `fastmath` docs): one call per draw in the noise apply loop.
    let xi_q16 = round_half_away_any(xi * 65_536.0) as i64;
    ((gain * xi_q16) >> 32) as i32
}

/// The quarter-wave table: `table[j] = round(2^30 · sin(π/2 · j/1024))`
/// for `j in 0..=1024`. Built from [`sin_fast`] (platform-independent);
/// `table[1024] = 2^30` exactly.
fn quarter_table() -> &'static [i32; 1025] {
    static TABLE: OnceLock<[i32; 1025]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0i32; 1025];
        for (j, slot) in t.iter_mut().enumerate() {
            let x = FRAC_PI_2 * (j as f64) / 1024.0;
            *slot = (sin_fast(x) * QSIN_ONE as f64).round() as i32;
        }
        t
    })
}

/// `sin(2π·q/2^32)` in Q1.30, via the quarter-wave LUT with 16-bit
/// linear interpolation. Branchless: quadrant folding is bit
/// arithmetic on the turn count (the format's symmetries are exact).
#[inline(always)]
fn sin_turns_core(table: &[i32; 1025], q: i32) -> i32 {
    let u = q as u32;
    // Top bit: second half-turn → negate. Next, double into the
    // half-turn domain and fold the second quarter onto the first by
    // complement (an exact mirror up to 1 LSB of the doubled phase,
    // i.e. 2^-32 of a turn — negligible against the table step).
    let neg = -(((u >> 31) & 1) as i64);
    let v = u << 1;
    let mirror = ((v as i32) >> 31) as u32;
    let v2 = v ^ mirror;
    // 10-bit segment index + 16-bit intra-segment fraction. The fold
    // cleared the top bit of `v2`, so `j < 1024` already; the mask
    // never changes it and lets the compiler drop both bounds checks.
    let j = (v2 >> (31 - QSIN_BITS)) as usize & 1023;
    let frac = ((v2 >> 5) & 0xFFFF) as i64;
    let a = table[j] as i64;
    let b = table[j + 1] as i64;
    let s = a + (((b - a) * frac) >> 16);
    ((s ^ neg) - neg) as i32
}

/// `sin` of a phase in binary turns, Q1.30 result (see module docs for
/// the error bound).
#[inline]
pub fn sin_turns(q: i32) -> i32 {
    sin_turns_core(quarter_table(), q)
}

/// Applies [`sin_turns`] in place over a slice — the contiguous-buffer
/// shape the kernel's LUT pass runs (one table borrow hoisted out of
/// the loop; the body is straight-line integer code).
#[inline]
pub fn sin_turns_slice(qs: &mut [i32]) {
    let table = quarter_table();
    for q in qs.iter_mut() {
        *q = sin_turns_core(table, *q);
    }
}

/// The fixed-point multi-replica coupling kernel: the integer twin of
/// [`crate::batch::BatchKernel`], same SoA layout (`y[i*M + r]`), same
/// gating API, `dt` folded into every table at build time.
///
/// [`FxBatchKernel::drift_into`] honors the same three-pass
/// gather → sin → scatter contract, with one deliberate difference in
/// units: because the step size is compiled in, it writes **per-step
/// phase increments in turns** (apply with a wrapping add), not a
/// rate — the hardware-faithful formulation where an RHS evaluation
/// *is* one clock of the phase accumulator.
#[derive(Debug, Clone)]
pub struct FxBatchKernel {
    num_nodes: usize,
    replicas: usize,
    dt: f64,
    edge_u: Vec<u32>,
    edge_v: Vec<u32>,
    /// Ungated per-step weight lanes `[e*M + r]` (quantized `dt·K`).
    base_wq: Vec<i32>,
    /// Effective weight lanes; `0` encodes a gated edge.
    wq: Vec<i32>,
    /// Bookkeeping mirror of the gating (a weight may quantize to 0).
    edge_on: Vec<bool>,
    node_enabled: Vec<bool>,
    /// Per-(node, replica) per-step bias increments `[i*M + r]`.
    bias_q: Vec<i32>,
    /// Dense per-(node, replica) SHIL table: integer order, phase in
    /// turns, per-step strength in turn counts.
    shil_m: Vec<i32>,
    shil_psi_q: Vec<i32>,
    shil_ks_q: Vec<i32>,
    /// Per-replica SHIL ramp scale in Q16 (`65536` = 1.0).
    shil_scale_q16: Vec<i32>,
    /// Per-(node, replica) noise gains (Q16 turn counts per deviate;
    /// 0 for defective rings).
    noise_gain: Vec<i64>,
    /// Per-replica noise amplitude σ (the value the gain lanes encode).
    noise_amp: Vec<f64>,
    couplings_on: bool,
    shil_on: bool,
}

impl FxBatchKernel {
    /// Builds a homogeneous fixed-point kernel over `net`'s topology:
    /// every lane takes the network's current weights, gating, offsets,
    /// SHIL assignments and noise amplitude, quantized at `dt` per
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` or `dt` is not positive and finite.
    pub fn new(net: &PhaseNetwork, replicas: usize, dt: f64) -> Self {
        assert!(replicas > 0, "need at least one replica");
        Self::build(net, replicas, None, dt)
    }

    /// Heterogeneous variant: lane `r` quantizes the weights, gating,
    /// noise, offsets and SHIL assignments of `nets[r]`, under the same
    /// topology/enable agreement rules as
    /// [`crate::batch::BatchKernel::from_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if `nets` is empty, the networks disagree on topology,
    /// node enables or the global enables, or `dt` is invalid.
    pub fn from_lanes(nets: &[PhaseNetwork], dt: f64) -> Self {
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
        Self::build(base, nets.len(), Some(nets), dt)
    }

    fn build(net: &PhaseNetwork, replicas: usize, lanes: Option<&[PhaseNetwork]>, dt: f64) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "step size must be positive");
        let n = net.num_nodes();
        let m = net.num_edges();
        let lane_net = |r: usize| lanes.map_or(net, |nets| &nets[r]);
        let mut edge_u = Vec::with_capacity(m);
        let mut edge_v = Vec::with_capacity(m);
        for &(u, v) in net.edge_endpoints() {
            edge_u.push(u);
            edge_v.push(v);
        }
        let mut base_wq = vec![0i32; m * replicas];
        for e in 0..m {
            for r in 0..replicas {
                base_wq[e * replicas + r] = quantize_step(dt * lane_net(r).edge_weight(e));
            }
        }
        let node_enabled: Vec<bool> = (0..n).map(|i| net.node_enabled(i)).collect();
        let mut kernel = FxBatchKernel {
            num_nodes: n,
            replicas,
            dt,
            edge_u,
            edge_v,
            base_wq,
            wq: vec![0; m * replicas],
            edge_on: vec![false; m * replicas],
            node_enabled,
            bias_q: vec![0; n * replicas],
            shil_m: vec![0; n * replicas],
            shil_psi_q: vec![0; n * replicas],
            shil_ks_q: vec![0; n * replicas],
            shil_scale_q16: vec![65_536; replicas],
            noise_gain: vec![0; n * replicas],
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
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    #[inline(always)]
    pub fn idx(&self, node: usize, replica: usize) -> usize {
        assert!(replica < self.replicas, "replica out of range");
        node * self.replicas + replica
    }

    /// The step size every rate table was quantized at.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Gates one coupling of one replica (its `P_EN` bit); an enabled
    /// edge conducts at that replica's quantized lane weight.
    ///
    /// # Panics
    ///
    /// Panics if `edge` or `replica` is out of range.
    pub fn set_edge_enabled(&mut self, edge: usize, replica: usize, on: bool) {
        assert!(replica < self.replicas, "replica out of range");
        let (u, v) = (self.edge_u[edge] as usize, self.edge_v[edge] as usize);
        let live = on && self.node_enabled[u] && self.node_enabled[v];
        let lane = edge * self.replicas + replica;
        self.edge_on[lane] = live;
        self.wq[lane] = if live { self.base_wq[lane] } else { 0 };
    }

    /// Returns `true` if `edge` conducts for `replica`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` or `replica` is out of range.
    pub fn edge_enabled(&self, edge: usize, replica: usize) -> bool {
        assert!(replica < self.replicas, "replica out of range");
        self.edge_on[edge * self.replicas + replica]
    }

    /// Raises every replica's `P_EN` on every edge (defective rings'
    /// edges stay dead regardless).
    pub fn enable_all_edges(&mut self) {
        for e in 0..self.edge_u.len() {
            for r in 0..self.replicas {
                self.set_edge_enabled(e, r, true);
            }
        }
    }

    /// Sets the frequency offset of node `i` in `replica` (radians per
    /// unit time; quantized to per-step turn counts). Defective rings
    /// stay 0.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `replica` is out of range.
    pub fn set_bias(&mut self, node: usize, replica: usize, delta_omega: f64) {
        assert!(replica < self.replicas, "replica out of range");
        let v = if self.node_enabled[node] {
            quantize_step(self.dt * delta_omega)
        } else {
            0
        };
        self.bias_q[node * self.replicas + replica] = v;
    }

    /// Per-step bias increment of node `i` in `replica`, in turn counts
    /// (for the mixed-reinit drift loop that advances lanes by hand).
    ///
    /// # Panics
    ///
    /// Panics if `node` or `replica` is out of range.
    pub fn bias_step_of(&self, node: usize, replica: usize) -> i32 {
        assert!(replica < self.replicas, "replica out of range");
        self.bias_q[node * self.replicas + replica]
    }

    /// Assigns (or clears) the SHIL source of node `i` in `replica`,
    /// quantizing its phase to turns and its strength to per-step turn
    /// counts. Defective rings keep strength 0.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `replica` is out of range.
    pub fn set_shil(&mut self, node: usize, replica: usize, shil: Option<Shil>) {
        assert!(replica < self.replicas, "replica out of range");
        let k = node * self.replicas + replica;
        match shil {
            Some(s) if self.node_enabled[node] => {
                self.shil_m[k] = s.order() as i32;
                self.shil_psi_q[k] = phase_to_turns(s.phase());
                self.shil_ks_q[k] = quantize_step(self.dt * s.strength());
            }
            _ => {
                self.shil_m[k] = 0;
                self.shil_psi_q[k] = 0;
                self.shil_ks_q[k] = 0;
            }
        }
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

    /// Scales every replica's SHIL strengths at evaluation time (the
    /// OIM ramp), quantized to Q16.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative or non-finite.
    pub fn set_shil_scale(&mut self, scale: f64) {
        for r in 0..self.replicas {
            self.set_lane_shil_scale(r, scale);
        }
    }

    /// Scales one replica's SHIL strengths at evaluation time (Q16).
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
        self.shil_scale_q16[replica] = (scale * 65_536.0).round() as i32;
    }

    /// Sets the white-noise amplitude σ of every replica.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn set_noise_amplitude(&mut self, sigma: f64) {
        for r in 0..self.replicas {
            self.set_lane_noise_amplitude(r, sigma);
        }
    }

    /// Sets the white-noise amplitude σ of one replica (its quantized
    /// gain lane); defective rings stay at 0.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range or `sigma < 0`.
    pub fn set_lane_noise_amplitude(&mut self, replica: usize, sigma: f64) {
        assert!(sigma >= 0.0, "noise amplitude must be non-negative");
        assert!(replica < self.replicas, "replica out of range");
        self.noise_amp[replica] = sigma;
        let gain = noise_gain(sigma, self.dt);
        for i in 0..self.num_nodes {
            self.noise_gain[i * self.replicas + replica] =
                if self.node_enabled[i] { gain } else { 0 };
        }
    }

    /// Noise amplitude σ of replica 0.
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

    /// Writes the interleaved **per-step phase increments** (turn
    /// counts) into `dq`. Apply with `y[k] = y[k].wrapping_add(dq[k])`.
    ///
    /// Unlike the float kernel's three-pass gather → `sin_slice` →
    /// scatter shape, both passes here are **fused**: each
    /// (edge, replica) does gather, LUT sine and scatter in one step,
    /// and each (node, replica) of the SHIL pass likewise. The LUT sine
    /// is two scalar table loads either way, so staging arguments
    /// through a buffer would only add memory traffic (a two-pass form
    /// measured 1.3–1.8× slower). `scratch` is never touched; it keeps
    /// the call shape of [`crate::batch::BatchKernel::drift_into`].
    /// Every accumulation is a wrapping integer add, so visiting order
    /// cannot change a bit of the result.
    ///
    /// # Panics
    ///
    /// Panics if `y`/`dq` lengths differ from
    /// [`FxBatchKernel::state_len`].
    pub fn drift_into(&self, y: &[i32], dq: &mut [i32], scratch: &mut Vec<i32>) {
        assert_eq!(y.len(), self.state_len(), "phase vector size mismatch");
        assert_eq!(dq.len(), self.state_len(), "increment vector size mismatch");
        let _ = scratch;
        dq.copy_from_slice(&self.bias_q);
        // Literal lane widths for the shards of 2–4-lane serving jobs
        // (1 or 2 lanes each): with `rr` a constant the per-lane loops
        // unroll flat.
        match self.replicas {
            1 => self.drift_lanes(1, y, dq),
            2 => self.drift_lanes(2, y, dq),
            rr => self.drift_lanes(rr, y, dq),
        }
    }

    /// The body of [`FxBatchKernel::drift_into`] at lane width `rr`
    /// (`== self.replicas`), inlined into each width's call site.
    #[inline(always)]
    fn drift_lanes(&self, rr: usize, y: &[i32], dq: &mut [i32]) {
        let table = quarter_table();
        if self.couplings_on {
            // Per edge: wrapped phase difference → LUT sine → scatter
            // `±(wq·s)>>30` to both endpoints' rows.
            let ends = self.edge_u.iter().zip(&self.edge_v);
            for ((&u, &v), wrow) in ends.zip(self.wq.chunks_exact(rr)) {
                let (u, v) = (u as usize * rr, v as usize * rr);
                let (yu, yv) = (&y[u..u + rr], &y[v..v + rr]);
                let [du, dv] = dq
                    .get_disjoint_mut([u..u + rr, v..v + rr])
                    .expect("a simple graph has no self-loops");
                let lanes = wrow.iter().zip(yu).zip(yv).zip(du).zip(dv);
                for ((((&w, &a), &b), du), dv) in lanes {
                    let s = sin_turns_core(table, a.wrapping_sub(b));
                    let c = ((w as i64 * s as i64) >> 30) as i32;
                    *du = du.wrapping_sub(c);
                    *dv = dv.wrapping_add(c);
                }
            }
        }
        if self.shil_on {
            // Dense per-node pass: arg = m·θ − ψ (exact mod 2π by
            // construction), LUT sine, torque apply.
            let rows = y
                .chunks_exact(rr)
                .zip(dq.chunks_exact_mut(rr))
                .zip(self.shil_m.chunks_exact(rr))
                .zip(self.shil_psi_q.chunks_exact(rr))
                .zip(self.shil_ks_q.chunks_exact(rr));
            for ((((yrow, drow), mrow), psirow), ksrow) in rows {
                let lanes = yrow
                    .iter()
                    .zip(drow)
                    .zip(mrow)
                    .zip(psirow)
                    .zip(ksrow)
                    .zip(&self.shil_scale_q16);
                for (((((&q, d), &m), &psi), &ks), &scale) in lanes {
                    let s = sin_turns_core(table, q.wrapping_mul(m).wrapping_sub(psi));
                    let ks = (ks as i64 * scale as i64) >> 16;
                    let torque = ((ks * s as i64) >> 30) as i32;
                    *d = d.wrapping_sub(torque);
                }
            }
        }
    }

    /// Number of integrator steps the uniform grid takes to cover
    /// `[t0, t1]` at this kernel's `dt`: the float loop's step *count*
    /// (`ceil((t1−t0)/dt)`), every step a full `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0`.
    pub fn steps_for(&self, t0: f64, t1: f64) -> usize {
        assert!(t1 >= t0, "t1 must be >= t0");
        ((t1 - t0) / self.dt).ceil() as usize
    }
}

/// Reusable fixed-point Euler–Maruyama driver for [`FxBatchKernel`]s:
/// one RNG per replica, per-step increments applied with wrapping adds,
/// noise via quantized ziggurat draws (see the module docs).
/// Allocation-free after the first step.
#[derive(Debug, Clone, Default)]
pub struct FxBatchIntegrator {
    delta: Vec<i32>,
    scratch: Vec<i32>,
    noise: Vec<f64>,
}

impl FxBatchIntegrator {
    /// Creates an integrator with empty (lazily sized) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// One fixed-point Euler–Maruyama step for all replicas:
    /// `q += drift_q + round(gain·ξ)`, everything wrapping.
    ///
    /// # Panics
    ///
    /// Panics if `rngs.len() != kernel.num_replicas()`.
    pub fn step<R: Rng>(&mut self, kernel: &FxBatchKernel, y: &mut [i32], rngs: &mut [R]) {
        assert_eq!(
            rngs.len(),
            kernel.num_replicas(),
            "need exactly one RNG per replica"
        );
        let len = kernel.state_len();
        self.delta.resize(len, 0);
        self.noise.resize(len, 0.0);
        kernel.drift_into(y, &mut self.delta, &mut self.scratch);
        // The same per-replica deviate streams as the float backend:
        // one draw per oscillator per step, σ = 0 lanes included.
        fill_normal_batch(&mut self.noise, rngs);
        let terms = self.delta.iter().zip(&self.noise).zip(&kernel.noise_gain);
        for (q, ((&d, &xi), &gain)) in y.iter_mut().zip(terms) {
            *q = q.wrapping_add(d).wrapping_add(noise_increment(gain, xi));
        }
    }

    /// Integrates all replicas over `[t0, t1]` on the uniform step grid
    /// (see [`FxBatchKernel::steps_for`]).
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0`, or `dt` differs from the kernel's compiled
    /// step size (the rate tables would be stale).
    pub fn integrate<R: Rng>(
        &mut self,
        kernel: &FxBatchKernel,
        y: &mut [i32],
        t0: f64,
        t1: f64,
        dt: f64,
        rngs: &mut [R],
    ) {
        assert_eq!(
            dt.to_bits(),
            kernel.dt().to_bits(),
            "dt differs from the kernel's compiled step size"
        );
        for _ in 0..kernel.steps_for(t0, t1) {
            self.step(kernel, y, rngs);
        }
    }

    /// Integrates `[t0, t1]` while ramping the SHIL scale of the lanes
    /// marked in `ramped`, on the same step-indexed
    /// [`RampSchedule`](crate::kernel) as the float integrators — the
    /// step sequence is exactly the plain [`FxBatchIntegrator::integrate`]
    /// sequence, so ramped and plain lanes mix freely. All scales are
    /// restored to 1 on return.
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0`, `dt` differs from the kernel's compiled
    /// step, `ramped.len()` differs from the replica count, or the ramp
    /// returns a negative or non-finite scale.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_ramped_lanes<R: Rng>(
        &mut self,
        kernel: &mut FxBatchKernel,
        y: &mut [i32],
        t0: f64,
        t1: f64,
        dt: f64,
        rngs: &mut [R],
        ramp: impl Fn(f64) -> f64,
        ramped: &[bool],
    ) {
        assert_eq!(
            dt.to_bits(),
            kernel.dt().to_bits(),
            "dt differs from the kernel's compiled step size"
        );
        assert_eq!(
            ramped.len(),
            kernel.num_replicas(),
            "need one ramp flag per replica"
        );
        let schedule = crate::kernel::RampSchedule::new(t0, t1, dt);
        let mut cur_seg = usize::MAX;
        for step in 0..kernel.steps_for(t0, t1) {
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
            self.step(kernel, y, rngs);
        }
        kernel.set_shil_scale(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msropm_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lut_sine_within_stated_bound_over_full_range() {
        // Dense sweep of the full wrapped range: every 2^16-th count
        // plus the exact segment boundaries and quadrant seams.
        let mut worst = 0.0f64;
        let mut check = |q: i32| {
            let got = sin_turns(q) as f64 / QSIN_ONE as f64;
            let want = turns_to_phase(q).sin();
            worst = worst.max((got - want).abs());
        };
        let mut u: u32 = 0;
        loop {
            check(u as i32);
            let (next, wrapped) = u.overflowing_add(1 << 16);
            if wrapped {
                break;
            }
            u = next;
        }
        for j in 0..4096u32 {
            check((j << 20) as i32); // every interpolation segment start
        }
        for q in [0i32, i32::MIN, i32::MAX, 1 << 30, -(1 << 30), -1, 1] {
            check(q);
        }
        assert!(worst < QSIN_MAX_ERR, "max LUT sine error {worst:e}");
    }

    #[test]
    fn lut_sine_is_odd_and_exact_at_cardinal_points() {
        // Exact zeros at 0 and half turn; the peaks sit within the
        // 1-count deficit the complement fold costs at the very top of
        // the quarter wave (still ~1e-9 of amplitude, far inside the
        // stated bound). Odd symmetry holds to within one interpolation
        // LSB for the same reason.
        assert_eq!(sin_turns(0), 0);
        assert_eq!(sin_turns(i32::MIN), 0); // half turn
        assert!((QSIN_ONE - sin_turns(1 << 30)) <= 1); // quarter turn
        assert!((QSIN_ONE + sin_turns(-(1 << 30))) <= 1); // three quarters
        for q in [1, 77, 1 << 20, (1 << 30) - 3, 0x1234_5678] {
            let asym = (sin_turns(-q) as i64 + sin_turns(q) as i64).abs();
            assert!(asym <= 32, "odd symmetry off by {asym} counts at {q}");
        }
    }

    #[test]
    fn phase_round_trip_is_exact() {
        // phase_to_turns(turns_to_phase(q)) == q for every word the
        // solver can produce — the golden-hash recovery property.
        let mut q: u32 = 0;
        loop {
            let w = q as i32;
            assert_eq!(phase_to_turns(turns_to_phase(w)), w, "round trip at {q:#x}");
            let (next, wrapped) = q.overflowing_add(0x0001_0001); // odd stride hits both halves
            if wrapped {
                break;
            }
            q = next;
        }
        for w in [0i32, 1, -1, i32::MIN, i32::MAX, 1 << 30, -(1 << 28)] {
            assert_eq!(phase_to_turns(turns_to_phase(w)), w);
        }
    }

    #[test]
    fn wrapping_subtraction_is_phase_difference() {
        // A difference across the wrap point equals the principal
        // difference: (small) - (almost a full turn) is a small
        // positive angle, not a huge negative one.
        let a = phase_to_turns(0.01);
        let b = phase_to_turns(TAU - 0.01);
        let d = a.wrapping_sub(b);
        assert!((turns_to_phase(d) - 0.02).abs() < 1e-8);
    }

    #[test]
    fn fx_drift_matches_float_kernel_within_quantization_bound() {
        // The integer drift (converted back to radians) agrees with the
        // float kernel's dt-scaled drift to within the stated
        // quantization budget, on a gated heterogeneous graph.
        use crate::batch::BatchKernel;
        let g = generators::kings_graph(5, 5);
        let mut net = PhaseNetwork::builder(&g)
            .coupling_strength(0.9)
            .noise(0.2)
            .build();
        net.set_shil_all(Shil::order2(1.3, 0.4));
        net.set_shil_enabled(true);
        let dt = 0.01;
        let rr = 3;
        let fk = BatchKernel::new(&net, rr);
        let mut xk = FxBatchKernel::new(&net, rr, dt);
        let mut fk = fk;
        // Gate a few (edge, lane) pairs on both kernels identically.
        for (e, r) in [(0usize, 0usize), (5, 1), (17, 2), (30, 0)] {
            fk.set_edge_enabled(e, r, false);
            xk.set_edge_enabled(e, r, false);
        }
        let mut rng = StdRng::seed_from_u64(77);
        let n = net.num_nodes();
        let mut yf = vec![0.0f64; n * rr];
        let mut yq = vec![0i32; n * rr];
        for (f, q) in yf.iter_mut().zip(yq.iter_mut()) {
            let theta = rng.gen::<f64>() * TAU;
            *q = phase_to_turns(theta);
            // Evaluate the float kernel at the *quantized* phase so the
            // comparison isolates arithmetic error from input rounding.
            *f = turns_to_phase(*q);
        }
        let mut df = vec![0.0f64; n * rr];
        let mut dq = vec![0i32; n * rr];
        fk.drift_into(&yf, &mut df, &mut Vec::new());
        xk.drift_into(&yq, &mut dq, &mut Vec::new());
        // Budget per element: LUT error (4e-7 of each |dt·w| term) plus
        // one count of rounding per accumulated term (weights, bias,
        // SHIL, product floors).
        let count = TAU / TURN;
        for i in 0..n {
            for r in 0..rr {
                let k = i * rr + r;
                let got = {
                    // dq is a wrapped increment; |true value| << half a
                    // turn here, so the signed word is the value.
                    dq[k] as f64 * count
                };
                let want = dt * df[k];
                let terms = (g.degree(msropm_graph::NodeId::new(i)) + 2) as f64;
                let budget = 4e-7 * dt * (terms * 0.9 + 0.4) + 2.0 * terms * count;
                assert!(
                    (got - want).abs() < budget,
                    "node {i} lane {r}: fx {got:e} vs float {want:e} (budget {budget:e})"
                );
            }
        }
    }

    #[test]
    fn fx_batch_lanes_are_bit_identical_to_single_replica_runs() {
        // The SoA sweep must be bit-exact against integrating each lane
        // alone — the same property the float batch kernel holds.
        let g = generators::kings_graph(4, 4);
        let mut net = PhaseNetwork::builder(&g)
            .coupling_strength(0.8)
            .noise(0.3)
            .build();
        net.set_shil_all(Shil::order2(0.0, 1.1));
        net.set_shil_enabled(true);
        let dt = 0.01;
        let seeds = [9u64, 10, 11];
        let rr = seeds.len();
        let n = net.num_nodes();
        let kernel = FxBatchKernel::new(&net, rr, dt);
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let mut y = vec![0i32; n * rr];
        for r in 0..rr {
            for i in 0..n {
                y[i * rr + r] = phase_to_turns(rngs[r].gen::<f64>() * TAU);
            }
        }
        FxBatchIntegrator::new().integrate(&kernel, &mut y, 0.0, 2.0, dt, &mut rngs);

        for (r, &seed) in seeds.iter().enumerate() {
            let solo_kernel = FxBatchKernel::new(&net, 1, dt);
            let mut solo_rngs = vec![StdRng::seed_from_u64(seed)];
            let mut ys = vec![0i32; n];
            for (i, slot) in ys.iter_mut().enumerate() {
                let _ = i;
                *slot = phase_to_turns(solo_rngs[0].gen::<f64>() * TAU);
            }
            FxBatchIntegrator::new().integrate(&solo_kernel, &mut ys, 0.0, 2.0, dt, &mut solo_rngs);
            for i in 0..n {
                assert_eq!(y[i * rr + r], ys[i], "node {i} lane {r} diverged");
            }
        }
    }

    #[test]
    fn fx_run_is_reproducible_and_stays_near_float_run() {
        // Same seed twice -> identical words; and a short noiseless
        // anneal stays within the accumulated quantization drift of the
        // float run (loose bound: error compounds through the dynamics).
        let g = generators::kings_graph(3, 3);
        let net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        let dt = 0.01;
        let kernel = FxBatchKernel::new(&net, 1, dt);
        let run = |seed: u64| {
            let mut rngs = vec![StdRng::seed_from_u64(seed)];
            let mut y = vec![0i32; net.num_nodes()];
            for slot in y.iter_mut() {
                *slot = phase_to_turns(rngs[0].gen::<f64>() * TAU);
            }
            FxBatchIntegrator::new().integrate(&kernel, &mut y, 0.0, 5.0, dt, &mut rngs);
            y
        };
        assert_eq!(run(3), run(3), "fixed-point run not reproducible");

        // Float twin from the same initial draw.
        use crate::batch::{BatchIntegrator, BatchKernel};
        let fkernel = BatchKernel::new(&net, 1);
        let mut rngs = vec![StdRng::seed_from_u64(3)];
        let mut yf = vec![0.0f64; net.num_nodes()];
        for slot in yf.iter_mut() {
            *slot = turns_to_phase(phase_to_turns(rngs[0].gen::<f64>() * TAU));
        }
        BatchIntegrator::new().integrate(&fkernel, &mut yf, 0.0, 5.0, dt, &mut rngs);
        let yq = run(3);
        for (q, f) in yq.iter().zip(&yf) {
            let dq = turns_to_phase(*q);
            let df = f.rem_euclid(TAU);
            let diff = (dq - df).abs().min(TAU - (dq - df).abs());
            assert!(diff < 2e-3, "trajectories drifted apart: {dq} vs {df}");
        }
    }

    #[test]
    fn defective_ring_is_frozen() {
        let g = generators::path_graph(3);
        let mut net = PhaseNetwork::builder(&g)
            .coupling_strength(1.0)
            .noise(0.4)
            .build();
        net.set_shil_all(Shil::order2(0.0, 2.0));
        net.set_shil_enabled(true);
        net.set_node_enabled(1, false);
        let mut kernel = FxBatchKernel::new(&net, 1, 0.01);
        kernel.set_noise_amplitude(0.4);
        kernel.set_bias(1, 0, 3.0);
        let frozen = phase_to_turns(1.7);
        let mut y = vec![phase_to_turns(0.3), frozen, phase_to_turns(2.9)];
        let mut rngs = vec![StdRng::seed_from_u64(9)];
        FxBatchIntegrator::new().integrate(&kernel, &mut y, 0.0, 3.0, 0.01, &mut rngs);
        assert_eq!(y[1], frozen, "defective ring moved");
        assert_ne!(y[0], phase_to_turns(0.3), "live ring must feel noise/SHIL");
    }

    #[test]
    #[should_panic(expected = "one RNG per replica")]
    fn wrong_rng_count_rejected() {
        let g = generators::path_graph(2);
        let net = PhaseNetwork::builder(&g).build();
        let kernel = FxBatchKernel::new(&net, 3, 0.01);
        let mut y = vec![0i32; kernel.state_len()];
        let mut rngs = vec![StdRng::seed_from_u64(0)];
        FxBatchIntegrator::new().step(&kernel, &mut y, &mut rngs);
    }

    #[test]
    #[should_panic(expected = "compiled step size")]
    fn stale_dt_rejected() {
        let g = generators::path_graph(2);
        let net = PhaseNetwork::builder(&g).build();
        let kernel = FxBatchKernel::new(&net, 1, 0.01);
        let mut y = vec![0i32; kernel.state_len()];
        let mut rngs = vec![StdRng::seed_from_u64(0)];
        FxBatchIntegrator::new().integrate(&kernel, &mut y, 0.0, 1.0, 0.02, &mut rngs);
    }

    /// The LUT sine as written before the segment mask: the reference
    /// the kernel's bounds-check-free form must reproduce.
    fn sin_turns_reference(table: &[i32; 1025], q: i32) -> i32 {
        let u = q as u32;
        let neg = -(((u >> 31) & 1) as i64);
        let v = u << 1;
        let mirror = ((v as i32) >> 31) as u32;
        let v2 = v ^ mirror;
        let j = (v2 >> (31 - QSIN_BITS)) as usize;
        let frac = ((v2 >> 5) & 0xFFFF) as i64;
        let a = table[j] as i64;
        let b = table[j + 1] as i64;
        let s = a + (((b - a) * frac) >> 16);
        ((s ^ neg) - neg) as i32
    }

    /// The generic indexed drift loops, one body for every lane width:
    /// the bit-identity reference for [`FxBatchKernel::drift_into`].
    fn drift_reference(k: &FxBatchKernel, y: &[i32]) -> Vec<i32> {
        let table = quarter_table();
        let rr = k.replicas;
        let mut dq = k.bias_q.clone();
        if k.couplings_on {
            for e in 0..k.edge_u.len() {
                let (u, v) = (k.edge_u[e] as usize * rr, k.edge_v[e] as usize * rr);
                for r in 0..rr {
                    let s = sin_turns_reference(table, y[u + r].wrapping_sub(y[v + r]));
                    let c = ((k.wq[e * rr + r] as i64 * s as i64) >> 30) as i32;
                    dq[u + r] = dq[u + r].wrapping_sub(c);
                    dq[v + r] = dq[v + r].wrapping_add(c);
                }
            }
        }
        if k.shil_on {
            for i in 0..k.num_nodes {
                for r in 0..rr {
                    let idx = i * rr + r;
                    let arg = y[idx]
                        .wrapping_mul(k.shil_m[idx])
                        .wrapping_sub(k.shil_psi_q[idx]);
                    let s = sin_turns_reference(table, arg);
                    let ks = (k.shil_ks_q[idx] as i64 * k.shil_scale_q16[r] as i64) >> 16;
                    dq[idx] = dq[idx].wrapping_sub(((ks * s as i64) >> 30) as i32);
                }
            }
        }
        dq
    }

    /// One Euler–Maruyama step through [`drift_reference`], an indexed
    /// apply loop and libm-rounded noise quantization.
    fn step_reference<R: Rng>(k: &FxBatchKernel, y: &mut [i32], rngs: &mut [R]) {
        let delta = drift_reference(k, y);
        let mut noise = vec![0.0; y.len()];
        fill_normal_batch(&mut noise, rngs);
        for idx in 0..y.len() {
            let xi_q16 = (noise[idx] * 65_536.0).round() as i64;
            let inc = ((k.noise_gain[idx] * xi_q16) >> 32) as i32;
            y[idx] = y[idx].wrapping_add(delta[idx]).wrapping_add(inc);
        }
    }

    /// A randomized kernel: complete or sparse topology, per-lane
    /// weights (some near the saturation bound), biases, noise and SHIL
    /// sources, a defective ring now and then, random per-lane gating
    /// with one lane sometimes cut off entirely, and per-lane SHIL
    /// scales.
    fn random_kernel(lanes: usize, topology: usize, rng: &mut StdRng) -> FxBatchKernel {
        let g = match topology {
            0 => generators::complete_graph(rng.gen_range(2..20)),
            1 => generators::kings_graph(rng.gen_range(1..6), rng.gen_range(2..6)),
            _ => generators::erdos_renyi(rng.gen_range(2..30), 0.2, rng),
        };
        let n = g.num_nodes();
        let dead = (n > 2 && rng.gen_bool(0.3)).then(|| rng.gen_range(0..n));
        let nets: Vec<PhaseNetwork> = (0..lanes)
            .map(|_| {
                let mut net = PhaseNetwork::builder(&g)
                    .coupling_strength(rng.gen_range(0.0..2.0))
                    .noise(rng.gen_range(0.0..0.5))
                    .frequency_spread(rng.gen_range(0.0..0.3))
                    .build_with_spread(rng);
                for e in 0..g.num_edges() {
                    if rng.gen_bool(0.1) {
                        // Negative, and up to past the ±π-per-step
                        // saturation of `quantize_step`.
                        net.set_edge_weight(e, rng.gen_range(-400.0..400.0));
                    }
                }
                for i in 0..n {
                    if rng.gen_bool(0.8) {
                        let order = rng.gen_range(1..5);
                        let shil =
                            Shil::new(order, rng.gen::<f64>() * TAU, rng.gen_range(0.0..3.0));
                        net.set_shil_node(i, Some(shil));
                    }
                }
                if let Some(i) = dead {
                    net.set_node_enabled(i, false);
                }
                net
            })
            .collect();
        let shil_on = rng.gen_bool(0.7);
        let mut kernel = FxBatchKernel::from_lanes(&nets, 0.01);
        kernel.set_shil_enabled(shil_on);
        kernel.set_couplings_enabled(rng.gen_bool(0.9));
        let cut_lane = rng.gen_bool(0.4).then(|| rng.gen_range(0..lanes));
        for e in 0..g.num_edges() {
            for r in 0..lanes {
                if Some(r) == cut_lane || rng.gen_bool(0.3) {
                    kernel.set_edge_enabled(e, r, false);
                }
            }
        }
        for r in 0..lanes {
            kernel.set_lane_shil_scale(r, rng.gen_range(0.0..2.0));
        }
        kernel
    }

    /// Random phase words with the extremes mixed in.
    fn random_words(len: usize, rng: &mut StdRng) -> Vec<i32> {
        (0..len)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => i32::MIN,
                1 => i32::MAX,
                2 => 0,
                _ => rng.gen::<u32>() as i32,
            })
            .collect()
    }

    proptest::proptest! {
        /// Every lane-width arm of `drift_into` (1, 2 and the generic
        /// width) matches the reference loops bit for bit, and 20
        /// integrator steps match 20 reference steps.
        #[test]
        fn drift_and_step_match_reference(
            lanes in 1usize..10,
            topology in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let kernel = random_kernel(lanes, topology, &mut rng);
            let y = random_words(kernel.state_len(), &mut rng);
            let mut dq = vec![0i32; kernel.state_len()];
            kernel.drift_into(&y, &mut dq, &mut Vec::new());
            proptest::prop_assert_eq!(&dq, &drift_reference(&kernel, &y));

            let mut fast = y.clone();
            let mut slow = y;
            let mut fast_rngs: Vec<StdRng> =
                (0..lanes).map(|r| StdRng::seed_from_u64(seed ^ r as u64)).collect();
            let mut slow_rngs = fast_rngs.clone();
            let mut integrator = FxBatchIntegrator::new();
            for step in 0..20 {
                integrator.step(&kernel, &mut fast, &mut fast_rngs);
                step_reference(&kernel, &mut slow, &mut slow_rngs);
                proptest::prop_assert_eq!(&fast, &slow, "step {}", step);
            }
        }
    }

    #[test]
    fn segment_mask_never_changes_the_lut_sine() {
        // Every segment start and end, both quadrant folds, both signs.
        let table = quarter_table();
        for seg in 0..4096u32 {
            for off in [0u32, 1, 31, 32, (1 << 20) - 33, (1 << 20) - 1] {
                let q = ((seg << 20) | off) as i32;
                assert_eq!(
                    sin_turns_core(table, q),
                    sin_turns_reference(table, q),
                    "{q:#x}"
                );
            }
        }
    }

    /// Bitwise check of the shifter quantizer against the libm form.
    fn assert_q16_matches(xi: f64) {
        let y = xi * 65_536.0;
        assert_eq!(round_half_away_any(y) as i64, y.round() as i64, "{xi:e}");
    }

    #[test]
    fn deviate_quantization_matches_libm_round_bitwise() {
        // Every exact Q16 tie `(k + 1/2)/2^16` for |k| < 2^20, plus the
        // neighbouring doubles either side of it.
        for k in -(1i64 << 20) + 1..(1i64 << 20) {
            let tie = (k as f64 + 0.5) / 65_536.0;
            assert_q16_matches(tie);
            if k % 97 == 0 {
                assert_q16_matches(f64::from_bits(tie.to_bits() - 1));
                assert_q16_matches(f64::from_bits(tie.to_bits() + 1));
            }
        }
        // Signed zeros, subnormals and the libm fallback range.
        for xi in [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE,
            0.5 / 65_536.0,
            -0.5 / 65_536.0,
            3.0e10,
            -3.0e10,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_q16_matches(xi);
        }
        // Real ziggurat deviates.
        let mut rngs = vec![StdRng::seed_from_u64(0x0951)];
        let mut xs = vec![0.0; 200_000];
        fill_normal_batch(&mut xs, &mut rngs);
        let gain = noise_gain(0.5, 0.01);
        for xi in xs {
            assert_q16_matches(xi);
            let want = ((gain * (xi * 65_536.0).round() as i64) >> 32) as i32;
            assert_eq!(noise_increment(gain, xi), want, "increment {xi:e}");
        }
    }

    fn two_lane_path() -> FxBatchKernel {
        let g = generators::path_graph(2);
        FxBatchKernel::new(&PhaseNetwork::builder(&g).build(), 2, 0.01)
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
    fn bias_step_of_rejects_out_of_range_replica() {
        two_lane_path().bias_step_of(0, 2);
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
}
