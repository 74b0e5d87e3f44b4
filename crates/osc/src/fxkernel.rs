//! Fixed-point phase kernel: the Q-format integer backend behind the
//! same `drift_into` contract as [`crate::batch::BatchKernel`].
//!
//! [`FxBatchKernel`] is [`LaneKernel`] in the [`Fixed`] format, and
//! [`FxBatchIntegrator`] is [`LaneIntegrator`] in it: the lane controls,
//! their defective-ring rules and the Euler–Maruyama driver are shared
//! with the f64 kernel in [`crate::lanes`]. This module holds what is
//! fixed point's own: the quantization of every value at `dt`, the
//! gating compiled into each lane's coupling form, the LUT sine, the
//! drift body, the uniform step grid and the wrapping update.
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
//! bounds check remains per lane at any width. On the per-edge form of
//! a 48-node complete graph this cut the cost per (edge, lane) by about
//! 45% at one and two lanes and by a third at four (2-vCPU x86-64 VM),
//! with every phase word unchanged.
//!
//! # Coupling forms: per-edge and mean-field
//!
//! The gating compiles into an [`FxGating`], which picks one of two
//! coupling forms per lane:
//!
//! - **Per-edge** (every lane, unless the rule below holds): one LUT
//!   sine per conducting edge, `n(n−1)/2` of them per step on a
//!   complete graph.
//! - **Mean-field**: on a complete graph whose lane couples every pair
//!   at one weight `w`, the coupling sum factorises exactly,
//!   `Σ_j w·sin(q_j − q_i) = w·(cos q_i·S − sin q_i·C)` with
//!   `S = Σ_j sin q_j` and `C = Σ_j cos q_j`. One O(n) pass of `2n`
//!   LUT sines replaces the O(n²) sweep. This is the form number
//!   partitioning runs: it is max-cut on K_n at a uniform weight.
//!
//! A lane takes the mean-field form when the graph is complete
//! (`m == n(n−1)/2`), every ring works, every edge of the lane has the
//! same compiled weight, and `n(n−1)/2 > 2n` (n ≥ 6, comparing sine
//! counts). The rule reads only the topology, the ring enables and
//! that lane's own weights and gating, so every lane still equals its
//! one-lane run bit for bit, in any batch and at any shard width.
//!
//! The two forms round differently, so the mean-field form moved the
//! bits of fixed-point lanes on complete graphs with n ≥ 6, and only
//! those. The per-edge form floors each of the `n − 1` terms of a node
//! (`>> 30`); the mean-field form sums the Q2.60 products exactly in
//! `i128` and floors once (`>> 60`). They agree to within
//! `(n − 1)·(1 + |w|·(5ε + 2ε²)) + 1` counts, where `ε` is the LUT
//! sine's error bound [`QSIN_MAX_ERR`] (property-tested). The form is
//! named for a uniform weight; a rank-1 weighting `w_i·w_j` would fit
//! it as per-node weights on `S`, `C` and the result.
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
//! The integrator walks a uniform step grid: every step is exactly
//! `dt`, and a window that is not a multiple of `dt` takes
//! `ceil((t1 − t0)/dt)` steps — the hardware has one clock, not a
//! fractional last cycle. That is not the float loop's step count: the
//! float loop steps while `t < t1`, so where rounding leaves `t` just
//! short of a window's end it takes one more, sliver step (2e-14 to
//! 4e-12 ns), in 4 of the paper schedule's 6 windows at `dt = 0.01`.
//! Each sliver costs a full RHS evaluation plus `n·M` deviates and puts
//! the two backends' deviate streams out of step. The uniform grid makes
//! `dt` a compile-time constant of the kernel, so every rate is folded
//! into a per-**step** increment when the kernel is built:
//!
//! ```text
//! wq   = round(dt·K_uv / 2π · 2^32)        (per edge per lane, i32)
//! bq   = round(dt·Δω_i / 2π · 2^32)        (per node per lane, i32)
//! ksq  = round(dt·Ks_i / 2π · 2^32)        (per node per lane, i32)
//! ```
//!
//! One per-edge RHS evaluation is then pure integer gather → LUT →
//! scatter: `dq_u -= (wq · sinq(q_u − q_v)) >> 30`, accumulated with
//! wrapping adds. No division, no float, no rounding mode to disagree across
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
//! [`fill_normal_batch`](msropm_ode::sde::fill_normal_batch) stream the
//! float backend consumes (same RNG, same order — a lane's seed means
//! the same thing under either backend), then quantizes: the deviate is
//! rounded to Q16 and multiplied by a per-lane integer gain
//! `round(σ√dt/2π · 2^32 · 2^16)`, mirroring the betrusted-ec
//! ring-oscillator TRNG treatment of jitter as integer counts on a
//! phase accumulator. Trajectories are therefore bit-exact run-to-run
//! and across shard widths by the same per-lane-stream argument as the
//! float path.

use crate::fastmath::{round_half_away_any, sin_fast};
use crate::lanes::{LaneFormat, LaneIntegrator, LaneKernel};
use crate::network::{lane_base, PhaseNetwork};
use rand::Rng;
use std::f64::consts::{FRAC_PI_2, TAU};
use std::sync::OnceLock;

/// One full turn in phase counts: `2^32` (as f64, for quantization).
const TURN: f64 = 4_294_967_296.0;

/// Quarter-wave resolution: `2^QSIN_BITS` segments over `[0, π/2]`.
const QSIN_BITS: u32 = 10;

/// A quarter turn in phase counts: `sin(q + QUARTER_TURN) = cos q`.
const QUARTER_TURN: i32 = 1 << 30;

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
    // Past about half a turn per step (σ·√dt·|ξ| ≳ π) the product
    // leaves i64. Bits 32..64 of the wrapped product are those of the
    // exact one, so the wrap gives exactly the phase increment mod 2π.
    (gain.wrapping_mul(xi_q16) >> 32) as i32
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

/// The fixed-point [`LaneFormat`]: every rate is quantized to per-step
/// turn counts at `dt`, phases to binary turns and the SHIL scale to
/// Q16, and the gating compiles into an [`FxGating`].
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    dt: f64,
}

impl Fixed {
    /// The format quantized at step size `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    fn at(dt: f64) -> Fixed {
        assert!(dt.is_finite() && dt > 0.0, "step size must be positive");
        Fixed { dt }
    }
}

impl LaneFormat for Fixed {
    type Word = i32;
    type Gain = i64;
    type Gating = FxGating;

    fn rate(&self, per_time: f64) -> i32 {
        quantize_step(self.dt * per_time)
    }

    fn order(&self, m: u32) -> i32 {
        m as i32
    }

    fn phase(&self, theta: f64) -> i32 {
        phase_to_turns(theta)
    }

    fn radians(q: i32) -> f64 {
        turns_to_phase(q)
    }

    fn scale(&self, scale: f64) -> i32 {
        (scale * 65_536.0).round() as i32
    }

    fn gain(&self, sigma: f64) -> i64 {
        noise_gain(sigma, self.dt)
    }

    fn compile(k: &FxBatchKernel) -> FxGating {
        let lanes = k.base_weight.iter().zip(&k.edge_on);
        let mut weights: Vec<i32> = lanes.map(|(&w, &on)| if on { w } else { 0 }).collect();
        let mean_field: Vec<Option<i32>> = (0..k.replicas)
            .map(|r| mean_field_weight(k, &weights, r))
            .collect();
        for row in weights.chunks_exact_mut(k.replicas) {
            for (w, mf) in row.iter_mut().zip(&mean_field) {
                if mf.is_some() {
                    *w = 0;
                }
            }
        }
        FxGating {
            weights,
            mean_field,
        }
    }

    fn drift(k: &FxBatchKernel, y: &[i32], dq: &mut [i32], scratch: &mut Vec<i32>) {
        k.drift_into(y, dq, scratch);
    }

    /// `ceil((t1 − t0)/dt)` full steps of `dt` (the hardware clock).
    ///
    /// # Panics
    ///
    /// Panics if `dt` differs from the compiled step size (the rate
    /// tables would be stale) or `t1 < t0`.
    fn steps(&self, t0: f64, t1: f64, dt: f64) -> impl Iterator<Item = f64> + use<> {
        assert_eq!(
            dt.to_bits(),
            self.dt.to_bits(),
            "dt differs from the kernel's compiled step size"
        );
        assert!(t1 >= t0, "t1 must be >= t0");
        std::iter::repeat_n(dt, ((t1 - t0) / dt).ceil() as usize)
    }

    /// `q += d + round(gain·ξ)`, wrapping; the step size is compiled in.
    #[inline(always)]
    fn advance(q: &mut i32, d: i32, gain: i64, xi: f64, _h: f64, _sqrt_h: f64) {
        *q = q.wrapping_add(d).wrapping_add(noise_increment(gain, xi));
    }
}

/// The compiled gating of an [`FxBatchKernel`]: the coupling form each
/// lane runs (see the module docs) and the per-edge weight lanes.
#[derive(Debug, Clone)]
pub struct FxGating {
    /// Effective weight lanes `[e*M + r]`: the lane weight where the
    /// edge conducts in a per-edge lane, `0` where it is gated or the
    /// lane runs the mean-field form.
    weights: Vec<i32>,
    /// Per lane: the uniform weight a mean-field lane couples every
    /// pair at, `None` for a per-edge lane.
    mean_field: Vec<Option<i32>>,
}

/// The uniform weight lane `r` couples every pair of a complete graph
/// at, when it takes the mean-field form; `None` when it keeps the
/// per-edge sweep. `weights` are the effective weight lanes (`0` where
/// gated).
///
/// The rule reads only the topology, the ring enables (shared by every
/// lane) and lane `r`'s own weights, so a lane takes the same form in
/// any batch and its bits match its one-lane run. It needs:
///
/// - a complete graph: `m == n(n−1)/2` (the graph constructors reject
///   duplicate edges and self-loops, so the count implies K_n);
/// - every ring working;
/// - one compiled weight on every edge of lane `r`;
/// - `n(n−1)/2 > 2n`, i.e. `n ≥ 6`: the per-edge sweep's sine count
///   above the mean-field form's.
fn mean_field_weight(k: &FxBatchKernel, weights: &[i32], r: usize) -> Option<i32> {
    let n = k.num_nodes;
    let m = k.edge_u.len();
    let complete = n >= 6 && m == n * (n - 1) / 2;
    if !complete || !k.node_enabled.iter().all(|&on| on) {
        return None;
    }
    let w = weights[r];
    let mut lane = weights.iter().skip(r).step_by(k.replicas);
    lane.all(|&x| x == w).then_some(w)
}

/// The fixed-point multi-replica coupling kernel: a [`LaneKernel`] in
/// the [`Fixed`] format, the integer twin of
/// [`crate::batch::BatchKernel`] — same SoA layout (`y[i*M + r]`), same
/// control API, `dt` folded into every table.
///
/// Because the step size is compiled in, [`FxBatchKernel::drift_into`]
/// writes **per-step phase increments in turns**, not a rate: an RHS
/// evaluation *is* one clock of the phase accumulator.
pub type FxBatchKernel = LaneKernel<Fixed>;

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
        LaneKernel::build(Fixed::at(dt), net, replicas, None)
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
        let base = lane_base(nets);
        LaneKernel::build(Fixed::at(dt), base, nets.len(), Some(nets))
    }

    /// The step size every rate table was quantized at.
    pub fn dt(&self) -> f64 {
        self.format.dt
    }

    /// Writes the interleaved **per-step phase increments** (turn
    /// counts) into `dq`. Apply with `y[k] = y[k].wrapping_add(dq[k])`.
    ///
    /// Unlike the float kernel's three-pass gather → `sin_slice` →
    /// scatter shape, the per-edge and SHIL passes here are **fused**:
    /// each (edge, replica) does gather, LUT sine and scatter in one
    /// step, and each (node, replica) of the SHIL pass likewise. The LUT
    /// sine is two scalar table loads either way, so staging arguments
    /// through a buffer would only add memory traffic (a two-pass form
    /// measured 1.3–1.8× slower). The mean-field lanes (see the module
    /// docs) keep each node's sine and cosine in `scratch` between their
    /// two passes. Every accumulation is a wrapping integer add, so
    /// visiting order cannot change a bit of the result.
    ///
    /// # Panics
    ///
    /// Panics if `y`/`dq` lengths differ from
    /// [`FxBatchKernel::state_len`].
    pub fn drift_into(&self, y: &[i32], dq: &mut [i32], scratch: &mut Vec<i32>) {
        assert_eq!(y.len(), self.state_len(), "phase vector size mismatch");
        assert_eq!(dq.len(), self.state_len(), "increment vector size mismatch");
        dq.copy_from_slice(&self.bias);
        // Literal lane widths for the shards of 2–4-lane serving jobs
        // (1 or 2 lanes each): with `rr` a constant the per-lane loops
        // unroll flat.
        match self.replicas {
            1 => self.drift_lanes(1, y, dq, scratch),
            2 => self.drift_lanes(2, y, dq, scratch),
            rr => self.drift_lanes(rr, y, dq, scratch),
        }
    }

    /// The body of [`FxBatchKernel::drift_into`] at lane width `rr`
    /// (`== self.replicas`), inlined into each width's call site.
    #[inline(always)]
    fn drift_lanes(&self, rr: usize, y: &[i32], dq: &mut [i32], trig: &mut Vec<i32>) {
        let table = quarter_table();
        if self.couplings_on {
            let gating = self.gating();
            if gating.mean_field.contains(&None) {
                // Per edge: wrapped phase difference → LUT sine → scatter
                // `±(wq·s)>>30` to both endpoints' rows. Mean-field lanes
                // hold weight 0 here and add exactly nothing.
                let ends = self.edge_u.iter().zip(&self.edge_v);
                for ((&u, &v), wrow) in ends.zip(gating.weights.chunks_exact(rr)) {
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
            for (r, &w) in gating.mean_field.iter().enumerate() {
                if let Some(w) = w {
                    mean_field_lane(table, w, rr, r, y, dq, trig);
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
                .zip(self.shil_psi.chunks_exact(rr))
                .zip(self.shil_ks.chunks_exact(rr));
            for ((((yrow, drow), mrow), psirow), ksrow) in rows {
                let lanes = yrow
                    .iter()
                    .zip(drow)
                    .zip(mrow)
                    .zip(psirow)
                    .zip(ksrow)
                    .zip(&self.shil_scale);
                for (((((&q, d), &m), &psi), &ks), &scale) in lanes {
                    let s = sin_turns_core(table, q.wrapping_mul(m).wrapping_sub(psi));
                    let ks = (ks as i64 * scale as i64) >> 16;
                    let torque = ((ks * s as i64) >> 30) as i32;
                    *d = d.wrapping_sub(torque);
                }
            }
        }
    }
}

/// Adds lane `r`'s mean-field coupling at uniform weight `w` to `dq`:
/// `Σ_j w·sin(q_j − q_i) = w·(cos q_i·S − sin q_i·C)` with
/// `S = Σ_j sin q_j` and `C = Σ_j cos q_j`, in one O(n) pass plus one
/// to apply. `trig` keeps each node's LUT sine and cosine between the
/// two passes.
///
/// `|S|, |C| ≤ n·2^30`, so the Q2.60 products are formed in `i128`,
/// and the one final `as i32` wraps as the per-edge form's wrapping
/// adds do. The `j = i` term cancels exactly: `cos q_i·sin q_i −
/// sin q_i·cos q_i` is 0 in integers.
#[inline(always)]
fn mean_field_lane(
    table: &[i32; 1025],
    w: i32,
    rr: usize,
    r: usize,
    y: &[i32],
    dq: &mut [i32],
    trig: &mut Vec<i32>,
) {
    let n = y.len() / rr;
    trig.resize(2 * n, 0);
    let (sin, cos) = trig.split_at_mut(n);
    let (mut sum_sin, mut sum_cos) = (0i64, 0i64);
    let lane = y.iter().skip(r).step_by(rr);
    for ((&q, s), c) in lane.zip(sin.iter_mut()).zip(cos.iter_mut()) {
        *s = sin_turns_core(table, q);
        *c = sin_turns_core(table, q.wrapping_add(QUARTER_TURN));
        sum_sin += *s as i64;
        sum_cos += *c as i64;
    }
    let (sum_sin, sum_cos) = (sum_sin as i128, sum_cos as i128);
    let lane = dq.iter_mut().skip(r).step_by(rr);
    for ((d, &s), &c) in lane.zip(sin.iter()).zip(cos.iter()) {
        let coupling = c as i128 * sum_sin - s as i128 * sum_cos;
        *d = d.wrapping_add(((w as i128 * coupling) >> 60) as i32);
    }
}

/// The reusable fixed-point Euler–Maruyama driver for
/// [`FxBatchKernel`]s: a [`LaneIntegrator`] in the [`Fixed`] format —
/// per-step increments applied with wrapping adds, noise via quantized
/// ziggurat draws (see the module docs).
pub type FxBatchIntegrator = LaneIntegrator<Fixed>;

impl FxBatchIntegrator {
    /// One fixed-point Euler–Maruyama step for all replicas:
    /// `q += drift_q + round(gain·ξ)`, everything wrapping.
    ///
    /// # Panics
    ///
    /// Panics if `rngs.len() != kernel.num_replicas()`.
    pub fn step<R: Rng>(&mut self, kernel: &FxBatchKernel, y: &mut [i32], rngs: &mut [R]) {
        self.step_by(kernel, y, kernel.dt(), rngs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shil::Shil;
    use msropm_graph::generators;
    use msropm_ode::sde::fill_normal_batch;
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

    /// The mean-field rule of the module docs, restated over the raw
    /// lane tables: lane `r`'s uniform weight on a complete graph of
    /// n ≥ 6 working rings, else `None`.
    fn mean_field_reference(k: &FxBatchKernel, r: usize) -> Option<i32> {
        let (n, m, rr) = (k.num_nodes, k.edge_u.len(), k.replicas);
        if n < 6 || m != n * (n - 1) / 2 || k.node_enabled.contains(&false) {
            return None;
        }
        let weight = |e: usize| {
            let lane = e * rr + r;
            if k.edge_on[lane] {
                k.base_weight[lane]
            } else {
                0
            }
        };
        let w = weight(0);
        (0..m).all(|e| weight(e) == w).then_some(w)
    }

    /// The generic indexed drift loops, one body for every lane width:
    /// the bit-identity reference for [`FxBatchKernel::drift_into`].
    fn drift_reference(k: &FxBatchKernel, y: &[i32]) -> Vec<i32> {
        drift_reference_with(k, y, |r| mean_field_reference(k, r))
    }

    /// [`drift_reference`] with lane `r` in the mean-field form at weight
    /// `w` where `mean_field(r)` is `Some(w)`, and in the per-edge form
    /// elsewhere. The mean-field branch sums `cos q_i·sin q_j −
    /// sin q_i·cos q_j` over every pair, so it also checks that the
    /// kernel's factorised O(n) sum is exact.
    fn drift_reference_with(
        k: &FxBatchKernel,
        y: &[i32],
        mean_field: impl Fn(usize) -> Option<i32>,
    ) -> Vec<i32> {
        let table = quarter_table();
        let rr = k.replicas;
        let mut dq = k.bias.clone();
        if k.couplings_on {
            for r in 0..rr {
                if let Some(w) = mean_field(r) {
                    let sin = |i: usize| sin_turns_reference(table, y[i * rr + r]) as i128;
                    let cos = |i: usize| {
                        sin_turns_reference(table, y[i * rr + r].wrapping_add(1 << 30)) as i128
                    };
                    for i in 0..k.num_nodes {
                        let coupling: i128 = (0..k.num_nodes)
                            .map(|j| cos(i) * sin(j) - sin(i) * cos(j))
                            .sum();
                        let inc = ((w as i128 * coupling) >> 60) as i32;
                        dq[i * rr + r] = dq[i * rr + r].wrapping_add(inc);
                    }
                    continue;
                }
                for e in 0..k.edge_u.len() {
                    let (u, v) = (k.edge_u[e] as usize * rr, k.edge_v[e] as usize * rr);
                    let w = if k.edge_on[e * rr + r] {
                        k.base_weight[e * rr + r]
                    } else {
                        0
                    };
                    let s = sin_turns_reference(table, y[u + r].wrapping_sub(y[v + r]));
                    let c = ((w as i64 * s as i64) >> 30) as i32;
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
                        .wrapping_sub(k.shil_psi[idx]);
                    let s = sin_turns_reference(table, arg);
                    let ks = (k.shil_ks[idx] as i64 * k.shil_scale[r] as i64) >> 16;
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
            let inc = ((k.noise[idx] * xi_q16) >> 32) as i32;
            y[idx] = y[idx].wrapping_add(delta[idx]).wrapping_add(inc);
        }
    }

    /// A randomized kernel: complete or sparse topology, per-lane
    /// weights (some near the saturation bound), biases, noise and SHIL
    /// sources, a defective ring now and then, random per-lane gating
    /// with one lane sometimes cut off entirely, and per-lane SHIL
    /// scales. Topology 3 is a complete graph whose lanes are mostly
    /// plain: one weight on every edge, sometimes near saturation, and
    /// no random gating, so they take the mean-field form.
    fn random_kernel(lanes: usize, topology: usize, rng: &mut StdRng) -> FxBatchKernel {
        let g = match topology {
            0 => generators::complete_graph(rng.gen_range(2..20)),
            1 => generators::kings_graph(rng.gen_range(1..6), rng.gen_range(2..6)),
            2 => generators::erdos_renyi(rng.gen_range(2..30), 0.2, rng),
            _ => generators::complete_graph(rng.gen_range(2..40)),
        };
        let n = g.num_nodes();
        let dead = (n > 2 && rng.gen_bool(0.3)).then(|| rng.gen_range(0..n));
        let plain: Vec<bool> = (0..lanes)
            .map(|_| topology == 3 && rng.gen_bool(0.7))
            .collect();
        let nets: Vec<PhaseNetwork> = (0..lanes)
            .map(|r| {
                let mut net = PhaseNetwork::builder(&g)
                    .coupling_strength(rng.gen_range(0.0..2.0))
                    .noise(rng.gen_range(0.0..0.5))
                    .frequency_spread(rng.gen_range(0.0..0.3))
                    .build_with_spread(rng);
                if plain[r] && rng.gen_bool(0.3) {
                    let w = rng.gen_range(-400.0..400.0);
                    for e in 0..g.num_edges() {
                        net.set_edge_weight(e, w);
                    }
                }
                for e in 0..g.num_edges() {
                    if !plain[r] && rng.gen_bool(0.1) {
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
            for (r, &plain) in plain.iter().enumerate() {
                if Some(r) == cut_lane || (!plain && rng.gen_bool(0.3)) {
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
        /// width), in both coupling forms, matches the reference loops
        /// bit for bit, and 20 integrator steps match 20 reference
        /// steps.
        #[test]
        fn drift_and_step_match_reference(
            lanes in 1usize..10,
            topology in 0usize..4,
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

    #[test]
    fn noise_increment_wraps_exactly_past_half_a_turn() {
        // `noise` 10 at dt 0.02 and beyond: the i64 product overflows,
        // and the increment must still be the exact product's bits
        // 32..64, i.e. the phase increment mod 2π.
        for sigma in [10.0, 50.0, 1e3, 1e6] {
            let gain = noise_gain(sigma, 0.02);
            for xi in [-8.5, -3.0, -0.75, 0.6, 2.5, 7.9, 1e9, -1e12] {
                let xi_q16 = (xi * 65_536.0f64).round() as i64;
                let want = ((gain as i128 * xi_q16 as i128) >> 32) as i32;
                assert_eq!(noise_increment(gain, xi), want, "σ {sigma}, ξ {xi}");
            }
        }
        let gain = noise_gain(10.0, 0.02);
        assert!(
            gain.checked_mul(4 * 65_536).is_none(),
            "ξ = 4 overflows i64"
        );
    }

    /// The one-lane kernel of lane `r` of `nets`: that lane's network,
    /// with `k`'s gating of that lane copied over.
    fn solo_kernel(nets: &[PhaseNetwork], k: &FxBatchKernel, r: usize) -> FxBatchKernel {
        let mut solo = FxBatchKernel::from_lanes(std::slice::from_ref(&nets[r]), k.dt());
        for e in 0..k.edge_u.len() {
            solo.set_edge_enabled(e, 0, k.edge_enabled(e, r));
        }
        solo
    }

    #[test]
    fn mixed_complete_graph_lanes_match_their_solo_kernels() {
        // K_5, K_6 and K_7, on both sides of the mean-field break-even.
        // Lanes: two mean-field lanes, one with an edge gated, two with
        // their own coupling strengths, one with every coupling of ring
        // 2 gated, and one with one edge reweighted. Ring enables are
        // shared by a kernel's lanes, so the defective ring runs the
        // same mix as a second batch, where no lane is mean-field.
        for n in [5usize, 6, 7] {
            let g = generators::complete_graph(n);
            for defective in [None, Some(n - 1)] {
                let mut rng = StdRng::seed_from_u64(n as u64);
                let mut nets: Vec<PhaseNetwork> = [1.0, 1.0, 1.0, 0.4, 1.7, 1.0, 1.0]
                    .into_iter()
                    .map(|k| {
                        let mut net = PhaseNetwork::builder(&g)
                            .coupling_strength(k)
                            .noise(0.3)
                            .frequency_spread(0.2)
                            .build_with_spread(&mut rng);
                        net.set_shil_all(Shil::order2(0.3, 0.8));
                        net.set_shil_enabled(true);
                        if let Some(i) = defective {
                            net.set_node_enabled(i, false);
                        }
                        net
                    })
                    .collect();
                nets[6].set_edge_weight(2, 0.5);
                let mut kernel = FxBatchKernel::from_lanes(&nets, 0.01);
                kernel.set_edge_enabled(3, 2, false);
                for e in 0..g.num_edges() {
                    if kernel.edge_u[e] == 2 || kernel.edge_v[e] == 2 {
                        kernel.set_edge_enabled(e, 5, false);
                    }
                }
                let want_mf = [true, true, false, true, true, false, false]
                    .map(|mf| mf && n >= 6 && defective.is_none());
                let got_mf: Vec<bool> = kernel
                    .gating()
                    .mean_field
                    .iter()
                    .map(Option::is_some)
                    .collect();
                assert_eq!(got_mf, want_mf, "n {n}, defective {defective:?}");

                let rr = nets.len();
                let y = random_words(kernel.state_len(), &mut rng);
                let mut dq = vec![0i32; y.len()];
                kernel.drift_into(&y, &mut dq, &mut Vec::new());
                let mut ys = y.clone();
                let seeds = |r: usize| StdRng::seed_from_u64(100 + r as u64);
                let mut rngs: Vec<StdRng> = (0..rr).map(seeds).collect();
                let mut integrator = FxBatchIntegrator::new();
                for _ in 0..50 {
                    integrator.step(&kernel, &mut ys, &mut rngs);
                }
                for r in 0..rr {
                    let solo = solo_kernel(&nets, &kernel, r);
                    let lane =
                        |v: &[i32]| v.iter().skip(r).step_by(rr).copied().collect::<Vec<_>>();
                    let mut dq1 = vec![0i32; n];
                    solo.drift_into(&lane(&y), &mut dq1, &mut Vec::new());
                    assert_eq!(lane(&dq), dq1, "drift: n {n}, lane {r}, {defective:?}");
                    let mut y1 = lane(&y);
                    let mut rng1 = vec![seeds(r)];
                    for _ in 0..50 {
                        integrator.step(&solo, &mut y1, &mut rng1);
                    }
                    assert_eq!(lane(&ys), y1, "step: n {n}, lane {r}, {defective:?}");
                }
            }
        }
    }

    #[test]
    fn mean_field_form_is_within_its_bound_of_the_per_edge_form() {
        // Each per-edge term carries up to 1 LSB of truncation and
        // |w|·ε of LUT error (ε = QSIN_MAX_ERR). Each mean-field term
        // cos q_i·sin q_j − sin q_i·cos q_j multiplies two LUT values,
        // each off by at most ε of unit amplitude: at most 4ε + 2ε²
        // per term, and 1 LSB for the one final floor. Over the n − 1
        // terms of node i, with counts as the unit:
        //   |mean field − per edge| ≤ (n − 1)·(1 + |w|·(5ε + 2ε²)) + 1.
        let eps = QSIN_MAX_ERR;
        let mut rng = StdRng::seed_from_u64(0x3f1e1d);
        let mut worst = 0.0f64;
        for trial in 0..60 {
            let n = rng.gen_range(6..120);
            let g = generators::complete_graph(n);
            let coupling = if trial % 4 == 0 {
                rng.gen_range(-400.0..400.0)
            } else {
                rng.gen_range(0.0..2.0)
            };
            let mut net = PhaseNetwork::builder(&g).build();
            for e in 0..g.num_edges() {
                net.set_edge_weight(e, coupling);
            }
            let kernel = FxBatchKernel::new(&net, 2, [0.01, 0.02][trial % 2]);
            let w = kernel.gating().mean_field[0].expect("a plain K_n lane is mean-field");
            let y = random_words(kernel.state_len(), &mut rng);
            let mut mean_field = vec![0i32; y.len()];
            kernel.drift_into(&y, &mut mean_field, &mut Vec::new());
            let per_edge = drift_reference_with(&kernel, &y, |_| None);
            let terms = (n - 1) as f64;
            let bound = terms * (1.0 + (w as f64).abs() * (5.0 * eps + 2.0 * eps * eps)) + 1.0;
            for (k, (&a, &b)) in mean_field.iter().zip(&per_edge).enumerate() {
                let diff = (a.wrapping_sub(b) as f64).abs();
                assert!(diff <= bound, "n {n}, w {w}, element {k}: {diff} > {bound}");
                worst = worst.max(diff / bound);
            }
        }
        assert!(worst > 0.0, "the two forms never differed");
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
    #[should_panic(expected = "lane 1 topology differs")]
    fn from_lanes_rejects_lanes_with_different_topology() {
        let path = PhaseNetwork::builder(&generators::path_graph(4)).build();
        let cycle = PhaseNetwork::builder(&generators::cycle_graph(4)).build();
        FxBatchKernel::from_lanes(&[path, cycle], 0.01);
    }
}
