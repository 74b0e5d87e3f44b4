//! Phase-domain macromodel of coupled, injection-locked CMOS ring
//! oscillators — the scalable physics engine of the MSROPM reproduction.
//!
//! # Model
//!
//! Following the standard reduction for oscillator Ising machines (Wang &
//! Roychowdhury's OIM; Adler's locking equation; Neogy & Roychowdhury's SHIL
//! analysis, the paper's refs \[6\], \[19\], \[24\]), each ring oscillator is
//! represented by a single phase `θ_i` in a frame rotating at the common
//! free-running frequency. The network evolves as the Itô SDE
//!
//! ```text
//! dθ_i = [ Δω_i − Σ_j K_ij sin(θ_i − θ_j) − Ks_i sin(m θ_i − ψ_i) ] dt + σ dW_i
//! ```
//!
//! - `K_ij < 0` models the back-to-back-inverter (negative/inverting)
//!   couplings of the paper, which push neighbours **out of phase**;
//! - the `Ks sin(mθ − ψ)` term is the m-th order sub-harmonic injection
//!   lock: for `m = 2` it binarizes phases to `{ψ/2, ψ/2 + π}`, so SHIL 1
//!   (`ψ = 0`) yields {0°, 180°} and SHIL 2 (`ψ = 180°`) yields {90°, 270°},
//!   exactly the paper's Fig. 2(d);
//! - `σ dW` is white phase noise (jitter), the paper's randomization and
//!   annealing mechanism.
//!
//! The drift is the negative gradient of the energy
//!
//! ```text
//! E(θ) = −Σ_{(i,j)∈E} K_ij cos(θ_i−θ_j) − Σ_i (Ks_i/m) cos(m θ_i − ψ_i) − Σ_i Δω_i θ_i
//! ```
//!
//! so (noise aside) the network *descends* `E`; with `K_ij = −K_c` the first
//! sum is `+K_c Σ cos(θ_i−θ_j)`, the continuous relaxation of the max-cut /
//! vector-Potts Hamiltonian of paper Eq. (2)/(4).
//!
//! # Architecture: reference model vs. compiled kernels
//!
//! The crate separates *what the physics is* from *how it is stepped
//! fast*:
//!
//! - [`network::PhaseNetwork`] holds the mutable control state (`P_EN`
//!   edge gates, `SHIL_SEL` assignments, `G_EN`/`SHIL_EN`, defective
//!   rings) and implements the drift as a branchy CSR walk — the
//!   **reference** implementation that everything else is property-tested
//!   against.
//! - [`batch::BatchKernel`] is the one float kernel: M independent
//!   replicas interleaved replica-minor per node, advanced by one sweep
//!   per step over the (edge, replica) couplings that conduct (each
//!   `sin(θ_u−θ_v)` evaluated once, `±w·s` scattered to both endpoints),
//!   a dense SHIL torque table, zeroed bias/noise for defective rings,
//!   and per-replica RNGs for noise. Every lane is bit-identical to the
//!   same replica run alone at `M = 1`, which is how a single run is
//!   stepped; wider kernels are the unit every batch solve shards across
//!   the shard pool. Gating is rewritten in place at window boundaries,
//!   and the SHIL ramp is a runtime scale per lane.
//!   [`batch::BatchIntegrator`] owns all scratch, so stepping is
//!   allocation-free.
//! - [`fxkernel::FxBatchKernel`] is the fixed-point twin of the batch
//!   kernel: phases as wrapping `i32` binary turns, every rate quantized
//!   to per-step turn counts at build time, sine from a quarter-wave
//!   integer LUT — the hardware-faithful (and fastest) RHS path,
//!   selected per solve through the core crate's `KernelBackend`.
//! - [`fastmath::sin_fast`] is the branchless polynomial `sin` those
//!   kernels vectorize over (< 4e-15 absolute error), and
//!   [`fastmath::sin_slice`] applies it over a buffer at the widest
//!   vector tier the CPU runs ([`fastmath::SinTier`]).
//!
//! # Unsafe code
//!
//! The crate denies `unsafe_code` and allows it in one audited item:
//! the private dispatch inside [`fastmath::sin_slice`], which calls the
//! AVX2 or AVX-512F build of the sine loop only after a run-time CPU
//! feature check. Every other item compiles without `unsafe`.
//!
//! # Example: two negatively coupled ROSCs end up antiphase
//!
//! ```
//! use msropm_graph::generators::path_graph;
//! use msropm_osc::{PhaseNetwork, principal_phase};
//!
//! let g = path_graph(2);
//! let mut net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
//! let mut phases = vec![0.3, 0.9];
//! net.relax(&mut phases, 50.0, 1e-2);
//! let diff = principal_phase(phases[0] - phases[1]);
//! assert!((diff - std::f64::consts::PI).abs() < 1e-3);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod fastmath;
pub mod fxkernel;
pub mod landscape;
pub mod lock;
pub mod network;
pub mod shil;
pub mod waveform;

pub use batch::{BatchIntegrator, BatchKernel};
pub use fxkernel::{FxBatchIntegrator, FxBatchKernel};
pub use lock::{binarize_phases, nearest_stable_phase, order_parameter, phase_to_spin};
pub use network::{PhaseNetwork, PhaseNetworkBuilder};
pub use shil::{stage_shil_phase, Shil};
pub use waveform::{principal_phase, unwrap_phases};
