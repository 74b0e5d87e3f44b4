//! Numerical substrate for the MSROPM reproduction.
//!
//! The paper's experiments are transistor-level/phase-level *transient
//! simulations*; reproducing them in Rust requires an ODE/SDE toolbox, which
//! the thin scientific-Rust ecosystem (and this project's offline dependency
//! policy) does not provide. This crate implements the required integrators
//! from scratch:
//!
//! - [`fixed`]: the classic fourth-order Runge–Kutta method, used by the
//!   circuit-level waveform simulator (where the time step is pinned to a
//!   fraction of the ring-oscillator period) and by the phase network's
//!   deterministic relaxation.
//! - [`sde`]: the Euler–Maruyama integrator with diagonal additive noise
//!   (the reference the compiled phase kernels are checked against), and
//!   the workspace's one Gaussian sampler, [`sde::standard_normal`], with
//!   its multi-replica fill [`sde::fill_normal_batch`] — the oscillator
//!   phase noise (jitter) the paper uses to randomize initial phases.
//! - [`system`]: the `OdeSystem`/`SdeSystem` traits and the closure
//!   adapter [`system::FnSystem`].
//!
//! State vectors are plain `&[f64]` slices: every system in this workspace
//! is dense, real and first-order.
//!
//! # Example
//!
//! ```
//! use msropm_ode::{fixed::{FixedStepper, Rk4}, system::OdeSystem};
//!
//! /// dy/dt = -y, y(0) = 1  =>  y(t) = exp(-t).
//! struct Decay;
//! impl OdeSystem for Decay {
//!     fn dim(&self) -> usize { 1 }
//!     fn eval(&self, _t: f64, y: &[f64], dydt: &mut [f64]) { dydt[0] = -y[0]; }
//! }
//!
//! let mut y = vec![1.0];
//! Rk4::new().integrate(&Decay, &mut y, 0.0, 1.0, 1e-3);
//! assert!((y[0] - (-1.0f64).exp()).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod sde;
pub mod system;

pub use fixed::{FixedStepper, Rk4};
pub use sde::{EulerMaruyama, SdeStepper};
pub use system::{OdeSystem, SdeSystem};
