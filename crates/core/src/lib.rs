//! # MSROPM — Multi-Stage coupled Ring-Oscillator Potts Machine
//!
//! This crate implements the primary contribution of the DATE 2025 paper
//! *"A Multi-Stage Potts Machine based on Coupled CMOS Ring Oscillators"*
//! (Gonul & Taskin): a Potts machine that represents N-valued spins with a
//! **single oscillator per vertex** by solving in multiple stages, each
//! stage binarizing oscillator phases with a differently phase-shifted
//! 2nd-order SHIL.
//!
//! ## The divide-and-color algorithm (paper §3.1–3.2)
//!
//! For 4-coloring (two stages):
//!
//! 1. **Self-anneal**: all couplings on, SHIL off — the coupled array
//!    descends the max-cut energy landscape under phase noise (20 ns).
//! 2. **Stage-1 lock**: SHIL 1 (ψ=0°) binarizes every phase to {0°, 180°};
//!    the readout of this state is a 2-partition (a max-cut solution).
//! 3. **Partition**: `P_EN` gates cut every coupling crossing the
//!    partition; `SHIL_SEL` latches which SHIL each oscillator will receive.
//! 4. **Re-randomize**: couplings and SHIL off; jitter drifts the phases
//!    apart (5 ns).
//! 5. **Second self-anneal**: intra-partition couplings on — two
//!    independent max-cuts run simultaneously (20 ns).
//! 6. **Stage-2 lock**: partition A receives SHIL 1 ({0°, 180°}),
//!    partition B receives SHIL 2 (ψ=180° → {90°, 270°}): four globally
//!    distinct phases = four colors, read out by the DFF bank (5 ns).
//!
//! [`Msropm`] generalizes this to `2^k` colors with `k` stages and
//! `2^(k−1)` phase-shifted SHILs (paper §3.2's extension).
//!
//! ## Example
//!
//! ```
//! use msropm_core::{Msropm, MsropmConfig};
//! use msropm_graph::generators::kings_graph;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let g = kings_graph(5, 5);
//! let mut machine = Msropm::new(&g, MsropmConfig::paper_default());
//! let mut rng = StdRng::seed_from_u64(7);
//! let solution = machine.solve(&mut rng);
//! let accuracy = solution.coloring.accuracy(&g);
//! assert!(accuracy > 0.8, "accuracy {accuracy}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baselines;
pub mod batch;
pub mod cache;
pub mod circuit_machine;
pub mod config;
pub mod job;
pub mod machine;
pub mod metrics;
pub mod pool;
pub mod portfolio;
pub mod power;
pub mod runner;
pub mod schedule;

pub use batch::ShardedArena;
pub use cache::{CacheStats, ProblemCache};
pub use circuit_machine::{CircuitMsropm, CircuitMsropmConfig, CircuitSolution};
pub use config::{KernelBackend, LaneConfig, MsropmConfig, ReinitMode, SweepParam, SweepSpec};
pub use job::{BatchJob, CancelToken, JobReport, RankedLane};
pub use machine::{Msropm, MsropmSolution, SolveOptions, StageRecord};
pub use metrics::{coloring_accuracy, max_cut_accuracy, search_space_label};
pub use pool::{num_cores, ShardPool};
pub use portfolio::{LaneOutcome, PortfolioReport, PortfolioRunner, RestartEvent};
pub use runner::{CutReference, ExperimentReport, ExperimentRunner, IterationOutcome};
pub use schedule::{ControlState, Schedule, ScheduleSet, Window, WindowKind};
