//! The multi-stage Potts machine itself.
//!
//! A single run integrates on a one-lane [`BatchKernel`]: the machine
//! rewrites the kernel's gating in place at every window boundary (the
//! only instants it can change) and steps each window with a reusable,
//! allocation-free [`BatchIntegrator`]. The one multi-replica entry
//! point, [`Msropm::solve_lanes`], advances many independent iterations
//! on the same kernel at wider lane counts (see [`crate::batch`]).
//!
//! [`BatchKernel`]: msropm_osc::BatchKernel

use crate::batch::ShardedArena;
use crate::config::{LaneConfig, MsropmConfig, ReinitMode};
use crate::job::CancelToken;
use crate::pool::ShardPool;
use crate::schedule::{Schedule, Window, WindowKind};
use msropm_graph::{Color, Coloring, Cut, Graph};
use msropm_osc::lock::phase_to_spin;
use msropm_osc::shil::{stage_shil_phase, Shil};
use msropm_osc::{BatchIntegrator, BatchKernel, PhaseNetwork};
use rand::Rng;
use std::f64::consts::TAU;
use std::ops::ControlFlow;

/// Readout record of one solution stage.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// 1-based stage index.
    pub stage: usize,
    /// The binarized bit of every oscillator at this stage's readout.
    pub partition: Cut,
    /// Number of *active* (still-coupled) edges cut by this stage.
    pub cut_value: usize,
    /// Number of edges that were active during this stage.
    pub active_edges: usize,
    /// Worst distance from any phase to its SHIL target at readout (rad);
    /// small values mean the SHIL window achieved discretization.
    pub max_lock_error: f64,
}

/// The outcome of one complete multi-stage run.
#[derive(Debug, Clone)]
pub struct MsropmSolution {
    /// Final color of every vertex (`2^k` colors from `k` stage bits; the
    /// stage-1 bit is the most significant).
    pub coloring: Coloring,
    /// Per-stage readout records; `stages\[0\]` is the stage-1 max-cut whose
    /// quality Fig. 5(b) tracks.
    pub stages: Vec<StageRecord>,
    /// Final oscillator phases (rad), locked at the color target phases.
    pub final_phases: Vec<f64>,
    /// Total schedule time (ns); 60 ns for 4 colors with paper timings.
    pub total_time_ns: f64,
}

impl MsropmSolution {
    /// The ideal target phase of color `c` among `num_colors = 2^k`.
    ///
    /// Derived from the stage recurrence: during stage `s` a node in group
    /// `g` locks at `π·g/2^(s−1) + π·b_s`, so after `k` stages
    /// `θ = π·b_k + Σ_{s<k} π·b_s/2^s` (`b₁` = stage-1 bit = MSB of `c`).
    /// For 4 colors this yields {0°, 180°, 90°, 270°} for colors 0–3 —
    /// exactly the paper's Fig. 2(e) assignment.
    pub fn target_phase(color: usize, num_colors: usize) -> f64 {
        assert!(num_colors.is_power_of_two() && num_colors >= 2);
        assert!(color < num_colors);
        let k = num_colors.trailing_zeros() as usize;
        let pi = std::f64::consts::PI;
        let mut theta = 0.0;
        for s in 1..=k {
            let bit = ((color >> (k - s)) & 1) as f64;
            if s == k {
                theta += bit * pi;
            } else {
                theta += bit * pi / 2f64.powi(s as i32);
            }
        }
        theta.rem_euclid(TAU)
    }
}

/// The Multi-Stage coupled Ring-Oscillator Potts Machine (paper §3).
///
/// Owns the phase-domain oscillator array plus the control state
/// (`P_EN` edge mask, per-node `SHIL_SEL` groups) and executes the
/// divide-and-color schedule. Each call to [`Msropm::solve`] performs one
/// complete multi-stage run — one "iteration" in the paper's terminology.
#[derive(Debug, Clone)]
pub struct Msropm {
    graph: Graph,
    config: MsropmConfig,
    network: PhaseNetwork,
    /// Reusable stepper scratch (drift + edge buffers), hoisted out of the
    /// per-window loop so a full run allocates nothing while integrating.
    integrator: BatchIntegrator,
}

impl Msropm {
    /// Maps `graph` onto a fresh oscillator array configured by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`MsropmConfig::validate`]).
    pub fn new(graph: &Graph, config: MsropmConfig) -> Self {
        config.validate();
        let network = config.build_network(graph);
        Msropm {
            graph: graph.clone(),
            config,
            network,
            integrator: BatchIntegrator::new(),
        }
    }

    /// Like [`Msropm::new`] but samples per-oscillator frequency offsets
    /// (process variation) from `rng`.
    pub fn with_frequency_spread<R: Rng + ?Sized>(
        graph: &Graph,
        config: MsropmConfig,
        rng: &mut R,
    ) -> Self {
        config.validate();
        let network = config.build_network_with_spread(graph, rng);
        Msropm {
            graph: graph.clone(),
            config,
            network,
            integrator: BatchIntegrator::new(),
        }
    }

    /// The problem graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The machine configuration.
    pub fn config(&self) -> &MsropmConfig {
        &self.config
    }

    /// The derived control schedule.
    pub fn schedule(&self) -> Schedule {
        Schedule::from_config(&self.config)
    }

    /// Marks an oscillator as defective (its per-ring `L_EN` held low):
    /// the ring freezes, exchanges no coupling, and its readout color is an
    /// arbitrary stuck value. Used for yield / fault-tolerance studies.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_oscillator_enabled(&mut self, node: usize, on: bool) {
        self.network.set_node_enabled(node, on);
    }

    /// Number of functional (enabled) oscillators.
    pub fn num_functional_oscillators(&self) -> usize {
        self.network.num_enabled_nodes()
    }

    /// Executes one complete multi-stage run.
    ///
    /// With [`KernelBackend::F64`](crate::KernelBackend::F64) the run
    /// steps a one-lane kernel (and anchors the batch engine's
    /// bit-identity contract). With
    /// [`KernelBackend::Fixed`](crate::KernelBackend::Fixed) the run
    /// executes as a one-lane fixed-point batch: one `u64` is drawn
    /// from `rng` and becomes the lane seed, so repeated solves from
    /// one RNG still explore independent trajectories and a run is
    /// reproducible from the RNG state alone.
    pub fn solve<R: Rng + ?Sized>(&mut self, rng: &mut R) -> MsropmSolution {
        if self.config.backend == crate::KernelBackend::Fixed {
            let seed = rng.gen::<u64>();
            let lanes = [crate::LaneConfig::default()];
            let mut sols = self
                .solve_lanes(&lanes, &[seed], SolveOptions::new())
                .expect("no cancel token => never None");
            return sols.pop().expect("one lane yields one solution");
        }
        self.solve_observed(rng, |_, _, _| {})
    }

    /// Executes one run, invoking `observe(t_ns, window, phases)` at every
    /// integration step — the hook used to dump Fig. 3-style waveforms.
    ///
    /// The run builds one one-lane [`BatchKernel`] from the machine's
    /// network and gates it in place at every window boundary and stage
    /// transition; the windows step on the machine's reusable
    /// integrator, so the whole multi-stage run performs no per-window
    /// heap allocation beyond the readout records it returns. The
    /// machine's own network is never modified, so an observer that
    /// panics leaves the machine as it was.
    ///
    /// # Panics
    ///
    /// Panics when the machine is configured with the fixed-point
    /// backend: the observer contract hands out per-step `&[f64]`
    /// radian phases, which only the float kernel produces. Waveform
    /// dumps of a fixed-point run are not supported; use
    /// [`Msropm::solve`] (which delegates to the batch engine) for
    /// its end-of-run readout instead.
    pub fn solve_observed<R, F>(&mut self, rng: &mut R, mut observe: F) -> MsropmSolution
    where
        R: Rng + ?Sized,
        F: FnMut(f64, &Window, &[f64]),
    {
        assert_eq!(
            self.config.backend,
            crate::KernelBackend::F64,
            "solve_observed streams f64 phase waveforms and only runs on the f64 backend"
        );
        let n = self.graph.num_nodes();
        let k = self.config.num_stages();
        let dt = self.config.dt;
        let schedule = self.schedule();
        let rngs = &mut [rng];

        // Startup: "ROSCs are initially turned on at random time instances"
        // => i.i.d. uniform phases before the first drift window.
        let mut phases = self.network.random_phases(&mut rngs[0]);
        // SHIL_SEL state: accumulated group id per node.
        let mut groups = vec![0usize; n];
        // P_EN state: all couplings initially enabled, as in the network.
        let mut kernel = BatchKernel::new(&self.network, 1);

        let mut stages = Vec::with_capacity(k);
        let mut windows = schedule.windows().iter();
        // Per-stage buffers, hoisted out of the stage loop.
        let mut stage_shils: Vec<Shil> = Vec::with_capacity(1 << (k - 1));
        let mut bits: Vec<bool> = vec![false; n];

        for stage in 1..=k {
            let num_groups = 1usize << (stage - 1);

            // ---- Randomize window (couplings off, SHIL off) ----
            let w_init = windows.next().expect("schedule has init window");
            debug_assert_eq!(w_init.kind, WindowKind::Randomize);
            kernel.set_couplings_enabled(false);
            kernel.set_shil_enabled(false);
            match self.config.reinit {
                ReinitMode::UniformRandom => {
                    phases = self.network.random_phases(&mut rngs[0]);
                    observe(w_init.t_end(), w_init, &phases);
                }
                ReinitMode::JitterDrift { sigma } => {
                    kernel.set_noise_amplitude(sigma);
                    self.integrator.integrate_observed(
                        &kernel,
                        &mut phases,
                        w_init.t_start,
                        w_init.t_end(),
                        dt,
                        rngs,
                        |t, y| observe(t, w_init, y),
                    );
                    kernel.set_noise_amplitude(self.network.noise_amplitude());
                }
            }

            // ---- Anneal window (couplings on, SHIL off) ----
            let w_anneal = windows.next().expect("schedule has anneal window");
            debug_assert_eq!(w_anneal.kind, WindowKind::Anneal);
            kernel.set_couplings_enabled(true);
            self.integrator.integrate_observed(
                &kernel,
                &mut phases,
                w_anneal.t_start,
                w_anneal.t_end(),
                dt,
                rngs,
                |t, y| observe(t, w_anneal, y),
            );

            // ---- Lock window (couplings on, SHIL on) ----
            let w_lock = windows.next().expect("schedule has lock window");
            debug_assert_eq!(w_lock.kind, WindowKind::Lock);
            stage_shils.clear();
            stage_shils.extend(
                (0..num_groups).map(|g| {
                    Shil::order2(stage_shil_phase(g, num_groups), self.config.shil_strength)
                }),
            );
            for i in 0..n {
                kernel.set_shil(i, 0, Some(stage_shils[groups[i]]));
            }
            kernel.set_shil_enabled(true);
            if self.config.shil_ramp {
                // Gradual discretization (OIM-style annealed SHIL), with
                // the observer threaded through the segmented ramp so
                // Fig. 3 waveform dumps see every step of ramped windows.
                self.integrator.integrate_ramped(
                    &mut kernel,
                    &mut phases,
                    w_lock.t_start,
                    w_lock.t_end(),
                    dt,
                    rngs,
                    |f| f,
                    &[true],
                    |t, y| observe(t, w_lock, y),
                );
            } else {
                self.integrator.integrate_observed(
                    &kernel,
                    &mut phases,
                    w_lock.t_start,
                    w_lock.t_end(),
                    dt,
                    rngs,
                    |t, y| observe(t, w_lock, y),
                );
            }

            // ---- Readout (the DFF sampling at the end of the window) ----
            for i in 0..n {
                bits[i] = phase_to_spin(phases[i], &stage_shils[groups[i]]) == 1;
            }
            let worst_lock = (0..n)
                .map(|i| {
                    let shil = &stage_shils[groups[i]];
                    msropm_osc::lock::lock_error(phases[i], shil)
                })
                .fold(0.0f64, f64::max);
            let partition = Cut::new(bits.clone());
            let mut cut_value = 0usize;
            let mut active_edges = 0usize;
            for (e, u, v) in self.graph.edges() {
                if kernel.edge_enabled(e.index(), 0) {
                    active_edges += 1;
                    if bits[u.index()] != bits[v.index()] {
                        cut_value += 1;
                    }
                }
            }
            stages.push(StageRecord {
                stage,
                partition,
                cut_value,
                active_edges,
                max_lock_error: worst_lock,
            });

            // ---- Stage transition: latch SHIL_SEL, cut crossing couplings.
            for (i, &bit) in bits.iter().enumerate() {
                groups[i] = groups[i] * 2 + usize::from(bit);
            }
            for (e, u, v) in self.graph.edges() {
                if groups[u.index()] != groups[v.index()] {
                    kernel.set_edge_enabled(e.index(), 0, false);
                }
            }
            kernel.set_shil_enabled(false);
        }

        let coloring: Coloring = groups.iter().map(|&g| Color(g as u16)).collect();
        MsropmSolution {
            coloring,
            stages,
            final_phases: phases,
            total_time_ns: schedule.total_time_ns(),
        }
    }

    /// Solves one **heterogeneous** batch — the one batch entry point:
    /// lane `i` runs the machine's configuration with `lanes[i]`'s
    /// overrides applied (see [`crate::config::LaneConfig`]), seeded by
    /// `seeds[i]`. [`SolveOptions`] picks the shard width, the scratch
    /// arena and pool to run on, and the cooperative abort checks.
    ///
    /// Lane `i` is **bit-identical** to
    /// `Msropm::new(graph, lanes[i].resolve(config)).solve(&mut
    /// StdRng::seed_from_u64(seeds[i]))` (with this machine's defective
    /// rings carried over), whatever the options: shards only partition
    /// the lane range, arenas are fully re-initialized per solve, and
    /// the abort checks fire strictly between stages, after all RNG
    /// draws of the finished stage and before any of the next (tested
    /// in `tests/lane_equivalence.rs` and `tests/batch_determinism.rs`).
    /// Returns `None` only when an abort check fired at a stage
    /// boundary.
    ///
    /// For ranked sweeps with population restarts between stages, see
    /// [`crate::portfolio::PortfolioRunner`].
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len() != seeds.len()`, a resolved lane
    /// configuration is invalid, or a shard task panicked.
    pub fn solve_lanes(
        &self,
        lanes: &[LaneConfig],
        seeds: &[u64],
        mut options: SolveOptions<'_>,
    ) -> Option<Vec<MsropmSolution>> {
        let mut scratch = ShardedArena::new();
        let arena = options.arena.take().unwrap_or(&mut scratch);
        crate::batch::solve_lanes_sharded_hooked(
            &self.graph,
            &self.config,
            &self.network,
            lanes,
            seeds,
            false,
            options.shards,
            arena,
            options.pool,
            |_, _| {
                if options.aborted() {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
    }
}

/// Options for [`Msropm::solve_lanes`]. The default is the simplest
/// strategy: one shard, solved inline on the caller's thread with
/// throwaway scratch and no abort checks.
///
/// ```
/// use msropm_core::{LaneConfig, Msropm, MsropmConfig, SolveOptions};
/// use msropm_graph::generators;
///
/// let g = generators::cycle_graph(6);
/// let m = Msropm::new(&g, MsropmConfig { dt: 0.02, ..MsropmConfig::paper_default() });
/// let lanes = vec![LaneConfig::default(); 2];
/// let sols = m
///     .solve_lanes(&lanes, &[1, 2], SolveOptions::new())
///     .expect("no abort check => never None");
/// assert_eq!(sols.len(), 2);
/// ```
pub struct SolveOptions<'a> {
    shards: usize,
    arena: Option<&'a mut ShardedArena>,
    pool: Option<&'a ShardPool>,
    cancel: Option<&'a CancelToken>,
    abort: Option<Box<dyn FnMut() -> bool + 'a>>,
}

impl Default for SolveOptions<'_> {
    fn default() -> Self {
        SolveOptions {
            shards: 1,
            arena: None,
            pool: None,
            cancel: None,
            abort: None,
        }
    }
}

impl<'a> SolveOptions<'a> {
    /// The default strategy: one inline shard, throwaway scratch, no
    /// abort checks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits the lanes into `shards` contiguous ranges, each stage of
    /// each range one task on the process-wide [`crate::pool::global`]
    /// pool. Width 1 (the default) runs inline and never touches a
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Like [`SolveOptions::shards`], on `pool` and reusing the caller's
    /// long-lived `arena` scratch.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn sharded(self, shards: usize, arena: &'a mut ShardedArena, pool: &'a ShardPool) -> Self {
        SolveOptions {
            arena: Some(arena),
            pool: Some(pool),
            ..self.shards(shards)
        }
    }

    /// Polls `cancel` at every non-final stage boundary;
    /// [`Msropm::solve_lanes`] returns `None` if it fired.
    pub fn cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Polls `abort` wherever the cancel token is polled (for example a
    /// deadline check); answering `true` abandons the run.
    pub fn abort_when(mut self, abort: impl FnMut() -> bool + 'a) -> Self {
        self.abort = Some(Box::new(abort));
        self
    }

    /// Runs the abort checks: `true` when the cancel token fired or the
    /// abort hook answered `true`.
    pub(crate) fn aborted(&mut self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
            || self.abort.as_mut().is_some_and(|abort| abort())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msropm_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    fn fast_config() -> MsropmConfig {
        // Paper timings but a coarser dt to keep unit tests quick.
        MsropmConfig {
            dt: 0.02,
            ..MsropmConfig::paper_default()
        }
    }

    #[test]
    fn target_phases_match_paper_figure2() {
        // Colors 0..3 -> 0, 180, 90, 270 degrees.
        assert!((MsropmSolution::target_phase(0, 4) - 0.0).abs() < 1e-12);
        assert!((MsropmSolution::target_phase(1, 4) - PI).abs() < 1e-12);
        assert!((MsropmSolution::target_phase(2, 4) - PI / 2.0).abs() < 1e-12);
        assert!((MsropmSolution::target_phase(3, 4) - 3.0 * PI / 2.0).abs() < 1e-12);
        // 8 colors: all distinct multiples of 45 deg.
        let mut phases: Vec<f64> = (0..8).map(|c| MsropmSolution::target_phase(c, 8)).collect();
        phases.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, p) in phases.iter().enumerate() {
            assert!((p - i as f64 * TAU / 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn solves_single_edge_perfectly() {
        let g = generators::path_graph(2);
        let mut m = Msropm::new(&g, fast_config());
        let mut rng = StdRng::seed_from_u64(1);
        let sol = m.solve(&mut rng);
        assert!(sol.coloring.is_proper(&g));
        assert_eq!(sol.stages.len(), 2);
        assert_eq!(sol.total_time_ns, 60.0);
    }

    #[test]
    fn four_colors_k4() {
        // K4 needs all four colors; the machine should find a proper
        // coloring in most runs — take best of 5 seeds.
        let g = generators::complete_graph(4);
        let cfg = fast_config();
        let mut best = 0.0f64;
        for seed in 0..5 {
            let mut m = Msropm::new(&g, cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let sol = m.solve(&mut rng);
            best = best.max(sol.coloring.accuracy(&g));
        }
        assert_eq!(best, 1.0, "K4 exact solution not found in 5 runs");
    }

    #[test]
    fn small_kings_graph_good_accuracy() {
        let g = generators::kings_graph(5, 5);
        let mut m = Msropm::new(&g, fast_config());
        let mut rng = StdRng::seed_from_u64(3);
        let mut best = 0.0f64;
        for _ in 0..5 {
            let sol = m.solve(&mut rng);
            best = best.max(sol.coloring.accuracy(&g));
        }
        assert!(best >= 0.9, "best accuracy {best} too low for 5x5 board");
    }

    #[test]
    fn stage1_records_full_graph_cut() {
        let g = generators::kings_graph(4, 4);
        let mut m = Msropm::new(&g, fast_config());
        let mut rng = StdRng::seed_from_u64(5);
        let sol = m.solve(&mut rng);
        let s1 = &sol.stages[0];
        assert_eq!(s1.active_edges, g.num_edges());
        // The recorded cut value must match recomputing from the partition.
        assert_eq!(s1.cut_value, s1.partition.cut_value(&g));
        // Stage 2 only sees intra-partition edges.
        let s2 = &sol.stages[1];
        assert_eq!(s2.active_edges, g.num_edges() - s1.cut_value);
    }

    #[test]
    fn final_phases_lock_to_color_targets() {
        let g = generators::kings_graph(3, 3);
        let mut m = Msropm::new(&g, fast_config());
        let mut rng = StdRng::seed_from_u64(8);
        let sol = m.solve(&mut rng);
        // Each oscillator's final phase must sit near the target phase of
        // its color (within noise-induced jitter around the lock point).
        for (i, (_, color)) in sol.coloring.iter().enumerate() {
            let target = MsropmSolution::target_phase(color.index(), 4);
            let p = sol.final_phases[i].rem_euclid(TAU);
            let d = (p - target).rem_euclid(TAU);
            let d = d.min(TAU - d);
            assert!(d < 0.5, "osc {i} phase {p} far from target {target}");
        }
    }

    #[test]
    fn coloring_consistent_with_stage_bits() {
        let g = generators::kings_graph(3, 3);
        let mut m = Msropm::new(&g, fast_config());
        let mut rng = StdRng::seed_from_u64(2);
        let sol = m.solve(&mut rng);
        for i in 0..g.num_nodes() {
            let b1 = usize::from(sol.stages[0].partition.side(msropm_graph::NodeId::new(i)));
            let b2 = usize::from(sol.stages[1].partition.side(msropm_graph::NodeId::new(i)));
            assert_eq!(sol.coloring.as_slice()[i].index(), b1 * 2 + b2);
        }
    }

    #[test]
    fn cross_partition_edges_always_satisfied() {
        // Stage-1 cut edges connect colors {0,1} x {2,3}: always proper.
        let g = generators::kings_graph(4, 4);
        let mut m = Msropm::new(&g, fast_config());
        let mut rng = StdRng::seed_from_u64(11);
        let sol = m.solve(&mut rng);
        let s1 = &sol.stages[0];
        for (_, u, v) in g.edges() {
            if s1.partition.side(u) != s1.partition.side(v) {
                assert_ne!(
                    sol.coloring.color(u),
                    sol.coloring.color(v),
                    "cross-partition edge ({u},{v}) miscolored"
                );
            }
        }
    }

    #[test]
    fn single_stage_machine_solves_maxcut() {
        // num_colors = 2 degenerates to a ROIM: bipartite graphs get cut
        // perfectly.
        let g = generators::grid_graph(4, 4);
        let cfg = fast_config().with_num_colors(2);
        let mut m = Msropm::new(&g, cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let mut best = 0;
        for _ in 0..5 {
            let sol = m.solve(&mut rng);
            best = best.max(sol.stages[0].cut_value);
        }
        assert_eq!(best, g.num_edges(), "grid max-cut is all edges");
    }

    #[test]
    fn eight_color_run_is_proper_on_planted_graph() {
        use msropm_graph::generators::planted_k_colorable;
        let mut rng = StdRng::seed_from_u64(21);
        let (g, _) = planted_k_colorable(24, 8, 0.6, &mut rng);
        let cfg = fast_config().with_num_colors(8);
        let mut m = Msropm::new(&g, cfg);
        let mut best = 0.0f64;
        for _ in 0..5 {
            let sol = m.solve(&mut rng);
            assert_eq!(sol.stages.len(), 3);
            assert!(sol.coloring.color_range() <= 8);
            best = best.max(sol.coloring.accuracy(&g));
        }
        assert!(best > 0.85, "8-color accuracy {best}");
    }

    #[test]
    fn observer_sees_monotone_time_and_all_windows() {
        let g = generators::path_graph(3);
        let mut m = Msropm::new(&g, fast_config());
        let mut rng = StdRng::seed_from_u64(6);
        let mut last_t = -1.0;
        let mut kinds = std::collections::HashSet::new();
        let sol = m.solve_observed(&mut rng, |t, w, phases| {
            assert!(t >= last_t - 1e-9, "time went backwards: {last_t} -> {t}");
            last_t = t;
            kinds.insert((w.stage, w.kind));
            assert_eq!(phases.len(), 3);
        });
        assert!((last_t - 60.0).abs() < 1e-9);
        assert_eq!(kinds.len(), 6, "all six windows observed");
        assert!(sol.coloring.is_proper(&g));
    }

    #[test]
    fn panicking_observer_leaves_machine_reusable() {
        // The jitter window runs at its own σ; a panic out of the
        // observer there must not leave that σ behind for later runs.
        let g = generators::kings_graph(3, 3);
        let mut m = Msropm::new(&g, fast_config());
        assert!(matches!(m.config().reinit, ReinitMode::JitterDrift { .. }));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.solve_observed(&mut StdRng::seed_from_u64(1), |_, w, _| {
                assert_ne!(w.kind, WindowKind::Randomize, "observer fails");
            })
        }));
        assert!(unwound.is_err(), "the observer must have panicked");
        let after = m.solve(&mut StdRng::seed_from_u64(9));
        let fresh = Msropm::new(&g, fast_config()).solve(&mut StdRng::seed_from_u64(9));
        let pairs = after.final_phases.iter().zip(&fresh.final_phases);
        for (i, (a, b)) in pairs.enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "node {i}");
        }
    }

    #[test]
    fn uniform_reinit_mode_works() {
        let g = generators::kings_graph(3, 3);
        let cfg = MsropmConfig {
            reinit: ReinitMode::UniformRandom,
            ..fast_config()
        };
        let mut m = Msropm::new(&g, cfg);
        let mut rng = StdRng::seed_from_u64(13);
        let sol = m.solve(&mut rng);
        assert_eq!(sol.coloring.len(), 9);
    }

    #[test]
    fn frequency_spread_constructor() {
        let g = generators::path_graph(4);
        let mut rng = StdRng::seed_from_u64(17);
        let mut m = Msropm::with_frequency_spread(&g, fast_config(), &mut rng);
        let sol = m.solve(&mut rng);
        assert_eq!(sol.coloring.len(), 4);
    }

    #[test]
    fn shil_ramp_mode_still_solves() {
        let g = generators::kings_graph(4, 4);
        let cfg = fast_config().with_shil_ramp(true);
        let mut m = Msropm::new(&g, cfg);
        let mut rng = StdRng::seed_from_u64(23);
        let mut best = 0.0f64;
        let mut lock_errors = Vec::new();
        for _ in 0..5 {
            let sol = m.solve(&mut rng);
            lock_errors.extend(sol.stages.iter().map(|s| s.max_lock_error));
            best = best.max(sol.coloring.accuracy(&g));
        }
        // Discretization must *typically* be tight at readout. A rare,
        // physical tail event can leave one oscillator stranded near a
        // SHIL saddle (~1.4 rad) while still coloring correctly, so
        // instead of bounding every stage (seed-brittle): the median
        // stage must be tight and at most one of the ten stage maxima
        // may be a straggler.
        lock_errors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = lock_errors[lock_errors.len() / 2];
        assert!(median < 0.6, "median ramped lock error {median}");
        let stragglers = lock_errors.iter().filter(|&&e| e >= 0.6).count();
        assert!(
            stragglers <= 1,
            "{stragglers} of {} ramped stages locked loosely: {lock_errors:?}",
            lock_errors.len()
        );
        assert!(best > 0.9, "ramped accuracy {best}");
    }

    #[test]
    fn seeded_runs_reproduce() {
        let g = generators::kings_graph(4, 4);
        let run = |seed| {
            let mut m = Msropm::new(&g, fast_config());
            let mut rng = StdRng::seed_from_u64(seed);
            m.solve(&mut rng).coloring
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn solve_lanes_is_bit_identical_across_strategies() {
        let g = generators::kings_graph(3, 3);
        let m = Msropm::new(&g, fast_config());
        let lanes = vec![LaneConfig::default(); 3];
        let seeds = [5, 6, 7];
        let base = m
            .solve_lanes(&lanes, &seeds, SolveOptions::new())
            .expect("uncancellable");

        let on_global_pool = m
            .solve_lanes(&lanes, &seeds, SolveOptions::new().shards(2))
            .expect("uncancellable");
        let pool = crate::pool::ShardPool::new(2);
        let mut arena = ShardedArena::new();
        let in_arena = m
            .solve_lanes(
                &lanes,
                &seeds,
                SolveOptions::new().sharded(1, &mut arena, &pool),
            )
            .expect("uncancellable");
        let token = crate::job::CancelToken::new();
        let cancellable = m
            .solve_lanes(
                &lanes,
                &seeds,
                SolveOptions::new()
                    .sharded(1, &mut arena, &pool)
                    .cancel(&token),
            )
            .expect("token never fired");
        let pooled = m
            .solve_lanes(
                &lanes,
                &seeds,
                SolveOptions::new().sharded(2, &mut arena, &pool),
            )
            .expect("uncancellable");

        for other in [&on_global_pool, &in_arena, &cancellable, &pooled] {
            assert_eq!(base.len(), other.len());
            for (a, b) in base.iter().zip(other.iter()) {
                assert_eq!(a.coloring, b.coloring);
            }
        }
    }

    #[test]
    fn solve_lanes_cancelled_token_returns_none() {
        let g = generators::kings_graph(3, 3);
        let m = Msropm::new(&g, fast_config());
        let lanes = vec![LaneConfig::default(); 2];
        let token = crate::job::CancelToken::new();
        token.cancel();
        assert!(m
            .solve_lanes(&lanes, &[1, 2], SolveOptions::new().cancel(&token))
            .is_none());
    }
}
