//! Portfolio execution: heterogeneous lane sweeps with population
//! restarts.
//!
//! A [`PortfolioRunner`] runs `M` control lanes (a [`SweepSpec`] grid or
//! hand-picked [`LaneConfig`]s) through one interleaved batch and, at
//! every stage boundary, ranks the lanes by how many couplings earlier
//! stages already satisfied and **re-seeds the worst lanes from the best
//! survivors**: the restarted lane inherits the survivor's partition
//! state (phases, group latches, `P_EN` gating) but keeps its own
//! operating point and noise stream. This is the population-based
//! restart strategy the ROADMAP's "replica-parallel annealing schedules"
//! item calls for — the companion multi-phase OPM work shows solution
//! quality is sharply sensitive to the (K, σ) operating point, so a
//! portfolio amortizes the search for the right point *and* focuses the
//! later stages on the most promising stage-1 partitions.
//!
//! Everything is deterministic given the base seed: ranking ties break
//! by lane index and restarts copy state between lanes of one batch, so
//! a portfolio run is exactly reproducible.
//!
//! ```
//! use msropm_core::{MsropmConfig, PortfolioRunner, SweepParam, SweepSpec};
//! use msropm_graph::generators::kings_graph;
//!
//! let g = kings_graph(4, 4);
//! let sweep = SweepSpec::new()
//!     .logspace(SweepParam::CouplingStrength, 0.7, 1.4, 2)
//!     .linspace(SweepParam::Noise, 0.12, 0.24, 2);
//! let report = PortfolioRunner::from_sweep(MsropmConfig::paper_default(), &sweep)
//!     .base_seed(7)
//!     .restart_fraction(0.25)
//!     .run(&g);
//! assert_eq!(report.lanes.len(), 4);
//! assert!(report.best_accuracy() > 0.8);
//! ```

use crate::batch::{solve_lanes_sharded_hooked, StageBoundary};
use crate::config::{LaneConfig, MsropmConfig, SweepSpec};
use crate::machine::MsropmSolution;
use msropm_graph::Graph;
use std::ops::ControlFlow;

/// One population restart: at the boundary after `stage`, lane `dst`
/// was re-seeded from lane `src`'s partition state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartEvent {
    /// The completed stage (1-based) after which the restart fired.
    pub stage: usize,
    /// The surviving lane whose state was copied.
    pub src: usize,
    /// The lane that was re-seeded.
    pub dst: usize,
}

/// The outcome of one portfolio lane.
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// Lane index (position in the sweep grid).
    pub lane: usize,
    /// RNG seed the lane ran with.
    pub seed: u64,
    /// The lane's overrides (the sweep grid point).
    pub overrides: LaneConfig,
    /// The lane's fully resolved configuration.
    pub config: MsropmConfig,
    /// The multi-stage solution the lane produced.
    pub solution: MsropmSolution,
    /// Edge-satisfaction accuracy of the lane's coloring.
    pub accuracy: f64,
}

/// Aggregate result of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Per-lane outcomes, in lane order.
    pub lanes: Vec<LaneOutcome>,
    /// Every population restart that fired, in firing order.
    pub restarts: Vec<RestartEvent>,
}

impl PortfolioReport {
    /// The best lane (ties broken by the earliest lane index).
    ///
    /// # Panics
    ///
    /// Panics if the report is empty (a runner never produces one).
    pub fn best(&self) -> &LaneOutcome {
        self.lanes
            .iter()
            .max_by(|a, b| {
                a.accuracy
                    .partial_cmp(&b.accuracy)
                    .expect("accuracies are finite")
                    .then(b.lane.cmp(&a.lane))
            })
            .expect("at least one lane")
    }

    /// Best edge-satisfaction accuracy across lanes.
    pub fn best_accuracy(&self) -> f64 {
        self.best().accuracy
    }

    /// The accuracy of every lane, in lane order.
    pub fn accuracies(&self) -> Vec<f64> {
        self.lanes.iter().map(|o| o.accuracy).collect()
    }
}

/// Runs a heterogeneous lane portfolio with optional population
/// restarts (see the module docs).
#[derive(Debug, Clone)]
pub struct PortfolioRunner {
    base: MsropmConfig,
    lanes: Vec<LaneConfig>,
    base_seed: u64,
    restart_fraction: f64,
    shards: usize,
}

impl PortfolioRunner {
    /// Creates a runner over explicit lane overrides (lane `i` seeds
    /// with `base_seed + i`). Restarts default to off.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty.
    pub fn new(base: MsropmConfig, lanes: Vec<LaneConfig>) -> Self {
        assert!(!lanes.is_empty(), "portfolio needs at least one lane");
        PortfolioRunner {
            base,
            lanes,
            base_seed: 0x1A5E5,
            restart_fraction: 0.0,
            shards: 1,
        }
    }

    /// Creates a runner over a sweep grid (one lane per grid point).
    pub fn from_sweep(base: MsropmConfig, sweep: &SweepSpec) -> Self {
        Self::new(base, sweep.lanes())
    }

    /// Sets the base RNG seed (lane `i` uses `base_seed + i`).
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the fraction of lanes re-seeded from survivors at each
    /// stage boundary. `0.0` (the default) disables restarts; the count
    /// is `floor(fraction · lanes)`, capped so at least one survivor
    /// remains.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn restart_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "restart fraction must be in [0, 1], got {fraction}"
        );
        self.restart_fraction = fraction;
        self
    }

    /// Sets the intra-run shard count: the lane range is split across
    /// `shards` tasks on the process-wide [`crate::pool`] during the
    /// stage windows, re-joining at every boundary so restarts see the
    /// whole population. Results are **bit-identical** at every width
    /// (the default, 1, runs the classic single-threaded path).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "portfolio needs at least one shard");
        self.shards = shards;
        self
    }

    /// The lane overrides this runner will execute.
    pub fn lanes(&self) -> &[LaneConfig] {
        &self.lanes
    }

    /// Runs the portfolio on `g`.
    ///
    /// The run is a single interleaved batch: restarts couple the lanes
    /// at stage boundaries, so it cannot split into *independent*
    /// batches — but within each stage the lanes can shard across the
    /// process-wide pool (see [`PortfolioRunner::shards`]), since the
    /// restart hook fires at the cross-shard join. Fully deterministic
    /// given the base seed, at any shard width.
    pub fn run(&self, g: &Graph) -> PortfolioReport {
        let seeds: Vec<u64> = (0..self.lanes.len())
            .map(|i| self.base_seed.wrapping_add(i as u64))
            .collect();
        let network = self.base.build_network(g);
        let mut restarts = Vec::new();
        let restart_fraction = self.restart_fraction;
        let mut arena = crate::batch::ShardedArena::new();
        let solutions = solve_lanes_sharded_hooked(
            g,
            &self.base,
            &network,
            &self.lanes,
            &seeds,
            false,
            self.shards,
            &mut arena,
            None,
            |stage, boundary: &mut StageBoundary| {
                Self::restart_worst(stage, boundary, restart_fraction, &mut restarts);
                ControlFlow::Continue(())
            },
        )
        .expect("portfolio runs are never cancelled");
        let lanes = solutions
            .into_iter()
            .enumerate()
            .map(|(i, solution)| {
                let accuracy = solution.coloring.accuracy(g);
                LaneOutcome {
                    lane: i,
                    seed: seeds[i],
                    overrides: self.lanes[i],
                    config: self.lanes[i].resolve(&self.base),
                    solution,
                    accuracy,
                }
            })
            .collect();
        PortfolioReport { lanes, restarts }
    }

    /// Ranks lanes by satisfied couplings (descending, ties by lane
    /// index) and re-seeds the bottom `fraction` from the top survivors
    /// round-robin.
    fn restart_worst(
        stage: usize,
        boundary: &mut StageBoundary,
        fraction: f64,
        events: &mut Vec<RestartEvent>,
    ) {
        let m = boundary.num_lanes();
        let num_restart = ((m as f64 * fraction) as usize).min(m - 1);
        if num_restart == 0 {
            return;
        }
        // Score each lane once (satisfied_edges is an O(m) edge scan).
        let scores: Vec<usize> = (0..m).map(|r| boundary.satisfied_edges(r)).collect();
        let mut order: Vec<usize> = (0..m).collect();
        // Stable sort: equal scores keep ascending lane order, so the
        // ranking (and hence the whole run) is deterministic.
        order.sort_by_key(|&r| std::cmp::Reverse(scores[r]));
        let survivors = m - num_restart;
        for (j, &dst) in order[survivors..].iter().enumerate() {
            let src = order[j % survivors];
            boundary.copy_lane(src, dst);
            events.push(RestartEvent { stage, src, dst });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepParam;
    use msropm_graph::generators;

    fn fast_config() -> MsropmConfig {
        MsropmConfig {
            dt: 0.02,
            ..MsropmConfig::paper_default()
        }
    }

    #[test]
    fn portfolio_without_restarts_equals_lane_batch() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let sweep = SweepSpec::new().grid(SweepParam::Noise, vec![0.1, 0.18, 0.3]);
        let report = PortfolioRunner::from_sweep(base, &sweep)
            .base_seed(40)
            .run(&g);
        assert!(report.restarts.is_empty());
        let machine = crate::machine::Msropm::new(&g, base);
        let batch = machine
            .solve_lanes(&sweep.lanes(), &[40, 41, 42], crate::SolveOptions::new())
            .expect("no abort check");
        for (o, s) in report.lanes.iter().zip(&batch) {
            assert_eq!(o.solution.coloring, s.coloring);
        }
    }

    #[test]
    fn restarts_fire_and_are_logged() {
        let g = generators::kings_graph(4, 4);
        let report = PortfolioRunner::new(fast_config(), vec![LaneConfig::default(); 8])
            .base_seed(9)
            .restart_fraction(0.25)
            .run(&g);
        // 4 colors => 2 stages => exactly one boundary; 8 * 0.25 = 2
        // restarts at stage 1.
        assert_eq!(report.restarts.len(), 2);
        assert!(report.restarts.iter().all(|e| e.stage == 1));
        for e in &report.restarts {
            assert_ne!(e.src, e.dst);
            // A restarted lane is never also a survivor source.
            assert!(report.restarts.iter().all(|e2| e2.dst != e.src));
        }
    }

    #[test]
    fn restart_copies_survivor_partition() {
        let g = generators::kings_graph(4, 4);
        let report = PortfolioRunner::new(fast_config(), vec![LaneConfig::default(); 4])
            .base_seed(77)
            .restart_fraction(0.25)
            .run(&g);
        assert_eq!(report.restarts.len(), 1);
        let e = report.restarts[0];
        // dst inherited src's stage-1 history outright: its record is
        // the survivor's (the lineage its final coloring is built on),
        // and stage 2 ran on the same active-edge set.
        let src_sol = &report.lanes[e.src].solution;
        let dst_sol = &report.lanes[e.dst].solution;
        assert_eq!(src_sol.stages[0].partition, dst_sol.stages[0].partition);
        assert_eq!(src_sol.stages[0].cut_value, dst_sol.stages[0].cut_value);
        assert_eq!(
            src_sol.stages[1].active_edges,
            dst_sol.stages[1].active_edges
        );
        // And the final coloring's stage-1 bit really is that partition.
        let g_nodes = dst_sol.coloring.len();
        for i in 0..g_nodes {
            let bit = usize::from(
                dst_sol.stages[0]
                    .partition
                    .side(msropm_graph::NodeId::new(i)),
            );
            assert_eq!(dst_sol.coloring.as_slice()[i].index() >> 1, bit, "node {i}");
        }
    }

    #[test]
    fn portfolio_is_deterministic() {
        let g = generators::kings_graph(3, 3);
        let run = || {
            PortfolioRunner::new(fast_config(), vec![LaneConfig::default(); 5])
                .base_seed(3)
                .restart_fraction(0.4)
                .run(&g)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.accuracies(), b.accuracies());
        assert_eq!(a.restarts, b.restarts);
    }

    #[test]
    fn two_color_portfolio_has_no_boundaries() {
        let g = generators::grid_graph(3, 3);
        let base = fast_config().with_num_colors(2);
        let report = PortfolioRunner::new(base, vec![LaneConfig::default(); 3])
            .restart_fraction(0.5)
            .run(&g);
        assert!(report.restarts.is_empty(), "single stage, no boundary");
        assert_eq!(report.lanes.len(), 3);
    }

    #[test]
    fn best_lane_is_argmax() {
        let g = generators::kings_graph(4, 4);
        let sweep = SweepSpec::new().linspace(SweepParam::Noise, 0.05, 0.35, 4);
        let report = PortfolioRunner::from_sweep(fast_config(), &sweep)
            .base_seed(13)
            .run(&g);
        let best = report.best();
        assert!(report
            .accuracies()
            .iter()
            .all(|&a| a <= best.accuracy + 1e-12));
        assert_eq!(report.best_accuracy(), best.accuracy);
    }

    #[test]
    fn shard_width_is_invisible_to_restarting_portfolios() {
        // Restarts couple lanes across shard boundaries at every join;
        // the report (accuracies *and* the restart log) must not move
        // by a bit when the stage windows shard.
        let g = generators::kings_graph(4, 4);
        let run = |shards: usize| {
            PortfolioRunner::new(fast_config(), vec![LaneConfig::default(); 8])
                .base_seed(9)
                .restart_fraction(0.25)
                .shards(shards)
                .run(&g)
        };
        let one = run(1);
        assert!(!one.restarts.is_empty(), "restarts must fire");
        for shards in [2usize, 4] {
            let sharded = run(shards);
            assert_eq!(one.restarts, sharded.restarts, "{shards} shards");
            assert_eq!(one.accuracies(), sharded.accuracies(), "{shards} shards");
            for (a, b) in one.lanes.iter().zip(&sharded.lanes) {
                assert_eq!(a.solution.coloring, b.solution.coloring);
                for (p, q) in a.solution.final_phases.iter().zip(&b.solution.final_phases) {
                    assert_eq!(p.to_bits(), q.to_bits(), "lane {} phases", a.lane);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_portfolio_rejected() {
        PortfolioRunner::new(fast_config(), Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = PortfolioRunner::new(fast_config(), vec![LaneConfig::default()]).shards(0);
    }

    #[test]
    #[should_panic(expected = "restart fraction")]
    fn bad_restart_fraction_rejected() {
        let _ =
            PortfolioRunner::new(fast_config(), vec![LaneConfig::default()]).restart_fraction(1.5);
    }
}
