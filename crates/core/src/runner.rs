//! The experiment runner: repeated iterations, statistics, and the data
//! behind Fig. 5 and Table 1.
//!
//! §4: *"40 iterations (i.e. repeated runs) are performed for each problem,
//! allowing the MSROPM to explore the solution space"*; the best solution
//! among iterations is the reported answer. Iterations are independent;
//! the runner advances them as one interleaved multi-replica batch,
//! sharded across the process-wide [`crate::pool`] (see
//! [`crate::batch`]), which is bit-identical to — and much faster than —
//! the sequential per-iteration loop that
//! [`ExperimentRunner::run_sequential`] retains as the reference.

use crate::batch::{solve_lanes_sharded_hooked, ShardedArena};
use crate::config::{LaneConfig, MsropmConfig};
use crate::machine::{Msropm, MsropmSolution};
use crate::metrics::max_cut_accuracy;
use msropm_graph::metrics::{pairwise_hamming, pearson, Summary};
use msropm_graph::{Coloring, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::ControlFlow;

/// Where the stage-1 max-cut normalizer (Fig. 5(b) denominator) comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutReference {
    /// Use this exact/best-known cut value.
    Value(usize),
    /// Decide automatically: exact branch-and-bound for graphs of ≤ 22
    /// nodes, otherwise the best cut found by tabu search restarts.
    Auto,
}

/// The outcome of one iteration (one complete multi-stage run).
#[derive(Debug, Clone)]
pub struct IterationOutcome {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// RNG seed used for this iteration.
    pub seed: u64,
    /// The coloring produced.
    pub coloring: Coloring,
    /// Edge-satisfaction accuracy (Fig. 5(a) metric).
    pub accuracy: f64,
    /// Stage-1 cut size.
    pub stage1_cut: usize,
    /// Stage-1 cut normalized by the reference (Fig. 5(b) metric).
    pub stage1_accuracy: f64,
}

/// Aggregate results of an experiment (one problem, many iterations).
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Per-iteration outcomes, in iteration order.
    pub outcomes: Vec<IterationOutcome>,
    /// The max-cut normalizer used for stage-1 accuracy.
    pub cut_reference: usize,
    /// Schedule time per iteration (ns).
    pub time_per_iteration_ns: f64,
}

impl ExperimentReport {
    /// Final-accuracy series (Fig. 5(a) y-values, one per iteration).
    pub fn accuracies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.accuracy).collect()
    }

    /// Stage-1 accuracy series (Fig. 5(b) y-values).
    pub fn stage1_accuracies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.stage1_accuracy).collect()
    }

    /// Best (top) accuracy over iterations — Table 1's "Top accuracy".
    pub fn best_accuracy(&self) -> f64 {
        self.accuracies().into_iter().fold(0.0, f64::max)
    }

    /// Summary statistics of the final accuracy.
    pub fn accuracy_summary(&self) -> Summary {
        Summary::of(&self.accuracies()).expect("at least one iteration")
    }

    /// The best solution found (ties broken by earliest iteration).
    pub fn best_solution(&self) -> &IterationOutcome {
        self.outcomes
            .iter()
            .max_by(|a, b| {
                a.accuracy
                    .partial_cmp(&b.accuracy)
                    .expect("accuracies are finite")
                    .then(b.iteration.cmp(&a.iteration))
            })
            .expect("at least one iteration")
    }

    /// Pairwise normalized Hamming distances between all iteration
    /// solutions (Fig. 5(c) data).
    pub fn hamming_distances(&self) -> Vec<f64> {
        let sols: Vec<Coloring> = self.outcomes.iter().map(|o| o.coloring.clone()).collect();
        pairwise_hamming(&sols)
    }

    /// Histogram of [`ExperimentReport::hamming_distances`] over `bins`
    /// equal buckets of `[0, 1]`.
    pub fn hamming_histogram(&self, bins: usize) -> Vec<usize> {
        msropm_graph::metrics::histogram_unit_interval(&self.hamming_distances(), bins)
    }

    /// Pearson correlation between stage-1 and final accuracy across
    /// iterations (§4.1 reports this is positive). `None` if degenerate.
    pub fn stage1_final_correlation(&self) -> Option<f64> {
        pearson(&self.stage1_accuracies(), &self.accuracies())
    }
}

/// Runs `iterations` independent solves of one problem.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    config: MsropmConfig,
    iterations: usize,
    base_seed: u64,
    cut_reference: CutReference,
    shards: usize,
}

impl ExperimentRunner {
    /// Creates a runner with the paper's 40 iterations and automatic cut
    /// reference.
    pub fn new(config: MsropmConfig) -> Self {
        ExperimentRunner {
            config,
            iterations: 40,
            base_seed: 0x5EED,
            cut_reference: CutReference::Auto,
            shards: crate::pool::num_cores(),
        }
    }

    /// Sets the number of iterations (paper: 40).
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn iterations(mut self, iterations: usize) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        self.iterations = iterations;
        self
    }

    /// Sets the base RNG seed (iteration `i` uses `base_seed + i`).
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the stage-1 cut normalizer policy.
    pub fn cut_reference(mut self, reference: CutReference) -> Self {
        self.cut_reference = reference;
        self
    }

    /// Sets the shard count: the iterations split into `shards`
    /// contiguous ranges that run as tasks on the process-wide
    /// [`crate::pool`] (default: one per core; 1 runs inline on the
    /// calling thread). Results are **bit-identical** at every width.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }

    fn resolve_cut_reference(&self, g: &Graph) -> usize {
        match self.cut_reference {
            CutReference::Value(v) => v.max(1),
            CutReference::Auto => {
                if g.num_nodes() <= 22 {
                    msropm_sat::branch_and_bound_max_cut(g, u64::MAX)
                        .value
                        .max(1)
                } else {
                    // Best of several tabu restarts.
                    let mut rng = StdRng::seed_from_u64(self.base_seed ^ 0xC0FFEE);
                    let tabu = crate::baselines::TabuMaxCut::new(20 * g.num_nodes(), 10);
                    let mut best = 0;
                    for _ in 0..5 {
                        let cut = tabu.solve(g, &mut rng);
                        best = best.max(cut.cut_value(g));
                    }
                    best.max(1)
                }
            }
        }
    }

    /// The per-iteration RNG seeds (`base_seed + i`).
    fn seeds(&self) -> Vec<u64> {
        (0..self.iterations)
            .map(|i| self.base_seed.wrapping_add(i as u64))
            .collect()
    }

    /// Assembles the report from per-iteration solutions — the single
    /// place both execution paths ([`ExperimentRunner::run`] and
    /// [`ExperimentRunner::run_sequential`]) turn raw solutions into
    /// [`IterationOutcome`]s, so the two can never drift in metric
    /// derivation, seed bookkeeping or report shape.
    fn assemble_report(
        &self,
        g: &Graph,
        reference: usize,
        solutions: Vec<MsropmSolution>,
    ) -> ExperimentReport {
        let outcomes = solutions
            .into_iter()
            .zip(self.seeds())
            .enumerate()
            .map(|(iteration, (sol, seed))| {
                let accuracy = sol.coloring.accuracy(g);
                let stage1_cut = sol.stages[0].cut_value;
                IterationOutcome {
                    iteration,
                    seed,
                    coloring: sol.coloring,
                    accuracy,
                    stage1_cut,
                    stage1_accuracy: max_cut_accuracy(stage1_cut, reference).min(1.0),
                }
            })
            .collect();
        ExperimentReport {
            outcomes,
            cut_reference: reference,
            time_per_iteration_ns: self.config.total_time_ns(),
        }
    }

    /// Runs the experiment on `g` and aggregates the report.
    ///
    /// Iterations are advanced as one multi-replica batch sharded over
    /// the configured shard count — results are bit-identical to
    /// [`ExperimentRunner::run_sequential`] regardless of `shards`.
    pub fn run(&self, g: &Graph) -> ExperimentReport {
        self.config.validate();
        let reference = self.resolve_cut_reference(g);
        // The no-spread base network; per-replica frequency offsets are
        // sampled inside the batch driver from each replica's own RNG,
        // matching `Msropm::with_frequency_spread` + `solve`.
        let network = self.config.build_network(g);
        let seeds = self.seeds();
        let lanes = vec![LaneConfig::default(); seeds.len()];
        let solutions = solve_lanes_sharded_hooked(
            g,
            &self.config,
            &network,
            &lanes,
            &seeds,
            true,
            self.shards,
            &mut ShardedArena::new(),
            None,
            |_, _| ControlFlow::Continue(()),
        )
        .expect("experiment runs are never cancelled");
        self.assemble_report(g, reference, solutions)
    }

    /// The reference implementation of [`ExperimentRunner::run`]: one
    /// machine per iteration, solved sequentially on a single thread.
    /// Kept for verification (the batch determinism tests pin `run` to
    /// this) and as the fallback shape for profiling single iterations.
    pub fn run_sequential(&self, g: &Graph) -> ExperimentReport {
        let reference = self.resolve_cut_reference(g);
        let config = self.config;
        let solutions = self
            .seeds()
            .into_iter()
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut machine = Msropm::with_frequency_spread(g, config, &mut rng);
                machine.solve(&mut rng)
            })
            .collect();
        self.assemble_report(g, reference, solutions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msropm_graph::generators;

    fn fast_config() -> MsropmConfig {
        MsropmConfig {
            dt: 0.02,
            ..MsropmConfig::paper_default()
        }
    }

    #[test]
    fn batched_run_matches_sequential_reference() {
        let g = generators::kings_graph(4, 4);
        let runner = ExperimentRunner::new(fast_config())
            .iterations(6)
            .base_seed(17)
            .shards(3);
        let batched = runner.run(&g);
        let sequential = runner.run_sequential(&g);
        assert_eq!(batched.accuracies(), sequential.accuracies());
        for (a, b) in batched.outcomes.iter().zip(&sequential.outcomes) {
            assert_eq!(a.coloring, b.coloring);
            assert_eq!(a.stage1_cut, b.stage1_cut);
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn report_on_small_kings_graph() {
        let g = generators::kings_graph(4, 4);
        let report = ExperimentRunner::new(fast_config())
            .iterations(8)
            .base_seed(42)
            .run(&g);
        assert_eq!(report.outcomes.len(), 8);
        assert!((report.time_per_iteration_ns - 60.0).abs() < 1e-12);
        assert!(report.best_accuracy() > 0.85);
        assert!(report.cut_reference > 0);
        // Iterations are ordered and seeded deterministically.
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.iteration, i);
            assert_eq!(o.seed, 42 + i as u64);
        }
        // Stage-1 accuracy is a valid normalized ratio.
        for o in &report.outcomes {
            assert!((0.0..=1.0).contains(&o.stage1_accuracy));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::kings_graph(3, 3);
        let run = || {
            ExperimentRunner::new(fast_config())
                .iterations(4)
                .base_seed(7)
                .shards(2)
                .run(&g)
                .accuracies()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = generators::kings_graph(3, 3);
        let run = |shards| {
            ExperimentRunner::new(fast_config())
                .iterations(6)
                .base_seed(3)
                .shards(shards)
                .run(&g)
                .accuracies()
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn hamming_and_correlation_shapes() {
        let g = generators::kings_graph(4, 4);
        let report = ExperimentRunner::new(fast_config())
            .iterations(6)
            .base_seed(1)
            .run(&g);
        assert_eq!(report.hamming_distances().len(), 15); // C(6,2)
        let hist = report.hamming_histogram(10);
        assert_eq!(hist.iter().sum::<usize>(), 15);
        // Correlation may be None for degenerate samples but must be in
        // [-1, 1] when present.
        if let Some(r) = report.stage1_final_correlation() {
            assert!((-1.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn explicit_cut_reference() {
        let g = generators::kings_graph(3, 3);
        let report = ExperimentRunner::new(fast_config())
            .iterations(2)
            .cut_reference(CutReference::Value(1000))
            .run(&g);
        assert_eq!(report.cut_reference, 1000);
        for o in &report.outcomes {
            assert!(o.stage1_accuracy < 0.1, "normalized by huge reference");
        }
    }

    #[test]
    fn best_solution_is_argmax() {
        let g = generators::kings_graph(4, 4);
        let report = ExperimentRunner::new(fast_config())
            .iterations(5)
            .base_seed(5)
            .run(&g);
        let best = report.best_solution();
        assert_eq!(best.accuracy, report.best_accuracy());
    }
}
