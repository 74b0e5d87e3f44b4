//! Batch-solve jobs and ranked reports — the job-server unit of work.
//!
//! A [`BatchJob`] bundles what one tenant submits against one graph: the
//! base operating point ([`MsropmConfig`]), a set of control lanes (an
//! explicit [`LaneConfig`] list or a compiled [`SweepSpec`]) and a job
//! seed from which per-lane seeds are derived. Running a job yields a
//! [`JobReport`]: every lane's solution ranked best-first by conflict
//! count (ties broken by lane index, so the ranking is total and
//! deterministic).
//!
//! # Determinism contract
//!
//! A completed `job.run(&machine, options)` is a pure function of
//! `(graph, job)`: per-lane seeds come from a SplitMix64 stream over the
//! job seed, each lane's trajectory is bit-identical to a standalone
//! `Msropm::solve` at the lane's resolved config (see [`crate::batch`]),
//! and the ranking is a stable sort on `(conflicts, lane)`. Neither the
//! options (shard width, arena history, abort checks) nor which worker
//! thread of a server executes the job can change a bit of the report —
//! `msropm-server` property-tests this across workers and shard widths.

use crate::config::{LaneConfig, MsropmConfig, SweepSpec};
use crate::machine::{Msropm, MsropmSolution, SolveOptions};
use msropm_graph::{graph_hash, Graph};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cancellation flag for one in-flight job.
///
/// Cancellation is **cooperative**: the solver checks the token before
/// starting and at every non-final stage boundary (the instants the
/// paper's control sequencer could realistically intervene between SHIL
/// windows — see [`crate::batch`]'s stage hook). A cancelled run is
/// abandoned wholesale: it produces no report, and the check can never
/// perturb a run that completes, because it happens strictly between
/// stages (after all RNG draws of the finished stage, before any of the
/// next). Clones share the flag; cancelling any clone cancels the job.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the job's next
    /// cooperative check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// One batch-solve job: lanes + seed against a single (implied) graph.
///
/// The graph itself is *not* part of the job — callers pair a job with a
/// compiled machine (usually out of a [`crate::cache::ProblemCache`]),
/// which keeps repeat-topology submissions from recompiling anything.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Base operating point; per-lane overrides apply on top of this.
    pub config: MsropmConfig,
    /// One control lane per replica the job runs.
    pub lanes: Vec<LaneConfig>,
    /// Job seed; lane `i` is seeded with the `i`-th SplitMix64 output
    /// (see [`BatchJob::lane_seeds`]).
    pub seed: u64,
}

impl BatchJob {
    /// A homogeneous job: `replicas` lanes at the base config.
    pub fn uniform(config: MsropmConfig, replicas: usize, seed: u64) -> Self {
        BatchJob {
            config,
            lanes: vec![LaneConfig::default(); replicas],
            seed,
        }
    }

    /// A heterogeneous job whose lanes are the cartesian sweep grid of
    /// `sweep` (see [`SweepSpec::lanes`]).
    pub fn from_sweep(config: MsropmConfig, sweep: &SweepSpec, seed: u64) -> Self {
        BatchJob {
            config,
            lanes: sweep.lanes(),
            seed,
        }
    }

    /// Forces every lane of the job onto `backend`: sets the base
    /// config's backend and clears any per-lane backend pins, so the
    /// whole batch runs single-backend on `backend` no matter what the
    /// submitter asked for. This is the server-side override hook
    /// (`msropm_serve --backend`) — it must run **before** the job's
    /// config is used as a cache key, since the backend is part of the
    /// [`crate::cache::ProblemCache`] fingerprint.
    pub fn force_backend(&mut self, backend: crate::KernelBackend) {
        self.config.backend = backend;
        for lane in &mut self.lanes {
            lane.backend = None;
        }
    }

    /// Per-lane seeds: the first `lanes.len()` outputs of a SplitMix64
    /// generator seeded with the job seed. Distinct lanes get
    /// well-separated RNG streams even for adjacent job seeds, and the
    /// derivation is a stable part of the job format (changing it would
    /// change every report).
    pub fn lane_seeds(&self) -> Vec<u64> {
        let mut state = self.seed;
        (0..self.lanes.len())
            .map(|_| {
                // SplitMix64 (Steele et al., "Fast splittable pseudorandom
                // number generators").
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    /// Runs the job on `machine` (which must be compiled from the graph
    /// this job targets, at `self.config`) through
    /// [`Msropm::solve_lanes`] with `options`, and returns the ranked
    /// report.
    ///
    /// The options' abort checks (cancel token, abort hook) run once
    /// before the first stage and then at every non-final stage
    /// boundary; when one fires the run is abandoned and `None` comes
    /// back — no report exists, and none ever will for this run. This is
    /// the hook the job server's cancellation and deadlines ride on. A
    /// job that completes is **bit-identical** at any options: the
    /// checks happen strictly between stages and cannot perturb the
    /// trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `machine.config() != &self.config` (the pairing is the
    /// caller's responsibility — a mismatch means a cache-key bug), if
    /// a resolved lane configuration is invalid, or if a shard task
    /// panicked.
    pub fn run(&self, machine: &Msropm, mut options: SolveOptions<'_>) -> Option<JobReport> {
        assert!(
            machine.config() == &self.config,
            "job config does not match the machine it is paired with"
        );
        if options.aborted() {
            return None;
        }
        let seeds = self.lane_seeds();
        let solutions = machine.solve_lanes(&self.lanes, &seeds, options)?;
        Some(JobReport::rank(machine.graph(), self, &seeds, solutions))
    }
}

/// One lane's entry in a [`JobReport`], in rank order.
#[derive(Debug, Clone)]
pub struct RankedLane {
    /// Index of this lane in the job's `lanes` list.
    pub lane: usize,
    /// The derived seed the lane ran with.
    pub seed: u64,
    /// Number of conflicting (same-color endpoint) edges — the ranking
    /// key, ascending.
    pub conflicts: usize,
    /// The paper's accuracy metric: fraction of properly colored edges.
    pub accuracy: f64,
    /// The lane's full multi-stage solution.
    pub solution: MsropmSolution,
}

/// The ranked outcome of one [`BatchJob`].
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Canonical hash of the graph the job ran against
    /// ([`msropm_graph::io::graph_hash`]).
    pub graph_hash: u64,
    /// The job seed (echoed back for correlation).
    pub seed: u64,
    /// Every lane's outcome, best first: ascending `(conflicts, lane)`.
    pub ranked: Vec<RankedLane>,
}

impl JobReport {
    fn rank(graph: &Graph, job: &BatchJob, seeds: &[u64], solutions: Vec<MsropmSolution>) -> Self {
        let m = graph.num_edges();
        let mut ranked: Vec<RankedLane> = solutions
            .into_iter()
            .enumerate()
            .map(|(lane, solution)| {
                let conflicts = solution.coloring.conflicts(graph);
                let accuracy = if m == 0 {
                    1.0
                } else {
                    (m - conflicts) as f64 / m as f64
                };
                RankedLane {
                    lane,
                    seed: seeds[lane],
                    conflicts,
                    accuracy,
                    solution,
                }
            })
            .collect();
        // Stable sort: equal conflict counts keep ascending lane order,
        // making the ranking (and hence the whole report) deterministic.
        ranked.sort_by_key(|r| r.conflicts);
        JobReport {
            graph_hash: graph_hash(graph),
            seed: job.seed,
            ranked,
        }
    }

    /// The best lane (fewest conflicts, lowest lane index among ties).
    ///
    /// # Panics
    ///
    /// Panics if the job had no lanes.
    pub fn best(&self) -> &RankedLane {
        &self.ranked[0]
    }

    /// `true` when the best lane is a proper coloring.
    pub fn solved(&self) -> bool {
        self.ranked.first().is_some_and(|r| r.conflicts == 0)
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
    fn lane_seeds_are_distinct_and_stable() {
        let job = BatchJob::uniform(fast_config(), 16, 42);
        let a = job.lane_seeds();
        let b = job.lane_seeds();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "lane seeds collided");
        // Nearby job seeds still give unrelated lane streams.
        let other = BatchJob::uniform(fast_config(), 16, 43).lane_seeds();
        assert!(a.iter().zip(&other).all(|(x, y)| x != y));
    }

    #[test]
    fn report_ranking_is_total_and_best_first() {
        let g = generators::kings_graph(4, 4);
        let machine = Msropm::new(&g, fast_config());
        let job = BatchJob::uniform(fast_config(), 8, 7);
        let report = job
            .run(&machine, SolveOptions::new())
            .expect("no abort check");
        assert_eq!(report.graph_hash, msropm_graph::graph_hash(&g));
        assert_eq!(report.ranked.len(), 8);
        for pair in report.ranked.windows(2) {
            assert!(pair[0].conflicts <= pair[1].conflicts);
            if pair[0].conflicts == pair[1].conflicts {
                assert!(pair[0].lane < pair[1].lane, "tie-break must be by lane");
            }
        }
        assert_eq!(report.best().conflicts, report.ranked[0].conflicts);
        // Accuracy is consistent with the conflict count.
        for r in &report.ranked {
            let expect = (g.num_edges() - r.conflicts) as f64 / g.num_edges() as f64;
            assert!((r.accuracy - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn sweep_jobs_compile_their_grid() {
        use crate::config::SweepParam;
        let sweep = SweepSpec::new()
            .grid(SweepParam::CouplingStrength, vec![0.8, 1.0])
            .grid(SweepParam::Noise, vec![0.1, 0.2]);
        let job = BatchJob::from_sweep(fast_config(), &sweep, 1);
        assert_eq!(job.lanes.len(), 4);
        let g = generators::kings_graph(3, 3);
        let machine = Msropm::new(&g, fast_config());
        let report = job
            .run(&machine, SolveOptions::new())
            .expect("no abort check");
        assert_eq!(report.ranked.len(), 4);
    }

    #[test]
    fn pre_cancelled_job_produces_no_report() {
        let g = generators::kings_graph(3, 3);
        let machine = Msropm::new(&g, fast_config());
        let job = BatchJob::uniform(fast_config(), 2, 5);
        let token = CancelToken::new();
        token.cancel();
        assert!(job
            .run(&machine, SolveOptions::new().cancel(&token))
            .is_none());
    }

    #[test]
    fn uncancelled_job_matches_solo_reference_solves_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // The reference is the *independent* sequential machine
        // (`Msropm::solve` per lane), not another `BatchJob::run`. This
        // pins the cancellable hooked path (boundary check armed but
        // never firing) to the gold trajectory.
        let g = generators::kings_graph(4, 4);
        let machine = Msropm::new(&g, fast_config());
        let job = BatchJob::uniform(fast_config(), 4, 11);
        let token = CancelToken::new();
        let report = job
            .run(&machine, SolveOptions::new().cancel(&token))
            .expect("not cancelled");
        let seeds = job.lane_seeds();
        for entry in &report.ranked {
            let mut solo_machine = Msropm::new(&g, fast_config());
            let mut rng = StdRng::seed_from_u64(seeds[entry.lane]);
            let solo = solo_machine.solve(&mut rng);
            assert_eq!(
                entry.solution.coloring, solo.coloring,
                "lane {}",
                entry.lane
            );
            assert_eq!(entry.conflicts, solo.coloring.conflicts(&g));
            for (p, q) in entry.solution.final_phases.iter().zip(&solo.final_phases) {
                assert_eq!(p.to_bits(), q.to_bits(), "lane {} phases", entry.lane);
            }
        }
    }

    #[test]
    fn mid_run_cancel_lands_at_the_stage_boundary() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // 16 colors => 4 stages => 3 boundaries: cancel at the second
        // check deterministically (the token is flipped by the job's own
        // boundary observation via a countdown, no timing involved).
        let g = generators::kings_graph(3, 3);
        let config = fast_config().with_num_colors(16);
        let machine = Msropm::new(&g, config);
        let token = CancelToken::new();
        let countdown = AtomicUsize::new(2);
        // Flip the token from a helper thread once the run is underway:
        // here we emulate "cancel arrives mid-run" without wall-clock
        // dependence by cancelling after a fixed number of boundary
        // observations through the machine's own cancellable path.
        let lanes = vec![LaneConfig::default(); 2];
        let seeds = [3u64, 4];
        let out = machine.solve_lanes(
            &lanes,
            &seeds,
            SolveOptions::new().abort_when(|| {
                if countdown.fetch_sub(1, Ordering::Relaxed) == 1 {
                    token.cancel();
                }
                token.is_cancelled()
            }),
        );
        assert!(out.is_none(), "cancel at the second boundary aborts");
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_machine_is_rejected() {
        let g = generators::kings_graph(3, 3);
        let machine = Msropm::new(&g, fast_config());
        let other = MsropmConfig {
            noise: 0.999,
            ..fast_config()
        };
        let _ = BatchJob::uniform(other, 2, 1).run(&machine, SolveOptions::new());
    }
}
