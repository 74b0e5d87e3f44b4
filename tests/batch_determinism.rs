//! Determinism of the multi-replica batch solver: a batch of default
//! lanes through `Msropm::solve_lanes` must give the same colorings
//! whether run on 1 shard, N shards, or as a plain sequential `solve`
//! loop — and the batched experiment runner must be a drop-in for its
//! sequential reference.

use msropm::core::{
    ExperimentRunner, LaneConfig, Msropm, MsropmConfig, MsropmSolution, SolveOptions,
};
use msropm::graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fast_config() -> MsropmConfig {
    MsropmConfig {
        dt: 0.02,
        ..MsropmConfig::paper_default()
    }
}

/// `seeds.len()` default lanes, `shards` wide on the global shard pool.
fn solve_default(machine: &Msropm, seeds: &[u64], shards: usize) -> Vec<MsropmSolution> {
    let lanes = vec![LaneConfig::default(); seeds.len()];
    machine
        .solve_lanes(&lanes, seeds, SolveOptions::new().shards(shards))
        .expect("no abort check")
}

#[test]
fn batch_matches_sequential_solve_loop() {
    let g = generators::kings_graph(5, 5);
    let machine = Msropm::new(&g, fast_config());
    let seeds: Vec<u64> = (1000..1012).collect();

    // Sequential reference: one fresh clone + solve per seed.
    let sequential: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let mut m = machine.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            m.solve(&mut rng)
        })
        .collect();

    for shards in [1usize, 3, 8] {
        let batch = solve_default(&machine, &seeds, shards);
        assert_eq!(batch.len(), sequential.len());
        for (r, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            assert_eq!(
                b.coloring, s.coloring,
                "coloring mismatch, replica {r}, {shards} shards"
            );
            assert_eq!(b.stages.len(), s.stages.len());
            for (bs, ss) in b.stages.iter().zip(&s.stages) {
                assert_eq!(bs.cut_value, ss.cut_value);
                assert_eq!(bs.active_edges, ss.active_edges);
            }
            // Stronger than required: trajectories are bit-identical.
            for (a, c) in b.final_phases.iter().zip(&s.final_phases) {
                assert_eq!(a.to_bits(), c.to_bits(), "replica {r} phase bits");
            }
        }
    }
}

#[test]
fn batch_shard_width_is_invisible() {
    let g = generators::kings_graph(4, 4);
    let machine = Msropm::new(&g, fast_config().with_num_colors(8));
    let seeds: Vec<u64> = (0..10).map(|i| 31 * i + 7).collect();
    let one = solve_default(&machine, &seeds, 1);
    let many = solve_default(&machine, &seeds, 5);
    for (a, b) in one.iter().zip(&many) {
        assert_eq!(a.coloring, b.coloring);
    }
}

#[test]
fn runner_batched_equals_runner_sequential_across_threads() {
    let g = generators::kings_graph(4, 4);
    let base = ExperimentRunner::new(fast_config())
        .iterations(8)
        .base_seed(2024);
    let reference = base.clone().shards(1).run_sequential(&g);
    for shards in [1usize, 2, 5] {
        let report = base.clone().shards(shards).run(&g);
        assert_eq!(
            report.accuracies(),
            reference.accuracies(),
            "{shards} shards"
        );
        for (a, b) in report.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(a.coloring, b.coloring);
            assert_eq!(a.stage1_cut, b.stage1_cut);
            assert_eq!(a.stage1_accuracy, b.stage1_accuracy);
        }
    }
}

#[test]
fn batch_respects_machine_level_state() {
    // Frequency spread sampled at construction plus a defective ring:
    // both must carry into every replica identically.
    let g = generators::kings_graph(3, 3);
    let mut seed_rng = StdRng::seed_from_u64(555);
    let mut machine = Msropm::with_frequency_spread(&g, fast_config(), &mut seed_rng);
    machine.set_oscillator_enabled(2, false);
    let seeds = [4u64, 5, 6];
    let batch = solve_default(&machine, &seeds, 2);
    for (r, &seed) in seeds.iter().enumerate() {
        let mut m = machine.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let solo = m.solve(&mut rng);
        assert_eq!(batch[r].coloring, solo.coloring, "replica {r}");
    }
}
