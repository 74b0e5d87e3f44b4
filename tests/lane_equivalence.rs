//! Property tests pinning the heterogeneous control-lane batch path to
//! the two references it must reproduce bit for bit:
//!
//! 1. a heterogeneous batch whose lanes all carry **identical**
//!    parameters is indistinguishable from a batch of default lanes on a
//!    machine configured at that operating point, and
//! 2. a **single-lane** sweep entry equals a sequential `Msropm::solve`
//!    over the lane's resolved config.
//!
//! Together these close the loop: homogeneous batches were already
//! pinned to sequential solves (`tests/batch_determinism.rs`), so every
//! lane of every sweep is transitively pinned to the scalar reference
//! machine.

use msropm::core::{LaneConfig, Msropm, MsropmConfig, MsropmSolution, ReinitMode, SolveOptions};
use msropm::graph::generators;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fast_config() -> MsropmConfig {
    MsropmConfig {
        dt: 0.02,
        ..MsropmConfig::paper_default()
    }
}

/// `lanes` through `Msropm::solve_lanes`, `shards` wide on the global
/// shard pool.
fn solve(
    machine: &Msropm,
    lanes: &[LaneConfig],
    seeds: &[u64],
    shards: usize,
) -> Vec<MsropmSolution> {
    machine
        .solve_lanes(lanes, seeds, SolveOptions::new().shards(shards))
        .expect("no abort check")
}

/// Strategy: an arbitrary lane override. Each knob is independently
/// present or absent; values span the operating ranges the sweeps use
/// (including σ = 0 and the two re-init modes).
fn arb_lane() -> impl Strategy<Value = LaneConfig> {
    (
        (any::<bool>(), 0.3f64..1.8),
        (any::<bool>(), 0.8f64..3.0),
        (any::<bool>(), 0.0f64..0.4),
        ((any::<bool>(), any::<bool>()), (0usize..3, 0.2f64..2.0)),
    )
        .prop_map(
            |(
                (has_k, k),
                (has_ks, ks),
                (has_noise, noise),
                ((has_ramp, ramp), (reinit_sel, drift_sigma)),
            )| {
                LaneConfig {
                    coupling_strength: has_k.then_some(k),
                    shil_strength: has_ks.then_some(ks),
                    noise: has_noise.then_some(noise),
                    shil_ramp: has_ramp.then_some(ramp),
                    reinit: match reinit_sel {
                        0 => None,
                        1 => Some(ReinitMode::UniformRandom),
                        _ => Some(ReinitMode::JitterDrift { sigma: drift_sigma }),
                    },
                    backend: None,
                }
            },
        )
}

fn assert_solutions_bit_identical(
    a: &msropm::core::MsropmSolution,
    b: &msropm::core::MsropmSolution,
    label: &str,
) {
    assert_eq!(a.coloring, b.coloring, "{label}: coloring");
    assert_eq!(a.stages.len(), b.stages.len(), "{label}: stage count");
    for (sa, sb) in a.stages.iter().zip(&b.stages) {
        assert_eq!(sa.cut_value, sb.cut_value, "{label}: cut");
        assert_eq!(sa.active_edges, sb.active_edges, "{label}: active edges");
        assert_eq!(sa.partition, sb.partition, "{label}: partition");
    }
    for (i, (pa, pb)) in a.final_phases.iter().zip(&b.final_phases).enumerate() {
        assert_eq!(pa.to_bits(), pb.to_bits(), "{label}: phase {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Identical-lane heterogeneous batch ≡ homogeneous batch of a
    /// machine built directly at the resolved operating point.
    #[test]
    fn identical_lanes_match_homogeneous_batch(
        lane in arb_lane(),
        num_lanes in 1usize..5,
        base_seed in 0u64..1000,
    ) {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let seeds: Vec<u64> = (0..num_lanes as u64).map(|i| base_seed + i).collect();

        let het_machine = Msropm::new(&g, base);
        let lanes = vec![lane; num_lanes];
        let het = solve(&het_machine, &lanes, &seeds, 1);

        let hom_machine = Msropm::new(&g, lane.resolve(&base));
        let hom = solve(&hom_machine, &vec![LaneConfig::default(); num_lanes], &seeds, 1);

        prop_assert_eq!(het.len(), hom.len());
        for (r, (a, b)) in het.iter().zip(&hom).enumerate() {
            assert_solutions_bit_identical(a, b, &format!("lane {r}"));
        }
    }

    /// Single-lane sweep entry ≡ sequential `Msropm::solve` with the
    /// same overrides applied to the config.
    #[test]
    fn single_lane_sweep_matches_sequential_solve(
        lane in arb_lane(),
        seed in 0u64..1000,
    ) {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();

        let machine = Msropm::new(&g, base);
        let batch = solve(&machine, &[lane], &[seed], 1);

        let mut solo_machine = Msropm::new(&g, lane.resolve(&base));
        let mut rng = StdRng::seed_from_u64(seed);
        let solo = solo_machine.solve(&mut rng);

        assert_solutions_bit_identical(&batch[0], &solo, "single lane");
    }

    /// Mixed heterogeneous batches: every lane must still match its own
    /// standalone machine even when the batch mixes re-init modes, ramp
    /// flags and operating points.
    #[test]
    fn every_lane_of_a_mixed_batch_matches_its_solo_run(
        lanes in proptest::collection::vec(arb_lane(), 2..5),
        base_seed in 0u64..1000,
    ) {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let seeds: Vec<u64> = (0..lanes.len() as u64).map(|i| base_seed + i).collect();

        let machine = Msropm::new(&g, base);
        let batch = solve(&machine, &lanes, &seeds, 1);

        for (r, (lane, &seed)) in lanes.iter().zip(&seeds).enumerate() {
            let mut solo_machine = Msropm::new(&g, lane.resolve(&base));
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = solo_machine.solve(&mut rng);
            assert_solutions_bit_identical(&batch[r], &solo, &format!("mixed lane {r}"));
        }
    }
}

/// All-default lanes are the homogeneous batch, bitwise, across shard
/// widths.
#[test]
fn default_lanes_are_the_homogeneous_batch() {
    let g = generators::kings_graph(4, 4);
    let machine = Msropm::new(&g, fast_config());
    let seeds: Vec<u64> = (500..508).collect();
    let lanes = vec![LaneConfig::default(); seeds.len()];
    let hom = solve(&machine, &lanes, &seeds, 1);
    for shards in [1usize, 3] {
        let het = solve(&machine, &lanes, &seeds, shards);
        for (r, (a, b)) in het.iter().zip(&hom).enumerate() {
            assert_solutions_bit_identical(a, b, &format!("replica {r}, {shards} shards"));
        }
    }
}
