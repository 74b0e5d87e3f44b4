//! Golden-hash regression tests for the IEEE-double kernel path.
//!
//! `tests/fx_golden.rs` pins the fixed-point backend; this file pins the
//! f64 backend the same way. The f64 step path (`osc::fastmath`,
//! `osc::batch`, `ode::sde`) is performance-tuned code whose contract is
//! that tuning never changes an output bit: a given (graph, config,
//! seeds) must produce the same `final_phases` bits on every run, at
//! every shard width. The digests below are FNV-1a over those bits, so
//! a change to the sine reduction, the edge-sweep order, the drift
//! accumulation order or the Gaussian sampler's RNG consumption shows
//! up here as a mismatch.
//!
//! **Per-toolchain caveat.** The sine and the common ziggurat path are
//! pure IEEE arithmetic, but the ziggurat's wedge and tail branches call
//! libm `exp` and `ln`. A libm that rounds those differently can move a
//! rare accept/reject decision and with it every later phase. The
//! digests are therefore pinned for this toolchain and platform libm;
//! recompute them only for a toolchain change, never to absorb a kernel
//! edit.

use msropm::core::{
    LaneConfig, Msropm, MsropmConfig, MsropmSolution, ShardPool, ShardedArena, SolveOptions,
};
use msropm::graph::generators;

/// FNV-1a over the little-endian bytes of every lane's final phase
/// bits, lanes in order.
fn phase_digest(solutions: &[MsropmSolution]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in solutions.iter().flat_map(|s| s.final_phases.iter()) {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `kings_graph(8, 8)`, `paper_default()`, seeds `100..108`.
const GOLDEN_KINGS_8X8: u64 = 0x31f4_0f4e_2a12_4cf6;
/// `kings_graph(16, 16)`, `paper_default()`, seeds `100..105`.
const GOLDEN_KINGS_16X16: u64 = 0x1fb7_bb7b_9252_a419;

/// Solves `lanes` default lanes with seeds `100..` at each shard width
/// and asserts every width reproduces `golden`.
fn assert_golden(rows: usize, cols: usize, lanes: usize, golden: u64) {
    let g = generators::kings_graph(rows, cols);
    let machine = Msropm::new(&g, MsropmConfig::paper_default());
    let seeds: Vec<u64> = (100..100 + lanes as u64).collect();
    let lane_configs = vec![LaneConfig::default(); lanes];
    let pool = ShardPool::new(4);
    for shards in [1usize, 4] {
        let mut arena = ShardedArena::new();
        let sols = machine
            .solve_lanes(
                &lane_configs,
                &seeds,
                SolveOptions::new().sharded(shards, &mut arena, &pool),
            )
            .expect("no cancel token => never None");
        let digest = phase_digest(&sols);
        assert_eq!(
            digest, golden,
            "f64 phases of kings_graph({rows}, {cols}) drifted from the committed \
             golden hash at shard width {shards} (got {digest:#018x})"
        );
    }
}

#[test]
fn f64_phases_match_golden_kings_8x8() {
    assert_golden(8, 8, 8, GOLDEN_KINGS_8X8);
}

#[test]
fn f64_phases_match_golden_kings_16x16() {
    assert_golden(16, 16, 5, GOLDEN_KINGS_16X16);
}
