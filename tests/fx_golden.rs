//! Golden-hash regression tests for the fixed-point kernel backend.
//!
//! The fixed-point path promises **bit-exact** trajectories: every
//! arithmetic step is integer (i32 binary-turn phases, Q-format
//! weights, table-driven sine), so a given (graph, config, seed) must
//! produce the *same phase words* on every run, at every shard width,
//! forever. These tests pin that promise to committed FNV-1a digests:
//! any change to the fx arithmetic — LUT contents, rounding, noise
//! quantization, step-grid — shows up as a hash mismatch here and must
//! be a deliberate, reviewed format break.
//!
//! The radian phases a solution reports are exactly invertible back to
//! their Q0.32 words (`phase_to_turns(turns_to_phase(q)) == q`, tested
//! in `osc::fxkernel`), so the digest is computed over recovered words
//! rather than float bits — it pins the integer state itself.

use msropm::core::{
    KernelBackend, LaneConfig, Msropm, MsropmConfig, ShardPool, ShardedArena, SolveOptions,
};
use msropm::graph::generators;
use msropm::osc::fxkernel::phase_to_turns;

fn fx_config() -> MsropmConfig {
    MsropmConfig {
        dt: 0.02,
        ..MsropmConfig::paper_default()
    }
    .with_backend(KernelBackend::Fixed)
}

/// FNV-1a over the little-endian bytes of the recovered phase words.
fn fnv1a_words(words: impl IntoIterator<Item = i32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn phase_digest(solutions: &[msropm::core::MsropmSolution]) -> u64 {
    fnv1a_words(
        solutions
            .iter()
            .flat_map(|s| s.final_phases.iter())
            .map(|&p| phase_to_turns(p)),
    )
}

/// The committed digest for `kings_graph(6, 6)`, `fx_config()`, seeds
/// `100..108`. Recompute (and justify) only on a deliberate fx format
/// change.
const GOLDEN_KINGS_6X6: u64 = 0x025b_ddef_c652_f3a5;

#[test]
fn fx_phase_words_match_committed_golden_hash() {
    let g = generators::kings_graph(6, 6);
    let machine = Msropm::new(&g, fx_config());
    let seeds: Vec<u64> = (100..108).collect();
    let lanes = vec![LaneConfig::default(); seeds.len()];

    let solve = || {
        machine
            .solve_lanes(&lanes, &seeds, SolveOptions::new())
            .expect("no abort check")
    };
    let digest = phase_digest(&solve());
    // Run-to-run: the digest is a pure function of (graph, config, seeds).
    let again = phase_digest(&solve());
    assert_eq!(digest, again, "fx solve is not reproducible run-to-run");

    assert_eq!(
        digest, GOLDEN_KINGS_6X6,
        "fx phase words drifted from the committed golden hash \
         (got {digest:#018x}); only a deliberate fx format change may update it"
    );
}

#[test]
fn fx_golden_hash_is_shard_width_invariant() {
    let g = generators::kings_graph(6, 6);
    let machine = Msropm::new(&g, fx_config());
    let seeds: Vec<u64> = (100..108).collect();
    let lanes = vec![LaneConfig::default(); seeds.len()];
    let pool = ShardPool::new(4);

    // Per-shard lane counts 8, 4, 2 and 1: every lane width the kernel
    // specializes plus the generic fallback.
    for shards in [1usize, 2, 4, 8] {
        let mut arena = ShardedArena::new();
        let sols = machine
            .solve_lanes(
                &lanes,
                &seeds,
                SolveOptions::new().sharded(shards, &mut arena, &pool),
            )
            .expect("no abort check");
        assert_eq!(
            phase_digest(&sols),
            GOLDEN_KINGS_6X6,
            "fx digest changed at shard width {shards}"
        );
    }
}

/// The committed digest for a solve shaped like number partitioning
/// (max-cut on a complete graph): `complete_graph(40)` in 2-colour mode,
/// `fx_config()`, seeds `200..203`. Recompute (and justify) only on a
/// deliberate fx format change.
const GOLDEN_COMPLETE_40: u64 = 0x431f_b3f4_66b6_2abe;

#[test]
fn fx_complete_graph_digest_matches_at_every_shard_width() {
    let g = generators::complete_graph(40);
    let config = MsropmConfig {
        num_colors: 2,
        ..fx_config()
    };
    let machine = Msropm::new(&g, config);
    let seeds: Vec<u64> = (200..203).collect();
    let lanes = vec![LaneConfig::default(); seeds.len()];
    let pool = ShardPool::new(2);

    // Per-shard lane counts 3 (generic fallback), then 2 and 1.
    for shards in [1usize, 2] {
        let mut arena = ShardedArena::new();
        let sols = machine
            .solve_lanes(
                &lanes,
                &seeds,
                SolveOptions::new().sharded(shards, &mut arena, &pool),
            )
            .expect("no abort check");
        let digest = phase_digest(&sols);
        assert_eq!(
            digest, GOLDEN_COMPLETE_40,
            "complete-graph fx digest changed at shard width {shards} (got {digest:#018x})"
        );
    }
}
