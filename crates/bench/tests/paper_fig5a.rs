//! A paper number under tier-1: Fig. 5(a) at 49 nodes, reduced to 4
//! iterations, on both kernel backends.
//!
//! The per-iteration accuracy is the edge-satisfaction ratio
//! `(m − conflicts)/m` of the King's 7×7 board (m = 156), so each one is
//! pinned exactly, as a conflict count. A change that moves any
//! King's-graph phase bit of either backend fails here unless it is a
//! deliberate, announced format change.

use msropm_bench::paper_benchmark;
use msropm_core::{CutReference, ExperimentRunner, KernelBackend, MsropmConfig};

/// The figure binaries' default base seed (`Options::seed`).
const BASE_SEED: u64 = 0x5EED;

/// Conflicting edges per iteration, for each backend.
fn conflicts(backend: KernelBackend) -> Vec<usize> {
    let bench = paper_benchmark(7);
    let report = ExperimentRunner::new(MsropmConfig::paper_default().with_backend(backend))
        .iterations(4)
        .base_seed(BASE_SEED)
        .cut_reference(CutReference::Value(bench.best_cut))
        .run(&bench.graph);
    let m = bench.graph.num_edges();
    assert_eq!(m, 156, "King's 7×7 edge count");
    report
        .accuracies()
        .iter()
        .zip(&report.outcomes)
        .map(|(&acc, outcome)| {
            let c = outcome.coloring.conflicts(&bench.graph);
            assert_eq!(
                acc,
                (m - c) as f64 / m as f64,
                "accuracy is not (m − conflicts)/m"
            );
            c
        })
        .collect()
}

#[test]
fn fig5a_49_node_accuracies_are_pinned_on_f64() {
    // Accuracies 0.949, 0.981, 0.981 and 0.987.
    assert_eq!(conflicts(KernelBackend::F64), vec![8, 3, 3, 2]);
}

#[test]
fn fig5a_49_node_accuracies_are_pinned_on_fixed_point() {
    // Accuracies 0.942, 0.981, 0.962 and 0.987.
    assert_eq!(conflicts(KernelBackend::Fixed), vec![9, 3, 6, 2]);
}
