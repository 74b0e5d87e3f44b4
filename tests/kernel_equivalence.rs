//! Property tests pinning the compiled coupling kernel to the naive
//! reference drift: for *any* gating state (edge gates, defective rings,
//! global enables, SHIL assignments, weight overrides, frequency spread),
//! a one-lane `BatchKernel` — the kernel a single run steps — must agree
//! with `PhaseNetwork::eval` to ≤ 1e-12, and one `BatchIntegrator` step
//! must agree with Euler–Maruyama on the reference network, noise
//! included.

use msropm::graph::{Graph, GraphBuilder};
use msropm::osc::shil::Shil;
use msropm::osc::{BatchIntegrator, BatchKernel, PhaseNetwork};
use msropm_ode::system::OdeSystem;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random simple graph as (n, edge pair list).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..max_edges.min(80)).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge_dedup(u, v);
                }
            }
            b.build()
        })
    })
}

/// Builds a network over `g` with every kind of gating state randomized
/// from `seed`: per-edge enables and weight overrides, defective rings,
/// global coupling/SHIL enables, mixed-order SHIL assignments, frequency
/// spread and noise.
fn random_gated_network(g: &Graph, seed: u64) -> (PhaseNetwork, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let coupling = rng.gen::<f64>() * 2.0;
    let mut net = PhaseNetwork::builder(g)
        .coupling_strength(coupling)
        .noise(rng.gen::<f64>())
        .frequency_spread(0.2)
        .build_with_spread(&mut rng);
    for e in 0..g.num_edges() {
        if rng.gen_bool(0.3) {
            net.set_edge_enabled(e, false);
        }
        if rng.gen_bool(0.25) {
            net.set_edge_weight(e, rng.gen_range(-2.0f64..2.0));
        }
    }
    for i in 0..g.num_nodes() {
        if rng.gen_bool(0.15) {
            net.set_node_enabled(i, false);
        }
    }
    if rng.gen_bool(0.15) {
        net.set_couplings_enabled(false);
    }
    if rng.gen_bool(0.7) {
        net.set_shil_enabled(true);
        for i in 0..g.num_nodes() {
            if rng.gen_bool(0.8) {
                let order = rng.gen_range(2u64..5) as u32;
                let psi = rng.gen::<f64>() * std::f64::consts::TAU;
                let ks = rng.gen::<f64>() * 3.0;
                net.set_shil_node(i, Some(Shil::new(order, psi, ks)));
            }
        }
    }
    let phases = net.random_phases(&mut rng);
    (net, phases)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #[test]
    fn compiled_drift_matches_naive_eval(g in arb_graph(28), seed in 0u64..100_000) {
        let (net, phases) = random_gated_network(&g, seed);
        let n = g.num_nodes();

        let mut naive = vec![0.0; n];
        net.eval(0.0, &phases, &mut naive);

        let kernel = BatchKernel::new(&net, 1);
        let mut compiled = vec![0.0; n];
        let mut scratch = Vec::new();
        kernel.drift_into(&phases, &mut compiled, &mut scratch);

        let err = max_abs_diff(&naive, &compiled);
        prop_assert!(err <= 1e-12, "kernel vs naive drift diverged: {err:e}");
    }

    #[test]
    fn recompile_tracks_gating_changes(g in arb_graph(20), seed in 0u64..100_000) {
        // Mutating the network after compilation must not affect the old
        // kernel; recompiling must match the new state.
        let (mut net, phases) = random_gated_network(&g, seed);
        let before = BatchKernel::new(&net, 1);
        let edges_before = before.num_live_edges();

        net.set_couplings_enabled(true);
        for e in 0..g.num_edges() {
            net.set_edge_enabled(e, true);
        }
        for i in 0..g.num_nodes() {
            net.set_node_enabled(i, true);
        }
        prop_assert_eq!(before.num_live_edges(), edges_before, "compiled kernel mutated");

        let after = BatchKernel::new(&net, 1);
        prop_assert_eq!(after.num_live_edges(), g.num_edges());

        let mut naive = vec![0.0; g.num_nodes()];
        net.eval(0.0, &phases, &mut naive);
        let mut compiled = vec![0.0; g.num_nodes()];
        after.drift_into(&phases, &mut compiled, &mut Vec::new());
        prop_assert!(max_abs_diff(&naive, &compiled) <= 1e-12);
    }

    #[test]
    fn compiled_diffusion_matches_naive(g in arb_graph(20), seed in 0u64..100_000) {
        // One step from the same seed: the kernel must apply the
        // network's σ to every ring (0 on defective ones) and consume
        // the deviates in the same node order as Euler–Maruyama on the
        // reference network.
        use msropm_ode::sde::{EulerMaruyama, SdeStepper};
        let (net, phases) = random_gated_network(&g, seed);
        let mut naive = phases.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        EulerMaruyama::new().step(&net, 0.0, &mut naive, 0.01, &mut rng);
        let mut compiled = phases;
        let rngs = &mut [StdRng::seed_from_u64(seed ^ 0x5eed)];
        BatchIntegrator::new().step(&BatchKernel::new(&net, 1), &mut compiled, 0.01, rngs);
        let err = max_abs_diff(&naive, &compiled);
        prop_assert!(err <= 1e-12, "kernel vs Euler–Maruyama step diverged: {err:e}");
    }
}

#[test]
fn kernel_matches_naive_on_paper_sized_kings_graph() {
    // One deterministic large case: the paper's 2116-oscillator board.
    let g = msropm::graph::generators::kings_graph_square(46);
    let mut net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
    net.set_shil_all(Shil::order2(0.0, 2.5));
    net.set_shil_enabled(true);
    let mut rng = StdRng::seed_from_u64(2116);
    let phases = net.random_phases(&mut rng);
    let mut naive = vec![0.0; g.num_nodes()];
    net.eval(0.0, &phases, &mut naive);
    let kernel = BatchKernel::new(&net, 1);
    assert_eq!(kernel.num_live_edges(), g.num_edges());
    let mut compiled = vec![0.0; g.num_nodes()];
    kernel.drift_into(&phases, &mut compiled, &mut Vec::new());
    let err = max_abs_diff(&naive, &compiled);
    assert!(err <= 1e-12, "2116-node drift error {err:e}");
}
