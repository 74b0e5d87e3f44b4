//! Property tests pinning the compiled coupling kernel to the naive
//! reference drift: for *any* gating state (edge gates, defective rings,
//! global enables, SHIL assignments, weight overrides, frequency spread),
//! a one-lane `BatchKernel` — the kernel a single run steps — must agree
//! with `PhaseNetwork::eval` to ≤ 1e-12, and one `BatchIntegrator` step
//! must agree with Euler–Maruyama on the reference network, noise
//! included. A cross-format property drives the f64 and fixed-point
//! kernels through one random sequence of in-place control calls and
//! checks that both apply the same gating, noise and drift rules.

use msropm::graph::{Graph, GraphBuilder};
use msropm::osc::fxkernel::turns_to_phase;
use msropm::osc::shil::Shil;
use msropm::osc::{BatchIntegrator, BatchKernel, FxBatchKernel, PhaseNetwork};
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

/// Step size the fixed-point kernel of the cross-format test is
/// quantized at.
const FX_DT: f64 = 0.01;
/// Largest |K|, Ks and SHIL scale the cross-format test draws: the
/// drift budget below is derived from them.
const MAX_K: f64 = 2.0;
const MAX_KS: f64 = 3.0;
const MAX_SCALE: f64 = 2.0;

/// Heterogeneous lanes over `g` from `seed`: one base network with
/// defective rings, gated edges and frequency spread, then per-lane
/// coupling strength, noise amplitude and SHIL source.
fn heterogeneous_lanes(g: &Graph, lanes: usize, rng: &mut StdRng) -> Vec<PhaseNetwork> {
    let mut base = PhaseNetwork::builder(g)
        .coupling_strength(1.0)
        .frequency_spread(0.3)
        .build_with_spread(rng);
    for i in 0..g.num_nodes() {
        if rng.gen_bool(0.2) {
            base.set_node_enabled(i, false);
        }
    }
    for e in 0..g.num_edges() {
        if rng.gen_bool(0.2) {
            base.set_edge_enabled(e, false);
        }
    }
    base.set_shil_enabled(rng.gen_bool(0.5));
    (0..lanes)
        .map(|_| {
            let mut net = base.clone();
            net.set_coupling_strength(rng.gen_range(0.0..MAX_K));
            net.set_noise(rng.gen_range(0.0..1.0));
            let psi = rng.gen::<f64>() * std::f64::consts::TAU;
            net.set_shil_all(Shil::order2(psi, rng.gen_range(0.0..MAX_KS)));
            net
        })
        .collect()
}

/// Applies one random in-place control call to both kernels.
fn random_control(g: &Graph, f: &mut BatchKernel, x: &mut FxBatchKernel, rng: &mut StdRng) {
    let (n, m, rr) = (g.num_nodes(), g.num_edges(), f.num_replicas());
    let (i, r) = (rng.gen_range(0..n), rng.gen_range(0..rr));
    match rng.gen_range(0..10u32) {
        0 | 1 if m > 0 => {
            let (e, on) = (rng.gen_range(0..m), rng.gen_bool(0.5));
            f.set_edge_enabled(e, r, on);
            x.set_edge_enabled(e, r, on);
        }
        2 => {
            f.enable_all_edges();
            x.enable_all_edges();
        }
        3 => {
            let d = rng.gen_range(-0.3..0.3);
            f.set_bias(i, r, d);
            x.set_bias(i, r, d);
        }
        4 => {
            let shil = rng.gen_bool(0.8).then(|| {
                let psi = rng.gen::<f64>() * std::f64::consts::TAU;
                Shil::new(rng.gen_range(1..5), psi, rng.gen_range(0.0..MAX_KS))
            });
            f.set_shil(i, r, shil);
            x.set_shil(i, r, shil);
        }
        5 => {
            let sigma = rng.gen_range(0.0..1.0);
            f.set_lane_noise_amplitude(r, sigma);
            x.set_lane_noise_amplitude(r, sigma);
        }
        6 => {
            let scale = rng.gen_range(0.0..MAX_SCALE);
            f.set_lane_shil_scale(r, scale);
            x.set_lane_shil_scale(r, scale);
        }
        7 => {
            let on = rng.gen_bool(0.5);
            f.set_couplings_enabled(on);
            x.set_couplings_enabled(on);
        }
        8 => {
            let on = rng.gen_bool(0.5);
            f.set_shil_enabled(on);
            x.set_shil_enabled(on);
        }
        _ => {
            let sigma = rng.gen_range(0.0..1.0);
            f.set_noise_amplitude(sigma);
            x.set_noise_amplitude(sigma);
        }
    }
}

/// Checks that both kernels carry the same control state: every gating
/// bit and lane noise amplitude agree, and the fixed-point drift at
/// quantized phases matches `dt`·(float drift) within the quantization
/// budget of `fx_drift_matches_float_kernel_within_quantization_bound`
/// (LUT error of every term, a few counts of rounding per term) plus the
/// Q16 rounding of the SHIL scale.
fn assert_same_controls(g: &Graph, f: &BatchKernel, x: &FxBatchKernel, rng: &mut StdRng) {
    let (n, rr) = (f.num_nodes(), f.num_replicas());
    for e in 0..g.num_edges() {
        for r in 0..rr {
            let (fe, xe) = (f.edge_enabled(e, r), x.edge_enabled(e, r));
            assert_eq!(fe, xe, "edge {e} lane {r}");
        }
    }
    for r in 0..rr {
        let (fs, xs) = (f.lane_noise_amplitude(r), x.lane_noise_amplitude(r));
        assert_eq!(fs, xs, "lane {r} noise amplitude");
    }
    let yq: Vec<i32> = (0..n * rr).map(|_| rng.gen::<u32>() as i32).collect();
    let yf: Vec<f64> = yq.iter().map(|&q| turns_to_phase(q)).collect();
    let mut df = vec![0.0; n * rr];
    let mut dq = vec![0i32; n * rr];
    f.drift_into(&yf, &mut df, &mut Vec::new());
    x.drift_into(&yq, &mut dq, &mut Vec::new());
    let count = turns_to_phase(1);
    for i in 0..n {
        let degree = g.degree(msropm::graph::NodeId::new(i)) as f64;
        let terms = degree + 2.0;
        let lut = 4e-7 * FX_DT * (degree * MAX_K + MAX_KS * MAX_SCALE);
        let scale_q16 = FX_DT * MAX_KS * MAX_SCALE / 131_072.0;
        let budget = lut + scale_q16 + 2.0 * terms * count;
        for r in 0..rr {
            let k = i * rr + r;
            let (got, want) = (dq[k] as f64 * count, FX_DT * df[k]);
            assert!(
                (got - want).abs() < budget,
                "node {i} lane {r}: fx {got:e} vs float {want:e} (budget {budget:e})"
            );
        }
    }
}

proptest! {
    /// The f64 and fixed-point kernels, built from the same heterogeneous
    /// lanes and driven by one random sequence of in-place control calls,
    /// agree on every gating bit and lane noise amplitude after every
    /// call, and their drifts agree within the quantization budget.
    #[test]
    fn both_formats_apply_the_same_controls(
        g in arb_graph(16),
        lanes in 1usize..5,
        seed in 0u64..100_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nets = heterogeneous_lanes(&g, lanes, &mut rng);
        let mut f = BatchKernel::from_lanes(&nets);
        let mut x = FxBatchKernel::from_lanes(&nets, FX_DT);
        assert_same_controls(&g, &f, &x, &mut rng);
        for _ in 0..rng.gen_range(1usize..40) {
            random_control(&g, &mut f, &mut x, &mut rng);
            assert_same_controls(&g, &f, &x, &mut rng);
        }
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
