//! Criterion micro-benchmarks of the phase-macromodel hot loop: one
//! right-hand-side evaluation and one full annealing window for each paper
//! problem size, for both the naive CSR walk (`PhaseNetwork::eval`, the
//! reference) and the compiled coupling kernel (`BatchKernel`, at one
//! lane and at 40) that the machine actually runs on. This measures the
//! scaling behaviour that lets the macromodel handle the 2116-node array
//! the paper simulates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msropm_graph::generators;
use msropm_ode::system::OdeSystem;
use msropm_osc::batch::{BatchIntegrator, BatchKernel};
use msropm_osc::PhaseNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("phase_eval");
    for side in [7usize, 20, 32, 46] {
        let g = generators::kings_graph_square(side);
        let net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        let mut rng = StdRng::seed_from_u64(1);
        let phases = net.random_phases(&mut rng);
        let mut dydt = vec![0.0; phases.len()];
        group.bench_with_input(
            BenchmarkId::from_parameter(g.num_nodes()),
            &g.num_nodes(),
            |b, _| {
                b.iter(|| {
                    net.eval(0.0, std::hint::black_box(&phases), &mut dydt);
                    std::hint::black_box(&dydt);
                })
            },
        );
    }
    group.finish();
}

fn bench_batch1_eval(c: &mut Criterion) {
    // The single-run shape: the kernel at one lane.
    let mut group = c.benchmark_group("phase_eval_batch1");
    for side in [7usize, 20, 32, 46] {
        let g = generators::kings_graph_square(side);
        let net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        let kernel = BatchKernel::new(&net, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let phases = net.random_phases(&mut rng);
        let mut dydt = vec![0.0; phases.len()];
        let mut scratch = Vec::new();
        group.bench_with_input(
            BenchmarkId::from_parameter(g.num_nodes()),
            &g.num_nodes(),
            |b, _| {
                b.iter(|| {
                    kernel.drift_into(std::hint::black_box(&phases), &mut dydt, &mut scratch);
                    std::hint::black_box(&dydt);
                })
            },
        );
    }
    group.finish();
}

fn bench_batch_eval(c: &mut Criterion) {
    // The runner's shape: the paper's 40 iterations as one SoA sweep.
    // Reported time is for all 40 replicas; divide by 40 to compare with
    // the one-lane kernel.
    let mut group = c.benchmark_group("phase_eval_batch40");
    for side in [7usize, 20, 32, 46] {
        let g = generators::kings_graph_square(side);
        let net = PhaseNetwork::builder(&g).coupling_strength(1.0).build();
        let replicas = 40;
        let kernel = BatchKernel::new(&net, replicas);
        let mut rng = StdRng::seed_from_u64(1);
        let phases: Vec<f64> = (0..g.num_nodes() * replicas)
            .map(|_| rand::Rng::gen::<f64>(&mut rng) * std::f64::consts::TAU)
            .collect();
        let mut dydt = vec![0.0; phases.len()];
        let mut scratch = Vec::new();
        group.bench_with_input(
            BenchmarkId::from_parameter(g.num_nodes()),
            &g.num_nodes(),
            |b, _| {
                b.iter(|| {
                    kernel.drift_into(std::hint::black_box(&phases), &mut dydt, &mut scratch);
                    std::hint::black_box(&dydt);
                })
            },
        );
    }
    group.finish();
}

fn bench_anneal_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("anneal_1ns");
    group.sample_size(10);
    for side in [7usize, 20, 32] {
        let g = generators::kings_graph_square(side);
        group.bench_with_input(
            BenchmarkId::from_parameter(g.num_nodes()),
            &g.num_nodes(),
            |b, _| {
                let mut net = PhaseNetwork::builder(&g)
                    .coupling_strength(1.0)
                    .noise(0.18)
                    .build();
                let mut rng = StdRng::seed_from_u64(2);
                let mut phases = net.random_phases(&mut rng);
                b.iter(|| {
                    net.anneal(&mut phases, 1.0, 0.01, &mut rng);
                    std::hint::black_box(&phases);
                })
            },
        );
    }
    group.finish();
}

fn bench_anneal_window_batch1(c: &mut Criterion) {
    // Same window as `anneal_1ns` but building the one-lane kernel once
    // and reusing the integrator — the machine's actual hot path.
    let mut group = c.benchmark_group("anneal_1ns_batch1");
    group.sample_size(10);
    for side in [7usize, 20, 32] {
        let g = generators::kings_graph_square(side);
        group.bench_with_input(
            BenchmarkId::from_parameter(g.num_nodes()),
            &g.num_nodes(),
            |b, _| {
                let net = PhaseNetwork::builder(&g)
                    .coupling_strength(1.0)
                    .noise(0.18)
                    .build();
                let kernel = BatchKernel::new(&net, 1);
                let mut integrator = BatchIntegrator::new();
                let mut rng = [StdRng::seed_from_u64(2)];
                let mut phases = net.random_phases(&mut rng[0]);
                b.iter(|| {
                    integrator.integrate(&kernel, &mut phases, 0.0, 1.0, 0.01, &mut rng);
                    std::hint::black_box(&phases);
                })
            },
        );
    }
    group.finish();
}

fn bench_anneal_window_batch(c: &mut Criterion) {
    // 40-replica interleaved anneal window (time covers all replicas).
    let mut group = c.benchmark_group("anneal_1ns_batch40");
    group.sample_size(10);
    for side in [7usize, 20, 32] {
        let g = generators::kings_graph_square(side);
        group.bench_with_input(
            BenchmarkId::from_parameter(g.num_nodes()),
            &g.num_nodes(),
            |b, _| {
                let net = PhaseNetwork::builder(&g)
                    .coupling_strength(1.0)
                    .noise(0.18)
                    .build();
                let replicas = 40;
                let kernel = BatchKernel::new(&net, replicas);
                let mut integrator = BatchIntegrator::new();
                let mut rngs: Vec<StdRng> = (0..replicas)
                    .map(|r| StdRng::seed_from_u64(r as u64))
                    .collect();
                let mut seed_rng = StdRng::seed_from_u64(2);
                let mut phases: Vec<f64> = (0..g.num_nodes() * replicas)
                    .map(|_| rand::Rng::gen::<f64>(&mut seed_rng) * std::f64::consts::TAU)
                    .collect();
                b.iter(|| {
                    integrator.integrate(&kernel, &mut phases, 0.0, 1.0, 0.01, &mut rngs);
                    std::hint::black_box(&phases);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_eval,
    bench_batch1_eval,
    bench_batch_eval,
    bench_anneal_window,
    bench_anneal_window_batch1,
    bench_anneal_window_batch,
);
criterion_main!(benches);
