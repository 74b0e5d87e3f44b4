//! Ablation: heterogeneous (σ, K) lane sweep + population restarts vs
//! the single-point paper default.
//!
//! The companion multi-phase OPM work (arXiv:2504.04223) shows solution
//! quality is sharply sensitive to the coupling/SHIL operating point;
//! the paper tunes one point "empirically" and replays it for every
//! iteration. This ablation spends the same replica budget as a
//! **portfolio**: a 16-lane log/linear (K, σ) grid run through
//! [`PortfolioRunner`], with the worst quarter of lanes re-seeded from
//! the best survivors at each stage boundary. The acceptance claim is
//! that the portfolio's best lane is at least as accurate as the
//! single-point default batch with the same lane count and seeds.
//!
//! Run with: `cargo run --release -p msropm-bench --bin
//! ablation_lane_sweep` (`--quick` shrinks the board to 7×7).

use msropm_bench::{paper_benchmark, Options, Table};
use msropm_core::{
    LaneConfig, Msropm, MsropmConfig, PortfolioRunner, SolveOptions, SweepParam, SweepSpec,
};

fn main() {
    let opts = Options::from_env();
    let bench = paper_benchmark(if opts.quick { 7 } else { 20 });
    let g = &bench.graph;
    let base = MsropmConfig::paper_default();

    // 4 × 4 operating grid bracketing the paper point (K = 1, σ = 0.18).
    let sweep = SweepSpec::new()
        .logspace(SweepParam::CouplingStrength, 0.6, 1.6, 4)
        .linspace(SweepParam::Noise, 0.10, 0.30, 4);
    let num_lanes = sweep.num_lanes();

    println!(
        "== Ablation: {num_lanes}-lane (K, sigma) portfolio on the {}x{} King's graph ==",
        bench.side, bench.side
    );

    // Baseline: the same replica budget, all lanes at the paper point.
    let seeds: Vec<u64> = (0..num_lanes as u64).map(|i| opts.seed + i).collect();
    let machine = Msropm::new(g, base);
    let baseline = machine
        .solve_lanes(
            &vec![LaneConfig::default(); seeds.len()],
            &seeds,
            SolveOptions::new().shards(msropm_core::num_cores()),
        )
        .expect("no abort check");
    let baseline_best = baseline
        .iter()
        .map(|s| s.coloring.accuracy(g))
        .fold(0.0f64, f64::max);

    let report = PortfolioRunner::from_sweep(base, &sweep)
        .base_seed(opts.seed)
        .restart_fraction(0.25)
        .run(g);

    let mut table = Table::new(vec!["lane", "K", "sigma", "restarted", "accuracy"]);
    for o in &report.lanes {
        let restarted = report
            .restarts
            .iter()
            .filter(|e| e.dst == o.lane)
            .map(|e| format!("s{}<-{}", e.stage, e.src))
            .collect::<Vec<_>>()
            .join(",");
        table.row(vec![
            format!("{}", o.lane),
            format!("{:.3}", o.config.coupling_strength),
            format!("{:.3}", o.config.noise),
            if restarted.is_empty() {
                "-".to_string()
            } else {
                restarted
            },
            format!("{:.4}", o.accuracy),
        ]);
    }
    println!("{}", table.render());

    let best = report.best();
    println!(
        "portfolio best: lane {} (K = {:.3}, sigma = {:.3}) accuracy {:.4}",
        best.lane, best.config.coupling_strength, best.config.noise, best.accuracy
    );
    println!(
        "single-point baseline (paper default, {num_lanes} replicas): best accuracy {baseline_best:.4}"
    );
    println!("restarts fired: {}", report.restarts.len());
    if best.accuracy >= baseline_best {
        println!("PASS: portfolio best lane >= single-point default");
    } else {
        println!(
            "MISS: portfolio under the single-point default by {:.4}",
            baseline_best - best.accuracy
        );
    }

    let path = opts.out_path("ablation_lane_sweep.csv");
    let file = std::fs::File::create(&path).expect("create CSV");
    table.write_csv(file).expect("write CSV");
    eprintln!("wrote {}", path.display());
}
