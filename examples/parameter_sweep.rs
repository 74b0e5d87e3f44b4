//! Per-replica control lanes: sweep an operating grid and run a restart
//! portfolio in one batch.
//!
//! The batch engine runs every replica through one lockstep schedule,
//! but each replica ("lane") can carry its own coupling strength, SHIL
//! strength/ramp, noise amplitude and re-init mode. This example sweeps
//! a (K, σ) grid over a King's graph two ways:
//!
//! 1. a plain heterogeneous batch (`Msropm::solve_lanes`, four shards
//!    on the shard pool) — every grid point runs independently,
//!    bit-identical to a standalone machine at that point;
//! 2. a `PortfolioRunner` with population restarts — at each stage
//!    boundary the worst lanes are re-seeded from the best survivors'
//!    partition state.
//!
//! ```sh
//! cargo run --release --example parameter_sweep [side]
//! ```

use msropm::core::{Msropm, MsropmConfig, PortfolioRunner, SolveOptions, SweepParam, SweepSpec};
use msropm::graph::generators::kings_graph_square;

fn main() {
    let side: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let g = kings_graph_square(side);
    let base = MsropmConfig::paper_default();
    println!(
        "{side}x{side} King's graph ({} nodes, {} edges), base point K = {}, sigma = {}\n",
        g.num_nodes(),
        g.num_edges(),
        base.coupling_strength,
        base.noise
    );

    // A 4 x 4 grid bracketing the paper's empirical operating point.
    let sweep = SweepSpec::new()
        .logspace(SweepParam::CouplingStrength, 0.5, 2.0, 4)
        .linspace(SweepParam::Noise, 0.10, 0.30, 4);
    let lanes = sweep.lanes();
    let seeds: Vec<u64> = (0..lanes.len() as u64).collect();

    // --- 1. Plain heterogeneous sweep: one batch, 16 operating points.
    let machine = Msropm::new(&g, base);
    let solutions = machine
        .solve_lanes(&lanes, &seeds, SolveOptions::new().shards(4))
        .expect("no abort check => never None");
    println!("independent sweep (accuracy per grid point):");
    println!("         sigma=0.100 sigma=0.167 sigma=0.233 sigma=0.300");
    for row in 0..4 {
        let cells: Vec<String> = (0..4)
            .map(|col| {
                let sol = &solutions[row * 4 + col];
                format!("{:11.3}", sol.coloring.accuracy(&g))
            })
            .collect();
        let k = lanes[row * 4].coupling_strength.unwrap();
        println!("K={k:5.3} {}", cells.join(" "));
    }

    // --- 2. The same grid as a restart portfolio.
    let report = PortfolioRunner::from_sweep(base, &sweep)
        .base_seed(0)
        .restart_fraction(0.25)
        .run(&g);
    let best = report.best();
    println!(
        "\nportfolio with restarts: {} restarts fired; best lane {} \
         (K = {:.3}, sigma = {:.3}) accuracy {:.3}",
        report.restarts.len(),
        best.lane,
        best.config.coupling_strength,
        best.config.noise,
        best.accuracy
    );
}
