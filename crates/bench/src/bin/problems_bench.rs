//! Per-class solution-quality ablation for the problem compiler:
//! MIS, vertex cover, max-k-cut and number partitioning, machine vs
//! the classical greedy baseline for each class
//! ([`msropm_problems::baseline`]).
//!
//! Each row solves one instance through the exact server path —
//! `ProblemSpec::compile` → `BatchJob::run` → `Decoder::decode_report`
//! — and records both objectives as a **cost** (smaller is better for
//! every class, so one gate direction covers maximize and minimize
//! problems alike):
//!
//! - `mis_*`: vertices left *outside* the independent set;
//! - `cover_*`: cover size;
//! - `kcut_*`: edges left *uncut*;
//! - `part_*`: partition imbalance.
//!
//! The solve is bit-deterministic at fixed seeds, so the committed
//! `BENCH_problems.json` is an exact accuracy baseline: CI re-runs this
//! bin with `--baseline` and fails if `machine_cost` drifts above the
//! committed value — a solution-quality regression gate, not a timing
//! one. (`--quick` solves the first instance of each class; the gate
//! compares the row subset.)

use msropm_bench::baseline::{default_out_path, enforce_gate_cli};
use msropm_core::{BatchJob, Msropm, MsropmConfig, SolveOptions};
use msropm_graph::{generators, Graph};
use msropm_problems::baseline::{
    greedy_max_k_cut, greedy_mis, greedy_partition, greedy_vertex_cover,
};
use msropm_problems::ProblemSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Fixed solve parameters: the committed baseline is exact, so these
/// must not vary between the refresh run and the CI run.
const REPLICAS: usize = 8;
const SEED: u64 = 42;

/// One measured row of the ablation.
struct Row {
    label: String,
    size: usize,
    machine_objective: f64,
    machine_cost: f64,
    greedy_cost: f64,
}

/// Solves `spec` through the server's compile → run → decode path and
/// returns the best decoded objective.
fn machine_objective(spec: &ProblemSpec) -> f64 {
    let compiled = spec
        .compile(&MsropmConfig::paper_default(), REPLICAS)
        .expect("compile");
    let machine = Msropm::new(&compiled.graph, compiled.config);
    let job = BatchJob {
        config: compiled.config,
        lanes: compiled.lanes.clone(),
        seed: SEED,
    };
    let report = job
        .run(&machine, SolveOptions::new())
        .expect("no abort check");
    let report = compiled.decoder.decode_report(&report);
    report.best().expect("replicas > 0").objective
}

/// The graph instances shared by the graph-problem bins.
fn graph_instances(quick: bool) -> Vec<(&'static str, Graph)> {
    let mut v = vec![("kings_6x6", generators::kings_graph(6, 6))];
    if !quick {
        v.push(("grid_8x8", generators::grid_graph(8, 8)));
        v.push(("cycle_33", generators::cycle_graph(33)));
    }
    v
}

fn main() {
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next(),
            "--baseline" => baseline_path = args.next(),
            other => {
                eprintln!("unknown argument {other:?}; valid: --quick --out PATH --baseline PATH");
                std::process::exit(2);
            }
        }
    }

    let mut rows: Vec<Row> = Vec::new();

    // ---- maximum independent set: cost = vertices left out ----
    for (name, g) in graph_instances(quick) {
        eprintln!("problems_bench: mis on {name}...");
        let n = g.num_nodes() as f64;
        let obj = machine_objective(&ProblemSpec::Mis { graph: g.clone() });
        rows.push(Row {
            label: format!("mis_{name}"),
            size: g.num_nodes(),
            machine_objective: obj,
            machine_cost: n - obj,
            greedy_cost: n - greedy_mis(&g).len() as f64,
        });
    }

    // ---- minimum vertex cover: cost = cover size ----
    for (name, g) in graph_instances(quick) {
        eprintln!("problems_bench: vertex-cover on {name}...");
        let obj = machine_objective(&ProblemSpec::VertexCover { graph: g.clone() });
        rows.push(Row {
            label: format!("cover_{name}"),
            size: g.num_nodes(),
            machine_objective: obj,
            machine_cost: obj,
            greedy_cost: greedy_vertex_cover(&g).len() as f64,
        });
    }

    // ---- max-4-cut: cost = edges left uncut ----
    for (name, g) in graph_instances(quick) {
        eprintln!("problems_bench: max-k-cut on {name}...");
        let edges = g.num_edges() as f64;
        let obj = machine_objective(&ProblemSpec::MaxKCut {
            graph: g.clone(),
            k: 4,
        });
        let (_, greedy_cut) = greedy_max_k_cut(&g, 4);
        rows.push(Row {
            label: format!("kcut_{name}"),
            size: g.num_nodes(),
            machine_objective: obj,
            machine_cost: edges - obj,
            greedy_cost: edges - greedy_cut as f64,
        });
    }

    // ---- number partitioning: cost = imbalance ----
    let sizes: &[usize] = if quick { &[16] } else { &[16, 32, 64] };
    for &n in sizes {
        eprintln!("problems_bench: number-partition n={n}...");
        let mut rng = StdRng::seed_from_u64(SEED ^ n as u64);
        let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..1000)).collect();
        let (_, greedy_imbalance) = greedy_partition(&weights);
        let obj = machine_objective(&ProblemSpec::NumberPartition { weights });
        rows.push(Row {
            label: format!("part_n{n}"),
            size: n,
            machine_objective: obj,
            machine_cost: obj,
            greedy_cost: greedy_imbalance as f64,
        });
    }

    // ---- render ----
    println!("\n== problem-compiler accuracy vs greedy baselines ==");
    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>12}",
        "instance", "size", "machine_obj", "machine_cost", "greedy_cost"
    );
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>12.1} {:>12.1} {:>12.1}",
            r.label, r.size, r.machine_objective, r.machine_cost, r.greedy_cost
        );
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"suite\": \"problems\",");
    let _ = writeln!(json, "  \"unix_time\": {unix_time},");
    let _ = writeln!(json, "  \"replicas\": {REPLICAS},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"instance\": \"{}\", \"size\": {}, \"machine_objective\": {:.1}, \
             \"machine_cost\": {:.1}, \"greedy_cost\": {:.1}}}",
            r.label, r.size, r.machine_objective, r.machine_cost, r.greedy_cost
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let out_path = out_path.unwrap_or_else(|| default_out_path("BENCH_problems.json"));
    std::fs::write(&out_path, &json).expect("write results JSON");
    eprintln!("wrote {out_path}");

    if let Some(baseline) = baseline_path {
        // Quality gate: a machine_cost above the committed value (beyond
        // the shared tolerance) is a solution-quality regression.
        enforce_gate_cli(&json, &baseline, &["machine_cost"]);
    }
}
