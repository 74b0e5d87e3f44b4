//! End-to-end problem roundtrips: compile a typed spec onto the
//! machine, run the compiled batch job exactly as a server worker
//! would, decode the ranked readout, and check the decoded objective
//! against an exhaustive brute-force optimum on instances small enough
//! to enumerate. Two properties per class:
//!
//! 1. **consistency** — every decoded lane's objective equals the
//!    objective recomputed from its solution by
//!    [`Decoder::objective_of`] (no decoder can report a number its
//!    own solution does not earn);
//! 2. **quality** — the best decoded objective equals the brute-force
//!    optimum (the instances are chosen so the solve + deterministic
//!    repair reliably reaches it; everything here is bit-deterministic,
//!    so a pass is a pass forever).

use msropm_core::{BatchJob, Msropm, MsropmConfig, SolveOptions};
use msropm_graph::{generators, Graph};
use msropm_problems::{Cnf, Ising, Lit, ObjectiveSense, ProblemReport, ProblemSpec, Qubo};

/// Compiles, solves, and decodes `spec` exactly like the server path.
fn solve_roundtrip(spec: &ProblemSpec, replicas: usize, seed: u64) -> ProblemReport {
    let compiled = spec
        .compile(&MsropmConfig::paper_default(), replicas)
        .expect("compile");
    let machine = Msropm::new(&compiled.graph, compiled.config);
    let job = BatchJob {
        config: compiled.config,
        lanes: compiled.lanes.clone(),
        seed,
    };
    let report = job
        .run(&machine, SolveOptions::new())
        .expect("no abort check");
    let decoded = compiled.decoder.decode_report(&report);
    // Consistency: each lane's objective is earned by its solution.
    for lane in &decoded.ranked {
        assert_eq!(
            compiled.decoder.objective_of(&lane.solution),
            Some(lane.objective),
            "lane {} reports an objective its solution does not earn",
            lane.lane
        );
    }
    // Ranking: best-first in the class's own sense.
    for pair in decoded.ranked.windows(2) {
        match decoded.class.sense() {
            ObjectiveSense::Maximize => assert!(pair[0].objective >= pair[1].objective),
            ObjectiveSense::Minimize => assert!(pair[0].objective <= pair[1].objective),
        }
    }
    decoded
}

fn best_objective(spec: &ProblemSpec, replicas: usize, seed: u64) -> f64 {
    solve_roundtrip(spec, replicas, seed)
        .best()
        .expect("nonzero replicas")
        .objective
}

/// Exhaustive max-cut over all 2^n side assignments.
fn brute_max_cut(g: &Graph) -> usize {
    let n = g.num_nodes();
    assert!(n <= 20);
    (0u32..1 << n)
        .map(|mask| {
            g.edges()
                .filter(|&(_, u, v)| (mask >> u.index()) & 1 != (mask >> v.index()) & 1)
                .count()
        })
        .max()
        .unwrap()
}

/// Exhaustive max-k-cut / min-conflict coloring over all k^n colorings;
/// returns the maximum number of bichromatic edges.
fn brute_max_k_cut(g: &Graph, k: usize) -> usize {
    let n = g.num_nodes();
    assert!(k.pow(n as u32) <= 1 << 22);
    let mut best = 0;
    let mut colors = vec![0usize; n];
    loop {
        let cut = g
            .edges()
            .filter(|&(_, u, v)| colors[u.index()] != colors[v.index()])
            .count();
        best = best.max(cut);
        // Odometer increment over base-k strings.
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            colors[i] += 1;
            if colors[i] < k {
                break;
            }
            colors[i] = 0;
            i += 1;
        }
    }
}

/// Exhaustive maximum independent set size.
fn brute_mis(g: &Graph) -> usize {
    let n = g.num_nodes();
    assert!(n <= 20);
    (0u32..1 << n)
        .filter(|mask| {
            g.edges()
                .all(|(_, u, v)| (mask >> u.index()) & 1 == 0 || (mask >> v.index()) & 1 == 0)
        })
        .map(|mask| mask.count_ones() as usize)
        .max()
        .unwrap()
}

/// Exhaustive minimum partition imbalance.
fn brute_partition(weights: &[u64]) -> u64 {
    let n = weights.len();
    assert!(n <= 20);
    (0u32..1 << n)
        .map(|mask| {
            let side: u64 = weights
                .iter()
                .enumerate()
                .filter(|(i, _)| (mask >> i) & 1 == 1)
                .map(|(_, &w)| w)
                .sum();
            let total: u64 = weights.iter().sum();
            side.abs_diff(total - side)
        })
        .min()
        .unwrap()
}

/// Exhaustive minimum unsatisfied-clause count.
fn brute_cnf(cnf: &Cnf) -> usize {
    let n = cnf.num_vars();
    assert!(n <= 20);
    (0u32..1 << n)
        .map(|mask| {
            let a: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
            cnf.clauses()
                .filter(|clause| {
                    !clause.iter().any(|lit| {
                        let v = lit.var().index();
                        a[v] == lit.is_positive()
                    })
                })
                .count()
        })
        .min()
        .unwrap()
}

/// Exhaustive QUBO minimum energy.
fn brute_qubo(q: &Qubo) -> f64 {
    assert!(q.n <= 20);
    (0u32..1 << q.n)
        .map(|mask| {
            let mut e = 0.0;
            for (i, &l) in q.linear.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    e += l;
                }
            }
            for &(i, j, w) in &q.quadratic {
                if (mask >> i) & 1 == 1 && (mask >> j) & 1 == 1 {
                    e += w;
                }
            }
            e
        })
        .fold(f64::INFINITY, f64::min)
}

/// Exhaustive Ising minimum energy.
fn brute_ising(ising: &Ising) -> f64 {
    assert!(ising.n <= 20);
    let spin = |mask: u32, i: usize| if (mask >> i) & 1 == 1 { 1.0 } else { -1.0 };
    (0u32..1 << ising.n)
        .map(|mask| {
            let mut e = 0.0;
            for (i, &h) in ising.h.iter().enumerate() {
                e += h * spin(mask, i);
            }
            for &(i, j, w) in &ising.j {
                e += w * spin(mask, i as usize) * spin(mask, j as usize);
            }
            e
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn coloring_roundtrip_matches_brute_force() {
    // C6 is 2-colorable: the optimum is zero conflicts.
    let g = generators::cycle_graph(6);
    let spec = ProblemSpec::Coloring {
        graph: g.clone(),
        colors: 2,
    };
    let opt = g.num_edges() - brute_max_k_cut(&g, 2);
    assert_eq!(opt, 0);
    assert_eq!(best_objective(&spec, 8, 11), opt as f64);
}

#[test]
fn max_cut_roundtrip_matches_brute_force() {
    let g = generators::cycle_graph(6);
    let spec = ProblemSpec::MaxCut { graph: g.clone() };
    assert_eq!(best_objective(&spec, 8, 12), brute_max_cut(&g) as f64);
}

#[test]
fn max_k_cut_roundtrip_matches_brute_force() {
    // K4 with 4 classes: every edge can be cut.
    let g = generators::complete_graph(4);
    let spec = ProblemSpec::MaxKCut {
        graph: g.clone(),
        k: 4,
    };
    assert_eq!(best_objective(&spec, 8, 13), brute_max_k_cut(&g, 4) as f64);
}

#[test]
fn mis_roundtrip_matches_brute_force() {
    // Every maximal independent set of C5 is maximum (size 2), so the
    // decoder's repair-to-maximality guarantees the optimum.
    let g = generators::cycle_graph(5);
    let spec = ProblemSpec::Mis { graph: g.clone() };
    assert_eq!(best_objective(&spec, 4, 14), brute_mis(&g) as f64);
}

#[test]
fn vertex_cover_roundtrip_matches_brute_force() {
    // Complement duality on C5: min cover = 5 - max IS = 3.
    let g = generators::cycle_graph(5);
    let spec = ProblemSpec::VertexCover { graph: g.clone() };
    let opt = g.num_nodes() - brute_mis(&g);
    assert_eq!(best_objective(&spec, 4, 15), opt as f64);
}

#[test]
fn number_partition_roundtrip_matches_brute_force() {
    let weights = vec![8u64, 7, 6, 5, 4];
    let spec = ProblemSpec::NumberPartition {
        weights: weights.clone(),
    };
    assert_eq!(
        best_objective(&spec, 8, 16),
        brute_partition(&weights) as f64
    );
}

#[test]
fn cnf_roundtrip_matches_brute_force() {
    let mut cnf = Cnf::new(4);
    cnf.add_clause(vec![Lit::from_dimacs(1), Lit::from_dimacs(2)]);
    cnf.add_clause(vec![Lit::from_dimacs(-1), Lit::from_dimacs(3)]);
    cnf.add_clause(vec![Lit::from_dimacs(-2), Lit::from_dimacs(-3)]);
    cnf.add_clause(vec![Lit::from_dimacs(-3), Lit::from_dimacs(4)]);
    let opt = brute_cnf(&cnf);
    assert_eq!(opt, 0, "instance chosen satisfiable");
    let spec = ProblemSpec::CnfSat { cnf };
    assert_eq!(best_objective(&spec, 8, 17), opt as f64);
}

#[test]
fn qubo_roundtrip_matches_brute_force() {
    let q = Qubo {
        n: 4,
        linear: vec![-1.0, 0.5, -0.5, 0.25],
        quadratic: vec![(0, 1, 1.0), (1, 2, -1.0), (2, 3, 0.5)],
    };
    let opt = brute_qubo(&q);
    let spec = ProblemSpec::Qubo(q);
    assert_eq!(best_objective(&spec, 8, 18), opt);
}

#[test]
fn ising_roundtrip_matches_brute_force() {
    let ising = Ising {
        n: 4,
        h: vec![0.1, -0.2, 0.3, 0.0],
        j: vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, -1.0)],
    };
    let opt = brute_ising(&ising);
    let spec = ProblemSpec::Ising(ising);
    assert_eq!(best_objective(&spec, 8, 19), opt);
}

#[test]
fn unsatisfiable_cnf_reports_its_true_minimum() {
    // x & !x via two unit clauses: exactly one clause must fail.
    let mut cnf = Cnf::new(2);
    cnf.add_clause(vec![Lit::from_dimacs(1)]);
    cnf.add_clause(vec![Lit::from_dimacs(-1)]);
    cnf.add_clause(vec![Lit::from_dimacs(2)]);
    let opt = brute_cnf(&cnf);
    assert_eq!(opt, 1);
    let spec = ProblemSpec::CnfSat { cnf };
    let report = solve_roundtrip(&spec, 4, 20);
    let best = report.best().unwrap();
    assert_eq!(best.objective, opt as f64);
    assert!(
        !best.feasible,
        "an unsatisfiable instance is never feasible"
    );
}
