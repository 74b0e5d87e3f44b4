//! Graph substrate for the MSROPM (multi-stage ring-oscillator Potts machine)
//! reproduction.
//!
//! This crate provides everything the Potts machine and its baselines need to
//! describe combinatorial-optimization instances:
//!
//! - [`Graph`]: a compact, immutable, undirected simple graph (CSR adjacency).
//! - [`generators`]: the paper's King's-graph benchmark family plus grids,
//!   lattices, random and planted-colorable graphs.
//! - [`Coloring`]: vertex colorings, the paper's edge-satisfaction accuracy
//!   metric, and classical constructive heuristics (greedy, DSATUR,
//!   Welsh–Powell) used as sanity baselines.
//! - [`Cut`]: 2-partitions (max-cut states), the stage-1 objective of the
//!   divide-and-color procedure.
//! - [`metrics`]: Hamming distances between solutions (Fig. 5(c)),
//!   correlation coefficients (§4.1) and summary statistics.
//! - [`io`]: DIMACS `.col` and plain edge-list readers/writers.
//!
//! # Example
//!
//! ```
//! use msropm_graph::generators;
//!
//! // The paper's smallest benchmark: a 7x7 King's graph (49 nodes).
//! let g = generators::kings_graph(7, 7);
//! assert_eq!(g.num_nodes(), 49);
//! assert_eq!(g.num_edges(), 156);
//!
//! // King's graphs are 4-colorable; DSATUR finds a proper 4-coloring.
//! let coloring = msropm_graph::coloring::dsatur(&g);
//! assert!(coloring.is_proper(&g));
//! assert!(coloring.num_colors_used() <= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod coloring;
pub mod cut;
pub mod generators;
mod graph;
pub mod io;
pub mod metrics;

pub use bitset::BitSet;
pub use coloring::{Color, Coloring};
pub use cut::Cut;
pub use graph::{EdgeId, Graph, GraphBuilder, GraphError, NodeId};
pub use io::graph_hash;
