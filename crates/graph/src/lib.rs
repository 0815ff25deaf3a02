//! # unicorn-graph
//!
//! Causal-graph data structures for the Unicorn (EuroSys '22) reproduction:
//! mixed graphs with endpoint marks (the PAGs produced by FCI), acyclic
//! directed mixed graphs (the ADMGs causal queries are evaluated on),
//! directed-path backtracking from performance objectives, structural
//! hamming distance, DOT export, and the tier constraints the paper imposes
//! on causal performance models (§3: "configuration options do not cause
//! other options"; objectives are sinks).

pub mod admg;
pub mod dot;
pub mod mixed;
pub mod paths;
pub mod shd;
pub mod tiers;

pub use admg::Admg;
pub use mixed::{Edge, Endpoint, MixedGraph};
pub use paths::{backtrack_causal_paths, CausalPath};
pub use shd::{skeleton_distance, structural_hamming_distance};
pub use tiers::{TierConstraints, VarKind};

/// Node identifier: index into the graph's node table.
pub type NodeId = usize;
