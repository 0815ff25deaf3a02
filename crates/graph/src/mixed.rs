//! Mixed graphs with endpoint marks — the representation FCI works on.
//!
//! Every edge has two endpoint marks from `{Tail, Arrow, Circle}`:
//!
//! * `A —→ B` (Tail at A, Arrow at B): A causes B.
//! * `A ←→ B` (Arrow, Arrow): latent confounder between A and B.
//! * `A o→ B` (Circle, Arrow): B does not cause A; A may cause B or they
//!   may be confounded.
//! * `A o—o B` (Circle, Circle): fully ambiguous.
//!
//! This matches the PAG edge vocabulary in §4 of the paper.

use crate::NodeId;
use std::collections::BTreeMap;

/// An endpoint mark of a mixed-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// No arrowhead: this endpoint is an ancestor side ("—").
    Tail,
    /// Arrowhead: causation points *into* this endpoint ("→").
    Arrow,
    /// Unknown mark ("o").
    Circle,
}

/// An undirected storage key: node pair in canonical (low, high) order.
fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// An edge between two nodes with marks at each end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Lower-indexed endpoint.
    pub a: NodeId,
    /// Higher-indexed endpoint.
    pub b: NodeId,
    /// Mark at `a`.
    pub mark_a: Endpoint,
    /// Mark at `b`.
    pub mark_b: Endpoint,
}

impl Edge {
    /// Mark at the given endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this edge.
    pub fn mark_at(&self, n: NodeId) -> Endpoint {
        if n == self.a {
            self.mark_a
        } else if n == self.b {
            self.mark_b
        } else {
            panic!("node {n} is not an endpoint of this edge")
        }
    }

    /// True if this is a fully directed edge `from → to`.
    fn is_directed_from(&self, from: NodeId, to: NodeId) -> bool {
        (self.a == from
            && self.b == to
            && self.mark_a == Endpoint::Tail
            && self.mark_b == Endpoint::Arrow)
            || (self.b == from
                && self.a == to
                && self.mark_b == Endpoint::Tail
                && self.mark_a == Endpoint::Arrow)
    }
}

/// A mixed graph over `n` nodes with named, kinded vertices.
#[derive(Debug, Clone, Default)]
pub struct MixedGraph {
    names: Vec<String>,
    edges: BTreeMap<(NodeId, NodeId), (Endpoint, Endpoint)>,
}

impl MixedGraph {
    /// Creates a graph with the given node names and no edges.
    pub fn new(names: Vec<String>) -> Self {
        Self {
            names,
            edges: BTreeMap::new(),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.names.len()
    }

    /// Node name.
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n]
    }

    /// All node names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of a node by name, if present.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name)
    }

    /// Inserts or replaces the edge between `x` and `y` with the given
    /// marks (`mark_x` at `x`, `mark_y` at `y`).
    pub fn set_edge(&mut self, x: NodeId, y: NodeId, mark_x: Endpoint, mark_y: Endpoint) {
        assert!(x != y, "self loops are not allowed");
        let (a, b) = key(x, y);
        let marks = if a == x {
            (mark_x, mark_y)
        } else {
            (mark_y, mark_x)
        };
        self.edges.insert((a, b), marks);
    }

    /// Adds the fully ambiguous edge `x o—o y`.
    pub fn add_circle_edge(&mut self, x: NodeId, y: NodeId) {
        self.set_edge(x, y, Endpoint::Circle, Endpoint::Circle);
    }

    /// Adds the directed edge `x → y`.
    pub fn add_directed_edge(&mut self, x: NodeId, y: NodeId) {
        self.set_edge(x, y, Endpoint::Tail, Endpoint::Arrow);
    }

    /// Adds the bidirected edge `x ←→ y`.
    pub fn add_bidirected_edge(&mut self, x: NodeId, y: NodeId) {
        self.set_edge(x, y, Endpoint::Arrow, Endpoint::Arrow);
    }

    /// Removes the edge between `x` and `y`, if any.
    pub fn remove_edge(&mut self, x: NodeId, y: NodeId) {
        self.edges.remove(&key(x, y));
    }

    /// True if `x` and `y` are adjacent.
    pub fn adjacent(&self, x: NodeId, y: NodeId) -> bool {
        self.edges.contains_key(&key(x, y))
    }

    /// The edge between `x` and `y`, if any.
    pub fn edge(&self, x: NodeId, y: NodeId) -> Option<Edge> {
        let (a, b) = key(x, y);
        self.edges.get(&(a, b)).map(|&(mark_a, mark_b)| Edge {
            a,
            b,
            mark_a,
            mark_b,
        })
    }

    /// Mark at `x` on the edge between `x` and `y`, if adjacent.
    pub fn mark_at(&self, x: NodeId, y: NodeId) -> Option<Endpoint> {
        self.edge(x, y).map(|e| e.mark_at(x))
    }

    /// Sets the mark at `x` on the existing edge between `x` and `y`.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist.
    pub fn orient(&mut self, x: NodeId, y: NodeId, mark_at_x: Endpoint) {
        let (a, b) = key(x, y);
        let marks = self.edges.get_mut(&(a, b)).expect("edge does not exist");
        if a == x {
            marks.0 = mark_at_x;
        } else {
            marks.1 = mark_at_x;
        }
    }

    /// Neighbors of `x` (any edge type).
    pub fn adjacencies(&self, x: NodeId) -> Vec<NodeId> {
        self.edges
            .keys()
            .filter_map(|&(a, b)| {
                if a == x {
                    Some(b)
                } else if b == x {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Every node's neighbor list in one O(nodes + edges) pass: entry `x`
    /// holds exactly what [`Self::adjacencies`]`(x)` returns, in the same
    /// order (neighbors below `x` ascending, then neighbors above `x`
    /// ascending — the canonical-key iteration order). Per-level sweeps
    /// that snapshot every node's adjacencies use this instead of `n`
    /// full edge scans.
    pub fn adjacency_lists(&self) -> Vec<Vec<NodeId>> {
        let mut lists = vec![Vec::new(); self.names.len()];
        for &(a, b) in self.edges.keys() {
            lists[a].push(b);
            lists[b].push(a);
        }
        lists
    }

    /// Canonical `(low, high)` endpoint pairs of every edge, ascending —
    /// the order a nested `x < y` / [`Self::adjacent`] scan would visit
    /// them, without the per-pair lookups.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges.keys().copied()
    }

    /// All edges.
    pub fn edges(&self) -> Vec<Edge> {
        self.edges
            .iter()
            .map(|(&(a, b), &(mark_a, mark_b))| Edge {
                a,
                b,
                mark_a,
                mark_b,
            })
            .collect()
    }

    /// True if `from → to` as a fully directed edge.
    pub fn is_directed(&self, from: NodeId, to: NodeId) -> bool {
        self.edge(from, to)
            .is_some_and(|e| e.is_directed_from(from, to))
    }

    /// Parents of `x` via fully directed edges.
    pub fn parents(&self, x: NodeId) -> Vec<NodeId> {
        self.adjacencies(x)
            .into_iter()
            .filter(|&p| self.is_directed(p, x))
            .collect()
    }

    /// Children of `x` via fully directed edges.
    pub fn children(&self, x: NodeId) -> Vec<NodeId> {
        self.adjacencies(x)
            .into_iter()
            .filter(|&c| self.is_directed(x, c))
            .collect()
    }

    /// Average node degree (2·|E| / |V|), the sparsity statistic reported
    /// in the paper's Table 3.
    pub fn average_degree(&self) -> f64 {
        if self.names.is_empty() {
            return 0.0;
        }
        2.0 * self.edges.len() as f64 / self.names.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("v{i}")).collect()
    }

    #[test]
    fn edge_roundtrip_and_marks() {
        let mut g = MixedGraph::new(names(3));
        g.add_circle_edge(0, 1);
        assert!(g.adjacent(0, 1));
        assert!(g.adjacent(1, 0));
        assert_eq!(g.mark_at(0, 1), Some(Endpoint::Circle));
        g.orient(1, 0, Endpoint::Arrow); // 0 o→ 1
        assert_eq!(g.mark_at(1, 0), Some(Endpoint::Arrow));
        assert_eq!(g.mark_at(0, 1), Some(Endpoint::Circle));
        g.orient(0, 1, Endpoint::Tail); // 0 → 1
        assert!(g.is_directed(0, 1));
        assert!(!g.is_directed(1, 0));
    }

    #[test]
    fn bidirected_edges() {
        let mut g = MixedGraph::new(names(2));
        g.add_bidirected_edge(0, 1);
        let e = g.edge(0, 1).unwrap();
        assert_eq!((e.mark_a, e.mark_b), (Endpoint::Arrow, Endpoint::Arrow));
        assert!(g.parents(0).is_empty());
    }

    #[test]
    fn adjacency_listing() {
        let mut g = MixedGraph::new(names(4));
        g.add_directed_edge(0, 2);
        g.add_directed_edge(1, 2);
        g.add_circle_edge(2, 3);
        let mut adj = g.adjacencies(2);
        adj.sort_unstable();
        assert_eq!(adj, vec![0, 1, 3]);
        assert_eq!(g.parents(2), vec![0, 1]);
    }

    #[test]
    fn remove_edge() {
        let mut g = MixedGraph::new(names(2));
        g.add_directed_edge(0, 1);
        g.remove_edge(1, 0);
        assert!(!g.adjacent(0, 1));
        assert!(g.edges().is_empty());
    }

    #[test]
    fn average_degree_and_circles() {
        let mut g = MixedGraph::new(names(4));
        g.add_circle_edge(0, 1);
        g.add_directed_edge(1, 2);
        assert_eq!(g.mark_at(0, 1), Some(Endpoint::Circle));
        assert_eq!(g.mark_at(2, 1), Some(Endpoint::Arrow));
        assert!((g.average_degree() - 1.0).abs() < 1e-12);
        assert_eq!(g.adjacencies(1), vec![0, 2]);
        assert!(g.adjacencies(3).is_empty());
    }

    #[test]
    fn node_lookup_by_name() {
        let g = MixedGraph::new(vec!["Bitrate".into(), "FPS".into()]);
        assert_eq!(g.node_by_name("FPS"), Some(1));
        assert_eq!(g.node_by_name("nope"), None);
    }
}
