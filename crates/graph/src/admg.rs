//! Acyclic directed mixed graphs (ADMGs): directed edges plus bidirected
//! (confounded) edges, with the directed part acyclic. This is the fully
//! resolved form the paper's inference engine evaluates queries on after
//! entropic resolution of the FCI output (§4 Stage II).

use crate::mixed::MixedGraph;
use crate::NodeId;
use std::collections::BTreeSet;

/// An acyclic directed mixed graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Admg {
    names: Vec<String>,
    directed: Vec<(NodeId, NodeId)>,
    bidirected: Vec<(NodeId, NodeId)>,
}

impl Admg {
    /// Creates an edgeless ADMG over named nodes.
    pub fn new(names: Vec<String>) -> Self {
        Self {
            names,
            directed: Vec::new(),
            bidirected: Vec::new(),
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

    /// Node id by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name)
    }

    /// Adds `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if the edge would create a directed cycle.
    pub fn add_directed(&mut self, from: NodeId, to: NodeId) {
        assert!(from != to, "self loop");
        if self.directed.contains(&(from, to)) {
            return;
        }
        assert!(
            !self.ancestors(from).contains(&to),
            "adding {from}->{to} would create a cycle"
        );
        self.directed.push((from, to));
    }

    /// Adds `from → to` if it keeps the directed part acyclic; returns
    /// whether the edge was added.
    pub fn try_add_directed(&mut self, from: NodeId, to: NodeId) -> bool {
        if from == to || self.ancestors(from).contains(&to) {
            return false;
        }
        if !self.directed.contains(&(from, to)) {
            self.directed.push((from, to));
        }
        true
    }

    /// Adds `a ←→ b`.
    pub fn add_bidirected(&mut self, a: NodeId, b: NodeId) {
        assert!(a != b, "self loop");
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if !self.bidirected.contains(&(a, b)) {
            self.bidirected.push((a, b));
        }
    }

    /// Directed edges.
    pub fn directed_edges(&self) -> &[(NodeId, NodeId)] {
        &self.directed
    }

    /// Bidirected edges.
    pub fn bidirected_edges(&self) -> &[(NodeId, NodeId)] {
        &self.bidirected
    }

    /// Parents of `x` (directed edges only).
    pub fn parents(&self, x: NodeId) -> Vec<NodeId> {
        self.directed
            .iter()
            .filter_map(|&(f, t)| if t == x { Some(f) } else { None })
            .collect()
    }

    /// Children of `x`.
    pub fn children(&self, x: NodeId) -> Vec<NodeId> {
        self.directed
            .iter()
            .filter_map(|&(f, t)| if f == x { Some(t) } else { None })
            .collect()
    }

    /// Bidirected siblings of `x`.
    pub fn siblings(&self, x: NodeId) -> Vec<NodeId> {
        self.bidirected
            .iter()
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

    /// Strict ancestors of `x` (not including `x`).
    pub fn ancestors(&self, x: NodeId) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut stack = self.parents(x);
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                stack.extend(self.parents(p));
            }
        }
        seen
    }

    /// Strict descendants of `x`.
    pub fn descendants(&self, x: NodeId) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut stack = self.children(x);
        while let Some(c) = stack.pop() {
            if seen.insert(c) {
                stack.extend(self.children(c));
            }
        }
        seen
    }

    /// Topological order of the directed part.
    pub fn topological_order(&self) -> Vec<NodeId> {
        let n = self.n_nodes();
        let mut indeg = vec![0usize; n];
        for &(_, t) in &self.directed {
            indeg[t] += 1;
        }
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for c in self.children(u) {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "directed part has a cycle");
        order
    }

    /// True if the graph has no bidirected edges (i.e. it is a DAG).
    pub fn is_dag(&self) -> bool {
        self.bidirected.is_empty()
    }

    /// Converts to the equivalent `MixedGraph` (Tail/Arrow marks only).
    pub fn to_mixed(&self) -> MixedGraph {
        let mut g = MixedGraph::new(self.names.clone());
        for &(f, t) in &self.directed {
            g.add_directed_edge(f, t);
        }
        for &(a, b) in &self.bidirected {
            g.add_bidirected_edge(a, b);
        }
        g
    }

    /// Builds an ADMG from a mixed graph that contains only directed and
    /// bidirected edges (no circles). Returns `None` if unresolved marks or
    /// a directed cycle remain. The reference `to_mixed` is checked against.
    #[cfg(test)]
    fn from_mixed(g: &MixedGraph) -> Option<Self> {
        use crate::mixed::Endpoint;
        let mut admg = Admg::new(g.names().to_vec());
        for e in g.edges() {
            match (e.mark_a, e.mark_b) {
                (Endpoint::Tail, Endpoint::Arrow) => admg.directed.push((e.a, e.b)),
                (Endpoint::Arrow, Endpoint::Tail) => admg.directed.push((e.b, e.a)),
                (Endpoint::Arrow, Endpoint::Arrow) => admg.bidirected.push((e.a, e.b)),
                _ => return None,
            }
        }
        // Cycle check via topological order length.
        let n = admg.n_nodes();
        let mut indeg = vec![0usize; n];
        for &(_, t) in &admg.directed {
            indeg[t] += 1;
        }
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut count = 0;
        while let Some(u) = queue.pop() {
            count += 1;
            for c in admg.children(u) {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if count != n {
            return None;
        }
        Some(admg)
    }

    /// Average node degree counting both edge kinds.
    pub fn average_degree(&self) -> f64 {
        if self.names.is_empty() {
            return 0.0;
        }
        2.0 * (self.directed.len() + self.bidirected.len()) as f64 / self.names.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("v{i}")).collect()
    }

    #[test]
    fn ancestry_and_topo_order() {
        let mut g = Admg::new(names(4));
        g.add_directed(0, 1);
        g.add_directed(1, 2);
        g.add_directed(0, 3);
        assert_eq!(g.ancestors(2), [0, 1].into_iter().collect());
        assert_eq!(g.descendants(0), [1, 2, 3].into_iter().collect());
        let order = g.topological_order();
        let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(2) && pos(0) < pos(3));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_rejected() {
        let mut g = Admg::new(names(2));
        g.add_directed(0, 1);
        g.add_directed(1, 0);
    }

    #[test]
    fn mixed_roundtrip() {
        let mut g = Admg::new(names(3));
        g.add_directed(0, 1);
        g.add_bidirected(1, 2);
        let m = g.to_mixed();
        let back = Admg::from_mixed(&m).unwrap();
        assert_eq!(back.directed_edges(), &[(0, 1)]);
        assert_eq!(back.bidirected_edges(), &[(1, 2)]);
    }

    #[test]
    fn from_mixed_rejects_circles_and_cycles() {
        let mut m = MixedGraph::new(names(2));
        m.add_circle_edge(0, 1);
        assert!(Admg::from_mixed(&m).is_none());
    }

    #[test]
    fn sibling_lookup() {
        let mut g = Admg::new(names(3));
        g.add_bidirected(2, 0);
        assert_eq!(g.siblings(0), vec![2]);
        assert_eq!(g.siblings(2), vec![0]);
        assert!(g.siblings(1).is_empty());
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Admg::new(names(2));
        g.add_directed(0, 1);
        g.add_directed(0, 1);
        g.add_bidirected(0, 1);
        g.add_bidirected(1, 0);
        assert_eq!(g.directed_edges().len(), 1);
        assert_eq!(g.bidirected_edges().len(), 1);
    }
}
