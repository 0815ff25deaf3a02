//! Identifiability check.
//!
//! The paper's Stage V notes the engine "provides a quantitative estimate
//! for the identifiable queries … and may return some queries as
//! unidentifiable". The screen is the bow-arc criterion on ADMGs (the
//! canonical non-identifiable primitive: `X → Y` with `X ←→ Y` in the same
//! district); identifiable effects are then estimated by simulating the
//! fitted SCM under `do(·)`.

use std::collections::BTreeSet;

use unicorn_graph::{Admg, NodeId};

/// True if `P(y | do(x))` is identifiable by the bow-free criterion: no
/// node on a proper causal path from `x` to `y` (including `y` itself,
/// excluding `x`) is *both* a directed child within the path system and
/// bidirected-connected to `x` through its district. This is a sound
/// (conservative) approximation of the full ID algorithm: a detected bow
/// pattern really is unidentifiable, while exotic identifiable-by-ID cases
/// may be flagged unnecessarily.
pub fn identifiable(g: &Admg, x: NodeId, y: NodeId) -> bool {
    // Nodes on proper causal paths: descendants of x that are ancestors of
    // y (plus y itself when reachable).
    let desc = g.descendants(x);
    if !desc.contains(&y) {
        // No causal path at all: effect is trivially identifiable (zero).
        return true;
    }
    let mut on_path: BTreeSet<NodeId> = g.ancestors(y).intersection(&desc).copied().collect();
    on_path.insert(y);

    // District of x in the subgraph induced by {x} ∪ on_path.
    let mut allowed: BTreeSet<NodeId> = on_path.clone();
    allowed.insert(x);
    let mut district = BTreeSet::new();
    let mut stack = vec![x];
    while let Some(u) = stack.pop() {
        if !district.insert(u) {
            continue;
        }
        for s in g.siblings(u) {
            if allowed.contains(&s) && !district.contains(&s) {
                stack.push(s);
            }
        }
    }
    // A bow: some child of x on a causal path shares x's district.
    !g.children(x)
        .into_iter()
        .filter(|c| on_path.contains(c))
        .any(|c| district.contains(&c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("v{i}")).collect()
    }

    #[test]
    fn bow_arc_is_unidentifiable() {
        let mut g = Admg::new(names(2));
        g.add_directed(0, 1);
        g.add_bidirected(0, 1);
        assert!(!identifiable(&g, 0, 1));
    }

    #[test]
    fn clean_dag_is_identifiable() {
        let mut g = Admg::new(names(3));
        g.add_directed(0, 1);
        g.add_directed(1, 2);
        assert!(identifiable(&g, 0, 2));
        assert!(identifiable(&g, 0, 1));
    }

    #[test]
    fn front_door_like_confounding_off_path_is_fine() {
        // x → m → y with x ←→ w (w off the causal path).
        let mut g = Admg::new(names(4));
        g.add_directed(0, 1);
        g.add_directed(1, 2);
        g.add_bidirected(0, 3);
        assert!(identifiable(&g, 0, 2));
    }

    #[test]
    fn no_causal_path_is_identifiable() {
        let mut g = Admg::new(names(2));
        g.add_bidirected(0, 1);
        assert!(identifiable(&g, 0, 1));
    }
}
