//! Graphviz DOT export for causal performance models (used to render
//! figures like the paper's Fig 6 and Fig 23).

use crate::admg::Admg;
use crate::tiers::{TierConstraints, VarKind};

fn node_attrs(kind: Option<VarKind>) -> &'static str {
    match kind {
        Some(VarKind::ConfigOption) => "shape=box, style=filled, fillcolor=\"#cfe8ff\"",
        Some(VarKind::SystemEvent) => "shape=ellipse, style=filled, fillcolor=\"#fff2b8\"",
        Some(VarKind::Objective) => "shape=doubleoctagon, style=filled, fillcolor=\"#ffd3c9\"",
        None => "shape=ellipse",
    }
}

/// Renders an ADMG to DOT (directed edges solid, bidirected dashed), with
/// optional tier styling.
pub fn admg_to_dot(g: &Admg, tiers: Option<&TierConstraints>) -> String {
    let mut out = String::from("digraph admg {\n  rankdir=TB;\n");
    for (i, name) in g.names().iter().enumerate() {
        let kind = tiers.map(|t| t.kind(i));
        out.push_str(&format!(
            "  n{i} [label=\"{name}\", {}];\n",
            node_attrs(kind)
        ));
    }
    for &(f, t) in g.directed_edges() {
        out.push_str(&format!("  n{f} -> n{t};\n"));
    }
    for &(a, b) in g.bidirected_edges() {
        out.push_str(&format!(
            "  n{a} -> n{b} [dir=both, style=dashed, arrowtail=normal, arrowhead=normal];\n"
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admg_dot_styles_bidirected_dashed() {
        let mut g = Admg::new(vec!["a".into(), "b".into(), "c".into()]);
        g.add_directed(0, 1);
        g.add_bidirected(1, 2);
        let dot = admg_to_dot(&g, None);
        assert!(dot.contains("n0 -> n1;"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn tier_styling_applied() {
        let g = Admg::new(vec!["o".into(), "e".into()]);
        let t = TierConstraints::new(vec![VarKind::ConfigOption, VarKind::SystemEvent]);
        let dot = admg_to_dot(&g, Some(&t));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("#fff2b8"));
    }
}
