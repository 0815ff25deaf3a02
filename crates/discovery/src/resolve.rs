//! PAG → ADMG resolution (§4, "Resolving partially directed edges").
//!
//! FCI leaves circle marks wherever the data alone cannot decide. For each
//! such edge the paper's pipeline (i) asks LatentSearch whether a
//! low-entropy latent confounder explains the dependence — if so the edge
//! becomes bidirected; (ii) otherwise picks the direction whose exogenous
//! variable has lower entropy. Tier constraints always win: nothing points
//! into a configuration option and objectives stay sinks.
//!
//! Each edge's verdict is a pure function of `(edge, data, tiers, opts)` —
//! LatentSearch seeds its own RNG per call — so the per-edge stage (the
//! largest per-relearn block once the skeleton went incremental) fans out
//! over the worker pool and the verdicts are merged **in canonical edge
//! order**: the ADMG insertions, the candidate ordering, and the
//! resolution log are exactly the sequential pass's, for every thread
//! count.

use unicorn_exec::Executor;
use unicorn_graph::{Admg, Endpoint, MixedGraph, NodeId, TierConstraints};
use unicorn_stats::dataview::DataView;

use crate::entropic::{entropic_direction, Direction};
use crate::latent_search::{latent_search, LatentSearchOptions};

/// How an ambiguous edge was resolved (kept for diagnostics/tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Kept the orientation FCI had already fixed.
    AlreadyOriented,
    /// LatentSearch found a low-entropy confounder.
    Confounded,
    /// Entropic direction decided.
    Entropic(Direction),
    /// Tier constraints forced the direction.
    Tiered,
}

/// Options for the resolution step.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolveOptions {
    /// Bins for discretizing continuous variables.
    pub bins: usize,
    /// Columns with at most this many distinct values are categorical.
    pub max_levels: usize,
    /// LatentSearch configuration.
    pub latent: LatentSearchOptions,
    /// Tie tolerance (bits) for the entropic direction.
    pub entropic_tol: f64,
}

impl Default for ResolveOptions {
    fn default() -> Self {
        Self {
            bins: 5,
            max_levels: 8,
            latent: LatentSearchOptions::default(),
            entropic_tol: 0.0,
        }
    }
}

/// A directed-edge candidate awaiting cycle-safe insertion.
struct Candidate {
    from: NodeId,
    to: NodeId,
    confidence: f64,
}

/// One edge's independent verdict, computed on a worker and merged in
/// canonical edge order.
enum EdgeVerdict {
    /// Insert a directed candidate (cycle-safe pass runs later).
    Directed {
        from: NodeId,
        to: NodeId,
        confidence: f64,
        res: Resolution,
    },
    /// Record a bidirected (confounded) edge immediately.
    Bidirected { a: NodeId, b: NodeId },
}

/// [`resolve_pag_on`] over the process-default worker pool.
#[cfg(test)]
fn resolve_pag(
    pag: &MixedGraph,
    data: &DataView,
    tiers: &TierConstraints,
    opts: &ResolveOptions,
) -> (Admg, Vec<(NodeId, NodeId, Resolution)>) {
    resolve_pag_on(pag, data, tiers, opts, &Executor::global())
}

/// Resolves a PAG into an ADMG using entropic causal discovery, inserting
/// directed edges in descending confidence order and demoting any edge
/// that would create a cycle (first to its reverse, then to bidirected).
///
/// Per-edge verdicts (the LatentSearch / minimum-entropy-coupling work)
/// fan out over `exec`; the merge below re-applies them in edge order, so
/// the ADMG, candidate ordering, and log are identical to a serial pass
/// for every worker count.
pub fn resolve_pag_on(
    pag: &MixedGraph,
    data: &DataView,
    tiers: &TierConstraints,
    opts: &ResolveOptions,
    exec: &Executor,
) -> (Admg, Vec<(NodeId, NodeId, Resolution)>) {
    let mut admg = Admg::new(pag.names().to_vec());
    let mut log = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();

    // Only the columns needing entropic treatment are discretized; the
    // view caches each fit so repeated resolutions (the active-learning
    // loop relearns every few samples) reuse them across edges and
    // worker threads alike.
    let code_of = |v: NodeId| data.codes(v, opts.bins, opts.max_levels);

    let edges = pag.edges();
    let verdicts = exec.par_map(&edges, |_, e| {
        let (a, b) = (e.a, e.b);
        match (e.mark_a, e.mark_b) {
            // Fully resolved already.
            (Endpoint::Tail, Endpoint::Arrow) => EdgeVerdict::Directed {
                from: a,
                to: b,
                confidence: f64::INFINITY,
                res: Resolution::AlreadyOriented,
            },
            (Endpoint::Arrow, Endpoint::Tail) => EdgeVerdict::Directed {
                from: b,
                to: a,
                confidence: f64::INFINITY,
                res: Resolution::AlreadyOriented,
            },
            (Endpoint::Arrow, Endpoint::Arrow) => EdgeVerdict::Bidirected { a, b },
            // Tail–circle: the tail end is an ancestor ⇒ orient out of it.
            (Endpoint::Tail, Endpoint::Circle) => EdgeVerdict::Directed {
                from: a,
                to: b,
                confidence: f64::INFINITY,
                res: Resolution::Tiered,
            },
            (Endpoint::Circle, Endpoint::Tail) => EdgeVerdict::Directed {
                from: b,
                to: a,
                confidence: f64::INFINITY,
                res: Resolution::Tiered,
            },
            // Circle–arrow (a o→ b): either a → b or a ↔ b.
            (Endpoint::Circle, Endpoint::Arrow) | (Endpoint::Arrow, Endpoint::Circle) => {
                let (tail_end, head_end) = if e.mark_a == Endpoint::Circle {
                    (a, b)
                } else {
                    (b, a)
                };
                let cx = code_of(tail_end);
                let cy = code_of(head_end);
                let ls = latent_search(&cx.codes, &cy.codes, cx.arity, cy.arity, &opts.latent);
                if ls.confounded && !tiers.arrowhead_forbidden_at(tail_end, head_end) {
                    EdgeVerdict::Bidirected {
                        a: tail_end,
                        b: head_end,
                    }
                } else {
                    EdgeVerdict::Directed {
                        from: tail_end,
                        to: head_end,
                        confidence: 1.0,
                        res: Resolution::Tiered,
                    }
                }
            }
            // Tail–tail encodes selection bias, which the causal
            // performance model excludes; treat it like full ambiguity
            // minus the confounder option.
            (Endpoint::Tail, Endpoint::Tail) | (Endpoint::Circle, Endpoint::Circle) => {
                let cx = code_of(a);
                let cy = code_of(b);
                let ls = latent_search(&cx.codes, &cy.codes, cx.arity, cy.arity, &opts.latent);
                let a_in_forbidden = tiers.arrowhead_forbidden_at(a, b);
                let b_in_forbidden = tiers.arrowhead_forbidden_at(b, a);
                if ls.confounded && !a_in_forbidden && !b_in_forbidden {
                    return EdgeVerdict::Bidirected { a, b };
                }
                let (dir, gap) =
                    entropic_direction(&cx.codes, &cy.codes, cx.arity, cy.arity, opts.entropic_tol);
                let (mut from, mut to) = match dir {
                    Direction::Forward => (a, b),
                    Direction::Backward => (b, a),
                };
                // Tier veto: never point into an option.
                if tiers.arrowhead_forbidden_at(to, from) {
                    std::mem::swap(&mut from, &mut to);
                }
                EdgeVerdict::Directed {
                    from,
                    to,
                    confidence: gap,
                    res: Resolution::Entropic(dir),
                }
            }
        }
    });

    // Canonical-order merge: replay the verdicts in edge order, exactly as
    // the sequential loop would have applied them.
    for verdict in verdicts {
        match verdict {
            EdgeVerdict::Directed {
                from,
                to,
                confidence,
                res,
            } => {
                candidates.push(Candidate {
                    from,
                    to,
                    confidence,
                });
                log.push((from, to, res));
            }
            EdgeVerdict::Bidirected { a, b } => {
                admg.add_bidirected(a, b);
                log.push((a, b, Resolution::Confounded));
            }
        }
    }

    // Insert directed candidates most-confident first; resolve conflicts.
    candidates.sort_by(|x, y| {
        y.confidence
            .partial_cmp(&x.confidence)
            .expect("NaN confidence")
    });
    for c in candidates {
        if admg.try_add_directed(c.from, c.to) {
            continue;
        }
        // Preferred direction closes a cycle: try the reverse unless tiers
        // forbid it; as a last resort record confounding.
        if !tiers.arrowhead_forbidden_at(c.from, c.to) && admg.try_add_directed(c.to, c.from) {
            continue;
        }
        admg.add_bidirected(c.from, c.to);
    }
    (admg, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_graph::VarKind;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("v{i}")).collect()
    }

    fn events(n: usize) -> TierConstraints {
        TierConstraints::new(vec![VarKind::SystemEvent; n])
    }

    #[test]
    fn resolved_pag_roundtrips() {
        // Already-directed PAG stays the same.
        let mut pag = MixedGraph::new(names(3));
        pag.add_directed_edge(0, 1);
        pag.add_directed_edge(1, 2);
        let data = DataView::new(vec![vec![0.0; 10], vec![0.0; 10], vec![0.0; 10]]);
        let (admg, _) = resolve_pag(&pag, &data, &events(3), &ResolveOptions::default());
        assert_eq!(admg.directed_edges().len(), 2);
        assert!(admg.is_dag());
    }

    #[test]
    fn circle_edge_resolved_by_entropy() {
        // X uniform over 4 levels, Y = X / 2 (deterministic coarsening):
        // entropic direction must pick X → Y.
        let x: Vec<f64> = (0..400).map(|i| (i % 4) as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| (v / 2.0).floor()).collect();
        let mut pag = MixedGraph::new(names(2));
        pag.add_circle_edge(0, 1);
        let (admg, log) = resolve_pag(
            &pag,
            &DataView::new(vec![x, y]),
            &events(2),
            &ResolveOptions::default(),
        );
        assert_eq!(admg.directed_edges(), &[(0, 1)]);
        assert!(matches!(log[0].2, Resolution::Entropic(Direction::Forward)));
    }

    #[test]
    fn tier_veto_overrides_entropy() {
        // Same data, but node 1 is an option: the edge must point 1 → 0
        // regardless of entropic preference.
        let x: Vec<f64> = (0..400).map(|i| (i % 4) as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| (v / 2.0).floor()).collect();
        let tiers = TierConstraints::new(vec![VarKind::SystemEvent, VarKind::ConfigOption]);
        let mut pag = MixedGraph::new(names(2));
        pag.add_circle_edge(0, 1);
        let (admg, _) = resolve_pag(
            &pag,
            &DataView::new(vec![x, y]),
            &tiers,
            &ResolveOptions::default(),
        );
        assert_eq!(admg.directed_edges(), &[(1, 0)]);
    }

    #[test]
    fn cycle_demotion() {
        // Three already-oriented edges forming a cycle: the lowest-
        // confidence one gets reversed or demoted, and the result is acyclic.
        let mut pag = MixedGraph::new(names(3));
        pag.add_directed_edge(0, 1);
        pag.add_directed_edge(1, 2);
        pag.add_directed_edge(2, 0);
        let data = DataView::new(vec![vec![0.0; 4]; 3]);
        let (admg, _) = resolve_pag(&pag, &data, &events(3), &ResolveOptions::default());
        // Whatever the tie-break, the directed part must be acyclic.
        let _ = admg.topological_order();
        assert_eq!(
            admg.directed_edges().len() + admg.bidirected_edges().len(),
            3
        );
    }

    #[test]
    fn bidirected_pag_edge_stays_bidirected() {
        let mut pag = MixedGraph::new(names(2));
        pag.add_bidirected_edge(0, 1);
        let data = DataView::new(vec![vec![0.0; 4]; 2]);
        let (admg, _) = resolve_pag(&pag, &data, &events(2), &ResolveOptions::default());
        assert_eq!(admg.bidirected_edges(), &[(0, 1)]);
    }
}
