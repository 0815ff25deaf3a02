//! PC-stable adjacency search under tier constraints (§4 Stage II, steps
//! "recovering the skeleton" and "pruning").
//!
//! The search starts from the complete graph *minus* tier-forbidden
//! adjacencies (no option–option, no objective–objective edges) and removes
//! the edge `x — y` as soon as a conditioning set `S` with `x ⊥ y | S` is
//! found. Conditioning sets are drawn from per-level adjacency snapshots
//! (Colombo & Maathuis 2014), which makes the output independent of edge
//! ordering.
//!
//! Because each level's removals depend only on that snapshot (never on
//! other removals within the level), the per-level edge sweep is
//! embarrassingly parallel: [`pc_skeleton_on`] fans the edge candidates
//! out over the shared worker pool and merges results in canonical edge
//! order, so the output graph, sepsets, and test count are identical for
//! every thread count (asserted by `tests/dataview_equivalence.rs`).
//!
//! Within one edge's decision the two directions' subset enumerations can
//! overlap; those repeats are served from a **per-edge, per-level outcome
//! table** (a lock-free local map) instead of re-probing the view's
//! sharded epoch-LRU — the hot per-relearn floor identified by the
//! roadmap. The underlying [`CiTest`] still memoizes first computations in
//! the view cache for the later PDS and completion stages.

use std::collections::HashMap;

use unicorn_exec::Executor;
use unicorn_graph::{MixedGraph, NodeId, TierConstraints};
use unicorn_stats::cache::FxBuild;
use unicorn_stats::dataview::DataView;
use unicorn_stats::independence::{CiOutcome, CiTest};
use unicorn_stats::smallset::SmallIdSet;

/// Separating sets recorded during skeleton search, keyed by canonical
/// (low, high) node pairs.
#[derive(Debug, Clone, Default)]
pub struct SepsetMap {
    map: HashMap<(NodeId, NodeId), Vec<NodeId>>,
}

impl SepsetMap {
    fn key(x: NodeId, y: NodeId) -> (NodeId, NodeId) {
        if x <= y {
            (x, y)
        } else {
            (y, x)
        }
    }

    /// Records the separating set for a removed edge.
    pub fn insert(&mut self, x: NodeId, y: NodeId, s: Vec<NodeId>) {
        self.map.insert(Self::key(x, y), s);
    }

    /// The separating set for `(x, y)`, if one was recorded.
    pub fn get(&self, x: NodeId, y: NodeId) -> Option<&[NodeId]> {
        self.map.get(&Self::key(x, y)).map(Vec::as_slice)
    }

    /// True if `z` is a member of the recorded separating set of `(x, y)`.
    pub fn contains(&self, x: NodeId, y: NodeId, z: NodeId) -> bool {
        self.get(x, y).is_some_and(|s| s.contains(&z))
    }

    /// Number of recorded sepsets.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no sepsets were recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Iterates over all `k`-subsets of `items`, invoking `f`; stops early when
/// `f` returns `true` and reports whether that happened.
pub fn for_each_subset(items: &[NodeId], k: usize, f: &mut dyn FnMut(&[NodeId]) -> bool) -> bool {
    fn rec(
        items: &[NodeId],
        k: usize,
        start: usize,
        current: &mut Vec<NodeId>,
        f: &mut dyn FnMut(&[NodeId]) -> bool,
    ) -> bool {
        if current.len() == k {
            return f(current);
        }
        let remaining = k - current.len();
        let mut i = start;
        while i + remaining <= items.len() {
            current.push(items[i]);
            if rec(items, k, i + 1, current, f) {
                current.pop();
                return true;
            }
            current.pop();
            i += 1;
        }
        false
    }
    rec(items, k, 0, &mut Vec::with_capacity(k), f)
}

/// Result of a skeleton search.
#[derive(Debug, Clone)]
pub struct Skeleton {
    /// The undirected skeleton, stored with circle–circle marks.
    pub graph: MixedGraph,
    /// Separating sets found for each removed edge.
    pub sepsets: SepsetMap,
    /// Number of CI tests executed (reported by the scalability bench).
    pub n_tests: usize,
}

/// Runs PC-stable over the allowed adjacencies.
///
/// * `alpha` — significance level of the CI test (edge kept if every test
///   rejects independence).
/// * `max_depth` — maximum conditioning-set size (`usize::MAX` ⇒ unbounded,
///   the paper's `depth: -1` hyperparameter).
pub fn pc_skeleton(
    test: &dyn CiTest,
    names: &[String],
    tiers: &TierConstraints,
    alpha: f64,
    max_depth: usize,
) -> Skeleton {
    pc_skeleton_on(test, names, tiers, alpha, max_depth, &Executor::global())
}

/// What one level-ℓ sweep decided about a single edge.
struct EdgeDecision {
    /// The separating set when the edge must be removed.
    sepset: Option<Vec<NodeId>>,
    /// CI tests spent on this edge.
    n_tests: usize,
}

/// [`pc_skeleton`] over an explicit worker pool.
///
/// Within a level, every edge's fate depends only on the level's adjacency
/// snapshot — PC-stable's defining property — so edges are tested
/// concurrently over the pool and the removals/sepsets merged in canonical
/// `(x, y)` order afterwards. Output is therefore identical for every
/// worker count, including the CI-test count.
pub fn pc_skeleton_on(
    test: &dyn CiTest,
    names: &[String],
    tiers: &TierConstraints,
    alpha: f64,
    max_depth: usize,
    exec: &Executor,
) -> Skeleton {
    let n = names.len();
    assert_eq!(test.n_vars(), n, "test/variable count mismatch");
    let mut g = MixedGraph::new(names.to_vec());
    for x in 0..n {
        for y in x + 1..n {
            if !tiers.adjacency_forbidden(x, y) {
                g.add_circle_edge(x, y);
            }
        }
    }
    let mut sepsets = SepsetMap::default();
    let mut n_tests = 0usize;

    let mut depth = 0usize;
    loop {
        // PC-stable: snapshot adjacencies at the start of each level (one
        // O(edges) pass; content and order identical to per-node
        // `adjacencies` calls).
        let snapshot: Vec<Vec<NodeId>> = g.adjacency_lists();
        let any_candidate = (0..n).any(|v| snapshot[v].len() > depth);
        if !any_candidate || depth > max_depth {
            break;
        }
        // Canonically-ordered surviving edges; each is decided
        // independently against the snapshot.
        let edges: Vec<(NodeId, NodeId)> = g.edge_pairs().collect();
        let decisions = exec.par_map(&edges, |_, &(x, y)| {
            // Depth-0 fast path: the only conditioning set is the empty
            // set, shared by both directions, so the edge's fate is one
            // marginal test — removed after 1 enumeration, kept after 2
            // (the second direction re-enumerates the empty set and hits
            // the per-edge table in the general path below). Skipping the
            // candidate vectors, the outcome table, and the subset
            // recursion leaves the outcome, sepset, and test count
            // bit-identical while dropping the per-edge allocations that
            // dominate the level-0 sweep on wide datasets.
            if depth == 0 {
                let out = test.test(x, y, &[]);
                return if out.independent(alpha) {
                    EdgeDecision {
                        sepset: Some(Vec::new()),
                        n_tests: 1,
                    }
                } else {
                    EdgeDecision {
                        sepset: None,
                        n_tests: 2,
                    }
                };
            }
            let mut local_tests = 0usize;
            let mut sepset: Option<Vec<NodeId>> = None;
            // Per-edge, per-level outcome table: the two directions'
            // subset enumerations overlap wherever a conditioning set is
            // drawn from both adjacency lists; repeats hit this lock-free
            // local map instead of re-probing the view's epoch-LRU. The
            // enumeration count (`local_tests`) is unchanged, so the
            // CI-test trace stays bit-identical.
            let mut table: HashMap<SmallIdSet, CiOutcome, FxBuild> = HashMap::default();
            for (from, other) in [(x, y), (y, x)] {
                let candidates: Vec<NodeId> = snapshot[from]
                    .iter()
                    .copied()
                    .filter(|&v| v != other)
                    .collect();
                if candidates.len() < depth {
                    continue;
                }
                let found = for_each_subset(&candidates, depth, &mut |s| {
                    local_tests += 1;
                    // Canonical (sorted) key so the two directions agree on
                    // a subset drawn from differently-ordered candidates.
                    let mut key = SmallIdSet::from_indices(s);
                    key.sort();
                    let out = match table.get(&key) {
                        Some(out) => *out,
                        None => {
                            let out = test.test(x, y, s);
                            table.insert(key, out);
                            out
                        }
                    };
                    if out.independent(alpha) {
                        sepset = Some(s.to_vec());
                        true
                    } else {
                        false
                    }
                });
                if found {
                    break;
                }
            }
            EdgeDecision {
                sepset,
                n_tests: local_tests,
            }
        });
        // Deterministic merge in canonical edge order.
        for (&(x, y), decision) in edges.iter().zip(decisions) {
            n_tests += decision.n_tests;
            if let Some(s) = decision.sepset {
                g.remove_edge(x, y);
                sepsets.insert(x, y, s);
            }
        }
        depth += 1;
    }

    Skeleton {
        graph: g,
        sepsets,
        n_tests,
    }
}

/// Fingerprint of one skeleton run's inputs: the data version (lineage +
/// epoch uniquely identify the rows a [`DataView`] holds) and every search
/// parameter that affects the output. Thread count and pool identity are
/// deliberately absent — the sweep's output is thread-count independent.
///
/// The CI-test *identity* is also absent (a `dyn CiTest` has none to
/// key on): a [`SkeletonMemo`] must always be driven with the same test
/// family and parameters over one growing view, as
/// [`crate::learn_causal_model_incremental`] does by construction.
/// Switching tests mid-memo requires [`SkeletonMemo::clear`].
#[derive(Debug, Clone, PartialEq)]
struct SkeletonKey {
    lineage: u64,
    epoch: u64,
    names: Vec<String>,
    tiers: TierConstraints,
    alpha: f64,
    max_depth: usize,
}

/// Warm-start state carried between relearns: the previous skeleton and the
/// exact inputs it was computed from.
#[derive(Debug, Clone, Default)]
pub struct SkeletonMemo {
    prev: Option<(SkeletonKey, Skeleton)>,
}

impl SkeletonMemo {
    /// Drops the memo (forces the next run cold).
    pub fn clear(&mut self) {
        self.prev = None;
    }
}

/// [`pc_skeleton_on`] with a dirty-edge warm start, guaranteed
/// bit-identical (graph, sepsets, CI-test count) to a cold run on the same
/// view — asserted by `tests/incremental_relearn.rs`.
///
/// The dirty-edge predicate is the per-outcome epoch check of the view's
/// CI cache ([`DataView::ci_outcome`]): an edge is *dirty* when any CI
/// outcome it needs was computed at another data epoch. Two regimes fall
/// out:
///
/// * **Unchanged data** (memoized key matches the view's lineage + epoch
///   and parameters): no edge is dirty; the previous skeleton — provably
///   what a cold sweep would reproduce, since every test it would run is a
///   pure function memoized at this epoch — is returned without testing
///   anything.
/// * **Appended rows**: appending touches every column's sufficient
///   statistics, so *every* edge is dirty and the full level sweep re-runs
///   (required for exactness — a skipped re-test could differ on the new
///   sample). The sweep still runs against incrementally *merged* inputs:
///   the O(new rows) correlation matrix and the epoch-refreshed CI cache,
///   which is where the relearn speedup lives.
///
/// Any parameter or lineage mismatch falls back to the cold path.
#[allow(clippy::too_many_arguments)]
pub fn pc_skeleton_incremental(
    test: &dyn CiTest,
    data: &DataView,
    names: &[String],
    tiers: &TierConstraints,
    alpha: f64,
    max_depth: usize,
    exec: &Executor,
    memo: &mut SkeletonMemo,
) -> Skeleton {
    let key = SkeletonKey {
        lineage: data.lineage(),
        epoch: data.epoch(),
        names: names.to_vec(),
        tiers: tiers.clone(),
        alpha,
        max_depth,
    };
    if let Some((k, sk)) = &memo.prev {
        if *k == key {
            return sk.clone();
        }
    }
    let sk = pc_skeleton_on(test, names, tiers, alpha, max_depth, exec);
    memo.prev = Some((key, sk.clone()));
    sk
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_graph::VarKind;
    use unicorn_stats::independence::FisherZ;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("v{i}")).collect()
    }

    fn all_events(n: usize) -> TierConstraints {
        TierConstraints::new(vec![VarKind::SystemEvent; n])
    }

    #[test]
    fn subset_enumeration_counts() {
        let items = vec![0, 1, 2, 3];
        let mut count = 0;
        for_each_subset(&items, 2, &mut |_| {
            count += 1;
            false
        });
        assert_eq!(count, 6);
        // Early exit works.
        let mut seen = 0;
        let stopped = for_each_subset(&items, 2, &mut |_| {
            seen += 1;
            seen == 3
        });
        assert!(stopped);
        assert_eq!(seen, 3);
        // k = 0 yields exactly the empty set.
        let mut zero = 0;
        for_each_subset(&items, 0, &mut |s| {
            assert!(s.is_empty());
            zero += 1;
            false
        });
        assert_eq!(zero, 1);
    }

    #[test]
    fn skeleton_of_chain() {
        // 0 → 1 → 2: skeleton must be 0—1—2 with 0,2 separated by {1}.
        let mut s = 21u64;
        let n = 1200;
        let mut c0 = Vec::new();
        let mut c1 = Vec::new();
        let mut c2 = Vec::new();
        for _ in 0..n {
            let a = lcg(&mut s) * 4.0;
            let b = 1.8 * a + lcg(&mut s);
            let c = -1.2 * b + lcg(&mut s);
            c0.push(a);
            c1.push(b);
            c2.push(c);
        }
        let test = FisherZ::new(&[c0, c1, c2]);
        let sk = pc_skeleton(&test, &names(3), &all_events(3), 0.01, usize::MAX);
        assert!(sk.graph.adjacent(0, 1));
        assert!(sk.graph.adjacent(1, 2));
        assert!(!sk.graph.adjacent(0, 2));
        assert_eq!(sk.sepsets.get(0, 2), Some(&[1][..]));
        assert!(sk.n_tests > 0);
    }

    #[test]
    fn skeleton_of_collider_keeps_spouses_apart() {
        // 0 → 2 ← 1 with independent 0, 1.
        let mut s = 5u64;
        let n = 1200;
        let mut c0 = Vec::new();
        let mut c1 = Vec::new();
        let mut c2 = Vec::new();
        for _ in 0..n {
            let a = lcg(&mut s) * 2.0;
            let b = lcg(&mut s) * 2.0;
            let c = a + b + 0.3 * lcg(&mut s);
            c0.push(a);
            c1.push(b);
            c2.push(c);
        }
        let test = FisherZ::new(&[c0, c1, c2]);
        let sk = pc_skeleton(&test, &names(3), &all_events(3), 0.01, usize::MAX);
        assert!(sk.graph.adjacent(0, 2));
        assert!(sk.graph.adjacent(1, 2));
        assert!(!sk.graph.adjacent(0, 1));
        // 0 and 1 separated by the empty set (not by {2}).
        assert_eq!(sk.sepsets.get(0, 1), Some(&[][..]));
    }

    #[test]
    fn tier_forbidden_edges_never_appear() {
        let mut s = 9u64;
        let n = 300;
        // Two options strongly correlated with each other's effect — the
        // option–option edge must still be absent by constraint.
        let o0: Vec<f64> = (0..n).map(|_| lcg(&mut s)).collect();
        let o1: Vec<f64> = o0.iter().map(|v| v * 0.9 + 0.01).collect();
        let e: Vec<f64> = o0.iter().map(|v| v * 2.0).collect();
        let test = FisherZ::new(&[o0, o1, e]);
        let tiers = TierConstraints::new(vec![
            VarKind::ConfigOption,
            VarKind::ConfigOption,
            VarKind::SystemEvent,
        ]);
        let sk = pc_skeleton(&test, &names(3), &tiers, 0.01, usize::MAX);
        assert!(!sk.graph.adjacent(0, 1));
    }

    #[test]
    fn depth_zero_only_tests_marginals() {
        let mut s = 33u64;
        let n = 500;
        let a: Vec<f64> = (0..n).map(|_| lcg(&mut s)).collect();
        let b: Vec<f64> = a.iter().map(|v| v + 0.05 * 0.0).collect();
        let test = FisherZ::new(&[a, b]);
        let sk = pc_skeleton(&test, &names(2), &all_events(2), 0.01, 0);
        // Perfectly dependent pair survives depth-0 search.
        assert!(sk.graph.adjacent(0, 1));
    }
}
