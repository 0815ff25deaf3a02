//! Average causal effects and causal-path ranking (§4 Stage III).
//!
//! `ACE(Z, X) = (1/N) Σ_{a,b ∈ X} E[Z | do(X = b)] − E[Z | do(X = a)]`
//! over permissible values of `X`; path ACE averages the link ACEs along a
//! causal path (appendix Eq 1). We rank by the *magnitude* of the effect,
//! so the pairwise differences are taken in absolute value — the sign is
//! recovered separately when a repair direction is needed.

use unicorn_graph::{backtrack_causal_paths, CausalPath, NodeId};

use crate::plan::{DomainCache, PlanHandle, QueryPlan};
use crate::scm::FittedScm;

/// Supplies the permissible values of each variable: configuration options
/// enumerate their domains; system events use empirical quantiles of the
/// observed data (they cannot be intervened in practice, but their link
/// ACEs still rank paths). `Send + Sync` so engines holding an
/// `Arc<dyn ValueDomain>` (and the plans compiled from them) can cross
/// worker threads.
pub trait ValueDomain: Send + Sync {
    /// Candidate values for `do(node = ·)` sweeps.
    fn values(&self, node: NodeId) -> Vec<f64>;
}

/// A `ValueDomain` backed by explicit per-node value lists.
#[derive(Debug, Clone)]
pub struct ExplicitDomain {
    /// Values per node id.
    pub values: Vec<Vec<f64>>,
}

impl ValueDomain for ExplicitDomain {
    fn values(&self, node: NodeId) -> Vec<f64> {
        self.values[node].clone()
    }
}

/// Builds empirical quantile values (min, q25, median, q75, max) for a
/// data column — the sweep grid for non-enumerable variables. The column
/// is sorted once and all five levels read from that copy, bit-identical
/// to five [`unicorn_stats::quantile`] calls.
pub fn quantile_values(column: &[f64]) -> Vec<f64> {
    if column.is_empty() {
        return vec![0.0];
    }
    let mut sorted = column.to_vec();
    unicorn_stats::sort_ascending(&mut sorted);
    let mut vals: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&q| unicorn_stats::quantile_sorted(&sorted, q))
        .collect();
    vals.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    vals
}

/// The ACE fold over interventional means in value order — the one
/// definition shared by the legacy serial [`ace`] and every planned path,
/// so both produce bit-identical effects from equal means.
pub(crate) fn ace_from_means(means: &[f64]) -> f64 {
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..means.len() {
        for j in i + 1..means.len() {
            total += (means[j] - means[i]).abs();
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// Average causal effect of `x` on `z`, swept over `values` (mean absolute
/// pairwise difference of interventional expectations).
///
/// This is the **legacy serial reference path** (one interventional sweep
/// per value); the engine answers through compiled [`QueryPlan`]s instead,
/// and `tests/query_plan_determinism.rs` pins the two bit-identical.
pub fn ace(scm: &FittedScm, z: NodeId, x: NodeId, values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let means: Vec<f64> = values
        .iter()
        .map(|&v| scm.interventional_expectation(z, &[(x, v)]))
        .collect();
    ace_from_means(&means)
}

/// Registers the expectation items of one `ACE(z, x)` estimate on a plan
/// (one per permissible value; `None` when fewer than two values exist —
/// the legacy path's 0.0 short-circuit).
pub(crate) fn plan_ace(
    plan: &mut QueryPlan,
    z: NodeId,
    x: NodeId,
    values: &[f64],
) -> Option<Vec<PlanHandle>> {
    if values.len() < 2 {
        return None;
    }
    Some(
        values
            .iter()
            .map(|&v| plan.expectation(z, &[(x, v)]))
            .collect(),
    )
}

/// Resolves a [`plan_ace`] registration against evaluated results.
pub(crate) fn ace_of_handles(
    results: &crate::plan::PlanResults,
    handles: &Option<Vec<PlanHandle>>,
) -> f64 {
    match handles {
        None => 0.0,
        Some(hs) => {
            let means: Vec<f64> = hs.iter().map(|&h| results.scalar(h)).collect();
            ace_from_means(&means)
        }
    }
}

/// Path ACE (appendix Eq 1): the mean link ACE over consecutive pairs.
fn path_ace(scm: &FittedScm, path: &CausalPath, domain: &dyn ValueDomain) -> f64 {
    if path.nodes.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut k = 0usize;
    for w in path.nodes.windows(2) {
        let (x, z) = (w[0], w[1]);
        total += ace(scm, z, x, &domain.values(x));
        k += 1;
    }
    total / k as f64
}

/// A causal path together with its ranking score.
#[derive(Debug, Clone)]
pub struct RankedPath {
    /// The path (source first, objective last).
    pub path: CausalPath,
    /// Its path-ACE score.
    pub score: f64,
}

/// Extracts and ranks the causal paths into `objective`, descending by
/// path ACE, keeping the top `k` (§4: "we select the top K paths with the
/// largest Path-ACE values, for each non-functional property"; the paper
/// uses K = 3…25).
///
/// Legacy serial reference path — the engine uses
/// [`rank_causal_paths_planned`], which compiles every link sweep of every
/// path into one deduplicated plan.
pub fn rank_causal_paths(
    scm: &FittedScm,
    objective: NodeId,
    domain: &dyn ValueDomain,
    k: usize,
    path_cap: usize,
) -> Vec<RankedPath> {
    let mut ranked: Vec<RankedPath> = backtrack_causal_paths(scm.admg(), objective, path_cap)
        .into_iter()
        .map(|p| {
            let score = path_ace(scm, &p, domain);
            RankedPath { path: p, score }
        })
        .collect();
    ranked.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("NaN path score"));
    ranked.truncate(k);
    ranked
}

/// The compile half of a path ranking: the enumerated paths plus, per
/// path and per link `(x, z)`, the registered ACE handles. Finish with
/// [`finish_path_rank`] once the plan (or the merged batch carrying it)
/// has been evaluated — the split lets `coalesce` interleave one
/// objective's ranking round with other requests' work.
pub(crate) struct PathRankCompilation {
    paths: Vec<CausalPath>,
    links: Vec<Vec<Option<Vec<PlanHandle>>>>,
}

/// Registers every link ACE of every causal path into `objective` on
/// `plan`, deduplicated across paths (shared links are estimated once)
/// and across repeated sweeps of the same `do(x = v)`.
pub(crate) fn compile_path_rank(
    plan: &mut QueryPlan,
    scm: &FittedScm,
    objective: NodeId,
    cache: &mut DomainCache<'_>,
    path_cap: usize,
) -> PathRankCompilation {
    let paths = backtrack_causal_paths(scm.admg(), objective, path_cap);
    // Per path, per link (x, z): the ACE handles of the link sweep.
    let links: Vec<Vec<Option<Vec<PlanHandle>>>> = paths
        .iter()
        .map(|p| {
            p.nodes
                .windows(2)
                .map(|w| plan_ace(plan, w[1], w[0], &cache.values(w[0])))
                .collect()
        })
        .collect();
    PathRankCompilation { paths, links }
}

/// Resolves a [`compile_path_rank`] registration: the exact `path_ace`
/// fold (mean link ACE in path order), descending sort, top-`k` truncate
/// — the serial path's arithmetic bit for bit.
pub(crate) fn finish_path_rank(
    comp: PathRankCompilation,
    results: &crate::plan::PlanResults,
    k: usize,
) -> Vec<RankedPath> {
    let PathRankCompilation { paths, links } = comp;
    let mut ranked: Vec<RankedPath> = paths
        .into_iter()
        .zip(&links)
        .map(|(p, link_handles)| {
            let score = if p.nodes.len() < 2 {
                0.0
            } else {
                let mut total = 0.0;
                let mut n = 0usize;
                for handles in link_handles {
                    total += ace_of_handles(results, handles);
                    n += 1;
                }
                total / n as f64
            };
            RankedPath { path: p, score }
        })
        .collect();
    ranked.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("NaN path score"));
    ranked.truncate(k);
    ranked
}

/// [`rank_causal_paths`] through one compiled plan: every link ACE of
/// every enumerated path becomes a set of expectation items, deduplicated
/// across paths (shared links are estimated once) and across repeated
/// sweeps of the same `do(x = v)`; one `evaluate_plan` then answers them
/// all, and scores/ordering reproduce the serial path bit for bit.
pub fn rank_causal_paths_planned(
    scm: &FittedScm,
    objective: NodeId,
    cache: &mut DomainCache<'_>,
    k: usize,
    path_cap: usize,
) -> Vec<RankedPath> {
    let mut plan = QueryPlan::new();
    let comp = compile_path_rank(&mut plan, scm, objective, cache, path_cap);
    let results = scm.evaluate_plan(&plan);
    finish_path_rank(comp, &results, k)
}

/// Per-option ACE on an objective: the primary root-cause ranking signal
/// and the weight vector of the paper's accuracy metric.
///
/// Legacy serial reference path — the engine uses
/// [`option_aces_planned`].
pub fn option_aces(
    scm: &FittedScm,
    objective: NodeId,
    options: &[NodeId],
    domain: &dyn ValueDomain,
) -> Vec<(NodeId, f64)> {
    let mut out: Vec<(NodeId, f64)> = options
        .iter()
        .map(|&o| (o, ace(scm, objective, o, &domain.values(o))))
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN ACE"));
    out
}

/// [`option_aces`] through one compiled plan: the whole options × values
/// sweep grid is submitted as a single deduplicated batch.
pub fn option_aces_planned(
    scm: &FittedScm,
    objective: NodeId,
    options: &[NodeId],
    cache: &mut DomainCache<'_>,
) -> Vec<(NodeId, f64)> {
    let mut plan = QueryPlan::new();
    let handles: Vec<Option<Vec<PlanHandle>>> = options
        .iter()
        .map(|&o| plan_ace(&mut plan, objective, o, &cache.values(o)))
        .collect();
    let results = scm.evaluate_plan(&plan);
    let mut out: Vec<(NodeId, f64)> = options
        .iter()
        .zip(&handles)
        .map(|(&o, hs)| (o, ace_of_handles(&results, hs)))
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN ACE"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_graph::Admg;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    /// Two options: X0 strong (slope 4 via M), X1 weak (slope 0.2 direct).
    fn two_option_scm(n: usize) -> (FittedScm, ExplicitDomain) {
        let mut s = 9u64;
        let mut x0 = Vec::new();
        let mut x1 = Vec::new();
        let mut m = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = (i % 3) as f64;
            let b = lcg(&mut s).signum().max(0.0);
            let mi = 2.0 * a + 0.05 * lcg(&mut s);
            let yi = 2.0 * mi + 0.2 * b + 0.05 * lcg(&mut s);
            x0.push(a);
            x1.push(b);
            m.push(mi);
            y.push(yi);
        }
        let mut g = Admg::new(vec!["x0".into(), "x1".into(), "m".into(), "y".into()]);
        g.add_directed(0, 2);
        g.add_directed(2, 3);
        g.add_directed(1, 3);
        let scm = FittedScm::fit(g, &[x0, x1, m.clone(), y]).unwrap();
        let domain = ExplicitDomain {
            values: vec![
                vec![0.0, 1.0, 2.0],
                vec![0.0, 1.0],
                quantile_values(&m),
                vec![],
            ],
        };
        (scm, domain)
    }

    #[test]
    fn ace_reflects_structural_slopes() {
        let (scm, domain) = two_option_scm(600);
        let a0 = ace(&scm, 3, 0, &domain.values(0));
        let a1 = ace(&scm, 3, 1, &domain.values(1));
        // X0 moves Y by 4 per unit (values 0..2 ⇒ mean |Δ| = 16/3 ≈ 5.3);
        // X1 moves Y by 0.2.
        assert!(a0 > 10.0 * a1, "a0 = {a0}, a1 = {a1}");
        assert!((a1 - 0.2).abs() < 0.1, "a1 = {a1}");
    }

    #[test]
    fn path_ranking_prefers_strong_path() {
        let (scm, domain) = two_option_scm(600);
        let ranked = rank_causal_paths(&scm, 3, &domain, 10, 100);
        assert_eq!(ranked.len(), 2);
        // Strong path x0 → m → y must outrank x1 → y.
        assert_eq!(ranked[0].path.source(), 0);
        assert_eq!(ranked[1].path.source(), 1);
        assert!(ranked[0].score > ranked[1].score);
    }

    #[test]
    fn option_ace_ranking() {
        let (scm, domain) = two_option_scm(600);
        let aces = option_aces(&scm, 3, &[0, 1], &domain);
        assert_eq!(aces[0].0, 0);
        assert!(aces[0].1 > aces[1].1);
    }

    #[test]
    fn quantile_values_dedup() {
        let v = quantile_values(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(v, vec![1.0]);
        let v2 = quantile_values(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v2.len(), 5);
    }

    /// One sort per column reads the same bits as a sort per level: the
    /// five-`quantile` body `quantile_values` replaced is the oracle.
    #[test]
    fn quantile_values_match_five_quantile_calls() {
        let reference = |column: &[f64]| {
            let mut vals: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 1.0]
                .iter()
                .map(|&q| unicorn_stats::quantile(column, q))
                .collect();
            vals.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            vals
        };
        let columns: [&[f64]; 6] = [
            &[3.5],
            &[2.0, -1.25],
            &[0.3, -7.0, 1e9, 0.1, 2.2],
            &[4.0; 5],
            &[1.0, 0.0, 1.0, 2.0, 0.0, 1.0, 1.0],
            &[0.0, -0.0, 5.0, -0.0, 0.0],
        ];
        for column in columns {
            let (got, want) = (quantile_values(column), reference(column));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "column {column:?}");
        }
    }
}
