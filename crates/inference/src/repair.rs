//! Counterfactual repair generation and ranking (appendix B.2, Eqs 2–5).
//!
//! Given an observed fault, the engine builds *repair sets*: candidate
//! single- and multi-option value changes along the top-ranked causal
//! paths. Each repair `r` is scored by its individual causal effect
//!
//! `ICE(r) = Pr(Y_low | r, fault) − Pr(Y_high | r, fault)`
//!
//! — the probability that the objective(s) return within QoS after the
//! repair, minus the probability the fault persists, both evaluated on the
//! counterfactual distribution with the fault's abducted noise. Positive
//! ICE ⇒ the repair likely fixes the fault; negative ⇒ it likely worsens
//! it. Crucially this needs **no new measurements** ("the ICE computation
//! occurs only on the observational data").

use unicorn_graph::{NodeId, TierConstraints, VarKind};

use crate::ace::{rank_causal_paths, RankedPath, ValueDomain};
use crate::plan::{DomainCache, QueryPlan};
use crate::scm::FittedScm;

/// One candidate repair: a set of option assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct Repair {
    /// `(option, new value)` pairs.
    pub assignments: Vec<(NodeId, f64)>,
    /// Individual causal effect (Eq 5), filled by `rank_repairs`.
    pub ice: f64,
    /// Counterfactual relative improvement of the goal objectives under
    /// the fault's abducted noise — the tie-breaker when no candidate
    /// crosses the QoS threshold outright (all ICEs saturate at −1).
    pub improvement: f64,
}

/// A QoS goal over one or more objectives, all minimized: a repair "fixes"
/// the fault when every objective falls at or below its threshold.
#[derive(Debug, Clone)]
pub struct QosGoal {
    /// `(objective node, threshold)` pairs.
    pub thresholds: Vec<(NodeId, f64)>,
}

impl QosGoal {
    /// Single-objective goal.
    pub fn single(objective: NodeId, threshold: f64) -> Self {
        Self {
            thresholds: vec![(objective, threshold)],
        }
    }

    /// True if `values` meets every objective threshold.
    pub fn satisfied(&self, values: &[f64]) -> bool {
        self.thresholds.iter().all(|&(o, t)| values[o] <= t)
    }
}

/// Parameters for repair generation.
#[derive(Debug, Clone)]
pub struct RepairOptions {
    /// How many top causal paths to mine for options (paper: K = 3…25).
    pub top_k_paths: usize,
    /// Path-enumeration cap.
    pub path_cap: usize,
    /// Also generate pairwise combinations of the best single-option
    /// repairs ("we consider all possible interactions between those
    /// options"), capped at this many pairs.
    pub max_pairs: usize,
    /// Abduction blend weight for the counterfactual probabilities.
    pub abduct_weight: f64,
}

impl Default for RepairOptions {
    fn default() -> Self {
        Self {
            top_k_paths: 10,
            path_cap: 300,
            max_pairs: 12,
            abduct_weight: 0.5,
        }
    }
}

/// Collects the configuration options lying on the top-K causal paths into
/// the goal objectives — the candidate root causes (§4: "the configurations
/// in this path are more likely to be associated with the root cause").
///
/// Legacy serial reference path — the engine mines paths in the
/// rounds of `coalesce`, under the same `collect_candidates` rule.
pub fn root_cause_candidates(
    scm: &FittedScm,
    goal: &QosGoal,
    tiers: &TierConstraints,
    domain: &dyn ValueDomain,
    opts: &RepairOptions,
) -> Vec<NodeId> {
    let mut found = Vec::new();
    for &(objective, _) in &goal.thresholds {
        let ranked = rank_causal_paths(scm, objective, domain, opts.top_k_paths, opts.path_cap);
        collect_candidates(&mut found, &ranked, tiers);
    }
    found
}

/// The one candidate-collection rule: appends the configuration options
/// on one goal objective's top-ranked paths to `found`, first seen first.
/// Shared by [`root_cause_candidates`] and `coalesce`, so the collection
/// order cannot drift between them.
pub(crate) fn collect_candidates(
    found: &mut Vec<NodeId>,
    ranked: &[RankedPath],
    tiers: &TierConstraints,
) {
    for rp in ranked {
        for &node in &rp.path.nodes {
            if tiers.kind(node) == VarKind::ConfigOption && !found.contains(&node) {
                found.push(node);
            }
        }
    }
}

/// Generates the repair set R = R₁ ∪ … ∪ Rₖ (Eqs 3–4): for each candidate
/// option, every permissible value different from the fault's value, with
/// all other options pinned at the fault configuration; plus pairwise
/// combinations of the strongest candidates.
pub fn generate_repairs(
    fault_values: &[f64],
    candidates: &[NodeId],
    domain: &dyn ValueDomain,
    opts: &RepairOptions,
) -> Vec<Repair> {
    let mut cache = DomainCache::new(domain);
    generate_repairs_cached(fault_values, candidates, &mut cache, opts)
}

/// [`generate_repairs`] against a per-plan [`DomainCache`]: each
/// candidate's permissible values are fetched once (the pairwise loop
/// re-probes them quadratically otherwise), in the exact legacy
/// enumeration order.
pub fn generate_repairs_cached(
    fault_values: &[f64],
    candidates: &[NodeId],
    cache: &mut DomainCache<'_>,
    opts: &RepairOptions,
) -> Vec<Repair> {
    let mut repairs = Vec::new();
    for &o in candidates {
        for &v in cache.values(o).iter() {
            if (v - fault_values[o]).abs() > 1e-12 {
                repairs.push(Repair {
                    assignments: vec![(o, v)],
                    ice: 0.0,
                    improvement: 0.0,
                });
            }
        }
    }
    // Pairwise combinations over the first few candidates (path-ranked).
    let mut pairs = 0usize;
    'outer: for (i, &o1) in candidates.iter().enumerate() {
        for &o2 in candidates.iter().skip(i + 1) {
            let (vals1, vals2) = (cache.values(o1), cache.values(o2));
            for &v1 in vals1.iter() {
                if (v1 - fault_values[o1]).abs() <= 1e-12 {
                    continue;
                }
                for &v2 in vals2.iter() {
                    if (v2 - fault_values[o2]).abs() <= 1e-12 {
                        continue;
                    }
                    if pairs >= opts.max_pairs {
                        break 'outer;
                    }
                    repairs.push(Repair {
                        assignments: vec![(o1, v1), (o2, v2)],
                        ice: 0.0,
                        improvement: 0.0,
                    });
                    pairs += 1;
                }
            }
        }
    }
    repairs
}

/// Scores repairs by ICE (Eq 5) against the abducted fault row and sorts
/// them descending; the head is `R_best`. Ties — in particular the common
/// early-loop case where *no* candidate reaches the QoS threshold and all
/// ICEs saturate — are broken by the deterministic counterfactual
/// improvement of the goal objectives.
///
/// Legacy serial reference path (one ICE sweep and one counterfactual per
/// repair) — the engine ranks through `compile_repair_rank` and
/// `finish_repair_rank` in `coalesce`.
pub fn rank_repairs(
    scm: &FittedScm,
    goal: &QosGoal,
    fault_row: usize,
    mut repairs: Vec<Repair>,
    opts: &RepairOptions,
) -> Vec<Repair> {
    let factual = scm.counterfactual(fault_row, &[]);
    for r in &mut repairs {
        r.ice = ice(scm, goal, fault_row, &r.assignments, opts.abduct_weight);
        let cf = scm.counterfactual(fault_row, &r.assignments);
        r.improvement = improvement_of(goal, &factual, &cf);
    }
    sort_repairs(&mut repairs);
    repairs
}

/// The counterfactual relative improvement of the goal objectives — the
/// single definition shared by [`rank_repairs`] and
/// [`finish_repair_rank`], so a scoring tweak cannot desynchronize the
/// two paths' bit-identity contract.
fn improvement_of(goal: &QosGoal, factual: &[f64], cf: &[f64]) -> f64 {
    goal.thresholds
        .iter()
        .map(|&(o, _)| {
            let before = factual[o];
            if before.abs() < 1e-12 {
                0.0
            } else {
                (before - cf[o]) / before.abs()
            }
        })
        .sum()
}

/// The canonical `(ICE, improvement)` descending sort, shared by both
/// ranking paths.
fn sort_repairs(repairs: &mut [Repair]) {
    repairs.sort_by(|a, b| {
        (b.ice, b.improvement)
            .partial_cmp(&(a.ice, a.improvement))
            .expect("NaN repair score")
    });
}

/// The compile half of [`rank_repairs`] through the planner: the factual
/// counterfactual handle plus per-repair `(ICE, counterfactual)` handles.
/// Finish with [`finish_repair_rank`] once the plan has been evaluated;
/// the scoring/sorting arithmetic is the serial path's, so the ranked
/// list is bit-identical at any thread count.
pub(crate) struct RepairRankCompilation {
    factual: crate::plan::PlanHandle,
    handles: Vec<(crate::plan::PlanHandle, crate::plan::PlanHandle)>,
}

/// Registers the factual counterfactual, every repair's ICE sweep, and
/// every repair's counterfactual on `plan` (repairs proposing the same
/// assignment set share their sweeps).
pub(crate) fn compile_repair_rank(
    plan: &mut QueryPlan,
    goal: &QosGoal,
    fault_row: usize,
    repairs: &[Repair],
    opts: &RepairOptions,
) -> RepairRankCompilation {
    let factual = plan.counterfactual(fault_row, &[]);
    let handles = repairs
        .iter()
        .map(|r| {
            (
                plan.ice(goal, fault_row, &r.assignments, opts.abduct_weight),
                plan.counterfactual(fault_row, &r.assignments),
            )
        })
        .collect();
    RepairRankCompilation { factual, handles }
}

/// Resolves a [`compile_repair_rank`] registration with the serial path's
/// scoring and sorting arithmetic.
pub(crate) fn finish_repair_rank(
    comp: RepairRankCompilation,
    goal: &QosGoal,
    mut repairs: Vec<Repair>,
    results: &crate::plan::PlanResults,
) -> Vec<Repair> {
    let factual = results.values(comp.factual);
    for (r, &(ice_h, cf_h)) in repairs.iter_mut().zip(&comp.handles) {
        r.ice = results.scalar(ice_h);
        r.improvement = improvement_of(goal, factual, results.values(cf_h));
    }
    sort_repairs(&mut repairs);
    repairs
}

/// Individual causal effect of a repair (Eq 5):
/// `Pr(all objectives within QoS | repair) − Pr(fault persists | repair)`.
///
/// Legacy serial reference sweep — plans register the same estimate via
/// [`QueryPlan::ice`].
pub fn ice(
    scm: &FittedScm,
    goal: &QosGoal,
    fault_row: usize,
    assignments: &[(NodeId, f64)],
    abduct_weight: f64,
) -> f64 {
    // Joint probability over all objectives, so evaluate once per sweep
    // row rather than per-objective.
    let n = scm.n_rows();
    if n == 0 {
        return 0.0;
    }
    let stride = (n / 256).max(1);
    let mut fixed = 0usize;
    let mut still_bad = 0usize;
    let mut count = 0usize;
    let mut r = 0;
    while r < n {
        let vals = scm.simulate(
            r,
            assignments,
            crate::scm::ResidualMode::Blend {
                abduct_row: fault_row,
                weight: abduct_weight,
            },
        );
        if goal.satisfied(&vals) {
            fixed += 1;
        } else {
            still_bad += 1;
        }
        count += 1;
        r += stride;
    }
    (fixed as f64 - still_bad as f64) / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ace::ExplicitDomain;
    use unicorn_graph::Admg;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    /// Latency = 10·bad_flag + 0.5·weak + noise, with an event mediator.
    /// Option 0 ∈ {0,1} (1 = misconfigured), option 1 ∈ {0,1,2} weak.
    fn fixture() -> (FittedScm, ExplicitDomain, TierConstraints, usize) {
        let mut s = 23u64;
        let n = 500;
        let mut o0 = Vec::new();
        let mut o1 = Vec::new();
        let mut ev = Vec::new();
        let mut lat = Vec::new();
        let mut fault_row = None;
        for i in 0..n {
            let a = ((i % 5) == 0) as usize as f64; // mostly 0
            let b = (i % 3) as f64;
            let e = 5.0 * a + 0.2 * b + 0.1 * lcg(&mut s);
            let l = 2.0 * e + 0.1 * b + 0.1 * lcg(&mut s);
            if a == 1.0 && fault_row.is_none() {
                fault_row = Some(i);
            }
            o0.push(a);
            o1.push(b);
            ev.push(e);
            lat.push(l);
        }
        let mut g = Admg::new(vec![
            "bad".into(),
            "weak".into(),
            "event".into(),
            "latency".into(),
        ]);
        g.add_directed(0, 2);
        g.add_directed(1, 2);
        g.add_directed(2, 3);
        g.add_directed(1, 3);
        let scm = FittedScm::fit(g, &[o0, o1, ev, lat]).unwrap();
        let domain = ExplicitDomain {
            values: vec![vec![0.0, 1.0], vec![0.0, 1.0, 2.0], vec![], vec![]],
        };
        let tiers = TierConstraints::new(vec![
            VarKind::ConfigOption,
            VarKind::ConfigOption,
            VarKind::SystemEvent,
            VarKind::Objective,
        ]);
        (scm, domain, tiers, fault_row.unwrap())
    }

    #[test]
    fn candidates_come_from_paths() {
        let (scm, domain, tiers, _) = fixture();
        let goal = QosGoal::single(3, 2.0);
        let cands = root_cause_candidates(&scm, &goal, &tiers, &domain, &RepairOptions::default());
        // The strong misconfiguration option must rank first.
        assert_eq!(cands[0], 0, "candidates: {cands:?}");
        assert!(cands.contains(&1));
    }

    #[test]
    fn repair_generation_excludes_fault_value() {
        let (_, domain, _, _) = fixture();
        let fault = vec![1.0, 2.0, 0.0, 0.0];
        let repairs = generate_repairs(
            &fault,
            &[0, 1],
            &domain,
            &RepairOptions {
                max_pairs: 0,
                ..Default::default()
            },
        );
        // Option 0 has one alternative (0.0); option 1 has two.
        assert_eq!(repairs.len(), 3);
        assert!(repairs.iter().all(|r| r
            .assignments
            .iter()
            .all(|&(o, v)| (v - fault[o]).abs() > 1e-12)));
    }

    #[test]
    fn best_repair_flips_the_misconfiguration() {
        let (scm, domain, tiers, fault_row) = fixture();
        // Fault: latency ≈ 10; QoS: latency ≤ 2.
        let goal = QosGoal::single(3, 2.0);
        let opts = RepairOptions::default();
        let cands = root_cause_candidates(&scm, &goal, &tiers, &domain, &opts);
        let fault: Vec<f64> = (0..4).map(|v| scm.data()[v][fault_row]).collect();
        let repairs = generate_repairs(&fault, &cands, &domain, &opts);
        let ranked = rank_repairs(&scm, &goal, fault_row, repairs, &opts);
        let best = &ranked[0];
        assert!(
            best.assignments.iter().any(|&(o, v)| o == 0 && v == 0.0),
            "best repair: {best:?}"
        );
        assert!(best.ice > 0.5, "ICE = {}", best.ice);
    }

    #[test]
    fn harmful_repair_gets_negative_ice() {
        let (scm, _, _, _) = fixture();
        let goal = QosGoal::single(3, 2.0);
        // Setting the bad flag on a healthy row must score negatively.
        let healthy_row = 1; // i=1 → a=0
        let score = ice(&scm, &goal, healthy_row, &[(0, 1.0)], 0.5);
        assert!(score < -0.5, "ICE = {score}");
    }

    #[test]
    fn multi_objective_goal_requires_all_thresholds() {
        let goal = QosGoal {
            thresholds: vec![(0, 1.0), (1, 2.0)],
        };
        assert!(goal.satisfied(&[0.5, 1.5]));
        assert!(!goal.satisfied(&[1.5, 1.5]));
        assert!(!goal.satisfied(&[0.5, 2.5]));
    }
}
