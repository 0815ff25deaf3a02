//! Shared analysis for the transferability figures (Figs 4, 5, 21, 22):
//! fitting regression and causal performance models in a source and a
//! target environment and comparing their terms, coefficients, and errors.

use std::collections::BTreeSet;

use unicorn_baselines::InfluenceModel;
use unicorn_discovery::{learn_causal_model_on, DiscoveryOptions, LearnedModel};
use unicorn_graph::backtrack_causal_paths;
use unicorn_inference::FittedScm;
use unicorn_stats::regression::StepwiseOptions;
use unicorn_stats::{mape, spearman};
use unicorn_systems::Dataset;

/// Comparison statistics of a source model against a target environment —
/// one bar group of Fig 4.
#[derive(Debug, Clone)]
pub struct TransferStats {
    /// Terms in the source model.
    pub total_terms_source: usize,
    /// Terms in the target model.
    pub total_terms_target: usize,
    /// Terms common to both.
    pub common_terms: usize,
    /// MAPE of the source model on source data.
    pub error_source: f64,
    /// MAPE of the target model on target data.
    pub error_target: f64,
    /// MAPE of the source model applied to target data.
    pub error_transferred: f64,
    /// Spearman rank correlation between the models' term
    /// coefficients/effects.
    pub rank_correlation: f64,
}

/// Fits performance-influence models in both environments and compares
/// them (the "Performance Influence Model" column of Fig 4).
pub fn regression_transfer(
    source: &Dataset,
    target: &Dataset,
    obj_idx: usize,
    max_terms: usize,
) -> (TransferStats, InfluenceModel, InfluenceModel) {
    let opts = StepwiseOptions {
        max_terms,
        ..Default::default()
    };
    let src = InfluenceModel::fit(source, obj_idx, &opts).expect("source fit");
    let dst = InfluenceModel::fit(target, obj_idx, &opts).expect("target fit");
    let stats = TransferStats {
        total_terms_source: src.terms().len(),
        total_terms_target: dst.terms().len(),
        common_terms: src.common_terms(&dst).len(),
        error_source: src.mape_on(source, obj_idx),
        error_target: dst.mape_on(target, obj_idx),
        error_transferred: src.mape_on(target, obj_idx),
        rank_correlation: src.coefficient_rank_correlation(&dst),
    };
    (stats, src, dst)
}

/// The causal terms of a learned model for one objective (appendix B.1):
/// backtrack causal paths from the objective; each path contributes its
/// source option, and events reached from several options contribute the
/// interaction of those options.
fn causal_terms(model: &LearnedModel, data: &Dataset, obj_idx: usize) -> BTreeSet<Vec<usize>> {
    let obj = data.objective_node(obj_idx);
    let mut terms: BTreeSet<Vec<usize>> = BTreeSet::new();
    let paths = backtrack_causal_paths(&model.admg, obj, 500);
    // Options feeding each event (for interaction terms).
    for p in &paths {
        let src = p.source();
        if src < data.n_options {
            terms.insert(vec![src]);
        }
        for &node in &p.nodes {
            if node >= data.n_options && node < obj {
                let mut opts: Vec<usize> = model
                    .admg
                    .parents(node)
                    .into_iter()
                    .filter(|&q| q < data.n_options)
                    .collect();
                opts.sort_unstable();
                if opts.len() >= 2 {
                    terms.insert(opts);
                }
            }
        }
    }
    terms
}

/// Per-option total causal strength in a fitted SCM — the "coefficient"
/// analog used for the causal rank-correlation statistic: the sum of
/// |coefficient| of every fitted term in which the option participates,
/// across all functional nodes.
fn causal_option_strengths(scm: &FittedScm, n_options: usize) -> Vec<f64> {
    let mut strength = vec![0.0; n_options];
    // Walk each non-root node's fitted polynomial.
    for v in 0..scm.n_vars() {
        let parents = scm.parents_of(v).to_vec();
        if parents.is_empty() {
            continue;
        }
        // The SCM's per-node models are not exposed directly; approximate
        // the strength by the node's parent ACE proxy: difference of
        // predictions when sweeping each option parent over the data range.
        for &p in &parents {
            if p >= n_options {
                continue;
            }
            let col = &scm.data()[p];
            let lo = col.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if hi <= lo {
                continue;
            }
            let e_lo = scm.interventional_expectation(v, &[(p, lo)]);
            let e_hi = scm.interventional_expectation(v, &[(p, hi)]);
            strength[p] += (e_hi - e_lo).abs();
        }
    }
    strength
}

/// Learns causal models in both environments and compares them (the
/// "Causal Performance Model" column of Fig 4).
pub fn causal_transfer(
    source: &Dataset,
    target: &Dataset,
    obj_idx: usize,
    tiers: &unicorn_graph::TierConstraints,
    opts: &DiscoveryOptions,
) -> TransferStats {
    // One shared view per environment: structure learning and SCM fitting
    // read the same cached sufficient statistics.
    let source_view = source.view();
    let target_view = target.view();
    let src = learn_causal_model_on(&source_view, &source.names, tiers, opts);
    let dst = learn_causal_model_on(&target_view, &target.names, tiers, opts);
    let terms_src = causal_terms(&src, source, obj_idx);
    let terms_dst = causal_terms(&dst, target, obj_idx);
    let common = terms_src.intersection(&terms_dst).count();

    let scm_src = FittedScm::fit_view(src.admg.clone(), &source_view).expect("fit src");
    let scm_dst = FittedScm::fit_view(dst.admg.clone(), &target_view).expect("fit dst");
    let obj_node = source.objective_node(obj_idx);

    let predict = |scm: &FittedScm, data: &Dataset| -> f64 {
        let n = data.n_rows();
        let pred: Vec<f64> = (0..n)
            .map(|r| {
                let assignment: Vec<(usize, f64)> = (0..data.n_options)
                    .map(|o| (o, data.columns[o][r]))
                    .collect();
                scm.predict_from_assignment(&assignment, obj_node)
            })
            .collect();
        mape(data.objective_column(obj_idx), &pred)
    };

    let s_src = causal_option_strengths(&scm_src, source.n_options);
    let s_dst = causal_option_strengths(&scm_dst, target.n_options);

    TransferStats {
        total_terms_source: terms_src.len(),
        total_terms_target: terms_dst.len(),
        common_terms: common,
        error_source: predict(&scm_src, source),
        error_target: predict(&scm_dst, target),
        error_transferred: predict(&scm_src, target),
        rank_correlation: spearman(&s_src, &s_dst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_systems::{generate, Environment, Hardware, Simulator, SubjectSystem};

    fn datasets() -> (Simulator, Dataset, Dataset) {
        let src_sim = Simulator::new(
            SubjectSystem::X264.build(),
            Environment::on(Hardware::Xavier),
            3,
        );
        let dst_sim = Simulator::new(
            SubjectSystem::X264.build(),
            Environment::on(Hardware::Tx2),
            3,
        );
        let src = generate(&src_sim, 220, 10);
        let dst = generate(&dst_sim, 220, 11);
        (src_sim, src, dst)
    }

    #[test]
    fn regression_transfer_reports_error_growth() {
        let (_, src, dst) = datasets();
        let (stats, _, _) = regression_transfer(&src, &dst, 0, 12);
        assert!(stats.total_terms_source > 0);
        assert!(stats.error_transferred >= stats.error_source);
        assert!(stats.common_terms <= stats.total_terms_source);
    }

    #[test]
    fn causal_transfer_keeps_structure_stable() {
        let (sim, src, dst) = datasets();
        let stats = causal_transfer(
            &src,
            &dst,
            0,
            &sim.model.tiers(),
            &DiscoveryOptions {
                max_depth: 2,
                pds_depth: 0,
                ..Default::default()
            },
        );
        assert!(stats.total_terms_source > 0);
        // The causal structure overlap should be substantial: common terms
        // at least a third of the smaller model.
        let smaller = stats.total_terms_source.min(stats.total_terms_target);
        assert!(
            stats.common_terms * 3 >= smaller,
            "common {} of {smaller}",
            stats.common_terms
        );
    }
}
