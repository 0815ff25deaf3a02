//! Fitted structural causal models over an ADMG.
//!
//! Each non-root node gets a polynomial functional node (§3: "we
//! characterize the functional nodes with polynomial models") regressed on
//! its directed parents; residuals are stored per training row. Roots keep
//! their observed values. Simulation draws the *entire* exogenous vector
//! from one training row at a time, which preserves the empirical joint of
//! the noise terms — in particular, residual correlations induced by
//! latent confounders (bidirected edges) survive into the interventional
//! distribution instead of being discarded.
//!
//! # The lane-width/fold-order contract
//!
//! The batch sweep paths ([`FittedScm::evaluate_plan`],
//! [`FittedScm::simulate_batch`]) simulate [`SIM_LANES`] swept rows per
//! topological pass: per node, one coefficient load drives `SIM_LANES`
//! fused predict/residual updates. This is bit-exact — not approximately
//! equal — to the scalar per-row sweep, because swept rows are
//! arithmetically *independent*: no floating-point reduction crosses
//! lanes. Any future kernel must keep that shape:
//!
//! * **Within a lane, the scalar fold order is law.** Each lane's
//!   prediction folds terms in model order from 0.0 with the exact
//!   per-term expressions of [`PolyModel::predict_row`] (`b` for the
//!   intercept, `b·vᵢ`, `b·(vᵢ·vⱼ)`, the ordered product for higher
//!   degrees — the unrolling [`PolyModel::predict`] already pins), then
//!   adds the injected residual. Never reassociate, never contract to
//!   FMA, never batch *across* rows of one reduction.
//! * **Lanes only across independent rows.** The lane width is free to
//!   change (it is a throughput knob, not a semantic one); which rows
//!   share a pass is not observable because no arithmetic connects them.
//! * **Consumers fold in row order.** Lane results are read back lane 0
//!   first, so per-consumer reductions replay the legacy ascending-row
//!   serial fold bit for bit at any lane width or thread count.

use std::collections::HashMap;
use std::sync::Arc;

use unicorn_exec::Executor;
use unicorn_graph::{Admg, NodeId};

use crate::plan::{ModeKey, PlanOutput, PlanResults, QueryPlan, Reduction, SweepMode};
use crate::sweep_cache::SweepCache;
use unicorn_stats::dataview::DataView;
use unicorn_stats::regression::{fit_gram, PolyModel, Term, TermGram};
use unicorn_stats::segment::Segment;
use unicorn_stats::StatsError;

/// How residual noise is injected during simulation.
#[derive(Debug, Clone, Copy)]
pub enum ResidualMode {
    /// No noise: propagate conditional expectations.
    None,
    /// Use the residuals of a specific training row (abduction).
    FromRow(usize),
    /// Blend the abducted residuals of row `.0` with the residuals of the
    /// sweep row, weighted `w·abducted + (1−w)·sweep` — the "stochastic
    /// abduction" used for probability-valued counterfactuals (Eq 5).
    Blend { abduct_row: usize, weight: f64 },
}

/// The functional node fitted for one variable.
#[derive(Debug, Clone)]
struct NodeModel {
    parents: Vec<NodeId>,
    /// `None` for root nodes (no directed parents).
    model: Option<PolyModel>,
    /// Per-training-row residuals (`observed − predicted`); for roots the
    /// residual is defined as the observed value itself.
    residuals: Vec<f64>,
}

/// One node's cached regression sufficient statistics: the per-segment
/// normal-equation contributions of its term set plus their running
/// in-order folds, keyed by segment identity. A warm refit over a grown
/// view locates the longest `Arc`-shared segment prefix, starts from that
/// prefix's cached fold, and computes only the (new or rebuilt-tail)
/// segments' contributions — O(new rows) per node instead of O(all rows).
/// Segment prefixes are append-only within a lineage, so pointer equality
/// of segment `k` certifies the whole prefix `0..=k`.
#[derive(Debug, Clone)]
struct NodeGrams {
    segments: Vec<Arc<Segment>>,
    grams: Vec<Arc<TermGram>>,
    /// `folds[k]` = grams[0] + … + grams[k], folded in segment order.
    folds: Vec<Arc<TermGram>>,
}

impl NodeGrams {
    /// Builds the cache for one node over a view's segments, reusing the
    /// previous cache's work for the shared segment prefix.
    fn build(
        view_segments: &[Arc<Segment>],
        terms: &[Term],
        v: NodeId,
        prev: Option<&NodeGrams>,
    ) -> NodeGrams {
        let shared = prev.map_or(0, |p| {
            p.segments
                .iter()
                .zip(view_segments)
                .take_while(|(a, b)| Arc::ptr_eq(a, b))
                .count()
        });
        let mut segments = Vec::with_capacity(view_segments.len());
        let mut grams = Vec::with_capacity(view_segments.len());
        let mut folds = Vec::with_capacity(view_segments.len());
        if let Some(p) = prev {
            segments.extend(p.segments[..shared].iter().cloned());
            grams.extend(p.grams[..shared].iter().cloned());
            folds.extend(p.folds[..shared].iter().cloned());
        }
        let mut acc: Option<TermGram> = folds.last().map(|f| TermGram::clone(f));
        for seg in &view_segments[shared..] {
            let gram = segment_gram(seg, terms, v);
            let fold = match acc.take() {
                Some(mut a) => {
                    a.add(&gram);
                    a
                }
                None => TermGram::clone(&gram),
            };
            segments.push(Arc::clone(seg));
            grams.push(gram);
            acc = Some(fold.clone());
            folds.push(Arc::new(fold));
        }
        NodeGrams {
            segments,
            grams,
            folds,
        }
    }

    /// The fold over all segments (zeros when the view is empty).
    fn total(&self, t: usize) -> TermGram {
        self.folds
            .last()
            .map_or_else(|| TermGram::zeros(t), |f| TermGram::clone(f))
    }
}

/// A structural causal model fitted to data over a fixed ADMG.
///
/// Fitted node models, cached regression Grams, and the topological order
/// are `Arc`-shared, so cloning an SCM (the engine cache of the
/// active-learning loop) is a handful of pointer bumps — never a copy of
/// residual vectors or columns.
#[derive(Debug, Clone)]
pub struct FittedScm {
    admg: Admg,
    nodes: Arc<Vec<NodeModel>>,
    /// Per-node segment Grams (`None` for roots), consumed by
    /// [`Self::refit_view`].
    grams: Arc<Vec<Option<NodeGrams>>>,
    /// Training data as a shared columnar view (kept for root values and
    /// sweeps); cloning the SCM bumps the view's `Arc`, never the columns.
    data: DataView,
    topo: Arc<Vec<NodeId>>,
    /// Sweep stride: expectation sweeps visit every `stride`-th row so the
    /// cost stays bounded on large datasets.
    stride: usize,
    /// The worker pool per-node regressions and batch simulation sweeps
    /// fan out over (inherited by [`Self::refit_view`] and clones).
    exec: Arc<Executor>,
    /// Epoch-pinned sweep-result cache consulted by
    /// [`Self::evaluate_plan`] (`None` = always recompute). Inherited by
    /// clones and warm refits, so one cache follows a tenant's whole
    /// data lineage — the epoch tag keeps cross-epoch reads impossible.
    sweep_cache: Option<Arc<SweepCache>>,
}

/// One node's fit result, computed independently on a worker.
type NodeFit = Result<(NodeModel, Option<NodeGrams>), StatsError>;

/// The residual injected for one node under a residual mode — the single
/// definition shared by [`FittedScm::simulate`] and the planner's
/// affected-node resimulation, so both paths are bit-identical by
/// construction.
fn residual_for(nm: &NodeModel, base_row: usize, mode: ResidualMode) -> f64 {
    match mode {
        ResidualMode::None => {
            if nm.model.is_none() {
                nm.residuals[base_row]
            } else {
                0.0
            }
        }
        ResidualMode::FromRow(r) => {
            if nm.model.is_none() {
                nm.residuals[base_row]
            } else {
                nm.residuals[r]
            }
        }
        ResidualMode::Blend { abduct_row, weight } => {
            if nm.model.is_none() {
                nm.residuals[base_row]
            } else {
                weight * nm.residuals[abduct_row] + (1.0 - weight) * nm.residuals[base_row]
            }
        }
    }
}

/// Swept rows simulated per topological pass by the batch sweep paths
/// (see the module docs: a throughput knob — lanes never share any
/// floating-point reduction, so the width is not observable in results).
pub const SIM_LANES: usize = 8;

/// Dense `do(·)` assignment map: `map[v] = Some(x)` iff `v` is clamped.
/// Built once per sweep (or per call) instead of scanning the assignment
/// list per topological node; first occurrence per node wins, the same
/// rule as the linear scan it replaces.
fn assignment_map(n_vars: usize, interventions: &[(NodeId, f64)]) -> Vec<Option<f64>> {
    let mut map = vec![None; n_vars];
    for &(node, x) in interventions {
        if map[node].is_none() {
            map[node] = Some(x);
        }
    }
    map
}

/// The per-lane residual modes of one lane of swept rows under a sweep's
/// row/residual policy.
fn lane_modes(rows: &[usize; SIM_LANES], mode: SweepMode) -> [ResidualMode; SIM_LANES] {
    let mut out = [ResidualMode::None; SIM_LANES];
    for (m, &r) in out.iter_mut().zip(rows) {
        *m = match mode {
            SweepMode::GFormula | SweepMode::Row(_) => ResidualMode::FromRow(r),
            SweepMode::Abduct { abduct_row, weight } => ResidualMode::Blend { abduct_row, weight },
        };
    }
    out
}

/// Folds one reduction from a sweep's result buffer, replaying the
/// legacy serial loops' exact arithmetic: row-order sums starting from
/// `0.0`, integer hit / ICE tallies divided once at the end, and the
/// empty-sweep answer of `0.0`. `at(row, node)` reads one per-row target
/// value; `full()` materializes a single-row sweep's whole simulated
/// vector (only [`Reduction::Values`] calls it). Because hits and misses
/// both fold through here, caching cannot perturb a single bit.
fn fold_consumer(
    c: &Reduction,
    rows: usize,
    at: impl Fn(usize, NodeId) -> f64,
    full: impl FnOnce() -> Vec<f64>,
) -> PlanOutput {
    if rows == 0 {
        if let Reduction::Values { .. } = c {
            panic!("single-row sweep produced no values");
        }
        // Empty sweeps (no training rows) answer 0.0, exactly as the
        // legacy entry points do.
        return PlanOutput::Scalar(0.0);
    }
    match c {
        Reduction::Mean { target, .. } => {
            let mut total = 0.0;
            for r in 0..rows {
                total += at(r, *target);
            }
            PlanOutput::Scalar(total / rows as f64)
        }
        Reduction::Probability { target, pred, .. } => {
            let mut hits = 0usize;
            for r in 0..rows {
                if pred(at(r, *target)) {
                    hits += 1;
                }
            }
            PlanOutput::Scalar(hits as f64 / rows as f64)
        }
        Reduction::Ice { goal, .. } => {
            let mut fixed = 0usize;
            let mut bad = 0usize;
            for r in 0..rows {
                if goal.thresholds.iter().all(|&(o, th)| at(r, o) <= th) {
                    fixed += 1;
                } else {
                    bad += 1;
                }
            }
            PlanOutput::Scalar((fixed as f64 - bad as f64) / rows as f64)
        }
        Reduction::Values { .. } => PlanOutput::Values(full()),
    }
}

/// Computes one node's Gram for one segment (the segment's own columns
/// are exactly one canonical chunk).
fn segment_gram(seg: &Arc<Segment>, terms: &[Term], v: NodeId) -> Arc<TermGram> {
    let cols: Vec<&[f64]> = seg.columns().iter().map(Vec::as_slice).collect();
    Arc::new(TermGram::of_chunk(terms, &cols, seg.col(v)))
}

/// Builds the polynomial term set for a node given its parents: intercept,
/// linear terms, squares, and pairwise interactions (interactions only when
/// the parent count stays small enough for the design to be well-posed).
fn node_terms(parents: &[NodeId]) -> Vec<Term> {
    let mut terms = vec![Term::intercept()];
    for &p in parents {
        terms.push(Term::linear(p));
    }
    if parents.len() <= 6 {
        for &p in parents {
            terms.push(Term::interaction(vec![p, p]));
        }
        for (i, &p) in parents.iter().enumerate() {
            for &q in parents.iter().skip(i + 1) {
                terms.push(Term::interaction(vec![p, q]));
            }
        }
    }
    terms
}

impl FittedScm {
    /// Fits the SCM from borrowed columns (builds a throwaway view).
    pub fn fit(admg: Admg, columns: &[Vec<f64>]) -> Result<Self, StatsError> {
        Self::fit_view(admg, &DataView::from_columns(columns))
    }

    /// Fits the SCM over a shared [`DataView`]: one regression per node
    /// with directed parents, over the process-default worker pool. The
    /// view is retained (Arc-shared, never copied) for simulation sweeps
    /// and counterfactual abduction.
    pub fn fit_view(admg: Admg, view: &DataView) -> Result<Self, StatsError> {
        Self::fit_view_on(admg, view, Executor::global())
    }

    /// [`Self::fit_view`] over an explicit worker pool. Per-node
    /// regressions are independent of each other, so they fan out over
    /// `exec` and are reassembled in node order — the fit (and the error
    /// reported, if any) is bit-identical for every worker count. The pool
    /// is retained for warm refits and batch simulation sweeps.
    pub fn fit_view_on(
        admg: Admg,
        view: &DataView,
        exec: Arc<Executor>,
    ) -> Result<Self, StatsError> {
        let columns = view.columns();
        let n_rows = view.n_rows();
        let n_vars = admg.n_nodes();
        assert_eq!(columns.len(), n_vars, "column/node count mismatch");
        let ids: Vec<usize> = (0..n_vars).collect();
        let fits = exec.par_map(&ids, |_, &v| -> NodeFit {
            let parents = admg.parents(v);
            if parents.is_empty() {
                return Ok((
                    NodeModel {
                        parents,
                        model: None,
                        residuals: columns[v].clone(),
                    },
                    None,
                ));
            }
            let terms = node_terms(&parents);
            // Normal equations accumulated and folded per segment (and
            // cached for warm refits); the in-order fold is the canonical
            // chunk fold, so this fit matches one over the contiguous
            // columns.
            let node_grams = NodeGrams::build(view.segments(), &terms, v, None);
            let gram = node_grams.total(terms.len());
            let model = fit_gram(&gram, columns, &columns[v], &terms)?;
            let pred = model.predict(columns);
            let residuals: Vec<f64> = columns[v]
                .iter()
                .zip(&pred)
                .map(|(obs, p)| obs - p)
                .collect();
            Ok((
                NodeModel {
                    parents,
                    model: Some(model),
                    residuals,
                },
                Some(node_grams),
            ))
        });
        let mut nodes = Vec::with_capacity(n_vars);
        let mut grams: Vec<Option<NodeGrams>> = Vec::with_capacity(n_vars);
        // Merge in node order; the first failing node's error is reported,
        // exactly as a sequential pass would.
        for fit in fits {
            let (node, gram) = fit?;
            nodes.push(node);
            grams.push(gram);
        }
        let topo = admg.topological_order();
        let stride = (n_rows / 256).max(1);
        Ok(Self {
            admg,
            nodes: Arc::new(nodes),
            grams: Arc::new(grams),
            data: view.clone(),
            topo: Arc::new(topo),
            stride,
            exec,
            sweep_cache: None,
        })
    }

    /// Warm-start refit over a (typically grown) view of the **same** ADMG:
    /// reuses the graph, the topological order, each node's parent list
    /// and polynomial term set, and — the O(new rows) part — every cached
    /// per-segment Gram whose segment is still `Arc`-shared with the new
    /// view, so only the appended/rebuilt segments' normal-equation
    /// contributions are recomputed before re-solving. Because the reused
    /// structure and Grams are exactly what [`Self::fit_view`] would
    /// rederive from the same ADMG and rows (term sets are a pure function
    /// of the parent list; Grams are canonical chunk sums), the result is
    /// bit-identical to a cold fit. When the view is the very table this
    /// SCM was fitted on, the fit is returned as a clone (`Arc` bumps)
    /// without touching the data at all.
    ///
    /// # Panics
    ///
    /// Panics if `view` has a different column count than the fitted ADMG.
    pub fn refit_view(&self, view: &DataView) -> Result<Self, StatsError> {
        if view.same_table(&self.data) {
            return Ok(self.clone());
        }
        let columns = view.columns();
        assert_eq!(
            columns.len(),
            self.nodes.len(),
            "column/node count mismatch"
        );
        let ids: Vec<usize> = (0..self.nodes.len()).collect();
        let fits = self.exec.par_map(&ids, |_, &v| -> NodeFit {
            let prev = &self.nodes[v];
            let Some(model) = &prev.model else {
                return Ok((
                    NodeModel {
                        parents: prev.parents.clone(),
                        model: None,
                        residuals: columns[v].clone(),
                    },
                    None,
                ));
            };
            let terms = &model.terms;
            let node_grams = NodeGrams::build(view.segments(), terms, v, self.grams[v].as_ref());
            let gram = node_grams.total(terms.len());
            let model = fit_gram(&gram, columns, &columns[v], terms)?;
            let pred = model.predict(columns);
            let residuals: Vec<f64> = columns[v]
                .iter()
                .zip(&pred)
                .map(|(obs, p)| obs - p)
                .collect();
            Ok((
                NodeModel {
                    parents: prev.parents.clone(),
                    model: Some(model),
                    residuals,
                },
                Some(node_grams),
            ))
        });
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut grams: Vec<Option<NodeGrams>> = Vec::with_capacity(self.nodes.len());
        for fit in fits {
            let (node, gram) = fit?;
            nodes.push(node);
            grams.push(gram);
        }
        Ok(Self {
            admg: self.admg.clone(),
            nodes: Arc::new(nodes),
            grams: Arc::new(grams),
            data: view.clone(),
            topo: Arc::clone(&self.topo),
            stride: (view.n_rows() / 256).max(1),
            exec: Arc::clone(&self.exec),
            // The cache follows the lineage across the epoch bump: hot
            // keys and allocation survive, stale entries can never hit.
            sweep_cache: self.sweep_cache.clone(),
        })
    }

    /// Attaches an epoch-pinned [`SweepCache`]: [`Self::evaluate_plan`]
    /// probes it (at this fit's data epoch) before scheduling lane tasks
    /// and inserts completed sweep buffers on miss. Never changes an
    /// answer — hits replay the exact stored bits through the same fold
    /// the miss path uses. Clones and warm refits inherit the cache.
    pub fn with_sweep_cache(mut self, cache: Arc<SweepCache>) -> Self {
        self.sweep_cache = Some(cache);
        self
    }

    /// A clone of this fit that bypasses the sweep cache entirely — the
    /// reference path cache-on results are asserted against.
    pub fn without_sweep_cache(&self) -> Self {
        Self {
            sweep_cache: None,
            ..self.clone()
        }
    }

    /// The attached sweep cache, if any.
    pub fn sweep_cache(&self) -> Option<&Arc<SweepCache>> {
        self.sweep_cache.as_ref()
    }

    /// The underlying ADMG.
    pub fn admg(&self) -> &Admg {
        &self.admg
    }

    /// Number of training rows.
    pub fn n_rows(&self) -> usize {
        self.data.n_rows()
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.nodes.len()
    }

    /// Training data (column-major).
    pub fn data(&self) -> &[Vec<f64>] {
        self.data.columns()
    }

    /// The shared training-data view.
    pub fn view(&self) -> &DataView {
        &self.data
    }

    /// Training R² of a node's functional model (1.0 for roots).
    #[cfg(test)]
    fn node_r2(&self, v: NodeId) -> f64 {
        self.nodes[v].model.as_ref().map_or(1.0, |m| m.r2)
    }

    /// Fitted polynomial coefficients of a node's functional model
    /// (`None` for roots) — exposed so equivalence tests can assert SCM
    /// fits are bit-identical across thread counts.
    pub fn coefficients_of(&self, v: NodeId) -> Option<&[f64]> {
        self.nodes[v]
            .model
            .as_ref()
            .map(|m| m.coefficients.as_slice())
    }

    /// Directed parents the node's functional model was fitted on.
    pub fn parents_of(&self, v: NodeId) -> &[NodeId] {
        &self.nodes[v].parents
    }

    /// Simulates all node values for one exogenous configuration.
    ///
    /// * `base_row` supplies root values and (depending on `mode`)
    ///   residuals.
    /// * `interventions` are `do(node = value)` pairs: the node's
    ///   functional dependence is severed and the value clamped.
    pub fn simulate(
        &self,
        base_row: usize,
        interventions: &[(NodeId, f64)],
        mode: ResidualMode,
    ) -> Vec<f64> {
        self.simulate_assigned(
            base_row,
            &assignment_map(self.n_vars(), interventions),
            mode,
        )
    }

    /// [`Self::simulate`] over a precomputed dense assignment map —
    /// O(1) clamp lookups per topological node instead of a scan of the
    /// intervention list.
    fn simulate_assigned(
        &self,
        base_row: usize,
        assign: &[Option<f64>],
        mode: ResidualMode,
    ) -> Vec<f64> {
        let mut values = vec![0.0; self.n_vars()];
        for &v in self.topo.iter() {
            if let Some(x) = assign[v] {
                values[v] = x;
                continue;
            }
            let nm = &self.nodes[v];
            let residual = residual_for(nm, base_row, mode);
            values[v] = match &nm.model {
                None => residual,
                Some(m) => m.predict_row(&|i: usize| values[i]) + residual,
            };
        }
        values
    }

    /// Re-simulates only the `affected` nodes (intervened nodes plus their
    /// descendants, in topological order) on top of a no-intervention
    /// `baseline` sweep of the same `(base_row, mode)`. Every node outside
    /// the affected set has bit-identical inputs in both sweeps, so the
    /// result equals a full [`Self::simulate`] with the interventions —
    /// the planner's ancestor-sharing shortcut.
    fn resimulate_affected(
        &self,
        baseline: &[f64],
        assign: &[Option<f64>],
        affected: &[NodeId],
        base_row: usize,
        mode: ResidualMode,
    ) -> Vec<f64> {
        let mut values = baseline.to_vec();
        for &v in affected {
            if let Some(x) = assign[v] {
                values[v] = x;
                continue;
            }
            let nm = &self.nodes[v];
            let residual = residual_for(nm, base_row, mode);
            values[v] = match &nm.model {
                None => residual,
                Some(m) => m.predict_row(&|i: usize| values[i]) + residual,
            };
        }
        values
    }

    /// One node's lane update: `SIM_LANES` fused predict/residual
    /// evaluations off a single load of the node's coefficients. Each
    /// lane's arithmetic is exactly [`Self::simulate_assigned`]'s scalar
    /// body for that lane's row — the per-term expressions and the term
    /// fold order match [`PolyModel::predict_row`] — so every lane is
    /// bit-identical to the scalar sweep it replaces (see the module
    /// docs).
    fn node_lane_update(
        &self,
        v: NodeId,
        values: &mut [[f64; SIM_LANES]],
        assign: &[Option<f64>],
        rows: &[usize; SIM_LANES],
        modes: &[ResidualMode; SIM_LANES],
    ) {
        if let Some(x) = assign[v] {
            values[v] = [x; SIM_LANES];
            return;
        }
        let nm = &self.nodes[v];
        let mut res = [0.0f64; SIM_LANES];
        for ((r, &row), &mode) in res.iter_mut().zip(rows).zip(modes) {
            *r = residual_for(nm, row, mode);
        }
        let Some(m) = &nm.model else {
            values[v] = res;
            return;
        };
        let mut pred = [0.0f64; SIM_LANES];
        for (term, &b) in m.terms.iter().zip(&m.coefficients) {
            match term.0.as_slice() {
                [] => pred.iter_mut().for_each(|p| *p += b),
                [i] => {
                    let vi = values[*i];
                    for (p, &a) in pred.iter_mut().zip(&vi) {
                        *p += b * a;
                    }
                }
                [i, j] => {
                    let (vi, vj) = (values[*i], values[*j]);
                    for ((p, &a), &c) in pred.iter_mut().zip(&vi).zip(&vj) {
                        *p += b * (a * c);
                    }
                }
                idx => {
                    for (l, p) in pred.iter_mut().enumerate() {
                        *p += b * idx.iter().map(|&i| values[i][l]).product::<f64>();
                    }
                }
            }
        }
        for ((out, &p), &r) in values[v].iter_mut().zip(&pred).zip(&res) {
            *out = p + r;
        }
    }

    /// Simulates `SIM_LANES` exogenous rows in one topological pass under
    /// one shared assignment map (node-major lane layout:
    /// `result[node][lane]`). Lane `l` is bit-identical to
    /// `simulate_assigned(rows[l], assign, modes[l])`.
    fn simulate_lanes(
        &self,
        rows: &[usize; SIM_LANES],
        assign: &[Option<f64>],
        modes: &[ResidualMode; SIM_LANES],
    ) -> Vec<[f64; SIM_LANES]> {
        let mut values = vec![[0.0; SIM_LANES]; self.n_vars()];
        for &v in self.topo.iter() {
            self.node_lane_update(v, &mut values, assign, rows, modes);
        }
        values
    }

    /// Lane variant of [`Self::resimulate_affected`]: all `SIM_LANES`
    /// lanes share one affected-set computation and re-simulate only the
    /// affected nodes on top of the lane baseline.
    fn resimulate_affected_lanes(
        &self,
        baseline: &[[f64; SIM_LANES]],
        assign: &[Option<f64>],
        affected: &[NodeId],
        rows: &[usize; SIM_LANES],
        modes: &[ResidualMode; SIM_LANES],
    ) -> Vec<[f64; SIM_LANES]> {
        let mut values = baseline.to_vec();
        for &v in affected {
            self.node_lane_update(v, &mut values, assign, rows, modes);
        }
        values
    }

    /// The strided sweep-row indices a g-formula query visits.
    fn sweep_rows(&self) -> Vec<usize> {
        (0..self.n_rows()).step_by(self.stride).collect()
    }

    /// Executes a compiled [`QueryPlan`]: one topological baseline sweep
    /// per `(row, residual mode)` shared by every intervention of that
    /// batch (each intervention re-simulates only its intervened nodes
    /// and their descendants), independent `(row, sweep-chunk)` items
    /// fanned over the shared pool via `par_map`, and per-item reductions
    /// folded in canonical plan order — so every answer is bit-identical
    /// to the legacy one-intervention-at-a-time serial loops at any
    /// thread count (`tests/query_plan_determinism.rs`).
    ///
    /// Every sweep's simulated per-row target values are assembled into a
    /// *result buffer* in ascending row order, and all reductions fold
    /// from buffers — which makes the buffer the exact unit of caching.
    /// With a [`SweepCache`] attached ([`Self::with_sweep_cache`]), each
    /// sweep's canonical signature is probed at this fit's data epoch
    /// before any task is scheduled: a hit skips the sweep's simulation
    /// entirely (a fully-hit plan schedules nothing and pays only the
    /// fold), a miss runs as always and inserts its buffer. Hits replay
    /// stored bits through the identical fold, so cache-on, cache-off,
    /// and standalone evaluation are bitwise equal
    /// (`tests/sweep_cache_determinism.rs`).
    pub fn evaluate_plan(&self, plan: &QueryPlan) -> PlanResults {
        /// Same-row sweeps are chunked this many per work item so large
        /// single-row batches (e.g. one counterfactual per repair) still
        /// fan out across workers.
        const ROW_SWEEP_CHUNK: usize = 8;

        let n_vars = self.n_vars();
        let strided = self.sweep_rows();
        let epoch = self.data.epoch();

        // Probe phase: look every sweep up at this fit's epoch. A `Some`
        // buffer needs no execution state, no group, and no tasks.
        let cache = self.sweep_cache.as_deref();
        let mut buffers: Vec<Option<Arc<Vec<f64>>>> = plan
            .sweeps
            .iter()
            .map(|sw| cache.and_then(|c| c.get(&SweepCache::signature(sw), epoch)))
            .collect();

        // Per-miss-sweep execution state: the affected node set
        // (intervened ∪ descendants, topological order) and the dense
        // assignment map the simulators index per node (instead of
        // scanning the assignment list).
        struct SweepExec {
            affected: Vec<NodeId>,
            assign: Vec<Option<f64>>,
        }
        let execs: Vec<Option<SweepExec>> = plan
            .sweeps
            .iter()
            .zip(&buffers)
            .map(|(sw, buf)| {
                if buf.is_some() {
                    return None;
                }
                let mut hit = vec![false; n_vars];
                for &(node, _) in &sw.intervention.assignments {
                    hit[node] = true;
                    for d in self.admg.descendants(node) {
                        hit[d] = true;
                    }
                }
                Some(SweepExec {
                    affected: self.topo.iter().copied().filter(|&v| hit[v]).collect(),
                    assign: assignment_map(n_vars, &sw.intervention.assignments),
                })
            })
            .collect();

        // Group miss sweeps sharing (row list, per-row residual mode):
        // all g-formula sweeps form one group; abduction sweeps group by
        // (fault row, weight); single-row sweeps group by row. Keyed by
        // the mode's hash identity; first-seen order, exactly as the
        // linear scan it replaces produced. A group every one of whose
        // sweeps hit the cache never forms, so its shared baseline sweep
        // is never simulated — the cache's whole payoff.
        let mut groups: Vec<(SweepMode, Vec<usize>)> = Vec::new();
        let mut group_index: HashMap<ModeKey, usize> = HashMap::new();
        for (si, sw) in plan.sweeps.iter().enumerate() {
            if buffers[si].is_some() {
                continue;
            }
            match group_index.entry(sw.mode.key()) {
                std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].1.push(si),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(groups.len());
                    groups.push((sw.mode, vec![si]));
                }
            }
        }

        /// The work a task simulates.
        enum TaskKind {
            /// Up to [`SIM_LANES`] consecutive strided rows of a
            /// whole-table (g-formula / abduction) group, all of the
            /// group's sweeps, one lane baseline per task. `rows` is
            /// padded by repeating the final row; lanes `>= n` are
            /// simulated and discarded.
            Lanes { rows: [usize; SIM_LANES], n: usize },
            /// One chunk `sweeps[lo..hi]` of a single-row group, sharing
            /// the group's baseline slot: single-row groups split into
            /// several chunk tasks, which compute their common
            /// `(row, mode)` baseline once and share it.
            Chunk { lo: usize, hi: usize, slot: usize },
        }
        /// One work item of the sweep fan-out.
        struct Task {
            row: usize,
            mode: SweepMode,
            sweeps: Arc<Vec<usize>>,
            kind: TaskKind,
        }
        let mut tasks: Vec<Task> = Vec::new();
        let mut n_row_groups = 0usize;
        for (mode, sweeps) in groups {
            let sweeps = Arc::new(sweeps);
            match mode {
                SweepMode::GFormula | SweepMode::Abduct { .. } => {
                    for chunk in strided.chunks(SIM_LANES) {
                        let mut rows = [chunk[chunk.len() - 1]; SIM_LANES];
                        rows[..chunk.len()].copy_from_slice(chunk);
                        tasks.push(Task {
                            row: rows[0],
                            mode,
                            sweeps: Arc::clone(&sweeps),
                            kind: TaskKind::Lanes {
                                rows,
                                n: chunk.len(),
                            },
                        });
                    }
                }
                SweepMode::Row(row) => {
                    let slot = n_row_groups;
                    n_row_groups += 1;
                    let mut lo = 0;
                    while lo < sweeps.len() {
                        let hi = (lo + ROW_SWEEP_CHUNK).min(sweeps.len());
                        tasks.push(Task {
                            row,
                            mode,
                            sweeps: Arc::clone(&sweeps),
                            kind: TaskKind::Chunk { lo, hi, slot },
                        });
                        lo = hi;
                    }
                }
            }
        }

        // Shared baseline slots for single-row groups: each group's
        // no-intervention sweep is simulated exactly once and shared by
        // all of its chunk tasks (the first task to need it fills the
        // slot; the value is a pure function of the fit either way).
        let row_baselines: Vec<std::sync::OnceLock<Vec<f64>>> = (0..n_row_groups)
            .map(|_| std::sync::OnceLock::new())
            .collect();
        let no_assign: Vec<Option<f64>> = vec![None; n_vars];
        // Each task captures, per miss sweep it covers, the sweep's raw
        // per-row buffer slice: the declared targets' simulated values in
        // row-major ascending-row order (lane tasks read lanes back lane
        // 0 first), or the full simulated vector for a single-row sweep.
        let task_results = self.exec.par_map(&tasks, |_, t| {
            let mut out: Vec<(usize, Vec<f64>)> = Vec::new();
            match t.kind {
                TaskKind::Lanes { rows, n } => {
                    let modes = lane_modes(&rows, t.mode);
                    let baseline = self.simulate_lanes(&rows, &no_assign, &modes);
                    for &si in t.sweeps.iter() {
                        let ex = execs[si].as_ref().expect("miss sweeps carry exec state");
                        let storage;
                        let values: &[[f64; SIM_LANES]] =
                            if plan.sweeps[si].intervention.assignments.is_empty() {
                                &baseline
                            } else {
                                storage = self.resimulate_affected_lanes(
                                    &baseline,
                                    &ex.assign,
                                    &ex.affected,
                                    &rows,
                                    &modes,
                                );
                                &storage
                            };
                        let targets = &plan.sweeps[si].intervention.targets;
                        let mut cap = Vec::with_capacity(n * targets.len());
                        cap.extend(
                            (0..n).flat_map(|l| targets.iter().map(move |&tgt| values[tgt][l])),
                        );
                        out.push((si, cap));
                    }
                }
                TaskKind::Chunk { lo, hi, slot } => {
                    let mode = ResidualMode::FromRow(t.row);
                    let baseline: &[f64] = row_baselines[slot]
                        .get_or_init(|| self.simulate_assigned(t.row, &no_assign, mode));
                    for &si in &t.sweeps[lo..hi] {
                        let ex = execs[si].as_ref().expect("miss sweeps carry exec state");
                        let values: Vec<f64> =
                            if plan.sweeps[si].intervention.assignments.is_empty() {
                                baseline.to_vec()
                            } else {
                                self.resimulate_affected(
                                    baseline,
                                    &ex.assign,
                                    &ex.affected,
                                    t.row,
                                    mode,
                                )
                            };
                        out.push((si, values));
                    }
                }
            }
            out
        });

        // Assemble miss buffers: tasks are ordered (group, then ascending
        // row / chunk) and `par_map` preserves input order, so appending
        // each task's captures replays every sweep's ascending row order.
        // Completed buffers are inserted into the cache at this epoch.
        let mut assembled: Vec<Vec<f64>> = plan.sweeps.iter().map(|_| Vec::new()).collect();
        for caps in task_results {
            for (si, cap) in caps {
                let buf = &mut assembled[si];
                if buf.is_empty() {
                    *buf = cap;
                } else {
                    buf.extend_from_slice(&cap);
                }
            }
        }
        for (si, sw) in plan.sweeps.iter().enumerate() {
            if buffers[si].is_none() {
                let buf = Arc::new(std::mem::take(&mut assembled[si]));
                if let Some(c) = cache {
                    c.put(SweepCache::signature(sw), epoch, Arc::clone(&buf));
                }
                buffers[si] = Some(buf);
            }
        }

        // Canonical fold, hit and miss alike: each consumer folds its
        // sweep's buffer in ascending row order with the legacy serial
        // loops' arithmetic (row-order sums, hit counts, ICE tallies).
        let outputs = plan
            .consumers
            .iter()
            .map(|c| {
                let sw = &plan.sweeps[c.sweep()];
                let buf = buffers[c.sweep()]
                    .as_ref()
                    .expect("every sweep has a buffer");
                match sw.mode {
                    // Single-row sweeps: the buffer is the full simulated
                    // vector, indexed by node directly.
                    SweepMode::Row(_) => {
                        fold_consumer(c, 1, |_, node| buf[node], || buf.as_ref().clone())
                    }
                    // Whole-table sweeps: row-major (row, target) layout;
                    // every consumer read is a declared target.
                    SweepMode::GFormula | SweepMode::Abduct { .. } => {
                        let targets = &sw.intervention.targets;
                        fold_consumer(
                            c,
                            strided.len(),
                            |r, node| {
                                let ti = targets
                                    .binary_search(&node)
                                    .expect("consumer reads a declared sweep target");
                                buf[r * targets.len() + ti]
                            },
                            || unreachable!("value-vector consumers attach to single-row sweeps"),
                        )
                    }
                }
            })
            .collect();
        PlanResults { outputs }
    }

    /// Simulates every listed training row's exogenous draw under
    /// `interventions`, fanned over the worker pool in [`SIM_LANES`]-row
    /// lanes, results **in row order**. `mode_of` picks the residual mode
    /// per swept row (e.g. `|r| ResidualMode::FromRow(r)` for the
    /// g-formula sweep). Each row's simulation is a pure function of the
    /// fit and lanes share no arithmetic, so the batch is bit-identical
    /// to a serial per-row loop for every worker count and lane width.
    pub fn simulate_batch<M>(
        &self,
        rows: &[usize],
        interventions: &[(NodeId, f64)],
        mode_of: M,
    ) -> Vec<Vec<f64>>
    where
        M: Fn(usize) -> ResidualMode + Sync,
    {
        let assign = assignment_map(self.n_vars(), interventions);
        let chunks: Vec<&[usize]> = rows.chunks(SIM_LANES).collect();
        let per_chunk = self.exec.par_map(&chunks, |_, chunk| {
            let mut lane_rows = [*chunk.last().expect("chunks are non-empty"); SIM_LANES];
            lane_rows[..chunk.len()].copy_from_slice(chunk);
            let mut modes = [ResidualMode::None; SIM_LANES];
            for (m, &r) in modes.iter_mut().zip(&lane_rows) {
                *m = mode_of(r);
            }
            let lanes = self.simulate_lanes(&lane_rows, &assign, &modes);
            (0..chunk.len())
                .map(|l| lanes.iter().map(|lane| lane[l]).collect::<Vec<f64>>())
                .collect::<Vec<_>>()
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// Interventional expectation `E[target | do(interventions)]`,
    /// estimated by the empirical g-formula: sweep the training rows
    /// (strided), treat each row's exogenous vector as one Monte-Carlo
    /// draw, and average the simulated target. The batch row evaluation
    /// fans out over the pool; the average folds the ordered per-row
    /// values sequentially, so the result is bit-identical to the serial
    /// sweep.
    pub fn interventional_expectation(
        &self,
        target: NodeId,
        interventions: &[(NodeId, f64)],
    ) -> f64 {
        if self.n_rows() == 0 {
            return 0.0;
        }
        let rows = self.sweep_rows();
        let vals = self.simulate_batch(&rows, interventions, ResidualMode::FromRow);
        let total: f64 = vals.iter().map(|v| v[target]).sum();
        total / rows.len() as f64
    }

    /// Interventional probability `P(pred(target) | do(interventions))`
    /// under stochastic abduction against `abduct_row` (Eq 5's
    /// counterfactual probabilities; `weight = 0` recovers the plain
    /// interventional distribution).
    pub fn interventional_probability(
        &self,
        target: NodeId,
        interventions: &[(NodeId, f64)],
        abduct_row: usize,
        weight: f64,
        pred: &dyn Fn(f64) -> bool,
    ) -> f64 {
        if self.n_rows() == 0 {
            return 0.0;
        }
        let rows = self.sweep_rows();
        let vals = self.simulate_batch(&rows, interventions, |_| ResidualMode::Blend {
            abduct_row,
            weight,
        });
        let hits = vals.iter().filter(|v| pred(v[target])).count();
        hits as f64 / rows.len() as f64
    }

    /// Deterministic counterfactual: abduct the residuals of `row`, apply
    /// the interventions, and predict all node values (Pearl's
    /// abduction–action–prediction).
    pub fn counterfactual(&self, row: usize, interventions: &[(NodeId, f64)]) -> Vec<f64> {
        self.simulate(row, interventions, ResidualMode::FromRow(row))
    }

    /// Conditional-expectation prediction `E[target | X = row]` for an
    /// unmeasured configuration `row` (used for performance prediction, the
    /// paper's `semopy` role). Roots are clamped to the supplied values and
    /// expectations propagate with zero residuals.
    pub fn predict_from_assignment(&self, assignment: &[(NodeId, f64)], target: NodeId) -> f64 {
        let assign = assignment_map(self.n_vars(), assignment);
        let mut values = vec![0.0; self.n_vars()];
        for &v in self.topo.iter() {
            if let Some(x) = assign[v] {
                values[v] = x;
                continue;
            }
            values[v] = match &self.nodes[v].model {
                None => {
                    // Unassigned root: fall back to its empirical mean
                    // (cached on the shared view).
                    self.data.column_stats()[v].mean
                }
                Some(m) => m.predict_row(&|i: usize| values[i]),
            };
        }
        values[target]
    }

    /// Prediction residuals `observed − predicted` of one *unseen*
    /// measurement row against this fitted model, one per `target` node.
    ///
    /// Every non-target column of `row` is clamped as an assignment and a
    /// single topological sweep propagates conditional expectations into
    /// the targets (zero injected residuals) — the targets themselves are
    /// deliberately left unassigned so their observed values never leak
    /// into their own predictions. The result is a pure function of
    /// `(model, row)`, which is what keeps the drift detectors built on
    /// top deterministic across thread counts and flush boundaries.
    pub fn residuals_against(&self, row: &[f64], targets: &[NodeId]) -> Vec<f64> {
        assert_eq!(row.len(), self.n_vars(), "row width mismatch");
        let mut assign: Vec<Option<f64>> = row.iter().map(|&x| Some(x)).collect();
        for &t in targets {
            assign[t] = None;
        }
        let mut values = vec![0.0; self.n_vars()];
        for &v in self.topo.iter() {
            if let Some(x) = assign[v] {
                values[v] = x;
                continue;
            }
            values[v] = match &self.nodes[v].model {
                None => self.data.column_stats()[v].mean,
                Some(m) => m.predict_row(&|i: usize| values[i]),
            };
        }
        targets.iter().map(|&t| row[t] - values[t]).collect()
    }

    /// Root-mean-square of a node's training residuals, floored at
    /// `1e-12` so it is always a valid divisor — the unit scale the
    /// ingest layer normalizes streaming residuals by, making drift
    /// thresholds dimensionless across objectives.
    pub fn residual_rms(&self, v: NodeId) -> f64 {
        let r = &self.nodes[v].residuals;
        if r.is_empty() {
            return 1e-12;
        }
        let ms = r.iter().map(|x| x * x).sum::<f64>() / r.len() as f64;
        ms.sqrt().max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    /// X → M → Y with known coefficients: M = 2X + e₁, Y = −3M + e₂.
    fn chain_scm(n: usize) -> FittedScm {
        let mut s = 1u64;
        let mut x = Vec::new();
        let mut m = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let xi = lcg(&mut s) * 2.0;
            let mi = 2.0 * xi + 0.1 * lcg(&mut s);
            let yi = -3.0 * mi + 0.1 * lcg(&mut s);
            x.push(xi);
            m.push(mi);
            y.push(yi);
        }
        let mut g = Admg::new(vec!["x".into(), "m".into(), "y".into()]);
        g.add_directed(0, 1);
        g.add_directed(1, 2);
        FittedScm::fit(g, &[x, m, y]).unwrap()
    }

    #[test]
    fn interventional_expectation_matches_linear_theory() {
        let scm = chain_scm(600);
        // E[Y | do(X = 1)] = −3·2·1 = −6.
        let e1 = scm.interventional_expectation(2, &[(0, 1.0)]);
        assert!((e1 + 6.0).abs() < 0.3, "E[Y|do(X=1)] = {e1}");
        let e0 = scm.interventional_expectation(2, &[(0, 0.0)]);
        assert!(e0.abs() < 0.3, "E[Y|do(X=0)] = {e0}");
    }

    #[test]
    fn intervening_on_mediator_cuts_upstream_effect() {
        let scm = chain_scm(600);
        // do(M = 0) makes Y independent of X.
        let with_x = scm.interventional_expectation(2, &[(1, 0.0), (0, 5.0)]);
        let without_x = scm.interventional_expectation(2, &[(1, 0.0)]);
        assert!((with_x - without_x).abs() < 0.2);
    }

    #[test]
    fn counterfactual_reproduces_factual_under_no_intervention() {
        let scm = chain_scm(300);
        for row in [0usize, 7, 123] {
            let cf = scm.counterfactual(row, &[]);
            for (v, &cfv) in cf.iter().enumerate().take(3) {
                assert!(
                    (cfv - scm.data()[v][row]).abs() < 1e-8,
                    "node {v} row {row}: {} vs {}",
                    cfv,
                    scm.data()[v][row]
                );
            }
        }
    }

    #[test]
    fn counterfactual_applies_intervention_with_abducted_noise() {
        let scm = chain_scm(300);
        let row = 11;
        let cf = scm.counterfactual(row, &[(0, 0.5)]);
        assert!((cf[0] - 0.5).abs() < 1e-12);
        // With abducted (small) residuals the counterfactual Y tracks
        // the structural path −6·0.5 = −3 within residual tolerance.
        assert!((cf[2] + 3.0).abs() < 0.5, "cf Y = {}", cf[2]);
    }

    #[test]
    fn probability_queries_are_calibrated() {
        let scm = chain_scm(600);
        // Under do(X = 1), Y ≈ −6: P(Y < −3) should be essentially 1.
        let p = scm.interventional_probability(2, &[(0, 1.0)], 0, 0.0, &|y| y < -3.0);
        assert!(p > 0.95, "p = {p}");
        let p2 = scm.interventional_probability(2, &[(0, 1.0)], 0, 0.0, &|y| y > 0.0);
        assert!(p2 < 0.05, "p2 = {p2}");
    }

    #[test]
    fn prediction_for_unseen_assignment() {
        let scm = chain_scm(600);
        let y = scm.predict_from_assignment(&[(0, 0.8)], 2);
        assert!((y + 4.8).abs() < 0.3, "predicted {y}");
    }

    #[test]
    fn warm_refit_identical_to_cold_fit() {
        let scm = chain_scm(300);
        // Grow the sample and refit warm vs cold.
        let grown = scm
            .view()
            .append_rows(&[vec![0.5, 1.1, -3.2], vec![-0.25, -0.4, 1.3]]);
        let warm = scm.refit_view(&grown).unwrap();
        let cold = FittedScm::fit(scm.admg().clone(), grown.columns()).unwrap();
        assert_eq!(warm.n_rows(), 302);
        for v in 0..3 {
            assert_eq!(warm.node_r2(v).to_bits(), cold.node_r2(v).to_bits());
            assert_eq!(warm.parents_of(v), cold.parents_of(v));
            for row in [0usize, 150, 301] {
                let w = warm.counterfactual(row, &[(0, 0.3)]);
                let c = cold.counterfactual(row, &[(0, 0.3)]);
                for (a, b) in w.iter().zip(&c) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {row} diverged");
                }
            }
        }
        // Same-table refit is a structural clone.
        let same = scm.refit_view(scm.view()).unwrap();
        assert_eq!(same.n_rows(), scm.n_rows());
    }

    #[test]
    fn parallel_fit_bit_identical_across_pools() {
        let serial = chain_scm(300);
        let view = serial.view().clone();
        for threads in [2usize, 8] {
            let pool = Executor::new(threads);
            let par = FittedScm::fit_view_on(serial.admg().clone(), &view, pool).unwrap();
            for v in 0..3 {
                assert_eq!(par.node_r2(v).to_bits(), serial.node_r2(v).to_bits());
                match (par.coefficients_of(v), serial.coefficients_of(v)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.len(), b.len());
                        for (x, y) in a.iter().zip(b) {
                            assert_eq!(x.to_bits(), y.to_bits(), "threads {threads} node {v}");
                        }
                    }
                    other => panic!("model presence diverged: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn batch_sweep_matches_serial_loop() {
        let scm = chain_scm(600);
        // The batch (pool) sweep must reproduce the serial fold bit for bit.
        let e_default = scm.interventional_expectation(2, &[(0, 1.0)]);
        let rows: Vec<usize> = (0..scm.n_rows()).step_by(scm.stride).collect();
        let batch = scm.simulate_batch(&rows, &[(0, 1.0)], ResidualMode::FromRow);
        let total: f64 = batch.iter().map(|v| v[2]).sum();
        assert_eq!((total / rows.len() as f64).to_bits(), e_default.to_bits());
        let p = scm.interventional_probability(2, &[(0, 1.0)], 0, 0.0, &|y| y < -3.0);
        assert!(p > 0.9);
    }

    #[test]
    fn node_r2_high_for_well_specified_models() {
        let scm = chain_scm(600);
        assert!(scm.node_r2(1) > 0.98);
        assert!(scm.node_r2(2) > 0.98);
        assert_eq!(scm.node_r2(0), 1.0); // root
    }
}
