//! CART regression trees — the substrate under BugDoc's diagnosis and the
//! random-forest surrogate of SMAC/PESMO.
//!
//! Plain variance-reduction splitting on row-major feature matrices.
//! Binary labels (0/1) fit the same machinery: variance reduction on
//! indicators is equivalent to Gini-impurity splitting.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Tree hyperparameters.
#[derive(Debug, Clone)]
pub struct TreeOptions {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features sampled per split (`None` = all; forests use √p).
    pub mtry: Option<usize>,
}

impl Default for TreeOptions {
    fn default() -> Self {
        Self {
            max_depth: 8,
            min_samples_leaf: 4,
            mtry: None,
        }
    }
}

/// A tree node.
#[derive(Debug, Clone)]
enum TreeNode {
    /// Terminal node.
    Leaf {
        /// Mean target value of the training rows that reached the leaf.
        value: f64,
    },
    /// Internal split: rows with `feature <= threshold` go left.
    Split {
        /// Feature index.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Left child index.
        left: usize,
        /// Right child index.
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<TreeNode>,
    n_features: usize,
}

/// One step along a decision path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// Feature tested.
    pub feature: usize,
    /// Threshold tested against.
    pub threshold: f64,
    /// Whether the row went left (`x[feature] <= threshold`).
    pub went_left: bool,
}

impl DecisionTree {
    /// Fits a tree on row-major features `x` and targets `y`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], opts: &TreeOptions, rng: &mut StdRng) -> Self {
        assert_eq!(x.len(), y.len(), "row/target mismatch");
        assert!(!x.is_empty(), "empty training set");
        let n_features = x[0].len();
        let mut tree = Self {
            nodes: Vec::new(),
            n_features,
        };
        let rows: Vec<usize> = (0..x.len()).collect();
        tree.grow(x, y, &rows, 0, opts, rng);
        tree
    }

    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[usize],
        depth: usize,
        opts: &TreeOptions,
        rng: &mut StdRng,
    ) -> usize {
        let mean: f64 = rows.iter().map(|&r| y[r]).sum::<f64>() / rows.len() as f64;
        let make_leaf = |nodes: &mut Vec<TreeNode>| {
            nodes.push(TreeNode::Leaf { value: mean });
            nodes.len() - 1
        };
        if depth >= opts.max_depth || rows.len() < 2 * opts.min_samples_leaf {
            return make_leaf(&mut self.nodes);
        }
        // Candidate features (mtry subsample for forests).
        let mut features: Vec<usize> = (0..self.n_features).collect();
        if let Some(m) = opts.mtry {
            features.shuffle(rng);
            features.truncate(m.max(1));
        }
        // Best split by weighted-variance reduction.
        let total_sse = sse(y, rows, mean);
        let mut best: Option<(f64, usize, f64)> = None; // (sse, feature, thr)
        for &f in &features {
            let mut values: Vec<f64> = rows.iter().map(|&r| x[r][f]).collect();
            values.sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            for w in values.windows(2) {
                let thr = (w[0] + w[1]) / 2.0;
                let (l, r): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&row| x[row][f] <= thr);
                if l.len() < opts.min_samples_leaf || r.len() < opts.min_samples_leaf {
                    continue;
                }
                let ml = l.iter().map(|&row| y[row]).sum::<f64>() / l.len() as f64;
                let mr = r.iter().map(|&row| y[row]).sum::<f64>() / r.len() as f64;
                let s = sse(y, &l, ml) + sse(y, &r, mr);
                if best.as_ref().is_none_or(|&(bs, _, _)| s < bs) {
                    best = Some((s, f, thr));
                }
            }
        }
        let Some((s, feature, threshold)) = best else {
            return make_leaf(&mut self.nodes);
        };
        if s >= total_sse - 1e-12 {
            return make_leaf(&mut self.nodes);
        }
        let (l_rows, r_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&row| x[row][feature] <= threshold);
        // Reserve this node, then grow children.
        let idx = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { value: mean });
        let left = self.grow(x, y, &l_rows, depth + 1, opts, rng);
        let right = self.grow(x, y, &r_rows, depth + 1, opts, rng);
        self.nodes[idx] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        idx
    }

    /// Predicts one row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut i = self.root();
        loop {
            match self.nodes[i] {
                TreeNode::Leaf { value, .. } => return value,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[feature] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// The decision path a row takes.
    pub fn decision_path(&self, row: &[f64]) -> Vec<PathStep> {
        let mut path = Vec::new();
        let mut i = self.root();
        loop {
            match self.nodes[i] {
                TreeNode::Leaf { .. } => return path,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let went_left = row[feature] <= threshold;
                    path.push(PathStep {
                        feature,
                        threshold,
                        went_left,
                    });
                    i = if went_left { left } else { right };
                }
            }
        }
    }

    /// All root-to-leaf paths with leaf predictions ≥ `min_value`,
    /// as constraint lists — BugDoc's "succinct explanations of failures".
    pub fn paths_to_leaves_with(&self, min_value: f64) -> Vec<(Vec<PathStep>, f64)> {
        let mut out = Vec::new();
        let mut stack: Vec<(usize, Vec<PathStep>)> = vec![(self.root(), Vec::new())];
        while let Some((i, path)) = stack.pop() {
            match self.nodes[i] {
                TreeNode::Leaf { value, .. } => {
                    if value >= min_value {
                        out.push((path, value));
                    }
                }
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let mut lp = path.clone();
                    lp.push(PathStep {
                        feature,
                        threshold,
                        went_left: true,
                    });
                    stack.push((left, lp));
                    let mut rp = path;
                    rp.push(PathStep {
                        feature,
                        threshold,
                        went_left: false,
                    });
                    stack.push((right, rp));
                }
            }
        }
        out
    }

    fn root(&self) -> usize {
        // grow() pushes the root first for leaf-only trees; for split
        // trees the reserved node at index 0 is also the root (children of
        // the root are pushed after the reservation).
        0
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

fn sse(y: &[f64], rows: &[usize], mean: f64) -> f64 {
    rows.iter().map(|&r| (y[r] - mean) * (y[r] - mean)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn step_function_is_learned_exactly() {
        // y = 1 if x0 > 0.5 else 0.
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0, 0.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let t = DecisionTree::fit(&x, &y, &TreeOptions::default(), &mut rng());
        assert_eq!(t.predict(&[0.2, 0.0]), 0.0);
        assert_eq!(t.predict(&[0.9, 0.0]), 1.0);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 20];
        let t = DecisionTree::fit(&x, &y, &TreeOptions::default(), &mut rng());
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&[5.0]), 3.0);
    }

    #[test]
    fn conjunction_needs_depth_two() {
        // y = 1 iff x0 > 0.5 AND x1 > 0.5 — unlike XOR, each split has
        // positive gain, so greedy CART recovers it with depth 2.
        let x: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]
        .into_iter()
        .cycle()
        .take(80)
        .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] > 0.5 && r[1] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let t = DecisionTree::fit(
            &x,
            &y,
            &TreeOptions {
                max_depth: 4,
                min_samples_leaf: 2,
                mtry: None,
            },
            &mut rng(),
        );
        for (r, want) in x.iter().zip(&y).take(4) {
            assert_eq!(t.predict(r), *want);
        }
    }

    #[test]
    fn decision_path_reflects_structure() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] > 0.5 { 2.0 } else { 0.0 })
            .collect();
        let t = DecisionTree::fit(&x, &y, &TreeOptions::default(), &mut rng());
        let path = t.decision_path(&[0.9]);
        assert!(!path.is_empty());
        assert_eq!(path[0].feature, 0);
        assert!(!path[0].went_left);
    }

    #[test]
    fn failure_paths_enumerate_bad_leaves() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let t = DecisionTree::fit(&x, &y, &TreeOptions::default(), &mut rng());
        let bad = t.paths_to_leaves_with(0.5);
        assert!(!bad.is_empty());
        // Every failing path must require x0 > threshold for some step.
        for (path, v) in &bad {
            assert!(*v >= 0.5);
            assert!(path.iter().any(|s| !s.went_left));
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let t = DecisionTree::fit(
            &x,
            &y,
            &TreeOptions {
                max_depth: 20,
                min_samples_leaf: 5,
                mtry: None,
            },
            &mut rng(),
        );
        // With 10 rows and min 5 per leaf, at most one split.
        assert!(t.n_nodes() <= 3);
    }
}
