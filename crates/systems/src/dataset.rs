//! Observational datasets: batches of measured samples in the column-major
//! layout consumed by discovery and inference, plus the value domains
//! needed by the causal engine.

use rand::rngs::StdRng;
use rand::SeedableRng;

use unicorn_graph::TierConstraints;
use unicorn_inference::{quantile_values, ExplicitDomain};
use unicorn_stats::dataview::DataView;

use crate::config::Config;
use crate::measurement::{Sample, Simulator};

/// A column-major dataset over a system's node set.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Node names (options, events, objectives).
    pub names: Vec<String>,
    /// Per-node columns.
    pub columns: Vec<Vec<f64>>,
    /// Number of options (prefix of the node order).
    pub n_options: usize,
    /// Number of events.
    pub n_events: usize,
}

impl Dataset {
    /// An empty dataset shaped for `sim`'s system.
    pub fn empty(sim: &Simulator) -> Self {
        let names = sim.model.names();
        Self {
            columns: vec![Vec::new(); names.len()],
            names,
            n_options: sim.model.n_options(),
            n_events: sim.model.n_events(),
        }
    }

    /// Number of samples.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Appends a measured sample.
    pub fn push(&mut self, sample: &Sample) {
        let row = sample.row();
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Appends a raw row.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// One full row.
    pub fn row(&self, r: usize) -> Vec<f64> {
        self.columns.iter().map(|c| c[r]).collect()
    }

    /// An immutable shared view over the current contents, carrying the
    /// cached sufficient statistics every downstream stage reads. Each
    /// call starts a fresh segment lineage with empty caches, so callers
    /// that keep measuring should request the view once and grow it with
    /// [`DataView::append_row`] / [`DataView::append_rows`] — O(new rows),
    /// sealed segments shared, epoch-tagged caches carried along — rather
    /// than rebuilding it per sample (`UnicornState` does exactly this,
    /// keeping its view's rows aligned with the dataset's).
    pub fn view(&self) -> DataView {
        DataView::from_columns(&self.columns)
    }

    /// The configuration stored in row `r`.
    pub fn config(&self, r: usize) -> Config {
        Config {
            values: self.columns[..self.n_options]
                .iter()
                .map(|c| c[r])
                .collect(),
        }
    }

    /// The objective columns (suffix of the node order).
    pub fn objective_column(&self, obj_idx: usize) -> &[f64] {
        &self.columns[self.n_options + self.n_events + obj_idx]
    }

    /// Node id of objective `obj_idx`.
    pub fn objective_node(&self, obj_idx: usize) -> usize {
        self.n_options + self.n_events + obj_idx
    }

    /// The value domains for the causal engine: options enumerate their
    /// grids, events and objectives use empirical quantiles.
    pub fn domains(&self, sim: &Simulator) -> ExplicitDomain {
        let mut values = Vec::with_capacity(self.columns.len());
        for (i, col) in self.columns.iter().enumerate() {
            if i < self.n_options {
                values.push(sim.model.space.option(i).values.clone());
            } else {
                values.push(quantile_values(col));
            }
        }
        ExplicitDomain { values }
    }

    /// Tier constraints for this dataset's node order.
    pub fn tiers(&self, sim: &Simulator) -> TierConstraints {
        sim.model.tiers()
    }

    /// Appends another dataset's rows in place, column-wise — O(new rows),
    /// no per-row `Vec` round-trips. Long-lived loop states pair this with
    /// [`DataView::append_columns`] so the shared view grows along the
    /// same segmented path (see `UnicornState::extend_data`).
    pub fn extend_from(&mut self, other: &Dataset) {
        assert_eq!(self.names, other.names, "incompatible datasets");
        for (col, o) in self.columns.iter_mut().zip(&other.columns) {
            col.extend_from_slice(o);
        }
    }

    /// Concatenates two datasets over the same node set (column-wise; the
    /// clone of `self` is the only O(existing rows) cost).
    pub fn extended_with(&self, other: &Dataset) -> Dataset {
        let mut out = self.clone();
        out.extend_from(other);
        out
    }
}

/// Measures `n` uniformly random configurations. The configurations are
/// drawn in sequence from the seeded RNG, then measured in one pass over
/// the environment's coefficients, computed once for the whole dataset;
/// the dataset is bit-identical to measuring them one by one.
pub fn generate(sim: &Simulator, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let configs: Vec<Config> = (0..n)
        .map(|_| sim.model.space.random_config(&mut rng))
        .collect();
    let coeffs = sim.model.coefficients(&sim.env.params());
    let mut rows = Vec::new();
    sim.measure_rows(&configs, &coeffs, &mut rows);
    let mut ds = Dataset::empty(sim);
    let width = ds.columns.len();
    for row in rows.chunks_exact(width) {
        ds.push_row(row);
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::{Environment, Hardware};
    use crate::systems::SubjectSystem;

    fn sim() -> Simulator {
        Simulator::new(
            SubjectSystem::Xception.build(),
            Environment::on(Hardware::Tx2),
            7,
        )
    }

    #[test]
    fn generation_shapes() {
        let s = sim();
        let ds = generate(&s, 25, 3);
        assert_eq!(ds.n_rows(), 25);
        assert_eq!(ds.columns.len(), s.model.n_nodes());
        assert_eq!(ds.names.len(), s.model.n_nodes());
    }

    #[test]
    fn config_roundtrip() {
        let s = sim();
        let ds = generate(&s, 5, 3);
        let c = ds.config(2);
        assert_eq!(c.values.len(), s.model.n_options());
        // Every recovered value is on the option's grid.
        for (i, v) in c.values.iter().enumerate() {
            assert!(s.model.space.option(i).values.contains(v));
        }
    }

    #[test]
    fn domains_cover_all_nodes() {
        let s = sim();
        let ds = generate(&s, 30, 3);
        let d = ds.domains(&s);
        assert_eq!(d.values.len(), s.model.n_nodes());
        // Option domains are the grids; objective domains are quantiles.
        assert_eq!(d.values[0], s.model.space.option(0).values);
        assert!(!d.values[ds.objective_node(0)].is_empty());
    }

    #[test]
    fn extension_concatenates() {
        let s = sim();
        let a = generate(&s, 10, 1);
        let b = generate(&s, 5, 2);
        let c = a.extended_with(&b);
        assert_eq!(c.n_rows(), 15);
    }

    /// `generate`'s one measurement pass equals drawing, measuring and
    /// pushing one configuration at a time.
    #[test]
    fn generate_matches_the_serial_measure_loop() {
        let s = sim();
        for n in [0, 1, 7, 1000] {
            let mut want = Dataset::empty(&s);
            let mut rng = StdRng::seed_from_u64(19);
            for _ in 0..n {
                want.push(&s.measure(&s.model.space.random_config(&mut rng)));
            }
            let got = generate(&s, n, 19);
            assert_eq!(got.n_rows(), n);
            let bits = |ds: &Dataset| -> Vec<Vec<u64>> {
                ds.columns
                    .iter()
                    .map(|c| c.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want), "n = {n}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = sim();
        let a = generate(&s, 8, 11);
        let b = generate(&s, 8, 11);
        assert_eq!(a.columns, b.columns);
    }
}
