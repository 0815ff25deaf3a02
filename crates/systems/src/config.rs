//! Configuration spaces: options, domains, and configurations.
//!
//! Domains follow the paper's appendix (Tables 5–9 and 11): every option —
//! binary, categorical, discrete or continuous — is represented as a finite
//! value grid, which is how the original study sampled them too.

use rand::Rng;

/// Which layer of the stack an option belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionKind {
    /// Application/component option (e.g. `Bitrate`).
    Software,
    /// OS/kernel option (e.g. `vm.swappiness`).
    Kernel,
    /// Hardware knob (e.g. `CPU Frequency`).
    Hardware,
}

/// One configuration option with its permissible values.
#[derive(Debug, Clone)]
pub struct ConfigOption {
    /// Display name, matching the paper's tables where applicable.
    pub name: String,
    /// The value grid (raw units).
    pub values: Vec<f64>,
    /// Stack layer.
    pub kind: OptionKind,
    /// Index into `values` used by the system's shipped default.
    pub default_idx: usize,
}

impl ConfigOption {
    /// Normalizes a raw value into `[0, 1]` by its position on the grid
    /// (nearest grid point; grids are the ground truth of the simulator).
    pub fn normalize(&self, raw: f64) -> f64 {
        if self.values.len() <= 1 {
            return 0.0;
        }
        let idx = self.nearest_index(raw);
        idx as f64 / (self.values.len() - 1) as f64
    }

    /// Index of the grid point closest to `raw`.
    pub fn nearest_index(&self, raw: f64) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &v) in self.values.iter().enumerate() {
            let d = (v - raw).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

/// A full configuration space.
#[derive(Debug, Clone, Default)]
pub struct ConfigSpace {
    options: Vec<ConfigOption>,
}

/// A configuration: one raw value per option, aligned with the space.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Raw option values.
    pub values: Vec<f64>,
}

impl ConfigSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an option; the first value is the default unless specified.
    pub fn add(&mut self, name: &str, values: &[f64], kind: OptionKind) -> usize {
        self.add_with_default(name, values, kind, 0)
    }

    /// Adds an option with an explicit default index.
    pub fn add_with_default(
        &mut self,
        name: &str,
        values: &[f64],
        kind: OptionKind,
        default_idx: usize,
    ) -> usize {
        assert!(!values.is_empty(), "option needs at least one value");
        assert!(default_idx < values.len(), "default out of range");
        assert!(
            self.index_of(name).is_none(),
            "duplicate option name: {name}"
        );
        self.options.push(ConfigOption {
            name: name.to_string(),
            values: values.to_vec(),
            kind,
            default_idx,
        });
        self.options.len() - 1
    }

    /// Number of options.
    pub fn len(&self) -> usize {
        self.options.len()
    }

    /// True if no options.
    pub fn is_empty(&self) -> bool {
        self.options.is_empty()
    }

    /// The option table.
    pub fn options(&self) -> &[ConfigOption] {
        &self.options
    }

    /// One option.
    pub fn option(&self, i: usize) -> &ConfigOption {
        &self.options[i]
    }

    /// Option index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.options.iter().position(|o| o.name == name)
    }

    /// Total number of distinct configurations (saturating).
    pub fn cardinality(&self) -> u128 {
        self.options
            .iter()
            .fold(1u128, |acc, o| acc.saturating_mul(o.values.len() as u128))
    }

    /// The shipped default configuration.
    pub fn default_config(&self) -> Config {
        Config {
            values: self
                .options
                .iter()
                .map(|o| o.values[o.default_idx])
                .collect(),
        }
    }

    /// Uniformly random configuration.
    pub fn random_config(&self, rng: &mut impl Rng) -> Config {
        Config {
            values: self
                .options
                .iter()
                .map(|o| o.values[rng.gen_range(0..o.values.len())])
                .collect(),
        }
    }

    /// All single-option neighbours of `config` (one grid step or one value
    /// swap per option) — the local moves used by search baselines.
    pub fn neighbors(&self, config: &Config) -> Vec<Config> {
        let mut out = Vec::new();
        for (i, o) in self.options.iter().enumerate() {
            let cur = o.nearest_index(config.values[i]);
            for cand in [cur.wrapping_sub(1), cur + 1] {
                if cand < o.values.len() && cand != cur {
                    let mut c = config.clone();
                    c.values[i] = o.values[cand];
                    out.push(c);
                }
            }
        }
        out
    }

    /// Normalized view of a configuration (each option in `[0, 1]`).
    pub fn normalize(&self, config: &Config) -> Vec<f64> {
        self.options
            .iter()
            .zip(&config.values)
            .map(|(o, &v)| o.normalize(v))
            .collect()
    }

    /// Mutates one random option to a random different value.
    pub fn mutate(&self, config: &Config, rng: &mut impl Rng) -> Config {
        let mut c = config.clone();
        if self.options.is_empty() {
            return c;
        }
        // Find an option with at least two values.
        for _ in 0..32 {
            let i = rng.gen_range(0..self.options.len());
            let o = &self.options[i];
            if o.values.len() < 2 {
                continue;
            }
            let cur = o.nearest_index(c.values[i]);
            let mut j = rng.gen_range(0..o.values.len());
            if j == cur {
                j = (j + 1) % o.values.len();
            }
            c.values[i] = o.values[j];
            break;
        }
        c
    }

    /// Options whose grid position differs between two configurations, in
    /// ascending index order.
    pub fn changed_options(&self, a: &Config, b: &Config) -> Vec<usize> {
        self.options
            .iter()
            .enumerate()
            .filter(|(i, o)| o.nearest_index(a.values[*i]) != o.nearest_index(b.values[*i]))
            .map(|(i, _)| i)
            .collect()
    }

    /// Hamming distance between two configurations (number of options on
    /// different grid points).
    pub fn config_distance(&self, a: &Config, b: &Config) -> usize {
        self.changed_options(a, b).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add("a", &[0.0, 1.0], OptionKind::Software);
        s.add("b", &[10.0, 20.0, 30.0], OptionKind::Kernel);
        s.add_with_default("c", &[0.5, 1.5], OptionKind::Hardware, 1);
        s
    }

    #[test]
    fn cardinality_and_lookup() {
        let s = space();
        assert_eq!(s.cardinality(), 12);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zz"), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn default_config_respects_indices() {
        let s = space();
        let d = s.default_config();
        assert_eq!(d.values, vec![0.0, 10.0, 1.5]);
    }

    #[test]
    fn random_configs_stay_on_grid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let c = s.random_config(&mut rng);
            for (i, o) in s.options().iter().enumerate() {
                assert!(o.values.contains(&c.values[i]));
            }
        }
    }

    #[test]
    fn normalization_maps_grid_to_unit() {
        let s = space();
        let o = s.option(1);
        assert_eq!(o.normalize(10.0), 0.0);
        assert_eq!(o.normalize(20.0), 0.5);
        assert_eq!(o.normalize(30.0), 1.0);
        // Off-grid values snap to nearest.
        assert_eq!(o.normalize(22.0), 0.5);
    }

    #[test]
    fn neighbors_move_one_step() {
        let s = space();
        let c = Config {
            values: vec![0.0, 20.0, 0.5],
        };
        let ns = s.neighbors(&c);
        // a: 1 neighbor; b: 2; c: 1.
        assert_eq!(ns.len(), 4);
        for n in &ns {
            assert_eq!(s.config_distance(&c, n), 1);
        }
    }

    #[test]
    fn mutation_changes_exactly_one_option() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(7);
        let c = s.default_config();
        for _ in 0..20 {
            let m = s.mutate(&c, &mut rng);
            assert_eq!(s.config_distance(&c, &m), 1);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate option name")]
    fn duplicate_names_rejected() {
        let mut s = space();
        s.add("a", &[1.0], OptionKind::Software);
    }

    #[test]
    fn changed_options_detects_grid_moves() {
        let space = crate::systems::SubjectSystem::X264.build().space;
        let a = space.default_config();
        let mut b = a.clone();
        b.values[0] = space.option(0).values[0];
        let diff = space.changed_options(&a, &b);
        // Default of option 0 is index 1, so moving to index 0 is a change.
        assert_eq!(diff, vec![0]);
    }
}
