//! Measurement: deploying a configuration in an environment and recording
//! events + objectives, with repeated measurements and median aggregation
//! ("we repeated each measurement 5 times and used the median", §6).

use rand::rngs::StdRng;
use rand::SeedableRng;

use unicorn_stats::{quantile_sorted, sort_ascending};

use crate::config::Config;
use crate::environment::Environment;
use crate::gtm::SystemModel;

/// One measured sample: the configuration plus observed events and
/// objectives (raw units).
#[derive(Debug, Clone)]
pub struct Sample {
    /// The deployed configuration (raw option values).
    pub config: Config,
    /// Observed event values.
    pub events: Vec<f64>,
    /// Observed objective values.
    pub objectives: Vec<f64>,
}

impl Sample {
    /// The full data row in node order (options, events, objectives).
    pub fn row(&self) -> Vec<f64> {
        let mut r = self.config.values.clone();
        r.extend_from_slice(&self.events);
        r.extend_from_slice(&self.objectives);
        r
    }
}

/// A measurement harness binding a system model to an environment.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The system under measurement.
    pub model: SystemModel,
    /// Deployment environment.
    pub env: Environment,
    /// Repetitions per measurement (median taken).
    pub repetitions: usize,
    /// Base seed; measurement noise is a pure function of
    /// `(seed, configuration, repetition)`, making every experiment
    /// reproducible bit-for-bit.
    pub seed: u64,
}

/// Folds `bytes` into an FNV-1a state.
fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Simulator {
    /// Creates a harness with the paper's 5-repetition protocol.
    pub fn new(model: SystemModel, env: Environment, seed: u64) -> Self {
        Self {
            model,
            env,
            repetitions: 5,
            seed,
        }
    }

    /// FNV-1a over the seed, the config bits and the environment: the
    /// prefix that each repetition's RNG seed extends with the
    /// repetition index.
    fn config_hash(&self, config: &Config) -> u64 {
        let mut h = 0xcbf29ce484222325 ^ self.seed;
        for v in &config.values {
            h = fnv1a(h, v.to_bits().to_le_bytes());
        }
        h = fnv1a(h, self.env.hardware.name().bytes());
        fnv1a(h, self.env.workload.scale.to_bits().to_le_bytes())
    }

    /// Measures a configuration: `repetitions` noisy evaluations, median
    /// per observed variable.
    pub fn measure(&self, config: &Config) -> Sample {
        let coeffs = self.model.coefficients(&self.env.params());
        let mut row = Vec::with_capacity(self.model.n_nodes());
        self.measure_rows(std::slice::from_ref(config), &coeffs, &mut row);
        let objectives = row.split_off(self.model.n_options() + self.model.n_events());
        let events = row.split_off(self.model.n_options());
        Sample {
            config: config.clone(),
            events,
            objectives,
        }
    }

    /// Measures `configs` in order and appends each one's data row
    /// ([`Sample::row`]'s layout) to `out`. `coeffs` must be
    /// `self.model.coefficients(&self.env.params())`, computed once by the
    /// caller. The buffers live for the whole call, so a repetition
    /// allocates nothing.
    pub(crate) fn measure_rows(&self, configs: &[Config], coeffs: &[f64], out: &mut Vec<f64>) {
        let n_opt = self.model.n_options();
        let total = self.model.n_nodes();
        let reps = self.repetitions.max(1);
        let (mut internal, mut raw) = (vec![0.0; total], vec![0.0; total]);
        // One contiguous run of `reps` draws per observed variable, in
        // repetition order — the order the median's stable sort sees.
        let mut draws = vec![0.0; (total - n_opt) * reps];
        for config in configs {
            let prefix = self.config_hash(config);
            for rep in 0..reps {
                let seed = fnv1a(prefix, (rep as u64).to_le_bytes());
                let mut rng = StdRng::seed_from_u64(seed);
                self.model
                    .evaluate_into(config, coeffs, Some(&mut rng), &mut internal, &mut raw);
                for (v, &x) in raw[n_opt..].iter().enumerate() {
                    draws[v * reps + rep] = x;
                }
            }
            out.extend_from_slice(&config.values);
            for run in draws.chunks_mut(reps) {
                sort_ascending(run);
                out.push(quantile_sorted(run, 0.5));
            }
        }
    }

    /// Noiseless ground-truth objectives (used only by evaluation code,
    /// never by the methods under test).
    pub fn true_objectives(&self, config: &Config) -> Vec<f64> {
        self.model.true_objectives(config, &self.env.params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Hardware;
    use crate::scenario::{EnvShift, Interaction, ScenarioSpec};
    use crate::systems::SubjectSystem;
    use unicorn_stats::median;

    /// The per-repetition seed of the reference protocol: FNV-1a over the
    /// config bits, the env name and the repetition, hashed from scratch.
    fn rng_for(sim: &Simulator, config: &Config, rep: usize) -> StdRng {
        let mut h: u64 = 0xcbf29ce484222325 ^ sim.seed;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        for v in &config.values {
            for b in v.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        for b in sim.env.hardware.name().bytes() {
            eat(b);
        }
        for b in sim.env.workload.scale.to_bits().to_le_bytes() {
            eat(b);
        }
        for b in (rep as u64).to_le_bytes() {
            eat(b);
        }
        StdRng::seed_from_u64(h)
    }

    /// The reference protocol `measure` must reproduce bit for bit: a
    /// fresh RNG and an allocating `evaluate` per repetition, then
    /// `median` per observed variable.
    fn measure_per_repetition(sim: &Simulator, config: &Config) -> Sample {
        let env = sim.env.params();
        let n_opt = sim.model.n_options();
        let n_ev = sim.model.n_events();
        let n_obj = sim.model.n_objectives();
        let mut event_reps: Vec<Vec<f64>> = vec![Vec::new(); n_ev];
        let mut obj_reps: Vec<Vec<f64>> = vec![Vec::new(); n_obj];
        for rep in 0..sim.repetitions.max(1) {
            let mut rng = rng_for(sim, config, rep);
            let (_, raw) = sim.model.evaluate(config, &env, Some(&mut rng));
            for (e, reps) in event_reps.iter_mut().enumerate() {
                reps.push(raw[n_opt + e]);
            }
            for (o, reps) in obj_reps.iter_mut().enumerate() {
                reps.push(raw[n_opt + n_ev + o]);
            }
        }
        Sample {
            config: config.clone(),
            events: event_reps.iter().map(|r| median(r)).collect(),
            objectives: obj_reps.iter().map(|r| median(r)).collect(),
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn measure_matches_the_per_repetition_protocol() {
        let mut sims = Vec::new();
        for system in SubjectSystem::all() {
            for hw in [Hardware::Tx1, Hardware::Xavier] {
                sims.push(Simulator::new(system.build(), Environment::on(hw), 42));
            }
        }
        let shifted = EnvShift::to_workload(2.5).apply(&Environment::on(Hardware::Tx2));
        sims.push(Simulator::new(SubjectSystem::X264.build(), shifted, 7));
        let latent = ScenarioSpec::family(12, Interaction::Dense, 2, 2).build();
        assert!(!latent.latents.is_empty(), "the scenario plants latents");
        sims.push(Simulator::new(latent, Environment::on(Hardware::Tx2), 3));
        for base in &sims {
            for repetitions in [1, 2, 5] {
                let sim = Simulator {
                    repetitions,
                    ..base.clone()
                };
                let mut rng = StdRng::seed_from_u64(repetitions as u64);
                let mut configs = vec![sim.model.space.default_config()];
                configs.extend((0..4).map(|_| sim.model.space.random_config(&mut rng)));
                for c in &configs {
                    let (got, want) = (sim.measure(c), measure_per_repetition(&sim, c));
                    let what = format!("{} on {:?}, {repetitions} reps", sim.model.name, sim.env);
                    assert_eq!(got.config.values, want.config.values, "{what}");
                    assert_eq!(bits(&got.events), bits(&want.events), "{what}");
                    assert_eq!(bits(&got.objectives), bits(&want.objectives), "{what}");
                }
            }
        }
    }

    fn sim() -> Simulator {
        Simulator::new(
            SubjectSystem::X264.build(),
            Environment::on(Hardware::Tx2),
            42,
        )
    }

    #[test]
    fn measurement_is_deterministic() {
        let s = sim();
        let c = s.model.space.default_config();
        let a = s.measure(&c);
        let b = s.measure(&c);
        assert_eq!(a.objectives, b.objectives);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_configs_differ() {
        let s = sim();
        let c1 = s.model.space.default_config();
        let mut rng = StdRng::seed_from_u64(9);
        let c2 = s.model.space.random_config(&mut rng);
        let a = s.measure(&c1);
        let b = s.measure(&c2);
        assert_ne!(a.objectives, b.objectives);
    }

    #[test]
    fn median_tames_noise() {
        let s = sim();
        let c = s.model.space.default_config();
        let measured = s.measure(&c).objectives[0];
        let truth = s.true_objectives(&c)[0];
        // Median of 5 noisy reps should sit near the noiseless value.
        assert!(
            (measured - truth).abs() / truth < 0.2,
            "measured {measured}, truth {truth}"
        );
    }

    #[test]
    fn row_layout_matches_node_order() {
        let s = sim();
        let c = s.model.space.default_config();
        let sample = s.measure(&c);
        let row = sample.row();
        assert_eq!(row.len(), s.model.n_nodes());
        assert_eq!(&row[..s.model.n_options()], &c.values[..]);
    }
}
