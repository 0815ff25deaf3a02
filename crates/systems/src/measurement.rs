//! Measurement: deploying a configuration in an environment and recording
//! events + objectives, with repeated measurements and median aggregation
//! ("we repeated each measurement 5 times and used the median", §6).

use rand::rngs::StdRng;
use rand::SeedableRng;

use unicorn_stats::median;

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

    /// Deterministic per-measurement RNG.
    fn rng_for(&self, config: &Config, rep: usize) -> StdRng {
        // FNV-1a over the config bits, the env name and the repetition.
        let mut h: u64 = 0xcbf29ce484222325 ^ self.seed;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        for v in &config.values {
            for b in v.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        for b in self.env.hardware.name().bytes() {
            eat(b);
        }
        for b in self.env.workload.scale.to_bits().to_le_bytes() {
            eat(b);
        }
        for b in (rep as u64).to_le_bytes() {
            eat(b);
        }
        StdRng::seed_from_u64(h)
    }

    /// Measures a configuration: `repetitions` noisy evaluations, median
    /// per observed variable.
    pub fn measure(&self, config: &Config) -> Sample {
        let env = self.env.params();
        let n_opt = self.model.n_options();
        let n_ev = self.model.n_events();
        let n_obj = self.model.n_objectives();
        let mut event_reps: Vec<Vec<f64>> = vec![Vec::new(); n_ev];
        let mut obj_reps: Vec<Vec<f64>> = vec![Vec::new(); n_obj];
        for rep in 0..self.repetitions.max(1) {
            let mut rng = self.rng_for(config, rep);
            let (_, raw) = self.model.evaluate(config, &env, Some(&mut rng));
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
    use crate::systems::SubjectSystem;

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
