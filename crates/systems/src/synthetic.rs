//! Synthetic micro-scenario: the paper's Fig 1 cache-policy confounder,
//! used by tests and the Fig 1/19/20 benches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Data for the Fig 1 scenario.
///
/// The resource manager switches `Cache Policy` (LRU, FIFO, LIFO, MRU)
/// while measuring; aggressive policies run during phases with *more*
/// traffic, so observationally `Cache Misses` and `Throughput` correlate
/// **positively** — although within every policy stratum more misses mean
/// less throughput. `Cache Policy` is the confounder.
#[derive(Debug, Clone)]
pub struct CacheScenario {
    /// Cache policy per sample (0 = LRU, 1 = FIFO, 2 = LIFO, 3 = MRU).
    pub policy: Vec<f64>,
    /// Observed cache misses.
    pub misses: Vec<f64>,
    /// Observed throughput (FPS).
    pub throughput: Vec<f64>,
}

impl CacheScenario {
    /// Generates `n` samples.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut policy = Vec::with_capacity(n);
        let mut misses = Vec::with_capacity(n);
        let mut throughput = Vec::with_capacity(n);
        for _ in 0..n {
            let p = rng.gen_range(0..4) as f64;
            // Baseline misses and throughput both scale with the policy
            // phase: policy 3 (MRU) phases carry ~3× the traffic.
            let phase = 1.0 + p;
            let m = phase * (50_000.0 + 20_000.0 * rng.gen::<f64>());
            // Within a stratum, throughput *decreases* with misses.
            let t = 8.0 * phase - 3.0e-5 * m + rng.gen::<f64>() * 0.5;
            policy.push(p);
            misses.push(m);
            throughput.push(t.max(0.1));
        }
        Self {
            policy,
            misses,
            throughput,
        }
    }

    /// Columns in `[policy, misses, throughput]` order.
    pub fn columns(&self) -> Vec<Vec<f64>> {
        vec![
            self.policy.clone(),
            self.misses.clone(),
            self.throughput.clone(),
        ]
    }

    /// Column names.
    pub fn names() -> Vec<String> {
        vec![
            "Cache Policy".to_string(),
            "Cache Misses".to_string(),
            "Throughput".to_string(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_stats::pearson;

    #[test]
    fn confounding_flips_the_correlation_sign() {
        let s = CacheScenario::generate(3000, 1);
        // Marginal correlation positive (the misleading trend of Fig 1a).
        let marginal = pearson(&s.misses, &s.throughput);
        assert!(marginal > 0.3, "marginal = {marginal}");
        // Within each policy stratum the correlation is negative (Fig 1b).
        for p in 0..4 {
            let idx: Vec<usize> = (0..s.policy.len())
                .filter(|&i| s.policy[i] == p as f64)
                .collect();
            let m: Vec<f64> = idx.iter().map(|&i| s.misses[i]).collect();
            let t: Vec<f64> = idx.iter().map(|&i| s.throughput[i]).collect();
            let r = pearson(&m, &t);
            assert!(r < -0.2, "stratum {p}: r = {r}");
        }
    }
}
