//! `ServeConfig` — the daemon's env-knob sprawl, parsed once at boot.
//!
//! Environment variables remain the configuration source (they compose
//! with the CI matrix and need no flag plumbing), but the daemon reads
//! them exactly once, here, into one typed struct — new knobs stop
//! threading raw `std::env::var` calls through the stack, and a typo in
//! a value is a boot-time error naming the variable instead of a
//! silently applied default.
//!
//! **Precedence** (lowest to highest): built-in default < environment
//! variable < explicit CLI flag (`unicornd --addr` overwrites the parsed
//! config after [`ServeConfig::from_env`]).
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `UNICORN_ADDR` | `127.0.0.1:7077` | bind address |
//! | `UNICORN_THREADS` | cores, capped at 16 | worker-pool width (resolved by `unicorn_exec`) |
//! | `UNICORN_SWEEP_CACHE` | on | `off`/`0`/`false` disables the sweep cache (resolved by `unicorn_inference`) |
//! | `UNICORN_INGEST_BUFFER` | `1024` | bounded ingest buffer capacity (rows) |
//! | `UNICORN_DRIFT_DELTA` | `0.1` | per-sample drift allowance (RMS units) |
//! | `UNICORN_DRIFT_LAMBDA` | `8` | trigger threshold (RMS units) |
//! | `UNICORN_DRIFT_MIN_ROWS` | `12` | cold-start gate before a detector may trigger |
//! | `UNICORN_RELEARN_MAX_STALENESS` | `256` | rows before the staleness-fallback relearn |
//!
//! `UNICORN_THREADS` and `UNICORN_SWEEP_CACHE` are *resolved* by their
//! owning crates (the executor and the sweep cache read them at
//! construction); this config validates and mirrors them so `unicornd`
//! can log one coherent boot line and fail fast on garbage.

use std::time::Duration;

use unicorn_ingest::DriftOptions;

/// Everything `unicornd` is configured by, parsed once at boot.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`UNICORN_ADDR`).
    pub addr: String,
    /// Always zero, and read by nothing in the daemon: kept only so
    /// existing callers of `run_batcher(.., config.window)` compile.
    pub window: Duration,
    /// Worker-pool width, as `unicorn_exec` resolves it.
    pub threads: usize,
    /// Whether the interventional sweep cache is enabled, as
    /// `unicorn_inference` resolves it.
    pub sweep_cache: bool,
    /// Bounded ingest buffer capacity in rows (`UNICORN_INGEST_BUFFER`);
    /// overflow is dropped with explicit backpressure.
    pub ingest_buffer: usize,
    /// Drift-detection thresholds for the background relearn loop.
    pub drift: DriftOptions,
}

impl ServeConfig {
    /// Parses the full configuration from the environment. Any present
    /// but malformed variable is an `Err` naming it.
    pub fn from_env() -> Result<Self, String> {
        // Validate the pool width here (Err, not the executor's panic),
        // then let the owning crate resolve the effective value.
        if let Ok(v) = std::env::var("UNICORN_THREADS") {
            let n: usize = v
                .trim()
                .parse()
                .map_err(|_| format!("UNICORN_THREADS: cannot parse {v:?} as a thread count"))?;
            if n == 0 {
                return Err("UNICORN_THREADS: must be positive".into());
            }
        }
        let defaults = DriftOptions::default();
        let config = Self {
            addr: std::env::var("UNICORN_ADDR").unwrap_or_else(|_| "127.0.0.1:7077".into()),
            window: Duration::ZERO,
            threads: unicorn_exec::default_threads(),
            sweep_cache: unicorn_inference::sweep_cache_enabled(),
            ingest_buffer: parsed("UNICORN_INGEST_BUFFER", 1024usize)?,
            drift: DriftOptions {
                delta: parsed("UNICORN_DRIFT_DELTA", defaults.delta)?,
                lambda: parsed("UNICORN_DRIFT_LAMBDA", defaults.lambda)?,
                min_rows: parsed("UNICORN_DRIFT_MIN_ROWS", defaults.min_rows)?,
                max_staleness_rows: parsed(
                    "UNICORN_RELEARN_MAX_STALENESS",
                    defaults.max_staleness_rows,
                )?,
            },
        };
        if config.ingest_buffer == 0 {
            return Err("UNICORN_INGEST_BUFFER: must be positive".into());
        }
        if !(config.drift.delta.is_finite() && config.drift.delta >= 0.0) {
            return Err("UNICORN_DRIFT_DELTA: must be a non-negative number".into());
        }
        if !(config.drift.lambda.is_finite() && config.drift.lambda > 0.0) {
            return Err("UNICORN_DRIFT_LAMBDA: must be a positive number".into());
        }
        Ok(config)
    }
}

/// Parses `name` from the environment, or hands back `default` when the
/// variable is unset.
fn parsed<T: std::str::FromStr>(name: &str, default: T) -> Result<T, String> {
    match std::env::var(name) {
        Err(_) => Ok(default),
        Ok(v) => v
            .trim()
            .parse()
            .map_err(|_| format!("{name}: cannot parse {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test covers all env interaction: tests in this binary run in
    // parallel, and these variables are read nowhere else at test time.
    #[test]
    fn defaults_and_overrides_and_errors() {
        let config = ServeConfig::from_env().expect("default env parses");
        assert_eq!(config.addr, "127.0.0.1:7077");
        assert_eq!(config.window, Duration::ZERO);
        assert!(config.threads >= 1);
        assert_eq!(config.ingest_buffer, 1024);
        assert_eq!(config.drift.max_staleness_rows, 256);

        std::env::set_var("UNICORN_DRIFT_LAMBDA", "4.5");
        std::env::set_var("UNICORN_INGEST_BUFFER", "64");
        let config = ServeConfig::from_env().expect("overridden env parses");
        assert_eq!(config.drift.lambda, 4.5);
        assert_eq!(config.ingest_buffer, 64);

        std::env::set_var("UNICORN_DRIFT_LAMBDA", "much");
        let err = ServeConfig::from_env().expect_err("garbage must not boot");
        assert!(err.contains("UNICORN_DRIFT_LAMBDA"), "{err}");
        std::env::set_var("UNICORN_DRIFT_LAMBDA", "-1");
        assert!(ServeConfig::from_env().is_err(), "negative lambda rejected");

        std::env::remove_var("UNICORN_DRIFT_LAMBDA");
        std::env::remove_var("UNICORN_INGEST_BUFFER");
    }
}
