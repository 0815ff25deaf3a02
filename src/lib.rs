//! # Unicorn — causal reasoning about configurable-system performance
//!
//! A Rust reproduction of *"Unicorn: Reasoning about Configurable System
//! Performance through the Lens of Causality"* (Iqbal, Krishna, Javidian,
//! Ray, Jamshidi — EuroSys 2022), built entirely from scratch: causal
//! structure learning (PC-stable + FCI + entropic orientation), a causal
//! inference engine (do-calculus, average/individual causal effects,
//! counterfactual repairs), the five-stage active-learning loop, six
//! simulated configurable systems standing in for the paper's NVIDIA
//! Jetson testbed, and the six comparison baselines.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`exec`] | `unicorn-exec` | the persistent worker pool every parallel stage fans out over |
//! | [`stats`] | `unicorn-stats` | numerics, CI tests, entropy, regression, Pareto, the `DataView` data layer |
//! | [`graph`] | `unicorn-graph` | PAGs, ADMGs, causal paths, SHD |
//! | [`discovery`] | `unicorn-discovery` | PC-stable, FCI, LatentSearch, entropic orientation |
//! | [`inference`] | `unicorn-inference` | fitted SCMs, ACE/ICE, repairs, queries |
//! | [`systems`] | `unicorn-systems` | simulated testbed, fault catalog, environments |
//! | [`core`] | `unicorn-core` | the Unicorn loop: debugging, optimization, transfer |
//! | [`serve`] | `unicorn-serve` | `unicornd`: resident daemon, admission-batched query coalescing, the versioned `/v1/` wire API |
//! | [`ingest`] | `unicorn-ingest` | streaming telemetry ingestion: bounded row queues, drift detection over SCM residuals, background relearn |
//! | [`baselines`] | `unicorn-baselines` | CBI, DD, EnCore, BugDoc, SMAC, PESMO |
//!
//! ## The `DataView` data layer
//!
//! Every stage of the pipeline reads the same observational sample
//! thousands of times, so the workspace shares one columnar representation:
//! [`stats::dataview::DataView`], an immutable, `Arc`-shared table of `f64`
//! columns carrying lazily-computed cached sufficient statistics — per-
//! column moments, the Pearson correlation matrix backing Fisher-Z, cached
//! per-column discretizations, an LRU of joint conditioning-set codes (the
//! G-test contingency substrate), and an LRU of memoized CI outcomes.
//!
//! **Ownership.** A view is immutable; `clone` is an `Arc` bump, and every
//! clone shares the same caches. [`systems`]' `Dataset::view()` produces
//! one; `discovery::learn_causal_model_on`, `inference::FittedScm::fit_view`,
//! and the `core` loop all consume it, so structure learning, SCM fitting,
//! and ACE queries hit the same warm caches.
//!
//! **Invalidation.** Growing the sample (Stage IV of the active-learning
//! loop) goes through `DataView::append_rows` / `append_row`, which
//! returns a *new* view over the extended columns with fresh, empty
//! caches; statistics of the old sample are never silently reused, and
//! outstanding clones of the old view remain valid. Cached values are pure
//! functions of the immutable column data, so cached reads are
//! bit-identical to direct recomputation (`tests/dataview_equivalence.rs`
//! asserts this, along with thread-count-independence of the parallel
//! PC-stable sweep).
//!
//! ## Quickstart
//!
//! ```
//! use unicorn::systems::{Environment, Hardware, Simulator, SubjectSystem};
//! use unicorn::discovery::{learn_causal_model, DiscoveryOptions};
//!
//! // Measure 150 random configurations of x264 on a TX2-class board.
//! let sim = Simulator::new(
//!     SubjectSystem::X264.build(),
//!     Environment::on(Hardware::Tx2),
//!     42,
//! );
//! let data = unicorn::systems::generate(&sim, 150, 7);
//!
//! // Learn the causal performance model.
//! let model = learn_causal_model(
//!     &data.columns,
//!     &data.names,
//!     &sim.model.tiers(),
//!     &DiscoveryOptions { max_depth: 1, pds_depth: 0, ..Default::default() },
//! );
//! assert!(model.admg.directed_edges().len() > 5);
//! ```
//!
//! See `examples/` for complete debugging, optimization, transfer, and
//! scalability walkthroughs, and `crates/bench/src/bin/` for the binaries
//! regenerating every table and figure of the paper.

pub use unicorn_baselines as baselines;
pub use unicorn_core as core;
pub use unicorn_discovery as discovery;
pub use unicorn_exec as exec;
pub use unicorn_graph as graph;
pub use unicorn_inference as inference;
pub use unicorn_ingest as ingest;
pub use unicorn_serve as serve;
pub use unicorn_stats as stats;
pub use unicorn_systems as systems;
