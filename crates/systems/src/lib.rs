//! # unicorn-systems
//!
//! The simulated testbed of the Unicorn (EuroSys '22) reproduction — the
//! substitute for the paper's NVIDIA Jetson deployments (see DESIGN.md for
//! the substitution argument). It provides:
//!
//! * configuration spaces with the paper's real option names and domains
//!   (appendix Tables 5–9 and 11),
//! * parametric hardware environments (TX1 / TX2 / Xavier) and workloads,
//! * ground-truth structural causal models for all six subject systems
//!   (options → `perf` events → objectives) with environment-modulated
//!   polynomial mechanisms,
//! * a measurement harness with repetition + median aggregation,
//! * dataset generation in the layout consumed by discovery/inference,
//! * the Jetson-Faults catalog: 99th-percentile tail faults with exact
//!   ground-truth root causes and ACE weights,
//! * scalability variants (242 options / 288 events) and the synthetic
//!   Fig 1 confounding scenario.

pub mod config;
pub mod dataset;
pub mod environment;
pub mod faults;
pub mod gtm;
pub mod measurement;
pub mod scalability;
pub mod scenario;
pub mod substrate;
pub mod synthetic;
pub mod systems;

pub use config::{Config, ConfigOption, ConfigSpace, OptionKind};
pub use dataset::{generate, Dataset};
pub use environment::{EnvParams, Environment, Hardware, HardwareProfile, Workload};
pub use faults::{discover_faults, Fault, FaultCatalog, FaultDiscoveryOptions};
pub use gtm::{EnvExp, LatentConfounder, SystemBuilder, SystemModel, Transform};
pub use measurement::{Sample, Simulator};
pub use scenario::{EnvShift, Interaction, Scenario, ScenarioKind, ScenarioRegistry, ScenarioSpec};
pub use substrate::{AppWeights, ObjectiveWeights};
pub use synthetic::CacheScenario;
pub use systems::SubjectSystem;
