//! # unicorn-bench
//!
//! The experiment harness of the Unicorn (EuroSys '22) reproduction: one
//! binary per table and figure of the paper (see DESIGN.md's experiment
//! index), plus Criterion micro-benchmarks of the discovery and inference
//! pipelines.
//!
//! All binaries honour the `UNICORN_SCALE` environment variable
//! (`quick` — default, minutes; `full` — paper-scale).

pub mod gate;
pub mod harness;
pub mod report;
pub mod suite;
pub mod transfer_analysis;

pub use gate::{compare, parse_report, BenchRow, Comparison};
pub use harness::{catalog, run_cell, run_method, simulator, DebugMethod, Scale};
pub use report::{f1, f2, render_series, section, Table};
pub use suite::{run_suite, ScenarioReport, SuiteOptions};
pub use transfer_analysis::{causal_transfer, regression_transfer, TransferStats};
