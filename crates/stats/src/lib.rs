//! # unicorn-stats
//!
//! Self-contained statistics and numerics substrate for the Unicorn
//! (EuroSys '22) reproduction. Because no suitable causal-discovery or
//! statistics crates exist offline, everything here is implemented from
//! first principles: dense linear algebra, special functions, probability
//! distributions, correlation and conditional-independence tests, entropy
//! estimators, discretization, stepwise polynomial regression, and
//! multi-objective quality indicators.
//!
//! The API is deliberately small and deterministic: no global state, no
//! RNG (callers that need randomness seed their own `rand` generators).

pub mod cache;
pub mod correlation;
pub mod dataview;
pub mod descriptive;
pub mod discretize;
pub mod dist;
pub mod entropy;
pub mod independence;
pub mod matrix;
pub mod pareto;
pub mod ranking;
pub mod regression;
pub mod segment;
pub mod smallset;
pub mod special;

pub use cache::{CacheStats, EpochLru};
pub use correlation::{correlation_matrix, partial_correlation, pearson, spearman};
pub use dataview::{ColumnCodes, ColumnStats, DataView, JointCodes};
pub use descriptive::{mape, mean, median, quantile, r_squared, std_dev, variance};
pub use discretize::Discretizer;
pub use entropy::{
    conditional_mutual_information, conditional_mutual_information_bounded,
    conditional_mutual_information_sparse, entropy, mutual_information, mutual_information_bounded,
    mutual_information_sparse,
};
pub use independence::{CiOutcome, CiTest, FisherZ, GTest, MixedTest};
pub use matrix::Matrix;
pub use pareto::{dominates, hypervolume_2d, hypervolume_error, pareto_front};
pub use ranking::{ranks_with_ties, weighted_jaccard};
pub use regression::{stepwise_fit, PolyModel, StepwiseOptions, Term};
pub use smallset::SmallIdSet;

/// Errors surfaced by the numerics layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// Operation requires a square matrix.
    NotSquare,
    /// Matrix is numerically singular.
    Singular,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::NotSquare => write!(f, "matrix is not square"),
            StatsError::Singular => write!(f, "matrix is singular"),
        }
    }
}

impl std::error::Error for StatsError {}
