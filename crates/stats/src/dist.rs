//! Probability distributions (densities, CDFs, survival functions) needed
//! to turn test statistics into p-values.

#![allow(clippy::excessive_precision)] // coefficient tables are verbatim from the literature
use crate::special::{erfc, gamma_q};

/// Standard normal probability density.
pub fn normal_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution Φ(x).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal survival function 1 − Φ(x), computed without
/// cancellation for large `x`.
fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Two-sided p-value of a standard-normal statistic.
pub fn normal_two_sided_p(z: f64) -> f64 {
    (2.0 * normal_sf(z.abs())).min(1.0)
}

/// Chi-squared survival function (upper-tail p-value).
pub fn chi2_sf(x: f64, df: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(df / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn normal_cdf_known_values() {
        assert_close(normal_cdf(0.0), 0.5, 1e-12);
        assert_close(normal_cdf(1.959_963_984_540_054), 0.975, 1e-9);
        assert_close(normal_cdf(-1.644_853_626_951_472), 0.05, 1e-9);
    }

    #[test]
    fn chi2_known_values() {
        // P(χ²₁ > 3.841) ≈ 0.05.
        assert_close(chi2_sf(3.841_458_820_694_124, 1.0), 0.05, 1e-9);
        // P(χ²₅ > 11.0705) ≈ 0.05.
        assert_close(chi2_sf(11.070_497_693_516_351, 5.0), 0.05, 1e-9);
    }

    #[test]
    fn normal_pdf_peak() {
        assert_close(normal_pdf(0.0), 0.398_942_280_401_432_7, 1e-12);
    }
}
