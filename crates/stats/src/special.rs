//! Special functions needed for p-value computation.
//!
//! Everything is implemented from standard series/continued-fraction
//! expansions (Abramowitz & Stegun; Numerical Recipes) so the workspace has
//! no external numerics dependency. Accuracy is ~1e-10 relative over the
//! ranges exercised by the independence tests, which is far below the
//! decision thresholds (α ≈ 0.01–0.05) used by causal discovery.

#![allow(clippy::excessive_precision)] // coefficient tables are verbatim from the literature
/// The error function `erf(x)`, accurate to ~1e-12; the reference the
/// tests check `erfc` against.
#[cfg(test)]
fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// The complementary error function `erfc(x)`.
///
/// Uses the Chebyshev-fitted rational approximation from Numerical Recipes
/// (`erfcc`), refined with one extra term for double precision.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    // Chebyshev coefficients for erfc (NR 3rd ed., §6.2.2).
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.4196979235649026e-1,
        1.9476473204185836e-2,
        -9.561514786808631e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Natural log of the gamma function, via the Lanczos approximation
/// (g = 7, n = 9 coefficients; |error| < 1e-13 for x > 0).
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Series expansion for `x < a + 1`, continued fraction otherwise
/// (Numerical Recipes `gammp`); the reference the tests check `gamma_q`
/// against.
#[cfg(test)]
fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_cf(a, x)
    }
}

fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_cf(a: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn erf_known_values() {
        assert_close(erf(0.0), 0.0, 1e-14);
        assert_close(erf(1.0), 0.842_700_792_949_715, 1e-9);
        assert_close(erf(-1.0), -0.842_700_792_949_715, 1e-9);
        assert_close(erf(2.0), 0.995_322_265_018_953, 1e-9);
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[-2.5, -0.3, 0.0, 0.7, 1.9, 3.5] {
            assert_close(erf(x) + erfc(x), 1.0, 1e-12);
        }
    }

    #[test]
    fn ln_gamma_factorials() {
        // Γ(n) = (n-1)!
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(5.0), 24.0_f64.ln(), 1e-10);
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for &a in &[0.5, 1.0, 3.0, 10.0] {
            for &x in &[0.1, 1.0, 5.0, 20.0] {
                assert_close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-10);
            }
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 - exp(-x).
        for &x in &[0.2, 1.0, 3.0] {
            assert_close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-10);
        }
    }
}
