//! Descriptive statistics and the paired *t*-test.
//!
//! The paper reports that "the improvements of PLP over DP-SGD passed the
//! paired t-test with significance value p < 0.01" (§5.2). [`paired_t_test`]
//! reproduces that check exactly, including the two-sided p-value computed
//! from the Student-t survival function (regularised incomplete beta).

/// Linear-interpolated percentile (`p` in `[0, 100]`) of `sorted` data.
///
/// Returns `None` for empty input or `p` outside `[0, 100]`. The input must
/// already be sorted ascending.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// Result of a paired two-sided Student *t*-test.
#[derive(Debug, Clone, Copy)]
pub struct TTestResult {
    /// The t statistic of the mean paired difference.
    pub t_statistic: f64,
    /// Degrees of freedom (`n - 1`).
    pub degrees_of_freedom: u64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Mean of the paired differences `a_i - b_i`.
    pub mean_difference: f64,
}

/// Paired two-sided t-test for `H0: mean(a - b) == 0`.
///
/// Returns `None` when the inputs have different lengths, fewer than two
/// pairs, or zero variance in the differences (the statistic is undefined).
pub fn paired_t_test(a: &[f64], b: &[f64]) -> Option<TTestResult> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let n = a.len() as f64;
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let mean = diffs.iter().sum::<f64>() / n;
    let var = diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (n - 1.0);
    if var <= 0.0 {
        return None;
    }
    let t = mean / (var / n).sqrt();
    let df = n - 1.0;
    let p = 2.0 * student_t_sf(t.abs(), df);
    Some(TTestResult {
        t_statistic: t,
        degrees_of_freedom: a.len() as u64 - 1,
        p_value: p.clamp(0.0, 1.0),
        mean_difference: mean,
    })
}

/// Survival function `P(T > t)` of the Student-t distribution with `df`
/// degrees of freedom, for `t >= 0`.
pub fn student_t_sf(t: f64, df: f64) -> f64 {
    if t <= 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients from the canonical Lanczos(7, 9) fit; accurate to ~1e-13
    // over the positive reals used here.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
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
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().abs().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularised incomplete beta function `I_x(a, b)` via the Lentz continued
/// fraction (Numerical Recipes `betacf`).
pub fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b
    }
}

fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-30;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&xs, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&xs, 100.0), Some(4.0));
        assert_eq!(percentile_sorted(&xs, 50.0), Some(2.5));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(percentile_sorted(&xs, 101.0), None);
        assert_eq!(percentile_sorted(&[7.0], 33.0), Some(7.0));
    }

    #[test]
    fn ln_gamma_known_values() {
        // Gamma(5) = 24, Gamma(0.5) = sqrt(pi).
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
        assert!((ln_gamma(1.0)).abs() < 1e-10);
    }

    #[test]
    fn incomplete_beta_edges_and_symmetry() {
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        let a = 2.3;
        let b = 4.1;
        let x = 0.37;
        let lhs = regularized_incomplete_beta(a, b, x);
        let rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x);
        assert!((lhs - rhs).abs() < 1e-12);
        // I_x(1,1) = x (uniform CDF).
        assert!((regularized_incomplete_beta(1.0, 1.0, 0.42) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn student_t_sf_known_quantiles() {
        // For df=10, the 97.5% quantile is t=2.228: SF(2.228) ~ 0.025.
        let p = student_t_sf(2.228, 10.0);
        assert!((p - 0.025).abs() < 5e-4, "sf {p}");
        // For df=1 (Cauchy), SF(1) = 0.25 exactly.
        assert!((student_t_sf(1.0, 1.0) - 0.25).abs() < 1e-9);
        assert_eq!(student_t_sf(0.0, 5.0), 0.5);
    }

    #[test]
    fn paired_t_test_detects_shift() {
        let a = [5.1, 5.3, 4.9, 5.2, 5.0, 5.4, 5.1, 5.2];
        let b = [4.0, 4.1, 3.9, 4.2, 4.0, 4.3, 4.1, 4.0];
        let r = paired_t_test(&a, &b).unwrap();
        assert!(r.t_statistic > 5.0);
        assert!(r.p_value < 0.01, "p {}", r.p_value);
        assert!(r.mean_difference > 1.0);
        assert_eq!(r.degrees_of_freedom, 7);
    }

    #[test]
    fn paired_t_test_no_effect_has_large_p() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.1, 1.9, 3.2, 3.8, 5.1, 5.9];
        let r = paired_t_test(&a, &b).unwrap();
        assert!(r.p_value > 0.5, "p {}", r.p_value);
    }

    #[test]
    fn paired_t_test_rejects_degenerate_input() {
        assert!(paired_t_test(&[1.0], &[2.0]).is_none());
        assert!(paired_t_test(&[1.0, 2.0], &[1.0]).is_none());
        // Identical constant differences: zero variance.
        assert!(paired_t_test(&[2.0, 3.0], &[1.0, 2.0]).is_none());
    }
}
