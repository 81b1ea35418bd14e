//! Rényi-DP bounds for the subsampled Gaussian mechanism — the moments
//! accountant.
//!
//! Abadi et al. (2016) track, for each training step, the log-moments
//! `α_M(λ) = log E[exp(λ · privacy-loss)]` of the Gaussian mechanism applied
//! to a Poisson-subsampled batch. Log moments compose *additively* across
//! steps, and at the end convert to an (ε, δ) guarantee via
//!
//! ```text
//! ε(δ) = min_λ ( α_M(λ) + log(1/δ) ) / λ .
//! ```
//!
//! Equivalently, in Rényi-DP language (Mironov 2017): the RDP of order
//! `α = λ + 1` is `α_M(λ) / λ`, RDP composes additively, and
//! `ε = min_α rdp(α) + log(1/δ)/(α − 1)`.
//!
//! For integer moment order `λ` and sampling rate `q`, the Abadi et al.
//! upper bound on the log moment of one subsampled-Gaussian step is the
//! binomial expansion
//!
//! ```text
//! α(λ) ≤ log Σ_{k=0}^{λ+1} C(λ+1, k) (1−q)^{λ+1−k} q^k · exp(k(k−1) / 2σ²)
//! ```
//!
//! computed here entirely in log-space (log-binomials via `ln_gamma`,
//! combined with `log_sum_exp`) so that large orders do not overflow. This is
//! the same quantity TensorFlow-Privacy's accountant computes at integer
//! orders.

use plp_linalg::ops::log_sum_exp;
use plp_linalg::stats::ln_gamma;

use crate::error::PrivacyError;

/// Default moment orders λ = 1..=255 (i.e. Rényi orders 2..=256).
///
/// The optimal order grows as ε shrinks or σ grows; 256 comfortably covers
/// every configuration in the paper (σ ≤ 3, ε ≥ 0.5).
pub const DEFAULT_MAX_MOMENT_ORDER: usize = 255;

/// `log C(n, k)` via log-gamma, exact to ~1e-12 for the orders used here.
fn log_binomial(n: usize, k: usize) -> f64 {
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Log-moment `α(λ)` of a single subsampled-Gaussian step with sampling rate
/// `q` and noise multiplier `sigma`, at integer moment order `lambda >= 1`.
///
/// Special cases: `q == 0` contributes nothing (returns 0); `q == 1` reduces
/// to the unamplified Gaussian log moment `λ(λ+1)/(2σ²)`.
pub fn log_moment_subsampled_gaussian(q: f64, sigma: f64, lambda: usize) -> f64 {
    debug_assert!(lambda >= 1);
    if q <= 0.0 {
        return 0.0;
    }
    let alpha = lambda + 1; // binomial expansion order
    if q >= 1.0 {
        // Unamplified Gaussian: E[exp(λ L)] with L ~ privacy loss of N(0, σ²).
        return (alpha * lambda) as f64 / (2.0 * sigma * sigma);
    }
    let log_q = q.ln();
    let log_1mq = (-q).ln_1p(); // ln(1 - q), stable for small q
    let mut terms = Vec::with_capacity(alpha + 1);
    for k in 0..=alpha {
        let t = log_binomial(alpha, k)
            + k as f64 * log_q
            + (alpha - k) as f64 * log_1mq
            + (k * k - k) as f64 / (2.0 * sigma * sigma);
        terms.push(t);
    }
    log_sum_exp(&terms)
}

/// A vector of accumulated log-moments over a fixed grid of integer orders.
///
/// `curve[i]` holds the total log moment at order `λ = i + 1`. Composition
/// across steps is element-wise addition.
#[derive(Debug, Clone, PartialEq)]
pub struct RdpCurve {
    log_moments: Vec<f64>,
}

impl RdpCurve {
    /// A zero curve (no privacy consumed) over orders `1..=max_order`.
    ///
    /// # Errors
    /// `max_order` must be at least 1.
    pub fn zero(max_order: usize) -> Result<Self, PrivacyError> {
        if max_order == 0 {
            return Err(PrivacyError::InvalidParameter {
                name: "max_order",
                value: 0.0,
                expected: ">= 1",
            });
        }
        Ok(RdpCurve {
            log_moments: vec![0.0; max_order],
        })
    }

    /// The curve of a single subsampled-Gaussian step.
    ///
    /// # Errors
    /// `q` must lie in `[0, 1]` and `sigma` must be finite and positive.
    pub fn subsampled_gaussian_step(
        q: f64,
        sigma: f64,
        max_order: usize,
    ) -> Result<Self, PrivacyError> {
        if !(0.0..=1.0).contains(&q) || !q.is_finite() {
            return Err(PrivacyError::InvalidParameter {
                name: "q",
                value: q,
                expected: "in [0, 1]",
            });
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(PrivacyError::InvalidParameter {
                name: "sigma",
                value: sigma,
                expected: "finite and > 0",
            });
        }
        let mut curve = RdpCurve::zero(max_order)?;
        for lambda in 1..=max_order {
            curve.log_moments[lambda - 1] = log_moment_subsampled_gaussian(q, sigma, lambda);
        }
        Ok(curve)
    }

    /// Number of tracked orders.
    pub fn max_order(&self) -> usize {
        self.log_moments.len()
    }

    /// The accumulated log moment at order `lambda` (1-based).
    pub fn log_moment(&self, lambda: usize) -> Option<f64> {
        if lambda == 0 {
            return None;
        }
        self.log_moments.get(lambda - 1).copied()
    }

    /// Element-wise addition: composes `other` (e.g. one more step) into
    /// this curve.
    ///
    /// # Errors
    /// The curves must track the same orders.
    pub fn compose(&mut self, other: &RdpCurve) -> Result<(), PrivacyError> {
        if self.log_moments.len() != other.log_moments.len() {
            return Err(PrivacyError::Unsatisfiable {
                reason: "cannot compose RDP curves over different order grids",
            });
        }
        for (a, b) in self.log_moments.iter_mut().zip(&other.log_moments) {
            *a += b;
        }
        Ok(())
    }

    /// Composes `steps` identical copies of `other` into this curve.
    ///
    /// # Errors
    /// The curves must track the same orders.
    pub fn compose_steps(&mut self, other: &RdpCurve, steps: u64) -> Result<(), PrivacyError> {
        if self.log_moments.len() != other.log_moments.len() {
            return Err(PrivacyError::Unsatisfiable {
                reason: "cannot compose RDP curves over different order grids",
            });
        }
        let s = steps as f64;
        for (a, b) in self.log_moments.iter_mut().zip(&other.log_moments) {
            *a += s * b;
        }
        Ok(())
    }

    /// Converts the accumulated log moments to the tightest ε for the given
    /// δ: `ε = min_λ (α(λ) + log(1/δ)) / λ` (Abadi et al., Theorem 2.2).
    ///
    /// # Errors
    /// `delta` must lie in `(0, 1)`.
    pub fn epsilon(&self, delta: f64) -> Result<f64, PrivacyError> {
        if !(delta > 0.0 && delta < 1.0) {
            return Err(PrivacyError::InvalidParameter {
                name: "delta",
                value: delta,
                expected: "in (0, 1)",
            });
        }
        let log_inv_delta = (1.0 / delta).ln();
        let eps = self
            .log_moments
            .iter()
            .enumerate()
            .map(|(i, &a)| (a + log_inv_delta) / (i + 1) as f64)
            .fold(f64::INFINITY, f64::min);
        Ok(eps)
    }

    /// ε of `self` composed with one more `extra` curve, without
    /// materialising the composed curve.
    ///
    /// Bit-identical to `clone` + [`RdpCurve::compose`] + [`RdpCurve::epsilon`]:
    /// each order contributes `((a + b) + log(1/δ)) / λ`, the exact
    /// floating-point operation order of the three-call sequence, so the
    /// training loop's per-step budget peek can use this clone-free path
    /// while staying bitwise on the slow path's ε trajectory.
    ///
    /// # Errors
    /// The curves must track the same orders and `delta` must lie in
    /// `(0, 1)`.
    pub fn epsilon_composed_with(&self, extra: &RdpCurve, delta: f64) -> Result<f64, PrivacyError> {
        if self.log_moments.len() != extra.log_moments.len() {
            return Err(PrivacyError::Unsatisfiable {
                reason: "cannot compose RDP curves over different order grids",
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(PrivacyError::InvalidParameter {
                name: "delta",
                value: delta,
                expected: "in (0, 1)",
            });
        }
        let log_inv_delta = (1.0 / delta).ln();
        let eps = self
            .log_moments
            .iter()
            .zip(&extra.log_moments)
            .enumerate()
            .map(|(i, (&a, &b))| ((a + b) + log_inv_delta) / (i + 1) as f64)
            .fold(f64::INFINITY, f64::min);
        Ok(eps)
    }

    /// The moment order achieving the minimum in [`RdpCurve::epsilon`].
    ///
    /// Useful diagnostics: if the optimal order sits at the grid edge, the
    /// grid should be enlarged.
    pub fn optimal_order(&self, delta: f64) -> Result<usize, PrivacyError> {
        if !(delta > 0.0 && delta < 1.0) {
            return Err(PrivacyError::InvalidParameter {
                name: "delta",
                value: delta,
                expected: "in (0, 1)",
            });
        }
        let log_inv_delta = (1.0 / delta).ln();
        let (best, _) = self
            .log_moments
            .iter()
            .enumerate()
            .map(|(i, &a)| (i + 1, (a + log_inv_delta) / (i + 1) as f64))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("curve is non-empty by construction");
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_binomial_known_values() {
        assert!((log_binomial(5, 2) - 10.0f64.ln()).abs() < 1e-10);
        assert!((log_binomial(10, 0)).abs() < 1e-10);
        assert!((log_binomial(10, 10)).abs() < 1e-10);
    }

    #[test]
    fn q_one_reduces_to_pure_gaussian_rdp() {
        // For q = 1 the RDP of order α is exactly α / (2σ²):
        // log_moment(λ) = λ(λ+1)/(2σ²).
        let sigma = 2.0;
        for lambda in [1usize, 2, 5, 32] {
            let lm = log_moment_subsampled_gaussian(1.0, sigma, lambda);
            let expected = (lambda * (lambda + 1)) as f64 / (2.0 * sigma * sigma);
            assert!(
                (lm - expected).abs() < 1e-9,
                "lambda {lambda}: {lm} vs {expected}"
            );
        }
    }

    #[test]
    fn q_zero_consumes_nothing() {
        assert_eq!(log_moment_subsampled_gaussian(0.0, 1.0, 8), 0.0);
        // A zero curve's epsilon is the floor set by the conversion term
        // alone: min over lambda of ln(1/delta)/lambda = ln(1/delta)/max.
        let c = RdpCurve::subsampled_gaussian_step(0.0, 1.0, 32).unwrap();
        let expected = (1.0f64 / 1e-5).ln() / 32.0;
        assert!((c.epsilon(1e-5).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn log_moment_monotone_in_q_and_sigma() {
        let base = log_moment_subsampled_gaussian(0.05, 2.0, 16);
        assert!(
            log_moment_subsampled_gaussian(0.10, 2.0, 16) > base,
            "larger q leaks more"
        );
        assert!(
            log_moment_subsampled_gaussian(0.05, 3.0, 16) < base,
            "larger sigma leaks less"
        );
        assert!(
            log_moment_subsampled_gaussian(0.05, 2.0, 32) > base,
            "higher order is larger"
        );
    }

    #[test]
    fn subsampling_amplifies_privacy() {
        // The subsampled log moment must be far below the unamplified one.
        let sub = log_moment_subsampled_gaussian(0.01, 1.5, 8);
        let full = log_moment_subsampled_gaussian(1.0, 1.5, 8);
        assert!(sub < full / 10.0, "sub {sub} full {full}");
    }

    #[test]
    fn curve_composition_is_additive() {
        let step = RdpCurve::subsampled_gaussian_step(0.06, 2.5, 64).unwrap();
        let mut twice = RdpCurve::zero(64).unwrap();
        twice.compose(&step).unwrap();
        twice.compose(&step).unwrap();
        let mut bulk = RdpCurve::zero(64).unwrap();
        bulk.compose_steps(&step, 2).unwrap();
        for lambda in 1..=64 {
            let a = twice.log_moment(lambda).unwrap();
            let b = bulk.log_moment(lambda).unwrap();
            assert!((a - b).abs() < 1e-12);
            assert!((a - 2.0 * step.log_moment(lambda).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn compose_rejects_mismatched_grids() {
        let a = RdpCurve::zero(8).unwrap();
        let mut b = RdpCurve::zero(16).unwrap();
        assert!(b.compose(&a).is_err());
        assert!(b.compose_steps(&a, 3).is_err());
    }

    #[test]
    fn epsilon_grows_with_steps() {
        let step = RdpCurve::subsampled_gaussian_step(0.06, 2.5, 128).unwrap();
        let mut eps_prev = 0.0;
        for steps in [1u64, 10, 100, 1000] {
            let mut c = RdpCurve::zero(128).unwrap();
            c.compose_steps(&step, steps).unwrap();
            let eps = c.epsilon(2e-4).unwrap();
            assert!(eps > eps_prev, "eps must grow with steps");
            eps_prev = eps;
        }
    }

    #[test]
    fn epsilon_composed_with_is_bitwise_equal_to_clone_compose_epsilon() {
        let step = RdpCurve::subsampled_gaussian_step(0.06, 2.5, 255).unwrap();
        let mut total = RdpCurve::zero(255).unwrap();
        for _ in 0..300 {
            let want = {
                let mut peek = total.clone();
                peek.compose(&step).unwrap();
                peek.epsilon(2e-4).unwrap()
            };
            let got = total.epsilon_composed_with(&step, 2e-4).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
            total.compose(&step).unwrap();
        }
    }

    #[test]
    fn epsilon_composed_with_validates_inputs() {
        let a = RdpCurve::zero(8).unwrap();
        let b = RdpCurve::zero(16).unwrap();
        assert!(a.epsilon_composed_with(&b, 1e-5).is_err());
        assert!(a.epsilon_composed_with(&a, 0.0).is_err());
        assert!(a.epsilon_composed_with(&a, 1.0).is_err());
    }

    #[test]
    fn epsilon_matches_published_reference_point() {
        // Reference configuration from Abadi et al. / TF-Privacy docs:
        // q = 0.01, sigma = 4, T = 10000 steps, delta = 1e-5 => eps ~ 1.26.
        // Integer orders only, so allow a small slack above the fractional
        // optimum.
        let step = RdpCurve::subsampled_gaussian_step(0.01, 4.0, 255).unwrap();
        let mut c = RdpCurve::zero(255).unwrap();
        c.compose_steps(&step, 10_000).unwrap();
        let eps = c.epsilon(1e-5).unwrap();
        assert!(
            (1.15..1.40).contains(&eps),
            "eps {eps} outside the published band"
        );
    }

    #[test]
    fn moments_accountant_beats_naive_composition_by_orders_of_magnitude() {
        // Naive composition of T=1000 Gaussian releases each with
        // (eps_0, delta_0) grows linearly; the accountant grows ~sqrt(T).
        let q = 0.05;
        let sigma = 2.0;
        let steps = 1000u64;
        let step = RdpCurve::subsampled_gaussian_step(q, sigma, 255).unwrap();
        let mut c = RdpCurve::zero(255).unwrap();
        c.compose_steps(&step, steps).unwrap();
        let eps_ma = c.epsilon(1e-5).unwrap();
        // Per-step classical Gaussian eps for sigma=2, delta=1e-5 (~2.41),
        // naively composed and amplified linearly by q.
        let eps_step = (2.0 * (1.25f64 / 1e-5).ln()).sqrt() / sigma;
        let eps_naive = steps as f64 * q * eps_step;
        assert!(eps_ma < eps_naive / 5.0, "ma {eps_ma} naive {eps_naive}");
    }

    #[test]
    fn optimal_order_is_interior_for_paper_settings() {
        let step = RdpCurve::subsampled_gaussian_step(0.06, 2.5, 255).unwrap();
        let mut c = RdpCurve::zero(255).unwrap();
        c.compose_steps(&step, 200).unwrap();
        let order = c.optimal_order(2e-4).unwrap();
        assert!(order > 1 && order < 255, "order {order} should be interior");
    }

    #[test]
    fn parameter_validation() {
        assert!(RdpCurve::zero(0).is_err());
        assert!(RdpCurve::subsampled_gaussian_step(-0.1, 1.0, 8).is_err());
        assert!(RdpCurve::subsampled_gaussian_step(1.1, 1.0, 8).is_err());
        assert!(RdpCurve::subsampled_gaussian_step(0.5, 0.0, 8).is_err());
        let c = RdpCurve::zero(8).unwrap();
        assert!(c.epsilon(0.0).is_err());
        assert!(c.epsilon(1.0).is_err());
        assert!(c.optimal_order(0.0).is_err());
        assert_eq!(c.log_moment(0), None);
        assert_eq!(c.log_moment(9), None);
        assert_eq!(c.log_moment(8), Some(0.0));
    }
}
