//! Per-layer gradient clipping (§4.1).
//!
//! "We employ the per-layer clipping approach of [McMahan & Andrew 2018],
//! where given an overall clipping magnitude C, each tensor is clipped to
//! C/√|θ|. In the skip-gram model θ₀ = {W, W′, B′}, hence |θ| = 3, so we
//! clip the ℓ2-norm of each tensor to C/√3." Clipping each of the three
//! tensors to C/√3 bounds the global ℓ2 norm of the concatenated update by
//! C, which is the sensitivity the Gaussian mechanism is calibrated to.

use crate::error::ModelError;
use crate::journal::RowDelta;
use crate::params::NUM_TENSORS;

/// What a clipping pass observed — useful for tuning C (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipReport {
    /// Per-tensor ℓ2 norms before clipping `(W, W′, B′)`.
    pub norms_before: (f64, f64, f64),
    /// The per-tensor bound `C/√3` that was enforced.
    pub per_tensor_bound: f64,
    /// Which tensors were actually scaled down.
    pub clipped: (bool, bool, bool),
}

impl ClipReport {
    /// `true` iff any tensor was clipped.
    pub fn any_clipped(&self) -> bool {
        self.clipped.0 || self.clipped.1 || self.clipped.2
    }
}

/// Clips each tensor of `grad` to ℓ2 norm at most `clip_norm / √3` in
/// place, guaranteeing a global norm of at most `clip_norm`.
///
/// # Errors
/// * [`ModelError::BadConfig`] — `clip_norm` must be finite and positive.
/// * [`ModelError::NonFinite`] — a poisoned (NaN/∞) gradient is rejected so
///   it can never enter the Gaussian sum query.
pub fn clip_per_layer(grad: &mut RowDelta, clip_norm: f64) -> Result<ClipReport, ModelError> {
    if !(clip_norm.is_finite() && clip_norm > 0.0) {
        return Err(ModelError::BadConfig {
            name: "clip_norm",
            expected: "finite and > 0",
        });
    }
    if !grad.all_finite() {
        return Err(ModelError::NonFinite {
            at: "gradient before clipping",
        });
    }
    let bound = clip_norm / (NUM_TENSORS as f64).sqrt();
    let (ne, nc, nb) = grad.tensor_norms();
    let factor = |n: f64| if n > bound { bound / n } else { 1.0 };
    let (fe, fc, fb) = (factor(ne), factor(nc), factor(nb));
    grad.scale_per_tensor(fe, fc, fb);
    Ok(ClipReport {
        norms_before: (ne, nc, nb),
        per_tensor_bound: bound,
        clipped: (fe < 1.0, fc < 1.0, fb < 1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_with_norms(e: f64, c: f64, b: f64) -> RowDelta {
        let mut g = RowDelta::default();
        g.embedding.push_row(0, &[e]).unwrap();
        g.context.push_row(0, &[c]).unwrap();
        g.bias.push_row(0, &[b]).unwrap();
        g
    }

    #[test]
    fn global_norm_bounded_by_c() {
        let mut g = grad_with_norms(10.0, 10.0, 10.0);
        let report = clip_per_layer(&mut g, 0.5).unwrap();
        assert!(report.any_clipped());
        assert!(g.global_norm() <= 0.5 + 1e-12);
        let bound = 0.5 / 3.0f64.sqrt();
        let (e, c, b) = g.tensor_norms();
        for n in [e, c, b] {
            assert!((n - bound).abs() < 1e-12);
        }
    }

    #[test]
    fn small_gradients_pass_untouched() {
        let mut g = grad_with_norms(0.01, 0.01, 0.01);
        let before = g.clone();
        let report = clip_per_layer(&mut g, 1.0).unwrap();
        assert!(!report.any_clipped());
        assert_eq!(g, before);
        assert_eq!(report.norms_before, (0.01, 0.01, 0.01));
    }

    #[test]
    fn tensors_clip_independently() {
        // Only the embedding tensor exceeds the bound.
        let mut g = grad_with_norms(100.0, 0.001, 0.001);
        let report = clip_per_layer(&mut g, 0.5).unwrap();
        assert_eq!(report.clipped, (true, false, false));
        let (e, c, b) = g.tensor_norms();
        assert!((e - 0.5 / 3.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(c, 0.001);
        assert_eq!(b, 0.001);
    }

    #[test]
    fn validates_clip_norm_and_rejects_nan() {
        let mut g = grad_with_norms(1.0, 1.0, 1.0);
        assert!(clip_per_layer(&mut g, 0.0).is_err());
        assert!(clip_per_layer(&mut g, f64::NAN).is_err());
        assert!(clip_per_layer(&mut g, f64::INFINITY).is_err());
        let mut bad = grad_with_norms(f64::NAN, 1.0, 1.0);
        assert!(matches!(
            clip_per_layer(&mut bad, 1.0),
            Err(ModelError::NonFinite { .. })
        ));
    }

    #[test]
    fn empty_gradient_is_a_noop() {
        let mut g = RowDelta::default();
        let report = clip_per_layer(&mut g, 1.0).unwrap();
        assert!(!report.any_clipped());
        assert_eq!(report.norms_before, (0.0, 0.0, 0.0));
    }
}
