//! The (ε, δ) privacy budget.

use crate::error::PrivacyError;

/// An (ε, δ) differential-privacy budget.
///
/// The paper trains until the moments accountant reports a cumulative ε that
/// reaches this budget (Algorithm 1, line 12), with δ fixed in advance to a
/// value below `1/N` (§5.1 uses δ = 2·10⁻⁴ < 1/4602).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyBudget {
    /// The privacy budget ε (smaller is more private).
    pub epsilon: f64,
    /// The failure probability δ (smaller is more private).
    pub delta: f64,
}

impl PrivacyBudget {
    /// Creates a validated budget.
    ///
    /// # Errors
    /// `epsilon` must be finite and positive; `delta` must lie in `(0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, PrivacyError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(PrivacyError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                expected: "finite and > 0",
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(PrivacyError::InvalidParameter {
                name: "delta",
                value: delta,
                expected: "in (0, 1)",
            });
        }
        Ok(PrivacyBudget { epsilon, delta })
    }

    /// The δ the paper uses for the Foursquare Tokyo dataset
    /// (2·10⁻⁴, below 1/N for N = 4602 training users).
    pub fn paper_delta() -> f64 {
        2e-4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_budget() {
        let b = PrivacyBudget::new(2.0, 1e-5).unwrap();
        assert_eq!(b.epsilon, 2.0);
        assert_eq!(b.delta, 1e-5);
    }

    #[test]
    fn rejects_bad_epsilon() {
        assert!(PrivacyBudget::new(0.0, 1e-5).is_err());
        assert!(PrivacyBudget::new(-1.0, 1e-5).is_err());
        assert!(PrivacyBudget::new(f64::INFINITY, 1e-5).is_err());
        assert!(PrivacyBudget::new(f64::NAN, 1e-5).is_err());
    }

    #[test]
    fn rejects_bad_delta() {
        assert!(PrivacyBudget::new(1.0, 0.0).is_err());
        assert!(PrivacyBudget::new(1.0, 1.0).is_err());
        assert!(PrivacyBudget::new(1.0, -0.1).is_err());
    }
}
