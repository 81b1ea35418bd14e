//! Error types for the model layer.

use std::fmt;

use plp_linalg::LinalgError;

pub use plp_data::frame::SnapshotError;

/// Errors produced by model construction, training steps or evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A configuration or hyper-parameter was out of domain.
    BadConfig {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the legal domain.
        expected: &'static str,
    },
    /// A token index exceeded the vocabulary size.
    TokenOutOfRange {
        /// The offending token.
        token: usize,
        /// The vocabulary size.
        vocab: usize,
    },
    /// A gradient or parameter tensor became non-finite — training is
    /// poisoned and the step must be rejected rather than fed into the
    /// Gaussian sum query.
    NonFinite {
        /// Where the non-finite value appeared.
        at: &'static str,
    },
    /// Two models/gradients had incompatible shapes.
    ShapeMismatch {
        /// Description of the mismatch.
        what: &'static str,
    },
    /// An underlying linear-algebra error.
    Linalg(LinalgError),
    /// A malformed or corrupt binary snapshot.
    Snapshot(SnapshotError),
    /// An I/O failure (snapshot persistence).
    Io {
        /// The rendered I/O error message.
        message: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadConfig { name, expected } => {
                write!(f, "bad model config: {name} must be {expected}")
            }
            ModelError::TokenOutOfRange { token, vocab } => {
                write!(f, "token {token} out of range for vocabulary of {vocab}")
            }
            ModelError::NonFinite { at } => write!(f, "non-finite value at {at}"),
            ModelError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            ModelError::Linalg(e) => write!(f, "linalg error: {e}"),
            ModelError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ModelError::Io { message } => write!(f, "io error: {message}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<LinalgError> for ModelError {
    fn from(e: LinalgError) -> Self {
        ModelError::Linalg(e)
    }
}

impl From<SnapshotError> for ModelError {
    fn from(e: SnapshotError) -> Self {
        ModelError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ModelError::BadConfig {
            name: "dim",
            expected: ">= 1"
        }
        .to_string()
        .contains("dim"));
        assert!(ModelError::TokenOutOfRange { token: 9, vocab: 5 }
            .to_string()
            .contains("9"));
        assert!(ModelError::NonFinite {
            at: "bucket gradient"
        }
        .to_string()
        .contains("bucket gradient"));
        let l: ModelError = LinalgError::NonFinite { op: "dot" }.into();
        assert!(l.to_string().contains("dot"));
    }
}
