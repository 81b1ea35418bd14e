//! Error type unifying the substrate layers.

use std::fmt;

use plp_data::frame::SnapshotError;
use plp_data::DataError;
use plp_model::ModelError;
use plp_privacy::PrivacyError;

/// Errors surfaced by the training loops and experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Data-layer failure.
    Data(DataError),
    /// Model-layer failure.
    Model(ModelError),
    /// Privacy-layer failure (including budget exhaustion).
    Privacy(PrivacyError),
    /// A trainer configuration was invalid.
    BadConfig {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the legal domain.
        expected: &'static str,
    },
    /// A checkpoint failed its integrity checks; the container's typed
    /// reason says which (truncation, bad or legacy magic, CRC mismatch,
    /// content that contradicts itself).
    CheckpointCorrupt(SnapshotError),
    /// A checkpoint was written under a different configuration and must
    /// not seed a resumed run.
    CheckpointMismatch {
        /// Which aspect disagreed with the current run.
        what: &'static str,
    },
    /// A filesystem operation failed.
    Io {
        /// The underlying I/O error, stringified.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Privacy(e) => write!(f, "privacy error: {e}"),
            CoreError::BadConfig { name, expected } => {
                write!(f, "bad trainer config: {name} must be {expected}")
            }
            CoreError::CheckpointCorrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CoreError::CheckpointMismatch { what } => {
                write!(f, "checkpoint/config mismatch: {what}")
            }
            CoreError::Io { message } => write!(f, "io error: {message}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Data(e)
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<PrivacyError> for CoreError {
    fn from(e: PrivacyError) -> Self {
        CoreError::Privacy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let d: CoreError = DataError::UnknownUser { user: 1 }.into();
        assert!(d.to_string().contains("data error"));
        let m: CoreError = ModelError::NonFinite { at: "x" }.into();
        assert!(m.to_string().contains("model error"));
        let p: CoreError = PrivacyError::BudgetExhausted {
            spent: 2.0,
            budget: 1.0,
        }
        .into();
        assert!(p.to_string().contains("privacy error"));
        let c = CoreError::BadConfig {
            name: "lambda",
            expected: ">= 1",
        };
        assert!(c.to_string().contains("lambda"));
    }
}
