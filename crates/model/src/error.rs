//! Error types for the model layer.

use std::fmt;

use plp_linalg::LinalgError;

/// Typed decode failures for binary snapshots — the PLPM codec and the
/// mmap-able PLPS v2 layout. Each variant names a distinct physical
/// failure so the serving-side generation watcher can report *why* a
/// candidate snapshot was rejected (instead of a catch-all shape mismatch).
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The magic bytes did not match the expected format.
    BadMagic,
    /// The format version is not supported by this build.
    BadVersion {
        /// The version the file claimed.
        got: u32,
    },
    /// The file/buffer ended inside a fixed-size header region.
    TruncatedHeader {
        /// Which header region was cut short.
        what: &'static str,
    },
    /// The file/buffer ended inside a tensor body.
    TruncatedBody {
        /// Which tensor body was cut short.
        what: &'static str,
    },
    /// A CRC-32 integrity check failed.
    BadCrc {
        /// Which checksummed region failed.
        what: &'static str,
    },
    /// A claimed tensor size exceeds the shared frame ceiling — rejected
    /// before any allocation.
    OverCeiling {
        /// Which tensor made the oversized claim.
        what: &'static str,
    },
    /// Structurally parseable but semantically inconsistent: mismatched
    /// tensor shapes, unaligned body offsets, unknown tensor kinds, a
    /// generation id that contradicts the file name, and the like.
    Inconsistent {
        /// Description of the inconsistency.
        what: &'static str,
    },
}

impl SnapshotError {
    /// Stable machine-readable tag for telemetry, e.g. the watcher's
    /// `serve_generation_rejected` events.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotError::BadMagic => "bad_magic",
            SnapshotError::BadVersion { .. } => "bad_version",
            SnapshotError::TruncatedHeader { .. } => "truncated_header",
            SnapshotError::TruncatedBody { .. } => "truncated_body",
            SnapshotError::BadCrc { .. } => "bad_crc",
            SnapshotError::OverCeiling { .. } => "over_ceiling",
            SnapshotError::Inconsistent { .. } => "inconsistent",
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => f.write_str("bad snapshot magic"),
            SnapshotError::BadVersion { got } => {
                write!(f, "unsupported snapshot version {got}")
            }
            SnapshotError::TruncatedHeader { what } => {
                write!(f, "snapshot truncated in header ({what})")
            }
            SnapshotError::TruncatedBody { what } => {
                write!(f, "snapshot truncated in body ({what})")
            }
            SnapshotError::BadCrc { what } => write!(f, "snapshot CRC mismatch ({what})"),
            SnapshotError::OverCeiling { what } => {
                write!(f, "snapshot claims over-ceiling tensor ({what})")
            }
            SnapshotError::Inconsistent { what } => {
                write!(f, "inconsistent snapshot ({what})")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

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

    #[test]
    fn snapshot_error_display_and_kinds() {
        let cases: Vec<(SnapshotError, &str)> = vec![
            (SnapshotError::BadMagic, "bad_magic"),
            (SnapshotError::BadVersion { got: 9 }, "bad_version"),
            (
                SnapshotError::TruncatedHeader { what: "header" },
                "truncated_header",
            ),
            (
                SnapshotError::TruncatedBody { what: "embedding" },
                "truncated_body",
            ),
            (
                SnapshotError::BadCrc {
                    what: "tensor body",
                },
                "bad_crc",
            ),
            (
                SnapshotError::OverCeiling { what: "matrix" },
                "over_ceiling",
            ),
            (
                SnapshotError::Inconsistent { what: "shapes" },
                "inconsistent",
            ),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
            assert!(!err.to_string().is_empty());
            let wrapped: ModelError = err.clone().into();
            assert!(wrapped.to_string().contains("snapshot error"));
            assert_eq!(wrapped, ModelError::Snapshot(err));
        }
    }
}
