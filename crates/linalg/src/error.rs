//! Error types for the linear-algebra layer.

use std::fmt;

/// Errors produced by shape-checked linear-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible dimensions.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimension of the left-hand operand.
        left: usize,
        /// Dimension of the right-hand operand.
        right: usize,
    },
    /// A matrix constructor received a buffer whose length is not
    /// `rows * cols`.
    BadBuffer {
        /// Requested number of rows.
        rows: usize,
        /// Requested number of columns.
        cols: usize,
        /// Actual buffer length supplied.
        len: usize,
    },
    /// A numeric operation produced or received a non-finite value.
    NonFinite {
        /// Description of where the non-finite value was observed.
        op: &'static str,
    },
    /// An argument was outside its legal domain (e.g. a negative norm bound).
    InvalidArgument {
        /// Description of the violated requirement.
        what: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, left, right } => {
                write!(f, "shape mismatch in {op}: {left} vs {right}")
            }
            LinalgError::BadBuffer { rows, cols, len } => {
                write!(
                    f,
                    "buffer of length {len} cannot back a {rows}x{cols} matrix"
                )
            }
            LinalgError::NonFinite { op } => write!(f, "non-finite value in {op}"),
            LinalgError::InvalidArgument { what } => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_readable() {
        let e = LinalgError::ShapeMismatch {
            op: "dot",
            left: 3,
            right: 4,
        };
        assert_eq!(e.to_string(), "shape mismatch in dot: 3 vs 4");
        let e = LinalgError::BadBuffer {
            rows: 2,
            cols: 3,
            len: 5,
        };
        assert_eq!(e.to_string(), "buffer of length 5 cannot back a 2x3 matrix");
        let e = LinalgError::NonFinite { op: "normalize" };
        assert_eq!(e.to_string(), "non-finite value in normalize");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&LinalgError::NonFinite { op: "x" });
    }
}
