//! Error types for the data layer.

use std::fmt;

use crate::frame::SnapshotError;

/// Errors produced while loading, validating or transforming check-in data.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A record referenced a user absent from the dataset.
    UnknownUser {
        /// The raw user identifier.
        user: u32,
    },
    /// A structural requirement was violated (e.g. unsorted timestamps).
    Invalid {
        /// Description of the violated requirement.
        what: String,
    },
    /// A configuration parameter was out of domain.
    BadConfig {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the legal domain.
        expected: &'static str,
    },
    /// Parsing external data failed.
    Parse {
        /// Line number (1-based) where parsing failed, if known.
        line: usize,
        /// Description of the failure.
        what: String,
    },
    /// A dataset file the artifact container refused.
    Snapshot(SnapshotError),
    /// An I/O failure, carrying the rendered `std::io::Error`.
    Io {
        /// The rendered I/O error message.
        message: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownUser { user } => write!(f, "unknown user id {user}"),
            DataError::Invalid { what } => write!(f, "invalid data: {what}"),
            DataError::BadConfig { name, expected } => {
                write!(f, "bad configuration: {name} must be {expected}")
            }
            DataError::Parse { line, what } => write!(f, "parse error at line {line}: {what}"),
            DataError::Snapshot(e) => write!(f, "dataset file rejected: {e}"),
            DataError::Io { message } => write!(f, "io error: {message}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io {
            message: e.to_string(),
        }
    }
}

impl From<SnapshotError> for DataError {
    fn from(e: SnapshotError) -> Self {
        DataError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            DataError::UnknownUser { user: 3 }.to_string(),
            "unknown user id 3"
        );
        assert!(DataError::Invalid { what: "x".into() }
            .to_string()
            .contains("x"));
        let e = DataError::BadConfig {
            name: "lambda",
            expected: ">= 1",
        };
        assert!(e.to_string().contains("lambda"));
        let e = DataError::Parse {
            line: 4,
            what: "bad float".into(),
        };
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: DataError = io.into();
        assert!(e.to_string().contains("nope"));
    }
}
