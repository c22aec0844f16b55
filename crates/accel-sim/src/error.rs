//! Error type for the accelerator simulator.

use std::error::Error;
use std::fmt;

/// Errors reported by the accelerator simulator.
///
/// All public fallible operations in this crate return [`SimError`].  The
/// variants carry the offending dimensions so that callers can report
/// actionable diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Two matrices that must agree on a dimension do not.
    DimensionMismatch {
        /// Human-readable description of the mismatching dimension.
        what: &'static str,
        /// Dimension observed on the left-hand operand.
        left: usize,
        /// Dimension observed on the right-hand operand.
        right: usize,
    },
    /// A matrix or array dimension was zero where a positive size is required.
    EmptyDimension {
        /// Which dimension was empty.
        what: &'static str,
    },
    /// A dimension is larger than the simulator can index.
    TooLarge {
        /// Which dimension.
        what: &'static str,
        /// Its size.
        len: usize,
        /// The largest size accepted.
        max: usize,
    },
    /// A compute schedule references a row or column outside the problem.
    InvalidSchedule {
        /// Description of the inconsistency.
        reason: String,
    },
    /// A convolution shape is internally inconsistent (e.g. filter larger
    /// than the padded input).
    InvalidShape {
        /// Description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DimensionMismatch { what, left, right } => {
                write!(f, "dimension mismatch on {what}: {left} vs {right}")
            }
            SimError::EmptyDimension { what } => write!(f, "dimension {what} must be non-zero"),
            SimError::TooLarge { what, len, max } => {
                write!(f, "dimension {what} of {len} exceeds {max}")
            }
            SimError::InvalidSchedule { reason } => write!(f, "invalid compute schedule: {reason}"),
            SimError::InvalidShape { reason } => write!(f, "invalid convolution shape: {reason}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = SimError::DimensionMismatch {
            what: "reduction length",
            left: 3,
            right: 4,
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch on reduction length: 3 vs 4"
        );
    }

    #[test]
    fn display_other_variants() {
        assert!(SimError::EmptyDimension { what: "rows" }
            .to_string()
            .contains("rows"));
        assert_eq!(
            SimError::TooLarge {
                what: "rows",
                len: 9,
                max: 8
            }
            .to_string(),
            "dimension rows of 9 exceeds 8"
        );
        assert!(SimError::InvalidSchedule {
            reason: "row 9 out of range".into()
        }
        .to_string()
        .contains("row 9"));
        assert!(SimError::InvalidShape {
            reason: "filter larger than input".into()
        }
        .to_string()
        .contains("filter"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
