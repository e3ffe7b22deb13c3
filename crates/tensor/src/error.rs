use std::fmt;

/// Error type for all fallible tensor operations.
///
/// Every public function in this crate that can fail returns
/// [`crate::Result`] with this error. The variants carry enough context to
/// diagnose the failing call without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The element count implied by a shape does not match the provided
    /// buffer length.
    LengthMismatch {
        /// Number of elements implied by the requested shape.
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// Two tensors had shapes that the operation cannot combine.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
        /// Name of the operation that rejected the shapes.
        op: &'static str,
    },
    /// A tensor had the wrong rank (number of dimensions) for an operation.
    RankMismatch {
        /// Rank required by the operation.
        expected: usize,
        /// Rank of the offending tensor.
        actual: usize,
        /// Name of the operation that rejected the rank.
        op: &'static str,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape the index was applied to.
        shape: Vec<usize>,
    },
    /// A convolution / pooling geometry was inconsistent (e.g. kernel larger
    /// than padded input, zero stride).
    InvalidGeometry(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "buffer length {actual} does not match shape element count {expected}"
            ),
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::RankMismatch { expected, actual, op } => {
                write!(f, "{op}: expected rank {expected}, got rank {actual}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            TensorError::LengthMismatch { expected: 4, actual: 3 },
            TensorError::ShapeMismatch { lhs: vec![2], rhs: vec![3], op: "add" },
            TensorError::RankMismatch { expected: 2, actual: 1, op: "matmul" },
            TensorError::IndexOutOfBounds { index: vec![9], shape: vec![2] },
            TensorError::InvalidGeometry("kernel exceeds input".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(
                s.chars().next().unwrap().is_lowercase()
                    || s.starts_with(char::is_alphabetic)
            );
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
