//! Error type shared by the data-model modules.

use std::fmt;

/// Errors produced by the self-describing data model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A buffer's element count disagrees with its declared shape.
    ShapeMismatch {
        /// Elements held by the buffer.
        data_len: usize,
        /// Elements implied by the shape.
        shape_len: usize,
    },
    /// Two buffers involved in one operation have different element types.
    DTypeMismatch {
        /// Type expected by the operation.
        expected: crate::DType,
        /// Type actually found.
        found: crate::DType,
    },
    /// A region refers to coordinates outside the array it addresses, or
    /// has the wrong rank.
    RegionOutOfBounds {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A dimension index was not valid for the variable's rank.
    NoSuchDimension {
        /// The offending index.
        index: usize,
        /// The variable's rank.
        ndims: usize,
    },
    /// A quantity label was requested that the dimension's header does not
    /// contain.
    NoSuchLabel {
        /// The missing label.
        label: String,
        /// Index of the dimension whose header was searched.
        dim: usize,
    },
    /// A dimension has no header (label list) attached.
    MissingHeader {
        /// Index of the unlabelled dimension.
        dim: usize,
    },
    /// A dimension header disagrees with the shape it describes: wrong
    /// length for the extent, or attached to a dimension past the rank.
    MalformedHeader {
        /// Index of the offending dimension.
        dim: usize,
        /// Row names the header must supply (the dimension's extent), or 0
        /// when the dimension itself is out of range.
        expected: usize,
        /// Row names the header actually supplies.
        found: usize,
    },
    /// An input breaks the contract its reader declares: the wrong rank, a
    /// label its header lacks, a shape the other input disagrees with.
    Contract {
        /// Which input, and what it breaks.
        detail: String,
    },
    /// The binary container was malformed or truncated.
    Container {
        /// What went wrong.
        detail: String,
    },
    /// An I/O error, stringified (keeps the error type `Clone`/`Eq`).
    Io {
        /// Stringified `std::io::Error`.
        detail: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::ShapeMismatch {
                data_len,
                shape_len,
            } => write!(
                f,
                "buffer holds {data_len} elements but the shape implies {shape_len}"
            ),
            DataError::DTypeMismatch { expected, found } => {
                write!(f, "expected dtype {expected:?}, found {found:?}")
            }
            DataError::RegionOutOfBounds { detail } => write!(f, "region out of bounds: {detail}"),
            DataError::NoSuchDimension { index, ndims } => {
                write!(f, "dimension index {index} out of range for rank {ndims}")
            }
            DataError::NoSuchLabel { label, dim } => {
                write!(
                    f,
                    "no quantity named {label:?} in the header of dimension {dim}"
                )
            }
            DataError::MissingHeader { dim } => {
                write!(f, "dimension {dim} carries no quantity header")
            }
            DataError::MalformedHeader {
                dim,
                expected,
                found,
            } => write!(
                f,
                "header of dimension {dim} names {found} rows but the extent is {expected}"
            ),
            DataError::Contract { detail } => write!(f, "{detail}"),
            DataError::Container { detail } => write!(f, "container format error: {detail}"),
            DataError::Io { detail } => write!(f, "io error: {detail}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io {
            detail: e.to_string(),
        }
    }
}

/// Convenience alias used throughout the crate.
pub type DataResult<T> = Result<T, DataError>;
