//! Error type for pickling and unpickling.

use std::fmt;

/// Everything that can go wrong while unpickling a byte string.
///
/// Pickling itself is infallible (it only appends to a growable buffer);
/// all variants here describe malformed, truncated, corrupted, or
/// wrongly-typed input encountered during *unpickling*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PickleError {
    /// The buffer ended before the value being decoded was complete.
    UnexpectedEof {
        /// Bytes needed to finish decoding the current value.
        needed: usize,
        /// Bytes actually remaining in the buffer.
        remaining: usize,
    },
    /// The leading magic number was not [`crate::MAGIC`].
    BadMagic {
        /// The four bytes actually found at the start of the buffer.
        found: [u8; 4],
    },
    /// The format version is not the one this library reads.
    UnsupportedVersion {
        /// Version found in the envelope.
        found: u16,
        /// The version this build reads.
        supported: u16,
    },
    /// The envelope's class name does not match the requested type.
    ClassMismatch {
        /// Class name recorded in the envelope.
        found: String,
        /// Class name of the type being unpickled into.
        expected: &'static str,
    },
    /// The CRC-32 of the payload does not match the recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A varint ran past its maximum encoded width (corrupt data).
    VarintOverflow,
    /// A string field held bytes that are not valid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeded the bytes actually available, or an
    /// implausible size that would require allocating more memory than the
    /// buffer itself could justify.
    ImplausibleLength {
        /// The decoded length.
        length: u64,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// An enum discriminant or type tag had no defined meaning.
    InvalidTag {
        /// The offending tag byte.
        tag: u8,
        /// Human-readable description of what was being decoded.
        context: &'static str,
    },
    /// The payload decoded successfully but left trailing bytes behind,
    /// indicating a format mismatch between writer and reader.
    TrailingBytes {
        /// Number of undecoded bytes left over.
        count: usize,
    },
    /// Domain-specific validation failed after structural decoding
    /// (e.g. a decision-tree node index pointing past the node array).
    Invalid(String),
}

impl fmt::Display for PickleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PickleError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of pickle data: needed {needed} more bytes, {remaining} remaining"
            ),
            PickleError::BadMagic { found } => {
                write!(f, "bad magic number {found:02x?}; not a pickle blob")
            }
            PickleError::UnsupportedVersion { found, supported } => write!(
                f,
                "pickle format version {found} is not supported; this build reads version {supported}"
            ),
            PickleError::ClassMismatch { found, expected } => {
                write!(f, "pickle holds a '{found}' object but a '{expected}' was requested")
            }
            PickleError::ChecksumMismatch { stored, computed } => write!(
                f,
                "pickle payload corrupted: stored crc32 {stored:#010x} != computed {computed:#010x}"
            ),
            PickleError::VarintOverflow => write!(f, "varint exceeded maximum width"),
            PickleError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            PickleError::ImplausibleLength { length, remaining } => {
                write!(f, "length prefix {length} exceeds the {remaining} bytes remaining")
            }
            PickleError::InvalidTag { tag, context } => {
                write!(f, "invalid tag byte {tag:#04x} while decoding {context}")
            }
            PickleError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after payload; format mismatch")
            }
            PickleError::Invalid(msg) => write!(f, "invalid pickled object: {msg}"),
        }
    }
}

impl std::error::Error for PickleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        let e = PickleError::UnexpectedEof { needed: 8, remaining: 3 };
        assert!(e.to_string().contains("needed 8"));
        let e = PickleError::BadMagic { found: [0, 1, 2, 3] };
        assert!(e.to_string().contains("magic"));
        let e = PickleError::ClassMismatch { found: "A".into(), expected: "B" };
        assert!(e.to_string().contains('A') && e.to_string().contains('B'));
        let e = PickleError::ChecksumMismatch { stored: 1, computed: 2 };
        assert!(e.to_string().contains("corrupted"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&PickleError::VarintOverflow);
    }
}
