//! The pickle envelope: magic, version, class name, payload, checksum.
//!
//! Layout of an enveloped pickle (all integers little-endian):
//!
//! ```text
//! +------+---------+------------------+-----------------+----------+--------+
//! | MAGIC| version | class name       | payload length  | payload  | crc32  |
//! | 4 B  | u16     | varint len + str | varint          | N bytes  | u32    |
//! +------+---------+------------------+-----------------+----------+--------+
//! ```
//!
//! The checksum covers only the payload. [`open`] checks the header and the
//! checksum once and hands back the class name with the payload, so a
//! caller holding a BLOB of unknown type (the model store) can dispatch on
//! the name and decode the payload without a second checksum pass.

use crate::crc::crc32;
use crate::error::PickleError;
use crate::reader::Reader;
use crate::traits::Pickle;
use crate::writer::Writer;

/// Magic bytes identifying an mlcs pickle blob: `MLPK`.
pub const MAGIC: [u8; 4] = *b"MLPK";

/// Envelope format version. Readers accept exactly this version: version 2
/// stores fitted trees as flat arrays and a stored model under one
/// envelope, and nothing decodes the version-1 layouts any more.
pub const FORMAT_VERSION: u16 = 2;

/// Serializes `value` into an enveloped, checksummed byte string suitable
/// for storage in a database BLOB column.
pub fn pickle<T: Pickle>(value: &T) -> Vec<u8> {
    let mut body = Writer::with_capacity(value.size_hint());
    value.pickle_body(&mut body);
    let payload = body.into_bytes();

    let mut w = Writer::with_capacity(payload.len() + T::CLASS_NAME.len() + 24);
    w.put_raw(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_str(T::CLASS_NAME);
    w.put_bytes(&payload);
    w.put_u32(crc32(&payload));
    w.into_bytes()
}

/// Validates the envelope — magic, version, checksum, no trailing bytes —
/// and returns the class name it records with the payload slice. The
/// payload's checksum is computed exactly once.
pub fn open(blob: &[u8]) -> Result<(&str, &[u8]), PickleError> {
    let mut r = Reader::new(blob);
    let magic = r.get_raw(4)?;
    if magic != MAGIC {
        return Err(PickleError::BadMagic { found: magic.try_into().unwrap() });
    }
    let version = r.get_u16()?;
    if version != FORMAT_VERSION {
        return Err(PickleError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    let class = r.get_str()?;
    let payload = r.get_bytes()?;
    let stored = r.get_u32()?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(PickleError::ChecksumMismatch { stored, computed });
    }
    r.expect_exhausted()?;
    Ok((class, payload))
}

/// Deserializes an enveloped pickle produced by [`pickle`], validating the
/// magic number, version, class name, and checksum.
pub fn unpickle<T: Pickle>(blob: &[u8]) -> Result<T, PickleError> {
    let (class, payload) = open(blob)?;
    if class != T::CLASS_NAME {
        return Err(PickleError::ClassMismatch {
            found: class.to_owned(),
            expected: T::CLASS_NAME,
        });
    }
    let mut r = Reader::new(payload);
    let value = T::unpickle_body(&mut r)?;
    r.expect_exhausted()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trip() {
        let blob = pickle(&vec![1.0f64, 2.0, 3.0]);
        let v: Vec<f64> = unpickle(&blob).unwrap();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn open_returns_class_and_payload() {
        let blob = pickle(&String::from("hi"));
        let (class, payload) = open(&blob).unwrap();
        assert_eq!(class, "String");
        assert_eq!(String::unpickle_body(&mut Reader::new(payload)).unwrap(), "hi");
    }

    #[test]
    fn wrong_class_rejected() {
        let blob = pickle(&42i32);
        let err = unpickle::<String>(&blob).unwrap_err();
        assert!(matches!(err, PickleError::ClassMismatch { .. }));
    }

    #[test]
    fn corrupted_payload_rejected() {
        let mut blob = pickle(&vec![5i64; 100]);
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        let err = unpickle::<Vec<i64>>(&blob).unwrap_err();
        assert!(
            matches!(err, PickleError::ChecksumMismatch { .. })
                || matches!(err, PickleError::ImplausibleLength { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn corrupted_magic_rejected() {
        let mut blob = pickle(&1u8);
        blob[0] = b'X';
        assert!(matches!(unpickle::<u8>(&blob).unwrap_err(), PickleError::BadMagic { .. }));
    }

    #[test]
    fn other_versions_rejected() {
        for version in [0u16, 1, 3, 0xFFFF] {
            let mut blob = pickle(&1u8);
            blob[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                unpickle::<u8>(&blob).unwrap_err(),
                PickleError::UnsupportedVersion { found: version, supported: FORMAT_VERSION }
            );
        }
    }

    #[test]
    fn truncated_blob_rejected() {
        let blob = pickle(&vec![1i64, 2, 3]);
        for cut in 0..blob.len() {
            let err = unpickle::<Vec<i64>>(&blob[..cut]);
            assert!(err.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut blob = pickle(&7u32);
        blob.push(0);
        assert!(unpickle::<u32>(&blob).is_err());
    }

    #[test]
    fn empty_blob_rejected() {
        assert!(unpickle::<u8>(&[]).is_err());
    }
}
