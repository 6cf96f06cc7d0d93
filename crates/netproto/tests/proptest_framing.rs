//! Fuzz-style property tests: the wire decoders must reject arbitrary
//! garbage with errors, never panic or over-allocate.

use mlcs_columnar::{ColumnBuilder, DataType};
use mlcs_netproto::framing::{
    decode_query, decode_schema, encode_query, encode_schema, read_frame, write_frame, Encoding,
    FrameKind,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// read_frame on random bytes: returns Ok or Err, never panics, and
    /// never allocates beyond the frame cap.
    #[test]
    fn read_frame_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = read_frame(&mut bytes.as_slice());
    }

    /// decode_schema on random bytes never panics.
    #[test]
    fn decode_schema_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_schema(&bytes);
    }

    /// decode_query on random bytes never panics.
    #[test]
    fn decode_query_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_query(&bytes);
    }

    /// Frame round trip is exact for arbitrary payloads.
    #[test]
    fn frame_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::RowsBinary, &payload).unwrap();
        let (kind, back) = read_frame(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(kind, FrameKind::RowsBinary);
        prop_assert_eq!(back, payload);
    }

    /// Query round trip is exact for arbitrary SQL text.
    #[test]
    fn query_round_trip(sql in ".{0,200}") {
        for enc in [Encoding::Text, Encoding::Binary] {
            let payload = encode_query(enc, &sql);
            let (e, s) = decode_query(&payload).unwrap();
            prop_assert_eq!(e, enc);
            prop_assert_eq!(&s, &sql);
        }
    }

    /// Schema round trip for arbitrary names and types.
    #[test]
    fn schema_round_trip(
        names in proptest::collection::vec("[a-z_][a-z0-9_]{0,20}", 0..12),
        tags in proptest::collection::vec(0u8..9, 0..12),
    ) {
        let fields: Vec<(String, DataType)> = names
            .iter()
            .zip(&tags)
            .map(|(n, t)| (n.clone(), DataType::from_tag(*t).unwrap()))
            .collect();
        let enc = encode_schema(&fields);
        prop_assert_eq!(decode_schema(&enc).unwrap(), fields);
    }
}

/// A valid frame truncated at **every** byte offset must yield a typed
/// error following the documented taxonomy — clean EOF at byte 0 is "the
/// peer hung up", a partial header or payload is corruption — and never a
/// panic or a bogus `Ok`.
#[test]
fn truncation_at_every_offset_yields_typed_errors() {
    for payload_len in [0usize, 1, 18, 300] {
        let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::RowsBinary, &payload).unwrap();
        for cut in 0..wire.len() {
            let err = read_frame(&mut &wire[..cut]).unwrap_err();
            let msg = err.to_string();
            if cut == 0 {
                assert!(msg.contains("connection closed"), "len {payload_len} cut 0: {msg}");
            } else if cut < 5 {
                assert!(
                    msg.contains("truncated frame header"),
                    "len {payload_len} cut {cut}: {msg}"
                );
            } else {
                assert!(
                    msg.contains("truncated frame payload"),
                    "len {payload_len} cut {cut}: {msg}"
                );
            }
        }
        // The untruncated frame still reads back exactly.
        let (kind, back) = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(kind, FrameKind::RowsBinary);
        assert_eq!(back, payload);
    }
}

proptest! {
    /// The truncation taxonomy holds for arbitrary payloads and cut
    /// points, not just the hand-picked sizes above.
    #[test]
    fn truncated_random_frames_error_and_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut_seed in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::RowsText, &payload).unwrap();
        let cut = (cut_seed as usize) % wire.len();
        prop_assert!(read_frame(&mut &wire[..cut]).is_err());
    }
}

// Both row decoders are public (`codec::{binary, text}::decode_rows`); the
// structure-aware mutation loop over their frames is `wire_mutation.rs`.
// Validate here that the builder they drive handles arbitrary push
// sequences.
proptest! {
    #[test]
    fn column_builder_accepts_any_push_order(
        ops in proptest::collection::vec(proptest::option::of(any::<i64>()), 0..100)
    ) {
        let mut b = ColumnBuilder::new(DataType::Int64);
        for op in &ops {
            match op {
                None => b.push_null(),
                Some(v) => b.push_value(&mlcs_columnar::Value::Int64(*v)).unwrap(),
            }
        }
        let col = b.finish();
        prop_assert_eq!(col.len(), ops.len());
        for (i, op) in ops.iter().enumerate() {
            prop_assert_eq!(col.i64_at(i), *op);
        }
    }
}
