//! Regression: a corrupted column-file header claiming `rows = u64::MAX`
//! must come back as a typed [`ColumnFileError`], not a length-computation
//! panic (debug), a wrapped allocation (release), or an OOM.
//!
//! This started life as a scratch probe at the repo root; it is now the
//! permanent guard for the `checked_mul` in `decode_column`'s size math.

use hef_storage::file::{decode_column, ColumnFileError};

/// A syntactically valid header (magic, version, 1-byte name) followed by a
/// poisoned row count and a token amount of data.
fn poisoned(rows: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"HEFC");
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(b'x');
    bytes.extend_from_slice(&rows.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 24]); // some data + "checksum"
    bytes
}

#[test]
fn huge_row_count_is_a_typed_error_not_a_panic() {
    let r = decode_column(&poisoned(u64::MAX));
    match r {
        Err(ColumnFileError::BadHeader(msg)) => {
            assert!(msg.contains("overflow"), "unexpected message: {msg}");
        }
        other => panic!("expected BadHeader, got {:?}", other.map(|(c, i)| (c.len(), i))),
    }
}

#[test]
fn overflow_boundary_is_exact() {
    // The largest row count whose byte size still fits in usize must NOT
    // trip the overflow check — it takes the ordinary truncation path.
    let max_ok = (usize::MAX / 8) as u64;
    let (col, issues) = decode_column(&poisoned(max_ok)).expect("in-range count decodes");
    // 24 trailing bytes → 3 salvaged rows, flagged truncated.
    assert_eq!(col.len(), 3);
    assert!(!issues.is_empty(), "a short file must be flagged");
    // One past it must trip.
    assert!(matches!(
        decode_column(&poisoned(max_ok + 1)),
        Err(ColumnFileError::BadHeader(_))
    ));
}

#[test]
fn honest_small_files_still_decode_cleanly() {
    use hef_storage::file::encode_column;
    use hef_storage::Column;
    let col = Column::new("x", vec![1, 2, 3]);
    let bytes = encode_column(&col);
    let (back, issues) = decode_column(&bytes).expect("clean file decodes");
    assert_eq!(back, col);
    assert!(issues.is_empty());
}
