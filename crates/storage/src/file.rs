//! On-disk column files (`.hefc`) with torn-write / short-read tolerance.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic    4 bytes  b"HEFC"
//! version  u32      1
//! name_len u32      column-name byte length
//! name     n bytes  UTF-8 column name
//! rows     u64      row count
//! data     rows*8   u64 values
//! checksum u64      FNV-1a over the data region
//! ```
//!
//! Loading degrades instead of failing where the damage is survivable:
//!
//! * a file cut off inside the data region (short read, torn tail) salvages
//!   every complete row and reports [`ColumnFileIssue::Truncated`];
//! * a full-length file whose checksum disagrees (torn write inside the
//!   data) returns the data and reports [`ColumnFileIssue::ChecksumMismatch`]
//!   — values are syntactically valid `u64`s, the caller decides;
//! * damage to the header (magic/version/name) is not survivable and
//!   returns a typed [`ColumnFileError`].
//!
//! All reads go through `hef_testutil::fault::read_file`, so the
//! `HEF_FAULT=torn:…`/`short:…` clauses exercise these paths end-to-end.
//! Every issue is surfaced through `hef_obs::diag` and counted in the
//! metrics registry.

use std::path::Path;

use hef_obs::metrics::{self, Metric};

use crate::column::Column;

const MAGIC: &[u8; 4] = b"HEFC";
const VERSION: u32 = 1;

/// Unrecoverable problems with a column file.
#[derive(Debug)]
pub enum ColumnFileError {
    Io(std::io::Error),
    /// Not a column file at all (bad magic).
    BadMagic,
    /// Written by a newer/unknown format revision.
    UnsupportedVersion(u32),
    /// Header truncated or name not UTF-8.
    BadHeader(String),
}

impl std::fmt::Display for ColumnFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnFileError::Io(e) => write!(f, "io error: {e}"),
            ColumnFileError::BadMagic => write!(f, "not a column file (bad magic)"),
            ColumnFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported column-file version {v}")
            }
            ColumnFileError::BadHeader(msg) => write!(f, "bad column-file header: {msg}"),
        }
    }
}

impl std::error::Error for ColumnFileError {}

impl From<std::io::Error> for ColumnFileError {
    fn from(e: std::io::Error) -> Self {
        ColumnFileError::Io(e)
    }
}

/// Survivable damage found while loading a column file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnFileIssue {
    /// The data region ended early; complete rows were salvaged.
    Truncated { expected_rows: u64, salvaged_rows: u64 },
    /// Data is full-length but its checksum disagrees (torn write).
    ChecksumMismatch,
    /// The trailing checksum itself is missing (file cut at the very end).
    ChecksumMissing,
    /// Paged: the footer page directory was missing or damaged; the directory
    /// was rebuilt by walking the self-delimiting page stream.
    FooterDamaged,
    /// Paged: one page's checksum disagreed; its rows are kept (torn write
    /// confined to that page).
    PageChecksumMismatch { page: u32 },
    /// Paged: the page stream ended early; complete pages were salvaged.
    /// `expected_rows` is known only when a checksum-valid footer survived.
    PagesTruncated { salvaged_pages: u32, salvaged_rows: u64, expected_rows: Option<u64> },
}

impl std::fmt::Display for ColumnFileIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnFileIssue::Truncated { expected_rows, salvaged_rows } => write!(
                f,
                "data truncated: salvaged {salvaged_rows} of {expected_rows} rows"
            ),
            ColumnFileIssue::ChecksumMismatch => write!(f, "data checksum mismatch (torn write)"),
            ColumnFileIssue::ChecksumMissing => write!(f, "trailing checksum missing"),
            ColumnFileIssue::FooterDamaged => {
                write!(f, "page directory damaged; rebuilt by walking the page stream")
            }
            ColumnFileIssue::PageChecksumMismatch { page } => {
                write!(f, "page {page} checksum mismatch (torn write); rows kept")
            }
            ColumnFileIssue::PagesTruncated { salvaged_pages, salvaged_rows, expected_rows } => {
                match expected_rows {
                    Some(exp) => write!(
                        f,
                        "page stream truncated: salvaged {salvaged_rows} of {exp} rows \
                         ({salvaged_pages} complete pages)"
                    ),
                    None => write!(
                        f,
                        "page stream truncated: salvaged {salvaged_rows} rows \
                         ({salvaged_pages} complete pages); expected total unknown"
                    ),
                }
            }
        }
    }
}

/// Typed marker that a load returned fewer rows than the file promised —
/// callers can assert on this instead of string-matching diag output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialLoad {
    /// Rows the file's header/footer promised (`None` when damage destroyed
    /// the promise itself).
    pub expected_rows: Option<u64>,
    /// Rows actually recovered.
    pub salvaged_rows: u64,
}

/// Extract the partial-load marker implied by a load's issue list, if any.
pub fn partial_load_marker(issues: &[ColumnFileIssue]) -> Option<PartialLoad> {
    issues.iter().find_map(|i| match *i {
        ColumnFileIssue::Truncated { expected_rows, salvaged_rows } => {
            Some(PartialLoad { expected_rows: Some(expected_rows), salvaged_rows })
        }
        ColumnFileIssue::PagesTruncated { salvaged_rows, expected_rows, .. } => {
            Some(PartialLoad { expected_rows, salvaged_rows })
        }
        _ => None,
    })
}

/// A loaded column together with everything a caller needs to reason about
/// damage: the issue list and the typed partial-load marker.
#[derive(Debug)]
pub struct LoadedColumn {
    pub column: Column,
    pub issues: Vec<ColumnFileIssue>,
    /// `Some` iff the load salvaged fewer rows than the file promised.
    pub partial: Option<PartialLoad>,
}

/// FNV-1a over `bytes`: the checksum of `.hefc` v1 data sections and of
/// paged footers and column ids (paged pages use
/// [`page_checksum`](crate::page::page_checksum)).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize a column to its on-disk form.
pub fn encode_column(col: &Column) -> Vec<u8> {
    let name = col.name().as_bytes();
    let mut out = Vec::with_capacity(4 + 4 + 4 + name.len() + 8 + col.len() * 8 + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(col.len() as u64).to_le_bytes());
    let data_start = out.len();
    for v in col.iter() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let sum = fnv1a(&out[data_start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Write `col` to `path` in column-file format.
pub fn save_column(col: &Column, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, encode_column(col))
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let chunk = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(chunk)
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

/// Decode a column file, salvaging what a damaged tail allows.
pub fn decode_column(bytes: &[u8]) -> Result<(Column, Vec<ColumnFileIssue>), ColumnFileError> {
    let mut r = Reader { bytes, pos: 0 };
    match r.take(4) {
        Some(m) if m == MAGIC => {}
        Some(_) => return Err(ColumnFileError::BadMagic),
        None => return Err(ColumnFileError::BadHeader("file shorter than magic".into())),
    }
    let version = r
        .u32()
        .ok_or_else(|| ColumnFileError::BadHeader("missing version".into()))?;
    if version != VERSION {
        return Err(ColumnFileError::UnsupportedVersion(version));
    }
    let name_len = r
        .u32()
        .ok_or_else(|| ColumnFileError::BadHeader("missing name length".into()))? as usize;
    let name = r
        .take(name_len)
        .ok_or_else(|| ColumnFileError::BadHeader("name truncated".into()))?;
    let name = std::str::from_utf8(name)
        .map_err(|_| ColumnFileError::BadHeader("name not utf-8".into()))?
        .to_string();
    let rows = r
        .u64()
        .ok_or_else(|| ColumnFileError::BadHeader("missing row count".into()))?;

    let mut issues = Vec::new();
    let data_start = r.pos;
    let avail = bytes.len() - data_start;
    // A corrupted row count can be astronomically large; `rows * 8` must
    // not overflow (debug: panic, release: wrap — either way wrong). Any
    // honest row count fits: the file itself could never hold more than
    // `usize::MAX / 8` rows of 8 bytes.
    let want = (rows as usize)
        .checked_mul(8)
        .ok_or_else(|| ColumnFileError::BadHeader(format!("row count {rows} overflows")))?;
    let (data_len, truncated) = if avail >= want {
        (want, false)
    } else {
        // Short file: salvage complete rows only.
        (avail - avail % 8, true)
    };
    let data_bytes = &bytes[data_start..data_start + data_len];
    let salvaged = (data_len / 8) as u64;
    if truncated {
        issues.push(ColumnFileIssue::Truncated { expected_rows: rows, salvaged_rows: salvaged });
    } else {
        r.pos = data_start + data_len;
        match r.u64() {
            Some(stored) => {
                if stored != fnv1a(data_bytes) {
                    issues.push(ColumnFileIssue::ChecksumMismatch);
                }
            }
            None => issues.push(ColumnFileIssue::ChecksumMissing),
        }
    }
    let values: Vec<u64> = data_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    Ok((Column::new(name, values), issues))
}

/// Load a column file through the fault layer, reporting survivable damage
/// via `hef_obs::diag` and the metrics registry.
///
/// Handles both formats: v1 monolithic files decode directly; v3 paged
/// files are routed through [`crate::page::PagedColumn`] and fully decoded.
pub fn load_column(path: &Path) -> Result<(Column, Vec<ColumnFileIssue>), ColumnFileError> {
    load_column_report(path).map(|l| (l.column, l.issues))
}

/// [`load_column`] with the typed partial-load marker attached.
pub fn load_column_report(path: &Path) -> Result<LoadedColumn, ColumnFileError> {
    let (bytes, fault_fired) = hef_testutil::fault::read_file(path)?;
    // Peek the version: paged files go through the paged reader (which does
    // its own metrics/diag reporting at open). Any other version, retired
    // paged v2 included, is a typed `UnsupportedVersion` from the v1 decoder.
    if bytes.len() >= 8 && &bytes[0..4] == MAGIC {
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version == crate::page::VERSION {
            let paged = crate::page::PagedColumn::open(path)?;
            let issues = paged.issues().to_vec();
            let column = paged.to_column()?;
            let partial = partial_load_marker(&issues);
            return Ok(LoadedColumn { column, issues, partial });
        }
    }
    let (col, issues) = decode_column(&bytes)?;
    metrics::add(Metric::ColumnFilesLoaded, 1);
    let partial = partial_load_marker(&issues);
    for issue in &issues {
        metrics::add(Metric::StorageIssues, 1);
        if let ColumnFileIssue::Truncated { salvaged_rows, .. } = issue {
            metrics::add(Metric::ColumnRowsSalvaged, *salvaged_rows);
        }
        hef_obs::diag::warn(format!("storage: {}: {issue}", path.display()));
        hef_obs::trace::instant_labeled("storage_issue", &issue.to_string(), &[]);
    }
    if let Some(p) = partial {
        // The per-issue warning above carries the counts too, but a partial
        // load is the one condition callers most need to notice — surface
        // it unconditionally with the salvaged/expected rows spelled out.
        hef_obs::diag::warn(format!(
            "storage: {}: partial load: {} of {} rows survived",
            path.display(),
            p.salvaged_rows,
            p.expected_rows.map_or_else(|| "unknown".to_string(), |e| e.to_string()),
        ));
    }
    if fault_fired && issues.is_empty() {
        // A fault fired but the file still decoded clean (e.g. tear confined
        // to the checksum bytes happening to match) — still worth a note.
        hef_obs::diag::warn(format!(
            "storage: {}: injected read fault left file decodable",
            path.display()
        ));
    }
    Ok(LoadedColumn { column: col, issues, partial })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Column {
        Column::new("lo_quantity", (0..100u64).map(|i| i * 3 + 1).collect())
    }

    #[test]
    fn roundtrip_clean() {
        let col = sample();
        let bytes = encode_column(&col);
        let (back, issues) = decode_column(&bytes).unwrap();
        assert!(issues.is_empty(), "{issues:?}");
        assert_eq!(back.name(), "lo_quantity");
        assert_eq!(back, col);
    }

    #[test]
    fn truncated_data_salvages_complete_rows() {
        let bytes = encode_column(&sample());
        // Cut 8 rows + checksum + 3 stray bytes off the end.
        let cut = bytes.len() - 8 - 8 * 8 - 3;
        let (col, issues) = decode_column(&bytes[..cut]).unwrap();
        assert_eq!(col.len(), 91); // 100 - 8 complete - 1 partial
        assert_eq!(
            issues,
            vec![ColumnFileIssue::Truncated { expected_rows: 100, salvaged_rows: 91 }]
        );
        assert_eq!(col.get(90), 90 * 3 + 1);
    }

    #[test]
    fn torn_data_reports_checksum_mismatch() {
        let mut bytes = encode_column(&sample());
        let n = bytes.len();
        bytes[n - 20] ^= 0xff; // inside the data region
        let (col, issues) = decode_column(&bytes).unwrap();
        assert_eq!(col.len(), 100);
        assert_eq!(issues, vec![ColumnFileIssue::ChecksumMismatch]);
    }

    #[test]
    fn missing_checksum_is_survivable() {
        let bytes = encode_column(&sample());
        let (col, issues) = decode_column(&bytes[..bytes.len() - 8]).unwrap();
        assert_eq!(col.len(), 100);
        assert_eq!(issues, vec![ColumnFileIssue::ChecksumMissing]);
    }

    #[test]
    fn header_damage_is_typed_error() {
        let mut bad_magic = encode_column(&sample());
        bad_magic[0] = b'X';
        assert!(matches!(decode_column(&bad_magic), Err(ColumnFileError::BadMagic)));

        let mut bad_version = encode_column(&sample());
        bad_version[4] = 9;
        assert!(matches!(
            decode_column(&bad_version),
            Err(ColumnFileError::UnsupportedVersion(9))
        ));

        assert!(matches!(
            decode_column(b"HE"),
            Err(ColumnFileError::BadHeader(_))
        ));
    }

    #[test]
    fn save_load_through_fault_layer() {
        let dir = std::env::temp_dir().join("hef-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.hefc");
        let col = sample();
        save_column(&col, &path).unwrap();
        let (back, issues) = load_column(&path).unwrap();
        assert!(issues.is_empty());
        assert_eq!(back, col);
        std::fs::remove_file(&path).ok();
    }
}
