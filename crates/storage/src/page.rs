//! Paged compressed column files (`.hefc` v3): fixed-size pages, each
//! independently encoded (frame-of-reference bit-pack or sorted dictionary)
//! and independently checksummed, with a trailing page directory so a reader
//! can fetch any page with one ranged read.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic     4 bytes  b"HEFC"
//! version   u32      3
//! name_len  u32      column-name byte length
//! name      n bytes  UTF-8 column name
//! page 0 .. page k-1                       (self-delimiting, see below)
//! footer body:
//!   rows          u64   total rows
//!   rows_per_page u32   rows per page (last page may be shorter)
//!   page_count    u32
//!   per page: { offset u64, len u32, checksum u64 (the page's own) }
//! body_len  u32
//! magic     4 bytes  b"HEFD"
//! checksum  u64      FNV-1a over the footer body
//! ```
//!
//! Each page:
//!
//! ```text
//! enc       u8    0 = frame-of-reference bit-pack, 1 = sorted dictionary
//! width     u8    code width in bits (1..=64; dict pages 1..=16)
//! flags     u16   reserved, 0
//! rows      u32
//! reference u64   FOR base value (0 for dict pages)
//! dict_len  u32   dictionary entries (0 for FOR pages)
//! words_len u32   packed words incl. one straddle pad word
//! dict      dict_len*8 bytes   sorted dictionary values
//! words     words_len*8 bytes  dense LE bit-packed codes
//! checksum  u64   page_checksum over this page from `enc` through `words`
//! ```
//!
//! Every page read is verified. The page checksum ([`page_checksum`]) reads
//! 64-bit words in four independent multiply-xor-rotate lanes, so a 50 KB
//! page verifies at word speed rather than the byte-serial FNV-1a of v2; the
//! footer, v1 files and column ids keep FNV-1a. v2 files are rejected as
//! [`ColumnFileError::UnsupportedVersion`]. Because the footer lists every
//! page's checksum, the footer checksum names the file's content: it is
//! mixed into [`PagedColumn::column_id`], so a file rewritten at the same
//! path never hits its predecessor's pages in a live [`PageCache`].
//!
//! [`PageCache`]: crate::cache::PageCache
//!
//! The v1 salvage ladder moves from per-file to per-page: a damaged footer
//! is rebuilt by walking the self-delimiting page stream
//! ([`ColumnFileIssue::FooterDamaged`]); a stream cut inside a page salvages
//! every complete page before it ([`ColumnFileIssue::PagesTruncated`]); a
//! page whose checksum disagrees but whose structure is intact is kept and
//! reported ([`ColumnFileIssue::PageChecksumMismatch`]) — codes are masked
//! to `width` bits and dictionaries padded to `1 << width` entries, so even
//! garbled pages decode without out-of-bounds access. Header damage stays a
//! typed [`ColumnFileError`].
//!
//! All reads go through `hef_testutil::fault` (`read_file_range` for pages
//! and the footer, `read_file` for the salvage walk), so `HEF_FAULT`
//! `torn:`/`short:` clauses exercise every path end-to-end.

use std::path::{Path, PathBuf};

use hef_kernels::decode::{pack, unpack_at, words_needed};
use hef_obs::metrics::{self, Metric};

use crate::column::Column;
use crate::file::{fnv1a, ColumnFileError, ColumnFileIssue};

const MAGIC: &[u8; 4] = b"HEFC";
const FOOTER_MAGIC: &[u8; 4] = b"HEFD";
/// The `.hefc` paged format revision (`load_column` dispatches on it).
pub(crate) const VERSION: u32 = 3;
/// Fixed page-header bytes before the dictionary.
const PAGE_HEADER: usize = 24;
/// Footer directory bytes per page: offset u64, len u32, checksum u64.
const DIR_ENTRY: usize = 20;
/// Largest dictionary a page may carry (keeps code width ≤ 12 and the
/// padded gather table ≤ 32 KiB).
const DICT_MAX: usize = 4096;
/// Sanity ceiling on rows per page (a corrupt header cannot make us
/// allocate unbounded memory).
const MAX_PAGE_ROWS: u32 = 1 << 22;

/// Default page size: 256 KiB.
pub const DEFAULT_PAGE_BYTES: u64 = 256 * 1024;

/// Parse a byte-size spec: plain bytes or `k`/`m`/`g` suffix (binary units,
/// case-insensitive). `None` on anything else.
pub fn parse_byte_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1u64 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let n: u64 = num.trim().parse().ok()?;
    n.checked_mul(mult)
}

/// Per-page encoding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enc {
    /// Frame-of-reference: `value = reference + code`.
    For = 0,
    /// Sorted dictionary: `value = dict[code]`, codes are ranks.
    Dict = 1,
}

/// One decoded-to-struct (but still bit-packed) page.
#[derive(Debug, Clone)]
pub struct Page {
    enc: Enc,
    width: u32,
    rows: u32,
    reference: u64,
    /// Real dictionary entries on disk (0 for FOR pages).
    dict_len: u32,
    /// Dictionary padded to `1 << width` entries so a masked code can
    /// always gather in bounds, even from a corrupt page.
    dict: Vec<u64>,
    /// Packed codes, including the straddle pad word.
    words: Vec<u64>,
}

impl Page {
    /// Encode one chunk of values, choosing FOR bit-pack or sorted-dict by
    /// estimated packed size.
    pub fn encode(values: &[u64]) -> Page {
        assert!(!values.is_empty(), "cannot encode an empty page");
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let range = max.wrapping_sub(min);
        let for_width = bits_for(range);

        let mut distinct: Vec<u64> = values.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let use_dict = if distinct.len() <= DICT_MAX {
            let dict_width = bits_for(distinct.len() as u64 - 1);
            let dict_bits = values.len() as u64 * dict_width as u64 + 64 * distinct.len() as u64;
            let for_bits = values.len() as u64 * for_width as u64;
            dict_bits < for_bits
        } else {
            false
        };

        if use_dict {
            let width = bits_for(distinct.len() as u64 - 1);
            let codes: Vec<u64> = values
                .iter()
                .map(|v| distinct.binary_search(v).unwrap() as u64)
                .collect();
            let words = pack(&codes, width);
            let dict_len = distinct.len() as u32;
            let mut dict = distinct;
            dict.resize(1usize << width, 0);
            Page { enc: Enc::Dict, width, rows: values.len() as u32, reference: 0, dict_len, dict, words }
        } else {
            let codes: Vec<u64> = values.iter().map(|v| v.wrapping_sub(min)).collect();
            let words = pack(&codes, for_width);
            Page {
                enc: Enc::For,
                width: for_width,
                rows: values.len() as u32,
                reference: min,
                dict_len: 0,
                dict: Vec::new(),
                words,
            }
        }
    }

    pub fn enc(&self) -> Enc {
        self.enc
    }
    pub fn width(&self) -> u32 {
        self.width
    }
    pub fn rows(&self) -> usize {
        self.rows as usize
    }
    pub fn reference(&self) -> u64 {
        self.reference
    }
    /// Real (unpadded) dictionary entries, sorted ascending. Empty for FOR
    /// pages.
    pub fn dict_entries(&self) -> &[u64] {
        &self.dict[..self.dict_len as usize]
    }
    /// Gather-safe dictionary: `1 << width` entries, or `None` for FOR
    /// pages.
    pub fn dict_padded(&self) -> Option<&[u64]> {
        (self.enc == Enc::Dict).then_some(&self.dict[..])
    }
    /// Packed code words (includes the straddle pad word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes this page pins while cached.
    pub fn bytes(&self) -> usize {
        core::mem::size_of::<Page>() + (self.dict.len() + self.words.len()) * 8
    }

    /// The code (pre-FOR-add / pre-dict-gather) at row `e`.
    pub fn code_at(&self, e: usize) -> u64 {
        unpack_at(&self.words, self.width, e)
    }

    /// The value at row `e` (scalar reference).
    pub fn value_at(&self, e: usize) -> u64 {
        let code = self.code_at(e);
        match self.enc {
            Enc::For => self.reference.wrapping_add(code),
            Enc::Dict => self.dict[code as usize],
        }
    }

    /// Scalar reference decode of rows `[start, start+out.len())` into
    /// `out`.
    pub fn decode_range(&self, start: usize, out: &mut [u64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.value_at(start + i);
        }
    }

    /// Decode the whole page, appending to `out`.
    pub fn decode_append(&self, out: &mut Vec<u64>) {
        let base = out.len();
        out.resize(base + self.rows as usize, 0);
        self.decode_range(0, &mut out[base..]);
    }

    /// Serialize to the on-disk page form (header + dict + words +
    /// checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let dict_len = self.dict_len as usize;
        let mut out =
            Vec::with_capacity(PAGE_HEADER + (dict_len + self.words.len()) * 8 + 8);
        out.push(self.enc as u8);
        out.push(self.width as u8);
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.reference.to_le_bytes());
        out.extend_from_slice(&self.dict_len.to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        for v in &self.dict[..dict_len] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        let sum = page_checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse one page from `bytes` (which may extend past the page).
    /// Returns the page, its total on-disk length, and whether its checksum
    /// verified. Structural damage returns the reason instead.
    fn parse(bytes: &[u8]) -> Result<(Page, usize, bool), String> {
        if bytes.len() < PAGE_HEADER {
            return Err("page header truncated".into());
        }
        let enc = match bytes[0] {
            0 => Enc::For,
            1 => Enc::Dict,
            e => return Err(format!("unknown page encoding {e}")),
        };
        let width = bytes[1] as u32;
        let flags = u16::from_le_bytes(bytes[2..4].try_into().unwrap());
        let rows = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let reference = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let dict_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
        let words_len = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        if flags != 0 {
            return Err(format!("unknown page flags {flags:#x}"));
        }
        if width == 0 || width > 64 {
            return Err(format!("code width {width} out of range"));
        }
        if rows == 0 || rows > MAX_PAGE_ROWS {
            return Err(format!("page row count {rows} out of range"));
        }
        match enc {
            Enc::For => {
                if dict_len != 0 {
                    return Err("FOR page carries a dictionary".into());
                }
            }
            Enc::Dict => {
                if width > 16 {
                    return Err(format!("dict code width {width} > 16"));
                }
                if dict_len == 0 || (dict_len as u64) > (1u64 << width) {
                    return Err(format!("dict length {dict_len} vs width {width}"));
                }
            }
        }
        let need_words = words_needed(rows as usize, width);
        if (words_len as usize) < need_words {
            return Err(format!(
                "words_len {words_len} < {need_words} needed for {rows} rows at width {width}"
            ));
        }
        let body = (dict_len as usize + words_len as usize) * 8;
        let total = PAGE_HEADER + body + 8;
        if bytes.len() < total {
            return Err("page body truncated".into());
        }
        let stored =
            u64::from_le_bytes(bytes[PAGE_HEADER + body..total].try_into().unwrap());
        let checksum_ok = stored == page_checksum(&bytes[..PAGE_HEADER + body]);

        let mut dict: Vec<u64> = bytes[PAGE_HEADER..PAGE_HEADER + dict_len as usize * 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if enc == Enc::Dict {
            // Pad so any masked code gathers in bounds, even off a torn page.
            dict.resize(1usize << width, 0);
        }
        let words: Vec<u64> = bytes
            [PAGE_HEADER + dict_len as usize * 8..PAGE_HEADER + body]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok((Page { enc, width, rows, reference, dict_len, dict, words }, total, checksum_ok))
    }
}

fn bits_for(range: u64) -> u32 {
    (64 - range.leading_zeros()).max(1)
}

/// The v3 page checksum: the little-endian 64-bit words of `bytes` are
/// dealt round-robin to four independent lanes, each updated by
/// `lane = rotl(lane ^ word·K2, 31)·K1`; a zero-padded partial word, if
/// any, goes to the next lane. The lanes are then folded in order into the
/// byte length and avalanched. Every lane step and fold step is a bijection
/// of its state for fixed other inputs (odd multipliers, xor, rotate), so
/// any change confined to one word — every single-bit flip — changes the
/// sum, and four lanes keep four multiplies in flight instead of FNV-1a's
/// one dependent multiply per byte.
pub(crate) fn page_checksum(bytes: &[u8]) -> u64 {
    const K1: u64 = 0x9e37_79b1_85eb_ca87;
    const K2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const K3: u64 = 0x1656_67b1_9e37_79f9;
    const K4: u64 = 0x85eb_ca77_c2b2_ae63;
    #[inline(always)]
    fn round(lane: u64, word: u64) -> u64 {
        (lane ^ word.wrapping_mul(K2)).rotate_left(31).wrapping_mul(K1)
    }
    #[inline(always)]
    fn word(b: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap())
    }
    let mut lanes = [K1.wrapping_add(K2), K2, K3, K4];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        let b: &[u8; 32] = b.try_into().unwrap();
        lanes[0] = round(lanes[0], word(b, 0));
        lanes[1] = round(lanes[1], word(b, 1));
        lanes[2] = round(lanes[2], word(b, 2));
        lanes[3] = round(lanes[3], word(b, 3));
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut buf = [0u8; 8];
        buf[..w.len()].copy_from_slice(w);
        *lane = round(*lane, u64::from_le_bytes(buf));
    }
    let mut h = (bytes.len() as u64).wrapping_mul(K3);
    for lane in lanes {
        h = (h ^ round(0, lane)).wrapping_mul(K1).wrapping_add(K4);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(K2);
    h ^= h >> 29;
    h = h.wrapping_mul(K3);
    h ^ (h >> 32)
}

/// Cache namespace for a column: FNV-1a of its path followed by `content`
/// — words that change whenever the file's pages do.
fn column_key(path: &Path, content: &[u64]) -> u64 {
    let mut key = path.to_string_lossy().into_owned().into_bytes();
    for w in content {
        key.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a(&key)
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Streaming page writer: rows are pushed one at a time, pages are encoded
/// and flushed as soon as they fill, so a column of any length is written in
/// O(rows_per_page) memory.
pub struct PagedColumnWriter {
    file: std::io::BufWriter<std::fs::File>,
    buf: Vec<u64>,
    rows_per_page: u32,
    /// Directory entries written so far: offset, length, page checksum.
    pages: Vec<(u64, u32, u64)>,
    rows: u64,
    pos: u64,
}

impl PagedColumnWriter {
    /// Create `path` and write the v3 header.
    pub fn create(path: &Path, name: &str, rows_per_page: u32) -> std::io::Result<PagedColumnWriter> {
        use std::io::Write;
        let rows_per_page = rows_per_page.clamp(64, 1 << 21);
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let name_bytes = name.as_bytes();
        file.write_all(MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
        file.write_all(name_bytes)?;
        let pos = (12 + name_bytes.len()) as u64;
        Ok(PagedColumnWriter {
            file,
            buf: Vec::with_capacity(rows_per_page as usize),
            rows_per_page,
            pages: Vec::new(),
            rows: 0,
            pos,
        })
    }

    /// Append one row.
    pub fn push(&mut self, v: u64) -> std::io::Result<()> {
        self.buf.push(v);
        if self.buf.len() == self.rows_per_page as usize {
            self.flush_page()?;
        }
        Ok(())
    }

    /// Append a slice of rows.
    pub fn push_all(&mut self, vs: &[u64]) -> std::io::Result<()> {
        for &v in vs {
            self.push(v)?;
        }
        Ok(())
    }

    fn flush_page(&mut self) -> std::io::Result<()> {
        use std::io::Write;
        if self.buf.is_empty() {
            return Ok(());
        }
        let page = Page::encode(&self.buf);
        let bytes = page.to_bytes();
        self.file.write_all(&bytes)?;
        let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        self.pages.push((self.pos, bytes.len() as u32, sum));
        self.pos += bytes.len() as u64;
        self.rows += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flush the tail page, write the footer directory, and sync lengths.
    /// Returns the total row count written.
    pub fn finish(mut self) -> std::io::Result<u64> {
        use std::io::Write;
        self.flush_page()?;
        let mut body = Vec::with_capacity(16 + self.pages.len() * DIR_ENTRY);
        body.extend_from_slice(&self.rows.to_le_bytes());
        body.extend_from_slice(&self.rows_per_page.to_le_bytes());
        body.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        for &(off, len, sum) in &self.pages {
            body.extend_from_slice(&off.to_le_bytes());
            body.extend_from_slice(&len.to_le_bytes());
            body.extend_from_slice(&sum.to_le_bytes());
        }
        let sum = fnv1a(&body);
        self.file.write_all(&body)?;
        self.file.write_all(&(body.len() as u32).to_le_bytes())?;
        self.file.write_all(FOOTER_MAGIC)?;
        self.file.write_all(&sum.to_le_bytes())?;
        self.file.flush()?;
        Ok(self.rows)
    }
}

/// Write a whole in-memory column as a paged v3 file.
pub fn save_paged_column(col: &Column, path: &Path, rows_per_page: u32) -> std::io::Result<u64> {
    let mut w = PagedColumnWriter::create(path, col.name(), rows_per_page)?;
    for v in col.iter() {
        w.push(v)?;
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// Directory entry for one page.
#[derive(Debug, Clone, Copy)]
pub struct PageMeta {
    pub offset: u64,
    pub len: u32,
    /// Global row id of this page's first row.
    pub first_row: u64,
    pub rows: u32,
}

/// An opened paged column: header + page directory only; page payloads are
/// fetched on demand with ranged reads.
#[derive(Debug, Clone)]
pub struct PagedColumn {
    path: PathBuf,
    name: String,
    rows: u64,
    rows_per_page: u32,
    pages: Vec<PageMeta>,
    issues: Vec<ColumnFileIssue>,
    /// The cache key namespace for this column: its path mixed with the
    /// footer checksum (salvaged files: every walked page's checksum, the
    /// page count and the file length).
    column_id: u64,
}

impl PagedColumn {
    /// Open `path`, reading only the footer directory on the fast path. A
    /// missing/damaged footer triggers a full salvage walk over the
    /// self-delimiting page stream; survivable damage is reported in
    /// [`PagedColumn::issues`], via `hef_obs::diag`, and in the metrics
    /// registry. Header damage is a typed error.
    pub fn open(path: &Path) -> Result<PagedColumn, ColumnFileError> {
        let opened = Self::open_inner(path)?;
        metrics::add(Metric::ColumnFilesLoaded, 1);
        for issue in &opened.issues {
            metrics::add(Metric::StorageIssues, 1);
            if let ColumnFileIssue::PagesTruncated { salvaged_rows, .. } = issue {
                metrics::add(Metric::ColumnRowsSalvaged, *salvaged_rows);
            }
            hef_obs::diag::warn(format!("storage: {}: {issue}", path.display()));
            hef_obs::trace::instant_labeled("storage_issue", &issue.to_string(), &[]);
        }
        Ok(opened)
    }

    fn open_inner(path: &Path) -> Result<PagedColumn, ColumnFileError> {
        let file_len = std::fs::metadata(path)?.len();
        if let Some(col) = Self::open_via_footer(path, file_len)? {
            return Ok(col);
        }
        Self::open_salvage(path)
    }

    /// Fast path: trust the footer directory if every link in it checks
    /// out. Any inconsistency returns `Ok(None)` → salvage walk.
    fn open_via_footer(path: &Path, file_len: u64) -> Result<Option<PagedColumn>, ColumnFileError> {
        use hef_testutil::fault::read_file_range;
        if file_len < 12 + 16 {
            return Ok(None);
        }
        let (tail, _) = read_file_range(path, file_len - 16, 16)?;
        if tail.len() != 16 || &tail[4..8] != FOOTER_MAGIC {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(tail[0..4].try_into().unwrap()) as u64;
        let stored = u64::from_le_bytes(tail[8..16].try_into().unwrap());
        if body_len < 16 || body_len > file_len - 16 - 12 {
            return Ok(None);
        }
        let body_start = file_len - 16 - body_len;
        let (body, _) = read_file_range(path, body_start, body_len as usize)?;
        if body.len() as u64 != body_len || fnv1a(&body) != stored {
            return Ok(None);
        }
        let rows = u64::from_le_bytes(body[0..8].try_into().unwrap());
        let rows_per_page = u32::from_le_bytes(body[8..12].try_into().unwrap());
        let page_count = u32::from_le_bytes(body[12..16].try_into().unwrap()) as u64;
        if body_len != 16 + page_count * DIR_ENTRY as u64 {
            return Ok(None);
        }
        if rows_per_page == 0 && rows != 0 {
            return Ok(None);
        }
        // The header still has to parse for the name.
        let Some((name, header_end)) = Self::read_header(path)? else {
            return Ok(None);
        };
        let mut pages = Vec::with_capacity(page_count as usize);
        let mut prev_end = header_end;
        let mut first_row = 0u64;
        for i in 0..page_count {
            let at = 16 + (i as usize) * DIR_ENTRY;
            let offset = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
            let len = u32::from_le_bytes(body[at + 8..at + 12].try_into().unwrap());
            let end = offset + len as u64;
            if offset != prev_end || end > body_start || len < (PAGE_HEADER + 8) as u32 {
                return Ok(None);
            }
            let page_rows = (rows - first_row).min(rows_per_page as u64) as u32;
            if page_rows == 0 {
                return Ok(None);
            }
            pages.push(PageMeta { offset, len, first_row, rows: page_rows });
            first_row += page_rows as u64;
            prev_end = end;
        }
        if first_row != rows {
            return Ok(None);
        }
        Ok(Some(PagedColumn {
            path: path.to_path_buf(),
            name,
            rows,
            rows_per_page,
            pages,
            issues: Vec::new(),
            column_id: column_key(path, &[stored]),
        }))
    }

    /// Parse the fixed header (magic/version/name) with two small ranged
    /// reads. `Ok(None)` means the file is too short even for the header.
    fn read_header(path: &Path) -> Result<Option<(String, u64)>, ColumnFileError> {
        use hef_testutil::fault::read_file_range;
        let (head, _) = read_file_range(path, 0, 12)?;
        if head.len() < 12 {
            return Ok(None);
        }
        if &head[0..4] != MAGIC {
            return Err(ColumnFileError::BadMagic);
        }
        let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(ColumnFileError::UnsupportedVersion(version));
        }
        let name_len = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
        if name_len > 1 << 16 {
            return Err(ColumnFileError::BadHeader(format!("name length {name_len} implausible")));
        }
        let (name, _) = read_file_range(path, 12, name_len)?;
        if name.len() != name_len {
            return Ok(None);
        }
        let name = std::str::from_utf8(&name)
            .map_err(|_| ColumnFileError::BadHeader("name not utf-8".into()))?
            .to_string();
        Ok(Some((name, (12 + name_len) as u64)))
    }

    /// Salvage walk: read the whole file through the fault layer and rebuild
    /// the directory from the self-delimiting page stream, keeping every
    /// structurally complete page.
    fn open_salvage(path: &Path) -> Result<PagedColumn, ColumnFileError> {
        let (bytes, _) = hef_testutil::fault::read_file(path)?;
        if bytes.len() < 12 {
            return Err(ColumnFileError::BadHeader("file shorter than header".into()));
        }
        if &bytes[0..4] != MAGIC {
            return Err(ColumnFileError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(ColumnFileError::UnsupportedVersion(version));
        }
        let name_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let name = bytes
            .get(12..12 + name_len)
            .ok_or_else(|| ColumnFileError::BadHeader("name truncated".into()))?;
        let name = std::str::from_utf8(name)
            .map_err(|_| ColumnFileError::BadHeader("name not utf-8".into()))?
            .to_string();

        // If the footer is intact, its row count tells us what we lost.
        let expected_rows = Self::footer_expected_rows(&bytes);

        let mut issues = vec![ColumnFileIssue::FooterDamaged];
        let mut pages = Vec::new();
        let mut pos = 12 + name_len;
        let mut first_row = 0u64;
        let mut rows_per_page = 0u32;
        let mut sums = Vec::new();
        while pos < bytes.len() {
            // The footer region begins with a u32 body length; a page begins
            // with enc/width. Distinguish by attempting a page parse —
            // footer bytes fail structurally, ending the walk.
            match Page::parse(&bytes[pos..]) {
                Ok((page, total, checksum_ok)) => {
                    if !checksum_ok {
                        issues.push(ColumnFileIssue::PageChecksumMismatch {
                            page: pages.len() as u32,
                        });
                    }
                    rows_per_page = rows_per_page.max(page.rows);
                    pages.push(PageMeta {
                        offset: pos as u64,
                        len: total as u32,
                        first_row,
                        rows: page.rows,
                    });
                    first_row += page.rows as u64;
                    let sum = &bytes[pos + total - 8..pos + total];
                    sums.push(u64::from_le_bytes(sum.try_into().unwrap()));
                    pos += total;
                }
                Err(_) => break,
            }
        }
        // An intact stream leaves exactly a footer-sized remainder after the
        // last page; anything else means page content was lost.
        let footer_size = 16 + DIR_ENTRY * pages.len() + 16;
        let truncated = bytes.len() - pos != footer_size;
        if truncated || expected_rows.is_some_and(|r| r != first_row) {
            issues.push(ColumnFileIssue::PagesTruncated {
                salvaged_pages: pages.len() as u32,
                salvaged_rows: first_row,
                expected_rows,
            });
        }
        sums.extend([pages.len() as u64, bytes.len() as u64]);
        Ok(PagedColumn {
            path: path.to_path_buf(),
            name,
            rows: first_row,
            rows_per_page: rows_per_page.max(1),
            pages,
            issues,
            column_id: column_key(path, &sums),
        })
    }

    /// Row count promised by a checksum-valid footer, if one survives at
    /// the tail of `bytes`.
    fn footer_expected_rows(bytes: &[u8]) -> Option<u64> {
        if bytes.len() < 16 + 16 + 12 {
            return None;
        }
        let tail = &bytes[bytes.len() - 16..];
        if &tail[4..8] != FOOTER_MAGIC {
            return None;
        }
        let body_len = u32::from_le_bytes(tail[0..4].try_into().unwrap()) as usize;
        let stored = u64::from_le_bytes(tail[8..16].try_into().unwrap());
        let body_end = bytes.len() - 16;
        let body = bytes.get(body_end.checked_sub(body_len)?..body_end)?;
        if body.len() < 16 || fnv1a(body) != stored {
            return None;
        }
        Some(u64::from_le_bytes(body[0..8].try_into().unwrap()))
    }

    pub fn name(&self) -> &str {
        &self.name
    }
    pub fn rows(&self) -> u64 {
        self.rows
    }
    pub fn rows_per_page(&self) -> u32 {
        self.rows_per_page
    }
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
    pub fn pages(&self) -> &[PageMeta] {
        &self.pages
    }
    /// Damage found at open time (salvage path only; per-page checksum
    /// issues on the fast path surface at [`PagedColumn::read_page`]).
    pub fn issues(&self) -> &[ColumnFileIssue] {
        &self.issues
    }
    /// Stable id namespacing this column's pages in the shared cache.
    pub fn column_id(&self) -> u64 {
        self.column_id
    }

    /// Read and parse page `idx` with one ranged read. A checksum mismatch
    /// on a structurally intact page is survivable (warned + counted, page
    /// returned); structural damage is a typed error.
    pub fn read_page(&self, idx: usize) -> Result<Page, ColumnFileError> {
        let meta = self.pages[idx];
        let (bytes, _) =
            hef_testutil::fault::read_file_range(&self.path, meta.offset, meta.len as usize)?;
        let (page, _, checksum_ok) = Page::parse(&bytes).map_err(|msg| {
            ColumnFileError::BadHeader(format!("page {idx}: {msg}"))
        })?;
        if !checksum_ok {
            let issue = ColumnFileIssue::PageChecksumMismatch { page: idx as u32 };
            metrics::add(Metric::StorageIssues, 1);
            hef_obs::diag::warn(format!("storage: {}: {issue}", self.path.display()));
        }
        if page.rows != meta.rows {
            return Err(ColumnFileError::BadHeader(format!(
                "page {idx}: row count {} disagrees with directory {}",
                page.rows, meta.rows
            )));
        }
        Ok(page)
    }

    /// Fully decode the column into memory (tests, compatibility path).
    pub fn to_column(&self) -> Result<Column, ColumnFileError> {
        let mut values = Vec::with_capacity(self.rows as usize);
        for idx in 0..self.pages.len() {
            self.read_page(idx)?.decode_append(&mut values);
        }
        Ok(Column::new(self.name.clone(), values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hef-page-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_values(n: usize) -> Vec<u64> {
        // Mix of low-cardinality (dict-friendly) and wide-range segments.
        (0..n as u64)
            .map(|i| if (i / 1000) % 2 == 0 { i % 7 } else { i.wrapping_mul(0x9e37_79b9) })
            .collect()
    }

    #[test]
    fn page_encode_roundtrip_for_and_dict() {
        let dict_vals: Vec<u64> = (0..500u64).map(|i| i % 5 * 100).collect();
        let p = Page::encode(&dict_vals);
        assert_eq!(p.enc(), Enc::Dict);
        let mut out = Vec::new();
        p.decode_append(&mut out);
        assert_eq!(out, dict_vals);

        let wide: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d)).collect();
        let p = Page::encode(&wide);
        assert_eq!(p.enc(), Enc::For);
        let mut out = Vec::new();
        p.decode_append(&mut out);
        assert_eq!(out, wide);
    }

    #[test]
    fn page_bytes_roundtrip() {
        let vals: Vec<u64> = (100..600u64).collect();
        let p = Page::encode(&vals);
        let bytes = p.to_bytes();
        let (q, total, ok) = Page::parse(&bytes).unwrap();
        assert!(ok);
        assert_eq!(total, bytes.len());
        let mut out = Vec::new();
        q.decode_append(&mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn writer_reader_roundtrip_multi_page() {
        let path = tmp("roundtrip.hefc");
        let vals = sample_values(10_000);
        let mut w = PagedColumnWriter::create(&path, "lo_mixed", 1024).unwrap();
        w.push_all(&vals).unwrap();
        assert_eq!(w.finish().unwrap(), 10_000);

        let col = PagedColumn::open(&path).unwrap();
        assert_eq!(col.name(), "lo_mixed");
        assert_eq!(col.rows(), 10_000);
        assert_eq!(col.page_count(), 10);
        assert!(col.issues().is_empty());
        assert_eq!(col.to_column().unwrap().iter().collect::<Vec<_>>(), &vals[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_footer_salvages_by_walking() {
        let path = tmp("nofooter.hefc");
        let vals = sample_values(5_000);
        let mut w = PagedColumnWriter::create(&path, "c", 1024).unwrap();
        w.push_all(&vals).unwrap();
        w.finish().unwrap();
        // Garble the footer magic.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let col = PagedColumn::open(&path).unwrap();
        assert!(col.issues().contains(&ColumnFileIssue::FooterDamaged));
        assert_eq!(col.rows(), 5_000);
        assert_eq!(col.to_column().unwrap().iter().collect::<Vec<_>>(), &vals[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_salvages_complete_pages() {
        let path = tmp("trunc.hefc");
        let vals = sample_values(5_000);
        let mut w = PagedColumnWriter::create(&path, "c", 1024).unwrap();
        w.push_all(&vals).unwrap();
        w.finish().unwrap();
        // Cut the file inside the final data page (drop footer + tail page).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2048]).unwrap();

        let col = PagedColumn::open(&path).unwrap();
        let salvaged = col.rows();
        assert!(salvaged >= 1024 && salvaged < 5_000, "salvaged {salvaged}");
        assert!(col
            .issues()
            .iter()
            .any(|i| matches!(i, ColumnFileIssue::PagesTruncated { .. })));
        assert_eq!(col.to_column().unwrap().iter().collect::<Vec<_>>(), &vals[..salvaged as usize]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_page_checksum_is_survivable() {
        let path = tmp("tornpage.hefc");
        let vals = sample_values(3_000);
        let mut w = PagedColumnWriter::create(&path, "c", 1024).unwrap();
        w.push_all(&vals).unwrap();
        w.finish().unwrap();
        let col = PagedColumn::open(&path).unwrap();
        let meta = col.pages()[1];
        // Flip a bit inside page 1's word region (past header + any dict).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[meta.offset as usize + meta.len as usize - 16] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let col = PagedColumn::open(&path).unwrap();
        assert!(col.issues().is_empty(), "footer path stays clean: {:?}", col.issues());
        // The damaged page still decodes (masked codes, padded dict).
        let decoded = col.to_column().unwrap();
        assert_eq!(decoded.len(), 3_000);
        // Pages 0 and 2 are bit-identical; page 1 differs somewhere.
        assert_eq!(&decoded.iter().collect::<Vec<_>>()[..1024], &vals[..1024]);
        assert_eq!(&decoded.iter().collect::<Vec<_>>()[2048..], &vals[2048..]);
        std::fs::remove_file(&path).ok();
    }

    /// The same values, the same `HEF_FAULT` clause, two on-disk formats:
    /// whatever the fault leaves intact must decode bit-identically from
    /// the monolithic v1 loader and the paged v3 salvage walk. Both route
    /// reads through `hef_testutil::fault`, so the spec grammar drives the
    /// damage in both cases.
    #[test]
    fn torn_and_short_faults_salvage_identically_across_formats() {
        use crate::file::{load_column_report, save_column};
        use hef_testutil::fault::{with_plan, FaultPlan};

        let dir = std::env::temp_dir().join(format!("hef-fault-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vals = sample_values(5_000);
        let mono = dir.join("c.hef");
        let paged = dir.join("c.hefc");
        save_column(&crate::column::Column::new("c", vals.clone()), &mono).unwrap();
        save_paged_column(&crate::column::Column::new("c", vals.clone()), &paged, 1024).unwrap();

        // Short read: the stream ends 2 KiB early in both files. Each
        // format salvages its own prefix granularity (rows vs pages); the
        // common prefix must match the originals exactly.
        let (plan, warn) = FaultPlan::parse("short:bytes=2048,file=fault-diff");
        assert!(warn.is_empty(), "{warn:?}");
        with_plan(plan, || {
            let m = load_column_report(&mono).expect("monolithic salvages");
            let partial = m.partial.expect("short read is a partial load");
            assert_eq!(partial.expected_rows, Some(5_000));
            assert!(partial.salvaged_rows < 5_000);

            let p = PagedColumn::open(&paged).expect("paged salvages");
            assert!(p.issues().contains(&ColumnFileIssue::FooterDamaged));
            assert!(p
                .issues()
                .iter()
                .any(|i| matches!(i, ColumnFileIssue::PagesTruncated { .. })));
            let pcol = p.to_column().unwrap();
            assert!(pcol.len() >= 1024 && pcol.len() < 5_000, "salvaged {}", pcol.len());

            let common = (partial.salvaged_rows as usize).min(pcol.len());
            assert!(common >= 1024);
            assert_eq!(&m.column.iter().collect::<Vec<_>>()[..common], &vals[..common]);
            assert_eq!(&pcol.iter().collect::<Vec<_>>()[..common], &vals[..common]);
        });

        // Torn write: the last 256 bytes are seeded garbage. The monolithic
        // loader flags the checksum; the paged walk loses its footer and
        // flags the damaged tail page. Rows before the torn region decode
        // bit-identically from both.
        let (plan, warn) = FaultPlan::parse("torn:bytes=256,seed=9,file=fault-diff");
        assert!(warn.is_empty(), "{warn:?}");
        with_plan(plan, || {
            let m = load_column_report(&mono).expect("monolithic loads");
            assert!(m.issues.contains(&ColumnFileIssue::ChecksumMismatch));
            assert_eq!(m.column.len(), 5_000);

            let p = PagedColumn::open(&paged).expect("paged salvages");
            assert!(p.issues().contains(&ColumnFileIssue::FooterDamaged));
            let pcol = p.to_column().unwrap();
            assert!(pcol.len() >= 4096, "salvaged {}", pcol.len());

            assert_eq!(&m.column.iter().collect::<Vec<_>>()[..4096], &vals[..4096]);
            assert_eq!(&pcol.iter().collect::<Vec<_>>()[..4096], &vals[..4096]);
        });

        // No plan installed: both formats load clean — the differential
        // pair itself is sound.
        let m = load_column_report(&mono).unwrap();
        assert!(m.issues.is_empty() && m.partial.is_none());
        assert_eq!(m.column.iter().collect::<Vec<_>>(), &vals[..]);
        let p = PagedColumn::open(&paged).unwrap();
        assert!(p.issues().is_empty());
        assert_eq!(p.to_column().unwrap().iter().collect::<Vec<_>>(), &vals[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_damage_is_typed_error() {
        let path = tmp("badmagic.hefc");
        let vals = sample_values(100);
        let mut w = PagedColumnWriter::create(&path, "c", 64).unwrap();
        w.push_all(&vals).unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(PagedColumn::open(&path), Err(ColumnFileError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    /// Every single-bit flip in a page's checksummed range (header, dict
    /// and words) is caught: a flip that keeps the structure parseable is
    /// a checksum mismatch, never a verified page.
    #[test]
    fn every_single_bit_flip_is_a_checksum_mismatch() {
        let for_vals: Vec<u64> = (0..70u64).map(|i| 1_000 + i * 37 % 101).collect();
        let dict_vals: Vec<u64> = (0..70u64).map(|i| (i % 3) * 1_000_000_007).collect();
        for vals in [for_vals, dict_vals] {
            let page = Page::encode(&vals);
            let bytes = page.to_bytes();
            let body = bytes.len() - 8;
            let stored = u64::from_le_bytes(bytes[body..].try_into().unwrap());
            assert_eq!(page_checksum(&bytes[..body]), stored);
            for bit in 0..body * 8 {
                let mut torn = bytes.clone();
                torn[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_checksum(&torn[..body]), stored, "{:?} bit {bit}", page.enc());
                match Page::parse(&torn) {
                    Ok((_, _, ok)) => assert!(!ok, "{:?} bit {bit} verified", page.enc()),
                    // Only header bits can break the structure.
                    Err(_) => assert!(bit < PAGE_HEADER * 8, "{:?} bit {bit}", page.enc()),
                }
            }
        }
    }

    #[test]
    fn page_checksum_detects_word_swaps_within_and_across_lanes() {
        let mut rng = hef_testutil::Rng::seed_from_u64(0x5eed);
        // 41 words: ten full 4-lane blocks plus a one-word tail.
        let words: Vec<u64> = (0..41).map(|_| rng.gen_u64()).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let sum = page_checksum(&bytes);
        // (a, b) word pairs: same lane (a ≡ b mod 4), including the tail
        // word, and different lanes, adjacent or far apart.
        for (a, b) in [(0, 4), (1, 37), (3, 39), (0, 40), (0, 1), (2, 3), (5, 38), (10, 31)] {
            let mut swapped = words.clone();
            swapped.swap(a, b);
            let swapped: Vec<u8> = swapped.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_ne!(page_checksum(&swapped), sum, "swap {a}<->{b}");
        }
        // Through a real page: swapping two distinct code words is reported.
        let vals: Vec<u64> = (0..400u64).map(|i| i.wrapping_mul(0x9e37_79b9) % 100_000).collect();
        let page = Page::encode(&vals);
        let bytes = page.to_bytes();
        let words_at = PAGE_HEADER + page.dict_entries().len() * 8;
        for (a, b) in [(0usize, 4usize), (0, 1)] {
            let (a, b) = (words_at + a * 8, words_at + b * 8);
            let (wa, wb) = (bytes[a..a + 8].to_vec(), bytes[b..b + 8].to_vec());
            assert_ne!(wa, wb);
            let mut torn = bytes.clone();
            torn[a..a + 8].copy_from_slice(&wb);
            torn[b..b + 8].copy_from_slice(&wa);
            let (_, _, ok) = Page::parse(&torn).unwrap();
            assert!(!ok, "swap at {a}/{b} verified");
        }
        // The untouched page still verifies.
        assert!(Page::parse(&bytes).unwrap().2);
    }

    /// Pages of the retired v2 format (FNV-1a page checksums) are not
    /// read as v3: both the paged reader and `load_column` report the
    /// version as a typed error.
    #[test]
    fn v2_header_is_unsupported_version() {
        let path = tmp(&format!("v2-{}.hefc", std::process::id()));
        save_paged_column(&Column::new("c", sample_values(3_000)), &path, 1024).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(PagedColumn::open(&path), Err(ColumnFileError::UnsupportedVersion(2))));
        assert!(matches!(
            crate::file::load_column(&path),
            Err(ColumnFileError::UnsupportedVersion(2))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_byte_size_suffixes() {
        assert_eq!(parse_byte_size("1024"), Some(1024));
        assert_eq!(parse_byte_size("256k"), Some(256 << 10));
        assert_eq!(parse_byte_size("64M"), Some(64 << 20));
        assert_eq!(parse_byte_size("2g"), Some(2 << 30));
        assert_eq!(parse_byte_size(" 1g "), Some(1 << 30));
        assert_eq!(parse_byte_size("nope"), None);
        assert_eq!(parse_byte_size("k"), None);
        // An overflowing size is refused, not saturated.
        assert_eq!(parse_byte_size("99999999999g"), None);
    }
}
