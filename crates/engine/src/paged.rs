//! Out-of-core star execution over paged compressed columns.
//!
//! This module owns the paged *table* and the paged *batch source*; it has
//! no executor of its own. A paged query is the in-memory query with a
//! different source: pages are the units of the one morsel scheduler in
//! `crate::parallel` (one page per morsel), and each worker runs the one
//! stage loop, `star::PipelineWorker`, over a `PageSource` that treats
//! one page as one batch. The scheduler's panic isolation, retry, serial
//! fallback, fault hooks and governance checks therefore apply unchanged;
//! a page that cannot be read becomes a typed [`ExecError::Failed`].
//!
//! The source pulls each needed column's page through the bounded shared
//! [`PageCache`] once per page morsel, holds it until the next morsel
//! begins, and decodes it with the tuned `Decode` kernel family. A page the
//! cache declines to admit is therefore read once per morsel, not once per
//! stage that reads its column (Q1.x reads `lo_discount` as a filter and as
//! a measure).
//! Decode is late: only the plan's *first* filter reads its column's whole
//! page; secondary filters, probe keys and measures decode just the rows
//! the stage loop still holds (`BatchSource::take` / `refine`, decode at
//! selection positions), so a page where 2% of rows survive the filters
//! pays for 2% of its join and measure rows, and one where none survive
//! decodes nothing else. Before a selective decode the source checks the
//! selection against the page's row count — the kernel's SIMD gathers are
//! unchecked — and an out-of-page row is a typed [`ExecError::Failed`].
//!
//! The first filter runs in compressed space whenever the page's encoding
//! allows it:
//!
//! * **Dictionary pages** — the dictionary is sorted, so a value-range
//!   predicate maps to a code-range predicate by two binary searches; the
//!   filter kernel then runs over the unpacked *codes* and the dictionary
//!   gather is skipped entirely for the scan column (counted in
//!   `kernel.decode_code_filtered`).
//! * **Frame-of-reference pages** — the predicate shifts by the page
//!   reference and runs over the raw offsets, skipping the reference add.
//! * Pages whose value domain could straddle the signed/unsigned boundary
//!   fall back to decode-then-filter; the fused paths engage only when
//!   order is preserved, so results stay bit-identical to the in-memory
//!   executor.
//!
//! A paged query enters through [`Engine::execute`](crate::Engine::execute)
//! like an in-memory one — same validation, pipeline overlay, admission and
//! report — and the page cache's capacity is charged to the engine's memory
//! budget for the duration of the query.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hef_kernels::KernelIo;
use hef_obs::trace::SpanGuard;
use hef_storage::cache::PageCache;
use hef_storage::page::{Enc, Page, PageMeta, PagedColumn};
use hef_storage::ColumnFileError;

use hef_testutil::fault::EngineFaults;

use crate::engine::Fact;
use crate::govern::QueryCtx;
use crate::parallel::{ExecError, ExecReport, MorselWorker, Scan, Stop};
use crate::star::{
    BatchSource, ColumnSlots, ExecConfig, FilterInput, Kernels, PipelineWorker, QueryOutput,
    RangeFilter, StarPlan,
};

// ---------------------------------------------------------------------------
// Paged fact table.
// ---------------------------------------------------------------------------

/// Problems opening a paged table directory.
#[derive(Debug)]
pub enum PagedTableError {
    Io(std::io::Error),
    /// One column file failed to open.
    Column { file: String, err: ColumnFileError },
    /// The columns disagree on row count or page geometry.
    Inconsistent(String),
}

impl std::fmt::Display for PagedTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagedTableError::Io(e) => write!(f, "io error: {e}"),
            PagedTableError::Column { file, err } => write!(f, "column file `{file}`: {err}"),
            PagedTableError::Inconsistent(msg) => write!(f, "inconsistent paged table: {msg}"),
        }
    }
}

impl std::error::Error for PagedTableError {}

impl From<std::io::Error> for PagedTableError {
    fn from(e: std::io::Error) -> Self {
        PagedTableError::Io(e)
    }
}

/// A fact table whose columns live in paged `.hefc` v3 files on disk; only
/// directories and per-page payloads on demand are ever resident.
#[derive(Debug)]
pub struct PagedTable {
    name: String,
    dir: PathBuf,
    cols: Vec<PagedColumn>,
    by_name: HashMap<String, usize>,
    rows: u64,
    page_count: usize,
}

impl PagedTable {
    /// Open every `.hefc` file in `dir` as one table. All columns must
    /// agree on row count and page geometry (the paged writer guarantees
    /// this for generated datasets).
    pub fn open_dir(dir: &Path, name: &str) -> Result<PagedTable, PagedTableError> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "hefc"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(PagedTableError::Inconsistent(format!(
                "no .hefc files in {}",
                dir.display()
            )));
        }
        let mut cols = Vec::with_capacity(files.len());
        let mut by_name = HashMap::new();
        for f in &files {
            let col = PagedColumn::open(f).map_err(|err| PagedTableError::Column {
                file: f.display().to_string(),
                err,
            })?;
            by_name.insert(col.name().to_string(), cols.len());
            cols.push(col);
        }
        let rows = cols[0].rows();
        let page_count = cols[0].page_count();
        for c in &cols[1..] {
            if c.rows() != rows || c.page_count() != page_count {
                return Err(PagedTableError::Inconsistent(format!(
                    "column `{}` has {} rows / {} pages; `{}` has {} / {}",
                    c.name(),
                    c.rows(),
                    c.page_count(),
                    cols[0].name(),
                    rows,
                    page_count
                )));
            }
            for (a, b) in cols[0].pages().iter().zip(c.pages()) {
                if a.rows != b.rows {
                    return Err(PagedTableError::Inconsistent(format!(
                        "column `{}` page geometry diverges from `{}`",
                        c.name(),
                        cols[0].name()
                    )));
                }
            }
        }
        Ok(PagedTable { name: name.to_string(), dir: dir.to_path_buf(), cols, by_name, rows, page_count })
    }

    pub fn name(&self) -> &str {
        &self.name
    }
    pub fn dir(&self) -> &Path {
        &self.dir
    }
    pub fn rows(&self) -> u64 {
        self.rows
    }
    pub fn page_count(&self) -> usize {
        self.page_count
    }
    /// Rows in the largest page: the batch a paged scan's worker holds.
    pub fn max_page_rows(&self) -> usize {
        self.cols[0].pages().iter().map(|p| p.rows as usize).max().unwrap_or(0)
    }
    /// Heap bytes the largest page of any column can pin once parsed, a
    /// page a scan's worker holds for its morsel: the page's on-disk length
    /// twice over (a dictionary pads to a power of two entries) plus the
    /// [`Page`] itself.
    pub fn max_page_bytes(&self) -> usize {
        let len = self.cols.iter().flat_map(|c| c.pages()).map(|p| p.len as usize).max();
        std::mem::size_of::<Page>() + 2 * len.unwrap_or(0)
    }
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.cols.iter().map(|c| c.name())
    }
    pub fn column(&self, name: &str) -> Option<&PagedColumn> {
        self.by_name.get(name).map(|&i| &self.cols[i])
    }
    /// Bytes the table would occupy fully decoded in memory (the number a
    /// page cache's capacity is compared against).
    pub fn raw_bytes(&self) -> u64 {
        self.rows * 8 * self.cols.len() as u64
    }
    /// Fully decode into an in-memory [`Table`](hef_storage::Table)
    /// (differential tests; defeats the purpose otherwise).
    pub fn to_table(&self) -> Result<hef_storage::Table, PagedTableError> {
        let mut t = hef_storage::Table::new(self.name.clone());
        for c in &self.cols {
            let col = c.to_column().map_err(|err| PagedTableError::Column {
                file: c.name().to_string(),
                err,
            })?;
            t.add_column(col);
        }
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// Fused first-filter planning.
// ---------------------------------------------------------------------------

/// How the first filter runs against one page.
enum FusedFilter {
    /// No row of this page can pass (decided from the page header alone —
    /// zero rows decoded).
    Empty,
    /// Run the filter over raw codes with mapped bounds; the value
    /// reconstruction (reference add / dictionary gather) is skipped.
    Codes { lo: u64, hi: u64 },
    /// Mixed-sign domain: decode values, filter normally.
    Values,
}

const SIGN_BIT: u64 = 1 << 63;

/// Map a signed value-range predicate into this page's code space, when the
/// page's value domain is sign-homogeneous (all values non-negative as
/// `i64`), so unsigned code order equals signed value order.
fn fuse_filter(page: &Page, lo: u64, hi: u64) -> FusedFilter {
    let (l, h) = (lo as i64 as i128, hi as i64 as i128);
    if l > h {
        return FusedFilter::Empty;
    }
    match page.enc() {
        Enc::For => {
            let reference = page.reference();
            let mask = if page.width() >= 64 { u64::MAX } else { (1u64 << page.width()) - 1 };
            // Conservative value ceiling: reference + largest representable
            // code. Fuse only when the whole code domain maps below the
            // sign bit, so unsigned code order equals signed value order.
            if reference >= SIGN_BIT || mask >= SIGN_BIT - reference {
                return FusedFilter::Values;
            }
            let (rmin, rmax) = (reference as i128, (reference + mask) as i128);
            let lo_v = l.max(rmin);
            let hi_v = h.min(rmax);
            if lo_v > hi_v {
                return FusedFilter::Empty;
            }
            FusedFilter::Codes { lo: (lo_v - rmin) as u64, hi: (hi_v - rmin) as u64 }
        }
        Enc::Dict => {
            let dict = page.dict_entries();
            match dict.last() {
                Some(&max) if max < SIGN_BIT => {}
                _ => return FusedFilter::Values,
            }
            let lo_code = dict.partition_point(|&v| (v as i128) < l);
            let hi_code = dict.partition_point(|&v| (v as i128) <= h);
            if lo_code >= hi_code {
                return FusedFilter::Empty;
            }
            FusedFilter::Codes { lo: lo_code as u64, hi: hi_code as u64 - 1 }
        }
    }
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

/// [`Engine::execute`](crate::Engine::execute) of a paged query on
/// [`Engine::default`](crate::Engine): `ctx`'s token cancels it and its
/// deadline, counted from this call, replaces `cfg.deadline_ms`.
pub fn try_execute_star_paged_ctx(
    plan: &StarPlan,
    fact: &PagedTable,
    cfg: &ExecConfig,
    cache: &PageCache,
    ctx: &QueryCtx,
) -> Result<QueryOutput, ExecError> {
    let cfg = cfg.with_deadline_ms(ctx.deadline_ms());
    let engine = crate::Engine::default();
    engine.execute(plan, Fact::Paged(fact, cache), &cfg, ctx.token()).map(|(out, _)| out)
}

/// Run `plan` over the paged `fact` on `threads` workers. Pages are the
/// scheduler's units and each morsel is one page; every worker runs the
/// shared stage loop over a `PageSource`, so a paged query gets the
/// in-memory path's panic isolation, morsel retry, serial fallback and
/// fault hooks. A page that cannot be read stops the query with a typed
/// [`ExecError::Failed`]. The caller has validated the plan.
pub(crate) fn run_paged(
    plan: &StarPlan,
    fact: &PagedTable,
    cache: &PageCache,
    cfg: &ExecConfig,
    threads: usize,
    ctx: &QueryCtx,
    faults: &EngineFaults,
) -> Result<(QueryOutput, ExecReport), ExecError> {
    let slots = ColumnSlots::of(plan);
    // Validation already proved every column exists; keep the failure
    // typed anyway (the no-panic contract covers the whole engine).
    let cols = slots
        .names
        .iter()
        .map(|&name| {
            fact.column(name).ok_or_else(|| ExecError::BadPlan {
                query: plan.name.clone(),
                message: format!("fact column '{name}' missing from paged table"),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let make = || -> Box<dyn MorselWorker + '_> {
        Box::new(PipelineWorker::new(plan, cfg, &slots, PageSource::new(fact, cols.clone(), cache)))
    };
    let scan = Scan { plan, units: fact.page_count(), morsel: 1, make: &make, faults };
    crate::parallel::run_scan(&scan, threads, ctx)
}

/// One page at a time, fetched through the shared cache. The first filter
/// reads its whole column, in code space when the page's encoding allows
/// it (see [`fuse_filter`]); every later read decodes only the selected
/// rows, so join and measure columns cost per surviving row, not per page.
/// Each column's page is looked up once per morsel and held until the next
/// [`begin`](BatchSource::begin).
struct PageSource<'a> {
    /// Page directory shared by every column (`open_dir` checks geometry).
    pages: &'a [PageMeta],
    cols: Vec<&'a PagedColumn>,
    cache: &'a PageCache,
    page: usize,
    /// Per column slot, its page of the current morsel once fetched.
    held: Vec<Option<Arc<Page>>>,
    /// The column the current stage decoded: first-filter codes or values,
    /// or a secondary filter's selected values.
    buf: Vec<u64>,
    /// Secondary filter: indices into `buf` of the rows that pass.
    keep: Vec<u64>,
}

impl<'a> PageSource<'a> {
    fn new(fact: &'a PagedTable, cols: Vec<&'a PagedColumn>, cache: &'a PageCache) -> Self {
        PageSource {
            pages: fact.cols[0].pages(),
            held: vec![None; cols.len()],
            cols,
            cache,
            page: 0,
            buf: Vec::new(),
            keep: Vec::new(),
        }
    }

    fn fetch(&mut self, slot: usize) -> Result<Arc<Page>, Stop> {
        if let Some(page) = &self.held[slot] {
            return Ok(Arc::clone(page));
        }
        let page = self
            .cache
            .page(self.cols[slot], self.page)
            .map_err(|e| Stop::Failed(format!("paged read failed: {e}")))?;
        self.held[slot] = Some(Arc::clone(&page));
        Ok(page)
    }

    /// [`fetch`](Self::fetch), after checking that every row of `sel` lies
    /// inside the page. The decode kernel gathers packed words unchecked,
    /// so this check is what keeps a selective decode in bounds.
    fn fetch_for(&mut self, slot: usize, sel: &[u64]) -> Result<Arc<Page>, Stop> {
        let rows = self.pages[self.page].rows as u64;
        match sel.iter().max() {
            Some(&last) if last >= rows => Err(Stop::Failed(format!(
                "page {}: selected row {last} outside its {rows} rows",
                self.page
            ))),
            _ => self.fetch(slot),
        }
    }
}

impl BatchSource for PageSource<'_> {
    fn begin(&mut self, start: usize, _hi: usize) -> (usize, usize) {
        self.page = start;
        self.held.fill(None);
        (start + 1, self.pages[start].rows as usize)
    }

    fn span(&self, rows: usize) -> SpanGuard {
        hef_obs::span_fine!("page", idx = self.page as i64, rows = rows as i64)
    }

    fn values(&mut self, slot: usize, k: &Kernels) -> Result<&[u64], Stop> {
        let page = self.fetch(slot)?;
        decode_page(&page, k, false, None, &mut self.buf);
        Ok(&self.buf)
    }

    fn first_filter(
        &mut self,
        slot: usize,
        f: &RangeFilter,
        k: &Kernels,
    ) -> Result<FilterInput<'_>, Stop> {
        let page = self.fetch(slot)?;
        let fused = fuse_filter(&page, f.lo, f.hi);
        if hef_obs::metrics::enabled() && !matches!(fused, FusedFilter::Values) {
            hef_obs::metrics::add(hef_obs::metrics::Metric::DecodeCodeFiltered, page.rows() as u64);
        }
        match fused {
            FusedFilter::Empty => Ok(None),
            FusedFilter::Codes { lo, hi } => {
                decode_page(&page, k, true, None, &mut self.buf);
                Ok(Some((&self.buf, lo, hi)))
            }
            FusedFilter::Values => Ok(Some((self.values(slot, k)?, f.lo, f.hi))),
        }
    }

    fn take(
        &mut self,
        slot: usize,
        sel: &[u64],
        out: &mut Vec<u64>,
        k: &Kernels,
    ) -> Result<(), Stop> {
        out.clear();
        if !sel.is_empty() {
            let page = self.fetch_for(slot, sel)?;
            decode_page(&page, k, false, Some(sel), out);
        }
        Ok(())
    }

    fn refine(
        &mut self,
        slot: usize,
        f: &RangeFilter,
        sel: &mut Vec<u64>,
        k: &Kernels,
    ) -> Result<(), Stop> {
        if sel.is_empty() {
            return Ok(());
        }
        let page = self.fetch_for(slot, sel)?;
        decode_page(&page, k, false, Some(sel), &mut self.buf);
        self.keep.clear();
        k.filter(&mut KernelIo::Filter {
            input: &self.buf,
            lo: f.lo,
            hi: f.hi,
            base: 0,
            sel: &mut self.keep,
        });
        // `keep` is ascending and `keep[i] >= i`: compacting in place only
        // overwrites rows already read.
        for (i, &j) in self.keep.iter().enumerate() {
            sel[i] = sel[j as usize];
        }
        sel.truncate(self.keep.len());
        Ok(())
    }
}

/// Decode one page's column through the tuned `Decode` kernel (scalar
/// fallback for off-grid nodes): every row, or only rows `pos`, which the
/// caller has bounded by the page's rows. With `raw`, the codes come out
/// unreconstructed (no reference add, no dictionary gather) — the
/// code-space filter path. Counts one decoded page and the rows produced.
fn decode_page(page: &Page, k: &Kernels, raw: bool, pos: Option<&[u64]>, out: &mut Vec<u64>) {
    let rows = pos.map_or(page.rows(), <[u64]>::len);
    out.clear();
    out.resize(rows, 0);
    let _dspan = hef_obs::span_fine!("decode", rows = rows as i64, width = page.width() as i64);
    let (reference, dict) = if raw { (0u64, None) } else { (page.reference(), page.dict_padded()) };
    let mut io = KernelIo::Decode {
        words: page.words(),
        width: page.width(),
        reference,
        dict,
        start: 0,
        pos,
        out,
    };
    if !k.decode(&mut io) {
        for (j, slot) in out.iter_mut().enumerate() {
            let e = pos.map_or(j, |p| p[j] as usize);
            *slot = if raw { page.code_at(e) } else { page.value_at(e) };
        }
    }
    if hef_obs::metrics::enabled() {
        use hef_obs::metrics::{add, Metric};
        add(Metric::PagesDecoded, 1);
        add(Metric::DecodeRows, rows as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::{build_dimension, execute_star, Flavor, Measure};
    use hef_storage::page::PagedColumnWriter;
    use hef_storage::{Column, Table};

    /// Decode counters are process-global: tests that decode pages run one
    /// at a time so a test can assert exact counter deltas.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        M.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn write_paged(dir: &Path, name: &str, vals: &[u64], rows_per_page: u32) {
        let mut w = PagedColumnWriter::create(&dir.join(format!("{name}.hefc")), name, rows_per_page)
            .unwrap();
        w.push_all(vals).unwrap();
        w.finish().unwrap();
    }

    /// A star over a paged fact table plus the identical in-memory table.
    fn toy_paged(dir: &Path) -> (PagedTable, Table, StarPlan) {
        std::fs::create_dir_all(dir).unwrap();
        let n = 20_000u64;
        let fk1: Vec<u64> = (0..n).map(|i| i % 100).collect();
        let fk2: Vec<u64> = (0..n).map(|i| (i * 13) % 50).collect();
        let rev: Vec<u64> = (0..n).map(|i| i % 7 + 1).collect();
        let disc: Vec<u64> = (0..n).map(|i| i % 11).collect();
        write_paged(dir, "fk1", &fk1, 1024);
        write_paged(dir, "fk2", &fk2, 1024);
        write_paged(dir, "rev", &rev, 1024);
        write_paged(dir, "disc", &disc, 1024);

        let mut mem = Table::new("fact");
        mem.add_column(Column::new("fk1", fk1));
        mem.add_column(Column::new("fk2", fk2));
        mem.add_column(Column::new("rev", rev));
        mem.add_column(Column::new("disc", disc));

        let mut dim1 = Table::new("dim1");
        dim1.add_column(Column::new("key", (0..100).collect()));
        dim1.add_column(Column::new("grp", (0..100).map(|k| k % 4).collect()));
        let d1 = build_dimension(
            &dim1,
            "key",
            |r| dim1.col("key").get(r) < 40,
            |r| dim1.col("grp").get(r),
            4,
            "fk1",
        );
        let mut dim2 = Table::new("dim2");
        dim2.add_column(Column::new("key", (0..50).collect()));
        let d2 = build_dimension(
            &dim2,
            "key",
            |r| dim2.col("key").get(r).is_multiple_of(5),
            |_| 0,
            1,
            "fk2",
        );
        let plan = StarPlan {
            name: "toy_paged".into(),
            filters: vec![RangeFilter { col: "disc".into(), lo: 2, hi: 8 }],
            dims: vec![d1, d2],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        let paged = PagedTable::open_dir(dir, "fact").unwrap();
        (paged, mem, plan)
    }

    #[test]
    fn paged_matches_in_memory_every_flavor_and_thread_count() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("hef-paged-exec-test");
        let (paged, mem, plan) = toy_paged(&dir);
        let cache = PageCache::new(1 << 20);
        for flavor in [Flavor::Scalar, Flavor::Simd, Flavor::Hybrid] {
            let base = ExecConfig::for_flavor(flavor).with_threads(1);
            let expect = execute_star(&plan, &mem, &base);
            for threads in [1usize, 2, 4, 8] {
                let cfg = ExecConfig::for_flavor(flavor).with_threads(threads);
                let got = try_execute_star_paged_ctx(
                    &plan,
                    &paged,
                    &cfg,
                    &cache,
                    &QueryCtx::unbounded(),
                )
                .unwrap();
                assert_eq!(
                    got.groups,
                    expect.groups,
                    "{} threads={threads}",
                    flavor.name()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_cache_still_bit_identical() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("hef-paged-tinycache-test");
        let (paged, mem, plan) = toy_paged(&dir);
        let expect = execute_star(&plan, &mem, &ExecConfig::scalar().with_threads(1));
        // A cache holding ~2 pages forces constant eviction.
        let cache = PageCache::with_shards(40 * 1024, 1);
        let got = try_execute_star_paged_ctx(
            &plan,
            &paged,
            &ExecConfig::scalar().with_threads(4),
            &cache,
            &QueryCtx::unbounded(),
        )
        .unwrap();
        assert_eq!(got.groups, expect.groups);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A secondary filter over a mixed-sign frame-of-reference page, which
    /// has no code-space form: the selective decode keeps exactly the
    /// passing rows, counts one decoded page per non-empty selection and
    /// one decoded row per selected row, and refuses a selection that
    /// leaves the page.
    #[test]
    fn refine_on_mixed_sign_for_page_decodes_only_selected_rows() {
        use hef_obs::metrics::{self, Metric};
        let _serial = serial();
        let dir = std::env::temp_dir().join(format!("hef-paged-refine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rows = 1024u64;
        let vals: Vec<u64> = (0..rows as i64).map(|i| (i - 512) as u64).collect();
        write_paged(&dir, "m", &vals, rows as u32);
        let table = PagedTable::open_dir(&dir, "fact").unwrap();
        let col = table.column("m").unwrap();
        let f = RangeFilter { col: "m".into(), lo: -100i64 as u64, hi: 300 };
        let page = col.read_page(0).unwrap();
        assert_eq!(page.enc(), Enc::For);
        assert!(matches!(fuse_filter(&page, f.lo, f.hi), FusedFilter::Values));

        let cache = PageCache::new(1 << 20);
        let k = Kernels::resolve(&ExecConfig::hybrid_default());
        let mut src = PageSource::new(&table, vec![col], &cache);
        assert_eq!(src.begin(0, 1), (1, rows as usize));
        metrics::enable();
        let passes = |r: &u64| (-100..=300).contains(&(vals[*r as usize] as i64));
        for sel in [vec![], vec![600], (0..rows).collect::<Vec<u64>>()] {
            let before = metrics::snapshot();
            let mut got = sel.clone();
            assert!(matches!(src.refine(0, &f, &mut got, &k), Ok(())));
            let d = metrics::snapshot().delta(&before);
            let expect: Vec<u64> = sel.iter().copied().filter(passes).collect();
            assert_eq!(got, expect, "{} selected", sel.len());
            assert_eq!(d.get(Metric::PagesDecoded), u64::from(!sel.is_empty()));
            assert_eq!(d.get(Metric::DecodeRows), sel.len() as u64);
        }
        let mut outside = vec![3, rows];
        assert!(matches!(src.refine(0, &f, &mut outside, &k), Err(Stop::Failed(_))));
        let mut out = Vec::new();
        assert!(matches!(src.take(0, &outside, &mut out, &k), Err(Stop::Failed(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The page source looks each column's page up in the cache once per
    /// page, also when two stages read the column (here `disc` is the
    /// filter and a measure factor), in an ample cache and in one that
    /// evicts or declines nearly every miss: hits plus misses are pages ×
    /// columns read, since every toy page keeps rows through every stage.
    #[test]
    fn page_source_looks_up_each_column_once_per_page() {
        use hef_obs::metrics::{self, Metric};
        let _serial = serial();
        let dir = std::env::temp_dir().join(format!("hef-paged-lookups-{}", std::process::id()));
        let (paged, mem, mut plan) = toy_paged(&dir);
        plan.measure = Measure::SumProduct("rev".into(), "disc".into());
        let cols = ColumnSlots::of(&plan).names.len();
        assert_eq!(cols, 4);
        let cfg = ExecConfig::hybrid_default().with_threads(1);
        let expect = execute_star(&plan, &mem, &cfg);
        metrics::enable();
        for cache in [PageCache::new(1 << 20), PageCache::with_shards(40 * 1024, 1)] {
            let before = metrics::snapshot();
            let got =
                try_execute_star_paged_ctx(&plan, &paged, &cfg, &cache, &QueryCtx::unbounded())
                    .unwrap();
            let d = metrics::snapshot().delta(&before);
            assert_eq!(got.groups, expect.groups);
            assert_eq!(
                d.get(Metric::PageCacheHits) + d.get(Metric::PageCacheMisses),
                (paged.page_count() * cols) as u64,
                "capacity {}",
                cache.capacity()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fused_filter_bounds_are_exact() {
        // Dict page: low-cardinality values.
        let vals: Vec<u64> = (0..2000u64).map(|i| (i % 10) * 3).collect();
        let page = Page::encode(&vals);
        assert_eq!(page.enc(), Enc::Dict);
        for (lo, hi) in [(0u64, 5u64), (3, 3), (4, 5), (27, 100), (100, 200)] {
            let expect: Vec<u64> = (0..vals.len())
                .filter(|&r| (lo as i64) <= (vals[r] as i64) && (vals[r] as i64) <= (hi as i64))
                .map(|r| r as u64)
                .collect();
            let got = match fuse_filter(&page, lo, hi) {
                FusedFilter::Empty => Vec::new(),
                FusedFilter::Codes { lo: cl, hi: ch } => (0..vals.len())
                    .filter(|&r| {
                        let c = page.code_at(r);
                        cl <= c && c <= ch
                    })
                    .map(|r| r as u64)
                    .collect(),
                FusedFilter::Values => panic!("dict page must fuse"),
            };
            assert_eq!(got, expect, "lo={lo} hi={hi}");
        }

        // FOR page: wide-range values.
        let vals: Vec<u64> = (0..2000u64).map(|i| 1_000_000 + i * 17).collect();
        let page = Page::encode(&vals);
        assert_eq!(page.enc(), Enc::For);
        for (lo, hi) in [(1_000_000u64, 1_000_100u64), (0, 999_999), (1_016_990, u64::MAX >> 1)] {
            let expect: Vec<u64> = (0..vals.len())
                .filter(|&r| (lo as i64) <= (vals[r] as i64) && (vals[r] as i64) <= (hi as i64))
                .map(|r| r as u64)
                .collect();
            let got = match fuse_filter(&page, lo, hi) {
                FusedFilter::Empty => Vec::new(),
                FusedFilter::Codes { lo: cl, hi: ch } => (0..vals.len())
                    .filter(|&r| {
                        let c = page.code_at(r);
                        cl <= c && c <= ch
                    })
                    .map(|r| r as u64)
                    .collect(),
                FusedFilter::Values => panic!("FOR page must fuse"),
            };
            assert_eq!(got, expect, "lo={lo} hi={hi}");
        }

        // Mixed-sign page falls back to value decode.
        let vals: Vec<u64> = vec![5, u64::MAX - 3, 7, u64::MAX - 1];
        let page = Page::encode(&vals);
        assert!(matches!(fuse_filter(&page, 0, 10), FusedFilter::Values));
    }

    /// Admission charges a paged scan's workers a whole page per buffer
    /// and one held page per column read: a budget that fits one worker's
    /// page-sized scratch beside the cache takes a two-thread query down to
    /// one thread, and never by shrinking the batch, which cannot shrink a
    /// page.
    #[test]
    fn admission_charges_a_page_per_worker_buffer() {
        use crate::govern::{estimate_paged_query_bytes, estimate_query_bytes, GovernorConfig};
        use crate::{CancelToken, DegradeAction, Engine, Fact};
        let _serial = serial();
        let dir = std::env::temp_dir().join(format!("hef-paged-admit-{}", std::process::id()));
        let (paged, mem, plan) = toy_paged(&dir);
        let cfg = ExecConfig::hybrid_default().with_batch(256).with_threads(2);
        // Two pages' worth, smaller than one worker's scratch.
        let cache = PageCache::with_shards(40 * 1024, 1);
        let page_rows = paged.max_page_rows();
        assert_eq!(page_rows, 1024);
        // Each held page bounds the largest parsed page of any column.
        let page_bytes = paged.max_page_bytes();
        for name in ["fk1", "fk2", "rev", "disc"] {
            let col = paged.column(name).unwrap();
            for i in 0..col.page_count() {
                assert!(col.read_page(i).unwrap().bytes() <= page_bytes, "{name} page {i}");
            }
        }
        let one_worker = estimate_paged_query_bytes(&plan, page_rows, page_bytes, 1);
        // A page each for sel, keys, gids and vals (the toy dimensions are
        // dense, so no probe output), the decode buffer and the kept
        // indices, plus the accumulators and the filter's 8-lane slack,
        // and a held page of each of the four columns the plan reads.
        assert!(plan.dims.iter().all(|d| d.index.is_dense()));
        assert_eq!(
            one_worker,
            (6 * page_rows + 8) * 8 + plan.group_cells() * 8 + 4 * page_bytes
        );
        // An in-memory scan of the same table holds 256-row batches.
        assert!(estimate_query_bytes(&plan, &mem, &cfg, 2) < one_worker);
        assert!(cache.capacity() < one_worker);
        let limits =
            GovernorConfig { max_queries: 0, mem_budget: one_worker + cache.capacity() };
        let engine = Engine::default().with_limits(limits);
        let (got, report) = engine
            .execute(&plan, Fact::Paged(&paged, &cache), &cfg, &CancelToken::new())
            .expect("one worker fits");
        assert_eq!(got.groups, execute_star(&plan, &mem, &cfg).groups);
        assert_eq!(report.degrade_actions, vec![DegradeAction::ReduceWorkers { from: 2, to: 1 }]);
        assert_eq!(engine.governor().budget().used(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
