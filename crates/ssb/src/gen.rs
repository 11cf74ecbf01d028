//! The SSB data generator (`dbgen` equivalent).
//!
//! Deterministic (seeded) and linear in the scale factor: SF1 produces the
//! canonical 6,000,000 lineorder rows, 30,000 customers, 2,000 suppliers,
//! 200,000 parts (the original generator grows parts logarithmically above
//! SF1; we keep that rule and scale linearly below SF1 so small test
//! workloads stay proportionate), and the fixed 7-year date dimension.

use hef_storage::{Column, ColumnSlice, Table};
use hef_testutil::{Rng, SplitMix64};

use crate::encode::*;

/// The generated benchmark database.
#[derive(Debug, Clone)]
pub struct SsbData {
    pub lineorder: Table,
    pub customer: Table,
    pub supplier: Table,
    pub part: Table,
    pub date: Table,
    pub sf: f64,
}

impl SsbData {
    /// Total bytes across all tables.
    pub fn bytes(&self) -> usize {
        self.lineorder.bytes()
            + self.customer.bytes()
            + self.supplier.bytes()
            + self.part.bytes()
            + self.date.bytes()
    }
}

/// Canonical SSB cardinalities at a scale factor.
pub fn cardinalities(sf: f64) -> (usize, usize, usize, usize) {
    let lineorder = (6_000_000.0 * sf).round().max(1000.0) as usize;
    let customer = (30_000.0 * sf).round().max(500.0) as usize;
    let supplier = (2_000.0 * sf).round().max(100.0) as usize;
    let part = if sf >= 1.0 {
        (200_000.0 * (1.0 + sf.log2().max(0.0))).round() as usize
    } else {
        (200_000.0 * sf).round().max(500.0) as usize
    };
    (lineorder, customer, supplier, part)
}

/// An SSB value as stored: every generated value fits 32 bits, so the
/// generator builds 32-bit columns directly (no `u64` copy to narrow).
fn n32(v: u64) -> u32 {
    u32::try_from(v).expect("SSB values fit 32 bits")
}

fn gen_date() -> Table {
    let mut datekey = Vec::new();
    let mut year = Vec::new();
    let mut yearmonthnum = Vec::new();
    let mut weeknuminyear = Vec::new();
    let days_in_month = |y: u32, m: u32| -> u32 {
        match m {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 if y.is_multiple_of(4) && (!y.is_multiple_of(100) || y.is_multiple_of(400)) => 29,
            _ => 28,
        }
    };
    for y in n32(FIRST_YEAR)..=n32(LAST_YEAR) {
        let mut day_of_year = 0u32;
        for m in 1..=12 {
            for d in 1..=days_in_month(y, m) {
                day_of_year += 1;
                datekey.push(y * 10_000 + m * 100 + d);
                year.push(y);
                yearmonthnum.push(y * 100 + m);
                weeknuminyear.push((day_of_year - 1) / 7 + 1);
            }
        }
    }
    let mut t = Table::new("date");
    t.add_column(Column::from_u32("d_datekey", datekey));
    t.add_column(Column::from_u32("d_year", year));
    t.add_column(Column::from_u32("d_yearmonthnum", yearmonthnum));
    t.add_column(Column::from_u32("d_weeknuminyear", weeknuminyear));
    t
}

fn gen_customer(n: usize, rng: &mut Rng) -> Table {
    let mut key = Vec::with_capacity(n);
    let mut city_c = Vec::with_capacity(n);
    let mut nation = Vec::with_capacity(n);
    let mut region = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let c = rng.gen_range(0..CITIES);
        key.push(n32(i + 1));
        city_c.push(n32(c));
        nation.push(n32(nation_of_city(c)));
        region.push(n32(region_of_nation(nation_of_city(c))));
    }
    let mut t = Table::new("customer");
    t.add_column(Column::from_u32("c_custkey", key));
    t.add_column(Column::from_u32("c_city", city_c));
    t.add_column(Column::from_u32("c_nation", nation));
    t.add_column(Column::from_u32("c_region", region));
    t
}

fn gen_supplier(n: usize, rng: &mut Rng) -> Table {
    let mut key = Vec::with_capacity(n);
    let mut city_c = Vec::with_capacity(n);
    let mut nation = Vec::with_capacity(n);
    let mut region = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let c = rng.gen_range(0..CITIES);
        key.push(n32(i + 1));
        city_c.push(n32(c));
        nation.push(n32(nation_of_city(c)));
        region.push(n32(region_of_nation(nation_of_city(c))));
    }
    let mut t = Table::new("supplier");
    t.add_column(Column::from_u32("s_suppkey", key));
    t.add_column(Column::from_u32("s_city", city_c));
    t.add_column(Column::from_u32("s_nation", nation));
    t.add_column(Column::from_u32("s_region", region));
    t
}

fn gen_part(n: usize, rng: &mut Rng) -> Table {
    let mut key = Vec::with_capacity(n);
    let mut mfgr = Vec::with_capacity(n);
    let mut category_c = Vec::with_capacity(n);
    let mut brand1 = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let b = rng.gen_range(0..BRANDS);
        key.push(n32(i + 1));
        brand1.push(n32(b));
        category_c.push(n32(category_of_brand(b)));
        mfgr.push(n32(mfgr_of_category(category_of_brand(b))));
    }
    let mut t = Table::new("part");
    t.add_column(Column::from_u32("p_partkey", key));
    t.add_column(Column::from_u32("p_mfgr", mfgr));
    t.add_column(Column::from_u32("p_category", category_c));
    t.add_column(Column::from_u32("p_brand1", brand1));
    t
}

fn gen_lineorder(
    n: usize,
    ncust: usize,
    nsupp: usize,
    npart: usize,
    datekeys: ColumnSlice<'_>,
    rng: &mut Rng,
) -> Table {
    let mut custkey = Vec::with_capacity(n);
    let mut partkey = Vec::with_capacity(n);
    let mut suppkey = Vec::with_capacity(n);
    let mut orderdate = Vec::with_capacity(n);
    let mut quantity = Vec::with_capacity(n);
    let mut discount = Vec::with_capacity(n);
    let mut extendedprice = Vec::with_capacity(n);
    let mut revenue = Vec::with_capacity(n);
    let mut supplycost = Vec::with_capacity(n);
    for _ in 0..n {
        custkey.push(n32(rng.gen_range(1..=ncust as u64)));
        partkey.push(n32(rng.gen_range(1..=npart as u64)));
        suppkey.push(n32(rng.gen_range(1..=nsupp as u64)));
        orderdate.push(n32(datekeys.get(rng.gen_range(0..datekeys.len()))));
        quantity.push(n32(rng.gen_range(1..=50u64)));
        discount.push(n32(rng.gen_range(0..=10u64)));
        let price = rng.gen_range(90_000..=104_949u64) / 100 * 100; // cents
        extendedprice.push(n32(price));
        revenue.push(n32(price * (100 - rng.gen_range(0..=10u64)) / 100));
        supplycost.push(n32(price * 6 / 10));
    }
    let mut t = Table::new("lineorder");
    t.add_column(Column::from_u32("lo_custkey", custkey));
    t.add_column(Column::from_u32("lo_partkey", partkey));
    t.add_column(Column::from_u32("lo_suppkey", suppkey));
    t.add_column(Column::from_u32("lo_orderdate", orderdate));
    t.add_column(Column::from_u32("lo_quantity", quantity));
    t.add_column(Column::from_u32("lo_discount", discount));
    t.add_column(Column::from_u32("lo_extendedprice", extendedprice));
    t.add_column(Column::from_u32("lo_revenue", revenue));
    t.add_column(Column::from_u32("lo_supplycost", supplycost));
    t
}

/// Per-table seed streams, derived from the master seed in a fixed order
/// (customer, supplier, part, lineorder) through SplitMix64.
///
/// Each table owns an *independent* xoshiro stream, so tables can be
/// generated on separate threads — or serially, in any order — and produce
/// bit-identical columns. The original single-stream design threaded one
/// RNG through the tables in sequence, which serialized generation; the
/// split was an intentional, documented stream change (see
/// `tests/golden_gen.rs`).
fn table_seeds(seed: u64) -> [u64; 4] {
    let mut sm = SplitMix64::new(seed);
    [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()]
}

/// Generate the SSB database at `sf`, deterministically from `seed`.
///
/// Tables are generated in parallel: the three dimensions on threads of
/// their own, lineorder on the calling thread. The output is bit-identical
/// to [`generate_serial`] because every table draws from its own seed
/// stream ([`table_seeds`]). The date dimension is built first — lineorder
/// samples its datekeys. Lineorder, nearly all the work, stays on the
/// calling thread: its 32-bit columns (24 MB each at SF 1, below glibc's
/// largest mmap threshold) may come from a heap rather than an mmap, and
/// on a generator thread's heap a column freed with a discarded dataset
/// stayed resident, since glibc's `malloc_trim` does not return the top
/// of a thread heap (EXPERIMENTS §32-bit fact columns).
pub fn generate(sf: f64, seed: u64) -> SsbData {
    assert!(sf > 0.0, "scale factor must be positive");
    let (nl, nc, ns, np) = cardinalities(sf);
    let [sc, ss, sp, sl] = table_seeds(seed);
    let date = gen_date();
    let datekeys = date.col("d_datekey").slice();
    let (customer, supplier, part, lineorder) = std::thread::scope(|scope| {
        let hc = scope.spawn(move || gen_customer(nc, &mut Rng::seed_from_u64(sc)));
        let hs = scope.spawn(move || gen_supplier(ns, &mut Rng::seed_from_u64(ss)));
        let hp = scope.spawn(move || gen_part(np, &mut Rng::seed_from_u64(sp)));
        let lineorder = gen_lineorder(nl, nc, ns, np, datekeys, &mut Rng::seed_from_u64(sl));
        (
            hc.join().expect("customer generator panicked"),
            hs.join().expect("supplier generator panicked"),
            hp.join().expect("part generator panicked"),
            lineorder,
        )
    });
    SsbData { lineorder, customer, supplier, part, date, sf }
}

/// The SSB database with the lineorder fact table on disk as paged
/// compressed columns: the dimensions (small at every scale factor) stay
/// in-memory; the fact table is addressed by directory.
#[derive(Debug)]
pub struct PagedSsbData {
    /// Directory holding one `.hefc` v3 file per lineorder column.
    pub dir: std::path::PathBuf,
    pub lineorder_rows: u64,
    pub customer: Table,
    pub supplier: Table,
    pub part: Table,
    pub date: Table,
    pub sf: f64,
}

/// The lineorder column set, in the order [`gen_lineorder`] emits them.
pub const LINEORDER_COLUMNS: [&str; 9] = [
    "lo_custkey",
    "lo_partkey",
    "lo_suppkey",
    "lo_orderdate",
    "lo_quantity",
    "lo_discount",
    "lo_extendedprice",
    "lo_revenue",
    "lo_supplycost",
];

/// Generate the SSB database at `sf` with the lineorder fact streamed
/// straight into paged column files under `dir` — peak memory is one page
/// per column plus the dimensions, so SF 1 (six million rows, nine columns)
/// never materializes in RAM.
///
/// Bit-identity: the lineorder stream draws from the same seeded RNG in the
/// same per-row order as [`generate`]'s in-memory path, so the files decode
/// to exactly the columns `generate(sf, seed)` builds (pinned by
/// `paged_gen_matches_in_memory`).
pub fn generate_paged(
    sf: f64,
    seed: u64,
    dir: &std::path::Path,
    rows_per_page: u32,
) -> std::io::Result<PagedSsbData> {
    assert!(sf > 0.0, "scale factor must be positive");
    let (nl, nc, ns, np) = cardinalities(sf);
    let [sc, ss, sp, sl] = table_seeds(seed);
    std::fs::create_dir_all(dir)?;
    let date = gen_date();
    let customer = gen_customer(nc, &mut Rng::seed_from_u64(sc));
    let supplier = gen_supplier(ns, &mut Rng::seed_from_u64(ss));
    let part = gen_part(np, &mut Rng::seed_from_u64(sp));
    let datekeys = date.col("d_datekey").slice();

    let mut writers = Vec::with_capacity(LINEORDER_COLUMNS.len());
    for col in LINEORDER_COLUMNS {
        writers.push(hef_storage::PagedColumnWriter::create(
            &dir.join(format!("{col}.hefc")),
            col,
            rows_per_page,
        )?);
    }
    // One row at a time, same draw order as `gen_lineorder` — the stream
    // contract that keeps paged and in-memory datasets bit-identical.
    let mut rng = Rng::seed_from_u64(sl);
    for _ in 0..nl {
        let row = [
            rng.gen_range(1..=nc as u64),
            rng.gen_range(1..=np as u64),
            rng.gen_range(1..=ns as u64),
            datekeys.get(rng.gen_range(0..datekeys.len())),
            rng.gen_range(1..=50u64),
            rng.gen_range(0..=10u64),
            {
                let price = rng.gen_range(90_000..=104_949u64) / 100 * 100;
                price
            },
            0, // revenue, filled below (draw order matters, not emit order)
            0, // supplycost, derived
        ];
        let price = row[6];
        let revenue = price * (100 - rng.gen_range(0..=10u64)) / 100;
        let supplycost = price * 6 / 10;
        for (w, v) in writers.iter_mut().zip(
            row[..7].iter().copied().chain([revenue, supplycost]),
        ) {
            w.push(v)?;
        }
    }
    let mut rows = 0u64;
    for w in writers {
        rows = w.finish()?;
    }
    Ok(PagedSsbData {
        dir: dir.to_path_buf(),
        lineorder_rows: rows,
        customer,
        supplier,
        part,
        date,
        sf,
    })
}

/// Single-threaded reference path: same per-table seed streams, same
/// output, no threads. The golden test pins `generate` ≡ `generate_serial`.
pub fn generate_serial(sf: f64, seed: u64) -> SsbData {
    generate_serial_rows(sf, seed, cardinalities(sf).0)
}

/// [`generate_serial`] with `nl` lineorder rows: dimensions at `sf`, for
/// tests that plan full-scale dimensions without scanning the fact.
pub(crate) fn generate_serial_rows(sf: f64, seed: u64, nl: usize) -> SsbData {
    assert!(sf > 0.0, "scale factor must be positive");
    let (_, nc, ns, np) = cardinalities(sf);
    let [sc, ss, sp, sl] = table_seeds(seed);
    let date = gen_date();
    let customer = gen_customer(nc, &mut Rng::seed_from_u64(sc));
    let supplier = gen_supplier(ns, &mut Rng::seed_from_u64(ss));
    let part = gen_part(np, &mut Rng::seed_from_u64(sp));
    let lineorder =
        gen_lineorder(nl, nc, ns, np, date.col("d_datekey").slice(), &mut Rng::seed_from_u64(sl));
    SsbData { lineorder, customer, supplier, part, date, sf }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_dimension_is_fixed_and_calendar_correct() {
        let d = gen_date();
        // 1992..=1998 includes leap years 1992 and 1996: 5*365 + 2*366.
        assert_eq!(d.len(), 5 * 365 + 2 * 366);
        assert_eq!(d.col("d_datekey").get(0), 19_920_101);
        assert_eq!(d.col("d_datekey").get(d.len() - 1), 19_981_231);
        assert!(d.col("d_weeknuminyear").iter().all(|w| (1..=53).contains(&w)));
    }

    #[test]
    fn cardinalities_scale_linearly_and_match_sf1() {
        let (l, c, s, p) = cardinalities(1.0);
        assert_eq!((l, c, s, p), (6_000_000, 30_000, 2_000, 200_000));
        let (l2, ..) = cardinalities(2.0);
        assert_eq!(l2, 12_000_000);
        let (lh, ch, sh, _) = cardinalities(0.01);
        assert_eq!(lh, 60_000);
        assert_eq!(ch, 500); // floor
        assert_eq!(sh, 100); // floor
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(0.001, 42);
        let b = generate(0.001, 42);
        assert_eq!(a.lineorder.col("lo_custkey"), b.lineorder.col("lo_custkey"));
        assert_eq!(a.part.col("p_brand1"), b.part.col("p_brand1"));
        let c = generate(0.001, 43);
        assert_ne!(a.lineorder.col("lo_custkey"), c.lineorder.col("lo_custkey"));
    }

    #[test]
    fn paged_gen_matches_in_memory() {
        let dir = std::env::temp_dir().join("hef-ssb-paged-gen-test");
        std::fs::remove_dir_all(&dir).ok();
        let mem = generate(0.001, 42);
        let paged = generate_paged(0.001, 42, &dir, 1024).unwrap();
        assert_eq!(paged.lineorder_rows, mem.lineorder.len() as u64);
        assert_eq!(paged.customer.col("c_city"), mem.customer.col("c_city"));
        assert_eq!(paged.part.col("p_brand1"), mem.part.col("p_brand1"));
        for col in LINEORDER_COLUMNS {
            let pc = hef_storage::PagedColumn::open(&dir.join(format!("{col}.hefc"))).unwrap();
            let decoded = pc.to_column().unwrap();
            assert_eq!(&decoded, mem.lineorder.col(col), "column {col}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_keys_are_dense_and_in_range() {
        let d = generate(0.001, 7);
        let nc = d.customer.len() as u64;
        assert!(d
            .lineorder
            .col("lo_custkey")
            .iter()
            .all(|k| (1..=nc).contains(&k)));
        let np = d.part.len() as u64;
        assert!(d
            .lineorder
            .col("lo_partkey")
            .iter()
            .all(|k| (1..=np).contains(&k)));
        // Every orderdate is a real datekey.
        let dk: std::collections::HashSet<u64> = d.date.col("d_datekey").iter().collect();
        assert!(d.lineorder.col("lo_orderdate").iter().all(|k| dk.contains(&k)));
    }

    #[test]
    fn attribute_domains() {
        let d = generate(0.001, 7);
        assert!(d.lineorder.col("lo_quantity").iter().all(|q| (1..=50).contains(&q)));
        assert!(d.lineorder.col("lo_discount").iter().all(|x| x <= 10));
        assert!(d.customer.col("c_region").iter().all(|r| r < REGIONS));
        assert!(d.part.col("p_brand1").iter().all(|b| b < BRANDS));
        // Hierarchies hold row-wise.
        for r in 0..d.part.len() {
            assert_eq!(
                d.part.col("p_category").get(r),
                category_of_brand(d.part.col("p_brand1").get(r))
            );
        }
    }
}
