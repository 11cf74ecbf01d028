//! The statistics catalog: table resolution plus lazy per-column stats
//! (`min`/`max`/`ndv`) that seed the optimizer's selectivity estimates.
//!
//! Stats are computed on first request and memoized, so building a catalog
//! is free and a plan only pays for the columns its predicates actually
//! reference. Distinct counts are exact for tables up to [`NDV_EXACT_ROWS`]
//! rows (every dimension at realistic scale factors); larger tables (the
//! fact table) fall back to the value-range width, which is the right
//! proxy for the dense dictionary codes this engine stores.

use std::cell::RefCell;
use std::collections::BTreeMap;

use hef_storage::{ColumnSlice, Table};

/// Row-count ceiling for exact (sort-dedup) distinct counting.
pub const NDV_EXACT_ROWS: usize = 1 << 20;

/// Summary statistics of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColStats {
    /// Minimum value (signed view, matching the filter kernel semantics).
    pub min: i64,
    /// Maximum value (signed view).
    pub max: i64,
    /// Number of distinct values (exact for small tables, range-width
    /// estimate for large ones). At least 1 for any non-empty column.
    pub ndv: u64,
}

impl ColStats {
    /// Width of the value range, `max - min + 1` (≥ 1).
    pub fn width(&self) -> u64 {
        (self.max - self.min).max(0) as u64 + 1
    }
}

/// Per-table statistics: row count plus cached column stats.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub rows: usize,
    cols: BTreeMap<String, ColStats>,
}

/// Table registry + lazy statistics for one star schema: a fact table and
/// its dimensions. Borrows the tables; build one per planning call.
pub struct Catalog<'a> {
    fact: &'a Table,
    dims: Vec<&'a Table>,
    stats: RefCell<BTreeMap<String, TableStats>>,
}

impl<'a> Catalog<'a> {
    /// Build a catalog over a fact table and its dimension tables.
    pub fn new(fact: &'a Table, dims: &[&'a Table]) -> Catalog<'a> {
        Catalog { fact, dims: dims.to_vec(), stats: RefCell::new(BTreeMap::new()) }
    }

    /// The fact table.
    pub fn fact(&self) -> &'a Table {
        self.fact
    }

    /// Resolve a table by name (fact or dimension).
    pub fn table(&self, name: &str) -> Option<&'a Table> {
        if self.fact.name() == name {
            return Some(self.fact);
        }
        self.dims.iter().copied().find(|t| t.name() == name)
    }

    /// Stats for `table.column`, computed on first use. `None` when the
    /// table or column does not exist, or the column is empty.
    pub fn col_stats(&self, table: &str, column: &str) -> Option<ColStats> {
        if let Some(ts) = self.stats.borrow().get(table) {
            if let Some(cs) = ts.cols.get(column) {
                return Some(*cs);
            }
        }
        let t = self.table(table)?;
        let (min, max, ndv) = match t.column(column)?.slice() {
            ColumnSlice::U32(v) => value_stats(v)?,
            ColumnSlice::U64(v) => value_stats(v)?,
        };
        let cs = ColStats { min, max, ndv: ndv.max(1) };
        let mut stats = self.stats.borrow_mut();
        let ts = stats.entry(table.to_string()).or_insert_with(|| TableStats {
            rows: t.len(),
            cols: BTreeMap::new(),
        });
        ts.cols.insert(column.to_string(), cs);
        Some(cs)
    }

    /// Row count of a table, or `None` if unknown.
    pub fn rows(&self, table: &str) -> Option<usize> {
        self.table(table).map(Table::len)
    }
}

/// `(min, max, ndv)` of a column's stored values, read in place at their
/// width; `None` when empty.
fn value_stats<T: Copy + Ord + Into<u64>>(values: &[T]) -> Option<(i64, i64, u64)> {
    if values.is_empty() {
        return None;
    }
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for &v in values {
        let v = v.into() as i64;
        min = min.min(v);
        max = max.max(v);
    }
    let ndv = if values.len() <= NDV_EXACT_ROWS {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len() as u64
    } else {
        // Dense-code proxy: distinct count ≈ range width.
        ((max - min).max(0) as u64 + 1).min(values.len() as u64)
    };
    Some((min, max, ndv))
}

#[cfg(test)]
mod tests {
    use hef_storage::Column;

    use super::*;

    fn tables() -> (Table, Table) {
        let mut fact = Table::new("fact");
        fact.add_column(Column::new("fk", vec![0, 1, 2, 1, 0, 2]));
        fact.add_column(Column::new("m", vec![5, 6, 7, 8, 9, 10]));
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", vec![0, 1, 2]));
        dim.add_column(Column::new("attr", vec![7, 7, 9]));
        (fact, dim)
    }

    #[test]
    fn resolves_tables_and_stats() {
        let (fact, dim) = tables();
        let cat = Catalog::new(&fact, &[&dim]);
        assert_eq!(cat.table("fact").unwrap().name(), "fact");
        assert_eq!(cat.table("dim").unwrap().name(), "dim");
        assert!(cat.table("ghost").is_none());

        let cs = cat.col_stats("dim", "attr").unwrap();
        assert_eq!((cs.min, cs.max, cs.ndv), (7, 9, 2));
        assert_eq!(cs.width(), 3);
        // Memoized path returns the same answer.
        assert_eq!(cat.col_stats("dim", "attr").unwrap(), cs);
        assert!(cat.col_stats("dim", "ghost").is_none());
        assert_eq!(cat.rows("fact"), Some(6));
    }

    #[test]
    fn signed_view_of_large_values() {
        let mut t = Table::new("t");
        t.add_column(Column::new("c", vec![u64::MAX, 0, 3])); // -1, 0, 3
        let cat = Catalog::new(&t, &[]);
        let cs = cat.col_stats("t", "c").unwrap();
        assert_eq!((cs.min, cs.max, cs.ndv), (-1, 3, 3));
    }
}
