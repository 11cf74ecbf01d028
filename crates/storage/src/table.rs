//! Tables: named collections of equal-length columns.

use crate::column::Column;

/// A decomposed (column-oriented) table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>) -> Table {
        Table { name: name.into(), columns: Vec::new() }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a column; panics on length mismatch or duplicate name.
    pub fn add_column(&mut self, col: Column) -> &mut Self {
        if let Some(first) = self.columns.first() {
            assert_eq!(
                first.len(),
                col.len(),
                "{}: column `{}` length mismatch",
                self.name,
                col.name()
            );
        }
        assert!(
            self.column(col.name()).is_none(),
            "{}: duplicate column `{}`",
            self.name,
            col.name()
        );
        self.columns.push(col);
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name() == name)
    }

    /// Column values by name; panics when absent (queries reference fixed
    /// schemas, so absence is a programming error).
    pub fn col(&self, name: &str) -> &[u64] {
        self.column(name)
            .unwrap_or_else(|| panic!("{}: no column `{name}`", self.name))
            .values()
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Total heap bytes of all columns.
    pub fn bytes(&self) -> usize {
        self.columns.iter().map(Column::bytes).sum()
    }

    /// A copy of the first `n` rows.
    pub fn head(&self, n: usize) -> Table {
        let n = n.min(self.len());
        let mut t = Table::new(self.name.clone());
        for c in &self.columns {
            t.add_column(Column::new(c.name(), c.values()[..n].to_vec()));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        let mut t = Table::new("part");
        t.add_column(Column::new("key", vec![1, 2, 3]));
        t.add_column(Column::new("size", vec![10, 20, 30]));
        t
    }

    #[test]
    fn lookup_and_len() {
        let t = t();
        assert_eq!(t.len(), 3);
        assert_eq!(t.col("size"), &[10, 20, 30]);
        assert!(t.column("missing").is_none());
        assert_eq!(t.bytes(), 48);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_column_rejected() {
        let mut t = t();
        t.add_column(Column::new("bad", vec![1]));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_rejected() {
        let mut t = t();
        t.add_column(Column::new("key", vec![7, 8, 9]));
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn missing_column_panics() {
        t().col("ghost");
    }
}
