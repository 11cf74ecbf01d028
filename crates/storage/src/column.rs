//! Typed columns. Attributes are unsigned integers with signed-compare
//! semantics applied at the operator level where needed. A column stores
//! its values in 32 bits when every value fits and in 64 bits otherwise:
//! the data decides the width at construction, and readers see `u64`
//! values either way ([`Column::get`], [`Column::iter`]) or resolve the
//! stored width once ([`Column::slice`]).

use core::ops::Range;

/// A named dense column of integer values, stored at the narrowest width
/// (32 or 64 bits) that holds all of them.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    data: Data,
}

#[derive(Debug, Clone)]
enum Data {
    U32(Vec<u32>),
    U64(Vec<u64>),
}

/// A column's values at their stored width: what a scan resolves once and
/// then reads without a per-row width test.
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    /// Every value fits 32 bits; readers zero-extend to `u64`.
    U32(&'a [u32]),
    /// At least one value needs 64 bits.
    U64(&'a [u64]),
}

impl<'a> ColumnSlice<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnSlice::U32(s) => s.len(),
            ColumnSlice::U64(s) => s.len(),
        }
    }

    /// `true` when the slice has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `i`, widened to `u64`. Panics out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            ColumnSlice::U32(s) => u64::from(s[i]),
            ColumnSlice::U64(s) => s[i],
        }
    }

    /// The values at positions `rows`.
    pub fn range(&self, rows: Range<usize>) -> ColumnSlice<'a> {
        match *self {
            ColumnSlice::U32(s) => ColumnSlice::U32(&s[rows]),
            ColumnSlice::U64(s) => ColumnSlice::U64(&s[rows]),
        }
    }

    /// The values in order, widened to `u64`.
    pub fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        let (narrow, wide): (&[u32], &[u64]) = match *self {
            ColumnSlice::U32(s) => (s, &[]),
            ColumnSlice::U64(s) => (&[], s),
        };
        narrow.iter().map(|&v| u64::from(v)).chain(wide.iter().copied())
    }

    /// Bytes one stored value occupies (4 or 8).
    pub fn value_bytes(&self) -> usize {
        match self {
            ColumnSlice::U32(_) => 4,
            ColumnSlice::U64(_) => 8,
        }
    }
}

impl Column {
    /// Create a column from its values; stored in 32 bits when every value
    /// fits.
    pub fn new(name: impl Into<String>, data: Vec<u64>) -> Column {
        let data = if data.iter().all(|&v| u32::try_from(v).is_ok()) {
            Data::U32(data.into_iter().map(|v| v as u32).collect())
        } else {
            Data::U64(data)
        };
        Column { name: name.into(), data }
    }

    /// Create a column from 32-bit values, without a copy.
    pub fn from_u32(name: impl Into<String>, data: Vec<u32>) -> Column {
        Column { name: name.into(), data: Data::U32(data) }
    }

    /// Create an empty column with reserved capacity for 32-bit values;
    /// [`Column::push`] widens it when a value needs 64 bits.
    pub fn with_capacity(name: impl Into<String>, cap: usize) -> Column {
        Column { name: name.into(), data: Data::U32(Vec::with_capacity(cap)) }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.slice().len()
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values at their stored width.
    pub fn slice(&self) -> ColumnSlice<'_> {
        match &self.data {
            Data::U32(v) => ColumnSlice::U32(v),
            Data::U64(v) => ColumnSlice::U64(v),
        }
    }

    /// Value `i`, widened to `u64`. Panics out of bounds.
    pub fn get(&self, i: usize) -> u64 {
        self.slice().get(i)
    }

    /// The values in order, widened to `u64`.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.slice().iter()
    }

    /// Append one value; a 32-bit column widens to 64 bits (one pass over
    /// its values) when `v` does not fit.
    pub fn push(&mut self, v: u64) {
        match &mut self.data {
            Data::U32(d) => match u32::try_from(v) {
                Ok(n) => d.push(n),
                Err(_) => {
                    let mut wide: Vec<u64> = Vec::with_capacity(d.capacity().max(d.len() + 1));
                    wide.extend(d.iter().map(|&x| u64::from(x)));
                    wide.push(v);
                    self.data = Data::U64(wide);
                }
            },
            Data::U64(d) => d.push(v),
        }
    }

    /// Gather the values at `rows` (positional take).
    pub fn take(&self, rows: &[u64]) -> Vec<u64> {
        let s = self.slice();
        rows.iter().map(|&r| s.get(r as usize)).collect()
    }

    /// Heap bytes held by this column's values.
    pub fn bytes(&self) -> usize {
        self.len() * self.slice().value_bytes()
    }

    /// A copy of the first `n` rows, at the width they need.
    pub fn head(&self, n: usize) -> Column {
        let n = n.min(self.len());
        match &self.data {
            Data::U32(v) => Column::from_u32(self.name.clone(), v[..n].to_vec()),
            Data::U64(v) => Column::new(self.name.clone(), v[..n].to_vec()),
        }
    }
}

/// Columns are equal when their names and values are, whatever the widths.
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        self.name == other.name && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Column {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let c = Column::new("qty", vec![3, 1, 4, 1, 5]);
        assert_eq!(c.name(), "qty");
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
        assert_eq!(c.get(2), 4);
        assert_eq!(c.bytes(), 20, "five values that fit 32 bits take 4 bytes each");
        assert!(matches!(c.slice(), ColumnSlice::U32(_)));
    }

    #[test]
    fn take_gathers_positionally() {
        let c = Column::new("x", vec![10, 20, 30, 40]);
        assert_eq!(c.take(&[3, 0, 0, 2]), vec![40, 10, 10, 30]);
        assert!(c.take(&[]).is_empty());
    }

    #[test]
    fn push_and_capacity() {
        let mut c = Column::with_capacity("y", 16);
        assert!(c.is_empty());
        c.push(7);
        c.push(8);
        assert_eq!(c.iter().collect::<Vec<_>>(), [7, 8]);
    }

    /// The width boundary: `u32::MAX` stays 32-bit, `u32::MAX + 1` and −1
    /// (stored as `u64::MAX`) need 64 bits, and every value reads back
    /// unchanged at either width.
    #[test]
    fn width_follows_the_data_at_the_32_bit_boundary() {
        let max = u64::from(u32::MAX);
        let narrow = Column::new("n", vec![0, max]);
        assert!(matches!(narrow.slice(), ColumnSlice::U32(_)));
        assert_eq!((narrow.get(1), narrow.bytes()), (max, 8));

        for wide_value in [max + 1, -1i64 as u64] {
            let wide = Column::new("w", vec![max, wide_value]);
            assert!(matches!(wide.slice(), ColumnSlice::U64(_)), "{wide_value:#x}");
            assert_eq!(wide.iter().collect::<Vec<_>>(), [max, wide_value]);
            assert_eq!(wide.bytes(), 16);
        }

        // Pushing past the boundary widens in place and keeps every value.
        let mut c = Column::with_capacity("p", 2);
        c.push(max);
        assert!(matches!(c.slice(), ColumnSlice::U32(_)));
        c.push(max + 1);
        c.push(-1i64 as u64);
        assert!(matches!(c.slice(), ColumnSlice::U64(_)));
        assert_eq!(c.iter().collect::<Vec<_>>(), [max, max + 1, u64::MAX]);

        // Equality is by value, not by stored width; a head that fits
        // narrows again.
        assert_eq!(Column::from_u32("n", vec![0, u32::MAX]), narrow);
        assert!(matches!(c.head(1).slice(), ColumnSlice::U32(_)));
        assert_eq!(c.head(1), Column::new("p", vec![max]));
    }

    #[test]
    fn slices_read_both_widths() {
        let narrow = Column::from_u32("n", vec![5, 6, 7, 8]);
        let wide = Column::new("w", vec![5, 6, 7, 1 << 40]);
        for (c, last) in [(&narrow, 8), (&wide, 1 << 40)] {
            let s = c.slice().range(1..4);
            assert_eq!((s.len(), s.get(0), s.get(2)), (3, 6, last));
            assert_eq!(s.iter().collect::<Vec<_>>(), [6, 7, last]);
        }
        assert_eq!(narrow.slice().value_bytes(), 4);
        assert_eq!(wide.slice().value_bytes(), 8);
    }
}
