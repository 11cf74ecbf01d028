//! # hef-storage — columnar storage substrate
//!
//! A minimal in-memory column store in the style the paper's evaluation
//! assumes: decomposed (one dense array per attribute), 64-bit integer
//! attributes (the paper: "data analytics systems mainly handle integer data
//! instead of floating-point"; its hash joins are "oriented to 64-bit
//! integers"), row positions addressed through selection vectors.

pub mod cache;
pub mod column;
pub mod file;
pub mod page;
pub mod selection;
pub mod table;

pub use cache::{PageCache, PageKey};
pub use column::{Column, ColumnSlice};
pub use file::{
    load_column, load_column_report, partial_load_marker, save_column, ColumnFileError,
    ColumnFileIssue, LoadedColumn, PartialLoad,
};
pub use page::{save_paged_column, Enc, Page, PagedColumn, PagedColumnWriter};
pub use selection::SelVec;
pub use table::Table;
