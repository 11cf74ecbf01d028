//! Logical star-query plans: a small IR ahead of the tuned executor.
//!
//! The executor's [`StarPlan`](crate::star::StarPlan) is a *physical* plan:
//! probe tables are already built, probe order is fixed, and group ids are
//! already encoded. This module adds the missing front end — a logical IR
//! of `Scan / Filter / Join / Project / Agg` nodes ([`ir`]), a line-oriented
//! text form ([`text`]), a statistics catalog ([`catalog`]), a rewrite
//! optimizer ([`optimize`]), and a lowering step ([`lower`]) that compiles
//! the logical plan onto the existing pipelines — so arbitrary star queries
//! reuse every tuned `(v, s, p)` registry node, the morsel scheduler, and
//! the obs spans unchanged.
//!
//! The optimizer applies three rewrite rules (in the spirit of lightweight
//! rewrite-based optimization layered over a fixed executor):
//!
//! 1. **Predicate pushdown** — every `Filter` node sinks into the `Scan`,
//!    ordered most-selective-first (`filter(scan(t))` → `scan(t, filter)`);
//! 2. **Join reordering** — dimension joins are probed in ascending
//!    estimated selectivity, seeded from dimension-table cardinalities and
//!    filter ranges; declared order breaks ties, and group-id encoding
//!    follows the *declared* order (via [`StarPlan::strides`]), so
//!    reordering can never change results;
//! 3. **Projection pruning** — the scan's column set shrinks to exactly the
//!    columns the plan consumes.
//!
//! Lowering an *unoptimized* plan is also supported (the "naive" lowering:
//! declared join order, no pushdown) and must be bit-identical to the
//! optimized lowering — the planner differential suite pins this down.
//!
//! [`StarPlan::strides`]: crate::star::StarPlan::strides

pub mod catalog;
pub mod ir;
pub mod lower;
pub mod optimize;
pub mod text;

pub use catalog::{Catalog, ColStats, TableStats};
pub use ir::{GroupBy, JoinBuilder, JoinSpec, KeyExpr, LogicalPlan, Node, PlanBuilder, Pred};
pub use lower::lower;
pub use optimize::{optimize, OptReport};
pub use text::{parse_plan, render_plan};

/// Typed planner failure: parsing, shape validation, resolution against a
/// catalog, or a construct the physical pipelines cannot express.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The text form failed to parse (1-based line number).
    Parse { line: usize, message: String },
    /// The node tree is not a star query (one scan, filter/join/project
    /// chain, one aggregation at the root).
    Shape(String),
    /// A table name did not resolve against the catalog.
    UnknownTable(String),
    /// A column name did not resolve against its table.
    UnknownColumn { table: String, column: String },
    /// A projection drops a column the plan still consumes above it.
    Projection { column: String },
    /// A group key produced a code `>= groups` for a surviving row.
    BadGroup { table: String, message: String },
    /// Valid IR that the tuned pipelines cannot execute (e.g. a
    /// non-contiguous `IN` on a fact column, which has no single range
    /// filter kernel).
    Unsupported(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Parse { line, message } => write!(f, "parse error, line {line}: {message}"),
            PlanError::Shape(m) => write!(f, "not a star query: {m}"),
            PlanError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            PlanError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            PlanError::Projection { column } => {
                write!(f, "projection drops column `{column}` the plan still consumes")
            }
            PlanError::BadGroup { table, message } => {
                write!(f, "bad group key on `{table}`: {message}")
            }
            PlanError::Unsupported(m) => write!(f, "unsupported by the pipelines: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}
