//! # hef-engine — vectorized query engine
//!
//! The evaluation substrate of the paper's §V: a star-schema executor with
//! the VIP-style operator, pipeline, and materialization strategy the paper
//! adopts as its baseline configuration ("we use the operator, pipeline, and
//! the materialization strategy described in VIP"), executing in four
//! flavors:
//!
//! * **Scalar** — every kernel at `(v=0, s=1, p=1)`;
//! * **Simd** — every kernel at `(v=1, s=0, p=1)`;
//! * **Hybrid** — kernels at HEF-tuned `(v, s, p)` nodes (the paper's SSB
//!   optimum is one SIMD + one scalar statement with pack 3);
//! * **Voila** — a from-scratch comparator reproducing the Voila
//!   configuration the paper benchmarks (`vector(1024)`, full
//!   materialization between operators, software prefetching); see
//!   [`voila`].
//!
//! Star queries ([`StarPlan`]) filter dimension tables into large
//! linear-probe hash tables keyed by the join key with small *group codes*
//! as payloads, then pipeline the fact table through the probes batch by
//! batch with selection vectors, and finish with a dense grouped
//! aggregation.

pub mod dynamic;
pub mod govern;
pub mod ops;
pub mod paged;
pub mod parallel;
pub mod pipeline_plan;
pub mod plan;
pub mod star;
pub mod voila;

pub use dynamic::{
    choose_flavor, execute_star_dynamic, try_choose_flavor, try_choose_flavor_cancellable,
    try_execute_star_dynamic, try_execute_star_dynamic_cancellable, Selection,
};
pub use govern::{
    estimate_query_bytes, try_execute_star_with_retry, with_governor, BudgetTracker, CancelToken,
    DegradeAction, Governor, GovernorConfig, Interrupt, QueryCtx, MIN_BATCH,
};
pub use ops::{gather_keys, grouped_accumulate};
pub use paged::{try_execute_star_paged_ctx, PagedTable, PagedTableError};
pub use parallel::{
    execute_star_parallel, resolve_threads, resolve_threads_governed, try_execute_star_parallel,
    ExecError, ExecReport,
};
pub use pipeline_plan::{apply_pipeline_entry, conflicting_stages, first_per_slot};
pub use plan::{
    lower, optimize, parse_plan, render_plan, Catalog, GroupBy, JoinBuilder, JoinSpec, KeyExpr,
    LogicalPlan, Node, OptReport, PlanBuilder, PlanError, Pred,
};
pub use star::{
    build_dimension, execute_star, try_execute_star, try_execute_star_cancellable,
    validate_star_plan, DimJoin, ExecConfig, ExecStats, Flavor, Measure, QueryOutput, RangeFilter,
    StarPlan,
};

pub use hef_kernels::{HybridConfig, ProbeTable, MISS};
