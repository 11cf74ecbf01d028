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
//! Star queries ([`StarPlan`]) filter dimension tables into join indexes
//! keyed by the join key with small *group codes* as payloads — a
//! direct-addressed array when the selected keys form a dense range (every
//! SSB dimension up to SF 1), else a linear-probe hash table — then
//! pipeline the fact table through the probes batch by batch with
//! selection vectors, and finish with a dense grouped aggregation.
//!
//! Queries run through an [`Engine`] — the value that owns the governor,
//! the tuned pipeline rows, the run overrides and the fault schedule — via
//! [`Engine::execute`], for in-memory and paged fact tables alike.
//! [`execute_star`], [`try_execute_star`] and [`try_execute_star_paged_ctx`]
//! run one query on [`Engine::default`].

mod engine;
pub mod govern;
pub mod ops;
pub mod paged;
pub mod parallel;
pub mod pipeline_plan;
pub mod plan;
pub mod star;
pub mod voila;

pub use engine::{Engine, Fact};
pub use govern::{
    estimate_paged_query_bytes, estimate_query_bytes, BudgetTracker, CancelToken, DegradeAction,
    Governor, GovernorConfig, Interrupt, QueryCtx, MIN_BATCH,
};
pub use ops::grouped_accumulate;
pub use paged::{try_execute_star_paged_ctx, PagedTable, PagedTableError};
pub use parallel::{resolve_threads, resolve_threads_governed, ExecError, ExecReport};
pub use pipeline_plan::{apply_pipeline_entry, conflicting_stages};
pub use plan::{
    lower, optimize, parse_plan, render_plan, Catalog, GroupBy, JoinBuilder, JoinSpec, KeyExpr,
    LogicalPlan, Node, OptReport, PlanBuilder, PlanError, Pred,
};
pub use star::{
    build_dimension, execute_star, join_table_budget, try_execute_star, DimJoin, ExecConfig,
    ExecStats, Flavor, JoinIndex, Measure, QueryOutput, RangeFilter, StarPlan,
};

pub use hef_kernels::{DenseIndex, HybridConfig, ProbeTable, MISS};
