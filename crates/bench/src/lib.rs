//! # hef-bench — the reproduction harness
//!
//! Shared machinery for regenerating every table and figure of the paper's
//! evaluation (§V): wall-clock measurement on the build machine, and
//! modeled `perf`-style counters on the paper's two Xeon models via
//! `hef-uarch` (the documented substitution for `perf_event` on hardware
//! this reproduction does not control).
//!
//! The entry point users run is the `repro` binary
//! (`cargo run --release -p hef-bench --bin repro -- <experiment>`); the
//! Criterion benches under `benches/` mirror the same rows with
//! statistically grounded timing.

pub mod config;
pub mod counters;
pub mod measure;
pub mod pipeline;
pub mod playoff;
pub mod report;
pub mod snapshot;
pub mod trend;

pub use config::{exec_config, registry_from_env, tuned_hybrid};
pub use counters::{model_kernel, model_query, QueryCounters};
pub use measure::{measure_kernel, measure_query, Measured};
pub use pipeline::{neighbour_rows, pipeline_row};
pub use report::TableWriter;
pub use snapshot::BenchSnapshot;
pub use trend::{TrendReport, TrendSeries};
