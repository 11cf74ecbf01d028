//! # hef-core — the Hybrid Execution Framework
//!
//! The framework of "Co-Utilizing SIMD and Scalar to Accelerate the Data
//! Analytics Workloads" (ICDE 2023), §III–IV: operators are written once in
//! the *hybrid intermediate description*; HEF finds, per processor, the best
//! mixture of `v` SIMD statements and `s` scalar statements per *pack* of
//! depth `p`, then queries are assembled from the tuned operators.
//!
//! Components (one module per box of the paper's Fig. 4):
//!
//! * [`ir`] — operator templates: small statement lists over HID ops
//!   ([`hef_hid::desc::HidOp`]) and hybrid variables.
//! * [`templates`] — the built-in operator templates (MurmurHash, CRC64,
//!   hash probe, filter, aggregation), matching the kernels compiled in
//!   `hef-kernels`.
//! * [`translate`] — the **translator** (Algorithm 1): expands a template
//!   for a concrete `(v, s, p)` into (a) a target-code listing exactly in
//!   the shape of the paper's Fig. 6(b)/(c), and (b) a µop loop trace for
//!   the `hef-uarch` simulator.
//! * [`candidate`] — the **candidate generator** (§IV.A): the two-stage
//!   model that derives the initial node from pipeline counts and the
//!   latency/throughput table, including the paper's
//!   `min{32/throughput, 32/max(s·3, v·argc)}` pack rule.
//! * [`optimizer`] — the **optimizer** (Algorithm 2): test-based neighbour
//!   search with winner/loser classification and monotone pruning, over a
//!   pluggable [`optimizer::CostEvaluator`] (measured on this machine, or
//!   simulated on a modeled CPU).
//! * [`space`] — the search-space size of §II.C (Eq. 1–2) and the pruning
//!   accounting used by the ablation benchmarks.
//! * [`tuner`] — the offline-phase facade: template + CPU → tuned
//!   configuration.
//! * [`registry`] — the persistent text format for tuned results, so the
//!   offline phase runs once per processor.
//! * [`parse`] — the textual operator-template language of §IV.B, so new
//!   operators are written as strings in a template file, exactly as the
//!   paper describes.

pub mod candidate;
pub mod error;
pub mod ir;
pub mod optimizer;
pub mod parse;
pub mod registry;
pub mod space;
pub mod templates;
pub mod translate;
pub mod tuner;

pub use candidate::initial_candidate;
pub use error::{on_grid, HefError};
pub use ir::{Operand, OperatorTemplate, Stmt};
pub use optimizer::{
    optimize, try_neighbors, CostEvaluator, MeasuredCost, SearchOutcome, SimulatedCost,
    SpikedCost,
};
pub use parse::{parse_file, parse_template, render_template};
pub use registry::{PipelineEntry, Registry, RegistryIssue, WarmReport};
pub use translate::{translate, to_loop_body, try_to_loop_body, try_translate, TargetCode};
pub use tuner::{
    measure_drift, predicted_cycles_per_row, try_tune_source, try_tune_template, tune_measured,
    tune_simulated, DriftRecord, TunedOperator,
};

pub use hef_kernels::{Family, HybridConfig};
