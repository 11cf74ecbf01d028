//! Star-query plans and the VIP-style pipelined executor.

use std::ops::Range;

use hef_hid::Backend;
use hef_kernels::{DenseIndex, Family, HybridConfig, Kernel, KernelIo, ProbeTable};
use hef_obs::metrics::{Hist, Metric, Tally};
use hef_obs::trace::SpanGuard;
use hef_storage::Table;
use hef_testutil::fault::EngineFaults;

use crate::govern::QueryCtx;
use crate::ops::{compact_hits, gather_keys, grouped_accumulate};
use crate::parallel::{MorselWorker, Scan, Stop};

/// Execution flavor (the four bars of the paper's Figs. 8–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    Scalar,
    Simd,
    Hybrid,
    Voila,
}

impl Flavor {
    pub fn name(self) -> &'static str {
        match self {
            Flavor::Scalar => "scalar",
            Flavor::Simd => "simd",
            Flavor::Hybrid => "hybrid",
            Flavor::Voila => "voila",
        }
    }

    /// All flavors in the paper's plotting order.
    pub const ALL: [Flavor; 4] = [Flavor::Scalar, Flavor::Simd, Flavor::Voila, Flavor::Hybrid];
}

/// Per-kernel-family configurations for one execution flavor.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    pub flavor: Flavor,
    pub filter: HybridConfig,
    pub probe: HybridConfig,
    pub agg: HybridConfig,
    /// Node for the selective-gather (take) kernel between operators.
    pub gather: HybridConfig,
    /// Node for the compressed-page decode kernel (paged scans only; the
    /// in-memory path never dispatches it).
    pub decode: HybridConfig,
    pub backend: Backend,
    /// Rows per pipeline batch (the paper/VIP use ~vector-register-friendly
    /// batches; Voila uses 1024).
    pub batch: usize,
    /// Worker threads for the morsel-driven parallel executor. `0` resolves
    /// at execution time: the engine's thread count if it has one, else
    /// `std::thread::available_parallelism()`.
    pub threads: usize,
    /// Per-query deadline in milliseconds (`0` = none). Checked at every
    /// morsel claim and batch boundary; an expired deadline surfaces as
    /// typed [`crate::parallel::ExecError::DeadlineExceeded`]. An engine
    /// deadline override wins.
    pub deadline_ms: u64,
}

impl ExecConfig {
    /// Purely scalar execution.
    pub fn scalar() -> ExecConfig {
        ExecConfig {
            flavor: Flavor::Scalar,
            filter: HybridConfig::SCALAR,
            probe: HybridConfig::SCALAR,
            agg: HybridConfig::SCALAR,
            gather: HybridConfig::SCALAR,
            decode: HybridConfig::SCALAR,
            backend: Backend::native(),
            batch: 1024,
            threads: 0,
            deadline_ms: 0,
        }
    }

    /// Purely SIMD execution.
    pub fn simd() -> ExecConfig {
        ExecConfig {
            flavor: Flavor::Simd,
            filter: HybridConfig::SIMD,
            probe: HybridConfig::SIMD,
            agg: HybridConfig::SIMD,
            gather: HybridConfig::SIMD,
            decode: HybridConfig::SIMD,
            backend: Backend::native(),
            batch: 1024,
            threads: 0,
            deadline_ms: 0,
        }
    }

    /// Hybrid execution at the paper's SSB optimum — one SIMD and one scalar
    /// statement, pack 3 — unless the caller supplies tuned nodes.
    pub fn hybrid_default() -> ExecConfig {
        let n113 = HybridConfig::new(1, 1, 3);
        ExecConfig {
            flavor: Flavor::Hybrid,
            filter: n113,
            probe: n113,
            agg: n113,
            gather: n113,
            decode: n113,
            backend: Backend::native(),
            batch: 1024,
            threads: 0,
            deadline_ms: 0,
        }
    }

    /// Hybrid execution with explicitly tuned per-family nodes.
    pub fn hybrid(filter: HybridConfig, probe: HybridConfig, agg: HybridConfig) -> ExecConfig {
        ExecConfig {
            flavor: Flavor::Hybrid,
            filter,
            probe,
            agg,
            gather: probe,
            decode: filter,
            backend: Backend::native(),
            batch: 1024,
            threads: 0,
            deadline_ms: 0,
        }
    }

    /// The Voila comparator (the flavor tag routes in-memory execution to
    /// the Voila worker in [`crate::voila`]; kernel configs are unused).
    pub fn voila() -> ExecConfig {
        ExecConfig {
            flavor: Flavor::Voila,
            filter: HybridConfig::SCALAR,
            probe: HybridConfig::SCALAR,
            agg: HybridConfig::SCALAR,
            gather: HybridConfig::SCALAR,
            decode: HybridConfig::SCALAR,
            backend: Backend::native(),
            batch: 1024,
            threads: 0,
            deadline_ms: 0,
        }
    }

    /// Hybrid execution with a tuned node for every kernel family the
    /// pipeline dispatches (filter, probe, aggregation, gather).
    pub fn hybrid_tuned(
        filter: HybridConfig,
        probe: HybridConfig,
        agg: HybridConfig,
        gather: HybridConfig,
    ) -> ExecConfig {
        ExecConfig { gather, ..ExecConfig::hybrid(filter, probe, agg) }
    }

    /// The config for a flavor with defaults.
    pub fn for_flavor(flavor: Flavor) -> ExecConfig {
        match flavor {
            Flavor::Scalar => ExecConfig::scalar(),
            Flavor::Simd => ExecConfig::simd(),
            Flavor::Hybrid => ExecConfig::hybrid_default(),
            Flavor::Voila => ExecConfig::voila(),
        }
    }

    /// Builder-style thread-count override (`0` = auto, see
    /// [`ExecConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> ExecConfig {
        self.threads = threads;
        self
    }

    /// Builder-style decode-node override (paged scans).
    pub fn with_decode(mut self, decode: HybridConfig) -> ExecConfig {
        self.decode = decode;
        self
    }

    /// Returns `self` unchanged: there is no prefetch depth to set. Kept
    /// for `hefbench/src/workload.rs`, which still passes one.
    pub fn with_probe_prefetch(self, _f: usize) -> ExecConfig {
        self
    }

    /// Builder-style batch-size override.
    pub fn with_batch(mut self, batch: usize) -> ExecConfig {
        self.batch = batch.max(1);
        self
    }

    /// Builder-style deadline override (`0` = none, see
    /// [`ExecConfig::deadline_ms`]).
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> ExecConfig {
        self.deadline_ms = deadline_ms;
        self
    }
}

/// A range predicate on a fact-table column (signed semantics).
#[derive(Debug, Clone)]
pub struct RangeFilter {
    pub col: String,
    pub lo: u64,
    pub hi: u64,
}

/// One dimension join: a pre-built join index whose payloads are dense
/// group codes in `0..groups`.
#[derive(Debug, Clone)]
pub struct DimJoin {
    /// Fact-table foreign-key column name.
    pub fk_col: String,
    /// The index over the (filtered) dimension keys (see
    /// [`build_dimension`] for which kind a dimension gets).
    pub index: JoinIndex,
    /// Number of distinct group codes this dimension contributes
    /// (1 = pure filter, payload 0).
    pub groups: usize,
    /// Dimension name for reports.
    pub name: String,
}

/// A dimension's join index. Every flavor and every reference probes a
/// dimension through this one value.
#[derive(Debug, Clone)]
pub enum JoinIndex {
    /// Direct-addressed payloads for a dense key range: the stage loop
    /// probes it with the fused clamp-gather-compact kernel
    /// ([`KernelIo::DenseProbe`]). No hash table exists for it.
    Dense(DenseIndex),
    /// A hash table over the keys, `probe_slots` slots, for a wide or
    /// sparse key domain.
    Hashed(ProbeTable),
}

impl JoinIndex {
    /// Payload for `key`, or [`MISS`](hef_kernels::MISS).
    #[inline(always)]
    pub fn probe_scalar(&self, key: u64) -> u64 {
        match self {
            JoinIndex::Dense(d) => d.probe_scalar(key),
            JoinIndex::Hashed(h) => h.probe_scalar(key),
        }
    }

    /// Number of keys with a payload.
    pub fn len(&self) -> usize {
        match self {
            JoinIndex::Dense(d) => d.len(),
            JoinIndex::Hashed(h) => h.len(),
        }
    }

    /// `true` when no key has a payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes a probe touches: the payload array, or the flat hash table.
    pub fn working_set_bytes(&self) -> usize {
        match self {
            JoinIndex::Dense(d) => d.working_set_bytes(),
            JoinIndex::Hashed(h) => h.working_set_bytes(),
        }
    }

    /// The hash table, `None` for a dense index.
    pub fn hashed(&self) -> Option<&ProbeTable> {
        match self {
            JoinIndex::Dense(_) => None,
            JoinIndex::Hashed(h) => Some(h),
        }
    }

    /// `true` for a direct-addressed index.
    pub fn is_dense(&self) -> bool {
        matches!(self, JoinIndex::Dense(_))
    }

    /// Where the probe of `key` starts: its clamped slot, or its hash
    /// table's home slot. Pairs with [`JoinIndex::prefetch`] and
    /// [`JoinIndex::probe_at`], so a prefetching engine splits the probe
    /// into passes.
    #[inline(always)]
    pub fn slot_of(&self, key: u64) -> usize {
        match self {
            JoinIndex::Dense(d) => d.slot_of(key),
            JoinIndex::Hashed(h) => h.slot_of(key),
        }
    }

    /// Software-prefetch the lines a probe at `slot` reads.
    #[inline(always)]
    pub fn prefetch(&self, slot: usize) {
        match self {
            JoinIndex::Dense(d) => d.prefetch(slot),
            JoinIndex::Hashed(h) => h.prefetch(slot),
        }
    }

    /// Payload for `key` from its [`JoinIndex::slot_of`] slot, or
    /// [`MISS`](hef_kernels::MISS).
    #[inline(always)]
    pub fn probe_at(&self, slot: usize, key: u64) -> u64 {
        match self {
            JoinIndex::Dense(d) => d.pays()[slot],
            JoinIndex::Hashed(h) => h.probe_at(slot, key),
        }
    }
}

/// The aggregate of the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Measure {
    /// `sum(col)`
    Sum(String),
    /// `sum(a * b)` (e.g. `lo_extendedprice * lo_discount`)
    SumProduct(String, String),
    /// `sum(a - b)` (e.g. `lo_revenue - lo_supplycost`)
    SumDiff(String, String),
}

impl Measure {
    /// The fact columns the measure reads, in operand order.
    pub(crate) fn columns(&self) -> Vec<&str> {
        match self {
            Measure::Sum(a) => vec![a],
            Measure::SumProduct(a, b) | Measure::SumDiff(a, b) => vec![a, b],
        }
    }
}

/// A star query over one fact table.
#[derive(Debug, Clone)]
pub struct StarPlan {
    pub name: String,
    pub filters: Vec<RangeFilter>,
    /// Probe order — most selective dimension first, as the SSB plans do.
    pub dims: Vec<DimJoin>,
    pub measure: Measure,
    /// Group-id stride per dimension, aligned with `dims` (probe order).
    /// A row's group id is `Σ pay_i * strides[i]`. Empty = the legacy
    /// mixed-radix encoding over the probe order itself (`stride_i =
    /// Π groups_j for j > i`). The planner sets strides from the *declared*
    /// join order so optimizer join reordering never changes group ids.
    pub strides: Vec<u64>,
}

impl StarPlan {
    /// Total number of group cells (product of per-dimension group counts).
    pub fn group_cells(&self) -> usize {
        self.dims.iter().map(|d| d.groups.max(1)).product::<usize>().max(1)
    }

    /// Effective per-dimension group-id strides (see [`StarPlan::strides`]):
    /// the explicit strides when set, else the legacy probe-order
    /// mixed-radix strides.
    pub fn gid_strides(&self) -> Vec<u64> {
        if !self.strides.is_empty() {
            return self.strides.clone();
        }
        let mut strides = vec![1u64; self.dims.len()];
        let mut acc = 1u64;
        for (i, d) in self.dims.iter().enumerate().rev() {
            strides[i] = acc;
            acc = acc.wrapping_mul(d.groups.max(1) as u64);
        }
        strides
    }
}

/// Execution statistics, consumed by the `hef-uarch` counter assembly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub rows_scanned: u64,
    pub rows_after_filter: u64,
    /// Keys probed per dimension (in plan order).
    pub probes: Vec<u64>,
    /// Hits per dimension.
    pub hits: Vec<u64>,
    /// Probe-table working-set bytes per dimension.
    pub table_bytes: Vec<usize>,
    /// Rows reaching the aggregation.
    pub rows_aggregated: u64,
    /// Values copied into materialized intermediates (zero for the
    /// selection-vector pipeline; large for the Voila comparator — the
    /// instruction-count inflation the paper observes in Table V).
    pub materialized: u64,
}

/// Result of executing a star plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// Dense group accumulators (length = `plan.group_cells()`).
    pub groups: Vec<u64>,
    pub stats: ExecStats,
}

impl QueryOutput {
    /// Non-empty groups as `(group id, sum)`.
    pub fn results(&self) -> Vec<(u64, u64)> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(g, &v)| (g as u64, v))
            .collect()
    }

    /// Grand total over all groups.
    pub fn total(&self) -> u64 {
        self.groups.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }
}

/// Bytes a dimension's hash table may grow to: half the L2 of the `host`
/// CPU model, the other half left to the probe stream.
pub fn join_table_budget() -> usize {
    hef_uarch::CpuModel::host().l2.bytes / 2
}

/// Slots of the flat table for a build side of `n` entries: the fewest at
/// load factor ≤ 1/2 ([`ProbeTable::min_slots`]), doubled at most twice —
/// to load ≤ 1/8 — while the table (16 B a slot) stays within `budget`.
/// The paper's "large linear hash table … to reduce the conflicts" (§V): in
/// a sparser table more probes, and most misses, end at the home slot. A
/// table already over `budget` keeps its size.
pub(crate) fn probe_slots(n: usize, budget: usize) -> usize {
    let mut slots = ProbeTable::min_slots(n);
    for _ in 0..2 {
        if slots * 2 * 16 > budget {
            break;
        }
        slots *= 2;
    }
    slots
}

/// Build a [`DimJoin`] from a dimension table: rows passing `predicate` are
/// indexed as `key → group code` where the code is produced by `payload`
/// (must return values `< groups`).
///
/// The index rule: when the selected keys span `lo..=hi` and the payload
/// array, `(hi − lo + 2) × 8` bytes, fits in the larger of the flat hash
/// table's bytes and 4 × [`join_table_budget`], the dimension gets a
/// [`JoinIndex::Dense`] array. Otherwise it gets a hash table of
/// `probe_slots` slots.
pub fn build_dimension(
    dim: &Table,
    key_col: &str,
    predicate: impl Fn(usize) -> bool,
    payload: impl Fn(usize) -> u64,
    groups: usize,
    fk_col: &str,
) -> DimJoin {
    let keys = dim.col(key_col);
    let pairs: Vec<(u64, u64)> = (0..dim.len())
        .filter(|&r| predicate(r))
        .map(|r| {
            let code = payload(r);
            debug_assert!(
                (code as usize) < groups.max(1),
                "group code {code} out of range {groups}"
            );
            (keys[r], code)
        })
        .collect();
    let budget = join_table_budget();
    let slots = probe_slots(pairs.len(), budget);
    let dense_cap = slots.saturating_mul(16).max(budget.saturating_mul(4));
    let index = match DenseIndex::build(&pairs, dense_cap) {
        Some(dense) => JoinIndex::Dense(dense),
        None => {
            let mut table = ProbeTable::with_slots(slots);
            for &(key, code) in &pairs {
                table.insert(key, code);
            }
            JoinIndex::Hashed(table)
        }
    };
    DimJoin {
        fk_col: fk_col.to_string(),
        index,
        groups: groups.max(1),
        name: dim.name().to_string(),
    }
}

/// Check a physical plan against the fact table before execution: every
/// referenced column must exist (`has_col` answers for the in-memory or
/// paged table) and explicit group-id strides must be consistent with the
/// group-cell count. Returns a typed
/// [`ExecError::BadPlan`](crate::parallel::ExecError) instead of letting a
/// worker thread hit the inconsistency as a panic mid-query.
pub(crate) fn validate_star_plan(
    plan: &StarPlan,
    fact_name: &str,
    has_col: impl Fn(&str) -> bool,
) -> Result<(), crate::parallel::ExecError> {
    let bad = |message: String| crate::parallel::ExecError::BadPlan {
        query: plan.name.clone(),
        message,
    };
    let need = |what: &str, col: &str| -> Result<(), crate::parallel::ExecError> {
        if !has_col(col) {
            return Err(bad(format!(
                "{what} references column `{col}`, absent from fact table `{fact_name}`"
            )));
        }
        Ok(())
    };
    for f in &plan.filters {
        need("filter", &f.col)?;
    }
    for d in &plan.dims {
        need(&format!("join `{}`", d.name), &d.fk_col)?;
    }
    for col in plan.measure.columns() {
        need("measure", col)?;
    }
    if !plan.strides.is_empty() {
        if plan.strides.len() != plan.dims.len() {
            return Err(bad(format!(
                "{} strides for {} dimensions",
                plan.strides.len(),
                plan.dims.len()
            )));
        }
        let cells = plan.group_cells() as u64;
        let mut max_gid = 0u64;
        for (d, &s) in plan.dims.iter().zip(&plan.strides) {
            max_gid = (d.groups.max(1) as u64 - 1)
                .checked_mul(s)
                .and_then(|v| max_gid.checked_add(v))
                .filter(|&v| v < cells)
                .ok_or_else(|| {
                    bad(format!(
                        "group-id strides {:?} address cells beyond the {} \
                         accumulator slots",
                        plan.strides, cells
                    ))
                })?;
        }
    }
    Ok(())
}

/// Execute `plan` against `fact` using `cfg` on [`Engine::default`]
/// (unlimited governor, no tuned rows, no overrides), panicking on a typed
/// error. Every flavor runs the morsel-driven executor; one worker runs it
/// serially on the calling thread.
///
/// [`Engine::default`]: crate::Engine
pub fn execute_star(plan: &StarPlan, fact: &Table, cfg: &ExecConfig) -> QueryOutput {
    try_execute_star(plan, fact, cfg)
        .map(|(out, _)| out)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`Engine::execute`](crate::Engine::execute) of an in-memory query on
/// [`Engine::default`](crate::Engine), with a fresh cancel token.
pub fn try_execute_star(
    plan: &StarPlan,
    fact: &Table,
    cfg: &ExecConfig,
) -> Result<(QueryOutput, crate::parallel::ExecReport), crate::parallel::ExecError> {
    crate::Engine::default().execute(plan, crate::Fact::Mem(fact), cfg, &crate::CancelToken::new())
}

/// Run `plan` over the in-memory `fact` on `threads` workers (one worker
/// runs the serial path): `cfg.batch`-row windows feed the shared stage
/// loop, or the Voila worker for that flavor, through the morsel
/// scheduler. The caller has validated the plan.
pub(crate) fn run_table(
    plan: &StarPlan,
    fact: &Table,
    cfg: &ExecConfig,
    threads: usize,
    ctx: &QueryCtx,
    faults: &EngineFaults,
) -> Result<(QueryOutput, crate::parallel::ExecReport), crate::parallel::ExecError> {
    let slots = ColumnSlots::of(plan);
    let cols: Vec<&[u64]> = slots.names.iter().map(|c| fact.col(c)).collect();
    let make = || -> Box<dyn MorselWorker + '_> {
        if cfg.flavor == Flavor::Voila {
            Box::new(crate::voila::VoilaWorker::new(plan, fact, cfg.batch))
        } else {
            let src = TableSource { cols: cols.clone(), batch: cfg.batch, window: 0..0 };
            Box::new(PipelineWorker::new(plan, cfg, &slots, src))
        }
    };
    let morsel = (crate::parallel::MORSEL_BATCHES * cfg.batch).max(1);
    let scan = Scan { plan, units: fact.len(), morsel, make: &make, faults };
    crate::parallel::run_scan(&scan, threads, ctx)
}

/// The fact columns a plan reads, each listed once. Stages name their
/// column by slot, so a source resolves column names once per query.
pub(crate) struct ColumnSlots<'p> {
    pub(crate) names: Vec<&'p str>,
    filters: Vec<usize>,
    fks: Vec<usize>,
    measure: Vec<usize>,
}

impl<'p> ColumnSlots<'p> {
    pub(crate) fn of(plan: &'p StarPlan) -> Self {
        let mut names: Vec<&'p str> = Vec::new();
        let mut slot = |name: &'p str| match names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        let filters = plan.filters.iter().map(|f| slot(&f.col)).collect();
        let fks = plan.dims.iter().map(|d| slot(&d.fk_col)).collect();
        let measure = plan.measure.columns().into_iter().map(&mut slot).collect();
        ColumnSlots { names, filters, fks, measure }
    }
}

/// Where the stage loop's batches come from: a window of rows over an
/// in-memory [`Table`] or one page of a paged table. The loop is generic
/// over the source and asks it for whole batch columns or for the rows of
/// a selection, never for single rows. Scan units are rows or pages;
/// selection vectors are batch-local and ascending.
///
/// Past the first filter the loop only asks for selected rows ([`take`],
/// [`refine`]). Their defaults gather from [`values`]; a source that must
/// decode its columns overrides them to decode just those rows.
///
/// [`take`]: BatchSource::take
/// [`refine`]: BatchSource::refine
/// [`values`]: BatchSource::values
pub(crate) trait BatchSource {
    /// Move to the batch that starts at unit `start` of a morsel ending
    /// at `hi`; returns the unit after the batch and the batch's row count.
    fn begin(&mut self, start: usize, hi: usize) -> (usize, usize);
    /// Trace span around the current batch.
    fn span(&self, _rows: usize) -> SpanGuard {
        SpanGuard::disabled()
    }
    /// Column `slot`'s values over the current batch.
    fn values(&mut self, slot: usize, k: &Kernels) -> Result<&[u64], Stop>;
    /// Input and bounds for the first filter `f` over column `slot`.
    fn first_filter(
        &mut self,
        slot: usize,
        f: &RangeFilter,
        k: &Kernels,
    ) -> Result<FilterInput<'_>, Stop> {
        Ok(Some((self.values(slot, k)?, f.lo, f.hi)))
    }
    /// Column `slot`'s values at the batch rows `sel`, into `out` (probe
    /// keys and measures).
    fn take(
        &mut self,
        slot: usize,
        sel: &[u64],
        out: &mut Vec<u64>,
        k: &Kernels,
    ) -> Result<(), Stop> {
        k.gather(self.values(slot, k)?, sel, out);
        Ok(())
    }
    /// Keep, in order, the rows of `sel` whose column `slot` value passes
    /// `f` (secondary fact-table filters).
    fn refine(
        &mut self,
        slot: usize,
        f: &RangeFilter,
        sel: &mut Vec<u64>,
        k: &Kernels,
    ) -> Result<(), Stop> {
        let input = self.values(slot, k)?;
        k.filter(&mut KernelIo::FilterRefine { input, lo: f.lo, hi: f.hi, sel });
        Ok(())
    }
}

/// The first filter's input column (values, or codes in code space) and
/// the bounds to apply to it; `None` when no row of the batch can pass.
pub(crate) type FilterInput<'s> = Option<(&'s [u64], u64, u64)>;

/// `cfg.batch`-row windows over resident columns.
struct TableSource<'a> {
    cols: Vec<&'a [u64]>,
    batch: usize,
    window: Range<usize>,
}

impl BatchSource for TableSource<'_> {
    fn begin(&mut self, start: usize, hi: usize) -> (usize, usize) {
        let end = (start + self.batch).min(hi);
        self.window = start..end;
        (end, end - start)
    }
    fn values(&mut self, slot: usize, _k: &Kernels) -> Result<&[u64], Stop> {
        Ok(&self.cols[slot][self.window.clone()])
    }
}

/// One VIP-style pipeline worker — the one stage loop (filter → probe →
/// group id → measure → aggregate) for every flavor except Voila and for
/// both storage layers. It owns the reusable batch buffers, a private
/// group-accumulator array and private [`ExecStats`]; the scheduler in
/// `crate::parallel` hands it morsels and merges the workers at the end.
pub(crate) struct PipelineWorker<'a, S> {
    plan: &'a StarPlan,
    kernels: Kernels,
    slots: &'a ColumnSlots<'a>,
    src: S,
    acc: Vec<u64>,
    stats: ExecStats,
    /// Per-dimension group-id strides (see [`StarPlan::gid_strides`]).
    strides: Vec<u64>,
    // Reusable batch buffers (workhorse allocations).
    sel: Vec<u64>,
    keys: Vec<u64>,
    /// Running group ids of the surviving rows: `Σ payload · stride` over
    /// the dimensions probed so far.
    gids: Vec<u64>,
    vals: Vec<u64>,
    /// A hashed probe's payloads, before they fold into `gids`.
    out: Vec<u64>,
    /// Per-batch histogram updates, published with the counters that
    /// [`PipelineWorker::publish`] derives from `stats`.
    tally: Tally,
}

impl<'a, S: BatchSource> PipelineWorker<'a, S> {
    pub(crate) fn new(
        plan: &'a StarPlan,
        cfg: &ExecConfig,
        slots: &'a ColumnSlots<'a>,
        src: S,
    ) -> Self {
        let ndims = plan.dims.len();
        let stats = ExecStats {
            probes: vec![0; ndims],
            hits: vec![0; ndims],
            table_bytes: plan.dims.iter().map(|d| d.index.working_set_bytes()).collect(),
            ..Default::default()
        };
        PipelineWorker {
            plan,
            kernels: Kernels::resolve(cfg),
            slots,
            src,
            acc: vec![0u64; plan.group_cells()],
            stats,
            strides: plan.gid_strides(),
            sel: Vec::new(),
            keys: Vec::new(),
            gids: Vec::new(),
            vals: Vec::new(),
            out: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn run_range(&mut self, lo: usize, hi: usize, ctx: &QueryCtx) -> Result<(), Stop> {
        let mut start = lo;
        while start < hi {
            ctx.check()?;
            let (end, rows) = self.src.begin(start, hi);
            self.stats.rows_scanned += rows as u64;
            let _span = self.src.span(rows);
            self.run_batch(rows)?;
            start = end;
        }
        Ok(())
    }

    fn run_batch(&mut self, rows: usize) -> Result<(), Stop> {
        let (plan, kernels) = (self.plan, &self.kernels);

        // 1. Fact-table filters. The first runs as a kernel over the
        // contiguous batch (in code space when the source can); later ones
        // refine the selection through the same tuned Filter grid (Q1.x is
        // the filter-heavy family), reading only the selected rows.
        self.sel.clear();
        match plan.filters.split_first() {
            None => self.sel.extend(0..rows as u64),
            Some((f0, rest)) => {
                let first = self.src.first_filter(self.slots.filters[0], f0, kernels)?;
                if let Some((input, lo, hi)) = first {
                    kernels.filter(&mut KernelIo::Filter { input, lo, hi, base: 0, sel: &mut self.sel });
                }
                for (f, &slot) in rest.iter().zip(&self.slots.filters[1..]) {
                    if self.sel.is_empty() {
                        break;
                    }
                    self.src.refine(slot, f, &mut self.sel, kernels)?;
                }
            }
        }
        self.stats.rows_after_filter += self.sel.len() as u64;
        self.tally.observe(Hist::FilterBatchRowsOut, self.sel.len() as u64);

        // 2. Dimension probes, most selective first; selection vector
        // shrinks after each (VIP pipeline, no full materialization), and
        // each probe folds its payload into the running group ids. Join
        // and measure columns are read only at the surviving rows, so a
        // batch the filters emptied never reads them at all. With no fact
        // filter the first probe's selection is every row, so it reads the
        // key column itself: no gather (on pages, one whole-page decode).
        self.gids.clear();
        for (di, dim) in plan.dims.iter().enumerate() {
            if self.sel.is_empty() {
                break;
            }
            let slot = self.slots.fks[di];
            let keys: &[u64] = if di == 0 && plan.filters.is_empty() {
                self.src.values(slot, kernels)?
            } else {
                self.src.take(slot, &self.sel, &mut self.keys, kernels)?;
                &self.keys
            };
            self.stats.probes[di] += keys.len() as u64;
            let stride = self.strides[di];
            match &dim.index {
                // One fused pass on the Gather grid: clamp, gather, hit
                // test, and in-place compaction of `sel` and `gids`.
                JoinIndex::Dense(index) => kernels.dense_probe(&mut KernelIo::DenseProbe {
                    keys,
                    index,
                    stride,
                    sel: &mut self.sel,
                    gids: &mut self.gids,
                }),
                // Sparse keys: one flat hash probe into `out`, whose hits
                // then compact `sel` and fold into `gids`.
                JoinIndex::Hashed(table) => {
                    self.out.resize(keys.len(), 0);
                    kernels.probe(&mut KernelIo::Probe { keys, table, out: &mut self.out });
                    compact_hits(&mut self.sel, &mut self.gids, &self.out, stride);
                }
            }
            let k = self.sel.len();
            self.stats.hits[di] += k as u64;
            self.tally.observe(Hist::ProbeBatchHits, k as u64);
        }

        // 3. The measure and aggregation over the surviving rows, whose
        // group ids the probes left in `gids`.
        if self.sel.is_empty() {
            return Ok(());
        }
        self.stats.rows_aggregated += self.sel.len() as u64;
        let m = &self.slots.measure;
        self.src.take(m[0], &self.sel, &mut self.vals, kernels)?;
        if let Some(&b) = m.get(1) {
            // `keys` is free again: reuse it for the second measure column.
            self.src.take(b, &self.sel, &mut self.keys, kernels)?;
            let pairs = self.vals.iter_mut().zip(&self.keys);
            match plan.measure {
                Measure::SumProduct(..) => pairs.for_each(|(v, &s)| *v = v.wrapping_mul(s)),
                Measure::SumDiff(..) => pairs.for_each(|(v, &s)| *v = v.wrapping_sub(s)),
                Measure::Sum(_) => {}
            }
        }
        if self.acc.len() == 1 {
            // Ungrouped: the tuned aggregation kernel does the reduction.
            let mut total = 0u64;
            kernels.agg(&mut KernelIo::AggSum { a: &self.vals, acc: &mut total });
            self.acc[0] = self.acc[0].wrapping_add(total);
        } else {
            // More than one group cell means at least one dimension, so
            // every surviving row has its id.
            grouped_accumulate(&mut self.acc, &self.gids, &self.vals);
        }
        Ok(())
    }
}

impl<S> PipelineWorker<'_, S> {
    /// Publish the worker's metrics: the row and key counters, derived from
    /// its [`ExecStats`] (which count the same rows), the gather kernel's
    /// row count, and the per-batch histograms. The stage loop then does no
    /// counter work per batch, and the shared registry sees one round of
    /// atomic adds per worker. Runs when the worker is dropped — after
    /// `finish`, on a stop, or when a panic discards it — and counts
    /// nothing twice: `finish` empties the stats it hands on.
    fn publish(&mut self) {
        let stats = &self.stats;
        let probed: u64 = stats.probes.iter().sum();
        let dense: u64 =
            self.plan.dims.iter().zip(&stats.probes).filter(|(d, _)| d.index.is_dense()).map(|(_, &n)| n).sum();
        let t = &mut self.tally;
        t.add(Metric::FilterRowsIn, stats.rows_scanned);
        t.add(Metric::FilterRowsOut, stats.rows_after_filter);
        t.add(Metric::ProbeKeys, probed);
        t.add(Metric::ProbeHits, stats.hits.iter().sum());
        t.add(Metric::ProbeDenseKeys, dense);
        t.add(Metric::AggRows, stats.rows_aggregated);
        t.add(Metric::GatherRows, self.kernels.gathered.take());
        t.flush();
    }
}

impl<S> Drop for PipelineWorker<'_, S> {
    fn drop(&mut self) {
        self.publish();
    }
}

impl<S: BatchSource> MorselWorker for PipelineWorker<'_, S> {
    /// Process units `lo..hi` batch by batch; the cancel/deadline check
    /// runs before every batch.
    fn try_run_range(&mut self, lo: usize, hi: usize, ctx: &QueryCtx) -> Result<(), Stop> {
        self.run_range(lo, hi, ctx)
    }

    fn finish(mut self: Box<Self>) -> QueryOutput {
        self.publish();
        QueryOutput { groups: std::mem::take(&mut self.acc), stats: std::mem::take(&mut self.stats) }
    }
}

/// The kernels a config dispatches, resolved once per worker: the batch
/// loop calls each through a function pointer instead of searching the
/// family's grid on every call.
pub(crate) struct Kernels {
    filter: Slot,
    probe: Slot,
    gather: Slot,
    agg: Slot,
    decode: Slot,
    /// Rows gathered since the owning worker last took the count.
    gathered: std::cell::Cell<u64>,
}

/// One family's node and its compiled kernel (`None` when off the grid).
struct Slot {
    family: Family,
    node: HybridConfig,
    kernel: Option<Kernel>,
}

impl Slot {
    fn new(family: Family, node: HybridConfig, cfg: &ExecConfig) -> Slot {
        Slot { family, node, kernel: Kernel::resolve(family, node, cfg.backend) }
    }

    /// Run the kernel; every node the shipped configs name is compiled.
    fn run(&self, io: &mut KernelIo<'_>) {
        match &self.kernel {
            Some(k) => k.run(io),
            None => panic!("{:?} node {} not compiled", self.family, self.node),
        }
    }
}

impl Kernels {
    /// Resolve every family `cfg` dispatches on its backend (panics if the
    /// backend is unavailable on this CPU).
    pub(crate) fn resolve(cfg: &ExecConfig) -> Kernels {
        Kernels {
            filter: Slot::new(Family::Filter, cfg.filter, cfg),
            probe: Slot::new(Family::Probe, cfg.probe, cfg),
            gather: Slot::new(Family::Gather, cfg.gather, cfg),
            agg: Slot::new(Family::AggSum, cfg.agg, cfg),
            decode: Slot::new(Family::Decode, cfg.decode, cfg),
            gathered: std::cell::Cell::new(0),
        }
    }

    pub(crate) fn filter(&self, io: &mut KernelIo<'_>) {
        self.filter.run(io)
    }

    fn probe(&self, io: &mut KernelIo<'_>) {
        self.probe.run(io)
    }

    fn agg(&self, io: &mut KernelIo<'_>) {
        self.agg.run(io)
    }

    /// Run the decode kernel; `false` when its node is off the grid, so the
    /// caller decodes with the scalar helper.
    pub(crate) fn decode(&self, io: &mut KernelIo<'_>) -> bool {
        self.decode.kernel.map(|k| k.run(io)).is_some()
    }

    /// The fused dense join probe ([`KernelIo::DenseProbe`]) on the gather
    /// node; its keys count as probe keys, not gathered rows.
    fn dense_probe(&self, io: &mut KernelIo<'_>) {
        self.gather.run(io)
    }

    /// `out = col[sel]`, the selective projection, through the tuned gather
    /// kernel. Falls back to the scalar helper for off-grid nodes, which
    /// cannot happen for the shipped flavor configs.
    fn gather(&self, col: &[u64], sel: &[u64], out: &mut Vec<u64>) {
        self.gathered.set(self.gathered.get() + sel.len() as u64);
        match self.gather.kernel {
            // The kernel writes every element, so a resize (no refill) suffices.
            Some(k) => {
                out.resize(sel.len(), 0);
                k.run(&mut KernelIo::Gather { src: col, idx: sel, out })
            }
            None => gather_keys(col, sel, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_storage::Column;

    /// A toy star schema: fact(fk1, fk2, rev, cost), dim1(key, grp),
    /// dim2(key), over the dense keys `0..n` (both dimensions get dense
    /// indexes).
    fn toy() -> (Table, StarPlan) {
        toy_keyed(|k| k)
    }

    /// The toy schema with key `k` stored as `key(k)` on both sides; a
    /// sparse `key` (e.g. `k × 7919 + 13`) makes both dimensions hashed.
    fn toy_keyed(key: impl Fn(u64) -> u64) -> (Table, StarPlan) {
        let mut fact = Table::new("fact");
        let n = 5000u64;
        fact.add_column(Column::new("fk1", (0..n).map(|i| key(i % 100)).collect()));
        fact.add_column(Column::new("fk2", (0..n).map(|i| key(i % 50)).collect()));
        fact.add_column(Column::new("rev", (0..n).map(|i| i % 7 + 1).collect()));
        fact.add_column(Column::new("cost", (0..n).map(|_| 1).collect()));

        let mut dim1 = Table::new("dim1");
        dim1.add_column(Column::new("key", (0..100).map(&key).collect()));
        dim1.add_column(Column::new("grp", (0..100).map(|k| k % 4).collect()));
        // Select keys < 40, group by grp (4 groups).
        let d1 = build_dimension(&dim1, "key", |r| r < 40, |r| dim1.col("grp")[r], 4, "fk1");

        let mut dim2 = Table::new("dim2");
        dim2.add_column(Column::new("key", (0..50).map(&key).collect()));
        // Pure filter: keys divisible by 5.
        let d2 = build_dimension(&dim2, "key", |r| r % 5 == 0, |_| 0, 1, "fk2");

        let plan = StarPlan {
            name: "toy".into(),
            filters: vec![],
            dims: vec![d1, d2],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        (fact, plan)
    }

    /// The toy schema over sparse keys: both dimensions hashed.
    fn toy_sparse() -> (Table, StarPlan) {
        let (fact, plan) = toy_keyed(|k| k * 7919 + 13);
        assert!(plan.dims.iter().all(|d| d.index.hashed().is_some()));
        (fact, plan)
    }

    /// Straightforward row-at-a-time reference executor.
    fn reference(fact: &Table, plan: &StarPlan) -> Vec<u64> {
        let mut acc = vec![0u64; plan.group_cells()];
        'row: for r in 0..fact.len() {
            for f in &plan.filters {
                let x = fact.col(&f.col)[r] as i64;
                if !(f.lo as i64 <= x && x <= f.hi as i64) {
                    continue 'row;
                }
            }
            let mut gid = 0u64;
            for d in &plan.dims {
                let key = fact.col(&d.fk_col)[r];
                let pay = d.index.probe_scalar(key);
                if pay == hef_kernels::MISS {
                    continue 'row;
                }
                gid = gid * d.groups as u64 + pay;
            }
            let v = match &plan.measure {
                Measure::Sum(c) => fact.col(c)[r],
                Measure::SumProduct(a, b) => {
                    fact.col(a)[r].wrapping_mul(fact.col(b)[r])
                }
                Measure::SumDiff(a, b) => fact.col(a)[r].wrapping_sub(fact.col(b)[r]),
            };
            acc[gid as usize] = acc[gid as usize].wrapping_add(v);
        }
        acc
    }

    #[test]
    fn all_flavors_agree_with_reference() {
        for (fact, plan) in [toy(), toy_sparse()] {
            let expect = reference(&fact, &plan);
            for flavor in Flavor::ALL {
                let out = execute_star(&plan, &fact, &ExecConfig::for_flavor(flavor));
                assert_eq!(out.groups, expect, "{}", flavor.name());
            }
        }
    }

    #[test]
    fn dense_and_hashed_indexes_give_identical_answers_and_stats() {
        let ((dense_fact, dense), (sparse_fact, sparse)) = (toy(), toy_sparse());
        assert!(dense.dims.iter().all(|d| d.index.is_dense()));
        for flavor in Flavor::ALL {
            let cfg = ExecConfig::for_flavor(flavor);
            let a = execute_star(&dense, &dense_fact, &cfg);
            let b = execute_star(&sparse, &sparse_fact, &cfg);
            assert_eq!(a.groups, b.groups, "{}", flavor.name());
            assert_eq!((a.stats.probes, a.stats.hits), (b.stats.probes, b.stats.hits));
        }
        // Dense arrays: 41 slots for keys 0..=39 (40 + miss slot), 47 for
        // 0..=45; the hash tables keep their flat-table bytes.
        let bytes: Vec<usize> = dense.dims.iter().map(|d| d.index.working_set_bytes()).collect();
        assert_eq!(bytes, [41 * 8, 47 * 8]);
        assert_eq!(sparse.dims[0].index.working_set_bytes(), probe_slots(40, join_table_budget()) * 16);
    }

    #[test]
    fn filters_and_two_column_measures() {
        for (fact, mut plan) in [toy(), toy_sparse()] {
            plan.filters.push(RangeFilter { col: "rev".into(), lo: 2, hi: 5 });
            plan.measure = Measure::SumDiff("rev".into(), "cost".into());
            let expect = reference(&fact, &plan);
            for flavor in Flavor::ALL {
                let out = execute_star(&plan, &fact, &ExecConfig::for_flavor(flavor));
                assert_eq!(out.groups, expect, "{}", flavor.name());
            }
        }
    }

    #[test]
    fn stats_reflect_pipeline_shrinkage() {
        let (fact, plan) = toy();
        let out = execute_star(&plan, &fact, &ExecConfig::scalar());
        assert_eq!(out.stats.rows_scanned, 5000);
        // dim1 keeps keys < 40 → 40% survive; dim2 keeps multiples of 5.
        assert_eq!(out.stats.probes[0], 5000);
        assert!(out.stats.hits[0] < 5000 * 45 / 100);
        assert_eq!(out.stats.probes[1], out.stats.hits[0]);
        assert_eq!(out.stats.rows_aggregated, out.stats.hits[1]);
        assert!(out.stats.table_bytes[0] > 0);
    }

    #[test]
    fn ungrouped_query_uses_agg_kernel_and_matches() {
        let (fact, mut plan) = toy();
        // Make both dims pure filters → a single group cell.
        plan.dims[0].groups = 1;
        // Rebuild dim1 with payload 0 so codes stay < 1.
        let mut dim1 = Table::new("dim1");
        dim1.add_column(Column::new("key", (0..100).collect()));
        plan.dims[0] = build_dimension(&dim1, "key", |r| r < 40, |_| 0, 1, "fk1");
        let expect = reference(&fact, &plan);
        assert_eq!(plan.group_cells(), 1);
        for flavor in Flavor::ALL {
            let out = execute_star(&plan, &fact, &ExecConfig::for_flavor(flavor));
            assert_eq!(out.groups, expect, "{}", flavor.name());
            assert_eq!(out.total(), expect[0]);
        }
    }

    /// Every config the engine ships: the four flavors and the hybrid
    /// configs the committed registry's per-op and pipeline rows produce.
    fn shipped_configs() -> Vec<ExecConfig> {
        let reg = hef_core::Registry::parse(include_str!("../../../results/tuned.txt"))
            .expect("committed registry parses");
        let per_op = ExecConfig::hybrid_tuned(
            reg.get_or_default(Family::Filter),
            reg.get_or_default(Family::Probe),
            reg.get_or_default(Family::AggSum),
            reg.get_or_default(Family::Gather),
        )
        .with_decode(reg.get_or_default(Family::Decode));
        let mut shipped: Vec<ExecConfig> = Flavor::ALL.map(ExecConfig::for_flavor).to_vec();
        shipped.push(per_op);
        shipped.extend(
            reg.pipelines().map(|(_, e)| crate::pipeline_plan::apply_pipeline_entry(per_op, e)),
        );
        assert!(shipped.len() > 5, "the committed registry ships pipeline rows");
        shipped
    }

    /// The key `u64::MAX` (the hash table's empty-slot sentinel) misses on
    /// every backend, at every probe node the shipped configs name, and
    /// through a dense index's fused probe at every shipped gather node.
    #[test]
    fn sentinel_key_misses_on_every_backend_and_shipped_node() {
        use hef_hid::Backend;
        use hef_kernels::MISS;
        let pairs: Vec<(u64, u64)> = (0..3000u64).map(|k| (k * 3, k % 7)).collect();
        let mut table = ProbeTable::with_capacity(pairs.len());
        for &(k, v) in &pairs {
            table.insert(k, v);
        }
        let dense = DenseIndex::build(&pairs, usize::MAX).unwrap();
        // Whole vectors of the sentinel, then the sentinel between hits and
        // misses, so it reaches SIMD lanes, scalar statements and the tail.
        let mut keys = vec![u64::MAX; 64];
        keys.extend((0..1000u64).map(|i| if i % 3 == 0 { u64::MAX } else { i * 5 }));
        let expect: Vec<u64> = keys
            .iter()
            .map(|&k| if k != u64::MAX && k % 3 == 0 && k < 9000 { (k / 3) % 7 } else { MISS })
            .collect();
        let backends = [Backend::Emu, Backend::Avx2, Backend::Avx512];
        let hit_rows: Vec<u64> = (0..keys.len() as u64).filter(|&i| expect[i as usize] != MISS).collect();
        let hit_pays: Vec<u64> = expect.iter().copied().filter(|&p| p != MISS).collect();
        for cfg in &shipped_configs() {
            for backend in backends.into_iter().filter(|b| b.is_available()) {
                let probe = Kernel::resolve(Family::Probe, cfg.probe, backend).unwrap();
                let mut out = vec![0; keys.len()];
                probe.run(&mut KernelIo::Probe { keys: &keys, table: &table, out: &mut out });
                assert_eq!(out, expect, "probe {} on {}", cfg.probe, backend.name());
                let gather = Kernel::resolve(Family::Gather, cfg.gather, backend).unwrap();
                let (mut sel, mut gids) = ((0..keys.len() as u64).collect::<Vec<u64>>(), Vec::new());
                let index = &dense;
                gather.run(&mut KernelIo::DenseProbe { keys: &keys, index, stride: 1, sel: &mut sel, gids: &mut gids });
                assert_eq!((&sel, &gids), (&hit_rows, &hit_pays), "dense probe {} on {}", cfg.gather, backend.name());
            }
        }
        assert_eq!(table.probe_scalar(u64::MAX), MISS);
        assert_eq!(dense.probe_scalar(u64::MAX), MISS);
    }

    /// Kernels resolved once per worker dispatch exactly what a per-call
    /// `run_on` lookup does, for every config the engine ships.
    #[test]
    fn resolved_kernels_match_per_call_dispatch() {
        use hef_kernels::run_on;
        let shipped = shipped_configs();

        let vals: Vec<u64> = (0..3000u64).map(|i| (i * 37) % 1000).collect();
        let sel: Vec<u64> = (0..3000u64).filter(|i| i % 3 != 0).collect();
        let mut table = ProbeTable::with_capacity(400);
        for key in (0..1000u64).step_by(3) {
            table.insert(key, key + 7);
        }
        let pairs: Vec<(u64, u64)> = (100..800u64).step_by(2).map(|k| (k, k % 5)).collect();
        let dense = DenseIndex::build(&pairs, usize::MAX).unwrap();
        let page = hef_storage::page::Page::encode(&vals);
        for cfg in &shipped {
            let k = Kernels::resolve(cfg);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            k.filter(&mut KernelIo::Filter { input: &vals, lo: 100, hi: 600, base: 0, sel: &mut a });
            let io = &mut KernelIo::Filter { input: &vals, lo: 100, hi: 600, base: 0, sel: &mut b };
            assert!(run_on(Family::Filter, cfg.filter, cfg.backend, io));
            assert_eq!(a, b, "filter {cfg:?}");

            let (mut a, mut b) = (vec![0; vals.len()], vec![0; vals.len()]);
            k.probe(&mut KernelIo::Probe { keys: &vals, table: &table, out: &mut a });
            let io = &mut KernelIo::Probe { keys: &vals, table: &table, out: &mut b };
            assert!(run_on(Family::Probe, cfg.probe, cfg.backend, io));
            assert_eq!(a, b, "probe {cfg:?}");

            let (mut a, mut b) = (Vec::new(), vec![0; sel.len()]);
            k.gather(&vals, &sel, &mut a);
            let io = &mut KernelIo::Gather { src: &vals, idx: &sel, out: &mut b };
            assert!(run_on(Family::Gather, cfg.gather, cfg.backend, io));
            assert_eq!(a, b, "gather {cfg:?}");

            let (mut a, mut b) = ((sel.clone(), Vec::new()), (sel.clone(), Vec::new()));
            let keys = &vals[..sel.len()];
            let index = &dense;
            k.dense_probe(&mut KernelIo::DenseProbe { keys, index, stride: 3, sel: &mut a.0, gids: &mut a.1 });
            let io = &mut KernelIo::DenseProbe { keys, index, stride: 3, sel: &mut b.0, gids: &mut b.1 };
            assert!(run_on(Family::Gather, cfg.gather, cfg.backend, io));
            assert_eq!(a, b, "dense probe {cfg:?}");

            let (mut a, mut b) = (0u64, 0u64);
            k.agg(&mut KernelIo::AggSum { a: &vals, acc: &mut a });
            assert!(run_on(Family::AggSum, cfg.agg, cfg.backend, &mut KernelIo::AggSum {
                a: &vals,
                acc: &mut b
            }));
            assert_eq!(a, b, "agg {cfg:?}");

            let (mut a, mut b) = (vec![0; sel.len()], vec![0; sel.len()]);
            let decode = |pos, out| KernelIo::Decode {
                words: page.words(),
                width: page.width(),
                reference: page.reference(),
                dict: page.dict_padded(),
                start: 0,
                pos,
                out,
            };
            assert!(k.decode(&mut decode(Some(&sel), &mut a)));
            assert!(run_on(Family::Decode, cfg.decode, cfg.backend, &mut decode(Some(&sel), &mut b)));
            assert_eq!(a, b, "decode {cfg:?}");
            assert_eq!(a, sel.iter().map(|&r| vals[r as usize]).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tables_grow_to_load_one_eighth_within_the_budget() {
        let host = join_table_budget();
        for budget in [0, 64 << 10, host] {
            for n in 1..=200_000usize {
                let (min, slots) = (ProbeTable::min_slots(n), probe_slots(n, budget));
                assert!(slots >= 2 * n, "n {n}: {slots} slots");
                if ProbeTable::min_slots(4 * n) * 16 <= budget {
                    assert!(slots >= 8 * n, "n {n}: {slots} slots, budget {budget}");
                }
                if slots > min {
                    assert!(slots * 16 <= budget, "n {n}: {slots} slots over {budget} B");
                }
            }
        }
        // build_dimension applies the rule under the host budget. Keys are
        // sparse (`k × 7919 + 13`) and the last row is always selected, so
        // the keys span the whole domain and every dimension is hashed; a
        // lone key is a one-slot span, always dense, so `n` starts at 2.
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", (0..100_000).map(|k| k * 7919 + 13).collect()));
        for n in [2u64, 100, 4096, 8192, 16_384, 40_000, 100_000] {
            let d = build_dimension(&dim, "key", |r| r as u64 + 1 < n || r == 99_999, |_| 0, 1, "fk");
            let table = d.index.hashed().expect("sparse keys hash");
            assert_eq!(table.capacity(), probe_slots(n as usize, host), "n {n}");
        }
    }

    #[test]
    fn spilling_hash_table_execution_is_bit_identical() {
        // A hash table far past the L2 budget, probed flat by every flavor.
        // Sparse keys `k × 7919 + 13`, so the dimension is hashed.
        let n_dim = 200_000u64;
        let key = |k: u64| k * 7919 + 13;
        let mut dim = Table::new("bigdim");
        dim.add_column(Column::new("key", (0..n_dim).map(key).collect()));
        dim.add_column(Column::new("grp", (0..n_dim).map(|k| k % 8).collect()));
        let d = build_dimension(&dim, "key", |_| true, |r| dim.col("grp")[r], 8, "fk");
        let bytes = d.index.hashed().expect("sparse keys hash").working_set_bytes();
        assert!(bytes > join_table_budget(), "{bytes} B must spill the budget");

        let n = 300_000u64;
        let mut fact = Table::new("fact");
        // Every third key misses (beyond the dimension's key domain).
        fact.add_column(Column::new("fk", (0..n).map(|i| key((i * 7919) % (n_dim * 3 / 2))).collect()));
        fact.add_column(Column::new("rev", (0..n).map(|i| i % 13 + 1).collect()));
        let plan = StarPlan {
            name: "bigjoin".into(),
            filters: vec![],
            dims: vec![d],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        let expect = reference(&fact, &plan);
        let scalar = execute_star(&plan, &fact, &ExecConfig::scalar());
        assert_eq!(scalar.groups, expect);
        for flavor in [Flavor::Simd, Flavor::Voila, Flavor::Hybrid] {
            let got = execute_star(&plan, &fact, &ExecConfig::for_flavor(flavor));
            assert_eq!(got.groups, expect, "{}", flavor.name());
            assert_eq!(got.stats.hits, scalar.stats.hits, "{}", flavor.name());
        }
    }

    #[test]
    fn engine_overrides_apply_over_the_config() {
        use crate::{CancelToken, Engine, Fact};
        let (fact, plan) = toy();
        let expect = reference(&fact, &plan);
        let vars = |pairs: &'static [(&'static str, &'static str)]| {
            move |k: &str| pairs.iter().find(|p| p.0 == k).map(|p| p.1.to_string())
        };
        let engine = Engine::from_vars(vars(&[("HEF_DEADLINE_MS", "60000")]));
        let (out, _) = engine
            .execute(&plan, Fact::Mem(&fact), &ExecConfig::hybrid_default(), &CancelToken::new())
            .unwrap();
        assert_eq!(out.groups, expect);
        // Resolution itself is visible on the config level too.
        let cfg = Engine::from_vars(vars(&[("HEF_DEADLINE_MS", "250")]))
            .configure(&plan, ExecConfig::hybrid_default());
        assert_eq!(cfg.deadline_ms, 250);
        // HEF_THREADS fills only an auto thread count; an explicit one wins.
        let four = Engine::from_vars(vars(&[("HEF_THREADS", "4")]));
        assert_eq!(four.configure(&plan, ExecConfig::scalar()).threads, 4);
        assert_eq!(four.configure(&plan, ExecConfig::scalar().with_threads(2)).threads, 2);
        let (_, report) = four
            .execute(&plan, Fact::Mem(&fact), &ExecConfig::scalar(), &CancelToken::new())
            .unwrap();
        assert_eq!(report.threads, 4);
        // Malformed values warn and are ignored; nothing reads the process
        // environment.
        let (bad, warnings) = hef_obs::diag::capture(|| {
            Engine::from_vars(vars(&[("HEF_THREADS", "lots"), ("HEF_DEADLINE_MS", "soon")]))
        });
        let cfg = bad.configure(&plan, ExecConfig::scalar());
        assert_eq!((cfg.threads, cfg.deadline_ms), (0, 0));
        assert!(warnings.len() <= 1, "{warnings:?}");
        let none = Engine::from_vars(|_| None).configure(&plan, ExecConfig::scalar());
        assert_eq!((none.threads, none.deadline_ms), (0, 0));
    }

    #[test]
    fn declared_strides_make_probe_order_irrelevant() {
        // Same query, two probe orders. With strides pinned to the declared
        // order (d1 outer, d2 inner), group ids — and therefore results —
        // must be bit-identical regardless of probe order.
        let (fact, plan) = toy();
        let d1 = plan.dims[0].clone(); // 4 groups, declared first
        let d2 = plan.dims[1].clone(); // pure filter
        let declared = StarPlan {
            name: "declared".into(),
            filters: vec![],
            dims: vec![d1.clone(), d2.clone()],
            measure: plan.measure.clone(),
            strides: vec![1, 1], // d1 stride 1 (innermost of 4×1), d2 collapsed
        };
        let swapped = StarPlan {
            name: "swapped".into(),
            filters: vec![],
            dims: vec![d2, d1],
            measure: plan.measure.clone(),
            strides: vec![1, 1],
        };
        for flavor in Flavor::ALL {
            let cfg = ExecConfig::for_flavor(flavor);
            let a = execute_star(&declared, &fact, &cfg);
            let b = execute_star(&swapped, &fact, &cfg);
            assert_eq!(a.groups, b.groups, "{}", flavor.name());
            // And the legacy encoding (empty strides) agrees on this plan
            // because d2 contributes a single group.
            let legacy = execute_star(&plan, &fact, &cfg);
            assert_eq!(a.groups, legacy.groups, "legacy {}", flavor.name());
        }
    }

    #[test]
    fn bad_plans_are_typed_errors_not_panics() {
        use crate::parallel::ExecError;
        let (fact, mut plan) = toy();
        plan.measure = Measure::Sum("ghost".into());
        let err = try_execute_star(&plan, &fact, &ExecConfig::scalar()).unwrap_err();
        assert!(
            matches!(&err, ExecError::BadPlan { query, message }
                if query == "toy" && message.contains("ghost")),
            "{err}"
        );

        let (fact, mut plan) = toy();
        plan.strides = vec![1]; // 1 stride, 2 dims
        assert!(matches!(
            try_execute_star(&plan, &fact, &ExecConfig::scalar()),
            Err(ExecError::BadPlan { .. })
        ));

        let (fact, mut plan) = toy();
        plan.strides = vec![4, 4]; // max gid 3*4 + 0*4 = 12 >= 4 cells
        assert!(matches!(
            try_execute_star(&plan, &fact, &ExecConfig::scalar()),
            Err(ExecError::BadPlan { .. })
        ));

        // A parallel run rejects up front too — no worker spawns.
        let (fact, mut plan) = toy();
        plan.filters.push(RangeFilter { col: "nope".into(), lo: 0, hi: 1 });
        assert!(matches!(
            try_execute_star(&plan, &fact, &ExecConfig::scalar().with_threads(4)),
            Err(ExecError::BadPlan { .. })
        ));
    }

    #[test]
    fn results_lists_only_nonzero_groups() {
        let (fact, plan) = toy();
        let out = execute_star(&plan, &fact, &ExecConfig::scalar());
        let res = out.results();
        assert!(!res.is_empty());
        assert!(res.iter().all(|&(_, v)| v != 0));
        assert_eq!(
            res.iter().map(|&(_, v)| v).fold(0u64, u64::wrapping_add),
            out.total()
        );
    }
}
