//! Query lifecycle governance: admission control, memory budgets with
//! graceful degradation, deadlines, and cooperative cancellation.
//!
//! The ROADMAP's end state is a multi-query server; this module is the
//! robustness substrate it stands on. Before a query executes, the
//! [`Governor`] of the [`Engine`](crate::Engine) running it *admits* it: a
//! concurrent-query cap and a memory budget bound what the scheduler will
//! take on, and an over-budget query is first **degraded** — shrink morsel
//! batch buffers (in memory; a paged batch is a whole page), shed worker
//! threads — and only **rejected** (typed
//! [`ExecError::Rejected`] with a retry hint, never an unbounded queue) when
//! even the minimal shape does not fit. Admitted queries run under a
//! [`QueryCtx`] — an `Arc`-shared [`CancelToken`] plus an optional deadline
//! — checked at every morsel claim and batch boundary, surfacing as typed
//! [`ExecError::Cancelled`] / [`ExecError::DeadlineExceeded`] with the
//! partial [`ExecReport`] attached: never a panic, never a hang.
//!
//! Accounting is RAII: admission charges the [`BudgetTracker`] once with the
//! worst-case estimate ([`estimate_query_bytes`], or
//! [`estimate_paged_query_bytes`] for a paged scan) and the [`Admission`]
//! guard releases exactly that on drop, so the budget returns to zero after
//! *every* outcome — completion, cancellation, deadline, worker panic, or
//! serial degradation. Every governance action (admit / degrade / reject /
//! cancel / deadline) emits an obs event and bumps a `govern.*` counter so
//! `repro report` can show why a query was slowed or refused.
//!
//! Each engine owns one governor, built from a [`GovernorConfig`]: a
//! concurrent-query cap and a memory budget, both 0 = unlimited.
//! `Engine::from_env` fills it from `HEF_MAX_QUERIES` and `HEF_MEM_BUDGET`;
//! a test builds a private engine with its own limits, and no other
//! engine's queries can reach its budget.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::parallel::{ExecError, ExecReport};
use crate::star::{ExecConfig, Flavor, Measure, StarPlan};

/// Why a governed query stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The query's [`CancelToken`] fired.
    Cancelled,
    /// The per-query deadline passed.
    DeadlineExceeded,
}

/// One degradation the governor applied to fit a query under the memory
/// budget, recorded in [`ExecReport::degrade_actions`] in the order taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// Morsel batch buffers halved (floor [`MIN_BATCH`]).
    ShrinkBatch { from: usize, to: usize },
    /// Worker threads halved (floor 1).
    ReduceWorkers { from: usize, to: usize },
}

/// Smallest batch size the degradation ladder will shrink to: below a few
/// hundred rows per batch the per-batch dispatch overhead dominates and
/// shrinking further cannot save meaningful memory.
pub const MIN_BATCH: usize = 256;

/// Hard cap on a single backoff sleep in
/// [`Engine::execute_with_retry`](crate::Engine::execute_with_retry).
pub(crate) const MAX_BACKOFF_MS: u64 = 100;

// ---------------------------------------------------------------------------
// Cancellation and deadlines.
// ---------------------------------------------------------------------------

/// An `Arc`-shared cooperative cancellation flag. Clone it into whatever
/// thread owns the query's lifetime and call [`CancelToken::cancel`]; every
/// worker observes the flag at its next morsel claim or batch boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The per-query execution context workers consult at every morsel claim
/// and batch boundary: a cancellation token plus an optional deadline.
/// [`QueryCtx::check`] on an unbounded context is one atomic load.
#[derive(Debug, Clone)]
pub struct QueryCtx {
    cancel: CancelToken,
    deadline: Option<Instant>,
    deadline_ms: u64,
}

impl QueryCtx {
    /// `deadline_ms == 0` means no deadline.
    pub fn new(cancel: CancelToken, deadline_ms: u64) -> QueryCtx {
        let deadline = (deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(deadline_ms));
        QueryCtx { cancel, deadline, deadline_ms }
    }

    /// A context that never interrupts (fresh token, no deadline).
    pub fn unbounded() -> QueryCtx {
        QueryCtx::new(CancelToken::new(), 0)
    }

    /// The context's cancellation token.
    pub fn token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The configured deadline in milliseconds (0 = none), for error
    /// attribution.
    pub fn deadline_ms(&self) -> u64 {
        self.deadline_ms
    }

    /// Milliseconds left before the deadline, saturating at 0 once it has
    /// passed; `None` when the context has no deadline. Feeds the
    /// `govern.deadline_slack_ms` histogram on successful completion.
    pub fn remaining_ms(&self) -> Option<u64> {
        let d = self.deadline?;
        Some(d.saturating_duration_since(Instant::now()).as_millis() as u64)
    }

    /// Poll for an interrupt. Cancellation wins over the deadline when both
    /// hold, so an explicit cancel is always reported as such.
    #[inline]
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.cancel.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Interrupt::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// Sleep `total`, checking `ctx` every millisecond so a deadline or cancel
/// fires *mid*-sleep — this is how the `slow_morsel:` fault stalls a worker
/// without ever making the query uninterruptible.
pub fn sleep_checked(total: Duration, ctx: &QueryCtx) -> Result<(), Interrupt> {
    let end = Instant::now() + total;
    loop {
        ctx.check()?;
        let now = Instant::now();
        if now >= end {
            return Ok(());
        }
        std::thread::sleep((end - now).min(Duration::from_millis(1)));
    }
}

/// Convert an [`Interrupt`] into its typed [`ExecError`], attaching the
/// partial report and bumping the governance counters — the single point
/// where cancellations and deadline misses are surfaced.
pub(crate) fn interrupt_error(
    query: &str,
    ctx: &QueryCtx,
    interrupt: Interrupt,
    report: ExecReport,
) -> ExecError {
    use hef_obs::metrics::{add, Metric};
    match interrupt {
        Interrupt::Cancelled => {
            add(Metric::GovCancelled, 1);
            hef_obs::event!("govern_cancelled", morsels_completed = report.morsels_completed);
            ExecError::Cancelled { query: query.to_string(), report }
        }
        Interrupt::DeadlineExceeded => {
            add(Metric::GovDeadlineExceeded, 1);
            hef_obs::event!(
                "govern_deadline",
                deadline_ms = ctx.deadline_ms,
                morsels_completed = report.morsels_completed
            );
            ExecError::DeadlineExceeded {
                query: query.to_string(),
                deadline_ms: ctx.deadline_ms,
                report,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Memory accounting.
// ---------------------------------------------------------------------------

/// A global byte budget with lock-free charge/release. `limit == 0` means
/// unlimited (every charge succeeds and costs nothing).
#[derive(Debug)]
pub struct BudgetTracker {
    limit: usize,
    used: AtomicUsize,
}

impl BudgetTracker {
    fn new(limit: usize) -> BudgetTracker {
        BudgetTracker { limit, used: AtomicUsize::new(0) }
    }

    /// The configured limit in bytes (0 = unlimited).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Acquire)
    }

    /// Charge `bytes` if they fit; `false` leaves the tracker unchanged.
    fn try_charge(&self, bytes: usize) -> bool {
        if self.limit == 0 {
            return true;
        }
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(bytes) {
                Some(n) if n <= self.limit => n,
                _ => return false,
            };
            match self.used.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => cur = observed,
            }
        }
    }

    fn release(&self, bytes: usize) {
        if bytes > 0 {
            self.used.fetch_sub(bytes, Ordering::AcqRel);
        }
    }

    /// Charge `bytes` for a non-admission allocation (e.g. the paged-scan
    /// page cache), returning an RAII guard that releases on drop. `None`
    /// when the budget cannot fit the charge.
    pub fn try_charge_guard(&self, bytes: usize) -> Option<ByteCharge<'_>> {
        if !self.try_charge(bytes) {
            return None;
        }
        if bytes > 0 && self.limit > 0 {
            hef_obs::metrics::add(hef_obs::metrics::Metric::GovBytesCharged, bytes as u64);
        }
        Some(ByteCharge { budget: self, bytes })
    }
}

/// RAII byte charge against a [`BudgetTracker`] (see
/// [`BudgetTracker::try_charge_guard`]).
#[derive(Debug)]
pub struct ByteCharge<'a> {
    budget: &'a BudgetTracker,
    bytes: usize,
}

impl Drop for ByteCharge<'_> {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// Worst-case bytes an in-memory query's execution scratch will allocate:
/// per worker, the reusable batch buffers, each `cfg.batch` rows (at most
/// the fact table) — for the pipeline worker `sel`, `keys`, `gids`,
/// `vals`, and the probe output `out` when a dimension is hashed (a dense
/// dimension's fused probe compacts `sel` and `gids` in place), plus the
/// filter's 8 lanes of compress-store slack on `sel`; for Voila one dense
/// buffer per column plus gid/slots/pay/vals — and the private
/// group-accumulator array. Admission must never under-charge.
pub fn estimate_query_bytes(
    plan: &StarPlan,
    fact_rows: usize,
    cfg: &ExecConfig,
    threads: usize,
) -> usize {
    let batch = cfg.batch.clamp(1, fact_rows.max(1));
    let streams = if cfg.flavor == Flavor::Voila {
        let measure_cols = match plan.measure {
            Measure::Sum(_) => 1,
            Measure::SumProduct(..) | Measure::SumDiff(..) => 2,
        };
        plan.dims.len() + measure_cols + 4
    } else {
        pipeline_streams(plan)
    };
    scratch_bytes(plan, batch, streams, threads)
}

/// [`estimate_query_bytes`] for a paged scan. Every flavor runs the
/// pipeline worker there, and its batch is a whole page — `page_rows`, the
/// largest page's rows, whatever the config's batch says — so each stream
/// is a page long. The page source adds two more: its decode buffer and the
/// secondary filter's kept indices.
pub fn estimate_paged_query_bytes(plan: &StarPlan, page_rows: usize, threads: usize) -> usize {
    scratch_bytes(plan, page_rows.max(1), pipeline_streams(plan) + 2, threads)
}

/// The pipeline worker's batch-long buffers: `sel`, `keys`, `gids`,
/// `vals`, and `out` when a dimension is hashed.
fn pipeline_streams(plan: &StarPlan) -> usize {
    4 + plan.dims.iter().any(|d| !d.index.is_dense()) as usize
}

/// `threads` workers, each holding `streams` buffers of `batch` rows and
/// the group accumulators.
fn scratch_bytes(plan: &StarPlan, batch: usize, streams: usize, threads: usize) -> usize {
    // 8 lanes of slack: the filter reserves them past `sel` for its
    // full-width compress stores.
    threads.max(1) * ((batch * streams + 8) * 8 + plan.group_cells() * 8)
}

// ---------------------------------------------------------------------------
// The governor.
// ---------------------------------------------------------------------------

/// Governor configuration (see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Concurrent-query cap (0 = unlimited).
    pub max_queries: usize,
    /// Memory budget in bytes (0 = unlimited).
    pub mem_budget: usize,
}

/// An engine's query governor: admission control and the memory budget.
#[derive(Debug, Default)]
pub struct Governor {
    cfg: GovernorConfig,
    budget: BudgetTracker,
    active: AtomicUsize,
}

impl Default for BudgetTracker {
    fn default() -> BudgetTracker {
        BudgetTracker::new(0)
    }
}

impl Governor {
    pub fn new(cfg: GovernorConfig) -> Governor {
        Governor { cfg, budget: BudgetTracker::new(cfg.mem_budget), ..Governor::default() }
    }

    /// The limits this governor enforces.
    pub fn config(&self) -> GovernorConfig {
        self.cfg
    }

    /// The memory budget tracker (for tests asserting it returns to zero).
    pub fn budget(&self) -> &BudgetTracker {
        &self.budget
    }

    /// Queries currently admitted and not yet finished.
    pub fn active_queries(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Admit a query over `fact_rows` rows, degrading `cfg`/`threads` under
    /// memory pressure (see module docs for the ladder) or rejecting with a
    /// retry hint. The returned [`Admission`] releases all accounting on
    /// drop.
    pub fn admit(
        &self,
        plan: &StarPlan,
        fact_rows: usize,
        cfg: &mut ExecConfig,
        threads: &mut usize,
    ) -> Result<Admission<'_>, ExecError> {
        self.admit_spiked(plan, fact_rows, None, cfg, threads, || None)
    }

    /// [`Governor::admit`], with `spike` adding injected bytes to the
    /// estimate (the engine's `mem_spike` fault hook). It is consulted once,
    /// and only when a budget is set: with an unlimited budget a spike has
    /// nothing to push against. `page_rows` is the largest page's rows for
    /// a paged scan (`None` in memory): its batches are whole pages, so the
    /// charge is [`estimate_paged_query_bytes`] and the ladder skips the
    /// batch step, which cannot shrink a page.
    pub(crate) fn admit_spiked(
        &self,
        plan: &StarPlan,
        fact_rows: usize,
        page_rows: Option<usize>,
        cfg: &mut ExecConfig,
        threads: &mut usize,
        spike: impl FnOnce() -> Option<u64>,
    ) -> Result<Admission<'_>, ExecError> {
        use hef_obs::metrics::{add, Metric};
        let prev_active = self.active.fetch_add(1, Ordering::AcqRel);
        if self.cfg.max_queries > 0 && prev_active >= self.cfg.max_queries {
            self.active.fetch_sub(1, Ordering::AcqRel);
            add(Metric::GovRejected, 1);
            let over = prev_active + 1 - self.cfg.max_queries;
            let retry_after_ms = (5 * over as u64).clamp(1, MAX_BACKOFF_MS);
            hef_obs::event!("govern_reject", active = prev_active, retry_ms = retry_after_ms);
            return Err(ExecError::Rejected { query: plan.name.clone(), retry_after_ms });
        }

        let mut actions: Vec<DegradeAction> = Vec::new();
        let mut charged = 0usize;
        if self.budget.limit > 0 {
            let spike = spike().unwrap_or(0) as usize;
            loop {
                let est = match page_rows {
                    None => estimate_query_bytes(plan, fact_rows, cfg, *threads),
                    Some(rows) => estimate_paged_query_bytes(plan, rows, *threads),
                }
                .saturating_add(spike);
                if self.budget.try_charge(est) {
                    charged = est;
                    break;
                }
                // Degradation ladder: cheapest-to-lose first.
                let action = if page_rows.is_none() && cfg.batch > MIN_BATCH {
                    let from = cfg.batch;
                    cfg.batch = (cfg.batch / 2).max(MIN_BATCH);
                    DegradeAction::ShrinkBatch { from, to: cfg.batch }
                } else if *threads > 1 {
                    let from = *threads;
                    *threads = from / 2;
                    DegradeAction::ReduceWorkers { from, to: *threads }
                } else {
                    // Even the minimal shape does not fit: reject, hinting
                    // at when currently-charged memory may have drained.
                    self.active.fetch_sub(1, Ordering::AcqRel);
                    add(Metric::GovRejected, 1);
                    let retry_after_ms =
                        (10 + 10 * prev_active as u64).clamp(1, MAX_BACKOFF_MS);
                    hef_obs::event!(
                        "govern_reject",
                        used = self.budget.used(),
                        limit = self.budget.limit,
                        retry_ms = retry_after_ms
                    );
                    return Err(ExecError::Rejected {
                        query: plan.name.clone(),
                        retry_after_ms,
                    });
                };
                add(Metric::GovDegradations, 1);
                hef_obs::event!(
                    "govern_degrade",
                    kind = match action {
                        DegradeAction::ShrinkBatch { .. } => 1,
                        DegradeAction::ReduceWorkers { .. } => 2,
                    },
                    batch = cfg.batch,
                    threads = *threads
                );
                actions.push(action);
            }
        }
        add(Metric::GovAdmitted, 1);
        if charged > 0 {
            add(Metric::GovBytesCharged, charged as u64);
        }
        hef_obs::event!("govern_admit", bytes = charged, threads = *threads);
        Ok(Admission { gov: self, charged, actions })
    }
}

/// RAII admission guard: holds the query's slot in the concurrent-query
/// count and its memory charge, releasing both on drop — on *every* path
/// out of the executor (success, typed error, panic unwind), which is what
/// makes "budget returns to zero after every outcome" a structural
/// guarantee rather than a per-path obligation.
#[derive(Debug)]
pub struct Admission<'g> {
    gov: &'g Governor,
    charged: usize,
    actions: Vec<DegradeAction>,
}

impl Admission<'_> {
    /// The degradations applied at admission, in order (drained into the
    /// [`ExecReport`]).
    pub(crate) fn take_actions(&mut self) -> Vec<DegradeAction> {
        std::mem::take(&mut self.actions)
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.gov.budget.release(self.charged);
        self.gov.active.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::build_dimension;
    use hef_storage::{Column, Table};

    fn toy(n: u64) -> (Table, StarPlan) {
        let mut fact = Table::new("fact");
        fact.add_column(Column::new("fk", (0..n).map(|i| i % 128).collect()));
        fact.add_column(Column::new("rev", (0..n).map(|i| i % 11 + 1).collect()));
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", (0..128).collect()));
        let d = build_dimension(
            &dim,
            "key",
            |r| dim.col("key")[r] < 96,
            |r| dim.col("key")[r] % 8,
            8,
            "fk",
        );
        let plan = StarPlan {
            name: "toy".into(),
            filters: vec![],
            dims: vec![d],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        (fact, plan)
    }

    #[test]
    fn budget_charges_and_releases() {
        let b = BudgetTracker::new(1000);
        assert!(b.try_charge(600));
        assert!(!b.try_charge(600));
        assert!(b.try_charge(400));
        b.release(600);
        b.release(400);
        assert_eq!(b.used(), 0);
        // Unlimited budget accepts everything and tracks nothing.
        let u = BudgetTracker::new(0);
        assert!(u.try_charge(usize::MAX));
        assert_eq!(u.used(), 0);
    }

    #[test]
    fn admission_cap_rejects_with_hint() {
        let gov = Governor::new(GovernorConfig { max_queries: 1, mem_budget: 0 });
        let (fact, plan) = toy(4000);
        let rows = fact.len();
        let mut cfg = ExecConfig::hybrid_default();
        let mut threads = 2;
        let first = gov.admit(&plan, rows, &mut cfg, &mut threads).expect("admitted");
        let mut cfg2 = ExecConfig::hybrid_default();
        let mut threads2 = 2;
        match gov.admit(&plan, rows, &mut cfg2, &mut threads2) {
            Err(ExecError::Rejected { retry_after_ms, .. }) => assert!(retry_after_ms >= 1),
            other => panic!("expected Rejected, got {other:?}"),
        }
        drop(first);
        assert_eq!(gov.active_queries(), 0);
        // Slot freed: admission succeeds again.
        gov.admit(&plan, rows, &mut cfg2, &mut threads2).expect("re-admitted");
    }

    #[test]
    fn ladder_degrades_batch_then_threads_then_rejects() {
        let (fact, plan) = toy(20_000);
        let rows = fact.len();
        // The ladder starts at batch shrinking. Budget fits exactly one
        // minimal worker shape.
        let minimal =
            estimate_query_bytes(&plan, rows, &ExecConfig::hybrid_default().with_batch(MIN_BATCH), 1);
        let gov = Governor::new(GovernorConfig { max_queries: 0, mem_budget: minimal });
        let mut cfg = ExecConfig::hybrid_default();
        let mut threads = 4;
        let mut adm = gov.admit(&plan, rows, &mut cfg, &mut threads).expect("fits");
        let actions = adm.take_actions();
        assert!(!actions.is_empty(), "budget pressure must degrade");
        assert_eq!(cfg.batch, MIN_BATCH);
        assert_eq!(threads, 1);
        assert!(gov.budget().used() > 0);
        drop(adm);
        assert_eq!(gov.budget().used(), 0, "budget must return to zero");

        // A budget below even the minimal shape rejects.
        let gov = Governor::new(GovernorConfig { max_queries: 0, mem_budget: 64 });
        let mut cfg = ExecConfig::hybrid_default();
        let mut threads = 4;
        match gov.admit(&plan, rows, &mut cfg, &mut threads) {
            Err(ExecError::Rejected { retry_after_ms, .. }) => assert!(retry_after_ms >= 1),
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(gov.budget().used(), 0);
        assert_eq!(gov.active_queries(), 0);
    }

    #[test]
    fn mem_spike_fault_drives_the_ladder() {
        use crate::{CancelToken, Engine, Fact};
        use hef_testutil::fault::{FaultPlan, MemSpike};
        let (fact, plan) = toy(20_000);
        let cfg = ExecConfig::hybrid_default().with_threads(4);
        let comfortable = estimate_query_bytes(&plan, fact.len(), &cfg, 4) * 2;
        let limits = GovernorConfig { max_queries: 0, mem_budget: comfortable };
        let run = |engine: &Engine| engine.execute(&plan, Fact::Mem(&fact), &cfg, &CancelToken::new());
        // Without a spike: admitted clean at full shape.
        let clean = Engine::default().with_limits(limits);
        assert!(run(&clean).expect("clean").1.degrade_actions.is_empty());
        // A spike bigger than the headroom forces degradation.
        let spiked = Engine::default().with_limits(limits).with_faults(FaultPlan {
            mem_spikes: vec![MemSpike { bytes: comfortable as u64, times: 1 }],
            ..Default::default()
        });
        match run(&spiked) {
            Ok((_, report)) => assert!(!report.degrade_actions.is_empty()),
            Err(ExecError::Rejected { .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(spiked.governor().budget().used(), 0);
        // The spike fired once; the next query is clean again.
        assert!(run(&spiked).expect("clean").1.degrade_actions.is_empty());
    }

    #[test]
    fn sleep_checked_interrupted_by_deadline_mid_sleep() {
        let ctx = QueryCtx::new(CancelToken::new(), 10);
        let start = Instant::now();
        let r = sleep_checked(Duration::from_millis(5000), &ctx);
        assert_eq!(r, Err(Interrupt::DeadlineExceeded));
        assert!(start.elapsed() < Duration::from_millis(2000), "must not sleep the full stall");
    }

    #[test]
    fn cancel_wins_over_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = QueryCtx::new(token, 1);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(ctx.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn byte_counts_take_suffixes() {
        // `HEF_MEM_BUDGET` is read through the storage byte-size parser.
        use hef_storage::page::parse_byte_size;
        assert_eq!(parse_byte_size("4k"), Some(4096));
        assert_eq!(parse_byte_size("2M"), Some(2 << 20));
        assert_eq!(parse_byte_size(" 1g "), Some(1 << 30));
        assert_eq!(parse_byte_size("123"), Some(123));
        assert_eq!(parse_byte_size("lots"), None);
        assert_eq!(parse_byte_size("k"), None);
    }

    /// Four dense dimensions, as SSB's Q4.x at SF 1: the estimate covers
    /// every batch-long buffer the pipeline worker holds, in memory and on
    /// pages, where a batch is a whole page; a hashed dimension adds its
    /// probe output.
    #[test]
    fn estimate_covers_every_worker_buffer() {
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", (0..16).collect()));
        let dims: Vec<_> = (0..4)
            .map(|i| {
                let fk = format!("fk{i}");
                build_dimension(&dim, "key", |r| r % 3 != 0, |r| (r % 2) as u64, 2, &fk)
            })
            .collect();
        assert!(dims.iter().all(|d| d.index.is_dense()));
        let plan = StarPlan {
            name: "four_dims".into(),
            filters: vec![],
            dims,
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        let cfg = ExecConfig::hybrid_default();
        // sel (with the filter's 8 lanes of slack), keys, gids and vals;
        // the dense probes compact sel and gids in place.
        let worker = |batch: usize| (batch * 4 + 8) * 8 + plan.group_cells() * 8;
        assert!(estimate_query_bytes(&plan, 1 << 20, &cfg, 1) >= worker(cfg.batch));
        assert!(estimate_query_bytes(&plan, 1 << 20, &cfg, 3) >= 3 * worker(cfg.batch));
        // A 256 KiB page of 8-byte rows, plus the page source's decode
        // buffer and kept indices.
        let page = 32_768;
        let paged = worker(page) + 2 * page * 8;
        assert!(estimate_paged_query_bytes(&plan, page, 1) >= paged);
        assert!(estimate_paged_query_bytes(&plan, page, 2) >= 2 * paged);

        // A sparse key domain builds a hash table, whose probe writes one
        // more batch-long buffer before it folds into the group ids.
        let mut sparse = Table::new("sparse");
        sparse.add_column(Column::new("key", (0..16).map(|k| k << 40).collect()));
        let mut hashed = plan.clone();
        hashed.dims[3] = build_dimension(&sparse, "key", |_| true, |r| (r % 2) as u64, 2, "fk3");
        assert!(!hashed.dims[3].index.is_dense());
        let worker = |batch: usize| (batch * 5 + 8) * 8 + hashed.group_cells() * 8;
        assert!(estimate_query_bytes(&hashed, 1 << 20, &cfg, 1) >= worker(cfg.batch));
        assert!(estimate_paged_query_bytes(&hashed, page, 1) >= worker(page) + 2 * page * 8);
    }
}
