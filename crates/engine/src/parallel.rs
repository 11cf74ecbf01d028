//! Morsel-driven star-query execution: one scheduler for every source.
//!
//! SSB is embarrassingly parallel over the fact table: every stage of the
//! pipeline (filter → probes → grouped aggregation) is a pure function of
//! the rows it scans plus read-only shared state (the dimension join
//! indexes). A query is a [`Scan`] over *units* — fact
//! rows of an in-memory table, or pages of a paged one — split into
//! *morsels* (HyPer's morsel-driven scheduling): `MORSEL_BATCHES` batches
//! of rows, or one page. `std::thread::scope` workers claim morsels from a
//! shared atomic cursor; each runs a [`MorselWorker`] — the shared stage
//! loop (`star::PipelineWorker`) over a row-window or page source, or the
//! Voila worker — with private batch buffers, a private dense
//! group-accumulator array and private [`ExecStats`]. The main thread
//! merges the per-worker outputs at the end. A single worker runs the same
//! worker over all units on the calling thread.
//!
//! Determinism: group accumulators are wrapping `u64` sums and every stats
//! field is a sum over disjoint units, so the merged output is independent
//! of which worker claimed which morsel and of merge order — parallel
//! output is bit-identical to the serial path at any thread count, in
//! memory or paged. The differential and property tests in `tests/` pin
//! this down.
//!
//! Fault tolerance: each morsel is executed under `catch_unwind`. A panic
//! discards the whole worker (its partial accumulations are unmergeable),
//! requeues everything that worker had completed plus the poisoned range,
//! and a fresh worker takes over. A range that keeps failing degrades the
//! query to the serial path; if even that panics the caller gets a typed
//! [`ExecError`]. Every recovery action is counted in the [`ExecReport`]
//! returned beside the (bit-identical) output — a worker crash can change a
//! query's latency, never its result. A cancel, a deadline, or a failed
//! page read is a [`Stop`] cause instead: the first one stops the
//! scheduler and comes back typed, and none of them is retried.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use hef_obs::metrics::{Hist, Metric, Tally};
use hef_testutil::fault::{self, EngineFaults};

use crate::govern::{DegradeAction, Interrupt, QueryCtx};
use crate::star::{ExecStats, QueryOutput, StarPlan};

/// Pipeline batches per morsel. Morsels are the scheduling quantum: large
/// enough that cursor contention is negligible (one `fetch_add` per
/// `MORSEL_BATCHES * batch` rows), small enough that workers stay balanced
/// on skewed selectivity and the per-batch working set stays cache-resident.
pub const MORSEL_BATCHES: usize = 4;

/// Hard ceiling on worker threads: 4× the machine's available parallelism
/// (at least 4). More workers than that cannot help a CPU-bound pipeline
/// and an absurd request (a typo'd `threads = 100000`) must not spawn
/// unbounded threads.
fn thread_cap() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_mul(4)
        .max(4)
}

/// Resolve a requested worker-thread count: a nonzero request wins,
/// clamped to 4× the available parallelism (once-per-process warning);
/// `0` means [`std::thread::available_parallelism`].
pub fn resolve_threads(requested: usize) -> usize {
    let cap = thread_cap();
    if requested > cap {
        hef_obs::diag::warn_once(
            "threads-clamp",
            format!(
                "{requested} worker threads requested; clamping to {cap} \
                 (4x available parallelism)"
            ),
        );
        return cap;
    }
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Re-clamp a resolved thread count against the governor's admitted worker
/// budget. `admitted` comes out of [`crate::govern::Governor::admit`]'s
/// degradation ladder; when the request exceeds it, one `diag::warn_once` explains the clamp — once per process, not
/// once per query, so a server loop under sustained memory pressure does
/// not flood stderr.
pub fn resolve_threads_governed(requested: usize, admitted: usize) -> usize {
    let admitted = admitted.max(1);
    if requested > admitted {
        hef_obs::diag::warn_once(
            "threads-governor-clamp",
            format!(
                "{requested} worker threads requested but the governor admitted \
                 {admitted} (memory budget); clamping"
            ),
        );
    }
    requested.min(admitted)
}

/// Per-query fault-recovery and governance attribution, returned beside the
/// output by [`crate::Engine::execute`] — and *inside* the
/// [`ExecError::Cancelled`] / [`ExecError::DeadlineExceeded`] variants,
/// where it reports the partial progress made before the interrupt. A clean
/// run is all zeros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Worker threads the query ran with (1 = serial path).
    pub threads: usize,
    /// Morsel ranges re-executed because a worker was lost (the poisoned
    /// range plus every range the dead worker had already completed).
    pub morsels_retried: usize,
    /// Workers discarded after a panic (each is replaced in place).
    pub workers_lost: usize,
    /// The parallel attempt was abandoned and the query re-run serially.
    pub degraded_to_serial: bool,
    /// Morsel ranges fully executed (parallel path). On an interrupted
    /// query this is the partial-progress attribution.
    pub morsels_completed: usize,
    /// Degradations the governor applied at admission, in order.
    pub degrade_actions: Vec<DegradeAction>,
}

impl ExecReport {
    /// `true` when no fault-recovery or governance action was needed.
    pub fn is_clean(&self) -> bool {
        self.morsels_retried == 0
            && self.workers_lost == 0
            && !self.degraded_to_serial
            && self.degrade_actions.is_empty()
    }
}

/// Typed executor failure: a degradation-ladder exhaustion, an invalid
/// plan, or a governance outcome (rejection, cancellation, deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The serial fallback itself panicked (the degradation ladder is
    /// exhausted), or a page read failed (never retried).
    Failed { query: String, message: String },
    /// The plan references columns the fact table does not have, or its
    /// group-id strides are inconsistent; rejected up front, before any
    /// worker could hit the inconsistency as a panic.
    BadPlan { query: String, message: String },
    /// Admission control refused the query: the concurrent-query cap is
    /// full, or the memory budget cannot fit it even after the full
    /// degradation ladder. `retry_after_ms` hints when to try again (see
    /// [`crate::Engine::execute_with_retry`]).
    Rejected { query: String, retry_after_ms: u64 },
    /// The query's [`crate::govern::CancelToken`] fired mid-execution; the
    /// report carries the partial progress.
    Cancelled { query: String, report: ExecReport },
    /// The per-query deadline (`ExecConfig::deadline_ms`, or the engine's
    /// override) passed mid-execution; the report carries the partial
    /// progress.
    DeadlineExceeded { query: String, deadline_ms: u64, report: ExecReport },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Failed { query, message } => {
                write!(f, "query `{query}` failed: {message}")
            }
            ExecError::BadPlan { query, message } => {
                write!(f, "query `{query}` rejected: {message}")
            }
            ExecError::Rejected { query, retry_after_ms } => {
                write!(
                    f,
                    "query `{query}` refused admission (queue or memory budget full); \
                     retry in ~{retry_after_ms}ms"
                )
            }
            ExecError::Cancelled { query, report } => {
                write!(
                    f,
                    "query `{query}` cancelled after {} completed morsels",
                    report.morsels_completed
                )
            }
            ExecError::DeadlineExceeded { query, deadline_ms, report } => {
                write!(
                    f,
                    "query `{query}` exceeded its {deadline_ms}ms deadline \
                     after {} completed morsels",
                    report.morsels_completed
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Why a worker stopped before finishing its range.
pub(crate) enum Stop {
    /// A cancel or deadline observed at a batch boundary.
    Interrupt(Interrupt),
    /// A storage read failed. Typed, and never retried like a panic.
    Failed(String),
}

impl From<Interrupt> for Stop {
    fn from(i: Interrupt) -> Stop {
        Stop::Interrupt(i)
    }
}

/// The typed error for a stop cause, carrying `report` as partial progress.
fn stop_error(query: &str, ctx: &QueryCtx, cause: Stop, report: ExecReport) -> ExecError {
    match cause {
        Stop::Interrupt(i) => crate::govern::interrupt_error(query, ctx, i, report),
        Stop::Failed(message) => ExecError::Failed { query: query.to_string(), message },
    }
}

/// One worker over a scan's units: private accumulators, fed morsels.
pub(crate) trait MorselWorker {
    /// Process units `lo..hi`, checking `ctx` at every batch boundary.
    fn try_run_range(&mut self, lo: usize, hi: usize, ctx: &QueryCtx) -> Result<(), Stop>;
    fn finish(self: Box<Self>) -> QueryOutput;
}

/// One query as the scheduler sees it: `units` scan units (fact rows or
/// pages) claimed `morsel` at a time, a factory for fresh workers (called
/// once per thread and again after every worker loss), and the engine's
/// fault schedule.
pub(crate) struct Scan<'a> {
    pub(crate) plan: &'a StarPlan,
    pub(crate) units: usize,
    pub(crate) morsel: usize,
    pub(crate) make: &'a (dyn Fn() -> Box<dyn MorselWorker + 'a> + Sync + 'a),
    pub(crate) faults: &'a EngineFaults,
}

/// Failures tolerated per morsel range before the query abandons the
/// parallel path and degrades to serial.
const MAX_MORSEL_RETRIES: u32 = 2;

/// Shared scheduling state: the fresh-work cursor plus the retry queue of
/// `(lo, hi, attempts)` ranges reclaimed from dead workers.
struct Scheduler {
    n: usize,
    morsel: usize,
    cursor: AtomicUsize,
    retry: Mutex<Vec<(usize, usize, u32)>>,
    /// Ranges claimed but not yet completed or requeued. Workers only exit
    /// when the cursor is exhausted, the retry queue is empty, and nothing
    /// is in flight — an in-flight range may still fail and be requeued.
    in_flight: AtomicUsize,
    /// A range exceeded [`MAX_MORSEL_RETRIES`]: stop everything, go serial.
    give_up: AtomicBool,
    /// Set with the first [`Stop`] cause. Checked in [`Scheduler::claim`] —
    /// including its wait-spin, so no worker can wait forever on a peer
    /// that stopped.
    stopped: AtomicBool,
    cause: Mutex<Option<Stop>>,
    retried: AtomicUsize,
    workers_lost: AtomicUsize,
    /// Morsel ranges fully executed (partial-progress attribution).
    completed: AtomicUsize,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Scheduler {
    fn new(n: usize, morsel: usize) -> Scheduler {
        Scheduler {
            n,
            morsel: morsel.max(1),
            cursor: AtomicUsize::new(0),
            retry: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            give_up: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            cause: Mutex::new(None),
            retried: AtomicUsize::new(0),
            workers_lost: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
        }
    }

    /// Record a stop cause (the first one wins) and stop handing out work.
    fn stop(&self, cause: Stop) {
        lock(&self.cause).get_or_insert(cause);
        self.stopped.store(true, Ordering::Release);
    }

    fn halted(&self) -> bool {
        self.give_up.load(Ordering::Acquire) || self.stopped.load(Ordering::Acquire)
    }

    fn claim(&self) -> Option<(usize, usize, u32)> {
        loop {
            if self.halted() {
                return None;
            }
            if let Some(r) = lock(&self.retry).pop() {
                self.in_flight.fetch_add(1, Ordering::AcqRel);
                return Some(r);
            }
            let lo = self.cursor.fetch_add(self.morsel, Ordering::Relaxed);
            if lo < self.n {
                self.in_flight.fetch_add(1, Ordering::AcqRel);
                return Some((lo, (lo + self.morsel).min(self.n), 0));
            }
            // Fresh work is exhausted. If anything is still in flight it may
            // yet be requeued, so wait; otherwise we are done.
            if self.in_flight.load(Ordering::Acquire) == 0
                && lock(&self.retry).is_empty()
                && self.in_flight.load(Ordering::Acquire) == 0
            {
                return None;
            }
            std::thread::yield_now();
        }
    }

    fn complete(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Requeue ranges after a worker loss. The poisoned range's attempt
    /// count carries forward; replayed (previously completed) ranges start
    /// fresh. Pushes happen before the in-flight decrement so no worker can
    /// observe "queue empty and nothing in flight" mid-requeue.
    fn requeue(&self, poisoned: (usize, usize, u32), done: &[(usize, usize)]) {
        let (lo, hi, attempts) = poisoned;
        self.workers_lost.fetch_add(1, Ordering::AcqRel);
        hef_obs::metrics::add(hef_obs::metrics::Metric::WorkersLost, 1);
        hef_obs::event!("worker_lost", lo = lo, hi = hi, attempts = attempts);
        if attempts >= MAX_MORSEL_RETRIES {
            self.give_up.store(true, Ordering::Release);
            hef_obs::metrics::add(hef_obs::metrics::Metric::SerialDegradations, 1);
            hef_obs::event!("degrade_serial", lo = lo, hi = hi);
            self.complete();
            return;
        }
        {
            let mut q = lock(&self.retry);
            q.push((lo, hi, attempts + 1));
            for &(dlo, dhi) in done {
                q.push((dlo, dhi, 0));
            }
        }
        self.retried.fetch_add(1 + done.len(), Ordering::AcqRel);
        hef_obs::metrics::add(
            hef_obs::metrics::Metric::MorselsRetried,
            1 + done.len() as u64,
        );
        self.complete();
    }
}

/// One fault-isolated worker loop: claim ranges, run each under
/// `catch_unwind`, and on a panic discard the whole worker (partial
/// accumulations are unmergeable), requeue its completed ranges plus the
/// poisoned one, and start over with a fresh worker. Returns `None` when
/// the query stopped or gave up on the parallel path.
fn worker_loop(wid: usize, sched: &Scheduler, scan: &Scan<'_>, ctx: &QueryCtx) -> Option<QueryOutput> {
    if hef_obs::trace::enabled() {
        hef_obs::trace::set_thread_name(&format!("worker-{wid}"));
    }
    let _wspan = hef_obs::span!("worker", wid = wid);
    // Per-morsel metrics stay local until the loop ends (the tally
    // publishes when dropped, on every return).
    let mut tally = Tally::default();
    let mut w = (scan.make)();
    let mut done: Vec<(usize, usize)> = Vec::new();
    // One clock read per morsel, at its end, serves the morsel's span end,
    // the next morsel's span start and its latency: morsels are a few
    // batches, so four reads a morsel were a visible share of a traced
    // query. The mark restarts after a stall or a discarded worker.
    let timed = hef_obs::metrics::enabled() || hef_obs::trace::enabled_fine();
    let stamp = || if timed { hef_obs::trace::now_ns() } else { 0 };
    let mut mark = stamp();
    while let Some((lo, hi, attempts)) = sched.claim() {
        let morsel_idx = lo / sched.morsel;
        tally.add(Metric::MorselsClaimed, 1);
        tally.observe(Hist::MorselRows, (hi - lo) as u64);
        // The `slow_morsel:` fault stalls here, in interruptible slices, so
        // a deadline/cancel fires *mid*-morsel and still comes back typed.
        if let Some(stall) = scan.faults.next_slow_morsel(wid, morsel_idx) {
            if let Err(i) = crate::govern::sleep_checked(stall, ctx) {
                sched.stop(i.into());
                sched.complete();
                return None;
            }
            mark = stamp();
        }
        // The span guard lives inside the catch_unwind closure so a panic
        // still closes the morsel span on unwind.
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mspan = if timed && hef_obs::trace::enabled_fine() {
                let args = [("lo", lo as i64), ("hi", hi as i64), ("attempt", attempts as i64)];
                hef_obs::trace::span_begin_at("morsel", mark, &args)
            } else {
                hef_obs::trace::SpanGuard::disabled()
            };
            scan.faults.maybe_panic_worker(wid, morsel_idx, fault::Phase::Before);
            let r = w.try_run_range(lo, hi, ctx);
            scan.faults.maybe_panic_worker(wid, morsel_idx, fault::Phase::After);
            let end = stamp();
            mspan.end_at(end);
            (r, end)
        }));
        match run {
            Ok((Ok(()), end)) => {
                tally.observe(Hist::MorselLatencyUs, end.saturating_sub(mark) / 1000);
                mark = end;
                done.push((lo, hi));
                sched.completed.fetch_add(1, Ordering::AcqRel);
                sched.complete();
            }
            Ok((Err(cause), _)) => {
                // Stopped mid-morsel: this worker's partial output is
                // unusable, and the whole query is ending anyway.
                sched.stop(cause);
                sched.complete();
                return None;
            }
            Err(_) => {
                sched.requeue((lo, hi, attempts), &done);
                w = (scan.make)();
                done.clear();
                mark = stamp();
            }
        }
    }
    if sched.halted() {
        return None;
    }
    Some(w.finish())
}

/// Run `scan` on `threads` workers with the full degradation ladder; one
/// worker runs the serial path on the calling thread.
pub(crate) fn run_scan(
    scan: &Scan<'_>,
    threads: usize,
    ctx: &QueryCtx,
) -> Result<(QueryOutput, ExecReport), ExecError> {
    if threads <= 1 {
        let report = ExecReport { threads: 1, ..Default::default() };
        return run_serial_guarded_ctx(scan, ctx, &report).map(|out| (out, report));
    }
    let sched = Scheduler::new(scan.units, scan.morsel);
    let mut outputs: Vec<QueryOutput> = Vec::with_capacity(threads);
    let mut worker_escaped = false;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| {
                let sched = &sched;
                s.spawn(move || worker_loop(wid, sched, scan, ctx))
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Some(out)) => outputs.push(out),
                Ok(None) => {}
                // A panic outside the catch_unwind window (worker
                // construction, finish): treat like any worker loss and
                // degrade.
                Err(_) => worker_escaped = true,
            }
        }
    });

    let mut report = ExecReport {
        threads,
        morsels_retried: sched.retried.load(Ordering::Acquire),
        workers_lost: sched.workers_lost.load(Ordering::Acquire),
        degraded_to_serial: false,
        morsels_completed: sched.completed.load(Ordering::Acquire),
        degrade_actions: Vec::new(),
    };
    if let Some(cause) = lock(&sched.cause).take() {
        return Err(stop_error(&scan.plan.name, ctx, cause, report));
    }
    if sched.give_up.load(Ordering::Acquire) || worker_escaped {
        if worker_escaped {
            report.workers_lost += 1;
        }
        report.degraded_to_serial = true;
        let out = run_serial_guarded_ctx(scan, ctx, &report)?;
        return Ok((out, report));
    }
    Ok((merge_outputs(scan.plan, outputs), report))
}

/// The serial path under a governance context, panic-guarded: one worker
/// over every unit. It consults the fault schedule once (worker id
/// [`fault::SERIAL_WORKER`], morsel 0) so unrestricted `panic:morsel=0`
/// plans exercise the ladder's last rung too. A
/// panic is that last rung and becomes a typed [`ExecError::Failed`]; a
/// stop cause comes back typed, carrying `base_report`'s attribution (the
/// serial path may be the tail of an abandoned parallel attempt, whose
/// recovery counts should survive into the error).
fn run_serial_guarded_ctx(
    scan: &Scan<'_>,
    ctx: &QueryCtx,
    base_report: &ExecReport,
) -> Result<QueryOutput, ExecError> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        scan.faults.maybe_panic_worker(fault::SERIAL_WORKER, 0, fault::Phase::Before);
        if let Some(stall) = scan.faults.next_slow_morsel(fault::SERIAL_WORKER, 0) {
            crate::govern::sleep_checked(stall, ctx)?;
        }
        let mut w = (scan.make)();
        w.try_run_range(0, scan.units, ctx)?;
        Ok(w.finish())
    }))
    .map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        ExecError::Failed { query: scan.plan.name.clone(), message }
    })?;
    run.map_err(|cause| stop_error(&scan.plan.name, ctx, cause, base_report.clone()))
}

/// Merge per-worker outputs into one [`QueryOutput`]. Group cells and every
/// per-row stats field are sums over disjoint row ranges (wrapping adds →
/// commutative and associative, so worker scheduling cannot change the
/// result); the probe-table working set is shared, not per-worker, so
/// `table_bytes` is taken from the plan rather than summed.
fn merge_outputs(plan: &StarPlan, outputs: Vec<QueryOutput>) -> QueryOutput {
    let ndims = plan.dims.len();
    let mut merged = QueryOutput {
        groups: vec![0u64; plan.group_cells()],
        stats: ExecStats {
            probes: vec![0; ndims],
            hits: vec![0; ndims],
            table_bytes: plan.dims.iter().map(|d| d.index.working_set_bytes()).collect(),
            ..Default::default()
        },
    };
    for out in outputs {
        for (m, g) in merged.groups.iter_mut().zip(out.groups.iter()) {
            *m = m.wrapping_add(*g);
        }
        merged.stats.rows_scanned += out.stats.rows_scanned;
        merged.stats.rows_after_filter += out.stats.rows_after_filter;
        for (m, p) in merged.stats.probes.iter_mut().zip(out.stats.probes.iter()) {
            *m += p;
        }
        for (m, h) in merged.stats.hits.iter_mut().zip(out.stats.hits.iter()) {
            *m += h;
        }
        merged.stats.rows_aggregated += out.stats.rows_aggregated;
        merged.stats.materialized += out.stats.materialized;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::{build_dimension, execute_star, try_execute_star, ExecConfig, Flavor, Measure};
    use crate::{CancelToken, Engine, Fact};
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
            |r| dim.col("key").get(r) < 96,
            |r| dim.col("key").get(r) % 8,
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
    fn parallel_matches_serial_at_various_thread_counts() {
        let (fact, plan) = toy(20_000);
        for flavor in Flavor::ALL {
            let cfg = ExecConfig::for_flavor(flavor);
            let serial = execute_star(&plan, &fact, &cfg.with_threads(1));
            for threads in [1, 2, 3, 7] {
                let par = execute_star(&plan, &fact, &cfg.with_threads(threads));
                assert_eq!(par, serial, "{} × {threads} threads", flavor.name());
            }
        }
    }

    #[test]
    fn empty_and_sub_morsel_inputs() {
        for n in [0u64, 1, 7, 100] {
            let (fact, plan) = toy(n);
            let cfg = ExecConfig::hybrid_default();
            let serial = execute_star(&plan, &fact, &cfg.with_threads(1));
            let par = execute_star(&plan, &fact, &cfg.with_threads(4));
            assert_eq!(par, serial, "n={n}");
        }
    }

    #[test]
    fn explicit_thread_request_wins_over_auto() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn absurd_thread_requests_are_clamped() {
        let cap = thread_cap();
        assert_eq!(resolve_threads(1_000_000), cap);
        assert!(resolve_threads(cap) == cap);
    }

    #[test]
    fn worker_panic_recovers_bit_identical() {
        use hef_testutil::fault::{FaultPlan, WorkerPanic};
        let (fact, plan) = toy(20_000);
        let cfg = ExecConfig::hybrid_default().with_threads(4);
        let serial = execute_star(&plan, &fact, &cfg.with_threads(1));
        let engine = Engine::default().with_faults(FaultPlan {
            worker_panics: vec![WorkerPanic { worker: None, morsel: 2, times: 1, after: false }],
            ..Default::default()
        });
        let (out, report) = engine
            .execute(&plan, Fact::Mem(&fact), &cfg, &CancelToken::new())
            .expect("recovers");
        assert_eq!(out, serial, "recovery changed the result");
        assert_eq!(report.workers_lost, 1);
        assert!(report.morsels_retried >= 1);
        assert!(!report.degraded_to_serial);
        assert!(!report.is_clean());
    }

    #[test]
    fn clean_run_reports_clean() {
        let (fact, plan) = toy(10_000);
        let cfg = ExecConfig::hybrid_default().with_threads(3);
        let (_, report) = try_execute_star(&plan, &fact, &cfg).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.threads, 3);
    }

    #[test]
    fn threads_config_routes_execute_star() {
        let (fact, plan) = toy(10_000);
        let serial = execute_star(&plan, &fact, &ExecConfig::scalar().with_threads(1));
        let par = execute_star(&plan, &fact, &ExecConfig::scalar().with_threads(4));
        assert_eq!(par, serial);
    }
}
