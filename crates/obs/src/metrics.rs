//! Metrics registry: a fixed set of monotonic counters plus log2-bucket
//! histograms, all process-global atomics.
//!
//! The registry is deliberately *closed* (an enum, not string keys): adding a
//! counter is a code change, lookups are array indexing, and a snapshot is a
//! `memcpy`. Counters are only incremented when [`enabled`] — a relaxed
//! atomic load — says so, activated by `HEF_METRICS=1` or [`enable`].
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Counter taxonomy. Grouped by subsystem; see DESIGN.md §8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    // Scheduler (engine::parallel)
    QueriesExecuted,
    MorselsClaimed,
    MorselsRetried,
    WorkersLost,
    SerialDegradations,
    // Kernels (engine::star / engine::voila)
    FilterRowsIn,
    FilterRowsOut,
    ProbeKeys,
    ProbeHits,
    /// Nothing records this counter since the Bloom pre-filter was
    /// removed; it stays because benchmark reports still name it.
    BloomKeys,
    /// Nothing records this counter (see [`Metric::BloomKeys`]).
    BloomDrops,
    AggRows,
    GatherRows,
    RowsMaterialized,
    /// Nothing records this counter since the software-prefetched probe
    /// was removed; it stays because benchmark reports still name it.
    ProbePrefetchedKeys,
    /// Nothing records this counter since radix-partitioned probing was
    /// removed (see [`Metric::ProbePrefetchedKeys`]).
    ProbePartitionedKeys,
    /// Probe keys answered by a dense (direct-addressed) join index; also
    /// counted in `ProbeKeys`.
    ProbeDenseKeys,
    // Tuner (hef-core::optimizer)
    TunerSearches,
    TunerTrials,
    TunerRemeasurements,
    TunerPruned,
    // Cache/µarch simulator usage (hef-core::optimizer::SimulatedCost)
    SimRuns,
    SimCycles,
    // Registry degradation (hef-core::registry)
    RegistryLoads,
    RegistryLinesDropped,
    RegistryFallbacks,
    RegistryStaleIsa,
    // Storage (hef-storage::file)
    ColumnFilesLoaded,
    ColumnRowsSalvaged,
    StorageIssues,
    // Paged storage (hef-storage::page / hef-storage::cache)
    /// Page lookups satisfied by the shared page cache.
    PageCacheHits,
    /// Page lookups that had to read + decode from disk.
    PageCacheMisses,
    /// Pages evicted by the clock hand to stay under `HEF_PAGE_CACHE`.
    PageCacheEvictions,
    /// Compressed pages decoded (bit-unpack + FOR/dict).
    PagesDecoded,
    /// Rows produced by the decode kernel family.
    DecodeRows,
    /// Rows whose first filter was evaluated in dictionary code space
    /// (no value gather needed for misses).
    DecodeCodeFiltered,
    // Cross-cutting
    FaultsInjected,
    DiagWarnings,
    // Query lifecycle governance (engine::govern)
    GovAdmitted,
    GovRejected,
    GovDegradations,
    GovCancelled,
    GovDeadlineExceeded,
    GovBackoffRetries,
    GovBytesCharged,
    // Plan optimizer (engine::plan::optimize)
    /// Predicates pushed below a join by the plan optimizer.
    PlanPushdownApplied,
    /// Plans whose join order the optimizer changed.
    PlanJoinsReordered,
    /// Scan columns pruned by projection analysis.
    PlanProjectionsPruned,
}

impl Metric {
    pub const ALL: [Metric; 48] = [
        Metric::QueriesExecuted,
        Metric::MorselsClaimed,
        Metric::MorselsRetried,
        Metric::WorkersLost,
        Metric::SerialDegradations,
        Metric::FilterRowsIn,
        Metric::FilterRowsOut,
        Metric::ProbeKeys,
        Metric::ProbeHits,
        Metric::BloomKeys,
        Metric::BloomDrops,
        Metric::AggRows,
        Metric::GatherRows,
        Metric::RowsMaterialized,
        Metric::ProbePrefetchedKeys,
        Metric::ProbePartitionedKeys,
        Metric::ProbeDenseKeys,
        Metric::TunerSearches,
        Metric::TunerTrials,
        Metric::TunerRemeasurements,
        Metric::TunerPruned,
        Metric::SimRuns,
        Metric::SimCycles,
        Metric::RegistryLoads,
        Metric::RegistryLinesDropped,
        Metric::RegistryFallbacks,
        Metric::RegistryStaleIsa,
        Metric::ColumnFilesLoaded,
        Metric::ColumnRowsSalvaged,
        Metric::StorageIssues,
        Metric::PageCacheHits,
        Metric::PageCacheMisses,
        Metric::PageCacheEvictions,
        Metric::PagesDecoded,
        Metric::DecodeRows,
        Metric::DecodeCodeFiltered,
        Metric::FaultsInjected,
        Metric::DiagWarnings,
        Metric::GovAdmitted,
        Metric::GovRejected,
        Metric::GovDegradations,
        Metric::GovCancelled,
        Metric::GovDeadlineExceeded,
        Metric::GovBackoffRetries,
        Metric::GovBytesCharged,
        Metric::PlanPushdownApplied,
        Metric::PlanJoinsReordered,
        Metric::PlanProjectionsPruned,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Metric::QueriesExecuted => "scheduler.queries_executed",
            Metric::MorselsClaimed => "scheduler.morsels_claimed",
            Metric::MorselsRetried => "scheduler.morsels_retried",
            Metric::WorkersLost => "scheduler.workers_lost",
            Metric::SerialDegradations => "scheduler.serial_degradations",
            Metric::FilterRowsIn => "kernel.filter_rows_in",
            Metric::FilterRowsOut => "kernel.filter_rows_out",
            Metric::ProbeKeys => "kernel.probe_keys",
            Metric::ProbeHits => "kernel.probe_hits",
            Metric::BloomKeys => "kernel.bloom_keys",
            Metric::BloomDrops => "kernel.bloom_drops",
            Metric::AggRows => "kernel.agg_rows",
            Metric::GatherRows => "kernel.gather_rows",
            Metric::RowsMaterialized => "kernel.rows_materialized",
            Metric::ProbePrefetchedKeys => "kernel.prefetched_probe_keys",
            Metric::ProbePartitionedKeys => "kernel.partitioned_probe_keys",
            Metric::ProbeDenseKeys => "kernel.probe_dense_keys",
            Metric::TunerSearches => "tuner.searches",
            Metric::TunerTrials => "tuner.trials",
            Metric::TunerRemeasurements => "tuner.remeasurements",
            Metric::TunerPruned => "tuner.pruned",
            Metric::SimRuns => "sim.runs",
            Metric::SimCycles => "sim.cycles",
            Metric::RegistryLoads => "registry.loads",
            Metric::RegistryLinesDropped => "registry.lines_dropped",
            Metric::RegistryFallbacks => "registry.fallbacks",
            Metric::RegistryStaleIsa => "registry.stale_isa",
            Metric::ColumnFilesLoaded => "storage.column_files_loaded",
            Metric::ColumnRowsSalvaged => "storage.column_rows_salvaged",
            Metric::StorageIssues => "storage.issues",
            Metric::PageCacheHits => "storage.page_cache_hits",
            Metric::PageCacheMisses => "storage.page_cache_misses",
            Metric::PageCacheEvictions => "storage.page_cache_evictions",
            Metric::PagesDecoded => "storage.pages_decoded",
            Metric::DecodeRows => "kernel.decode_rows",
            Metric::DecodeCodeFiltered => "kernel.decode_code_filtered",
            Metric::FaultsInjected => "fault.injected",
            Metric::DiagWarnings => "diag.warnings",
            Metric::GovAdmitted => "govern.admitted",
            Metric::GovRejected => "govern.rejected",
            Metric::GovDegradations => "govern.degradations",
            Metric::GovCancelled => "govern.cancelled",
            Metric::GovDeadlineExceeded => "govern.deadline_exceeded",
            Metric::GovBackoffRetries => "govern.backoff_retries",
            Metric::GovBytesCharged => "govern.bytes_charged",
            Metric::PlanPushdownApplied => "plan.pushdown_applied",
            Metric::PlanJoinsReordered => "plan.joins_reordered",
            Metric::PlanProjectionsPruned => "plan.projections_pruned",
        }
    }
}

const N_METRICS: usize = Metric::ALL.len();

/// Log2-bucket histograms. Bucket 0 holds value 0; bucket `i` (1..=16)
/// holds values in `[2^(i-1), 2^i)`, saturating at the top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Rows surviving the filter stage, per batch.
    FilterBatchRowsOut,
    /// Hash-probe hits per batch.
    ProbeBatchHits,
    /// Rows per claimed morsel.
    MorselRows,
    /// Wall-clock microseconds per executed morsel.
    MorselLatencyUs,
    /// Microseconds a query spent in admission backoff before running.
    AdmissionWaitUs,
    /// Milliseconds left on the deadline when a deadlined query succeeded.
    DeadlineSlackMs,
    /// Hardware cycles per row of a measured tuner trial.
    KernelCyclesPerRow,
    /// Tuner calibration drift: measured/predicted cost ratio, in permille
    /// (1000 = the port simulator priced this node exactly right).
    TunerDriftPermille,
}

impl Hist {
    pub const ALL: [Hist; 8] = [
        Hist::FilterBatchRowsOut,
        Hist::ProbeBatchHits,
        Hist::MorselRows,
        Hist::MorselLatencyUs,
        Hist::AdmissionWaitUs,
        Hist::DeadlineSlackMs,
        Hist::KernelCyclesPerRow,
        Hist::TunerDriftPermille,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Hist::FilterBatchRowsOut => "kernel.filter_batch_rows_out",
            Hist::ProbeBatchHits => "kernel.probe_batch_hits",
            Hist::MorselRows => "scheduler.morsel_rows",
            Hist::MorselLatencyUs => "scheduler.morsel_latency_us",
            Hist::AdmissionWaitUs => "govern.admission_wait_us",
            Hist::DeadlineSlackMs => "govern.deadline_slack_ms",
            Hist::KernelCyclesPerRow => "kernel.cycles_per_row",
            Hist::TunerDriftPermille => "tuner.drift",
        }
    }
}

const N_HISTS: usize = Hist::ALL.len();
/// Buckets per histogram: {0} ∪ 16 log2 ranges.
pub const HIST_BUCKETS: usize = 17;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; HIST_BUCKETS] = [ZERO; HIST_BUCKETS];
static COUNTERS: [AtomicU64; N_METRICS] = [ZERO; N_METRICS];
static HISTS: [[AtomicU64; HIST_BUCKETS]; N_HISTS] = [ZERO_ROW; N_HISTS];

// 0 = uninitialized (probe HEF_METRICS on first use), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

#[inline]
fn state() -> u8 {
    let s = STATE.load(Ordering::Relaxed);
    if s == 0 {
        init_from_env()
    } else {
        s
    }
}

#[cold]
fn init_from_env() -> u8 {
    let on = matches!(
        std::env::var("HEF_METRICS").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    );
    let v = if on { 2 } else { 1 };
    // Racy double-init is fine: both writers agree on the env-derived value,
    // and explicit enable()/disable() calls always win by storing later.
    STATE.store(v, Ordering::Relaxed);
    v
}

/// True when the metrics registry is recording.
#[inline]
pub fn enabled() -> bool {
    state() == 2
}

/// Programmatically turn metrics on (tests, `repro`).
pub fn enable() {
    STATE.store(2, Ordering::Relaxed);
}

/// Programmatically turn metrics off.
pub fn disable() {
    STATE.store(1, Ordering::Relaxed);
}

/// Add `n` to a counter. One relaxed load + branch when disabled.
#[inline]
pub fn add(m: Metric, n: u64) {
    if enabled() {
        COUNTERS[m as usize].fetch_add(n, Ordering::Relaxed);
    }
}

#[inline]
fn bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Record one observation into a histogram.
#[inline]
pub fn observe(h: Hist, v: u64) {
    if enabled() {
        HISTS[h as usize][bucket(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Counter and histogram updates one thread tallies locally and publishes
/// with one atomic add per touched counter or bucket ([`Tally::flush`], or
/// when the tally is dropped).
/// A loop that updates the shared registry every iteration puts a
/// contended atomic on each update; the stage loop tallies its per-batch
/// updates here and flushes once per morsel.
#[derive(Debug, Clone)]
pub struct Tally {
    counters: [u64; N_METRICS],
    hists: [[u64; HIST_BUCKETS]; N_HISTS],
    dirty: bool,
}

impl Default for Tally {
    fn default() -> Self {
        Tally { counters: [0; N_METRICS], hists: [[0; HIST_BUCKETS]; N_HISTS], dirty: false }
    }
}

impl Tally {
    /// [`add`], held until the next [`Tally::flush`].
    #[inline]
    pub fn add(&mut self, m: Metric, n: u64) {
        if enabled() {
            self.counters[m as usize] = self.counters[m as usize].wrapping_add(n);
            self.dirty = true;
        }
    }

    /// [`observe`], held until the next [`Tally::flush`].
    #[inline]
    pub fn observe(&mut self, h: Hist, v: u64) {
        if enabled() {
            self.hists[h as usize][bucket(v)] += 1;
            self.dirty = true;
        }
    }

    /// Publish the tallied updates to the registry and reset the tally.
    /// Never panics, so it may run from `Drop`.
    pub fn flush(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        for (c, n) in COUNTERS.iter().zip(&mut self.counters) {
            if *n != 0 {
                c.fetch_add(std::mem::take(n), Ordering::Relaxed);
            }
        }
        for (row, ns) in HISTS.iter().zip(&mut self.hists) {
            for (b, n) in row.iter().zip(ns.iter_mut()) {
                if *n != 0 {
                    b.fetch_add(std::mem::take(n), Ordering::Relaxed);
                }
            }
        }
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Representative value of bucket `i`: 0 for the zero bucket, the geometric
/// midpoint of `[2^(i-1), 2^i)` for interior buckets, and the lower edge for
/// the saturating top bucket (whose true upper edge is unbounded).
pub fn bucket_value(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else if i == HIST_BUCKETS - 1 {
        (1u64 << (i - 1)) as f64
    } else {
        (1u64 << (i - 1)) as f64 * std::f64::consts::SQRT_2
    }
}

/// Percentile estimate (`0 < p <= 100`) from log2 buckets: the representative
/// value of the first bucket whose cumulative count reaches the rank.
/// `None` when the histogram is empty.
pub fn percentile(buckets: &[u64; HIST_BUCKETS], p: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return Some(bucket_value(i));
        }
    }
    Some(bucket_value(HIST_BUCKETS - 1))
}

/// A point-in-time copy of every counter and histogram.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Snapshot {
    pub counters: [u64; N_METRICS],
    pub hists: [[u64; HIST_BUCKETS]; N_HISTS],
}

/// Capture the current values of all counters and histograms.
pub fn snapshot() -> Snapshot {
    let mut counters = [0u64; N_METRICS];
    for (dst, src) in counters.iter_mut().zip(COUNTERS.iter()) {
        *dst = src.load(Ordering::Relaxed);
    }
    let mut hists = [[0u64; HIST_BUCKETS]; N_HISTS];
    for (dst, src) in hists.iter_mut().zip(HISTS.iter()) {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d = s.load(Ordering::Relaxed);
        }
    }
    Snapshot { counters, hists }
}

impl Snapshot {
    /// Counter value for `m`.
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize]
    }

    /// Histogram buckets for `h`.
    pub fn hist(&self, h: Hist) -> &[u64; HIST_BUCKETS] {
        &self.hists[h as usize]
    }

    /// `(p50, p95, p99)` estimates for `h`; `None` when it has no samples.
    pub fn percentiles(&self, h: Hist) -> Option<(f64, f64, f64)> {
        let b = self.hist(h);
        Some((
            percentile(b, 50.0)?,
            percentile(b, 95.0)?,
            percentile(b, 99.0)?,
        ))
    }

    /// Per-counter / per-bucket difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (d, e) in out.counters.iter_mut().zip(earlier.counters.iter()) {
            *d = d.saturating_sub(*e);
        }
        for (dh, eh) in out.hists.iter_mut().zip(earlier.hists.iter()) {
            for (d, e) in dh.iter_mut().zip(eh.iter()) {
                *d = d.saturating_sub(*e);
            }
        }
        out
    }

    /// Plain-text summary listing only non-zero counters/histograms.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = Metric::ALL
            .iter()
            .filter(|&&m| self.get(m) > 0)
            .map(|m| m.name().len())
            .max()
            .unwrap_or(0);
        for &m in Metric::ALL.iter() {
            let v = self.get(m);
            if v > 0 {
                let _ = writeln!(out, "{:width$}  {v}", m.name());
            }
        }
        for &h in Hist::ALL.iter() {
            let b = self.hist(h);
            if b.iter().any(|&c| c > 0) {
                let n: u64 = b.iter().sum();
                match self.percentiles(h) {
                    Some((p50, p95, p99)) => {
                        let _ = writeln!(
                            out,
                            "{}: n={n} p50={p50:.0} p95={p95:.0} p99={p99:.0}",
                            h.name()
                        );
                    }
                    None => {
                        let _ = writeln!(out, "{}:", h.name());
                    }
                }
                for (i, &c) in b.iter().enumerate() {
                    if c > 0 {
                        let range = if i == 0 {
                            "        0".to_string()
                        } else {
                            format!("{:>4}..{:<4}", 1u64 << (i - 1), 1u64 << i)
                        };
                        let _ = writeln!(out, "  {range}  {c}");
                    }
                }
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

/// Print a summary to stderr when metrics are enabled. Binaries call this at
/// exit so `HEF_METRICS=1` has a visible effect.
pub fn report_if_enabled() {
    if enabled() {
        eprintln!("--- hef metrics ---\n{}", snapshot().render());
        dump_now();
    }
}

/// Minimum interval between [`maybe_dump`] appends.
const DUMP_INTERVAL_NS: u64 = 1_000_000_000;
static LAST_DUMP_NS: AtomicU64 = AtomicU64::new(0);

fn dump_target() -> Option<&'static std::path::PathBuf> {
    use std::sync::OnceLock;
    static TARGET: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();
    TARGET
        .get_or_init(|| {
            std::env::var("HEF_METRICS_DUMP")
                .ok()
                .filter(|p| !p.is_empty())
                .map(std::path::PathBuf::from)
        })
        .as_ref()
}

/// One JSONL record of the full registry state: timestamp, every non-zero
/// counter, and every non-empty histogram with its buckets and percentiles.
pub fn dump_line(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = write!(out, "{{\"ts_ns\":{}", crate::trace::now_ns());
    out.push_str(",\"counters\":{");
    let mut first = true;
    for &m in Metric::ALL.iter() {
        let v = snap.get(m);
        if v > 0 {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", m.name());
        }
    }
    out.push_str("},\"hists\":{");
    let mut first = true;
    for &h in Hist::ALL.iter() {
        let b = snap.hist(h);
        if b.iter().all(|&c| c == 0) {
            continue;
        }
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{{\"buckets\":[", h.name());
        for (i, &c) in b.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        out.push(']');
        if let Some((p50, p95, p99)) = snap.percentiles(h) {
            let _ = write!(out, ",\"p50\":{p50:.1},\"p95\":{p95:.1},\"p99\":{p99:.1}");
        }
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

/// Append one snapshot line to the `HEF_METRICS_DUMP` file right now.
/// Returns whether a line was written (false when disabled or no target).
pub fn dump_now() -> bool {
    if !enabled() {
        return false;
    }
    let Some(path) = dump_target() else {
        return false;
    };
    let line = dump_line(&snapshot());
    let res = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    if let Err(e) = res {
        crate::diag::warn_once(
            "metrics_dump_write",
            format!("metrics: failed to append {}: {e}", path.display()),
        );
        return false;
    }
    LAST_DUMP_NS.store(crate::trace::now_ns(), Ordering::Relaxed);
    true
}

/// Rate-limited [`dump_now`]: appends at most once per second. The engine
/// calls this at query completion so long-running governed workloads leave
/// a periodic JSONL record without per-query file traffic.
pub fn maybe_dump() {
    if !enabled() || dump_target().is_none() {
        return;
    }
    let now = crate::trace::now_ns();
    let last = LAST_DUMP_NS.load(Ordering::Relaxed);
    if now.saturating_sub(last) < DUMP_INTERVAL_NS {
        return;
    }
    // One writer wins the interval; losers skip (best-effort cadence).
    if LAST_DUMP_NS
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        dump_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // enable()/disable() are process-global; serialize the tests that flip them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        M.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn add_and_snapshot_delta() {
        let _g = lock();
        enable();
        let before = snapshot();
        add(Metric::TunerTrials, 5);
        observe(Hist::MorselRows, 1024);
        let d = snapshot().delta(&before);
        assert!(d.get(Metric::TunerTrials) >= 5);
        assert!(d.hist(Hist::MorselRows)[bucket(1024)] >= 1);
        let text = d.render();
        assert!(text.contains("tuner.trials"));
        assert!(text.contains("scheduler.morsel_rows"));
    }

    #[test]
    fn tally_publishes_on_flush_only() {
        let _g = lock();
        enable();
        let before = snapshot();
        let mut t = Tally::default();
        t.add(Metric::PlanProjectionsPruned, 3);
        t.add(Metric::PlanProjectionsPruned, 4);
        t.observe(Hist::TunerDriftPermille, 1000);
        let held = snapshot().delta(&before);
        assert_eq!(held.get(Metric::PlanProjectionsPruned), 0);
        assert_eq!(held.hist(Hist::TunerDriftPermille)[bucket(1000)], 0);
        t.flush();
        t.flush(); // a second flush publishes nothing more
        let d = snapshot().delta(&before);
        assert_eq!(d.get(Metric::PlanProjectionsPruned), 7);
        assert_eq!(d.hist(Hist::TunerDriftPermille)[bucket(1000)], 1);
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        disable();
        let before = snapshot();
        add(Metric::ProbeKeys, 100);
        observe(Hist::ProbeBatchHits, 7);
        let d = snapshot().delta(&before);
        assert_eq!(d.get(Metric::ProbeKeys), 0);
        assert!(d.hist(Hist::ProbeBatchHits).iter().all(|&c| c == 0));
        enable();
    }

    #[test]
    fn metric_names_unique() {
        let mut names: Vec<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len());
    }

    #[test]
    fn hist_names_unique() {
        let mut names: Vec<_> = Hist::ALL.iter().map(|h| h.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Hist::ALL.len());
    }

    #[test]
    fn percentile_empty_histogram_is_none() {
        let b = [0u64; HIST_BUCKETS];
        assert_eq!(percentile(&b, 50.0), None);
    }

    #[test]
    fn percentile_all_zero_values() {
        // Every sample in the zero bucket: all percentiles are exactly 0.
        let mut b = [0u64; HIST_BUCKETS];
        b[0] = 1000;
        assert_eq!(percentile(&b, 50.0), Some(0.0));
        assert_eq!(percentile(&b, 99.0), Some(0.0));
    }

    #[test]
    fn percentile_log2_bucket_edges() {
        // Values 1 (bucket 1) and 2..=3 (bucket 2): p50 of {1, 3} samples.
        let mut b = [0u64; HIST_BUCKETS];
        b[bucket(1)] += 1;
        b[bucket(3)] += 1;
        // rank(50%) = 1 → bucket 1's representative, inside [1, 2).
        assert_eq!(percentile(&b, 50.0), Some(bucket_value(1)));
        assert!((1.0..2.0).contains(&bucket_value(1)));
        assert_eq!(percentile(&b, 99.0), Some(bucket_value(2)));
        // An interior representative sits inside its bucket's range.
        let v = bucket_value(2);
        assert!((2.0..4.0).contains(&v), "bucket 2 midpoint {v}");
    }

    #[test]
    fn percentile_saturated_top_bucket() {
        // u64::MAX lands in the saturating top bucket; the representative is
        // the bucket's lower edge (the true range is unbounded above).
        let mut b = [0u64; HIST_BUCKETS];
        b[bucket(u64::MAX)] += 4;
        let top = bucket_value(HIST_BUCKETS - 1);
        assert_eq!(percentile(&b, 50.0), Some(top));
        assert_eq!(percentile(&b, 99.0), Some(top));
        assert_eq!(top, (1u64 << (HIST_BUCKETS - 2)) as f64);
    }

    #[test]
    fn percentile_rank_splits_two_buckets() {
        // 99 samples at 0, 1 sample high: p50 → 0, p99 → 0, p99.5+ → high.
        let mut b = [0u64; HIST_BUCKETS];
        b[0] = 99;
        b[bucket(1024)] = 1;
        assert_eq!(percentile(&b, 50.0), Some(0.0));
        assert_eq!(percentile(&b, 99.0), Some(0.0));
        assert_eq!(percentile(&b, 100.0), Some(bucket_value(bucket(1024))));
    }

    #[test]
    fn snapshot_percentiles_and_dump_line() {
        let _g = lock();
        enable();
        let before = snapshot();
        for _ in 0..100 {
            observe(Hist::MorselLatencyUs, 100);
        }
        observe(Hist::MorselLatencyUs, 100_000);
        let d = snapshot().delta(&before);
        let (p50, p95, p99) = d.percentiles(Hist::MorselLatencyUs).expect("samples");
        assert!((64.0..128.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p95 && p95 >= p50);
        let line = dump_line(&d);
        assert!(line.ends_with("}}\n"));
        assert!(line.contains("\"scheduler.morsel_latency_us\""));
        // The exporter emits strict JSON: the in-tree parser must accept it.
        crate::check::parse_json(line.trim_end()).expect("dump line parses");
    }
}
