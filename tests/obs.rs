//! Observability integration suite: the `hef-obs` tracing and metrics layer
//! against the real parallel executor.
//!
//! * a fine-grained capture of a parallel query renders valid Chrome
//!   `trace_event` JSON (validated by the in-tree checker) containing the
//!   query span, one span per worker with `worker-N` thread attribution,
//!   and per-morsel spans;
//! * span nesting is structurally sound under randomized workloads: every
//!   morsel span lies within a worker span on the same thread;
//! * the metrics registry is merge-deterministic: two identical parallel
//!   runs produce identical counter deltas regardless of morsel-to-worker
//!   assignment.
//!
//! Trace sessions and the metrics registry are process-global, so every
//! test serializes on one static mutex.

use std::sync::{Mutex, MutexGuard};

use hef::engine::{build_dimension, try_execute_star, ExecConfig, Measure, StarPlan};
use hef::obs::{check_trace, trace, Level, TraceReport};
use hef::storage::{Column, Table};
use hef_testutil::prop;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A star query sized for several morsels at batch 1024.
fn toy(rows: u64) -> (Table, StarPlan) {
    let mut fact = Table::new("fact");
    fact.add_column(Column::new("fk", (0..rows).map(|i| i % 64).collect()));
    fact.add_column(Column::new("rev", (0..rows).map(|i| i % 13 + 1).collect()));
    let mut dim = Table::new("dim");
    dim.add_column(Column::new("key", (0..64).collect()));
    let d = build_dimension(&dim, "key", |r| dim.col("key").get(r) < 48, |r| dim.col("key").get(r) % 4, 4, "fk");
    let plan = StarPlan {
        name: "obs-toy".into(),
        filters: vec![],
        dims: vec![d],
        measure: Measure::Sum("rev".into()),
        strides: vec![],
    };
    (fact, plan)
}

/// Capture one parallel run of `plan` at fine granularity.
fn traced_run(fact: &Table, plan: &StarPlan, threads: usize) -> TraceReport {
    trace::start_capture(Level::Fine);
    let cfg = ExecConfig::hybrid_default().with_threads(threads);
    try_execute_star(plan, fact, &cfg).expect("clean run");
    let out = trace::finish().expect("session was active");
    check_trace(&out.json).unwrap_or_else(|e| panic!("invalid trace: {e}\n{}", out.json))
}

#[test]
fn trace_roundtrip_has_query_worker_and_morsel_spans() {
    let _g = lock();
    let (fact, plan) = toy(20_000);
    let report = traced_run(&fact, &plan, 4);

    assert!(report.spans_named("query").count() >= 1, "no query span");
    let workers = report.spans_named("worker").count();
    assert!(workers >= 2, "expected parallel workers, got {workers}");
    assert!(report.spans_named("morsel").count() >= 2, "no per-morsel spans");
    assert_eq!(report.dropped, 0, "default buffer must hold a toy run");

    // Worker spans carry worker-thread attribution.
    let mut named = 0;
    for w in report.spans_named("worker") {
        let name = report
            .thread_names
            .get(&w.tid)
            .unwrap_or_else(|| panic!("worker span tid {} unnamed", w.tid));
        assert!(name.starts_with("worker-"), "worker span on thread `{name}`");
        named += 1;
    }
    assert_eq!(named, workers);
}

#[test]
fn every_morsel_span_nests_within_a_worker_span() {
    let _g = lock();
    // Randomized workloads; a failing case replays via HEF_PROP_SEED.
    prop::check_with(
        &prop::Config::with_cases(6),
        "morsel ⊆ worker on the same thread",
        |rng| 4096 + rng.gen_range(0u64..30_000),
        |&rows| {
            let (fact, plan) = toy(rows);
            let report = traced_run(&fact, &plan, 4);
            let workers: Vec<_> = report.spans_named("worker").collect();
            let mut morsels = 0usize;
            for m in report.spans_named("morsel") {
                morsels += 1;
                hef_testutil::prop_assert!(m.depth >= 1, "morsel span at top level (tid {})", m.tid);
                let enclosed = workers.iter().any(|w| {
                    w.tid == m.tid
                        && w.ts_us <= m.ts_us
                        && m.ts_us + m.dur_us <= w.ts_us + w.dur_us
                });
                hef_testutil::prop_assert!(
                    enclosed,
                    "rows={rows}: morsel at ts={} (tid {}) outside every worker span",
                    m.ts_us,
                    m.tid
                );
            }
            hef_testutil::prop_assert!(morsels > 0, "rows={rows}: no morsel spans captured");
            Ok(())
        },
    );
}

#[test]
fn counter_deltas_are_identical_across_identical_runs() {
    let _g = lock();
    use hef::obs::metrics;

    let (fact, plan) = toy(24_000);
    let cfg = ExecConfig::hybrid_default().with_threads(4);
    metrics::enable();

    let mut deltas = Vec::new();
    for _ in 0..2 {
        let before = metrics::snapshot();
        try_execute_star(&plan, &fact, &cfg).expect("clean run");
        let mut d = metrics::snapshot().delta(&before);
        // Wall-clock histograms (morsel latency, admission wait, deadline
        // slack, ...) are timing-dependent by design; determinism is only
        // promised for counters and count-based histograms.
        for h in metrics::Hist::ALL {
            if !matches!(
                h,
                metrics::Hist::FilterBatchRowsOut
                    | metrics::Hist::ProbeBatchHits
                    | metrics::Hist::MorselRows
            ) {
                d.hists[h as usize] = [0; metrics::HIST_BUCKETS];
            }
        }
        deltas.push(d);
    }
    assert_eq!(
        deltas[0], deltas[1],
        "identical runs must merge to identical counters:\n{}\nvs\n{}",
        deltas[0].render(),
        deltas[1].render()
    );
    // Sanity: the run actually recorded engine activity.
    assert!(deltas[0].get(metrics::Metric::MorselsClaimed) > 0);
    assert!(deltas[0].get(metrics::Metric::ProbeKeys) > 0);
    metrics::disable();
}
