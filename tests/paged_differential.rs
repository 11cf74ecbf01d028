//! Differential tests for the paged executor: every SSB query scanned from
//! paged compressed columns must match the scalar in-memory serial
//! reference — groups bit for bit and every row/probe counter — for each
//! kernel flavor, thread count and page-cache size, and must recover from
//! injected worker panics exactly like the in-memory scheduler. Paged
//! queries are governed like in-memory ones: admitted, capped, degraded and
//! accounted by the engine that runs them.
//!
//! Injected faults and governor limits belong to a private engine per
//! query, so the tests in this binary run in parallel.

use std::path::PathBuf;

use hef::engine::{
    estimate_paged_query_bytes, execute_star, try_execute_star_paged_ctx, CancelToken, Engine,
    ExecConfig, ExecError, ExecReport, Fact, Flavor, GovernorConfig, PagedTable, QueryCtx,
    QueryOutput, StarPlan,
};
use hef::obs::metrics::{self, Metric};
use hef::ssb::{build_plan, generate, generate_paged, QueryId, SsbData, LINEORDER_COLUMNS};
use hef::storage::PageCache;
use hef_testutil::fault::FaultPlan;

const SF: f64 = 0.004;
const SEED: u64 = 0x9A6E;
/// Small pages so the SF-0.004 fact table spans a dozen of them.
const ROWS_PER_PAGE: u32 = 2048;

/// The in-memory dataset plus the same lineorder written as paged columns
/// under a per-test directory (removed on drop).
struct Fixture {
    data: SsbData,
    table: PagedTable,
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("hef-paged-diff-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        generate_paged(SF, SEED, &dir, ROWS_PER_PAGE).expect("paged generation");
        let table = PagedTable::open_dir(&dir, "lineorder").expect("paged open");
        Fixture {
            data: generate(SF, SEED),
            table,
            dir,
        }
    }

    /// Bytes of the largest page any lineorder column holds in the cache.
    fn max_page_bytes(&self) -> usize {
        LINEORDER_COLUMNS
            .iter()
            .map(|c| {
                self.table
                    .column(c)
                    .expect("column")
                    .read_page(0)
                    .expect("page")
                    .bytes()
            })
            .max()
            .expect("columns")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn reference(plan: &StarPlan, data: &SsbData) -> QueryOutput {
    execute_star(plan, &data.lineorder, &ExecConfig::scalar().with_threads(1))
}

fn paged(plan: &StarPlan, fx: &Fixture, cfg: &ExecConfig, cache: &PageCache) -> QueryOutput {
    try_execute_star_paged_ctx(plan, &fx.table, cfg, cache, &QueryCtx::unbounded())
        .unwrap_or_else(|e| panic!("{}: {e}", plan.name))
}

/// Run `plan` over the paged fixture on `engine`.
fn run_paged(
    engine: &Engine,
    plan: &StarPlan,
    fx: &Fixture,
    cfg: &ExecConfig,
    cache: &PageCache,
) -> Result<(QueryOutput, ExecReport), ExecError> {
    engine.execute(plan, Fact::Paged(&fx.table, cache), cfg, &CancelToken::new())
}

fn assert_same(got: &QueryOutput, expect: &QueryOutput, label: &str) {
    assert_eq!(got.groups, expect.groups, "groups: {label}");
    let (g, e) = (&got.stats, &expect.stats);
    assert_eq!(g.rows_scanned, e.rows_scanned, "rows_scanned: {label}");
    assert_eq!(
        g.rows_after_filter, e.rows_after_filter,
        "rows_after_filter: {label}"
    );
    assert_eq!(g.probes, e.probes, "probes: {label}");
    assert_eq!(g.hits, e.hits, "hits: {label}");
    assert_eq!(
        g.rows_aggregated, e.rows_aggregated,
        "rows_aggregated: {label}"
    );
}

#[test]
fn all_queries_match_in_memory_reference_every_flavor_thread_and_cache() {
    let fx = Fixture::new("sweep");
    assert!(
        fx.table.page_count() >= 8,
        "{} pages",
        fx.table.page_count()
    );
    // About two pages in one clock: nearly every fetch evicts.
    let tiny = PageCache::with_shards(2 * fx.max_page_bytes(), 1);
    let ample = PageCache::new(64 << 20);
    for q in QueryId::ALL {
        let plan = build_plan(&fx.data, q);
        let expect = reference(&plan, &fx.data);
        for flavor in [Flavor::Scalar, Flavor::Simd, Flavor::Hybrid] {
            for threads in [1usize, 2, 4] {
                let cfg = ExecConfig::for_flavor(flavor).with_threads(threads);
                for (name, cache) in [("tiny", &tiny), ("ample", &ample)] {
                    let got = paged(&plan, &fx, &cfg, cache);
                    let label =
                        format!("{} × {} × t{threads} × {name} cache", q.name(), flavor.name());
                    assert_same(&got, &expect, &label);
                }
            }
        }
    }
    assert!(tiny.used_bytes() <= tiny.capacity());
}

#[test]
fn worker_panic_at_a_page_morsel_is_retried_bit_identical() {
    let fx = Fixture::new("fault");
    let plan = build_plan(&fx.data, QueryId::Q2_1);
    let expect = reference(&plan, &fx.data);
    let cache = PageCache::new(64 << 20);
    let cfg = ExecConfig::hybrid_default().with_threads(2);
    metrics::enable();
    // Before the page runs, and after it was folded into the worker's
    // accumulators (the poisoned-state case).
    for spec in ["panic:morsel=2,times=1", "panic:morsel=3,times=1,after"] {
        let (faults, warnings) = FaultPlan::parse(spec);
        assert!(warnings.is_empty(), "{warnings:?}");
        let before = metrics::snapshot();
        let engine = Engine::default().with_faults(faults);
        let (got, report) = run_paged(&engine, &plan, &fx, &cfg, &cache).expect("recovers");
        let delta = metrics::snapshot().delta(&before);
        assert_same(&got, &expect, spec);
        assert_eq!(report.workers_lost, 1, "{spec}: {report:?}");
        assert!(
            delta.get(Metric::WorkersLost) >= 1,
            "{spec}: no worker loss counted"
        );
        assert!(
            delta.get(Metric::MorselsRetried) >= 1,
            "{spec}: no morsel retry counted"
        );
    }
}

#[test]
fn deadline_on_a_stalled_page_reports_partial_progress() {
    let fx = Fixture::new("deadline");
    let plan = build_plan(&fx.data, QueryId::Q1_1);
    let cache = PageCache::new(64 << 20);
    let cfg = ExecConfig::hybrid_default().with_threads(2);
    let (faults, _) = FaultPlan::parse("slow_morsel:morsel=1,ms=60000");
    let engine = Engine::default().with_faults(faults);
    let err = run_paged(&engine, &plan, &fx, &cfg.with_deadline_ms(2000), &cache)
        .expect_err("the stalled page outlives the deadline");
    match err {
        ExecError::DeadlineExceeded { report, .. } => {
            assert_eq!(report.threads, 2);
            assert!(report.morsels_completed >= 1, "{report:?}");
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
}

#[test]
fn unreadable_page_is_a_typed_failure() {
    let fx = Fixture::new("unreadable");
    let plan = build_plan(&fx.data, QueryId::Q3_1);
    let cache = PageCache::new(64 << 20);
    let victim = &plan.dims[0].fk_col;
    std::fs::remove_file(fx.dir.join(format!("{victim}.hefc"))).expect("remove column file");
    for threads in [1usize, 2] {
        let cfg = ExecConfig::scalar().with_threads(threads);
        let err = try_execute_star_paged_ctx(&plan, &fx.table, &cfg, &cache, &QueryCtx::unbounded())
            .expect_err("a missing column file cannot be scanned");
        assert!(
            matches!(&err, ExecError::Failed { message, .. } if message.contains("paged read failed")),
            "t{threads}: {err}"
        );
    }
}

#[test]
fn paged_query_on_a_full_engine_is_rejected() {
    let fx = Fixture::new("capped");
    let plan = build_plan(&fx.data, QueryId::Q2_1);
    let cache = PageCache::new(64 << 20);
    let cfg = ExecConfig::hybrid_default().with_threads(2);
    let engine = Engine::default().with_limits(GovernorConfig { max_queries: 1, mem_budget: 0 });
    let (mut held_cfg, mut held_threads) = (cfg, 2);
    let rows = fx.table.rows() as usize;
    let held = engine.governor().admit(&plan, rows, &mut held_cfg, &mut held_threads);
    let held = held.expect("the only slot");
    match run_paged(&engine, &plan, &fx, &cfg, &cache) {
        Err(ExecError::Rejected { retry_after_ms, .. }) => assert!(retry_after_ms >= 1),
        other => panic!("expected Rejected, got {other:?}"),
    }
    drop(held);
    let (got, _) = run_paged(&engine, &plan, &fx, &cfg, &cache).expect("slot freed");
    assert_same(&got, &reference(&plan, &fx.data), "after the slot freed");
}

#[test]
fn paged_budget_returns_to_zero_after_success_degradation_and_read_failure() {
    let fx = Fixture::new("budget");
    let plan = build_plan(&fx.data, QueryId::Q3_1);
    let expect = reference(&plan, &fx.data);
    // A cache of two pages, and a budget that fits it beside only the
    // minimal execution shape: admission must degrade before the cache
    // charge fits.
    let page_bytes = fx.max_page_bytes();
    let cache = PageCache::with_shards(2 * page_bytes, 1);
    let cfg = ExecConfig::hybrid_default().with_threads(2);
    let page_rows = fx.table.max_page_rows();
    let minimal = estimate_paged_query_bytes(&plan, page_rows, 1);
    let budget = minimal + cache.capacity();
    assert!(estimate_paged_query_bytes(&plan, page_rows, 2) + cache.capacity() > budget);
    let engine =
        Engine::default().with_limits(GovernorConfig { max_queries: 0, mem_budget: budget });
    let gov = engine.governor();

    metrics::enable();
    let before = metrics::snapshot();
    let (got, report) = run_paged(&engine, &plan, &fx, &cfg, &cache).expect("degraded run");
    assert!(metrics::snapshot().delta(&before).get(Metric::GovAdmitted) >= 1);
    assert_same(&got, &expect, "degraded paged run");
    assert!(!report.degrade_actions.is_empty(), "{report:?}");
    assert_eq!(gov.budget().used(), 0, "budget after a paged success");
    assert_eq!(gov.active_queries(), 0);

    let victim = &plan.dims[0].fk_col;
    std::fs::remove_file(fx.dir.join(format!("{victim}.hefc"))).expect("remove column file");
    let cold = PageCache::with_shards(2 * page_bytes, 1);
    let err = run_paged(&engine, &plan, &fx, &cfg, &cold).expect_err("unreadable page");
    assert!(matches!(err, ExecError::Failed { .. }), "{err}");
    assert_eq!(gov.budget().used(), 0, "budget after a paged read failure");
    assert_eq!(gov.active_queries(), 0);
}
