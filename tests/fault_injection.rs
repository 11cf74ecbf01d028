//! Fault-injection suite: drives the `hef-testutil::fault` harness against
//! the full stack and pins down the robustness contract of ISSUE 3:
//!
//! * a panicking parallel worker yields either a completed query
//!   bit-identical to the serial output (recorded in [`ExecReport`]) or a
//!   typed [`ExecError`] — never a process abort;
//! * a corrupted, off-grid, or stale `HEF_REGISTRY` file changes no query
//!   result — only which (all result-identical) grid nodes execute it;
//! * a single injected cost-measurement spike never moves the tuner's
//!   `best` by more than one grid step;
//! * (ISSUE 8) governance: deadlines and cancellation surface as typed
//!   errors with partial [`ExecReport`] attribution, the memory budget
//!   returns to zero after *every* outcome, and no schedule of
//!   `slow_morsel:` / `mem_spike:` / worker-panic faults can deadlock or
//!   abort the process (`governance_*` tests, filterable with
//!   `cargo test --test fault_injection governance`).
//!
//! Query faults (worker panics, slow morsels, memory spikes) and governor
//! limits belong to a private [`Engine`] per test, so tests run in
//! parallel without seeing each other's schedules or budgets. Registry,
//! file and cost-spike faults act outside query execution and run inside
//! `fault::with_plan`, which serializes them process-wide.

use hef::core::{initial_candidate, on_grid, optimize, templates, Registry, RegistryIssue};
use hef::core::optimizer::{SimulatedCost, SpikedCost};
use hef::engine::{
    build_dimension, estimate_query_bytes, execute_star, join_table_budget, CancelToken,
    DegradeAction, Engine, ExecConfig, ExecError, ExecReport, Fact, GovernorConfig, Measure,
    QueryOutput, StarPlan, MIN_BATCH,
};
use hef::kernels::{Family, HybridConfig, P_AXIS, S_AXIS, V_AXIS};
use hef::storage::{Column, Table};
use hef::uarch::CpuModel;
use hef_testutil::fault::{with_plan, FaultPlan};
use hef_testutil::prop;

/// A toy star query large enough for several parallel morsels
/// (batch 1024 × `MORSEL_BATCHES` 4 = 4096 rows per morsel; 20 000 rows
/// span morsel indices 0..=4).
fn toy() -> (Table, StarPlan) {
    let n = 20_000u64;
    let mut fact = Table::new("fact");
    fact.add_column(Column::new("fk", (0..n).map(|i| i % 128).collect()));
    fact.add_column(Column::new("rev", (0..n).map(|i| i % 11 + 1).collect()));
    let mut dim = Table::new("dim");
    dim.add_column(Column::new("key", (0..128).collect()));
    let d = build_dimension(&dim, "key", |r| dim.col("key").get(r) < 96, |r| dim.col("key").get(r) % 8, 8, "fk");
    let plan = StarPlan {
        name: "toy".into(),
        filters: vec![],
        dims: vec![d],
        measure: Measure::Sum("rev".into()),
        strides: vec![],
    };
    (fact, plan)
}

/// Parse a `HEF_FAULT` spec (exercising the env grammar) into a plan,
/// rejecting specs with typos so the tests can't silently test nothing.
fn spec(s: &str) -> FaultPlan {
    let (plan, warnings) = FaultPlan::parse(s);
    assert!(warnings.is_empty(), "bad spec `{s}`: {warnings:?}");
    assert!(!plan.is_empty(), "spec `{s}` parsed to an empty plan");
    plan
}

/// A clean serial reference.
fn serial_reference(plan: &StarPlan, fact: &Table, cfg: &ExecConfig) -> QueryOutput {
    execute_star(plan, fact, &cfg.with_threads(1))
}

/// A private engine injecting the faults of `s`.
fn faulted(s: &str) -> Engine {
    Engine::default().with_faults(spec(s))
}

/// Run `plan` over the in-memory `fact` on `engine`.
fn run(
    engine: &Engine,
    plan: &StarPlan,
    fact: &Table,
    cfg: &ExecConfig,
) -> Result<(QueryOutput, ExecReport), ExecError> {
    engine.execute(plan, Fact::Mem(fact), cfg, &CancelToken::new())
}

// ---------------------------------------------------------------- worker panics

#[test]
fn one_worker_panic_is_retried_bit_identical() {
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default();
    let serial = serial_reference(&plan, &fact, &cfg);
    let (out, report) = run(&faulted("panic:morsel=2,times=1"), &plan, &fact, &cfg.with_threads(4))
        .expect("one lost worker must be recoverable");
    assert_eq!(out, serial, "recovery changed the result");
    assert_eq!(report.workers_lost, 1);
    assert!(report.morsels_retried >= 1);
    assert!(!report.degraded_to_serial);
}

#[test]
fn after_phase_panic_discards_poisoned_worker_state() {
    // The hard case: the worker dies *after* folding the morsel into its
    // accumulators. Keeping the worker would double-count; the executor
    // must discard it and replay everything it had done.
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default();
    let serial = serial_reference(&plan, &fact, &cfg);
    let engine = faulted("panic:morsel=1,times=1,after");
    let (out, report) =
        run(&engine, &plan, &fact, &cfg.with_threads(4)).expect("poisoned state must be replayable");
    assert_eq!(out, serial, "poisoned accumulator leaked into the result");
    assert_eq!(report.workers_lost, 1);
    assert!(report.morsels_retried >= 1);
}

#[test]
fn persistent_morsel_failure_degrades_to_serial() {
    // Morsel 1 fails on every retry; the parallel path gives up and the
    // serial fallback (whose fault hook fires on morsel 0 only) completes.
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default();
    let serial = serial_reference(&plan, &fact, &cfg);
    let engine = faulted("panic:morsel=1,times=99");
    let (out, report) =
        run(&engine, &plan, &fact, &cfg.with_threads(4)).expect("serial fallback must complete");
    assert_eq!(out, serial, "serial fallback changed the result");
    assert!(report.degraded_to_serial);
    assert!(report.workers_lost >= 1);
}

#[test]
fn exhausted_ladder_is_a_typed_error_not_an_abort() {
    // Morsel 0 fails forever, in the parallel workers *and* in the serial
    // fallback (the serial executor consults the hook as morsel 0): every
    // rung of the ladder is exhausted and the caller gets a typed error.
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default();
    let engine = faulted("panic:morsel=0,times=99");
    let err = run(&engine, &plan, &fact, &cfg.with_threads(4))
        .expect_err("nothing can run morsel 0; this must be an error");
    let msg = err.to_string();
    assert!(msg.contains("toy"), "error names the query: {msg}");
    assert!(msg.contains("injected panic"), "error carries the panic payload: {msg}");

    // The same contract on the serial path, and again while the schedule
    // still has firings left.
    assert!(run(&engine, &plan, &fact, &cfg.with_threads(1)).is_err());
    assert!(run(&engine, &plan, &fact, &cfg.with_threads(4)).is_err());
}

#[test]
fn faulted_run_through_public_entry_point_reports_recovery() {
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default();
    let serial = serial_reference(&plan, &fact, &cfg);
    let engine = faulted("panic:morsel=3,times=1");
    let (out, report) = run(&engine, &plan, &fact, &cfg.with_threads(4)).expect("recovers");
    assert_eq!(out, serial);
    assert_eq!(report.threads, 4);
    assert!(!report.is_clean());
    // The schedule is spent: the engine's next query is clean.
    let (out, report) = run(&engine, &plan, &fact, &cfg.with_threads(4)).expect("clean");
    assert_eq!(out, serial);
    assert!(report.is_clean(), "{report:?}");
}

// ---------------------------------------------------------------- registry faults

/// Registry entries deliberately different from both the paper default
/// `(1, 1, 3)` and each other, so a silently-ignored file would be caught.
fn good_registry_text() -> String {
    let mut reg = Registry::with_host_provenance("fault-injection suite");
    reg.insert(Family::Filter, HybridConfig { v: 2, s: 1, p: 2 });
    reg.insert(Family::Probe, HybridConfig { v: 1, s: 2, p: 2 });
    reg.insert(Family::AggSum, HybridConfig { v: 2, s: 2, p: 1 });
    reg.insert(Family::Gather, HybridConfig { v: 8, s: 0, p: 1 });
    reg.to_text()
}

fn hybrid_from(reg: &Registry) -> ExecConfig {
    ExecConfig::hybrid_tuned(
        reg.get_or_default(Family::Filter),
        reg.get_or_default(Family::Probe),
        reg.get_or_default(Family::AggSum),
        reg.get_or_default(Family::Gather),
    )
}

fn temp_registry(name: &str, text: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("hef_fault_{name}_{}.txt", std::process::id()));
    std::fs::write(&path, text).expect("write temp registry");
    path
}

#[test]
fn corrupted_registry_changes_no_query_result() {
    let (fact, plan) = toy();
    let path = temp_registry("corrupt", &good_registry_text());

    let (clean_reg, clean_report) =
        with_plan(FaultPlan::default(), || Registry::load_degraded(&path));
    assert!(clean_report.is_clean(), "{:?}", clean_report.issues);
    let baseline = serial_reference(&plan, &fact, &hybrid_from(&clean_reg));
    // The registry-tuned hybrid agrees with plain scalar execution.
    assert_eq!(
        baseline.groups,
        serial_reference(&plan, &fact, &ExecConfig::scalar()).groups
    );

    for seed in 1..=10u64 {
        let reg = with_plan(spec(&format!("registry:flips=8,seed={seed}")), || {
            Registry::load_degraded(&path).0
        });
        for family in Family::ALL {
            let node = reg.get_or_default(family);
            assert!(
                on_grid(node.v, node.s, node.p),
                "seed {seed}: {} served off-grid node {node}",
                family.name()
            );
        }
        let out = serial_reference(&plan, &fact, &hybrid_from(&reg));
        assert_eq!(out.groups, baseline.groups, "seed {seed} changed the query result");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn off_grid_registry_node_falls_back_and_result_is_unchanged() {
    let (fact, plan) = toy();
    let baseline = serial_reference(&plan, &fact, &ExecConfig::scalar());
    let text = "# hef tuned-operator registry v1\n\
                probe = 3 1 2\n\
                filter = 2 1 2\n";
    let path = temp_registry("offgrid", text);
    let (reg, report) = with_plan(FaultPlan::default(), || Registry::load_degraded(&path));
    assert!(
        report.issues.iter().any(|i| matches!(i, RegistryIssue::Fallback { family, .. } if *family == "probe")),
        "{:?}",
        report.issues
    );
    assert_eq!(report.fallbacks(), 1);
    assert_eq!(reg.get(Family::Filter), Some(HybridConfig { v: 2, s: 1, p: 2 }));
    let probe = reg.get(Family::Probe).expect("fallback node recorded");
    assert!(on_grid(probe.v, probe.s, probe.p));
    let out = serial_reference(&plan, &fact, &hybrid_from(&reg));
    assert_eq!(out.groups, baseline.groups);
    std::fs::remove_file(&path).ok();
}

#[test]
fn stale_isa_registry_rederives_and_result_is_unchanged() {
    let (fact, plan) = toy();
    let baseline = serial_reference(&plan, &fact, &ExecConfig::scalar());
    let text = "# hef tuned-operator registry v1\n\
                # isa: punchcards\n\
                filter = 2 1 2\n\
                probe = 1 2 2\n";
    let path = temp_registry("stale", text);
    let (reg, report) = with_plan(FaultPlan::default(), || Registry::load_degraded(&path));
    assert!(report.issues.iter().any(|i| matches!(i, RegistryIssue::StaleIsa { .. })));
    assert_eq!(report.fallbacks(), 2, "every recorded family re-derived");
    for family in [Family::Filter, Family::Probe] {
        let node = reg.get(family).expect("re-derived node recorded");
        assert!(on_grid(node.v, node.s, node.p));
    }
    let out = serial_reference(&plan, &fact, &hybrid_from(&reg));
    assert_eq!(out.groups, baseline.groups);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------- storage faults

#[test]
fn torn_registry_file_degrades_gracefully_and_warns() {
    let (fact, plan) = toy();
    let baseline = serial_reference(&plan, &fact, &ExecConfig::scalar());
    let path = temp_registry("torn", &good_registry_text());
    let file_key = path.file_name().unwrap().to_str().unwrap().to_string();

    let ((reg, report), warnings) = hef::obs::diag::capture(|| {
        with_plan(spec(&format!("torn:bytes=48,seed=7,file={file_key}")), || {
            Registry::load_degraded(&path)
        })
    });
    // Garbled tail bytes → dropped lines and/or fallbacks, never a panic,
    // and every served node still on the compiled grid.
    assert!(!report.is_clean(), "torn read produced a clean report");
    for family in Family::ALL {
        let node = reg.get_or_default(family);
        assert!(on_grid(node.v, node.s, node.p), "{} off grid", family.name());
    }
    let out = serial_reference(&plan, &fact, &hybrid_from(&reg));
    assert_eq!(out.groups, baseline.groups, "torn registry changed the query result");
    // The degradation is observable: the diag sink saw registry warnings.
    assert!(
        warnings.iter().any(|w| w.contains("registry")),
        "no registry warning captured: {warnings:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_and_short_column_files_salvage_and_emit_events() {
    use hef::obs::metrics::{self, Metric};
    use hef::storage::{load_column, save_column, ColumnFileIssue};

    let col = Column::new("lo_revenue", (0..512u64).map(|i| i * 3 + 1).collect());
    let dir = std::env::temp_dir();
    let torn_path = dir.join(format!("hef_torn_col_{}.hefc", std::process::id()));
    let short_path = dir.join(format!("hef_short_col_{}.hefc", std::process::id()));
    save_column(&col, &torn_path).unwrap();
    save_column(&col, &short_path).unwrap();

    metrics::enable();
    let before = metrics::snapshot();

    // Torn write: the file keeps its length but the tail (data + checksum)
    // is garbled → checksum mismatch reported, read still succeeds.
    let torn_key = torn_path.file_name().unwrap().to_str().unwrap().to_string();
    let ((torn_col, torn_issues), torn_warnings) = hef::obs::diag::capture(|| {
        with_plan(spec(&format!("torn:bytes=24,seed=5,file={torn_key}")), || {
            load_column(&torn_path).expect("torn column file must still load")
        })
    });
    assert!(
        torn_issues.iter().any(|i| matches!(
            i,
            ColumnFileIssue::ChecksumMismatch | ColumnFileIssue::Truncated { .. }
        )),
        "no issue for torn file: {torn_issues:?}"
    );
    assert_eq!(torn_col.name(), "lo_revenue");
    assert!(
        torn_warnings.iter().any(|w| w.contains("storage")),
        "no storage warning captured: {torn_warnings:?}"
    );

    // Short read: the tail is missing entirely → complete rows salvaged.
    let short_key = short_path.file_name().unwrap().to_str().unwrap().to_string();
    let ((short_col, short_issues), short_warnings) = hef::obs::diag::capture(|| {
        with_plan(spec(&format!("short:bytes=28,file={short_key}")), || {
            load_column(&short_path).expect("short column file must still load")
        })
    });
    let salvaged = short_issues
        .iter()
        .find_map(|i| match i {
            ColumnFileIssue::Truncated { expected_rows, salvaged_rows } => {
                Some((*expected_rows, *salvaged_rows))
            }
            _ => None,
        })
        .expect("short read must report truncation");
    assert_eq!(salvaged.0, 512);
    assert!(salvaged.1 < 512, "nothing was actually truncated");
    assert_eq!(short_col.len() as u64, salvaged.1, "salvage count disagrees with data");
    assert_eq!(short_col, col.head(short_col.len()), "salvaged rows differ");
    assert!(short_warnings.iter().any(|w| w.contains("storage")), "{short_warnings:?}");

    // Both degradations are visible in the metrics registry.
    let delta = metrics::snapshot().delta(&before);
    assert!(delta.get(Metric::StorageIssues) >= 2, "storage issues not counted");
    assert!(delta.get(Metric::ColumnFilesLoaded) >= 2);
    assert!(delta.get(Metric::FaultsInjected) >= 2);

    std::fs::remove_file(&torn_path).ok();
    std::fs::remove_file(&short_path).ok();
}

// ---------------------------------------------------------------- cost spikes

fn axis_index(x: usize, axis: &[usize]) -> usize {
    axis.iter().position(|&a| a == x).unwrap_or_else(|| panic!("{x} off axis {axis:?}"))
}

/// Manhattan distance in axis-index space — "grid steps".
fn grid_steps(a: HybridConfig, b: HybridConfig) -> usize {
    axis_index(a.v, V_AXIS).abs_diff(axis_index(b.v, V_AXIS))
        + axis_index(a.s, S_AXIS).abs_diff(axis_index(b.s, S_AXIS))
        + axis_index(a.p, P_AXIS).abs_diff(axis_index(b.p, P_AXIS))
}

// ---------------------------------------------------------------- governance

/// A star plan whose one dimension is a hash table far past the L2 budget,
/// so cancellation lands in the middle of its probes.
fn hashed() -> (Table, StarPlan) {
    // Sparse keys `k × 7919 + 13`, so the dimension is hashed.
    let n_dim = 200_000u64;
    let key = |k: u64| k * 7919 + 13;
    let mut dim = Table::new("bigdim");
    dim.add_column(Column::new("key", (0..n_dim).map(key).collect()));
    dim.add_column(Column::new("grp", (0..n_dim).map(|k| k % 8).collect()));
    let d = build_dimension(&dim, "key", |_| true, |r| dim.col("grp").get(r), 8, "fk");
    let table = d.index.hashed().expect("sparse keys hash");
    assert!(table.working_set_bytes() > join_table_budget(), "table must spill the budget");
    let n = 200_000u64;
    let mut fact = Table::new("fact");
    fact.add_column(Column::new("fk", (0..n).map(|i| key((i * 7919) % (n_dim * 3 / 2))).collect()));
    fact.add_column(Column::new("rev", (0..n).map(|i| i % 13 + 1).collect()));
    let plan = StarPlan {
        name: "bigjoin".into(),
        filters: vec![],
        dims: vec![d],
        measure: Measure::Sum("rev".into()),
        strides: vec![],
    };
    (fact, plan)
}

#[test]
fn governance_deadline_mid_morsel_is_typed_and_workers_joined() {
    let (fact, plan) = toy();
    // Morsel 0 stalls 500ms (interruptibly); the 15ms deadline fires
    // *inside* the stall, not between morsels.
    let cfg = ExecConfig::hybrid_default().with_threads(4).with_deadline_ms(15);
    let engine = faulted("slow_morsel:morsel=0,ms=500,times=8");
    let start = std::time::Instant::now();
    let err = run(&engine, &plan, &fact, &cfg)
        .expect_err("a 15ms deadline cannot survive 500ms stalls");
    match err {
        ExecError::DeadlineExceeded { query, deadline_ms, .. } => {
            assert_eq!(query, "toy");
            assert_eq!(deadline_ms, 15);
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    // Returning at all proves every worker joined (`thread::scope`);
    // returning fast proves the stall was interrupted mid-sleep.
    assert!(
        start.elapsed() < std::time::Duration::from_millis(2000),
        "deadline took {:?} to surface",
        start.elapsed()
    );
    let gov = engine.governor();
    assert_eq!(gov.budget().used(), 0, "budget must return to zero");
    assert_eq!(gov.active_queries(), 0);
    // The governor is not poisoned: the same plan completes on the same
    // engine once no deadline is in force.
    let (out, _) =
        run(&engine, &plan, &fact, &ExecConfig::hybrid_default()).expect("run after a deadline");
    assert_eq!(out, serial_reference(&plan, &fact, &ExecConfig::hybrid_default()));
}

#[test]
fn governance_cancel_during_hashed_probe_returns_budget_to_zero() {
    let (fact, plan) = hashed();
    let cfg = ExecConfig::hybrid_default().with_threads(4);
    // A finite budget so the admission actually charges bytes.
    let budget = estimate_query_bytes(&plan, &fact, &cfg, 4) * 4;
    let engine = faulted("slow_morsel:morsel=1,ms=500,times=8")
        .with_limits(GovernorConfig { max_queries: 0, mem_budget: budget });
    let cancel = CancelToken::new();
    let canceller = cancel.clone();
    std::thread::scope(|s| {
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            canceller.cancel();
        });
        let err = engine
            .execute(&plan, Fact::Mem(&fact), &cfg, &cancel)
            .expect_err("cancel must surface");
        match err {
            ExecError::Cancelled { query, .. } => assert_eq!(query, "bigjoin"),
            other => panic!("expected Cancelled, got {other}"),
        }
    });
    let gov = engine.governor();
    assert_eq!(gov.budget().used(), 0, "budget must return to zero after cancel");
    assert_eq!(gov.active_queries(), 0);
}

#[test]
fn governance_degraded_run_completes_bit_identical() {
    // A budget that fits only the minimal shape: the full ladder engages
    // (shrink batch, shed workers) and the query still produces exactly
    // the reference answer.
    let (fact, plan) = hashed();
    let reference = serial_reference(&plan, &fact, &ExecConfig::scalar());
    let minimal = estimate_query_bytes(
        &plan,
        &fact,
        &ExecConfig::hybrid_default().with_batch(MIN_BATCH),
        1,
    );
    let engine =
        Engine::default().with_limits(GovernorConfig { max_queries: 0, mem_budget: minimal });
    let (out, report) =
        run(&engine, &plan, &fact, &ExecConfig::hybrid_default().with_threads(4))
            .expect("degraded admission must still execute");
    assert_eq!(out.groups, reference.groups, "degradation changed the result");
    let actions = &report.degrade_actions;
    let took = |rung: fn(&DegradeAction) -> bool| actions.iter().any(rung);
    assert!(took(|a| matches!(a, DegradeAction::ShrinkBatch { .. })), "{actions:?}");
    assert!(took(|a| matches!(a, DegradeAction::ReduceWorkers { .. })), "{actions:?}");
    assert!(!report.is_clean(), "a degraded run must not report clean");
    assert_eq!(engine.governor().budget().used(), 0);
    assert_eq!(engine.governor().active_queries(), 0);
}

#[test]
fn governance_rejected_admission_retries_with_backoff_until_slot_frees() {
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default().with_threads(2);
    let engine = Engine::default().with_limits(GovernorConfig { max_queries: 1, mem_budget: 0 });
    let gov = engine.governor();
    let retry = |retries| {
        engine.execute_with_retry(&plan, Fact::Mem(&fact), &cfg, &CancelToken::new(), retries)
    };
    // Occupy the only slot, then free it from another thread while the
    // governed call sits in its backoff sleeps.
    let (mut held_cfg, mut held_threads) = (cfg, 2);
    let held = gov.admit(&plan, Fact::Mem(&fact), &mut held_cfg, &mut held_threads).expect("first admit");
    std::thread::scope(|s| {
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
        });
        let (out, _) = retry(8).expect("retry must succeed once the slot frees");
        assert_eq!(out, serial_reference(&plan, &fact, &cfg));
    });
    // With no retries, a held slot is an immediate typed rejection.
    let (mut held_cfg, mut held_threads) = (cfg, 2);
    let held2 = gov.admit(&plan, Fact::Mem(&fact), &mut held_cfg, &mut held_threads).expect("re-admit");
    match retry(0).expect_err("no retries, full queue") {
        ExecError::Rejected { retry_after_ms, .. } => assert!(retry_after_ms >= 1),
        other => panic!("expected Rejected, got {other}"),
    }
    drop(held2);
    assert_eq!(gov.active_queries(), 0);
}

#[test]
fn concurrent_engines_never_share_state() {
    // Regression for the process-wide governor and fault slots: three
    // engines run side by side, 50 queries each, and none may observe
    // another's admission cap, fault schedule or budget.
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default().with_threads(4);
    let serial = serial_reference(&plan, &fact, &cfg);
    std::thread::scope(|s| {
        s.spawn(|| {
            let capped =
                Engine::default().with_limits(GovernorConfig { max_queries: 1, mem_budget: 0 });
            let (mut held_cfg, mut held_threads) = (cfg, 4);
            let _held = capped
                .governor()
                .admit(&plan, Fact::Mem(&fact), &mut held_cfg, &mut held_threads)
                .expect("the only slot");
            for i in 0..50 {
                let r = run(&capped, &plan, &fact, &cfg);
                assert!(matches!(r, Err(ExecError::Rejected { .. })), "run {i}: {r:?}");
            }
        });
        s.spawn(|| {
            for i in 0..50 {
                let engine = faulted("panic:morsel=2,times=1");
                let (out, report) = run(&engine, &plan, &fact, &cfg).expect("recovers");
                assert_eq!(report.workers_lost, 1, "run {i}: {report:?}");
                assert_eq!(out, serial, "run {i}");
            }
        });
        s.spawn(|| {
            for i in 0..50 {
                let (out, report) = run(&Engine::default(), &plan, &fact, &cfg).expect("clean");
                assert!(report.is_clean(), "run {i}: {report:?}");
                assert_eq!(out, serial, "run {i}");
            }
        });
    });
}

#[test]
fn governance_any_fault_schedule_is_typed_never_hung() {
    // Property: under ANY combination of slow_morsel / mem_spike / panic
    // faults, with any deadline and cancellation timing, a governed query
    // either completes or fails with a typed error — never a hang (watchdog)
    // and never an abort (panic = channel disconnect) — and the budget
    // returns to zero afterwards.
    prop::check_with(
        &prop::Config::with_cases(24),
        "governed faults ⇒ typed outcome, zero budget, no hang",
        |rng| {
            let mut clauses: Vec<String> = Vec::new();
            if rng.gen_range(0..2u32) == 1 {
                clauses.push(format!(
                    "slow_morsel:morsel={},ms={},times={}",
                    rng.gen_range(0..5usize),
                    rng.gen_range(1..40u64),
                    rng.gen_range(1..4u32),
                ));
            }
            if rng.gen_range(0..2u32) == 1 {
                clauses.push(format!(
                    "mem_spike:bytes={},times={}",
                    rng.gen_range(1024..(64u64 << 20)),
                    rng.gen_range(1..3u32),
                ));
            }
            if rng.gen_range(0..2u32) == 1 {
                clauses.push(format!(
                    "panic:morsel={},times={}",
                    rng.gen_range(0..5usize),
                    rng.gen_range(1..3u32),
                ));
            }
            (
                clauses.join(";"),
                [0u64, 5, 10_000][rng.gen_range(0..3usize)], // deadline_ms
                rng.gen_range(0..2u32) == 1,                    // cancel mid-run?
                [1usize, 2, 4][rng.gen_range(0..3usize)],    // threads
                rng.gen_range(0..3u32),                      // admission retries
            )
        },
        |case| {
            let (spec_str, deadline_ms, cancel_mid, threads, retries) = case.clone();
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let (fact, plan) = toy();
                let cfg = ExecConfig::hybrid_default()
                    .with_threads(threads)
                    .with_deadline_ms(deadline_ms);
                let budget = estimate_query_bytes(&plan, &fact, &cfg, threads) * 2;
                let faults = if spec_str.is_empty() {
                    FaultPlan::default()
                } else {
                    spec(&spec_str)
                };
                let engine = Engine::default()
                    .with_limits(GovernorConfig { max_queries: 2, mem_budget: budget })
                    .with_faults(faults);
                let cancel = CancelToken::new();
                let canceller = cancel.clone();
                let outcome = std::thread::scope(|s| {
                    if cancel_mid {
                        s.spawn(move || {
                            std::thread::sleep(std::time::Duration::from_millis(3));
                            canceller.cancel();
                        });
                    }
                    engine.execute_with_retry(&plan, Fact::Mem(&fact), &cfg, &cancel, retries)
                });
                let gov = engine.governor();
                let leak = (gov.budget().used(), gov.active_queries());
                tx.send((outcome.map(|(out, _)| out), leak)).ok();
            });
            let (outcome, (budget_used, active)) = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|e| match e {
                    std::sync::mpsc::RecvTimeoutError::Timeout => {
                        panic!("governed query hung under {case:?}")
                    }
                    std::sync::mpsc::RecvTimeoutError::Disconnected => {
                        panic!("governed query panicked (not typed) under {case:?}")
                    }
                });
            hef_testutil::prop_assert!(
                budget_used == 0 && active == 0,
                "leaked accounting under {case:?}: used={budget_used} active={active}"
            );
            if let Err(e) = outcome {
                // Every failure is one of the typed governance/robustness
                // variants — reaching here at all means no panic escaped.
                hef_testutil::prop_assert!(
                    matches!(
                        e,
                        ExecError::Failed { .. }
                            | ExecError::Rejected { .. }
                            | ExecError::Cancelled { .. }
                            | ExecError::DeadlineExceeded { .. }
                    ),
                    "unexpected error kind under {case:?}: {e}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn single_cost_spike_moves_best_at_most_one_grid_step() {
    let silver = CpuModel::silver_4110();
    // Unspiked reference search per family (pure simulation, no fault hooks).
    let baselines: Vec<(Family, HybridConfig)> = Family::ALL
        .into_iter()
        .map(|family| {
            let template = templates::for_family(family);
            let initial = initial_candidate(&silver, &template);
            let mut eval = SimulatedCost::new(&silver, &template);
            (family, optimize(initial, &mut eval).best)
        })
        .collect();

    // Each case is a full (simulated) tuner search; cap the count so the
    // suite stays minutes-not-hours. HEF_PROP_SEED still replays any case.
    let factors = [0.0625, 0.125, 8.0, 16.0];
    prop::check_with(
        &prop::Config::with_cases(16),
        "one spike ⇒ best moves ≤ 1 grid step",
        |rng| {
            (
                rng.gen_range(0..Family::ALL.len()),
                rng.gen_range(0usize..30),
                factors[rng.gen_range(0..factors.len())],
            )
        },
        |&(fi, trial, factor)| {
            let (family, base_best) = baselines[fi];
            let template = templates::for_family(family);
            let initial = initial_candidate(&silver, &template);
            let spiked_best = with_plan(spec(&format!("spike:trial={trial},factor={factor}")), || {
                let mut eval = SpikedCost { inner: SimulatedCost::new(&silver, &template) };
                optimize(initial, &mut eval).best
            });
            let steps = grid_steps(base_best, spiked_best);
            hef_testutil::prop_assert!(
                steps <= 1,
                "{}: spike trial={trial} factor={factor} moved best {base_best} -> {spiked_best} ({steps} steps)",
                family.name()
            );
            Ok(())
        },
    );
}
