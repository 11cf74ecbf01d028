//! Differential tests for the morsel-driven parallel executor: parallel
//! output must be bit-identical to the serial path — groups, `results()`,
//! `total()`, and the merged `ExecStats` — for every SSB query, every
//! flavor, and every tested thread count, including empty and sub-morsel
//! fact tables, and under injected worker panics.

use hef::engine::{
    execute_star, resolve_threads, CancelToken, Engine, ExecConfig, Fact, Flavor,
};
use hef::ssb::{build_plan, generate, QueryId};
use hef_testutil::fault::FaultPlan;

fn thread_counts() -> Vec<usize> {
    let n = resolve_threads(0);
    let mut t = vec![1, 2, 3, n.max(2)];
    t.sort_unstable();
    t.dedup();
    t
}

#[test]
fn parallel_bit_identical_to_serial_all_queries_all_flavors() {
    let data = generate(0.003, 0xD1FF);
    for q in QueryId::ALL {
        let plan = build_plan(&data, q);
        for flavor in Flavor::ALL {
            let cfg = ExecConfig::for_flavor(flavor).with_threads(1);
            let serial = execute_star(&plan, &data.lineorder, &cfg);
            for threads in thread_counts() {
                let par = execute_star(&plan, &data.lineorder, &cfg.with_threads(threads));
                let label = format!("{} × {} × {threads} threads", q.name(), flavor.name());
                assert_eq!(par.groups, serial.groups, "groups: {label}");
                assert_eq!(par.results(), serial.results(), "results(): {label}");
                assert_eq!(par.total(), serial.total(), "total(): {label}");
                assert_eq!(par.stats, serial.stats, "stats: {label}");
            }
        }
    }
}

#[test]
fn empty_and_sub_morsel_fact_tables() {
    let data = generate(0.003, 0xE0E0);
    let plan = build_plan(&data, QueryId::Q2_1);
    // Morsel size is MORSEL_BATCHES (4) × batch (1024) = 4096 rows; cover
    // n = 0, a single batch, and just under one morsel.
    for rows in [0usize, 1, 100, 1024, 4095] {
        let head = data.lineorder.head(rows.min(data.lineorder.len()));
        for flavor in Flavor::ALL {
            let cfg = ExecConfig::for_flavor(flavor).with_threads(1);
            let serial = execute_star(&plan, &head, &cfg);
            for threads in [2usize, 4, 16] {
                let par = execute_star(&plan, &head, &cfg.with_threads(threads));
                assert_eq!(
                    par, serial,
                    "{} rows={rows} threads={threads}",
                    flavor.name()
                );
            }
        }
    }
}

#[test]
fn auto_thread_count_matches_explicit_one() {
    // threads = 0 resolves (the engine's `HEF_THREADS`, else available
    // parallelism) — the answer must not depend on what it resolves to.
    let data = generate(0.002, 0xA0A0);
    let plan = build_plan(&data, QueryId::Q3_2);
    let auto = execute_star(&plan, &data.lineorder, &ExecConfig::hybrid_default());
    let one = execute_star(
        &plan,
        &data.lineorder,
        &ExecConfig::hybrid_default().with_threads(1),
    );
    assert_eq!(auto, one);
    for threads in [1usize, 4] {
        let engine =
            Engine::from_vars(|k| (k == "HEF_THREADS").then(|| threads.to_string()));
        let cfg = ExecConfig::hybrid_default();
        let (out, report) = engine
            .execute(&plan, Fact::Mem(&data.lineorder), &cfg, &CancelToken::new())
            .expect("clean run");
        assert_eq!(report.threads, threads);
        assert_eq!(out, one, "HEF_THREADS={threads}");
    }
}

#[test]
fn worker_panics_leave_every_query_bit_identical() {
    // Morsel 2 panics three times per query: two retries, then the
    // parallel attempt gives up and the serial fallback runs. Each query
    // gets a fresh engine, so every one of them sees the whole schedule.
    let data = generate(0.003, 0xD1FF);
    let (faults, warnings) = FaultPlan::parse("panic:morsel=2,times=3");
    assert!(warnings.is_empty(), "{warnings:?}");
    for q in QueryId::ALL {
        let plan = build_plan(&data, q);
        for flavor in Flavor::ALL {
            let cfg = ExecConfig::for_flavor(flavor).with_threads(1);
            let serial = execute_star(&plan, &data.lineorder, &cfg);
            for threads in [2usize, 4] {
                let engine = Engine::default().with_faults(faults.clone());
                let (out, report) = engine
                    .execute(
                        &plan,
                        Fact::Mem(&data.lineorder),
                        &cfg.with_threads(threads),
                        &CancelToken::new(),
                    )
                    .expect("recovers");
                let label = format!("{} × {} × {threads} threads", q.name(), flavor.name());
                assert_eq!(out, serial, "{label}");
                assert!(report.workers_lost >= 1, "{label}: the panic never fired");
            }
        }
    }
}

#[test]
fn multi_filter_queries_stay_identical_in_parallel() {
    // Q1.x carries secondary fact filters — the selection-refine kernel
    // path — so pin those down explicitly at several thread counts.
    let data = generate(0.004, 0xF11);
    for q in [QueryId::Q1_1, QueryId::Q1_2, QueryId::Q1_3] {
        let plan = build_plan(&data, q);
        for flavor in [Flavor::Scalar, Flavor::Simd, Flavor::Hybrid] {
            let cfg = ExecConfig::for_flavor(flavor).with_threads(1);
            let serial = execute_star(&plan, &data.lineorder, &cfg);
            for threads in [2usize, 5] {
                let par = execute_star(&plan, &data.lineorder, &cfg.with_threads(threads));
                assert_eq!(par, serial, "{} × {threads}", q.name());
            }
        }
    }
}
