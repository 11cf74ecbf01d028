//! Integration tests spanning the whole workspace: SSB data generation →
//! query planning → execution in every engine flavor → result agreement,
//! plus the offline tuning path feeding the engine.

use hef::core::{tune_simulated, Family};
use hef::engine::{execute_star, ExecConfig, Flavor, HybridConfig};
use hef::ssb::{build_plan, generate, QueryId};
use hef::uarch::CpuModel;

/// The serial path and the morsel-driven parallel path: every comparison
/// below runs at both.
const THREADS: [usize; 2] = [1, 4];

#[test]
fn all_13_queries_agree_across_all_flavors() {
    let data = generate(0.003, 20260707);
    for q in QueryId::ALL {
        let plan = build_plan(&data, q);
        let reference = execute_star(&plan, &data.lineorder, &ExecConfig::scalar());
        for flavor in [Flavor::Simd, Flavor::Hybrid, Flavor::Voila] {
            for threads in THREADS {
                let cfg = ExecConfig::for_flavor(flavor).with_threads(threads);
                let out = execute_star(&plan, &data.lineorder, &cfg);
                assert_eq!(
                    out.groups,
                    reference.groups,
                    "{} under {} × {threads} threads",
                    q.name(),
                    flavor.name()
                );
            }
        }
    }
}

#[test]
fn tuned_configs_drive_the_engine() {
    // Offline phase on a modeled CPU, then feed the tuned nodes into the
    // engine's hybrid flavor; results must match scalar exactly.
    let model = CpuModel::silver_4110();
    let probe = tune_simulated(Family::Probe, &model).cfg;
    let filter = tune_simulated(Family::Filter, &model).cfg;
    let agg = tune_simulated(Family::AggSum, &model).cfg;

    let data = generate(0.002, 7);
    for q in [QueryId::Q1_1, QueryId::Q2_1, QueryId::Q4_3] {
        let plan = build_plan(&data, q);
        let reference = execute_star(&plan, &data.lineorder, &ExecConfig::scalar());
        for threads in THREADS {
            let cfg = ExecConfig::hybrid(filter, probe, agg).with_threads(threads);
            let tuned = execute_star(&plan, &data.lineorder, &cfg);
            assert_eq!(tuned.groups, reference.groups, "{} × {threads} threads", q.name());
        }
    }
}

#[test]
fn results_are_stable_across_batch_sizes() {
    let data = generate(0.002, 99);
    let plan = build_plan(&data, QueryId::Q3_2);
    let reference = execute_star(&plan, &data.lineorder, &ExecConfig::hybrid_default());
    for threads in THREADS {
        let mut cfg = ExecConfig::hybrid_default().with_threads(threads);
        for batch in [64, 333, 1024, 4096, usize::MAX >> 20] {
            cfg.batch = batch;
            let out = execute_star(&plan, &data.lineorder, &cfg);
            assert_eq!(out.groups, reference.groups, "batch={batch} × {threads} threads");
        }
    }
}

#[test]
fn every_grid_node_executes_q2_1_correctly() {
    // The whole compiled kernel grid must be usable as a probe config.
    let data = generate(0.0008, 3);
    let plan = build_plan(&data, QueryId::Q2_1);
    let reference = execute_star(&plan, &data.lineorder, &ExecConfig::scalar());
    for cfg in hef::kernels::all_configs() {
        for threads in THREADS {
            let exec = ExecConfig::hybrid(HybridConfig::SCALAR, cfg, HybridConfig::SCALAR)
                .with_threads(threads);
            let out = execute_star(&plan, &data.lineorder, &exec);
            assert_eq!(out.groups, reference.groups, "probe node {cfg} × {threads} threads");
        }
    }
}

#[test]
fn scale_factor_scales_results_roughly_linearly() {
    // Twice the data → roughly twice the matched rows (statistically).
    let small = generate(0.002, 5);
    let large = generate(0.004, 5);
    let plan_s = build_plan(&small, QueryId::Q2_1);
    let plan_l = build_plan(&large, QueryId::Q2_1);
    for threads in THREADS {
        let cfg = ExecConfig::scalar().with_threads(threads);
        let out_s = execute_star(&plan_s, &small.lineorder, &cfg);
        let out_l = execute_star(&plan_l, &large.lineorder, &cfg);
        let ratio =
            out_l.stats.rows_aggregated as f64 / out_s.stats.rows_aggregated.max(1) as f64;
        assert!((1.2..3.4).contains(&ratio), "ratio {ratio} × {threads} threads");
    }
}
