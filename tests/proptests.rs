//! Property-based tests (hef-testutil's harness) over the core invariants:
//! kernel-vs-reference equivalence on arbitrary inputs, translator
//! expansion laws, optimizer convergence on convex surfaces, and simulator
//! sanity bounds.
//!
//! A failure prints the case seed; replay it exactly with
//! `HEF_PROP_SEED=0x… cargo test --test proptests <name>`.

use hef::core::{optimizer, templates, translate, HybridConfig};
use hef::engine::{
    build_dimension, execute_star, ExecConfig, Measure, StarPlan,
};
use hef::hid::Backend;
use hef::kernels::{run_on, Family, KernelIo, ProbeTable, P_AXIS, S_AXIS, V_AXIS};
use hef::storage::{Column, Table};
use hef::uarch::{simulate, CpuModel};
use hef_testutil::rng::Rng;
use hef_testutil::{prop, prop_assert, prop_assert_eq, strategy};

/// Strategy for any node of the compiled grid.
fn grid_node(rng: &mut Rng) -> HybridConfig {
    loop {
        let v = V_AXIS[rng.gen_range(0..V_AXIS.len())];
        let s = S_AXIS[rng.gen_range(0..S_AXIS.len())];
        let p = P_AXIS[rng.gen_range(0..P_AXIS.len())];
        if v + s >= 1 {
            return HybridConfig { v, s, p };
        }
    }
}

#[test]
fn murmur_kernel_equals_reference() {
    prop::check(
        "murmur_kernel_equals_reference",
        strategy::pair(strategy::vec_of(strategy::any_u64(), 0..600), grid_node),
        |(input, cfg)| {
            let expect: Vec<u64> =
                input.iter().map(|&x| hef::kernels::murmur::murmur64(x)).collect();
            let mut out = vec![0u64; input.len()];
            let mut io = KernelIo::Map { input, output: &mut out };
            prop_assert!(run_on(Family::Murmur, *cfg, Backend::native(), &mut io));
            prop_assert_eq!(out, expect);
            Ok(())
        },
    );
}

#[test]
fn crc_kernel_equals_reference() {
    prop::check(
        "crc_kernel_equals_reference",
        strategy::pair(strategy::vec_of(strategy::any_u64(), 0..600), grid_node),
        |(input, cfg)| {
            let expect: Vec<u64> =
                input.iter().map(|&x| hef::kernels::crc64::crc64(x)).collect();
            let mut out = vec![0u64; input.len()];
            let mut io = KernelIo::Map { input, output: &mut out };
            prop_assert!(run_on(Family::Crc64, *cfg, Backend::native(), &mut io));
            prop_assert_eq!(out, expect);
            Ok(())
        },
    );
}

#[test]
fn filter_kernel_equals_reference() {
    let gen = |rng: &mut Rng| {
        let input = strategy::vec_of(strategy::any_u64(), 0..600)(rng);
        let lo = rng.next_u64() as i64;
        let span = rng.gen_range(0..1000i64);
        (input, lo, lo.saturating_add(span), grid_node(rng))
    };
    prop::check("filter_kernel_equals_reference", gen, |(input, lo, hi, cfg)| {
        let expect: Vec<u64> = input
            .iter()
            .enumerate()
            .filter(|(_, &x)| *lo <= x as i64 && x as i64 <= *hi)
            .map(|(i, _)| i as u64)
            .collect();
        let mut sel = Vec::new();
        let mut io = KernelIo::Filter {
            input,
            lo: *lo as u64,
            hi: *hi as u64,
            base: 0,
            sel: &mut sel,
        };
        prop_assert!(run_on(Family::Filter, *cfg, Backend::native(), &mut io));
        prop_assert_eq!(sel, expect);
        Ok(())
    });
}

#[test]
fn probe_kernel_equals_scalar_probe() {
    let gen = |rng: &mut Rng| {
        let entries = strategy::vec_of(
            strategy::pair(strategy::in_range(0..10_000u64), strategy::in_range(0..1_000_000u64)),
            1..400,
        )(rng);
        let keys = strategy::vec_of(strategy::in_range(0..12_000u64), 0..500)(rng);
        (entries, keys, grid_node(rng))
    };
    prop::check("probe_kernel_equals_scalar_probe", gen, |(entries, keys, cfg)| {
        let mut table = ProbeTable::with_capacity(entries.len());
        for &(k, v) in entries {
            table.insert(k, v);
        }
        let expect: Vec<u64> = keys.iter().map(|&k| table.probe_scalar(k)).collect();
        let mut out = vec![0u64; keys.len()];
        let mut io = KernelIo::Probe { keys, table: &table, out: &mut out };
        prop_assert!(run_on(Family::Probe, *cfg, Backend::native(), &mut io));
        prop_assert_eq!(out, expect);
        Ok(())
    });
}

#[test]
fn agg_sum_is_permutation_invariant() {
    prop::check(
        "agg_sum_is_permutation_invariant",
        strategy::pair(strategy::vec_of(strategy::any_u64(), 0..500), grid_node),
        |(a, cfg)| {
            let run_sum = |a: &[u64], cfg| {
                let mut acc = 0u64;
                let mut io = KernelIo::AggSum { a, acc: &mut acc };
                assert!(run_on(Family::AggSum, cfg, Backend::native(), &mut io));
                acc
            };
            let forward = run_sum(a, *cfg);
            let mut rev = a.clone();
            rev.reverse();
            let backward = run_sum(&rev, *cfg);
            prop_assert_eq!(forward, backward);
            Ok(())
        },
    );
}

#[test]
fn translator_expansion_law() {
    // Every template statement expands to exactly p*(v+s) body lines,
    // and no two body lines define the same variable instance.
    prop::check("translator_expansion_law", grid_node, |&cfg| {
        for family in Family::ALL {
            let t = templates::for_family(family);
            let code = translate(&t, cfg);
            prop_assert_eq!(code.body_statements(), t.stmts.len() * cfg.p * (cfg.v + cfg.s));
        }
        Ok(())
    });
}

#[test]
fn trace_size_scales_with_node() {
    prop::check("trace_size_scales_with_node", grid_node, |&cfg| {
        let t = templates::murmur();
        let body = hef::core::to_loop_body(&t, cfg);
        // 13 statements × p × (v+s) µops + induction + branch.
        prop_assert_eq!(body.len(), 13 * cfg.p * (cfg.v + cfg.s) + 2);
        prop_assert!(body.validate().is_ok());
        Ok(())
    });
}

#[test]
fn simulator_ipc_bounded_and_deterministic() {
    prop::check("simulator_ipc_bounded_and_deterministic", grid_node, |&cfg| {
        let t = templates::agg_dot();
        let body = hef::core::to_loop_body(&t, cfg);
        let m = CpuModel::gold_6240r();
        let a = simulate(&m, &body, 40);
        let b = simulate(&m, &body, 40);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert!(a.ipc <= m.issue_width as f64 + 1e-9);
        prop_assert!(a.ipc > 0.0);
        let total: u64 = a.issued_hist.iter().sum();
        prop_assert_eq!(total, a.cycles);
        Ok(())
    });
}

#[test]
fn filter_refine_equals_retain() {
    let gen = |rng: &mut Rng| {
        let input = strategy::vec_of(strategy::any_u64(), 1..800)(rng);
        let m = input.len() as u64;
        let sel = strategy::vec_of(strategy::in_range(0..m), 0..500)(rng);
        let lo = rng.next_u64() as i64;
        let span = rng.gen_range(0..u64::MAX >> 1) as i64;
        (input, sel, lo, lo.saturating_add(span), grid_node(rng))
    };
    prop::check("filter_refine_equals_retain", gen, |(input, sel, lo, hi, cfg)| {
        let mut expect = sel.clone();
        expect.retain(|&r| {
            let x = input[r as usize] as i64;
            *lo <= x && x <= *hi
        });
        let mut got = sel.clone();
        let mut io = KernelIo::FilterRefine {
            input,
            lo: *lo as u64,
            hi: *hi as u64,
            sel: &mut got,
        };
        prop_assert!(run_on(Family::Filter, *cfg, Backend::native(), &mut io));
        prop_assert_eq!(got, expect);
        Ok(())
    });
}

#[test]
fn parallel_execution_is_schedule_invariant() {
    // Morsel interleaving must never change the answer: for a random star
    // query, random batch size, and random thread counts, the merged groups
    // and stats are identical to the single-worker run — and to a repeated
    // run at another thread count (per-thread accumulators merge by
    // commutative wrapping adds).
    let gen = |rng: &mut Rng| {
        let n = rng.gen_range(0..6000u64);
        let domain = rng.gen_range(1..300u64);
        let fact_rows = strategy::vec_of(strategy::in_range(0..domain), n as usize..n as usize + 1)(rng);
        let batch = [64usize, 256, 1024][rng.gen_range(0..3usize)];
        let t1 = rng.gen_range(2..8usize);
        let t2 = rng.gen_range(2..8usize);
        (fact_rows, domain, batch, t1, t2)
    };
    prop::check(
        "parallel_execution_is_schedule_invariant",
        gen,
        |(fact_rows, domain, batch, t1, t2)| {
            let mut fact = Table::new("fact");
            fact.add_column(Column::new("fk", fact_rows.clone()));
            fact.add_column(Column::new(
                "rev",
                (0..fact_rows.len() as u64).map(|i| i % 13 + 1).collect(),
            ));
            let mut dim = Table::new("dim");
            dim.add_column(Column::new("key", (0..*domain).collect()));
            let cut = (*domain).div_ceil(2);
            let d = build_dimension(
                &dim,
                "key",
                |r| dim.col("key")[r] < cut,
                |r| dim.col("key")[r] % 4,
                4,
                "fk",
            );
            let plan = StarPlan {
                name: "prop".into(),
                filters: vec![],
                dims: vec![d],
                measure: Measure::Sum("rev".into()),
                strides: vec![],
            };
            let mut cfg = ExecConfig::hybrid_default().with_threads(1);
            cfg.batch = *batch;
            let serial = execute_star(&plan, &fact, &cfg);
            let a = execute_star(&plan, &fact, &cfg.with_threads(*t1));
            let b = execute_star(&plan, &fact, &cfg.with_threads(*t2));
            let a2 = execute_star(&plan, &fact, &cfg.with_threads(*t1));
            prop_assert_eq!(&a.groups, &serial.groups);
            prop_assert_eq!(&a.stats, &serial.stats);
            prop_assert_eq!(&b.groups, &serial.groups);
            prop_assert_eq!(&b.stats, &serial.stats);
            prop_assert_eq!(&a2.groups, &a.groups);
            Ok(())
        },
    );
}

#[test]
fn optimizer_finds_convex_optimum_from_any_start() {
    prop::check(
        "optimizer_finds_convex_optimum_from_any_start",
        strategy::pair(grid_node, grid_node),
        |&(start, opt)| {
            struct Convex {
                opt: HybridConfig,
            }
            impl optimizer::CostEvaluator for Convex {
                fn cost(&mut self, cfg: HybridConfig) -> f64 {
                    let ax = |x: usize, axis: &[usize]| {
                        axis.iter().position(|&a| a == x).unwrap() as f64
                    };
                    1.0 + (ax(cfg.v, V_AXIS) - ax(self.opt.v, V_AXIS)).abs()
                        + (ax(cfg.s, S_AXIS) - ax(self.opt.s, S_AXIS)).abs()
                        + (ax(cfg.p, P_AXIS) - ax(self.opt.p, P_AXIS)).abs()
                }
            }
            let mut eval = Convex { opt };
            let out = optimizer::optimize(start, &mut eval);
            prop_assert_eq!(out.best, opt);
            Ok(())
        },
    );
}
