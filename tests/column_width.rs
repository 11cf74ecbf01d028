//! Column width property: a fact table whose columns are stored in 32
//! bits, in 64 bits, or a mix of both gives bit-identical groups to a
//! row-at-a-time reference, on every flavor × available backend ×
//! {in-memory, paged} × {1, 2} threads.
//!
//! 64-bit columns hold values ≥ 2³² (keys and measures) or negative `i64`
//! values (filter columns), so every signed compare, key probe and
//! wrapping sum also runs on values a 32-bit column cannot hold.
//!
//! A failure prints the case seed; replay it exactly with
//! `HEF_PROP_SEED=0x… cargo test --test column_width`.

use std::collections::HashMap;

use hef::engine::{
    build_dimension, CancelToken, Engine, ExecConfig, Fact, Flavor, Measure, PagedTable,
    RangeFilter, StarPlan,
};
use hef::hid::Backend;
use hef::storage::{save_paged_column, Column, ColumnSlice, PageCache, Table};
use hef_testutil::prop::{self, Config};
use hef_testutil::prop_assert;
use hef_testutil::rng::Rng;

/// How a case's fact columns are stored.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Widths {
    All32,
    All64,
    /// Each column picks its width at random.
    Mixed,
}

/// One generated case: the shape, with the values drawn from `data_seed`.
#[derive(Debug)]
struct Case {
    rows: usize,
    widths: Widths,
    filters: usize,
    dims: usize,
    /// 0 = `Sum`, 1 = `SumProduct`, 2 = `SumDiff`.
    measure: u32,
    data_seed: u64,
}

fn gen_case(rng: &mut Rng) -> Case {
    Case {
        rows: rng.gen_range(1..5000usize),
        widths: [Widths::All32, Widths::All64, Widths::Mixed][rng.gen_range(0..3usize)],
        filters: rng.gen_range(0..3usize),
        dims: rng.gen_range(1..3usize),
        measure: rng.gen_range(0..3u32),
        data_seed: rng.next_u64(),
    }
}

/// The built case: fact table, plan, and each dimension's `key → payload`
/// map for the reference.
struct Built {
    fact: Table,
    plan: StarPlan,
    maps: Vec<HashMap<u64, u64>>,
}

fn build(case: &Case) -> Built {
    let mut rng = Rng::seed_from_u64(case.data_seed);
    let n = case.rows;
    let wide = |rng: &mut Rng| match case.widths {
        Widths::All32 => false,
        Widths::All64 => true,
        Widths::Mixed => rng.gen_range(0..2u32) == 1,
    };
    let mut fact = Table::new("fact");

    // Filter columns: small signed values; a wide one holds negatives, a
    // narrow one values at the top of the 32-bit range, which must compare
    // as large positives (zero-extended), not as negatives.
    let mut filters = Vec::new();
    for i in 0..case.filters {
        let w = wide(&mut rng);
        let mut vals: Vec<u64> = (0..n)
            .map(|_| {
                if w {
                    rng.gen_range(-60..60i64) as u64
                } else if rng.gen_range(0..8u32) == 0 {
                    u64::from(u32::MAX) - rng.gen_range(0..60u64)
                } else {
                    rng.gen_range(0..120u64)
                }
            })
            .collect();
        if w {
            vals[0] = -1i64 as u64;
        }
        let lo = rng.gen_range(-70..100i64);
        let hi = lo + rng.gen_range(0..100i64);
        let col = format!("f{i}");
        fact.add_column(Column::new(col.clone(), vals));
        filters.push(RangeFilter {
            col,
            lo: lo as u64,
            hi: hi as u64,
        });
    }

    // Dimensions: keys `base + k·mult` (a wide base puts every key above
    // 2³², a narrow one at 0 or near the top of the 32-bit range; a large
    // multiplier makes the index hashed), a quarter of the fact's foreign
    // keys missing from the dimension.
    let mut dims = Vec::new();
    let mut maps = Vec::new();
    for d in 0..case.dims {
        let base = if wide(&mut rng) {
            1u64 << 32
        } else {
            [0, 0xF000_0000][rng.gen_range(0..2usize)]
        };
        let mult = if rng.gen_range(0..3u32) == 0 { 7919 } else { 1 };
        let keys = rng.gen_range(1..300u64);
        let groups = rng.gen_range(1..6usize);
        let mut dim = Table::new(format!("dim{d}"));
        dim.add_column(Column::new(
            "key",
            (0..keys).map(|k| base + k * mult).collect(),
        ));
        let pass = |r: usize| r % 5 != 1;
        let pay = |r: usize| (r % groups) as u64;
        let fk = format!("fk{d}");
        dims.push(build_dimension(&dim, "key", pass, pay, groups, &fk));
        maps.push(
            (0..keys as usize)
                .filter(|&r| pass(r))
                .map(|r| (dim.col("key").get(r), pay(r)))
                .collect(),
        );
        let fks = (0..n)
            .map(|_| base + rng.gen_range(0..keys + keys / 4 + 1) * mult)
            .collect();
        fact.add_column(Column::new(fk, fks));
    }

    // Measures: small or top-of-range 32-bit values, or any 64-bit value
    // (wrapping sums).
    let arity = if case.measure == 0 { 1 } else { 2 };
    for m in 0..arity {
        let w = wide(&mut rng);
        let mut vals: Vec<u64> = (0..n)
            .map(|_| {
                if w {
                    rng.next_u64()
                } else if rng.gen_range(0..8u32) == 0 {
                    u64::from(u32::MAX) - rng.gen_range(0..1000u64)
                } else {
                    rng.gen_range(0..1000u64)
                }
            })
            .collect();
        if w {
            vals[0] = u64::MAX - 3;
        }
        fact.add_column(Column::new(format!("m{m}"), vals));
    }
    let measure = match case.measure {
        0 => Measure::Sum("m0".into()),
        1 => Measure::SumProduct("m0".into(), "m1".into()),
        _ => Measure::SumDiff("m0".into(), "m1".into()),
    };
    let plan = StarPlan {
        name: "width".into(),
        filters,
        dims,
        measure,
        strides: vec![],
    };
    Built { fact, plan, maps }
}

/// Row-at-a-time reference: signed filters, key lookups, wrapping sums.
fn reference(b: &Built) -> Vec<u64> {
    let (fact, plan) = (&b.fact, &b.plan);
    let strides = plan.gid_strides();
    let mut acc = vec![0u64; plan.group_cells()];
    let get = |col: &str, r: usize| fact.col(col).get(r);
    'rows: for r in 0..fact.len() {
        for f in &plan.filters {
            let x = get(&f.col, r) as i64;
            if x < f.lo as i64 || x > f.hi as i64 {
                continue 'rows;
            }
        }
        let mut gid = 0u64;
        for ((d, map), &stride) in plan.dims.iter().zip(&b.maps).zip(&strides) {
            match map.get(&get(&d.fk_col, r)) {
                Some(&p) => gid = gid.wrapping_add(p.wrapping_mul(stride)),
                None => continue 'rows,
            }
        }
        let v = match &plan.measure {
            Measure::Sum(a) => get(a, r),
            Measure::SumProduct(a, c) => get(a, r).wrapping_mul(get(c, r)),
            Measure::SumDiff(a, c) => get(a, r).wrapping_sub(get(c, r)),
        };
        acc[gid as usize] = acc[gid as usize].wrapping_add(v);
    }
    acc
}

fn backends() -> Vec<Backend> {
    [Backend::Emu, Backend::Avx2, Backend::Avx512]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

#[test]
fn every_width_mix_matches_the_reference_on_every_path() {
    let cases = Config::default().cases.min(24);
    prop::check_with(
        &Config::with_cases(cases),
        "column_width",
        gen_case,
        |case| {
            let b = build(case);
            let is32 = |c: &Column| matches!(c.slice(), ColumnSlice::U32(_));
            match case.widths {
                Widths::All32 => prop_assert!(b.fact.columns().iter().all(is32)),
                Widths::All64 => prop_assert!(!b.fact.columns().iter().any(is32)),
                Widths::Mixed => {}
            }
            let expect = reference(&b);

            let dir = std::env::temp_dir().join(format!(
                "hef-width-{}-{:x}",
                std::process::id(),
                case.data_seed
            ));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            for c in b.fact.columns() {
                save_paged_column(c, &dir.join(format!("{}.hefc", c.name())), 512)
                    .map_err(|e| e.to_string())?;
            }
            let paged = PagedTable::open_dir(&dir, "fact").map_err(|e| e.to_string())?;
            let cache = PageCache::new(1 << 20);
            let engine = Engine::default();

            let mut result = Ok(());
            'all: for flavor in Flavor::ALL {
                for backend in backends() {
                    for threads in [1, 2] {
                        let cfg = ExecConfig {
                            backend,
                            ..ExecConfig::for_flavor(flavor)
                        }
                        .with_threads(threads);
                        let mem =
                            engine.execute(&b.plan, Fact::Mem(&b.fact), &cfg, &CancelToken::new());
                        let on_pages = engine.execute(
                            &b.plan,
                            Fact::Paged(&paged, &cache),
                            &cfg,
                            &CancelToken::new(),
                        );
                        for (layer, out) in [("in memory", mem), ("paged", on_pages)] {
                            let label = format!(
                                "{} on {} at t{threads}, {layer}",
                                flavor.name(),
                                backend.name()
                            );
                            result = match out {
                                Ok((out, _)) if out.groups == expect => Ok(()),
                                Ok((out, _)) => Err(format!(
                                    "{label}: groups {:?}, want {expect:?}",
                                    out.groups
                                )),
                                Err(e) => Err(format!("{label}: {e}")),
                            };
                            if result.is_err() {
                                break 'all;
                            }
                        }
                    }
                }
            }
            std::fs::remove_dir_all(&dir).ok();
            result
        },
    );
}
