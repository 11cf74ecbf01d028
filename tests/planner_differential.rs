//! Planner differential suite: the optimizer must never change answers.
//!
//! Three independent oracles pin the logical-plan pipeline:
//!
//! 1. **Naive vs optimized lowering** — every SSB query, every engine
//!    flavor: the declared-order unoptimized lowering and the fully
//!    optimized one produce bit-identical group vectors.
//! 2. **Reference interpreter** — a row-at-a-time scalar interpreter over
//!    the logical IR itself (no `StarPlan`, no kernels) agrees with both
//!    lowerings, on SSB queries and on randomly generated star trees over
//!    toy tables (property tests).
//! 3. **Text round-trip** — `parse_plan(render_plan(p)) == p` for every
//!    canned and optimized plan, so the `.plan` file format can't drift
//!    from the in-memory IR.

use hef::engine::{
    execute_star, lower, optimize, parse_plan, render_plan, Catalog, ExecConfig, Flavor,
    JoinSpec, LogicalPlan, Measure, Node, Pred, StarPlan,
};
use hef::ssb;
use hef::ssb::QueryId;
use hef::storage::{Column, Table};
use hef_testutil::rng::Rng;
use hef_testutil::{prop, prop_assert, prop_assert_eq};

// ---------------------------------------------------------------- reference

/// Flatten a logical plan into (fact predicates, joins in declared order,
/// measure) by walking the node tree directly.
fn flatten(plan: &LogicalPlan) -> (Vec<&Pred>, Vec<&JoinSpec>, &Measure) {
    let mut preds = Vec::new();
    let mut joins: Vec<&JoinSpec> = Vec::new();
    let mut measure = None;
    let mut node = &plan.root;
    loop {
        match node {
            Node::Agg { input, measure: m } => {
                measure = Some(m);
                node = input;
            }
            Node::Join { input, spec } => {
                joins.push(spec);
                node = input;
            }
            Node::Filter { input, pred } => {
                preds.push(pred);
                node = input;
            }
            Node::Project { input, .. } => node = input,
            Node::Scan { pushed, .. } => {
                preds.extend(pushed.iter());
                break;
            }
        }
    }
    joins.sort_by_key(|j| j.declared);
    (preds, joins, measure.expect("star plans end in Agg"))
}

/// Row-at-a-time interpreter of a logical plan — the semantic ground truth
/// both lowerings must match. Group-id encoding is mixed-radix over the
/// *declared* join order, exactly the contract `StarPlan::strides` pins.
fn interpret(plan: &LogicalPlan, fact: &Table, dims: &[&Table]) -> Vec<u64> {
    let (preds, joins, measure) = flatten(plan);
    let dim_of = |name: &str| {
        *dims
            .iter()
            .find(|t| t.name() == name)
            .unwrap_or_else(|| panic!("unknown dim table {name}"))
    };
    let cells: usize = joins.iter().map(|j| j.groups().max(1)).product();
    let mut acc = vec![0u64; cells.max(1)];
    'row: for r in 0..fact.len() {
        for p in &preds {
            if !p.matches(fact.col(p.col()).get(r)) {
                continue 'row;
            }
        }
        let mut gid = 0u64;
        for j in &joins {
            let dim = dim_of(&j.dim_table);
            let fk = fact.col(&j.fk_col).get(r);
            let Some(dr) = dim.col(&j.key_col).iter().position(|k| k == fk) else {
                continue 'row;
            };
            for p in &j.filters {
                if !p.matches(dim.col(p.col()).get(dr)) {
                    continue 'row;
                }
            }
            let code = j
                .group
                .as_ref()
                .map(|g| g.key.eval(dim.col(g.key.column()).get(dr)))
                .unwrap_or(0);
            gid = gid * j.groups().max(1) as u64 + code;
        }
        let v = match measure {
            Measure::Sum(c) => fact.col(c).get(r),
            Measure::SumProduct(a, b) => fact.col(a).get(r).wrapping_mul(fact.col(b).get(r)),
            Measure::SumDiff(a, b) => fact.col(a).get(r).wrapping_sub(fact.col(b).get(r)),
        };
        acc[gid as usize] = acc[gid as usize].wrapping_add(v);
    }
    acc
}

fn run(plan: &StarPlan, fact: &Table, flavor: Flavor) -> Vec<u64> {
    execute_star(plan, fact, &ExecConfig::for_flavor(flavor)).groups
}

// ---------------------------------------------------------------- SSB suite

#[test]
fn all_ssb_queries_naive_vs_optimized_all_flavors() {
    let d = ssb::generate(0.002, 0xD1FF);
    for q in QueryId::ALL {
        let naive = ssb::build_plan_naive(&d, q);
        let opt = ssb::build_plan(&d, q);
        let reference = run(&naive, &d.lineorder, Flavor::Scalar);
        for flavor in Flavor::ALL {
            assert_eq!(
                run(&opt, &d.lineorder, flavor),
                reference,
                "{} {}: optimized lowering diverged",
                q.name(),
                flavor.name()
            );
            assert_eq!(
                run(&naive, &d.lineorder, flavor),
                reference,
                "{} {}: naive lowering diverged",
                q.name(),
                flavor.name()
            );
        }
    }
}

#[test]
fn ssb_queries_match_the_reference_interpreter() {
    let d = ssb::generate(0.002, 0xD1FE);
    let dims: Vec<&Table> = vec![&d.customer, &d.supplier, &d.part, &d.date];
    for q in QueryId::ALL {
        let logical = ssb::logical_plan(q);
        let expect = interpret(&logical, &d.lineorder, &dims);
        let got = run(&ssb::build_plan(&d, q), &d.lineorder, Flavor::Scalar);
        assert_eq!(got, expect, "{}: engine diverged from IR semantics", q.name());
    }
}

#[test]
fn canned_and_optimized_plans_round_trip_through_text() {
    let d = ssb::generate(0.002, 0xD1FD);
    let cat = ssb::catalog(&d);
    for q in QueryId::ALL {
        let logical = ssb::logical_plan(q);
        let (optimized, _) = optimize(&logical, &cat).expect(q.name());
        for p in [&logical, &optimized] {
            let text = render_plan(p);
            let back = parse_plan(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", q.name()));
            assert_eq!(&back, p, "{} text round-trip\n{text}", q.name());
        }
    }
}

// ------------------------------------------------------ arbitrary plan text

/// An ad-hoc query no canned builder produces: revenue by customer region
/// over two mid-range years, with a fact-side quantity cut. Exercises the
/// full text → optimize → lower → execute path against the interpreter.
const AD_HOC: &str = "
// revenue by customer region, 1995-1996, quantity < 30
plan revenue_by_region {
  scan lineorder
  filter lo_quantity between 1 29
  join customer on lo_custkey = c_custkey declared 0 {
    group c_region groups 5
  }
  join date on lo_orderdate = d_datekey declared 1 {
    filter d_year between 1995 1996
  }
  agg sum lo_revenue
}
";

#[test]
fn ad_hoc_plan_text_optimizes_and_matches_reference() {
    let d = ssb::generate(0.002, 0xADAC);
    let cat = ssb::catalog(&d);
    let logical = parse_plan(AD_HOC).expect("ad-hoc plan parses");

    let (optimized, report) = optimize(&logical, &cat).expect("optimizes");
    // All three rules must be observable on this plan.
    assert_eq!(report.pushed.len(), 1, "quantity filter pushed into the scan");
    assert!(report.reordered, "filtered date join hoisted before customer");
    assert_eq!(report.join_order[0].0, "date");
    assert!(report.scan_columns.1 < report.scan_columns.0, "scan pruned");

    let dims: Vec<&Table> = vec![&d.customer, &d.supplier, &d.part, &d.date];
    let expect = interpret(&logical, &d.lineorder, &dims);
    let naive = lower(&logical, &cat).expect("naive lowering");
    let tuned = lower(&optimized, &cat).expect("optimized lowering");
    for flavor in Flavor::ALL {
        assert_eq!(run(&naive, &d.lineorder, flavor), expect, "naive {}", flavor.name());
        assert_eq!(run(&tuned, &d.lineorder, flavor), expect, "opt {}", flavor.name());
    }
}

// ------------------------------------------------------------ property tests

/// A random star query over two toy dimension tables, generated as plain
/// data so failures replay from the printed seed.
#[derive(Debug, Clone)]
struct RandomStar {
    fact_rows: Vec<[u64; 4]>, // fk1, fk2, m1, m2
    dim_attrs: [Vec<u64>; 2], // dim i: key = row index, attr = dim_attrs[i][row]
    plan: LogicalPlan,
}

fn gen_pred(rng: &mut Rng, col: &str, domain: u64) -> Pred {
    match rng.gen_range(0..3u32) {
        0 => Pred::eq(col, rng.gen_range(0..domain)),
        1 => {
            let lo = rng.gen_range(0..domain);
            Pred::between(col, lo, lo + rng.gen_range(0..domain))
        }
        _ => {
            let n = rng.gen_range(1..4usize);
            Pred::in_set(col, (0..n).map(|_| rng.gen_range(0..domain)).collect::<Vec<_>>())
        }
    }
}

fn gen_star(rng: &mut Rng) -> RandomStar {
    let keys = [rng.gen_range(4..40u64), rng.gen_range(4..40u64)];
    let attr_domain = 10u64;
    let dim_attrs = [
        (0..keys[0]).map(|_| rng.gen_range(0..attr_domain)).collect::<Vec<_>>(),
        (0..keys[1]).map(|_| rng.gen_range(0..attr_domain)).collect::<Vec<_>>(),
    ];
    let n = rng.gen_range(50..600usize);
    let fact_rows = (0..n)
        .map(|_| {
            [
                rng.gen_range(0..keys[0] + 3), // a few probe misses
                rng.gen_range(0..keys[1] + 3),
                rng.gen_range(0..1000u64),
                rng.gen_range(0..1000u64),
            ]
        })
        .collect();

    let join = |i: usize, rng: &mut Rng| {
        let mut j = hef::engine::JoinBuilder::new(
            ["dim_a", "dim_b"][i],
            ["fk1", "fk2"][i],
            "key",
        );
        if rng.gen_range(0..10u32) < 6 {
            j = j.filter(gen_pred(rng, "attr", attr_domain));
        }
        if rng.gen_range(0..10u32) < 6 {
            j = match rng.gen_range(0..2u32) {
                0 => {
                    let m = rng.gen_range(1..6u64);
                    j.group(hef::engine::KeyExpr::modulo("attr", m), m as usize)
                }
                _ => j.group(
                    hef::engine::KeyExpr::indicator("attr", rng.gen_range(0..attr_domain)),
                    2,
                ),
            };
        }
        j
    };

    let mut b = hef::engine::PlanBuilder::scan("random_star", "fact");
    for _ in 0..rng.gen_range(0..3u32) {
        // Fact-side predicates stay eq/between — a non-contiguous IN on the
        // fact is (deliberately) unsupported by the lowering.
        let col = ["m1", "m2"][rng.gen_range(0..2usize)];
        b = b.filter(match rng.gen_range(0..2u32) {
            0 => Pred::eq(col, rng.gen_range(0..1000u64)),
            _ => {
                let lo = rng.gen_range(0..1000u64);
                Pred::between(col, lo, lo + rng.gen_range(0..1000u64))
            }
        });
    }
    b = b.join(join(0, rng));
    if rng.gen_range(0..2u32) == 0 {
        b = b.join(join(1, rng));
    }
    let measure = match rng.gen_range(0..3u32) {
        0 => Measure::Sum("m1".into()),
        1 => Measure::SumProduct("m1".into(), "m2".into()),
        _ => Measure::SumDiff("m1".into(), "m2".into()),
    };
    RandomStar { fact_rows, dim_attrs, plan: b.agg(measure) }
}

fn build_tables(case: &RandomStar) -> (Table, Vec<Table>) {
    let mut fact = Table::new("fact");
    for (c, name) in ["fk1", "fk2", "m1", "m2"].iter().enumerate() {
        fact.add_column(Column::new(*name, case.fact_rows.iter().map(|r| r[c]).collect()));
    }
    let dims = ["dim_a", "dim_b"]
        .iter()
        .zip(&case.dim_attrs)
        .map(|(name, attrs)| {
            let mut t = Table::new(*name);
            t.add_column(Column::new("key", (0..attrs.len() as u64).collect()));
            t.add_column(Column::new("attr", attrs.clone()));
            t
        })
        .collect();
    (fact, dims)
}

#[test]
fn prop_random_star_trees_optimize_without_changing_results() {
    prop::check("prop_random_star_trees", gen_star, |case| {
        let (fact, dims) = build_tables(case);
        let dim_refs: Vec<&Table> = dims.iter().collect();
        let cat = Catalog::new(&fact, &dim_refs);
        prop_assert!(case.plan.validate().is_ok());
        let expect = interpret(&case.plan, &fact, &dim_refs);

        let naive = lower(&case.plan, &cat).map_err(|e| format!("naive lowering: {e}"))?;
        let (optimized, _) =
            optimize(&case.plan, &cat).map_err(|e| format!("optimize: {e}"))?;
        let tuned = lower(&optimized, &cat).map_err(|e| format!("opt lowering: {e}"))?;

        for flavor in Flavor::ALL {
            prop_assert_eq!(run(&naive, &fact, flavor), expect.clone());
            prop_assert_eq!(run(&tuned, &fact, flavor), expect.clone());
        }
        // The text form must survive both shapes as well.
        for p in [&case.plan, &optimized] {
            let back = parse_plan(&render_plan(p)).map_err(|e| format!("reparse: {e}"))?;
            prop_assert_eq!(&back, p);
        }
        Ok(())
    });
}
