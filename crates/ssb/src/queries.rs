//! The 13 SSB queries, expressed in the logical plan IR and lowered onto
//! the tuned executor.
//!
//! Queries are written over the encoded schema: dimension predicates are
//! build-side filters, group-by columns are dense payload codes, and the
//! fact table carries only range filters (Q1.x). [`logical_plan`] is the
//! single source of truth; [`build_plan`] optimizes (predicate pushdown,
//! selectivity-ordered join reordering, projection pruning) and lowers it,
//! while [`build_plan_naive`] lowers the declared-order plan unoptimized —
//! the two are bit-identical by construction (group-id encoding follows the
//! declared join order via `StarPlan::strides`).

use hef_engine::{
    lower, optimize, Catalog, JoinBuilder, KeyExpr, LogicalPlan, Measure, PlanBuilder, Pred,
    StarPlan,
};

use crate::encode::*;
use crate::gen::SsbData;

/// The 13 SSB queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_camel_case_types)]
pub enum QueryId {
    Q1_1,
    Q1_2,
    Q1_3,
    Q2_1,
    Q2_2,
    Q2_3,
    Q3_1,
    Q3_2,
    Q3_3,
    Q3_4,
    Q4_1,
    Q4_2,
    Q4_3,
}

impl QueryId {
    /// All 13 queries.
    pub const ALL: [QueryId; 13] = [
        QueryId::Q1_1,
        QueryId::Q1_2,
        QueryId::Q1_3,
        QueryId::Q2_1,
        QueryId::Q2_2,
        QueryId::Q2_3,
        QueryId::Q3_1,
        QueryId::Q3_2,
        QueryId::Q3_3,
        QueryId::Q3_4,
        QueryId::Q4_1,
        QueryId::Q4_2,
        QueryId::Q4_3,
    ];

    /// The 10 queries the paper plots (Q1.x are memory-bandwidth-bound and
    /// excluded by the paper's methodology).
    pub const PAPER: [QueryId; 10] = [
        QueryId::Q2_1,
        QueryId::Q2_2,
        QueryId::Q2_3,
        QueryId::Q3_1,
        QueryId::Q3_2,
        QueryId::Q3_3,
        QueryId::Q3_4,
        QueryId::Q4_1,
        QueryId::Q4_2,
        QueryId::Q4_3,
    ];

    /// Display name, e.g. `Q2.1`.
    pub fn name(self) -> &'static str {
        match self {
            QueryId::Q1_1 => "Q1.1",
            QueryId::Q1_2 => "Q1.2",
            QueryId::Q1_3 => "Q1.3",
            QueryId::Q2_1 => "Q2.1",
            QueryId::Q2_2 => "Q2.2",
            QueryId::Q2_3 => "Q2.3",
            QueryId::Q3_1 => "Q3.1",
            QueryId::Q3_2 => "Q3.2",
            QueryId::Q3_3 => "Q3.3",
            QueryId::Q3_4 => "Q3.4",
            QueryId::Q4_1 => "Q4.1",
            QueryId::Q4_2 => "Q4.2",
            QueryId::Q4_3 => "Q4.3",
        }
    }

    /// Number of joins in the plan (the paper groups queries by this).
    pub fn joins(self) -> usize {
        match self {
            QueryId::Q1_1 | QueryId::Q1_2 | QueryId::Q1_3 => 1,
            QueryId::Q2_1 | QueryId::Q2_2 | QueryId::Q2_3 => 3,
            QueryId::Q3_1 | QueryId::Q3_2 | QueryId::Q3_3 | QueryId::Q3_4 => 3,
            _ => 4,
        }
    }
}

/// The planning catalog over one generated SSB data set.
pub fn catalog(d: &SsbData) -> Catalog<'_> {
    Catalog::new(&d.lineorder, &[&d.customer, &d.supplier, &d.part, &d.date])
}

/// Date joined for grouping by year, restricted to `lo..=hi`.
fn date_years(lo: u64, hi: u64) -> JoinBuilder {
    JoinBuilder::new("date", "lo_orderdate", "d_datekey")
        .filter(Pred::between("d_year", lo, hi))
        .group(KeyExpr::shifted("d_year", FIRST_YEAR), YEARS as usize)
}

/// The logical IR of query `q` — pure metadata, no table access. The
/// declared join order matches the legacy hand-built plans (most selective
/// dimension first), so the *naive* lowering reproduces them exactly.
pub fn logical_plan(q: QueryId) -> LogicalPlan {
    let sum_rev = Measure::Sum("lo_revenue".to_string());
    let profit = Measure::SumDiff("lo_revenue".to_string(), "lo_supplycost".to_string());
    let revenue_x_discount =
        Measure::SumProduct("lo_extendedprice".to_string(), "lo_discount".to_string());
    let date_pure = |preds: Vec<Pred>| {
        let mut j = JoinBuilder::new("date", "lo_orderdate", "d_datekey");
        for p in preds {
            j = j.filter(p);
        }
        j
    };
    match q {
        // ---- Q1.x: date filter + lineorder predicates, ungrouped ----
        QueryId::Q1_1 => PlanBuilder::scan("Q1.1", "lineorder")
            .filter(Pred::between("lo_discount", 1, 3))
            .filter(Pred::between("lo_quantity", 1, 24))
            .join(date_pure(vec![Pred::eq("d_year", 1993)]))
            .agg(revenue_x_discount),
        QueryId::Q1_2 => PlanBuilder::scan("Q1.2", "lineorder")
            .filter(Pred::between("lo_discount", 4, 6))
            .filter(Pred::between("lo_quantity", 26, 35))
            .join(date_pure(vec![Pred::eq("d_yearmonthnum", 199_401)]))
            .agg(revenue_x_discount),
        QueryId::Q1_3 => PlanBuilder::scan("Q1.3", "lineorder")
            .filter(Pred::between("lo_discount", 5, 7))
            .filter(Pred::between("lo_quantity", 26, 35))
            .join(date_pure(vec![
                Pred::eq("d_weeknuminyear", 6),
                Pred::eq("d_year", 1994),
            ]))
            .agg(revenue_x_discount),
        // ---- Q2.x: part × supplier × date, grouped by (p_brand1, d_year) ----
        QueryId::Q2_1 | QueryId::Q2_2 | QueryId::Q2_3 => {
            let part_pred = match q {
                // p_category = 'MFGR#12'
                QueryId::Q2_1 => Pred::eq("p_category", category(1, 2)),
                // p_brand1 between 'MFGR#2221' and 'MFGR#2228'
                QueryId::Q2_2 => Pred::between("p_brand1", brand(2, 2, 21), brand(2, 2, 28)),
                // p_brand1 = 'MFGR#2239'
                _ => Pred::eq("p_brand1", brand(2, 2, 39)),
            };
            let region = match q {
                QueryId::Q2_1 => AMERICA,
                QueryId::Q2_2 => ASIA,
                _ => EUROPE,
            };
            PlanBuilder::scan(q.name(), "lineorder")
                .join(
                    JoinBuilder::new("part", "lo_partkey", "p_partkey")
                        .filter(part_pred)
                        .group(KeyExpr::col("p_brand1"), BRANDS as usize),
                )
                .join(
                    JoinBuilder::new("supplier", "lo_suppkey", "s_suppkey")
                        .filter(Pred::eq("s_region", region)),
                )
                .join(date_years(FIRST_YEAR, LAST_YEAR))
                .agg(sum_rev)
        }
        // ---- Q3.x: customer × supplier × date ----
        QueryId::Q3_1 => PlanBuilder::scan("Q3.1", "lineorder")
            .join(
                JoinBuilder::new("customer", "lo_custkey", "c_custkey")
                    .filter(Pred::eq("c_region", ASIA))
                    .group(KeyExpr::modulo("c_nation", 5), 5), // 5 nations in the region
            )
            .join(
                JoinBuilder::new("supplier", "lo_suppkey", "s_suppkey")
                    .filter(Pred::eq("s_region", ASIA))
                    .group(KeyExpr::modulo("s_nation", 5), 5),
            )
            .join(date_years(1992, 1997))
            .agg(sum_rev),
        QueryId::Q3_2 => PlanBuilder::scan("Q3.2", "lineorder")
            .join(
                JoinBuilder::new("customer", "lo_custkey", "c_custkey")
                    .filter(Pred::eq("c_nation", UNITED_STATES))
                    .group(KeyExpr::modulo("c_city", 10), 10), // 10 cities in the nation
            )
            .join(
                JoinBuilder::new("supplier", "lo_suppkey", "s_suppkey")
                    .filter(Pred::eq("s_nation", UNITED_STATES))
                    .group(KeyExpr::modulo("s_city", 10), 10),
            )
            .join(date_years(1992, 1997))
            .agg(sum_rev),
        QueryId::Q3_3 | QueryId::Q3_4 => {
            let date = if q == QueryId::Q3_3 {
                date_years(1992, 1997)
            } else {
                // Q3.4: d_yearmonth = 'Dec1997'
                JoinBuilder::new("date", "lo_orderdate", "d_datekey")
                    .filter(Pred::eq("d_yearmonthnum", 199_712))
                    .group(KeyExpr::shifted("d_year", FIRST_YEAR), YEARS as usize)
            };
            PlanBuilder::scan(q.name(), "lineorder")
                .join(
                    JoinBuilder::new("customer", "lo_custkey", "c_custkey")
                        .filter(Pred::in_set("c_city", [UNITED_KI1, UNITED_KI5]))
                        .group(KeyExpr::indicator("c_city", UNITED_KI5), 2),
                )
                .join(
                    JoinBuilder::new("supplier", "lo_suppkey", "s_suppkey")
                        .filter(Pred::in_set("s_city", [UNITED_KI1, UNITED_KI5]))
                        .group(KeyExpr::indicator("s_city", UNITED_KI5), 2),
                )
                .join(date)
                .agg(sum_rev)
        }
        // ---- Q4.x: customer × supplier × part × date, profit measure ----
        QueryId::Q4_1 => PlanBuilder::scan("Q4.1", "lineorder")
            .join(
                JoinBuilder::new("part", "lo_partkey", "p_partkey")
                    .filter(Pred::in_set("p_mfgr", [0, 1])), // MFGR#1 or MFGR#2
            )
            .join(
                JoinBuilder::new("customer", "lo_custkey", "c_custkey")
                    .filter(Pred::eq("c_region", AMERICA))
                    .group(KeyExpr::modulo("c_nation", 5), 5),
            )
            .join(
                JoinBuilder::new("supplier", "lo_suppkey", "s_suppkey")
                    .filter(Pred::eq("s_region", AMERICA)),
            )
            .join(date_years(FIRST_YEAR, LAST_YEAR))
            .agg(profit),
        QueryId::Q4_2 => PlanBuilder::scan("Q4.2", "lineorder")
            .join(
                JoinBuilder::new("part", "lo_partkey", "p_partkey")
                    .filter(Pred::in_set("p_mfgr", [0, 1]))
                    .group(KeyExpr::col("p_category"), CATEGORIES as usize),
            )
            .join(
                JoinBuilder::new("customer", "lo_custkey", "c_custkey")
                    .filter(Pred::eq("c_region", AMERICA)),
            )
            .join(
                JoinBuilder::new("supplier", "lo_suppkey", "s_suppkey")
                    .filter(Pred::eq("s_region", AMERICA))
                    .group(KeyExpr::modulo("s_nation", 5), 5),
            )
            .join(date_years(1997, 1998))
            .agg(profit),
        QueryId::Q4_3 => PlanBuilder::scan("Q4.3", "lineorder")
            .join(
                JoinBuilder::new("part", "lo_partkey", "p_partkey")
                    .filter(Pred::eq("p_category", category(1, 4))) // 'MFGR#14'
                    .group(KeyExpr::modulo("p_brand1", 40), 40), // 40 brands in the category
            )
            .join(
                JoinBuilder::new("supplier", "lo_suppkey", "s_suppkey")
                    .filter(Pred::eq("s_nation", UNITED_STATES))
                    .group(KeyExpr::modulo("s_city", 10), 10),
            )
            .join(
                JoinBuilder::new("customer", "lo_custkey", "c_custkey")
                    .filter(Pred::eq("c_region", AMERICA)),
            )
            .join(date_years(1997, 1998))
            .agg(profit),
    }
}

/// Build the (optimized) physical star plan for `q` against `d`. The 13
/// canned queries always lower successfully; a failure here is a bug in
/// the planner itself.
pub fn build_plan(d: &SsbData, q: QueryId) -> StarPlan {
    let cat = catalog(d);
    let logical = logical_plan(q);
    optimize(&logical, &cat)
        .and_then(|(optimized, _)| lower(&optimized, &cat))
        .unwrap_or_else(|e| panic!("{}: planner error: {e}", q.name()))
}

/// Naive lowering: declared join order, no pushdown, no pruning. Bit-
/// identical in output to [`build_plan`] (the differential suite pins it).
pub fn build_plan_naive(d: &SsbData, q: QueryId) -> StarPlan {
    let cat = catalog(d);
    lower(&logical_plan(q), &cat)
        .unwrap_or_else(|e| panic!("{}: planner error: {e}", q.name()))
}

/// Decode a dense group id back into per-dimension codes (plan probe
/// order), honoring the plan's group-id strides.
pub fn decode_gid(plan: &StarPlan, gid: u64) -> Vec<u64> {
    plan.gid_strides()
        .iter()
        .zip(&plan.dims)
        .map(|(&stride, d)| (gid / stride.max(1)) % d.groups.max(1) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use hef_engine::{execute_star, ExecConfig, Flavor};

    fn data() -> SsbData {
        generate(0.002, 12345)
    }

    #[test]
    fn all_queries_build_and_run() {
        let d = data();
        for q in QueryId::ALL {
            let plan = build_plan(&d, q);
            let out = execute_star(&plan, &d.lineorder, &ExecConfig::scalar());
            assert_eq!(out.stats.rows_scanned, d.lineorder.len() as u64, "{}", q.name());
        }
    }

    #[test]
    fn flavors_agree_on_every_query() {
        let d = data();
        for q in QueryId::ALL {
            let plan = build_plan(&d, q);
            let scalar = execute_star(&plan, &d.lineorder, &ExecConfig::scalar());
            for flavor in [Flavor::Simd, Flavor::Hybrid, Flavor::Voila] {
                let out = execute_star(&plan, &d.lineorder, &ExecConfig::for_flavor(flavor));
                assert_eq!(out.groups, scalar.groups, "{} {}", q.name(), flavor.name());
            }
        }
    }

    #[test]
    fn optimized_and_naive_plans_are_bit_identical() {
        let d = data();
        for q in QueryId::ALL {
            let opt = execute_star(&build_plan(&d, q), &d.lineorder, &ExecConfig::scalar());
            let naive =
                execute_star(&build_plan_naive(&d, q), &d.lineorder, &ExecConfig::scalar());
            assert_eq!(opt.groups, naive.groups, "{}", q.name());
        }
    }

    #[test]
    fn optimizer_reorders_q4_joins_by_selectivity() {
        // Q4.1 declares part (2 of 5 manufacturers, est 0.4) first, but
        // customer/supplier (1 of 5 regions, est 0.2) are more selective —
        // the optimizer must probe them first. Naive keeps declared order.
        let d = generate(0.01, 777);
        let naive = build_plan_naive(&d, QueryId::Q4_1);
        let fk: Vec<&str> = naive.dims.iter().map(|j| j.fk_col.as_str()).collect();
        assert_eq!(fk, ["lo_partkey", "lo_custkey", "lo_suppkey", "lo_orderdate"]);
        let opt = build_plan(&d, QueryId::Q4_1);
        let fk: Vec<&str> = opt.dims.iter().map(|j| j.fk_col.as_str()).collect();
        assert_eq!(fk, ["lo_custkey", "lo_suppkey", "lo_partkey", "lo_orderdate"]);
    }

    #[test]
    fn q2_selectivities_are_ordered() {
        // Q2.1 (whole category: 40 brands) keeps more rows than Q2.2
        // (8 brands), which keeps more than Q2.3 (1 brand).
        let d = data();
        let hits = |q| {
            let plan = build_plan(&d, q);
            let out = execute_star(&plan, &d.lineorder, &ExecConfig::scalar());
            out.stats.hits[0]
        };
        let (h1, h2, h3) = (hits(QueryId::Q2_1), hits(QueryId::Q2_2), hits(QueryId::Q2_3));
        assert!(h1 > h2 && h2 > h3, "{h1} {h2} {h3}");
    }

    #[test]
    fn q1_returns_single_group_with_nonzero_revenue() {
        let d = data();
        let plan = build_plan(&d, QueryId::Q1_1);
        assert_eq!(plan.group_cells(), 1);
        let out = execute_star(&plan, &d.lineorder, &ExecConfig::scalar());
        assert!(out.groups[0] > 0);
    }

    #[test]
    fn gid_roundtrip() {
        let d = data();
        let plan = build_plan(&d, QueryId::Q3_1);
        // dims: customer (5), supplier (5), date (7) → gid space 175.
        assert_eq!(plan.group_cells(), 5 * 5 * 7);
        let codes = decode_gid(&plan, (3 * 5 + 2) * 7 + 6);
        assert_eq!(codes, vec![3, 2, 6]);
    }

    #[test]
    fn dimension_selectivities_match_ssb_spec() {
        // The selectivity structure drives everything the paper measures;
        // pin the build-side fractions to their analytic values. Dimensions
        // are looked up by foreign key — the optimizer may reorder probes.
        let d = generate(0.01, 777);
        let frac = |q: QueryId, fk: &str, expect: f64| {
            let plan = build_plan(&d, q);
            let dim = plan
                .dims
                .iter()
                .find(|j| j.fk_col == fk)
                .unwrap_or_else(|| panic!("{} has no dim on {fk}", q.name()));
            let built = dim.index.len() as f64;
            let total = match fk {
                "lo_partkey" => d.part.len(),
                "lo_custkey" => d.customer.len(),
                "lo_suppkey" => d.supplier.len(),
                _ => d.date.len(),
            } as f64;
            let got = built / total;
            // Binomial sampling noise: allow 4σ around the analytic value.
            let sigma = (expect * (1.0 - expect) / total).sqrt();
            assert!(
                (got - expect).abs() <= 4.0 * sigma + f64::EPSILON,
                "{} dim {fk}: got {got:.4}, expected {expect:.4} (σ {sigma:.4})",
                q.name()
            );
        };
        frac(QueryId::Q2_1, "lo_partkey", 1.0 / 25.0); // one category of 25
        frac(QueryId::Q2_1, "lo_suppkey", 1.0 / 5.0); // one region of 5
        frac(QueryId::Q2_2, "lo_partkey", 8.0 / 1000.0); // eight brands of 1000
        frac(QueryId::Q2_3, "lo_partkey", 1.0 / 1000.0); // one brand
        frac(QueryId::Q3_1, "lo_custkey", 1.0 / 5.0); // one region of customers
        frac(QueryId::Q3_2, "lo_custkey", 1.0 / 25.0); // one nation
        frac(QueryId::Q3_3, "lo_custkey", 2.0 / 250.0); // two cities
        frac(QueryId::Q4_1, "lo_partkey", 2.0 / 5.0); // two manufacturers
    }

    /// Which SF 1 dimensions lower to a dense join index, per query. Every
    /// SSB key is a dense range, and the widest array — `part`, 200 k keys,
    /// 1.6 MB — fits the cap of 4 × the join-table budget, so every
    /// dimension of every query is dense, selective filters included.
    #[test]
    fn sf1_dimensions_lower_to_dense_indexes() {
        let d = crate::gen::generate_serial_rows(1.0, 7, 1000);
        let (c, s, p, t) = ("lo_custkey", "lo_suppkey", "lo_partkey", "lo_orderdate");
        let expect: [(QueryId, &[&str]); 13] = [
            (QueryId::Q1_1, &[t]),
            (QueryId::Q1_2, &[t]),
            (QueryId::Q1_3, &[t]),
            (QueryId::Q2_1, &[t, p, s]),
            (QueryId::Q2_2, &[t, p, s]),
            (QueryId::Q2_3, &[t, p, s]),
            (QueryId::Q3_1, &[c, t, s]),
            (QueryId::Q3_2, &[c, t, s]),
            (QueryId::Q3_3, &[c, t, s]),
            (QueryId::Q3_4, &[c, t, s]),
            (QueryId::Q4_1, &[c, t, p, s]),
            (QueryId::Q4_2, &[c, t, p, s]),
            (QueryId::Q4_3, &[c, t, p, s]),
        ];
        for (q, fks) in expect {
            let plan = build_plan(&d, q);
            let mut dense: Vec<&str> =
                plan.dims.iter().filter(|j| j.index.is_dense()).map(|j| j.fk_col.as_str()).collect();
            dense.sort_unstable();
            let mut want = fks.to_vec();
            want.sort_unstable();
            assert_eq!(dense, want, "{}", q.name());
            assert_eq!(plan.dims.len(), fks.len(), "{}: a dimension stayed hashed", q.name());
            for j in &plan.dims {
                assert!(j.index.working_set_bytes() <= 4 * hef_engine::join_table_budget());
            }
        }
    }

    #[test]
    fn q3_3_is_sub_percent_selective_end_to_end() {
        // The paper classifies Q2.3/Q3.3/Q3.4 as "very high selectivity
        // (less than 1%)" — where Voila's materialization wins. Verify the
        // end-to-end match rate.
        let d = generate(0.01, 778);
        for q in [QueryId::Q2_3, QueryId::Q3_3] {
            let plan = build_plan(&d, q);
            let out = execute_star(&plan, &d.lineorder, &ExecConfig::scalar());
            let rate = out.stats.rows_aggregated as f64 / out.stats.rows_scanned as f64;
            assert!(rate < 0.01, "{}: match rate {rate:.4}", q.name());
        }
    }

    #[test]
    fn paper_set_is_q2_to_q4() {
        assert_eq!(QueryId::PAPER.len(), 10);
        assert!(QueryId::PAPER.iter().all(|q| q.joins() >= 3));
        assert_eq!(QueryId::ALL.len(), 13);
    }

    #[test]
    fn grouped_results_decode_to_valid_codes() {
        let d = data();
        let plan = build_plan(&d, QueryId::Q2_1);
        let out = execute_star(&plan, &d.lineorder, &ExecConfig::scalar());
        let brand_dim = plan
            .dims
            .iter()
            .position(|j| j.fk_col == "lo_partkey")
            .expect("part dim");
        let date_dim = plan
            .dims
            .iter()
            .position(|j| j.fk_col == "lo_orderdate")
            .expect("date dim");
        for (gid, _) in out.results() {
            let codes = decode_gid(&plan, gid);
            assert!(codes[brand_dim] < BRANDS);
            assert!(codes[date_dim] < YEARS);
            // Q2.1 selects category MFGR#12 → brands 40..80.
            assert!(
                (category(1, 2) * 40..category(1, 2) * 40 + 40).contains(&codes[brand_dim])
            );
        }
    }

    #[test]
    fn logical_plans_validate_and_render() {
        for q in QueryId::ALL {
            let plan = logical_plan(q);
            plan.validate().unwrap_or_else(|e| panic!("{}: {e}", q.name()));
            let text = hef_engine::render_plan(&plan);
            let back = hef_engine::parse_plan(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", q.name()));
            assert_eq!(back, plan, "{} round-trip\n{text}", q.name());
        }
    }
}
