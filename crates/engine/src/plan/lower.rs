//! Lowering: compile a [`LogicalPlan`] onto the physical [`StarPlan`]
//! executor.
//!
//! The contract: lowering resolves every name against the catalog, builds
//! the dimension probe tables (build-side predicates evaluated row-at-a-time,
//! group keys checked to stay inside their declared code range), converts
//! fact predicates to the executor's range-filter kernel form, and pins the
//! group-id encoding to the *declared* join order via
//! [`StarPlan::strides`] — so lowering the optimizer's reordered plan and
//! lowering the naive (declared-order) plan produce bit-identical outputs.
//! Anything the tuned pipelines cannot express (a non-contiguous `IN` on a
//! fact column, which has no single range kernel) is a typed
//! [`PlanError::Unsupported`], never a panic.

use hef_storage::{Column, ColumnSlice, Table};

use crate::star::{build_dimension, RangeFilter, StarPlan};

use super::catalog::Catalog;
use super::ir::{measure_cols, JoinSpec, LogicalPlan, Pred, Step};
use super::PlanError;

/// Convert a fact predicate to the executor's single-range form. `Eq`
/// becomes a degenerate range; a contiguous `In` collapses to its span;
/// a non-contiguous `In` has no single range kernel and is rejected.
fn to_range_filter(pred: &Pred) -> Result<RangeFilter, PlanError> {
    let (lo, hi) = match pred {
        Pred::Eq { value, .. } => (*value, *value),
        Pred::Range { lo, hi, .. } => (*lo, *hi),
        Pred::In { col, values } => {
            if values.is_empty() {
                return Err(PlanError::Unsupported(format!(
                    "empty IN list on fact column `{col}`"
                )));
            }
            let mut sorted: Vec<i64> = values.iter().map(|&v| v as i64).collect();
            sorted.sort_unstable();
            sorted.dedup();
            let contiguous = sorted.windows(2).all(|w| w[1] - w[0] == 1);
            if !contiguous {
                return Err(PlanError::Unsupported(format!(
                    "non-contiguous IN on fact column `{col}` (no single \
                     range-filter kernel; filter on a dimension instead)"
                )));
            }
            (sorted[0] as u64, *sorted.last().unwrap_or(&0) as u64)
        }
    };
    Ok(RangeFilter { col: pred.col().to_string(), lo, hi })
}

/// Resolve a column of `table`, with a typed error naming both.
fn col_of<'t>(table: &'t Table, column: &str) -> Result<ColumnSlice<'t>, PlanError> {
    table
        .column(column)
        .map(Column::slice)
        .ok_or_else(|| PlanError::UnknownColumn {
            table: table.name().to_string(),
            column: column.to_string(),
        })
}

/// Build one dimension's probe table from its join spec.
fn lower_join(j: &JoinSpec, cat: &Catalog<'_>, fact: &Table) -> Result<crate::star::DimJoin, PlanError> {
    let dim = cat
        .table(&j.dim_table)
        .ok_or_else(|| PlanError::UnknownTable(j.dim_table.clone()))?;
    col_of(fact, &j.fk_col)?;
    col_of(dim, &j.key_col)?;
    let filter_cols: Vec<(ColumnSlice<'_>, &Pred)> = j
        .filters
        .iter()
        .map(|p| Ok((col_of(dim, p.col())?, p)))
        .collect::<Result<_, PlanError>>()?;
    let groups = j.groups();
    let key = j.group.as_ref().map(|g| &g.key);
    let key_vals = key.map(|k| col_of(dim, k.column())).transpose()?;

    let passes = |r: usize| filter_cols.iter().all(|(col, p)| p.matches(col.get(r)));
    let code = |r: usize| match (key, key_vals) {
        (Some(k), Some(vals)) => k.eval(vals.get(r)),
        _ => 0,
    };
    // Group codes must land in `0..groups` for every surviving build row —
    // checked here, where it is a typed error, not in the executor's debug
    // assert.
    for r in 0..dim.len() {
        if passes(r) && code(r) >= groups as u64 {
            return Err(PlanError::BadGroup {
                table: j.dim_table.clone(),
                message: format!(
                    "row {r} produces group code {} outside 0..{groups}",
                    code(r)
                ),
            });
        }
    }
    Ok(build_dimension(dim, &j.key_col, passes, code, groups, &j.fk_col))
}

/// Group-id strides in *probe* order, derived from the declared order:
/// the join declared last varies fastest (stride 1), exactly the legacy
/// mixed-radix encoding of the declared sequence.
fn declared_strides(joins: &[&JoinSpec]) -> Vec<u64> {
    let mut by_declared: Vec<usize> = (0..joins.len()).collect();
    by_declared.sort_by_key(|&i| joins[i].declared);
    let mut strides = vec![1u64; joins.len()];
    let mut acc = 1u64;
    for &i in by_declared.iter().rev() {
        strides[i] = acc;
        acc = acc.wrapping_mul(joins[i].groups() as u64);
    }
    strides
}

/// Lower a logical plan to a ready-to-execute [`StarPlan`]: probe tables
/// built, fact filters in kernel form, group-id strides pinned to the
/// declared join order.
pub fn lower(plan: &LogicalPlan, cat: &Catalog<'_>) -> Result<StarPlan, PlanError> {
    plan.validate()?;
    let chain = plan.chain()?;
    let fact = cat
        .table(chain.scan_table)
        .ok_or_else(|| PlanError::UnknownTable(chain.scan_table.to_string()))?;
    if let Some(cols) = chain.scan_columns {
        for c in cols {
            col_of(fact, c)?;
        }
    }
    for c in measure_cols(chain.measure) {
        col_of(fact, c)?;
    }

    let mut filters: Vec<RangeFilter> = Vec::new();
    for p in chain.pushed {
        col_of(fact, p.col())?;
        filters.push(to_range_filter(p)?);
    }
    let mut dims = Vec::new();
    let mut joins: Vec<&JoinSpec> = Vec::new();
    for step in &chain.steps {
        match step {
            Step::Filter(p) => {
                col_of(fact, p.col())?;
                filters.push(to_range_filter(p)?);
            }
            Step::Join(j) => {
                dims.push(lower_join(j, cat, fact)?);
                joins.push(j);
            }
            // Projections affect which columns the scan *may* touch (checked
            // by `validate`), not the physical pipeline: the executor reads
            // columns by name on demand.
            Step::Project(_) => {}
        }
    }
    Ok(StarPlan {
        name: plan.name.clone(),
        filters,
        dims,
        measure: chain.measure.clone(),
        strides: declared_strides(&joins),
    })
}

#[cfg(test)]
mod tests {
    use hef_storage::{Column, Table};

    use crate::star::{execute_star, ExecConfig, Measure};

    use super::super::ir::{JoinBuilder, KeyExpr, PlanBuilder};
    use super::*;

    fn schema() -> (Table, Table, Table) {
        let mut fact = Table::new("fact");
        let n = 4000u64;
        fact.add_column(Column::new("fk_a", (0..n).map(|i| i % 20).collect()));
        fact.add_column(Column::new("fk_b", (0..n).map(|i| i % 10).collect()));
        fact.add_column(Column::new("q", (0..n).map(|i| i % 50).collect()));
        fact.add_column(Column::new("rev", (0..n).map(|i| i % 7 + 1).collect()));
        let mut a = Table::new("a");
        a.add_column(Column::new("key", (0..20).collect()));
        a.add_column(Column::new("grp", (0..20).map(|k| k % 4).collect()));
        let mut b = Table::new("b");
        b.add_column(Column::new("key", (0..10).collect()));
        b.add_column(Column::new("attr", (0..10).map(|k| k % 3).collect()));
        (fact, a, b)
    }

    fn logical() -> super::super::ir::LogicalPlan {
        PlanBuilder::scan("q", "fact")
            .filter(Pred::between("q", 5, 40))
            .join(JoinBuilder::new("a", "fk_a", "key").group(KeyExpr::col("grp"), 4))
            .join(
                JoinBuilder::new("b", "fk_b", "key")
                    .filter(Pred::eq("attr", 1))
                    .group(KeyExpr::indicator("attr", 1), 2),
            )
            .agg(Measure::Sum("rev".into()))
    }

    #[test]
    fn lowered_plan_executes_and_matches_manual_reference() {
        let (fact, a, b) = schema();
        let cat = Catalog::new(&fact, &[&a, &b]);
        let star = lower(&logical(), &cat).unwrap();
        assert_eq!(star.filters.len(), 1);
        assert_eq!(star.dims.len(), 2);
        assert_eq!(star.strides, vec![2, 1]); // declared a (4 groups) outer
        let out = execute_star(&star, &fact, &ExecConfig::scalar());

        // Row-at-a-time reference straight off the logical spec.
        let mut expect = vec![0u64; 8];
        for r in 0..fact.len() {
            let q = fact.col("q").get(r);
            if !(5..=40).contains(&q) {
                continue;
            }
            let ka = fact.col("fk_a").get(r) as usize; // a.key == index
            let kb = fact.col("fk_b").get(r) as usize;
            let attr = b.col("attr").get(kb);
            if attr != 1 {
                continue;
            }
            let gid = a.col("grp").get(ka) * 2 + u64::from(attr == 1);
            expect[gid as usize] += fact.col("rev").get(r);
        }
        assert_eq!(out.groups, expect);
    }

    #[test]
    fn probe_order_changes_never_change_results() {
        // The same logical joins in swapped probe order (declared positions
        // preserved) must lower to stride-compensated plans with identical
        // output — the invariant that makes optimizer reordering safe.
        let (fact, a, b) = schema();
        let cat = Catalog::new(&fact, &[&a, &b]);
        let declared = lower(&logical(), &cat).unwrap();

        let swapped_logical = PlanBuilder::scan("q", "fact")
            .filter(Pred::between("q", 5, 40))
            .join(
                JoinBuilder::new("b", "fk_b", "key")
                    .filter(Pred::eq("attr", 1))
                    .group(KeyExpr::indicator("attr", 1), 2),
            )
            .join(JoinBuilder::new("a", "fk_a", "key").group(KeyExpr::col("grp"), 4))
            .agg(Measure::Sum("rev".into()));
        // Builder assigns declared in call order; rewrite to match the
        // original declaration (a=0, b=1) as the optimizer does.
        let mut swapped = swapped_logical;
        fn set_declared(node: &mut super::super::ir::Node, table: &str, declared: usize) {
            use super::super::ir::Node;
            match node {
                Node::Join { input, spec } => {
                    if spec.dim_table == table {
                        spec.declared = declared;
                    }
                    set_declared(input, table, declared);
                }
                Node::Agg { input, .. }
                | Node::Filter { input, .. }
                | Node::Project { input, .. } => set_declared(input, table, declared),
                Node::Scan { .. } => {}
            }
        }
        set_declared(&mut swapped.root, "a", 0);
        set_declared(&mut swapped.root, "b", 1);
        let star = lower(&swapped, &cat).unwrap();
        assert_eq!(star.strides, vec![1, 2]); // probe order b,a; declared a outer
        let out_a = execute_star(&declared, &fact, &ExecConfig::scalar());
        let out_b = execute_star(&star, &fact, &ExecConfig::scalar());
        assert_eq!(out_a.groups, out_b.groups);
    }

    #[test]
    fn contiguous_in_collapses_to_range() {
        let (fact, a, b) = schema();
        let cat = Catalog::new(&fact, &[&a, &b]);
        let plan = PlanBuilder::scan("q", "fact")
            .filter(Pred::in_set("q", [7, 5, 6, 6]))
            .agg(Measure::Sum("rev".into()));
        let star = lower(&plan, &cat).unwrap();
        assert_eq!((star.filters[0].lo, star.filters[0].hi), (5, 7));
    }

    #[test]
    fn non_contiguous_fact_in_is_unsupported() {
        let (fact, a, b) = schema();
        let cat = Catalog::new(&fact, &[&a, &b]);
        let plan = PlanBuilder::scan("q", "fact")
            .filter(Pred::in_set("q", [1, 5]))
            .agg(Measure::Sum("rev".into()));
        assert!(matches!(lower(&plan, &cat), Err(PlanError::Unsupported(_))));
        // On a dimension build side, a non-contiguous IN is fine.
        let plan = PlanBuilder::scan("q", "fact")
            .join(JoinBuilder::new("b", "fk_b", "key").filter(Pred::in_set("attr", [0, 2])))
            .agg(Measure::Sum("rev".into()));
        assert!(lower(&plan, &cat).is_ok());
    }

    #[test]
    fn out_of_range_group_code_is_bad_group() {
        let (fact, a, b) = schema();
        let cat = Catalog::new(&fact, &[&a, &b]);
        let plan = PlanBuilder::scan("q", "fact")
            .join(JoinBuilder::new("a", "fk_a", "key").group(KeyExpr::col("grp"), 2))
            .agg(Measure::Sum("rev".into()));
        // grp reaches 3 but only 2 groups declared.
        assert!(matches!(lower(&plan, &cat), Err(PlanError::BadGroup { .. })));
    }

    #[test]
    fn name_resolution_failures_are_typed() {
        let (fact, a, b) = schema();
        let cat = Catalog::new(&fact, &[&a, &b]);
        let bad = PlanBuilder::scan("q", "fact")
            .join(JoinBuilder::new("ghost", "fk_a", "key"))
            .agg(Measure::Sum("rev".into()));
        assert!(matches!(lower(&bad, &cat), Err(PlanError::UnknownTable(_))));
        let bad = PlanBuilder::scan("q", "fact")
            .join(JoinBuilder::new("a", "fk_a", "nokey"))
            .agg(Measure::Sum("rev".into()));
        assert!(matches!(lower(&bad, &cat), Err(PlanError::UnknownColumn { .. })));
        let bad = PlanBuilder::scan("q", "fact").agg(Measure::Sum("ghost".into()));
        assert!(matches!(lower(&bad, &cat), Err(PlanError::UnknownColumn { .. })));
    }
}
