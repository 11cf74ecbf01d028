//! The rewrite optimizer: predicate pushdown, selectivity-ordered join
//! reordering, and projection pruning.
//!
//! All three rules are *pure rewrites* — the optimized plan is a new
//! [`LogicalPlan`] whose execution is bit-identical to the input's, because
//! group-id encoding follows each join's `declared` position (carried
//! through reordering) and fact predicates commute. Estimates come from the
//! [`Catalog`](super::Catalog)'s lazy column stats; they only pick an
//! order, never change semantics.

use std::collections::BTreeSet;
use std::fmt;

use super::catalog::Catalog;
use super::ir::{measure_cols, LogicalPlan, Node, Pred, Step};
use super::text::render_pred;
use super::PlanError;

/// What the optimizer did, for plan debug output (`{}` renders a
/// human-readable multi-line summary).
#[derive(Debug, Clone, PartialEq)]
pub struct OptReport {
    /// Fact predicates pushed into the scan, in final (most-selective-first)
    /// order, with their estimated selectivities.
    pub pushed: Vec<(String, f64)>,
    /// Dimension joins in final probe order, with estimated selectivities.
    pub join_order: Vec<(String, f64)>,
    /// `true` when the probe order differs from the declared order.
    pub reordered: bool,
    /// Scan column count before and after projection pruning.
    pub scan_columns: (usize, usize),
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pushed.is_empty() {
            writeln!(f, "pushdown: (no fact predicates)")?;
        } else {
            let preds: Vec<String> = self
                .pushed
                .iter()
                .map(|(p, s)| format!("{p} (est {s:.3})"))
                .collect();
            writeln!(f, "pushdown: {}", preds.join(", "))?;
        }
        let joins: Vec<String> = self
            .join_order
            .iter()
            .map(|(d, s)| format!("{d} (est {s:.3})"))
            .collect();
        writeln!(
            f,
            "join order: {}{}",
            joins.join(" -> "),
            if self.reordered { " [reordered]" } else { "" }
        )?;
        write!(
            f,
            "projection: scan {} -> {} columns",
            self.scan_columns.0, self.scan_columns.1
        )
    }
}

/// Estimated fraction of rows of `table` that satisfy `pred`, from catalog
/// stats. Errors if the table or column does not resolve.
fn est_pred(cat: &Catalog<'_>, table: &str, pred: &Pred) -> Result<f64, PlanError> {
    if cat.table(table).is_none() {
        return Err(PlanError::UnknownTable(table.to_string()));
    }
    let Some(stats) = cat.col_stats(table, pred.col()) else {
        return Err(PlanError::UnknownColumn {
            table: table.to_string(),
            column: pred.col().to_string(),
        });
    };
    let sel = match pred {
        Pred::Eq { value, .. } => {
            let v = *value as i64;
            if v < stats.min || v > stats.max {
                0.0
            } else {
                1.0 / stats.ndv as f64
            }
        }
        Pred::Range { lo, hi, .. } => {
            let lo = (*lo as i64).max(stats.min);
            let hi = (*hi as i64).min(stats.max);
            if lo > hi {
                0.0
            } else {
                ((hi - lo) as u64 + 1) as f64 / stats.width() as f64
            }
        }
        Pred::In { values, .. } => {
            let in_range = values
                .iter()
                .filter(|&&v| (v as i64) >= stats.min && (v as i64) <= stats.max)
                .count();
            in_range as f64 / stats.ndv as f64
        }
    };
    Ok(sel.clamp(0.0, 1.0))
}

/// Optimize a plan: push fact predicates into the scan (most selective
/// first), reorder joins by ascending estimated selectivity (declared order
/// breaks ties), and prune the scan's column set to exactly what the plan
/// consumes. Returns the rewritten plan plus a report of what changed.
pub fn optimize(
    plan: &LogicalPlan,
    cat: &Catalog<'_>,
) -> Result<(LogicalPlan, OptReport), PlanError> {
    plan.validate()?;
    let chain = plan.chain()?;
    let fact_table = chain.scan_table;

    // Rule 1: predicate pushdown. Every fact predicate — already pushed or
    // still a Filter node — lands in the scan, most selective first.
    let mut preds: Vec<(Pred, f64)> = Vec::new();
    for p in chain.pushed {
        preds.push((p.clone(), est_pred(cat, fact_table, p)?));
    }
    for step in &chain.steps {
        if let Step::Filter(p) = step {
            preds.push(((*p).clone(), est_pred(cat, fact_table, p)?));
        }
    }
    preds.sort_by(|a, b| a.1.total_cmp(&b.1)); // stable: ties keep input order

    // Rule 2: join reordering by ascending estimated selectivity (product
    // of the dimension's build-side predicates); declared order breaks ties.
    let joins = chain.joins();
    let mut ordered: Vec<(&super::ir::JoinSpec, f64)> = Vec::with_capacity(joins.len());
    for j in &joins {
        let mut sel = 1.0f64;
        for p in &j.filters {
            sel *= est_pred(cat, &j.dim_table, p)?;
        }
        ordered.push((j, sel));
    }
    ordered.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.declared.cmp(&b.0.declared)));
    let reordered = ordered
        .iter()
        .zip(&joins)
        .any(|((a, _), b)| !std::ptr::eq(*a, *b));

    // Rule 3: projection pruning. The scan emits exactly the columns the
    // plan consumes: pushed predicate columns, join FKs, measure columns —
    // kept in the fact table's physical column order for determinism.
    let mut referenced: BTreeSet<&str> = measure_cols(chain.measure).into_iter().collect();
    for (p, _) in &preds {
        referenced.insert(p.col());
    }
    for j in &joins {
        referenced.insert(&j.fk_col);
    }
    let fact = cat
        .table(fact_table)
        .ok_or_else(|| PlanError::UnknownTable(fact_table.to_string()))?;
    for &c in &referenced {
        if fact.column(c).is_none() {
            return Err(PlanError::UnknownColumn {
                table: fact_table.to_string(),
                column: c.to_string(),
            });
        }
    }
    let columns: Vec<String> = fact
        .columns()
        .iter()
        .map(|c| c.name().to_string())
        .filter(|c| referenced.contains(c.as_str()))
        .collect();
    let before = chain
        .scan_columns
        .map_or(fact.columns().len(), Vec::len);

    let report = OptReport {
        pushed: preds.iter().map(|(p, s)| (render_pred(p), *s)).collect(),
        join_order: ordered.iter().map(|(j, s)| (j.dim_table.clone(), *s)).collect(),
        reordered,
        scan_columns: (before, columns.len()),
    };
    // The optimizer's decisions, as counters: how many predicates
    // landed in the scan, whether this plan's joins moved, and how many scan
    // columns projection analysis dropped.
    {
        use hef_obs::metrics::{add, Metric};
        add(Metric::PlanPushdownApplied, report.pushed.len() as u64);
        add(Metric::PlanJoinsReordered, report.reordered as u64);
        let (before, after) = report.scan_columns;
        add(Metric::PlanProjectionsPruned, before.saturating_sub(after) as u64);
    }

    let mut node = Node::Scan {
        table: fact_table.to_string(),
        columns: Some(columns),
        pushed: preds.into_iter().map(|(p, _)| p).collect(),
    };
    for (j, _) in ordered {
        node = Node::Join { input: Box::new(node), spec: (*j).clone() };
    }
    let optimized = LogicalPlan {
        name: plan.name.clone(),
        root: Node::Agg { input: Box::new(node), measure: chain.measure.clone() },
    };
    optimized.validate()?;
    Ok((optimized, report))
}

#[cfg(test)]
mod tests {
    use hef_storage::{Column, Table};

    use crate::star::Measure;

    use super::super::ir::{JoinBuilder, KeyExpr, PlanBuilder};
    use super::*;

    fn schema() -> (Table, Table, Table) {
        let mut fact = Table::new("fact");
        fact.add_column(Column::new("fk_wide", vec![0, 1, 2, 3, 0, 1, 2, 3]));
        fact.add_column(Column::new("fk_narrow", vec![0, 0, 1, 1, 0, 0, 1, 1]));
        fact.add_column(Column::new("a", vec![1, 2, 3, 4, 5, 6, 7, 8]));
        fact.add_column(Column::new("b", vec![10, 10, 10, 10, 20, 20, 20, 20]));
        fact.add_column(Column::new("m", vec![1; 8]));
        // `wide`: 4 keys, a filter that keeps 1 of 4 attr values.
        let mut wide = Table::new("wide");
        wide.add_column(Column::new("key", vec![0, 1, 2, 3]));
        wide.add_column(Column::new("attr", vec![0, 1, 2, 3]));
        // `narrow`: 2 keys, no filter (selectivity 1.0).
        let mut narrow = Table::new("narrow");
        narrow.add_column(Column::new("key", vec![0, 1]));
        narrow.add_column(Column::new("attr", vec![0, 1]));
        (fact, wide, narrow)
    }

    fn plan() -> LogicalPlan {
        PlanBuilder::scan("q", "fact")
            .filter(Pred::between("a", 1, 6)) // est 6/8
            .filter(Pred::eq("b", 10)) // est 1/2
            .join(JoinBuilder::new("narrow", "fk_narrow", "key").group(KeyExpr::col("attr"), 2))
            .join(
                JoinBuilder::new("wide", "fk_wide", "key")
                    .filter(Pred::eq("attr", 2)) // est 1/4 — should probe first
                    .group(KeyExpr::col("attr"), 4),
            )
            .agg(Measure::Sum("m".into()))
    }

    #[test]
    fn pushes_filters_most_selective_first() {
        let (fact, wide, narrow) = schema();
        let cat = Catalog::new(&fact, &[&wide, &narrow]);
        let (opt, report) = optimize(&plan(), &cat).unwrap();
        let chain = opt.chain().unwrap();
        assert_eq!(chain.pushed.len(), 2);
        assert_eq!(chain.pushed[0].col(), "b"); // 0.5 < 0.75
        assert_eq!(chain.pushed[1].col(), "a");
        assert!(!chain.steps.iter().any(|s| matches!(s, Step::Filter(_))));
        assert_eq!(report.pushed[0].0, "b = 10");
    }

    #[test]
    fn reorders_joins_by_selectivity_keeping_declared() {
        let (fact, wide, narrow) = schema();
        let cat = Catalog::new(&fact, &[&wide, &narrow]);
        let (opt, report) = optimize(&plan(), &cat).unwrap();
        let chain = opt.chain().unwrap();
        let joins = chain.joins();
        assert_eq!(joins[0].dim_table, "wide"); // 0.25 before 1.0
        assert_eq!(joins[1].dim_table, "narrow");
        // Declared positions survive the reorder (narrow was declared 0).
        assert_eq!(joins[0].declared, 1);
        assert_eq!(joins[1].declared, 0);
        assert!(report.reordered);
        assert_eq!(report.join_order[0].0, "wide");
    }

    #[test]
    fn prunes_scan_to_consumed_columns() {
        let (fact, wide, narrow) = schema();
        let cat = Catalog::new(&fact, &[&wide, &narrow]);
        let (opt, report) = optimize(&plan(), &cat).unwrap();
        let chain = opt.chain().unwrap();
        let cols = chain.scan_columns.unwrap();
        // fact-table order: fk_wide, fk_narrow, a, b, m (all five consumed).
        assert_eq!(cols, &["fk_wide", "fk_narrow", "a", "b", "m"]);
        assert_eq!(report.scan_columns, (5, 5));

        // Drop the `a` filter and `wide` join: their columns disappear.
        let smaller = PlanBuilder::scan("q", "fact")
            .filter(Pred::eq("b", 10))
            .join(JoinBuilder::new("narrow", "fk_narrow", "key").group(KeyExpr::col("attr"), 2))
            .agg(Measure::Sum("m".into()));
        let (opt, report) = optimize(&smaller, &cat).unwrap();
        let chain = opt.chain().unwrap();
        assert_eq!(chain.scan_columns.unwrap(), &["fk_narrow", "b", "m"]);
        assert_eq!(report.scan_columns, (5, 3));
    }

    #[test]
    fn ties_keep_declared_order_and_report_renders() {
        let (fact, wide, narrow) = schema();
        let cat = Catalog::new(&fact, &[&wide, &narrow]);
        let tied = PlanBuilder::scan("q", "fact")
            .join(JoinBuilder::new("narrow", "fk_narrow", "key").group(KeyExpr::col("attr"), 2))
            .join(JoinBuilder::new("wide", "fk_wide", "key").group(KeyExpr::col("attr"), 4))
            .agg(Measure::Sum("m".into()));
        let (opt, report) = optimize(&tied, &cat).unwrap();
        let joins_tbl: Vec<String> = opt
            .chain()
            .unwrap()
            .joins()
            .iter()
            .map(|j| j.dim_table.clone())
            .collect();
        assert_eq!(joins_tbl, &["narrow", "wide"]); // both 1.0 → declared order
        assert!(!report.reordered);
        let text = format!("{report}");
        assert!(text.contains("join order: narrow (est 1.000) -> wide (est 1.000)"), "{text}");
        assert!(text.contains("pushdown: (no fact predicates)"), "{text}");
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let (fact, wide, narrow) = schema();
        let cat = Catalog::new(&fact, &[&wide, &narrow]);
        let bad_col = PlanBuilder::scan("q", "fact")
            .filter(Pred::eq("ghost", 1))
            .agg(Measure::Sum("m".into()));
        assert!(matches!(
            optimize(&bad_col, &cat),
            Err(PlanError::UnknownColumn { .. })
        ));
        let bad_tbl = PlanBuilder::scan("q", "nope").agg(Measure::Sum("m".into()));
        assert!(matches!(optimize(&bad_tbl, &cat), Err(PlanError::UnknownTable(_))));
    }

    #[test]
    fn selectivity_estimates() {
        let (fact, wide, narrow) = schema();
        let cat = Catalog::new(&fact, &[&wide, &narrow]);
        // a: values 1..=8, ndv 8, width 8.
        assert_eq!(est_pred(&cat, "fact", &Pred::eq("a", 3)).unwrap(), 1.0 / 8.0);
        assert_eq!(est_pred(&cat, "fact", &Pred::eq("a", 99)).unwrap(), 0.0);
        assert_eq!(
            est_pred(&cat, "fact", &Pred::between("a", 3, 100)).unwrap(),
            6.0 / 8.0
        );
        assert_eq!(
            est_pred(&cat, "fact", &Pred::in_set("a", [1, 2, 99])).unwrap(),
            2.0 / 8.0
        );
    }
}
