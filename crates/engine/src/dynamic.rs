//! Dynamic flavor selection — the paper's §VII future-work item, built out:
//! "we will enable HEF to support the function of dynamic selection, which
//! makes it dynamically select operators with different implementations
//! according to queries".
//!
//! The selector times every engine flavor on a sampled prefix of the fact
//! table and picks the fastest for the full run. Sampling preserves the
//! query's selectivity structure (SSB foreign keys are uniform), so the
//! prefix ranking almost always matches the full-run ranking; the paper's
//! observation that Voila wins very-high-selectivity queries while HEF wins
//! the rest is exactly the kind of crossover this selector navigates.

use crate::star::Flavor;

/// The outcome of a sampled selection
/// ([`Engine::choose_flavor`](crate::Engine::choose_flavor)).
#[derive(Debug, Clone)]
pub struct Selection {
    /// The winning flavor.
    pub flavor: Flavor,
    /// Sample timings per flavor, in [`Flavor::ALL`] order (seconds).
    pub sample_secs: Vec<(Flavor, f64)>,
    /// Rows sampled.
    pub sample_rows: usize,
}

/// NaN-safe ranking of sample timings. `f64::total_cmp` orders every NaN
/// above all finite times, so a flavor with a poisoned sample can never win;
/// `min_by` keeps the *first* of equal entries, so an all-NaN (or empty)
/// ranking deterministically falls back to the first flavor in
/// [`Flavor::ALL`] order.
pub(crate) fn fastest(timings: &[(Flavor, f64)]) -> Flavor {
    timings
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(Flavor::Scalar, |&(f, _)| f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ExecError;
    use crate::star::{build_dimension, execute_star, ExecConfig, Measure, StarPlan};
    use crate::{CancelToken, Engine, Fact};
    use hef_storage::{Column, Table};

    fn choose(plan: &StarPlan, fact: &Table, rows: usize) -> Result<Selection, ExecError> {
        Engine::default().choose_flavor(plan, fact, rows, &CancelToken::new())
    }

    fn toy() -> (Table, StarPlan) {
        let mut fact = Table::new("fact");
        let n = 20_000u64;
        fact.add_column(Column::new("fk", (0..n).map(|i| i % 100).collect()));
        fact.add_column(Column::new("rev", (0..n).map(|i| i % 5 + 1).collect()));
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", (0..100).collect()));
        let d = build_dimension(&dim, "key", |r| dim.col("key")[r] < 50, |_| 0, 1, "fk");
        let plan = StarPlan {
            name: "toy".into(),
            filters: vec![],
            dims: vec![d],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        (fact, plan)
    }

    #[test]
    fn selection_ranks_all_flavors() {
        let (fact, plan) = toy();
        let sel = choose(&plan, &fact, 4096).unwrap();
        assert_eq!(sel.sample_secs.len(), Flavor::ALL.len());
        assert!(sel.sample_secs.iter().all(|&(_, t)| t > 0.0));
        assert_eq!(sel.sample_rows, 4096);
    }

    #[test]
    fn dynamic_execution_matches_static_results() {
        let (fact, plan) = toy();
        let sel = choose(&plan, &fact, 4000).unwrap();
        let out = execute_star(&plan, &fact, &ExecConfig::for_flavor(sel.flavor));
        let reference = execute_star(&plan, &fact, &ExecConfig::scalar());
        assert_eq!(out.groups, reference.groups);
        assert!(Flavor::ALL.contains(&sel.flavor));
    }

    #[test]
    fn nan_sample_time_never_wins() {
        // Regression for the NaN-unsafe `partial_cmp(..).unwrap()`: a NaN
        // cost must neither panic nor be selected.
        let timings = vec![
            (Flavor::Scalar, 2.0),
            (Flavor::Simd, f64::NAN),
            (Flavor::Voila, 1.0),
            (Flavor::Hybrid, f64::NAN),
        ];
        assert_eq!(fastest(&timings), Flavor::Voila);
    }

    #[test]
    fn all_nan_ranking_falls_back_to_first_flavor() {
        let timings: Vec<(Flavor, f64)> =
            Flavor::ALL.iter().map(|&f| (f, f64::NAN)).collect();
        assert_eq!(fastest(&timings), Flavor::ALL[0]);
        assert_eq!(fastest(&[]), Flavor::Scalar);
    }

    #[test]
    fn bad_plan_is_a_typed_error_from_selection() {
        let (fact, mut plan) = toy();
        plan.measure = Measure::Sum("ghost".into());
        assert!(matches!(choose(&plan, &fact, 1024), Err(ExecError::BadPlan { .. })));
        let cancel = CancelToken::new();
        let engine = Engine::default();
        assert!(matches!(
            engine.execute(&plan, Fact::Mem(&fact), &ExecConfig::scalar(), &cancel),
            Err(ExecError::BadPlan { .. })
        ));
    }

    #[test]
    fn sample_clamps_to_table_size() {
        let (fact, plan) = toy();
        let sel = choose(&plan, &fact, 10_000_000).unwrap();
        assert_eq!(sel.sample_rows, fact.len());
    }
}
