//! The offline-phase facade (the paper's Fig. 4 end-to-end flow):
//! template → candidate generator → translator → optimizer → tuned operator.
//!
//! "Once we get the optimal implementation of hybrid execution operators, we
//! could use them to implement various queries directly without further
//! training" — [`TunedOperator`] is that persistent result; the engine keys
//! its operator flavors off it.

use hef_kernels::{Family, HybridConfig};
use hef_uarch::CpuModel;

use crate::candidate::initial_candidate;
use crate::error::HefError;
use crate::ir::OperatorTemplate;
use crate::optimizer::{optimize, MeasuredCost, SearchOutcome, SimulatedCost, SpikedCost};
use crate::templates;

/// A tuned operator: the output of the offline phase.
#[derive(Debug, Clone)]
pub struct TunedOperator {
    pub family: Family,
    /// The winning configuration.
    pub cfg: HybridConfig,
    /// The initial node the candidate generator proposed.
    pub initial: HybridConfig,
    /// Full search trace.
    pub outcome: SearchOutcome,
    /// Predicted-vs-measured calibration of the winning node, recorded when
    /// tuning actually measured this machine (`None` on simulated paths).
    pub drift: Option<DriftRecord>,
}

impl TunedOperator {
    /// One-line summary for reports.
    pub fn describe(&self) -> String {
        format!(
            "{}: {} (initial {}, tested {}/{} nodes, pruned {})",
            self.family.name(),
            self.cfg,
            self.initial,
            self.outcome.tested.len(),
            hef_kernels::all_configs().count(),
            self.outcome.pruned(),
        )
    }
}

/// Predicted-vs-measured calibration for one tuned node — the goSLP
/// reconciliation signal. A globally-optimized SIMD decision is only
/// trustworthy when the cost model that picked it is checked against the
/// machine it runs on; this record makes simulated-tuner miscalibration
/// visible instead of silent. Recorded per registry row at tune time
/// (`# drift:` provenance) and re-measured at `HEF_PIPELINE` replay time
/// by `repro report`.
#[derive(Debug, Clone, Copy)]
pub struct DriftRecord {
    pub family: Family,
    pub cfg: HybridConfig,
    /// Port-simulator cycles per row (steady state, generic host model).
    pub predicted_cpr: f64,
    /// RDTSC-measured hardware cycles per row on this machine.
    pub measured_cpr: f64,
}

impl DriftRecord {
    /// `measured / predicted`: 1.0 = perfectly calibrated; > 1 means the
    /// simulator is optimistic on this machine, < 1 pessimistic.
    pub fn ratio(&self) -> f64 {
        if self.predicted_cpr > 0.0 {
            self.measured_cpr / self.predicted_cpr
        } else {
            f64::NAN
        }
    }

    /// One-line summary for reports.
    pub fn describe(&self) -> String {
        format!(
            "{}: predicted {:.2} c/row, measured {:.2} c/row, drift {:.2}x",
            self.family.name(),
            self.predicted_cpr,
            self.measured_cpr,
            self.ratio()
        )
    }
}

/// Steady-state port-simulator cycles per row for `cfg` on `model`.
pub fn predicted_cycles_per_row(family: Family, cfg: HybridConfig, model: &CpuModel) -> f64 {
    let template = templates::for_family(family);
    let body = crate::translate::to_loop_body(&template, cfg);
    let iterations = 60;
    let r = hef_uarch::simulate(model, &body, iterations);
    r.cycles as f64 / (cfg.step() * iterations) as f64
}

/// Measure drift for one node: price `cfg` on the port simulator (generic
/// host model) and run the compiled kernel over `n` synthetic rows on this
/// machine, then record the ratio in the `tuner.drift` histogram (permille,
/// 1000 = calibrated). `None` when hardware cycle counters are unavailable
/// (non-x86_64) or the node is off-grid.
pub fn measure_drift(family: Family, cfg: HybridConfig, n: usize) -> Option<DriftRecord> {
    use crate::optimizer::CostEvaluator as _;
    let mut eval = MeasuredCost::new(family, n);
    if !eval.cost(cfg).is_finite() {
        return None;
    }
    let cycles = eval.last_cycles?;
    let rec = DriftRecord {
        family,
        cfg,
        predicted_cpr: predicted_cycles_per_row(family, cfg, &CpuModel::host()),
        measured_cpr: cycles as f64 / n.max(1) as f64,
    };
    let ratio = rec.ratio();
    if ratio.is_finite() && ratio >= 0.0 {
        let permille = (ratio * 1000.0).round() as u64;
        hef_obs::metrics::observe(hef_obs::metrics::Hist::TunerDriftPermille, permille);
        hef_obs::trace::instant_labeled(
            "tuner_drift",
            family.name(),
            &[("permille", permille as i64)],
        );
    }
    Some(rec)
}

/// Tune an operator by running its compiled kernels on this machine with
/// `n` elements of synthetic input per trial.
///
/// Measurements pass through [`SpikedCost`], so a `HEF_FAULT=spike:…` plan
/// exercises the optimizer's median-of-3 re-measurement on the real path.
pub fn tune_measured(family: Family, n: usize) -> TunedOperator {
    let _span =
        hef_obs::trace::span_begin_labeled("tune", family.name(), &[("n", n as i64), ("measured", 1)]);
    let template = templates::for_family(family);
    let model = CpuModel::host();
    let initial = initial_candidate(&model, &template);
    let mut eval = SpikedCost { inner: MeasuredCost::new(family, n) };
    let outcome = optimize(initial, &mut eval);
    let drift = measure_drift(family, outcome.best, n);
    TunedOperator { family, cfg: outcome.best, initial, outcome, drift }
}

/// Tune an operator against a modeled CPU (the path for the paper's Xeons,
/// which this reproduction does not physically have).
pub fn tune_simulated(family: Family, model: &CpuModel) -> TunedOperator {
    let _span =
        hef_obs::trace::span_begin_labeled("tune", family.name(), &[("measured", 0)]);
    let template = templates::for_family(family);
    let initial = initial_candidate(model, &template);
    let mut eval = SpikedCost { inner: SimulatedCost::new(model, &template) };
    let outcome = optimize(initial, &mut eval);
    TunedOperator { family, cfg: outcome.best, initial, outcome, drift: None }
}

/// Tune a *user-supplied* template (the §IV.B path: operators arrive as
/// text, not as built-ins) against a modeled CPU. Unlike the built-in
/// facades this input is untrusted, so validation problems come back as a
/// typed [`HefError`] instead of a panic deep inside the translator.
pub fn try_tune_template(
    template: &OperatorTemplate,
    model: &CpuModel,
) -> Result<(HybridConfig, SearchOutcome), HefError> {
    template.validate().map_err(|m| HefError::InvalidTemplate {
        operator: template.name.clone(),
        message: m,
    })?;
    let initial = initial_candidate(model, template);
    let mut eval = SpikedCost { inner: SimulatedCost::new(model, template) };
    let outcome = optimize(initial, &mut eval);
    Ok((outcome.best, outcome))
}

/// Parse-and-tune in one step: template source text → tuned node. The whole
/// §IV.B user path with every failure typed.
pub fn try_tune_source(
    source: &str,
    model: &CpuModel,
) -> Result<(HybridConfig, SearchOutcome), HefError> {
    let template = crate::parse::parse_template(source)?;
    try_tune_template(&template, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_tuning_finds_hybrid_points() {
        // On the Silver model, murmur's optimum must use both unit kinds or
        // packing — pure (0,1,1) and (1,0,1) leave pipes idle.
        let t = tune_simulated(Family::Murmur, &CpuModel::silver_4110());
        assert!(
            t.cfg != HybridConfig::SCALAR && t.cfg != HybridConfig::SIMD,
            "tuned to {}",
            t.cfg
        );
        assert!(t.outcome.tested.len() >= 3);
    }

    #[test]
    fn simulated_crc_tunes_to_deep_packing() {
        // The gather-latency story: the tuned CRC64 node must have several
        // independent statement instances in flight (v·p well above 1).
        let t = tune_simulated(Family::Crc64, &CpuModel::silver_4110());
        assert!(
            t.cfg.v * t.cfg.p + t.cfg.s * t.cfg.p >= 4,
            "tuned to {}",
            t.cfg
        );
    }

    #[test]
    fn measured_tuning_runs_end_to_end() {
        let t = tune_measured(Family::AggSum, 8192);
        assert!(t.outcome.best_cost.is_finite());
        assert!(t.describe().contains("agg_sum"));
        // Where cycle counters exist, the tuned node carries calibration.
        if let Some(d) = &t.drift {
            assert!(d.predicted_cpr > 0.0, "{}", d.describe());
            assert!(d.measured_cpr > 0.0, "{}", d.describe());
            assert!(d.ratio().is_finite() && d.ratio() > 0.0);
        }
    }

    #[test]
    fn drift_measurement_is_self_consistent() {
        let cfg = HybridConfig::SIMD;
        let pred = predicted_cycles_per_row(Family::AggSum, cfg, &CpuModel::host());
        assert!(pred.is_finite() && pred > 0.0);
        if let Some(d) = measure_drift(Family::AggSum, cfg, 8192) {
            assert_eq!(d.family, Family::AggSum);
            // Same simulator inputs → same prediction.
            assert!((d.predicted_cpr - pred).abs() < 1e-9, "{} vs {pred}", d.predicted_cpr);
        }
    }

    #[test]
    fn measured_probe_tuning_runs_end_to_end() {
        // The probe family tunes through the same `(v, s, p)` search as
        // every other family: just the plumbing, not a perf claim.
        let t = tune_measured(Family::Probe, 4096);
        assert!(t.outcome.best_cost.is_finite());
        assert!(t.describe().contains("probe"));
        assert!(crate::error::on_grid(t.cfg.v, t.cfg.s, t.cfg.p));
    }

    #[test]
    fn tuning_source_text_works_and_types_failures() {
        let model = CpuModel::silver_4110();
        let src = render_ok_template();
        let (best, outcome) = try_tune_source(&src, &model).expect("valid source tunes");
        assert!(crate::error::on_grid(best.v, best.s, best.p));
        assert!(!outcome.tested.is_empty());

        // Parse failure → HefError::Template, not a panic.
        let e = try_tune_source("operator broken(", &model).unwrap_err();
        assert!(matches!(e, crate::HefError::Template(_)), "{e}");
    }

    fn render_ok_template() -> String {
        crate::parse::render_template(&templates::for_family(Family::AggSum))
    }
}
