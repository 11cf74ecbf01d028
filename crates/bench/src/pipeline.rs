//! Lower a [`StarPlan`] into the joint tuner's [`PipelineSpec`].
//!
//! The whole-pipeline tuner (`hef_core::pipeline`) prices a chain of
//! co-resident operator stages; this module derives that chain from an
//! executed query: one cheap stats run ([`ExecStats`] rides every
//! [`hef_engine::QueryOutput`]) yields per-stage reach fractions
//! (selectivity of everything upstream) and per-dimension probe-table
//! working sets — exactly the quantities the co-residency cost model
//! weighs. The resulting spec is scale-invariant in the same sense as the
//! plan fingerprint: fractions, not row counts.

use hef_core::{PipelineEntry, PipelineSpec, PipelineStage, Registry};
use hef_engine::{ExecConfig, ExecStats, Measure, StarPlan};
use hef_kernels::Family;

/// Derive the joint tuner's pipeline spec from a plan and the stats of one
/// (any-flavor) execution of it.
///
/// Stage chain mirrors the engine's lowered order: filter → one probe per
/// dimension (bloom checks are priced inside the probe stage they guard) →
/// gather → aggregate. Weights are reach fractions of the fact scan;
/// working sets are the probe tables' resident bytes. `streams` counts the
/// sequential column streams co-resident with the probes (filter columns,
/// one fk take per dimension, the measure columns) — each occupies
/// line-fill buffers the probe prefetches cannot use.
pub fn pipeline_spec(plan: &StarPlan, stats: &ExecStats) -> PipelineSpec {
    let rows = stats.rows_scanned.max(1) as f64;
    let mut stages = Vec::new();
    if !plan.filters.is_empty() {
        stages.push(PipelineStage::new(Family::Filter, 1.0, 0));
    }
    for (i, _) in plan.dims.iter().enumerate() {
        let probed = stats.probes.get(i).copied().unwrap_or(0) as f64;
        let ws = stats.table_bytes.get(i).copied().unwrap_or(0) as u64;
        stages.push(PipelineStage::new(Family::Probe, probed / rows, ws));
    }
    let tail = stats.rows_aggregated as f64 / rows;
    stages.push(PipelineStage::new(Family::Gather, tail, 0));
    let agg = match plan.measure {
        Measure::Sum(_) | Measure::SumDiff(_, _) => Family::AggSum,
        Measure::SumProduct(_, _) => Family::AggDot,
    };
    stages.push(PipelineStage::new(agg, tail, 0));
    let measure_cols = match plan.measure {
        Measure::Sum(_) => 1,
        Measure::SumProduct(_, _) | Measure::SumDiff(_, _) => 2,
    };
    PipelineSpec {
        stages,
        streams: plan.filters.len() + plan.dims.len() + measure_cols,
    }
}

/// The per-op-tuned execution config an explicit registry implies: one
/// candidate of the pipeline playoff, and the config its rows are applied
/// onto. Same shape as
/// [`crate::tuned_hybrid`] but from a caller-supplied registry instead of
/// the warmed process-global one.
pub fn per_op_exec_config(reg: &Registry) -> ExecConfig {
    let cfg = ExecConfig::hybrid_tuned(
        reg.get_or_default(Family::Filter),
        reg.get_or_default(Family::Probe),
        reg.get_or_default(Family::AggSum),
        reg.get_or_default(Family::Gather),
    )
    .with_decode(reg.get_or_default(Family::Decode));
    match reg.get_prefetch(Family::Probe) {
        Some(f) => cfg.with_probe_prefetch(f),
        None => cfg,
    }
}

/// The pipeline row that runs a plan exactly as `cfg` does: one node per
/// stage slot the plan dispatches on either storage layer (the filter slot
/// only when it has filters, one probe node for every join, gather, the
/// measure's aggregation family, and page decode) plus `cfg`'s prefetch
/// depth. Applied onto any config with [`hef_engine::apply_pipeline_entry`],
/// it reproduces `cfg` on every slot the plan touches, whatever the per-op
/// rows underneath say — the shape the playoff measures is the shape that
/// ships.
pub fn pipeline_row(plan: &StarPlan, cfg: &ExecConfig) -> PipelineEntry {
    let mut stages = Vec::new();
    if !plan.filters.is_empty() {
        stages.push((Family::Filter, cfg.filter));
    }
    if !plan.dims.is_empty() {
        stages.push((Family::Probe, cfg.probe));
    }
    stages.push((Family::Gather, cfg.gather));
    let agg = match plan.measure {
        Measure::Sum(_) | Measure::SumDiff(_, _) => Family::AggSum,
        Measure::SumProduct(_, _) => Family::AggDot,
    };
    stages.push((agg, cfg.agg));
    stages.push((Family::Decode, cfg.decode));
    PipelineEntry { stages, f: cfg.probe_prefetch }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_engine::{apply_pipeline_entry, execute_star};
    use hef_ssb::{build_plan, generate, QueryId};

    #[test]
    fn spec_mirrors_the_lowered_chain() {
        let data = generate(0.002, 42);
        let plan = build_plan(&data, QueryId::Q2_1);
        let out = execute_star(&plan, &data.lineorder, &ExecConfig::scalar().with_threads(1));
        let spec = pipeline_spec(&plan, &out.stats);

        // filter? + probes + gather + agg
        let probes = plan.dims.len();
        let filters = usize::from(!plan.filters.is_empty());
        assert_eq!(spec.stages.len(), filters + probes + 2);
        let probe_stages: Vec<_> =
            spec.stages.iter().filter(|s| s.family == Family::Probe).collect();
        assert_eq!(probe_stages.len(), probes);
        // Weights are reach fractions: in (0, 1], monotone non-increasing
        // along the probe chain, and the tail stages match rows_aggregated.
        let mut last = 1.0f64;
        for s in &probe_stages {
            assert!(s.weight > 0.0 && s.weight <= last + 1e-12, "{:?}", s);
            last = s.weight;
        }
        let tail = out.stats.rows_aggregated as f64 / out.stats.rows_scanned as f64;
        let gather = spec.stages.iter().find(|s| s.family == Family::Gather).unwrap();
        assert!((gather.weight - tail).abs() < 1e-12);
        // Probe stages carry the table working sets; streaming stages do not.
        assert!(probe_stages.iter().any(|s| s.working_set > 0));
        assert!(spec.stages.iter().filter(|s| s.family != Family::Probe).all(|s| s.working_set == 0));
        assert_eq!(spec.streams, plan.filters.len() + probes + 1);
    }

    #[test]
    fn row_reproduces_the_config_it_was_built_from() {
        let data = generate(0.002, 42);
        let reg = Registry::default();
        let n = hef_kernels::HybridConfig::new;
        let cfg = ExecConfig::hybrid_tuned(n(2, 2, 1), n(1, 2, 3), n(4, 3, 1), n(8, 1, 4))
            .with_decode(n(0, 2, 2))
            .with_probe_prefetch(8);
        for q in QueryId::ALL {
            let plan = build_plan(&data, q);
            let row = pipeline_row(&plan, &cfg);
            // One node per slot, so the engine never refuses it.
            assert!(hef_engine::conflicting_stages(&row).is_none(), "{row:?}");
            let applied = apply_pipeline_entry(per_op_exec_config(&reg), &row);
            assert_eq!(applied.probe, cfg.probe);
            assert_eq!(applied.gather, cfg.gather);
            assert_eq!(applied.agg, cfg.agg);
            assert_eq!(applied.decode, cfg.decode);
            assert_eq!(applied.probe_prefetch, 8);
            if !plan.filters.is_empty() {
                assert_eq!(applied.filter, cfg.filter);
            }
        }
    }
}
