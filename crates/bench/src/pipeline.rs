//! Pipeline rows for the measured pipeline tuner (`repro tune-pipeline`).
//!
//! A registry v3 pipeline row names one node per stage slot a plan runs,
//! plus the shared prefetch depth. [`pipeline_row`] builds the row that
//! reproduces an execution config on a plan; [`neighbour_rows`] proposes
//! the rows one Alg. 2 step away from it. Neither prices anything: the
//! playoff (`crate::playoff`) times the candidates and the clock decides.

use hef_core::{try_neighbors, PipelineEntry};
use hef_engine::{ExecConfig, Measure, StarPlan};
use hef_kernels::Family;

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

/// One Alg. 2 neighbour step around `row`, with no cost model: each
/// stepped row moves one stage one `(v, s, p)` axis step
/// ([`hef_core::try_neighbors`]). Decode is never stepped (it has no
/// effect in memory), nor is the prefetch depth (the playoff sweeps it on
/// its own). Stages take turns in pipeline order, one fresh neighbour each
/// per round, so every steppable stage is stepped once before any stage is
/// stepped twice. Rows in `existing`, and repeats, are skipped; at most
/// `budget` rows come back.
pub fn neighbour_rows(
    row: &PipelineEntry,
    existing: &[PipelineEntry],
    budget: usize,
) -> Vec<PipelineEntry> {
    // Per stepped stage: its stage index and the neighbours not yet taken.
    let mut queues: Vec<(usize, std::vec::IntoIter<_>)> = row
        .stages
        .iter()
        .enumerate()
        .filter(|(_, (family, _))| *family != Family::Decode)
        .map(|(i, &(_, node))| (i, try_neighbors(node).unwrap_or_default().into_iter()))
        .collect();
    let mut out: Vec<PipelineEntry> = Vec::new();
    while out.len() < budget && !queues.is_empty() {
        queues.retain_mut(|(i, queue)| {
            if out.len() >= budget {
                return true;
            }
            for node in queue.by_ref() {
                let mut next = row.clone();
                next.stages[*i].1 = node;
                if !existing.contains(&next) && !out.contains(&next) {
                    out.push(next);
                    return true;
                }
            }
            false
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_core::Registry;
    use hef_engine::apply_pipeline_entry;
    use hef_ssb::{build_plan, generate, QueryId};

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
            let applied = apply_pipeline_entry(crate::tuned_hybrid(&reg), &row);
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

    #[test]
    fn neighbour_step_is_round_robin_and_bounded() {
        let n = hef_kernels::HybridConfig::new;
        let row = PipelineEntry {
            stages: vec![
                (Family::Filter, n(1, 1, 3)),
                (Family::Probe, n(1, 1, 3)),
                (Family::Gather, n(1, 1, 3)),
                (Family::AggSum, n(1, 1, 3)),
                (Family::Decode, n(1, 1, 3)),
            ],
            f: 8,
        };
        // The stage a neighbour moved; exactly one moves, never decode or f.
        let moved = |r: &PipelineEntry| {
            assert_eq!(r.f, row.f, "{r}");
            assert_eq!(r.stages.len(), row.stages.len());
            let diffs: Vec<usize> =
                (0..r.stages.len()).filter(|&i| r.stages[i] != row.stages[i]).collect();
            assert_eq!(diffs.len(), 1, "{r}");
            assert_eq!(r.stages[diffs[0]].0, row.stages[diffs[0]].0);
            assert_ne!(r.stages[diffs[0]].0, Family::Decode, "{r}");
            diffs[0]
        };

        let all = neighbour_rows(&row, &[], usize::MAX);
        assert_eq!(all, neighbour_rows(&row, &[], usize::MAX), "deterministic");
        let per_stage = try_neighbors(n(1, 1, 3)).unwrap().len();
        assert_eq!(all.len(), 4 * per_stage);
        // Round-robin in pipeline order: stages 0..4, then again.
        let order: Vec<usize> = all.iter().map(moved).collect();
        for (k, &i) in order.iter().enumerate() {
            assert_eq!(i, k % 4, "{order:?}");
        }
        for (k, r) in all.iter().enumerate() {
            assert!(!all[..k].contains(r), "repeated {r}");
        }

        // A budget cuts the tail, never the round-robin head.
        assert_eq!(neighbour_rows(&row, &[], 6), all[..6]);
        assert!(neighbour_rows(&row, &[], 0).is_empty());

        // Existing candidates are skipped; the stage they came from still
        // gets its turn with its next neighbour.
        let existing = vec![row.clone(), all[0].clone(), all[5].clone()];
        let fresh = neighbour_rows(&row, &existing, 4);
        assert_eq!(fresh.len(), 4);
        assert!(fresh.iter().all(|r| !existing.contains(r)));
        assert_eq!(fresh.iter().map(moved).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(fresh[0], all[4]);
    }
}
