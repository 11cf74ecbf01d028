//! Per-query pipeline plans: stable plan fingerprints and the overlay of a
//! tuned pipeline row onto an execution config.
//!
//! The pipeline tuner (`repro tune-pipeline`, a measured playoff) persists
//! its picks as registry v3 rows keyed by a **plan fingerprint** — a hash of
//! the query's *structure* (filters, join chain, measure, group strides),
//! deliberately excluding anything scale-dependent (table sizes, row
//! counts) so a plan tuned at one scale factor resolves at every other.
//!
//! An [`Engine`](crate::Engine) built with a pipeline registry (loaded once,
//! from `HEF_PIPELINE` in `Engine::from_env`) looks each executing plan's
//! fingerprint up and overlays the matching row onto the caller's
//! [`ExecConfig`] with [`apply_pipeline_entry`]. The lookup degrades, never
//! fails: an unreadable or torn file, a missing row, or a stale-ISA
//! registry all leave the caller's config (typically per-op tuned)
//! untouched — one rung down the ladder, identical results either way. The
//! engine's thread and deadline overrides apply *after* the row.

use hef_core::PipelineEntry;
use hef_kernels::{Family, HybridConfig};

use crate::star::{ExecConfig, Measure, StarPlan};

/// FNV-1a, hand-rolled so the fingerprint is stable across Rust releases
/// (`DefaultHasher` documents no such stability) — these hashes live in
/// registry files that outlive the binary that wrote them.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        // Delimit, so ("ab","c") and ("a","bc") hash apart.
        self.bytes(&[0xff]);
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl StarPlan {
    /// Stable structural fingerprint, the registry v3 row key.
    ///
    /// Covers the query name and everything that shapes the lowered
    /// pipeline — filter columns and bounds, the join chain (fk column,
    /// dimension name, group count, probe order), the measure, and the
    /// group-id strides. Excludes probe-table contents and sizes: the same
    /// query at a different scale factor keeps its fingerprint, so one
    /// tuned registry serves every data size.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(&self.name);
        h.num(self.filters.len() as u64);
        for f in &self.filters {
            h.str(&f.col);
            h.num(f.lo);
            h.num(f.hi);
        }
        h.num(self.dims.len() as u64);
        for d in &self.dims {
            h.str(&d.fk_col);
            h.str(&d.name);
            h.num(d.groups as u64);
        }
        match &self.measure {
            Measure::Sum(a) => {
                h.num(1);
                h.str(a);
            }
            Measure::SumProduct(a, b) => {
                h.num(2);
                h.str(a);
                h.str(b);
            }
            Measure::SumDiff(a, b) => {
                h.num(3);
                h.str(a);
                h.str(b);
            }
        }
        for s in self.gid_strides() {
            h.num(s);
        }
        h.0
    }
}

/// The [`ExecConfig`] slot a stage family's node lands on: both aggregation
/// families share one slot.
/// The hash micro-kernels have no slot.
fn slot(family: Family) -> Option<usize> {
    match family {
        Family::Filter => Some(0),
        Family::Probe => Some(1),
        Family::Gather => Some(2),
        Family::AggSum | Family::AggDot => Some(3),
        Family::Decode => Some(4),
        Family::Murmur | Family::Crc64 => None,
    }
}

/// The first two stages of `entry` that name different nodes for one
/// config slot. A config holds one node per slot — one probe node serves
/// every join — so such a row has no single shape to execute.
pub fn conflicting_stages(
    entry: &PipelineEntry,
) -> Option<((Family, HybridConfig), (Family, HybridConfig))> {
    let mut seen: [Option<(Family, HybridConfig)>; 5] = [None; 5];
    for &(family, node) in &entry.stages {
        let Some(i) = slot(family) else { continue };
        match seen[i] {
            Some((first, n)) if n != node => return Some(((first, n), (family, node))),
            Some(_) => {}
            None => seen[i] = Some((family, node)),
        }
    }
    None
}

/// Overlay a registry v3 pipeline row onto an execution config: each stage's
/// node lands on its family's slot (see [`slot`]). Stage families with no
/// `ExecConfig` slot (the hash micro-kernels) are ignored.
///
/// A row whose stages disagree on one slot (say, two probe nodes) is
/// refused: it cannot run as written, so the caller's per-op config is
/// returned unchanged, with one warning per process.
pub fn apply_pipeline_entry(mut cfg: ExecConfig, entry: &PipelineEntry) -> ExecConfig {
    if let Some(((fa, a), (fb, b))) = conflicting_stages(entry) {
        hef_obs::diag::warn_once(
            "pipeline-row-conflict",
            format!(
                "pipeline row refused: {} node {a} and {} node {b} share one config slot; \
                 running the per-op config",
                fa.name(),
                fb.name()
            ),
        );
        return cfg;
    }
    for &(family, node) in &entry.stages {
        match family {
            Family::Filter => cfg.filter = node,
            Family::Probe => cfg.probe = node,
            Family::Gather => cfg.gather = node,
            Family::AggSum | Family::AggDot => cfg.agg = node,
            Family::Decode => cfg.decode = node,
            Family::Murmur | Family::Crc64 => {}
        }
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::{build_dimension, RangeFilter};
    use crate::Engine;
    use hef_core::Registry;
    use hef_storage::{Column, Table};

    /// The engine `HEF_PIPELINE=<path>` describes.
    fn pipeline_engine(path: &std::path::Path) -> Engine {
        let path = path.display().to_string();
        Engine::from_vars(move |k| (k == "HEF_PIPELINE").then(|| path.clone()))
    }

    fn toy_plan() -> (Table, StarPlan) {
        let n = 4096u64;
        let mut fact = Table::new("fact");
        fact.add_column(Column::new("fk", (0..n).map(|i| i % 64).collect()));
        fact.add_column(Column::new("rev", (0..n).map(|i| i % 7 + 1).collect()));
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", (0..64).collect()));
        let d = build_dimension(
            &dim,
            "key",
            |r| dim.col("key")[r] < 48,
            |r| dim.col("key")[r] % 4,
            4,
            "fk",
        );
        let plan = StarPlan {
            name: "toy".into(),
            filters: vec![RangeFilter { col: "rev".into(), lo: 1, hi: 6 }],
            dims: vec![d],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        (fact, plan)
    }

    #[test]
    fn fingerprint_is_structural_and_scale_stable() {
        let (_, plan) = toy_plan();
        let fp = plan.fingerprint();
        assert_eq!(fp, plan.fingerprint(), "deterministic");

        // A rebuilt plan with a *bigger* dimension table but identical
        // structure keeps the fingerprint.
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", (0..256).collect()));
        let d = build_dimension(
            &dim,
            "key",
            |r| dim.col("key")[r] < 48,
            |r| dim.col("key")[r] % 4,
            4,
            "fk",
        );
        let scaled = StarPlan { dims: vec![d], ..plan.clone() };
        assert_eq!(scaled.fingerprint(), fp, "table size must not matter");

        // Any structural change moves it.
        let mut renamed = plan.clone();
        renamed.name = "toy2".into();
        assert_ne!(renamed.fingerprint(), fp);
        let mut refiltered = plan.clone();
        refiltered.filters[0].hi = 5;
        assert_ne!(refiltered.fingerprint(), fp);
        let mut remeasured = plan.clone();
        remeasured.measure = Measure::SumProduct("rev".into(), "rev".into());
        assert_ne!(remeasured.fingerprint(), fp);
    }

    #[test]
    fn entry_overlays_family_slots() {
        let base = ExecConfig::hybrid_default();
        let entry = PipelineEntry {
            stages: vec![
                (Family::Filter, HybridConfig::new(2, 2, 2)),
                (Family::Probe, HybridConfig::new(4, 0, 1)),
                (Family::Gather, HybridConfig::new(0, 2, 1)),
                (Family::AggSum, HybridConfig::new(1, 3, 1)),
            ],
        };
        let cfg = apply_pipeline_entry(base, &entry);
        assert_eq!(cfg.filter, HybridConfig::new(2, 2, 2));
        assert_eq!(cfg.probe, HybridConfig::new(4, 0, 1));
        assert_eq!(cfg.gather, HybridConfig::new(0, 2, 1));
        assert_eq!(cfg.agg, HybridConfig::new(1, 3, 1));
        // Untouched knobs survive the overlay.
        assert_eq!(cfg.batch, base.batch);
        assert_eq!(cfg.decode, base.decode);
    }

    #[test]
    fn row_with_disagreeing_probe_stages_is_refused() {
        let base = ExecConfig::hybrid_default();
        let conflicting = PipelineEntry {
            stages: vec![
                (Family::Probe, HybridConfig::new(1, 2, 3)),
                (Family::Probe, HybridConfig::new(0, 1, 3)),
                (Family::Probe, HybridConfig::new(1, 1, 4)),
                (Family::Gather, HybridConfig::new(2, 0, 4)),
            ],
        };
        let (cfg, warnings) =
            hef_obs::diag::capture(|| apply_pipeline_entry(base, &conflicting));
        // Nothing of the row applies, not even the gather node.
        assert_eq!(cfg.probe, base.probe);
        assert_eq!(cfg.gather, base.gather);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("refused"), "{warnings:?}");
        // Once per process, not once per query.
        let (_, again) = hef_obs::diag::capture(|| {
            apply_pipeline_entry(base, &conflicting);
            apply_pipeline_entry(base, &conflicting)
        });
        assert_eq!(again.len(), 1, "{again:?}");

        // Repeated stages that agree are one shape and apply.
        let agreeing = PipelineEntry {
            stages: vec![
                (Family::Probe, HybridConfig::new(1, 1, 4)),
                (Family::Probe, HybridConfig::new(1, 1, 4)),
                (Family::Gather, HybridConfig::new(2, 0, 4)),
            ],
        };
        assert!(conflicting_stages(&agreeing).is_none());
        let cfg = apply_pipeline_entry(base, &agreeing);
        assert_eq!(cfg.probe, HybridConfig::new(1, 1, 4));
        assert_eq!(cfg.gather, HybridConfig::new(2, 0, 4));
    }

    #[test]
    fn hef_pipeline_resolves_and_damaged_files_degrade() {
        let (fact, plan) = toy_plan();
        let dir = std::env::temp_dir().join(format!("hef-pipe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tuned.txt");

        let mut reg = Registry::default();
        reg.insert_pipeline(
            plan.fingerprint(),
            PipelineEntry {
                stages: vec![
                    (Family::Filter, HybridConfig::new(2, 2, 2)),
                    (Family::Probe, HybridConfig::new(1, 1, 3)),
                ],
            },
        );
        reg.save(&path).unwrap();

        let base = ExecConfig::hybrid_default();
        let engine = pipeline_engine(&path);
        let resolved = engine.configure(&plan, base);
        assert_eq!(resolved.filter, HybridConfig::new(2, 2, 2));

        // A plan without a row keeps the caller's config.
        let mut other = plan.clone();
        other.name = "other".into();
        let kept = engine.configure(&other, base);
        assert_eq!(kept.filter, base.filter);

        // End to end: the pipeline-configured run is bit-identical to the
        // unconfigured one (grid nodes only change speed, never results).
        let cancel = crate::CancelToken::new();
        let (with, _) =
            engine.execute(&plan, crate::Fact::Mem(&fact), &base.with_threads(1), &cancel).unwrap();
        let without = crate::execute_star(&plan, &fact, &base.with_threads(1));
        assert_eq!(with, without);

        // Truncate the file mid-row: the ladder drops the torn row and the
        // caller's config survives untouched.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.rfind("probe").map(|i| i + 3).unwrap_or(text.len());
        let torn = dir.join("torn.txt");
        std::fs::write(&torn, &text[..cut]).unwrap();
        let degraded = pipeline_engine(&torn).configure(&plan, base);
        assert_eq!(degraded.filter, base.filter);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
