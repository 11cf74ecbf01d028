//! Tuned execution configs from the operator registry.
//!
//! Benches and the `repro` binary build their [`ExecConfig`]s here instead
//! of hard-coding the paper's SSB optimum: they load the tuned registry
//! once at startup with [`registry_from_env`] (the file `HEF_REGISTRY`
//! names, e.g. the one the `repro tune` experiment writes) and pass it
//! down, and the hybrid flavor picks up whatever node the offline tuner
//! found per kernel family.

use std::path::Path;

use hef_core::{Registry, WarmReport};
use hef_engine::{ExecConfig, Flavor};
use hef_kernels::Family;

/// The registry `HEF_REGISTRY` names, through the degradation ladder
/// ([`Registry::load_degraded`]); empty (every family at the paper's SSB
/// optimum) when the variable is unset.
pub fn registry_from_env() -> (Registry, WarmReport) {
    match std::env::var("HEF_REGISTRY") {
        Ok(path) if !path.trim().is_empty() => Registry::load_degraded(Path::new(path.trim())),
        _ => (Registry::default(), WarmReport::default()),
    }
}

/// Hybrid config with per-family nodes from `reg` (falling back to the
/// paper's SSB optimum `(1, 1, 3)` for untuned families). This is also
/// the per-op candidate of the pipeline playoff, the config its rows are
/// applied onto.
pub fn tuned_hybrid(reg: &Registry) -> ExecConfig {
    ExecConfig::hybrid_tuned(
        reg.get_or_default(Family::Filter),
        reg.get_or_default(Family::Probe),
        reg.get_or_default(Family::AggSum),
        reg.get_or_default(Family::Gather),
    )
    .with_decode(reg.get_or_default(Family::Decode))
}

/// The config benches run for a flavor: `reg`-tuned nodes for Hybrid, the
/// fixed baselines for everything else.
pub fn exec_config(reg: &Registry, flavor: Flavor) -> ExecConfig {
    match flavor {
        Flavor::Hybrid => tuned_hybrid(reg),
        _ => ExecConfig::for_flavor(flavor),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_kernels::HybridConfig;

    #[test]
    fn hybrid_flavor_comes_from_registry() {
        let mut reg = Registry::default();
        reg.insert(Family::Probe, HybridConfig::new(2, 1, 2));
        let cfg = exec_config(&reg, Flavor::Hybrid);
        assert_eq!(cfg.flavor, Flavor::Hybrid);
        assert_eq!(cfg.filter, reg.get_or_default(Family::Filter));
        assert_eq!(cfg.probe, HybridConfig::new(2, 1, 2));
        assert_eq!(cfg.agg, reg.get_or_default(Family::AggSum));
        assert_eq!(cfg.gather, reg.get_or_default(Family::Gather));
    }

    #[test]
    fn baselines_unchanged() {
        let reg = Registry::default();
        assert_eq!(exec_config(&reg, Flavor::Scalar).filter, HybridConfig::SCALAR);
        assert_eq!(exec_config(&reg, Flavor::Simd).probe, HybridConfig::SIMD);
        assert_eq!(exec_config(&reg, Flavor::Voila).flavor, Flavor::Voila);
    }
}
