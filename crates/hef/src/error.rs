//! Typed errors for the offline phase.
//!
//! Every fallible surface of `hef-core` — template parsing, translation,
//! registry loading, tuning — funnels into [`HefError`], so callers choose
//! between fail-fast (`?` / `unwrap_or_else(|e| panic!(…))`) and fallback
//! (degrade to the candidate generator's analytical pick, or to the paper's
//! SSB default node) instead of inheriting a panic from deep inside the
//! framework. The panicking convenience wrappers (`translate`,
//! `to_loop_body`, `tune_*`) still exist for infallible inputs; they are
//! thin shells over the `try_*` functions defined next to them.

use hef_kernels::{P_AXIS, S_AXIS, V_AXIS};

/// Any error the offline phase can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HefError {
    /// The operator-template language failed to parse (§IV.B surface).
    Template(crate::parse::ParseError),
    /// The registry text format failed to parse.
    Registry(crate::registry::ParseError),
    /// A template is structurally invalid (undefined variable, missing
    /// destination, …) — reported by `OperatorTemplate::validate`.
    InvalidTemplate {
        operator: String,
        message: String,
    },
    /// A `(v, s, p)` node is not on the compiled kernel grid, so no kernel
    /// exists for it and the optimizer cannot take axis steps from it.
    OffGrid { v: usize, s: usize, p: usize },
    /// An I/O failure, with the offending path attached.
    Io { path: String, message: String },
}

impl HefError {
    /// Build the off-grid error for a config.
    pub fn off_grid(cfg: hef_kernels::HybridConfig) -> HefError {
        HefError::OffGrid { v: cfg.v, s: cfg.s, p: cfg.p }
    }
}

impl std::fmt::Display for HefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HefError::Template(e) => write!(f, "template parse: {e}"),
            HefError::Registry(e) => write!(f, "registry parse: {e}"),
            HefError::InvalidTemplate { operator, message } => {
                write!(f, "invalid template `{operator}`: {message}")
            }
            HefError::OffGrid { v, s, p } => write!(
                f,
                "node ({v}, {s}, {p}) is off the compiled grid (v ∈ {V_AXIS:?}, s ∈ {S_AXIS:?}, p ∈ {P_AXIS:?})"
            ),
            HefError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for HefError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HefError::Template(e) => Some(e),
            HefError::Registry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::parse::ParseError> for HefError {
    fn from(e: crate::parse::ParseError) -> HefError {
        HefError::Template(e)
    }
}

impl From<crate::registry::ParseError> for HefError {
    fn from(e: crate::registry::ParseError) -> HefError {
        HefError::Registry(e)
    }
}

/// `true` when `(v, s, p)` lies on the compiled kernel grid.
pub fn on_grid(v: usize, s: usize, p: usize) -> bool {
    V_AXIS.contains(&v) && S_AXIS.contains(&s) && P_AXIS.contains(&p) && v + s >= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_kernels::HybridConfig;

    #[test]
    fn display_is_informative() {
        let e = HefError::off_grid(HybridConfig { v: 3, s: 0, p: 9 });
        let s = e.to_string();
        assert!(s.contains("(3, 0, 9)") && s.contains("off the compiled grid"), "{s}");

        let e = HefError::InvalidTemplate { operator: "t".into(), message: "boom".into() };
        assert!(e.to_string().contains("`t`"));
    }

    #[test]
    fn on_grid_matches_all_configs() {
        for cfg in hef_kernels::all_configs() {
            assert!(on_grid(cfg.v, cfg.s, cfg.p), "{cfg}");
        }
        assert!(!on_grid(3, 0, 1));
        assert!(!on_grid(0, 0, 1));
        assert!(!on_grid(1, 1, 0));
        assert!(!on_grid(1, 1, 5));
    }

    #[test]
    fn conversions_wrap_the_source() {
        let pe = crate::parse::ParseError { line: 3, message: "x".into() };
        let he: HefError = pe.clone().into();
        assert_eq!(he, HefError::Template(pe));
        assert!(std::error::Error::source(&he).is_some());
    }
}
