//! Search-space accounting (§II.C, Eq. 1–2 of the paper).
//!
//! The naive test-everything approach has `O(v·s·p)` cost; these helpers
//! compute the paper's closed-form size and the savings the pruning search
//! achieves, which the `ablation-search` benchmark reports.

/// Eq. 1: the piecewise search-space size for statement-count bounds
/// `v`, `s` and pack bound `p`.
pub fn space_eq1(v: usize, s: usize, p: usize) -> usize {
    if v == 0 && s != 0 {
        s
    } else if s == 0 && v != 0 {
        v
    } else if v != 0 && s != 0 {
        v * s * p + v + s
    } else {
        0
    }
}

/// Eq. 2: the paper's reduced closed form
/// `space = v·s·(p−1) + v + s − 1` for `v + s ≥ 1`.
///
/// Note: the paper's reduction is off by `v·s + 1` against its own Eq. 1 in
/// the general case (and by 1 in the degenerate cases); we implement both
/// exactly as printed and the tests document the discrepancy.
pub fn space_eq2(v: usize, s: usize, p: usize) -> usize {
    assert!(v + s >= 1);
    v * s * (p.saturating_sub(1)) + v + s - 1
}

/// The number of nodes on our *compiled grid* (the practical search space:
/// axis values are restricted to what the build script instantiated).
pub fn grid_size() -> usize {
    hef_kernels::all_configs().count()
}

/// Savings report for a finished search.
#[derive(Debug, Clone, Copy)]
pub struct PruningSavings {
    /// Nodes whose kernels were actually generated and timed.
    pub tested: usize,
    /// Grid nodes never touched thanks to pruning.
    pub skipped: usize,
    /// Total grid nodes.
    pub total: usize,
}

impl PruningSavings {
    pub fn new(tested: usize) -> Self {
        let total = grid_size();
        PruningSavings { tested, skipped: total.saturating_sub(tested), total }
    }

    /// Fraction of the grid that never needed testing.
    pub fn saved_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.skipped as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_degenerate_cases() {
        assert_eq!(space_eq1(0, 5, 3), 5);
        assert_eq!(space_eq1(4, 0, 3), 4);
        assert_eq!(space_eq1(0, 0, 3), 0);
    }

    #[test]
    fn eq1_general_case() {
        // Σ_1^v Σ_1^s Σ_1^p 1 + v + s = v·s·p + v + s.
        assert_eq!(space_eq1(2, 3, 4), 2 * 3 * 4 + 2 + 3);
    }

    #[test]
    fn eq2_as_printed() {
        assert_eq!(space_eq2(2, 3, 4), 2 * 3 * 3 + 2 + 3 - 1);
        // Documented discrepancy vs Eq. 1: v·s + 1.
        assert_eq!(
            space_eq1(2, 3, 4) - space_eq2(2, 3, 4),
            2 * 3 + 1
        );
    }

    #[test]
    fn complexity_is_vsp() {
        // Doubling p roughly doubles the dominant term.
        let a = space_eq2(4, 4, 4);
        let b = space_eq2(4, 4, 8);
        assert!(b > a + 4 * 4 * 3);
    }

    #[test]
    fn savings_accounting() {
        let s = PruningSavings::new(10);
        assert_eq!(s.total, grid_size());
        assert_eq!(s.tested + s.skipped, s.total);
        assert!(s.saved_fraction() > 0.5, "grid is much larger than 10 nodes");
    }
}
