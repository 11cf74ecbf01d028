//! The candidate generator (§IV.A of the paper).
//!
//! A two-stage model that produces the *initial* node for the optimizer's
//! search — not the final answer, but close enough to shrink the search:
//!
//! * **Stage 1** uses only the processor's pipeline counts: `v` = number of
//!   SIMD pipelines; `s` = scalar ALU pipelines minus the pipelines shared
//!   with SIMD (shared pipelines are treated as SIMD-exclusive, because
//!   "SIMD is more efficient than scalar in most cases under the data
//!   analytics workload").
//! * **Stage 2** sets the pack depth from the instruction tables: take the
//!   instruction with the largest latency/throughput ratio in the operator
//!   template, then
//!   `p = min{ 32 / throughput, 32 / max(s·3, v·argc) }` —
//!   32 being the number of architectural scalar/vector registers, 3 the
//!   typical register count of a scalar instruction, and `argc` the largest
//!   argument count among the template's SIMD instructions. The rationale:
//!   pack as deep as possible without spilling registers.

use hef_kernels::{HybridConfig, P_AXIS, S_AXIS, V_AXIS};
use hef_uarch::{uop_cost, CpuModel};

use crate::ir::OperatorTemplate;
use crate::translate::to_loop_body;

/// Snap `x` to the nearest value on `axis` (ties toward the smaller value).
pub fn snap_to_axis(x: usize, axis: &[usize]) -> usize {
    *axis
        .iter()
        .min_by_key(|&&a| (a.abs_diff(x), a))
        .expect("non-empty axis")
}

/// Snap a free configuration to the compiled kernel grid.
pub fn snap(cfg: HybridConfig) -> HybridConfig {
    let mut v = snap_to_axis(cfg.v, V_AXIS);
    let mut s = snap_to_axis(cfg.s, S_AXIS);
    if v + s == 0 {
        // Degenerate corner: fall back to the scalar baseline.
        v = 0;
        s = 1;
    }
    HybridConfig { v, s, p: snap_to_axis(cfg.p, P_AXIS) }
}

/// Stage 1: statement counts from pipeline counts.
pub fn stage1(model: &CpuModel) -> (usize, usize) {
    let v = model.simd_pipes();
    let s = model.scalar_alu_pipes().saturating_sub(model.shared_pipes());
    (v, s)
}

/// Stage 2: the pack rule. `v`/`s` are stage-1 outputs.
pub fn stage2(template: &OperatorTemplate, v: usize, s: usize) -> usize {
    // The instruction with the maximum latency/throughput ratio, taken from
    // the µop trace of the minimal mixed node (1, 1, 1) so both the vector
    // and the scalar lowering of every statement contribute candidates.
    let body = to_loop_body(template, HybridConfig::new(1, 1, 1));
    let _ = v; // stage 2 uses v only in the register rule below
    let max_ratio_cost = body
        .uops
        .iter()
        .map(|u| uop_cost(u.class))
        .max_by(|a, b| {
            let ra = a.latency as f64 / a.port_busy as f64;
            let rb = b.latency as f64 / b.port_busy as f64;
            ra.partial_cmp(&rb).unwrap()
        })
        .expect("non-empty trace");

    let argc = template.max_argc().max(1);
    let regs = 32usize; // architectural scalar and vector register count
    let by_throughput = regs / (max_ratio_cost.port_busy as usize).max(1);
    let by_registers = regs / (s * 3).max(v * argc).max(1);
    by_throughput.min(by_registers).max(1)
}

/// The full candidate generator: stage 1 + stage 2, snapped onto the
/// compiled grid.
pub fn initial_candidate(model: &CpuModel, template: &OperatorTemplate) -> HybridConfig {
    let (v, s) = stage1(model);
    let p = stage2(template, v, s);
    snap(HybridConfig { v: v.max(1), s, p })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates;

    #[test]
    fn stage1_matches_paper_descriptions() {
        // Silver 4110: one fused AVX-512 pipe, four scalar pipes, one shared
        // → (v, s) = (1, 3). The paper's tuned murmur optimum (1, 3, 2) has
        // exactly these statement counts.
        assert_eq!(stage1(&CpuModel::silver_4110()), (1, 3));
        // Gold 6240R: two AVX-512 pipes, two of the scalar pipes shared.
        assert_eq!(stage1(&CpuModel::gold_6240r()), (2, 2));
    }

    #[test]
    fn stage2_respects_register_budget() {
        let t = templates::murmur();
        // s=3 → s*3 = 9 dominates v*argc: p = min(32/3, 32/9) = 3.
        assert_eq!(stage2(&t, 1, 3), 3);
        // With huge v the register limit collapses p to 1.
        assert_eq!(stage2(&t, 8, 0), 32 / (8 * t.max_argc()).max(1));
    }

    #[test]
    fn initial_candidate_is_on_grid() {
        for m in [CpuModel::silver_4110(), CpuModel::gold_6240r()] {
            for f in hef_kernels::Family::ALL {
                let t = templates::for_family(f);
                let c = initial_candidate(&m, &t);
                assert!(V_AXIS.contains(&c.v), "{c}");
                assert!(S_AXIS.contains(&c.s), "{c}");
                assert!(P_AXIS.contains(&c.p), "{c}");
                assert!(c.v + c.s >= 1);
            }
        }
    }

    #[test]
    fn snap_chooses_nearest() {
        assert_eq!(snap_to_axis(3, V_AXIS), 2); // ties (2 vs 4) go low
        assert_eq!(snap_to_axis(7, V_AXIS), 8);
        assert_eq!(snap_to_axis(0, V_AXIS), 0);
        assert_eq!(snap_to_axis(100, P_AXIS), 4);
    }

    #[test]
    fn snap_never_produces_empty_config() {
        let c = snap(HybridConfig { v: 0, s: 0, p: 2 });
        assert!(c.v + c.s >= 1);
    }
}
