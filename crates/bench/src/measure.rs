//! Wall-clock measurement on the build machine, on top of the
//! `hef-testutil` clock discipline (warm-up run, best-of-k wall time).

use hef_engine::{CancelToken, Engine, ExecConfig, ExecReport, Fact, QueryOutput, StarPlan};
use hef_kernels::{run_on, Family, HybridConfig, KernelIo};
use hef_storage::Table;

/// A measured timing: best-of-`repeats` wall time, plus the hardware
/// reference-cycle count of the fastest run where the platform exposes one
/// (see [`hef_testutil::read_cycles`]).
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub secs: f64,
    pub cycles: Option<u64>,
}

impl Measured {
    pub fn ms(&self) -> f64 {
        self.secs * 1e3
    }

    /// Hardware cycles of the fastest run, in millions.
    pub fn mcycles(&self) -> Option<f64> {
        self.cycles.map(|c| c as f64 / 1e6)
    }
}

/// Execute `plan` on `engine` `repeats` times under `cfg` and return the
/// best time and the (identical every run) output, plus the executor's
/// fault-recovery report from the untimed warm-up run. A degraded run
/// still measures, but the report lets the harness flag numbers taken
/// under recovery.
pub fn measure_query_reported(
    engine: &Engine,
    plan: &StarPlan,
    fact: &Table,
    cfg: &ExecConfig,
    repeats: usize,
) -> (Measured, QueryOutput, ExecReport) {
    let run = || {
        engine
            .execute(plan, Fact::Mem(fact), cfg, &CancelToken::new())
            .unwrap_or_else(|e| panic!("bench query failed: {e}"))
    };
    // The (identical every run) result, with recovery accounting.
    let (out, report) = run();
    let (secs, cycles) = hef_testutil::time_best_of_cycles(repeats, || {
        run();
    });
    (Measured { secs, cycles }, out, report)
}

/// Execute `plan` on `engine` `repeats` times under `cfg` and return the
/// best time and the (identical every run) output.
pub fn measure_query(
    engine: &Engine,
    plan: &StarPlan,
    fact: &Table,
    cfg: &ExecConfig,
    repeats: usize,
) -> (Measured, QueryOutput) {
    let (m, out, _) = measure_query_reported(engine, plan, fact, cfg, repeats);
    (m, out)
}

/// Measure a map-family kernel (murmur / crc64) over `input`.
pub fn measure_kernel(
    family: Family,
    cfg: HybridConfig,
    input: &[u64],
    repeats: usize,
) -> Measured {
    let mut output = vec![0u64; input.len()];
    // Probe once so an off-grid node fails loudly rather than timing a no-op.
    let mut io = KernelIo::Map { input, output: &mut output };
    assert!(run_on(family, cfg, hef_hid::Backend::native(), &mut io));
    let (secs, cycles) = hef_testutil::time_best_of_cycles(repeats, || {
        let mut io = KernelIo::Map { input, output: &mut output };
        run_on(family, cfg, hef_hid::Backend::native(), &mut io);
    });
    Measured { secs, cycles }
}

/// Standard synthetic input for the kernel benchmarks (the paper hashes
/// 10⁹ pseudo-random 64-bit integers; scale with `n`).
pub fn kernel_input(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x243f_6a88))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_engine::Flavor;

    #[test]
    fn kernel_measurement_is_positive_and_repeatable() {
        let input = kernel_input(10_000);
        let m = measure_kernel(Family::Murmur, HybridConfig::new(1, 1, 2), &input, 2);
        assert!(m.secs > 0.0 && m.secs.is_finite());
        assert!(m.ms() > 0.0);
    }

    #[test]
    fn query_measurement_returns_consistent_output() {
        let data = hef_ssb::generate(0.002, 9);
        let plan = hef_ssb::build_plan(&data, hef_ssb::QueryId::Q2_1);
        let engine = Engine::default();
        let (m, out) = measure_query(
            &engine,
            &plan,
            &data.lineorder,
            &ExecConfig::for_flavor(Flavor::Hybrid),
            1,
        );
        assert!(m.secs > 0.0);
        let (_, out2) = measure_query(
            &engine,
            &plan,
            &data.lineorder,
            &ExecConfig::for_flavor(Flavor::Scalar),
            1,
        );
        assert_eq!(out.groups, out2.groups);
    }
}
