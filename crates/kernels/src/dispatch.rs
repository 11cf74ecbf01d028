//! Dispatch tables over the generated kernel grid.
//!
//! The grid itself (shim functions and per-family `GridEntry` tables) is
//! produced by `build.rs` into `OUT_DIR/grid.rs` and included here.

use hef_hid::Backend;

use crate::{Family, HybridConfig, KernelFn, KernelIo};

/// One compiled grid point: a configuration plus its two backend entries.
pub struct GridEntry {
    /// The `(v, s, p)` configuration this entry implements.
    pub cfg: HybridConfig,
    /// Portable emulation entry (always runnable).
    pub emu: KernelFn,
    /// AVX2 entry (requires [`hef_hid::avx2_available`]); aliases the
    /// emulation entry on non-x86-64 targets.
    pub avx2: KernelFn,
    /// AVX-512 entry (requires [`hef_hid::avx512_available`]); aliases the
    /// emulation entry on non-x86-64 targets.
    pub avx512: KernelFn,
}

include!(concat!(env!("OUT_DIR"), "/grid.rs"));

/// The full compiled grid for a kernel family.
pub fn grid_for(family: Family) -> &'static [GridEntry] {
    match family {
        Family::Murmur => MURMUR_GRID,
        Family::Crc64 => CRC64_GRID,
        Family::Probe => PROBE_GRID,
        Family::Filter => FILTER_GRID,
        Family::AggSum => AGG_SUM_GRID,
        Family::AggDot => AGG_DOT_GRID,
        Family::Gather => GATHER_GRID,
        Family::Decode => DECODE_GRID,
    }
}

/// Look up the kernel entry point for `(family, cfg)` on `backend`.
///
/// Returns `None` when `cfg` is not a compiled grid point.
pub fn kernel_for(family: Family, cfg: HybridConfig, backend: Backend) -> Option<KernelFn> {
    grid_for(family)
        .iter()
        .find(|e| e.cfg == cfg)
        .map(|e| match backend {
            Backend::Emu => e.emu,
            Backend::Avx2 => e.avx2,
            Backend::Avx512 => e.avx512,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_configs_for_every_family() {
        for family in Family::ALL {
            let grid = grid_for(family);
            for cfg in crate::all_configs() {
                assert!(
                    grid.iter().any(|e| e.cfg == cfg),
                    "{} missing {cfg}",
                    family.name()
                );
            }
            assert_eq!(grid.len(), crate::all_configs().count());
        }
    }

    #[test]
    fn kernel_for_rejects_off_grid_points() {
        let cfg = HybridConfig { v: 3, s: 0, p: 1 }; // 3 is not on V_AXIS
        assert!(kernel_for(Family::Murmur, cfg, Backend::Emu).is_none());
    }

    #[test]
    fn dispatched_murmur_runs_and_matches_reference() {
        let input: Vec<u64> = (0..300).map(|i| i * 7 + 3).collect();
        let expect: Vec<u64> = input.iter().map(|&x| crate::murmur::murmur64(x)).collect();
        let mut output = vec![0u64; input.len()];
        let mut io = KernelIo::Map { input: &input, output: &mut output };
        assert!(crate::run_on(
            Family::Murmur,
            HybridConfig::new(1, 3, 2),
            Backend::Emu,
            &mut io
        ));
        assert_eq!(output, expect);
    }
}
