//! # hef-kernels — the hybrid kernel grid
//!
//! Concrete implementations of HEF operator templates for every combination
//! of `v` SIMD statements, `s` scalar statements, and pack depth `p` that the
//! optimizer may visit (the paper's §IV "generated target code").
//!
//! Each kernel family (MurmurHash, CRC64, hash probe, range filter,
//! aggregation) has one generic body written over the
//! [`hef_hid::Simd64`] backend trait with const parameters `V`, `S`, `P`.
//! The statement expansion follows Algorithm 1 of the paper exactly: every
//! hybrid-intermediate-description statement is emitted pack-major — for each
//! pack layer `p_i`, first the `v` vector instances, then the `s` scalar
//! instances — which is the ordering visible in the paper's Fig. 6(b)/(c).
//!
//! A build script monomorphizes the grid: for each `(family, v, s, p)` it
//! emits an AVX-512 `#[target_feature(enable = "avx512f,avx512dq")]` shim and
//! a portable-emulation shim, and collects them into per-family dispatch
//! tables ([`grid_for`]). `(v=0, s=1, p=1)` is the purely scalar baseline,
//! `(v=1, s=0, p=1)` the purely SIMD baseline; everything else is a hybrid
//! point the optimizer can test.

// The pack expansion deliberately uses index loops (`for pi in 0..P`) so
// each (layer, statement) instance is a distinct, independently schedulable
// statement — the literal structure of the paper's Algorithm 1 output.
#![allow(clippy::needless_range_loop)]

pub mod agg;
pub mod crc64;
pub mod decode;
pub mod dense;
pub mod filter;
pub mod gather;
pub mod murmur;
pub mod prefetch;
pub mod probe;

mod dispatch;

pub use dispatch::{grid_for, kernel_for, GridEntry};
pub use dense::DenseIndex;
pub use probe::{ProbeTable, MISS};

use hef_hid::Backend;

/// One point of the hybrid configuration space: `v` SIMD statements and `s`
/// scalar statements per pack layer, `p` pack layers.
///
/// The element width of one loop iteration is `p * (v * LANES + s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HybridConfig {
    /// Number of SIMD statements per pack layer.
    pub v: usize,
    /// Number of scalar statements per pack layer.
    pub s: usize,
    /// Pack depth (number of independent unrolled layers).
    pub p: usize,
}

impl HybridConfig {
    /// Create a configuration; panics if `v + s == 0` or `p == 0`.
    pub fn new(v: usize, s: usize, p: usize) -> Self {
        assert!(v + s >= 1, "a configuration needs at least one statement");
        assert!(p >= 1, "pack depth is at least 1");
        HybridConfig { v, s, p }
    }

    /// The purely scalar baseline: one scalar statement, no packing.
    pub const SCALAR: HybridConfig = HybridConfig { v: 0, s: 1, p: 1 };

    /// The purely SIMD baseline: one vector statement, no packing.
    pub const SIMD: HybridConfig = HybridConfig { v: 1, s: 0, p: 1 };

    /// Elements consumed by one unrolled loop iteration.
    pub fn step(&self) -> usize {
        self.p * (self.v * hef_hid::LANES + self.s)
    }

    /// `true` when no SIMD statement is present.
    pub fn is_pure_scalar(&self) -> bool {
        self.v == 0
    }

    /// `true` when no scalar statement is present and `p == 1`.
    pub fn is_pure_simd(&self) -> bool {
        self.s == 0 && self.p == 1
    }
}

impl core::fmt::Display for HybridConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}{}{}", self.v, self.s, self.p)
    }
}

/// The kernel families instantiated over the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// MurmurHash finalizer over 64-bit elements (compute-bound; the paper's
    /// first synthetic benchmark).
    Murmur,
    /// Table-driven CRC64 (gather/L1-bound; the paper's second synthetic
    /// benchmark).
    Crc64,
    /// Linear-probe hash-table probe (hash + gather + compare; the hot loop
    /// of SSB joins).
    Probe,
    /// Range filter producing a selection vector.
    Filter,
    /// Sum aggregation.
    AggSum,
    /// Sum-of-products aggregation (`sum(a*b)`, e.g. revenue columns).
    AggDot,
    /// Selective gather (`out[i] = src[idx[i]]`, the pipeline "take"); the
    /// same grid runs the 32-bit-source forms ([`KernelIo::GatherU32`])
    /// and the fused dense join probe ([`KernelIo::DenseProbe`]).
    Gather,
    /// Compressed-page decode: bit-unpack + frame-of-reference add or
    /// dictionary gather (the hot loop of paged column scans).
    Decode,
}

impl Family {
    /// All families, in dispatch-table order.
    pub const ALL: [Family; 8] = [
        Family::Murmur,
        Family::Crc64,
        Family::Probe,
        Family::Filter,
        Family::AggSum,
        Family::AggDot,
        Family::Gather,
        Family::Decode,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Murmur => "murmur",
            Family::Crc64 => "crc64",
            Family::Probe => "probe",
            Family::Filter => "filter",
            Family::AggSum => "agg_sum",
            Family::AggDot => "agg_dot",
            Family::Gather => "gather",
            Family::Decode => "decode",
        }
    }
}

/// The argument bundle passed through the type-erased dispatch boundary.
///
/// Every kernel family reads exactly one variant; passing the wrong variant
/// is a programming error and panics.
pub enum KernelIo<'a> {
    /// Element-wise map: `output[i] = f(input[i])` (murmur, crc64).
    Map {
        input: &'a [u64],
        output: &'a mut [u64],
    },
    /// Hash-table probe: `out[i] = payload of keys[i]` or [`MISS`].
    Probe {
        keys: &'a [u64],
        table: &'a ProbeTable,
        out: &'a mut [u64],
    },
    /// Range filter `lo <= x <= hi` (signed); appends absolute row ids
    /// (`base + i`) of qualifying rows to `sel`.
    Filter {
        input: &'a [u64],
        lo: u64,
        hi: u64,
        base: u64,
        sel: &'a mut Vec<u64>,
    },
    /// Selection-refining range filter: compacts `sel` in place, keeping
    /// only the rows `r` with `lo <= input[r] <= hi` (signed). Every entry
    /// of `sel` must be in bounds of `input`. Runs on the [`Family::Filter`]
    /// grid (secondary fact-table predicates of multi-filter queries).
    FilterRefine {
        input: &'a [u64],
        lo: u64,
        hi: u64,
        sel: &'a mut Vec<u64>,
    },
    /// Sum aggregation over `a`; result accumulated into `acc` (wrapping).
    AggSum { a: &'a [u64], acc: &'a mut u64 },
    /// Sum-of-products over `a`, `b`; result accumulated into `acc`
    /// (wrapping). Slices must have equal length.
    AggDot {
        a: &'a [u64],
        b: &'a [u64],
        acc: &'a mut u64,
    },
    /// Selective gather: `out[i] = src[idx[i]]`. All indices must be in
    /// bounds of `src`.
    Gather {
        src: &'a [u64],
        idx: &'a [u64],
        out: &'a mut [u64],
    },
    /// [`KernelIo::Gather`] from a 32-bit column, on the
    /// [`Family::Gather`] grid: `out[i] = src[idx[i]]` zero-extended, or
    /// with no `idx` the widening copy `out[i] = src[i]` of
    /// `src[..out.len()]`. All indices must be in bounds of `src`.
    GatherU32 {
        src: &'a [u32],
        idx: Option<&'a [u64]>,
        out: &'a mut [u64],
    },
    /// Fused dense join probe, on the [`Family::Gather`] grid: keeps, in
    /// place and in order, the rows of `sel` whose key (`keys[i]` is row
    /// `sel[i]`'s) has a payload `p` in `index`, and sets their group id to
    /// `gids[i] + p · stride`. `gids` is empty for the first dimension
    /// (incoming ids 0) or one id per row of `sel` (see
    /// [`dense::body_probe`]).
    DenseProbe {
        keys: &'a [u64],
        index: &'a DenseIndex,
        stride: u64,
        sel: &'a mut Vec<u64>,
        gids: &'a mut Vec<u64>,
    },
    /// Compressed decode: `out[j] = dict[code]` or `code + reference` for
    /// the `width`-bit code at element `start + j` of the packed stream, or
    /// at element `start + pos[j]` when `pos` is given (decode of a
    /// selection; `pos.len()` must equal `out.len()`). `words` must include
    /// the one-word straddle pad past the last decoded element
    /// ([`decode::words_needed`]) — the SIMD statements gather unchecked, so
    /// callers must bound `pos` first; `dict`, when present, must hold at
    /// least `1 << width` entries so any code gathers in bounds.
    Decode {
        words: &'a [u64],
        width: u32,
        reference: u64,
        dict: Option<&'a [u64]>,
        start: usize,
        pos: Option<&'a [u64]>,
        out: &'a mut [u64],
    },
}

/// A type-erased kernel entry point.
///
/// # Safety
///
/// The required ISA extension of the entry's backend must be available on
/// the executing CPU (see [`GridEntry`]); the `KernelIo` variant must match
/// the family the entry belongs to.
pub type KernelFn = unsafe fn(&mut KernelIo<'_>);

/// Grid axes the build script instantiates (and therefore the optimizer may
/// search). Values outside these axes have no compiled kernel.
pub const V_AXIS: &[usize] = &[0, 1, 2, 4, 8];
/// See [`V_AXIS`].
pub const S_AXIS: &[usize] = &[0, 1, 2, 3, 4];
/// See [`V_AXIS`].
pub const P_AXIS: &[usize] = &[1, 2, 3, 4];

/// Iterate every valid grid configuration.
pub fn all_configs() -> impl Iterator<Item = HybridConfig> {
    V_AXIS.iter().flat_map(|&v| {
        S_AXIS.iter().flat_map(move |&s| {
            P_AXIS
                .iter()
                .filter(move |_| v + s >= 1)
                .map(move |&p| HybridConfig { v, s, p })
        })
    })
}

/// Run a kernel safely: picks the entry for `(family, cfg)` and the best
/// available backend, verifies availability, and invokes it.
///
/// Returns `false` when the configuration is not part of the compiled grid.
pub fn run(family: Family, cfg: HybridConfig, io: &mut KernelIo<'_>) -> bool {
    run_on(family, cfg, Backend::native(), io)
}

/// [`run`], but on an explicit backend (panics if unavailable on this CPU).
pub fn run_on(family: Family, cfg: HybridConfig, backend: Backend, io: &mut KernelIo<'_>) -> bool {
    match Kernel::resolve(family, cfg, backend) {
        Some(k) => {
            k.run(io);
            true
        }
        None => false,
    }
}

/// A grid entry resolved once for one backend: what a hot loop holds so
/// each call skips the grid lookup [`run_on`] repeats.
#[derive(Clone, Copy)]
pub struct Kernel {
    f: KernelFn,
}

impl Kernel {
    /// The kernel for `(family, cfg)` on `backend`; `None` when `cfg` is not
    /// a compiled grid point. Panics if `backend` is unavailable on this CPU.
    pub fn resolve(family: Family, cfg: HybridConfig, backend: Backend) -> Option<Kernel> {
        assert!(
            backend.is_available(),
            "backend {} not available on this CPU",
            backend.name()
        );
        kernel_for(family, cfg, backend).map(|f| Kernel { f })
    }

    /// Invoke the kernel. Panics if `io` is not its family's variant.
    #[inline]
    pub fn run(&self, io: &mut KernelIo<'_>) {
        // SAFETY: `resolve` checked the backend is available; the io variant
        // is checked again (with a panic) inside the kernel body.
        unsafe { (self.f)(io) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_step_counts_elements() {
        assert_eq!(HybridConfig::new(1, 3, 2).step(), 2 * (8 + 3));
        assert_eq!(HybridConfig::SCALAR.step(), 1);
        assert_eq!(HybridConfig::SIMD.step(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one statement")]
    fn config_rejects_empty() {
        HybridConfig::new(0, 0, 2);
    }

    #[test]
    fn all_configs_excludes_empty_and_counts() {
        let cfgs: Vec<_> = all_configs().collect();
        assert!(cfgs.iter().all(|c| c.v + c.s >= 1 && c.p >= 1));
        // |V|*|S|*|P| minus the (0,0,p) column.
        assert_eq!(
            cfgs.len(),
            V_AXIS.len() * S_AXIS.len() * P_AXIS.len() - P_AXIS.len()
        );
        // The paper's optima are all on the grid.
        for (v, s, p) in [(1, 1, 3), (1, 3, 2), (8, 0, 1)] {
            assert!(cfgs.contains(&HybridConfig { v, s, p }), "({v},{s},{p})");
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        // The paper writes nodes as n_{vsp}, e.g. n132.
        assert_eq!(HybridConfig::new(1, 3, 2).to_string(), "n132");
    }
}
