//! # hef-hid — Hybrid Intermediate Description
//!
//! The *hybrid intermediate description* (HID) is the abstraction layer of the
//! Hybrid Execution Framework (HEF) from "Co-Utilizing SIMD and Scalar to
//! Accelerate the Data Analytics Workloads" (ICDE 2023), §III.B. It plays two
//! roles:
//!
//! 1. **An executable op layer** ([`Simd64`]): a portable set of 64-bit-lane
//!    vector operations with two backends — [`Avx512`] (real
//!    AVX-512F/AVX-512DQ intrinsics, x86-64 only, selected by runtime
//!    detection) and [`Emu`] (a plain-array emulation that compiles
//!    everywhere and is used for differential testing). Hybrid kernels in
//!    `hef-kernels` are written once, generically over this trait, mirroring
//!    how the paper writes operator templates once in HID and lowers them to
//!    scalar or SIMD statements.
//! 2. **A description table** ([`desc`]): the data tables of the paper's
//!    Table I/II mapping each HID op to its scalar statement template and its
//!    AVX2/AVX-512 mnemonics. The HEF translator consumes these to emit
//!    target-code listings, and `hef-uarch` consumes them to build µop traces.
//!
//! ## Safety model
//!
//! All backend operations are `unsafe fn`s with a uniform contract: the
//! caller must guarantee the backend's ISA extension is available on the
//! executing CPU ([`Emu`] has no requirement; [`Avx512`] requires
//! AVX-512F + AVX-512DQ) and that pointer arguments obey the usual
//! validity rules stated on each method. Safe entry points live one level up:
//! dispatchers check [`avx512_available`] before entering an
//! `#[target_feature]` region.

pub mod desc;
pub mod emu;
pub mod ops;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;

pub use emu::Emu;
pub use ops::{CmpOp, Simd64};

#[cfg(target_arch = "x86_64")]
pub use avx2::Avx2;
#[cfg(target_arch = "x86_64")]
pub use avx512::Avx512;

/// Number of 64-bit lanes in every HID vector value.
///
/// HEF targets AVX-512 in the paper's evaluation; the emulation backend uses
/// the same width so that kernels tuned against one backend are
/// element-for-element comparable against the other.
pub const LANES: usize = 8;

/// Returns `true` when the executing CPU supports the AVX-512 subset the
/// [`Avx512`] backend needs (AVX-512F for the 512-bit integer ops and
/// AVX-512DQ for `vpmullq`).
#[inline]
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Returns `true` when the executing CPU supports AVX2 (for the [`Avx2`]
/// backend).
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// An optimization barrier that forces `x` through a scalar general-purpose
/// register.
///
/// HEF's scalar statements must stay scalar: the paper compiles with
/// `-fno-tree-vectorize` so GCC cannot re-vectorize them. Our hybrid kernels
/// are compiled inside `#[target_feature(enable = "avx512f,...")]` regions,
/// where LLVM would otherwise happily auto-vectorize the scalar statement
/// loops and collapse the hybrid back into pure SIMD. Routing each scalar
/// value through an empty inline-`asm` register constraint pins it to the
/// scalar pipeline with zero runtime cost.
#[inline(always)]
pub fn opaque64(x: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let mut y = x;
        // SAFETY: empty template; the only effect is the register constraint.
        unsafe {
            core::arch::asm!("/* {0} */", inout(reg) y, options(pure, nomem, nostack, preserves_flags));
        }
        y
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        core::hint::black_box(x)
    }
}

/// The executable backends a kernel grid is instantiated for.
///
/// This is the runtime tag matching the type-level backends; dispatch tables
/// in `hef-kernels` are keyed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable array emulation ([`Emu`]). Always available.
    Emu,
    /// AVX2 intrinsics ([`Avx2`], 2×256-bit halves). Requires
    /// [`avx2_available`].
    Avx2,
    /// AVX-512F/DQ intrinsics ([`Avx512`]). Requires [`avx512_available`].
    Avx512,
}

impl Backend {
    /// The preferred backend for the executing CPU: AVX-512 when available,
    /// otherwise the emulation backend.
    #[inline]
    pub fn native() -> Backend {
        if avx512_available() {
            Backend::Avx512
        } else if avx2_available() {
            Backend::Avx2
        } else {
            Backend::Emu
        }
    }

    /// Whether this backend can run on the executing CPU.
    #[inline]
    pub fn is_available(self) -> bool {
        match self {
            Backend::Emu => true,
            Backend::Avx2 => avx2_available(),
            Backend::Avx512 => avx512_available(),
        }
    }

    /// Short human-readable name used in reports and dispatch keys.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Emu => "emu",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_backend_is_available() {
        assert!(Backend::native().is_available());
    }

    #[test]
    fn emu_always_available() {
        assert!(Backend::Emu.is_available());
    }

    #[test]
    fn backend_names_are_distinct() {
        assert_ne!(Backend::Emu.name(), Backend::Avx512.name());
    }
}
