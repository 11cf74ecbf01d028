//! AVX-512 backend: eight `u64` lanes in a `__m512i`, lowered to the
//! instructions named in the paper's Table I (`vpaddq`, `vpmullq`,
//! `vmovdqu64`, `vpgatherqq`, …).
//!
//! Every method requires AVX-512F, and [`Simd64::mullo`] additionally
//! requires AVX-512DQ (`vpmullq`). Callers discharge the requirement through
//! [`crate::avx512_available`] before entering a `#[target_feature]` region;
//! the methods here are `#[inline(always)]` so they fold into such regions
//! and compile to single instructions.

#![allow(clippy::missing_safety_doc)] // contract is centralized on the trait

use core::arch::x86_64::*;

use crate::ops::{CmpOp, Simd64};

/// The AVX-512F/DQ backend marker type.
#[derive(Debug, Clone, Copy)]
pub struct Avx512;

impl Simd64 for Avx512 {
    type V = __m512i;

    const BACKEND: crate::Backend = crate::Backend::Avx512;

    #[inline(always)]
    unsafe fn splat(x: u64) -> __m512i {
        _mm512_set1_epi64(x as i64)
    }

    #[inline(always)]
    unsafe fn loadu(ptr: *const u64) -> __m512i {
        _mm512_loadu_si512(ptr as *const __m512i)
    }

    #[inline(always)]
    unsafe fn loadu_u32(ptr: *const u32) -> __m512i {
        _mm512_cvtepu32_epi64(_mm256_loadu_si256(ptr as *const __m256i))
    }

    #[inline(always)]
    unsafe fn storeu(ptr: *mut u64, v: __m512i) {
        _mm512_storeu_si512(ptr as *mut __m512i, v)
    }

    #[inline(always)]
    unsafe fn add(a: __m512i, b: __m512i) -> __m512i {
        _mm512_add_epi64(a, b)
    }

    #[inline(always)]
    unsafe fn sub(a: __m512i, b: __m512i) -> __m512i {
        _mm512_sub_epi64(a, b)
    }

    #[inline(always)]
    unsafe fn mullo(a: __m512i, b: __m512i) -> __m512i {
        _mm512_mullo_epi64(a, b)
    }

    #[inline(always)]
    unsafe fn minu(a: __m512i, b: __m512i) -> __m512i {
        _mm512_min_epu64(a, b)
    }

    #[inline(always)]
    unsafe fn and(a: __m512i, b: __m512i) -> __m512i {
        _mm512_and_si512(a, b)
    }

    #[inline(always)]
    unsafe fn or(a: __m512i, b: __m512i) -> __m512i {
        _mm512_or_si512(a, b)
    }

    #[inline(always)]
    unsafe fn xor(a: __m512i, b: __m512i) -> __m512i {
        _mm512_xor_si512(a, b)
    }

    #[inline(always)]
    unsafe fn srli<const K: u32>(a: __m512i) -> __m512i {
        _mm512_srli_epi64::<K>(a)
    }

    #[inline(always)]
    unsafe fn slli<const K: u32>(a: __m512i) -> __m512i {
        _mm512_slli_epi64::<K>(a)
    }

    #[inline(always)]
    unsafe fn sllv(a: __m512i, count: __m512i) -> __m512i {
        _mm512_sllv_epi64(a, count)
    }

    #[inline(always)]
    unsafe fn srlv(a: __m512i, count: __m512i) -> __m512i {
        _mm512_srlv_epi64(a, count)
    }

    #[inline(always)]
    unsafe fn gather(base: *const u64, idx: __m512i) -> __m512i {
        _mm512_i64gather_epi64::<8>(idx, base as *const i64)
    }

    #[inline(always)]
    unsafe fn gather_u32(base: *const u32, idx: __m512i) -> __m512i {
        _mm512_cvtepu32_epi64(_mm512_i64gather_epi32::<4>(idx, base as *const i32))
    }

    #[inline(always)]
    unsafe fn cmp(op: CmpOp, a: __m512i, b: __m512i) -> u8 {
        match op {
            CmpOp::Eq => _mm512_cmp_epi64_mask::<_MM_CMPINT_EQ>(a, b),
            CmpOp::Lt => _mm512_cmp_epi64_mask::<_MM_CMPINT_LT>(a, b),
            CmpOp::Le => _mm512_cmp_epi64_mask::<_MM_CMPINT_LE>(a, b),
            CmpOp::Ne => _mm512_cmp_epi64_mask::<_MM_CMPINT_NE>(a, b),
            CmpOp::Ge => _mm512_cmp_epi64_mask::<_MM_CMPINT_NLT>(a, b),
            CmpOp::Gt => _mm512_cmp_epi64_mask::<_MM_CMPINT_NLE>(a, b),
        }
    }

    #[inline(always)]
    unsafe fn blend(mask: u8, a: __m512i, b: __m512i) -> __m512i {
        _mm512_mask_blend_epi64(mask, a, b)
    }

    #[inline(always)]
    unsafe fn compress_storeu(ptr: *mut u64, mask: u8, v: __m512i) -> usize {
        // vpcompressq into a register, then one full-width store (the trait
        // contract gives 8 writable lanes); the memory form of vpcompressq
        // is far slower on current cores.
        _mm512_storeu_si512(ptr as *mut __m512i, _mm512_maskz_compress_epi64(mask, v));
        mask.count_ones() as usize
    }

    #[inline(always)]
    unsafe fn to_array(v: __m512i) -> [u64; 8] {
        core::mem::transmute(v)
    }

    #[inline(always)]
    unsafe fn from_array(a: [u64; 8]) -> __m512i {
        core::mem::transmute(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Emu;

    /// Run `f` only when the CPU supports the backend; every op is compared
    /// against the emulation backend elsewhere (see the differential tests in
    /// `tests/` of this crate) — these are basic smoke checks.
    fn with_avx512(f: impl FnOnce()) {
        if crate::avx512_available() {
            f();
        }
    }

    #[test]
    fn smoke_arithmetic_matches_emu() {
        with_avx512(|| unsafe {
            let xs: Vec<u64> = (0..8).map(|i| 0x9e3779b97f4a7c15u64.wrapping_mul(i + 1)).collect();
            let a = Avx512::loadu(xs.as_ptr());
            let b = Avx512::splat(0x2545f4914f6cdd1d);
            let ea = Emu::loadu(xs.as_ptr());
            let eb = Emu::splat(0x2545f4914f6cdd1d);
            assert_eq!(Avx512::to_array(Avx512::add(a, b)), Emu::add(ea, eb));
            assert_eq!(Avx512::to_array(Avx512::mullo(a, b)), Emu::mullo(ea, eb));
            assert_eq!(Avx512::to_array(Avx512::xor(a, b)), Emu::xor(ea, eb));
            assert_eq!(
                Avx512::to_array(Avx512::srli::<47>(a)),
                Emu::srli::<47>(ea)
            );
        });
    }

    #[test]
    fn smoke_gather_cmp_compress() {
        with_avx512(|| unsafe {
            let table: Vec<u64> = (0..64).map(|x| x * 3).collect();
            let idx = Avx512::from_array([1, 2, 63, 0, 7, 9, 11, 13]);
            let g = Avx512::to_array(Avx512::gather(table.as_ptr(), idx));
            assert_eq!(g, [3, 6, 189, 0, 21, 27, 33, 39]);

            let a = Avx512::from_array([5, 1, 5, 2, 5, 3, 5, 4]);
            let m = Avx512::cmpeq(a, Avx512::splat(5));
            assert_eq!(m, 0b0101_0101);

            let mut out = [0u64; 8];
            let n = Avx512::compress_storeu(out.as_mut_ptr(), m, a);
            assert_eq!(n, 4);
            assert_eq!(&out[..4], &[5; 4]);
        });
    }

    /// The full-width compress store leaves the selected lanes in order at
    /// the front of its 8 lanes, for every mask, and unsigned min agrees
    /// with the emulation.
    #[test]
    fn full_width_compress_and_unsigned_min_match_emu() {
        with_avx512(|| unsafe {
            let a: [u64; 8] = [0, 5, u64::MAX, 1 << 63, 7, (1 << 63) - 1, 3, u64::MAX - 1];
            for m in 0..=255u8 {
                let (mut got, mut want) = ([u64::MAX; 8], [u64::MAX; 8]);
                let n = Avx512::compress_storeu(got.as_mut_ptr(), m, Avx512::from_array(a));
                assert_eq!(n, Emu::compress_storeu(want.as_mut_ptr(), m, a));
                assert_eq!(got[..n], want[..n], "mask {m:#b}");
            }
            for b in [6u64, 0, u64::MAX, 1 << 63] {
                let got = Avx512::minu(Avx512::from_array(a), Avx512::splat(b));
                assert_eq!(Avx512::to_array(got), Emu::minu(a, [b; 8]));
            }
        });
    }
}
