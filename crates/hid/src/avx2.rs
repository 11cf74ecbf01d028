//! AVX2 backend: eight `u64` lanes as a pair of `__m256i` halves — the
//! AVX2 column of the paper's Table I.
//!
//! AVX2 predates several of the instructions HEF leans on, so this backend
//! also documents how the hybrid intermediate description preserves
//! interface consistency on weaker ISAs (§III.B: "in the case that the
//! processor does not support the specific SIMD instruction, we use
//! multiple scalar instructions or a combination of other SIMD instructions
//! to achieve the purpose of interface consistency"):
//!
//! * `mullo` (`vpmullq` is AVX-512DQ): synthesized from three 32×32→64
//!   multiplies (`vpmuludq`) plus shifts/adds;
//! * mask ops (`vpcmpq`/`vpblendmq` are AVX-512): compares produce vector
//!   masks that are reduced with `vmovmskpd`, and blends re-expand the bit
//!   mask through a 16-entry lane-mask table;
//! * `minu` (`vpminuq` is AVX-512F): a sign-biased `vpcmpgtq` and a blend;
//! * `compress_storeu` (`vpcompressq` is AVX-512F): a scalar loop that
//!   writes only the selected lanes.
//!
//! Requirement: AVX2 (runtime-checked via [`crate::avx2_available`]).

#![allow(clippy::missing_safety_doc)] // contract is centralized on the trait

use core::arch::x86_64::*;

use crate::ops::{CmpOp, Simd64};

/// The AVX2 backend marker type.
#[derive(Debug, Clone, Copy)]
pub struct Avx2;

/// 4-bit mask → per-lane all-ones/all-zeros expansion table.
static LANE_MASKS: [[u64; 4]; 16] = {
    let mut t = [[0u64; 4]; 16];
    let mut m = 0;
    while m < 16 {
        let mut lane = 0;
        while lane < 4 {
            if m & (1 << lane) != 0 {
                t[m][lane] = u64::MAX;
            }
            lane += 1;
        }
        m += 1;
    }
    t
};

#[inline(always)]
unsafe fn mask_vec(m: u8) -> __m256i {
    _mm256_loadu_si256(LANE_MASKS[(m & 0xf) as usize].as_ptr() as *const __m256i)
}

#[inline(always)]
unsafe fn movemask(v: __m256i) -> u8 {
    _mm256_movemask_pd(_mm256_castsi256_pd(v)) as u8
}

/// `a * b` per 64-bit lane from 32-bit multiplies (vpmuludq).
#[inline(always)]
unsafe fn mullo64(a: __m256i, b: __m256i) -> __m256i {
    let lo = _mm256_mul_epu32(a, b);
    let a_hi = _mm256_srli_epi64::<32>(a);
    let b_hi = _mm256_srli_epi64::<32>(b);
    let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
    _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
}

/// Unsigned 64-bit minimum: flip the sign bits so the signed `vpcmpgtq`
/// orders unsigned values, then blend.
#[inline(always)]
unsafe fn minu64(a: __m256i, b: __m256i) -> __m256i {
    let bias = _mm256_set1_epi64x(i64::MIN);
    let a_gt_b = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias));
    _mm256_blendv_epi8(a, b, a_gt_b)
}

#[inline(always)]
unsafe fn cmp_half(op: CmpOp, a: __m256i, b: __m256i) -> u8 {
    match op {
        CmpOp::Eq => movemask(_mm256_cmpeq_epi64(a, b)),
        CmpOp::Ne => !movemask(_mm256_cmpeq_epi64(a, b)) & 0xf,
        CmpOp::Gt => movemask(_mm256_cmpgt_epi64(a, b)),
        CmpOp::Lt => movemask(_mm256_cmpgt_epi64(b, a)),
        CmpOp::Ge => !movemask(_mm256_cmpgt_epi64(b, a)) & 0xf,
        CmpOp::Le => !movemask(_mm256_cmpgt_epi64(a, b)) & 0xf,
    }
}

macro_rules! lanewise {
    ($name:ident, $intr:ident) => {
        #[inline(always)]
        unsafe fn $name(a: (__m256i, __m256i), b: (__m256i, __m256i)) -> (__m256i, __m256i) {
            ($intr(a.0, b.0), $intr(a.1, b.1))
        }
    };
}

impl Simd64 for Avx2 {
    type V = (__m256i, __m256i);

    const BACKEND: crate::Backend = crate::Backend::Avx2;

    #[inline(always)]
    unsafe fn splat(x: u64) -> Self::V {
        let v = _mm256_set1_epi64x(x as i64);
        (v, v)
    }

    #[inline(always)]
    unsafe fn loadu(ptr: *const u64) -> Self::V {
        (
            _mm256_loadu_si256(ptr as *const __m256i),
            _mm256_loadu_si256(ptr.add(4) as *const __m256i),
        )
    }

    #[inline(always)]
    unsafe fn loadu_u32(ptr: *const u32) -> Self::V {
        (
            _mm256_cvtepu32_epi64(_mm_loadu_si128(ptr as *const __m128i)),
            _mm256_cvtepu32_epi64(_mm_loadu_si128(ptr.add(4) as *const __m128i)),
        )
    }

    #[inline(always)]
    unsafe fn storeu(ptr: *mut u64, v: Self::V) {
        _mm256_storeu_si256(ptr as *mut __m256i, v.0);
        _mm256_storeu_si256(ptr.add(4) as *mut __m256i, v.1);
    }

    lanewise!(add, _mm256_add_epi64);
    lanewise!(sub, _mm256_sub_epi64);
    lanewise!(and, _mm256_and_si256);
    lanewise!(or, _mm256_or_si256);
    lanewise!(xor, _mm256_xor_si256);

    #[inline(always)]
    unsafe fn mullo(a: Self::V, b: Self::V) -> Self::V {
        (mullo64(a.0, b.0), mullo64(a.1, b.1))
    }

    #[inline(always)]
    unsafe fn minu(a: Self::V, b: Self::V) -> Self::V {
        (minu64(a.0, b.0), minu64(a.1, b.1))
    }

    #[inline(always)]
    unsafe fn srli<const K: u32>(a: Self::V) -> Self::V {
        // The AVX2 immediate forms take an `i32` const generic, which a
        // `u32` parameter cannot instantiate on stable Rust; the xmm-count
        // forms (`vpsrlq ymm, xmm`) are equivalent and fold the constant.
        let count = _mm_cvtsi32_si128(K as i32);
        (_mm256_srl_epi64(a.0, count), _mm256_srl_epi64(a.1, count))
    }

    #[inline(always)]
    unsafe fn slli<const K: u32>(a: Self::V) -> Self::V {
        let count = _mm_cvtsi32_si128(K as i32);
        (_mm256_sll_epi64(a.0, count), _mm256_sll_epi64(a.1, count))
    }

    #[inline(always)]
    unsafe fn sllv(a: Self::V, count: Self::V) -> Self::V {
        (_mm256_sllv_epi64(a.0, count.0), _mm256_sllv_epi64(a.1, count.1))
    }

    #[inline(always)]
    unsafe fn srlv(a: Self::V, count: Self::V) -> Self::V {
        (_mm256_srlv_epi64(a.0, count.0), _mm256_srlv_epi64(a.1, count.1))
    }

    #[inline(always)]
    unsafe fn gather(base: *const u64, idx: Self::V) -> Self::V {
        (
            _mm256_i64gather_epi64::<8>(base as *const i64, idx.0),
            _mm256_i64gather_epi64::<8>(base as *const i64, idx.1),
        )
    }

    #[inline(always)]
    unsafe fn gather_u32(base: *const u32, idx: Self::V) -> Self::V {
        (
            _mm256_cvtepu32_epi64(_mm256_i64gather_epi32::<4>(base as *const i32, idx.0)),
            _mm256_cvtepu32_epi64(_mm256_i64gather_epi32::<4>(base as *const i32, idx.1)),
        )
    }

    #[inline(always)]
    unsafe fn cmp(op: CmpOp, a: Self::V, b: Self::V) -> u8 {
        cmp_half(op, a.0, b.0) | (cmp_half(op, a.1, b.1) << 4)
    }

    #[inline(always)]
    unsafe fn blend(mask: u8, a: Self::V, b: Self::V) -> Self::V {
        (
            _mm256_blendv_epi8(a.0, b.0, mask_vec(mask)),
            _mm256_blendv_epi8(a.1, b.1, mask_vec(mask >> 4)),
        )
    }

    #[inline(always)]
    unsafe fn compress_storeu(ptr: *mut u64, mask: u8, v: Self::V) -> usize {
        // No vpcompressq before AVX-512F: scalar compress.
        let arr = Self::to_array(v);
        let mut k = 0usize;
        for (i, &lane) in arr.iter().enumerate() {
            if mask & (1 << i) != 0 {
                *ptr.add(k) = lane;
                k += 1;
            }
        }
        k
    }

    #[inline(always)]
    unsafe fn to_array(v: Self::V) -> [u64; 8] {
        core::mem::transmute(v)
    }

    #[inline(always)]
    unsafe fn from_array(a: [u64; 8]) -> Self::V {
        core::mem::transmute(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Emu;

    fn with_avx2(f: impl FnOnce()) {
        if crate::avx2_available() {
            f();
        }
    }

    #[test]
    fn synthesized_mullo_matches_emu() {
        with_avx2(|| unsafe {
            let xs: [u64; 8] =
                core::array::from_fn(|i| (i as u64 + 1).wrapping_mul(0xc6a4_a793_5bd1_e995));
            let ys: [u64; 8] = core::array::from_fn(|i| (i as u64).wrapping_mul(0x1234_5678_9abc));
            let a2 = Avx2::mullo(Avx2::from_array(xs), Avx2::from_array(ys));
            assert_eq!(Avx2::to_array(a2), Emu::mullo(xs, ys));
        });
    }

    #[test]
    fn cmp_blend_compress_match_emu() {
        with_avx2(|| unsafe {
            let a: [u64; 8] = [5, 1, u64::MAX, 5, 0, 9, 5, 2]; // MAX = -1 signed
            let b: [u64; 8] = [5; 8];
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Ge, CmpOp::Gt] {
                assert_eq!(
                    Avx2::cmp(op, Avx2::from_array(a), Avx2::from_array(b)),
                    Emu::cmp(op, a, b),
                    "{op:?}"
                );
            }
            let m = 0b1010_0110u8;
            let blended =
                Avx2::blend(m, Avx2::from_array(a), Avx2::from_array(b));
            assert_eq!(Avx2::to_array(blended), Emu::blend(m, a, b));

            let mut o1 = [0u64; 8];
            let mut o2 = [0u64; 8];
            let n1 = Avx2::compress_storeu(o1.as_mut_ptr(), m, Avx2::from_array(a));
            let n2 = Emu::compress_storeu(o2.as_mut_ptr(), m, a);
            assert_eq!((n1, o1), (n2, o2));
        });
    }

    /// The scalar compress loop writes only the selected lanes.
    #[test]
    fn compress_store_writes_only_selected_lanes() {
        with_avx2(|| unsafe {
            let a: [u64; 8] = core::array::from_fn(|i| i as u64);
            for m in [0u8, 1, 0b1000_0000, 0b0110_0101, 0xff] {
                let mut out = [u64::MAX; 8];
                let n = Avx2::compress_storeu(out.as_mut_ptr(), m, Avx2::from_array(a));
                assert_eq!(n, m.count_ones() as usize);
                assert!(out[n..].iter().all(|&x| x == u64::MAX), "mask {m:#b} wrote past n");
            }
        });
    }

    #[test]
    fn synthesized_unsigned_min_matches_emu() {
        with_avx2(|| unsafe {
            let a: [u64; 8] = [0, 5, u64::MAX, 1 << 63, 7, (1 << 63) - 1, 3, u64::MAX - 1];
            for b in [6u64, 0, u64::MAX, 1 << 63, (1 << 63) - 1] {
                let b = [b; 8];
                let got = Avx2::minu(Avx2::from_array(a), Avx2::from_array(b));
                assert_eq!(Avx2::to_array(got), Emu::minu(a, b));
            }
        });
    }

    #[test]
    fn gather_and_shifts_match_emu() {
        with_avx2(|| unsafe {
            let table: Vec<u64> = (0..256).map(|x| x * 31 + 7).collect();
            let idx: [u64; 8] = [0, 255, 13, 99, 1, 2, 200, 64];
            assert_eq!(
                Avx2::to_array(Avx2::gather(table.as_ptr(), Avx2::from_array(idx))),
                Emu::gather(table.as_ptr(), idx)
            );
            let x: [u64; 8] = core::array::from_fn(|i| 0xdead_beef_cafe_f00d >> i);
            assert_eq!(
                Avx2::to_array(Avx2::srli::<17>(Avx2::from_array(x))),
                Emu::srli::<17>(x)
            );
            let counts: [u64; 8] = [0, 1, 31, 63, 64, 70, 5, 33];
            assert_eq!(
                Avx2::to_array(Avx2::sllv(Avx2::from_array(x), Avx2::from_array(counts))),
                Emu::sllv(x, counts)
            );
        });
    }
}
