//! The [`Simd64`] trait: the executable form of the hybrid intermediate
//! description over 64-bit integer lanes.
//!
//! Each method corresponds to one HID op from the paper's Table I (plus the
//! mask/compress ops the SSB operators need). Hybrid kernels are written
//! generically over this trait, then monomorphized per backend and wrapped in
//! `#[target_feature]` shims by `hef-kernels`.

/// Comparison predicates usable with [`Simd64::cmp`].
///
/// These mirror the `_MM_CMPINT_*` immediates of `_mm512_cmp_epi64_mask`;
/// comparisons are **signed** 64-bit, matching how SSB attributes (years,
/// quantities, discounts) are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `a == b`
    Eq,
    /// `a < b` (signed)
    Lt,
    /// `a <= b` (signed)
    Le,
    /// `a != b`
    Ne,
    /// `a >= b` (signed)
    Ge,
    /// `a > b` (signed)
    Gt,
}

/// A SIMD backend over eight 64-bit lanes.
///
/// # Safety contract (applies to every method)
///
/// The caller must ensure the backend's ISA requirement holds on the
/// executing CPU ([`crate::Emu`]: none; [`crate::Avx512`]: AVX-512F +
/// AVX-512DQ detected). Methods taking raw pointers additionally require the
/// pointed-to ranges to be valid for the stated number of `u64` elements; no
/// alignment beyond `u64`'s is required (all memory ops are unaligned forms).
///
/// Arithmetic is wrapping, matching both the x86 SIMD semantics and the
/// scalar statements HEF generates (the paper's kernels are hash functions
/// that rely on wraparound).
#[allow(clippy::missing_safety_doc)] // contract centralized in the trait docs above
pub trait Simd64: Copy + 'static {
    /// The 512-bit vector value (eight `u64` lanes).
    type V: Copy;

    /// Runtime tag for this backend.
    const BACKEND: crate::Backend;

    /// Broadcast a scalar to all lanes (`vpbroadcastq`).
    unsafe fn splat(x: u64) -> Self::V;

    /// Unaligned load of 8 consecutive lanes (`vmovdqu64`).
    ///
    /// `ptr` must be valid for reads of 8 `u64`s.
    unsafe fn loadu(ptr: *const u64) -> Self::V;

    /// Unaligned load of 8 consecutive `u32`s, each zero-extended to its
    /// 64-bit lane (`vpmovzxdq`): how a 32-bit column enters the `u64`
    /// lanes every kernel computes in.
    ///
    /// `ptr` must be valid for reads of 8 `u32`s.
    unsafe fn loadu_u32(ptr: *const u32) -> Self::V;

    /// Unaligned store of 8 consecutive lanes (`vmovdqu64`).
    ///
    /// `ptr` must be valid for writes of 8 `u64`s.
    unsafe fn storeu(ptr: *mut u64, v: Self::V);

    /// Lane-wise wrapping addition (`vpaddq`).
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;

    /// Lane-wise wrapping subtraction (`vpsubq`).
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;

    /// Lane-wise wrapping low-64 multiplication (`vpmullq`, AVX-512DQ).
    unsafe fn mullo(a: Self::V, b: Self::V) -> Self::V;

    /// Lane-wise unsigned minimum (`vpminuq`, AVX-512F).
    unsafe fn minu(a: Self::V, b: Self::V) -> Self::V;

    /// Lane-wise bitwise AND (`vpandq`).
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V;

    /// Lane-wise bitwise OR (`vporq`).
    unsafe fn or(a: Self::V, b: Self::V) -> Self::V;

    /// Lane-wise bitwise XOR (`vpxorq`).
    unsafe fn xor(a: Self::V, b: Self::V) -> Self::V;

    /// Lane-wise logical right shift by an immediate (`vpsrlq imm`).
    ///
    /// `K` must be < 64.
    unsafe fn srli<const K: u32>(a: Self::V) -> Self::V;

    /// Lane-wise logical left shift by an immediate (`vpsllq imm`).
    ///
    /// `K` must be < 64.
    unsafe fn slli<const K: u32>(a: Self::V) -> Self::V;

    /// Lane-wise variable logical left shift (`vpsllvq`): lane `i` shifts
    /// by `count[i]`; counts ≥ 64 produce 0 (x86 semantics).
    unsafe fn sllv(a: Self::V, count: Self::V) -> Self::V;

    /// Lane-wise variable logical right shift (`vpsrlvq`); counts ≥ 64
    /// produce 0.
    unsafe fn srlv(a: Self::V, count: Self::V) -> Self::V;

    /// Gather 8 lanes from `base[idx[i]]` (`vpgatherqq`, scale 8).
    ///
    /// Every lane of `idx` must be a valid index into the allocation starting
    /// at `base` (i.e. `base + idx[i]` readable as `u64` for all lanes).
    unsafe fn gather(base: *const u64, idx: Self::V) -> Self::V;

    /// Gather 8 `u32`s from `base[idx[i]]`, each zero-extended to its
    /// 64-bit lane (`vpgatherqd`, scale 4, then `vpmovzxdq`): 64-bit
    /// indices, 32-bit values.
    ///
    /// Every lane of `idx` must be a valid index into the allocation
    /// starting at `base` (`base + idx[i]` readable as `u32`); the gather
    /// reads exactly 4 bytes per lane, so the last element is a valid
    /// index.
    unsafe fn gather_u32(base: *const u32, idx: Self::V) -> Self::V;

    /// Lane-wise compare producing an 8-bit mask (`vpcmpq`), bit `i` set when
    /// the predicate holds for lane `i`. Signed comparison.
    unsafe fn cmp(op: CmpOp, a: Self::V, b: Self::V) -> u8;

    /// Mask blend: lane `i` of the result is `b[i]` when mask bit `i` is set,
    /// else `a[i]` (`vpblendmq`).
    unsafe fn blend(mask: u8, a: Self::V, b: Self::V) -> Self::V;

    /// Contiguously store the lanes selected by `mask` to `ptr`
    /// (`vpcompressq` into a register, then one full-width store). Returns
    /// the number of selected lanes, `mask.count_ones()`.
    ///
    /// `ptr` must be valid for writes of **8** `u64`s, whatever the mask:
    /// a backend may store the whole compressed register, so the 8 − n
    /// lanes past the selected ones may be overwritten with unspecified
    /// values. Callers keep 8 lanes of slack past their write cursor (or
    /// compact in place with the cursor trailing loads already made).
    unsafe fn compress_storeu(ptr: *mut u64, mask: u8, v: Self::V) -> usize;

    /// Extract the lanes to an array (for tests, tails, and scalar
    /// fallbacks; not intended for hot loops).
    unsafe fn to_array(v: Self::V) -> [u64; 8];

    /// Build a vector from an array.
    unsafe fn from_array(a: [u64; 8]) -> Self::V;

    /// Convenience: lane-wise equality mask against another vector.
    #[inline(always)]
    unsafe fn cmpeq(a: Self::V, b: Self::V) -> u8 {
        Self::cmp(CmpOp::Eq, a, b)
    }
}

/// Scalar reference semantics for [`CmpOp`], shared by the emulation backend
/// and by tests that cross-check the AVX-512 backend.
#[inline(always)]
pub fn cmp_scalar(op: CmpOp, a: u64, b: u64) -> bool {
    let (sa, sb) = (a as i64, b as i64);
    match op {
        CmpOp::Eq => sa == sb,
        CmpOp::Lt => sa < sb,
        CmpOp::Le => sa <= sb,
        CmpOp::Ne => sa != sb,
        CmpOp::Ge => sa >= sb,
        CmpOp::Gt => sa > sb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The widening load and the 64-bit-index/32-bit-value gather on
    /// backend `B` agree with the emulation: values with the top bit set
    /// zero-extend, every load offset reads its 8 values, and a gather may
    /// name the slice's last element.
    unsafe fn u32_ops_match_emu<B: Simd64>() {
        use crate::Emu;
        let src: Vec<u32> = (0..37u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9) | (i & 1) << 31)
            .collect();
        let last = src.len() as u64 - 1;
        for at in 0..=src.len() - 8 {
            let p = src.as_ptr().add(at);
            let want = Emu::loadu_u32(p);
            assert_eq!(
                B::to_array(B::loadu_u32(p)),
                want,
                "{} load at {at}",
                B::BACKEND.name()
            );
            assert_eq!(
                want.to_vec(),
                src[at..at + 8]
                    .iter()
                    .map(|&v| u64::from(v))
                    .collect::<Vec<_>>()
            );
        }
        for idx in [
            [last, 0, 1, last, 17, 36, 5, 2],
            [0; 8],
            [last; 8],
            core::array::from_fn(|i| i as u64 * 5),
        ] {
            let want = Emu::gather_u32(src.as_ptr(), idx);
            let got = B::to_array(B::gather_u32(src.as_ptr(), B::from_array(idx)));
            assert_eq!(got, want, "{} gather {idx:?}", B::BACKEND.name());
            assert!(want
                .iter()
                .zip(idx)
                .all(|(&w, i)| w == u64::from(src[i as usize])));
        }
    }

    #[test]
    fn u32_ops_match_emu_on_every_backend() {
        unsafe {
            u32_ops_match_emu::<crate::Emu>();
            #[cfg(target_arch = "x86_64")]
            {
                if crate::avx2_available() {
                    u32_ops_match_emu::<crate::Avx2>();
                }
                if crate::avx512_available() {
                    u32_ops_match_emu::<crate::Avx512>();
                }
            }
        }
    }

    #[test]
    fn cmp_scalar_is_signed() {
        // -1 (as u64::MAX) must compare below 0 under signed semantics.
        assert!(cmp_scalar(CmpOp::Lt, u64::MAX, 0));
        assert!(!cmp_scalar(CmpOp::Gt, u64::MAX, 0));
        assert!(cmp_scalar(CmpOp::Ge, 5, 5));
        assert!(cmp_scalar(CmpOp::Le, 4, 5));
        assert!(cmp_scalar(CmpOp::Ne, 4, 5));
        assert!(cmp_scalar(CmpOp::Eq, 7, 7));
    }
}
