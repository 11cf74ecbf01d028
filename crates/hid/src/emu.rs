//! Portable emulation backend: eight `u64` lanes in a plain array.
//!
//! This backend compiles on every architecture and defines the reference
//! semantics of every HID op. It is what the paper's Table I calls the
//! "Scalar" lowering of each HID op (`for(){ a_i = b_i + c_i }` etc.), and it
//! doubles as the differential-testing oracle for the AVX-512 backend.

use crate::ops::{cmp_scalar, CmpOp, Simd64};

/// The emulation backend marker type.
#[derive(Debug, Clone, Copy)]
pub struct Emu;

impl Simd64 for Emu {
    type V = [u64; 8];

    const BACKEND: crate::Backend = crate::Backend::Emu;

    #[inline(always)]
    unsafe fn splat(x: u64) -> [u64; 8] {
        [x; 8]
    }

    #[inline(always)]
    unsafe fn loadu(ptr: *const u64) -> [u64; 8] {
        core::ptr::read_unaligned(ptr as *const [u64; 8])
    }

    #[inline(always)]
    unsafe fn loadu_u32(ptr: *const u32) -> [u64; 8] {
        core::ptr::read_unaligned(ptr as *const [u32; 8]).map(u64::from)
    }

    #[inline(always)]
    unsafe fn storeu(ptr: *mut u64, v: [u64; 8]) {
        core::ptr::write_unaligned(ptr as *mut [u64; 8], v);
    }

    #[inline(always)]
    unsafe fn add(a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| a[i].wrapping_add(b[i]))
    }

    #[inline(always)]
    unsafe fn sub(a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| a[i].wrapping_sub(b[i]))
    }

    #[inline(always)]
    unsafe fn mullo(a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| a[i].wrapping_mul(b[i]))
    }

    #[inline(always)]
    unsafe fn minu(a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| a[i].min(b[i]))
    }

    #[inline(always)]
    unsafe fn and(a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| a[i] & b[i])
    }

    #[inline(always)]
    unsafe fn or(a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| a[i] | b[i])
    }

    #[inline(always)]
    unsafe fn xor(a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| a[i] ^ b[i])
    }

    #[inline(always)]
    unsafe fn srli<const K: u32>(a: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| a[i] >> K)
    }

    #[inline(always)]
    unsafe fn slli<const K: u32>(a: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| a[i] << K)
    }

    #[inline(always)]
    unsafe fn sllv(a: [u64; 8], count: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| if count[i] > 63 { 0 } else { a[i] << count[i] })
    }

    #[inline(always)]
    unsafe fn srlv(a: [u64; 8], count: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| if count[i] > 63 { 0 } else { a[i] >> count[i] })
    }

    #[inline(always)]
    unsafe fn gather(base: *const u64, idx: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| *base.add(idx[i] as usize))
    }

    #[inline(always)]
    unsafe fn gather_u32(base: *const u32, idx: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| u64::from(*base.add(idx[i] as usize)))
    }

    #[inline(always)]
    unsafe fn cmp(op: CmpOp, a: [u64; 8], b: [u64; 8]) -> u8 {
        let mut m = 0u8;
        for i in 0..8 {
            if cmp_scalar(op, a[i], b[i]) {
                m |= 1 << i;
            }
        }
        m
    }

    #[inline(always)]
    unsafe fn blend(mask: u8, a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
        core::array::from_fn(|i| if mask & (1 << i) != 0 { b[i] } else { a[i] })
    }

    #[inline(always)]
    unsafe fn compress_storeu(ptr: *mut u64, mask: u8, v: [u64; 8]) -> usize {
        let mut k = 0usize;
        for (i, &lane) in v.iter().enumerate() {
            if mask & (1 << i) != 0 {
                *ptr.add(k) = lane;
                k += 1;
            }
        }
        k
    }

    #[inline(always)]
    unsafe fn to_array(v: [u64; 8]) -> [u64; 8] {
        v
    }

    #[inline(always)]
    unsafe fn from_array(a: [u64; 8]) -> [u64; 8] {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All Emu ops are actually safe; the `unsafe` blocks discharge the
    // trait-level contract, which Emu satisfies unconditionally.

    #[test]
    fn lanewise_arithmetic() {
        unsafe {
            let a = Emu::from_array([1, 2, 3, 4, 5, 6, 7, u64::MAX]);
            let b = Emu::splat(2);
            assert_eq!(Emu::add(a, b), [3, 4, 5, 6, 7, 8, 9, 1]);
            assert_eq!(Emu::sub(a, b)[7], u64::MAX - 2);
            assert_eq!(Emu::mullo(a, b), [2, 4, 6, 8, 10, 12, 14, u64::MAX - 1]);
        }
    }

    #[test]
    fn shifts_and_bitops() {
        unsafe {
            let a = Emu::splat(0b1010);
            assert_eq!(Emu::srli::<1>(a), [0b101; 8]);
            assert_eq!(Emu::slli::<2>(a), [0b101000; 8]);
            assert_eq!(Emu::and(a, Emu::splat(0b0010)), [0b0010; 8]);
            assert_eq!(Emu::or(a, Emu::splat(0b0001)), [0b1011; 8]);
            assert_eq!(Emu::xor(a, a), [0; 8]);
        }
    }

    #[test]
    fn load_store_roundtrip() {
        unsafe {
            let src: Vec<u64> = (10..18).collect();
            let v = Emu::loadu(src.as_ptr());
            let mut dst = [0u64; 8];
            Emu::storeu(dst.as_mut_ptr(), v);
            assert_eq!(&dst[..], &src[..]);
        }
    }

    #[test]
    fn gather_picks_indices() {
        unsafe {
            let table: Vec<u64> = (0..100).map(|x| x * 10).collect();
            let idx = Emu::from_array([0, 9, 5, 99, 1, 2, 3, 50]);
            let g = Emu::gather(table.as_ptr(), idx);
            assert_eq!(g, [0, 90, 50, 990, 10, 20, 30, 500]);
        }
    }

    #[test]
    fn cmp_blend_compress() {
        unsafe {
            let a = Emu::from_array([1, 5, 3, 5, 5, 0, 7, 5]);
            let five = Emu::splat(5);
            let m = Emu::cmpeq(a, five);
            assert_eq!(m, 0b1001_1010);
            let blended = Emu::blend(m, Emu::splat(0), Emu::splat(9));
            assert_eq!(blended, [0, 9, 0, 9, 9, 0, 0, 9]);
            let mut out = [0u64; 8];
            let n = Emu::compress_storeu(out.as_mut_ptr(), m, a);
            assert_eq!(n, 4);
            assert_eq!(&out[..4], &[5, 5, 5, 5]);
        }
    }

    /// The emulated compress store writes only the selected lanes, well
    /// inside the 8 lanes the trait lets a backend overwrite.
    #[test]
    fn compress_store_writes_only_selected_lanes() {
        unsafe {
            let a = Emu::from_array(core::array::from_fn(|i| i as u64));
            for m in [0u8, 1, 0b1000_0000, 0b0110_0101, 0xff] {
                let mut out = [u64::MAX; 8];
                let n = Emu::compress_storeu(out.as_mut_ptr(), m, a);
                assert_eq!(n, m.count_ones() as usize);
                let want: Vec<u64> = (0..8).filter(|i| m & (1 << i) != 0).collect();
                assert_eq!(&out[..n], &want[..], "mask {m:#b}");
                assert!(out[n..].iter().all(|&x| x == u64::MAX), "mask {m:#b} wrote past n");
            }
        }
    }

    #[test]
    fn unsigned_min() {
        unsafe {
            let a = Emu::from_array([0, 5, u64::MAX, 1 << 63, 7, 7, 3, u64::MAX - 1]);
            let b = Emu::splat(6);
            assert_eq!(Emu::minu(a, b), [0, 5, 6, 6, 6, 6, 3, 6]);
        }
    }

    #[test]
    fn signed_compare_mask() {
        unsafe {
            let a = Emu::from_array([u64::MAX, 0, 1, 2, 3, 4, 5, 6]); // -1, 0..
            let zero = Emu::splat(0);
            assert_eq!(Emu::cmp(CmpOp::Lt, a, zero), 0b0000_0001);
            assert_eq!(Emu::cmp(CmpOp::Ge, a, zero), 0b1111_1110);
        }
    }
}
