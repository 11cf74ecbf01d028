//! Software-prefetch hints, confined to one module.
//!
//! This is the only place in the workspace (outside `hef-hid` and
//! `hef-testutil::bench`) allowed to contain architecture intrinsics;
//! `scripts/verify.sh` greps for `_mm_prefetch` escaping this file. Callers
//! get a safe function: a prefetch hint is architecturally side-effect-free
//! for *any* address — it never faults and never changes program state, only
//! cache contents — so there is no safety contract to uphold.
//!
//! On non-x86 targets the hint compiles to nothing; split hash and probe
//! passes (the Voila comparator's) still let the out-of-order window
//! overlap the loads themselves.

/// Hint that the cache line containing `ptr` will be read soon
/// (`prefetcht0`: pull into every cache level including L1).
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint; it is valid for any address, mapped or
    // not, and performs no access observable by the program.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Prefetch the line holding `slice[index]`; does nothing out of bounds, so
/// speculative distances near the end of the input need no guard.
#[inline(always)]
pub fn prefetch_index<T>(slice: &[T], index: usize) {
    if index < slice.len() {
        prefetch_read(unsafe { slice.as_ptr().add(index) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_inert() {
        let v = vec![1u64, 2, 3];
        prefetch_read(v.as_ptr());
        prefetch_read(core::ptr::null::<u64>());
        prefetch_index(&v, 1);
        prefetch_index(&v, 999); // out of bounds: silently skipped
        assert_eq!(v, [1, 2, 3]);
    }
}
