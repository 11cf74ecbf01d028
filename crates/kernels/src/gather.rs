//! Selective-gather kernel family: `out[i] = src[idx[i]]`.
//!
//! This is the positional "take" every selection-vector pipeline performs
//! between operators (fetching the surviving rows' join keys or measure
//! values). The SIMD form is a raw `vpgatherqq` stream — the instruction
//! whose 26-cycle latency vs 5-cycle throughput motivates the paper's pack
//! optimization — so the family is both an engine building block and a
//! microbenchmark of the gather pipeline itself. The family's grid also
//! runs the fused dense join probe ([`crate::dense::body_probe`]), the
//! way the selection-refining filter rides the filter grid, and the
//! 32-bit-source forms ([`body_u32`]) that read a 32-bit column into `u64`
//! lanes: a 64-bit-index/32-bit-value gather at a selection, or a widening
//! copy of a whole window.

use hef_hid::Simd64;

use crate::KernelIo;

/// Reference implementation.
pub fn gather_ref(src: &[u64], idx: &[u64], out: &mut [u64]) {
    assert_eq!(idx.len(), out.len());
    for (o, &i) in out.iter_mut().zip(idx) {
        *o = src[i as usize];
    }
}

/// The hybrid gather body.
///
/// # Safety
/// Backend ISA must be available; every `idx` value must be in bounds of
/// `src` (the caller's selection vectors are constructed in bounds).
#[inline(always)]
pub unsafe fn body<B: Simd64, const V: usize, const S: usize, const P: usize>(
    src: &[u64],
    idx: &[u64],
    out: &mut [u64],
) {
    assert_eq!(idx.len(), out.len(), "gather: length mismatch");
    const L: usize = hef_hid::LANES;
    let step = P * (V * L + S);
    let main = if step == 0 { 0 } else { idx.len() - idx.len() % step };
    let srcp = src.as_ptr();
    let idxp = idx.as_ptr();
    let outp = out.as_mut_ptr();

    let mut i = 0usize;
    while i < main {
        for pi in 0..P {
            let base = i + pi * (V * L + S);
            for vi in 0..V {
                let iv = B::loadu(idxp.add(base + vi * L));
                if cfg!(debug_assertions) {
                    for lane in B::to_array(iv) {
                        debug_assert!((lane as usize) < src.len(), "index {lane} oob");
                    }
                }
                let g = B::gather(srcp, iv);
                B::storeu(outp.add(base + vi * L), g);
            }
            for si in 0..S {
                let off = base + V * L + si;
                let j = hef_hid::opaque64(*idxp.add(off));
                debug_assert!((j as usize) < src.len(), "index {j} oob");
                *outp.add(off) = *srcp.add(j as usize);
            }
        }
        i += step;
    }
    for j in main..idx.len() {
        out[j] = src[idx[j] as usize];
    }
}

/// The 32-bit-source gather body: `out[i] = src[idx[i]]` zero-extended
/// (`vpgatherqd` + `vpmovzxdq`), or with no `idx` the widening copy
/// `out[i] = src[i]` (`vpmovzxdq` loads), pack-major like [`body`].
///
/// # Safety
/// Backend ISA must be available; every `idx` value must be in bounds of
/// `src`, and without `idx`, `src` must hold at least `out.len()` values.
#[inline(always)]
pub unsafe fn body_u32<B: Simd64, const V: usize, const S: usize, const P: usize>(
    src: &[u32],
    idx: Option<&[u64]>,
    out: &mut [u64],
) {
    match idx {
        Some(idx) => {
            assert_eq!(idx.len(), out.len(), "gather: length mismatch");
            u32_loop::<B, V, S, P, true>(src, idx, out)
        }
        None => {
            assert!(src.len() >= out.len(), "widen: {} values for {} outputs", src.len(), out.len());
            u32_loop::<B, V, S, P, false>(src, &[], out)
        }
    }
}

/// [`body_u32`]'s loop, with the index source fixed at compile time:
/// `idx[j]` when `GATHER`, else `j`.
#[inline(always)]
unsafe fn u32_loop<B: Simd64, const V: usize, const S: usize, const P: usize, const GATHER: bool>(
    src: &[u32],
    idx: &[u64],
    out: &mut [u64],
) {
    const L: usize = hef_hid::LANES;
    let n = out.len();
    let step = P * (V * L + S);
    let main = if step == 0 { 0 } else { n - n % step };
    let srcp = src.as_ptr();
    let idxp = idx.as_ptr();
    let outp = out.as_mut_ptr();
    let at = |j: usize| -> usize {
        let r = if GATHER { *idxp.add(j) as usize } else { j };
        debug_assert!(r < src.len(), "index {r} oob");
        r
    };

    let mut i = 0usize;
    while i < main {
        for pi in 0..P {
            let base = i + pi * (V * L + S);
            for vi in 0..V {
                let o = base + vi * L;
                let g = if GATHER {
                    let iv = B::loadu(idxp.add(o));
                    if cfg!(debug_assertions) {
                        for lane in B::to_array(iv) {
                            debug_assert!((lane as usize) < src.len(), "index {lane} oob");
                        }
                    }
                    B::gather_u32(srcp, iv)
                } else {
                    B::loadu_u32(srcp.add(o))
                };
                B::storeu(outp.add(o), g);
            }
            for si in 0..S {
                let off = base + V * L + si;
                *outp.add(off) = hef_hid::opaque64(u64::from(*srcp.add(at(off))));
            }
        }
        i += step;
    }
    for j in main..n {
        out[j] = u64::from(src[at(j)]);
    }
}

/// Type-erasure adapter used by the generated dispatch shims.
///
/// # Safety
/// Backend ISA must be available; `io` must be [`KernelIo::Gather`] or
/// [`KernelIo::GatherU32`] with in-bounds indices, or
/// [`KernelIo::DenseProbe`].
#[inline(always)]
pub unsafe fn run<B: Simd64, const V: usize, const S: usize, const P: usize>(
    io: &mut KernelIo<'_>,
) {
    match io {
        KernelIo::Gather { src, idx, out } => body::<B, V, S, P>(src, idx, out),
        KernelIo::GatherU32 { src, idx, out } => body_u32::<B, V, S, P>(src, *idx, out),
        KernelIo::DenseProbe { keys, index, stride, sel, gids } => {
            crate::dense::body_probe::<B, V, S, P>(index, keys, *stride, sel, gids);
        }
        _ => panic!("gather kernel requires KernelIo::Gather, GatherU32 or DenseProbe"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_hid::Emu;

    #[test]
    fn hybrid_gather_matches_reference() {
        let src: Vec<u64> = (0..500).map(|x| x * 7 + 1).collect();
        let idx: Vec<u64> = (0..1201).map(|i| (i * 37) % 500).collect();
        let mut expect = vec![0u64; idx.len()];
        gather_ref(&src, &idx, &mut expect);
        let mut out = vec![0u64; idx.len()];
        unsafe {
            super::body::<Emu, 1, 1, 3>(&src, &idx, &mut out);
            assert_eq!(out, expect, "(1,1,3)");
            out.fill(0);
            super::body::<Emu, 0, 1, 1>(&src, &idx, &mut out);
            assert_eq!(out, expect, "scalar");
            out.fill(0);
            super::body::<Emu, 8, 0, 1>(&src, &idx, &mut out);
            assert_eq!(out, expect, "(8,0,1)");
        }
    }

    /// Both 32-bit-source forms match a scalar widening of the column, at
    /// every node shape, over lengths that leave a scalar tail, with the
    /// last element selected and values above `i32::MAX`.
    #[test]
    fn u32_gather_and_widen_match_reference() {
        let src: Vec<u32> = (0..500u32).map(|x| x.wrapping_mul(0x9e37_79b9)).collect();
        let wide: Vec<u64> = src.iter().map(|&v| u64::from(v)).collect();
        for n in [0usize, 1, 7, 8, 13, 500] {
            let idx: Vec<u64> = (0..n as u64).map(|i| if i % 5 == 0 { 499 } else { (i * 37) % 500 }).collect();
            let mut expect = vec![0u64; n];
            gather_ref(&wide, &idx, &mut expect);
            let mut out = vec![0u64; n];
            unsafe {
                super::body_u32::<Emu, 1, 1, 3>(&src, Some(&idx), &mut out);
                assert_eq!(out, expect, "gather n{n}");
                super::body_u32::<Emu, 0, 1, 1>(&src, Some(&idx), &mut out);
                assert_eq!(out, expect, "scalar gather n{n}");
                super::body_u32::<Emu, 8, 0, 1>(&src, None, &mut out);
                assert_eq!(out, wide[..n], "widen n{n}");
                out.fill(0);
                super::body_u32::<Emu, 1, 3, 2>(&src, None, &mut out);
                assert_eq!(out, wide[..n], "hybrid widen n{n}");
            }
        }
    }

    #[test]
    fn empty_and_short_inputs() {
        let src = vec![42u64];
        let idx: Vec<u64> = vec![0; 3];
        let mut out = vec![9u64; 3];
        unsafe { super::body::<Emu, 4, 2, 2>(&src, &idx, &mut out) };
        assert_eq!(out, vec![42, 42, 42]);
        let mut empty: Vec<u64> = vec![];
        unsafe { super::body::<Emu, 1, 1, 1>(&src, &[], &mut empty) };
    }
}
