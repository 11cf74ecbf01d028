//! Range-filter kernel family.
//!
//! Evaluates `lo <= x <= hi` (signed) over a column and appends the
//! qualifying absolute row ids to a selection vector — the scan/filter
//! operator of the SSB queries. The SIMD form uses two `vpcmpq` masks and a
//! `vpcompressq` store of the row-id vector; the scalar form is a branchy
//! compare-and-append.

use hef_hid::{CmpOp, Simd64};

use crate::KernelIo;

/// Scalar reference predicate.
#[inline(always)]
pub fn in_range(x: u64, lo: u64, hi: u64) -> bool {
    let (x, lo, hi) = (x as i64, lo as i64, hi as i64);
    lo <= x && x <= hi
}

/// The hybrid filter body. Appends `base + index` for qualifying rows, in
/// ascending index order (kernel configurations are order-preserving, which
/// downstream operators rely on).
///
/// # Safety
/// Backend ISA must be available.
#[inline(always)]
pub unsafe fn body<B: Simd64, const V: usize, const S: usize, const P: usize>(
    input: &[u64],
    lo: u64,
    hi: u64,
    base: u64,
    sel: &mut Vec<u64>,
) {
    const L: usize = hef_hid::LANES;
    let step = P * (V * L + S);
    let main = if step == 0 { 0 } else { input.len() - input.len() % step };
    // Every row may pass, and a compress store writes 8 lanes at the
    // cursor: reserve 8 lanes of slack past the worst case.
    sel.reserve(input.len() + L);
    let inp = input.as_ptr();

    let lo_v = B::splat(lo);
    let hi_v = B::splat(hi);
    // Row-id vector for lane offsets 0..8, advanced per statement instance.
    let iota = B::from_array([0, 1, 2, 3, 4, 5, 6, 7]);

    let mut i = 0usize;
    while i < main {
        for pi in 0..P {
            let pbase = i + pi * (V * L + S);
            for vi in 0..V {
                let off = pbase + vi * L;
                let x = B::loadu(inp.add(off));
                let m = B::cmp(CmpOp::Ge, x, lo_v) & B::cmp(CmpOp::Le, x, hi_v);
                if m != 0 {
                    let ids = B::add(iota, B::splat(base + off as u64));
                    let old = sel.len();
                    // The reserve above covers the worst case plus the
                    // store's 8 lanes; write the compressed ids straight
                    // into the spare capacity.
                    let n = B::compress_storeu(sel.as_mut_ptr().add(old), m, ids);
                    sel.set_len(old + n);
                }
            }
            for si in 0..S {
                let off = pbase + V * L + si;
                let x = hef_hid::opaque64(*inp.add(off));
                if in_range(x, lo, hi) {
                    sel.push(base + off as u64);
                }
            }
        }
        i += step;
    }
    for j in main..input.len() {
        if in_range(input[j], lo, hi) {
            sel.push(base + j as u64);
        }
    }
}

/// The selection-refining filter body: compacts `sel` in place, keeping the
/// row ids whose column value passes `lo <= x <= hi` (signed) and
/// preserving their order. The SIMD statements gather the selected values
/// (`vpgatherqq`), mask-compare, and compress-store the surviving row ids
/// over the already-consumed prefix of `sel`; the write cursor always
/// trails the read cursor, so the in-place compaction is sound, and the
/// store's 8 lanes end at most at `off + 8`, inside the vector just loaded.
///
/// # Safety
/// Backend ISA must be available; every entry of `sel` must be a valid
/// index into `input`.
#[inline(always)]
pub unsafe fn body_refine<B: Simd64, const V: usize, const S: usize, const P: usize>(
    input: &[u64],
    lo: u64,
    hi: u64,
    sel: &mut Vec<u64>,
) {
    const L: usize = hef_hid::LANES;
    let n = sel.len();
    let step = P * (V * L + S);
    let main = if step == 0 { 0 } else { n - n % step };
    let ptr = sel.as_mut_ptr();
    let inp = input.as_ptr();

    let lo_v = B::splat(lo);
    let hi_v = B::splat(hi);

    let mut w = 0usize;
    let mut i = 0usize;
    while i < main {
        for pi in 0..P {
            let pbase = i + pi * (V * L + S);
            for vi in 0..V {
                let off = pbase + vi * L;
                let idx = B::loadu(ptr.add(off));
                let x = B::gather(inp, idx);
                let m = B::cmp(CmpOp::Ge, x, lo_v) & B::cmp(CmpOp::Le, x, hi_v);
                w += B::compress_storeu(ptr.add(w), m, idx);
            }
            for si in 0..S {
                let off = pbase + V * L + si;
                let r = hef_hid::opaque64(*ptr.add(off));
                if in_range(*inp.add(r as usize), lo, hi) {
                    *ptr.add(w) = r;
                    w += 1;
                }
            }
        }
        i += step;
    }
    for j in main..n {
        let r = *ptr.add(j);
        if in_range(*inp.add(r as usize), lo, hi) {
            *ptr.add(w) = r;
            w += 1;
        }
    }
    sel.set_len(w);
}

/// Type-erasure adapter used by the generated dispatch shims.
///
/// # Safety
/// Backend ISA must be available; `io` must be [`KernelIo::Filter`] or
/// [`KernelIo::FilterRefine`].
#[inline(always)]
pub unsafe fn run<B: Simd64, const V: usize, const S: usize, const P: usize>(
    io: &mut KernelIo<'_>,
) {
    match io {
        KernelIo::Filter { input, lo, hi, base, sel } => {
            body::<B, V, S, P>(input, *lo, *hi, *base, sel)
        }
        KernelIo::FilterRefine { input, lo, hi, sel } => {
            body_refine::<B, V, S, P>(input, *lo, *hi, sel)
        }
        _ => panic!("filter kernel requires KernelIo::Filter or KernelIo::FilterRefine"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_hid::Emu;

    fn reference(input: &[u64], lo: u64, hi: u64, base: u64) -> Vec<u64> {
        input
            .iter()
            .enumerate()
            .filter(|(_, &x)| in_range(x, lo, hi))
            .map(|(i, _)| base + i as u64)
            .collect()
    }

    #[test]
    fn hybrid_filter_matches_reference_in_order() {
        let input: Vec<u64> = (0..911).map(|i| (i * 37) % 100).collect();
        let expect = reference(&input, 25, 60, 1000);
        for (v, s, p) in [(0, 1, 1), (1, 0, 1), (1, 2, 2), (2, 1, 3)] {
            let mut sel = Vec::new();
            unsafe {
                match (v, s, p) {
                    (0, 1, 1) => body::<Emu, 0, 1, 1>(&input, 25, 60, 1000, &mut sel),
                    (1, 0, 1) => body::<Emu, 1, 0, 1>(&input, 25, 60, 1000, &mut sel),
                    (1, 2, 2) => body::<Emu, 1, 2, 2>(&input, 25, 60, 1000, &mut sel),
                    (2, 1, 3) => body::<Emu, 2, 1, 3>(&input, 25, 60, 1000, &mut sel),
                    _ => unreachable!(),
                }
            }
            assert_eq!(sel, expect, "({v},{s},{p})");
        }
    }

    #[test]
    fn signed_range_semantics() {
        // -5 stored as two's complement must not satisfy 0..=10.
        let input = vec![(-5i64) as u64, 0, 10, 11];
        let mut sel = Vec::new();
        unsafe { body::<Emu, 1, 1, 1>(&input, 0, 10, 0, &mut sel) };
        assert_eq!(sel, vec![1, 2]);
    }

    #[test]
    fn refine_matches_reference_in_order() {
        let input: Vec<u64> = (0..1500).map(|i| (i * 53) % 200).collect();
        // Start from an arbitrary selection (every third row) and refine it.
        let start: Vec<u64> = (0..input.len() as u64).filter(|r| r % 3 == 0).collect();
        let expect: Vec<u64> = start
            .iter()
            .copied()
            .filter(|&r| in_range(input[r as usize], 40, 120))
            .collect();
        for (v, s, p) in [(0, 1, 1), (1, 0, 1), (1, 2, 2), (2, 1, 3)] {
            let mut sel = start.clone();
            unsafe {
                match (v, s, p) {
                    (0, 1, 1) => body_refine::<Emu, 0, 1, 1>(&input, 40, 120, &mut sel),
                    (1, 0, 1) => body_refine::<Emu, 1, 0, 1>(&input, 40, 120, &mut sel),
                    (1, 2, 2) => body_refine::<Emu, 1, 2, 2>(&input, 40, 120, &mut sel),
                    (2, 1, 3) => body_refine::<Emu, 2, 1, 3>(&input, 40, 120, &mut sel),
                    _ => unreachable!(),
                }
            }
            assert_eq!(sel, expect, "({v},{s},{p})");
        }
    }

    #[test]
    fn refine_empty_none_and_all() {
        let input: Vec<u64> = (0..300).collect();
        let mut sel: Vec<u64> = Vec::new();
        unsafe { body_refine::<Emu, 1, 1, 2>(&input, 0, 10, &mut sel) };
        assert!(sel.is_empty());
        let mut sel: Vec<u64> = (0..300).collect();
        unsafe { body_refine::<Emu, 1, 1, 2>(&input, 500, 600, &mut sel) };
        assert!(sel.is_empty());
        let mut sel: Vec<u64> = (0..300).collect();
        unsafe { body_refine::<Emu, 1, 1, 2>(&input, 0, 299, &mut sel) };
        assert_eq!(sel, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_all_matching() {
        let input: Vec<u64> = (0..100).collect();
        let mut sel = Vec::new();
        unsafe { body::<Emu, 2, 2, 2>(&input, 200, 300, 0, &mut sel) };
        assert!(sel.is_empty());
        unsafe { body::<Emu, 2, 2, 2>(&input, 0, 99, 0, &mut sel) };
        assert_eq!(sel, (0..100).collect::<Vec<u64>>());
    }
}
