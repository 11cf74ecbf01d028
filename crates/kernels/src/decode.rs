//! Compressed-page decode kernel family.
//!
//! Unpacks `width`-bit codes from a dense little-endian bit stream and
//! materializes `u64` values, either by adding a frame-of-reference base
//! (`out = code + reference`) or by a dictionary gather (`out = dict[code]`)
//! — the hot loop of every paged column scan. The SIMD form computes eight
//! bit offsets at once (`vpmullq`/`vpsrlvq`/`vpsllvq`), gathers the two
//! straddled words per lane, and stitches them; the scalar form is the
//! classic shift-and-mask loop. Like every family, the body is expanded
//! pack-major over `(v, s, p)` so the optimizer can mix both.
//!
//! The same body decodes either a contiguous run of rows or only the rows a
//! selection vector names (`pos`): with positions, the SIMD statements load
//! eight row ids instead of adding an iota, and the scalar statements read
//! one — so a paged scan past its first filter unpacks only surviving rows.
//!
//! Safety contract shared by all entry points: `words` must hold at least
//! [`words_needed`]`(last + 1, width)` words, where `last` is the largest
//! element decoded — one *past* the last touched word, because the SIMD
//! statements unconditionally gather the straddle word `wi + 1` even when
//! the code ends on a word boundary. A
//! dictionary, when present, must have at least `1 << width` entries
//! (padded by the page reader), so that any `width`-bit code — including
//! garbage from a corrupted page — gathers in bounds.

use hef_hid::Simd64;

use crate::KernelIo;

/// Packed words required to decode `n` codes of `width` bits, *including*
/// the one-word straddle pad the SIMD gather reads past the end.
pub fn words_needed(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(64) + 1
}

/// The value mask for a code width (`width == 64` → all ones).
#[inline(always)]
pub fn code_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Scalar reference: the `e`-th `width`-bit code of the stream. Safe — only
/// touches the straddle word when the code actually crosses a boundary.
#[inline(always)]
pub fn unpack_at(words: &[u64], width: u32, e: usize) -> u64 {
    let bit = e * width as usize;
    let wi = bit >> 6;
    let off = (bit & 63) as u32;
    let lo = words[wi] >> off;
    let hi = if off == 0 || off + width <= 64 {
        0
    } else {
        words[wi + 1] << (64 - off)
    };
    (lo | hi) & code_mask(width)
}

/// Pack `values[i] & mask(width)` densely into a little-endian bit stream,
/// with the trailing straddle pad word the decode kernels require.
pub fn pack(values: &[u64], width: u32) -> Vec<u64> {
    let mut words = vec![0u64; words_needed(values.len(), width)];
    let mask = code_mask(width);
    for (e, &v) in values.iter().enumerate() {
        let v = v & mask;
        let bit = e * width as usize;
        let wi = bit >> 6;
        let off = (bit & 63) as u32;
        words[wi] |= v << off;
        if off != 0 && off + width > 64 {
            words[wi + 1] |= v >> (64 - off);
        }
    }
    words
}

/// The hybrid decode body: `out[j] = dict[code(e)]` or `code(e) +
/// reference`, for `j in 0..out.len()`, where element `e` is `start + j`,
/// or `start + pos[j]` when positions are given.
///
/// # Safety
/// Backend ISA must be available; `pos`, when present, holds at least
/// `out.len()` entries; `words` holds at least [`words_needed`]`(e + 1,
/// width)` words for every decoded element `e`; `dict`, when present,
/// holds at least `1 << width` entries; `width` is in `1..=64`.
#[inline(always)]
pub unsafe fn body<B: Simd64, const V: usize, const S: usize, const P: usize>(
    words: &[u64],
    width: u32,
    reference: u64,
    dict: Option<&[u64]>,
    start: usize,
    pos: Option<&[u64]>,
    out: &mut [u64],
) {
    const L: usize = hef_hid::LANES;
    let n = out.len();
    let step = P * (V * L + S);
    let main = if step == 0 { 0 } else { n - n % step };
    let wp = words.as_ptr();
    let op = out.as_mut_ptr();
    let mask = code_mask(width);

    let w_v = B::splat(width as u64);
    let mask_v = B::splat(mask);
    let c63 = B::splat(63);
    let c64 = B::splat(64);
    let one = B::splat(1);
    let ref_v = B::splat(reference);
    let start_v = B::splat(start as u64);
    let iota = B::from_array([0, 1, 2, 3, 4, 5, 6, 7]);

    let mut i = 0usize;
    while i < main {
        for pi in 0..P {
            let pbase = i + pi * (V * L + S);
            for vi in 0..V {
                let off = pbase + vi * L;
                let idx = match pos {
                    Some(ps) => B::add(B::loadu(ps.as_ptr().add(off)), start_v),
                    None => B::add(iota, B::splat((start + off) as u64)),
                };
                let bit = B::mullo(idx, w_v);
                let wi = B::srli::<6>(bit);
                let sh = B::and(bit, c63);
                let lo = B::srlv(B::gather(wp, wi), sh);
                // Straddle word, shifted left by 64 - sh; sh == 0 makes the
                // count 64, which vpsllvq defines as 0 — exactly the "no
                // straddle" case.
                let hi = B::sllv(B::gather(wp, B::add(wi, one)), B::sub(c64, sh));
                let code = B::and(B::or(lo, hi), mask_v);
                let val = match dict {
                    Some(d) => B::gather(d.as_ptr(), code),
                    None => B::add(code, ref_v),
                };
                B::storeu(op.add(off), val);
            }
            for si in 0..S {
                let off = pbase + V * L + si;
                let e = start + pos.map_or(off, |ps| *ps.get_unchecked(off) as usize);
                let bit = e * width as usize;
                let wi = bit >> 6;
                let sh = (bit & 63) as u32;
                let lo = hef_hid::opaque64(*wp.add(wi)) >> sh;
                let hi = if sh == 0 { 0 } else { *wp.add(wi + 1) << (64 - sh) };
                let code = (lo | hi) & mask;
                *op.add(off) = match dict {
                    Some(d) => *d.get_unchecked(code as usize),
                    None => code.wrapping_add(reference),
                };
            }
        }
        i += step;
    }
    for j in main..n {
        let code = unpack_at(words, width, start + pos.map_or(j, |ps| ps[j] as usize));
        out[j] = match dict {
            Some(d) => d[code as usize],
            None => code.wrapping_add(reference),
        };
    }
}

/// Type-erasure adapter used by the generated dispatch shims.
///
/// # Safety
/// Backend ISA must be available; `io` must be [`KernelIo::Decode`] and
/// satisfy the module safety contract.
#[inline(always)]
pub unsafe fn run<B: Simd64, const V: usize, const S: usize, const P: usize>(
    io: &mut KernelIo<'_>,
) {
    match io {
        KernelIo::Decode { words, width, reference, dict, start, pos, out } => {
            if let Some(ps) = pos {
                assert_eq!(ps.len(), out.len(), "decode positions and output differ in length");
            }
            body::<B, V, S, P>(words, *width, *reference, *dict, *start, *pos, out)
        }
        _ => panic!("decode kernel requires KernelIo::Decode"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_hid::Emu;

    fn codes(n: usize, width: u32) -> Vec<u64> {
        let mask = code_mask(width);
        (0..n as u64).map(|i| (i.wrapping_mul(0x9e37_79b9) ^ (i << 7)) & mask).collect()
    }

    #[test]
    fn pack_unpack_roundtrip_all_widths() {
        for width in [1, 3, 7, 8, 13, 17, 31, 32, 33, 63, 64] {
            let vals = codes(217, width);
            let words = pack(&vals, width);
            for (e, &v) in vals.iter().enumerate() {
                assert_eq!(unpack_at(&words, width, e), v, "w={width} e={e}");
            }
        }
    }

    #[test]
    fn hybrid_decode_matches_reference_for_widths() {
        for width in [1, 5, 12, 13, 21, 33, 64] {
            let vals = codes(911, width);
            let words = pack(&vals, width);
            let expect: Vec<u64> = vals.iter().map(|v| v.wrapping_add(77)).collect();
            for (v, s, p) in [(0, 1, 1), (1, 0, 1), (1, 2, 2), (2, 1, 3)] {
                let mut out = vec![0u64; vals.len()];
                let o = &mut out;
                unsafe {
                    match (v, s, p) {
                        (0, 1, 1) => body::<Emu, 0, 1, 1>(&words, width, 77, None, 0, None, o),
                        (1, 0, 1) => body::<Emu, 1, 0, 1>(&words, width, 77, None, 0, None, o),
                        (1, 2, 2) => body::<Emu, 1, 2, 2>(&words, width, 77, None, 0, None, o),
                        (2, 1, 3) => body::<Emu, 2, 1, 3>(&words, width, 77, None, 0, None, o),
                        _ => unreachable!(),
                    }
                }
                assert_eq!(out, expect, "w={width} ({v},{s},{p})");
            }
        }
    }

    #[test]
    fn dictionary_decode_gathers_values() {
        let width = 9u32;
        let dict: Vec<u64> = (0..1u64 << width).map(|i| i * 1000 + 5).collect();
        let vals = codes(500, width);
        let words = pack(&vals, width);
        let expect: Vec<u64> = vals.iter().map(|&c| dict[c as usize]).collect();
        let mut out = vec![0u64; vals.len()];
        unsafe { body::<Emu, 2, 1, 2>(&words, width, 0, Some(&dict), 0, None, &mut out) };
        assert_eq!(out, expect);
    }

    #[test]
    fn start_offset_decodes_a_mid_stream_window() {
        let width = 11u32;
        let vals = codes(700, width);
        let words = pack(&vals, width);
        let mut out = vec![0u64; 123];
        unsafe { body::<Emu, 1, 1, 2>(&words, width, 0, None, 400, None, &mut out) };
        assert_eq!(out, vals[400..523].to_vec());
    }

    #[test]
    fn positions_decode_selected_rows_past_start() {
        let width = 11u32;
        let vals = codes(700, width);
        let words = pack(&vals, width);
        // 43 positions: two full (1,1,2) steps of 18, then a scalar tail.
        let pos: Vec<u64> = (0..300).step_by(7).collect();
        let mut out = vec![0u64; pos.len()];
        unsafe { body::<Emu, 1, 1, 2>(&words, width, 0, None, 400, Some(&pos), &mut out) };
        let expect: Vec<u64> = pos.iter().map(|&p| vals[400 + p as usize]).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn words_needed_includes_straddle_pad() {
        assert_eq!(words_needed(0, 13), 1);
        // 64 codes × 13 bits = 832 bits = 13 words, +1 pad.
        assert_eq!(words_needed(64, 13), 14);
        assert_eq!(pack(&codes(64, 13), 13).len(), 14);
    }
}
