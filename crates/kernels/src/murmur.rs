//! MurmurHash kernel family.
//!
//! The paper's first synthetic benchmark (§V.C) computes a Murmur-style
//! 64-bit hash of 10⁹ integers. The operator template is the one shown in
//! Fig. 6(a): a chain of `mul`, `srl`, and `xor` statements over each input
//! element, which is purely compute-bound — exactly the workload where
//! co-utilizing the scalar ALUs next to the (single, on Silver-class parts)
//! AVX-512 pipe pays off. The tuned optimum the paper reports is
//! `(v=1, s=3, p=2)` on both test CPUs.

use hef_hid::Simd64;

use crate::KernelIo;

/// MurmurHash64A multiplication constant.
pub const M: u64 = 0xc6a4_a793_5bd1_e995;
/// MurmurHash64A shift distance.
pub const R: u32 = 47;
/// Fixed seed (arbitrary but stable so results are reproducible).
pub const SEED: u64 = 0x8445_d61a_4e77_4912;

/// Reference scalar implementation: hash one 64-bit element.
///
/// This mirrors the per-8-byte-block core of MurmurHash64A (multiply,
/// shift-xor fold, multiply, fold into the seeded accumulator), the same
/// statement mix as the paper's Fig. 6 template.
#[inline(always)]
pub fn murmur64(x: u64) -> u64 {
    let mut k = x.wrapping_mul(M);
    k ^= k >> R;
    k = k.wrapping_mul(M);
    let mut h = SEED ^ M;
    h ^= k;
    h = h.wrapping_mul(M);
    h ^= h >> R;
    h = h.wrapping_mul(M);
    h ^= h >> R;
    h
}

/// SIMD form of [`murmur64`] over one vector of 8 lanes, given pre-broadcast
/// constants. `#[inline(always)]` so it folds into `#[target_feature]` shims.
///
/// # Safety
/// Backend ISA must be available (see [`Simd64`]).
#[inline(always)]
pub unsafe fn murmur64_v<B: Simd64>(x: B::V, m: B::V, hseed: B::V) -> B::V {
    let mut k = B::mullo(x, m);
    k = B::xor(k, B::srli::<R>(k));
    k = B::mullo(k, m);
    let mut h = B::xor(hseed, k);
    h = B::mullo(h, m);
    h = B::xor(h, B::srli::<R>(h));
    h = B::mullo(h, m);
    B::xor(h, B::srli::<R>(h))
}

/// The hybrid kernel body: `V` vector + `S` scalar statements per pack
/// layer, `P` layers, expanded pack-major exactly as Algorithm 1 emits them.
///
/// # Safety
/// Backend ISA must be available.
#[inline(always)]
pub unsafe fn body<B: Simd64, const V: usize, const S: usize, const P: usize>(
    input: &[u64],
    output: &mut [u64],
) {
    assert_eq!(input.len(), output.len(), "murmur: length mismatch");
    const L: usize = hef_hid::LANES;
    let step = P * (V * L + S);
    let main = if step == 0 { 0 } else { input.len() - input.len() % step };
    let inp = input.as_ptr();
    let out = output.as_mut_ptr();

    let m_v = B::splat(M);
    let hseed_v = B::splat(SEED ^ M);

    let mut i = 0usize;
    while i < main {
        // -- load statement, expanded p-major, v then s (Alg. 1 lines 21-25)
        let mut dv = [[B::splat(0); V]; P];
        let mut ds = [[0u64; S]; P];
        for pi in 0..P {
            let base = i + pi * (V * L + S);
            for vi in 0..V {
                dv[pi][vi] = B::loadu(inp.add(base + vi * L));
            }
            for si in 0..S {
                ds[pi][si] = hef_hid::opaque64(*inp.add(base + V * L + si));
            }
        }
        // -- k = data * m
        for pi in 0..P {
            for vi in 0..V {
                dv[pi][vi] = B::mullo(dv[pi][vi], m_v);
            }
            for si in 0..S {
                ds[pi][si] = ds[pi][si].wrapping_mul(M);
            }
        }
        // -- k ^= k >> r
        for pi in 0..P {
            for vi in 0..V {
                dv[pi][vi] = B::xor(dv[pi][vi], B::srli::<R>(dv[pi][vi]));
            }
            for si in 0..S {
                ds[pi][si] ^= ds[pi][si] >> R;
            }
        }
        // -- k *= m
        for pi in 0..P {
            for vi in 0..V {
                dv[pi][vi] = B::mullo(dv[pi][vi], m_v);
            }
            for si in 0..S {
                ds[pi][si] = ds[pi][si].wrapping_mul(M);
            }
        }
        // -- h = (seed ^ m) ^ k
        for pi in 0..P {
            for vi in 0..V {
                dv[pi][vi] = B::xor(hseed_v, dv[pi][vi]);
            }
            for si in 0..S {
                ds[pi][si] ^= SEED ^ M;
            }
        }
        // -- h *= m
        for pi in 0..P {
            for vi in 0..V {
                dv[pi][vi] = B::mullo(dv[pi][vi], m_v);
            }
            for si in 0..S {
                ds[pi][si] = ds[pi][si].wrapping_mul(M);
            }
        }
        // -- h ^= h >> r
        for pi in 0..P {
            for vi in 0..V {
                dv[pi][vi] = B::xor(dv[pi][vi], B::srli::<R>(dv[pi][vi]));
            }
            for si in 0..S {
                ds[pi][si] ^= ds[pi][si] >> R;
            }
        }
        // -- h *= m
        for pi in 0..P {
            for vi in 0..V {
                dv[pi][vi] = B::mullo(dv[pi][vi], m_v);
            }
            for si in 0..S {
                ds[pi][si] = ds[pi][si].wrapping_mul(M);
            }
        }
        // -- h ^= h >> r
        for pi in 0..P {
            for vi in 0..V {
                dv[pi][vi] = B::xor(dv[pi][vi], B::srli::<R>(dv[pi][vi]));
            }
            for si in 0..S {
                ds[pi][si] ^= ds[pi][si] >> R;
            }
        }
        // -- store statement
        for pi in 0..P {
            let base = i + pi * (V * L + S);
            for vi in 0..V {
                B::storeu(out.add(base + vi * L), dv[pi][vi]);
            }
            for si in 0..S {
                *out.add(base + V * L + si) = hef_hid::opaque64(ds[pi][si]);
            }
        }
        i += step;
    }
    // Tail: reference scalar loop.
    for j in main..input.len() {
        output[j] = murmur64(input[j]);
    }
}

/// Type-erasure adapter used by the generated dispatch shims.
///
/// # Safety
/// Backend ISA must be available; `io` must be the [`KernelIo::Map`] variant.
#[inline(always)]
pub unsafe fn run<B: Simd64, const V: usize, const S: usize, const P: usize>(
    io: &mut KernelIo<'_>,
) {
    match io {
        KernelIo::Map { input, output } => body::<B, V, S, P>(input, output),
        _ => panic!("murmur kernel requires KernelIo::Map"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_hid::Emu;

    #[test]
    fn murmur64_is_deterministic_and_mixing() {
        let a = murmur64(1);
        let b = murmur64(2);
        assert_ne!(a, b);
        assert_eq!(a, murmur64(1));
        // Avalanche sanity: flipping one input bit flips ~half the output.
        let flips = (murmur64(0x1234) ^ murmur64(0x1235)).count_ones();
        assert!((16..=48).contains(&flips), "poor avalanche: {flips}");
    }

    #[test]
    fn emu_body_matches_reference_for_various_configs() {
        let input: Vec<u64> = (0..977).map(|i| i * 0x9e37 + 11).collect();
        let expect: Vec<u64> = input.iter().map(|&x| murmur64(x)).collect();
        let mut out = vec![0u64; input.len()];
        unsafe {
            super::body::<Emu, 1, 3, 2>(&input, &mut out);
            assert_eq!(out, expect, "(1,3,2)");
            out.fill(0);
            super::body::<Emu, 0, 1, 1>(&input, &mut out);
            assert_eq!(out, expect, "(0,1,1)");
            out.fill(0);
            super::body::<Emu, 2, 0, 4>(&input, &mut out);
            assert_eq!(out, expect, "(2,0,4)");
        }
    }

    #[test]
    fn tail_shorter_than_step_is_handled() {
        let input: Vec<u64> = (0..5).collect();
        let mut out = vec![0u64; 5];
        unsafe { super::body::<Emu, 8, 4, 4>(&input, &mut out) };
        let expect: Vec<u64> = input.iter().map(|&x| murmur64(x)).collect();
        assert_eq!(out, expect);
    }
}
