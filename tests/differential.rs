//! Differential tests: the AVX-512 backend against the portable emulation
//! backend, for every kernel family, across a spread of grid nodes and
//! adversarial input lengths. On machines without AVX-512 these tests
//! degrade to emulation-vs-emulation (still exercising dispatch).

use hef::hid::Backend;
use hef::kernels::{
    all_configs, run_on, BloomFilter, Family, HybridConfig, KernelIo, ProbeTable,
};
use hef_testutil::Rng;

fn backends() -> Vec<Backend> {
    let mut b = vec![Backend::Emu];
    if Backend::Avx2.is_available() {
        b.push(Backend::Avx2);
    }
    if Backend::Avx512.is_available() {
        b.push(Backend::Avx512);
    }
    b
}

/// A spread of nodes covering corners and the paper's optima.
fn sample_nodes() -> Vec<HybridConfig> {
    vec![
        HybridConfig::SCALAR,
        HybridConfig::SIMD,
        HybridConfig::new(1, 3, 2),
        HybridConfig::new(1, 1, 3),
        HybridConfig::new(8, 0, 1),
        HybridConfig::new(8, 4, 4),
        HybridConfig::new(0, 4, 4),
        HybridConfig::new(2, 2, 2),
    ]
}

fn random_input(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_u64()).collect()
}

#[test]
fn map_families_agree_across_backends_and_nodes() {
    for family in [Family::Murmur, Family::Crc64] {
        // Lengths straddle multiples of the largest step (8*8+4)*4 = 272.
        for n in [0, 1, 7, 271, 272, 273, 1000, 4096] {
            let input = random_input(n, 0xC0FFEE + n as u64);
            let mut expect: Option<Vec<u64>> = None;
            for backend in backends() {
                for cfg in sample_nodes() {
                    let mut out = vec![0u64; n];
                    let mut io = KernelIo::Map { input: &input, output: &mut out };
                    assert!(run_on(family, cfg, backend, &mut io));
                    match &expect {
                        None => expect = Some(out),
                        Some(e) => assert_eq!(
                            &out, e,
                            "{} n={n} {cfg} {:?}",
                            family.name(),
                            backend
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn probe_agrees_across_backends_with_collisions() {
    let mut table = ProbeTable::with_capacity(5000);
    let mut rng = Rng::seed_from_u64(77);
    for _ in 0..5000 {
        let k = rng.gen_range(0..20_000u64);
        if k != u64::MAX {
            table.insert(k, k.wrapping_mul(31) % (u64::MAX - 1));
        }
    }
    let keys = random_input(3001, 88).iter().map(|k| k % 25_000).collect::<Vec<_>>();
    let expect: Vec<u64> = keys.iter().map(|&k| table.probe_scalar(k)).collect();
    for backend in backends() {
        for cfg in sample_nodes() {
            let mut out = vec![0u64; keys.len()];
            let mut io = KernelIo::Probe { keys: &keys, table: &table, out: &mut out, prefetch: 0 };
            assert!(run_on(Family::Probe, cfg, backend, &mut io));
            assert_eq!(out, expect, "{cfg} {backend:?}");
        }
    }
}

#[test]
fn filter_agrees_across_backends_including_signed_edges() {
    let mut input = random_input(2111, 99);
    // Seed some signed-negative values and boundary hits.
    input[0] = (-1i64) as u64;
    input[1] = 50;
    input[2] = 100;
    input[3] = 49;
    input[4] = 101;
    let (lo, hi) = (50u64, 100u64);
    let expect: Vec<u64> = input
        .iter()
        .enumerate()
        .filter(|(_, &x)| (lo as i64) <= x as i64 && x as i64 <= hi as i64)
        .map(|(i, _)| 1000 + i as u64)
        .collect();
    for backend in backends() {
        for cfg in sample_nodes() {
            let mut sel = Vec::new();
            let mut io = KernelIo::Filter {
                input: &input,
                lo,
                hi,
                base: 1000,
                sel: &mut sel,
            };
            assert!(run_on(Family::Filter, cfg, backend, &mut io));
            assert_eq!(sel, expect, "{cfg} {backend:?}");
        }
    }
}

#[test]
fn filter_refine_agrees_across_backends_and_nodes() {
    // The selection-refining variant (secondary fact filters): start from a
    // random selection and keep only in-range rows, in order, in place.
    let mut input = random_input(4096, 123);
    input[7] = 50;
    input[8] = 100;
    input[9] = (-3i64) as u64;
    let (lo, hi) = (50u64, 100u64);
    let mut rng = Rng::seed_from_u64(321);
    for n in [0usize, 1, 7, 272, 273, 1999] {
        let start: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4096u64)).collect();
        let expect: Vec<u64> = start
            .iter()
            .copied()
            .filter(|&r| {
                let x = input[r as usize] as i64;
                lo as i64 <= x && x <= hi as i64
            })
            .collect();
        for backend in backends() {
            for cfg in sample_nodes() {
                let mut sel = start.clone();
                let mut io = KernelIo::FilterRefine { input: &input, lo, hi, sel: &mut sel };
                assert!(run_on(Family::Filter, cfg, backend, &mut io));
                assert_eq!(sel, expect, "n={n} {cfg} {backend:?}");
            }
        }
    }
}

#[test]
fn aggregations_agree_across_backends_with_wraparound() {
    let a = random_input(1537, 4);
    let b = random_input(1537, 5);
    let sum_ref = a.iter().fold(0u64, |s, &x| s.wrapping_add(x));
    let dot_ref = a
        .iter()
        .zip(&b)
        .fold(0u64, |s, (&x, &y)| s.wrapping_add(x.wrapping_mul(y)));
    for backend in backends() {
        for cfg in sample_nodes() {
            let mut acc = 0u64;
            let mut io = KernelIo::AggSum { a: &a, acc: &mut acc };
            assert!(run_on(Family::AggSum, cfg, backend, &mut io));
            assert_eq!(acc, sum_ref, "sum {cfg} {backend:?}");

            let mut acc = 0u64;
            let mut io = KernelIo::AggDot { a: &a, b: &b, acc: &mut acc };
            assert!(run_on(Family::AggDot, cfg, backend, &mut io));
            assert_eq!(acc, dot_ref, "dot {cfg} {backend:?}");
        }
    }
}

#[test]
fn bloom_agrees_across_backends() {
    let mut filter = BloomFilter::with_capacity(3000);
    let mut rng = Rng::seed_from_u64(21);
    for _ in 0..3000 {
        filter.insert(rng.gen_range(0..50_000u64));
    }
    let keys: Vec<u64> = (0..2345).map(|i| i * 31 % 70_000).collect();
    let expect: Vec<u64> = keys.iter().map(|&k| u64::from(filter.check_scalar(k))).collect();
    for backend in backends() {
        for cfg in sample_nodes() {
            let mut out = vec![0u64; keys.len()];
            let mut io = KernelIo::Bloom { keys: &keys, filter: &filter, out: &mut out, prefetch: 0 };
            assert!(run_on(Family::BloomCheck, cfg, backend, &mut io));
            assert_eq!(out, expect, "{cfg} {backend:?}");
        }
    }
}

#[test]
fn gather_agrees_across_backends() {
    let src = random_input(4096, 1);
    let idx: Vec<u64> = random_input(1777, 2).iter().map(|x| x % 4096).collect();
    let expect: Vec<u64> = idx.iter().map(|&i| src[i as usize]).collect();
    for backend in backends() {
        for cfg in sample_nodes() {
            let mut out = vec![0u64; idx.len()];
            let mut io = KernelIo::Gather { src: &src, idx: &idx, out: &mut out, prefetch: 0 };
            assert!(run_on(Family::Gather, cfg, backend, &mut io));
            assert_eq!(out, expect, "{cfg} {backend:?}");
        }
    }
}

#[test]
fn full_grid_murmur_differential() {
    // Every compiled node of one family, both backends, one length.
    let input = random_input(1111, 0xAB);
    let reference: Vec<u64> = input
        .iter()
        .map(|&x| hef::kernels::murmur::murmur64(x))
        .collect();
    for backend in backends() {
        for cfg in all_configs() {
            let mut out = vec![0u64; input.len()];
            let mut io = KernelIo::Map { input: &input, output: &mut out };
            assert!(run_on(Family::Murmur, cfg, backend, &mut io));
            assert_eq!(out, reference, "{cfg} {backend:?}");
        }
    }
}

/// Decode of a selection (`pos`) against the scalar `unpack_at` reference:
/// frame-of-reference and dictionary streams, every backend, a spread of
/// nodes, widths straddling word boundaries, and selections that are
/// empty, one row, the last row, every row, or a random sparse subset.
#[test]
fn decode_at_positions_agrees_with_unpack_at() {
    use hef::kernels::decode::{code_mask, pack, unpack_at};
    const REFERENCE: u64 = 0xffff_ffff_0000_0007;
    let n = 1000usize;
    let mut rng = Rng::seed_from_u64(0xDEC0);
    let sparse: Vec<u64> = (0..n as u64).filter(|_| rng.gen_below(9) == 0).collect();
    let selections: [(&str, Vec<u64>); 5] = [
        ("empty", vec![]),
        ("single", vec![417]),
        ("last", vec![n as u64 - 1]),
        ("dense", (0..n as u64).collect()),
        ("sparse", sparse),
    ];
    for width in [1u32, 5, 12, 13, 21, 33, 64] {
        let codes: Vec<u64> =
            random_input(n, width as u64).iter().map(|&c| c & code_mask(width)).collect();
        let words = pack(&codes, width);
        // Dictionary streams carry a gather table of `1 << width` entries.
        let table = random_input(1 << width.min(13), 99);
        let dicts: &[Option<&[u64]>] = if width <= 13 { &[None, Some(&table)] } else { &[None] };
        for &dict in dicts {
            for (name, sel) in &selections {
                let expect: Vec<u64> = sel
                    .iter()
                    .map(|&e| {
                        let code = unpack_at(&words, width, e as usize);
                        dict.map_or(code.wrapping_add(REFERENCE), |d| d[code as usize])
                    })
                    .collect();
                for backend in backends() {
                    for cfg in sample_nodes() {
                        let mut out = vec![0u64; sel.len()];
                        let mut io = KernelIo::Decode {
                            words: &words,
                            width,
                            reference: REFERENCE,
                            dict,
                            start: 0,
                            pos: Some(sel),
                            out: &mut out,
                        };
                        assert!(run_on(Family::Decode, cfg, backend, &mut io));
                        let enc = if dict.is_some() { "dict" } else { "for" };
                        assert_eq!(out, expect, "w={width} {enc} {name} {cfg} {backend:?}");
                    }
                }
            }
        }
    }
}
